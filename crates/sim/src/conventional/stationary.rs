//! Cycle-accurate stationary-operand (WS/IS) tile engine for the
//! conventional systolic array.
//!
//! One operand is preloaded into the array and held; the other streams in
//! from the left edge with a one-cycle skew per row while partial sums
//! flow down the columns and exit from the bottom row (paper §2.1).
//!
//! The engine is dataflow-agnostic: with the paper's Table 1 mapping,
//! weight-stationary holds `A` transposed (`S_R = K`, `S_C = M`, `T = N`)
//! and input-stationary holds `B` (`S_R = K`, `S_C = N`, `T = M`). The
//! wrappers in `lib.rs` perform those projections.

use crate::matrix::Matrix;
use crate::pe::{fetch, mac_psums, Axis, Flow, StationaryPlanes, TileCounts};
use crate::probe::{FeedOperand, Probe};
use crate::stats::SimStats;

/// Simulates one stationary tile.
///
/// * `stationary` — the preloaded `sr x sc` grid (`stationary[(k, j)]` sits
///   in PE `(k, j)`).
/// * `stream` — the `t_len x sr` streaming operand; `stream[(t, k)]` is
///   consumed by row `k` at logical step `t`.
///
/// Returns the `t_len x sc` output, where
/// `out[(t, j)] = sum_k stationary[(k, j)] * stream[(t, k)]`.
///
/// The per-tile cycle count is `2*sr + sc + t_len - 2` (Eq. 1): `sr`
/// preload cycles plus `t_len + sr + sc - 2` streaming cycles.
pub(crate) fn run_tile<P: Probe>(
    planes: &mut StationaryPlanes,
    stationary: &Matrix,
    stream: &Matrix,
    zero_gating: bool,
    stats: &mut SimStats,
    probe: &mut P,
) -> Matrix {
    let sr = stationary.rows();
    let sc = stationary.cols();
    let t_len = stream.rows();
    debug_assert_eq!(stream.cols(), sr);

    // The stream moves right along rows; partial sums move down.
    let StationaryPlanes { flow, psum } = planes;
    flow.reset(sr, sc, Axis::Rows, Flow::Forward);
    psum.reset(sr, sc, Axis::Cols, Flow::Forward);
    let mut out = Matrix::zeros(t_len, sc);
    let mut collected = vec![0usize; sc];
    let mut done = 0usize;
    let mut cycle = 0usize;
    let mut counts = TileCounts::default();

    // Preload: one stationary row per cycle via the vertical interconnect.
    stats.preload_cycles += sr;
    counts.buffer_reads += sr * sc;

    while done < sc * t_len {
        // Every operand reaches every PE within t_len + sr + sc cycles; a
        // broken schedule must fail here rather than spin.
        assert!(cycle < t_len + sr + sc, "tile wavefront stalled");
        // Stream propagation: left-edge feed with skew k, then rightward.
        flow.shift();
        for k in 0..sr {
            let idx = cycle.checked_sub(k).map(|t| (t, k));
            let v = fetch(stream, idx, FeedOperand::Stream, cycle, &mut counts, probe);
            flow.set_next(k, 0, v);
        }
        flow.advance();

        // MAC + partial-sum descent. A PE fires when its stream operand is
        // present; the skew guarantees the psum from above arrives the same
        // cycle. The top row starts a fresh psum.
        psum.shift();
        for j in 0..sc {
            psum.set_next(0, j, Some(0.0));
        }
        let fired = mac_psums(
            psum,
            stationary,
            flow,
            zero_gating,
            &mut counts,
            probe,
            cycle,
        );
        assert!(
            fired.is_ok(),
            "skew keeps psums aligned with the stream wavefront"
        );
        psum.advance();
        for j in 0..sc {
            if let Some(acc) = psum.get(sr - 1, j) {
                out[(collected[j], j)] = acc;
                collected[j] += 1;
                done += 1;
            }
        }
        cycle += 1;
    }

    counts.fold_into(stats);
    stats.cycles += sr + cycle;
    stats.tiles += 1;
    out
}

/// [`run_tile`] on freshly allocated planes.
#[cfg(test)]
pub(crate) fn simulate_tile<P: Probe>(
    stationary: &Matrix,
    stream: &Matrix,
    zero_gating: bool,
    stats: &mut SimStats,
    probe: &mut P,
) -> Matrix {
    let mut planes = StationaryPlanes::default();
    run_tile(&mut planes, stationary, stream, zero_gating, stats, probe)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| (r * cols + c + 1) as f32)
    }

    fn reference(stationary: &Matrix, stream: &Matrix) -> Matrix {
        // out = stream * stationary
        stream.matmul(stationary)
    }

    #[test]
    fn computes_correct_output() {
        let s = seq(4, 3);
        let y = seq(5, 4);
        let mut stats = SimStats::new();
        let out = simulate_tile(&s, &y, false, &mut stats, &mut crate::probe::NoProbe);
        assert_eq!(out, reference(&s, &y));
    }

    #[test]
    fn cycle_count_matches_eq1() {
        for (sr, sc, t) in [(4usize, 3usize, 5usize), (1, 1, 1), (8, 8, 2), (3, 9, 7)] {
            let s = seq(sr, sc);
            let y = seq(t, sr);
            let mut stats = SimStats::new();
            simulate_tile(&s, &y, false, &mut stats, &mut crate::probe::NoProbe);
            assert_eq!(stats.cycles, 2 * sr + sc + t - 2, "sr={sr} sc={sc} t={t}");
            assert_eq!(stats.preload_cycles, sr);
        }
    }

    #[test]
    fn mac_and_read_counts() {
        let s = seq(4, 3);
        let y = seq(5, 4);
        let mut stats = SimStats::new();
        simulate_tile(&s, &y, false, &mut stats, &mut crate::probe::NoProbe);
        assert_eq!(stats.macs_performed, 4 * 3 * 5);
        // Preload reads + streaming reads.
        assert_eq!(stats.buffer_reads, 4 * 3 + 5 * 4);
    }

    #[test]
    fn zero_gating_passthrough_keeps_result() {
        let mut s = seq(3, 3);
        s[(1, 1)] = 0.0;
        let mut y = seq(4, 3);
        y[(2, 0)] = 0.0;
        let mut stats = SimStats::new();
        let out = simulate_tile(&s, &y, true, &mut stats, &mut crate::probe::NoProbe);
        assert_eq!(out, reference(&s, &y));
        // One stationary zero hits every t; one stream zero hits every
        // column; the overlap (t=2, j=1, k=... ) is counted once per slot.
        assert!(stats.macs_gated >= 4 + 3 - 1);
    }
}
