//! Cycle-accurate output-stationary tile engine for the conventional
//! systolic array.
//!
//! Operands enter at the left column (ifmap/`A`) and the top row
//! (filters/`B`), skewed by one cycle per row/column, and propagate
//! unidirectionally (paper Fig. 1). Each PE accumulates its output in
//! place; after the last MAC the array drains for `r` cycles.

use crate::matrix::Matrix;
use crate::pe::{fetch, mac_os, Axis, Flow, OsPlanes, TileCounts};
use crate::probe::{FeedOperand, Probe};
use crate::stats::SimStats;

/// Simulates one OS tile: `a` is `r x k`, `b` is `k x c`, with `r`/`c` not
/// exceeding the physical array (enforced by the callers in `lib.rs`).
///
/// Returns the `r x c` output tile and updates `stats` in place. The total
/// cycle count per tile is `2r + c + k - 2` (Eq. 1 with `T = k`), split as
/// `k + r + c - 2` active cycles plus `r` drain cycles.
pub(crate) fn run_tile<P: Probe>(
    planes: &mut OsPlanes,
    a: &Matrix,
    b: &Matrix,
    zero_gating: bool,
    stats: &mut SimStats,
    probe: &mut P,
) -> Matrix {
    let r = a.rows();
    let k = a.cols();
    let c = b.cols();
    debug_assert_eq!(k, b.rows());

    // Operands move right along rows and down columns.
    let OsPlanes { a_flow, b_flow } = planes;
    a_flow.reset(r, c, Axis::Rows, Flow::Forward);
    b_flow.reset(r, c, Axis::Cols, Flow::Forward);
    let mut acc = Matrix::zeros(r, c);
    let mut counts = TileCounts::default();
    let expected = r * c * k;
    let mut cycle = 0usize;

    while counts.slots() < expected {
        // Every operand reaches every PE within k + r + c cycles; a
        // broken schedule must fail here rather than spin.
        assert!(cycle < k + r + c, "tile wavefront stalled");
        // Propagate into the current cycle: interior PEs take their
        // neighbour's previous value; the left/top edges are fed with the
        // skewed streams (row i and column j skewed by i and j cycles),
        // in the order of a row-major scan of the array.
        a_flow.shift();
        b_flow.shift();
        for i in 0..r {
            let a_idx = cycle.checked_sub(i).map(|t| (i, t));
            a_flow.set_next(
                i,
                0,
                fetch(a, a_idx, FeedOperand::A, cycle, &mut counts, probe),
            );
            if i == 0 {
                for j in 0..c {
                    let b_idx = cycle.checked_sub(j).map(|t| (t, j));
                    let bv = fetch(b, b_idx, FeedOperand::B, cycle, &mut counts, probe);
                    b_flow.set_next(0, j, bv);
                }
            }
        }
        a_flow.advance();
        b_flow.advance();

        // MAC phase: every PE holding both operands fires.
        mac_os(
            &mut acc,
            a_flow,
            b_flow,
            zero_gating,
            &mut counts,
            probe,
            cycle,
        );
        cycle += 1;
    }

    // Drain: outputs shift out row by row (r cycles). The values are
    // already in `acc`; only the latency is billed.
    counts.fold_into(stats);
    stats.cycles += cycle + r;
    stats.drain_cycles += r;
    stats.tiles += 1;
    acc
}

/// [`run_tile`] on freshly allocated planes.
#[cfg(test)]
pub(crate) fn simulate_tile<P: Probe>(
    a: &Matrix,
    b: &Matrix,
    zero_gating: bool,
    stats: &mut SimStats,
    probe: &mut P,
) -> Matrix {
    run_tile(&mut OsPlanes::default(), a, b, zero_gating, stats, probe)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| (r * cols + c + 1) as f32)
    }

    #[test]
    fn computes_correct_product() {
        let a = seq(3, 4);
        let b = seq(4, 2);
        let mut stats = SimStats::new();
        let c = simulate_tile(&a, &b, false, &mut stats, &mut crate::probe::NoProbe);
        assert_eq!(c, a.matmul(&b));
    }

    #[test]
    fn cycle_count_matches_eq1() {
        // 2r + c + k - 2
        for (r, k, c) in [(4usize, 7usize, 5usize), (1, 1, 1), (8, 3, 8), (2, 16, 9)] {
            let a = seq(r, k);
            let b = seq(k, c);
            let mut stats = SimStats::new();
            simulate_tile(&a, &b, false, &mut stats, &mut crate::probe::NoProbe);
            assert_eq!(stats.cycles, 2 * r + c + k - 2, "r={r} k={k} c={c}");
        }
    }

    #[test]
    fn mac_count_is_rkc() {
        let a = seq(3, 5);
        let b = seq(5, 4);
        let mut stats = SimStats::new();
        simulate_tile(&a, &b, false, &mut stats, &mut crate::probe::NoProbe);
        assert_eq!(stats.macs_performed, 3 * 5 * 4);
        assert_eq!(stats.buffer_reads, 3 * 5 + 5 * 4);
    }

    #[test]
    fn zero_gating_skips_zero_macs() {
        let mut a = seq(3, 3);
        a[(0, 0)] = 0.0;
        a[(1, 2)] = 0.0;
        let b = seq(3, 3);
        let mut stats = SimStats::new();
        let c = simulate_tile(&a, &b, true, &mut stats, &mut crate::probe::NoProbe);
        // Each zero A element feeds a full row of 3 output columns.
        assert_eq!(stats.macs_gated, 2 * 3);
        assert_eq!(stats.macs_performed, 27 - 6);
        // Result is still exact: gated MACs contribute zero anyway.
        assert_eq!(c, a.matmul(&b));
    }
}
