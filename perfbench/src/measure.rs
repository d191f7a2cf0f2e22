//! Measurement plumbing shared by the workloads: layer spans, medians,
//! peak memory, the run environment and the JSON result lines.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Every workload builds its inputs this many times before measuring,
/// and once more between timed repetitions; `setup_s` is the median of
/// all those builds.
pub const SETUP_REPS: usize = 5;

/// One timed call into a layer of the program.
#[derive(Debug)]
pub struct Span {
    /// Layer name, e.g. `sim` or `pod`.
    pub name: &'static str,
    /// The op the call belongs to; spans of one op share it.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Offset of the call's start from the recorder's origin.
    pub start: Duration,
    /// Offset of the call's end (equal to `start` while still open).
    pub end: Duration,
}

/// In-memory span recorder; spans are written out once, when the run
/// ends, so recording costs two clock reads per call.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its index for [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Duration in seconds of the most recently opened span.
    pub fn last_s(&self) -> f64 {
        self.spans
            .last()
            .map_or(0.0, |s| (s.end - s.start).as_secs_f64())
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Durations in seconds of the spans named `name`, in record order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    /// The spans as Chrome trace-event JSON (loads in Perfetto), with
    /// the run environment in the metadata.
    pub fn chrome_json(&self, env: &Env) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"op\":{},\"parent\":{parent}}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.op,
            );
        }
        let _ = write!(out, "],\"metadata\":{}}}", env.json());
        out
    }
}

/// Median of `values` (mean of the middle two for an even count; 0 for
/// none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer idle in the
/// workload reports 0 rather than NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What a timed loop measured.
pub struct Throughput {
    /// Median over the repetitions.
    pub ops_per_s: f64,
    /// The process's resident-memory high-water mark when the first
    /// repetition ends: setup plus one pass of the workload. Later
    /// repetitions are left out because the allocator's retained,
    /// fragmented heap grows with their number, not with the workload.
    pub peak_rss_mib: f64,
}

/// Runs `rep` until `seconds` have passed, and at least `min_reps`
/// times. Each repetition returns the ops it ran and the time spent in
/// the op calls. `between` runs before every repetition but the first,
/// outside the timing: the workloads repeat their setup there, so the
/// setup samples spread over the whole run like the op samples do.
pub fn timed_loop(
    seconds: u64,
    min_reps: usize,
    mut between: impl FnMut(),
    mut rep: impl FnMut() -> (u64, Duration),
) -> Throughput {
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut rates = Vec::new();
    let mut peak_rss_mib = 0.0;
    while rates.len() < min_reps || started.elapsed() < budget {
        if !rates.is_empty() {
            between();
        }
        let (ops, busy) = rep();
        rates.push(ops as f64 / busy.as_secs_f64());
        if rates.len() == 1 {
            peak_rss_mib = peak_rss_mib_now().expect("resident memory is readable from /proc");
        }
    }
    let shown: Vec<String> = rates.iter().map(|r| format!("{r:.4}")).collect();
    eprintln!("perfbench: ops/s per repetition: {}", shown.join(" "));
    Throughput {
        ops_per_s: median(&rates),
        peak_rss_mib,
    }
}

/// The process's resident-memory high-water mark in MiB (`VmHWM`).
fn peak_rss_mib_now() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Where and how a result was produced; printed with every result so
/// numbers from different machines or seeds are never mixed up.
#[derive(Debug)]
pub struct Env {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub nproc: usize,
    pub rustc: &'static str,
    pub commit: String,
}

impl Env {
    pub fn new(workload: &str, seed: u64, seconds: u64, trace: bool) -> Self {
        Env {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            nproc: nproc(),
            rustc: env!("PERFBENCH_RUSTC"),
            commit: git_commit(),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
             \"rustc\":\"{}\",\"commit\":\"{}\"}}",
            escape(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            self.nproc,
            escape(self.rustc),
            escape(&self.commit),
        )
    }
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The source revision, or `unknown` for an export without git
/// metadata (a git repository enclosing the export does not count).
fn git_commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--show-toplevel", "HEAD"])
        .current_dir(&root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_default();
    let mut lines = out.lines();
    let same_root = |top: &str| {
        let canon = |p: &std::path::Path| p.canonicalize().ok();
        canon(std::path::Path::new(top)).is_some_and(|t| Some(t) == canon(&root))
    };
    match (lines.next(), lines.next()) {
        (Some(top), Some(commit)) if same_root(top) => commit.trim().to_string(),
        _ => "unknown".into(),
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Named metrics with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The metrics object of the result line. Every value must be
    /// finite; JSON has no NaN.
    pub fn json(&self) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        Ok(out)
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops run (and checked).
    pub attempted: u64,
    /// Ops whose outputs failed a check.
    pub failed: u64,
    /// One line per failed check, for the log.
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Layer spans, recorded only by the traced run.
    pub spans: Option<Spans>,
}

impl Outcome {
    /// Books `ops` checked ops; a failed check marks them all failed.
    pub fn check(&mut self, ops: u64, result: Result<(), String>) {
        self.attempted += ops;
        if let Err(e) = result {
            self.failed += ops;
            if self.failures.len() < 20 {
                self.failures.push(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metrics_reject_non_finite_values() {
        let mut m = Metrics::default();
        m.push("x", 1.5, "s");
        assert_eq!(
            m.json().unwrap(),
            "{\"x\": {\"value\": 1.5, \"unit\": \"s\"}}"
        );
        m.push("y", f64::NAN, "s");
        assert!(m.json().is_err());
    }

    #[test]
    fn a_failed_check_fails_every_op_it_covers() {
        let mut o = Outcome::default();
        o.check(5, Ok(()));
        o.check(3, Err("tampered".into()));
        assert_eq!((o.attempted, o.failed), (8, 3));
        assert_eq!(o.failures, vec!["tampered".to_string()]);
    }
}
