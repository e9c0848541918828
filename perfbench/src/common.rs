//! What the workloads share: the run context, the result a workload
//! hands back, the pass schedule, summary statistics, and the per-layer
//! metric rows.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::ops::{self, Counters, OpWork};
use crate::tracer::{self, Span};

/// How many times each workload repeats its set-up before its passes,
/// and again after them; `setup_s` is the median of both rounds, so that
/// it does not hang on the host's state at one moment.
pub const SETUP_REPS: usize = 31;

/// A deliberate corruption of one expected value, for the self-check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corrupt {
    /// Alter one expected fingerprint.
    Fingerprint,
    /// Flip one byte of one served payload.
    Payload,
    /// Stall the open-loop generator once.
    Stall,
}

/// Command-line settings of one benchmark run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub corrupt: Option<Corrupt>,
    /// Latency limit of one job, for `within_limit_frac`.
    pub limit_ms: f64,
    /// Scratch space inside the checkout (serving journal and cache).
    pub work_dir: PathBuf,
}

/// The latency limit of `workload`: the number in the `limit <N> ms`
/// phrase of its `why` in `BENCHMARK.json` (read from the working
/// directory, the root of the checkout), so the limit is stated once,
/// next to the workload it applies to.
pub fn limit_ms(workload: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let doc = sim_trace::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let why = doc
        .get("workloads")
        .and_then(|w| w.as_arr())
        .and_then(|ws| {
            ws.iter()
                .find(|w| w.get("name").and_then(|n| n.as_str()) == Some(workload))
        })
        .and_then(|w| w.get("why")?.as_str())
        .ok_or(format!("BENCHMARK.json has no workload {workload:?}"))?;
    limit_in(why).ok_or(format!("the why of {workload:?} names no `limit <N> ms`"))
}

/// The `<N>` of the first `limit <N> ms` in `text`.
fn limit_in(text: &str) -> Option<f64> {
    let (_, rest) = text.split_once("limit ")?;
    rest.split_once(" ms")?.0.parse().ok()
}

/// A metric row: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What a workload run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Spans of each traced pass, by pass index.
    pub spans: Vec<(usize, Vec<Span>)>,
}

impl Outcome {
    /// Keep the spans of the traced passes, by pass index.
    pub fn new(attempted: u64, failed: u64, metrics: Vec<Metric>, passes: Vec<Pass>) -> Outcome {
        let spans = passes
            .into_iter()
            .enumerate()
            .filter(|(_, p)| p.traced)
            .map(|(i, p)| (i, p.spans))
            .collect();
        Outcome {
            attempted,
            failed,
            metrics,
            spans,
        }
    }
}

/// One measured pass.
pub struct Pass {
    pub traced: bool,
    pub wall: Duration,
    /// Work counters, when the pass can see them (an untraced serving
    /// pass runs the simulations inside the daemon and cannot).
    pub counters: Option<Counters>,
    pub spans: Vec<Span>,
}

/// Run passes until `seconds` would be exceeded by another one, with at
/// least `min_passes`. With `trace`, passes alternate untraced and traced,
/// starting untraced, and always include one of each.
pub fn schedule(ctx: &Ctx, min_passes: usize, mut pass: impl FnMut(bool) -> Pass) -> Vec<Pass> {
    let start = Instant::now();
    let min = if ctx.trace {
        min_passes.max(2)
    } else {
        min_passes.max(1)
    };
    let mut out: Vec<Pass> = Vec::new();
    loop {
        let traced = ctx.trace && out.len() % 2 == 1;
        let p = pass(traced);
        out.push(p);
        let longest = out.iter().map(|p| p.wall).max().unwrap_or_default();
        if out.len() >= min && start.elapsed() + longest > Duration::from_secs_f64(ctx.seconds) {
            return out;
        }
    }
}

/// Shortest wall time of the untraced passes, in seconds: the calmest
/// pass, for the reason given at [`EndToEnd::metrics`].
pub fn untraced_pass_s(passes: &[Pass]) -> f64 {
    passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.wall.as_secs_f64())
        .fold(f64::INFINITY, f64::min)
}

/// Passes whose counters drift from the first pass; each counts as one
/// failed operation of `workload`. Analyzer visits are only counted by
/// traced passes, so they are compared among those.
pub fn drifted(workload: &str, passes: &[Pass]) -> u64 {
    let mask = |c: Counters| Counters {
        work: OpWork {
            visits: 0,
            ..c.work
        },
        ..c
    };
    let counted = || passes.iter().filter_map(|p| Some((p.traced, p.counters?)));
    let Some((_, first)) = counted().next() else {
        return 0;
    };
    let first_traced = counted().find(|(traced, _)| *traced).map(|(_, c)| c);
    let drift = counted()
        .filter(|&(traced, c)| mask(c) != mask(first) || (traced && Some(c) != first_traced))
        .count() as u64;
    if drift > 0 {
        eprintln!("{workload}: work counters drifted in {drift} pass(es)");
    }
    drift
}

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time `f` [`SETUP_REPS`] times; returns each time in seconds and the
/// last result.
pub fn timed_setup<T>(mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(t0.elapsed().as_secs_f64());
    }
    (times, last.expect("at least one set-up"))
}

/// The end-to-end rows every workload reports.
pub struct EndToEnd {
    pub pass_s: f64,
    /// Job latencies of each untraced pass.
    pub job_ms: Vec<Vec<f64>>,
    pub within_limit: u64,
    pub setup_s: f64,
}

impl EndToEnd {
    /// Latency percentiles are the lowest over passes of each pass's
    /// percentile. On a shared host, other tenants take the CPU away for
    /// seconds at a time and only ever add time, and they move a tail
    /// percentile two to four times as much as the median; the calmest
    /// pass of a run varies less between runs than its median pass. A
    /// slower program raises every pass, the calmest one too.
    pub fn metrics(&self) -> Vec<Metric> {
        let per_pass = |q: f64| {
            self.job_ms
                .iter()
                .map(|ms| quantile(ms, q))
                .fold(f64::INFINITY, f64::min)
        };
        let jobs: usize = self.job_ms.iter().map(Vec::len).sum();
        vec![
            ("pass_s".into(), self.pass_s, "s"),
            ("job_ms_p50".into(), per_pass(0.5), "ms"),
            ("job_ms_p95".into(), per_pass(0.95), "ms"),
            (
                "within_limit_frac".into(),
                self.within_limit as f64 / jobs.max(1) as f64,
                "frac",
            ),
            ("setup_s".into(), self.setup_s, "s"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
        ]
    }
}

/// Per-layer rows of the serving daemon and the open-loop generator;
/// zero on the direct workloads.
#[derive(Clone, Copy, Default)]
pub struct ServeLayer {
    pub ack_ms_p50: f64,
    pub hit_ms_p50: f64,
    pub miss_ms_p50: f64,
    pub cache_hit_frac: f64,
    pub coalesced: f64,
    pub busy_rejects: f64,
    pub journal_bytes: f64,
    pub gen_lag_ms_p95: f64,
}

/// The per-layer rows of a traced run. Layer seconds are self times per
/// pass, the median over the traced passes; counts come from the first
/// traced pass (every pass must repeat them exactly).
pub fn layer_metrics(passes: &[Pass], overhead_frac: f64, serve: ServeLayer) -> Vec<Metric> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let selfs: Vec<_> = traced
        .iter()
        .map(|p| tracer::self_seconds(&p.spans))
        .collect();
    let layer_s = |name: &str| {
        median(
            &selfs
                .iter()
                .map(|m| m.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let c = traced.iter().find_map(|p| p.counters).unwrap_or_default();
    let per = |s: f64, n: u64| if n == 0 { 0.0 } else { s * 1e9 / n as f64 };
    let analyze_s = layer_s(ops::ANALYZE);
    let run_s = layer_s(ops::EXEC_RUN);
    // Time inside the operations, the analyzer's share of which is the
    // baseline for doing analysis once per program instead of per run.
    let op_s: f64 = [
        ops::RUN_PROGRAM,
        ops::CHECKPOINT_PROGRAM,
        ops::RESUME_PROGRAM,
    ]
    .iter()
    .map(|name| {
        let per_pass: Vec<f64> = traced
            .iter()
            .map(|p| tracer::durations_ms(&p.spans, name).iter().sum::<f64>() / 1e3)
            .collect();
        median(&per_pass)
    })
    .sum();
    let mut out: Vec<Metric> = vec![
        ("omp-analyze.s".into(), analyze_s, "s"),
        (
            "omp-analyze.share".into(),
            if op_s > 0.0 { analyze_s / op_s } else { 0.0 },
            "frac",
        ),
        (
            "omp-analyze.ns_per_visit".into(),
            per(analyze_s, c.work.visits),
            "ns",
        ),
        ("slipstream.compile.s".into(), layer_s(ops::COMPILE), "s"),
        (
            "slipstream.exec.init_s".into(),
            layer_s(ops::EXEC_INIT),
            "s",
        ),
        ("slipstream.exec.run_s".into(), run_s, "s"),
        (
            "slipstream.exec.finish_s".into(),
            layer_s(ops::EXEC_FINISH),
            "s",
        ),
        (
            "slipstream.exec.ns_per_access".into(),
            per(run_s, c.accesses),
            "ns",
        ),
        ("snap.encode_s".into(), layer_s(ops::SNAP_ENCODE), "s"),
        ("snap.decode_s".into(), layer_s(ops::SNAP_DECODE), "s"),
    ];
    out.extend(
        c.metrics()
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u)),
    );
    out.extend([
        ("sim-serve.ack_ms_p50".into(), serve.ack_ms_p50, "ms"),
        ("sim-serve.hit_ms_p50".into(), serve.hit_ms_p50, "ms"),
        ("sim-serve.miss_ms_p50".into(), serve.miss_ms_p50, "ms"),
        (
            "sim-serve.cache_hit_frac".into(),
            serve.cache_hit_frac,
            "frac",
        ),
        ("sim-serve.coalesced".into(), serve.coalesced, "count"),
        ("sim-serve.busy_rejects".into(), serve.busy_rejects, "count"),
        (
            "sim-serve.journal_bytes".into(),
            serve.journal_bytes,
            "bytes",
        ),
        ("gen.lag_ms_p95".into(), serve.gen_lag_ms_p95, "ms"),
        ("trace.overhead_frac".into(), overhead_frac, "frac"),
    ]);
    out
}

/// Traced against untraced pass time: median over each kind, minus one.
pub fn overhead_frac(passes: &[Pass]) -> f64 {
    let med = |traced: bool| {
        median(
            &passes
                .iter()
                .filter(|p| p.traced == traced)
                .map(|p| p.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    med(true) / med(false) - 1.0
}

/// A seeded SplitMix64 stream for input generation. The benchmark keeps
/// its own copy rather than using the simulator's, so that a change to
/// the program never changes the inputs the benchmark gives it.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn limit_is_read_from_the_why() {
        assert_eq!(limit_in("Open loop, limit 25 ms; mix"), Some(25.0));
        assert_eq!(limit_in("limit 2.5 ms"), Some(2.5));
        assert_eq!(limit_in("no limit here"), None);
        assert_eq!(limit_in("limit 25 s"), None);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert_eq!(a, (0..4).map(|_| r.next()).collect::<Vec<_>>());
        assert_ne!(Rng::new(7, 2).next(), a[0]);
    }
}
