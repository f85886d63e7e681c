//! # perfbench — the repository's end-to-end and per-layer benchmark
//!
//! One command runs one of three named workloads (`density`, `serve`,
//! `churn`) against the simulated stack and prints one JSON result line.
//! A run has four parts, always in this order:
//!
//! 1. **set-up** — boot the workload's cluster(s), install the runtime
//!    classes, pull images and run the warm-up pod, several times; the
//!    median is `setup_s`;
//! 2. **timed section** — repeat the workload's operation on inputs
//!    generated from `--seed` for `--seconds`, in rounds; throughput is a
//!    median over rounds (over each configuration's cells on `density`);
//! 3. **model pass** — the simulated metrics of all three workloads,
//!    from fixed model seeds, so they are identical across runs;
//! 4. **checks** — every output check; a failed check counts into
//!    `failed`, makes `correct` false and the exit code non-zero.
//!
//! With `--trace 1` the run is the traced run instead: spans around the
//! benchmark's calls into each crate yield the per-layer metrics (see
//! [`layers`]) and the tracing overhead.
//!
//! See `perfbench/README.md` for the workload rationale and the
//! layer → end-to-end metric → workload map.

pub mod churn;
pub mod density;
pub mod layers;
pub mod serve;
pub mod trace;

use std::time::Instant;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["density", "serve", "churn"];

/// The worker count the benchmark pins for the harness's parallel
/// drivers: load comes from one process, one thread.
pub const HARNESS_THREADS: usize = 1;

/// Sizes of everything a run does. [`Scale::full`] is the benchmark;
/// [`Scale::smoke`] is the same code at test size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Pods per `density` cell (the paper's middle density).
    pub density_pods: usize,
    /// Set-up repetitions per run (`setup_s` is their median).
    pub setup_reps: usize,
    /// Measured requests per `serve` ladder rung.
    pub rung_requests: usize,
    /// Fault schedules per `churn` round.
    pub churn_batch: usize,
    /// Fault schedules in the `churn` model pass.
    pub model_schedules: usize,
    /// Rounds per arm when the traced run measures its own overhead.
    pub overhead_rounds: usize,
    /// Pods per family on the CRI twin node.
    pub cri_pods: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            density_pods: 100,
            setup_reps: 15,
            rung_requests: 40_000,
            churn_batch: 8,
            model_schedules: 16,
            overhead_rounds: 5,
            cri_pods: 10,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            density_pods: 4,
            setup_reps: 2,
            rung_requests: 2_000,
            churn_batch: 2,
            model_schedules: 2,
            overhead_rounds: 1,
            cri_pods: 2,
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err(format!("bad --seconds {value}"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, got {:?}", a.workload));
    }
    Ok(a)
}

/// One metric value as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything a run produces: operation counts, check failures, metrics,
/// and human-readable notes printed before the JSON line.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let name = name.into();
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push(Metric { name, unit, value });
    }

    /// Record a failed check (counted as one failed operation).
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        self.failures.push(msg.into());
    }

    pub fn note(&mut self, msg: impl Into<String>) {
        self.notes.push(msg.into());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, v, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median (mean of the middle two for even counts); 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub const MIB: f64 = (1u64 << 20) as f64;

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Host time of `f`, seconds.
pub fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Median host seconds of `reps` set-ups. Each starts from an empty
/// process-wide module-artifact cache, as a fresh process would, so work
/// moved into first use shows in `setup_s`; the last one leaves the cache
/// warm for the timed section.
pub fn median_setup(
    reps: usize,
    mut once: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        wasm_core::ArtifactCache::global().clear();
        let (r, s) = secs(&mut once);
        r?;
        times.push(s);
    }
    Ok(median(&times))
}

/// Run `round` until `seconds` of host time have passed (at least one
/// round); returns the per-round results with their wall seconds.
pub fn timed_rounds<T>(
    seconds: f64,
    mut round: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<(T, f64)>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let i = out.len();
        let (r, wall) = secs(|| round(i));
        out.push((r?, wall));
    }
    Ok(out)
}

/// Run one workload end to end and return its report.
pub fn run(args: &Args, scale: &Scale) -> Report {
    let mut rep = Report::default();
    rep.note(format!(
        "perfbench workload={} seed={} seconds={} trace={} harness_threads={}",
        args.workload, args.seed, args.seconds, args.trace as u8, HARNESS_THREADS
    ));
    let result = if args.trace {
        layers::traced_run(args, scale, &mut rep)
    } else {
        measured_run(args, scale, &mut rep)
    };
    if let Err(e) = result {
        rep.fail(format!("run aborted: {e}"));
    }
    rep
}

/// The measured (untraced) run: set-up, timed section, model pass,
/// checks, and the end-to-end metrics in `BENCHMARK.json` order.
fn measured_run(args: &Args, scale: &Scale, rep: &mut Report) -> Result<(), String> {
    let setup = match args.workload.as_str() {
        "density" => density::setup(scale)?,
        "serve" => serve::setup(scale)?,
        _ => churn::setup(scale)?,
    };

    // Timed section.
    let mut density_model = None;
    let ops_per_s = match args.workload.as_str() {
        "density" => {
            let t = density::timed_section(args, scale, rep)?;
            density_model = Some(t.model);
            t.ops_per_s
        }
        "serve" => serve::timed_section(args, scale, rep)?,
        _ => churn::timed_section(args, scale, rep)?,
    };
    let rss = peak_rss_mib()?;

    // Model pass: the simulated metrics of every workload.
    let density_model = match density_model {
        Some(m) => m,
        None => density::model(scale, rep)?,
    };
    let serve_model = serve::model(scale, rep)?;
    let churn_model = churn::model(scale, rep)?;

    rep.metric("setup_s", "s", setup);
    rep.metric("ops_per_s", "1/s", ops_per_s);
    rep.metric("host_rss_mib", "MiB", rss);
    let ok = rep.attempted.saturating_sub(rep.failed) as f64 / rep.attempted.max(1) as f64;
    rep.note(format!("fail_pct={:.4}", 100.0 * (1.0 - ok)));
    rep.metric("ok_pct", "%", 100.0 * ok);
    density_model.metrics(rep);
    serve_model.metrics(rep);
    churn_model.metrics(rep);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(argv("--workload serve --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, "serve");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(parse_args(argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(argv("--workload churn --trace 2")).is_err());
        assert!(parse_args(argv("--workload churn --seconds -1")).is_err());
        assert!(parse_args(argv("--workload churn --seed")).is_err());
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = Report { attempted: 3, ..Report::default() };
        r.metric("setup_s", "s", 0.5);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.fail("x");
        assert!(r.json().starts_with("{\"correct\": false"));
    }
}
