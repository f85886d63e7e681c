//! `serve`: open-loop FaaS traffic on the simulated clock, through
//! `harness::traffic` with [`Workload::serving`].
//!
//! One round, for ours (crun-wamr) and crun-wasmtime (lowered tier):
//!
//! * a Poisson rate ladder at fixed multiples of deployment capacity
//!   ([`LADDER`], including 0.8×); each rung is a warm-up, a measured
//!   steady leg and a backlog-probe leg at the same rate;
//! * the overload-and-recover contract (3× capacity, then 0.5×) with its
//!   control arm, checked by `check_contract`;
//! * on ours, the rollout + HPA scenario, checked by `check_scenario`.
//!
//! Latency is timed from each request's scheduled arrival, so generator
//! lateness is 0 by construction.

use harness::{
    check_contract, check_scenario, pod_capacity_rps, request_exec, run_overload_contract,
    run_scenario, run_traffic, ArrivalProfile, Config, ContractPlan, PhaseSpec, PhaseStats,
    TrafficPlan, TrafficRun, Workload,
};
use k8s_sim::{Cluster, DeploymentController, DeploymentSpec, Service, ServiceConfig};
use simkernel::rng::SplitMix64;
use simkernel::{Duration, SimTime};

use crate::trace::{span, timed};
use crate::{median, median_setup, secs, timed_rounds, Args, Report, Scale, MIB};

/// The two configurations served.
pub const CONFIGS: [Config; 2] = [Config::WamrCrun, Config::CrunWasmtime];

/// Offered load of each ladder rung, as a multiple of deployment capacity.
pub const LADDER: [f64; 7] = [0.5, 0.8, 0.9, 1.0, 1.1, 1.25, 1.5];

/// The rung whose latency, goodput and memory the metrics report.
pub const REPORT_RUNG: f64 = 0.8;

/// The p99 limit of `max_rps_at_slo` (also written into `BENCHMARK.json`).
pub const SLO_P99_MS: f64 = 50.0;

/// A rung's backlog is growing when the probe leg's p99 exceeds the
/// steady leg's by more than this factor.
const BACKLOG_GROWTH: f64 = 1.5;

/// Seed of the model pass (the tuning seed in `perfbench/README.md`).
pub const MODEL_SEED: u64 = 0x5E_7E;

/// Shed-reason names by `TrafficRun::sheds_by_reason` index.
pub const SHED_REASONS: [&str; 4] = ["no_endpoint", "queue_full", "wait_budget", "deadline"];

/// One set-up: a cluster with both configurations installed and warmed.
pub fn setup(scale: &Scale) -> Result<f64, String> {
    let w = Workload::serving();
    median_setup(scale.setup_reps, || {
        let mut cluster = timed("harness.setup.cluster", || harness::new_cluster(&CONFIGS, &w))
            .map_err(|e| format!("serve setup: {e}"))?;
        let _s = span("harness.setup.warmup");
        for c in CONFIGS {
            harness::warmup(&mut cluster, c).map_err(|e| format!("serve warm-up {c:?}: {e}"))?;
        }
        Ok(())
    })
}

/// Latency quantile over *sent* requests: a request that was refused or
/// failed counts as beyond any limit, so the quantile is infinite when
/// the failures reach its rank.
pub fn quantile_over_sent(p: &PhaseStats, q: f64) -> f64 {
    let completed = p.hist.count();
    let rank = (q * p.arrivals as f64).ceil().max(1.0) as u64;
    if completed == 0 || rank > completed {
        return f64::INFINITY;
    }
    p.hist.quantile(rank as f64 / completed as f64).as_secs_f64() * 1e3
}

/// Deployment capacity (requests/s) of `config` under `plan`.
pub fn capacity(config: Config, plan: &TrafficPlan) -> f64 {
    plan.replicas as f64 * pod_capacity_rps(config)
}

/// The phases of one rung: warm-up, measured steady leg, backlog probe.
pub fn rung_phases(rate_rps: f64, seed: u64, requests: usize) -> [PhaseSpec; 3] {
    let profile = ArrivalProfile::Poisson { rate_rps };
    [
        PhaseSpec {
            label: "warmup",
            profile,
            requests: (requests / 20).max(50),
            seed: seed ^ 0x57AB,
            measured: false,
        },
        PhaseSpec { label: "steady", profile, requests, seed, measured: true },
        PhaseSpec {
            label: "probe",
            profile,
            requests: (requests / 4).max(50),
            seed: seed ^ 0x9B0B,
            measured: true,
        },
    ]
}

/// What one rung observed.
#[derive(Debug, Clone)]
pub struct Rung {
    pub load: f64,
    pub rate_rps: f64,
    pub run: TrafficRun,
}

impl Rung {
    pub fn steady(&self) -> &PhaseStats {
        &self.run.phases[1]
    }

    pub fn p99_ms(&self) -> f64 {
        quantile_over_sent(self.steady(), 0.99)
    }

    /// Shed, timed-out and failed attempts on the measured legs.
    pub fn refused(&self) -> u64 {
        self.run.phases[1..].iter().map(|p| p.shed + p.timeouts + p.failed).sum()
    }

    /// Requests sent on the measured legs that never completed.
    pub fn unserved(&self) -> u64 {
        self.run.phases[1..].iter().map(|p| p.arrivals.saturating_sub(p.completed)).sum()
    }

    /// Within the SLO: p99 under the limit, nothing shed, timed out or
    /// failed, and no growing backlog.
    pub fn meets_slo(&self) -> bool {
        let probe = quantile_over_sent(&self.run.phases[2], 0.99);
        let p99 = self.p99_ms();
        p99 < SLO_P99_MS && self.refused() == 0 && probe <= BACKLOG_GROWTH * p99
    }
}

/// Everything one round of one configuration produced.
pub struct ConfigRound {
    pub config: Config,
    pub rungs: Vec<Rung>,
    pub contract: harness::ContractOutcome,
    pub contract_plan: ContractPlan,
    /// The rollout + HPA scenario; run on ours only — it is calibrated to
    /// ours' request time (a lowered-tier deployment drains the scenario's
    /// arrivals before the rollout finishes, so its HPA never engages).
    pub scenario: Option<TrafficRun>,
}

impl ConfigRound {
    pub fn runs(&self) -> impl Iterator<Item = &TrafficRun> {
        self.rungs
            .iter()
            .map(|r| &r.run)
            .chain([&self.contract.treatment, &self.contract.control])
            .chain(self.scenario.as_ref())
    }

    pub fn attempts(&self) -> u64 {
        self.runs().map(|r| r.attempts).sum()
    }

    pub fn rung(&self, load: f64) -> &Rung {
        self.rungs.iter().find(|r| r.load == load).expect("rung on the ladder")
    }

    /// The highest rung within the SLO, in requests/s (0 if none).
    pub fn max_rps_at_slo(&self) -> f64 {
        self.rungs.iter().filter(|r| r.meets_slo()).map(|r| r.rate_rps).fold(0.0, f64::max)
    }

    /// Bookkeeping on every run: each request sent ends exactly once —
    /// completed, timed out or failed — and the service never admits more
    /// attempts than were issued.
    pub fn conservation(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for run in self.runs() {
            for p in &run.phases {
                if p.completed + p.timeouts + p.failed != p.arrivals {
                    errors.push(format!(
                        "{:?} {}: {} sent but {} completed + {} timed out + {} failed",
                        self.config, p.label, p.arrivals, p.completed, p.timeouts, p.failed
                    ));
                }
            }
            if run.admitted > run.attempts {
                errors.push(format!(
                    "{:?}: {} attempts admitted of {} issued",
                    self.config, run.admitted, run.attempts
                ));
            }
        }
        errors
    }

    /// Service-quality misses: requests left unserved on rungs up to 0.8×
    /// (with their count), `check_contract`, and (ours) `check_scenario`.
    pub fn quality(&self) -> Vec<(String, u64)> {
        let mut misses = Vec::new();
        for r in self.rungs.iter().filter(|r| r.load <= REPORT_RUNG && r.unserved() > 0) {
            let msg =
                format!("{:?}: {} requests unserved at {}x", self.config, r.unserved(), r.load);
            misses.push((msg, r.unserved()));
        }
        if let Err(e) = check_contract(&self.contract, &self.contract_plan) {
            misses.push((e, 1));
        }
        if let Some(Err(e)) = self.scenario.as_ref().map(check_scenario) {
            misses.push((e, 1));
        }
        misses
    }
}

/// One round for one configuration, every input derived from `seed`.
pub fn run_config(config: Config, seed: u64, requests: usize) -> Result<ConfigRound, String> {
    let w = Workload::serving();
    let err = |e: simkernel::KernelError| format!("serve {config:?}: {e}");
    let plan = TrafficPlan::new(seed);
    let cap = capacity(config, &plan);
    let mut rungs = Vec::with_capacity(LADDER.len());
    for (i, &load) in LADDER.iter().enumerate() {
        let rate = load * cap;
        let phases = rung_phases(rate, seed.wrapping_add(i as u64 * 0x1000), requests);
        let run = timed("harness.traffic.rung", || run_traffic(config, &w, &plan, &phases))
            .map_err(err)?;
        rungs.push(Rung { load, rate_rps: rate, run });
    }
    let contract_plan = ContractPlan::new(seed);
    let contract =
        timed("harness.traffic.contract", || run_overload_contract(config, &w, &contract_plan))
            .map_err(err)?;
    let scenario = if config.is_ours() {
        Some(timed("harness.traffic.scenario", || run_scenario(config, &w, seed)).map_err(err)?)
    } else {
        None
    };
    Ok(ConfigRound { config, rungs, contract, contract_plan, scenario })
}

/// One round: both configurations.
pub fn run_round(seed: u64, requests: usize) -> Result<Vec<ConfigRound>, String> {
    CONFIGS.iter().map(|&c| run_config(c, seed ^ ((c as u64 + 1) << 32), requests)).collect()
}

/// Count a round into the report: every attempt is one operation and
/// every bookkeeping error a failed one. The service-quality checks are
/// statistical — a bounded queue sheds in a Poisson burst even at 0.8×,
/// and the contract compares the p99 of two 4 000-request legs within
/// 10 % — so they are gated (`gate`) on the model seed, where each missed
/// request or check is a failed operation; on other seeds the misses are
/// returned for the caller to report.
pub fn tally(round: &[ConfigRound], rep: &mut Report, gate: bool) -> (u64, Vec<(String, u64)>) {
    let mut attempts = 0;
    let mut misses = Vec::new();
    for c in round {
        attempts += c.attempts();
        c.conservation().into_iter().for_each(|e| rep.fail(e));
        misses.extend(c.quality());
    }
    rep.attempted += attempts;
    if gate {
        for (msg, n) in misses.drain(..) {
            rep.failed += n;
            rep.failures.push(msg);
        }
    }
    (attempts, misses)
}

/// The timed section: rounds on seeds derived from `--seed`; quality
/// misses are printed as a note, not gated (see [`tally`]).
pub fn timed_section(args: &Args, scale: &Scale, rep: &mut Report) -> Result<f64, String> {
    let mut misses = Vec::new();
    let rounds = timed_rounds(args.seconds, |i| {
        let seed = args.seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
        let round = run_round(seed, scale.rung_requests)?;
        let (attempts, m) = tally(&round, rep, false);
        misses.extend(m.into_iter().map(|(msg, _)| msg));
        Ok(attempts)
    })?;
    let ops: Vec<f64> = rounds.iter().map(|(attempts, wall)| *attempts as f64 / wall).collect();
    rep.note(format!(
        "serve: {} rounds, generator lateness 0 ms by construction; \
         service-quality misses on the timed seeds (not gated): {} {:?}",
        rounds.len(),
        misses.len(),
        &misses[..misses.len().min(4)]
    ));
    Ok(median(&ops))
}

/// The simulated `serve` metrics, from one round at [`MODEL_SEED`].
pub struct Model {
    pub round: Vec<ConfigRound>,
}

impl Model {
    pub fn ours(&self) -> &ConfigRound {
        &self.round[0]
    }

    pub fn metrics(&self, rep: &mut Report) {
        let ours = self.ours();
        let rung = ours.rung(REPORT_RUNG);
        let steady = rung.steady();
        rep.note(format!(
            "serve model: ours at {REPORT_RUNG}x capacity, {} requests sent, {} completed; \
             p99 {:.3} ms; SLO p99 < {SLO_P99_MS} ms",
            steady.arrivals,
            steady.completed,
            rung.p99_ms()
        ));
        for r in &ours.rungs {
            rep.note(format!(
                "serve model rung {}x ({:.1} rps): p99 {:.3} ms, probe p99 {:.3} ms, refused {}, within SLO {}",
                r.load,
                r.rate_rps,
                r.p99_ms(),
                quantile_over_sent(&r.run.phases[2], 0.99),
                r.refused(),
                r.meets_slo()
            ));
        }
        rep.metric("p50_ms", "sim_ms", quantile_over_sent(steady, 0.5));
        rep.metric("p999_ms", "sim_ms", quantile_over_sent(steady, 0.999));
        rep.metric("max_rps_at_slo", "rps", ours.max_rps_at_slo());
        let cap = capacity(ours.config, &ours.contract_plan.traffic);
        rep.metric("overload_goodput_pct", "%", 100.0 * ours.contract.overload_goodput_rps / cap);
        rep.metric("mib_per_rps", "MiB/rps", rung.run.mem_per_rps(steady.goodput_rps()) / MIB);
    }
}

/// The model pass: one round at [`MODEL_SEED`], checked.
pub fn model(scale: &Scale, rep: &mut Report) -> Result<Model, String> {
    let round = run_round(MODEL_SEED, scale.rung_requests)?;
    let mut model_rep = Report::default();
    tally(&round, &mut model_rep, true);
    rep.failed += model_rep.failed;
    rep.failures.extend(model_rep.failures);
    Ok(Model { round })
}

/// Replay one leg's arrivals through the public Service verbs
/// (`sync`/`route`/`admit`/`try_start`/`complete`) on a settled serving
/// deployment of `config`, one attempt per request (no client retries).
/// Returns (attempts, host seconds of the replay loop, completions).
pub fn service_replay(
    config: Config,
    seed: u64,
    requests: usize,
) -> Result<(u64, f64, u64), String> {
    let w = Workload::serving();
    let err = |e: simkernel::KernelError| format!("service replay {config:?}: {e}");
    let plan = TrafficPlan::new(seed);
    let mut cluster = Cluster::bootstrap().map_err(err)?;
    config.install(&mut cluster, &w).map_err(err)?;
    harness::warmup(&mut cluster, config).map_err(err)?;
    let spec = DeploymentSpec::new("svc", config.image_ref(), config.class_name(), plan.replicas);
    let mut ctrl = DeploymentController::new(spec);
    if !cluster.settle_controller(&mut ctrl, 50).map_err(err)? {
        return Err(format!("service replay {config:?}: deployment did not settle"));
    }

    // A leg shaped like the report rung's steady leg: Poisson arrivals at
    // 0.8x capacity, drawn the way `harness::traffic` draws them.
    let exec = request_exec(config);
    let rate = REPORT_RUNG * capacity(config, &plan);
    let mut rng = SplitMix64::new(seed);
    let mut t = cluster.now();
    let arrivals: Vec<SimTime> = (0..requests)
        .map(|_| {
            let u = (((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64).min(1.0);
            t += Duration::from_nanos(((-u.ln() / rate * 1e9) as u64).max(1));
            t
        })
        .collect();
    // Degraded mode skips the optional share of work the image declares.
    let optional_ppm = u64::from(w.wasm.optional_work_ppm.min(1_000_000));
    let degraded = Duration::from_nanos(exec.as_nanos() * (1_000_000 - optional_ppm) / 1_000_000);
    let mut service = Service::new(ServiceConfig::for_exec(exec, degraded), seed);
    let deadline = Duration::from_nanos(exec.as_nanos() * plan.deadline_execs);

    let _s = span("k8s.service.replay");
    let (completed, wall) = secs(|| {
        service.sync(&cluster, &ctrl);
        // The pending finish of each endpoint's server, if busy.
        let mut finishes: Vec<Option<SimTime>> = vec![None; service.endpoints.len()];
        let mut completed = 0;
        for (i, &at) in arrivals.iter().enumerate() {
            completed += settle(&mut service, at, &mut finishes);
            let admitted =
                service.route(None).and_then(|ep| service.admit(ep, at, i as u64, at + deadline));
            if let Ok(a) = admitted {
                if a.server_idle {
                    start_next(&mut service, a.endpoint, at, &mut finishes);
                }
            }
        }
        completed + settle(&mut service, SimTime(u64::MAX), &mut finishes)
    });
    Ok((requests as u64, wall, completed))
}

fn start_next(service: &mut Service, ep: usize, now: SimTime, finishes: &mut [Option<SimTime>]) {
    if let Some(st) = service.try_start(ep, now) {
        finishes[ep] = Some(st.finish);
    }
}

/// Complete every finish due by `until` in time order, starting each
/// endpoint's next request; returns the successful completions.
fn settle(service: &mut Service, until: SimTime, finishes: &mut [Option<SimTime>]) -> u64 {
    let mut completed = 0;
    loop {
        let next = finishes
            .iter()
            .enumerate()
            .filter_map(|(ep, t)| t.filter(|&t| t <= until).map(|t| (t, ep)))
            .min();
        let Some((at, ep)) = next else { return completed };
        finishes[ep] = None;
        if service.complete(ep, at).is_some_and(|c| c.ok) {
            completed += 1;
        }
        start_next(service, ep, at, finishes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_holds_the_report_rung() {
        assert!(LADDER.contains(&REPORT_RUNG));
        assert!(LADDER.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn refused_requests_count_beyond_any_limit() {
        let mut p = PhaseStats {
            label: "x",
            arrivals: 10,
            completed: 9,
            degraded: 0,
            shed: 1,
            timeouts: 0,
            failed: 0,
            retries: 0,
            hedges: 0,
            hist: k8s_sim::LatencyHistogram::new(),
            span: Duration::from_secs(1),
        };
        for _ in 0..9 {
            p.hist.record(Duration::from_millis(2));
        }
        assert!(quantile_over_sent(&p, 0.5).is_finite());
        assert!(quantile_over_sent(&p, 0.99).is_infinite());
    }
}
