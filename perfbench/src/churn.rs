//! `churn`: seeded fault schedules from `harness::explorer` on a 5-node
//! cluster running 30 replicas of crun-wamr with [`Workload::light`].
//!
//! Closed loop: one schedule after another, each on a fresh cluster, run
//! until the deployment reconverges. The driver loop below is
//! `harness::run_schedule`'s, step for step, with spans around each call
//! into the cluster; the traced run checks that it reproduces
//! `run_schedule`'s rounds and violations exactly.

use harness::cluster_scale::{new_scaled_cluster, warmup_nodes};
use harness::explorer::check_invariants;
use harness::{
    generate_schedule, run_schedule, Config, ExplorePlan, FaultEvent, InvariantKnobs,
    ScheduleOutcome, Workload,
};
use k8s_sim::{Cluster, DeploymentController, DeploymentSpec, Policy};
use simkernel::{Duration, KernelResult, SimTime};

use crate::trace::{span, timed};
use crate::{median, median_setup, timed_rounds, Args, Report, Scale};

pub const NODES: usize = 5;
pub const REPLICAS: usize = 30;
pub const MAX_EVENTS: usize = 4;

/// Seed of the model pass (the tuning seed in `perfbench/README.md`).
pub const MODEL_SEED: u64 = 0xC4_0214;

/// The explorer plan for base seed `seed`.
pub fn plan(seed: u64) -> ExplorePlan {
    ExplorePlan {
        seed,
        schedules: 0,
        nodes: NODES,
        replicas: REPLICAS,
        max_events: MAX_EVENTS,
        config: Config::WamrCrun,
    }
}

/// One set-up: the multi-node cluster booted, provisioned and warmed.
pub fn setup(scale: &Scale) -> Result<f64, String> {
    let w = Workload::light();
    median_setup(scale.setup_reps, || {
        let mut cluster = timed("harness.setup.cluster", || {
            new_scaled_cluster(Config::WamrCrun, NODES, Policy::Spread, &w)
        })
        .map_err(|e| format!("churn setup: {e}"))?;
        timed("harness.setup.warmup", || warmup_nodes(&mut cluster, Config::WamrCrun))
            .map_err(|e| format!("churn warm-up: {e}"))
    })
}

/// One schedule's result: the explorer's outcome plus the simulated time
/// from the last fault to the start of the final converged streak.
#[derive(Debug, Clone)]
pub struct Run {
    pub outcome: ScheduleOutcome,
    pub reconverge: Option<Duration>,
    /// Pods the kubelets synced over the schedule.
    pub pods_synced: usize,
}

fn drive_round(cluster: &mut Cluster, ctrl: &mut DeploymentController) -> KernelResult<()> {
    timed("k8s.reconcile_controller", || cluster.reconcile_controller(ctrl))?;
    timed("k8s.reconcile", || cluster.reconcile());
    let now = cluster.now();
    match cluster.next_deadline() {
        Some(d) if d > now => cluster.advance(d - now),
        _ => cluster.advance(Duration::from_secs(1)),
    }
    Ok(())
}

fn reconverged(cluster: &Cluster, ctrl: &DeploymentController) -> bool {
    ctrl.replicas.len() == ctrl.spec.replicas
        && cluster.ready_replicas(ctrl) == ctrl.spec.replicas
        && ctrl.replicas.iter().all(|r| cluster.node(r.node).ready())
}

/// Tracks the start of the current converged streak after the last fault.
struct Streak {
    last_fault: SimTime,
    since: Option<SimTime>,
}

impl Streak {
    fn observe(&mut self, cluster: &Cluster, ctrl: &DeploymentController) {
        if !reconverged(cluster, ctrl) {
            self.since = None;
        } else if self.since.is_none() {
            self.since = Some(cluster.now());
        }
    }
}

/// Run one schedule on a fresh cluster: `run_schedule`'s loop with the
/// production invariant set.
pub fn run_one(
    plan: &ExplorePlan,
    seed: u64,
    events: &[FaultEvent],
    w: &Workload,
) -> KernelResult<Run> {
    let _sched = span("bench.churn.schedule");
    let mut violations = Vec::new();
    let mut cluster = timed("harness.cell.cluster", || {
        new_scaled_cluster(plan.config, plan.nodes, Policy::Spread, w)
    })?;
    timed("harness.cell.warmup", || warmup_nodes(&mut cluster, plan.config))?;
    let spec = DeploymentSpec::new(
        "svc",
        plan.config.image_ref(),
        plan.config.class_name(),
        plan.replicas,
    );
    let mut ctrl = DeploymentController::new(spec);
    if !timed("k8s.settle_controller", || cluster.settle_controller(&mut ctrl, 100))? {
        violations.push("initial deployment did not settle".to_string());
        let outcome = ScheduleOutcome { seed, events: events.to_vec(), violations, rounds: 0 };
        return Ok(Run { outcome, reconverge: None, pods_synced: cluster.stats().pods_synced });
    }

    let mut streak = Streak { last_fault: cluster.now(), since: None };
    for ev in events {
        match *ev {
            FaultEvent::Crash(n) => timed("k8s.fault.crash", || cluster.crash_node(n))?,
            FaultEvent::Restart(n) => {
                timed("k8s.fault.restart", || cluster.restart_node(n))?;
                timed("harness.reprovision", || plan.config.install_on(&mut cluster, n, w))?;
            }
            FaultEvent::Partition(n) => timed("k8s.fault.partition", || cluster.partition_node(n))?,
            FaultEvent::Heal(n) => timed("k8s.fault.heal", || cluster.heal_node(n))?,
        }
        streak = Streak { last_fault: cluster.now(), since: None };
        for _ in 0..10 {
            drive_round(&mut cluster, &mut ctrl)?;
            streak.observe(&cluster, &ctrl);
        }
    }

    let cfg = cluster.leases;
    let horizon = cluster.now()
        + cfg.grace
        + cfg.pod_eviction_grace
        + cfg.renew_interval
        + cfg.renew_interval;
    let mut rounds = 0;
    let max_rounds = 500;
    while cluster.now() < horizon && rounds < max_rounds {
        drive_round(&mut cluster, &mut ctrl)?;
        streak.observe(&cluster, &ctrl);
        rounds += 1;
    }
    while !reconverged(&cluster, &ctrl) && rounds < max_rounds {
        drive_round(&mut cluster, &mut ctrl)?;
        streak.observe(&cluster, &ctrl);
        rounds += 1;
    }
    if !reconverged(&cluster, &ctrl) {
        violations.push(format!("did not reconverge within {max_rounds} rounds"));
    }
    check_invariants(&cluster, &ctrl, &mut violations);
    if violations.is_empty() {
        for _ in 0..10 {
            drive_round(&mut cluster, &mut ctrl)?;
            streak.observe(&cluster, &ctrl);
            let ready = cluster.ready_replicas(&ctrl);
            if ready < ctrl.spec.replicas {
                violations.push(format!("ready count regressed to {ready} after convergence"));
                break;
            }
        }
    }
    let reconverge = streak.since.map(|t| t.since(streak.last_fault));
    let outcome = ScheduleOutcome { seed, events: events.to_vec(), violations, rounds };
    Ok(Run { outcome, reconverge, pods_synced: cluster.stats().pods_synced })
}

/// Run schedules `first..first + n` of `plan`.
pub fn run_batch(plan: &ExplorePlan, first: usize, n: usize) -> Result<Vec<Run>, String> {
    let w = Workload::light();
    (first..first + n)
        .map(|i| {
            let seed = plan.schedule_seed(i);
            let events = generate_schedule(seed, plan.nodes, plan.max_events);
            run_one(plan, seed, &events, &w).map_err(|e| format!("churn schedule {seed:#x}: {e}"))
        })
        .collect()
}

/// Count a batch into the report: every schedule is one operation; a
/// schedule with an invariant violation is a failed one.
pub fn tally(runs: &[Run], rep: &mut Report) {
    for r in runs {
        rep.attempted += 1;
        if !r.outcome.violations.is_empty() || r.reconverge.is_none() {
            rep.fail(format!(
                "schedule {:#x} {:?}: {:?}",
                r.outcome.seed, r.outcome.events, r.outcome.violations
            ));
        }
    }
}

/// The timed section: batches of schedules seeded from `--seed`.
pub fn timed_section(args: &Args, scale: &Scale, rep: &mut Report) -> Result<f64, String> {
    let p = plan(args.seed);
    let b = scale.churn_batch;
    let batches = timed_rounds(args.seconds, |i| {
        let runs = run_batch(&p, i * b, b)?;
        tally(&runs, rep);
        Ok(runs.len())
    })?;
    let ops: Vec<f64> = batches.iter().map(|(n, wall)| *n as f64 / wall).collect();
    rep.note(format!("churn: {} batches of {b} schedules", batches.len()));
    Ok(median(&ops))
}

/// The simulated `churn` metric, from the schedules at [`MODEL_SEED`].
pub struct Model {
    pub runs: Vec<Run>,
}

impl Model {
    pub fn reconverge_s(&self) -> f64 {
        let secs: Vec<f64> =
            self.runs.iter().filter_map(|r| r.reconverge).map(|d| d.as_secs_f64()).collect();
        median(&secs)
    }

    pub fn metrics(&self, rep: &mut Report) {
        rep.metric("reconverge_s", "sim_s", self.reconverge_s());
    }
}

/// The model pass: `scale.model_schedules` schedules at [`MODEL_SEED`].
pub fn model(scale: &Scale, rep: &mut Report) -> Result<Model, String> {
    let runs = run_batch(&plan(MODEL_SEED), 0, scale.model_schedules)?;
    for r in &runs {
        if !r.outcome.violations.is_empty() || r.reconverge.is_none() {
            rep.fail(format!("model schedule {:#x}: {:?}", r.outcome.seed, r.outcome.violations));
        }
    }
    Ok(Model { runs })
}

/// The cross-check: each run reproduces `run_schedule`'s rounds and
/// violations exactly.
pub fn check_against_run_schedule(
    p: &ExplorePlan,
    runs: &[Run],
    rep: &mut Report,
) -> Result<(), String> {
    let w = Workload::light();
    for r in runs {
        let o = &r.outcome;
        let reference = run_schedule(p, o.seed, &o.events, &w, InvariantKnobs::default())
            .map_err(|e| format!("run_schedule {:#x}: {e}", o.seed))?;
        if (o.rounds, &o.violations) != (reference.rounds, &reference.violations) {
            rep.fail(format!(
                "schedule {:#x}: benchmark loop ({} rounds, {:?}) != run_schedule ({} rounds, {:?})",
                o.seed, o.rounds, o.violations, reference.rounds, reference.violations
            ));
        }
    }
    Ok(())
}
