//! `density`: the paper's grid shape — all nine configurations at the
//! paper's middle density, one fresh warmed cluster per cell.
//!
//! Closed loop: one deployment after another. The seed only permutes the
//! cell order; every simulated number is order-independent, and the
//! checks hold the benchmark to that.

use harness::{measure_cell, new_cluster, warmup, CellSample, Config, Observe, Workload};
use k8s_sim::PodPhase;
use simkernel::rng::SplitMix64;
use simkernel::TaskSpec;

use crate::trace::{span, timed};
use crate::{geomean, median, median_setup, secs, timed_rounds, Args, Report, Scale, MIB};

/// The paper's reported minimum reductions of ours' per-container memory
/// (metrics-server) against the crun Wasm runtimes and the best shim.
pub const PAPER_REDUCTION_VS_CRUN_WASM_PCT: f64 = 50.34;
pub const PAPER_REDUCTION_VS_BEST_SHIM_PCT: f64 = 10.87;

/// The acceptance bands the reproduction's claim checks use (DESIGN.md):
/// the shape of the paper's result, not its absolute megabytes.
const BAND_VS_CRUN_WASM_PCT: f64 = 50.0;
const BAND_VS_BEST_SHIM_PCT: f64 = 10.0;

const CRUN_WASM: [Config; 3] = [Config::CrunWasmtime, Config::CrunWasmer, Config::CrunWasmEdge];
const SHIMS: [Config; 3] = [Config::ShimWasmtime, Config::ShimWasmer, Config::ShimWasmEdge];

/// The engine family a configuration's deployment exercises.
pub fn family(config: Config) -> &'static str {
    match config {
        Config::WamrCrun => "inplace",
        Config::CrunWasmtime | Config::CrunWasmer | Config::CrunWasmEdge => "lowered",
        Config::ShimWasmtime | Config::ShimWasmer | Config::ShimWasmEdge => "shim",
        Config::CrunPython | Config::RuncPython => "python",
    }
}

/// The deploy span of a configuration's family.
pub fn deploy_span(config: Config) -> &'static str {
    match family(config) {
        "inplace" => "k8s.deploy.inplace",
        "lowered" => "k8s.deploy.lowered",
        "shim" => "k8s.deploy.shim",
        _ => "k8s.deploy.python",
    }
}

/// One set-up: a cluster with every configuration installed (boot,
/// runtime classes, image pulls), then one warm-up pod per configuration.
/// Returns the median of `scale.setup_reps` set-ups, in seconds.
pub fn setup(scale: &Scale) -> Result<f64, String> {
    let w = Workload::default();
    median_setup(scale.setup_reps, || {
        let mut cluster = timed("harness.setup.cluster", || new_cluster(&Config::ALL, &w))
            .map_err(|e| format!("density setup: {e}"))?;
        let _s = span("harness.setup.warmup");
        for c in Config::ALL {
            warmup(&mut cluster, c).map_err(|e| format!("density warm-up {c:?}: {e}"))?;
        }
        Ok(())
    })
}

/// The seeded cell order: a Fisher–Yates shuffle of [`Config::ALL`].
pub fn cell_order(seed: u64) -> Vec<Config> {
    let mut order = Config::ALL.to_vec();
    let mut rng = SplitMix64::new(seed ^ 0xDE45_17E5);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.index(i + 1));
    }
    order
}

/// A startup task set and the core count it runs on.
pub type TaskSet = (u32, Vec<TaskSpec>);

/// One measured cell: [`measure_cell`]'s sample from the same calls in
/// the same order, plus the readiness tally and (optionally) the startup
/// task set for the DES cross-check.
pub struct Cell {
    pub sample: CellSample,
    pub pods: usize,
    pub ready: usize,
    pub tasks: Option<TaskSet>,
    /// Host seconds of the whole cell.
    pub wall_s: f64,
}

/// [`measure_cell`] (memory + startup from one deployment) decomposed into
/// its calls, each in a span. With `teardown`, the deployment is torn
/// down afterwards inside a `k8s.teardown` span (the sample is taken
/// first, so it is unaffected).
pub fn run_cell(
    config: Config,
    pods: usize,
    w: &Workload,
    keep_tasks: bool,
    teardown: bool,
) -> Result<Cell, String> {
    let err = |e: simkernel::KernelError| format!("density cell {config:?}: {e}");
    let _cell = span("bench.density.cell");
    let started = std::time::Instant::now();
    let mut cluster = timed("harness.cell.cluster", || new_cluster(&[config], w)).map_err(err)?;
    timed("harness.cell.warmup", || warmup(&mut cluster, config)).map_err(err)?;
    let free_before = cluster.free().used_with_cache();
    let d = timed(deploy_span(config), || {
        cluster.deploy("bench", config.image_ref(), config.class_name(), pods)
    })
    .map_err(err)?;
    let metrics_avg = timed("k8s.scrape", || cluster.average_working_set(&d)).map_err(err)?;
    let free_after = cluster.free().used_with_cache();
    let free_per_pod = free_after.saturating_sub(free_before) / pods as u64;
    let outcome = timed("k8s.measure_startup", || cluster.measure_startup(&[&d]));
    let ready = d
        .pods
        .iter()
        .filter(|p| p.phase == PodPhase::Running && p.stdout.ends_with(b"ready\n"))
        .count();
    let tasks = keep_tasks.then(|| {
        let tasks = d
            .pods
            .iter()
            .map(|p| TaskSpec {
                name: p.spec.name.clone(),
                start_at: p.dispatched_at,
                steps: p.trace.steps(),
            })
            .collect();
        (cluster.kernel().cores(), tasks)
    });
    let n = d.len();
    if teardown {
        timed("k8s.teardown", || cluster.teardown(d)).map_err(err)?;
    }
    let sample = CellSample {
        config,
        density: pods,
        memory: Some(harness::MemorySample { config, density: pods, metrics_avg, free_per_pod }),
        startup: Some(harness::StartupSample { config, density: pods, total: outcome.total() }),
    };
    Ok(Cell { sample, pods: n, ready, tasks, wall_s: started.elapsed().as_secs_f64() })
}

/// The comparable part of a cell sample: (metrics-server bytes, `free`
/// bytes per pod, startup nanoseconds).
pub fn key(s: &CellSample) -> (u64, u64, u64) {
    let m = s.memory.expect("Observe::Both yields memory");
    let st = s.startup.expect("Observe::Both yields startup");
    (m.metrics_avg, m.free_per_pod, st.total.as_nanos())
}

/// One pass: every configuration once, in `order`, keeping ours' task set
/// if `keep_tasks`. Returns the cells in [`Config::ALL`] order.
pub fn run_pass(
    order: &[Config],
    pods: usize,
    w: &Workload,
    keep_tasks: bool,
    teardown: bool,
) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::with_capacity(order.len());
    for &c in order {
        cells.push((c, run_cell(c, pods, w, keep_tasks && c.is_ours(), teardown)?));
    }
    cells.sort_by_key(|(c, _)| *c);
    Ok(cells.into_iter().map(|(_, cell)| cell).collect())
}

/// Count a pass's pods into the report: every pod is one operation, and a
/// pod not Running+ready is a failed one.
pub fn tally(cells: &[Cell], rep: &mut Report) {
    for cell in cells {
        rep.attempted += cell.pods as u64;
        if cell.ready < cell.pods {
            let missing = (cell.pods - cell.ready) as u64;
            rep.failed += missing;
            rep.failures.push(format!(
                "{:?}: {missing} of {} pods not Running+ready",
                cell.sample.config, cell.pods
            ));
        }
    }
}

/// The simulated `density` metrics: ours' memory under both observers
/// and startup, and their geometric means over all nine configurations.
pub struct Model {
    /// One sample per configuration, in [`Config::ALL`] order.
    pub samples: Vec<CellSample>,
}

impl Model {
    fn of(&self, c: Config) -> (u64, u64, u64) {
        key(self.samples.iter().find(|s| s.config == c).expect("every config sampled"))
    }

    /// Ours' reduction (%) in metrics-server working set against `other`.
    pub fn reduction_vs(&self, other: Config) -> f64 {
        let ours = self.of(Config::WamrCrun).0 as f64;
        (1.0 - ours / self.of(other).0 as f64) * 100.0
    }

    /// The memory ordering claims at this density, with the paper's
    /// percentages printed beside ours.
    pub fn check_claims(&self, rep: &mut Report) {
        let vs_crun = CRUN_WASM.iter().map(|&c| self.reduction_vs(c)).fold(f64::INFINITY, f64::min);
        let best_shim =
            *SHIMS.iter().min_by_key(|&&c| self.of(c).0).expect("three shim configurations");
        let vs_shim = self.reduction_vs(best_shim);
        rep.note(format!(
            "density claims: ours vs crun Wasm min reduction {vs_crun:.2}% (paper: >= {PAPER_REDUCTION_VS_CRUN_WASM_PCT}%); \
             vs best shim ({}) {vs_shim:.2}% (paper: >= {PAPER_REDUCTION_VS_BEST_SHIM_PCT}%). \
             The paper's percentages are the model's only reference; absolute MB are unvalidated.",
            best_shim.label()
        ));
        if vs_crun < BAND_VS_CRUN_WASM_PCT {
            rep.fail(format!(
                "ours only {vs_crun:.2}% below crun Wasm (band >= {BAND_VS_CRUN_WASM_PCT}%)"
            ));
        }
        if vs_shim < BAND_VS_BEST_SHIM_PCT {
            rep.fail(format!(
                "ours only {vs_shim:.2}% below the best shim (band >= {BAND_VS_BEST_SHIM_PCT}%)"
            ));
        }
        let (ws, free, _) = self.of(Config::WamrCrun);
        for &c in Config::ALL.iter().filter(|c| !c.is_ours()) {
            let (ws_c, free_c, _) = self.of(c);
            if ws >= ws_c || free >= free_c {
                rep.fail(format!("ours is not below {} under both observers", c.label()));
            }
        }
        if free <= ws {
            rep.fail("ours' free(1) growth does not exceed its working set".to_string());
        }
    }

    pub fn metrics(&self, rep: &mut Report) {
        let (ws, free, startup) = self.of(Config::WamrCrun);
        let all_ws: Vec<f64> = self.samples.iter().map(|s| key(s).0 as f64 / MIB).collect();
        let all_st: Vec<f64> = self.samples.iter().map(|s| key(s).2 as f64 / 1e9).collect();
        rep.metric("mem_ws_mib", "MiB", ws as f64 / MIB);
        rep.metric("mem_free_mib", "MiB", free as f64 / MIB);
        rep.metric("mem_ws_mib_geomean", "MiB", geomean(&all_ws));
        rep.metric("sim_startup_s", "sim_s", startup as f64 / 1e9);
        rep.metric("sim_startup_s_geomean", "sim_s", geomean(&all_st));
    }
}

/// The model pass outside the `density` workload: one pass in paper
/// order, claims and DES cross-check checked.
pub fn model(scale: &Scale, rep: &mut Report) -> Result<Model, String> {
    let cells = run_pass(&Config::ALL, scale.density_pods, &Workload::default(), true, false)?;
    if let Some((cores, tasks)) = cells.iter().find_map(|c| c.tasks.as_ref()) {
        des_cross_check(*cores, tasks, rep);
    }
    let model = Model { samples: cells.iter().map(|c| c.sample).collect() };
    model.check_claims(rep);
    Ok(model)
}

/// The DES cross-check: on the task set, the calendar-queue DES and the
/// reference loop agree in makespan and events. Returns (events, run
/// seconds) of the calendar-queue run.
pub fn des_cross_check(cores: u32, tasks: &[TaskSpec], rep: &mut Report) -> (u64, f64) {
    let sim = simkernel::Sim::new(cores);
    let input = tasks.to_vec();
    let (fast, run_s) = secs(|| timed("simkernel.des.run", || sim.run(input)));
    let reference = sim.run_reference(tasks.to_vec());
    if (fast.makespan, fast.events) != (reference.makespan, reference.events) {
        rep.fail(format!(
            "DES mismatch on the density task set: calendar ({:?}, {} events) vs reference ({:?}, {} events)",
            fast.makespan, fast.events, reference.makespan, reference.events
        ));
    }
    (fast.events, run_s)
}

/// Compare cells against [`measure_cell`]'s samples.
pub fn check_against_measure_cell(
    cells: &[CellSample],
    pods: usize,
    rep: &mut Report,
) -> Result<(), String> {
    let w = Workload::default();
    for s in cells {
        let reference = measure_cell(s.config, pods, &w, Observe::Both)
            .map_err(|e| format!("measure_cell {:?}: {e}", s.config))?;
        if key(s) != key(&reference) {
            rep.fail(format!(
                "{:?}: benchmark cell {:?} != measure_cell {:?}",
                s.config,
                key(s),
                key(&reference)
            ));
        }
    }
    Ok(())
}

/// What the timed section yields.
pub struct Timed {
    pub ops_per_s: f64,
    pub model: Model,
}

/// The timed section: whole passes in the seeded order until `seconds`
/// have passed; `ops_per_s` is the pods of one pass over the sum of each
/// configuration's median cell time. Every pass must reproduce the first pass's samples (the
/// seed-invariance check); the first pass is then checked against
/// [`measure_cell`], the claims and the DES cross-check.
pub fn timed_section(args: &Args, scale: &Scale, rep: &mut Report) -> Result<Timed, String> {
    let w = Workload::default();
    let pods = scale.density_pods;
    let order = cell_order(args.seed);
    // Each pass is checked and dropped; only the first pass's samples and
    // task set and the cell walls are kept, so peak memory does not grow
    // with the number of passes.
    let mut first: Option<(Vec<CellSample>, Option<TaskSet>)> = None;
    let mut cell_walls: Vec<Vec<f64>> = vec![Vec::new(); order.len()];
    let passes = timed_rounds(args.seconds, |i| {
        let mut cells = run_pass(&order, pods, &w, i == 0, false)?;
        tally(&cells, rep);
        for (walls, c) in cell_walls.iter_mut().zip(&cells) {
            walls.push(c.wall_s);
        }
        match &first {
            None => {
                let samples = cells.iter().map(|c| c.sample).collect();
                first = Some((samples, cells.iter_mut().find_map(|c| c.tasks.take())));
            }
            Some((samples, _)) => {
                for (a, b) in samples.iter().zip(&cells) {
                    if key(a) != key(&b.sample) {
                        rep.fail(format!("{:?}: a repeated pass changed the sample", a.config));
                    }
                }
            }
        }
        Ok(())
    })?;
    // Throughput from per-configuration medians: a host hiccup during one
    // cell then costs one sample of that configuration, not a whole pass.
    let per_config: Vec<f64> = cell_walls.iter().map(|walls| median(walls)).collect();
    let ops_per_s = (order.len() * pods) as f64 / per_config.iter().sum::<f64>();
    rep.note(format!(
        "density: {} passes of {} cells x {pods} pods, order {:?}; pass walls {:?} s; \
         median cell walls {:?} s",
        passes.len(),
        order.len(),
        order,
        passes.iter().map(|(_, w)| (w * 1e3).round() / 1e3).collect::<Vec<_>>(),
        per_config.iter().map(|w| (w * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));
    let (samples, tasks) = first.expect("timed_rounds runs at least one pass");
    check_against_measure_cell(&samples, pods, rep)?;
    if let Some((cores, tasks)) = &tasks {
        des_cross_check(*cores, tasks, rep);
    }
    let model = Model { samples };
    model.check_claims(rep);
    Ok(Timed { ops_per_s, model })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_order_is_a_seeded_permutation() {
        let a = cell_order(1);
        assert_eq!(a, cell_order(1));
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, Config::ALL.to_vec());
        assert!((0..8).any(|s| cell_order(s) != a));
    }

    #[test]
    fn every_config_has_a_family() {
        for c in Config::ALL {
            assert!(["inplace", "lowered", "shim", "python"].contains(&family(c)));
        }
    }
}
