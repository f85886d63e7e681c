//! The traced run and the per-layer metrics.
//!
//! The traced run is separate from the measured run. It
//!
//! 1. repeats the workload's set-up under spans (`harness.setup.*`);
//! 2. measures its own overhead: the same rounds of the workload's timed
//!    operation, first untraced, then traced (traced wall minus untraced
//!    wall);
//! 3. runs the model pass of every workload under spans — the `density`
//!    grid (with teardown), the `serve` round and the `churn` schedules —
//!    and reads the per-layer metrics of `k8s`, `k8s.service`, `harness`
//!    and `simkernel` from those spans and the outcomes;
//! 4. probes the layers the workloads only reach through others: the
//!    `wasm` pipeline on the workload's module, CRI calls on a twin node
//!    (`containerd`, runtimes, engines, pyrt), page freeing and the DES
//!    (`simkernel`), and a replay of one leg's arrivals through the public
//!    Service verbs (`k8s.service`);
//! 5. cross-checks the benchmark's own driver loops against the library
//!    (`measure_cell` on `density`, `run_schedule` on `churn`);
//! 6. writes every span (name, start, end, parent, trace id) as JSON lines
//!    at exit.
//!
//! Each layer's self time is its spans' time minus their child spans.

use std::collections::BTreeMap;
use std::sync::Arc;

use containerd_sim::Containerd;
use harness::{Config, Workload};
use simkernel::{Kernel, KernelConfig, ProcessImage, StepTrace};
use wasm_core::interp::SideTable;
use wasm_core::lowered::lower_function;
use wasm_core::{
    decode_module, validate_module, ArtifactCache, ExecStats, ExecTier, Instance, InstanceConfig,
};

use crate::trace::{self, timed, Span};
use crate::{churn, density, median, secs, serve, Args, Report, Scale};

/// Layers whose self time the traced run reports.
pub const LAYERS: [&str; 7] =
    ["bench", "harness", "k8s", "k8s.service", "containerd", "wasm", "simkernel"];

/// The CRI families and the configuration each is probed with.
pub const CRI_FAMILIES: [(&str, Config); 4] = [
    ("inplace", Config::WamrCrun),
    ("lowered", Config::CrunWasmtime),
    ("shim", Config::ShimWasmtime),
    ("python", Config::CrunPython),
];

/// Repetitions of each micro-probe (the median is reported).
const PROBE_REPS: usize = 15;

/// The workload each workload's pods run.
pub fn workload_of(name: &str) -> Workload {
    match name {
        "density" => Workload::default(),
        "serve" => Workload::serving(),
        _ => Workload::light(),
    }
}

/// Mean duration in `unit_ns` units of the spans named `name` (0 if none).
fn mean(spans: &[Span], name: &str, unit_ns: f64) -> f64 {
    let (ns, n) = trace::total(spans, name);
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64 / unit_ns
    }
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// One round of the workload's timed operation; returns its operations.
fn workload_round(args: &Args, scale: &Scale, i: usize) -> Result<u64, String> {
    match args.workload.as_str() {
        "density" => {
            let order = density::cell_order(args.seed);
            let cells =
                density::run_pass(&order, scale.density_pods, &Workload::default(), false, false)?;
            Ok(cells.iter().map(|c| c.pods as u64).sum())
        }
        "serve" => {
            let round = serve::run_round(args.seed.wrapping_add(i as u64), scale.rung_requests)?;
            Ok(round.iter().map(|c| c.attempts()).sum())
        }
        _ => {
            let b = scale.churn_batch;
            Ok(churn::run_batch(&churn::plan(args.seed), i * b, b)?.len() as u64)
        }
    }
}

/// The traced run of `args.workload`.
pub fn traced_run(args: &Args, scale: &Scale, rep: &mut Report) -> Result<(), String> {
    // 1. Set-up under spans.
    trace::enable();
    match args.workload.as_str() {
        "density" => density::setup(scale)?,
        "serve" => serve::setup(scale)?,
        _ => churn::setup(scale)?,
    };
    let setup_spans = trace::disable();

    // 2. Overhead: one discarded warm-up round, then untraced and traced
    //    rounds alternating on the same inputs.
    let rounds = if args.workload == "density" { 1 } else { scale.overhead_rounds };
    rep.attempted += workload_round(args, scale, 0)?;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut loop_spans = Vec::new();
    for i in 0..rounds {
        let (ops, wall) = secs(|| workload_round(args, scale, i));
        rep.attempted += ops?;
        untraced.push(wall);
        trace::enable();
        let (ops, wall) = secs(|| workload_round(args, scale, i));
        rep.attempted += ops?;
        traced.push(wall);
        trace::append(&mut loop_spans, &trace::disable());
    }
    trace::enable();
    let overhead_s = median(&traced) - median(&untraced);
    rep.note(format!(
        "trace overhead on {}: {:.3} ms per round ({:.3} s traced vs {:.3} s untraced, {rounds} round(s))",
        args.workload,
        overhead_s * 1e3,
        median(&traced),
        median(&untraced)
    ));
    let loop_self = trace::self_ns_by_layer(&loop_spans);
    rep.note(format!(
        "self time per layer in the {} loop (ms): {}",
        args.workload,
        loop_self
            .iter()
            .map(|(l, ns)| format!("{l}={:.2}", *ns as f64 / 1e6))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    // 3. Model passes of every workload, traced.
    let density_cells =
        density::run_pass(&Config::ALL, scale.density_pods, &Workload::default(), true, true)?;
    density::tally(&density_cells, rep);
    let density_model =
        density::Model { samples: density_cells.iter().map(|c| c.sample).collect() };
    density_model.check_claims(rep);
    let density_spans = trace::take();

    let serve_round = serve::run_round(serve::MODEL_SEED, scale.rung_requests)?;
    serve::tally(&serve_round, rep, true);
    let serve_spans = trace::take();

    let churn_plan = churn::plan(churn::MODEL_SEED);
    let churn_runs = churn::run_batch(&churn_plan, 0, scale.model_schedules)?;
    churn::tally(&churn_runs, rep);
    let churn_spans = trace::take();

    // 4. Layer probes.
    let w = workload_of(&args.workload);
    let wasm = wasm_probe(&w, rep)?;
    let (cri, cri_live_end) = cri_probe(scale.cri_pods, rep)?;
    let free_us = free_probe()?;
    let (cores, tasks) =
        density_cells.iter().find_map(|c| c.tasks.clone()).ok_or("no density task set recorded")?;
    let (des_events, des_run_s) = density::des_cross_check(cores, &tasks, rep);
    let (replay_attempts, replay_s, replay_done) =
        serve::service_replay(Config::WamrCrun, serve::MODEL_SEED, scale.rung_requests)?;
    if replay_done != replay_attempts {
        rep.fail(format!(
            "service replay at {}x capacity completed {replay_done} of {replay_attempts}",
            serve::REPORT_RUNG
        ));
    }
    let probe_spans = trace::disable();

    // 5. Cross-checks against the library's own loops.
    match args.workload.as_str() {
        "density" => {
            density::check_against_measure_cell(&density_model.samples, scale.density_pods, rep)?
        }
        "churn" => churn::check_against_run_schedule(&churn_plan, &churn_runs, rep)?,
        _ => {}
    }

    // Per-layer metrics.
    let mut spans = setup_spans.clone();
    for seg in [&loop_spans, &density_spans, &serve_spans, &churn_spans, &probe_spans] {
        trace::append(&mut spans, seg);
    }
    wasm.metrics(rep);
    for (family, ms) in &cri {
        rep.metric(format!("containerd.cri_ms_per_pod.{family}"), "ms", *ms);
    }
    density_layer_metrics(&density_spans, &density_cells, &cri, rep);
    churn_layer_metrics(&churn_spans, &churn_runs, rep);
    service_layer_metrics(&serve_spans, &serve_round, replay_attempts, replay_s, rep);
    rep.metric("harness.setup.cluster_ms", "ms", mean(&setup_spans, "harness.setup.cluster", 1e6));
    rep.metric("harness.setup.warmup_ms", "ms", mean(&setup_spans, "harness.setup.warmup", 1e6));
    rep.metric("harness.reprovision_ms", "ms", mean(&churn_spans, "harness.reprovision", 1e6));
    rep.metric("simkernel.des.events", "count", des_events as f64);
    rep.metric("simkernel.des.run_ms", "ms", des_run_s * 1e3);
    rep.metric("simkernel.des.events_per_s", "1/s", des_events as f64 / des_run_s.max(1e-9));
    rep.metric("simkernel.free_us", "us", free_us);
    rep.metric("simkernel.live_procs_end", "count", wasm.live_procs_end.max(cri_live_end) as f64);
    let self_ns = trace::self_ns_by_layer(&spans);
    for layer in LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        rep.metric(format!("{layer}.self_ms"), "ms", ns as f64 / 1e6);
    }
    rep.metric("bench.trace_overhead_ms", "ms", overhead_s * 1e3);
    rep.metric("bench.trace_overhead_pct", "%", 100.0 * overhead_s / median(&untraced).max(1e-9));
    write_spans(args, &spans, rep);
    Ok(())
}

fn density_layer_metrics(
    spans: &[Span],
    cells: &[density::Cell],
    cri: &BTreeMap<&'static str, f64>,
    rep: &mut Report,
) {
    let mut deploy_ns = 0u64;
    let mut cri_ns = 0.0;
    let mut pods = 0usize;
    for (family, config) in CRI_FAMILIES {
        let fam_pods: usize = cells
            .iter()
            .filter(|c| density::family(c.sample.config) == family)
            .map(|c| c.pods)
            .sum();
        let (ns, _) = trace::total(spans, density::deploy_span(config));
        deploy_ns += ns;
        cri_ns += cri[family] * 1e6 * fam_pods as f64;
        pods += fam_pods;
        rep.metric(
            format!("k8s.deploy_ms_per_pod.{family}"),
            "ms",
            ns as f64 / 1e6 / fam_pods.max(1) as f64,
        );
    }
    rep.metric("k8s.self_ms_per_pod", "ms", (deploy_ns as f64 - cri_ns) / 1e6 / pods.max(1) as f64);
    let (teardown_ns, _) = trace::total(spans, "k8s.teardown");
    rep.metric("k8s.teardown_ms_per_pod", "ms", teardown_ns as f64 / 1e6 / pods.max(1) as f64);
    rep.metric("k8s.scrape_us", "us", mean(spans, "k8s.scrape", 1e3));
}

fn churn_layer_metrics(spans: &[Span], runs: &[churn::Run], rep: &mut Report) {
    let n = runs.len().max(1) as f64;
    rep.metric("k8s.reconcile_us", "us", mean(spans, "k8s.reconcile", 1e3));
    rep.metric("k8s.reconcile_controller_us", "us", mean(spans, "k8s.reconcile_controller", 1e3));
    rep.metric(
        "k8s.rounds_per_schedule",
        "count",
        runs.iter().map(|r| r.outcome.rounds as f64).sum::<f64>() / n,
    );
    for (kind, span) in [
        ("crash", "k8s.fault.crash"),
        ("restart", "k8s.fault.restart"),
        ("partition", "k8s.fault.partition"),
        ("heal", "k8s.fault.heal"),
    ] {
        rep.metric(format!("k8s.fault_us.{kind}"), "us", mean(spans, span, 1e3));
    }
    rep.metric(
        "k8s.pods_synced",
        "count",
        runs.iter().map(|r| r.pods_synced as f64).sum::<f64>() / n,
    );
}

fn service_layer_metrics(
    spans: &[Span],
    round: &[serve::ConfigRound],
    replay_attempts: u64,
    replay_s: f64,
    rep: &mut Report,
) {
    let runs: Vec<&harness::TrafficRun> = round.iter().flat_map(|c| c.runs()).collect();
    let sum = |f: &dyn Fn(&harness::TrafficRun) -> u64| runs.iter().map(|r| f(r)).sum::<u64>();
    let phase_sum = |f: &dyn Fn(&harness::PhaseStats) -> u64| {
        runs.iter().flat_map(|r| r.phases.iter()).map(f).sum::<u64>()
    };
    let attempts = sum(&|r| r.attempts);
    let completed = phase_sum(&|p| p.completed);
    rep.metric("k8s.service.attempts", "count", attempts as f64);
    rep.metric("k8s.service.admitted", "count", sum(&|r| r.admitted) as f64);
    rep.metric("k8s.service.retries", "count", phase_sum(&|p| p.retries) as f64);
    rep.metric("k8s.service.hedges", "count", phase_sum(&|p| p.hedges) as f64);
    rep.metric("k8s.service.timeouts", "count", phase_sum(&|p| p.timeouts) as f64);
    rep.metric("k8s.service.breaker_opens", "count", sum(&|r| r.breaker_opens) as f64);
    rep.metric(
        "k8s.service.brownout_engagements",
        "count",
        sum(&|r| r.brownout_engagements) as f64,
    );
    for (i, reason) in serve::SHED_REASONS.iter().enumerate() {
        rep.metric(
            format!("k8s.service.shed.{reason}"),
            "count",
            sum(&|r| r.sheds_by_reason[i]) as f64,
        );
    }
    rep.metric("k8s.service.useful_ratio", "ratio", completed as f64 / attempts.max(1) as f64);
    rep.metric("k8s.service.ns_per_attempt", "ns", replay_s * 1e9 / replay_attempts.max(1) as f64);
    let traffic_ns: u64 =
        ["harness.traffic.rung", "harness.traffic.contract", "harness.traffic.scenario"]
            .iter()
            .map(|n| trace::total(spans, n).0)
            .sum();
    rep.metric("harness.traffic.ns_per_attempt", "ns", traffic_ns as f64 / attempts.max(1) as f64);
}

/// What the `wasm` probe measured.
pub struct WasmProbe {
    pub decode_us: f64,
    pub validate_us: f64,
    pub sidetable_us: f64,
    pub lower_us: f64,
    pub exec_ms: [f64; 2],
    pub stats: [ExecStats; 2],
    pub live_procs_end: usize,
}

impl WasmProbe {
    fn metrics(&self, rep: &mut Report) {
        rep.metric("wasm.decode_us", "us", self.decode_us);
        rep.metric("wasm.validate_us", "us", self.validate_us);
        rep.metric("wasm.sidetable_us", "us", self.sidetable_us);
        rep.metric("wasm.lower_us", "us", self.lower_us);
        for (i, tier) in ["inplace", "lowered"].iter().enumerate() {
            let instrs = self.stats[i].instrs_retired as f64;
            rep.metric(format!("wasm.exec_ms.{tier}"), "ms", self.exec_ms[i]);
            rep.metric(format!("wasm.instrs.{tier}"), "count", instrs);
            rep.metric(
                format!("wasm.ns_per_instr.{tier}"),
                "ns",
                self.exec_ms[i] * 1e6 / instrs.max(1.0),
            );
        }
        let cache = ArtifactCache::global().stats();
        rep.metric("wasm.cache.hits", "count", cache.hits as f64);
        rep.metric("wasm.cache.misses", "count", cache.misses as f64);
        rep.metric("wasm.side_table_bytes", "bytes", self.stats[0].side_table_bytes as f64);
        rep.metric("wasm.lowered_bytes", "bytes", self.stats[1].lowered_bytes as f64);
        rep.metric("wasm.fused_ops", "count", self.stats[1].fused_ops as f64);
    }
}

/// Median host time of `f` over [`PROBE_REPS`] runs, in `unit_ns` units.
fn probe<T>(name: &'static str, unit_ns: f64, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(PROBE_REPS);
    let mut last = None;
    for _ in 0..PROBE_REPS {
        let (out, s) = secs(|| timed(name, &mut f));
        times.push(s * 1e9 / unit_ns);
        last = Some(out);
    }
    (last.expect("at least one repetition"), median(&times))
}

/// Decode, validate, side tables, lowering and execution of the
/// workload's module on both tiers.
pub fn wasm_probe(w: &Workload, rep: &mut Report) -> Result<WasmProbe, String> {
    let bytes = workloads::microservice_module_bytes(&w.wasm);
    let (module, decode_us) = probe("wasm.decode", 1e3, || decode_module(bytes.clone()));
    let module = Arc::new(module.map_err(err("decode"))?);
    let (valid, validate_us) = probe("wasm.validate", 1e3, || validate_module(&module));
    valid.map_err(err("validate"))?;
    let (tables, sidetable_us) = probe("wasm.sidetable", 1e3, || {
        module.bodies.iter().map(|b| SideTable::build(&b.code)).collect::<Result<Vec<_>, _>>()
    });
    tables.map_err(err("side table"))?;
    let imported = module.num_imported_funcs();
    let (lowered, lower_us) = probe("wasm.lower", 1e3, || {
        (0..module.bodies.len() as u32)
            .map(|i| lower_function(&module, imported + i))
            .collect::<Result<Vec<_>, _>>()
    });
    lowered.map_err(err("lower"))?;

    // Execution needs WASI imports bound to a process on a probe kernel.
    let kernel = Kernel::boot(KernelConfig::default());
    let baseline = kernel.live_procs();
    let mut exec_ms = [0.0; 2];
    let mut stats = [ExecStats::default(); 2];
    for (i, tier) in [ExecTier::InPlace, ExecTier::Lowered].into_iter().enumerate() {
        let name = if i == 0 { "wasm.exec.inplace" } else { "wasm.exec.lowered" };
        let guard = ProcessImage::spawn(&kernel, "wasm-probe", Kernel::ROOT_CGROUP)
            .build()
            .map_err(err("probe process"))?;
        let pid = guard.pid();
        let (run, ms) = probe(name, 1e6, || -> Result<ExecStats, String> {
            let imports = wasi_sys::WasiCtx::new(kernel.clone(), pid).into_imports();
            let config = InstanceConfig { tier, ..InstanceConfig::default() };
            let mut inst = Instance::instantiate(Arc::clone(&module), imports, config)
                .map_err(err("instantiate"))?;
            inst.run_start().map_err(err("run _start"))?;
            Ok(inst.stats())
        });
        stats[i] = run?;
        exec_ms[i] = ms;
        guard.exit(0).map_err(err("probe exit"))?;
    }
    if stats[0].instrs_retired == 0 || stats[1].instrs_retired == 0 {
        rep.fail("wasm probe retired no instructions".to_string());
    }
    let live_procs_end = kernel.live_procs();
    if live_procs_end != baseline {
        rep.fail(format!("wasm probe leaked processes: {baseline} -> {live_procs_end}"));
    }
    Ok(WasmProbe { decode_us, validate_us, sidetable_us, lower_us, exec_ms, stats, live_procs_end })
}

/// CRI `run_pod_sandbox` + `create_container` + `start_container` per pod
/// on a twin node (a warmed one-node cluster of the family's
/// configuration, running the `density` workload), then the sandboxes
/// removed. Returns the median ms per pod by family and the most live
/// processes any twin node had left after its teardown.
pub fn cri_probe(
    pods: usize,
    rep: &mut Report,
) -> Result<(BTreeMap<&'static str, f64>, usize), String> {
    let w = &Workload::default();
    let mut out = BTreeMap::new();
    let mut live_end = 0usize;
    for (family, config) in CRI_FAMILIES {
        let mut cluster = harness::new_cluster(&[config], w).map_err(err("twin node"))?;
        harness::warmup(&mut cluster, config).map_err(err("twin warm-up"))?;
        let baseline = cluster.kernel().live_procs();
        let cd: &mut Containerd = cluster.containerd_mut();
        let mut times = Vec::with_capacity(pods);
        for i in 0..pods {
            let pod = format!("cri-{family}-{i}");
            let cid = format!("{pod}-c0");
            let mut st = StepTrace::new();
            let (r, s) = secs(|| {
                timed("containerd.cri", || -> simkernel::KernelResult<()> {
                    cd.run_pod_sandbox(&pod, config.class_name(), &mut st)?;
                    cd.create_container(&pod, &cid, config.image_ref(), None, &mut st)?;
                    cd.start_container(&pod, &cid, &mut st)
                })
            });
            r.map_err(err("CRI probe"))?;
            times.push(s * 1e3);
        }
        for i in 0..pods {
            timed("containerd.remove_pod_sandbox", || {
                cd.remove_pod_sandbox(&format!("cri-{family}-{i}"))
            })
            .map_err(err("CRI teardown"))?;
        }
        let live = cluster.kernel().live_procs();
        if live != baseline {
            rep.fail(format!("CRI probe ({family}) leaked processes: {baseline} -> {live}"));
        }
        live_end = live_end.max(live);
        out.insert(family, median(&times));
    }
    Ok((out, live_end))
}

/// Host time for simkernel to free a 64 MiB process (exit + reap), µs.
pub fn free_probe() -> Result<f64, String> {
    let kernel = Kernel::boot(KernelConfig::default());
    let mut times = Vec::with_capacity(PROBE_REPS);
    for _ in 0..PROBE_REPS {
        let guard = ProcessImage::spawn(&kernel, "free-probe", Kernel::ROOT_CGROUP)
            .heap(64 << 20, "probe-heap")
            .build()
            .map_err(err("free probe"))?;
        let (r, s) = secs(|| timed("simkernel.free", || guard.exit(0)));
        r.map_err(err("free probe exit"))?;
        times.push(s * 1e6);
    }
    Ok(median(&times))
}

/// Write the spans as JSON lines under the build directory.
fn write_spans(args: &Args, spans: &[Span], rep: &mut Report) {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string()),
    )
    .join("perfbench");
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&path, trace::to_json_lines(spans)))
    {
        Ok(()) => rep.note(format!("{} spans written to {}", spans.len(), path.display())),
        Err(e) => rep.fail(format!("cannot write spans to {}: {e}", path.display())),
    }
}
