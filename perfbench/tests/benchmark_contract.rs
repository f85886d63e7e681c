//! Tests of the benchmark itself: the metric catalogue in
//! `BENCHMARK.json` is well-formed, and a smoke-sized run of every
//! workload completes, passes its checks and prints exactly the metrics
//! the catalogue lists.

use std::collections::BTreeSet;

use oci_spec_lite::{parse_json, Value};
use perfbench::{parse_args, run, serve, Args, Report, Scale, WORKLOADS};

fn catalogue() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_array).unwrap_or_else(|| panic!("{key} is a list"))
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("{key} is a string"))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object().expect("an object").keys().map(String::as_str).collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// (name, unit) of every metric in a catalogue section.
fn section(key: &str) -> Vec<(String, String)> {
    list(&catalogue(), key)
        .iter()
        .map(|m| (str_of(m, "name").to_string(), str_of(m, "unit").to_string()))
        .collect()
}

#[test]
fn catalogue_is_well_formed() {
    let c = catalogue();
    assert_eq!(
        keys(&c),
        ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
    );
    let e2e = list(&c, "end_to_end");
    let per_layer = list(&c, "per_layer");
    assert!((1..=16).contains(&e2e.len()), "{} end-to-end metrics", e2e.len());
    assert!((1..=128).contains(&per_layer.len()), "{} per-layer metrics", per_layer.len());

    let mut names = BTreeSet::new();
    for m in e2e.iter().chain(per_layer) {
        let name = str_of(m, "name");
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(names.insert(name.to_string()), "metric {name} listed twice");
        assert!(valid_unit(str_of(m, "unit")), "metric {name} has a bad unit");
        assert!(["higher", "lower"].contains(&str_of(m, "better")), "metric {name}: better");
    }
    for m in e2e {
        assert_eq!(keys(m), ["better", "bound", "name", "unit"]);
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound is a number");
        assert!((0.0..=0.25).contains(&bound), "{}: bound {bound}", str_of(m, "name"));
    }
    for m in per_layer {
        assert_eq!(keys(m), ["better", "name", "unit"]);
    }
    let setup = e2e.iter().find(|m| str_of(m, "name") == "setup_s").expect("setup_s listed");
    assert_eq!((str_of(setup, "unit"), str_of(setup, "better")), ("s", "lower"));

    let workloads: Vec<&str> = list(&c, "workloads").iter().map(|w| str_of(w, "name")).collect();
    assert_eq!(workloads, WORKLOADS);
    for w in list(&c, "workloads") {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(str_of(w, "why").len() <= 200 && !str_of(w, "why").contains('\n'));
    }
    let serve_why = str_of(&list(&c, "workloads")[1], "why");
    assert!(
        serve_why.contains(&format!("p99 < {} ms", serve::SLO_P99_MS)),
        "the serve SLO in BENCHMARK.json must match SLO_P99_MS: {serve_why}"
    );
}

fn smoke(workload: &str, trace: bool) -> Report {
    let args = Args { workload: workload.to_string(), seed: 7, seconds: 0.01, trace };
    run(&args, &Scale::smoke())
}

/// A smoke run passes every check and prints exactly the listed metrics,
/// each once, with the listed units.
fn assert_smoke(workload: &str, trace: bool) {
    let report = smoke(workload, trace);
    assert!(report.correct(), "{workload} (trace {trace}) failed: {:?}", report.failures);
    assert!(report.attempted > 0);
    let printed: Vec<(String, String)> =
        report.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
    let expected = section(if trace { "per_layer" } else { "end_to_end" });
    let (p, e): (BTreeSet<_>, BTreeSet<_>) =
        (printed.iter().cloned().collect(), expected.iter().cloned().collect());
    assert_eq!(
        p.symmetric_difference(&e).collect::<Vec<_>>(),
        Vec::<&(String, String)>::new(),
        "{workload} (trace {trace}): printed metrics differ from the catalogue"
    );
    assert_eq!(printed.len(), expected.len(), "a metric printed twice");
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    let line = report.json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
}

#[test]
fn density_smoke_run_passes_its_checks() {
    assert_smoke("density", false);
}

#[test]
fn serve_smoke_run_passes_its_checks() {
    assert_smoke("serve", false);
}

#[test]
fn churn_smoke_run_passes_its_checks() {
    assert_smoke("churn", false);
}

#[test]
fn traced_smoke_runs_print_every_per_layer_metric() {
    for w in WORKLOADS {
        assert_smoke(w, true);
    }
}

#[test]
fn simulated_metrics_do_not_depend_on_the_seed() {
    let churn = |seed: &str| {
        let argv = ["--workload", "churn", "--seed", seed, "--seconds", "0.01"];
        run(&parse_args(argv.map(String::from)).unwrap(), &Scale::smoke())
    };
    let (a, b) = (churn("1"), churn("2"));
    let simulated =
        a.metrics.iter().filter(|m| m.unit.starts_with("sim_") || m.name.starts_with("mem_"));
    for m in simulated {
        assert_eq!(Some(m.value), b.get(&m.name), "{} changed with the seed", m.name);
    }
}
