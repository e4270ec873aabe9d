//! Smoke tests of the benchmark at tiny scale: every workload reports
//! exactly the metrics `BENCHMARK.json` names, the traced run's layer
//! self times account for the timed phase, faults of the program under
//! test are counted instead of crashing the run, and `suite-ideal`
//! reproduces the committed `BENCH_suite.json` baseline.

use std::path::Path;

use tyr_perfbench::cell::{run_cell, CellSpec, Eng, Subject, SYSTEMS};
use tyr_perfbench::trace::{Tracer, ROOT};
use tyr_perfbench::workload::{build, jobs, run_job, Inputs, Job, Kind};
use tyr_perfbench::{measure, run, Opts};
use tyr_sim::MemConfig;
use tyr_stats::json::Json;
use tyr_workloads::{by_name, Scale, Workload};

fn repo_file(name: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(name, unit)` of every metric listed under `key`.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny(kind: Kind, trace: bool) -> Opts {
    Opts { kind, seed: 3, seconds: 0.0, trace, scale: Scale::Tiny }
}

#[test]
fn every_workload_reports_the_listed_metrics() {
    let doc = repo_file("BENCHMARK.json");
    let end_to_end = listed(&doc, "end_to_end");
    let per_layer = listed(&doc, "per_layer");
    let workloads = doc.get("workloads").and_then(Json::as_arr).expect("workloads");
    assert_eq!(workloads.len(), Kind::ALL.len());
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        let kind = Kind::parse(name).unwrap_or_else(|| panic!("unknown workload {name}"));
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let o = run(&tiny(kind, trace));
            assert!(o.correct, "{name}: {:?}", o.failures);
            assert_eq!(o.failed, 0, "{name}");
            let got: Vec<(String, String)> =
                o.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
            assert_eq!(&got, want, "{name} (trace {trace})");
            assert!(o.metrics.iter().all(|m| m.value.is_finite()), "{name}");
            if !trace {
                for m in &o.metrics {
                    assert!(m.value > 0.0, "{name}: end-to-end metric {} is {}", m.name, m.value);
                }
            } else {
                let coverage = o.metric("trace.coverage_pct").expect("coverage");
                assert!(coverage >= 90.0, "{name}: layers explain only {coverage:.1}% of the pass");
                let shares: f64 = o
                    .metrics
                    .iter()
                    .filter(|m| m.name.starts_with("share."))
                    .map(|m| m.value)
                    .sum();
                assert!((shares - coverage).abs() < 1e-6, "{name}: shares {shares} vs {coverage}");
                assert!(o.trace_tsv.as_ref().is_some_and(|t| t.lines().count() > 1));
            }
        }
    }
}

#[test]
fn same_seed_same_fingerprint_other_seed_other_inputs() {
    let a = run(&tiny(Kind::FuzzShort, false));
    let b = run(&tiny(Kind::FuzzShort, false));
    let c = run(&Opts { seed: 4, ..tiny(Kind::FuzzShort, false) });
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_ne!(a.fingerprint, c.fingerprint);
}

fn spec(eng: Eng) -> CellSpec {
    CellSpec { eng, mem: MemConfig::ideal(1), verify: false, observed: false }
}

/// dmv with one deliberately wrong expected output word.
fn wrong_expectation() -> Workload {
    let mut w = by_name("dmv", Scale::Tiny, 3).expect("dmv");
    let (name, array) = w.memory.arrays().last().map(|(n, a)| (n.to_string(), a)).expect("arrays");
    let mut mem = w.memory.clone();
    tyr_ir::interp::run(&w.program, &mut mem, &w.args).expect("interpreter");
    let mut values = mem.slice(array).to_vec();
    values[0] += 1;
    w.expect(name, array, values);
    w
}

#[test]
fn undersized_pool_and_wrong_expectation_fail_without_panicking() {
    let w = by_name("dmv", Scale::Tiny, 3).expect("dmv");
    let mut tr = Tracer::new(true, 1);
    let wedged = run_cell(&mut tr, ROOT, &spec(Eng::GlobalBounded(1)), &Subject::of(&w), false);
    assert!(!wedged.ok(), "a one-tag global pool cannot run dmv");
    let bad = wrong_expectation();
    for eng in SYSTEMS {
        let r = run_cell(&mut tr, ROOT, &spec(eng), &Subject::of(&bad), false);
        assert!(!r.ok(), "{}: the wrong expectation must fail the check", eng.key());
    }
    let good = run_cell(&mut tr, ROOT, &spec(Eng::Tyr), &Subject::of(&w), false);
    assert!(good.ok(), "{:?}", good.result);
}

#[test]
fn failed_runs_are_counted_in_the_result() {
    let prepare = || {
        let inputs = Inputs {
            kernels: vec![by_name("dmv", Scale::Tiny, 3).expect("dmv"), wrong_expectation()],
            recipes: Vec::new(),
            rejected: 0,
        };
        let jobs = vec![
            Job::Cell { kernel: 0, spec: spec(Eng::Tyr) },
            Job::Cell { kernel: 0, spec: spec(Eng::GlobalBounded(1)) },
            Job::Cell { kernel: 1, spec: spec(Eng::Ordered) },
        ];
        (inputs, jobs)
    };
    for trace in [false, true] {
        let o = measure(&tiny(Kind::SuiteIdeal, trace), prepare);
        assert!(!o.correct);
        // Two of every three runs fail, in set-up and in every pass.
        assert_eq!(o.attempted % 3, 0);
        assert_eq!(o.failed * 3, o.attempted * 2, "{:?}", o.failures);
        assert!(o.metrics.iter().all(|m| m.value.is_finite()));
        if trace {
            let errors = |e: &str| o.metric(&format!("sim.{e}.errors")).expect("errors metric");
            assert!(errors("global-bounded") > 0.0 && errors("ordered") > 0.0);
            assert_eq!(errors("tyr"), 0.0);
        }
    }
}

#[test]
fn suite_ideal_reproduces_the_committed_baseline() {
    let doc = repo_file("BENCH_suite.json");
    assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(1.0));
    assert_eq!(doc.get("scale").and_then(Json::as_str), Some("small"));
    let entries = doc.get("entries").and_then(Json::as_arr).expect("entries");
    let inputs = build(Kind::SuiteIdeal, Scale::Small, 1);
    let jobs = jobs(Kind::SuiteIdeal, &inputs);
    assert_eq!(jobs.len(), entries.len());
    let mut tr = Tracer::new(false, 0);
    for (job, entry) in jobs.iter().zip(entries) {
        let mut cells = Vec::new();
        run_job(&mut tr, ROOT, job, &inputs, false, &mut cells);
        let stats = cells[0].result.as_ref().expect("suite cell completes");
        let num = |k: &str| entry.get(k).and_then(Json::as_f64).expect("count") as u64;
        let label = format!(
            "{} on {}",
            entry.get("kernel").and_then(Json::as_str).unwrap_or("?"),
            entry.get("system").and_then(Json::as_str).unwrap_or("?")
        );
        assert_eq!(stats.cycles, num("cycles"), "{label}");
        assert_eq!(stats.dyn_instrs, num("dyn_instrs"), "{label}");
    }
}
