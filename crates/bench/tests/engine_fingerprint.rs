//! Engine fingerprint golden: pins every simulated observable of the
//! tagged and ordered engines across the configurations their fast paths
//! branch on, so a host-speed change to either engine is provably
//! bit-neutral (the DESIGN.md §7 contract).
//!
//! Each case runs twice — once with no probe (the hot, unobserved path)
//! and once with a `tyr-events/v1` stream probe attached (the path that
//! must keep emitting the same events in the same order). The two results
//! must agree exactly; the golden line records the outcome, cycles,
//! dynamic instructions, skipped cycles, store peaks, cache counters, the
//! fault log, and hashes of the live-token trace, IPC histogram, final
//! memory image, and event stream.
//!
//! Cases: the tiny-scale suite kernels plus `hist` and an 8x8 `dgemmb`; TYR with
//! 2, 4 and 64 local tags; bounded-global with the Fig. 11 pool (which
//! wedges), 64 and 1,024 tags; unbounded tags; ordered at depths 1, 2 and
//! 4 plus a zero-capacity override on a primed loop-carry merge (which
//! wedges); each under ideal latency 1, ideal latency 4 and a small cache.
//! One perturbing and one tag-exhausting fault plan run per tagged policy.
//!
//! Regenerate with
//! `TYR_BLESS=1 cargo test -p tyr-bench --test engine_fingerprint` and
//! review the diff — an engine optimisation must leave it empty.

use std::fmt::Write as _;
use std::path::PathBuf;

use tyr_dfg::lower::{lower_ordered, lower_tagged, TaggingDiscipline};
use tyr_dfg::{Dfg, NodeKind};
use tyr_sim::ordered::{OrderedConfig, OrderedEngine};
use tyr_sim::tagged::{TagPolicy, TaggedConfig, TaggedEngine};
use tyr_sim::{FaultPlan, MemConfig, RunResult, SimError, Watchdog};
use tyr_stats::StreamProbe;
use tyr_workloads::{by_name, dgemmb, Scale, Workload, APP_NAMES};

/// Workload seed; must stay fixed or the golden changes.
const SEED: u64 = 7;

/// Fault-plan seed.
const FAULT_SEED: u64 = 11;

/// Cycle budget for faulted runs: a corrupted loop bound must end as an
/// attributed timeout, not a 500M-cycle spin.
const FAULT_BUDGET: u64 = 200_000;

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn hash_debug<T: std::fmt::Debug>(x: &T) -> u64 {
    fnv(format!("{x:?}").as_bytes())
}

/// One result as a golden fragment.
fn describe(r: &Result<RunResult, SimError>) -> String {
    let r = match r {
        Ok(r) => r,
        Err(e) => return format!("error={e:?}"),
    };
    let mut s = format!(
        "outcome={:?} skipped={} peaks={:?} loads={} stores={}",
        r.outcome, r.skipped_cycles, r.store_peaks, r.mem_loads, r.mem_stores
    );
    if let Some(m) = &r.mem_stats {
        write!(s, " mem={m:?}").unwrap();
    }
    write!(
        s,
        " returns={:?} live={:016x} ipc={:016x} image={:016x}",
        r.returns,
        hash_debug(&r.live),
        hash_debug(&r.ipc),
        hash_debug(r.memory())
    )
    .unwrap();
    if !r.faults.is_empty() {
        let log: Vec<String> = r.faults.iter().map(ToString::to_string).collect();
        write!(s, " faults={log:?}").unwrap();
    }
    s
}

/// A tagged case: unprobed and probed runs, agreement checked, golden line.
fn tagged_case(what: &str, dfg: &Dfg, w: &Workload, cfg: &TaggedConfig) -> String {
    let plain = TaggedEngine::new(dfg, w.memory.clone(), cfg.clone()).run();
    let (probed, events) =
        with_stream(|p| TaggedEngine::with_probe(dfg, w.memory.clone(), cfg.clone(), p).run());
    finish(what, &plain, &probed, &events)
}

/// An ordered case, as [`tagged_case`].
fn ordered_case(what: &str, dfg: &Dfg, w: &Workload, cfg: &OrderedConfig) -> String {
    let plain = OrderedEngine::new(dfg, w.memory.clone(), cfg.clone()).run();
    let (probed, events) =
        with_stream(|p| OrderedEngine::with_probe(dfg, w.memory.clone(), cfg.clone(), p).run());
    finish(what, &plain, &probed, &events)
}

/// Runs `f` with a fresh in-memory JSONL stream probe and returns the
/// result plus the emitted document.
fn with_stream<F>(f: F) -> (Result<RunResult, SimError>, String)
where
    F: FnOnce(&mut StreamProbe<Vec<u8>>) -> Result<RunResult, SimError>,
{
    let mut stream = StreamProbe::new(Vec::new());
    let r = f(&mut stream);
    let doc = String::from_utf8(stream.finish().expect("in-memory stream")).expect("UTF-8 JSONL");
    (r, doc)
}

fn finish(
    what: &str,
    plain: &Result<RunResult, SimError>,
    probed: &Result<RunResult, SimError>,
    events: &str,
) -> String {
    let (a, b) = (describe(plain), describe(probed));
    assert_eq!(a, b, "{what}: probed and unprobed runs disagree");
    format!("{what} | {a} events={}:{:016x}\n", events.lines().count(), fnv(events.as_bytes()))
}

fn mems() -> Vec<MemConfig> {
    vec![
        MemConfig::ideal(1),
        MemConfig::ideal(4),
        MemConfig::parse("cached:l1=512,l2=4k,mshr=4").unwrap(),
    ]
}

/// The first primed loop-carry merge: a zero-capacity override on its
/// control FIFO wedges the loop after the primed iteration.
fn primed_cmerge(dfg: &Dfg) -> Option<u32> {
    dfg.nodes
        .iter()
        .position(
            |n| matches!(&n.kind, NodeKind::CMerge { initial_ctl } if !initial_ctl.is_empty()),
        )
        .map(|i| i as u32)
}

fn fingerprint() -> String {
    let mut out = String::new();
    // Tiny-scale dgemmb is as costly as the other eight kernels together in
    // a debug build; an 8x8 product with 4x4 blocks keeps its blocked loop
    // nest at an eighth of the instructions.
    let mut kernels: Vec<Workload> =
        APP_NAMES.iter().map(|k| by_name(k, Scale::Tiny, SEED).unwrap()).collect();
    kernels.push(dgemmb::build(8, 4, SEED));
    kernels.push(by_name("hist", Scale::Tiny, SEED).unwrap());
    for w in &kernels {
        let kernel = w.name.as_str();
        let tyr = lower_tagged(&w.program, TaggingDiscipline::Tyr).unwrap();
        let unord = lower_tagged(&w.program, TaggingDiscipline::UnorderedUnbounded).unwrap();
        let ord = lower_ordered(&w.program).unwrap();
        let tagged: Vec<(String, &Dfg, TagPolicy)> = vec![
            ("tyr2".into(), &tyr, TagPolicy::local(2)),
            ("tyr4".into(), &tyr, TagPolicy::local(4)),
            ("tyr64".into(), &tyr, TagPolicy::local(64)),
            ("global8".into(), &tyr, TagPolicy::GlobalBounded { tags: 8 }),
            ("global64".into(), &tyr, TagPolicy::GlobalBounded { tags: 64 }),
            ("global1024".into(), &tyr, TagPolicy::GlobalBounded { tags: 1024 }),
            ("unbounded".into(), &unord, TagPolicy::GlobalUnbounded),
        ];
        for mem in mems() {
            for (name, dfg, policy) in &tagged {
                let cfg = TaggedConfig {
                    tag_policy: policy.clone(),
                    args: w.args.clone(),
                    mem: mem.clone(),
                    ..TaggedConfig::default()
                };
                let what = format!("{kernel} {} {name}", mem.label());
                out.push_str(&tagged_case(&what, dfg, w, &cfg));
            }
            let mut ordered: Vec<(String, OrderedConfig)> = [1, 2, 4]
                .into_iter()
                .map(|d| {
                    (format!("ordered{d}"), OrderedConfig { queue_depth: d, ..Default::default() })
                })
                .collect();
            if let Some(cm) = primed_cmerge(&ord) {
                let cfg =
                    OrderedConfig { depth_overrides: vec![((cm, 0), 0)], ..Default::default() };
                ordered.push(("ordered-wedge".into(), cfg));
            }
            for (name, cfg) in ordered {
                let cfg = OrderedConfig { args: w.args.clone(), mem: mem.clone(), ..cfg };
                let what = format!("{kernel} {} {name}", mem.label());
                out.push_str(&ordered_case(&what, &ord, w, &cfg));
            }
        }
        let plans = [
            (
                "perturb",
                FaultPlan::parse("drop,corrupt:2,mem-delay:4,mem-flip:2@30..5000", FAULT_SEED),
            ),
            ("exhaust", FaultPlan::parse("tags@40..400", FAULT_SEED)),
        ];
        for (plan_name, plan) in plans {
            let plan = plan.unwrap();
            for (name, dfg, policy) in &tagged {
                if !matches!(name.as_str(), "tyr4" | "global64" | "unbounded") {
                    continue;
                }
                let cfg = TaggedConfig {
                    tag_policy: policy.clone(),
                    args: w.args.clone(),
                    faults: Some(plan.clone()),
                    watchdog: Watchdog::none().with_cycle_budget(FAULT_BUDGET),
                    ..TaggedConfig::default()
                };
                let what = format!("{kernel} faults-{plan_name} {name}");
                out.push_str(&tagged_case(&what, dfg, w, &cfg));
            }
        }
    }
    out
}

#[test]
fn engine_fingerprints_match_the_golden() {
    let actual = fingerprint();
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/engine_fingerprint.txt");
    if std::env::var_os("TYR_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); regenerate with TYR_BLESS=1", path.display())
    });
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "engine fingerprint line {} drifted from the golden", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "engine fingerprint case count drifted from the golden"
    );
}
