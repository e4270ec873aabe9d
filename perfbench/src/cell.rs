//! One cell: a program on one engine under one memory model, lowered,
//! optionally verified, simulated and checked against its oracle — each
//! step a call into a crate's public API, timed from outside.
//!
//! A cell never panics on a fault of the program under test: lowering
//! errors, `verify` errors, engine errors and panics, incomplete runs and
//! oracle mismatches all come back as a failed [`CellRun`].

use std::any::Any;
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use tyr_bench::fuzz::OracleResult;
use tyr_dfg::lower::{lower_ordered, lower_tagged, TaggingDiscipline};
use tyr_dfg::Dfg;
use tyr_ir::{ArrayRef, MemoryImage, Program, Value};
use tyr_sim::ordered::{OrderedConfig, OrderedEngine};
use tyr_sim::seqdf::{SeqDataflowConfig, SeqDataflowEngine};
use tyr_sim::seqvn::{SeqVnConfig, SeqVnEngine};
use tyr_sim::tagged::{TagPolicy, TaggedConfig, TaggedEngine};
use tyr_sim::{MemConfig, MemStats, NoProbe, Probe, RunResult};
use tyr_stats::locality::WorkingSet;
use tyr_stats::probe::CountingProbe;
use tyr_stats::{NodeProfiler, Timeline, TimelineConfig};
use tyr_workloads::Workload;

use crate::trace::{SpanId, Tracer, ROOT};

/// Issue width of every engine (Sec. VI).
pub const ISSUE_WIDTH: usize = 128;

/// Tags per TYR local tag space (Sec. VI).
pub const TAGS: usize = 64;

/// Simulated-cycle limit of every run. The largest cell finishes in under
/// 3 M cycles; a run that reaches the limit fails instead of stalling the
/// benchmark.
pub const CYCLE_LIMIT: u64 = 1 << 25;

/// The engines the benchmark drives, with the per-engine layer names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eng {
    /// TYR: local tag spaces.
    Tyr,
    /// Unordered dataflow, unlimited global tags.
    Unordered,
    /// The TYR elaboration under one bounded global pool of this size.
    GlobalBounded(usize),
    /// Ordered (FIFO) dataflow.
    Ordered,
    /// Sequential dataflow.
    SeqDf,
    /// Sequential von Neumann.
    SeqVn,
}

/// Engine keys, in [`Eng::index`] order.
pub const ENG_KEYS: [&str; 6] = ["tyr", "unordered", "global-bounded", "ordered", "seqdf", "seqvn"];

const NEW_SPANS: [&str; 6] = [
    "sim.tyr.new",
    "sim.unordered.new",
    "sim.global-bounded.new",
    "sim.ordered.new",
    "sim.seqdf.new",
    "sim.seqvn.new",
];

const RUN_SPANS: [&str; 6] = [
    "sim.tyr.run",
    "sim.unordered.run",
    "sim.global-bounded.run",
    "sim.ordered.run",
    "sim.seqdf.run",
    "sim.seqvn.run",
];

/// The paper's five systems, in `BENCH_suite.json` order.
pub const SYSTEMS: [Eng; 5] = [Eng::SeqVn, Eng::SeqDf, Eng::Ordered, Eng::Unordered, Eng::Tyr];

impl Eng {
    /// Position in [`ENG_KEYS`].
    pub fn index(self) -> usize {
        match self {
            Eng::Tyr => 0,
            Eng::Unordered => 1,
            Eng::GlobalBounded(_) => 2,
            Eng::Ordered => 3,
            Eng::SeqDf => 4,
            Eng::SeqVn => 5,
        }
    }

    /// Metric key (`sim.<key>.…`).
    pub fn key(self) -> &'static str {
        ENG_KEYS[self.index()]
    }
}

/// What a cell runs and how.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Engine.
    pub eng: Eng,
    /// Memory model.
    pub mem: MemConfig,
    /// Run `tyr_verify::verify` on the lowered graph.
    pub verify: bool,
    /// Attach `Timeline` + `WorkingSet` + `NodeProfiler` and build their
    /// reports.
    pub observed: bool,
}

/// How a cell's output is judged.
#[derive(Debug, Clone, Copy)]
pub enum Oracle<'a> {
    /// A suite kernel's precomputed expectations (`Workload::check`).
    Expected(&'a Workload),
    /// The reference interpreter's result for a generated program.
    Interp {
        /// The `out` accumulator array.
        out: ArrayRef,
        /// What the interpreter returned and left in `out`.
        want: &'a OracleResult,
    },
}

impl Oracle<'_> {
    fn check(&self, r: &RunResult) -> Result<(), String> {
        match self {
            Oracle::Expected(w) => w.check(r.memory()).map_err(|e| e.to_string()),
            Oracle::Interp { out, want } => {
                if r.returns != want.returns {
                    return Err(format!("returns {:?}, oracle {:?}", r.returns, want.returns));
                }
                if r.memory().slice(*out) != want.out.as_slice() {
                    return Err("out array differs from the oracle".into());
                }
                Ok(())
            }
        }
    }
}

/// The program a cell runs.
#[derive(Debug, Clone, Copy)]
pub struct Subject<'a> {
    /// Name used in diagnostics.
    pub label: &'a str,
    /// Structured program.
    pub program: &'a Program,
    /// Initial memory (cloned per run, inside the `ir.mem_clone` span).
    pub memory: &'a MemoryImage,
    /// Entry arguments.
    pub args: &'a [Value],
    /// Output judge.
    pub oracle: Oracle<'a>,
}

impl<'a> Subject<'a> {
    /// A suite kernel, judged by its precomputed expectations.
    pub fn of(w: &'a Workload) -> Self {
        Subject {
            label: &w.name,
            program: &w.program,
            memory: &w.memory,
            args: &w.args,
            oracle: Oracle::Expected(w),
        }
    }
}

/// Exact simulated statistics of one completed run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Dynamic instructions (fires, or vN instructions).
    pub dyn_instrs: u64,
    /// Idle cycles the event core jumped.
    pub skipped: u64,
    /// Peak live tokens (or live values).
    pub peak_live: u64,
    /// Cache counters (cached runs only).
    pub mem: Option<MemStats>,
}

impl CellStats {
    fn of(r: &RunResult) -> Self {
        CellStats {
            cycles: r.cycles(),
            dyn_instrs: r.dyn_instrs(),
            skipped: r.skipped_cycles,
            peak_live: r.peak_live(),
            mem: r.mem_stats,
        }
    }
}

/// Outcome of one cell.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Engine that ran.
    pub eng: Eng,
    /// Statistics, or why the run failed.
    pub result: Result<CellStats, String>,
    /// FNV-1a digest of the final memory image (0 unless requested).
    pub memory_digest: u64,
}

impl CellRun {
    /// Whether the run completed and matched its oracle.
    pub fn ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// Runs one cell inside a `cell` span under `parent`. With `digest`, also
/// hashes the final memory image (for the fingerprint; outside every
/// layer span).
pub fn run_cell(
    tr: &mut Tracer,
    parent: SpanId,
    spec: &CellSpec,
    subj: &Subject<'_>,
    digest: bool,
) -> CellRun {
    let cell = tr.open("cell", parent);
    let res = panic::catch_unwind(AssertUnwindSafe(|| run_checked(tr, cell, spec, subj)))
        .unwrap_or_else(|payload| Err(format!("panicked: {}", panic_message(&*payload))));
    tr.close(cell);
    let memory_digest = match (&res, digest) {
        (Ok(r), true) => memory_digest(r.memory()),
        _ => 0,
    };
    CellRun { eng: spec.eng, result: res.map(|r| CellStats::of(&r)), memory_digest }
}

fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic payload>")
}

fn run_checked(
    tr: &mut Tracer,
    cell: SpanId,
    spec: &CellSpec,
    subj: &Subject<'_>,
) -> Result<RunResult, String> {
    let dfg = lower(tr, cell, spec.eng, subj.program)?;
    if let (true, Some(d)) = (spec.verify, &dfg) {
        let report = tr.time("verify.verify", cell, || tyr_verify::verify(subj.label, d));
        if report.errors() > 0 {
            return Err(format!("verify: {} errors", report.errors()));
        }
    }
    let mem = tr.time("ir.mem_clone", cell, || subj.memory.clone());
    let r = if spec.observed {
        let mut tl = Timeline::new(TimelineConfig::default());
        let mut ws = WorkingSet::new();
        let mut prof = NodeProfiler::new();
        let r = exec(tr, cell, spec, dfg.as_ref(), subj, mem, (&mut tl, (&mut ws, &mut prof)))?;
        tr.time("stats.report", cell, || {
            let fc = r.final_cycle();
            let timeline = tl.report(fc);
            let profile = prof.report(fc).with_working_set(ws.report(fc));
            r.with_timeline(timeline).with_profile(profile)
        })
    } else {
        exec(tr, cell, spec, dfg.as_ref(), subj, mem, NoProbe)?
    };
    if !r.is_complete() {
        return Err(format!("run did not complete: {}", r.outcome));
    }
    tr.time("workloads.check", cell, || subj.oracle.check(&r))?;
    Ok(black_box(r))
}

/// Lowers `program` for the dataflow engines (`None` for the sequential
/// ones, which run the structured program directly).
fn lower(
    tr: &mut Tracer,
    cell: SpanId,
    eng: Eng,
    program: &Program,
) -> Result<Option<Dfg>, String> {
    let dfg = match eng {
        Eng::Tyr | Eng::GlobalBounded(_) => {
            tr.time("dfg.lower_tagged", cell, || lower_tagged(program, TaggingDiscipline::Tyr))
        }
        Eng::Unordered => tr.time("dfg.lower_tagged", cell, || {
            lower_tagged(program, TaggingDiscipline::UnorderedUnbounded)
        }),
        Eng::Ordered => tr.time("dfg.lower_ordered", cell, || lower_ordered(program)),
        Eng::SeqDf | Eng::SeqVn => return Ok(None),
    };
    dfg.map(Some).map_err(|e| format!("lowering: {e}"))
}

/// Constructs and runs the engine, each in its own span.
fn exec<P: Probe>(
    tr: &mut Tracer,
    cell: SpanId,
    spec: &CellSpec,
    dfg: Option<&Dfg>,
    subj: &Subject<'_>,
    mem: MemoryImage,
    probe: P,
) -> Result<RunResult, String> {
    let i = spec.eng.index();
    let (new, run) = (NEW_SPANS[i], RUN_SPANS[i]);
    let args = subj.args.to_vec();
    let r = match spec.eng {
        Eng::SeqVn => {
            let e = tr.time(new, cell, || {
                let c = SeqVnConfig {
                    args,
                    max_cycles: CYCLE_LIMIT,
                    mem: spec.mem.clone(),
                    ..SeqVnConfig::default()
                };
                SeqVnEngine::with_probe(subj.program, mem, c, probe)
            });
            tr.time(run, cell, || e.run())
        }
        Eng::SeqDf => {
            let e = tr.time(new, cell, || {
                let c = SeqDataflowConfig {
                    issue_width: ISSUE_WIDTH,
                    args,
                    max_cycles: CYCLE_LIMIT,
                    mem: spec.mem.clone(),
                    ..SeqDataflowConfig::default()
                };
                SeqDataflowEngine::with_probe(subj.program, mem, c, probe)
            });
            tr.time(run, cell, || e.run())
        }
        Eng::Ordered => {
            let dfg = dfg.expect("dataflow engines run a lowered graph");
            let e = tr.time(new, cell, || {
                let c = OrderedConfig {
                    issue_width: ISSUE_WIDTH,
                    args,
                    max_cycles: CYCLE_LIMIT,
                    mem: spec.mem.clone(),
                    ..OrderedConfig::default()
                };
                OrderedEngine::with_probe(dfg, mem, c, probe)
            });
            tr.time(run, cell, || e.run())
        }
        Eng::Tyr | Eng::Unordered | Eng::GlobalBounded(_) => {
            let dfg = dfg.expect("dataflow engines run a lowered graph");
            let tag_policy = match spec.eng {
                Eng::Tyr => TagPolicy::local(TAGS),
                Eng::GlobalBounded(tags) => TagPolicy::GlobalBounded { tags },
                _ => TagPolicy::GlobalUnbounded,
            };
            let e = tr.time(new, cell, || {
                let c = TaggedConfig {
                    issue_width: ISSUE_WIDTH,
                    tag_policy,
                    args,
                    max_cycles: CYCLE_LIMIT,
                    mem: spec.mem.clone(),
                    ..TaggedConfig::default()
                };
                TaggedEngine::with_probe(dfg, mem, c, probe)
            });
            tr.time(run, cell, || e.run())
        }
    };
    r.map_err(|e| format!("{}: {e}", spec.eng.key()))
}

/// Host seconds each probe sink adds to one cell, measured as the sink's
/// construction-and-run time minus the bare run's, plus the events the
/// run emits.
#[derive(Debug, Clone, Copy, Default)]
pub struct SinkCost {
    /// `Timeline` alone.
    pub timeline_s: f64,
    /// `WorkingSet` alone.
    pub workingset_s: f64,
    /// `NodeProfiler` alone.
    pub profiler_s: f64,
    /// Probe events of one run.
    pub events: u64,
}

/// Measures [`SinkCost`] for one cell: the same lowered graph run bare and
/// with each sink attached alone. Failures surface as errors.
pub fn sink_cost(spec: &CellSpec, subj: &Subject<'_>) -> Result<SinkCost, String> {
    let mut tr = Tracer::new(false, 0);
    let dfg = lower(&mut tr, ROOT, spec.eng, subj.program)?;
    let mut timed = |f: &mut dyn FnMut(&mut Tracer) -> Result<RunResult, String>| {
        let t = Instant::now();
        let r = f(&mut tr)?;
        let dt = t.elapsed().as_secs_f64();
        black_box(r);
        Ok::<f64, String>(dt)
    };
    let d = dfg.as_ref();
    let mem = || subj.memory.clone();
    let bare = timed(&mut |tr| exec(tr, ROOT, spec, d, subj, mem(), NoProbe))?;
    let mut tl = Timeline::new(TimelineConfig::default());
    let timeline = timed(&mut |tr| exec(tr, ROOT, spec, d, subj, mem(), &mut tl))?;
    let mut ws = WorkingSet::new();
    let workingset = timed(&mut |tr| exec(tr, ROOT, spec, d, subj, mem(), &mut ws))?;
    let mut prof = NodeProfiler::new();
    let profiler = timed(&mut |tr| exec(tr, ROOT, spec, d, subj, mem(), &mut prof))?;
    let mut counter = CountingProbe::default();
    exec(&mut tr, ROOT, spec, d, subj, mem(), &mut counter)?;
    Ok(SinkCost {
        timeline_s: timeline - bare,
        workingset_s: workingset - bare,
        profiler_s: profiler - bare,
        events: counter.events,
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    /// Folds one word in, byte by byte.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds bytes in.
    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of every named array of a memory image.
pub fn memory_digest(mem: &MemoryImage) -> u64 {
    let mut h = Fnv::default();
    for (name, array) in mem.arrays() {
        h.bytes(name.as_bytes());
        for &v in mem.slice(array) {
            h.word(v as u64);
        }
    }
    h.finish()
}

/// Folds one cell's exact statistics and memory digest into `h`.
pub fn fold_cell(h: &mut Fnv, run: &CellRun) {
    h.bytes(run.eng.key().as_bytes());
    match &run.result {
        Ok(s) => {
            for w in [s.cycles, s.dyn_instrs, s.skipped, s.peak_live] {
                h.word(w);
            }
            match s.mem {
                Some(m) => {
                    for l in [m.l1, m.l2] {
                        for w in [l.hits, l.misses, l.resident_lines, l.peak_lines] {
                            h.word(w);
                        }
                    }
                    h.word(m.mshr_stalls);
                }
                None => h.word(u64::MAX),
            }
            h.word(run.memory_digest);
        }
        Err(_) => h.bytes(b"failed"),
    }
}
