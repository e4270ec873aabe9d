//! Layered benchmark of the TYR simulator.
//!
//! One run measures one workload (see [`workload::Kind`]) from one seed:
//!
//! 1. **Set-up**, done [`SETUPS`] times: build the inputs from the seed,
//!    then run every job once, untimed. This warm-up pass also checks every
//!    output, records the exact simulated statistics each later run must
//!    repeat, and folds them into the workload's fingerprint.
//! 2. **Timed phase**: whole passes over the jobs until the time budget is
//!    spent (at least [`MIN_PASSES`]). A pass's host time is the sum over
//!    jobs of each job's median time, so a burst of host noise moves one
//!    sample, not the result. Every run is checked; a run that errors,
//!    does not complete, mismatches its oracle or repeats different
//!    statistics counts as failed.
//!
//! With tracing off the result holds the end-to-end metrics. With tracing
//! on, the budget is split: an untraced half, then a traced half whose
//! spans give the per-layer metrics; the difference between the halves is
//! the tracing overhead.
//!
//! The simulated caches start empty on every run: users pay that warm-up
//! on every run, so it stays inside the metric. The simulator is not
//! validated against hardware, so no error figure is given.

pub mod cell;
pub mod trace;
pub mod workload;

use std::collections::BTreeMap;
use std::time::Instant;

use tyr_workloads::Scale;

use crate::cell::{fold_cell, sink_cost, CellStats, Eng, Fnv, SinkCost, Subject, ENG_KEYS};
use crate::trace::{SelfTime, Tracer, ROOT};
use crate::workload::{build, jobs, run_job, Inputs, Job, Kind};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Fewest timed passes per phase, whatever the budget.
pub const MIN_PASSES: usize = 3;

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Timed-phase budget in seconds (split in two when tracing).
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Input scale (`Small` is the benchmark; `Tiny` is for smoke tests).
    pub scale: Scale,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No run failed and every set-up produced the same fingerprint.
    pub correct: bool,
    /// Engine runs attempted (set-up and timed).
    pub attempted: u64,
    /// Engine runs that failed.
    pub failed: u64,
    /// Digest of every cell's exact statistics and final memory.
    pub fingerprint: u64,
    /// Timed passes (per phase when tracing).
    pub passes: usize,
    /// Engine runs per pass.
    pub cells_per_pass: usize,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// The traced half's spans, rendered (tracing only).
    pub trace_tsv: Option<String>,
}

impl Outcome {
    /// The value of a metric, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Failure bookkeeping shared by set-up and the timed phases.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failed_by_eng: [u64; 6],
    messages: Vec<String>,
}

impl Tally {
    fn fail(&mut self, eng: Eng, msg: String) {
        self.failed += 1;
        self.failed_by_eng[eng.index()] += 1;
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }
}

/// The warm-up pass's exact statistics, one entry per engine run
/// (`None` where the run failed).
type Reference = Vec<Vec<(Eng, Option<CellStats>)>>;

/// Built inputs, their jobs, and the exact statistics they produce.
struct Prepared {
    inputs: Inputs,
    jobs: Vec<Job>,
    reference: Reference,
}

/// Per-job host seconds of one timed phase.
struct Phase {
    job_s: Vec<Vec<f64>>,
    passes: usize,
}

impl Phase {
    /// Host seconds of one pass: the sum over jobs of each job's median.
    fn pass_s(&self) -> f64 {
        self.job_s.iter().map(|t| median(t)).sum()
    }
}

/// Median of a sample (0 for an empty one).
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Builds the inputs and runs the untimed warm-up pass. Returns the
/// prepared workload, the fingerprint, the seconds spent building inputs,
/// and the whole set-up's seconds.
fn set_up(
    prepare: &impl Fn() -> (Inputs, Vec<Job>),
    tally: &mut Tally,
) -> (Prepared, u64, f64, f64) {
    let t0 = Instant::now();
    let (inputs, jobs) = prepare();
    let build_s = t0.elapsed().as_secs_f64();
    let mut off = Tracer::new(false, 0);
    let mut h = Fnv::default();
    let mut reference = Vec::with_capacity(jobs.len());
    let mut cells = Vec::new();
    for job in &jobs {
        cells.clear();
        run_job(&mut off, ROOT, job, &inputs, true, &mut cells);
        let mut stats = Vec::with_capacity(cells.len());
        for c in &cells {
            fold_cell(&mut h, c);
            tally.attempted += 1;
            match &c.result {
                Ok(s) => stats.push((c.eng, Some(*s))),
                Err(e) => {
                    tally.fail(c.eng, format!("set-up {}: {e}", c.eng.key()));
                    stats.push((c.eng, None));
                }
            }
        }
        reference.push(stats);
    }
    (Prepared { inputs, jobs, reference }, h.finish(), build_s, t0.elapsed().as_secs_f64())
}

/// Whole passes over the jobs until `budget_s` is spent (at least
/// [`MIN_PASSES`]), checking every run against the reference.
fn timed_phase(p: &Prepared, tr: &mut Tracer, budget_s: f64, tally: &mut Tally) -> Phase {
    let mut phase = Phase { job_s: vec![Vec::new(); p.jobs.len()], passes: 0 };
    let mut cells = Vec::new();
    let start = Instant::now();
    loop {
        let pass = tr.open("pass", ROOT);
        for (j, job) in p.jobs.iter().enumerate() {
            cells.clear();
            let t = Instant::now();
            run_job(tr, pass, job, &p.inputs, false, &mut cells);
            phase.job_s[j].push(t.elapsed().as_secs_f64());
            for (c, (eng, want)) in cells.iter().zip(&p.reference[j]) {
                tally.attempted += 1;
                match (&c.result, want) {
                    (Ok(got), Some(want)) if got == want => {}
                    (Ok(_), _) => tally.fail(*eng, format!("{}: statistics differ", eng.key())),
                    (Err(e), _) => tally.fail(*eng, format!("{}: {e}", eng.key())),
                }
            }
        }
        tr.close(pass);
        phase.passes += 1;
        if phase.passes >= MIN_PASSES && start.elapsed().as_secs_f64() >= budget_s {
            return phase;
        }
    }
}

/// Sums of the reference's exact statistics.
#[derive(Debug, Default, Clone, Copy)]
struct Sums {
    cells: u64,
    cycles: u64,
    dyn_instrs: u64,
    skipped: u64,
    peak_live: u64,
    l1_hits: u64,
    l1_misses: u64,
    l2_hits: u64,
    l2_misses: u64,
    mshr_stalls: u64,
}

impl Sums {
    fn add(&mut self, s: &CellStats) {
        self.cells += 1;
        self.cycles += s.cycles;
        self.dyn_instrs += s.dyn_instrs;
        self.skipped += s.skipped;
        self.peak_live += s.peak_live;
        if let Some(m) = s.mem {
            self.l1_hits += m.l1.hits;
            self.l1_misses += m.l1.misses;
            self.l2_hits += m.l2.hits;
            self.l2_misses += m.l2.misses;
            self.mshr_stalls += m.mshr_stalls;
        }
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Totals over all cells, and per engine.
fn sums(reference: &Reference) -> (Sums, [Sums; 6]) {
    let mut all = Sums::default();
    let mut by_eng = [Sums::default(); 6];
    for (eng, s) in reference.iter().flatten() {
        if let Some(s) = s {
            all.add(s);
            by_eng[eng.index()].add(s);
        }
    }
    (all, by_eng)
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc` is unavailable.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs one workload and reports its metrics.
pub fn run(opts: &Opts) -> Outcome {
    measure(opts, || {
        let inputs = build(opts.kind, opts.scale, opts.seed);
        let jobs = jobs(opts.kind, &inputs);
        (inputs, jobs)
    })
}

/// [`run`] over caller-built inputs and jobs. `prepare` runs once per
/// set-up and is timed as input building.
pub fn measure(opts: &Opts, prepare: impl Fn() -> (Inputs, Vec<Job>)) -> Outcome {
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut build_s = Vec::with_capacity(SETUPS);
    let mut fingerprints = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        let (p, fp, b, s) = set_up(&prepare, &mut tally);
        fingerprints.push(fp);
        build_s.push(b);
        setup_s.push(s);
        prepared = Some(p);
    }
    let p = prepared.expect("SETUPS >= 1");
    let deterministic = fingerprints.windows(2).all(|w| w[0] == w[1]);
    if !deterministic {
        tally.messages.push(format!("set-ups disagree on the fingerprint: {fingerprints:x?}"));
    }
    let (all, by_eng) = sums(&p.reference);

    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(Metric { name: name.to_string(), value, unit });
    };
    let (passes, trace_tsv);
    if opts.trace {
        let mut off = Tracer::new(false, 0);
        let untraced = timed_phase(&p, &mut off, opts.seconds / 2.0, &mut tally);
        let mut tr = Tracer::new(true, run_id(opts));
        let traced = timed_phase(&p, &mut tr, opts.seconds / 2.0, &mut tally);
        let failed_by_eng = tally.failed_by_eng;
        let sinks = sink_costs(&p, &mut tally);
        per_layer(
            &mut put,
            &LayerInput {
                self_times: &tr.self_times(),
                pass_ns: tr
                    .spans()
                    .iter()
                    .filter(|s| s.name == "pass")
                    .map(|s| s.duration_ns())
                    .sum(),
                passes: traced.passes,
                overhead: traced.pass_s() / untraced.pass_s() - 1.0,
                build_s: median(&build_s),
                rejected: p.inputs.rejected,
                all,
                by_eng,
                failed_by_eng,
                sinks,
            },
        );
        passes = traced.passes;
        trace_tsv = Some(tr.render_tsv());
    } else {
        let mut off = Tracer::new(false, 0);
        let phase = timed_phase(&p, &mut off, opts.seconds, &mut tally);
        let pass_s = phase.pass_s();
        let ok_share = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
        put("sim_minstr_per_s", all.dyn_instrs as f64 / pass_s / 1e6, "Minstr/s");
        put("sim_mcycles_per_s", all.cycles as f64 / pass_s / 1e6, "Mcycles/s");
        put("runs_per_s", all.cells as f64 * ok_share / pass_s, "runs/s");
        put("setup_s", median(&setup_s), "s");
        put("peak_rss_mib", peak_rss_mib(), "MiB");
        put("sim_cycles", all.cycles as f64, "cycles");
        put("tyr_peak_live", by_eng[Eng::Tyr.index()].peak_live as f64, "tokens");
        passes = phase.passes;
        trace_tsv = None;
    }
    Outcome {
        correct: tally.failed == 0 && deterministic && tally.attempted > 0,
        attempted: tally.attempted,
        failed: tally.failed,
        fingerprint: fingerprints[0],
        passes,
        cells_per_pass: p.reference.iter().map(Vec::len).sum(),
        metrics,
        failures: tally.messages,
        trace_tsv,
    }
}

/// Identifier shared by every span of one run.
fn run_id(opts: &Opts) -> u64 {
    let mut h = Fnv::default();
    h.bytes(opts.kind.name().as_bytes());
    h.word(opts.seed);
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    h.word(now);
    h.word(u64::from(std::process::id()));
    h.finish()
}

/// Host cost of each probe sink over one pass of the probed cells (zero
/// for workloads without them).
fn sink_costs(p: &Prepared, tally: &mut Tally) -> SinkCost {
    let mut total = SinkCost::default();
    for job in &p.jobs {
        let Job::Cell { kernel, spec } = job else { continue };
        if !spec.observed {
            continue;
        }
        tally.attempted += 1;
        match sink_cost(spec, &Subject::of(&p.inputs.kernels[*kernel])) {
            Ok(c) => {
                total.timeline_s += c.timeline_s;
                total.workingset_s += c.workingset_s;
                total.profiler_s += c.profiler_s;
                total.events += c.events;
            }
            Err(e) => tally.fail(spec.eng, format!("sink attribution: {e}")),
        }
    }
    total
}

struct LayerInput<'a> {
    self_times: &'a BTreeMap<&'static str, SelfTime>,
    pass_ns: u64,
    passes: usize,
    overhead: f64,
    build_s: f64,
    rejected: usize,
    all: Sums,
    by_eng: [Sums; 6],
    failed_by_eng: [u64; 6],
    sinks: SinkCost,
}

/// Engines whose cache counters are reported.
const CACHE_ENGINES: [Eng; 4] = [Eng::Tyr, Eng::GlobalBounded(0), Eng::Ordered, Eng::SeqVn];

/// Layer group of a span, by name; harness spans (no dot) are glue.
fn group(name: &str) -> &'static str {
    match name.split_once('.') {
        Some(("sim", call)) if call.ends_with(".run") => "sim_run",
        Some(("sim", call)) if call.ends_with(".new") => "sim_new",
        Some(("dfg", _)) => "dfg",
        Some(("verify", _)) => "verify",
        Some(("ir", _)) => "ir",
        Some(("workloads", _)) => "workloads",
        Some(("stats", _)) => "stats",
        _ => "harness",
    }
}

/// Layer groups, in report order.
const GROUPS: [&str; 7] = ["workloads", "ir", "dfg", "verify", "sim_new", "sim_run", "stats"];

fn per_layer(put: &mut impl FnMut(&str, f64, &'static str), li: &LayerInput<'_>) {
    let passes = li.passes.max(1) as f64;
    let get = |name: &str| li.self_times.get(name).copied().unwrap_or_default();
    let per_call_us = |name: &str| get(name).total_ns as f64 / 1e3 / get(name).calls.max(1) as f64;
    let per_pass_ms = |name: &str| get(name).total_ns as f64 / 1e6 / passes;

    put("workloads.build_ms", li.build_s * 1e3, "ms");
    put("workloads.rejected_recipes", li.rejected as f64, "count");
    put("workloads.materialize_us", per_call_us("workloads.materialize"), "us");
    put("workloads.check_us", per_call_us("workloads.check"), "us");
    put("ir.interp_us", per_call_us("ir.interp"), "us");
    put("ir.mem_clone_us", per_call_us("ir.mem_clone"), "us");
    put("dfg.lower_tagged_us", per_call_us("dfg.lower_tagged"), "us");
    put("dfg.lower_ordered_us", per_call_us("dfg.lower_ordered"), "us");
    put("verify.verify_us", per_call_us("verify.verify"), "us");
    for (i, key) in ENG_KEYS.iter().enumerate() {
        let s = li.by_eng[i];
        let run_ms = per_pass_ms(&format!("sim.{key}.run"));
        put(&format!("sim.{key}.new_us"), per_call_us(&format!("sim.{key}.new")), "us");
        put(&format!("sim.{key}.run_ms"), run_ms, "ms");
        let rate = if run_ms > 0.0 { s.dyn_instrs as f64 / (run_ms * 1e3) } else { 0.0 };
        put(&format!("sim.{key}.minstr_per_s"), rate, "Minstr/s");
        put(&format!("sim.{key}.dyn_instrs"), s.dyn_instrs as f64, "instrs");
        put(&format!("sim.{key}.cycles"), s.cycles as f64, "cycles");
        put(&format!("sim.{key}.skipped_cycles"), s.skipped as f64, "cycles");
        put(&format!("sim.{key}.errors"), li.failed_by_eng[i] as f64, "count");
    }
    for eng in [Eng::Tyr, Eng::Unordered] {
        let s = li.by_eng[eng.index()];
        put(&format!("sim.{}.peak_live", eng.key()), s.peak_live as f64, "tokens");
    }
    put("sim.event.skip_ratio", li.all.skipped as f64 / li.all.cycles.max(1) as f64, "ratio");
    for eng in CACHE_ENGINES {
        let s = li.by_eng[eng.index()];
        let key = eng.key();
        put(
            &format!("sim.cache.{key}.l1_miss_pct"),
            pct(s.l1_misses, s.l1_hits + s.l1_misses),
            "%",
        );
        put(
            &format!("sim.cache.{key}.l2_miss_pct"),
            pct(s.l2_misses, s.l2_hits + s.l2_misses),
            "%",
        );
        put(&format!("sim.cache.{key}.l1_misses"), s.l1_misses as f64, "count");
        put(&format!("sim.cache.{key}.mshr_stalls"), s.mshr_stalls as f64, "count");
    }
    let sinks = li.sinks;
    put("stats.timeline_ms", sinks.timeline_s * 1e3, "ms");
    put("stats.workingset_ms", sinks.workingset_s * 1e3, "ms");
    put("stats.profiler_ms", sinks.profiler_s * 1e3, "ms");
    put("stats.report_ms", per_pass_ms("stats.report"), "ms");
    put("stats.events", sinks.events as f64, "count");

    let mut by_group: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, st) in li.self_times {
        *by_group.entry(group(name)).or_default() += st.total_ns;
    }
    let whole = li.pass_ns.max(1);
    for g in GROUPS {
        put(&format!("share.{g}_pct"), pct(by_group.get(g).copied().unwrap_or(0), whole), "%");
    }
    let layers: u64 = GROUPS.iter().filter_map(|g| by_group.get(g)).sum();
    put("trace.coverage_pct", pct(layers, whole), "%");
    put("trace.overhead_pct", li.overhead * 100.0, "%");
}

/// Renders the result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}
