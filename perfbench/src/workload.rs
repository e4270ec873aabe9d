//! The four workloads: which inputs each builds from the seed, and the
//! jobs (the timed, repeated units) each pass runs.

use tyr_bench::fuzz::{oracle, FUZZ_RECIPE_SIZE};
use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
use tyr_dfg::InKind;
use tyr_sim::{CacheConfig, MemConfig};
use tyr_workloads::gen::{Recipe, SplitMix64};
use tyr_workloads::{by_name, dgemmb, dmv, Scale, Workload, APP_NAMES};

use crate::cell::{run_cell, CellRun, CellSpec, Eng, Oracle, Subject, SYSTEMS};
use crate::trace::{SpanId, Tracer};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The seven Table II kernels on all five systems, ideal memory.
    SuiteIdeal,
    /// dgemmb, hist and dmv under a 4 KiB L1 on four engines.
    CachedLocality,
    /// Generated short programs, lowered, verified and run on all five
    /// systems against the interpreter oracle.
    FuzzShort,
    /// TYR and ordered with the timeline, working-set and profiler sinks.
    Observed,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] =
        [Kind::SuiteIdeal, Kind::CachedLocality, Kind::FuzzShort, Kind::Observed];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SuiteIdeal => "suite-ideal",
            Kind::CachedLocality => "cached-locality",
            Kind::FuzzShort => "fuzz-short",
            Kind::Observed => "observed",
        }
    }

    /// Inverse of [`Kind::name`].
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Kernels of `cached-locality`.
pub const CACHED_KERNELS: [&str; 3] = ["dgemmb", "hist", "dmv"];

/// Kernels of `observed`, with whether each runs under the cache model.
pub const OBSERVED_KERNELS: [(&str, bool); 2] = [("dmv", false), ("dgemmb", true)];

/// Generated programs per `fuzz-short` pass at small scale.
pub const RECIPES_SMALL: usize = 768;

/// Generated programs per `fuzz-short` pass at tiny scale.
pub const RECIPES_TINY: usize = 6;

/// The pinned bounded-global pool of a `cached-locality` kernel: the
/// smallest power of two that completes under the 4 KiB-L1 cache model.
/// Smaller pools wedge or leak tokens (Fig. 11). dgemmb has none: its
/// smallest completing pool (32,768 tags) takes about 16 s per run, more
/// than a whole timed phase, so its bounded-global cell is left out.
pub fn bounded_pool(kernel: &str) -> Option<usize> {
    match kernel {
        "dmv" => Some(1024),
        "hist" => Some(64),
        _ => None,
    }
}

/// The cache model of `cached-locality` and of `observed`'s dgemmb cells:
/// 4 KiB L1, default L2 and MSHRs. Caches start empty on every run.
pub fn cached_4k() -> MemConfig {
    MemConfig::Cached(CacheConfig { l1_bytes: 4096, ..CacheConfig::default() })
}

/// Inputs one set-up builds from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Suite or cache kernels, by index.
    pub kernels: Vec<Workload>,
    /// Generated programs.
    pub recipes: Vec<Recipe>,
    /// Generated programs replaced for exceeding [`MAX_WIRED`].
    pub rejected: usize,
}

/// One timed unit: a single cell, or a generated program on all five
/// systems (with its materialisation and oracle run).
#[derive(Debug, Clone)]
pub enum Job {
    /// `kernels[kernel]` under `spec`.
    Cell {
        /// Index into [`Inputs::kernels`].
        kernel: usize,
        /// Engine and memory model.
        spec: CellSpec,
    },
    /// `recipes[i]` on every system.
    Recipe(usize),
}

fn kernel(name: &str, scale: Scale, seed: u64) -> Workload {
    by_name(name, scale, seed).expect("the benchmark names only known kernels")
}

/// Builds a workload's inputs from `seed`.
pub fn build(kind: Kind, scale: Scale, seed: u64) -> Inputs {
    let kernels = match (kind, scale) {
        (Kind::SuiteIdeal, _) => APP_NAMES.iter().map(|n| kernel(n, scale, seed)).collect(),
        (Kind::CachedLocality, _) => {
            CACHED_KERNELS.iter().map(|n| kernel(n, scale, seed)).collect()
        }
        // A probed run is several times slower than a bare one, so at small
        // scale `observed` shrinks both kernels to about a quarter of their
        // work to fit several passes in a run.
        (Kind::Observed, Scale::Small) => {
            vec![dmv::build(128, 128, seed), dgemmb::build(32, 8, seed)]
        }
        (Kind::Observed, _) => {
            OBSERVED_KERNELS.iter().map(|(n, _)| kernel(n, scale, seed)).collect()
        }
        (Kind::FuzzShort, _) => Vec::new(),
    };
    let (mut recipes, mut rejected) = (Vec::new(), 0);
    if kind == Kind::FuzzShort {
        let n = if scale == Scale::Tiny { RECIPES_TINY } else { RECIPES_SMALL };
        let mut rng = SplitMix64::new(seed);
        while recipes.len() < n {
            let r = Recipe::generate(rng.next_u64(), FUZZ_RECIPE_SIZE);
            if fits_tagged_engine(&r) {
                recipes.push(r);
            } else {
                rejected += 1;
            }
        }
    }
    Inputs { kernels, recipes, rejected }
}

/// Wired inputs a tagged-engine node may have (`TaggedEngine::new`
/// panics above this).
pub const MAX_WIRED: usize = 48;

/// Whether both tagged elaborations of `r` respect [`MAX_WIRED`]. About
/// one generated program in 1,300 lowers to a barrier with more wired
/// inputs (up to 56 seen); `fuzz-short` replaces those and reports how
/// many it replaced.
fn fits_tagged_engine(r: &Recipe) -> bool {
    let program = r.materialize().program;
    [TaggingDiscipline::Tyr, TaggingDiscipline::UnorderedUnbounded].into_iter().all(|d| {
        lower_tagged(&program, d).is_ok_and(|g| {
            g.nodes
                .iter()
                .all(|n| n.ins.iter().filter(|k| matches!(k, InKind::Wire)).count() <= MAX_WIRED)
        })
    })
}

fn cell(kernel: usize, eng: Eng, mem: MemConfig, observed: bool) -> Job {
    Job::Cell { kernel, spec: CellSpec { eng, mem, verify: false, observed } }
}

/// The jobs of one pass, in order.
pub fn jobs(kind: Kind, inputs: &Inputs) -> Vec<Job> {
    match kind {
        Kind::SuiteIdeal => (0..inputs.kernels.len())
            .flat_map(|k| SYSTEMS.map(|eng| cell(k, eng, MemConfig::ideal(1), false)))
            .collect(),
        Kind::CachedLocality => inputs
            .kernels
            .iter()
            .enumerate()
            .flat_map(|(k, w)| {
                let bounded = bounded_pool(&w.name).map(Eng::GlobalBounded);
                [Some(Eng::Tyr), bounded, Some(Eng::Ordered), Some(Eng::SeqVn)]
                    .into_iter()
                    .flatten()
                    .map(move |eng| cell(k, eng, cached_4k(), false))
            })
            .collect(),
        Kind::FuzzShort => (0..inputs.recipes.len()).map(Job::Recipe).collect(),
        Kind::Observed => OBSERVED_KERNELS
            .iter()
            .enumerate()
            .flat_map(|(k, &(_, cached))| {
                let mem = if cached { cached_4k() } else { MemConfig::ideal(1) };
                [Eng::Tyr, Eng::Ordered].map(|eng| cell(k, eng, mem.clone(), true))
            })
            .collect(),
    }
}

/// Runs one job under `parent`, appending one [`CellRun`] per engine run.
pub fn run_job(
    tr: &mut Tracer,
    parent: SpanId,
    job: &Job,
    inputs: &Inputs,
    digest: bool,
    out: &mut Vec<CellRun>,
) {
    match job {
        Job::Cell { kernel, spec } => {
            out.push(run_cell(tr, parent, spec, &Subject::of(&inputs.kernels[*kernel]), digest));
        }
        Job::Recipe(i) => {
            let span = tr.open("recipe", parent);
            let case = tr.time("workloads.materialize", span, || inputs.recipes[*i].materialize());
            match tr.time("ir.interp", span, || oracle(&case)) {
                Ok(want) => {
                    let subj = Subject {
                        label: "recipe",
                        program: &case.program,
                        memory: &case.memory,
                        args: &case.args,
                        oracle: Oracle::Interp { out: case.out, want: &want },
                    };
                    for eng in SYSTEMS {
                        let spec = CellSpec {
                            eng,
                            mem: MemConfig::ideal(1),
                            verify: true,
                            observed: false,
                        };
                        out.push(run_cell(tr, span, &spec, &subj, digest));
                    }
                }
                Err(e) => out.extend(SYSTEMS.map(|eng| CellRun {
                    eng,
                    result: Err(e.clone()),
                    memory_digest: 0,
                })),
            }
            tr.close(span);
        }
    }
}
