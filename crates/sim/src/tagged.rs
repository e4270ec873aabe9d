//! The tagged-dataflow engine: executes graphs from
//! `tyr_dfg::lower::lower_tagged` under a configurable *tag policy*.
//!
//! One engine serves three architectures of the paper's evaluation:
//!
//! * [`TagPolicy::Local`] — **TYR**: every concurrent block has its own
//!   free list; `allocate` obeys the forward-progress rule of Sec. IV-A
//!   (never taking the last usable tag unless the context is ready, and
//!   reserving a spare tag for tail-recursive backedges). Per-block sizes
//!   can differ (Sec. VII-E).
//! * [`TagPolicy::GlobalBounded`] — naïve unordered dataflow with a finite
//!   global tag pool, allocated first-come-first-served. This is the
//!   configuration that deadlocks in Fig. 11.
//! * [`TagPolicy::GlobalUnbounded`] — naïve unordered dataflow with
//!   unlimited tags (the TTDA/Monsoon-style baseline). With a TYR graph this
//!   policy makes every `allocate` succeed immediately, reproducing the
//!   "unlimited tags behaves identically to naïve unordered" observation of
//!   Fig. 9d.
//!
//! Execution is idealized per Sec. VI: every instruction takes one cycle,
//! up to `issue_width` instructions fire per cycle (including multiple
//! dynamic instances of the same static instruction), and live tokens and
//! IPC are sampled every cycle.

use std::collections::VecDeque;

use tyr_dfg::{Dfg, InKind, NodeKind, PortRef};
use tyr_ir::{AluOp, MemoryImage, Value};
use tyr_stats::probe::{FaultKind, NoProbe, Probe, ProbeEvent, StallReason};
use tyr_stats::{IpcHistogram, Trace};

use crate::cache::{CacheSim, HitLevel, MemConfig};
use crate::event::EventQueue;
use crate::fault::{FaultPlan, FaultState};
use crate::fxhash::FxHashMap;
use crate::result::{Outcome, RunResult, SimError};
use crate::watchdog::{Watchdog, WatchdogState};

/// Wired input ports per node: token presence is one `u64` per
/// activation, one bit per port below the three engine flags.
const MAX_WIRED: usize = 61;

/// Engine flags, in the top bits of an activation's presence word.
const IN_QUEUE: u64 = 1 << 63;
const IN_PENDING: u64 = 1 << 62;
const AL_POPPED: u64 = 1 << 61;
const FLAGS: u64 = IN_QUEUE | IN_PENDING | AL_POPPED;

/// Ready-queue entry standing for the front batch of woken bounded-global
/// allocates (see [`TaggedEngine::dispatch_batch`]).
const BATCH: u32 = u32::MAX;

/// Tag-allocation policy (the axis distinguishing TYR from prior unordered
/// dataflow).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TagPolicy {
    /// TYR: local tag spaces with forward-progress gating.
    Local {
        /// Tags per concurrent block.
        default_tags: usize,
        /// Per-block overrides by block name (function name or loop label).
        overrides: Vec<(String, usize)>,
    },
    /// One global pool of `tags` tags, allocated FCFS with no gating.
    GlobalBounded {
        /// Pool size.
        tags: usize,
    },
    /// Unlimited tags.
    GlobalUnbounded,
}

impl TagPolicy {
    /// TYR with `tags` tags in every local tag space.
    pub fn local(tags: usize) -> Self {
        TagPolicy::Local { default_tags: tags, overrides: Vec::new() }
    }

    /// TYR with per-block overrides: `(block name, tags)`.
    pub fn local_with(tags: usize, overrides: Vec<(String, usize)>) -> Self {
        TagPolicy::Local { default_tags: tags, overrides }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct TaggedConfig {
    /// Instructions issued per cycle (Sec. VI uses 128).
    pub issue_width: usize,
    /// Tag policy.
    pub tag_policy: TagPolicy,
    /// Program arguments delivered by the source node.
    pub args: Vec<Value>,
    /// Safety limit on simulated cycles.
    pub max_cycles: u64,
    /// Memory model (default [`MemConfig::Ideal`] with latency 1, the
    /// paper's idealized store). Loads and stores deliver their results
    /// after the model's per-access latency; raising the ideal latency (or
    /// switching to [`MemConfig::Cached`]) shows why tagged dataflow
    /// tolerates long/unpredictable latencies where ordered dataflow stalls
    /// (Sec. II-C). The cache decides only *when* results arrive, never
    /// *what* they are, so architectural results are identical across
    /// memory models.
    pub mem: MemConfig,
    /// Model dedicated tag-management hardware: token-synchronization
    /// instructions (`allocate`, `free`, `changeTag`, `extractTag`, `join`,
    /// `merge`, `const`) fire without consuming issue slots. Sec. VIII
    /// sketches exactly such microarchitectures (Monsoon-style block-boundary
    /// matching); this knob quantifies the ISA tax of TYR's token
    /// synchronization. Default off: every instruction costs a slot, as in
    /// the paper's evaluation.
    pub free_token_sync: bool,
    /// Use-after-free sanitizer: every time a `free` recycles a tag, scan
    /// that block's nodes for tokens still held under the freed tag and
    /// fail with [`SimError::UseAfterFree`] if any are found. This is the
    /// dynamic counterpart of `tyr-verify`'s static barrier-coverage pass:
    /// a node outside its block's free barrier is exactly one whose tokens
    /// can survive the free. Default off (the scan is O(block size) per
    /// free).
    pub check_token_leaks: bool,
    /// Deterministic fault-injection plan (see [`crate::fault`]). `None`
    /// (the default) injects nothing: every candidate site costs one
    /// `Option` test and the run is bit-identical to an engine without the
    /// fault layer.
    pub faults: Option<FaultPlan>,
    /// Run watchdog: cycle budget, wall-clock deadline, cancellation (see
    /// [`crate::watchdog`]). Disarmed by default.
    pub watchdog: Watchdog,
    /// Event-driven core (default on): when the ready queue is empty the
    /// engine advances the clock straight to the cycle before the next
    /// delayed release instead of ticking through the idle gap, clamped so
    /// the cycle limit, watchdog budget, and fault windows still see every
    /// cycle they would have in a ticked run. Results are bit-identical
    /// either way (only [`RunResult::skipped_cycles`](crate::RunResult) and
    /// wall-clock time differ); `false` forces the legacy one-tick-per-cycle
    /// loop, kept as the differential baseline for `repro fuzz`.
    pub event_driven: bool,
}

impl Default for TaggedConfig {
    fn default() -> Self {
        TaggedConfig {
            issue_width: 128,
            tag_policy: TagPolicy::local(64),
            args: Vec::new(),
            max_cycles: 500_000_000,
            mem: MemConfig::default(),
            free_token_sync: false,
            check_token_leaks: false,
            faults: None,
            watchdog: Watchdog::none(),
            event_driven: true,
        }
    }
}

/// A node's opcode, decoded once for the hot loop (`Copy`, no heap fields).
#[derive(Clone, Copy)]
enum Op {
    Alu(AluOp),
    Select,
    Load,
    Store,
    StoreAdd,
    Steer,
    Merge,
    Join,
    Allocate { space: u32, reserve: u8 },
    NewTag,
    Free { space: u32 },
    ChangeTag,
    ChangeTagDyn,
    ExtractTag,
    Const(Value),
    Source,
    Sink,
    CMerge,
}

/// Everything the hot loop reads about one node, as one flat record built
/// in [`TaggedEngine::with_probe`]. The graph's `Node` carries heap `ins`,
/// `outs` and `label` fields the loop never needs.
#[derive(Clone, Copy)]
struct Decoded {
    op: Op,
    /// Token-synchronization instruction (issue-slot free under
    /// [`TaggedConfig::free_token_sync`]).
    sync: bool,
    /// Wired-input mask: bit `i` is set iff input `i` is a wire.
    required: u64,
    /// The concurrent block (tag space) the node's tokens live in.
    block: u32,
    /// Input ports; immediates live at `imms[ins..ins + n_ins]`.
    n_ins: u16,
    ins: u32,
    /// Output ports; the targets of port `p` are
    /// `targets[out_off[outs + p]..out_off[outs + p + 1]]` (CSR).
    n_outs: u16,
    outs: u32,
    /// Dense layout only: the node's rows (the tags of its space).
    rows: u64,
}

impl Decoded {
    /// Words per row: presence, then one value per input port.
    fn stride(&self) -> usize {
        1 + self.n_ins as usize
    }
}

/// Token storage. Every (node, tag) activation owns row `r` of its node:
/// `1 + n_ins` words at `r * stride`, the presence word (port bits and
/// engine flags) then one value per input port. TYR's bounded local tag
/// spaces use the tag as the row — exactly the implementation benefit
/// Sec. III claims; unbounded tags force an associative index.
struct Tokens {
    rows: Vec<Vec<u64>>,
    /// `None` for the dense layout.
    sparse: Option<SparseIndex>,
}

/// The unbounded-tag index: per node, tag → row (keys are
/// engine-generated, never adversarial, so the maps hash with FxHash rather
/// than SipHash), plus the node's recycled rows, so steady-state token
/// match and clear never touch the allocator.
struct SparseIndex {
    rows: Vec<FxHashMap<u64, u32>>,
    recycled: Vec<Vec<u32>>,
}

enum Backend {
    Local { free: Vec<Vec<u64>>, pending: Vec<VecDeque<(u32, u64)>> },
    Global { free: Vec<u64>, pending: VecDeque<(u32, u64)> },
    Unbounded { next: u64 },
}

/// The tagged-dataflow engine. Construct with [`TaggedEngine::new`] (no
/// observability, zero overhead) or [`TaggedEngine::with_probe`], run with
/// [`TaggedEngine::run`].
pub struct TaggedEngine<'a, P: Probe = NoProbe> {
    dfg: &'a Dfg,
    mem: MemoryImage,
    cfg: TaggedConfig,
    nodes: Vec<Decoded>,
    /// Per-input immediates (0 on wired ports), indexed by `Decoded::ins`.
    imms: Vec<Value>,
    /// CSR output wiring, indexed by `Decoded::outs`: each target with its
    /// node's block.
    out_off: Vec<u32>,
    targets: Vec<(PortRef, u32)>,
    tokens: Tokens,
    backend: Backend,
    /// Queued activations `(node, tag, row)`; the row is resolved when the
    /// activation is queued, so dispatch never looks it up again.
    ready: VecDeque<(u32, u64, usize)>,
    /// Wake-ups are batched (no probe, no faults, no `free_token_sync`):
    /// a failed recheck on an exhausted pool parks the run of same-pool
    /// allocates queued behind it in one step.
    batch_wakeups: bool,
    /// Bounded-global wake-ups move the whole pending queue as one
    /// [`BATCH`] entry (`batch_wakeups` on a graph without `NewTag`).
    global_batches: bool,
    /// Woken bounded-global pending queues, one per [`BATCH`] entry in
    /// `ready`, in queue order; `spare` recycles their buffers.
    batches: VecDeque<VecDeque<(u32, u64)>>,
    spare: Vec<VecDeque<(u32, u64)>>,
    /// Scratch for `push_tag`'s re-examination (capacity reused).
    unparked: VecDeque<(u32, u64)>,
    /// Scratch for activations deferred to the next cycle.
    deferred: Vec<(u32, u64, usize)>,
    emissions: Vec<(PortRef, u64, Value)>,
    /// Memory results in flight, bucketed by release cycle — and the
    /// engine's wakeup source when the ready queue runs dry.
    delayed: EventQueue<(PortRef, u64, Value)>,
    /// Scratch for the per-cycle release drain (capacity reused).
    due: Vec<(PortRef, u64, Value)>,
    live: u64,
    /// Live tokens per concurrent block (token-store occupancy).
    block_live: Vec<u64>,
    /// Peak occupancy per block.
    block_peak: Vec<u64>,
    fired_total: u64,
    cycle: u64,
    /// Idle cycles advanced over in bulk by the event-driven core.
    skipped: u64,
    /// Architectural loads / stores executed (counted even without a probe).
    mem_loads: u64,
    mem_stores: u64,
    /// Cache-hierarchy state (`None` under ideal memory).
    cache: Option<CacheSim>,
    trace: Trace,
    ipc: IpcHistogram,
    returns: Option<Vec<Value>>,
    /// Live fault-injection state (`None` when no plan is configured).
    faults: Option<FaultState>,
    /// Set once a tag-exhaust fault strikes: the victim local space index
    /// (any value for the global pool). Freed tags returning to the victim
    /// are swallowed so the starvation is permanent.
    tag_sink: Option<usize>,
    /// Armed watchdog, checked at the top of every cycle.
    dog: WatchdogState,
    probe: P,
}

impl<'a> TaggedEngine<'a> {
    /// Builds an engine over a lowered graph and an initial memory image,
    /// with the zero-cost [`NoProbe`] (every probe site compiles out).
    ///
    /// # Example
    ///
    /// ```
    /// use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
    /// use tyr_ir::build::ProgramBuilder;
    /// use tyr_ir::MemoryImage;
    /// use tyr_sim::tagged::{TaggedConfig, TaggedEngine};
    ///
    /// let mut pb = ProgramBuilder::new();
    /// let mut f = pb.func("main", 1);
    /// let x = f.param(0);
    /// let y = f.add(x, 1);
    /// let p = pb.finish(f, [y]);
    ///
    /// let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
    /// let cfg = TaggedConfig { args: vec![41], ..TaggedConfig::default() };
    /// let r = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
    /// assert_eq!(r.returns, vec![42]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if a node has a wired input on a port numbered 61 or above
    /// (the lowering splits wider barriers into join trees).
    pub fn new(dfg: &'a Dfg, mem: MemoryImage, cfg: TaggedConfig) -> Self {
        TaggedEngine::with_probe(dfg, mem, cfg, NoProbe)
    }
}

/// Decodes a node's opcode and whether it is a token-synchronization
/// instruction.
fn decode_op(kind: &NodeKind) -> (Op, bool) {
    let op = match kind {
        NodeKind::Alu(op) => Op::Alu(*op),
        NodeKind::Select => Op::Select,
        NodeKind::Load => Op::Load,
        NodeKind::Store => Op::Store,
        NodeKind::StoreAdd => Op::StoreAdd,
        NodeKind::Steer => Op::Steer,
        NodeKind::Merge => Op::Merge,
        NodeKind::Join => Op::Join,
        NodeKind::Allocate { space, kind } => {
            Op::Allocate { space: space.0, reserve: kind.reserve() as u8 }
        }
        NodeKind::NewTag => Op::NewTag,
        NodeKind::Free { space } => Op::Free { space: space.0 },
        NodeKind::ChangeTag => Op::ChangeTag,
        NodeKind::ChangeTagDyn => Op::ChangeTagDyn,
        NodeKind::ExtractTag => Op::ExtractTag,
        NodeKind::Const(c) => Op::Const(*c),
        NodeKind::Source => Op::Source,
        NodeKind::Sink => Op::Sink,
        NodeKind::CMerge { .. } => Op::CMerge,
    };
    let sync = matches!(
        kind,
        NodeKind::Allocate { .. }
            | NodeKind::NewTag
            | NodeKind::Free { .. }
            | NodeKind::ChangeTag
            | NodeKind::ChangeTagDyn
            | NodeKind::ExtractTag
            | NodeKind::Join
            | NodeKind::Merge
            | NodeKind::Const(_)
    );
    (op, sync)
}

impl<'a, P: Probe> TaggedEngine<'a, P> {
    /// Builds an engine that emits probe events into `probe` (pass `&mut
    /// sink` to keep ownership of the sink across [`TaggedEngine::run`]).
    ///
    /// # Panics
    ///
    /// Panics if a node has a wired input on a port numbered 61 or above.
    pub fn with_probe(dfg: &'a Dfg, mem: MemoryImage, cfg: TaggedConfig, mut probe: P) -> Self {
        if P::ENABLED {
            for (i, b) in dfg.blocks.iter().enumerate() {
                probe.declare_block(i as u32, &b.name);
            }
            for (i, n) in dfg.nodes.iter().enumerate() {
                probe.declare_node(i as u32, &n.label, n.block.0);
            }
        }

        let space_size = |name: &str, default_tags: usize, overrides: &[(String, usize)]| {
            overrides
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, t)| t)
                .unwrap_or(default_tags)
                .max(1)
        };
        // Rows per node under the dense layout (`None`: sparse).
        let (backend, space_rows): (Backend, Option<Vec<usize>>) = match &cfg.tag_policy {
            TagPolicy::Local { default_tags, overrides } => {
                let root = dfg.node(dfg.source).block;
                let sizes: Vec<usize> = dfg
                    .blocks
                    .iter()
                    .map(|b| space_size(&b.name, *default_tags, overrides))
                    .collect();
                let free: Vec<Vec<u64>> = sizes
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| {
                        // The root context owns tag 0 of the root space.
                        let lo = if i == root.0 as usize { 1 } else { 0 };
                        (lo as u64..t as u64).rev().collect()
                    })
                    .collect();
                let pending = vec![VecDeque::new(); sizes.len()];
                (Backend::Local { free, pending }, Some(sizes))
            }
            TagPolicy::GlobalBounded { tags } => {
                let t = (*tags).max(1);
                // Tags 1..=t are the pool; the root context owns tag 0.
                let free: Vec<u64> = (1..=t as u64).rev().collect();
                (
                    Backend::Global { free, pending: VecDeque::new() },
                    Some(vec![t + 1; dfg.blocks.len()]),
                )
            }
            TagPolicy::GlobalUnbounded => (Backend::Unbounded { next: 1 }, None),
        };

        let (n_ins, n_outs, n_targets) = dfg.nodes.iter().fold((0, 0, 0), |(i, o, t), n| {
            (i + n.ins.len(), o + n.outs.len(), t + n.outs.iter().map(Vec::len).sum::<usize>())
        });
        let mut nodes = Vec::with_capacity(dfg.len());
        let mut imms = Vec::with_capacity(n_ins);
        let mut out_off = Vec::with_capacity(n_outs + 1);
        out_off.push(0u32);
        let mut targets = Vec::with_capacity(n_targets);
        for n in &dfg.nodes {
            let ins = imms.len() as u32;
            let mut required = 0u64;
            for (i, k) in n.ins.iter().enumerate() {
                match k {
                    InKind::Wire => {
                        assert!(
                            i < MAX_WIRED,
                            "node {} has a wired input on port {i} (max {})",
                            n.label,
                            MAX_WIRED - 1
                        );
                        required |= 1 << i;
                        imms.push(0);
                    }
                    InKind::Imm(v) => imms.push(*v),
                }
            }
            let outs = out_off.len() as u32 - 1;
            for port in &n.outs {
                targets.extend(port.iter().map(|t| (*t, dfg.nodes[t.node.0 as usize].block.0)));
                out_off.push(targets.len() as u32);
            }
            let (op, sync) = decode_op(&n.kind);
            let rows = space_rows.as_ref().map_or(0, |s| s[n.block.0 as usize]);
            nodes.push(Decoded {
                op,
                sync,
                required,
                block: n.block.0,
                n_ins: n.ins.len() as u16,
                ins,
                n_outs: n.outs.len() as u16,
                outs,
                rows: rows as u64,
            });
        }
        let tokens = Tokens {
            rows: nodes.iter().map(|d| vec![0; d.rows as usize * d.stride()]).collect(),
            sparse: space_rows.is_none().then(|| SparseIndex {
                rows: vec![FxHashMap::default(); dfg.len()],
                recycled: vec![Vec::new(); dfg.len()],
            }),
        };

        // Per-response extra delays (the mem-delay fault) break the timing
        // wheel's constant-latency invariant; fall back to the ordered FIFO
        // whenever that fault class is armed.
        let arms_mem_delay = cfg
            .faults
            .as_ref()
            .is_some_and(|p| p.specs.iter().any(|s| s.kind == FaultKind::MemDelay && s.count > 0));
        // Cached mode's per-access latencies vary (L1 hit vs DRAM), so hits
        // must be allowed to overtake earlier misses: the sorted queue.
        let delayed = if arms_mem_delay {
            EventQueue::fifo()
        } else if cfg.mem.is_cached() {
            EventQueue::sorted()
        } else {
            EventQueue::new(cfg.mem.ideal_latency())
        };
        // Batching skips per-entry work whose only visible effects are
        // probe events, fault-site draws and `free_token_sync`'s
        // considered-entry budget (DESIGN.md §7.9).
        let batch_wakeups = !P::ENABLED && cfg.faults.is_none() && !cfg.free_token_sync;
        let global_batches = batch_wakeups
            && matches!(backend, Backend::Global { .. })
            && !nodes.iter().any(|d| matches!(d.op, Op::NewTag));
        let faults = cfg.faults.as_ref().map(FaultState::new);
        let dog = cfg.watchdog.arm();
        let cache = cfg.mem.build();
        TaggedEngine {
            dfg,
            mem,
            cfg,
            nodes,
            imms,
            out_off,
            targets,
            tokens,
            backend,
            ready: VecDeque::new(),
            batch_wakeups,
            global_batches,
            batches: VecDeque::new(),
            spare: Vec::new(),
            unparked: VecDeque::new(),
            deferred: Vec::new(),
            emissions: Vec::new(),
            delayed,
            due: Vec::new(),
            live: 0,
            block_live: vec![0; dfg.blocks.len()],
            block_peak: vec![0; dfg.blocks.len()],
            fired_total: 0,
            cycle: 0,
            skipped: 0,
            mem_loads: 0,
            mem_stores: 0,
            cache,
            trace: Trace::new(),
            ipc: IpcHistogram::new(),
            returns: None,
            faults,
            tag_sink: None,
            dog,
            probe,
        }
    }

    /// The row of activation `(n, tag)` in node `n`'s array, if it exists
    /// (dense: the tag is in range; sparse: a token set or flag is held).
    fn row(&self, n: usize, tag: u64) -> Option<usize> {
        let d = &self.nodes[n];
        match &self.tokens.sparse {
            None => (tag < d.rows).then_some(tag as usize),
            Some(ix) => ix.rows[n].get(&tag).map(|&r| r as usize),
        }
    }

    /// The row of activation `(n, tag)`, created in the sparse index if
    /// absent. A dense tag outside its space is
    /// [`SimError::TagOverflow`]: a corrupted value feeding a dynamic tag
    /// surfaces as that error, not as an index fault.
    fn row_or_insert(&mut self, n: usize, tag: u64) -> Result<usize, SimError> {
        let d = &self.nodes[n];
        match &mut self.tokens.sparse {
            None if tag < d.rows => Ok(tag as usize),
            None => Err(SimError::TagOverflow { tag, space: d.rows as usize }),
            Some(ix) => {
                let words = &mut self.tokens.rows[n];
                let recycled = &mut ix.recycled[n];
                let r = *ix.rows[n].entry(tag).or_insert_with(|| {
                    recycled.pop().unwrap_or_else(|| {
                        let r = words.len() / d.stride();
                        words.resize(words.len() + d.stride(), 0);
                        u32::try_from(r).expect("sparse store outgrew 2^32 rows")
                    })
                });
                Ok(r as usize)
            }
        }
    }

    /// The presence word (port bits and engine flags) of row `r` of node `n`.
    fn head(&mut self, n: u32, r: usize) -> &mut u64 {
        let stride = self.nodes[n as usize].stride();
        &mut self.tokens.rows[n as usize][r * stride]
    }

    /// Sparse layout: recycles `(n, tag)`'s row once it holds no token and
    /// no flag. (Stale port values stay behind: a value is only read while
    /// its presence bit is set.)
    fn release_if_empty(&mut self, n: usize, tag: u64, r: usize) {
        if let Some(ix) = &mut self.tokens.sparse {
            if self.tokens.rows[n][r * self.nodes[n].stride()] == 0 {
                ix.rows[n].remove(&tag);
                ix.recycled[n].push(r as u32);
            }
        }
    }

    /// Runs the program to completion, deadlock, or fault.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on simulated-program faults (memory, divide),
    /// the cycle limit, or internal invariant violations. Deadlock is *not*
    /// an error: it is reported via [`Outcome::Deadlock`].
    pub fn run(mut self) -> Result<RunResult, SimError> {
        // Seed: the source fires in the first cycle with the root tag.
        let source = self.dfg.source.0;
        let r = self.row_or_insert(source as usize, 0)?;
        self.ready.push_back((source, 0, r));

        loop {
            if let Some(cause) = self.dog.check(self.cycle) {
                let peaks = self.store_peaks();
                let log = self.faults.take().map(FaultState::into_log).unwrap_or_default();
                return Ok(RunResult::new(
                    Outcome::TimedOut { cycle: self.cycle, live_tokens: self.live, cause },
                    self.trace,
                    self.ipc,
                    self.mem,
                    Vec::new(),
                )
                .with_store_peaks(peaks)
                .with_mem_counts(self.mem_loads, self.mem_stores)
                .with_mem_stats(self.cache.as_ref().map(CacheSim::stats))
                .with_faults(log)
                .with_skipped(self.skipped));
            }
            if self.faults.is_some() {
                self.fault_exhaust_tags();
            }
            // Event-driven fast path: with nothing ready, no instruction can
            // fire and no machine state can change until the next delayed
            // memory release, so the clock may advance to the cycle before
            // that release (`drain_due` during cycle `r - 1` delivers
            // release `r`) in one step. The jump is clamped so every
            // deadline that inspects skipped cycles still sees its exact
            // trip cycle: the cycle limit (checked at the bottom of each
            // ticked cycle), the watchdog's cycle budget (checked at each
            // loop top), and the tag-exhaust fault window (whose in-window
            // cycles each draw from the fault PRNG).
            if self.cfg.event_driven && self.ready.is_empty() {
                if let Some(next) = self.delayed.next_release(self.cycle) {
                    // Never leap past an outstanding MSHR fill: the fill
                    // frees an MSHR entry (releasing back-pressure), so the
                    // clock must visit its cycle.
                    let fill = self
                        .cache
                        .as_mut()
                        .and_then(|c| c.next_fill(self.cycle))
                        .unwrap_or(u64::MAX);
                    let target = (next - 1)
                        .min(fill)
                        .min(self.cfg.max_cycles)
                        .min(self.dog.budget().unwrap_or(u64::MAX))
                        .min(self.exhaust_jump_bound());
                    if target > self.cycle {
                        let n = target - self.cycle;
                        // Each skipped cycle samples exactly what the ticked
                        // loop would have: unchanged live state, IPC 0.
                        self.trace.record_n(self.live, n);
                        self.ipc.record_n(0, n);
                        self.skipped += n;
                        self.cycle = target;
                        // Ordering mirrors the ticked loop: the cycle limit
                        // fires at the bottom of cycle `max_cycles - 1`,
                        // before any loop-top watchdog check could run.
                        if self.cycle >= self.cfg.max_cycles {
                            return Err(SimError::CycleLimit { limit: self.cfg.max_cycles });
                        }
                        // A jump can leap over every slow-check boundary in
                        // the gap, so poll the host limits once per resume.
                        // The cycle budget is left to the loop-top check so
                        // its attributed cycle stays deterministic.
                        if let Some(cause) = self.dog.poll_host() {
                            let peaks = self.store_peaks();
                            let log =
                                self.faults.take().map(FaultState::into_log).unwrap_or_default();
                            return Ok(RunResult::new(
                                Outcome::TimedOut {
                                    cycle: self.cycle,
                                    live_tokens: self.live,
                                    cause,
                                },
                                self.trace,
                                self.ipc,
                                self.mem,
                                Vec::new(),
                            )
                            .with_store_peaks(peaks)
                            .with_mem_counts(self.mem_loads, self.mem_stores)
                            .with_mem_stats(self.cache.as_ref().map(CacheSim::stats))
                            .with_faults(log)
                            .with_skipped(self.skipped));
                        }
                        continue;
                    }
                }
            }
            let mut fired = 0u64;
            let mut sync_fired = 0u64;
            // With dedicated tag-management hardware, sync instructions are
            // still one-cycle but do not compete for issue slots.
            let sync_budget = if self.cfg.free_token_sync { self.ready.len() } else { 0 };
            let mut considered = 0usize;
            while (fired as usize) < self.cfg.issue_width
                || (self.cfg.free_token_sync && considered < sync_budget)
            {
                let Some(&(n, t, r)) = self.ready.front() else { break };
                if n == BATCH {
                    if self.dispatch_batch()? {
                        fired += 1;
                    }
                    continue;
                }
                self.ready.pop_front();
                considered += 1;
                if let Some(fs) = self.faults.as_mut() {
                    let fresh = fs.stuck_node().is_none();
                    if fs.is_stuck(self.cycle, n) {
                        if fresh {
                            fs.record(
                                self.cycle,
                                n,
                                FaultKind::NodeStick,
                                format!(
                                    "node '{}' wedged; it never fires again",
                                    self.dfg.nodes[n as usize].label
                                ),
                            );
                            if P::ENABLED {
                                self.probe.event(
                                    self.cycle,
                                    ProbeEvent::FaultInjected {
                                        node: n,
                                        kind: FaultKind::NodeStick,
                                    },
                                );
                            }
                        }
                        // The stuck activation keeps its queue slot but never
                        // fires; the run spins until a watchdog or the cycle
                        // limit ends it.
                        self.deferred.push((n, t, r));
                        continue;
                    }
                }
                let d = self.nodes[n as usize];
                if self.cfg.free_token_sync && !d.sync && (fired as usize) >= self.cfg.issue_width {
                    // Out of compute slots this cycle; defer without
                    // perturbing the FIFO issue order.
                    self.deferred.push((n, t, r));
                    continue;
                }
                *self.head(n, r) &= !IN_QUEUE;
                if let Op::Allocate { space, reserve } = d.op {
                    // Re-verify eligibility: free lists may have changed
                    // since the activation was queued.
                    let ready = self.tokens.rows[n as usize][r * d.stride()] & 0b10 != 0;
                    if !self.alloc_eligible(space, reserve, ready) {
                        self.park(n, t, r, space);
                        if self.batch_wakeups && self.free_tags(space) == 0 {
                            self.park_run(space);
                        }
                        continue;
                    }
                }
                self.fire(n, t, r)?;
                if P::ENABLED {
                    self.probe.event(self.cycle, ProbeEvent::NodeFired { node: n });
                }
                if self.cfg.free_token_sync && d.sync {
                    sync_fired += 1;
                } else {
                    fired += 1;
                }
            }

            // Release memory results whose latency has elapsed.
            let mut due = std::mem::take(&mut self.due);
            self.delayed.drain_due(self.cycle, &mut due);
            for (target, tag, val) in due.drain(..) {
                // Re-counted (live and block) by emit_to.
                self.live -= 1;
                self.block_live[self.nodes[target.node.0 as usize].block as usize] -= 1;
                self.emit_to(target, self.nodes[target.node.0 as usize].block, tag, val);
            }
            self.due = due;
            // Deliver this cycle's emissions (visible next cycle). The list
            // can grow while draining: an `allocate` that already popped
            // consumes its `ready` input on delivery and emits its control
            // token immediately.
            let mut i = 0;
            while i < self.emissions.len() {
                let (target, tag, mut val) = self.emissions[i];
                i += 1;
                if self.faults.is_some() && !self.fault_perturb_emission(target, tag, &mut val) {
                    continue; // token dropped
                }
                self.deliver(target, tag, val)?;
            }
            self.emissions.clear();

            for &a in self.deferred.iter().rev() {
                self.ready.push_front(a);
            }
            self.deferred.clear();
            self.cycle += 1;
            // Sync firings are real dynamic instructions even when they do
            // not consume issue slots; IPC counts compute slots only.
            self.fired_total += fired + sync_fired;
            self.trace.record(self.live);
            self.ipc.record(fired);

            if self.live == 0 && self.ready.is_empty() && self.delayed.is_empty() {
                if let Some(returns) = self.returns.take() {
                    let peaks = self.store_peaks();
                    let log = self.faults.take().map(FaultState::into_log).unwrap_or_default();
                    return Ok(RunResult::new(
                        Outcome::Completed { cycles: self.cycle, dyn_instrs: self.fired_total },
                        self.trace,
                        self.ipc,
                        self.mem,
                        returns,
                    )
                    .with_store_peaks(peaks)
                    .with_mem_counts(self.mem_loads, self.mem_stores)
                    .with_mem_stats(self.cache.as_ref().map(CacheSim::stats))
                    .with_faults(log)
                    .with_skipped(self.skipped));
                }
            }
            if fired + sync_fired == 0 && self.ready.is_empty() && self.delayed.is_empty() {
                if self.returns.is_some() {
                    return Err(SimError::TokenLeak { live_tokens: self.live });
                }
                let peaks = self.store_peaks();
                let log = self.faults.take().map(FaultState::into_log).unwrap_or_default();
                return Ok(RunResult::new(
                    Outcome::Deadlock {
                        cycle: self.cycle,
                        live_tokens: self.live,
                        pending_allocates: self.pending_report(),
                    },
                    self.trace,
                    self.ipc,
                    self.mem,
                    Vec::new(),
                )
                .with_store_peaks(peaks)
                .with_mem_counts(self.mem_loads, self.mem_stores)
                .with_mem_stats(self.cache.as_ref().map(CacheSim::stats))
                .with_faults(log)
                .with_skipped(self.skipped));
            }
            if self.cycle >= self.cfg.max_cycles {
                return Err(SimError::CycleLimit { limit: self.cfg.max_cycles });
            }
        }
    }

    /// The highest cycle the event core may jump to without skipping a
    /// cycle on which [`TaggedEngine::fault_exhaust_tags`] could draw from
    /// the fault PRNG. Outside the plan window (and once the fault has
    /// struck or its budget is spent) no candidate cycle draws, so jumps
    /// are unbounded; before the window the clock may advance to its start;
    /// inside it every cycle is a potential draw and the engine single-steps.
    fn exhaust_jump_bound(&self) -> u64 {
        match self.faults.as_ref() {
            Some(fs) if self.tag_sink.is_none() && fs.arms(FaultKind::TagExhaust) => {
                let (lo, hi) = fs.window();
                if self.cycle >= hi {
                    u64::MAX
                } else {
                    lo.max(self.cycle + 1)
                }
            }
            _ => u64::MAX,
        }
    }

    /// The tag-exhaust fault: steals every free tag from one space (the
    /// first local space that an `allocate` node actually targets, or the
    /// global pool) and swallows all future frees to it, so the starvation
    /// is permanent. Allocates on the space park forever — the run ends in
    /// a deadlock report or, with a watchdog, an attributed timeout.
    fn fault_exhaust_tags(&mut self) {
        if self.tag_sink.is_some() {
            return;
        }
        // Only spaces with allocate-side demand are worth starving:
        // stealing a pool nothing draws from perturbs nothing.
        let demanded = |space: usize| {
            self.nodes
                .iter()
                .any(|d| matches!(d.op, Op::Allocate { space: s, .. } if s as usize == space))
        };
        let victim = match &self.backend {
            Backend::Local { free, .. } => {
                free.iter().enumerate().position(|(i, f)| !f.is_empty() && demanded(i))
            }
            Backend::Global { free, .. } => {
                (!free.is_empty() && (0..self.dfg.blocks.len()).any(demanded)).then_some(0)
            }
            Backend::Unbounded { .. } => None, // unbounded spaces cannot exhaust
        };
        let Some(space) = victim else { return };
        let fs = self.faults.as_mut().expect("caller checked");
        if !fs.strike(self.cycle, FaultKind::TagExhaust) {
            return;
        }
        let (stolen, name) = match &mut self.backend {
            Backend::Local { free, .. } => {
                let n = free[space].len();
                free[space].clear();
                (n, self.dfg.blocks[space].name.as_str())
            }
            Backend::Global { free, .. } => {
                let n = free.len();
                free.clear();
                (n, "the global pool")
            }
            Backend::Unbounded { .. } => unreachable!("filtered above"),
        };
        self.tag_sink = Some(space);
        let fs = self.faults.as_mut().expect("caller checked");
        fs.record(
            self.cycle,
            0,
            FaultKind::TagExhaust,
            format!("stole {stolen} free tag(s) from {name}; future frees are swallowed"),
        );
        if P::ENABLED {
            self.probe.event(
                self.cycle,
                ProbeEvent::FaultInjected { node: 0, kind: FaultKind::TagExhaust },
            );
        }
    }

    /// Applies token-level faults (drop / duplicate / corrupt) to one
    /// emission. Returns `false` when the token was dropped — the caller
    /// must not deliver it.
    fn fault_perturb_emission(&mut self, target: PortRef, tag: u64, val: &mut Value) -> bool {
        let node = target.node.0;
        let fs = self.faults.as_mut().expect("caller checked");
        if fs.strike(self.cycle, FaultKind::TokenDrop) {
            fs.record(
                self.cycle,
                node,
                FaultKind::TokenDrop,
                format!(
                    "dropped token (value {val}) bound for '{}' port {}",
                    self.dfg.nodes[node as usize].label, target.port
                ),
            );
            if P::ENABLED {
                self.probe.event(
                    self.cycle,
                    ProbeEvent::FaultInjected { node, kind: FaultKind::TokenDrop },
                );
            }
            // The token was counted live by `emit_to`; un-count it.
            self.live -= 1;
            self.block_live[self.nodes[node as usize].block as usize] -= 1;
            return false;
        }
        if fs.strike(self.cycle, FaultKind::TokenDup) {
            fs.record(
                self.cycle,
                node,
                FaultKind::TokenDup,
                format!(
                    "duplicated token (value {val}) bound for '{}' port {} under tag {tag}",
                    self.dfg.nodes[node as usize].label, target.port
                ),
            );
            if P::ENABLED {
                self.probe.event(
                    self.cycle,
                    ProbeEvent::FaultInjected { node, kind: FaultKind::TokenDup },
                );
            }
            // The copy is appended to this cycle's emission list; delivering
            // it onto the now-occupied port violates the cardinal
            // tagged-dataflow invariant and trips `TagOverflow`.
            self.emissions.push((target, tag, *val));
            self.live += 1;
            let b = self.nodes[node as usize].block as usize;
            self.block_live[b] += 1;
            self.block_peak[b] = self.block_peak[b].max(self.block_live[b]);
        }
        // Corrupting a dynamic continuation (`ChangeTagDyn` port 1 encodes a
        // port reference) would send the token to an arbitrary graph index —
        // a harness crash, not a simulated fault — so that one port is
        // exempt.
        let dyn_target =
            target.port == 1 && matches!(self.nodes[node as usize].op, Op::ChangeTagDyn);
        if !dyn_target && fs.strike(self.cycle, FaultKind::TokenCorrupt) {
            let mask = fs.mask();
            let before = *val;
            *val ^= mask;
            fs.record(
                self.cycle,
                node,
                FaultKind::TokenCorrupt,
                format!(
                    "corrupted token for '{}' port {}: {before} -> {}",
                    self.dfg.nodes[node as usize].label, target.port, *val
                ),
            );
            if P::ENABLED {
                self.probe.event(
                    self.cycle,
                    ProbeEvent::FaultInjected { node, kind: FaultKind::TokenCorrupt },
                );
            }
        }
        true
    }

    fn store_peaks(&self) -> Vec<(String, u64)> {
        self.dfg.blocks.iter().zip(&self.block_peak).map(|(b, &p)| (b.name.clone(), p)).collect()
    }

    fn pending_report(&self) -> Vec<String> {
        let mut out = Vec::new();
        let describe = |&(n, t): &(u32, u64)| {
            let node = &self.dfg.nodes[n as usize];
            format!(
                "{} (tag {t}, block '{}')",
                node.label, self.dfg.blocks[node.block.0 as usize].name
            )
        };
        match &self.backend {
            Backend::Local { pending, .. } => {
                for q in pending {
                    out.extend(q.iter().map(describe));
                }
            }
            Backend::Global { pending, .. } => out.extend(pending.iter().map(describe)),
            Backend::Unbounded { .. } => {}
        }
        out
    }

    /// Parks allocate activation `(n, t)` (row `r`) on its pool's pending
    /// list until a `free` returns a tag.
    fn park(&mut self, n: u32, t: u64, r: usize, space: u32) {
        *self.head(n, r) |= IN_PENDING;
        match &mut self.backend {
            Backend::Local { pending, .. } => pending[space as usize].push_back((n, t)),
            Backend::Global { pending, .. } => pending.push_back((n, t)),
            Backend::Unbounded { .. } => unreachable!("unbounded is always eligible"),
        }
        if P::ENABLED {
            self.probe.event(
                self.cycle,
                ProbeEvent::StallBegin { node: n, tag: t, reason: StallReason::TagStarved },
            );
        }
    }

    /// After an allocate failed its recheck on an exhausted pool, parks
    /// the run of same-pool allocates queued right behind it. Each would
    /// fail its own recheck next, in this cycle and in this order: a failed
    /// recheck fires nothing, so no tag can return to the pool in between.
    fn park_run(&mut self, space: u32) {
        while let Some(&(n, t, r)) = self.ready.front() {
            if n == BATCH {
                break;
            }
            let Op::Allocate { space: s, .. } = self.nodes[n as usize].op else { break };
            if s != space && !matches!(self.backend, Backend::Global { .. }) {
                break;
            }
            self.ready.pop_front();
            *self.head(n, r) &= !IN_QUEUE;
            self.park(n, t, r, s);
        }
    }

    /// Dispatches the front entry of the bounded-global batch at the head
    /// of the ready queue; returns whether it fired. A batch is the whole
    /// pending queue one `free` woke, kept as one unit (DESIGN.md §7.9):
    /// its entries stay flagged `IN_PENDING`, which a `ready` arrival
    /// treats exactly as `IN_QUEUE` because a bounded-global allocate with
    /// a free tag is never parked outside a batch.
    fn dispatch_batch(&mut self) -> Result<bool, SimError> {
        let Backend::Global { free, pending } = &mut self.backend else {
            unreachable!("batches are bounded-global only")
        };
        let batch = self.batches.front_mut().expect("one batch per BATCH entry");
        if free.is_empty() {
            // Every remaining entry would fail its recheck in turn and park
            // behind the current pending list.
            if pending.is_empty() {
                std::mem::swap(pending, batch);
            } else {
                pending.append(batch);
            }
            self.retire_batch();
            return Ok(false);
        }
        let (n, t) = batch.pop_front().expect("batches are never empty");
        if batch.is_empty() {
            self.retire_batch();
        }
        let r = self.row(n as usize, t).expect("a parked activation has a row");
        *self.head(n, r) &= !IN_PENDING;
        self.fire(n, t, r)?;
        Ok(true)
    }

    /// Pops the exhausted front batch and its ready-queue entry.
    fn retire_batch(&mut self) {
        self.ready.pop_front();
        let b = self.batches.pop_front().expect("one batch per BATCH entry");
        self.spare.push(b);
    }

    fn alloc_eligible(&self, space: u32, reserve: u8, ready: bool) -> bool {
        match &self.backend {
            Backend::Local { free, .. } => {
                let f = free[space as usize].len();
                let r = reserve as usize;
                // Sec. IV-A: pop immediately while more than one usable tag
                // remains; pop the last usable tag only for a ready context.
                if ready {
                    f > r
                } else {
                    f > r + 1
                }
            }
            // FCFS, no gating: this is what deadlocks (Fig. 11).
            Backend::Global { free, .. } => !free.is_empty(),
            Backend::Unbounded { .. } => true,
        }
    }

    /// Free tags left in `space`'s pool.
    fn free_tags(&self, space: u32) -> usize {
        match &self.backend {
            Backend::Local { free, .. } => free[space as usize].len(),
            Backend::Global { free, .. } => free.len(),
            Backend::Unbounded { .. } => usize::MAX,
        }
    }

    fn pop_tag(&mut self, space: u32) -> u64 {
        match &mut self.backend {
            Backend::Local { free, .. } => free[space as usize].pop().expect("eligibility checked"),
            Backend::Global { free, .. } => free.pop().expect("eligibility checked"),
            Backend::Unbounded { next } => {
                let t = *next;
                *next += 1;
                t
            }
        }
    }

    fn push_tag(&mut self, space: u32, tag: u64) {
        if let Some(sink) = self.tag_sink {
            let swallowed = match &self.backend {
                Backend::Local { .. } => sink == space as usize,
                Backend::Global { .. } => true,
                Backend::Unbounded { .. } => false,
            };
            if swallowed {
                // The exhausted space swallows returned tags, keeping the
                // starvation permanent (see `fault_exhaust_tags`).
                return;
            }
        }
        // Returning a tag may unblock parked allocates; re-examine them in
        // arrival order (the old pending list moves to `unparked`, the
        // empty scratch takes its place).
        match &mut self.backend {
            Backend::Global { free, pending } if self.global_batches => {
                free.push(tag);
                // Before this push the pool was empty (a bounded-global
                // allocate only parks on an empty pool), so every parked
                // entry is now eligible: queue the list as one unit.
                if !pending.is_empty() {
                    let mut batch = self.spare.pop().unwrap_or_default();
                    std::mem::swap(&mut batch, pending);
                    self.batches.push_back(batch);
                    self.ready.push_back((BATCH, 0, 0));
                }
                return;
            }
            Backend::Local { free, pending } => {
                free[space as usize].push(tag);
                std::mem::swap(&mut self.unparked, &mut pending[space as usize]);
            }
            Backend::Global { free, pending } => {
                free.push(tag);
                std::mem::swap(&mut self.unparked, pending);
            }
            Backend::Unbounded { .. } => return,
        }
        let mut unparked = std::mem::take(&mut self.unparked);
        for (n, t) in unparked.drain(..) {
            let r = self.row(n as usize, t).expect("a parked activation has a row");
            // Entries promoted by a later `ready` arrival are stale.
            if *self.head(n, r) & IN_PENDING == 0 {
                continue;
            }
            let (space, reserve, ready) = match self.nodes[n as usize].op {
                // A parked pseudo-allocate (bounded policy over an
                // unbounded-elaboration graph).
                Op::NewTag => (self.nodes[n as usize].block, 0, true),
                Op::Allocate { space, reserve } => {
                    let stride = self.nodes[n as usize].stride();
                    (space, reserve, self.tokens.rows[n as usize][r * stride] & 0b10 != 0)
                }
                _ => unreachable!("only allocates park"),
            };
            if self.alloc_eligible(space, reserve, ready) {
                let h = self.head(n, r);
                *h = (*h & !IN_PENDING) | IN_QUEUE;
                self.ready.push_back((n, t, r));
                if P::ENABLED {
                    self.probe.event(self.cycle, ProbeEvent::StallEnd { node: n, tag: t });
                }
            } else {
                match &mut self.backend {
                    Backend::Local { pending, .. } => pending[space as usize].push_back((n, t)),
                    Backend::Global { pending, .. } => pending.push_back((n, t)),
                    Backend::Unbounded { .. } => unreachable!(),
                }
            }
        }
        self.unparked = unparked;
    }

    /// Emits `val` under `tag` on output `port` of node `n`.
    fn emit(&mut self, n: u32, port: u16, tag: u64, val: Value) {
        let slot = self.nodes[n as usize].outs as usize + port as usize;
        for i in self.out_off[slot] as usize..self.out_off[slot + 1] as usize {
            let (target, block) = self.targets[i];
            self.emit_to(target, block, tag, val);
        }
    }

    /// Emits one token to `target`, a node of `block`.
    fn emit_to(&mut self, target: PortRef, block: u32, tag: u64, val: Value) {
        if P::ENABLED {
            self.probe.event(self.cycle, ProbeEvent::TokenProduced { node: target.node.0 });
        }
        self.emissions.push((target, tag, val));
        self.live += 1;
        let b = block as usize;
        self.block_live[b] += 1;
        if self.block_live[b] > self.block_peak[b] {
            self.block_peak[b] = self.block_live[b];
        }
    }

    /// Simulates the memory model for one access and returns its latency
    /// in cycles (emitting a `MemMiss` probe event on L1 misses). Under
    /// ideal memory this is the fixed configured latency.
    fn mem_access(&mut self, node: u32, addr: Value, write: bool) -> u64 {
        match self.cache.as_mut() {
            Some(c) => {
                let acc = c.access(self.cycle, addr, write);
                if P::ENABLED && acc.is_miss() {
                    self.probe.event(
                        self.cycle,
                        ProbeEvent::MemMiss { node, addr, l2: acc.level == HitLevel::Mem },
                    );
                }
                acc.complete - self.cycle
            }
            None => self.cfg.mem.ideal_latency(),
        }
    }

    /// Emits a memory result on `port` after `latency` cycles (plus any
    /// injected extra delay).
    fn emit_mem(&mut self, node: u32, port: u16, tag: u64, mut val: Value, latency: u64) {
        let mut extra = 0u64;
        if let Some(fs) = self.faults.as_mut() {
            // Flips apply to load responses only: a store's completion token
            // carries no data, so flipping it would perturb nothing.
            let is_load = matches!(self.nodes[node as usize].op, Op::Load);
            if is_load && fs.strike(self.cycle, FaultKind::MemFlip) {
                let mask = fs.mask();
                let before = val;
                val ^= mask;
                fs.record(
                    self.cycle,
                    node,
                    FaultKind::MemFlip,
                    format!(
                        "flipped load response at '{}': {before} -> {val}",
                        self.dfg.nodes[node as usize].label
                    ),
                );
                if P::ENABLED {
                    self.probe.event(
                        self.cycle,
                        ProbeEvent::FaultInjected { node, kind: FaultKind::MemFlip },
                    );
                }
            }
            if fs.strike(self.cycle, FaultKind::MemDelay) {
                extra = fs.extra_delay();
                fs.record(
                    self.cycle,
                    node,
                    FaultKind::MemDelay,
                    format!(
                        "delayed memory response at '{}' by {extra} extra cycle(s)",
                        self.dfg.nodes[node as usize].label
                    ),
                );
                if P::ENABLED {
                    self.probe.event(
                        self.cycle,
                        ProbeEvent::FaultInjected { node, kind: FaultKind::MemDelay },
                    );
                }
            }
        }
        if latency <= 1 && extra == 0 {
            self.emit(node, port, tag, val);
            return;
        }
        let release = self.cycle + latency.max(1) + extra;
        let slot = self.nodes[node as usize].outs as usize + port as usize;
        for i in self.out_off[slot] as usize..self.out_off[slot + 1] as usize {
            let (t, b) = self.targets[i];
            self.delayed.push(release, (t, tag, val));
            self.live += 1;
            let b = b as usize;
            self.block_live[b] += 1;
            if self.block_live[b] > self.block_peak[b] {
                self.block_peak[b] = self.block_live[b];
            }
        }
    }

    /// The value on input `port` of a node whose activation owns row `r`:
    /// the held token on a wired port, the immediate otherwise.
    fn input(&self, n: u32, d: &Decoded, r: usize, port: u16) -> Value {
        if d.required >> port & 1 != 0 {
            self.tokens.rows[n as usize][r * d.stride() + 1 + port as usize] as Value
        } else {
            self.imms[d.ins as usize + port as usize]
        }
    }

    /// Consumes the held tokens of row `r` indicated by `mask`.
    fn consume(&mut self, node: u32, d: &Decoded, r: usize, mask: u64) {
        let block = d.block;
        let present = &mut self.tokens.rows[node as usize][r * d.stride()];
        let eaten = *present & mask;
        *present &= !eaten;
        let n = eaten.count_ones() as u64;
        self.live -= n;
        self.block_live[block as usize] -= n;
        if P::ENABLED && n > 0 {
            self.probe.event(self.cycle, ProbeEvent::TokenConsumed { node, count: n as u32 });
        }
    }

    /// Use-after-free sanitizer (`TaggedConfig::check_token_leaks`): after
    /// `space` recycled `tag`, no node of that block may still hold tokens
    /// under it — any residual presence means the free barrier failed to
    /// cover the node and a future context of the same tag would observe
    /// this context's state. The sink is exempt: it drains the root
    /// context's return tokens concurrently with the root free.
    fn scan_freed_tag(&self, space: u32, tag: u64) -> Result<(), SimError> {
        for (ni, d) in self.nodes.iter().enumerate() {
            if d.block != space || matches!(d.op, Op::Sink) {
                continue;
            }
            if self.row(ni, tag).is_some_and(|r| self.tokens.rows[ni][r * d.stride()] & !FLAGS != 0)
            {
                return Err(SimError::UseAfterFree {
                    node: self.dfg.nodes[ni].label.clone(),
                    block: self.dfg.blocks[space as usize].name.clone(),
                    tag,
                });
            }
        }
        Ok(())
    }

    /// Fires activation `(n, tag)`, whose tokens sit in row `r`.
    fn fire(&mut self, n: u32, tag: u64, r: usize) -> Result<(), SimError> {
        let d = self.nodes[n as usize];
        match d.op {
            Op::Alu(op) => {
                let a = self.input(n, &d, r, 0);
                let b = if d.n_ins > 1 { self.input(n, &d, r, 1) } else { 0 };
                let v = op.eval(a, b)?;
                self.consume(n, &d, r, d.required);
                self.emit(n, 0, tag, v);
            }
            Op::Select => {
                let c = self.input(n, &d, r, 0);
                let v = if c != 0 { self.input(n, &d, r, 1) } else { self.input(n, &d, r, 2) };
                self.consume(n, &d, r, d.required);
                self.emit(n, 0, tag, v);
            }
            Op::Load => {
                let addr = self.input(n, &d, r, 0);
                let v = self.mem.load(addr)?;
                self.mem_loads += 1;
                if P::ENABLED {
                    self.probe
                        .event(self.cycle, ProbeEvent::MemAccess { node: n, addr, write: false });
                }
                let lat = self.mem_access(n, addr, false);
                self.consume(n, &d, r, d.required);
                self.emit_mem(n, 0, tag, v, lat);
            }
            Op::Store | Op::StoreAdd => {
                let addr = self.input(n, &d, r, 0);
                let v = self.input(n, &d, r, 1);
                if matches!(d.op, Op::Store) {
                    self.mem.store(addr, v)?;
                } else {
                    self.mem.fetch_add(addr, v)?;
                }
                self.mem_stores += 1;
                if P::ENABLED {
                    self.probe
                        .event(self.cycle, ProbeEvent::MemAccess { node: n, addr, write: true });
                }
                // Output-less stores still occupy the cache and an MSHR.
                let lat = self.mem_access(n, addr, true);
                self.consume(n, &d, r, d.required);
                if d.n_outs > 0 {
                    self.emit_mem(n, 0, tag, 0, lat);
                }
            }
            Op::Steer => {
                let c = self.input(n, &d, r, 0);
                let v = self.input(n, &d, r, 1);
                self.consume(n, &d, r, d.required);
                self.emit(n, if c != 0 { 0 } else { 1 }, tag, v);
                if d.n_outs > 2 {
                    self.emit(n, 2, tag, 0);
                }
            }
            Op::Merge => {
                let present = self.tokens.rows[n as usize][r * d.stride()] & d.required;
                debug_assert_eq!(present.count_ones(), 1, "merge with multiple arrivals");
                let port = present.trailing_zeros() as u16;
                let v = self.input(n, &d, r, port);
                self.consume(n, &d, r, present);
                self.emit(n, 0, tag, v);
            }
            Op::Join => {
                let v = self.input(n, &d, r, 0);
                self.consume(n, &d, r, d.required);
                self.emit(n, 0, tag, v);
            }
            Op::Allocate { space, .. } => {
                let t_new = self.pop_tag(space);
                if P::ENABLED {
                    self.probe.event(self.cycle, ProbeEvent::TagAllocated { space, tag: t_new });
                    self.probe
                        .event(self.cycle, ProbeEvent::BlockEnter { block: space, tag: t_new });
                }
                let ready_present = self.tokens.rows[n as usize][r * d.stride()] & 0b10 != 0;
                // Consume the request (port 0) and, if present, the ready
                // (port 1, emitting the barrier control token).
                self.consume(n, &d, r, 0b01);
                if ready_present {
                    self.consume(n, &d, r, 0b10);
                    if d.n_outs > 1 {
                        self.emit(n, 1, tag, 0);
                    }
                } else {
                    *self.head(n, r) |= AL_POPPED;
                }
                self.emit(n, 0, tag, t_new as Value);
            }
            Op::NewTag => {
                let t_new = match &mut self.backend {
                    Backend::Unbounded { next } => {
                        let t = *next;
                        *next += 1;
                        t
                    }
                    // A bounded policy running an unbounded-elaboration
                    // graph still hands out pool tags FCFS (without frees it
                    // exhausts quickly — that is the point of Fig. 11's
                    // companion discussion).
                    _ => {
                        if !self.alloc_eligible(d.block, 0, true) {
                            // Park as a pseudo-allocate request.
                            self.park(n, tag, r, d.block);
                            return Ok(());
                        }
                        self.pop_tag(d.block)
                    }
                };
                if P::ENABLED {
                    self.probe
                        .event(self.cycle, ProbeEvent::TagAllocated { space: d.block, tag: t_new });
                    self.probe
                        .event(self.cycle, ProbeEvent::BlockEnter { block: d.block, tag: t_new });
                }
                self.consume(n, &d, r, d.required);
                self.emit(n, 0, tag, t_new as Value);
            }
            Op::Free { space } => {
                self.consume(n, &d, r, d.required);
                self.push_tag(space, tag);
                if P::ENABLED {
                    self.probe.event(self.cycle, ProbeEvent::TagFreed { space, tag });
                    self.probe.event(self.cycle, ProbeEvent::BlockExit { block: space, tag });
                }
                if self.cfg.check_token_leaks {
                    self.scan_freed_tag(space, tag)?;
                }
            }
            Op::ChangeTag => {
                let t_new = self.input(n, &d, r, 0) as u64;
                let v = self.input(n, &d, r, 1);
                self.consume(n, &d, r, d.required);
                if P::ENABLED {
                    self.probe.event(
                        self.cycle,
                        ProbeEvent::TagChanged { node: n, from: tag, to: t_new },
                    );
                }
                self.emit(n, 0, t_new, v);
                if d.n_outs > 1 {
                    self.emit(n, 1, tag, 0);
                }
            }
            Op::ChangeTagDyn => {
                let t_new = self.input(n, &d, r, 0) as u64;
                let target = PortRef::decode(self.input(n, &d, r, 1));
                let v = self.input(n, &d, r, 2);
                self.consume(n, &d, r, d.required);
                if P::ENABLED {
                    self.probe.event(
                        self.cycle,
                        ProbeEvent::TagChanged { node: n, from: tag, to: t_new },
                    );
                }
                self.emit_to(target, self.nodes[target.node.0 as usize].block, t_new, v);
                if d.n_outs > 1 {
                    self.emit(n, 1, tag, 0);
                }
            }
            Op::ExtractTag => {
                self.consume(n, &d, r, d.required);
                self.emit(n, 0, tag, tag as Value);
            }
            Op::Const(c) => {
                self.consume(n, &d, r, d.required);
                self.emit(n, 0, tag, c);
            }
            Op::Source => {
                let n_args = d.n_outs - 1;
                for k in 0..n_args {
                    let v = self.cfg.args.get(k as usize).copied().unwrap_or(0);
                    self.emit(n, k, tag, v);
                }
                self.emit(n, n_args, tag, 0);
            }
            Op::Sink => {
                let vals: Vec<Value> =
                    (0..self.dfg.n_returns).map(|j| self.input(n, &d, r, j as u16)).collect();
                self.consume(n, &d, r, d.required);
                self.returns = Some(vals);
            }
            Op::CMerge => unreachable!("CMerge only appears in ordered lowerings"),
        }
        self.release_if_empty(n as usize, tag, r);
        Ok(())
    }

    fn deliver(&mut self, target: PortRef, tag: u64, val: Value) -> Result<(), SimError> {
        let n = target.node.0;
        let idx = n as usize;
        let port = target.port;
        let bit = 1u64 << port;
        let r = self.row_or_insert(idx, tag)?;
        let w = r * self.nodes[idx].stride();
        let before = self.tokens.rows[idx][w];
        if before & bit != 0 {
            // The cardinal tagged-dataflow invariant (Theorem 2's premise):
            // never two tokens on one input with the same tag.
            return Err(SimError::TagOverflow { tag, space: usize::MAX });
        }
        let present = before | bit;
        self.tokens.rows[idx][w] = present;
        self.tokens.rows[idx][w + 1 + port as usize] = val as u64;
        let flags = before & FLAGS;
        let d = &self.nodes[idx];
        let (op, req, block, n_outs) = (d.op, d.required, d.block, d.n_outs);

        match op {
            Op::Allocate { space, reserve } => {
                if port == 1 && flags & AL_POPPED != 0 {
                    // Ready arrived after the pop: consumed without effect
                    // except the barrier control token (Sec. IV-A).
                    self.tokens.rows[idx][w] = before & !AL_POPPED;
                    self.live -= 1;
                    self.block_live[block as usize] -= 1;
                    if P::ENABLED {
                        self.probe
                            .event(self.cycle, ProbeEvent::TokenConsumed { node: n, count: 1 });
                    }
                    if n_outs > 1 {
                        self.emit(n, 1, tag, 0);
                    }
                    self.release_if_empty(idx, tag, r);
                    return Ok(());
                }
                if flags & IN_PENDING != 0 {
                    // Parked on tag pressure; a newly-arrived `ready` may
                    // lower the pop threshold (Sec. IV-A's "pop the last tag
                    // only for a ready context"). A batched bounded-global
                    // entry counts as queued (see `dispatch_batch`).
                    if port == 1
                        && !self.global_batches
                        && self.alloc_eligible(space, reserve, true)
                    {
                        self.tokens.rows[idx][w] = (present & !IN_PENDING) | IN_QUEUE;
                        self.ready.push_back((n, tag, r));
                        if P::ENABLED {
                            self.probe.event(self.cycle, ProbeEvent::StallEnd { node: n, tag });
                        }
                    }
                    return Ok(());
                }
                if flags & (IN_QUEUE | AL_POPPED) != 0 {
                    return Ok(());
                }
                // Request present? Try to schedule.
                if present & 0b01 != 0 {
                    if self.alloc_eligible(space, reserve, present & 0b10 != 0) {
                        self.tokens.rows[idx][w] = present | IN_QUEUE;
                        self.ready.push_back((n, tag, r));
                        if P::ENABLED && before & 0b11 != 0 {
                            self.probe.event(self.cycle, ProbeEvent::StallEnd { node: n, tag });
                        }
                    } else {
                        // With a probe attached the park switches any open
                        // partial-match interval to tag starvation — the
                        // Fig. 11 attribution.
                        self.park(n, tag, r, space);
                    }
                } else if P::ENABLED && before & 0b11 == 0 {
                    // First token of the allocate's input set (the `ready`
                    // arrived before the request): a partial-match wait.
                    self.probe.event(
                        self.cycle,
                        ProbeEvent::StallBegin { node: n, tag, reason: StallReason::PartialMatch },
                    );
                }
            }
            Op::Merge => {
                if flags & IN_QUEUE == 0 {
                    self.tokens.rows[idx][w] = present | IN_QUEUE;
                    self.ready.push_back((n, tag, r));
                }
            }
            _ => {
                if present & req == req && flags & IN_QUEUE == 0 {
                    self.tokens.rows[idx][w] = present | IN_QUEUE;
                    self.ready.push_back((n, tag, r));
                    if P::ENABLED && before & req != 0 {
                        // Earlier tokens of this set were waiting; the set
                        // just completed.
                        self.probe.event(self.cycle, ProbeEvent::StallEnd { node: n, tag });
                    }
                } else if P::ENABLED && before & req == 0 && flags & IN_QUEUE == 0 {
                    // First token of a multi-input set: the activation now
                    // waits for its partners.
                    self.probe.event(
                        self.cycle,
                        ProbeEvent::StallBegin { node: n, tag, reason: StallReason::PartialMatch },
                    );
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
    use tyr_dfg::NodeId;
    use tyr_ir::build::ProgramBuilder;
    use tyr_ir::{interp, Program};

    fn sum_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 1);
        let n = f.param(0);
        let [i, acc, nn] = f.begin_loop("sum", [0.into(), 0.into(), n]);
        let c = f.lt(i, nn);
        f.begin_body(c);
        let acc2 = f.add(acc, i);
        let i2 = f.add(i, 1);
        let [total] = f.end_loop([i2, acc2, nn], [acc]);
        pb.finish(f, [total])
    }

    fn run_with(p: &Program, d: TaggingDiscipline, policy: TagPolicy, arg: i64) -> RunResult {
        let dfg = lower_tagged(p, d).unwrap();
        let cfg = TaggedConfig { tag_policy: policy, args: vec![arg], ..TaggedConfig::default() };
        TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap()
    }

    #[test]
    fn sanitizer_passes_on_correct_lowering() {
        // With the use-after-free sanitizer on, a correct lowering still
        // completes: the free barrier really does cover every node.
        let p = sum_program();
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        for tags in [2, 64] {
            let cfg = TaggedConfig {
                tag_policy: TagPolicy::local(tags),
                args: vec![25],
                check_token_leaks: true,
                ..TaggedConfig::default()
            };
            let r = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
            assert!(r.is_complete(), "tags={tags}: {:?}", r.outcome);
            assert_eq!(r.returns, vec![300], "tags={tags}");
        }
    }

    #[test]
    fn sanitizer_passes_on_root_if_diamond() {
        // Regression: the root free barrier must also cover the data path.
        // An If-diamond's steer-completion signals fire as soon as the
        // steers commit, cycles before the ALU chain consuming the merged
        // value has drained; a barrier joining only control completion let
        // `root.free` fire while downstream consumers still held tokens.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 2);
        let a = f.param(0);
        let b = f.param(1);
        f.begin_if(a);
        let t = f.op(tyr_ir::AluOp::And, b, a);
        f.begin_else();
        let e = f.op(tyr_ir::AluOp::Gt, b, a);
        let [m] = f.end_if([(t, e)]);
        // A chain hanging off the merge, strictly after all control signals.
        let x = f.op(tyr_ir::AluOp::Lt, a, m);
        let y = f.op(tyr_ir::AluOp::Xor, x, m);
        let p = pb.finish(f, [y]);

        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        let cfg = TaggedConfig {
            tag_policy: TagPolicy::local(4),
            args: vec![3, -5],
            check_token_leaks: true,
            ..TaggedConfig::default()
        };
        let r = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        assert!(r.is_complete(), "{:?}", r.outcome);
        let mut mem = MemoryImage::new();
        let expect = interp::run(&p, &mut mem, &[3, -5]).unwrap().returns;
        assert_eq!(r.returns, expect);
    }

    #[test]
    fn sanitizer_traps_token_surviving_free() {
        // Graft a node into the loop body that receives a token but can
        // never fire (its second input is never fed): the token outlives
        // the context's free, and the sanitizer must trap it. This is the
        // dynamic twin of tyr-verify's B001 static finding.
        let p = sum_program();
        let mut dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        let body = dfg.block_by_name("sum").unwrap();
        let producer = dfg
            .nodes
            .iter()
            .position(|n| n.block == body && matches!(n.kind, NodeKind::Alu(_)))
            .expect("loop body has an alu node");
        let orphan = NodeId(dfg.nodes.len() as u32);
        dfg.nodes.push(tyr_dfg::Node {
            kind: NodeKind::Join,
            block: body,
            ins: vec![InKind::Wire, InKind::Wire],
            outs: vec![Vec::new()],
            label: "leaky".into(),
        });
        dfg.nodes[producer].outs[0].push(PortRef { node: orphan, port: 0 });

        let cfg = TaggedConfig {
            tag_policy: TagPolicy::local(4),
            args: vec![25],
            check_token_leaks: true,
            ..TaggedConfig::default()
        };
        let err = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap_err();
        match err {
            SimError::UseAfterFree { node, block, .. } => {
                assert_eq!(node, "leaky");
                assert_eq!(block, "sum");
            }
            other => panic!("expected UseAfterFree, got {other}"),
        }
        // Same corrupted graph with the sanitizer off: the leak is silent
        // (the run completes or token-leaks at exit, but nothing traps the
        // free itself) — which is exactly why the gate exists.
        let cfg = TaggedConfig {
            tag_policy: TagPolicy::local(4),
            args: vec![25],
            ..TaggedConfig::default()
        };
        let quiet = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run();
        assert!(!matches!(quiet, Err(SimError::UseAfterFree { .. })), "sanitizer must be opt-in");
    }

    #[test]
    fn tyr_computes_sum() {
        let p = sum_program();
        for tags in [2, 3, 8, 64] {
            let r = run_with(&p, TaggingDiscipline::Tyr, TagPolicy::local(tags), 100);
            assert!(r.is_complete(), "tags={tags}: {:?}", r.outcome);
            assert_eq!(r.returns, vec![4950], "tags={tags}");
        }
    }

    #[test]
    fn unordered_unbounded_computes_sum() {
        let p = sum_program();
        let r =
            run_with(&p, TaggingDiscipline::UnorderedUnbounded, TagPolicy::GlobalUnbounded, 100);
        assert!(r.is_complete());
        assert_eq!(r.returns, vec![4950]);
    }

    #[test]
    fn zero_trip_loop_in_dataflow() {
        let p = sum_program();
        let r = run_with(&p, TaggingDiscipline::Tyr, TagPolicy::local(2), 0);
        assert!(r.is_complete());
        assert_eq!(r.returns, vec![0]);
    }

    #[test]
    fn matches_reference_interpreter() {
        let p = sum_program();
        let mut mem = MemoryImage::new();
        let oracle = interp::run(&p, &mut mem, &[57]).unwrap();
        let r = run_with(&p, TaggingDiscipline::Tyr, TagPolicy::local(4), 57);
        assert_eq!(r.returns, oracle.returns);
    }

    #[test]
    fn more_tags_do_not_change_results_but_change_state() {
        let p = sum_program();
        let small = run_with(&p, TaggingDiscipline::Tyr, TagPolicy::local(2), 300);
        let large = run_with(&p, TaggingDiscipline::Tyr, TagPolicy::local(64), 300);
        assert_eq!(small.returns, large.returns);
        // More tags → at least as much peak live state and no more cycles.
        assert!(large.peak_live() >= small.peak_live());
        assert!(large.cycles() <= small.cycles());
    }

    #[test]
    fn live_state_is_bounded_by_theorem2() {
        let p = sum_program();
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        let tags = 4usize;
        let r = run_with(&p, TaggingDiscipline::Tyr, TagPolicy::local(tags), 200);
        let bound = (tags * dfg.len() * dfg.max_wired_inputs()) as u64;
        assert!(r.peak_live() <= bound, "{} > {}", r.peak_live(), bound);
    }

    #[test]
    fn nested_loops_under_tiny_tag_spaces() {
        // sum_{i<12} sum_{j<i} i*j with 2 tags per block must complete
        // (Theorem 1) and match the oracle.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("outer", [0, 0]);
        let c = f.lt(i, 12);
        f.begin_body(c);
        let [j, ia, ii] = f.begin_loop("inner", [0.into(), acc, i]);
        let cj = f.lt(j, ii);
        f.begin_body(cj);
        let prod = f.mul(ii, j);
        let ia2 = f.add(ia, prod);
        let j2 = f.add(j, 1);
        let [acc_out] = f.end_loop([j2, ia2, ii], [ia]);
        let i2 = f.add(i, 1);
        let [total] = f.end_loop([i2, acc_out], [acc]);
        let p = pb.finish(f, [total]);

        let mut mem = MemoryImage::new();
        let oracle = interp::run(&p, &mut mem, &[]).unwrap();
        for tags in [2, 3, 16] {
            let r = run_with(&p, TaggingDiscipline::Tyr, TagPolicy::local(tags), 0);
            assert!(r.is_complete(), "tags={tags}: {:?}", r.outcome);
            assert_eq!(r.returns, oracle.returns, "tags={tags}");
        }
    }

    #[test]
    fn bounded_global_pool_deadlocks_nested_loops() {
        // The Fig. 11 phenomenon: a small FCFS global pool hands all tags to
        // outer iterations; inner loops starve; the machine deadlocks.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("outer", [0, 0]);
        let c = f.lt(i, 64);
        f.begin_body(c);
        let [j, ia] = f.begin_loop("inner", [0.into(), acc]);
        let cj = f.lt(j, 8);
        f.begin_body(cj);
        let ia2 = f.add(ia, 1);
        let j2 = f.add(j, 1);
        let [acc_out] = f.end_loop([j2, ia2], [ia]);
        let i2 = f.add(i, 1);
        let [total] = f.end_loop([i2, acc_out], [acc]);
        let p = pb.finish(f, [total]);

        let dfg = lower_tagged(&p, TaggingDiscipline::UnorderedBounded).unwrap();
        let cfg = TaggedConfig {
            tag_policy: TagPolicy::GlobalBounded { tags: 4 },
            ..TaggedConfig::default()
        };
        let r = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        match &r.outcome {
            Outcome::Deadlock { pending_allocates, live_tokens, .. } => {
                assert!(!pending_allocates.is_empty());
                assert!(*live_tokens > 0);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
        // TYR completes the same program with 2 tags per block.
        let r = run_with(&p, TaggingDiscipline::Tyr, TagPolicy::local(2), 0);
        assert!(r.is_complete(), "{:?}", r.outcome);
        assert_eq!(r.returns, vec![64 * 8]);
    }

    #[test]
    fn per_block_tag_overrides_apply() {
        let p = sum_program();
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        let cfg = TaggedConfig {
            tag_policy: TagPolicy::local_with(64, vec![("sum".into(), 2)]),
            args: vec![200],
            ..TaggedConfig::default()
        };
        let throttled = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        let wide = run_with(&p, TaggingDiscipline::Tyr, TagPolicy::local(64), 200);
        assert_eq!(throttled.returns, wide.returns);
        assert!(throttled.peak_live() <= wide.peak_live());
    }
}

#[cfg(test)]
mod gating_tests {
    //! Focused tests of the Sec. IV-A allocate firing rule.

    use super::*;
    use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
    use tyr_ir::build::ProgramBuilder;
    use tyr_ir::Program;

    /// A loop whose iterations are long-latency (a serial chain), making
    /// tag pressure observable.
    fn chain_loop(iters: i64, chain: usize) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("chain", [0, 0]);
        let c = f.lt(i, iters);
        f.begin_body(c);
        let mut v = f.add(acc, 1);
        for _ in 0..chain {
            v = f.add(v, 0);
        }
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2, v], [acc]);
        pb.finish(f, [out])
    }

    #[test]
    fn external_allocate_never_takes_the_last_tag() {
        // With exactly 2 tags: the entry (external) allocate may only pop
        // when both tags are free *and* the context is ready, so the run
        // must serialize but always complete (Lemma 2 in action).
        let p = chain_loop(25, 6);
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        let cfg = TaggedConfig { tag_policy: TagPolicy::local(2), ..TaggedConfig::default() };
        let r = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        assert!(r.is_complete(), "{:?}", r.outcome);
        assert_eq!(r.returns, vec![25]);
    }

    #[test]
    fn single_tag_space_is_clamped_to_one_and_still_works_for_leaf_calls() {
        // TagPolicy::local(0) is clamped to 1 tag. A 1-tag *loop* space
        // cannot satisfy the external allocate's reserve, so use a function
        // call (Call kind, reserve 0): it must still complete, fully
        // serialized.
        let mut pb = ProgramBuilder::new();
        let mut g = pb.func("leaf", 1);
        let x = g.param(0);
        let y = g.mul(x, x);
        let gid = g.id();
        pb.define(g, [y]);
        let mut f = pb.func("main", 1);
        let a = f.param(0);
        let r1 = f.call(gid, &[a], 1);
        let r2 = f.call(gid, &[r1[0]], 1);
        let p = pb.finish(f, [r2[0]]);

        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        let cfg = TaggedConfig {
            tag_policy: TagPolicy::local(0),
            args: vec![3],
            ..TaggedConfig::default()
        };
        let r = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        assert!(r.is_complete(), "{:?}", r.outcome);
        assert_eq!(r.returns, vec![81]);
    }

    #[test]
    fn cycle_limit_is_enforced() {
        let p = chain_loop(100_000, 2);
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        let cfg = TaggedConfig {
            tag_policy: TagPolicy::local(2),
            max_cycles: 500,
            ..TaggedConfig::default()
        };
        let err = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap_err();
        assert!(matches!(err, SimError::CycleLimit { limit: 500 }));
    }

    #[test]
    fn dense_store_is_used_for_local_policies() {
        // Structural: a TYR run with bounded tags must never allocate a tag
        // value >= the space size (would be TagOverflow). Completing proves
        // the dense token store sufficed — the Sec. III hardware claim.
        let p = chain_loop(50, 1);
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        for tags in [2usize, 3, 7] {
            let cfg =
                TaggedConfig { tag_policy: TagPolicy::local(tags), ..TaggedConfig::default() };
            let r = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
            assert!(r.is_complete());
        }
    }

    #[test]
    fn deadlock_report_names_blocks() {
        let p = chain_loop(50, 1);
        let dfg = lower_tagged(&p, TaggingDiscipline::UnorderedBounded).unwrap();
        let cfg = TaggedConfig {
            tag_policy: TagPolicy::GlobalBounded { tags: 1 },
            ..TaggedConfig::default()
        };
        let r = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        match r.outcome {
            Outcome::Deadlock { pending_allocates, .. } => {
                assert!(
                    pending_allocates.iter().any(|p| p.contains("chain")),
                    "{pending_allocates:?}"
                );
            }
            other => panic!("expected deadlock with 1 global tag, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod isa_tax_tests {
    use super::*;
    use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
    use tyr_ir::build::ProgramBuilder;

    #[test]
    fn free_token_sync_is_correct_and_not_slower() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("l", [0, 0]);
        let c = f.lt(i, 300);
        f.begin_body(c);
        let acc2 = f.add(acc, i);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2, acc2], [acc]);
        let p = pb.finish(f, [out]);
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();

        let run = |free_sync: bool| {
            let cfg = TaggedConfig {
                issue_width: 8,
                tag_policy: TagPolicy::local(16),
                free_token_sync: free_sync,
                ..TaggedConfig::default()
            };
            TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap()
        };
        let taxed = run(false);
        let free = run(true);
        assert_eq!(taxed.returns, free.returns);
        assert_eq!(taxed.returns, vec![(0..300).sum::<i64>()]);
        // Same dynamic instruction count; fewer (or equal) cycles without
        // the tax on a narrow machine.
        assert_eq!(taxed.dyn_instrs(), free.dyn_instrs());
        assert!(free.cycles() <= taxed.cycles(), "{} > {}", free.cycles(), taxed.cycles());
        // IPC under the free-sync model never exceeds the compute width.
        assert!(free.ipc.max_value() <= 8);
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;
    use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
    use tyr_ir::build::ProgramBuilder;

    #[test]
    fn results_are_latency_invariant() {
        // dmv-like loop with loads: memory latency changes timing, never
        // values.
        let mut mem = MemoryImage::new();
        let xs = mem.alloc_init("xs", &(0..32).map(|i| i * 3 - 7).collect::<Vec<_>>());
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("l", [0, 0]);
        let c = f.lt(i, 32);
        f.begin_body(c);
        let addr = f.add(i, xs.base_const());
        let v = f.load(addr);
        let acc2 = f.add(acc, v);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2, acc2], [acc]);
        let p = pb.finish(f, [out]);
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();

        let mut cycles = Vec::new();
        let mut returns = Vec::new();
        for lat in [1u64, 4, 16, 64] {
            let cfg = TaggedConfig {
                tag_policy: TagPolicy::local(16),
                mem: MemConfig::ideal(lat),
                ..TaggedConfig::default()
            };
            let r = TaggedEngine::new(&dfg, mem.clone(), cfg).run().unwrap();
            assert!(r.is_complete(), "lat={lat}: {:?}", r.outcome);
            cycles.push(r.cycles());
            returns.push(r.returns.clone());
        }
        assert!(returns.windows(2).all(|w| w[0] == w[1]));
        // Longer latency never speeds things up.
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "{cycles:?}");
    }

    #[test]
    fn tags_hide_latency() {
        // With enough tags, many iterations' loads overlap: doubling memory
        // latency must cost far less than 2x. With 2 tags it is nearly
        // serial.
        let mut mem = MemoryImage::new();
        let xs = mem.alloc_init("xs", &vec![1; 256]);
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("l", [0, 0]);
        let c = f.lt(i, 256);
        f.begin_body(c);
        let addr = f.add(i, xs.base_const());
        let v = f.load(addr);
        let acc2 = f.add(acc, v);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2, acc2], [acc]);
        let p = pb.finish(f, [out]);
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();

        let run = |tags: usize, lat: u64| {
            let cfg = TaggedConfig {
                tag_policy: TagPolicy::local(tags),
                mem: MemConfig::ideal(lat),
                ..TaggedConfig::default()
            };
            TaggedEngine::new(&dfg, mem.clone(), cfg).run().unwrap().cycles()
        };
        let wide_1 = run(64, 1);
        let wide_32 = run(64, 32);
        let narrow_1 = run(2, 1);
        let narrow_32 = run(2, 32);
        let wide_slowdown = wide_32 as f64 / wide_1 as f64;
        let narrow_slowdown = narrow_32 as f64 / narrow_1 as f64;
        assert!(
            wide_slowdown < narrow_slowdown,
            "tags should hide latency: {wide_slowdown:.2} vs {narrow_slowdown:.2}"
        );
    }
}

#[cfg(test)]
mod event_core_tests {
    //! The event-driven fast path must be bit-identical to the ticked loop
    //! it replaces: same outcome, traces, histograms, memory, and deadline
    //! trip cycles, differing only in `skipped_cycles` and wall-clock time.

    use super::*;
    use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
    use tyr_ir::build::ProgramBuilder;
    use tyr_ir::Program;

    /// Serial reduction over loads: with few tags and long memory latency
    /// almost every cycle is idle — the worst case the event core targets.
    fn load_loop(n: i64) -> (Program, MemoryImage) {
        let mut mem = MemoryImage::new();
        let xs = mem.alloc_init("xs", &(0..n).map(|i| i * 3 - 7).collect::<Vec<_>>());
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("l", [0, 0]);
        let c = f.lt(i, n);
        f.begin_body(c);
        let addr = f.add(i, xs.base_const());
        let v = f.load(addr);
        let acc2 = f.add(acc, v);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2, acc2], [acc]);
        (pb.finish(f, [out]), mem)
    }

    fn run_mode(
        p: &Program,
        mem: &MemoryImage,
        policy: TagPolicy,
        lat: u64,
        event_driven: bool,
        watchdog: Watchdog,
        max_cycles: u64,
    ) -> Result<RunResult, SimError> {
        let dfg = lower_tagged(p, TaggingDiscipline::Tyr).unwrap();
        let cfg = TaggedConfig {
            tag_policy: policy,
            mem: MemConfig::ideal(lat),
            event_driven,
            watchdog,
            max_cycles,
            ..TaggedConfig::default()
        };
        TaggedEngine::new(&dfg, mem.clone(), cfg).run()
    }

    fn assert_identical(event: &RunResult, ticked: &RunResult, what: &str) {
        assert_eq!(event.outcome, ticked.outcome, "{what}: outcome");
        assert_eq!(event.live, ticked.live, "{what}: live trace");
        assert_eq!(event.ipc, ticked.ipc, "{what}: ipc histogram");
        assert_eq!(event.returns, ticked.returns, "{what}: returns");
        assert_eq!(event.store_peaks, ticked.store_peaks, "{what}: store peaks");
        assert_eq!(event.mem_loads, ticked.mem_loads, "{what}: loads");
        assert_eq!(event.mem_stores, ticked.mem_stores, "{what}: stores");
        assert_eq!(event.memory(), ticked.memory(), "{what}: memory");
        assert_eq!(event.faults, ticked.faults, "{what}: fault log");
        assert_eq!(ticked.skipped_cycles, 0, "{what}: ticked runs never skip");
    }

    #[test]
    fn event_and_ticked_runs_are_bit_identical() {
        let (p, mem) = load_loop(24);
        for lat in [2u64, 7, 200] {
            for (label, policy) in [
                ("local(2)", TagPolicy::local(2)),
                ("local(16)", TagPolicy::local(16)),
                ("unbounded", TagPolicy::GlobalUnbounded),
            ] {
                let max = TaggedConfig::default().max_cycles;
                let run = |ed| {
                    run_mode(&p, &mem, policy.clone(), lat, ed, Watchdog::none(), max).unwrap()
                };
                let event = run(true);
                let ticked = run(false);
                let what = format!("lat={lat} {label}");
                assert!(event.is_complete(), "{what}: {:?}", event.outcome);
                assert_identical(&event, &ticked, &what);
                // With 2 tags the loads serialize, so at 200-cycle latency
                // nearly the whole run is skippable idle time. (Wider
                // policies overlap their loads and skip far less.)
                if lat == 200 && label == "local(2)" {
                    assert!(
                        event.skipped_cycles > event.cycles() / 2,
                        "{what}: skipped {} of {}",
                        event.skipped_cycles,
                        event.cycles()
                    );
                }
            }
        }
    }

    #[test]
    fn cycle_limit_trips_identically_mid_gap() {
        // Limits chosen to land inside idle gaps: the event core must not
        // jump past `max_cycles` and run longer than a ticked engine would.
        let (p, mem) = load_loop(24);
        let total = run_mode(&p, &mem, TagPolicy::local(2), 200, true, Watchdog::none(), u64::MAX)
            .unwrap()
            .cycles();
        for limit in [total / 7, total / 3, total / 2, total - 2] {
            let run = |ed| {
                run_mode(&p, &mem, TagPolicy::local(2), 200, ed, Watchdog::none(), limit)
                    .unwrap_err()
            };
            assert_eq!(run(true), SimError::CycleLimit { limit }, "event mode, limit={limit}");
            assert_eq!(run(true), run(false), "limit={limit}");
        }
    }

    #[test]
    fn cycle_budget_trips_at_the_same_cycle_even_when_jumped_past() {
        // A watchdog budget landing mid-gap must attribute the timeout to
        // exactly the budget cycle, with the same trace lengths, in both
        // modes — the jump is clamped to the budget boundary.
        let (p, mem) = load_loop(24);
        for budget in [37u64, 123, 391, 777] {
            let dog = Watchdog::none().with_cycle_budget(budget);
            let run = |ed| {
                run_mode(&p, &mem, TagPolicy::local(2), 200, ed, dog.clone(), u64::MAX).unwrap()
            };
            let event = run(true);
            let ticked = run(false);
            match event.outcome {
                Outcome::TimedOut { cycle, cause, .. } => {
                    assert_eq!(cycle, budget, "attributed to the exact budget cycle");
                    assert_eq!(cause, crate::result::TimeoutCause::CycleBudget { budget });
                }
                ref other => panic!("budget={budget}: expected a timeout, got {other:?}"),
            }
            assert_identical(&event, &ticked, &format!("budget={budget}"));
            assert_eq!(event.live.cycles(), budget, "one trace record per pre-trip cycle");
        }
    }
}

#[cfg(test)]
mod store_size_tests {
    //! Per-block token-store occupancy: the hardware-implementability
    //! argument of Sec. III ("small, private token stores").

    use super::*;
    use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
    use tyr_ir::build::ProgramBuilder;

    #[test]
    fn block_store_peaks_are_tracked_and_bounded() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("work", [0, 0]);
        let c = f.lt(i, 500);
        f.begin_body(c);
        let acc2 = f.add(acc, i);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2, acc2], [acc]);
        let p = pb.finish(f, [out]);
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();

        let tags = 8usize;
        let cfg = TaggedConfig { tag_policy: TagPolicy::local(tags), ..TaggedConfig::default() };
        let r = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        assert!(r.is_complete());
        // One entry per block, block peaks sum >= overall peak never holds
        // exactly (peaks at different times), but every block peak is
        // bounded by T * (nodes in block) * max inputs.
        assert_eq!(r.store_peaks.len(), dfg.blocks.len());
        for (name, peak) in &r.store_peaks {
            let members =
                dfg.nodes.iter().filter(|n| dfg.blocks[n.block.0 as usize].name == *name).count()
                    as u64;
            let bound = tags as u64 * members * dfg.max_wired_inputs() as u64;
            assert!(peak <= &bound, "block '{name}': {peak} > {bound}");
            assert!(*peak > 0 || members == 0 || name == "main");
        }
        assert!(r.max_store_peak() > 0);
        // Fewer tags => smaller per-block stores.
        let cfg = TaggedConfig { tag_policy: TagPolicy::local(2), ..TaggedConfig::default() };
        let r2 = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        assert!(r2.max_store_peak() <= r.max_store_peak());
    }
}
