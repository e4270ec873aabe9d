//! Ordered-dataflow engine (RipTide-style; Sec. II-C).
//!
//! Instructions communicate through bounded per-edge FIFO queues. A node
//! fires when every wired input FIFO has a token *and* every output FIFO has
//! space (back pressure); each static instruction fires at most once per
//! cycle, which is precisely the serialization that costs ordered dataflow
//! its cross-iteration parallelism. "The queue size also limits the number
//! of dynamic instances of each instruction, applying back pressure to
//! upstream instructions."
//!
//! Readiness is evaluated against start-of-cycle state (synchronous
//! hardware); a queue may transiently hold one token above its capacity
//! within a cycle, and the producer stalls the next cycle.

use std::collections::VecDeque;

use tyr_dfg::{Dfg, InKind, NodeKind, PortRef};
use tyr_ir::{MemoryImage, Value};
use tyr_stats::probe::{FaultKind, NoProbe, Probe, ProbeEvent, StallReason};
use tyr_stats::{IpcHistogram, Trace};

use crate::cache::{CacheSim, HitLevel, MemConfig};
use crate::fault::{FaultPlan, FaultState};
use crate::result::{Outcome, RunResult, SimError};
use crate::watchdog::{Watchdog, WatchdogState};

/// Per-edge FIFO capacities: a uniform default plus targeted overrides.
///
/// Capacities are keyed by the *consumer* input port `(node, port)` — the
/// same indexing as the engine's FIFO array — because every edge has
/// exactly one consumer port while an output port may fan out. This is the
/// configuration surface the static occupancy pass (`tyr-verify`'s `O…`
/// diagnostics) checks against, the way `check_tag_policy` checks a
/// [`TagPolicy`](crate::tagged::TagPolicy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelCapacity {
    /// Capacity of every edge without an override.
    pub default: usize,
    /// `((consumer node id, input port), capacity)` exceptions.
    pub overrides: Vec<((u32, u16), usize)>,
}

impl ChannelCapacity {
    /// Every edge at `default`.
    pub fn uniform(default: usize) -> Self {
        ChannelCapacity { default, overrides: Vec::new() }
    }

    /// Builder: overrides the capacity of the edge into `(node, port)`.
    pub fn with_override(mut self, node: u32, port: u16, capacity: usize) -> Self {
        self.overrides.push(((node, port), capacity));
        self
    }

    /// The capacity of the edge into input `port` of `node`.
    pub fn of(&self, node: u32, port: u16) -> usize {
        self.overrides
            .iter()
            .find(|((n, p), _)| *n == node && *p == port)
            .map_or(self.default, |&(_, c)| c)
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct OrderedConfig {
    /// Instructions issued per cycle.
    pub issue_width: usize,
    /// FIFO capacity per edge (the paper's baseline uses 4, which
    /// "empirically minimizes peak state with minimal loss in performance").
    pub queue_depth: usize,
    /// Per-edge capacity exceptions, keyed by consumer `(node, port)`;
    /// edges not listed use `queue_depth`. See [`ChannelCapacity`].
    pub depth_overrides: Vec<((u32, u16), usize)>,
    /// Program arguments.
    pub args: Vec<Value>,
    /// Safety limit on simulated cycles.
    pub max_cycles: u64,
    /// Memory model (default [`MemConfig::Ideal`] with latency 1). Results
    /// are pipelined: each load node delivers its results in issue order,
    /// so per-edge FIFO order is preserved even when a cached model gives
    /// later accesses shorter latencies (a hit behind a miss waits for the
    /// miss — the in-order memory interface ordered dataflow pays for).
    pub mem: MemConfig,
    /// Deterministic fault-injection plan (see [`crate::fault`]). `None`
    /// (the default) injects nothing. Tag-space faults do not apply to the
    /// ordered machine (it is untagged) and are never triggered.
    pub faults: Option<FaultPlan>,
    /// Run watchdog (see [`crate::watchdog`]). Disarmed by default.
    pub watchdog: Watchdog,
    /// Event-driven core (default on): when a cycle fires nothing and
    /// releases nothing, the machine is frozen until the earliest in-flight
    /// memory release matures, so the clock advances straight to that cycle
    /// (clamped to the cycle limit and watchdog budget). Bit-identical to
    /// the ticked loop; `false` forces one tick per cycle, kept as the
    /// differential baseline for `repro fuzz`.
    pub event_driven: bool,
}

impl OrderedConfig {
    /// The per-edge capacity map this configuration induces.
    pub fn capacity(&self) -> ChannelCapacity {
        ChannelCapacity { default: self.queue_depth, overrides: self.depth_overrides.clone() }
    }
}

impl Default for OrderedConfig {
    fn default() -> Self {
        OrderedConfig {
            issue_width: 128,
            queue_depth: 4,
            depth_overrides: Vec::new(),
            args: Vec::new(),
            max_cycles: 500_000_000,
            mem: MemConfig::default(),
            faults: None,
            watchdog: Watchdog::none(),
            event_driven: true,
        }
    }
}

/// What a node's readiness depends on besides its counters.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Fires once, when its outputs have room.
    Source,
    /// Fires once, when every wired input holds a token.
    Sink,
    /// Needs the input its control token selects, not every input.
    CMerge,
    /// Needs every wired input and room on every output.
    Plain,
}

/// The ordered-dataflow engine.
///
/// Readiness is kept incrementally (DESIGN.md §7.9): per node, a count of
/// its empty wired input FIFOs and of its full output-target FIFOs, updated
/// on every push and pop, and a ready bitset refreshed whenever a node's
/// counters change. A cycle issues the set bits in node order, which is
/// exactly the index-order scan over start-of-cycle state.
pub struct OrderedEngine<'a, P: Probe = NoProbe> {
    dfg: &'a Dfg,
    mem: MemoryImage,
    cfg: OrderedConfig,
    class: Vec<Class>,
    /// Input slots: input `p` of node `n` is slot `in_base[n] + p`
    /// (`in_base` has one extra entry, the slot count).
    in_base: Vec<u32>,
    /// Per slot: its FIFO, its capacity, and its immediate (`None` for a
    /// wired input).
    fifos: Vec<VecDeque<Value>>,
    caps: Vec<usize>,
    imms: Vec<Option<Value>>,
    /// Per slot: the producer node of every edge into it, with
    /// multiplicity (`prods[prod_off[s]..prod_off[s + 1]]`).
    prod_off: Vec<u32>,
    prods: Vec<u32>,
    /// CSR output wiring: output `p` of node `n` feeds the `(node, slot)`
    /// pairs `targets[out_off[out_base[n] + p]..out_off[out_base[n] + p + 1]]`.
    out_base: Vec<u32>,
    out_off: Vec<u32>,
    targets: Vec<(u32, u32)>,
    /// Per node: wired input FIFOs that are empty.
    empty_in: Vec<u32>,
    /// Per node: output edges whose target FIFO is full.
    full_out: Vec<u32>,
    /// Bit `n` is set iff node `n` can fire against the current state.
    ready_bits: Vec<u64>,
    /// Scratch: the nodes issued this cycle.
    firing: Vec<usize>,
    source_fired: bool,
    /// Memory results in flight, per load node (results of one node stay
    /// ordered; different nodes deliver independently):
    /// `delayed[node] = (release_cycle, value)`.
    delayed: Vec<VecDeque<(u64, Value)>>,
    /// Bit `n` is set iff `delayed[n]` is non-empty, so the release drain
    /// and the event jump visit only loads with results in flight, in node
    /// order.
    inflight: Vec<u64>,
    delayed_count: usize,
    live: u64,
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
    /// Armed watchdog, checked at the top of every cycle.
    dog: WatchdogState,
    probe: P,
    /// Current stall reason per node, for edge-triggered probe emission.
    /// Empty unless the probe is enabled.
    stall_state: Vec<Option<StallReason>>,
}

impl<'a> OrderedEngine<'a> {
    /// Builds an engine over an ordered-lowered graph with no probe
    /// attached.
    ///
    /// # Example
    ///
    /// ```
    /// use tyr_dfg::lower::lower_ordered;
    /// use tyr_ir::build::ProgramBuilder;
    /// use tyr_ir::MemoryImage;
    /// use tyr_sim::ordered::{OrderedConfig, OrderedEngine};
    ///
    /// let mut pb = ProgramBuilder::new();
    /// let mut f = pb.func("main", 1);
    /// let x = f.param(0);
    /// let y = f.mul(x, 3);
    /// let p = pb.finish(f, [y]);
    ///
    /// let dfg = lower_ordered(&p).unwrap();
    /// let cfg = OrderedConfig { args: vec![7], ..OrderedConfig::default() };
    /// let r = OrderedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
    /// assert_eq!(r.returns, vec![21]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if a non-source node has no wired input (it would fire every
    /// cycle forever).
    pub fn new(dfg: &'a Dfg, mem: MemoryImage, cfg: OrderedConfig) -> Self {
        OrderedEngine::with_probe(dfg, mem, cfg, NoProbe)
    }
}

impl<'a, P: Probe> OrderedEngine<'a, P> {
    /// Builds an engine that reports events to `probe` as it runs.
    ///
    /// # Panics
    ///
    /// Panics if a non-source node has no wired input (it would fire every
    /// cycle forever).
    pub fn with_probe(dfg: &'a Dfg, mem: MemoryImage, cfg: OrderedConfig, mut probe: P) -> Self {
        if P::ENABLED {
            for (i, b) in dfg.blocks.iter().enumerate() {
                probe.declare_block(i as u32, &b.name);
            }
            for (i, n) in dfg.nodes.iter().enumerate() {
                probe.declare_node(i as u32, &n.label, n.block.0);
            }
        }
        for n in &dfg.nodes {
            assert!(
                matches!(n.kind, NodeKind::Source)
                    || n.ins.iter().any(|i| matches!(i, InKind::Wire)),
                "node '{}' has no wired inputs",
                n.label
            );
        }
        let capacity = cfg.capacity();
        let mut live = 0;
        let n = dfg.len();
        let n_slots: usize = dfg.nodes.iter().map(|n| n.ins.len()).sum();
        let mut class = Vec::with_capacity(n);
        let (mut in_base, mut out_base) = (Vec::with_capacity(n + 1), Vec::with_capacity(n + 1));
        in_base.push(0u32);
        out_base.push(0u32);
        let mut fifos = Vec::with_capacity(n_slots);
        let (mut caps, mut imms) = (Vec::with_capacity(n_slots), Vec::with_capacity(n_slots));
        for (ni, n) in dfg.nodes.iter().enumerate() {
            class.push(match n.kind {
                NodeKind::Source => Class::Source,
                NodeKind::Sink => Class::Sink,
                NodeKind::CMerge { .. } => Class::CMerge,
                _ => Class::Plain,
            });
            let base = fifos.len();
            for (p, k) in n.ins.iter().enumerate() {
                fifos.push(VecDeque::new());
                caps.push(capacity.of(ni as u32, p as u16));
                imms.push(match k {
                    InKind::Wire => None,
                    InKind::Imm(v) => Some(*v),
                });
            }
            if let NodeKind::CMerge { initial_ctl } = &n.kind {
                for &t in initial_ctl {
                    fifos[base].push_back(t);
                    live += 1;
                }
            }
            in_base.push(fifos.len() as u32);
            out_base.push(out_base[ni] + n.outs.len() as u32);
        }
        let slot = |t: &PortRef| in_base[t.node.0 as usize] + u32::from(t.port);
        let mut out_off = Vec::with_capacity(out_base[dfg.len()] as usize + 1);
        out_off.push(0u32);
        let mut targets = Vec::new();
        // Producers per slot, bucketed by a counting sort.
        let mut prod_off = vec![0u32; fifos.len() + 1];
        for n in &dfg.nodes {
            for port in &n.outs {
                for t in port {
                    targets.push((t.node.0, slot(t)));
                    prod_off[slot(t) as usize + 1] += 1;
                }
                out_off.push(targets.len() as u32);
            }
        }
        for s in 0..fifos.len() {
            prod_off[s + 1] += prod_off[s];
        }
        let mut fill = prod_off.clone();
        let mut prods = vec![0u32; targets.len()];
        for (ni, n) in dfg.nodes.iter().enumerate() {
            for t in n.outs.iter().flatten() {
                let s = slot(t) as usize;
                prods[fill[s] as usize] = ni as u32;
                fill[s] += 1;
            }
        }
        let empty_in = (0..n)
            .map(|ni| {
                let slots = in_base[ni] as usize..in_base[ni + 1] as usize;
                slots.filter(|&s| imms[s].is_none() && fifos[s].is_empty()).count() as u32
            })
            .collect();
        let full_out = (0..n)
            .map(|ni| {
                let edges = out_off[out_base[ni] as usize] as usize
                    ..out_off[out_base[ni + 1] as usize] as usize;
                targets[edges]
                    .iter()
                    .filter(|&&(_, s)| fifos[s as usize].len() >= caps[s as usize])
                    .count() as u32
            })
            .collect();
        let faults = cfg.faults.as_ref().map(FaultState::new);
        let dog = cfg.watchdog.arm();
        let cache = cfg.mem.build();
        let mut engine = OrderedEngine {
            dfg,
            mem,
            cfg,
            class,
            in_base,
            fifos,
            caps,
            imms,
            prod_off,
            prods,
            out_base,
            out_off,
            targets,
            empty_in,
            full_out,
            ready_bits: vec![0; n.div_ceil(64)],
            firing: Vec::new(),
            source_fired: false,
            delayed: vec![VecDeque::new(); n],
            inflight: vec![0; n.div_ceil(64)],
            delayed_count: 0,
            live,
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
            dog,
            probe,
            stall_state: if P::ENABLED { vec![None; n] } else { Vec::new() },
        };
        for ni in 0..n {
            engine.refresh(ni);
        }
        engine
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

    /// The output edges of node `idx`, all ports in order, as indices into
    /// `targets`.
    fn out_edges(&self, idx: usize) -> std::ops::Range<usize> {
        self.out_off[self.out_base[idx] as usize] as usize
            ..self.out_off[self.out_base[idx + 1] as usize] as usize
    }

    /// The input slots of node `idx`.
    fn in_slots(&self, idx: usize) -> std::ops::Range<usize> {
        self.in_base[idx] as usize..self.in_base[idx + 1] as usize
    }

    fn slot_full(&self, s: usize) -> bool {
        self.fifos[s].len() >= self.caps[s]
    }

    /// Whether a CMerge's control token is present and the input it
    /// selects holds a token (or is an immediate).
    fn cmerge_side_ok(&self, idx: usize) -> bool {
        let base = self.in_base[idx] as usize;
        let Some(&ctl) = self.fifos[base].front() else { return false };
        let side = base + if ctl == 0 { 1 } else { 2 };
        self.imms[side].is_some() || !self.fifos[side].is_empty()
    }

    fn is_ready(&self, idx: usize) -> bool {
        let room = self.full_out[idx] == 0;
        match self.class[idx] {
            Class::Source => !self.source_fired && room,
            Class::Sink => self.returns.is_none() && self.empty_in[idx] == 0,
            Class::CMerge => self.cmerge_side_ok(idx) && room,
            Class::Plain => self.empty_in[idx] == 0 && room,
        }
    }

    /// Re-derives node `idx`'s ready bit after its state changed.
    fn refresh(&mut self, idx: usize) {
        let bit = 1u64 << (idx % 64);
        if self.is_ready(idx) {
            self.ready_bits[idx / 64] |= bit;
        } else {
            self.ready_bits[idx / 64] &= !bit;
        }
    }

    /// Slot `s` crossed its capacity: every producer feeding it gains
    /// (`full`) or loses a full output edge.
    fn fullness_changed(&mut self, s: usize, full: bool) {
        for i in self.prod_off[s] as usize..self.prod_off[s + 1] as usize {
            let p = self.prods[i] as usize;
            if full {
                self.full_out[p] += 1;
            } else {
                self.full_out[p] -= 1;
            }
            self.refresh(p);
        }
    }

    /// Appends `val` to slot `s` of node `node`, keeping the counters.
    fn push_token(&mut self, node: u32, s: usize, val: Value) {
        self.fifos[s].push_back(val);
        let len = self.fifos[s].len();
        if len == 1 && self.imms[s].is_none() {
            self.empty_in[node as usize] -= 1;
            self.refresh(node as usize);
        }
        if len == self.caps[s] {
            self.fullness_changed(s, true);
        }
    }

    /// Describes why each stuck node is stuck, for the deadlock outcome:
    /// either starved (some wired input FIFO empty) or back-pressured (a
    /// full downstream FIFO, named with its capacity). Only nodes actually
    /// holding tokens are listed — they are the wavefront of the wedge.
    fn stall_witness(&self) -> Vec<String> {
        const MAX_LINES: usize = 12;
        let mut out = Vec::new();
        for idx in 0..self.dfg.len() {
            let n = &self.dfg.nodes[idx];
            let held: usize = self.in_slots(idx).map(|s| self.fifos[s].len()).sum();
            if held == 0 || matches!(n.kind, NodeKind::Source) {
                continue;
            }
            let starved =
                self.in_slots(idx).find(|&s| self.imms[s].is_none() && self.fifos[s].is_empty());
            let reason = if let Some(s) = starved {
                format!("starved on i{}", s - self.in_base[idx] as usize)
            } else if let Some(&(tn, ts)) =
                self.targets[self.out_edges(idx)].iter().find(|&&(_, s)| self.slot_full(s as usize))
            {
                let (tn, ts) = (tn as usize, ts as usize);
                format!(
                    "back-pressured: {}.i{} full ({}/{})",
                    self.dfg.nodes[tn].label,
                    ts - self.in_base[tn] as usize,
                    self.fifos[ts].len(),
                    self.caps[ts],
                )
            } else {
                // e.g. a CMerge whose selected side is empty.
                "not fireable".to_string()
            };
            if out.len() == MAX_LINES {
                out.push("…".to_string());
                break;
            }
            out.push(format!("{} holds {held} token(s), {reason}", n.label));
        }
        out
    }

    /// Whether `idx` could fire if its output FIFOs had room — i.e. it is
    /// blocked *only* by back-pressure. At quiescence this is a wedge, not
    /// a normal end state: nothing will ever fire again, so the full
    /// downstream FIFO can never drain and the held tokens are lost. (A
    /// merely *starved* node at quiescence is normal — the loops' final
    /// control tokens always end up starved.)
    fn back_pressured(&self, idx: usize) -> bool {
        let blocked = self.full_out[idx] > 0;
        match self.class[idx] {
            Class::Source => !self.source_fired && blocked,
            Class::Sink => false,
            Class::CMerge => self.cmerge_side_ok(idx) && blocked,
            Class::Plain => self.empty_in[idx] == 0 && blocked,
        }
    }

    /// Re-derives every node's stall reason against post-fire state and
    /// emits `StallBegin`/`StallEnd` on transitions. A node holding tokens
    /// but not fireable is either back-pressured (a full downstream FIFO)
    /// or waiting on a partial input match (a starved FIFO); a node that
    /// can fire next cycle is not stalled. Ordered graphs are untagged, so
    /// stall intervals use tag 0.
    fn scan_stalls(&mut self) {
        for idx in 0..self.dfg.len() {
            if matches!(self.class[idx], Class::Source | Class::Sink) {
                continue;
            }
            let held: usize = self.in_slots(idx).map(|s| self.fifos[s].len()).sum();
            let now = if held == 0 || self.is_ready(idx) {
                None
            } else if self.back_pressured(idx) {
                Some(StallReason::BackPressure)
            } else {
                Some(StallReason::PartialMatch)
            };
            if now == self.stall_state[idx] {
                continue;
            }
            let node = idx as u32;
            match now {
                // A Begin on an already-open (node, tag) key switches the
                // reason in the sinks; no explicit End needed first.
                Some(reason) => {
                    self.probe.event(self.cycle, ProbeEvent::StallBegin { node, tag: 0, reason });
                }
                None => self.probe.event(self.cycle, ProbeEvent::StallEnd { node, tag: 0 }),
            }
            self.stall_state[idx] = now;
        }
    }

    fn pop(&mut self, idx: usize, port: usize) -> Value {
        let s = self.in_base[idx] as usize + port;
        if let Some(v) = self.imms[s] {
            return v;
        }
        self.live -= 1;
        if P::ENABLED {
            self.probe.event(self.cycle, ProbeEvent::TokenConsumed { node: idx as u32, count: 1 });
        }
        let v = self.fifos[s].pop_front().expect("readiness checked");
        let len = self.fifos[s].len();
        if len == 0 {
            self.empty_in[idx] += 1;
        }
        if len + 1 == self.caps[s] {
            self.fullness_changed(s, false);
        }
        v
    }

    fn push_outputs(&mut self, idx: usize, port: usize, val: Value) {
        let slot = self.out_base[idx] as usize + port;
        for i in self.out_off[slot] as usize..self.out_off[slot + 1] as usize {
            let (tn, ts) = self.targets[i];
            let mut val = val;
            if let Some(fs) = self.faults.as_mut() {
                let dfg = self.dfg;
                let tp = ts - self.in_base[tn as usize];
                if fs.strike(self.cycle, FaultKind::TokenDrop) {
                    fs.record(
                        self.cycle,
                        tn,
                        FaultKind::TokenDrop,
                        format!(
                            "dropped token (value {val}) bound for '{}' port {tp}",
                            dfg.nodes[tn as usize].label
                        ),
                    );
                    if P::ENABLED {
                        self.probe.event(
                            self.cycle,
                            ProbeEvent::FaultInjected { node: tn, kind: FaultKind::TokenDrop },
                        );
                    }
                    continue;
                }
                if fs.strike(self.cycle, FaultKind::TokenDup) {
                    fs.record(
                        self.cycle,
                        tn,
                        FaultKind::TokenDup,
                        format!(
                            "duplicated token (value {val}) bound for '{}' port {tp}",
                            dfg.nodes[tn as usize].label
                        ),
                    );
                    if P::ENABLED {
                        self.probe.event(
                            self.cycle,
                            ProbeEvent::FaultInjected { node: tn, kind: FaultKind::TokenDup },
                        );
                        self.probe.event(self.cycle, ProbeEvent::TokenProduced { node: tn });
                    }
                    // The extra token skews the edge's FIFO alignment for
                    // the rest of the run: a wrong answer or a wedge.
                    self.push_token(tn, ts as usize, val);
                    self.live += 1;
                }
                let fs = self.faults.as_mut().expect("checked above");
                if fs.strike(self.cycle, FaultKind::TokenCorrupt) {
                    let mask = fs.mask();
                    let before = val;
                    val ^= mask;
                    fs.record(
                        self.cycle,
                        tn,
                        FaultKind::TokenCorrupt,
                        format!(
                            "corrupted token for '{}' port {tp}: {before} -> {val}",
                            dfg.nodes[tn as usize].label
                        ),
                    );
                    if P::ENABLED {
                        self.probe.event(
                            self.cycle,
                            ProbeEvent::FaultInjected { node: tn, kind: FaultKind::TokenCorrupt },
                        );
                    }
                }
            }
            if P::ENABLED {
                self.probe.event(self.cycle, ProbeEvent::TokenProduced { node: tn });
            }
            self.push_token(tn, ts as usize, val);
            self.live += 1;
        }
    }

    fn fire(&mut self, idx: usize) -> Result<(), SimError> {
        // Match the node kind by reference (`kind.clone()` here used to
        // heap-allocate for every CMerge fire, whose kind owns a Vec).
        let dfg = self.dfg;
        let n_ins = self.in_slots(idx).len();
        match &dfg.nodes[idx].kind {
            NodeKind::Alu(op) => {
                let a = self.pop(idx, 0);
                let b = if n_ins > 1 { self.pop(idx, 1) } else { 0 };
                let v = op.eval(a, b)?;
                self.push_outputs(idx, 0, v);
            }
            NodeKind::Select => {
                let c = self.pop(idx, 0);
                let t = self.pop(idx, 1);
                let f = self.pop(idx, 2);
                self.push_outputs(idx, 0, if c != 0 { t } else { f });
            }
            NodeKind::Load => {
                let addr = self.pop(idx, 0);
                if n_ins > 1 {
                    self.pop(idx, 1); // trigger
                }
                let mut v = self.mem.load(addr)?;
                self.mem_loads += 1;
                if P::ENABLED {
                    self.probe.event(
                        self.cycle,
                        ProbeEvent::MemAccess { node: idx as u32, addr, write: false },
                    );
                }
                let mut extra = 0u64;
                if let Some(fs) = self.faults.as_mut() {
                    if fs.strike(self.cycle, FaultKind::MemFlip) {
                        let mask = fs.mask();
                        let before = v;
                        v ^= mask;
                        fs.record(
                            self.cycle,
                            idx as u32,
                            FaultKind::MemFlip,
                            format!(
                                "flipped load response at '{}': {before} -> {v}",
                                dfg.nodes[idx].label
                            ),
                        );
                        if P::ENABLED {
                            self.probe.event(
                                self.cycle,
                                ProbeEvent::FaultInjected {
                                    node: idx as u32,
                                    kind: FaultKind::MemFlip,
                                },
                            );
                        }
                    }
                    if fs.strike(self.cycle, FaultKind::MemDelay) {
                        extra = fs.extra_delay();
                        fs.record(
                            self.cycle,
                            idx as u32,
                            FaultKind::MemDelay,
                            format!(
                                "delayed memory response at '{}' by {extra} extra cycle(s)",
                                dfg.nodes[idx].label
                            ),
                        );
                        if P::ENABLED {
                            self.probe.event(
                                self.cycle,
                                ProbeEvent::FaultInjected {
                                    node: idx as u32,
                                    kind: FaultKind::MemDelay,
                                },
                            );
                        }
                    }
                }
                let lat = self.mem_access(idx as u32, addr, false);
                if lat <= 1 && extra == 0 {
                    self.push_outputs(idx, 0, v);
                } else {
                    self.live += 1; // in flight in the memory system
                    let release = self.cycle + lat.max(1) + extra;
                    self.delayed[idx].push_back((release, v));
                    self.inflight[idx / 64] |= 1 << (idx % 64);
                    self.delayed_count += 1;
                }
            }
            NodeKind::Store | NodeKind::StoreAdd => {
                let addr = self.pop(idx, 0);
                let v = self.pop(idx, 1);
                if n_ins > 2 {
                    self.pop(idx, 2); // trigger
                }
                if matches!(dfg.nodes[idx].kind, NodeKind::Store) {
                    self.mem.store(addr, v)?;
                } else {
                    self.mem.fetch_add(addr, v)?;
                }
                self.mem_stores += 1;
                if P::ENABLED {
                    self.probe.event(
                        self.cycle,
                        ProbeEvent::MemAccess { node: idx as u32, addr, write: true },
                    );
                }
                // Stores commit instantly (no completion token) but still
                // occupy the cache and an MSHR.
                let _ = self.mem_access(idx as u32, addr, true);
            }
            NodeKind::Steer => {
                let d = self.pop(idx, 0);
                let v = self.pop(idx, 1);
                self.push_outputs(idx, if d != 0 { 0 } else { 1 }, v);
            }
            NodeKind::CMerge { .. } => {
                let ctl = self.pop(idx, 0);
                let side = if ctl == 0 { 1 } else { 2 };
                let v = self.pop(idx, side);
                self.push_outputs(idx, 0, v);
            }
            NodeKind::Const(c) => {
                let c = *c;
                self.pop(idx, 0);
                self.push_outputs(idx, 0, c);
            }
            NodeKind::Source => {
                let n_outs = (self.out_base[idx + 1] - self.out_base[idx]) as usize;
                for k in 0..n_outs - 1 {
                    let v = self.cfg.args.get(k).copied().unwrap_or(0);
                    self.push_outputs(idx, k, v);
                }
                self.push_outputs(idx, n_outs - 1, 0);
                self.source_fired = true;
            }
            NodeKind::Sink => {
                let vals: Vec<Value> = (0..n_ins).map(|p| self.pop(idx, p)).collect();
                self.returns = Some(vals[..self.dfg.n_returns].to_vec());
            }
            other => unreachable!("{} in an ordered graph", other.mnemonic()),
        }
        self.refresh(idx);
        Ok(())
    }

    /// The earliest release among the loads with results in flight.
    fn next_release(&self) -> Option<u64> {
        let mut next = None;
        for (w, &bits) in self.inflight.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let idx = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let r = self.delayed[idx].front().expect("in-flight bit set").0;
                next = Some(next.map_or(r, |m: u64| m.min(r)));
            }
        }
        next
    }

    /// Releases matured memory results — per load node, in node order and
    /// issue order, and only into FIFOs with space: the memory system
    /// honors back-pressure, otherwise a late delivery could consume the
    /// flow-control bubble a loop cycle needs and wedge the machine.
    /// Returns how many results were released.
    fn release_matured(&mut self) -> usize {
        let mut released = 0;
        for w in 0..self.inflight.len() {
            let mut bits = self.inflight[w];
            while bits != 0 {
                let idx = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                while let Some(&(r, _)) = self.delayed[idx].front() {
                    if r > self.cycle + 1 {
                        break;
                    }
                    let slot = self.out_base[idx] as usize;
                    let edges = self.out_off[slot] as usize..self.out_off[slot + 1] as usize;
                    if self.targets[edges].iter().any(|&(_, s)| self.slot_full(s as usize)) {
                        break;
                    }
                    let (_, v) = self.delayed[idx].pop_front().expect("checked");
                    self.delayed_count -= 1;
                    released += 1;
                    self.live -= 1; // re-counted by push_outputs
                    self.push_outputs(idx, 0, v);
                }
                if self.delayed[idx].is_empty() {
                    self.inflight[w] &= !(1 << (idx % 64));
                }
            }
        }
        released
    }

    /// Runs the program.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on simulated-program faults or the cycle
    /// limit. A stall with no fireable instruction before completion is
    /// reported as [`Outcome::Deadlock`].
    pub fn run(mut self) -> Result<RunResult, SimError> {
        loop {
            if let Some(cause) = self.dog.check(self.cycle) {
                let log = self.faults.take().map(FaultState::into_log).unwrap_or_default();
                return Ok(RunResult::new(
                    Outcome::TimedOut { cycle: self.cycle, live_tokens: self.live, cause },
                    self.trace,
                    self.ipc,
                    self.mem,
                    Vec::new(),
                )
                .with_mem_counts(self.mem_loads, self.mem_stores)
                .with_mem_stats(self.cache.as_ref().map(CacheSim::stats))
                .with_faults(log)
                .with_skipped(self.skipped));
            }
            // Snapshot readiness against start-of-cycle state: the set bits
            // in node order, up to the issue width.
            let mut firing = std::mem::take(&mut self.firing);
            firing.clear();
            'scan: for w in 0..self.ready_bits.len() {
                let mut bits = self.ready_bits[w];
                while bits != 0 {
                    if firing.len() >= self.cfg.issue_width {
                        break 'scan;
                    }
                    let idx = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if let Some(fs) = self.faults.as_mut() {
                        let fresh = fs.stuck_node().is_none();
                        if fs.is_stuck(self.cycle, idx as u32) {
                            if fresh {
                                fs.record(
                                    self.cycle,
                                    idx as u32,
                                    FaultKind::NodeStick,
                                    format!(
                                        "node '{}' wedged; it never fires again",
                                        self.dfg.nodes[idx].label
                                    ),
                                );
                                if P::ENABLED {
                                    self.probe.event(
                                        self.cycle,
                                        ProbeEvent::FaultInjected {
                                            node: idx as u32,
                                            kind: FaultKind::NodeStick,
                                        },
                                    );
                                }
                            }
                            continue;
                        }
                    }
                    firing.push(idx);
                }
            }
            let fired = firing.len() as u64;
            for &idx in &firing {
                self.fire(idx)?;
                if P::ENABLED {
                    self.probe.event(self.cycle, ProbeEvent::NodeFired { node: idx as u32 });
                }
            }
            self.firing = firing;
            let released = if self.delayed_count > 0 { self.release_matured() } else { 0 };
            if P::ENABLED {
                self.scan_stalls();
            }
            self.cycle += 1;
            self.fired_total += fired;
            self.trace.record(self.live);
            self.ipc.record(fired);

            // Quiescent only if nothing fired AND the memory system neither
            // holds nor delivered anything this cycle (a release re-enables
            // consumers).
            if fired == 0 && released == 0 && self.delayed_count == 0 {
                // Set TYR_ORDERED_DEBUG=1 to dump the tokens left in the
                // machine at quiescence (normal runs leave only the loops'
                // final control tokens).
                if std::env::var_os("TYR_ORDERED_DEBUG").is_some() {
                    for i in 0..self.dfg.len() {
                        for s in self.in_slots(i) {
                            let q = &self.fifos[s];
                            if !q.is_empty() {
                                eprintln!(
                                    "[ordered] leftover: {} .i{} holds {:?}",
                                    self.dfg.nodes[i].label,
                                    s - self.in_base[i] as usize,
                                    q
                                );
                            }
                        }
                    }
                }
                // Quiescent. The sink's return tokens may arrive long before
                // the last stores drain, so completion is only declared once
                // nothing can fire anymore — and only if no node is wedged
                // behind a full FIFO. A return value independent of a loop
                // (e.g. a kernel whose real output is memory) must not mask
                // a back-pressure deadlock that wedged the loop's stores.
                let wedged = (0..self.dfg.len()).any(|i| self.back_pressured(i));
                let log = self.faults.take().map(FaultState::into_log).unwrap_or_default();
                return if let Some(returns) = self.returns.take().filter(|_| !wedged) {
                    Ok(RunResult::new(
                        Outcome::Completed { cycles: self.cycle, dyn_instrs: self.fired_total },
                        self.trace,
                        self.ipc,
                        self.mem,
                        returns,
                    )
                    .with_mem_counts(self.mem_loads, self.mem_stores)
                    .with_mem_stats(self.cache.as_ref().map(CacheSim::stats))
                    .with_faults(log)
                    .with_skipped(self.skipped))
                } else {
                    let witness = self.stall_witness();
                    Ok(RunResult::new(
                        Outcome::Deadlock {
                            cycle: self.cycle,
                            live_tokens: self.live,
                            pending_allocates: witness,
                        },
                        self.trace,
                        self.ipc,
                        self.mem,
                        Vec::new(),
                    )
                    .with_mem_counts(self.mem_loads, self.mem_stores)
                    .with_mem_stats(self.cache.as_ref().map(CacheSim::stats))
                    .with_faults(log)
                    .with_skipped(self.skipped))
                };
            }
            if self.cycle >= self.cfg.max_cycles {
                return Err(SimError::CycleLimit { limit: self.cfg.max_cycles });
            }
            // Event-driven fast path: a cycle that fired nothing and
            // released nothing leaves the FIFOs, readiness, and stall edges
            // exactly as they were — the machine is frozen until the
            // earliest in-flight memory release matures, so the clock can
            // advance straight to the cycle before that release. A
            // matured-but-back-pressured head keeps the minimum release at
            // or below the current cycle, so blocked deliveries (which
            // ticked runs retry every cycle) are never jumped over. The
            // target is clamped so the cycle limit and the watchdog's cycle
            // budget trip at exactly their ticked cycles.
            if self.cfg.event_driven && fired == 0 && released == 0 && self.delayed_count > 0 {
                let next = self.next_release().expect("delayed_count > 0");
                // Never leap past an outstanding MSHR fill (it frees an MSHR
                // entry, releasing back-pressure on future misses).
                let fill =
                    self.cache.as_mut().and_then(|c| c.next_fill(self.cycle)).unwrap_or(u64::MAX);
                let target = (next - 1)
                    .min(fill)
                    .min(self.cfg.max_cycles)
                    .min(self.dog.budget().unwrap_or(u64::MAX));
                if target > self.cycle {
                    let n = target - self.cycle;
                    self.trace.record_n(self.live, n);
                    self.ipc.record_n(0, n);
                    self.skipped += n;
                    self.cycle = target;
                    if self.cycle >= self.cfg.max_cycles {
                        return Err(SimError::CycleLimit { limit: self.cfg.max_cycles });
                    }
                    // A jump can leap over every slow-check boundary in the
                    // gap; poll the host limits once per resume. The cycle
                    // budget stays with the loop-top check so its attributed
                    // cycle is deterministic.
                    if let Some(cause) = self.dog.poll_host() {
                        let log = self.faults.take().map(FaultState::into_log).unwrap_or_default();
                        return Ok(RunResult::new(
                            Outcome::TimedOut { cycle: self.cycle, live_tokens: self.live, cause },
                            self.trace,
                            self.ipc,
                            self.mem,
                            Vec::new(),
                        )
                        .with_mem_counts(self.mem_loads, self.mem_stores)
                        .with_mem_stats(self.cache.as_ref().map(CacheSim::stats))
                        .with_faults(log)
                        .with_skipped(self.skipped));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyr_dfg::lower::lower_ordered;
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

    fn run(p: &Program, arg: i64) -> RunResult {
        let dfg = lower_ordered(p).unwrap();
        let cfg = OrderedConfig { args: vec![arg], ..OrderedConfig::default() };
        OrderedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap()
    }

    #[test]
    fn computes_sum() {
        let r = run(&sum_program(), 100);
        assert!(r.is_complete(), "{:?}", r.outcome);
        assert_eq!(r.returns, vec![4950]);
    }

    #[test]
    fn zero_trip_loop() {
        let r = run(&sum_program(), 0);
        assert!(r.is_complete(), "{:?}", r.outcome);
        assert_eq!(r.returns, vec![0]);
    }

    #[test]
    fn nested_loops_match_oracle() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("outer", [0, 0]);
        let c = f.lt(i, 9);
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
        let dfg = lower_ordered(&p).unwrap();
        for q in [2, 4, 16] {
            let cfg = OrderedConfig { queue_depth: q, ..OrderedConfig::default() };
            let r = OrderedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
            assert!(r.is_complete(), "q={q}: {:?}", r.outcome);
            assert_eq!(r.returns, oracle.returns, "q={q}");
        }
    }

    #[test]
    fn queue_depth_bounds_state() {
        let p = sum_program();
        let dfg = lower_ordered(&p).unwrap();
        let shallow = OrderedEngine::new(
            &dfg,
            MemoryImage::new(),
            OrderedConfig { queue_depth: 2, args: vec![200], ..OrderedConfig::default() },
        )
        .run()
        .unwrap();
        let deep = OrderedEngine::new(
            &dfg,
            MemoryImage::new(),
            OrderedConfig { queue_depth: 64, args: vec![200], ..OrderedConfig::default() },
        )
        .run()
        .unwrap();
        assert_eq!(shallow.returns, deep.returns);
        assert!(shallow.peak_live() <= deep.peak_live());
    }

    #[test]
    fn one_fire_per_node_per_cycle_limits_ipc() {
        // Ordered IPC can never exceed the static node count.
        let p = sum_program();
        let dfg = lower_ordered(&p).unwrap();
        let r = run(&p, 50);
        assert!(r.ipc.max_value() <= dfg.len() as u64);
    }
}

#[cfg(test)]
mod stall_tests {
    use super::*;
    use tyr_dfg::{GraphBuilder, InKind, NodeKind, PortRef};

    #[test]
    fn starved_graph_reports_deadlock() {
        // A CMerge with an empty control FIFO can never fire: the engine
        // must report a stall (Outcome::Deadlock), not hang.
        let mut g = GraphBuilder::new();
        let b = g.add_block("main", None, false);
        let src = g.add_node(NodeKind::Source, b, vec![], 2, "src");
        let cm = g.add_node(
            NodeKind::CMerge { initial_ctl: vec![] },
            b,
            vec![InKind::Wire, InKind::Wire, InKind::Wire],
            1,
            "cm",
        );
        let sink = g.add_node(NodeKind::Sink, b, vec![InKind::Wire], 0, "sink");
        g.connect(src, 0, PortRef { node: cm, port: 1 });
        g.connect(src, 1, PortRef { node: cm, port: 2 });
        g.connect(cm, 0, PortRef { node: sink, port: 0 });
        let dfg = g.finish(src, sink, 1);
        let r =
            OrderedEngine::new(&dfg, MemoryImage::new(), OrderedConfig::default()).run().unwrap();
        match r.outcome {
            Outcome::Deadlock { live_tokens, .. } => assert_eq!(live_tokens, 2),
            other => panic!("expected stall, got {other:?}"),
        }
    }

    #[test]
    fn capacity_override_resolves_per_edge() {
        let caps = ChannelCapacity::uniform(4).with_override(7, 0, 0).with_override(7, 1, 9);
        assert_eq!(caps.of(3, 0), 4);
        assert_eq!(caps.of(7, 0), 0);
        assert_eq!(caps.of(7, 1), 9);
        let cfg = OrderedConfig {
            queue_depth: 4,
            depth_overrides: vec![((7, 0), 0)],
            ..OrderedConfig::default()
        };
        assert_eq!(cfg.capacity().of(7, 0), 0);
        assert_eq!(cfg.capacity().of(7, 1), 4);
    }

    #[test]
    fn zero_capacity_on_a_loop_control_edge_deadlocks_with_a_witness() {
        // Wedge the loop: the comparison can never forward its decision into
        // the carry CMerge's control FIFO, so after the primed first
        // iteration nothing can fire. The outcome must be a deadlock whose
        // witness names the back-pressured edge.
        use tyr_dfg::lower::lower_ordered;
        use tyr_ir::build::ProgramBuilder;
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i] = f.begin_loop("l", [0]);
        let c = f.lt(i, 10);
        f.begin_body(c);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2], [i]);
        let p = pb.finish(f, [out]);
        let dfg = lower_ordered(&p).unwrap();
        let cm = dfg
            .nodes
            .iter()
            .position(
                |n| matches!(&n.kind, NodeKind::CMerge { initial_ctl } if !initial_ctl.is_empty()),
            )
            .expect("a primed loop-carry CMerge") as u32;

        let cfg = OrderedConfig { depth_overrides: vec![((cm, 0), 0)], ..OrderedConfig::default() };
        let r = OrderedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        match r.outcome {
            Outcome::Deadlock { ref pending_allocates, .. } => {
                assert!(
                    pending_allocates.iter().any(|s| s.contains("back-pressured")),
                    "witness must name the full edge: {pending_allocates:?}"
                );
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
        // The same graph with the override removed completes.
        let r =
            OrderedEngine::new(&dfg, MemoryImage::new(), OrderedConfig::default()).run().unwrap();
        assert!(r.is_complete());
    }

    #[test]
    fn cycle_limit_is_enforced() {
        // An endless producer/consumer ring would run forever; the limit
        // must stop it. Build `while(i < huge)` via the real lowering.
        use tyr_dfg::lower::lower_ordered;
        use tyr_ir::build::ProgramBuilder;
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i] = f.begin_loop("long", [0]);
        let c = f.lt(i, 1_000_000_000);
        f.begin_body(c);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2], [i]);
        let p = pb.finish(f, [out]);
        let dfg = lower_ordered(&p).unwrap();
        let cfg = OrderedConfig { max_cycles: 1000, ..OrderedConfig::default() };
        let err = OrderedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap_err();
        assert!(matches!(err, SimError::CycleLimit { limit: 1000 }));
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;
    use tyr_dfg::lower::lower_ordered;
    use tyr_ir::build::ProgramBuilder;
    use tyr_ir::interp;

    #[test]
    fn latency_changes_timing_not_results() {
        // A load-bearing loop (literally): results must be identical across
        // memory latencies, including latencies far above the FIFO depth.
        let mut mem = MemoryImage::new();
        let xs = mem.alloc_init("xs", &(0..40).map(|i| i * 2 + 1).collect::<Vec<_>>());
        let out = mem.alloc("out", 40);
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i] = f.begin_loop("l", [0]);
        let c = f.lt(i, 40);
        f.begin_body(c);
        let addr = f.add(i, xs.base_const());
        let v = f.load(addr);
        let scaled = f.mul(v, 3);
        let oaddr = f.add(i, out.base_const());
        f.store(oaddr, scaled);
        let i2 = f.add(i, 1);
        f.end_loop([i2], tyr_ir::NO_OPERANDS);
        let p = pb.finish(f, [tyr_ir::Operand::Const(0)]);

        let mut oracle_mem = mem.clone();
        interp::run(&p, &mut oracle_mem, &[]).unwrap();
        let dfg = lower_ordered(&p).unwrap();
        let mut prev_cycles = 0;
        for lat in [1u64, 2, 7, 32] {
            let cfg = OrderedConfig { mem: MemConfig::ideal(lat), ..OrderedConfig::default() };
            let r = OrderedEngine::new(&dfg, mem.clone(), cfg).run().unwrap();
            assert!(r.is_complete(), "lat={lat}: {:?}", r.outcome);
            assert_eq!(r.memory().slice(out), oracle_mem.slice(out), "lat={lat}");
            assert!(r.cycles() >= prev_cycles, "latency should not speed things up");
            prev_cycles = r.cycles();
        }
    }
}

#[cfg(test)]
mod event_core_tests {
    //! The event-driven fast path must be bit-identical to the ticked loop:
    //! same outcome, traces, histograms, memory, and watchdog trip cycles,
    //! differing only in `skipped_cycles` and wall-clock time.

    use super::*;
    use tyr_dfg::lower::lower_ordered;
    use tyr_ir::build::ProgramBuilder;
    use tyr_ir::Program;

    /// Load-to-store loop: shallow FIFOs plus long memory latency freeze
    /// the machine for most of every iteration.
    fn load_store_loop() -> (Program, MemoryImage) {
        let mut mem = MemoryImage::new();
        let xs = mem.alloc_init("xs", &(0..24).map(|i| i * 2 + 1).collect::<Vec<_>>());
        let out = mem.alloc("out", 24);
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i] = f.begin_loop("l", [0]);
        let c = f.lt(i, 24);
        f.begin_body(c);
        let addr = f.add(i, xs.base_const());
        let v = f.load(addr);
        let scaled = f.mul(v, 3);
        let oaddr = f.add(i, out.base_const());
        f.store(oaddr, scaled);
        let i2 = f.add(i, 1);
        f.end_loop([i2], tyr_ir::NO_OPERANDS);
        (pb.finish(f, [tyr_ir::Operand::Const(0)]), mem)
    }

    fn run_mode(
        p: &Program,
        mem: &MemoryImage,
        lat: u64,
        event_driven: bool,
        watchdog: Watchdog,
    ) -> RunResult {
        let dfg = lower_ordered(p).unwrap();
        let cfg = OrderedConfig {
            queue_depth: 2,
            mem: MemConfig::ideal(lat),
            event_driven,
            watchdog,
            ..OrderedConfig::default()
        };
        OrderedEngine::new(&dfg, mem.clone(), cfg).run().unwrap()
    }

    fn assert_identical(event: &RunResult, ticked: &RunResult, what: &str) {
        assert_eq!(event.outcome, ticked.outcome, "{what}: outcome");
        assert_eq!(event.live, ticked.live, "{what}: live trace");
        assert_eq!(event.ipc, ticked.ipc, "{what}: ipc histogram");
        assert_eq!(event.returns, ticked.returns, "{what}: returns");
        assert_eq!(event.mem_loads, ticked.mem_loads, "{what}: loads");
        assert_eq!(event.mem_stores, ticked.mem_stores, "{what}: stores");
        assert_eq!(event.memory(), ticked.memory(), "{what}: memory");
        assert_eq!(ticked.skipped_cycles, 0, "{what}: ticked runs never skip");
    }

    #[test]
    fn event_and_ticked_runs_are_bit_identical() {
        let (p, mem) = load_store_loop();
        for lat in [2u64, 7, 200] {
            let event = run_mode(&p, &mem, lat, true, Watchdog::none());
            let ticked = run_mode(&p, &mem, lat, false, Watchdog::none());
            let what = format!("lat={lat}");
            assert!(event.is_complete(), "{what}: {:?}", event.outcome);
            assert_identical(&event, &ticked, &what);
            if lat == 200 {
                assert!(
                    event.skipped_cycles > event.cycles() / 2,
                    "{what}: skipped {} of {}",
                    event.skipped_cycles,
                    event.cycles()
                );
            }
        }
    }

    #[test]
    fn cycle_budget_trips_at_the_same_cycle_even_when_jumped_past() {
        let (p, mem) = load_store_loop();
        for budget in [41u64, 137, 513] {
            let dog = Watchdog::none().with_cycle_budget(budget);
            let event = run_mode(&p, &mem, 200, true, dog.clone());
            let ticked = run_mode(&p, &mem, 200, false, dog);
            match event.outcome {
                Outcome::TimedOut { cycle, .. } => {
                    assert_eq!(cycle, budget, "attributed to the exact budget cycle");
                }
                ref other => panic!("budget={budget}: expected a timeout, got {other:?}"),
            }
            assert_identical(&event, &ticked, &format!("budget={budget}"));
            assert_eq!(event.live.cycles(), budget, "one trace record per pre-trip cycle");
        }
    }
}
