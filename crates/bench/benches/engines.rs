//! Engine-throughput benches: how fast each simulator core executes a fixed
//! workload (host-seconds per simulated program). These guard the
//! interpreter loops — the tagged engine's token store and ready queue, the
//! ordered engine's FIFO scan, and the two sequential engines.
//!
//! The `hot/` rows pair the engine optimisations of DESIGN.md §7.9 with a
//! micro-benchmark each: TYR and unordered dataflow on dconv (decoded node
//! tables, row store, batched wake-ups), ordered dataflow on dmv
//! (incremental readiness), and a 1,024-tag bounded-global pool on dmv
//! under a 4 KiB L1 (the batched global pending queue).

use std::hint::black_box;

use tyr_bench::micro::Harness;
use tyr_dfg::lower::{lower_ordered, lower_tagged, TaggingDiscipline};
use tyr_ir::MemoryImage;
use tyr_sim::ordered::{OrderedConfig, OrderedEngine};
use tyr_sim::seqdf::{SeqDataflowConfig, SeqDataflowEngine};
use tyr_sim::seqvn::{SeqVnConfig, SeqVnEngine};
use tyr_sim::tagged::{TagPolicy, TaggedConfig, TaggedEngine};
use tyr_sim::{CacheConfig, MemConfig};
use tyr_stats::probe::CountingProbe;
use tyr_workloads::{by_name, dconv, dmv, Scale};

fn main() {
    let mut h = Harness::from_args("engines");

    for app in ["dmv", "spmspm", "tc"] {
        let w = by_name(app, Scale::Tiny, 7).unwrap();
        let tyr = lower_tagged(&w.program, TaggingDiscipline::Tyr).unwrap();
        let unord = lower_tagged(&w.program, TaggingDiscipline::UnorderedUnbounded).unwrap();
        let ord = lower_ordered(&w.program).unwrap();

        h.bench(&format!("engine_throughput/tagged_tyr/{app}"), || {
            let cfg = TaggedConfig { tag_policy: TagPolicy::local(64), ..TaggedConfig::default() };
            black_box(TaggedEngine::new(&tyr, w.memory.clone(), cfg).run().unwrap())
        });
        h.bench(&format!("engine_throughput/tagged_unordered/{app}"), || {
            let cfg =
                TaggedConfig { tag_policy: TagPolicy::GlobalUnbounded, ..TaggedConfig::default() };
            black_box(TaggedEngine::new(&unord, w.memory.clone(), cfg).run().unwrap())
        });
        h.bench(&format!("engine_throughput/ordered/{app}"), || {
            let cfg = OrderedConfig::default();
            black_box(OrderedEngine::new(&ord, w.memory.clone(), cfg).run().unwrap())
        });
        h.bench(&format!("engine_throughput/seqvn/{app}"), || {
            let cfg = SeqVnConfig::default();
            black_box(SeqVnEngine::new(&w.program, w.memory.clone(), cfg).run().unwrap())
        });
        h.bench(&format!("engine_throughput/seqdf/{app}"), || {
            let cfg = SeqDataflowConfig::default();
            black_box(SeqDataflowEngine::new(&w.program, w.memory.clone(), cfg).run().unwrap())
        });
    }

    {
        let conv = dconv::build(24, 24, 5, 5, 7);
        let tyr = lower_tagged(&conv.program, TaggingDiscipline::Tyr).unwrap();
        let unord = lower_tagged(&conv.program, TaggingDiscipline::UnorderedUnbounded).unwrap();
        h.bench("hot/tyr/dconv", || {
            let cfg = TaggedConfig {
                tag_policy: TagPolicy::local(64),
                args: conv.args.clone(),
                ..TaggedConfig::default()
            };
            black_box(TaggedEngine::new(&tyr, conv.memory.clone(), cfg).run().unwrap())
        });
        h.bench("hot/unordered/dconv", || {
            let cfg = TaggedConfig {
                tag_policy: TagPolicy::GlobalUnbounded,
                args: conv.args.clone(),
                ..TaggedConfig::default()
            };
            black_box(TaggedEngine::new(&unord, conv.memory.clone(), cfg).run().unwrap())
        });

        let mv = dmv::build(128, 128, 7);
        let ord = lower_ordered(&mv.program).unwrap();
        h.bench("hot/ordered/dmv", || {
            let cfg = OrderedConfig {
                args: mv.args.clone(),
                mem: MemConfig::ideal(1),
                ..OrderedConfig::default()
            };
            black_box(OrderedEngine::new(&ord, mv.memory.clone(), cfg).run().unwrap())
        });
        // Construction cost (decoding the graph, sizing the stores): the
        // generated-program sweeps build several engines per program.
        h.bench("new/tyr/dconv", || {
            let cfg = TaggedConfig { tag_policy: TagPolicy::local(64), ..TaggedConfig::default() };
            black_box(TaggedEngine::new(&tyr, MemoryImage::new(), cfg));
        });
        h.bench("new/unordered/dconv", || {
            let cfg =
                TaggedConfig { tag_policy: TagPolicy::GlobalUnbounded, ..TaggedConfig::default() };
            black_box(TaggedEngine::new(&unord, MemoryImage::new(), cfg));
        });
        h.bench("new/ordered/dmv", || {
            black_box(OrderedEngine::new(&ord, MemoryImage::new(), OrderedConfig::default()));
        });
        let tyr = lower_tagged(&mv.program, TaggingDiscipline::Tyr).unwrap();
        let l1_4k = MemConfig::Cached(CacheConfig { l1_bytes: 4096, ..CacheConfig::default() });
        h.bench("hot/global1024-cached4k/dmv", || {
            let cfg = TaggedConfig {
                tag_policy: TagPolicy::GlobalBounded { tags: 1024 },
                args: mv.args.clone(),
                mem: l1_4k.clone(),
                ..TaggedConfig::default()
            };
            let r = TaggedEngine::new(&tyr, mv.memory.clone(), cfg).run().unwrap();
            assert!(r.is_complete(), "the 1,024-tag pool completes dmv");
            black_box(r)
        });
    }

    // Probe overhead: the NoProbe default must compile all emission out of
    // the hot loops, so the no-op row should match the plain engine rows
    // above and beat the counting sink (which pays one call per event).
    {
        let w = by_name("dmv", Scale::Tiny, 7).unwrap();
        let tyr = lower_tagged(&w.program, TaggingDiscipline::Tyr).unwrap();
        h.bench("probe_overhead/noop/dmv", || {
            let cfg = TaggedConfig { tag_policy: TagPolicy::local(64), ..TaggedConfig::default() };
            black_box(TaggedEngine::new(&tyr, w.memory.clone(), cfg).run().unwrap())
        });
        h.bench("probe_overhead/counting/dmv", || {
            let cfg = TaggedConfig { tag_policy: TagPolicy::local(64), ..TaggedConfig::default() };
            let mut probe = CountingProbe::default();
            let r =
                TaggedEngine::with_probe(&tyr, w.memory.clone(), cfg, &mut probe).run().unwrap();
            black_box(probe.events);
            black_box(r)
        });
    }

    for app in ["dmv", "spmspm", "tc"] {
        let w = by_name(app, Scale::Tiny, 7).unwrap();
        h.bench(&format!("lowering/tyr/{app}"), || {
            black_box(lower_tagged(&w.program, TaggingDiscipline::Tyr).unwrap())
        });
        h.bench(&format!("lowering/ordered/{app}"), || {
            black_box(lower_ordered(&w.program).unwrap())
        });
    }

    h.finish();
}
