//! Barriers wider than the tagged engine's 61 wired ports per node: a loop
//! carrying 56 or 100 values lowers to `join`s over that many wired inputs,
//! which the lowering splits into join trees. Every tagged policy must run
//! the result and agree with the reference interpreter.

use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
use tyr_dfg::{Dfg, InKind, NodeKind};
use tyr_ir::build::ProgramBuilder;
use tyr_ir::{interp, MemoryImage, Operand, Program};
use tyr_sim::tagged::{TagPolicy, TaggedConfig, TaggedEngine};

/// `main(n)`: a loop carrying `width` values `v_j = n + j`, each bumped by
/// `j` per iteration for `n` iterations; returns their sum.
fn wide_loop(width: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.func("main", 1);
    let n = f.param(0);
    let mut inits: Vec<Operand> = vec![0.into(), n];
    for j in 0..width {
        inits.push(f.add(n, j as i64));
    }
    let vars = f.begin_loop_vec("wide", inits);
    let (i, nn) = (vars[0], vars[1]);
    let c = f.lt(i, nn);
    f.begin_body(c);
    let mut next = vec![f.add(i, 1), nn];
    for (j, &v) in vars[2..].iter().enumerate() {
        next.push(f.add(v, j as i64));
    }
    let exits = f.end_loop_vec(next, vars[2..].to_vec());
    let mut sum = exits[0];
    for &v in &exits[1..] {
        sum = f.add(sum, v);
    }
    pb.finish(f, [sum])
}

fn widest_join(dfg: &Dfg) -> usize {
    dfg.nodes
        .iter()
        .filter(|n| matches!(n.kind, NodeKind::Join))
        .map(|n| n.ins.iter().filter(|k| matches!(k, InKind::Wire)).count())
        .max()
        .unwrap_or(0)
}

#[test]
fn wide_barriers_split_into_join_trees_and_match_the_interpreter() {
    for width in [56, 100] {
        let p = wide_loop(width);
        let expect = interp::run(&p, &mut MemoryImage::new(), &[5]).unwrap().returns;
        let tyr = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        let unord = lower_tagged(&p, TaggingDiscipline::UnorderedUnbounded).unwrap();
        for dfg in [&tyr, &unord] {
            let widest = widest_join(dfg);
            assert!(widest <= 61, "width {width}: a join has {widest} wired inputs");
        }
        assert!(widest_join(&tyr) >= 50, "width {width}: the barrier must stay wide");
        let runs = [
            ("tyr", &tyr, TagPolicy::local(4)),
            ("bounded-global", &tyr, TagPolicy::GlobalBounded { tags: 64 }),
            ("unbounded", &unord, TagPolicy::GlobalUnbounded),
        ];
        for (name, dfg, policy) in runs {
            let cfg = TaggedConfig { tag_policy: policy, args: vec![5], ..TaggedConfig::default() };
            let r = TaggedEngine::new(dfg, MemoryImage::new(), cfg).run().unwrap();
            assert!(r.is_complete(), "{name} width {width}: {:?}", r.outcome);
            assert_eq!(r.returns, expect, "{name} width {width}");
        }
    }
}
