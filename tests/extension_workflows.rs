//! End-to-end workflows of the beyond-the-paper extensions: the
//! checkpointed collection, the overhead-reducing search variants, and
//! the analysis tools composed the way the CLI composes them.

use funcytuner::prelude::*;
use funcytuner::tuning::{cfr, cfr_adaptive, collect, flag_importance, Checkpoint};

fn quick_ctx(bench: &str) -> EvalContext {
    let arch = Architecture::broadwell();
    let compiler = Compiler::icc(arch.target);
    let w = workload_by_name(bench).expect("benchmark exists");
    let ir = w.instantiate(w.tuning_input(arch.name));
    let (outlined, _) = outline_with_defaults(&ir, &compiler, &arch, 4, 11);
    EvalContext::new(outlined.ir, Compiler::icc(arch.target), arch, 4, 77)
}

#[test]
fn checkpointed_collection_feeds_every_downstream_consumer() {
    // Collect once, checkpoint, restore, then drive CFR, the adaptive
    // variant, greedy and the importance analysis from the same data —
    // the workflow `ftune collect` + `ftune search` implements.
    let ctx = quick_ctx("CloverLeaf");
    let data = collect(&ctx, 120, 13);
    let bytes = Checkpoint::capture(&ctx, data).to_bytes();
    let restored = Checkpoint::from_bytes(&bytes)
        .expect("decodes")
        .restore(&ctx)
        .expect("same context");

    let baseline = ctx.baseline_time(10);
    let full = cfr(&ctx, &restored, 12, 120, 22);
    let fast = cfr_adaptive(&ctx, &restored, 12, 120, 25, 22);
    let g = funcytuner::tuning::greedy(&ctx, &restored, baseline);
    assert!(g.independent_speedup >= full.speedup() * 0.999);
    assert!(fast.evaluations <= full.evaluations);

    let importance = flag_importance(&restored, 0, ctx.space());
    assert_eq!(importance.len(), 33);
    assert!(importance[0].eta_squared >= importance.last().unwrap().eta_squared);
}

#[test]
fn figure1_band_ce_stays_near_baseline() {
    // Figure 1's point: CE lands in a narrow band around -O3 on the
    // three motivation benchmarks, far below the ~+9% CFR reaches with
    // per-loop compilation at the full budget. (Known deviation,
    // recorded in EXPERIMENTS.md: our CE is *stronger* than the
    // paper's because the simulated flag-response surface has fewer
    // flag-interaction traps than real ICC — so we assert the band,
    // not a large CE-vs-CFR gap.)
    for bench in ["LULESH", "CloverLeaf", "AMG"] {
        let ctx = quick_ctx(bench);
        let ce = combined_elimination(&ctx, 5);
        assert!(
            (0.95..1.15).contains(&ce.speedup()),
            "{bench}: CE = {} outside the Figure 1 band",
            ce.speedup()
        );
    }
}

#[test]
fn cost_ledger_tracks_a_composed_session() {
    let ctx = quick_ctx("swim");
    let before = ctx.cost();
    assert_eq!(before.runs, 0);
    let data = collect(&ctx, 50, 13);
    let after_collect = ctx.cost();
    assert!(after_collect.runs >= 50);
    let _ = cfr(&ctx, &data, 8, 50, 22);
    let after_cfr = ctx.cost().since(&after_collect);
    assert!(after_cfr.runs >= 50, "CFR re-sampling runs uncounted");
    // Re-sampling reuses collected objects heavily.
    assert!(after_cfr.object_reuses > after_cfr.object_compiles);
}

#[test]
fn population_consensus_of_focused_spaces_is_deterministic() {
    let ctx = quick_ctx("swim");
    let data = collect(&ctx, 80, 13);
    let analyze = || {
        let top = data.top_x(0, 12);
        let cvs: Vec<&Cv> = top.iter().map(|&k| &data.cvs[k]).collect();
        funcytuner::flags::Population::analyze(ctx.space(), &cvs).render_consensus(ctx.space(), 2.0)
    };
    assert_eq!(analyze(), analyze());
}
