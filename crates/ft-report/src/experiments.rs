//! One function per paper table/figure.

use crate::config::ReproConfig;
use crate::data::{Artifact, FigureData, Series, TableData};
use crate::runner::{ctx_on_input, fmt_pct, pgo_speedup_in_ctx, speedup_in_ctx, tune_workload};
use ft_baselines::{combined_elimination, opentuner_search, pgo_tune, Cobayn, FeatureMode};
use ft_compiler::Compiler;
use ft_core::stats::geomean;
use ft_core::EvalContext;
use ft_flags::rng::derive_seed;
use ft_machine::Architecture;
use ft_outline::outline_with_defaults;
use ft_workloads::{suite, workload_by_name};

/// All experiment ids, in paper order.
pub fn all_ids() -> &'static [&'static str] {
    &[
        "table1",
        "table2",
        "fig1",
        "fig5a",
        "fig5b",
        "fig5c",
        "fig6",
        "fig7a",
        "fig7b",
        "fig8",
        "fig9",
        "table3",
        "ablation-x",
        "ablation-k",
        "ablation-faults",
        "overhead",
        "convergence",
        "variance",
        "pareto",
    ]
}

/// Runs one experiment by id.
///
/// # Panics
/// On unknown ids; use [`all_ids`] for the valid set.
pub fn run_experiment(id: &str, cfg: &ReproConfig) -> Artifact {
    match id {
        "table1" => table1(),
        "table2" => table2(),
        "fig1" => fig1(cfg),
        "fig5a" => fig5(cfg, Architecture::opteron(), "fig5a"),
        "fig5b" => fig5(cfg, Architecture::sandy_bridge(), "fig5b"),
        "fig5c" => fig5(cfg, Architecture::broadwell(), "fig5c"),
        "fig6" => fig6(cfg),
        "fig7a" => fig7(cfg, true),
        "fig7b" => fig7(cfg, false),
        "fig8" => fig8(cfg),
        "fig9" => fig9(cfg),
        "table3" => table3(cfg),
        "ablation-x" => ablation_x(cfg),
        "ablation-k" => ablation_k(cfg),
        "ablation-faults" => ablation_faults(cfg),
        "overhead" => overhead(cfg),
        "convergence" => convergence(cfg),
        "variance" => variance(cfg),
        "pareto" => pareto(cfg),
        other => panic!("unknown experiment id {other:?}; see all_ids()"),
    }
}

/// Table 1: the benchmark inventory.
fn table1() -> Artifact {
    let rows = suite()
        .iter()
        .map(|w| {
            vec![
                w.meta.name.to_string(),
                w.meta.language.to_string(),
                format!("{}k", w.meta.loc_k),
                w.meta.domain.to_string(),
            ]
        })
        .collect();
    Artifact::Table(TableData {
        id: "table1".into(),
        title: "List of benchmarks".into(),
        header: vec![
            "Name".into(),
            "Language".into(),
            "LOC".into(),
            "Domain".into(),
        ],
        rows,
        notes: vec!["LOC are the original applications' source sizes (Table 1)".into()],
    })
}

/// Table 2: platforms, runtime configuration, benchmark inputs.
fn table2() -> Artifact {
    let arches = Architecture::all();
    let mut rows = vec![
        vec!["Processor".to_string()]
            .into_iter()
            .chain(arches.iter().map(|a| a.processor.to_string()))
            .collect::<Vec<_>>(),
        vec!["Sockets".to_string()]
            .into_iter()
            .chain(arches.iter().map(|a| a.sockets.to_string()))
            .collect(),
        vec!["NUMA nodes".to_string()]
            .into_iter()
            .chain(arches.iter().map(|a| a.numa_nodes.to_string()))
            .collect(),
        vec!["Cores/Socket".to_string()]
            .into_iter()
            .chain(arches.iter().map(|a| a.cores_per_socket.to_string()))
            .collect(),
        vec!["Threads/Core".to_string()]
            .into_iter()
            .chain(arches.iter().map(|a| a.threads_per_core.to_string()))
            .collect(),
        vec!["Core frequency [GHz]".to_string()]
            .into_iter()
            .chain(arches.iter().map(|a| format!("{:.1}", a.freq_ghz)))
            .collect(),
        vec!["Processor-specific flag".to_string()]
            .into_iter()
            .chain(arches.iter().map(|a| a.target.proc_flag.to_string()))
            .collect(),
        vec!["Memory size [GB]".to_string()]
            .into_iter()
            .chain(arches.iter().map(|a| format!("{:.0}", a.memory_gb)))
            .collect(),
        vec!["OpenMP thread count".to_string()]
            .into_iter()
            .chain(arches.iter().map(|a| a.omp_threads.to_string()))
            .collect(),
    ];
    for w in suite() {
        let mut row = vec![format!("{}: size, steps", w.meta.name)];
        for a in &arches {
            let i = w.tuning_input(a.name);
            row.push(format!("{}, {}", i.label, i.steps));
        }
        rows.push(row);
    }
    Artifact::Table(TableData {
        id: "table2".into(),
        title: "Platform overview, runtime configurations, benchmark inputs".into(),
        header: vec![
            "Machine".into(),
            "AMD Opteron".into(),
            "Intel Sandy Bridge".into(),
            "Intel Broadwell".into(),
        ],
        rows,
        notes: vec![],
    })
}

/// Figure 1: Combined Elimination barely improves on `-O3` for either
/// compiler family.
fn fig1(cfg: &ReproConfig) -> Artifact {
    let arch = Architecture::broadwell();
    let benches = ["LULESH", "CloverLeaf", "AMG"];
    let mut series: Vec<Series> = benches.iter().map(|b| Series::new(b, Vec::new())).collect();
    for (ci, make) in [
        ("GCC", Compiler::gcc as fn(ft_compiler::Target) -> Compiler),
        ("ICC", Compiler::icc as fn(ft_compiler::Target) -> Compiler),
    ] {
        for (bi, bench) in benches.iter().enumerate() {
            let w = workload_by_name(bench).expect("known benchmark");
            let input = w.tuning_input(arch.name);
            let steps = cfg.steps(input.steps);
            let ir = w.instantiate(input);
            let compiler = make(arch.target);
            let (outlined, _) = outline_with_defaults(
                &ir,
                &compiler,
                &arch,
                steps,
                derive_seed(cfg.seed, &format!("fig1-{ci}-{bench}")),
            );
            let ctx = EvalContext::new(
                outlined.ir,
                make(arch.target),
                arch.clone(),
                steps,
                derive_seed(cfg.seed, &format!("fig1-noise-{ci}-{bench}")),
            );
            let r = combined_elimination(&ctx, derive_seed(cfg.seed, &format!("ce-{ci}-{bench}")));
            series[bi].points.push((ci.to_string(), r.speedup()));
        }
    }
    Artifact::Figure(FigureData {
        id: "fig1".into(),
        title: "Combined Elimination does not improve performance significantly".into(),
        categories: vec!["GCC".into(), "ICC".into()],
        series,
        notes: vec![
            "paper: CE shows minimal benefit vs -O3 for both GCC 5.4.0 and ICC 17.0.4".into(),
        ],
    })
}

/// Shared Figure 5 builder for one architecture.
fn fig5(cfg: &ReproConfig, arch: Architecture, id: &str) -> Artifact {
    let workloads = suite();
    let mut categories: Vec<String> = workloads.iter().map(|w| w.meta.name.to_string()).collect();
    categories.push("GM".into());
    let algos = ["Random", "G.realized", "FR", "CFR", "G.Independent"];
    let mut series: Vec<Series> = algos.iter().map(|a| Series::new(a, Vec::new())).collect();
    let mut per_algo: Vec<Vec<f64>> = vec![Vec::new(); algos.len()];
    for w in &workloads {
        let run = tune_workload(w, &arch, cfg);
        let values = [
            run.random.speedup(),
            run.greedy.realized.speedup(),
            run.fr.speedup(),
            run.cfr.speedup(),
            run.greedy.independent_speedup,
        ];
        for (i, v) in values.iter().enumerate() {
            series[i].points.push((w.meta.name.to_string(), *v));
            per_algo[i].push(*v);
        }
    }
    for (i, vals) in per_algo.iter().enumerate() {
        series[i].points.push(("GM".into(), geomean(vals)));
    }
    let paper_gm = match arch.name {
        "Opteron" => "9.2%",
        "Sandy Bridge" => "10.3%",
        _ => "9.4%",
    };
    Artifact::Figure(FigureData {
        id: id.into(),
        title: format!("Normalized speedups on {}", arch.name),
        categories,
        series,
        notes: vec![format!(
            "paper CFR GM on {}: +{paper_gm} over -O3",
            arch.name
        )],
    })
}

/// Figure 6: FuncyTuner CFR vs COBAYN variants, PGO, OpenTuner.
fn fig6(cfg: &ReproConfig) -> Artifact {
    let arch = Architecture::broadwell();
    let workloads = suite();
    let cobayn = Cobayn::train(
        &arch,
        ((24.0 * cfg.cobayn_scale.max(0.25)) as usize).max(6),
        ((1000.0 * cfg.cobayn_scale) as usize).max(20),
        ((100.0 * cfg.cobayn_scale) as usize).max(5),
        derive_seed(cfg.seed, "cobayn-train"),
    );
    let algos = [
        "static COBAYN",
        "dynamic COBAYN",
        "hybrid COBAYN",
        "PGO",
        "OpenTuner",
        "CFR",
    ];
    let mut categories: Vec<String> = workloads.iter().map(|w| w.meta.name.to_string()).collect();
    categories.push("GM".into());
    let mut series: Vec<Series> = algos.iter().map(|a| Series::new(a, Vec::new())).collect();
    let mut per_algo: Vec<Vec<f64>> = vec![Vec::new(); algos.len()];
    let mut notes = Vec::new();
    for w in &workloads {
        let run = tune_workload(w, &arch, cfg);
        let ctx = &run.ctx;
        let seed = derive_seed(cfg.seed, &format!("fig6-{}", w.meta.name));
        let pgo = pgo_tune(ctx, seed);
        if let Some(f) = &pgo.failure {
            notes.push(format!("{}: {f} (paper reports the same)", w.meta.name));
        }
        let values = [
            cobayn.tune(ctx, FeatureMode::Static, cfg.k, seed).speedup(),
            cobayn
                .tune(ctx, FeatureMode::Dynamic, cfg.k, seed ^ 1)
                .speedup(),
            cobayn
                .tune(ctx, FeatureMode::Hybrid, cfg.k, seed ^ 2)
                .speedup(),
            pgo.result.speedup(),
            opentuner_search(ctx, cfg.opentuner_budget, seed ^ 3).speedup(),
            run.cfr.speedup(),
        ];
        for (i, v) in values.iter().enumerate() {
            series[i].points.push((w.meta.name.to_string(), *v));
            per_algo[i].push(*v);
        }
    }
    for (i, vals) in per_algo.iter().enumerate() {
        series[i].points.push(("GM".into(), geomean(vals)));
    }
    notes.push("paper GM: CFR +9.4%, OpenTuner +4.9%, static COBAYN +4.6%, hybrid +2.1%, dynamic < 1.0, PGO ~ 1.0".into());
    Artifact::Figure(FigureData {
        id: "fig6".into(),
        title: "FuncyTuner vs COBAYN (static/dynamic/hybrid), PGO and OpenTuner".into(),
        categories,
        series,
        notes,
    })
}

/// Figure 7: input sensitivity (a = small inputs, b = large inputs).
fn fig7(cfg: &ReproConfig, small: bool) -> Artifact {
    let arch = Architecture::broadwell();
    let workloads = suite();
    let cobayn = Cobayn::train(
        &arch,
        ((24.0 * cfg.cobayn_scale.max(0.25)) as usize).max(6),
        ((1000.0 * cfg.cobayn_scale) as usize).max(20),
        ((100.0 * cfg.cobayn_scale) as usize).max(5),
        derive_seed(cfg.seed, "cobayn-train"),
    );
    let algos = ["Random", "G.realized", "COBAYN", "PGO", "OpenTuner", "CFR"];
    let mut categories: Vec<String> = workloads.iter().map(|w| w.meta.name.to_string()).collect();
    categories.push("GM".into());
    let mut series: Vec<Series> = algos.iter().map(|a| Series::new(a, Vec::new())).collect();
    let mut per_algo: Vec<Vec<f64>> = vec![Vec::new(); algos.len()];
    for w in &workloads {
        let run = tune_workload(w, &arch, cfg);
        let seed = derive_seed(cfg.seed, &format!("fig7-{}", w.meta.name));
        // Assignments tuned on the tuning input...
        let cobayn_cv = cobayn
            .tune(&run.ctx, FeatureMode::Static, cfg.k, seed)
            .assignment;
        let opentuner_cv = opentuner_search(&run.ctx, cfg.opentuner_budget, seed ^ 3).assignment;
        // ...evaluated frozen on the other input (§4.3).
        let input = if small { &w.small } else { &w.large };
        let ctx = ctx_on_input(&run, w, input, cfg);
        let values = [
            speedup_in_ctx(&ctx, &run.random.assignment, 3),
            speedup_in_ctx(&ctx, &run.greedy.realized.assignment, 3),
            speedup_in_ctx(&ctx, &cobayn_cv, 3),
            pgo_speedup_in_ctx(&ctx, 3),
            speedup_in_ctx(&ctx, &opentuner_cv, 3),
            speedup_in_ctx(&ctx, &run.cfr.assignment, 3),
        ];
        for (i, v) in values.iter().enumerate() {
            series[i].points.push((w.meta.name.to_string(), *v));
            per_algo[i].push(*v);
        }
    }
    for (i, vals) in per_algo.iter().enumerate() {
        series[i].points.push(("GM".into(), geomean(vals)));
    }
    let (id, which, paper) = if small {
        ("fig7a", "small", "paper CFR GM on small inputs: +12.3%")
    } else {
        ("fig7b", "large", "paper CFR GM on large inputs: +10.7%")
    };
    Artifact::Figure(FigureData {
        id: id.into(),
        title: format!("Normalized speedups for {which} inputs (tuned on Table 2 inputs)"),
        categories,
        series,
        notes: vec![paper.into()],
    })
}

/// Figure 8: CloverLeaf time-step scaling on Broadwell.
fn fig8(cfg: &ReproConfig) -> Artifact {
    let arch = Architecture::broadwell();
    let w = workload_by_name("CloverLeaf").expect("CloverLeaf in suite");
    let run = tune_workload(&w, &arch, cfg);
    let seed = derive_seed(cfg.seed, "fig8");
    let cobayn = Cobayn::train(
        &arch,
        ((24.0 * cfg.cobayn_scale.max(0.25)) as usize).max(6),
        ((1000.0 * cfg.cobayn_scale) as usize).max(20),
        ((100.0 * cfg.cobayn_scale) as usize).max(5),
        derive_seed(cfg.seed, "cobayn-train"),
    );
    let cobayn_cv = cobayn
        .tune(&run.ctx, FeatureMode::Static, cfg.k, seed)
        .assignment;
    let opentuner_cv = opentuner_search(&run.ctx, cfg.opentuner_budget, seed ^ 3).assignment;

    // Quick mode scales the step ladder down 10x; the ratios between
    // rungs (1:2:4:8) match the paper either way.
    let steps: Vec<u32> = if cfg.steps_cap.is_some() {
        vec![10, 20, 40, 80]
    } else {
        vec![100, 200, 400, 800]
    };
    let algos = ["Random", "G.realized", "COBAYN", "PGO", "OpenTuner", "CFR"];
    let mut categories: Vec<String> = steps.iter().map(|s| s.to_string()).collect();
    categories.push("GM".into());
    let mut series: Vec<Series> = algos.iter().map(|a| Series::new(a, Vec::new())).collect();
    let mut per_algo: Vec<Vec<f64>> = vec![Vec::new(); algos.len()];
    for &n in &steps {
        let input = w.tuning_input(arch.name).with_steps(n);
        // fig8 varies steps explicitly: bypass the quick-mode cap.
        let mut cfg_nocap = cfg.clone();
        cfg_nocap.steps_cap = None;
        let ctx = ctx_on_input(&run, &w, &input, &cfg_nocap);
        let values = [
            speedup_in_ctx(&ctx, &run.random.assignment, 3),
            speedup_in_ctx(&ctx, &run.greedy.realized.assignment, 3),
            speedup_in_ctx(&ctx, &cobayn_cv, 3),
            pgo_speedup_in_ctx(&ctx, 3),
            speedup_in_ctx(&ctx, &opentuner_cv, 3),
            speedup_in_ctx(&ctx, &run.cfr.assignment, 3),
        ];
        for (i, v) in values.iter().enumerate() {
            series[i].points.push((n.to_string(), *v));
            per_algo[i].push(*v);
        }
    }
    for (i, vals) in per_algo.iter().enumerate() {
        series[i].points.push(("GM".into(), geomean(vals)));
    }
    Artifact::Figure(FigureData {
        id: "fig8".into(),
        title: "CloverLeaf on Broadwell: stable CFR benefit from 100 to 800 time-steps".into(),
        categories,
        series,
        notes: vec!["paper: CFR provides a stable benefit while scaling time-steps".into()],
    })
}

/// The five Table 3 / Figure 9 CloverLeaf kernels.
const CL_KERNELS: [&str; 5] = ["dt", "cell3", "cell7", "mom9", "acc"];

/// Figure 9: per-loop speedups for CloverLeaf's top-5 loops.
fn fig9(cfg: &ReproConfig) -> Artifact {
    let arch = Architecture::broadwell();
    let w = workload_by_name("CloverLeaf").expect("CloverLeaf in suite");
    let run = tune_workload(&w, &arch, cfg);
    let ctx = &run.ctx;
    let base_run = ctx.measure(&vec![ctx.space().baseline(); ctx.modules()], 0xF19);
    let random_run = ctx.measure(&run.random.assignment, 0xF19 ^ 1);
    let greedy_run = ctx.measure(&run.greedy.realized.assignment, 0xF19 ^ 2);
    let cfr_run = ctx.measure(&run.cfr.assignment, 0xF19 ^ 3);

    let mut series = vec![
        Series::new("Random", Vec::new()),
        Series::new("G.realized", Vec::new()),
        Series::new("CFR", Vec::new()),
        Series::new("G.Independent", Vec::new()),
    ];
    for kernel in CL_KERNELS {
        let j = ctx
            .ir
            .module_by_name(kernel)
            .unwrap_or_else(|| panic!("{kernel} must be outlined"))
            .id;
        let base = base_run.per_module_s[j];
        series[0]
            .points
            .push((kernel.into(), base / random_run.per_module_s[j]));
        series[1]
            .points
            .push((kernel.into(), base / greedy_run.per_module_s[j]));
        series[2]
            .points
            .push((kernel.into(), base / cfr_run.per_module_s[j]));
        let indep = run.data.per_module[j][run.data.argmin(j)];
        series[3].points.push((kernel.into(), base / indep));
    }
    Artifact::Figure(FigureData {
        id: "fig9".into(),
        title: "Normalized speedups for the top-5 CloverLeaf loops on Broadwell".into(),
        categories: CL_KERNELS.iter().map(|k| k.to_string()).collect(),
        series,
        notes: vec![
            "paper: COBAYN (static), OpenTuner and Random generate the same code here".into(),
        ],
    })
}

/// Table 3: codegen decisions for the five CloverLeaf kernels.
fn table3(cfg: &ReproConfig) -> Artifact {
    let arch = Architecture::broadwell();
    let w = workload_by_name("CloverLeaf").expect("CloverLeaf in suite");
    let run = tune_workload(&w, &arch, cfg);
    let ctx = &run.ctx;
    let kernel_ids: Vec<usize> = CL_KERNELS
        .iter()
        .map(|k| ctx.ir.module_by_name(k).expect("kernel outlined").id)
        .collect();

    // O3 runtime ratios (header row context, like the paper).
    let base_run = ctx.measure(&vec![ctx.space().baseline(); ctx.modules()], 0x7AB);
    let ratios: Vec<f64> = kernel_ids
        .iter()
        .map(|&j| 100.0 * base_run.per_module_s[j] / base_run.total_s)
        .collect();

    // Decisions per algorithm. Post-link for anything that actually
    // builds an executable; pre-link for the hypothetical
    // G.Independent.
    let linked_for = |assignment: &[ft_flags::Cv]| {
        ft_machine::link(
            ctx.compiler.compile_mixed(&ctx.ir, assignment),
            &ctx.ir,
            &ctx.arch,
        )
    };
    let summaries = |linked: &ft_machine::LinkedProgram| -> Vec<String> {
        kernel_ids
            .iter()
            .map(|&j| {
                let mut s = linked.modules[j].decisions.summary();
                if linked.was_overridden(j) {
                    s.push_str(" (LTO)");
                }
                s
            })
            .collect()
    };

    let g_real = summaries(&linked_for(&run.greedy.realized.assignment));
    let g_indep: Vec<String> = kernel_ids
        .iter()
        .map(|&j| {
            let cv = &run.data.cvs[run.data.argmin(j)];
            ctx.compiler
                .compile_module(&ctx.ir.modules[j], cv)
                .decisions
                .summary()
        })
        .collect();
    let o3 = summaries(&linked_for(&vec![ctx.space().baseline(); ctx.modules()]));
    let random = summaries(&linked_for(&run.random.assignment));
    let cfr = summaries(&linked_for(&run.cfr.assignment));

    let mut rows = vec![{
        let mut r = vec!["O3 runtime ratio %".to_string()];
        r.extend(ratios.iter().map(|p| format!("{p:.1}")));
        r
    }];
    for (name, cells) in [
        ("G.realized", g_real),
        ("G.Independent", g_indep),
        ("O3 baseline", o3),
        ("Random", random),
        ("CFR", cfr),
    ] {
        let mut r = vec![name.to_string()];
        r.extend(cells);
        rows.push(r);
    }
    let mut header = vec!["Algorithm".to_string()];
    header.extend(CL_KERNELS.iter().map(|k| k.to_string()));
    Artifact::Table(TableData {
        id: "table3".into(),
        title: "Optimizations chosen for 5 CloverLeaf kernels on Broadwell".into(),
        header,
        rows,
        notes: vec![
            "S = scalar; 128/256 = SIMD width; unrollN; IS = instruction selection; IO = instruction reordering; RS = register spilling; NT = streaming stores; (LTO) = linker override".into(),
            format!(
                "paper O3 ratios: dt 6.3, cell3 2.9, cell7 3.5, mom9 3.5, acc 4.2 — ours: {}",
                ratios.iter().map(|p| format!("{p:.1}")).collect::<Vec<_>>().join(", ")
            ),
            format!("CFR end-to-end: {}", fmt_pct(run.cfr.speedup())),
        ],
    })
}

/// Ablation (beyond the paper): CFR focus width X. §2.2.4 frames the
/// algorithm family by X — G is top-1, FR is top-K, CFR in between —
/// and this sweep shows the resulting U-shape.
fn ablation_x(cfg: &ReproConfig) -> Artifact {
    let arch = Architecture::broadwell();
    let w = workload_by_name("CloverLeaf").expect("CloverLeaf in suite");
    let run = tune_workload(&w, &arch, cfg);
    let ctx = &run.ctx;
    let mut widths = vec![1usize, 2, 4, 8, 16, 32, 64, 128];
    widths.retain(|x| *x <= cfg.k);
    widths.push(cfg.k);
    let seed = derive_seed(cfg.seed, "ablation-x");
    let points: Vec<(String, f64)> = widths
        .iter()
        .map(|&x| {
            (
                x.to_string(),
                ft_core::cfr(ctx, &run.data, x, cfg.k, seed).speedup(),
            )
        })
        .collect();
    Artifact::Figure(FigureData {
        id: "ablation-x".into(),
        title: "CFR speedup vs focus width X (CloverLeaf, Broadwell)".into(),
        categories: points.iter().map(|(c, _)| c.clone()).collect(),
        series: vec![Series::new("CFR", points)],
        notes: vec!["X=1 degenerates toward greedy combination; X=K toward FR (§2.2.4)".into()],
    })
}

/// Ablation (beyond the paper's figures, motivated by §4.3): CFR
/// speedup and convergence point vs the sample budget K. The ladder
/// ends at the configured K, so a budget below its first rung still
/// yields one point.
fn ablation_k(cfg: &ReproConfig) -> Artifact {
    let arch = Architecture::broadwell();
    let w = workload_by_name("CloverLeaf").expect("CloverLeaf in suite");
    let run = tune_workload(&w, &arch, cfg);
    let ctx = &run.ctx;
    let budgets: Vec<usize> = [25usize, 50, 100, 200, 400, 1000]
        .into_iter()
        .filter(|k| *k < cfg.k)
        .chain([cfg.k])
        .collect();
    let seed = derive_seed(cfg.seed, "ablation-k");
    let mut speedups = Vec::new();
    let mut notes = Vec::new();
    for &k in &budgets {
        let data = ft_core::collect(ctx, k, seed);
        let r = ft_core::cfr(ctx, &data, cfg.x.min(k), k, seed ^ 1);
        speedups.push((k.to_string(), r.speedup()));
        notes.push(format!(
            "K={k}: converged within {} evaluations (paper §4.3: tens to hundreds)",
            r.converged_at(0.01)
        ));
    }
    Artifact::Figure(FigureData {
        id: "ablation-k".into(),
        title: "CFR speedup vs sample budget K (CloverLeaf, Broadwell)".into(),
        categories: speedups.iter().map(|(c, _)| c.clone()).collect(),
        series: vec![Series::new("CFR", speedups)],
        notes,
    })
}

/// Robustness ablation: the full pipeline under increasing injected
/// fault rates. At every rate the campaign must finish with a finite
/// CFR winner; the table shows how much quality and ledger overhead
/// the faults cost.
fn ablation_faults(cfg: &ReproConfig) -> Artifact {
    use ft_compiler::FaultModel;
    use ft_core::Tuner;
    let arch = Architecture::broadwell();
    let w = workload_by_name("swim").expect("swim in suite");
    let rates = [0.0f64, 0.01, 0.02, 0.05];
    let mut rows = Vec::new();
    for &r in &rates {
        // Compile failures at the headline rate; crashes, hangs and
        // outliers scaled down as on a real testbed.
        let faults = FaultModel::with_rates(
            derive_seed(cfg.seed, "ablation-faults"),
            r,
            r / 2.0,
            r / 4.0,
            r / 2.0,
        );
        let mut tuner = Tuner::new(&w, &arch)
            .budget(cfg.k)
            .focus(cfg.x)
            .seed(derive_seed(cfg.seed, "ablation-faults-run"))
            .faults(faults);
        if let Some(cap) = cfg.steps_cap {
            tuner = tuner.cap_steps(cap);
        }
        let run = tuner.run();
        let cost = run.ctx.cost();
        assert!(
            run.cfr.best_time.is_finite(),
            "campaign at fault rate {r} must still produce a finite winner"
        );
        rows.push(vec![
            format!("{:.1}%", r * 100.0),
            format!("{:.3}x", run.cfr.speedup()),
            format!("{:.3}x", run.random.speedup()),
            cost.compile_failures.to_string(),
            cost.crashes.to_string(),
            cost.timeouts.to_string(),
            cost.retries.to_string(),
            cost.quarantined.to_string(),
        ]);
    }
    Artifact::Table(TableData {
        id: "ablation-faults".into(),
        title: "Pipeline quality vs injected fault rate (swim, Broadwell)".into(),
        header: vec![
            "compile-fault rate".into(),
            "CFR speedup".into(),
            "Random speedup".into(),
            "cfails".into(),
            "crashes".into(),
            "timeouts".into(),
            "retries".into(),
            "quarantined".into(),
        ],
        rows,
        notes: vec![
            "crash rate = half, hang rate = quarter, outlier rate = half of the compile-fault rate".into(),
            "the harness retries transient crashes, charges hung runs their timeout budget, and quarantines bad (module, CV) pairs".into(),
        ],
    })
}

/// §4.3 tuning-overhead comparison: the work each approach performs
/// for one benchmark (the paper reports ~1.5 days Random/G, 2 days
/// OpenTuner, 3 days CFR, 1 week COBAYN on the physical testbeds).
fn overhead(cfg: &ReproConfig) -> Artifact {
    use ft_core::{cfr, collect, fr_search, greedy, random_search, Tuner};
    let arch = Architecture::broadwell();
    let w = workload_by_name("CloverLeaf").expect("CloverLeaf in suite");
    let input = w.tuning_input(arch.name);
    let steps = cfg.steps(input.steps);
    let ir = w.instantiate(input);
    let compiler_seed = derive_seed(cfg.seed, "overhead");
    let fresh_ctx = || {
        let compiler = Compiler::icc(arch.target);
        let (outlined, _) = outline_with_defaults(&ir, &compiler, &arch, steps, compiler_seed);
        EvalContext::new(
            outlined.ir,
            Compiler::icc(arch.target),
            arch.clone(),
            steps,
            compiler_seed,
        )
        .with_faults(cfg.fault_model())
        .with_cache_capacity(cfg.capacity())
    };
    // `sched_s`: modeled machine-seconds the approach occupies the
    // testbed under its schedule. Single-algorithm rows have no phase
    // DAG to overlap, so it equals their machine time.
    let row = |name: &str,
               cost: ft_core::TuningCost,
               speedup: f64,
               code_bytes: f64,
               sched_s: f64|
     -> Vec<String> {
        vec![
            name.to_string(),
            cost.runs.to_string(),
            cost.object_compiles.to_string(),
            cost.object_reuses.to_string(),
            format!("{:.1}%", cost.reuse_rate() * 100.0),
            cost.links.to_string(),
            cost.link_reuses.to_string(),
            format!("{:.1}%", cost.link_reuse_rate() * 100.0),
            format!("{:.2}", cost.machine_hours()),
            format!("{:.2}", sched_s / 3600.0),
            format!("{speedup:.3}x"),
            if code_bytes.is_finite() {
                format!("{code_bytes:.0}")
            } else {
                "-".to_string()
            },
            cost.compile_failures.to_string(),
            cost.crashes.to_string(),
            cost.timeouts.to_string(),
            cost.retries.to_string(),
            cost.quarantined.to_string(),
            cost.object_evictions.to_string(),
            cost.link_evictions.to_string(),
        ]
    };

    let mut rows = Vec::new();
    {
        let ctx = fresh_ctx();
        let r = random_search(&ctx, cfg.k, derive_seed(cfg.seed, "oh-random"));
        let c = ctx.cost();
        rows.push(row(
            "Random",
            c,
            r.speedup(),
            r.best_code_bytes,
            c.machine_seconds,
        ));
    }
    {
        let ctx = fresh_ctx();
        let r = fr_search(&ctx, cfg.k, derive_seed(cfg.seed, "oh-fr"));
        let c = ctx.cost();
        rows.push(row(
            "FR",
            c,
            r.speedup(),
            r.best_code_bytes,
            c.machine_seconds,
        ));
    }
    {
        let ctx = fresh_ctx();
        let baseline = ctx.baseline_time(10);
        let data = collect(&ctx, cfg.k, derive_seed(cfg.seed, "oh-g"));
        let g = greedy(&ctx, &data, baseline);
        let c = ctx.cost();
        rows.push(row(
            "G",
            c,
            g.realized.speedup(),
            g.realized.best_code_bytes,
            c.machine_seconds,
        ));
    }
    {
        let ctx = fresh_ctx();
        let data = collect(&ctx, cfg.k, derive_seed(cfg.seed, "oh-cfr"));
        let r = cfr(&ctx, &data, cfg.x, cfg.k, derive_seed(cfg.seed, "oh-cfr2"));
        let c = ctx.cost();
        rows.push(row(
            "CFR",
            c,
            r.speedup(),
            r.best_code_bytes,
            c.machine_seconds,
        ));
    }
    {
        // Early-stopping extension: the §4.3 convergence observation
        // turned into an algorithm.
        let ctx = fresh_ctx();
        let data = collect(&ctx, cfg.k, derive_seed(cfg.seed, "oh-ada"));
        let r = ft_core::cfr_adaptive(
            &ctx,
            &data,
            cfg.x,
            cfg.k,
            (cfg.k / 8).max(10),
            derive_seed(cfg.seed, "oh-ada2"),
        );
        let c = ctx.cost();
        rows.push(row(
            "CFR-adaptive",
            c,
            r.speedup(),
            r.best_code_bytes,
            c.machine_seconds,
        ));
    }
    if cfg.cfr_iterative {
        // Multi-round extension rows (opt-in: `--cfr-iterative`). The
        // recollect variant additionally probes every pruned CV
        // substituted into its current best assignment at each round
        // boundary — per-loop evidence gathered under a non-uniform
        // incumbent, visible here as extra runs over plain iterative.
        let rounds = 4;
        {
            let ctx = fresh_ctx();
            let data = collect(&ctx, cfg.k, derive_seed(cfg.seed, "oh-iter"));
            let r = ft_core::cfr_iterative(
                &ctx,
                &data,
                cfg.x,
                cfg.k,
                rounds,
                derive_seed(cfg.seed, "oh-iter2"),
            );
            let c = ctx.cost();
            rows.push(row(
                "CFR-iterative",
                c,
                r.speedup(),
                r.best_code_bytes,
                c.machine_seconds,
            ));
        }
        {
            let ctx = fresh_ctx();
            let data = collect(&ctx, cfg.k, derive_seed(cfg.seed, "oh-rec"));
            let r = ft_core::cfr_iterative_recollect(
                &ctx,
                &data,
                cfg.x,
                cfg.k,
                rounds,
                derive_seed(cfg.seed, "oh-rec2"),
            );
            let c = ctx.cost();
            rows.push(row(
                "CFR-iter-recollect",
                c,
                r.speedup(),
                r.best_code_bytes,
                c.machine_seconds,
            ));
        }
    }
    {
        let ctx = fresh_ctx();
        let r = opentuner_search(&ctx, cfg.opentuner_budget, derive_seed(cfg.seed, "oh-ot"));
        let c = ctx.cost();
        rows.push(row(
            "OpenTuner",
            c,
            r.speedup(),
            r.best_code_bytes,
            c.machine_seconds,
        ));
    }
    {
        // The full campaign (Baseline → Collect/Random/FR → G/CFR) run
        // once, serially, with per-phase machine time attributed; the
        // overlapped row re-prices the same ledger at the DAG's
        // critical path. The schedules are bit-identical in results
        // (see ft-core's phase_equivalence suite), so one campaign
        // prices both.
        let mut tuner = Tuner::new(&w, &arch)
            .budget(cfg.k)
            .focus(cfg.x)
            .seed(derive_seed(cfg.seed, "oh-campaign"))
            .faults(cfg.fault_model())
            .cache_capacity(cfg.capacity());
        if let Some(cap) = cfg.steps_cap {
            tuner = tuner.cap_steps(cap);
        }
        let run = tuner.run();
        let c = run.ctx.cost();
        let serial_s = run
            .schedule
            .machine_serial_s()
            .expect("serial campaign attributes every phase");
        let critical_s = run
            .schedule
            .machine_critical_path_s()
            .expect("serial campaign attributes every phase");
        rows.push(row(
            "Campaign (serial)",
            c,
            run.cfr.speedup(),
            run.cfr.best_code_bytes,
            serial_s,
        ));
        rows.push(row(
            "Campaign (overlapped)",
            c,
            run.cfr.speedup(),
            run.cfr.best_code_bytes,
            critical_s,
        ));
    }

    Artifact::Table(TableData {
        id: "overhead".into(),
        title: "Tuning overhead per approach (CloverLeaf, Broadwell)".into(),
        header: vec![
            "Approach".into(),
            "runs".into(),
            "compiles".into(),
            "obj reuses".into(),
            "reuse rate".into(),
            "links".into(),
            "link reuses".into(),
            "link reuse rate".into(),
            "machine hours".into(),
            "sched wall h".into(),
            "speedup".into(),
            "winner code B".into(),
            "cfails".into(),
            "crashes".into(),
            "timeouts".into(),
            "retries".into(),
            "quarantined".into(),
            "obj evict".into(),
            "link evict".into(),
        ],
        rows,
        notes: vec![
            "paper §4.3: ~1.5 days Random/G, 2 days OpenTuner, 3 days CFR, 1 week COBAYN per benchmark".into(),
            "CFR costs ~2x Random (collection + re-sampling) but per-loop objects are heavily reused".into(),
            "links/link reuses: whole-program links performed vs duplicate assignments served from the link cache (xild analogue)".into(),
            "winner code B: the modeled executable size of each approach's winning assignment (the linked program's modeled code bytes)".into(),
            "fault columns (cfails/crashes/timeouts/retries/quarantined) are all zero unless --fault-* rates are set".into(),
            "--cfr-iterative adds the multi-round extension rows; CFR-iter-recollect's extra runs are its per-round incumbent-substitution probes".into(),
            "obj evict/link evict: LRU cache evictions; nonzero only under --cache-capacity, and result-invariant either way".into(),
            "sched wall h: testbed occupancy under the row's schedule; the Campaign rows price the same bit-identical campaign serially vs at the phase DAG's critical path (baseline + max(collect, random, fr) + max(greedy, cfr))".into(),
        ],
    })
}

/// Objective extension (beyond the paper): tune under
/// [`Objective::Pareto`] and report the time / code-size dominance
/// front the campaign discovered. The paper optimizes wall time only;
/// this experiment shows the same per-loop search surfacing the
/// trade-off curve instead of a single winner.
fn pareto(cfg: &ReproConfig) -> Artifact {
    use ft_core::{Objective, Tuner};
    let arch = Architecture::broadwell();
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for bench in ["CloverLeaf", "swim", "AMG"] {
        let w = workload_by_name(bench).expect("known benchmark");
        let mut tuner = Tuner::new(&w, &arch)
            .budget(cfg.k)
            .focus(cfg.x)
            .seed(derive_seed(cfg.seed, &format!("pareto-{bench}")))
            .objective(Objective::Pareto);
        if let Some(cap) = cfg.steps_cap {
            tuner = tuner.cap_steps(cap);
        }
        let run = tuner.run();
        let front = &run.cfr.front;
        notes.push(format!(
            "{bench}: {} non-dominated candidate(s) among {} CFR evaluations",
            front.len(),
            run.cfr.evaluations
        ));
        for p in front {
            rows.push(vec![
                bench.to_string(),
                p.index.to_string(),
                format!("{:.3}", p.time),
                format!("{:.0}", p.code_bytes),
                format!("{:.3}x", run.baseline_time / p.time),
            ]);
        }
    }
    notes.push(
        "every row is non-dominated: no other evaluated candidate is both faster and smaller"
            .into(),
    );
    Artifact::Table(TableData {
        id: "pareto".into(),
        title: "Time / code-size Pareto fronts under --objective pareto (Broadwell)".into(),
        header: vec![
            "benchmark".into(),
            "candidate".into(),
            "time (s)".into(),
            "code (B)".into(),
            "speedup".into(),
        ],
        rows,
        notes,
    })
}

/// §4.3 convergence study: how fast each search reaches its final
/// quality. Quantifies "CFR finds the best code variant in tens or
/// several hundreds of evaluations".
fn convergence(cfg: &ReproConfig) -> Artifact {
    use ft_core::convergence::Convergence;
    use ft_core::{cfr, collect, fr_search, random_search};
    let arch = Architecture::broadwell();
    let w = workload_by_name("CloverLeaf").expect("CloverLeaf in suite");
    let run = tune_workload(&w, &arch, cfg);
    let ctx = &run.ctx;
    let seed = derive_seed(cfg.seed, "convergence");
    let data = collect(ctx, cfg.k, seed);
    let rows = [
        Convergence::of(&random_search(ctx, cfg.k, seed ^ 1)),
        Convergence::of(&fr_search(ctx, cfg.k, seed ^ 2)),
        Convergence::of(&cfr(ctx, &data, cfg.x, cfg.k, seed ^ 3)),
    ];
    Artifact::Table(TableData {
        id: "convergence".into(),
        title: "Evaluations to convergence (CloverLeaf, Broadwell)".into(),
        header: vec![
            "algorithm".into(),
            "evaluations".into(),
            "to 1%".into(),
            "to 5%".into(),
            "final best (s)".into(),
        ],
        rows: rows
            .iter()
            .map(|c| {
                vec![
                    c.algorithm.clone(),
                    c.evaluations.to_string(),
                    c.to_1pct.to_string(),
                    c.to_5pct.to_string(),
                    format!("{:.3}", c.final_best),
                ]
            })
            .collect(),
        notes: vec![
            "paper §4.3: CFR finds the best code variant in tens or several hundreds of evaluations".into(),
        ],
    })
}

/// Search-variance study across tuning seeds, quantifying Figure 5's
/// observation 3 ("FR's performance ... has high variance").
fn variance(cfg: &ReproConfig) -> Artifact {
    let arch = Architecture::broadwell();
    let w = workload_by_name("CloverLeaf").expect("CloverLeaf in suite");
    let run = tune_workload(&w, &arch, cfg);
    let seeds: Vec<u64> = (0..5)
        .map(|i| derive_seed(cfg.seed, "variance") ^ i)
        .collect();
    let rows = ft_core::variance_study(&run.ctx, cfg.k.min(300), cfg.x, &seeds);
    Artifact::Table(TableData {
        id: "variance".into(),
        title: "Search variance across tuning seeds (CloverLeaf, Broadwell)".into(),
        header: vec![
            "algorithm".into(),
            "mean speedup".into(),
            "stddev".into(),
            "min".into(),
            "max".into(),
        ],
        rows: rows
            .iter()
            .map(|r| {
                let min = r.speedups.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = r.speedups.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                vec![
                    r.algorithm.clone(),
                    format!("{:.3}", r.mean),
                    format!("{:.4}", r.stddev),
                    format!("{min:.3}"),
                    format!("{max:.3}"),
                ]
            })
            .collect(),
        notes: vec![
            "paper Fig. 5 observation 3: FR is inferior to CFR and has high variance".into(),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ReproConfig {
        let mut c = ReproConfig::quick();
        // Keep registry tests snappy.
        c.k = 80;
        c.x = 10;
        c.opentuner_budget = 60;
        c.cobayn_scale = 0.04;
        c
    }

    #[test]
    fn registry_knows_every_paper_artifact() {
        let ids = all_ids();
        assert_eq!(ids.len(), 19);
        assert!(ids.contains(&"fig5b"));
        assert!(ids.contains(&"table3"));
        assert!(ids.contains(&"ablation-x"));
        assert!(ids.contains(&"ablation-faults"));
        assert!(ids.contains(&"pareto"));
    }

    #[test]
    fn every_registry_artifact_runs_and_renders() {
        let mut cfg = ReproConfig::quick();
        cfg.k = 20;
        cfg.x = 4;
        for &id in all_ids() {
            let a = run_experiment(id, &cfg);
            assert_eq!(a.id(), id);
            let populated = match &a {
                Artifact::Figure(f) => {
                    !f.series.is_empty() && f.series.iter().all(|s| !s.points.is_empty())
                }
                Artifact::Table(t) => !t.rows.is_empty(),
            };
            assert!(populated, "{id} produced no data");
            assert!(
                !crate::render::render(&a).is_empty(),
                "{id} rendered nothing"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_panics() {
        let _ = run_experiment("fig99", &quick());
    }

    #[test]
    fn table1_matches_suite() {
        let t = table1();
        let t = t.as_table().unwrap();
        assert_eq!(t.rows.len(), 7);
        assert_eq!(t.rows[2][0], "AMG");
        assert_eq!(t.rows[2][2], "113k");
    }

    #[test]
    fn table2_has_platform_and_input_rows() {
        let t = table2();
        let t = t.as_table().unwrap();
        assert_eq!(t.header.len(), 4);
        // 9 platform rows + 7 input rows.
        assert_eq!(t.rows.len(), 16);
        let lulesh = t.rows.iter().find(|r| r[0].starts_with("LULESH")).unwrap();
        assert_eq!(lulesh[1], "120, 10");
        assert_eq!(lulesh[3], "200, 10");
    }

    #[test]
    fn fig5c_has_all_series_and_gm() {
        let a = run_experiment("fig5c", &quick());
        let f = a.as_figure().unwrap();
        assert_eq!(f.series.len(), 5);
        assert_eq!(f.categories.len(), 8); // 7 benchmarks + GM
        for s in &f.series {
            assert_eq!(s.points.len(), 8, "{} incomplete", s.label);
        }
        // G.Independent dominates CFR everywhere.
        let gi = f.series_by_label("G.Independent").unwrap();
        let cfr = f.series_by_label("CFR").unwrap();
        for (cat, v) in &cfr.points {
            assert!(
                gi.get(cat).unwrap() >= v * 0.999,
                "independent bound violated at {cat}"
            );
        }
    }

    #[test]
    fn fig9_reports_five_kernels() {
        let a = run_experiment("fig9", &quick());
        let f = a.as_figure().unwrap();
        assert_eq!(f.categories, vec!["dt", "cell3", "cell7", "mom9", "acc"]);
        assert_eq!(f.series.len(), 4);
    }

    #[test]
    fn overhead_table_shows_cfr_costing_about_twice_random() {
        let a = run_experiment("overhead", &quick());
        let t = a.as_table().unwrap();
        assert_eq!(t.rows.len(), 8);
        let col = |name: &str, i: usize| -> f64 {
            t.rows.iter().find(|r| r[0] == name).unwrap()[i]
                .parse()
                .unwrap()
        };
        let hours = |name: &str| col(name, 8);
        let ratio = hours("CFR") / hours("Random");
        assert!((1.4..3.0).contains(&ratio), "CFR/Random = {ratio}");
        // The adaptive extension stops early.
        assert!(hours("CFR-adaptive") < hours("CFR"));
        // The campaign rows price one bit-identical campaign under both
        // schedules: same machine hours, but the overlapped schedule
        // occupies the testbed only for the DAG's critical path.
        assert_eq!(hours("Campaign (serial)"), hours("Campaign (overlapped)"));
        let serial = col("Campaign (serial)", 9);
        let overlapped = col("Campaign (overlapped)", 9);
        let speedup = serial / overlapped;
        assert!(
            speedup >= 1.3,
            "overlap must shorten the campaign: {serial} / {overlapped} = {speedup}"
        );
    }

    #[test]
    fn overhead_table_gains_iterative_rows_behind_the_flag() {
        let mut cfg = quick();
        cfg.cfr_iterative = true;
        let a = run_experiment("overhead", &cfg);
        let t = a.as_table().unwrap();
        assert_eq!(t.rows.len(), 10);
        let runs = |name: &str| -> u64 {
            t.rows.iter().find(|r| r[0] == name).unwrap()[1]
                .parse()
                .unwrap()
        };
        // The recollect variant pays for its per-round incumbent
        // probes: strictly more runs than plain iterative CFR.
        assert!(
            runs("CFR-iter-recollect") > runs("CFR-iterative"),
            "recollect probes must show up in the ledger: {} vs {}",
            runs("CFR-iter-recollect"),
            runs("CFR-iterative")
        );
    }

    #[test]
    fn overhead_table_reports_link_work() {
        let a = run_experiment("overhead", &quick());
        let t = a.as_table().unwrap();
        assert_eq!(t.header[5], "links");
        assert_eq!(t.header[6], "link reuses");
        for r in &t.rows {
            let links: u64 = r[5].parse().unwrap();
            let reuses: u64 = r[6].parse().unwrap();
            assert!(links > 0, "{} performed no links: {r:?}", r[0]);
            assert!(r[7].ends_with('%'), "link reuse rate formatted: {r:?}");
            // Every approach runs at least as often as it links; the
            // difference is served by the link cache.
            let runs: u64 = r[1].parse().unwrap();
            assert_eq!(links + reuses, runs, "{}: ledger must balance", r[0]);
        }
    }

    #[test]
    fn ablation_faults_stays_finite_and_counts_faults() {
        let mut c = quick();
        c.k = 40;
        c.x = 8;
        let a = run_experiment("ablation-faults", &c);
        let t = a.as_table().unwrap();
        assert_eq!(t.rows.len(), 4);
        // The clean row injects nothing.
        for cell in &t.rows[0][3..] {
            assert_eq!(cell, "0", "clean campaign must not count faults");
        }
        // The highest rate injects something and still reports finite
        // speedups (enforced by an assert inside the experiment too).
        let last = t.rows.last().unwrap();
        let injected: u64 = last[3..].iter().map(|c| c.parse::<u64>().unwrap()).sum();
        assert!(injected > 0, "5% rates should fire at least once: {last:?}");
        assert!(last[1].ends_with('x') && last[2].ends_with('x'));
    }

    #[test]
    fn overhead_table_has_zero_fault_columns_by_default() {
        let a = run_experiment("overhead", &quick());
        let t = a.as_table().unwrap();
        assert_eq!(t.header.len(), 19);
        for r in &t.rows {
            // Fault columns (12..17) and the eviction columns (17..19)
            // are all zero in the default unbounded, fault-free config.
            for cell in &r[12..] {
                assert_eq!(cell, "0", "{}: clean run counted a fault {r:?}", r[0]);
            }
        }
    }

    #[test]
    fn overhead_table_prices_the_winner_code_size() {
        let a = run_experiment("overhead", &quick());
        let t = a.as_table().unwrap();
        assert_eq!(t.header[11], "winner code B");
        for r in &t.rows {
            let bytes: f64 = r[11].parse().unwrap();
            assert!(
                bytes.is_finite() && bytes > 0.0,
                "{}: missing winner code size {r:?}",
                r[0]
            );
        }
    }

    #[test]
    fn pareto_experiment_surfaces_a_tradeoff_front() {
        let mut c = quick();
        c.k = 60;
        c.x = 8;
        let a = run_experiment("pareto", &c);
        let t = a.as_table().unwrap();
        assert!(!t.rows.is_empty());
        // At least one workload must expose a genuine trade-off: two or
        // more non-dominated candidates on its front.
        let count = |bench: &str| t.rows.iter().filter(|r| r[0] == bench).count();
        let widest = ["CloverLeaf", "swim", "AMG"]
            .iter()
            .map(|b| count(b))
            .max()
            .unwrap();
        assert!(
            widest >= 2,
            "no workload produced a multi-point front: {:?}",
            t.notes
        );
        // Front rows are sorted by time and strictly trade off size.
        for bench in ["CloverLeaf", "swim", "AMG"] {
            let pts: Vec<(f64, f64)> = t
                .rows
                .iter()
                .filter(|r| r[0] == bench)
                .map(|r| (r[2].parse().unwrap(), r[3].parse().unwrap()))
                .collect();
            for w in pts.windows(2) {
                assert!(w[0].0 < w[1].0, "{bench}: front not sorted by time");
                assert!(w[0].1 > w[1].1, "{bench}: slower point must be smaller");
            }
        }
    }

    #[test]
    fn ablation_x_covers_both_degenerate_corners() {
        let a = run_experiment("ablation-x", &quick());
        let f = a.as_figure().unwrap();
        let s = &f.series[0];
        assert_eq!(s.points.first().unwrap().0, "1");
        assert_eq!(s.points.last().unwrap().0, quick().k.to_string());
    }

    #[test]
    fn table3_rows_are_decision_summaries() {
        let a = run_experiment("table3", &quick());
        let t = a.as_table().unwrap();
        assert_eq!(t.rows.len(), 6); // ratio row + 5 algorithm rows
        let o3_row = t.rows.iter().find(|r| r[0] == "O3 baseline").unwrap();
        // O3 decisions must be one of the legal summaries.
        for cell in &o3_row[1..] {
            assert!(
                cell.starts_with('S') || cell.starts_with("128") || cell.starts_with("256"),
                "weird summary {cell}"
            );
        }
    }
}
