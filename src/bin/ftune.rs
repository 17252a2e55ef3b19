//! `ftune` — the FuncyTuner command-line driver.
//!
//! The workflow a downstream user actually runs, end to end:
//!
//! ```text
//! ftune list                                  # benchmarks and platforms
//! ftune profile CloverLeaf --arch broadwell   # hot loops + roofline
//! ftune tune CloverLeaf --k 400 --x 24        # Random/FR/G/CFR comparison
//! ftune critical CloverLeaf --loop dt         # §4.4 critical flags
//! ftune compare swim                          # vs OpenTuner/COBAYN/PGO
//! ftune cost AMG                              # §4.3 tuning-overhead ledger
//! ftune collect AMG --k 1000 --out amg.ftck   # checkpoint the collection
//! ftune search amg.ftck                       # re-search without re-collecting
//! ```

use funcytuner::machine::roofline;
use funcytuner::prelude::*;
use funcytuner::tuning::{collect, critical_flags, random_search, Objective, MAX_BUDGET};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    command: String,
    bench: Option<String>,
    arch: String,
    k: usize,
    x: usize,
    seed: u64,
    loop_name: Option<String>,
    out: Option<String>,
    checkpoint_dir: Option<String>,
    chaos_kill_seed: Option<u64>,
    chaos_kill_rate: u32,
    workers: usize,
    tenant: Option<String>,
    spool: Option<String>,
    threads: usize,
    max_in_flight: usize,
    queue: usize,
    run_cap: Option<u64>,
    steps: Option<u32>,
    fault_seed: Option<u64>,
    objective: Objective,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            command: argv.first().cloned().ok_or("missing command")?,
            bench: None,
            arch: "broadwell".to_string(),
            k: 300,
            x: 24,
            seed: 42,
            loop_name: None,
            out: None,
            checkpoint_dir: None,
            chaos_kill_seed: None,
            chaos_kill_rate: 25,
            workers: 0,
            tenant: None,
            spool: None,
            threads: 4,
            max_in_flight: 8,
            queue: 16,
            run_cap: None,
            steps: None,
            fault_seed: None,
            objective: Objective::Time,
        };
        let mut it = argv[1..].iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--arch" => args.arch = it.next().ok_or("--arch needs a value")?.clone(),
                "--k" => {
                    args.k = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|k| (2..=MAX_BUDGET).contains(k))
                        .ok_or_else(|| format!("--k needs a sample budget in [2, {MAX_BUDGET}]"))?
                }
                "--x" => {
                    args.x = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|x| *x >= 1)
                        .ok_or("--x needs a focus width >= 1")?
                }
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--seed needs a number")?
                }
                "--loop" => args.loop_name = Some(it.next().ok_or("--loop needs a name")?.clone()),
                "--out" => args.out = Some(it.next().ok_or("--out needs a path")?.clone()),
                "--checkpoint-dir" => {
                    args.checkpoint_dir =
                        Some(it.next().ok_or("--checkpoint-dir needs a path")?.clone())
                }
                "--chaos-kill-seed" => {
                    args.chaos_kill_seed = Some(
                        it.next()
                            .and_then(|s| s.parse().ok())
                            .ok_or("--chaos-kill-seed needs a number")?,
                    )
                }
                "--chaos-kill-rate" => {
                    args.chaos_kill_rate = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|r| *r <= 100)
                        .ok_or("--chaos-kill-rate needs a percentage 0..=100")?
                }
                "--workers" => {
                    args.workers = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|w| *w >= 1)
                        .ok_or("--workers needs a count >= 1")?
                }
                "--tenant" => args.tenant = Some(it.next().ok_or("--tenant needs a name")?.clone()),
                "--spool" => args.spool = Some(it.next().ok_or("--spool needs a path")?.clone()),
                "--threads" => {
                    args.threads = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|t| *t >= 1)
                        .ok_or("--threads needs a count >= 1")?
                }
                "--max-in-flight" => {
                    args.max_in_flight = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|n| *n >= 1)
                        .ok_or("--max-in-flight needs a count >= 1")?
                }
                "--queue" => {
                    args.queue = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--queue needs a count")?
                }
                "--run-cap" => {
                    args.run_cap = Some(
                        it.next()
                            .and_then(|s| s.parse().ok())
                            .ok_or("--run-cap needs a number")?,
                    )
                }
                "--steps" => {
                    args.steps = Some(
                        it.next()
                            .and_then(|s| s.parse().ok())
                            .filter(|s| *s >= 1)
                            .ok_or("--steps needs a count >= 1")?,
                    )
                }
                "--fault-seed" => {
                    args.fault_seed = Some(
                        it.next()
                            .and_then(|s| s.parse().ok())
                            .ok_or("--fault-seed needs a number")?,
                    )
                }
                "--objective" => {
                    args.objective = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--objective needs time | code-bytes | weighted:W | pareto")?
                }
                other if other.starts_with("--") => {
                    return Err(format!("unknown option {other}"));
                }
                bench => args.bench = Some(bench.to_string()),
            }
        }
        Ok(args)
    }

    fn architecture(&self) -> Result<Architecture, String> {
        funcytuner::tuning::server::arch_by_name(&self.arch).ok_or_else(|| {
            format!(
                "unknown architecture {} (opteron|sandybridge|broadwell|skylake)",
                self.arch
            )
        })
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.bench.as_ref().ok_or("missing benchmark name")?;
        workload_by_name(name).ok_or_else(|| format!("unknown benchmark {name}; see `ftune list`"))
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" {
        help();
        return;
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ftune: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.command.as_str() {
        "list" => cmd_list(),
        "profile" => cmd_profile(&args),
        "tune" => cmd_tune(&args),
        "critical" => cmd_critical(&args),
        "compare" => cmd_compare(&args),
        "cost" => cmd_cost(&args),
        "importance" => cmd_importance(&args),
        "flags" => cmd_flags(),
        "export" => cmd_export(&args),
        "tune-file" => cmd_tune_file(&args),
        "optreport" => cmd_optreport(&args),
        "collect" => cmd_collect(&args),
        "search" => cmd_search(&args),
        "supervise" => cmd_supervise(&args),
        "submit" => cmd_submit(&args),
        "serve" => cmd_serve(&args),
        "worker" => cmd_worker(),
        other => Err(format!("unknown command {other}")),
    };
    if let Err(e) = result {
        eprintln!("ftune: {e}");
        std::process::exit(2);
    }
}

fn help() {
    println!(
        "ftune — per-loop compiler-flag auto-tuning (FuncyTuner reproduction)\n\n\
         commands:\n\
           list                         benchmarks and platforms\n\
           profile <bench>              -O3 baseline profile + roofline\n\
           tune <bench>                 run Random/FR/G/CFR and report speedups\n\
           critical <bench> --loop L    critical-flag elimination for loop L\n\
           compare <bench>              CFR vs OpenTuner/COBAYN/PGO\n\
           cost <bench>                 tuning-overhead ledger\n\
           importance <bench> --loop L  which flags explain a loop's time\n\
           flags                        the 33-flag search space\n\
           export <bench>               dump a benchmark's program model as JSON\n\
           tune-file <model.json>       tune a custom program model\n\
           optreport <bench> --loop L   O3-vs-CFR optimization reports\n\
           collect <bench> --out F      run the K-sample collection, checkpoint it\n\
           search <checkpoint>          re-run CFR from a saved collection\n\
           supervise <bench>            crash-safe campaign under a WAL journal\n\
           submit <bench>               spool a campaign for the daemon (--tenant, --spool)\n\
           serve                        run every spooled campaign as a multi-tenant daemon\n\
           worker                       evaluation worker (spawned by tune --workers)\n\n\
         options: --arch A  --k N  --x N  --seed S  --loop NAME  --out PATH\n\
                  --objective O (time | code-bytes | weighted:W | pareto winner selection)\n\
                  --checkpoint-dir DIR  --chaos-kill-seed S  --chaos-kill-rate PCT\n\
                  --workers N (shard tune evaluations across N worker processes)\n\
                  --tenant NAME  --spool DIR  --steps N  --run-cap N  --fault-seed S\n\
                  --threads N  --max-in-flight N  --queue N (serve admission bounds)"
    );
}

fn cmd_list() -> Result<(), String> {
    println!("benchmarks (Table 1):");
    for w in suite() {
        println!(
            "  {:<11} {:<12} {:>7} LOC  {}",
            w.meta.name,
            w.meta.language,
            format!("{}k", w.meta.loc_k),
            w.meta.domain
        );
    }
    println!("\nplatforms (Table 2): opteron, sandybridge, broadwell");
    println!("extension platform:  skylake (AVX-512 with license throttling)");
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let arch = args.architecture()?;
    let w = args.workload()?;
    let input = w.tuning_input(arch.name);
    let ir = w.instantiate(input);
    let compiler = Compiler::icc(arch.target);
    let (outlined, report) = outline_with_defaults(&ir, &compiler, &arch, input.steps, args.seed);
    println!(
        "{} on {} ({} × {} steps): -O3 end-to-end {:.2} s, J = {} hot loops\n",
        w.meta.name, arch.name, input.label, input.steps, report.end_to_end_s, outlined.j
    );
    println!("{:<18} {:>10} {:>8}", "loop", "secs", "share");
    for (_, name, secs, frac) in &report.shares {
        let marker = if *frac >= 0.01 {
            ""
        } else {
            "   (folded: < 1%)"
        };
        println!("{name:<18} {secs:>10.3} {:>7.2}%{marker}", frac * 100.0);
    }
    println!("\nroofline on {}:", arch.name);
    let rows = roofline::analyze(&outlined.ir, &arch);
    print!("{}", roofline::render(&rows));
    println!(
        "\n{:.0}% of hot loops are memory-bound",
        roofline::memory_bound_fraction(&rows) * 100.0
    );
    Ok(())
}

fn cmd_tune(args: &Args) -> Result<(), String> {
    let arch = args.architecture()?;
    let w = args.workload()?;
    println!(
        "tuning {} on {} with K = {}, X = {} (seed {}, objective {})...",
        w.meta.name, arch.name, args.k, args.x, args.seed, args.objective
    );
    let mut tuner = Tuner::new(&w, &arch)
        .budget(args.k)
        .focus(args.x)
        .seed(args.seed)
        .objective(args.objective);
    if args.workers > 0 {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate ftune: {e}"))?;
        println!(
            "sharding evaluations across {} worker processes",
            args.workers
        );
        tuner = tuner.process_workers(args.workers, exe);
    }
    let run = tuner.run();
    if let Some(plane) = run.ctx.remote_plane() {
        println!(
            "distributed plane: {} workers, {} batches, {} spawns",
            plane.workers(),
            plane.batches(),
            plane.spawns()
        );
    }
    println!("\n-O3 baseline: {:.2} s", run.baseline_time);
    println!("{:<14} {:>9} {:>8}", "algorithm", "time (s)", "speedup");
    for (name, t, s) in [
        ("Random", run.random.best_time, run.random.speedup()),
        ("FR", run.fr.best_time, run.fr.speedup()),
        (
            "G.realized",
            run.greedy.realized.best_time,
            run.greedy.realized.speedup(),
        ),
        ("CFR", run.cfr.best_time, run.cfr.speedup()),
        (
            "G.Independent",
            run.greedy.independent_time,
            run.greedy.independent_speedup,
        ),
    ] {
        println!("{name:<14} {t:>9.3} {s:>7.3}x");
    }
    if run.cfr.best_code_bytes.is_finite() {
        println!(
            "\nCFR winner: {:.3} s, {:.0} code bytes",
            run.cfr.best_time, run.cfr.best_code_bytes
        );
    }
    if args.objective == Objective::Pareto && !run.cfr.front.is_empty() {
        println!("\nPareto front (non-dominated candidates):");
        println!("{:<7} {:>9} {:>12}", "index", "time (s)", "code (B)");
        for p in &run.cfr.front {
            println!("{:<7} {:>9.3} {:>12.0}", p.index, p.time, p.code_bytes);
        }
    }
    println!(
        "\nCFR converged within {} of {} evaluations",
        run.cfr.converged_at(0.01),
        run.cfr.evaluations
    );
    println!("\nper-loop winning flags:");
    for (j, m) in run.ctx.ir.modules.iter().enumerate() {
        println!(
            "  {:<16} {}",
            m.name,
            run.cfr.assignment[j].render(run.ctx.space())
        );
    }
    Ok(())
}

fn cmd_critical(args: &Args) -> Result<(), String> {
    let arch = args.architecture()?;
    let w = args.workload()?;
    let loop_name = args
        .loop_name
        .as_ref()
        .ok_or("critical needs --loop NAME")?;
    let run = Tuner::new(&w, &arch)
        .budget(args.k)
        .focus(args.x)
        .seed(args.seed)
        .run();
    let module = run
        .ctx
        .ir
        .module_by_name(loop_name)
        .ok_or_else(|| format!("loop {loop_name} not among outlined hot loops"))?
        .id;
    println!(
        "critical-flag elimination for {loop_name} (CFR end-to-end {:.3}x)...",
        run.cfr.speedup()
    );
    let cf = critical_flags(&run.ctx, &run.cfr.assignment, module, 0.004, args.seed);
    if cf.rendered.is_empty() {
        println!("no critical flags: the -O3 defaults suffice for this loop");
    } else {
        for f in &cf.rendered {
            println!("  critical: {f}");
        }
    }
    println!(
        "{} active flags reduced to {} over {} rounds",
        run.cfr.assignment[module].active_flags(),
        cf.reduced_cv.active_flags(),
        cf.rounds
    );
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let arch = args.architecture()?;
    let w = args.workload()?;
    println!(
        "comparing against the state of the art on {} (reduced budgets)...",
        arch.name
    );
    let run = Tuner::new(&w, &arch)
        .budget(args.k)
        .focus(args.x)
        .seed(args.seed)
        .run();
    let cobayn = funcytuner::baselines::cobayn::train_default(&arch, 0.08, args.seed);
    let rows = [
        ("CFR", run.cfr.speedup()),
        (
            "OpenTuner",
            opentuner_search(&run.ctx, args.k, args.seed ^ 1).speedup(),
        ),
        (
            "COBAYN (static)",
            cobayn
                .tune(&run.ctx, FeatureMode::Static, args.k, args.seed ^ 2)
                .speedup(),
        ),
        ("PGO", pgo_tune(&run.ctx, args.seed ^ 3).result.speedup()),
        (
            "CE",
            combined_elimination(&run.ctx, args.seed ^ 4).speedup(),
        ),
        ("Random", run.random.speedup()),
    ];
    println!("\n{:<16} {:>8}", "approach", "speedup");
    for (name, s) in rows {
        println!("{name:<16} {s:>7.3}x");
    }
    Ok(())
}

fn cmd_cost(args: &Args) -> Result<(), String> {
    let arch = args.architecture()?;
    let w = args.workload()?;
    let input = w.tuning_input(arch.name);
    let ir = w.instantiate(input);
    let compiler = Compiler::icc(arch.target);
    let (outlined, _) = outline_with_defaults(&ir, &compiler, &arch, input.steps, args.seed);
    let fresh = || {
        EvalContext::new(
            outlined.ir.clone(),
            Compiler::icc(arch.target),
            arch.clone(),
            input.steps,
            args.seed,
        )
    };
    println!(
        "{:<10} {:>7} {:>10} {:>11} {:>14}",
        "approach", "runs", "compiles", "obj reuses", "machine hours"
    );
    {
        let ctx = fresh();
        let _ = random_search(&ctx, args.k, args.seed);
        let c = ctx.cost();
        println!(
            "{:<10} {:>7} {:>10} {:>11} {:>14.2}",
            "Random",
            c.runs,
            c.object_compiles,
            c.object_reuses,
            c.machine_hours()
        );
    }
    {
        let ctx = fresh();
        let data = collect(&ctx, args.k, args.seed);
        let _ = funcytuner::tuning::cfr(&ctx, &data, args.x, args.k, args.seed ^ 1);
        let c = ctx.cost();
        println!(
            "{:<10} {:>7} {:>10} {:>11} {:>14.2}",
            "CFR",
            c.runs,
            c.object_compiles,
            c.object_reuses,
            c.machine_hours()
        );
    }
    println!("\npaper §4.3: Random/G ≈ 1.5 days, CFR ≈ 3 days per benchmark on real testbeds");
    Ok(())
}

fn cmd_optreport(args: &Args) -> Result<(), String> {
    use funcytuner::compiler::report_module;
    let arch = args.architecture()?;
    let w = args.workload()?;
    let loop_name = args
        .loop_name
        .as_ref()
        .ok_or("optreport needs --loop NAME")?;
    let run = Tuner::new(&w, &arch)
        .budget(args.k)
        .focus(args.x)
        .seed(args.seed)
        .run();
    let ctx = &run.ctx;
    let module = ctx
        .ir
        .module_by_name(loop_name)
        .ok_or_else(|| format!("loop {loop_name} not among outlined hot loops"))?;
    println!("=== at -O3 ===");
    print!(
        "{}",
        report_module(&ctx.compiler.compile_module(module, &ctx.space().baseline()))
    );
    println!("\n=== with CFR's winning flags (pre-link) ===");
    print!(
        "{}",
        report_module(
            &ctx.compiler
                .compile_module(module, &run.cfr.assignment[module.id])
        )
    );
    println!("\n=== link interference of the CFR executable ===");
    let linked = link(
        ctx.compiler.compile_mixed(&ctx.ir, &run.cfr.assignment),
        &ctx.ir,
        &ctx.arch,
    );
    print!("{}", linked.explain());
    Ok(())
}

fn cmd_export(args: &Args) -> Result<(), String> {
    let w = args.workload()?;
    let arch = args.architecture()?;
    let ir = w.instantiate(w.tuning_input(arch.name));
    let json = serde_json::to_string_pretty(&ir).map_err(|e| e.to_string())?;
    println!("{json}");
    Ok(())
}

fn cmd_tune_file(args: &Args) -> Result<(), String> {
    let path = args.bench.as_ref().ok_or("tune-file needs a JSON path")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let ir: ProgramIr = serde_json::from_str(&json).map_err(|e| format!("parse {path}: {e}"))?;
    ir.validate().map_err(|e| format!("{path}: {e}"))?;
    let arch = args.architecture()?;
    let compiler = Compiler::icc(arch.target);
    let steps = 5;
    println!(
        "tuning custom program `{}` ({} modules) on {} with K = {}...",
        ir.name,
        ir.len(),
        arch.name,
        args.k
    );
    let (outlined, report) = outline_with_defaults(&ir, &compiler, &arch, steps, args.seed);
    println!(
        "-O3 baseline {:.3} s; outlined J = {} hot loops",
        report.end_to_end_s, outlined.j
    );
    let ctx = EvalContext::new(
        outlined.ir,
        Compiler::icc(arch.target),
        arch.clone(),
        steps,
        args.seed,
    );
    let data = collect(&ctx, args.k, args.seed);
    let baseline = ctx.baseline_time(10);
    let r = funcytuner::tuning::cfr(&ctx, &data, args.x, args.k, args.seed ^ 1);
    let g = funcytuner::tuning::greedy(&ctx, &data, baseline);
    println!(
        "CFR {:.3}x | G.realized {:.3}x | G.Independent {:.3}x over -O3",
        r.speedup(),
        g.realized.speedup(),
        g.independent_speedup
    );
    println!("\nper-module winning flags:");
    for (j, m) in ctx.ir.modules.iter().enumerate() {
        println!("  {:<16} {}", m.name, r.assignment[j].render(ctx.space()));
    }
    Ok(())
}

fn cmd_flags() -> Result<(), String> {
    let space = FlagSpace::icc();
    println!(
        "the ICC-like optimization space: {} flags, |COS| = {:.2e} points\n",
        space.len(),
        space.size()
    );
    println!("{:<24} {:>6}  semantics", "flag", "values");
    for f in space.flags() {
        println!("{:<24} {:>6}  {}", f.name, f.arity(), f.help);
    }
    println!("\nfixed prefix: {}", space.fixed_flags().join(" "));
    Ok(())
}

fn cmd_importance(args: &Args) -> Result<(), String> {
    let arch = args.architecture()?;
    let w = args.workload()?;
    let loop_name = args
        .loop_name
        .as_ref()
        .ok_or("importance needs --loop NAME")?;
    let ctx = outlined_ctx(&w, arch.clone(), None, args.seed);
    let module = ctx
        .ir
        .module_by_name(loop_name)
        .ok_or_else(|| format!("loop {loop_name} not among outlined hot loops"))?
        .id;
    println!(
        "collecting per-loop data for {} on {} (K = {})...",
        w.meta.name, arch.name, args.k
    );
    let data = collect(&ctx, args.k, args.seed);
    let rows = funcytuner::tuning::flag_importance(&data, module, ctx.space());
    println!("\nflag importance for `{loop_name}` (variance explained):");
    print!("{}", funcytuner::tuning::importance::render(&rows, 10));
    Ok(())
}

/// The evaluation context of `w`'s tuning input on `arch`, outlined at
/// `steps` time-steps (the input's own when `None`): the recipe
/// `importance`, `collect` and `search` share.
fn outlined_ctx(w: &Workload, arch: Architecture, steps: Option<u32>, seed: u64) -> EvalContext {
    let input = w.tuning_input(arch.name);
    let steps = steps.unwrap_or(input.steps);
    let ir = w.instantiate(input);
    let compiler = Compiler::icc(arch.target);
    let (outlined, _) = outline_with_defaults(&ir, &compiler, &arch, steps, seed);
    EvalContext::new(outlined.ir, compiler, arch, steps, seed)
}

fn cmd_collect(args: &Args) -> Result<(), String> {
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| "collection.ftck".to_string());
    let w = args.workload()?;
    let ctx = outlined_ctx(&w, args.architecture()?, None, args.seed);
    println!(
        "collecting per-loop data: {} on {} (K = {}, J = {})...",
        w.meta.name,
        ctx.arch.name,
        args.k,
        ctx.modules() - 1
    );
    let data = collect(&ctx, args.k, args.seed);
    let bytes = funcytuner::tuning::Checkpoint::capture(&ctx, data).to_bytes();
    std::fs::write(&out, &bytes).map_err(|e| format!("write {out}: {e}"))?;
    println!("checkpoint written to {out} ({} bytes)", bytes.len());
    println!("re-run the search phase with: ftune search {out}");
    Ok(())
}

fn cmd_search(args: &Args) -> Result<(), String> {
    let path = args
        .bench
        .as_ref()
        .ok_or("search needs a checkpoint path")?;
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let cp =
        funcytuner::tuning::Checkpoint::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "checkpoint: {} on {} (K = {}, {} modules)",
        cp.program,
        cp.arch,
        cp.data.k(),
        cp.module_names.len()
    );
    let arch = funcytuner::tuning::server::arch_by_name(&cp.arch)
        .ok_or_else(|| format!("unknown architecture {} in checkpoint", cp.arch))?;
    let w = workload_by_name(&cp.program)
        .ok_or_else(|| format!("unknown benchmark {} in checkpoint", cp.program))?;
    let ctx = outlined_ctx(&w, arch, Some(cp.steps), args.seed);
    let k = cp.data.k();
    let data = cp.restore(&ctx).map_err(|e| e.to_string())?;
    let baseline = ctx.baseline_time(10);
    let g = funcytuner::tuning::greedy(&ctx, &data, baseline);
    let r = funcytuner::tuning::cfr(&ctx, &data, args.x, k, args.seed ^ 1);
    println!(
        "CFR {:.3}x | G.realized {:.3}x | G.Independent {:.3}x over -O3 ({:.2} s)",
        r.speedup(),
        g.realized.speedup(),
        g.independent_speedup,
        baseline
    );
    println!("collection reused: no new instrumented runs were needed (the paper's 3-day phase)");
    Ok(())
}

fn cmd_supervise(args: &Args) -> Result<(), String> {
    use funcytuner::tuning::{ChaosPolicy, Supervisor, SupervisorConfig};
    let arch = args.architecture()?;
    let w = args.workload()?;
    let dir = std::path::PathBuf::from(
        args.checkpoint_dir
            .clone()
            .unwrap_or_else(|| "ft-checkpoints".to_string()),
    );
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let journal = dir.join(format!(
        "{}-{}-seed{}.wal",
        w.meta.name,
        arch.name.replace(' ', "-").to_lowercase(),
        args.seed
    ));
    let chaos = match args.chaos_kill_seed {
        None => ChaosPolicy::Off,
        Some(seed) => ChaosPolicy::Seeded {
            seed,
            rate_percent: args.chaos_kill_rate as u8,
            max_kills: 16,
        },
    };
    println!(
        "supervising {} on {} (K = {}, X = {}, seed {})\n  journal: {}{}",
        w.meta.name,
        arch.name,
        args.k,
        args.x,
        args.seed,
        journal.display(),
        match args.chaos_kill_seed {
            Some(s) => format!(
                "\n  chaos: seeded kills (seed {s}, {}% per boundary)",
                args.chaos_kill_rate
            ),
            None => String::new(),
        }
    );
    let supervised = Supervisor::new(&journal, || {
        Tuner::new(&w, &arch)
            .budget(args.k)
            .focus(args.x)
            .seed(args.seed)
    })
    .config(SupervisorConfig {
        sleep: true,
        ..SupervisorConfig::default()
    })
    .chaos(chaos)
    .run()
    .map_err(|e| e.to_string())?;
    let report = &supervised.report;
    println!(
        "\ncampaign finished: {} attempt(s), {} chaos kill(s), {} checkpoint(s) written",
        report.attempts, report.kills, report.checkpoints_written
    );
    if report.kills > 0 {
        println!(
            "  resumed from journal records {:?}, backoffs {:?} ms",
            report.resumed_from, report.backoffs_ms
        );
    }
    let run = &supervised.run;
    println!(
        "  canonical digest {:016x} (journal pins the same digest)",
        run.canonical_digest()
    );
    println!("\n-O3 baseline: {:.2} s", run.baseline_time);
    println!("{:<14} {:>9} {:>8}", "algorithm", "time (s)", "speedup");
    for (name, t, s) in [
        ("Random", run.random.best_time, run.random.speedup()),
        ("FR", run.fr.best_time, run.fr.speedup()),
        (
            "G.realized",
            run.greedy.realized.best_time,
            run.greedy.realized.speedup(),
        ),
        ("CFR", run.cfr.best_time, run.cfr.speedup()),
    ] {
        println!("{name:<14} {t:>9.3} {s:>7.3}x");
    }
    Ok(())
}

/// `ftune submit <bench> --tenant NAME --spool DIR [...]`: encode a
/// campaign spec in the canonical wire format and spool it for a
/// later `ftune serve`. The client half of the campaign service.
fn cmd_submit(args: &Args) -> Result<(), String> {
    use funcytuner::tuning::CampaignSpec;
    let tenant = args.tenant.as_ref().ok_or("submit needs --tenant NAME")?;
    let spool = args.spool.as_ref().ok_or("submit needs --spool DIR")?;
    let bench = args.bench.as_ref().ok_or("missing benchmark name")?;
    // Resolve both names now so a typo fails at submission, not at
    // the daemon's admission check hours later.
    args.workload()?;
    args.architecture()?;
    let mut spec = CampaignSpec::new(bench.clone(), args.arch.clone());
    spec.budget = args.k;
    spec.focus = args.x;
    spec.seed = args.seed;
    spec.steps_cap = args.steps;
    spec.run_cap = args.run_cap;
    spec.objective = args.objective;
    if let Some(seed) = args.fault_seed {
        spec = spec.with_fault_model(funcytuner::compiler::FaultModel::testbed(seed));
    }
    std::fs::create_dir_all(spool).map_err(|e| format!("create {spool}: {e}"))?;
    let path = std::path::Path::new(spool).join(format!("{tenant}.campaign"));
    std::fs::write(&path, spec.encode()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "campaign spooled: tenant {tenant} -> {}\n  {} on {} (K = {}, X = {}, seed {}, objective {}{})",
        path.display(),
        bench,
        args.arch,
        args.k,
        args.x,
        args.seed,
        args.objective,
        match args.run_cap {
            Some(cap) => format!(", run cap {cap}"),
            None => String::new(),
        }
    );
    println!("run it with: ftune serve --spool {spool}");
    Ok(())
}

/// `ftune serve --spool DIR`: run every spooled campaign as a tenant
/// of one daemon life — shared dedup store, per-tenant WAL journals,
/// bounded admission. Re-running resumes unfinished tenants.
fn cmd_serve(args: &Args) -> Result<(), String> {
    use funcytuner::tuning::{CampaignSpec, ServerConfig, TenantOutcome, TuningServer};
    let spool = args.spool.as_ref().ok_or("serve needs --spool DIR")?;
    let dir = args
        .checkpoint_dir
        .clone()
        .unwrap_or_else(|| format!("{spool}/checkpoints"));
    let mut submissions: Vec<std::path::PathBuf> = std::fs::read_dir(spool)
        .map_err(|e| format!("read {spool}: {e}"))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "campaign"))
        .collect();
    submissions.sort();
    if submissions.is_empty() {
        return Err(format!(
            "no .campaign files in {spool}; spool one with `ftune submit`"
        ));
    }
    let mut server = TuningServer::new(
        ServerConfig::new(&dir)
            .threads(args.threads)
            .max_in_flight(args.max_in_flight)
            .queue_capacity(args.queue),
    )
    .map_err(|e| format!("create {dir}: {e}"))?
    .on_event(std::sync::Arc::new(|tenant, event| {
        println!("  [{tenant}] {event:?}");
    }));
    let mut admitted = 0usize;
    for path in &submissions {
        let tenant = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("tenant")
            .to_string();
        match std::fs::read(path)
            .map_err(|e| format!("{e}"))
            .and_then(|bytes| CampaignSpec::decode(&bytes).map_err(|e| format!("{e}")))
        {
            Err(e) => println!("  [{tenant}] rejected: {e}"),
            Ok(spec) => match server.submit(&tenant, spec) {
                Ok(()) => admitted += 1,
                Err(e) => println!("  [{tenant}] rejected: {e}"),
            },
        }
    }
    println!(
        "serving {admitted} campaign(s) on {} executor thread(s), journals in {dir}",
        args.threads
    );
    let report = server.run();
    println!("\ndaemon life {} finished:", report.generation);
    for t in &report.tenants {
        match &t.outcome {
            TenantOutcome::Done { run, digest } => println!(
                "  {:<16} done: CFR {:.3}x, digest {digest:016x}, {} runs charged, \
                 store {} hits / {} computes",
                t.name,
                run.cfr.speedup(),
                t.charged_runs,
                t.cost.object_reuses,
                t.cost.object_compiles
            ),
            TenantOutcome::BudgetExhausted { .. } => println!(
                "  {:<16} budget exhausted after {} charged runs \
                 (resubmit with a higher --run-cap to continue)",
                t.name, t.charged_runs
            ),
            TenantOutcome::Poisoned { diagnostic } => {
                println!("  {:<16} poisoned: {diagnostic}", t.name)
            }
            TenantOutcome::Killed => println!(
                "  {:<16} interrupted (re-run `ftune serve` to resume from its journal)",
                t.name
            ),
        }
    }
    Ok(())
}

/// The `ftune worker` loop: frames on stdin, frames on stdout, built
/// for being spawned by `ftune tune --workers N` (or any coordinator
/// speaking the `ft_core::remote` protocol). Prints nothing — stdout
/// belongs to the protocol.
fn cmd_worker() -> Result<(), String> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut rx = stdin.lock();
    let mut tx = stdout.lock();
    funcytuner::tuning::remote::serve(&mut rx, &mut tx).map_err(|e| format!("worker: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_defaults() {
        let a = Args::parse(&argv("tune CloverLeaf")).unwrap();
        assert_eq!(a.command, "tune");
        assert_eq!(a.bench.as_deref(), Some("CloverLeaf"));
        assert_eq!(a.arch, "broadwell");
        assert_eq!(a.k, 300);
    }

    #[test]
    fn parse_options() {
        let a = Args::parse(&argv(
            "critical swim --arch snb --k 100 --x 8 --seed 7 --loop calc1",
        ))
        .unwrap();
        assert_eq!(a.k, 100);
        assert_eq!(a.x, 8);
        assert_eq!(a.seed, 7);
        assert_eq!(a.loop_name.as_deref(), Some("calc1"));
        assert_eq!(a.architecture().unwrap().name, "Sandy Bridge");
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(Args::parse(&argv("tune --k")).is_err());
        assert!(Args::parse(&argv("tune swim --k 1")).is_err());
        assert!(Args::parse(&argv("tune swim --k 1099511627776")).is_err());
        assert!(Args::parse(&argv(&format!("tune swim --k {}", MAX_BUDGET + 1))).is_err());
        assert_eq!(
            Args::parse(&argv(&format!("tune swim --k {MAX_BUDGET}")))
                .unwrap()
                .k,
            MAX_BUDGET
        );
        assert!(Args::parse(&argv("tune swim --x 0")).is_err());
        assert!(Args::parse(&argv("tune --bogus 1")).is_err());
        assert!(Args::parse(&[]).is_err());
        let a = Args::parse(&argv("tune X --arch m1")).unwrap();
        assert!(a.architecture().is_err());
        assert!(a.workload().is_err());
    }

    #[test]
    fn all_architecture_aliases_resolve() {
        for (alias, name) in [
            ("opteron", "Opteron"),
            ("amd", "Opteron"),
            ("snb", "Sandy Bridge"),
            ("sandy-bridge", "Sandy Bridge"),
            ("bdw", "Broadwell"),
            ("BROADWELL", "Broadwell"),
        ] {
            let a = Args::parse(&argv(&format!("tune swim --arch {alias}"))).unwrap();
            assert_eq!(a.architecture().unwrap().name, name, "{alias}");
        }
    }

    #[test]
    fn parse_supervise_options() {
        let a = Args::parse(&argv(
            "supervise swim --checkpoint-dir ckpt --chaos-kill-seed 99 --chaos-kill-rate 40",
        ))
        .unwrap();
        assert_eq!(a.command, "supervise");
        assert_eq!(a.checkpoint_dir.as_deref(), Some("ckpt"));
        assert_eq!(a.chaos_kill_seed, Some(99));
        assert_eq!(a.chaos_kill_rate, 40);
        assert!(Args::parse(&argv("supervise swim --chaos-kill-rate 101")).is_err());
        assert!(Args::parse(&argv("supervise swim --chaos-kill-seed nope")).is_err());
    }

    #[test]
    fn parse_submit_and_serve_options() {
        let a = Args::parse(&argv(
            "submit swim --tenant team-a --spool spool --run-cap 500 --steps 4 --fault-seed 7",
        ))
        .unwrap();
        assert_eq!(a.command, "submit");
        assert_eq!(a.tenant.as_deref(), Some("team-a"));
        assert_eq!(a.spool.as_deref(), Some("spool"));
        assert_eq!(a.run_cap, Some(500));
        assert_eq!(a.steps, Some(4));
        assert_eq!(a.fault_seed, Some(7));

        let a = Args::parse(&argv(
            "serve --spool spool --threads 8 --max-in-flight 2 --queue 3",
        ))
        .unwrap();
        assert_eq!(a.command, "serve");
        assert_eq!(a.threads, 8);
        assert_eq!(a.max_in_flight, 2);
        assert_eq!(a.queue, 3);

        assert!(Args::parse(&argv("serve --threads 0")).is_err());
        assert!(Args::parse(&argv("submit swim --run-cap nope")).is_err());
        assert!(Args::parse(&argv("submit swim --steps 0")).is_err());
    }

    #[test]
    fn parse_objective_options() {
        let a = Args::parse(&argv("tune swim")).unwrap();
        assert_eq!(a.objective, Objective::Time);
        let a = Args::parse(&argv("tune swim --objective pareto")).unwrap();
        assert_eq!(a.objective, Objective::Pareto);
        let a = Args::parse(&argv("tune swim --objective code-bytes")).unwrap();
        assert_eq!(a.objective, Objective::CodeBytes);
        let a = Args::parse(&argv("tune swim --objective weighted:0.25")).unwrap();
        assert_eq!(a.objective, Objective::Weighted { w: 0.25 });
        assert!(Args::parse(&argv("tune swim --objective bogus")).is_err());
        assert!(Args::parse(&argv("tune swim --objective weighted:1.5")).is_err());
        assert!(Args::parse(&argv("tune swim --objective")).is_err());
    }

    #[test]
    fn workload_resolution() {
        let a = Args::parse(&argv("profile AMG")).unwrap();
        assert_eq!(a.workload().unwrap().meta.name, "AMG");
    }
}
