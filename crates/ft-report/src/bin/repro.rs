//! Command-line driver regenerating the paper's tables and figures.
//!
//! ```text
//! repro --list                 # show experiment ids
//! repro fig5c table3           # run selected experiments (quick mode)
//! repro all --full             # the paper's K=1000 protocol
//! repro all --json out/        # also dump JSON artifacts
//! repro fig6 --seed 7 --k 400  # override parameters
//! ```

use ft_core::MAX_BUDGET;
use ft_report::render;
use ft_report::{all_ids, run_experiment, ReproConfig};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        print_help();
        return;
    }
    if args.iter().any(|a| a == "--list") {
        for id in all_ids() {
            println!("{id}");
        }
        return;
    }

    let mut cfg = if args.iter().any(|a| a == "--full") {
        ReproConfig::full()
    } else {
        ReproConfig::quick()
    };
    let mut json_dir: Option<String> = None;
    let mut md_dir: Option<String> = None;
    let mut compare_paper = false;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => {}
            "--json" => {
                json_dir = Some(
                    it.next()
                        .unwrap_or_else(|| die("--json needs a directory"))
                        .clone(),
                );
            }
            "--md" => {
                md_dir = Some(
                    it.next()
                        .unwrap_or_else(|| die("--md needs a directory"))
                        .clone(),
                );
            }
            "--compare" => compare_paper = true,
            "--seed" => cfg.seed = parse(it.next(), "--seed"),
            "--k" => cfg.k = parse(it.next(), "--k"),
            "--x" => cfg.x = parse(it.next(), "--x"),
            "--fault-compile" => cfg.fault_compile = parse_rate(it.next(), "--fault-compile"),
            "--fault-crash" => cfg.fault_crash = parse_rate(it.next(), "--fault-crash"),
            "--fault-hang" => cfg.fault_hang = parse_rate(it.next(), "--fault-hang"),
            "--fault-outlier" => cfg.fault_outlier = parse_rate(it.next(), "--fault-outlier"),
            "--cfr-iterative" => cfg.cfr_iterative = true,
            "--cache-capacity" => cfg.cache_capacity = Some(parse(it.next(), "--cache-capacity")),
            "all" => ids.extend(all_ids().iter().map(|s| s.to_string())),
            other if other.starts_with("--") => die(&format!("unknown option {other}")),
            other => {
                if !all_ids().contains(&other) {
                    die(&format!("unknown experiment {other}; try --list"));
                }
                ids.push(other.to_string());
            }
        }
    }
    if ids.is_empty() {
        die("no experiments selected; try `repro all` or --list");
    }
    if !(2..=MAX_BUDGET).contains(&cfg.k) {
        die(&format!(
            "--k needs a sample budget in [2, {MAX_BUDGET}], got {}",
            cfg.k
        ));
    }
    if cfg.x == 0 {
        die("--x needs a focus width of at least 1");
    }
    ids.dedup();
    for dir in [&json_dir, &md_dir].into_iter().flatten() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("mkdir {dir}: {e}")));
    }
    for id in &ids {
        eprintln!(
            "[repro] running {id} (K={}, X={}, seed={})...",
            cfg.k, cfg.x, cfg.seed
        );
        let artifact = run_experiment(id, &cfg);
        println!("{}", render::render(&artifact));
        if compare_paper {
            let rows = ft_report::compare(&artifact);
            println!("{}", ft_report::paper::render_comparison(id, &rows));
        }
        if let Some(dir) = &md_dir {
            let path = format!("{dir}/{id}.md");
            std::fs::write(&path, render::render_markdown(&artifact))
                .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
            eprintln!("[repro] wrote {path}");
        }
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/{id}.json");
            let mut f = std::fs::File::create(&path)
                .unwrap_or_else(|e| die(&format!("create {path}: {e}")));
            let json = serde_json::to_string_pretty(&artifact).expect("serializable artifact");
            f.write_all(json.as_bytes())
                .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
            eprintln!("[repro] wrote {path}");
        }
    }
}

fn parse<T: std::str::FromStr>(v: Option<&String>, opt: &str) -> T {
    match v.and_then(|s| s.parse().ok()) {
        Some(x) => x,
        None => die(&format!("{opt} needs a numeric argument")),
    }
}

fn parse_rate(v: Option<&String>, opt: &str) -> f64 {
    let rate: f64 = parse(v, opt);
    if !(0.0..=1.0).contains(&rate) {
        die(&format!("{opt} needs a probability in [0, 1], got {rate}"));
    }
    rate
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn print_help() {
    println!(
        "repro — regenerate the FuncyTuner paper's tables and figures\n\n\
         usage: repro [ids...|all] [--full] [--compare] [--json DIR] [--md DIR] [--seed N] [--k N] [--x N]\n\
                repro [ids...] [--fault-compile P] [--fault-crash P] [--fault-hang P] [--fault-outlier P]\n\
                repro [ids...] [--cfr-iterative] [--cache-capacity N]\n\
                repro --list\n\n\
         Default is quick mode (reduced budget, minutes). --full runs the\n\
         paper's K=1000 protocol. --k takes a sample budget in\n\
         [2, {MAX_BUDGET}] and --x a focus width of at least 1; anything\n\
         else exits 2. The --fault-* probabilities inject\n\
         deterministic toolchain faults (seeded off --seed); the harness\n\
         retries, quarantines, and reports them in the overhead table.\n\
         --cfr-iterative adds the iterative-CFR extension rows to the\n\
         overhead table, including the variant that re-collects\n\
         per-loop timers under its non-uniform incumbent.\n\
         --cache-capacity bounds every context's object/link store to N\n\
         entries (LRU eviction). It only moves the cost counters —\n\
         results are bit-identical (see the cache_equivalence suite)."
    );
}
