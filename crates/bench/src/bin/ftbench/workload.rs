//! The five workloads: the campaign specs each derives from the
//! workload seed, the per-seed reference results every timed
//! operation is checked against, one timed operation, and the
//! cold-start prefix that `setup_s` times.
//!
//! Why these five: `campaign` is the evaluation engine's steady state
//! (batched compile → link → execute) and bypasses every layer above
//! it; `faulted` drives the same engine down its per-candidate
//! resilient path; `supervised` adds segment re-entry, checkpoints and
//! the WAL; `workers` adds the wire codec and sharded dispatch; and
//! `daemon` adds admission, queueing and cross-tenant dedup on short
//! campaigns. A change to one layer should move its workload and read
//! "no change" on the workloads that bypass it.

use ft_compiler::FaultModel;
use ft_core::{
    CampaignSpec, ProgressEvent, ServerConfig, Supervisor, TenantOutcome, Tuner, TuningRun,
    TuningServer,
};
use ft_flags::rng::{derive_seed, derive_seed_idx};
use ft_machine::Architecture;
use ft_workloads::{workload_by_name, Workload};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The workloads, in the order `--workload all` runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Campaign,
    Faulted,
    Supervised,
    Workers,
    Daemon,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Campaign,
        Kind::Faulted,
        Kind::Supervised,
        Kind::Workers,
        Kind::Daemon,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Campaign => "campaign",
            Kind::Faulted => "faulted",
            Kind::Supervised => "supervised",
            Kind::Workers => "workers",
            Kind::Daemon => "daemon",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the timed operation is a bare serial `Tuner::run`, so
    /// its reference must come from the overlapped schedule instead.
    fn bare(self) -> bool {
        matches!(self, Kind::Campaign | Kind::Faulted)
    }
}

/// Sizes of one measurement. The CLI always runs [`Scale::FULL`]; the
/// tests inside the binary run [`Scale::TINY`] through the same code.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Budget K and focus X of the CloverLeaf campaigns.
    pub campaign: (usize, usize),
    /// Budget K and focus X of the swim daemon tenants.
    pub tenant: (usize, usize),
    /// Distinct campaign seeds per run; the daemon submits each twice.
    pub seeds: usize,
    /// Cold starts whose median is `setup_s`.
    pub cold_starts: usize,
    /// Operations run and discarded before timing.
    pub warmup: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        campaign: (1000, 32),
        tenant: (120, 8),
        seeds: 8,
        cold_starts: 100,
        warmup: 5,
    };
    #[cfg(test)]
    pub const TINY: Scale = Scale {
        campaign: (20, 4),
        tenant: (16, 4),
        seeds: 2,
        cold_starts: 2,
        warmup: 1,
    };
}

/// Every campaign runs at most 4 time-steps per execution (the
/// repository's quick-reproduction cap).
pub const STEPS_CAP: u32 = 4;

/// What a campaign of one seed must produce, computed once per run by
/// a path other than the timed one.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub digest: u64,
    /// CFR speedup over `-O3`.
    pub speedup: f64,
    /// Charged runs of the serial campaign.
    pub runs: u64,
    /// Objects the serial campaign compiled.
    pub object_compiles: u64,
}

/// A private scratch directory under the working directory (the
/// benchmark writes nothing outside the tree it runs in), removed on
/// drop.
pub struct Scratch {
    dir: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    pub fn new() -> Result<Scratch, String> {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let dir = PathBuf::from(".ftbench-tmp").join(format!(
            "{}-{}",
            std::process::id(),
            RUNS.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch directory: {e}"))?;
        Ok(Scratch {
            dir,
            next: AtomicU64::new(0),
        })
    }

    /// A fresh, unused path inside the scratch directory.
    pub fn path(&self, label: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!("{label}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leaves the shared parent in place while another run uses it.
        let _ = std::fs::remove_dir(".ftbench-tmp");
    }
}

/// Removes a WAL file or a daemon directory; a leftover only costs
/// space inside the scratch directory, which is removed at exit.
pub fn remove(path: &Path) {
    let _ = std::fs::remove_file(path).or_else(|_| std::fs::remove_dir_all(path));
}

/// One workload, ready to run: its specs, references and scratch space.
pub struct Env {
    pub kind: Kind,
    pub scale: Scale,
    pub arch: Architecture,
    pub workload: Workload,
    pub seeds: Vec<u64>,
    /// Per-seed references; empty until [`Env::compute_references`].
    pub refs: Vec<Reference>,
    pub scratch: Scratch,
}

impl Env {
    /// Derives the seeds from the workload seed.
    pub fn new(kind: Kind, seed: u64, scale: Scale, scratch: Scratch) -> Result<Env, String> {
        let bench = if kind == Kind::Daemon {
            "swim"
        } else {
            "CloverLeaf"
        };
        let root = derive_seed(seed, kind.name());
        Ok(Env {
            kind,
            scale,
            arch: Architecture::broadwell(),
            workload: workload_by_name(bench).ok_or("workload missing from the suite")?,
            seeds: (0..scale.seeds as u64)
                .map(|i| derive_seed_idx(root, i))
                .collect(),
            refs: Vec::new(),
            scratch,
        })
    }

    /// Budget and focus of this workload's campaigns.
    pub fn size(&self) -> (usize, usize) {
        if self.kind == Kind::Daemon {
            self.scale.tenant
        } else {
            self.scale.campaign
        }
    }

    /// The injected-fault model of seed `i` (all-zero except `faulted`).
    pub fn faults(&self, i: usize) -> FaultModel {
        match self.kind {
            Kind::Faulted => FaultModel::testbed(derive_seed(self.seeds[i], "faults")),
            _ => FaultModel::zero(),
        }
    }

    /// The serial bare tuner of seed `i`.
    pub fn tuner(&self, i: usize) -> Tuner<'_> {
        let (k, x) = self.size();
        Tuner::new(&self.workload, &self.arch)
            .budget(k)
            .focus(x)
            .seed(self.seeds[i])
            .cap_steps(STEPS_CAP)
            .faults(self.faults(i))
    }

    /// The daemon submission of seed `i`.
    pub fn spec(&self, i: usize) -> CampaignSpec {
        let (k, x) = self.size();
        let mut spec = CampaignSpec::new(self.workload.meta.name, self.arch.name);
        spec.budget = k;
        spec.focus = x;
        spec.seed = self.seeds[i];
        spec.steps_cap = Some(STEPS_CAP);
        spec.with_fault_model(self.faults(i))
    }

    /// The daemon population: every seed submitted twice, so the
    /// shared store has identical tenants to dedup.
    pub fn tenants(&self) -> Vec<(String, usize)> {
        (0..2 * self.seeds.len())
            .map(|t| (format!("t{t}"), t % self.seeds.len()))
            .collect()
    }

    /// Admission: 4 tenants in flight, so 12 of the 16 queue.
    pub fn server_config(&self, dir: &Path) -> ServerConfig {
        ServerConfig::new(dir)
            .threads(2)
            .max_in_flight(4)
            .queue_capacity(12)
    }

    /// Computes every seed's reference by a path other than the timed
    /// one: the overlapped schedule for the bare workloads, a bare
    /// serial run for the others.
    pub fn compute_references(&mut self) {
        self.refs = (0..self.seeds.len())
            .map(|i| {
                let tuner = self.tuner(i);
                let run = if self.kind.bare() {
                    tuner.overlap_phases().run()
                } else {
                    tuner.run()
                };
                let cost = run.ctx.cost();
                Reference {
                    digest: run.canonical_digest(),
                    speedup: run.cfr.speedup(),
                    runs: cost.runs,
                    object_compiles: cost.object_compiles,
                }
            })
            .collect();
    }

    /// Operations whose campaign did not finish or does not digest to
    /// its seed's reference. Needs the references.
    pub fn failures(&self, checks: &[Check]) -> u64 {
        checks
            .iter()
            .filter(|c| c.digest != Some(self.refs[c.seed].digest))
            .count() as u64
    }
}

/// What a finished campaign must be checked against later.
#[derive(Debug, Clone, Copy)]
pub struct Check {
    /// Index of the campaign's seed.
    pub seed: usize,
    /// Canonical digest, or `None` when the campaign errored or its
    /// ledger does not balance (every charged run must be a success, a
    /// crash or a timeout).
    pub digest: Option<u64>,
}

impl Check {
    pub fn of(seed: usize, run: &TuningRun) -> Check {
        let balanced = run.ctx.cost().runs == run.ctx.fault_stats().charged_runs();
        Check {
            seed,
            digest: balanced.then(|| run.canonical_digest()),
        }
    }
}

/// What one timed operation produced.
#[derive(Debug, Default)]
pub struct OpOutcome {
    /// One latency per finished campaign (a daemon population gives 16).
    pub latencies: Vec<f64>,
    /// One check per attempted campaign.
    pub checks: Vec<Check>,
}

/// Runs the timed operation number `n` (campaign workloads cycle
/// through the seeds; the daemon serves its whole population).
pub fn run_op(env: &Env, n: usize) -> OpOutcome {
    let i = n % env.seeds.len();
    match env.kind {
        Kind::Campaign | Kind::Faulted => campaign_op(i, || Ok(env.tuner(i).run())),
        Kind::Workers => campaign_op(i, || Ok(env.tuner(i).workers(2).run())),
        Kind::Supervised => {
            let wal = env.scratch.path("supervised");
            let out = campaign_op(i, || {
                Supervisor::new(&wal, || env.tuner(i))
                    .run()
                    .map(|s| s.run)
                    .map_err(|e| e.to_string())
            });
            remove(&wal);
            out
        }
        Kind::Daemon => population(env).outcome,
    }
}

/// Times `run` plus dropping its result, excluding the digest taken in
/// between.
fn campaign_op(i: usize, run: impl FnOnce() -> Result<TuningRun, String>) -> OpOutcome {
    let t0 = Instant::now();
    let result = run();
    let ran = t0.elapsed().as_secs_f64();
    let check = match &result {
        Ok(r) => Check::of(i, r),
        Err(e) => {
            eprintln!("ftbench: campaign failed: {e}");
            Check {
                seed: i,
                digest: None,
            }
        }
    };
    let t1 = Instant::now();
    drop(result);
    let dropped = t1.elapsed().as_secs_f64();
    OpOutcome {
        latencies: if check.digest.is_some() {
            vec![ran + dropped]
        } else {
            Vec::new()
        },
        checks: vec![check],
    }
}

/// A served daemon population and its timeline.
pub struct Population {
    pub outcome: OpOutcome,
    /// When `TuningServer::new` was called.
    pub created: Instant,
    /// When `run()` started, after every `submit`.
    pub start: Instant,
    /// When `run()` returned.
    pub end: Instant,
    /// Every progress event with its arrival time.
    pub events: Vec<(String, ProgressEvent, Instant)>,
    /// Charged runs summed over tenants.
    pub runs: u64,
    /// Store-wide `(object computes, object hits, link hits)`.
    pub store: (u64, u64, u64),
}

/// Serves one population. A tenant's latency runs from `run()`'s
/// start to its `Done` event.
pub fn population(env: &Env) -> Population {
    let dir = env.scratch.path("daemon");
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = events.clone();
    let callback = Arc::new(move |name: &str, event: &ProgressEvent| {
        let now = Instant::now();
        sink.lock()
            .expect("event log poisoned")
            .push((name.to_string(), event.clone(), now));
    });
    let tenants = env.tenants();
    let mut outcome = OpOutcome {
        latencies: Vec::new(),
        checks: tenants
            .iter()
            .map(|(_, i)| Check {
                seed: *i,
                digest: None,
            })
            .collect(),
    };
    let created = Instant::now();
    let mut server = match TuningServer::new(env.server_config(&dir)) {
        Ok(s) => s.on_event(callback),
        Err(e) => {
            eprintln!("ftbench: daemon directory: {e}");
            return Population {
                outcome,
                created,
                start: created,
                end: created,
                events: Vec::new(),
                runs: 0,
                store: (0, 0, 0),
            };
        }
    };
    for (name, i) in &tenants {
        if let Err(e) = server.submit(name.clone(), env.spec(*i)) {
            eprintln!("ftbench: tenant {name} refused: {e}");
        }
    }
    let store = server.store();
    let start = Instant::now();
    let report = server.run();
    let end = Instant::now();
    let events = std::mem::take(&mut *events.lock().expect("event log poisoned"));
    let mut runs = 0;
    for ((name, i), check) in tenants.iter().zip(&mut outcome.checks) {
        let Some(tenant) = report.tenant(name) else {
            continue;
        };
        runs += tenant.cost.runs;
        let done_at = events.iter().find_map(|(n, e, at)| {
            (n == name && matches!(e, ProgressEvent::Done { .. })).then_some(*at)
        });
        if let (TenantOutcome::Done { run, .. }, Some(at)) = (&tenant.outcome, done_at) {
            *check = Check::of(*i, run);
            outcome.latencies.push((at - start).as_secs_f64());
        } else {
            eprintln!("ftbench: tenant {name} ended as {:?}", tenant.outcome);
        }
    }
    drop(report);
    remove(&dir);
    let (objects, links) = (store.object_stats(), store.link_stats());
    Population {
        outcome,
        created,
        start,
        end,
        events,
        runs,
        store: (objects.computes, objects.hits, links.hits),
    }
}
