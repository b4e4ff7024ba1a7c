//! Shared harness code for the per-figure benchmark binaries.
//!
//! Each `figNN_*` binary regenerates one table or figure from the paper:
//! it builds the paper's workload, runs every scheduler arm through the
//! serving simulation, prints an aligned table mirroring the figure's
//! series, and (with `--json <path>`) dumps machine-readable rows.

#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use llumnix_core::{
    run_serving, FaultPlan, SchedulerKind, ServingConfig, ServingOutput, ServingSim, SimSnapshot,
};
use llumnix_metrics::LatencyReport;
use llumnix_sim::SimRng;
use llumnix_workload::{presets, Arrivals, Trace};
use serde::Serialize;

/// Default experiment seed; a binary that reads `--seed N` uses it otherwise.
pub const DEFAULT_SEED: u64 = 20240710;

/// Parsed CLI options.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Experiment seed.
    pub seed: u64,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Scale factor on request counts (use < 1.0 for quick runs).
    pub scale: f64,
    /// The binary's own flags given: each switch maps to `None`, each
    /// positive number to its value.
    own: BTreeMap<&'static str, Option<f64>>,
}

/// A flag a binary reads. Each binary names every flag it reads, the common
/// ones included, when it calls [`BenchOpts::from_args`], and every other
/// argument is rejected: a flag accepted and then ignored would make a run
/// lie about its parameters.
#[derive(Debug, Clone, Copy)]
pub enum Flag {
    /// `--seed N`: the experiment seed.
    Seed,
    /// `--scale F`: a positive factor on request counts.
    Scale,
    /// `--json PATH`: where [`BenchOpts::maybe_write_json`] writes the rows.
    Json,
    /// `--threads N`: worker threads of the sweep harness
    /// ([`set_thread_override`]).
    Threads,
    /// `--canonical`: record `sim_wall_secs` as 0
    /// ([`set_canonical_output`]).
    Canonical,
    /// A binary's own flag without a value, such as fig16's `--huge`.
    Switch(&'static str),
    /// A binary's own flag whose value is a positive number, such as
    /// fig03's `--rate`.
    Positive(&'static str),
}

impl Flag {
    fn name(self) -> &'static str {
        match self {
            Flag::Seed => "--seed",
            Flag::Scale => "--scale",
            Flag::Json => "--json",
            Flag::Threads => "--threads",
            Flag::Canonical => "--canonical",
            Flag::Switch(flag) | Flag::Positive(flag) => flag,
        }
    }
}

/// Parses the value following `flag`. A following flag is not a value, so
/// `--json --canonical` is an error rather than a file named `--canonical`,
/// and a malformed value is an error rather than a silently substituted
/// default, which would make an experiment lie about its parameters.
fn value<'a, T: std::str::FromStr>(
    args: &mut impl Iterator<Item = &'a str>,
    flag: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let raw = args
        .next()
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| format!("{flag} requires a value"))?;
    raw.parse()
        .map_err(|e| format!("invalid value {raw:?} for {flag}: {e}"))
}

/// Parses the value following `flag` as a finite, positive number.
fn positive<'a>(args: &mut impl Iterator<Item = &'a str>, flag: &str) -> Result<f64, String> {
    let v: f64 = value(args, flag)?;
    if v.is_finite() && v > 0.0 {
        Ok(v)
    } else {
        Err(format!("{flag} must be a positive number, got {v}"))
    }
}

/// Parses the arguments after the program name against the flags the
/// binary reads. Any other argument, a flag given twice, a missing value
/// and a malformed one are errors.
fn parse_args(args: &[String], flags: &[Flag]) -> Result<BenchOpts, String> {
    let mut opts = BenchOpts {
        seed: DEFAULT_SEED,
        json: None,
        scale: 1.0,
        own: BTreeMap::new(),
    };
    let mut seen = Vec::new();
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        let Some(&flag) = flags.iter().find(|f| f.name() == arg) else {
            let known: Vec<&str> = flags.iter().map(|f| f.name()).collect();
            return Err(format!(
                "unknown argument {arg:?}; this binary reads only: {}",
                known.join(" ")
            ));
        };
        if seen.contains(&arg) {
            return Err(format!("{arg} given twice"));
        }
        seen.push(arg);
        match flag {
            Flag::Seed => opts.seed = value(&mut args, arg)?,
            Flag::Json => opts.json = Some(value(&mut args, arg)?),
            Flag::Scale => opts.scale = positive(&mut args, arg)?,
            Flag::Threads => match value(&mut args, arg)? {
                0 => return Err("--threads must be at least 1".into()),
                threads => set_thread_override(threads),
            },
            Flag::Canonical => set_canonical_output(true),
            Flag::Switch(f) => {
                opts.own.insert(f, None);
            }
            Flag::Positive(f) => {
                opts.own.insert(f, Some(positive(&mut args, arg)?));
            }
        }
    }
    Ok(opts)
}

impl BenchOpts {
    /// Parses `std::env::args` against `flags`, the flags the binary reads,
    /// rejecting every other argument. `--threads` and `--canonical` take
    /// effect through [`set_thread_override`] and [`set_canonical_output`].
    ///
    /// An unknown argument, a flag given twice and a missing or malformed
    /// value print `error: …` and exit with code 2.
    pub fn from_args(flags: &[Flag]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        parse_args(&args, flags).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.own.contains_key(flag)
    }

    /// The value given for the positive-number flag `flag`, if any.
    pub fn positive(&self, flag: &str) -> Option<f64> {
        self.own.get(flag).copied().flatten()
    }

    /// Applies the scale factor to a request count.
    pub fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale) as usize).max(10)
    }

    /// Writes rows as JSON if `--json` was given, exiting with code 1 when
    /// the file cannot be written (a run whose result file silently failed
    /// would leave a stale one in its place).
    pub fn maybe_write_json<T: Serialize>(&self, rows: &T) {
        if let Some(path) = &self.json {
            let body = llumnix_metrics::to_json(rows);
            if let Err(e) = std::fs::write(path, body) {
                eprintln!("error: could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// One experiment arm's flattened results (a row in the JSON output).
#[derive(Debug, Clone, Serialize)]
pub struct ArmResult {
    /// Trace name.
    pub trace: String,
    /// Request rate (req/s).
    pub rate: f64,
    /// Gamma CV (1.0 for Poisson).
    pub cv: f64,
    /// Scheduler label.
    pub scheduler: String,
    /// Latency aggregates.
    pub report: LatencyReport,
    /// Migrations committed.
    pub migrations: u64,
    /// Total preemptions.
    pub preemptions: u64,
    /// Time-weighted average instances (cost).
    pub avg_instances: f64,
    /// Mean fragmentation proportion.
    pub fragmentation_mean: f64,
    /// Wall-clock seconds the simulation took (0.0 under `--canonical`: it
    /// is the one field of this row real time can perturb, and the CI
    /// determinism cross-check diffs result files byte for byte).
    pub sim_wall_secs: f64,
}

// ---- parallel sweep harness ----------------------------------------------

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static CANONICAL_OUTPUT: AtomicBool = AtomicBool::new(false);

/// Enables canonical output (what `--canonical` sets): [`run_arm`] records
/// `sim_wall_secs = 0.0` instead of measured wall time, making every figure's
/// JSON a pure function of (seed, config) — byte-identical at any `--threads`
/// count.
pub fn set_canonical_output(on: bool) {
    CANONICAL_OUTPUT.store(on, Ordering::SeqCst);
}

/// Whether canonical output mode is on.
pub fn canonical_output() -> bool {
    CANONICAL_OUTPUT.load(Ordering::SeqCst)
}

/// Overrides the worker-thread count for [`parallel_map`] / [`run_arms`]
/// (what `--threads N` sets). Zero restores the default.
pub fn set_thread_override(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Worker threads for the sweep harness: the `--threads` override if set,
/// else the machine's available parallelism.
pub fn num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item across [`num_threads`] worker threads, returning
/// results in the items' original order.
///
/// Work is handed out dynamically — each worker pulls the next unclaimed item
/// — so unevenly sized arms (a 10k-request Llumnix run next to a tiny
/// round-robin one) still pack the cores. Items run independently, so the
/// output is byte-identical to the serial `items.into_iter().map(f)` as long
/// as `f` itself is deterministic; with one thread the harness *is* that
/// serial loop.
///
/// # Panics
///
/// Propagates a panic from any worker invocation of `f`.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = num_threads().min(n.max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let queue = &queue;
    let f = &f;
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let next = queue.lock().expect("work queue poisoned").next();
                        match next {
                            Some((index, item)) => local.push((index, f(item))),
                            None => break,
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for batch in per_worker {
        for (index, result) in batch {
            slots[index] = Some(result);
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index processed exactly once"))
        .collect()
}

/// One independent experiment arm of a sweep: a serving configuration over a
/// trace, plus the rate/CV labels recorded in its [`ArmResult`] row.
pub struct ArmSpec {
    /// Serving configuration under test.
    pub config: ServingConfig,
    /// The workload trace.
    pub trace: Trace,
    /// Request rate label (req/s).
    pub rate: f64,
    /// Arrival-CV label (1.0 for Poisson).
    pub cv: f64,
}

/// Runs every arm through [`run_arm`], fanned out across [`num_threads`]
/// worker threads, and returns results in the arms' given order.
///
/// Arms share nothing: each owns its config and trace, and the simulation is
/// deterministic, so the output (minus [`ArmResult::sim_wall_secs`], which
/// measures real time) is identical whatever the thread count.
pub fn run_arms(arms: Vec<ArmSpec>) -> Vec<(ArmResult, ServingOutput)> {
    parallel_map(arms, |arm| run_arm(arm.config, arm.trace, arm.rate, arm.cv))
}

/// Runs one scheduler arm over a trace and flattens the results.
pub fn run_arm(
    config: ServingConfig,
    trace: Trace,
    rate: f64,
    cv: f64,
) -> (ArmResult, ServingOutput) {
    let trace_name = trace.name.clone();
    let scheduler = config.scheduler;
    let started = Instant::now();
    let out = run_serving(config, trace);
    let wall = if canonical_output() {
        0.0
    } else {
        started.elapsed().as_secs_f64()
    };
    package_arm(out, wall, trace_name, scheduler, rate, cv)
}

/// Flattens a finished run into its [`ArmResult`] row.
fn package_arm(
    out: ServingOutput,
    wall: f64,
    trace_name: String,
    scheduler: SchedulerKind,
    rate: f64,
    cv: f64,
) -> (ArmResult, ServingOutput) {
    let report = LatencyReport::from_records(&out.records);
    (
        ArmResult {
            trace: trace_name,
            rate,
            cv,
            scheduler: scheduler.label().to_string(),
            migrations: out.migration_stats.committed,
            preemptions: report.total_preemptions,
            report,
            avg_instances: out.avg_instances,
            fragmentation_mean: out.fragmentation.mean(),
            sim_wall_secs: wall,
        },
        out,
    )
}

// ---- forked sweeps --------------------------------------------------------

/// One forked arm of a [`ForkGroup`]: the fault plan it activates at the
/// shared fork point ([`FaultPlan::empty`] for the fault-free arm).
///
/// Every planned fault must fire strictly after the group's warmup — build
/// plans with [`llumnix_core::FaultPlanConfig::with_start_offset`] leaving
/// margin over [`ForkGroup::warmup`].
pub struct ForkArm {
    /// Fault plan activated at the fork point.
    pub plan: FaultPlan,
}

/// A group of sweep arms sharing one warmed-up simulation prefix.
///
/// The group runs `config` (which must carry **no** fault plan) over `trace`
/// until `warmup`, snapshots, and then forks every arm from that snapshot —
/// so an `A`-profile and a `B`-profile arm pay for their common fault-free
/// prefix once instead of once each. The fork is exact: each arm's output is
/// byte-identical to a cold run configured with its plan from t = 0
/// (DESIGN.md §13).
pub struct ForkGroup {
    /// Fault-free serving configuration shared by every arm.
    pub config: ServingConfig,
    /// The workload trace shared by every arm.
    pub trace: Trace,
    /// Simulated time to run before snapshotting.
    pub warmup: llumnix_sim::SimTime,
    /// Request rate label (req/s).
    pub rate: f64,
    /// Arrival-CV label (1.0 for Poisson).
    pub cv: f64,
    /// The arms forked from the shared snapshot.
    pub arms: Vec<ForkArm>,
}

/// A unit of forked-sweep work: warm a group up (which then enqueues its
/// forks), or finish one forked arm.
enum ForkTask {
    Warm {
        slot: usize,
        group: Box<ForkGroup>,
    },
    Fork {
        slot: usize,
        sim: Box<ServingSim>,
        labels: ForkLabels,
    },
}

/// The row labels a fork inherits from its group.
#[derive(Clone)]
struct ForkLabels {
    trace_name: String,
    scheduler: SchedulerKind,
    rate: f64,
    cv: f64,
}

/// Warms a group up and turns it into its runnable forks (one resumed,
/// plan-activated sim per arm), tagged with consecutive result slots
/// starting at `slot`.
///
/// The warmed sim itself becomes the *last* arm rather than a third
/// resume: a freshly cloned sim pays a measurable per-event locality tax
/// (its pointer-heavy state reallocates into a heap fragmented by the
/// snapshot churn), so the group's biggest contiguous state is kept for
/// one of the real runs and a singleton group never clones at all. The
/// schedule is identical either way — resume *is* a clone.
fn warm_group(slot: usize, group: ForkGroup) -> Vec<ForkTask> {
    let labels = ForkLabels {
        trace_name: group.trace.name.clone(),
        scheduler: group.config.scheduler,
        rate: group.rate,
        cv: group.cv,
    };
    let mut sim = ServingSim::new(group.config, group.trace);
    sim.run_until(group.warmup);
    let mut arms = group.arms;
    let Some(last) = arms.pop() else {
        return Vec::new();
    };
    let mut tasks = Vec::with_capacity(arms.len() + 1);
    if !arms.is_empty() {
        let snapshot: SimSnapshot = sim.snapshot();
        for (i, arm) in arms.into_iter().enumerate() {
            let mut fork = ServingSim::resume(&snapshot);
            fork.activate_faults(arm.plan);
            tasks.push(ForkTask::Fork {
                slot: slot + i,
                sim: Box::new(fork),
                labels: labels.clone(),
            });
        }
    }
    let slot = slot + tasks.len();
    sim.activate_faults(last.plan);
    tasks.push(ForkTask::Fork {
        slot,
        sim: Box::new(sim),
        labels,
    });
    tasks
}

/// Runs one forked arm to completion (its wall-clock covers only the
/// post-fork run — the warmup is shared).
fn finish_fork(sim: ServingSim, labels: ForkLabels) -> (ArmResult, ServingOutput) {
    let started = Instant::now();
    let out = sim.run();
    let wall = if canonical_output() {
        0.0
    } else {
        started.elapsed().as_secs_f64()
    };
    package_arm(
        out,
        wall,
        labels.trace_name,
        labels.scheduler,
        labels.rate,
        labels.cv,
    )
}

/// Runs every group's warmup once and every arm from its group's snapshot,
/// fanned out across [`num_threads`] worker threads. Results come back
/// flattened in group-then-arm order — the same order [`run_arms`] returns
/// for the equivalent cold arms — and each arm's
/// [`ArmResult::sim_wall_secs`] covers only its post-fork run.
///
/// Warmups and forks share one dynamic work queue: a group's forks become
/// runnable the moment its warmup finishes, so workers never idle behind
/// the slowest warmup (a two-phase barrier would stall the whole fleet on
/// the largest group's prefix and give most of the saved work back).
pub fn run_arms_forked(groups: Vec<ForkGroup>) -> Vec<(ArmResult, ServingOutput)> {
    let mut total_arms = 0usize;
    let mut tasks: VecDeque<ForkTask> = VecDeque::new();
    for group in groups {
        let slot = total_arms;
        total_arms += group.arms.len();
        tasks.push_back(ForkTask::Warm {
            slot,
            group: Box::new(group),
        });
    }
    let threads = num_threads().min(tasks.len().max(1));
    let mut slots: Vec<Option<(ArmResult, ServingOutput)>> = Vec::with_capacity(total_arms);
    slots.resize_with(total_arms, || None);
    if threads <= 1 {
        while let Some(task) = tasks.pop_front() {
            match task {
                ForkTask::Warm { slot, group } => {
                    // Front of the queue, so a group's forks run before the
                    // next group warms up — same order a cold sweep visits.
                    for fork in warm_group(slot, *group).into_iter().rev() {
                        tasks.push_front(fork);
                    }
                }
                ForkTask::Fork { slot, sim, labels } => {
                    slots[slot] = Some(finish_fork(*sim, labels));
                }
            }
        }
    } else {
        let state = Mutex::new((tasks, 0usize)); // (queue, tasks in flight)
        let ready = std::sync::Condvar::new();
        let results = Mutex::new(&mut slots);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let mut guard = state.lock().expect("fork queue poisoned");
                    let task = loop {
                        if let Some(task) = guard.0.pop_front() {
                            guard.1 += 1;
                            break task;
                        }
                        if guard.1 == 0 {
                            return; // Empty queue, nothing running: done.
                        }
                        // A running warmup may enqueue forks; wait for it.
                        guard = ready.wait(guard).expect("fork queue poisoned");
                    };
                    drop(guard);
                    match task {
                        ForkTask::Warm { slot, group } => {
                            let forks = warm_group(slot, *group);
                            let mut guard = state.lock().expect("fork queue poisoned");
                            guard.0.extend(forks);
                            guard.1 -= 1;
                            ready.notify_all();
                        }
                        ForkTask::Fork { slot, sim, labels } => {
                            let done = finish_fork(*sim, labels);
                            results.lock().expect("fork results poisoned")[slot] = Some(done);
                            let mut guard = state.lock().expect("fork queue poisoned");
                            guard.1 -= 1;
                            ready.notify_all();
                        }
                    }
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|r| r.expect("every fork slot filled exactly once"))
        .collect()
}

/// Builds one of the paper's named traces (`S-S`, `M-M`, …, `ShareGPT`).
///
/// # Panics
///
/// Panics on unknown names — the binaries only pass presets.
pub fn build_trace(
    name: &str,
    n: usize,
    arrivals: Arrivals,
    high_priority_fraction: f64,
    seed: u64,
) -> Trace {
    presets::by_name(name, n, arrivals)
        .unwrap_or_else(|| panic!("unknown trace preset {name}"))
        .with_high_priority_fraction(high_priority_fraction)
        .generate(&SimRng::new(seed))
}

/// The standard three-scheduler comparison of Figure 11.
pub const FIG11_SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::RoundRobin,
    SchedulerKind::InfaasPlusPlus,
    SchedulerKind::Llumnix,
];

/// Formats a `Summary` as `mean / p99` seconds.
pub fn mean_p99(s: &llumnix_metrics::Summary) -> String {
    format!(
        "{} / {}",
        llumnix_metrics::fmt_secs(s.mean),
        llumnix_metrics::fmt_secs(s.p99)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use llumnix_model::InstanceSpec;

    #[test]
    fn arm_runs_end_to_end() {
        let trace = build_trace("S-S", 60, Arrivals::poisson(3.0), 0.0, 1);
        let config = ServingConfig::new(SchedulerKind::Llumnix, 2)
            .with_spec(InstanceSpec::tiny_for_tests(4096));
        let (arm, out) = run_arm(config, trace, 3.0, 1.0);
        assert_eq!(arm.scheduler, "llumnix");
        assert_eq!(arm.rate, 3.0);
        assert!(arm.report.e2e.count + out.aborted as usize == 60);
    }

    #[test]
    fn scaled_counts() {
        let opts = BenchOpts {
            seed: 1,
            json: None,
            scale: 0.1,
            own: BTreeMap::new(),
        };
        assert_eq!(opts.scaled(10_000), 1_000);
        assert_eq!(opts.scaled(50), 10, "floor at 10");
    }

    #[test]
    fn extra_flags_parse_only_where_declared() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let flags = [Flag::Seed, Flag::Switch("--huge"), Flag::Positive("--rate")];
        let opts = parse_args(&args(&["--rate", "2.5", "--huge", "--seed", "3"]), &flags)
            .expect("declared flags parse");
        assert!(opts.switch("--huge"));
        assert_eq!(opts.positive("--rate"), Some(2.5));
        assert_eq!(opts.seed, 3);
        let opts = parse_args(&[], &flags).expect("no flags parse");
        assert!(!opts.switch("--huge"));
        assert_eq!(opts.positive("--rate"), None);
        assert_eq!(opts.seed, DEFAULT_SEED);
        let err = parse_args(&args(&["--huge"]), &[Flag::Json]).expect_err("undeclared");
        assert_eq!(
            err,
            r#"unknown argument "--huge"; this binary reads only: --json"#
        );
        let err = parse_args(&args(&["--scale", "0.5"]), &flags).expect_err("undeclared");
        assert!(err.starts_with(r#"unknown argument "--scale""#), "{err}");
    }

    #[test]
    fn forked_sweep_matches_cold_byte_for_byte() {
        use llumnix_core::FaultPlanConfig;
        use llumnix_sim::{SimDuration, SimTime};

        set_canonical_output(true);
        let trace = build_trace("S-S", 150, Arrivals::poisson(5.0), 0.0, 7);
        let base = ServingConfig::new(SchedulerKind::Llumnix, 3)
            .with_spec(InstanceSpec::tiny_for_tests(2048));
        let warmup = SimTime::ZERO + SimDuration::from_secs(8);
        // Fault plans begin after the warmup with margin, so cold runs
        // (plan configured from t = 0) and forks (plan activated at the
        // snapshot) face the same schedule.
        let plan = |rate: f64| {
            let cfg = FaultPlanConfig::none()
                .with_crashes(rate, Some(SimDuration::from_secs(2)))
                .with_horizon(SimDuration::from_secs(600))
                .with_start_offset(SimDuration::from_secs(10));
            FaultPlan::generate(&cfg, &SimRng::new(7))
        };
        let plans = [FaultPlan::empty(), plan(400.0), plan(900.0)];
        let cold = run_arms(
            plans
                .iter()
                .map(|p| ArmSpec {
                    config: base.clone().with_faults(p.clone()),
                    trace: trace.clone(),
                    rate: 5.0,
                    cv: 1.0,
                })
                .collect(),
        );
        let forked = run_arms_forked(vec![ForkGroup {
            config: base,
            trace,
            warmup,
            rate: 5.0,
            cv: 1.0,
            arms: plans.into_iter().map(|plan| ForkArm { plan }).collect(),
        }]);
        assert_eq!(cold.len(), forked.len());
        for ((ca, co), (fa, fo)) in cold.iter().zip(&forked) {
            // The serialized rows are what CI byte-diffs.
            assert_eq!(
                llumnix_metrics::to_json(ca),
                llumnix_metrics::to_json(fa),
                "rows must serialize identically"
            );
            assert_eq!(co.events_processed, fo.events_processed);
            assert_eq!(co.makespan, fo.makespan);
            assert_eq!(co.fault_stats, fo.fault_stats);
        }
        assert!(
            forked[1].1.fault_stats.crashes > 0,
            "fault arms must actually crash"
        );
        set_canonical_output(false);
    }

    #[test]
    fn parallel_map_preserves_order_at_any_width() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 8] {
            set_thread_override(threads);
            let got = parallel_map(items.clone(), |x| x * x);
            assert_eq!(got, expect, "threads = {threads}");
        }
        set_thread_override(0);
    }
}
