//! Shared harness code for the per-figure benchmark binaries.
//!
//! Each `figNN_*` binary regenerates one table or figure from the paper:
//! it builds the paper's workload, runs every scheduler arm through the
//! serving simulation, prints an aligned table mirroring the figure's
//! series, and (with `--json <path>`) dumps machine-readable rows.

#![warn(missing_docs)]

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use llumnix_core::{
    run_serving, FaultPlan, SchedulerKind, ServingConfig, ServingOutput, ServingSim, SimSnapshot,
};
use llumnix_metrics::LatencyReport;
use llumnix_sim::{SimRng, SimTime};
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
    /// The binary's own switches given.
    own: BTreeSet<&'static str>,
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
    /// A binary's own flag without a value, such as fig16's `--huge`.
    Switch(&'static str),
}

impl Flag {
    fn name(self) -> &'static str {
        match self {
            Flag::Seed => "--seed",
            Flag::Scale => "--scale",
            Flag::Json => "--json",
            Flag::Threads => "--threads",
            Flag::Switch(flag) => flag,
        }
    }
}

/// Parses the value following `flag`. A following flag is not a value, so
/// `--json --seed` is an error rather than a file named `--seed`,
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
        own: BTreeSet::new(),
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
            Flag::Switch(f) => {
                opts.own.insert(f);
            }
        }
    }
    Ok(opts)
}

impl BenchOpts {
    /// Parses `std::env::args` against `flags`, the flags the binary reads,
    /// rejecting every other argument. `--threads` takes effect through
    /// [`set_thread_override`].
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
        self.own.contains(flag)
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
}

// ---- sweep harness --------------------------------------------------------

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker-thread count of the sweep harness (what
/// `--threads N` sets). Zero restores the default.
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

/// What a task of [`sweep`] yields: the result for a slot, or more tasks,
/// queued behind every task already waiting.
enum Step<T, R> {
    Fill(usize, R),
    Queue(Vec<T>),
}

/// The tasks of a sweep not yet handed out, how many are running, and
/// whether one has panicked.
struct Pending<T> {
    waiting: VecDeque<T>,
    running: usize,
    failed: bool,
}

/// The one work queue every sweep hands its tasks out through. `ended` is
/// signalled whenever a task ends: it may have queued more, or been the last
/// one running.
struct WorkQueue<T> {
    pending: Mutex<Pending<T>>,
    ended: Condvar,
}

impl<T> WorkQueue<T> {
    /// Tasks never run under the lock and every update leaves `Pending`
    /// valid, so a poisoned lock is still sound, and [`Running`]'s drop
    /// must not panic.
    fn lock(&self) -> MutexGuard<'_, Pending<T>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The next task in FIFO order. While the queue is empty but a task is
    /// still running, waits for it: it may queue more. `None` once the
    /// queue is empty and nothing runs, or once a task has panicked.
    fn next(&self) -> Option<T> {
        let mut pending = self.lock();
        while !pending.failed {
            if let Some(task) = pending.waiting.pop_front() {
                pending.running += 1;
                return Some(task);
            }
            if pending.running == 0 {
                break;
            }
            pending = self
                .ended
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
        None
    }
}

/// A task handed out by [`WorkQueue::next`]. Dropping it ends the task: it
/// queues what the task queued and wakes the waiting workers. It drops while
/// a panicking task unwinds too, so no worker waits on a task that can no
/// longer finish.
struct Running<'a, T> {
    queue: &'a WorkQueue<T>,
    queued: Vec<T>,
}

impl<T> Drop for Running<'_, T> {
    fn drop(&mut self) {
        let mut pending = self.queue.lock();
        pending.running -= 1;
        // A panicking task fails the sweep: no worker takes another task, so
        // the panic reaches the caller once the running ones finish.
        pending.failed |= std::thread::panicking();
        pending.waiting.extend(self.queued.drain(..));
        drop(pending);
        self.queue.ended.notify_all();
    }
}

/// Runs `tasks`, and every task they queue, across [`num_threads`] workers
/// (at most one per slot), and returns the `slots` results in slot order.
///
/// Tasks are handed out first in, first out, each to the next idle worker,
/// so unevenly sized arms (a 10k-request Llumnix run next to a tiny
/// round-robin one) still pack the cores. The calling thread is one of the
/// workers. Each result lands in the slot its task names, so the output
/// does not depend on which worker ran what, or on the worker count.
///
/// # Panics
///
/// If a task panics, the queue hands nothing more out, the other workers
/// finish their current tasks, and the task's panic resumes on the caller's
/// thread. Also panics unless the tasks fill every slot exactly once.
fn sweep<T, R, F>(tasks: Vec<T>, slots: usize, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> Step<T, R> + Sync,
{
    let queue = WorkQueue {
        pending: Mutex::new(Pending {
            waiting: tasks.into(),
            running: 0,
            failed: false,
        }),
        ended: Condvar::new(),
    };
    let work = || {
        let mut filled = Vec::new();
        while let Some(task) = queue.next() {
            let mut running = Running {
                queue: &queue,
                queued: Vec::new(),
            };
            match run(task) {
                Step::Fill(slot, result) => filled.push((slot, result)),
                Step::Queue(more) => running.queued = more,
            }
        }
        filled
    };
    let helpers = num_threads().min(slots).saturating_sub(1);
    let mut filled = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        let mut filled = work();
        for handle in handles {
            match handle.join() {
                Ok(theirs) => filled.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        filled
    });
    filled.sort_unstable_by_key(|&(slot, _)| slot);
    assert!(
        filled.iter().map(|&(slot, _)| slot).eq(0..slots),
        "a sweep must fill every slot exactly once"
    );
    filled.into_iter().map(|(_, result)| result).collect()
}

/// Applies `f` to every item through the sweep queue, returning results in
/// the items' original order: byte-identical to the serial
/// `items.into_iter().map(f)` as long as `f` itself is deterministic.
///
/// # Panics
///
/// Resumes a panic of `f` once the running items finish.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    sweep(
        items.into_iter().enumerate().collect(),
        n,
        |(slot, item)| Step::Fill(slot, f(item)),
    )
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

/// Runs every arm through [`run_arm`] on the sweep queue and returns results
/// in the arms' given order.
///
/// Arms share nothing: each owns its config and trace, and the simulation is
/// deterministic, so the output is identical whatever the thread count.
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
    let labels = ArmLabels {
        trace_name: trace.name.clone(),
        scheduler: config.scheduler,
        rate,
        cv,
    };
    labels.package(run_serving(config, trace))
}

/// The labels of an arm's [`ArmResult`] row.
#[derive(Clone)]
struct ArmLabels {
    trace_name: String,
    scheduler: SchedulerKind,
    rate: f64,
    cv: f64,
}

impl ArmLabels {
    /// Flattens a finished run into its [`ArmResult`] row.
    fn package(self, out: ServingOutput) -> (ArmResult, ServingOutput) {
        let report = LatencyReport::from_records(&out.records);
        (
            ArmResult {
                trace: self.trace_name,
                rate: self.rate,
                cv: self.cv,
                scheduler: self.scheduler.label().to_string(),
                migrations: out.migration_stats.committed,
                preemptions: report.total_preemptions,
                report,
                avg_instances: out.avg_instances,
                fragmentation_mean: out.fragmentation.mean(),
            },
            out,
        )
    }
}

// ---- forked sweeps --------------------------------------------------------

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
    pub warmup: SimTime,
    /// Request rate label (req/s).
    pub rate: f64,
    /// Arrival-CV label (1.0 for Poisson).
    pub cv: f64,
    /// The fault plan each arm activates at the fork point
    /// ([`FaultPlan::empty`] for a fault-free arm). No planned fault may fire
    /// before `warmup`: build plans with
    /// [`llumnix_core::FaultPlanConfig::with_start_offset`].
    pub arms: Vec<FaultPlan>,
}

/// Why [`run_arms_forked`] rejects its groups. It checks every group before
/// it runs any, so a bad arm costs no warmup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForkError {
    /// The group's config carries a fault plan, which its forks would share.
    PlanInConfig {
        /// The group's index.
        group: usize,
    },
    /// The arm's first fault fires before its group's warmup ends.
    FaultBeforeWarmup {
        /// The group's index.
        group: usize,
        /// The arm's index within its group.
        arm: usize,
    },
}

impl std::fmt::Display for ForkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForkError::PlanInConfig { group } => {
                write!(f, "fork group {group}: its config carries a fault plan")
            }
            ForkError::FaultBeforeWarmup { group, arm } => write!(
                f,
                "fork group {group}, arm {arm}: the first fault fires before the warmup ends"
            ),
        }
    }
}

impl std::error::Error for ForkError {}

/// A task of a forked sweep: warm a group up (which queues its forks), or
/// run one fork to completion.
enum ForkTask {
    Warm {
        slot: usize,
        group: Box<ForkGroup>,
    },
    Fork {
        slot: usize,
        sim: Box<ServingSim>,
        plan: FaultPlan,
        labels: ArmLabels,
    },
}

/// Warms a group up and turns it into its forks (one resumed sim per arm),
/// tagged with consecutive result slots starting at `slot`. Each fork
/// activates its own plan when it runs.
///
/// The warmed sim itself becomes the *last* arm rather than a third
/// resume: a freshly cloned sim pays a measurable per-event locality tax
/// (its pointer-heavy state reallocates into a heap fragmented by the
/// snapshot churn), so the group's biggest contiguous state is kept for
/// one of the real runs and a singleton group never clones at all. The
/// schedule is identical either way — resume *is* a clone.
fn warm_group(slot: usize, group: ForkGroup) -> Vec<ForkTask> {
    let mut arms = group.arms;
    let Some(last) = arms.pop() else {
        return Vec::new();
    };
    let labels = ArmLabels {
        trace_name: group.trace.name.clone(),
        scheduler: group.config.scheduler,
        rate: group.rate,
        cv: group.cv,
    };
    let mut sim = ServingSim::new(group.config, group.trace);
    sim.run_until(group.warmup);
    let mut tasks = Vec::with_capacity(arms.len() + 1);
    if !arms.is_empty() {
        let snapshot: SimSnapshot = sim.snapshot();
        for (slot, plan) in (slot..).zip(arms) {
            tasks.push(ForkTask::Fork {
                slot,
                sim: Box::new(ServingSim::resume(&snapshot)),
                plan,
                labels: labels.clone(),
            });
        }
    }
    tasks.push(ForkTask::Fork {
        slot: slot + tasks.len(),
        sim: Box::new(sim),
        plan: last,
        labels,
    });
    tasks
}

/// Runs every group's warmup once and every arm from its group's snapshot,
/// all through the sweep queue. Results come back flattened in
/// group-then-arm order — the same order [`run_arms`] returns for the
/// equivalent cold arms.
///
/// Warmups and forks share the one queue: a group's warmup queues its forks
/// the moment it finishes, so workers never idle behind the slowest warmup
/// (a two-phase barrier would stall the whole fleet on the largest group's
/// prefix and give most of the saved work back).
///
/// # Errors
///
/// Returns a [`ForkError`], before any group runs, if a group's config
/// carries a fault plan or an arm's first fault fires before its group's
/// warmup ends.
pub fn run_arms_forked(
    groups: Vec<ForkGroup>,
) -> Result<Vec<(ArmResult, ServingOutput)>, ForkError> {
    for (group, g) in groups.iter().enumerate() {
        if !g.config.fault_plan.is_empty() {
            return Err(ForkError::PlanInConfig { group });
        }
        let early = |plan: &FaultPlan| plan.get(0).is_some_and(|f| f.at < g.warmup);
        if let Some(arm) = g.arms.iter().position(early) {
            return Err(ForkError::FaultBeforeWarmup { group, arm });
        }
    }
    let mut slots = 0;
    let tasks = groups
        .into_iter()
        .map(|group| {
            let slot = slots;
            slots += group.arms.len();
            ForkTask::Warm {
                slot,
                group: Box::new(group),
            }
        })
        .collect();
    Ok(sweep(tasks, slots, |task| match task {
        ForkTask::Warm { slot, group } => Step::Queue(warm_group(slot, *group)),
        ForkTask::Fork {
            slot,
            mut sim,
            plan,
            labels,
        } => {
            sim.activate_faults(plan);
            Step::Fill(slot, labels.package(sim.run()))
        }
    }))
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
            own: BTreeSet::new(),
        };
        assert_eq!(opts.scaled(10_000), 1_000);
        assert_eq!(opts.scaled(50), 10, "floor at 10");
    }

    #[test]
    fn extra_flags_parse_only_where_declared() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let flags = [Flag::Seed, Flag::Switch("--huge")];
        let opts =
            parse_args(&args(&["--huge", "--seed", "3"]), &flags).expect("declared flags parse");
        assert!(opts.switch("--huge"));
        assert_eq!(opts.seed, 3);
        let opts = parse_args(&[], &flags).expect("no flags parse");
        assert!(!opts.switch("--huge"));
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
        use llumnix_sim::SimDuration;

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
        let plans = vec![FaultPlan::empty(), plan(400.0), plan(900.0)];
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
            arms: plans,
        }])
        .expect("every plan starts after the warmup");
        assert_eq!(cold.len(), forked.len());
        for ((ca, co), (fa, fo)) in cold.iter().zip(&forked) {
            // The serialized rows are what the figures write.
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
    }

    /// The worker count is process-wide, so the tests that set it take
    /// turns.
    static WORKERS: Mutex<()> = Mutex::new(());

    #[test]
    fn parallel_map_preserves_order_at_any_width() {
        let _turn = WORKERS.lock().unwrap_or_else(PoisonError::into_inner);
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 8] {
            set_thread_override(threads);
            let got = parallel_map(items.clone(), |x| x * x);
            assert_eq!(got, expect, "threads = {threads}");
        }
        set_thread_override(0);
    }

    #[test]
    fn a_panicking_queued_task_fails_the_sweep() {
        let _turn = WORKERS.lock().unwrap_or_else(PoisonError::into_inner);
        set_thread_override(2);
        let (done, outcome) = std::sync::mpsc::channel();
        // Not joined: a hung sweep must fail the test, not hang it too.
        std::thread::spawn(move || {
            // Task 0 queues task 1, which panics. The other worker, finding
            // the queue empty, waits for task 1 to end, since it might queue
            // more; unless the panic ends it, it waits forever, whenever it
            // got there.
            let swept = std::panic::catch_unwind(|| {
                sweep(vec![0], 2, |task| match task {
                    0 => Step::Queue(vec![1]),
                    _ => panic!("a queued task panicked"),
                }) as Vec<()>
            });
            let _ = done.send(swept.map_err(|p| p.downcast_ref::<&str>().map(|m| m.to_string())));
        });
        let swept = outcome.recv_timeout(std::time::Duration::from_secs(120));
        set_thread_override(0);
        match swept {
            Ok(Err(message)) => assert_eq!(message.as_deref(), Some("a queued task panicked")),
            Ok(Ok(_)) => panic!("the sweep returned; its queued task panicked"),
            Err(_) => panic!("the sweep still runs two minutes after its queued task panicked"),
        }
    }
}
