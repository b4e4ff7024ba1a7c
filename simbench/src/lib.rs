//! Host-speed benchmark of the llumnix-rs serving simulator.
//!
//! Three workloads run through the public [`llumnix_core::ServingSim`] API on
//! the classic event loop, one process and one thread each. An untraced run
//! ([`measure`]) reports the end-to-end metrics: simulated requests per host
//! second and set-up time (both scaled to a reference host speed, see
//! [`calibrate`]), peak memory and the simulated latencies. A separate
//! traced run ([`traced`]) reports per-layer numbers: spans the benchmark
//! records around calls into each layer, exact work counts from the output,
//! and kernel replays ([`replay`]). Every run checks its output. See
//! `README.md` beside this crate for the metric map.

#![forbid(unsafe_code)]

pub mod digest;
pub mod pinned;
pub mod replay;
pub mod spans;
pub mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use spans::Spans;
use workload::{prepare, run, run_each, Counts, Outcome, Workload};

/// A metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, reported by the untraced run.
pub const END_TO_END: [MetricDef; 8] = [
    m("requests_per_s", "1/s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MiB"),
    m("sim.prefill_p50_s", "sim_s"),
    m("sim.prefill_p99_s", "sim_s"),
    m("sim.decode_p99_s", "sim_s"),
    m("sim.e2e_p99_s", "sim_s"),
    m("sim.avg_instances", "instances"),
];

/// Per-layer metrics, reported by the traced run.
pub const PER_LAYER: [MetricDef; 32] = [
    m("sim.queue.events", "count"),
    m("sim.queue.ns_per_event", "ns"),
    m("sim.queue.push_pop_ns", "ns"),
    m("model.cost.decode_step_ns", "ns"),
    m("model.cost.prefill_ns", "ns"),
    m("engine.steps", "count"),
    m("engine.step_ns", "ns"),
    m("engine.block.churn_ns", "ns"),
    m("engine.preemptions", "count"),
    m("core.llumlet.report_ns", "ns"),
    m("core.index.update_ns", "ns"),
    m("core.index.dispatch_ns", "ns"),
    m("core.policy.pair_ns", "ns"),
    m("core.policy.scale_ns", "ns"),
    m("migration.started", "count"),
    m("migration.committed", "count"),
    m("migration.aborted", "count"),
    m("migration.commit_ratio", "ratio"),
    m("migration.roundtrip_ns", "ns"),
    m("core.serving.new_s", "s"),
    m("core.serving.ramp_s", "s"),
    m("core.serving.drain_s", "s"),
    m("core.serving.samples", "count"),
    m("core.snapshot.snapshot_s", "s"),
    m("core.snapshot.resume_s", "s"),
    m("faults.generate_s", "s"),
    m("faults.crashes", "count"),
    m("faults.requests_lost", "count"),
    m("faults.requests_redispatched", "count"),
    m("workload.generate_s", "s"),
    m("metrics.report_s", "s"),
    m("trace.overhead_s", "s"),
];

/// Per-layer metrics that are a traced repeat's summed time of some spans.
const LAYER_SPANS: [(&str, &[&str]); 8] = [
    ("workload.generate_s", &["workload.generate"]),
    ("faults.generate_s", &["faults.generate"]),
    ("core.serving.new_s", &["core.serving.new"]),
    ("core.serving.ramp_s", &["core.serving.ramp"]),
    (
        "core.serving.drain_s",
        &["core.serving.drain", "core.serving.drain_resumed"],
    ),
    ("core.snapshot.snapshot_s", &["core.snapshot.snapshot"]),
    ("core.snapshot.resume_s", &["core.snapshot.resume"]),
    ("metrics.report_s", &["metrics.report"]),
];

/// Timed repeats of the workload every run makes, however short its budget.
const MIN_REPEATS: usize = 3;
/// Set-ups every untraced run times (extra ones are built and dropped).
const MIN_SETUPS: usize = 21;

/// Host seconds [`calibrate`] takes at the reference host speed: about its
/// time on a 2-core Xeon VM when other tenants leave the shared cache alone.
pub const REFERENCE_CALIBRATION_S: f64 = 0.1;

/// Keys [`calibrate`] churns: a few MiB of B-tree nodes, which, like the
/// simulator's state, outgrow the per-core cache and live in the shared one.
const CALIBRATION_KEYS: u64 = 100_000;

/// Times a fixed kernel that shares no code with the simulator: a std
/// `BTreeMap` filled with [`CALIBRATION_KEYS`] pseudo-random keys, then
/// churned by lookups, inserts and removals. Returns host seconds.
///
/// Other tenants of a shared host slow the simulator by up to half for
/// minutes at a time, and this kernel by the same share; see `README.md`.
pub fn calibrate() -> f64 {
    let started = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % (4 * CALIBRATION_KEYS)
    };
    let mut map = BTreeMap::new();
    for _ in 0..CALIBRATION_KEYS {
        let k = next();
        map.insert(k, k);
    }
    let mut sum = 0u64;
    for _ in 0..2 * CALIBRATION_KEYS {
        let k = next();
        if map.remove(&k).is_none() {
            map.insert(k, k);
        }
        if let Some((&found, _)) = map.range(k..).next() {
            sum = sum.wrapping_add(found);
        }
    }
    std::hint::black_box(sum);
    started.elapsed().as_secs_f64()
}

/// The median of `v`, interpolating between the middle two; 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One benchmark run's result: the last line the binary prints.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Trace requests simulated (summed over arms and repeats).
    pub attempted: u64,
    /// Requests that failed: aborted ones, and every request of a run whose
    /// checks failed.
    pub failed: u64,
    /// Requests completed.
    pub completed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// A description of each failed check.
    pub problems: Vec<String>,
    /// Lines for the reader, printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with the metrics of `defs`, in order. Every metric of `defs` must be
    /// present and finite.
    pub fn json(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for d in defs {
            let v = *self
                .metrics
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite: {v}", d.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        Ok(out)
    }
}

/// Output-check bookkeeping across a run's repeats.
struct Tally {
    workload: Workload,
    seed: u64,
    attempted: u64,
    failed: u64,
    completed: u64,
    problems: Vec<String>,
    first: Option<Counts>,
}

impl Tally {
    fn new(workload: Workload, seed: u64) -> Self {
        Tally {
            workload,
            seed,
            attempted: 0,
            failed: 0,
            completed: 0,
            problems: Vec::new(),
            first: None,
        }
    }

    /// Checks one repeat: the output checks, the pinned counts (first
    /// repeat), and the digest against the first repeat's.
    fn record(&mut self, outcome: &Outcome, label: &str) {
        let w = &self.workload;
        let mut problems = outcome.check(w);
        let counts = outcome.counts();
        match self.first {
            None => {
                let pin = pinned::lookup(w.name(), self.seed, counts.requests, w.replicas);
                if let Some(pin) = pin.filter(|pin| *pin != counts) {
                    problems.push(format!(
                        "{} seed {}: counts drifted from pinned.tsv\n  pinned {}\n  got    {}",
                        w.name(),
                        self.seed,
                        pinned::line(w.name(), self.seed, w.replicas, &pin),
                        pinned::line(w.name(), self.seed, w.replicas, &counts),
                    ));
                }
                self.first = Some(counts);
            }
            Some(first) if first != counts => problems.push(format!(
                "{}: {label} run's output differs from the first run's \
                 (digest {:#018x} vs {:#018x})",
                w.name(),
                counts.digest,
                first.digest
            )),
            Some(_) => {}
        }
        let attempted = outcome.attempted();
        self.attempted += attempted;
        self.completed += counts.completed;
        self.failed += if problems.is_empty() {
            outcome.aborted()
        } else {
            attempted
        };
        self.problems.extend(problems);
    }

    fn into_report(self, metrics: BTreeMap<&'static str, f64>) -> Report {
        Report {
            correct: self.problems.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            completed: self.completed,
            metrics,
            problems: self.problems,
            notes: Vec::new(),
        }
    }
}

/// The untraced run: repeats set-up and run until `budget` has passed (and
/// at least [`MIN_REPEATS`] times) and reports the end-to-end metrics.
///
/// [`calibrate`] runs before the first repeat and after every replica's run
/// and every extra set-up. Each host time is scaled by
/// [`REFERENCE_CALIBRATION_S`] over the mean of the two calibrations around
/// it, so it reads as at the reference host speed. Host speed is the median
/// of the scaled per-replica rates, set-up time the median over at least
/// [`MIN_SETUPS`] scaled set-ups.
pub fn measure(w: &Workload, seed: u64, budget: Duration) -> Report {
    let started = Instant::now();
    let mut tally = Tally::new(*w, seed);
    let mut setup = Vec::new();
    let mut rate = Vec::new();
    let mut raw_rate = Vec::new();
    let mut host = HostSpeed::new();
    let mut sim = BTreeMap::new();
    while setup.len() < MIN_REPEATS || started.elapsed() < budget {
        let t = Instant::now();
        let prepared = prepare(w, seed, &mut Spans::off());
        let setup_s = t.elapsed().as_secs_f64();
        let first = host.slowness.len();
        let outcome = run_each(prepared, &mut Spans::off(), &mut || {
            host.after_step();
        });
        let slow = &host.slowness[first..];
        // The set-up ran between the calibrations around the first replica.
        setup.push(setup_s / slow[0]);
        raw_rate.extend(outcome.replica_rates());
        rate.extend(outcome.replica_rates().zip(slow).map(|(r, s)| r * s));
        tally.record(&outcome, "untraced");
        if sim.is_empty() {
            let h = outcome.headline(w);
            sim.insert("sim.prefill_p50_s", h.report.prefill.p50);
            sim.insert("sim.prefill_p99_s", h.report.prefill.p99);
            sim.insert("sim.decode_p99_s", h.report.decode.p99);
            sim.insert("sim.e2e_p99_s", h.report.e2e.p99);
            sim.insert("sim.avg_instances", h.avg_instances);
        }
    }
    while setup.len() < MIN_SETUPS {
        let t = Instant::now();
        drop(prepare(w, seed, &mut Spans::off()));
        let setup_s = t.elapsed().as_secs_f64();
        setup.push(setup_s / host.after_step());
    }
    let mut metrics = sim;
    metrics.insert("requests_per_s", median(&mut rate));
    metrics.insert("setup_s", median(&mut setup));
    metrics.insert("peak_rss_mb", peak_rss_mib());
    let mut report = tally.into_report(metrics);
    report.notes.push(format!(
        "unscaled requests_per_s {:.1}; host slowness {:.3} (median over {} calibrations)",
        median(&mut raw_rate),
        median(&mut host.slowness),
        host.slowness.len()
    ));
    report
}

/// Host slowness relative to the reference, one figure per timed step.
struct HostSpeed {
    /// The latest [`calibrate`] time.
    last: f64,
    /// Slowness over each step timed so far.
    slowness: Vec<f64>,
}

impl HostSpeed {
    fn new() -> Self {
        HostSpeed {
            last: calibrate(),
            slowness: Vec::new(),
        }
    }

    /// Calibrates again and returns the slowness over the step just timed:
    /// the mean of the calibrations before and after it, over
    /// [`REFERENCE_CALIBRATION_S`].
    fn after_step(&mut self) -> f64 {
        let after = calibrate();
        let slow = (self.last + after) / 2.0 / REFERENCE_CALIBRATION_S;
        self.last = after;
        self.slowness.push(slow);
        slow
    }
}

/// The traced run: after one warm-up repeat, alternates untraced and traced
/// repeats until `budget` has passed (at least one pair), checks that every
/// repeat's output digest matches, and reports the per-layer metrics: span
/// totals and the tracing overhead as medians over traced repeats, exact
/// counts from the output, and the kernel replays sized from it.
pub fn traced(w: &Workload, seed: u64, budget: Duration) -> Report {
    let started = Instant::now();
    let mut spans = Spans::on();
    let mut tally = Tally::new(*w, seed);
    let mut layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut overhead = Vec::new();
    let mut per_event = Vec::new();
    // A warm-up repeat, so neither side of the first pair pays the
    // process's cold start.
    tally.record(
        &run(prepare(w, seed, &mut Spans::off()), &mut Spans::off()),
        "warm-up",
    );
    let mut last: Option<Outcome> = None;
    while overhead.is_empty() || started.elapsed() < budget {
        let t = Instant::now();
        let outcome = run(prepare(w, seed, &mut Spans::off()), &mut Spans::off());
        let untraced = t.elapsed().as_secs_f64();
        tally.record(&outcome, "untraced");
        drop(outcome);

        spans.clear();
        let t = Instant::now();
        let outcome = run(prepare(w, seed, &mut spans), &mut spans);
        overhead.push(t.elapsed().as_secs_f64() - untraced);
        tally.record(&outcome, "traced");
        for (metric, names) in LAYER_SPANS {
            let total = names.iter().map(|n| spans.total(n)).sum();
            layer.entry(metric).or_default().push(total);
        }
        // Host time per event of the simulators that ran from t=0 to the end
        // (the resumed arm's count repeats the prefix it did not simulate).
        let looped = spans.total("core.serving.ramp") + spans.total("core.serving.drain");
        per_event.push(looped * 1e9 / outcome.untouched_events(w).max(1) as f64);
        last = Some(outcome);
    }
    let outcome = last.expect("at least one traced repeat");
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (metric, mut v) in layer {
        metrics.insert(metric, median(&mut v));
    }
    metrics.insert("trace.overhead_s", median(&mut overhead));
    metrics.insert("sim.queue.ns_per_event", median(&mut per_event));

    let counts = outcome.counts();
    let sum = |f: &dyn Fn(&llumnix_core::ServingOutput) -> u64| -> f64 {
        outcome.outputs.iter().map(f).sum::<u64>() as f64
    };
    metrics.insert("sim.queue.events", counts.events as f64);
    metrics.insert("engine.steps", counts.engine_steps as f64);
    metrics.insert(
        "engine.preemptions",
        outcome
            .reports
            .iter()
            .map(|r| r.total_preemptions)
            .sum::<u64>() as f64,
    );
    let started_migrations = sum(&|o| o.migration_stats.started);
    metrics.insert("migration.started", started_migrations);
    metrics.insert("migration.committed", counts.migrations as f64);
    metrics.insert("migration.aborted", sum(&|o| o.migration_stats.aborted));
    metrics.insert(
        "migration.commit_ratio",
        if started_migrations > 0.0 {
            counts.migrations as f64 / started_migrations
        } else {
            0.0
        },
    );
    metrics.insert("core.serving.samples", sum(&|o| o.queued.len() as u64));
    metrics.insert("faults.crashes", sum(&|o| o.fault_stats.crashes));
    metrics.insert(
        "faults.requests_lost",
        sum(&|o| o.fault_stats.requests_lost),
    );
    metrics.insert(
        "faults.requests_redispatched",
        sum(&|o| o.fault_stats.requests_redispatched),
    );

    let sizes = replay::Sizes::from_output(&outcome.outputs[0]);
    for k in replay::all(&sizes, w.config().autoscale.is_some()) {
        metrics.insert(k.name, k.ns_per_op);
    }
    tally.into_report(metrics)
}
