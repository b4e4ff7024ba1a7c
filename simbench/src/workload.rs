//! The three workloads: inputs generated from a seed, set-up, the run, and
//! the checks every run's output must pass.
//!
//! Every workload is an open-loop arrival schedule in *simulated* time,
//! expanded from the seed before anything is timed. The simulator receives
//! only the generated [`Trace`] and [`FaultPlan`], and runs on the classic
//! single-queue event loop in one thread.

use std::time::Instant;

use llumnix_core::{
    AutoScaleConfig, FaultPlan, FaultPlanConfig, SchedulerKind, ServingConfig, ServingOutput,
    ServingSim,
};
use llumnix_metrics::{LatencyReport, RequestRecord};
use llumnix_sim::{SimDuration, SimRng, SimTime};
use llumnix_workload::{presets, Arrivals, Trace};

use crate::digest::Digest;
use crate::spans::Spans;

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["llumnix16_mm", "fleet1024_short", "churn256_forked"];

/// A seed kept out of tuning, so a later claim can be re-checked on inputs
/// nobody optimised for. `--seed held-out` selects it.
pub const HELD_OUT_SEED: u64 = 8_675_309;

/// The benchmark's reference seed: the repository's default experiment seed,
/// under which `BENCH_sim_throughput.json` recorded its event count.
pub const REFERENCE_SEED: u64 = 20_240_710;

/// Which of the three shapes a workload has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 16 LLaMA-7B instances under Llumnix on the M-M trace, Poisson
    /// arrivals at 10 req/s (the `sim_throughput` shape).
    Llumnix16Mm,
    /// 1 024 instances under Llumnix on the S-S trace, Poisson arrivals at
    /// 8 800 req/s (8.6 per instance, the Figure 16 rate).
    Fleet1024Short,
    /// An auto-scaled fleet (64 initial, 32 to 256) under Llumnix on the L-L
    /// trace, Gamma arrivals with CV 4 at 0.15 req/s per maximum instance,
    /// snapshotted at the end of arrivals and forked into a fault-free arm
    /// and a high-churn arm (the Figure 17 `--forked` shape).
    Churn256Forked,
}

/// A workload: a shape, its run length and its replica count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// The shape.
    pub shape: Shape,
    /// Trace requests per arm. The run length is part of the workload's
    /// definition: the host cost per event grows with the simulated backlog.
    pub requests: usize,
    /// Independent traces (and fault plans) one run serves, each on its own
    /// fresh simulator. Replica 0 uses the seed itself; the others derive
    /// theirs from it. More replicas make the simulated tail latencies of a
    /// bursty workload steadier from seed to seed.
    pub replicas: usize,
}

/// Instances, maximum instances and request rate of the churn workload.
const CHURN_FLEET: u32 = 256;
const CHURN_RATE_PER_INSTANCE: f64 = 0.15;
/// Crashes per instance-hour of the high-churn arm (Figure 17's `high`).
const CHURN_CRASHES_PER_INSTANCE_HOUR: f64 = 8.0;

impl Workload {
    /// The workload named `name` at its full size.
    pub fn by_name(name: &str) -> Option<Workload> {
        let (shape, requests, replicas) = match name {
            "llumnix16_mm" => (Shape::Llumnix16Mm, 10_000, 4),
            "fleet1024_short" => (Shape::Fleet1024Short, 16_384, 4),
            "churn256_forked" => (Shape::Churn256Forked, 4_000, 5),
            _ => return None,
        };
        Some(Workload {
            shape,
            requests,
            replicas,
        })
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        match self.shape {
            Shape::Llumnix16Mm => WORKLOADS[0],
            Shape::Fleet1024Short => WORKLOADS[1],
            Shape::Churn256Forked => WORKLOADS[2],
        }
    }

    /// The same shape at another run length (reduced-size tests).
    pub fn with_requests(self, requests: usize) -> Workload {
        Workload { requests, ..self }
    }

    /// The same shape with another replica count.
    pub fn with_replicas(self, replicas: usize) -> Workload {
        Workload { replicas, ..self }
    }

    /// Whether each replica snapshots mid-run and forks two arms.
    pub fn forked(&self) -> bool {
        self.shape == Shape::Churn256Forked
    }

    /// Serving arms per replica.
    pub fn arms(&self) -> usize {
        if self.forked() {
            2
        } else {
            1
        }
    }

    /// Trace arrival rate, req/s.
    fn rate(&self) -> f64 {
        match self.shape {
            Shape::Llumnix16Mm => 10.0,
            Shape::Fleet1024Short => 8_800.0,
            Shape::Churn256Forked => CHURN_RATE_PER_INSTANCE * f64::from(CHURN_FLEET),
        }
    }

    /// The serving configuration, without any fault plan.
    pub fn config(&self) -> ServingConfig {
        match self.shape {
            Shape::Llumnix16Mm => ServingConfig::new(SchedulerKind::Llumnix, 16),
            Shape::Fleet1024Short => ServingConfig::new(SchedulerKind::Llumnix, 1024),
            Shape::Churn256Forked => {
                let mut scale = AutoScaleConfig::paper_default(CHURN_FLEET);
                scale.min_instances = CHURN_FLEET / 8;
                ServingConfig::new(SchedulerKind::Llumnix, CHURN_FLEET / 4).with_autoscale(scale)
            }
        }
    }

    /// The seed of replica `r`: the run's seed for replica 0.
    pub fn replica_seed(seed: u64, r: usize) -> u64 {
        if r == 0 {
            seed
        } else {
            SimRng::new(seed)
                .split_indexed("simbench/replica", r as u64)
                .seed()
        }
    }

    /// The arrival schedule for `seed`.
    pub fn trace(&self, seed: u64) -> Trace {
        let (preset, arrivals) = match self.shape {
            Shape::Llumnix16Mm => ("M-M", Arrivals::poisson(self.rate())),
            Shape::Fleet1024Short => ("S-S", Arrivals::poisson(self.rate())),
            Shape::Churn256Forked => ("L-L", Arrivals::gamma(self.rate(), 4.0)),
        };
        presets::by_name(preset, self.requests, arrivals)
            .expect("preset names are fixed")
            .generate(&SimRng::new(seed))
    }

    /// The fork point: the nominal end of arrivals (`requests / rate`).
    pub fn fork_point(&self) -> Option<SimTime> {
        self.forked()
            .then(|| SimTime::ZERO + SimDuration::from_millis(self.nominal_window_ms()))
    }

    fn nominal_window_ms(&self) -> u64 {
        (1_000.0 * self.requests as f64 / self.rate()) as u64
    }

    /// The fault schedule's configuration: fault-free except on the churn
    /// workload, whose high-churn arm crashes instances (restarting them
    /// after 10 s), slows them 1.5-3x for 10 s and takes migration links
    /// down for 5 s, from 1 s after the fork point for twice the arrival
    /// window.
    pub fn fault_config(&self) -> FaultPlanConfig {
        if !self.forked() {
            return FaultPlanConfig::none();
        }
        let window = self.nominal_window_ms();
        let crash = CHURN_CRASHES_PER_INSTANCE_HOUR * f64::from(CHURN_FLEET);
        FaultPlanConfig::none()
            .with_crashes(crash, Some(SimDuration::from_secs(10)))
            .with_slowdowns(2.0 * crash, (1.5, 3.0), SimDuration::from_secs(10))
            .with_link_failures(crash, SimDuration::from_secs(5))
            .with_horizon(SimDuration::from_millis(2 * window))
            .with_start_offset(SimDuration::from_millis(window) + SimDuration::from_secs(1))
    }
}

/// One replica set up and ready to run.
struct Replica {
    sim: ServingSim,
    /// The plan the forked workload activates on its fault arm.
    fork_plan: FaultPlan,
    fork_at: Option<SimTime>,
    last_arrival: SimTime,
}

/// A workload set up and ready to run: one simulator per replica.
pub struct Prepared {
    replicas: Vec<Replica>,
    requests: usize,
}

/// Set-up: generates each replica's trace and fault plan from the seed and
/// builds its simulator. Spans: `workload.generate`, `faults.generate`,
/// `core.serving.new`.
pub fn prepare(w: &Workload, seed: u64, spans: &mut Spans) -> Prepared {
    let replicas = (0..w.replicas)
        .map(|r| {
            let seed = Workload::replica_seed(seed, r);
            let trace = spans.time("workload.generate", || w.trace(seed));
            let plan = spans.time("faults.generate", || {
                FaultPlan::generate(
                    &w.fault_config(),
                    &SimRng::new(seed).split("simbench/faults"),
                )
            });
            let last_arrival = trace.span();
            let fork_at = w.fork_point();
            let (config, fork_plan) = if fork_at.is_some() {
                (w.config(), plan)
            } else {
                (w.config().with_faults(plan), FaultPlan::empty())
            };
            let sim = spans.time("core.serving.new", || ServingSim::new(config, trace));
            Replica {
                sim,
                fork_plan,
                fork_at,
                last_arrival,
            }
        })
        .collect();
    Prepared {
        replicas,
        requests: w.requests,
    }
}

/// What one run produced.
pub struct Outcome {
    /// One output per replica and arm, replica-major: the only arm, or
    /// `[fault-free, high-churn]` per replica.
    pub outputs: Vec<ServingOutput>,
    /// The latency report of each output.
    pub reports: Vec<LatencyReport>,
    /// Host seconds of each replica's run plus its reports.
    pub replica_wall_s: Vec<f64>,
    /// Trace requests per output.
    pub requests: usize,
}

/// Runs one replica; returns its outputs in arm order.
///
/// A single-arm workload runs up to its last arrival (`core.serving.ramp`)
/// and then to the end (`core.serving.drain`); the output is identical to
/// one unsplit `ServingSim::run`. The forked workload runs to the fork
/// point, snapshots, runs the fault-free arm on a resumed copy
/// (`core.serving.drain_resumed`) and the high-churn arm on the original.
fn run_replica(r: Replica, spans: &mut Spans) -> Vec<ServingOutput> {
    let Replica {
        mut sim,
        fork_plan,
        fork_at,
        last_arrival,
    } = r;
    spans.time("core.serving.ramp", || {
        sim.run_until(fork_at.unwrap_or(last_arrival))
    });
    let mut outputs = Vec::new();
    if fork_at.is_some() {
        let snapshot = spans.time("core.snapshot.snapshot", || sim.snapshot());
        let fork = spans.time("core.snapshot.resume", || ServingSim::resume(&snapshot));
        drop(snapshot);
        outputs.push(spans.time("core.serving.drain_resumed", || fork.run()));
        sim.activate_faults(fork_plan);
    }
    outputs.push(spans.time("core.serving.drain", || sim.run()));
    outputs
}

/// Runs every replica of a prepared workload and builds its reports.
pub fn run(p: Prepared, spans: &mut Spans) -> Outcome {
    run_each(p, spans, &mut || ())
}

/// [`run`], calling `after_replica` once each replica's timed run and
/// reports are done.
pub fn run_each(p: Prepared, spans: &mut Spans, after_replica: &mut dyn FnMut()) -> Outcome {
    let mut outputs = Vec::new();
    let mut reports = Vec::new();
    let mut replica_wall_s = Vec::new();
    for r in p.replicas {
        let started = Instant::now();
        let arms = run_replica(r, spans);
        for o in &arms {
            reports.push(spans.time("metrics.report", || LatencyReport::from_records(&o.records)));
        }
        outputs.extend(arms);
        replica_wall_s.push(started.elapsed().as_secs_f64());
        after_replica();
    }
    Outcome {
        outputs,
        reports,
        replica_wall_s,
        requests: p.requests,
    }
}

/// The exact simulated counts of one run, summed over replicas and arms:
/// what the benchmark pins per (workload, seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Trace requests per output.
    pub requests: u64,
    /// Events the event loop processed. A resumed arm's count includes the
    /// prefix simulated before its snapshot.
    pub events: u64,
    /// Engine steps (one stall sample per step).
    pub engine_steps: u64,
    /// Migrations committed.
    pub migrations: u64,
    /// Requests completed.
    pub completed: u64,
    /// Digest of the simulated output.
    pub digest: u64,
}

/// The simulated end-to-end figures of one run.
#[derive(Debug, Clone)]
pub struct Headline {
    /// Latency percentiles over the headline arm's requests of every
    /// replica.
    pub report: LatencyReport,
    /// Time-weighted mean instance count, averaged over those arms.
    pub avg_instances: f64,
}

impl Outcome {
    /// Trace requests summed over outputs.
    pub fn attempted(&self) -> u64 {
        (self.requests * self.outputs.len()) as u64
    }

    /// Trace requests served per host second, one figure per replica.
    pub fn replica_rates(&self) -> impl Iterator<Item = f64> + '_ {
        let per_replica = self.attempted() as f64 / self.replica_wall_s.len() as f64;
        self.replica_wall_s.iter().map(move |w| per_replica / w)
    }

    /// Requests that did not complete (aborted), summed over outputs.
    pub fn aborted(&self) -> u64 {
        self.outputs.iter().map(|o| o.aborted).sum()
    }

    /// The run's exact counts and digest.
    pub fn counts(&self) -> Counts {
        let sum = |f: fn(&ServingOutput) -> u64| self.outputs.iter().map(f).sum();
        let mut digest = Digest::default();
        for o in &self.outputs {
            digest.output(o);
        }
        Counts {
            requests: self.requests as u64,
            events: sum(|o| o.events_processed),
            engine_steps: sum(|o| o.stalls.count as u64),
            migrations: sum(|o| o.migration_stats.committed),
            completed: sum(|o| o.records.len() as u64),
            digest: digest.finish(),
        }
    }

    /// Output indices of the headline arm of every replica: the only arm, or
    /// the high-churn arm. These are the simulators that ran from t=0 to the
    /// end; a resumed arm did not simulate the prefix before its snapshot.
    fn headline_arms(&self, w: &Workload) -> impl Iterator<Item = usize> {
        (w.arms() - 1..self.outputs.len()).step_by(w.arms())
    }

    /// Events processed by the headline arms, each of which simulated all of
    /// its events itself. [`Counts::events`] also sums the resumed arms,
    /// whose counts include the prefix simulated before the snapshot.
    pub fn untouched_events(&self, w: &Workload) -> u64 {
        self.headline_arms(w)
            .map(|i| self.outputs[i].events_processed)
            .sum()
    }

    /// The simulated figures the benchmark reports, from the headline arm
    /// of every replica.
    pub fn headline(&self, w: &Workload) -> Headline {
        let picked: Vec<usize> = self.headline_arms(w).collect();
        let report = if let [only] = picked[..] {
            self.reports[only].clone()
        } else {
            let records: Vec<RequestRecord> = picked
                .iter()
                .flat_map(|&i| self.outputs[i].records.iter().cloned())
                .collect();
            LatencyReport::from_records(&records)
        };
        let avg_instances = picked
            .iter()
            .map(|&i| self.outputs[i].avg_instances)
            .sum::<f64>()
            / picked.len() as f64;
        Headline {
            report,
            avg_instances,
        }
    }

    /// The output checks; returns a description of each one that failed.
    ///
    /// Per output: every request completed or was aborted exactly once
    /// (`records + aborted == requests`); the fault ledger balances; no more
    /// migrations ended than started; a fault-free arm saw no fault fire.
    pub fn check(&self, w: &Workload) -> Vec<String> {
        let mut failed = Vec::new();
        for (i, o) in self.outputs.iter().enumerate() {
            let arm = i % w.arms();
            let label = format!("{}/replica{}/arm{arm}", w.name(), i / w.arms());
            if o.records.len() as u64 + o.aborted != self.requests as u64 {
                failed.push(format!(
                    "{label}: {} records + {} aborted != {} requests",
                    o.records.len(),
                    o.aborted,
                    self.requests
                ));
            }
            if !o.fault_stats.consistent() {
                failed.push(format!("{label}: fault ledger does not balance"));
            }
            let m = &o.migration_stats;
            if m.committed + m.aborted > m.started {
                failed.push(format!(
                    "{label}: {} committed + {} aborted > {} started migrations",
                    m.committed, m.aborted, m.started
                ));
            }
            let faulty_arm = w.forked() && arm == 1;
            if !faulty_arm && !o.fault_stats.quiet() {
                failed.push(format!("{label}: faults fired on a fault-free arm"));
            }
        }
        failed
    }
}
