//! Ablations of the design choices DESIGN.md calls out.
//!
//! Not paper figures — these quantify the trade-offs the paper discusses in
//! prose: the queuing virtual-usage rule (§4.4.2 names the gradual
//! alternative), the migration victim policy (§4.4.3), the migration tick
//! interval and pairing thresholds, vLLM's preemption-recovery mode, and the
//! block-fusion transfer optimization (§5).

use llumnix_bench::{build_trace, run_arms, ArmSpec, BenchOpts, Flag};
use llumnix_core::{MigrationThresholds, QueuingRule, SchedulerKind, ServingConfig, VictimPolicy};
use llumnix_engine::{PreemptionMode, QueueOrder};
use llumnix_metrics::Table;
use llumnix_model::{InstanceSpec, ModelSpec, TransferMode, TransferModel};
use llumnix_sim::SimDuration;
use llumnix_workload::Arrivals;

fn main() {
    let opts = BenchOpts::from_args(&[Flag::Seed, Flag::Scale, Flag::Threads]);
    let n = opts.scaled(6_000);

    let trace_ll = build_trace("L-L", n, Arrivals::poisson(4.0), 0.0, opts.seed);
    let trace_mm = build_trace("M-M", n, Arrivals::poisson(10.0), 0.0, opts.seed);
    let trace_sl = build_trace("S-L", n, Arrivals::poisson(6.0), 0.0, opts.seed);

    let rules = [
        ("full-demand (paper)", QueuingRule::FullDemand),
        ("gradual 5s", QueuingRule::Gradual { ramp_secs: 5.0 }),
        ("gradual 20s", QueuingRule::Gradual { ramp_secs: 20.0 }),
    ];
    let policies = [
        (
            "low-prio shortest (paper)",
            VictimPolicy::LowPriorityShortest,
        ),
        ("shortest", VictimPolicy::Shortest),
        ("longest", VictimPolicy::Longest),
        ("oldest", VictimPolicy::Oldest),
    ];
    let intervals = [50u64, 100, 250, 500, 1000];
    let thresholds = [(10.0, 60.0), (30.0, 60.0), (30.0, 120.0), (60.0, 120.0)];
    let modes = [
        ("recompute (paper)", PreemptionMode::Recompute),
        ("swap", PreemptionMode::Swap),
    ];
    let orders = [
        ("priority-FCFS (paper)", QueueOrder::Fcfs),
        ("shortest-first", QueueOrder::ShortestFirst),
    ];

    // Every simulation-backed arm (sections A-E and G) fans out through one
    // run_arms call; each section then consumes its results in push order.
    let mut arms: Vec<ArmSpec> = Vec::new();
    for (_, rule) in rules {
        let mut config = ServingConfig::new(SchedulerKind::LlumnixBase, 16);
        config.headroom = config.headroom.with_queuing_rule(rule);
        arms.push(ArmSpec {
            config,
            trace: trace_ll.clone(),
            rate: 4.0,
            cv: 1.0,
        });
    }
    for (_, policy) in policies {
        let mut config = ServingConfig::new(SchedulerKind::LlumnixBase, 16);
        config.victim_policy = policy;
        arms.push(ArmSpec {
            config,
            trace: trace_mm.clone(),
            rate: 10.0,
            cv: 1.0,
        });
    }
    for ms in intervals {
        let mut config = ServingConfig::new(SchedulerKind::LlumnixBase, 16);
        config.migration_interval = SimDuration::from_millis(ms);
        arms.push(ArmSpec {
            config,
            trace: trace_mm.clone(),
            rate: 10.0,
            cv: 1.0,
        });
    }
    for (src, dst) in thresholds {
        let mut config = ServingConfig::new(SchedulerKind::LlumnixBase, 16);
        config.migration_thresholds = MigrationThresholds {
            source_below: src,
            destination_above: dst,
        };
        arms.push(ArmSpec {
            config,
            trace: trace_mm.clone(),
            rate: 10.0,
            cv: 1.0,
        });
    }
    for (_, mode) in modes {
        let mut config = ServingConfig::new(SchedulerKind::InfaasPlusPlus, 16);
        config.engine.preemption_mode = mode;
        arms.push(ArmSpec {
            config,
            trace: trace_sl.clone(),
            rate: 6.0,
            cv: 1.0,
        });
    }
    for (_, order) in orders {
        let mut config = ServingConfig::new(SchedulerKind::LlumnixBase, 16);
        config.engine.queue_order = order;
        arms.push(ArmSpec {
            config,
            trace: trace_ll.clone(),
            rate: 4.0,
            cv: 1.0,
        });
    }
    let mut results = run_arms(arms).into_iter();

    // ---- A: queuing virtual-usage rule --------------------------------
    let mut table = Table::new(
        "Ablation A: queuing-demand rule (L-L @ 4 req/s)",
        &[
            "rule",
            "prefill mean",
            "prefill p99",
            "decode p99",
            "preempt",
            "migr",
        ],
    );
    for (label, _) in rules {
        let (arm, _) = results.next().expect("ablation A arm");
        table.row(&[
            label.to_string(),
            format!("{:.2}s", arm.report.prefill.mean),
            format!("{:.2}s", arm.report.prefill.p99),
            format!("{:.3}s", arm.report.decode.p99),
            format!("{}", arm.preemptions),
            format!("{}", arm.migrations),
        ]);
    }
    println!("{}", table.render());

    // ---- B: migration victim policy ------------------------------------
    let mut table = Table::new(
        "Ablation B: migration victim policy (M-M @ 10 req/s)",
        &[
            "policy",
            "e2e mean",
            "prefill p99",
            "decode p99",
            "preempt",
            "migr",
            "mean downtime",
        ],
    );
    for (label, _) in policies {
        let (arm, out) = results.next().expect("ablation B arm");
        let downtime = out.migration_stats.total_downtime.as_secs_f64()
            / out.migration_stats.committed.max(1) as f64;
        table.row(&[
            label.to_string(),
            format!("{:.2}s", arm.report.e2e.mean),
            format!("{:.2}s", arm.report.prefill.p99),
            format!("{:.3}s", arm.report.decode.p99),
            format!("{}", arm.preemptions),
            format!("{}", arm.migrations),
            format!("{:.1}ms", downtime * 1e3),
        ]);
    }
    println!("{}", table.render());

    // ---- C: migration tick interval -------------------------------------
    let mut table = Table::new(
        "Ablation C: migration tick interval (M-M @ 10 req/s)",
        &["interval", "prefill p99", "decode p99", "preempt", "migr"],
    );
    for ms in intervals {
        let (arm, _) = results.next().expect("ablation C arm");
        table.row(&[
            format!("{ms}ms"),
            format!("{:.2}s", arm.report.prefill.p99),
            format!("{:.3}s", arm.report.decode.p99),
            format!("{}", arm.preemptions),
            format!("{}", arm.migrations),
        ]);
    }
    println!("{}", table.render());

    // ---- D: pairing thresholds ------------------------------------------
    let mut table = Table::new(
        "Ablation D: pairing thresholds (M-M @ 10 req/s)",
        &["src/dst", "prefill p99", "decode p99", "preempt", "migr"],
    );
    for (src, dst) in thresholds {
        let (arm, _) = results.next().expect("ablation D arm");
        table.row(&[
            format!("{src}/{dst}"),
            format!("{:.2}s", arm.report.prefill.p99),
            format!("{:.3}s", arm.report.decode.p99),
            format!("{}", arm.preemptions),
            format!("{}", arm.migrations),
        ]);
    }
    println!("{}", table.render());

    // ---- E: preemption-recovery mode -------------------------------------
    let mut table = Table::new(
        "Ablation E: preemption recovery (S-L @ 6 req/s, INFaaS++ dispatch)",
        &[
            "mode",
            "e2e mean",
            "decode p99",
            "preempt",
            "mean preempt loss",
        ],
    );
    for (label, _) in modes {
        let (arm, _) = results.next().expect("ablation E arm");
        table.row(&[
            label.to_string(),
            format!("{:.2}s", arm.report.e2e.mean),
            format!("{:.3}s", arm.report.decode.p99),
            format!("{}", arm.preemptions),
            format!("{:.2}s", arm.report.preemption_loss.mean),
        ]);
    }
    println!("{}", table.render());

    // ---- F: block fusion --------------------------------------------------
    let transfer = TransferModel::alibaba_vm_network();
    let model = ModelSpec::llama_7b();
    let mut table = Table::new(
        "Ablation F: block fusion in KV transfer (paper §5)",
        &["tokens", "fused", "unfused", "messages", "penalty"],
    );
    for tokens in [512u32, 1024, 2048, 4096, 8192] {
        let fused = transfer.copy_time(tokens, &model, TransferMode::GlooFused);
        let unfused = transfer.copy_time(tokens, &model, TransferMode::GlooUnfused);
        table.row(&[
            format!("{tokens}"),
            format!("{fused}"),
            format!("{unfused}"),
            format!("{}", transfer.unfused_messages(tokens, &model)),
            format!("{:.1}x", unfused.as_secs_f64() / fused.as_secs_f64()),
        ]);
    }
    println!("{}", table.render());

    // ---- G: local queue order (paper §7 future work) ----------------------
    let mut table = Table::new(
        "Ablation G: local queue order (L-L @ 4 req/s, Llumnix)",
        &[
            "order",
            "prefill mean",
            "prefill p99",
            "e2e mean",
            "e2e p99",
            "preempt",
        ],
    );
    for (label, _) in orders {
        let (arm, _) = results.next().expect("ablation G arm");
        table.row(&[
            label.to_string(),
            format!("{:.2}s", arm.report.prefill.mean),
            format!("{:.2}s", arm.report.prefill.p99),
            format!("{:.2}s", arm.report.e2e.mean),
            format!("{:.2}s", arm.report.e2e.p99),
            format!("{}", arm.preemptions),
        ]);
    }
    println!("{}", table.render());
    assert!(results.next().is_none(), "all arm results consumed");
    let _ = InstanceSpec::llama_7b_a10();
}
