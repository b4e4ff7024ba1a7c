//! Figure 10: downtime and overhead of migration.
//!
//! Paper setup (§6.2): two instances (LLaMA-7B on 1 GPU, LLaMA-30B on 4),
//! each running a batch with a total of 8k tokens; one request of varying
//! sequence length migrates between them. Reported: the migrated request's
//! downtime under live migration vs recompute vs blocking copy, the number
//! of migration stages, and the decode slowdown on the source during
//! migration. The paper measures ≈20–30 ms constant downtime, two stages at
//! every length, baselines up to 111× worse, and ≤1% decode overhead.

use llumnix_bench::{BenchOpts, Flag};
use llumnix_engine::{
    EngineConfig, EngineEvent, InstanceEngine, InstanceId, PriorityPair, RequestId, RequestMeta,
};
use llumnix_metrics::Table;
use llumnix_migration::{
    reschedule_downtime, CommitResult, MigrationConfig, MigrationCoordinator, ReschedulePolicy,
    StageOutcome, StartOutcome,
};
use llumnix_model::InstanceSpec;
use llumnix_sim::SimTime;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    model: String,
    seq_len: u32,
    migration_downtime_ms: f64,
    stages: u32,
    recompute_downtime_ms: f64,
    blocking_copy_downtime_ms: f64,
    decode_overhead_pct: f64,
}

/// Fills an instance with background requests until its batch totals
/// `total_tokens`, then runs one prefill step to make them resident.
fn fill_instance(e: &mut InstanceEngine, total_tokens: u32, first_id: u64) -> SimTime {
    let per_req = 512u32;
    let mut id = first_id;
    let mut admitted = 0u32;
    while admitted + per_req <= total_tokens {
        e.add_request(
            RequestMeta {
                id: RequestId(id),
                input_len: per_req,
                output_len: 100_000, // effectively endless background load
                priority: PriorityPair::NORMAL,
                arrival: SimTime::ZERO,
            },
            SimTime::ZERO,
        );
        id += 1;
        admitted += per_req;
    }
    let mut now = SimTime::ZERO;
    // Run prefill steps until everything decodes.
    while !e.prefill_pending_ids().is_empty() || e.waiting_len() > 0 {
        let Some(plan) = e.poll_step(now) else { break };
        now = plan.finish_at();
        e.complete_step(now);
    }
    now
}

fn measure(spec: &InstanceSpec, seq_len: u32, name: &str) -> Row {
    // Both batches total 8k tokens; the migrating request is part of the
    // source's 8k and the destination keeps `8k − seq_len` of background so
    // it ends at 8k after the migration lands.
    let background = (8 * 1024 - seq_len.min(8 * 1024 - 512)).min(8 * 1024);
    let mut src = InstanceEngine::new(InstanceId(0), spec.clone(), EngineConfig::default());
    let mut dst = InstanceEngine::new(InstanceId(1), spec.clone(), EngineConfig::default());
    let t_src = fill_instance(&mut src, background, 1_000);
    let t_dst = fill_instance(&mut dst, background, 2_000);
    let mut now = t_src.max(t_dst);

    // The request to migrate: `seq_len` tokens already resident.
    src.add_request(
        RequestMeta {
            id: RequestId(1),
            input_len: seq_len,
            output_len: 100_000,
            priority: PriorityPair::NORMAL,
            arrival: SimTime::ZERO,
        },
        now,
    );
    while src.state(RequestId(1)).map(|s| s.phase) != Some(llumnix_engine::Phase::Running) {
        let plan = src
            .poll_step(now)
            .expect("prefill of the migrating request");
        now = plan.finish_at();
        src.complete_step(now);
    }

    // Baseline decode speed on the source without migration.
    let plan = src.poll_step(now).expect("decode");
    let base_step = plan.duration;
    now = plan.finish_at();
    src.complete_step(now);

    // Start the migration and keep both instances decoding throughout.
    let mut coord = MigrationCoordinator::new(MigrationConfig::default());
    let StartOutcome::Started {
        id,
        mut stage_done_at,
    } = coord.start(RequestId(1), &mut src, &mut dst, now)
    else {
        panic!("migration refused");
    };
    let mut migrating_step = None;
    let commit;
    'outer: loop {
        // Decode on the source until the next protocol event.
        while now < stage_done_at {
            let plan = src.poll_step(now).expect("source decodes during migration");
            if migrating_step.is_none() {
                migrating_step = Some(plan.duration);
            }
            now = plan.finish_at();
            let events = src.complete_step(now);
            for ev in &events {
                if let EngineEvent::Drained(r) = ev {
                    let (mid, commit_at) =
                        coord.on_drained(*r, &mut src, now).expect("awaiting drain");
                    assert_eq!(mid, id);
                    let CommitResult::Committed(out) =
                        coord.on_commit(mid, &mut src, &mut dst, commit_at)
                    else {
                        panic!("commit failed");
                    };
                    commit = out;
                    break 'outer;
                }
            }
        }
        match coord
            .on_stage_done(id, &mut src, &mut dst, stage_done_at)
            .expect("active migration")
        {
            StageOutcome::NextStage { copy_done_at } => {
                stage_done_at = copy_done_at;
            }
            StageOutcome::FinalCopy { commit_at } => {
                let CommitResult::Committed(out) =
                    coord.on_commit(id, &mut src, &mut dst, commit_at)
                else {
                    panic!("commit failed");
                };
                commit = out;
                break;
            }
            StageOutcome::DrainRequested => {
                // Drain resolves at the next step boundary; extend the wait.
                stage_done_at += base_step;
            }
            StageOutcome::Aborted(r) => panic!("unexpected abort: {r}"),
        }
    }

    let overhead = migrating_step
        .map(|d| d.as_secs_f64() / base_step.as_secs_f64() - 1.0)
        .unwrap_or(0.0);
    Row {
        model: name.to_string(),
        seq_len,
        migration_downtime_ms: commit.downtime.as_millis_f64(),
        stages: commit.stages,
        recompute_downtime_ms: reschedule_downtime(ReschedulePolicy::Recompute, seq_len, spec)
            .as_millis_f64(),
        blocking_copy_downtime_ms: reschedule_downtime(
            ReschedulePolicy::BlockingCopy,
            seq_len,
            spec,
        )
        .as_millis_f64(),
        decode_overhead_pct: overhead * 100.0,
    }
}

fn main() {
    let opts = BenchOpts::from_args(&[Flag::Json]);
    let mut rows = Vec::new();
    for (name, spec) in [
        ("LLaMA-7B", InstanceSpec::llama_7b_a10()),
        ("LLaMA-30B", InstanceSpec::llama_30b_4xa10()),
    ] {
        let mut table = Table::new(
            format!("Figure 10: migration downtime and overhead, {name}"),
            &[
                "seq len",
                "migration",
                "stages",
                "recompute",
                "blocking copy",
                "worst/migr",
                "decode overhead",
            ],
        );
        for seq_len in [1024u32, 2048, 4096, 6144, 8192 - 512] {
            let row = measure(&spec, seq_len, name);
            let worst = row.recompute_downtime_ms.max(row.blocking_copy_downtime_ms);
            table.row(&[
                format!("{}", row.seq_len),
                format!("{:.1}ms", row.migration_downtime_ms),
                format!("{}", row.stages),
                format!("{:.0}ms", row.recompute_downtime_ms),
                format!("{:.0}ms", row.blocking_copy_downtime_ms),
                format!("{:.0}x", worst / row.migration_downtime_ms),
                format!("{:.1}%", row.decode_overhead_pct),
            ]);
            rows.push(row);
        }
        println!("{}", table.render());
    }
    println!("paper: ~20-30ms constant downtime, 2 stages, baselines up to 111x, <=1% overhead");
    opts.maybe_write_json(&rows);
}
