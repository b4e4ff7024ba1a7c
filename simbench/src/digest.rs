//! A stable fingerprint of a run's simulated output.
//!
//! The simulator is deterministic, so the same inputs must produce the same
//! bytes: every repeat of a workload, and the traced and untraced runs, must
//! hash to the same value. The hash covers every request record, the run's
//! counters and the sampled timelines; it never covers host time.

use llumnix_core::ServingOutput;
use llumnix_metrics::{RecordPriority, TimeSeries};
use llumnix_sim::{SimDuration, SimTime};

/// 64-bit FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the hash.
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn time(&mut self, t: SimTime) {
        self.word(t.as_micros());
    }

    fn duration(&mut self, d: SimDuration) {
        self.word(d.as_micros());
    }

    fn series(&mut self, s: &TimeSeries) {
        self.word(s.len() as u64);
        for &(at, v) in s.points() {
            self.time(at);
            self.word(v.to_bits());
        }
    }

    /// Folds one serving run's simulated output into the hash.
    pub fn output(&mut self, out: &ServingOutput) {
        self.word(out.records.len() as u64);
        for r in &out.records {
            self.word(r.id);
            self.word(match r.priority {
                RecordPriority::Normal => 0,
                RecordPriority::High => 1,
            });
            self.word(u64::from(r.input_len));
            self.word(u64::from(r.output_len));
            self.time(r.arrival);
            self.time(r.first_token);
            self.time(r.finish);
            self.word(u64::from(r.preemptions));
            self.duration(r.preemption_loss);
            self.word(u64::from(r.migrations));
            self.duration(r.migration_downtime);
            self.duration(r.decode_compute);
            self.duration(r.max_token_gap);
        }
        self.word(out.aborted);
        self.word(out.events_processed);
        self.time(out.makespan);
        self.word(out.avg_instances.to_bits());
        let m = &out.migration_stats;
        for v in [m.started, m.committed, m.aborted, m.total_stages] {
            self.word(v);
        }
        self.duration(m.total_downtime);
        self.word(out.stalls.count as u64);
        self.word(out.stalls.mean.to_bits());
        let f = &out.fault_stats;
        for v in [
            f.crashes,
            f.crashes_skipped,
            f.slowdowns,
            f.link_failures,
            f.requests_lost,
            f.requests_redispatched,
            f.requests_lost_aborted,
            f.aborts_source_failed,
            f.aborts_destination_failed,
            f.aborts_link_failed,
        ] {
            self.word(v);
        }
        self.series(&out.queued);
        self.series(&out.instances);
        self.series(&out.free_blocks);
    }

    /// The hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
