//! Exact simulated counts pinned per (workload, seed, run length, replicas).
//!
//! `pinned.tsv` holds one line per pinned run: workload, seed, requests per
//! output, replicas, events, engine steps, migrations committed, requests
//! completed and the output digest. A run whose inputs match a line must
//! reproduce it exactly, so any drift in the simulated schedule fails the
//! benchmark. Regenerate a line with `simbench --workload W --seed N --pin`.

use crate::workload::Counts;

const TABLE: &str = include_str!("../pinned.tsv");

/// One pinned line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pin {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Independent traces per run.
    pub replicas: usize,
    /// The counts the run must reproduce.
    pub counts: Counts,
}

fn parse_line(line: &str) -> Option<Pin> {
    let f: Vec<&str> = line.split_whitespace().collect();
    let [workload, seed, requests, replicas, events, steps, migrations, completed, digest] = f[..]
    else {
        return None;
    };
    Some(Pin {
        workload: workload.to_string(),
        seed: seed.parse().ok()?,
        replicas: replicas.parse().ok()?,
        counts: Counts {
            requests: requests.parse().ok()?,
            events: events.parse().ok()?,
            engine_steps: steps.parse().ok()?,
            migrations: migrations.parse().ok()?,
            completed: completed.parse().ok()?,
            digest: u64::from_str_radix(digest.trim_start_matches("0x"), 16).ok()?,
        },
    })
}

/// Every pinned line. Panics on a malformed line: the table ships with the
/// benchmark, so a bad line is a bug in it.
pub fn all() -> Vec<Pin> {
    TABLE
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| parse_line(l).unwrap_or_else(|| panic!("malformed pinned.tsv line: {l}")))
        .collect()
}

/// The counts pinned for this workload, seed, run length and replica
/// count, if any.
pub fn lookup(workload: &str, seed: u64, requests: u64, replicas: usize) -> Option<Counts> {
    all()
        .into_iter()
        .find(|p| {
            p.workload == workload
                && p.seed == seed
                && p.counts.requests == requests
                && p.replicas == replicas
        })
        .map(|p| p.counts)
}

/// A `pinned.tsv` line for these counts.
pub fn line(workload: &str, seed: u64, replicas: usize, c: &Counts) -> String {
    format!(
        "{workload}\t{seed}\t{}\t{replicas}\t{}\t{}\t{}\t{}\t{:#018x}",
        c.requests, c.events, c.engine_steps, c.migrations, c.completed, c.digest
    )
}
