//! `simbench`: runs one benchmark workload and prints its result.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload llumnix16_mm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Other flags:
//! `--requests N` overrides the run length, and `--pin` prints the run's
//! `pinned.tsv` line instead of measuring. `--seed held-out` selects the
//! held-out seed.

use std::process::ExitCode;
use std::time::Duration;

use llumnix_simbench::spans::Spans;
use llumnix_simbench::workload::{prepare, run, Workload, HELD_OUT_SEED, WORKLOADS};
use llumnix_simbench::{measure, pinned, traced, END_TO_END, PER_LAYER};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    pin: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut requests = None;
    let mut pin = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--pin" {
            pin = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |what: &str| format!("invalid {what} {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    format!(
                        "unknown workload {value:?}; one of {}",
                        WORKLOADS.join(", ")
                    )
                })?);
            }
            "--seed" => {
                seed = Some(if value == "held-out" {
                    HELD_OUT_SEED
                } else {
                    value.parse().map_err(|_| bad("seed"))?
                });
            }
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("duration"))?;
                if !(1..=600).contains(&seconds) {
                    return Err(format!("--seconds must be 1..=600, got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("switch (0 or 1)")),
                };
            }
            "--requests" => {
                let n: usize = value.parse().map_err(|_| bad("count"))?;
                if !(10..=1_000_000).contains(&n) {
                    return Err(format!("--requests must be 10..=1000000, got {n}"));
                }
                requests = Some(n);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let mut workload = workload.ok_or("--workload is required")?;
    if let Some(n) = requests {
        workload = workload.with_requests(n);
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        pin,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    if args.pin {
        let outcome = run(prepare(&w, args.seed, &mut Spans::off()), &mut Spans::off());
        let problems = outcome.check(&w);
        if !problems.is_empty() {
            eprintln!("error: output checks failed:\n{}", problems.join("\n"));
            return ExitCode::FAILURE;
        }
        println!(
            "{}",
            pinned::line(w.name(), args.seed, w.replicas, &outcome.counts())
        );
        return ExitCode::SUCCESS;
    }
    let budget = Duration::from_secs(args.seconds);
    let (report, defs) = if args.trace {
        (traced(&w, args.seed, budget), &PER_LAYER[..])
    } else {
        (measure(&w, args.seed, budget), &END_TO_END[..])
    };
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    for note in &report.notes {
        println!("{note}");
    }
    println!(
        "{} seed {} ({} requests per arm): sent {}, completed {}, failed {}",
        w.name(),
        args.seed,
        w.requests,
        report.attempted,
        report.completed,
        report.failed
    );
    match report.json(defs) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
