//! `llumnix-cli` — run serving experiments from the command line.
//!
//! ```text
//! llumnix-cli trace-gen --preset M-M --requests 10000 --rate 8 --out trace.json
//! llumnix-cli run --preset M-M --rate 8 --scheduler llumnix --instances 16
//! llumnix-cli run --trace trace.json --scheduler infaas++ --instances 16
//! llumnix-cli compare --preset L-L --rate 4 --instances 16
//! llumnix-cli info
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use llumnix::metrics::{fmt_secs, sparkline_annotated, to_csv, LatencyReport, Table};
use llumnix::model::{CostModel, DecodeBatch, InstanceSpec};
use llumnix::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = Flags::parse(&args[1..]).and_then(|mut flags| match command.as_str() {
        "trace-gen" => cmd_trace_gen(&mut flags),
        "run" => cmd_run(&mut flags),
        "compare" => cmd_compare(&mut flags),
        "sweep" => cmd_sweep(&mut flags),
        "info" => cmd_info(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
llumnix-cli — Llumnix serving experiments

USAGE:
  llumnix-cli trace-gen --preset <NAME> --rate <R> [--requests <N>] [--cv <CV>]
                        [--high-frac <F>] [--seed <S>] --out <FILE>
  llumnix-cli run       (--preset <NAME> --rate <R> [--requests <N>] [--cv <CV>]
                         [--high-frac <F>] [--seed <S>] | --trace <FILE>)
                        [--scheduler <KIND>] [--instances <N>] [--autoscale <MAX>]
                        [--json <FILE>] [--csv <FILE>]
  llumnix-cli compare   (--preset <NAME> --rate <R> [--requests <N>] [--cv <CV>]
                         [--high-frac <F>] [--seed <S>] | --trace <FILE>)
                        [--instances <N>]
  llumnix-cli sweep     --preset <NAME> --rates <R1,R2,...> [--requests <N>]
                        [--instances <N>] [--seed <S>] [--csv <FILE>]
  llumnix-cli info

Every flag takes a value. A flag the command does not read is an error.

PRESETS:    S-S M-M L-L S-L L-S ShareGPT BurstGPT
SCHEDULERS: round-robin infaas++ llumnix-base llumnix centralized";

/// A command's `--flag value` pairs. A command reads its flags through
/// [`Flags::get`], then calls [`Flags::finish`] before it simulates or
/// writes anything, which rejects every flag it did not read: a typo or a
/// flag meant for another command is an error, never silently ignored.
struct Flags {
    values: BTreeMap<String, String>,
    read: BTreeSet<String>,
}

impl Flags {
    /// Every argument must be a `--flag` followed by its value.
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut values = BTreeMap::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}`"));
            };
            let Some(value) = args.next().filter(|v| !v.starts_with("--")) else {
                return Err(format!("--{key} needs a value"));
            };
            if values.insert(key.to_string(), value.clone()).is_some() {
                return Err(format!("--{key} is given twice"));
            }
        }
        Ok(Flags {
            values,
            read: BTreeSet::new(),
        })
    }

    /// The value of `--key`, if given; marks the flag as read.
    fn get(&mut self, key: &str) -> Option<String> {
        self.read.insert(key.to_string());
        self.values.get(key).cloned()
    }

    /// Rejects the first flag the command did not read.
    fn finish(&self) -> Result<(), String> {
        match self.values.keys().find(|k| !self.read.contains(*k)) {
            Some(key) => Err(format!(
                "unknown flag --{key} for this command (see `llumnix-cli help`)"
            )),
            None => Ok(()),
        }
    }
}

/// The value of `--key`, or `default` when the flag is absent. A value that
/// does not parse is an error, never the default.
fn get<T: std::str::FromStr>(flags: &mut Flags, key: &str, default: T) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value `{v}` for --{key}")),
    }
}

/// A float flag: `default` when absent, otherwise a finite value for which
/// `valid` holds. Anything else is an error naming the flag and `expected`.
fn get_f64(
    flags: &mut Flags,
    key: &str,
    default: f64,
    valid: fn(f64) -> bool,
    expected: &str,
) -> Result<f64, String> {
    let v: f64 = get(flags, key, default)?;
    if v.is_finite() && valid(v) {
        Ok(v)
    } else {
        Err(format!(
            "--{key} must be a finite number {expected}, got `{v}`"
        ))
    }
}

/// `--instances`, default 16; a fleet needs at least one instance.
fn instances(flags: &mut Flags) -> Result<u32, String> {
    match get(flags, "instances", 16)? {
        0 => Err("--instances must be at least 1".into()),
        n => Ok(n),
    }
}

/// `--requests`, default 10 000; an empty trace measures nothing.
fn requests(flags: &mut Flags) -> Result<usize, String> {
    match get(flags, "requests", 10_000)? {
        0 => Err("--requests must be at least 1".into()),
        n => Ok(n),
    }
}

fn scheduler_by_name(name: &str) -> Result<SchedulerKind, String> {
    Ok(match name {
        "round-robin" | "rr" => SchedulerKind::RoundRobin,
        "infaas++" | "infaas" => SchedulerKind::InfaasPlusPlus,
        "llumnix-base" => SchedulerKind::LlumnixBase,
        "llumnix" => SchedulerKind::Llumnix,
        "centralized" => SchedulerKind::Centralized,
        other => return Err(format!("unknown scheduler `{other}`")),
    })
}

/// The trace `run` and `compare` serve: `--trace <FILE>`, or a preset.
fn build_trace_from_flags(flags: &mut Flags) -> Result<Trace, String> {
    if let Some(path) = flags.get("trace") {
        let body = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        return serde_json::from_str(&body).map_err(|e| format!("parse {path}: {e}"));
    }
    preset_trace(flags)
}

/// A preset trace: `--preset` and `--rate`, with `--requests`, `--cv`,
/// `--high-frac` and `--seed`.
fn preset_trace(flags: &mut Flags) -> Result<Trace, String> {
    let preset = flags
        .get("preset")
        .ok_or("need --preset <NAME> or --trace <FILE>")?;
    if flags.get("rate").is_none() {
        return Err("need --rate <R> with --preset".into());
    }
    let rate = get_f64(flags, "rate", 0.0, |r| r > 0.0, "above 0")?;
    let n = requests(flags)?;
    let cv = get_f64(flags, "cv", 0.0, |cv| cv >= 0.0, "of at least 0")?;
    let arrivals = if cv > 0.0 {
        Arrivals::gamma(rate, cv)
    } else {
        Arrivals::poisson(rate)
    };
    let high = get_f64(
        flags,
        "high-frac",
        0.0,
        |f| (0.0..=1.0).contains(&f),
        "from 0 to 1",
    )?;
    let seed: u64 = get(flags, "seed", 20240710)?;
    let spec = trace_presets::by_name(&preset, n, arrivals)
        .ok_or_else(|| format!("unknown preset `{preset}`"))?
        .with_high_priority_fraction(high);
    Ok(spec.generate(&SimRng::new(seed)))
}

fn cmd_trace_gen(flags: &mut Flags) -> Result<(), String> {
    let trace = preset_trace(flags)?;
    let out = flags.get("out").ok_or("need --out <FILE>")?;
    flags.finish()?;
    let body = serde_json::to_string(&trace).map_err(|e| e.to_string())?;
    std::fs::write(&out, body).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "wrote {} requests ({:.0}s span, mean in/out {:.0}/{:.0} tokens) to {out}",
        trace.len(),
        trace.span().as_secs_f64(),
        trace.mean_input_len(),
        trace.mean_output_len()
    );
    Ok(())
}

fn report_table(label: &str, report: &LatencyReport, out: &ServingOutput) -> Table {
    let mut t = Table::new(
        format!("{label}: {} requests served", report.e2e.count),
        &["metric", "mean", "p50", "p99"],
    );
    for (name, s) in [
        ("e2e", &report.e2e),
        ("prefill", &report.prefill),
        ("decode/token", &report.decode),
    ] {
        t.row(&[
            name.to_string(),
            fmt_secs(s.mean),
            fmt_secs(s.p50),
            fmt_secs(s.p99),
        ]);
    }
    t.row(&[
        "preemption loss".into(),
        fmt_secs(report.preemption_loss.mean),
        String::new(),
        fmt_secs(report.preemption_loss.p99),
    ]);
    t.row(&[
        "migrations".into(),
        format!("{}", out.migration_stats.committed),
        String::new(),
        String::new(),
    ]);
    t.row(&[
        "avg instances".into(),
        format!("{:.2}", out.avg_instances),
        String::new(),
        String::new(),
    ]);
    t
}

fn cmd_run(flags: &mut Flags) -> Result<(), String> {
    let instances = instances(flags)?;
    let trace = build_trace_from_flags(flags)?;
    let kind = scheduler_by_name(flags.get("scheduler").as_deref().unwrap_or("llumnix"))?;
    let autoscale_max: u32 = get(flags, "autoscale", 0)?;
    let csv_path = flags.get("csv");
    let json_path = flags.get("json");
    flags.finish()?;
    let mut config = ServingConfig::new(kind, instances);
    if autoscale_max > 0 {
        config = config.with_autoscale(AutoScaleConfig::paper_default(autoscale_max));
    }
    let out = run_serving(config, trace);
    let report = LatencyReport::from_records(&out.records);
    println!("{}", report_table(kind.label(), &report, &out).render());
    println!(
        "fleet size      {}",
        sparkline_annotated(&out.instances, 48)
    );
    println!("queued requests {}", sparkline_annotated(&out.queued, 48));
    println!(
        "fragmentation   {}",
        sparkline_annotated(&out.fragmentation, 48)
    );
    if out.aborted > 0 {
        println!("warning: {} requests aborted", out.aborted);
    }
    if let Some(path) = csv_path {
        let csv = to_csv(&[
            &out.instances,
            &out.queued,
            &out.fragmentation,
            &out.free_blocks,
        ]);
        std::fs::write(&path, csv).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote timeline CSV to {path}");
    }
    if let Some(path) = json_path {
        let body = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(&path, body).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote JSON report to {path}");
    }
    Ok(())
}

fn cmd_compare(flags: &mut Flags) -> Result<(), String> {
    let instances = instances(flags)?;
    let trace = build_trace_from_flags(flags)?;
    flags.finish()?;
    let mut table = Table::new(
        format!(
            "scheduler comparison: {} requests on {instances} instances",
            trace.len()
        ),
        &[
            "scheduler",
            "e2e mean/p99",
            "prefill mean/p99",
            "decode mean/p99",
            "preempt",
            "migr",
        ],
    );
    for kind in [
        SchedulerKind::RoundRobin,
        SchedulerKind::InfaasPlusPlus,
        SchedulerKind::LlumnixBase,
        SchedulerKind::Llumnix,
    ] {
        let out = run_serving(ServingConfig::new(kind, instances), trace.clone());
        let r = LatencyReport::from_records(&out.records);
        table.row(&[
            kind.label().to_string(),
            format!("{} / {}", fmt_secs(r.e2e.mean), fmt_secs(r.e2e.p99)),
            format!("{} / {}", fmt_secs(r.prefill.mean), fmt_secs(r.prefill.p99)),
            format!("{} / {}", fmt_secs(r.decode.mean), fmt_secs(r.decode.p99)),
            format!("{}", r.total_preemptions),
            format!("{}", out.migration_stats.committed),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

fn cmd_sweep(flags: &mut Flags) -> Result<(), String> {
    let preset = flags.get("preset").ok_or("need --preset <NAME>")?;
    let rates = flags
        .get("rates")
        .ok_or("need --rates <R1,R2,...>")?
        .split(',')
        .map(|r| match r.trim().parse::<f64>() {
            Ok(rate) if rate.is_finite() && rate > 0.0 => Ok(rate),
            _ => Err(format!("invalid rate `{r}` in --rates")),
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let n = requests(flags)?;
    let instances = instances(flags)?;
    let seed: u64 = get(flags, "seed", 20240710)?;
    let csv_path = flags.get("csv");
    flags.finish()?;
    let mut table = Table::new(
        format!("rate sweep: {preset}, {n} requests, {instances} instances"),
        &[
            "rate",
            "scheduler",
            "e2e mean",
            "prefill p99",
            "decode p99",
            "preempt",
            "migr",
        ],
    );
    let mut csv = String::from(
        "rate,scheduler,e2e_mean,e2e_p99,prefill_mean,prefill_p99,decode_mean,decode_p99,preemptions,migrations\n",
    );
    for &rate in &rates {
        let spec = trace_presets::by_name(&preset, n, Arrivals::poisson(rate))
            .ok_or_else(|| format!("unknown preset `{preset}`"))?;
        let trace = spec.generate(&SimRng::new(seed));
        for kind in [SchedulerKind::InfaasPlusPlus, SchedulerKind::Llumnix] {
            let out = run_serving(ServingConfig::new(kind, instances), trace.clone());
            let r = LatencyReport::from_records(&out.records);
            table.row(&[
                format!("{rate}"),
                kind.label().to_string(),
                fmt_secs(r.e2e.mean),
                fmt_secs(r.prefill.p99),
                fmt_secs(r.decode.p99),
                format!("{}", r.total_preemptions),
                format!("{}", out.migration_stats.committed),
            ]);
            csv.push_str(&format!(
                "{rate},{},{},{},{},{},{},{},{},{}\n",
                kind.label(),
                r.e2e.mean,
                r.e2e.p99,
                r.prefill.mean,
                r.prefill.p99,
                r.decode.mean,
                r.decode.p99,
                r.total_preemptions,
                out.migration_stats.committed
            ));
        }
    }
    println!("{}", table.render());
    if let Some(path) = csv_path {
        std::fs::write(&path, csv).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote sweep CSV to {path}");
    }
    Ok(())
}

fn cmd_info(flags: &Flags) -> Result<(), String> {
    flags.finish()?;
    let mut t = Table::new(
        "instance types",
        &[
            "model",
            "gpus",
            "kv capacity (tokens)",
            "blocks",
            "lone decode step",
            "full decode step",
        ],
    );
    for spec in [
        InstanceSpec::llama_7b_a10(),
        InstanceSpec::llama_30b_4xa10(),
    ] {
        let lone = spec.cost.decode_step(DecodeBatch {
            num_seqs: 1,
            total_tokens: 256,
        });
        let full = spec.cost.decode_step(DecodeBatch {
            num_seqs: 32,
            total_tokens: spec.geometry.capacity_tokens() as u64,
        });
        t.row(&[
            spec.model.name.clone(),
            format!("{}", spec.model.tensor_parallel),
            format!("{}", spec.geometry.capacity_tokens()),
            format!("{}", spec.geometry.total_blocks),
            format!("{lone}"),
            format!("{full}"),
        ]);
    }
    println!("{}", t.render());
    println!("trace presets: S-S M-M L-L S-L L-S ShareGPT BurstGPT (paper Table 1)");
    Ok(())
}
