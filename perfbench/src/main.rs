//! Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//! Prints the host record, one line per metric, and as the last line a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

use llmsim_perfbench::host::{json_string, Host};
use llmsim_perfbench::run::{median, run, Options};
use llmsim_perfbench::workloads::{Size, Workload};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size: Size::Full,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    println!("host {}", host.to_json());
    println!(
        "run {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"threads\": {}}}",
        json_string(opts.workload.name()),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.threads
    );
    let outcome = run(&opts);
    for f in &outcome.failures {
        eprintln!("check failed: {f}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<30} {value:>16.6} {unit}");
    }
    let mut walls = outcome.walls.clone();
    walls.sort_by(f64::total_cmp);
    if let (Some(lo), Some(hi)) = (walls.first(), walls.last()) {
        println!(
            "repetitions n={} wall_s min={lo:.4} median={:.4} max={hi:.4}",
            walls.len(),
            median(&walls)
        );
    }
    if let Some(d) = outcome.digest {
        println!(
            "digest events={} fingerprint={:#018x}",
            d.events, d.fingerprint
        );
    }
    println!(
        "failed_frac {}/{} = {}",
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted as f64
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
