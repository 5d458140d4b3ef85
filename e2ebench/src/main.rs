//! `e2ebench --workload <plan-cold|plan-replan|train-step|all> --seed <n>
//! --seconds <s> --trace <0|1> --daemon <path-to-planner_daemon>`
//!
//! Prints the host fingerprint and every metric by name with its unit,
//! then, as the last line of stdout, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 0 when the benchmark ran
//! (wrong outputs are reported in the object), 1 when it could not run,
//! 2 on bad arguments.

use std::time::Duration;

use e2ebench::host::Fingerprint;
use e2ebench::stats::{result_line, Outcome};
use e2ebench::{run, RunArgs, Workload, PRINTED_ONLY};

fn main() {
    let (workloads, args) = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("e2ebench: {msg}");
            std::process::exit(2);
        }
    };
    let mut total = Outcome::default();
    let mut reported = Vec::new();
    for w in workloads {
        let args = RunArgs {
            workload: w,
            ..args.clone()
        };
        let out = match run(&args) {
            Ok(out) => out,
            Err(msg) => {
                eprintln!("e2ebench: {}: {msg}", w.name());
                std::process::exit(1);
            }
        };
        for p in &out.problems {
            eprintln!("e2ebench: {}: FAILED: {p}", w.name());
        }
        println!(
            "# {} seed={} seconds={} trace={} attempted={} failed={}",
            w.name(),
            args.seed,
            args.seconds.as_secs(),
            u8::from(args.trace),
            out.attempted,
            out.failed
        );
        for m in &out.metrics {
            println!(
                "{:<12} {:<38} {:>16.6} {}",
                w.name(),
                m.name,
                m.value,
                m.unit
            );
        }
        total.attempted += out.attempted;
        total.failed += out.failed;
        reported.push((w, out));
    }
    println!("# host {}", Fingerprint::measure().json());
    let single = reported.len() == 1;
    let metrics: Vec<(String, &e2ebench::stats::Metric)> = reported
        .iter()
        .flat_map(|(w, out)| {
            out.metrics
                .iter()
                .filter(|m| !PRINTED_ONLY.contains(&m.name))
                .map(move |m| {
                    let key = if single {
                        m.name.to_string()
                    } else {
                        format!("{}/{}", w.name(), m.name)
                    };
                    (key, m)
                })
        })
        .collect();
    println!("{}", result_line(&total, &metrics));
}

fn parse_args() -> Result<(Vec<Workload>, RunArgs), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut daemon = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds must be an integer")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--daemon" => daemon = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workloads = if name == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?]
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let args = RunArgs {
        workload: workloads[0],
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        daemon: daemon.ok_or("--daemon is required (run through e2ebench/run.sh)")?,
    };
    Ok((workloads, args))
}
