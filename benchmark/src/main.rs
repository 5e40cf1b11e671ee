//! The Wishbone benchmark of record. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace [0|1]] \
//!     [--smoke] [--repeat-check] [--write-expected]
//! ```
//!
//! With `--workload` it runs that one workload in this process and ends
//! its standard output with one JSON result line (the contract the
//! driver of `BENCHMARK.json` reads). Without, it runs every workload —
//! each in a child process of its own, so `peak_rss_mb` is per workload —
//! untraced and then traced, prints every metric by name and unit, and
//! writes `benchmark/out/result.json`.

#![forbid(unsafe_code)]

mod calib;
mod contract;
mod fixtures;
mod json;
mod layers;
mod provenance;
mod run;
mod span;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

use workloads::DEFAULT_SEED;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat_check: bool,
    write_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        repeat_check: false,
        write_expected: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                args.seconds = Some(s);
            }
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--repeat-check" => args.repeat_check = true,
            "--write-expected" => args.write_expected = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let contract = contract::Contract::load();
    if args.write_expected {
        print!("{}", workloads::write_expected());
        return ExitCode::SUCCESS;
    }
    // `--smoke`: every workload at a twentieth of its length, one set-up,
    // all checks on.
    let seconds = args.seconds.unwrap_or(if args.smoke {
        contract.run_seconds / 20.0
    } else {
        contract.run_seconds
    });
    let ok = match &args.workload {
        Some(name) => {
            let opts = run::Options {
                seed: args.seed,
                seconds,
                trace: args.trace,
                smoke: args.smoke,
            };
            match run::run(name, &opts, &contract) {
                Ok(result) => {
                    println!("{}", result.to_json_line());
                    result.correct()
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None if args.repeat_check => suite::repeat_check(args.seed, seconds, &contract),
        None => suite::run_all(args.seed, seconds, args.smoke, args.trace, &contract),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
