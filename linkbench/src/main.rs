//! Command line: `linkbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints the environment fingerprint and a summary,
//! then one JSON result line as the last line of standard output.

use linkbench::common::Config;
use linkbench::env::Fingerprint;
use linkbench::report::{END_TO_END, PER_LAYER};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("linkbench: {e}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = Fingerprint::probe();
    println!("env {}", fingerprint.to_json());
    let config = Config::paper(args.seed, args.seconds, args.trace);
    let report = match linkbench::run(&args.workload, &config, fingerprint.calibration_ns) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("linkbench: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        println!("{note}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let missing = report.missing(table);
    if !missing.is_empty() {
        println!("missing metrics: {missing:?}");
    }
    println!("{}", report.result_line(table));
    ExitCode::SUCCESS
}
