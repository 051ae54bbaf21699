//! `esched-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric with unit and sample count,
//! then one JSON result line (`correct`, `attempted`, `failed`,
//! `metrics`). `--pin` instead recomputes the reference outputs and
//! writes them to `perfbench/pins.json`. `--cold-setup <name> --seed <n>`
//! times one cold set-up in this (fresh) process and prints its seconds
//! and output fingerprint; a run starts these as child processes.

use esched_perfbench::pins::Pins;
use esched_perfbench::workloads::{self, RunOptions, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: esched-perfbench --workload <name> --seed <n> --seconds <s> \
--trace <0|1>\n       esched-perfbench --pin\n       \
esched-perfbench --cold-setup <name> --seed <n>";

/// Where `--pin` writes and traced runs put their spans, relative to the
/// repository root the benchmark runs from.
const PINS: &str = "perfbench/pins.json";
const SPANS_DIR: &str = "perfbench/out";

fn fail(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::from(2)
}

fn pin() -> ExitCode {
    let mut pins = Pins::default();
    for w in [Workload::OfflinePaper1024, Workload::OfflineLargeN65k] {
        eprintln!("pinning {}", w.name());
        pins.offline.insert(
            w.name().to_string(),
            workloads::offline_pins(w).into_iter().collect(),
        );
    }
    eprintln!("pinning {}", Workload::PaperFig10.name());
    pins.fig10 = workloads::fig10_pins().into_iter().collect();
    match std::fs::write(PINS, pins.to_json().to_string_pretty() + "\n") {
        Ok(()) => {
            eprintln!("wrote {PINS}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("cannot write {PINS}: {e}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cold_setup = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            return pin();
        }
        let Some(value) = it.next() else {
            return fail(&format!("flag {flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" | "--cold-setup" => match Workload::from_name(value) {
                Some(w) => {
                    workload = Some(w);
                    cold_setup |= flag == "--cold-setup";
                }
                None => return fail(&format!("unknown workload {value}")),
            },
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => return fail("--trace takes 0 or 1"),
                }
            }
            _ => return fail(&format!("unknown flag {flag}")),
        }
    }
    if let (true, Some(workload), Some(seed)) = (cold_setup, workload, seed) {
        let (secs, print) = workloads::cold_setup(workload, seed);
        println!("{secs} {print}");
        return ExitCode::SUCCESS;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return fail("missing or invalid --workload, --seed, --seconds or --trace");
    };
    let opts = RunOptions {
        seed,
        seconds,
        trace,
        out_dir: trace.then(|| PathBuf::from(SPANS_DIR)),
    };
    let report = workloads::run(workload, &opts);
    for why in &report.tally.failures {
        eprintln!("{}: check failed: {why}", workload.name());
    }
    for line in report.summary(workload.name()) {
        println!("{line}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
