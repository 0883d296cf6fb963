//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload for `S` seconds of whole rounds and prints, as the
//! last line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.  Progress and failed checks go to stderr.
//! Scratch files (snapshot stores, the span file of a traced run) go under
//! `.bench_work/` in the current directory.

use perfbench::{RunArgs, Scale, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(error: &str) -> ExitCode {
    eprintln!("perfbench: {error}");
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\nworkloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { return usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value.parse::<f64>().ok().filter(|s| s.is_finite() && *s >= 0.0)
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let run = RunArgs {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        work_dir: PathBuf::from(".bench_work").join(format!("run-{}", std::process::id())),
    };
    let result = perfbench::run(&run);
    // The span file of a traced run is kept; everything else is scratch.
    if let Ok(entries) = std::fs::read_dir(&run.work_dir) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with("spans-") {
                let _ = std::fs::rename(e.path(), PathBuf::from(".bench_work").join(e.file_name()));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&run.work_dir);
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => usage(&e),
    }
}
