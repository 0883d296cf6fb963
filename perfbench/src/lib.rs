//! # perfbench — the repository benchmark
//!
//! One command runs one named workload for a fixed measuring time, checks
//! the program's outputs, and prints every metric by name and unit plus the
//! number of operations it attempted and the number that failed:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plummer-131k-sorted-group --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Both workloads report the same metrics.  Every layer is measured from
//! outside, by timing calls into its public functions: [`solver`] drives
//! `scenarios`, `bh` and `snapstore`, [`traced`] re-runs a solver step loop
//! over `bh`'s public phase functions with a host-clock span around each
//! call, and [`codec`] sends the workload's final state through `bhserve`'s
//! snapshot wire codec.  [`checks`] holds the output checks, computed apart
//! from the program (a direct-sum reference, exact conservation, bit-for-bit
//! equality between paths that must agree).

pub mod checks;
pub mod codec;
pub mod report;
pub mod solver;
pub mod traced;

use std::path::PathBuf;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 2] = ["plummer-131k-sorted-group", "king-16k-insertion-reuse-ckpt"];

/// How big a run is: the benchmark's own sizes, or the small ones the
/// package tests use to run every workload to its end in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Measuring time: whole rounds are started until it has passed.
    pub seconds: f64,
    /// `false`: end-to-end metrics from untraced runs; `true`: per-layer
    /// metrics, including the traced solver run.
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for snapshot stores and span files.
    pub work_dir: PathBuf,
}

/// Runs one workload and returns its report.
pub fn run(args: &RunArgs) -> Result<report::Report, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("creating {}: {e}", args.work_dir.display()))?;
    match args.workload.as_str() {
        "plummer-131k-sorted-group" => {
            Ok(solver::run(&solver::SolverSpec::plummer(args.scale), args))
        }
        "king-16k-insertion-reuse-ckpt" => {
            Ok(solver::run(&solver::SolverSpec::king(args.scale), args))
        }
        other => Err(format!("unknown workload {other:?}; known: {}", WORKLOADS.join(", "))),
    }
}
