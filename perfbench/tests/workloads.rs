//! The benchmark's own tests: every workload runs to its end at a smoke
//! size with no failed check, and every check rejects a deliberately
//! corrupted result.  Run them optimized:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use engine::SimConfig;
use nbody::Body;
use perfbench::checks;
use perfbench::solver::SolverSpec;
use perfbench::{RunArgs, Scale};

fn smoke(workload: &str, trace: bool) -> perfbench::report::Report {
    let work_dir = std::env::temp_dir()
        .join(format!("perfbench-test-{}-{workload}-{trace}", std::process::id()));
    let args = RunArgs {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
        work_dir: work_dir.clone(),
    };
    let report = perfbench::run(&args).expect("a known workload");
    let _ = std::fs::remove_dir_all(work_dir);
    report
}

/// The metric names `BENCHMARK.json` lists under `key`, in order.
fn manifest_metrics(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let manifest: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    manifest
        .get(key)
        .and_then(serde::Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| m.get("name").and_then(serde::Value::as_str).expect("a name").to_string())
        .collect()
}

/// Every check passed, and the report holds exactly the manifest's
/// end-to-end (untraced) or per-layer (traced) metrics, each a finite number.
fn assert_clean(report: &perfbench::report::Report, trace: bool) {
    assert!(report.correct(), "a check failed");
    assert!(report.attempted > 0);
    let mut names: Vec<String> = report.metrics.iter().map(|(n, _, _)| n.clone()).collect();
    let mut expected = manifest_metrics(if trace { "per_layer" } else { "end_to_end" });
    names.sort();
    expected.sort();
    assert_eq!(names, expected);
    for (name, value, _) in &report.metrics {
        assert!(value.is_finite(), "{name} = {value}");
    }
}

#[test]
fn plummer_runs_to_its_end_at_smoke_size() {
    let plain = smoke("plummer-131k-sorted-group", false);
    assert_eq!(plain.failed, 0);
    assert_clean(&plain, false);
    let traced = smoke("plummer-131k-sorted-group", true);
    assert_eq!(traced.failed, 0, "the traced loop must match the untraced run bit for bit");
    assert_clean(&traced, true);
}

#[test]
fn king_runs_to_its_end_at_smoke_size() {
    // The counter check guards a known emulator fault and may fail; every
    // other check must pass.
    let plain = smoke("king-16k-insertion-reuse-ckpt", false);
    assert!(plain.failed <= 1);
    assert_clean(&plain, false);
    let traced = smoke("king-16k-insertion-reuse-ckpt", true);
    assert!(traced.failed <= 1);
    assert_clean(&traced, true);
}

#[test]
fn unknown_workloads_are_refused() {
    let args = RunArgs {
        workload: "nope".to_string(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        scale: Scale::Smoke,
        work_dir: std::env::temp_dir().join(format!("perfbench-test-{}-nope", std::process::id())),
    };
    let err = perfbench::run(&args).expect_err("refused");
    assert!(err.contains("unknown workload"), "{err}");
    let _ = std::fs::remove_dir_all(args.work_dir);
}

/// A small Plummer run through the program and its configuration.
fn small_run() -> (SimConfig, Vec<Body>, bh::SimResult) {
    let spec = SolverSpec::plummer(Scale::Smoke);
    let cfg = spec.config(1024, 5);
    let bodies = scenarios::make("plummer").expect("plummer").generate(cfg.nbodies, cfg.seed);
    let result = bh::run_simulation_on(&cfg, bodies.clone());
    (cfg, bodies, result)
}

#[test]
fn the_accel_check_rejects_one_perturbed_acceleration() {
    let (cfg, _, result) = small_run();
    let sample = checks::sample_indices(result.bodies.len(), 64, 9);
    let err = checks::accel_error(&result.bodies, cfg.dt, cfg.eps, &sample);
    assert!(checks::check_accel(err, cfg.theta).is_ok(), "{err}");
    let mut bad = result.bodies.clone();
    bad[sample[0]].acc *= 100.0;
    let err = checks::accel_error(&bad, cfg.dt, cfg.eps, &sample);
    assert!(checks::check_accel(err, cfg.theta).is_err(), "{err}");
}

#[test]
fn the_bit_checks_reject_one_flipped_position_bit() {
    let (_, _, result) = small_run();
    assert!(checks::bits_equal(&result.bodies, &result.bodies).is_ok());
    let mut bad = result.bodies.clone();
    bad[17].pos.y = f64::from_bits(bad[17].pos.y.to_bits() ^ 1);
    let err = checks::bits_equal(&result.bodies, &bad).unwrap_err();
    assert!(err.contains("body id 17"), "{err}");
}

#[test]
fn the_counter_check_rejects_one_changed_counter() {
    let (_, _, result) = small_run();
    let stats = result.total_stats();
    assert!(checks::counters_equal(&stats, &stats).is_ok());
    let mut bad = stats.clone();
    bad.remote_gets += 1;
    let err = checks::counters_equal(&stats, &bad).unwrap_err();
    assert!(err.contains("remote_gets"), "{err}");
}

#[test]
fn the_conservation_check_rejects_lost_renamed_or_reweighed_bodies() {
    let (_, initial, result) = small_run();
    assert!(checks::conservation(&initial, &result.bodies).is_ok());
    let mut bad = result.bodies.clone();
    bad.pop();
    assert!(checks::conservation(&initial, &bad).is_err());
    let mut bad = result.bodies.clone();
    bad.swap(3, 4);
    assert!(checks::conservation(&initial, &bad).is_err());
    let mut bad = result.bodies.clone();
    bad[8].mass = f64::from_bits(bad[8].mass.to_bits() + 1);
    assert!(checks::conservation(&initial, &bad).is_err());
}

#[test]
fn the_drift_check_rejects_heated_or_kicked_bodies() {
    let (cfg, initial, result) = small_run();
    let all: Vec<usize> = (0..initial.len()).collect();
    assert!(checks::check_drift(&checks::drift(&initial, &result.bodies, cfg.eps, &all)).is_ok());
    let mut hot = result.bodies.clone();
    for b in &mut hot {
        b.vel *= 1.1;
    }
    assert!(checks::check_drift(&checks::drift(&initial, &hot, cfg.eps, &all)).is_err());
    let mut kicked = result.bodies.clone();
    kicked[0].vel.x += 100.0;
    let d = checks::drift(&initial, &kicked, cfg.eps, &all);
    assert!(d.momentum > checks::MOMENTUM_TOL, "{d:?}");
    assert!(checks::check_drift(&d).is_err());
}

#[test]
fn the_snapshot_decoding_is_bit_exact_and_rejects_a_flipped_digit() {
    let (_, _, result) = small_run();
    let mut expected = result.bodies.clone();
    for b in &mut expected {
        b.cost = 0;
    }
    let wire = bhserve::proto::snapshot_bodies(&result.bodies);
    let decoded = perfbench::codec::decode_bodies(&wire).expect("decodes");
    assert!(checks::bits_equal(&decoded, &expected).is_ok());
    let text = serde_json::to_string(&wire).expect("serializes");
    let hex = bhserve::proto::hex_f64(result.bodies[2].pos.x);
    let last = hex.chars().last().expect("16 digits");
    let flipped = format!("{}{}", &hex[..15], if last == '0' { '1' } else { '0' });
    let bad = serde_json::from_str(&text.replacen(&hex, &flipped, 1)).expect("still JSON");
    let decoded = perfbench::codec::decode_bodies(&bad).expect("decodes");
    assert!(checks::bits_equal(&decoded, &expected).is_err());
}
