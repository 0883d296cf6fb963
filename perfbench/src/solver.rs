//! The two workloads: a force-bound Plummer run over the sorted build and
//! the async group walk, and a checkpointed King run over the lock-based
//! insertion build and the persistent tree.
//!
//! A round generates the initial conditions, runs the trajectory through
//! the program's public entry points, and checks the outputs.  Rounds repeat
//! the same inputs until the measuring time has passed; metrics are medians
//! over rounds.  Both workloads report the same metrics: on a traced run
//! both also checkpoint and resume their trajectory, for the `snapstore`
//! figures, and send their final state through the `bhserve` codec.

use crate::checks::{self, Drift};
use crate::report::{median, with_peak_rss, Report};
use crate::{codec, traced};
use crate::{RunArgs, Scale};
use engine::{OptLevel, SimConfig, TreeBuild, TreePolicy, WalkMode};
use nbody::Body;
use std::path::Path;
use std::time::Instant;

/// The fault the cost-counter reproducibility check guards.
pub const COUNTER_FAULT: &str = "scheduler-dependent cost charges: drain_summaries re-polls and \
                                 insertion lock retries are charged";

/// Emulated nodes, one rank each: every rank is an OS thread, and the
/// reference host has two CPUs.
const NODES: usize = 2;

/// A checkpointed trajectory: save cadence and the resume point.
#[derive(Debug, Clone)]
pub struct Checkpointing {
    pub every: usize,
    /// The saved step the resumed run starts from.
    pub resume_from: usize,
    /// `true`: part of every round.  `false`: only on traced runs, so the
    /// end-to-end figures do not include it.
    pub untraced: bool,
}

/// One solver workload.
#[derive(Debug, Clone)]
pub struct SolverSpec {
    pub scenario: &'static str,
    pub n: usize,
    /// The initial-condition seed when it is fixed; `None` takes `--seed`.
    pub input_seed: Option<u64>,
    pub opt: OptLevel,
    pub build: TreeBuild,
    pub walk: WalkMode,
    pub policy: TreePolicy,
    pub steps: usize,
    pub measured: usize,
    /// Bodies per round whose acceleration is checked against the direct sum.
    pub accel_sample: usize,
    /// Bodies per round whose potential estimates the energy drift (all of
    /// them makes the energy exact).
    pub energy_sample: usize,
    pub checkpoint: Checkpointing,
}

impl SolverSpec {
    /// `plummer-131k-sorted-group`: the paper's 4-step/2-measured protocol
    /// at the top of the insertion-free ladder.  Its checkpointed run (two
    /// saves of about 2800 chunk files each at full size) is left to traced
    /// runs, so its end-to-end figures hold no I/O.
    pub fn plummer(scale: Scale) -> SolverSpec {
        SolverSpec {
            scenario: "plummer",
            n: if scale == Scale::Full { 131_072 } else { 4096 },
            input_seed: None,
            opt: OptLevel::AsyncAggregation,
            build: TreeBuild::Sorted,
            walk: WalkMode::Group,
            policy: TreePolicy::Rebuild,
            steps: 4,
            measured: 2,
            accel_sample: 512,
            energy_sample: 256,
            checkpoint: Checkpointing { every: 2, resume_from: 2, untraced: false },
        }
    }

    /// `king-16k-insertion-reuse-ckpt`: the lock-based insertion build with
    /// a persistent tree, 16 steps with 12 measured, checkpointed.  Its
    /// initial conditions are one fixed realization, so the counter check,
    /// which fails on a known fault, runs on inputs that do not depend on
    /// `--seed`; the seed picks the bodies the checks sample.
    pub fn king(scale: Scale) -> SolverSpec {
        let full = scale == Scale::Full;
        SolverSpec {
            scenario: "king",
            n: if full { 16_384 } else { 1024 },
            input_seed: Some(engine::DEFAULT_SEED),
            opt: OptLevel::CacheLocalTree,
            build: TreeBuild::Insertion,
            walk: WalkMode::PerBody,
            policy: TreePolicy::from_name("reuse").expect("reuse is a policy"),
            steps: if full { 16 } else { 8 },
            measured: if full { 12 } else { 6 },
            accel_sample: 1024,
            energy_sample: 4096,
            checkpoint: Checkpointing {
                every: 4,
                resume_from: if full { 12 } else { 4 },
                untraced: true,
            },
        }
    }

    /// The program configuration for `n` bodies from `seed`, with the
    /// scenario's recommended θ, ε and dt.
    pub fn config(&self, n: usize, seed: u64) -> SimConfig {
        let scenario = scenarios::make(self.scenario).expect("a built-in scenario");
        let tuning = scenario.recommended_config();
        let mut cfg = SimConfig::new(n, pgas::Machine::power5(NODES, 1, false), self.opt);
        cfg.seed = seed;
        cfg.steps = self.steps;
        cfg.measured_steps = self.measured;
        cfg.tree_policy = self.policy;
        cfg.walk = self.walk;
        cfg.build = self.build;
        cfg.theta = tuning.theta;
        cfg.eps = tuning.eps;
        cfg.dt = tuning.dt;
        cfg
    }
}

/// Everything one run collects, one entry per round unless noted.
#[derive(Default)]
struct Samples {
    /// Every set-up of every round.
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
    run_s: Vec<f64>,
    sim_s_per_step: Vec<f64>,
    accel_err: Vec<f64>,
    phase_sim_s: Vec<[f64; 6]>,
    counters: Vec<pgas::RankStats>,
    tree_bytes: Vec<f64>,
    /// Peak resident memory of each round.
    peak_rss_mib: Vec<f64>,
    // Checkpointed trajectory.
    checkpointed_run_s: Vec<f64>,
    /// Load plus replay plus continuation of every resumed run.
    resume_s: Vec<f64>,
    /// Every save of every round.
    save_ms: Vec<f64>,
    bytes_per_save: Vec<f64>,
    new_chunk_fraction: Vec<f64>,
    load_ms: Vec<f64>,
    replay_s: Vec<f64>,
    // Traced run.
    phase_host_s: Vec<Vec<(&'static str, f64)>>,
    barrier_wait_s: Vec<f64>,
    ns_per_interaction: Vec<f64>,
    span_residual: Vec<f64>,
    trace_overhead_s: Vec<f64>,
    kernel_ns_per_pair: Vec<f64>,
    codec_ms: Vec<f64>,
}

/// Runs a solver workload for the measuring time.
pub fn run(spec: &SolverSpec, args: &RunArgs) -> Report {
    let mut report = Report::default();
    let mut s = Samples::default();
    let start = Instant::now();
    let mut round = 0u64;
    loop {
        let ((), peak) = with_peak_rss(|| run_round(spec, args, round, &mut report, &mut s));
        s.peak_rss_mib.extend(peak);
        round += 1;
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    eprintln!(
        "perfbench: {} round(s) of {} in {:.1} s",
        round,
        args.workload,
        start.elapsed().as_secs_f64()
    );
    emit(args, &s, &mut report);
    report
}

fn run_round(spec: &SolverSpec, args: &RunArgs, round: u64, report: &mut Report, s: &mut Samples) {
    let scenario = scenarios::make(spec.scenario).expect("a built-in scenario");
    let cfg = spec.config(spec.n, spec.input_seed.unwrap_or(args.seed));
    let store_dir = args.work_dir.join("store");
    let ck = &spec.checkpoint;
    let checkpointing = ck.untraced || args.trace;

    // Set-up: initial conditions, and a fresh snapshot store when
    // checkpointing.  It takes tens of milliseconds, so it is repeated and
    // every repeat is a sample; the last one serves the round.
    let (bodies, store) = (0..SETUP_REPEATS)
        .map(|_| {
            if checkpointing {
                remove_dir(&store_dir);
            }
            let t = Instant::now();
            let bodies = scenario.generate(cfg.nbodies, cfg.seed);
            s.generate_s.push(t.elapsed().as_secs_f64());
            let store = checkpointing.then(|| {
                snapstore::Store::open(&store_dir).expect("the benchmark's snapshot store opens")
            });
            s.setup_s.push(t.elapsed().as_secs_f64());
            (bodies, store)
        })
        .last()
        .expect("at least one set-up");

    // The traced run sits right next to the untraced one, first on even
    // rounds and second on odd ones, so their difference is the cost of
    // tracing and not of run order.
    let traced_run = || {
        let t = Instant::now();
        let traced = traced::run(&cfg, bodies.clone());
        (traced, t.elapsed().as_secs_f64())
    };
    let traced_first = (args.trace && round.is_multiple_of(2)).then(traced_run);

    // The untraced trajectory.
    let t = Instant::now();
    let plain = bh::run_simulation_on(&cfg, bodies.clone());
    let plain_s = t.elapsed().as_secs_f64();
    let traced = traced_first.or_else(|| args.trace.then(traced_run));

    s.sim_s_per_step.push(plain.total / cfg.measured_steps as f64);
    s.phase_sim_s.push(engine::Phase::ALL.map(|p| plain.phases.get(p)));
    s.counters.push(plain.total_stats());
    s.tree_bytes.push(plain.tree_bytes as f64);
    check_physics(&cfg, &bodies, &plain.bodies, args.seed ^ round, spec, report, s);
    s.run_s.push(plain_s);

    // The untraced trajectory once more: a second `run_s` sample per round,
    // and the same input must give the same bodies.
    let t = Instant::now();
    let again = bh::run_simulation_on(&cfg, bodies.clone());
    s.run_s.push(t.elapsed().as_secs_f64());
    s.sim_s_per_step.push(again.total / cfg.measured_steps as f64);
    report.check("repeat_digest", checks::bits_equal(&again.bodies, &plain.bodies));
    drop(again);

    if let Some(store) = &store {
        let ckpt_s = checkpointed(spec, ck, &cfg, &bodies, &plain, store, report, s);
        s.checkpointed_run_s.push(ckpt_s);
        eprintln!(
            "perfbench: round {round}: untracked {:.3?} s, checkpointed {ckpt_s:.3} s, saves {:?} ms, resume {:?} s, sim s/step {:?}",
            &s.run_s[s.run_s.len() - 2..],
            s.save_ms.iter().rev().take(cfg.steps / ck.every).rev().map(|v| v.round()).collect::<Vec<_>>(),
            s.resume_s.last().map(|v| (v * 1e3).round() / 1e3),
            s.sim_s_per_step.iter().rev().take(3).rev().collect::<Vec<_>>()
        );
    } else {
        eprintln!(
            "perfbench: round {round}: untracked {:.3?} s, sim s/step {:?}",
            &s.run_s[s.run_s.len() - 2..],
            &s.sim_s_per_step[s.sim_s_per_step.len() - 2..]
        );
    }

    if let Some((traced, traced_s)) = traced {
        traced_round(spec, &cfg, &bodies, &plain, traced, traced_s - plain_s, args, report, s);
    }
    if checkpointing {
        remove_dir(&store_dir);
    }
}

/// The output checks every trajectory gets: exact conservation, the
/// acceleration error against the direct sum, and momentum/energy drift.
fn check_physics(
    cfg: &SimConfig,
    initial: &[Body],
    fin: &[Body],
    sample_seed: u64,
    spec: &SolverSpec,
    report: &mut Report,
    s: &mut Samples,
) {
    report.check("conservation", checks::conservation(initial, fin));
    if fin.len() != initial.len() {
        // The rest of the checks pair bodies up; count them as failed so
        // every round still attempts the same operations.
        report.check("accel_err", Err("body count changed".to_string()));
        report.check("drift", Err("body count changed".to_string()));
        return;
    }
    let sample = checks::sample_indices(fin.len(), spec.accel_sample, sample_seed);
    let err = checks::accel_error(fin, cfg.dt, cfg.eps, &sample);
    s.accel_err.push(err);
    report.check("accel_err", checks::check_accel(err, cfg.theta));
    let sample = checks::sample_indices(fin.len(), spec.energy_sample, sample_seed.rotate_left(17));
    let d: Drift = checks::drift(initial, fin, cfg.eps, &sample);
    eprintln!(
        "perfbench: drift momentum {:.3e}, energy {:.3e} (sampling error {:.1e})",
        d.momentum, d.energy, d.energy_se
    );
    report.check("drift", checks::check_drift(&d));
}

/// Runs the trajectory again with a checkpoint every `ck.every` steps, then
/// resumes from the `ck.resume_from` checkpoint to the end.  Every run must end bit-identical to the untracked run.  Returns
/// the checkpointed run's host seconds.
#[allow(clippy::too_many_arguments)]
fn checkpointed(
    spec: &SolverSpec,
    ck: &Checkpointing,
    cfg: &SimConfig,
    bodies: &[Body],
    plain: &bh::SimResult,
    store: &snapstore::Store,
    report: &mut Report,
    s: &mut Samples,
) -> f64 {
    let mut recorder = snapstore::Recorder::new(spec.scenario, "upc", cfg, bodies.to_vec(), 0);
    let mut saves: Vec<(f64, Result<snapstore::Saved, String>)> = Vec::new();
    let t = Instant::now();
    let tracked = bh::run_simulation_tracked(cfg, bodies.to_vec(), &mut |record| {
        let state = recorder.observe(&record);
        if state.step.is_multiple_of(ck.every) {
            let t = Instant::now();
            let saved = store.save(&state, &checkpoint_name(state.step)).map_err(|e| e.to_string());
            saves.push((t.elapsed().as_secs_f64() * 1e3, saved));
        }
    });
    let ckpt_s = t.elapsed().as_secs_f64();

    let (mut chunks_new, mut chunks_total) = (0usize, 0usize);
    let mut save_errors = Vec::new();
    for (ms, saved) in &saves {
        s.save_ms.push(*ms);
        match saved {
            Ok(saved) => {
                chunks_new += saved.chunks_new;
                chunks_total += saved.chunks_total;
            }
            Err(e) => save_errors.push(e.clone()),
        }
    }
    report.check(
        "checkpoint_saves",
        if save_errors.is_empty() && saves.len() == cfg.steps / ck.every {
            Ok(())
        } else {
            Err(format!("{} saves, errors: {save_errors:?}", saves.len()))
        },
    );
    if !saves.is_empty() {
        s.bytes_per_save.push(dir_bytes(store.root()) as f64 / saves.len() as f64);
        s.new_chunk_fraction.push(chunks_new as f64 / chunks_total.max(1) as f64);
    }
    // The cost-counter reproducibility check: the checkpointed run must
    // charge exactly the untracked run's counters.  The emulator charges
    // host-scheduling retries, so it does not (see [`COUNTER_FAULT`]); only
    // that comparison counts as the known fault.
    match tracked {
        Ok(tracked) => {
            // The same trajectory on the same clock model: a second sample
            // of its simulated makespan.
            s.sim_s_per_step.push(tracked.total / cfg.measured_steps as f64);
            report.check("checkpointed_digest", checks::bits_equal(&tracked.bodies, &plain.bodies));
            report.check_known_fault(
                "counter_reproducibility",
                COUNTER_FAULT,
                checks::counters_equal(&tracked.total_stats(), &plain.total_stats()),
            );
        }
        Err(e) => {
            report.check("checkpointed_digest", Err(e.to_string()));
            report.check("counter_reproducibility", Err(e.to_string()));
        }
    }

    // Resume: load, replay from the anchor, continue to the end.
    let t = Instant::now();
    let loaded = store.load(&checkpoint_name(ck.resume_from)).map_err(|e| e.to_string());
    let load_s = t.elapsed().as_secs_f64();
    let resumed = loaded.and_then(|state| {
        let mut stamps: Vec<f64> = Vec::new();
        let t = Instant::now();
        let out =
            snapstore::resume(&state, &bh::UpcBackend, |_| stamps.push(t.elapsed().as_secs_f64()));
        let resume_call_s = t.elapsed().as_secs_f64();
        out.map(|r| (r, stamps, resume_call_s))
    });
    match resumed {
        Ok((result, stamps, resume_call_s)) => {
            s.load_ms.push(load_s * 1e3);
            s.resume_s.push(load_s + resume_call_s);
            // `on_state` fires after every step past the checkpoint, so
            // the first stamp is the replay plus one continued step; the
            // continued steps' mean interval takes that step back out.
            if let (Some(first), Some(last)) = (stamps.first(), stamps.last()) {
                let per_step =
                    if stamps.len() > 1 { (last - first) / (stamps.len() - 1) as f64 } else { 0.0 };
                s.replay_s.push(first - per_step);
            }
            report.check("resumed_digest", checks::bits_equal(&result.bodies, &plain.bodies));
        }
        Err(e) => report.check("resumed_digest", Err(e)),
    }
    ckpt_s
}

/// Set-ups per round.
const SETUP_REPEATS: usize = 8;

/// The traced run of the same inputs: its bit-identity check, its spans,
/// and the bare pair kernel timed in isolation.  `overhead_s` is its host
/// time less the adjacent untraced run's.
#[allow(clippy::too_many_arguments)]
fn traced_round(
    spec: &SolverSpec,
    cfg: &SimConfig,
    bodies: &[Body],
    plain: &bh::SimResult,
    traced: traced::TracedRun,
    overhead_s: f64,
    args: &RunArgs,
    report: &mut Report,
    s: &mut Samples,
) {
    s.trace_overhead_s.push(overhead_s);
    report.check("traced_bits", checks::bits_equal(&traced.result.bodies, &plain.bodies));
    let summary = traced::summarize(&traced, cfg.ranks());
    report.check(
        "span_residual",
        if summary.residual.abs() < SPAN_RESIDUAL_BOUND {
            Ok(())
        } else {
            Err(format!("spans leave {:.3} of the traced host time uncovered", summary.residual))
        },
    );
    let interactions = traced.result.total_stats().interactions.max(1) as f64;
    s.ns_per_interaction.push(summary.force_all_steps_s * 1e9 / interactions);
    s.barrier_wait_s.push(summary.barrier_wait_s);
    s.span_residual.push(summary.residual);
    s.phase_host_s.push(summary.phase_host_s);
    let path = args.work_dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    if let Err(e) = traced::write_trace(&path, &traced.spans) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    s.kernel_ns_per_pair.push(kernel_ns_per_pair(&bodies[..bodies.len().min(KERNEL_BODIES)], spec));

    // A session snapshot of the final state through the wire codec.  `cost`
    // is not on the wire.
    let snapshot = &plain.bodies[..plain.bodies.len().min(CODEC_BODIES)];
    let (ms, decoded) = codec::timed_round_trip(snapshot);
    s.codec_ms.push(ms);
    let mut expected = snapshot.to_vec();
    for b in &mut expected {
        b.cost = 0;
    }
    report.check("snapshot_codec", decoded.and_then(|d| checks::bits_equal(&d, &expected)));
}

/// Bodies of the session snapshot the codec timing sends.
const CODEC_BODIES: usize = 4096;

/// Largest share of the traced run's host time its spans may leave
/// uncovered (thread start-up, the final snapshot, timer bookkeeping).
pub const SPAN_RESIDUAL_BOUND: f64 = 0.05;

/// Bodies the isolated pair-kernel timing runs over.
const KERNEL_BODIES: usize = 2048;

/// Host nanoseconds per pair of `nbody::direct::compute_forces` (the bare
/// SoA kernel), median of three calls.
fn kernel_ns_per_pair(bodies: &[Body], spec: &SolverSpec) -> f64 {
    let eps = spec.config(bodies.len(), 0).eps;
    let pairs = (bodies.len() * (bodies.len() - 1)) as f64;
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(nbody::direct::compute_forces(std::hint::black_box(bodies), eps));
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times) * 1e9 / pairs
}

fn emit(args: &RunArgs, s: &Samples, report: &mut Report) {
    let mut metric = |name: &str, values: &[f64], unit: &'static str| {
        // Samples are missing only when a check already failed; the run is
        // then not correct, and the metric reads null.
        let value = if values.is_empty() { f64::NAN } else { median(values) };
        report.metric(name, value, unit);
    };
    if !args.trace {
        metric("setup_s", &s.setup_s, "s");
        metric("run_s", &s.run_s, "s");
        metric("sim_s_per_step", &s.sim_s_per_step, "sim_s");
        metric("peak_rss_mb", &s.peak_rss_mib, "MiB");
        report.metric("accel_err", mean(&s.accel_err), "1");
        return;
    }
    metric("scenarios.generate_s", &s.generate_s, "s");
    metric("bh.sim_s_per_step", &s.sim_s_per_step, "sim_s");
    for (key, phases) in PHASES {
        // A phase the configuration does not run (the centre-of-mass pass,
        // folded into the sorted build) adds nothing.
        let in_phases = |k: &str| phases.contains(&k);
        let host: Vec<f64> = s
            .phase_host_s
            .iter()
            .map(|round| round.iter().filter(|(k, _)| in_phases(k)).map(|(_, v)| v).sum())
            .collect();
        let sim: Vec<f64> = s
            .phase_sim_s
            .iter()
            .map(|round| {
                engine::Phase::ALL
                    .iter()
                    .zip(round)
                    .filter(|(p, _)| in_phases(p.key()))
                    .map(|(_, v)| v)
                    .sum()
            })
            .collect();
        metric(&format!("bh.{key}.host_s"), &host, "s");
        metric(&format!("bh.{key}.sim_s"), &sim, "sim_s");
    }
    metric("bh.barrier_wait_s", &s.barrier_wait_s, "s");
    metric("bh.force.ns_per_interaction", &s.ns_per_interaction, "ns");
    let counter = |f: fn(&pgas::RankStats) -> u64| -> Vec<f64> {
        s.counters.iter().map(|c| f(c) as f64).collect()
    };
    metric("bh.interactions", &counter(|c| c.interactions), "count");
    metric("bh.macs", &counter(|c| c.macs), "count");
    metric("bh.tree_ops", &counter(|c| c.tree_ops), "count");
    metric("bh.tree_bytes", &s.tree_bytes, "B");
    metric("pgas.remote_gets", &counter(|c| c.remote_gets), "count");
    metric("pgas.remote_puts", &counter(|c| c.remote_puts), "count");
    metric("pgas.messages", &counter(|c| c.messages), "count");
    metric("pgas.bytes_out", &counter(|c| c.bytes_out), "B");
    metric("pgas.lock_acquires", &counter(|c| c.lock_acquires), "count");
    metric("nbody.kernel_ns_per_pair", &s.kernel_ns_per_pair, "ns");
    metric("trace.overhead_s", &s.trace_overhead_s, "s");
    metric("trace.span_residual", &s.span_residual, "1");
    metric("snapstore.checkpointed_run_s", &s.checkpointed_run_s, "s");
    metric("snapstore.save_ms", &s.save_ms, "ms");
    metric("snapstore.bytes_per_save", &s.bytes_per_save, "B");
    metric("snapstore.new_chunk_fraction", &s.new_chunk_fraction, "1");
    metric("snapstore.load_ms", &s.load_ms, "ms");
    metric("snapstore.replay_s", &s.replay_s, "s");
    metric("snapstore.resume_s", &s.resume_s, "s");
    metric("bhserve.codec_ms", &s.codec_ms, "ms");
}

/// The reported `bh` phases and the table phases (`Phase::key`) each sums:
/// `tree` is the octree with its summaries, whether the build folds them in
/// (sorted) or a centre-of-mass pass adds them (insertion).
const PHASES: [(&str, &[&str]); 5] = [
    ("tree", &["tree", "cofm"]),
    ("partition", &["partition"]),
    ("redistribute", &["redistribute"]),
    ("force", &["force"]),
    ("advance", &["advance"]),
];

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn checkpoint_name(step: usize) -> String {
    format!("step-{step:04}")
}

fn remove_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("the benchmark's scratch store is removable");
    }
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
