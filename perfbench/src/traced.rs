//! The traced solver run: a step loop owned by the benchmark that calls
//! `bh`'s public phase functions in the order `bh::run_simulation_on` does
//! for the classic (non-subspace) step structure, with a host-clock span
//! around every call on every rank.
//!
//! The loop is a copy of the program's own step loop, so it can drift
//! from it.  The caller checks that the loop's final bodies are
//! bit-identical to the untraced run's: that is what shows the spans
//! describe the computation the program performs.

use bh::force::{advance_phase, force_phase_cached, write_back};
use bh::frontier::force_phase_async_group;
use bh::lifecycle::{self, StepBuild};
use bh::partition::{partition_phase, redistribute_phase};
use bh::report::{measurement_begins, Phase};
use bh::sortbuild::sorted_build;
use bh::treebuild::{
    allocate_root, bounding_box_phase, center_of_mass_phase, derive_root_cube, insert_owned_bodies,
    publish_root_cube,
};
use bh::{BhShared, RankOutcome, RankState, SimConfig, SimResult, TreeBuild, WalkMode};
use pgas::{Ctx, GlobalPtr, Runtime};
use std::time::Instant;

/// One timed call on one rank.
#[derive(Debug, Clone)]
pub struct Span {
    pub rank: usize,
    pub step: usize,
    /// The table phase the call belongs to (`Phase::key`), or `barrier`
    /// for a phase-end barrier the loop itself waits at.
    pub phase: &'static str,
    /// The function called.
    pub name: &'static str,
    /// Start, seconds since the traced run began.
    pub start: f64,
    pub dur: f64,
    /// `true` for steps inside the measured window.
    pub measured: bool,
}

/// What the traced run produced.
pub struct TracedRun {
    pub result: SimResult,
    pub spans: Vec<Span>,
    /// Host seconds of the whole `Runtime::run` call.
    pub wall_s: f64,
}

/// Per-rank span recorder.
struct Recorder<'a> {
    rank: usize,
    origin: Instant,
    step: usize,
    measured: bool,
    spans: &'a mut Vec<Span>,
}

impl Recorder<'_> {
    fn time<R>(&mut self, phase: Phase, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.timed(phase.key(), name, f)
    }

    fn timed<R>(&mut self, phase: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed().as_secs_f64();
        self.spans.push(Span {
            rank: self.rank,
            step: self.step,
            phase,
            name,
            start: start.duration_since(self.origin).as_secs_f64(),
            dur,
            measured: self.measured,
        });
        out
    }

    fn barrier(&mut self, ctx: &Ctx) {
        self.timed("barrier", "barrier", || ctx.barrier());
    }
}

/// Runs `cfg` over `bodies` through the traced loop.
///
/// # Panics
/// On a configuration outside the two the solver workloads run — the
/// async group walk over the sorted build, and the cached walk over the
/// insertion build below §5.4 — or one `bh` itself rejects.
pub fn run(cfg: &SimConfig, bodies: Vec<nbody::Body>) -> TracedRun {
    let sorted_group = cfg.build == TreeBuild::Sorted
        && cfg.walk == WalkMode::Group
        && cfg.opt.async_aggregation()
        && !cfg.opt.subspace_tree_build();
    let cached_insertion = cfg.build == TreeBuild::Insertion
        && cfg.opt.caches_cells()
        && !cfg.opt.merged_tree_build()
        && !cfg.opt.async_aggregation()
        && !cfg.opt.subspace_tree_build();
    assert!(sorted_group || cached_insertion, "the traced loop does not cover this configuration");
    cfg.validate().expect("the traced configuration is valid");
    bh::sim::check_walk_mode(cfg).expect("walk mode supported");
    bh::sim::check_tree_build(cfg).expect("tree build supported");
    let shared = BhShared::with_bodies(cfg, bodies);
    let runtime = Runtime::new(cfg.machine.clone());
    let origin = Instant::now();
    let report = runtime.run(|ctx| {
        let mut spans = Vec::new();
        let mut st = RankState::new(ctx, &shared, cfg);
        for step in 0..cfg.steps {
            if measurement_begins(cfg, step) {
                st.timer.reset();
                st.tree_local_time = 0.0;
                st.tree_merge_time = 0.0;
                st.migrated = 0;
                st.owned_accum = 0;
            }
            let mut rec = Recorder {
                rank: ctx.rank(),
                origin,
                step,
                measured: step + cfg.measured_steps >= cfg.steps,
                spans: &mut spans,
            };
            traced_step(ctx, &shared, &mut st, cfg, step, &mut rec);
        }
        let outcome = RankOutcome {
            phases: bh::PhaseTimes::from_timer(&st.timer),
            tree_local: st.tree_local_time,
            tree_merge: st.tree_merge_time,
            owned_bodies: st.my_ids.len() as u64,
            migrated_bodies: st.migrated,
            stats: Default::default(),
        };
        (outcome, spans)
    });
    let wall_s = origin.elapsed().as_secs_f64();
    let mut ranks = Vec::with_capacity(report.ranks.len());
    let mut spans = Vec::new();
    for r in report.ranks {
        let (mut outcome, rank_spans) = r.result;
        outcome.stats = r.stats;
        ranks.push(outcome);
        spans.extend(rank_spans);
    }
    let mut result = SimResult::aggregate(cfg, ranks, shared.bodytab.snapshot());
    result.tree_bytes = shared.cells.peak_bytes();
    TracedRun { result, spans, wall_s }
}

/// One step: the program's `run_step` + `run_step_classic`, with every
/// call and every phase-end barrier timed.
fn traced_step(
    ctx: &Ctx,
    shared: &BhShared,
    st: &mut RankState,
    cfg: &SimConfig,
    step: usize,
    rec: &mut Recorder,
) {
    st.timer.begin(ctx, Phase::TreeBuild.key());
    let (mut center, mut rsize) = rec
        .time(Phase::TreeBuild, "bounding_box_phase", || bounding_box_phase(ctx, shared, st, cfg));
    let decision = rec.time(Phase::TreeBuild, "lifecycle::decide", || {
        lifecycle::decide(ctx, shared, st, cfg, step)
    });
    let rebuilt = matches!(decision, StepBuild::Rebuild);
    match decision {
        StepBuild::Reuse(probes) => {
            rec.time(Phase::TreeBuild, "lifecycle::incremental_update", || {
                lifecycle::incremental_update(ctx, shared, st, cfg, probes)
            })
        }
        StepBuild::Rebuild => {
            if st.bbox_kept_cube {
                (center, rsize) = derive_root_cube(st.bbox_lo, st.bbox_hi);
                rec.time(Phase::TreeBuild, "publish_root_cube", || {
                    publish_root_cube(ctx, shared, st, cfg, center, rsize)
                });
            }
            rec.time(Phase::TreeBuild, "lifecycle::clear_stale_tree", || {
                lifecycle::clear_stale_tree(ctx, shared, st)
            });
            if cfg.build == TreeBuild::Sorted {
                let (local_t, hook_t) = rec.time(Phase::TreeBuild, "sorted_build", || {
                    sorted_build(ctx, shared, st, cfg, center, rsize)
                });
                st.tree_local_time += local_t;
                st.tree_merge_time += hook_t;
            } else {
                rec.time(Phase::TreeBuild, "allocate_root", || {
                    allocate_root(ctx, shared, center, rsize)
                });
                rec.barrier(ctx);
                rec.time(Phase::TreeBuild, "insert_owned_bodies", || {
                    insert_owned_bodies(ctx, shared, st, cfg)
                });
                rec.barrier(ctx);
            }
        }
    }
    st.timer.end(ctx, Phase::TreeBuild.key());

    st.timer.begin(ctx, Phase::CenterOfMass.key());
    if rebuilt && !cfg.opt.merged_tree_build() && cfg.build != TreeBuild::Sorted {
        rec.time(Phase::CenterOfMass, "center_of_mass_phase", || {
            center_of_mass_phase(ctx, shared, st, cfg)
        });
    }
    rec.barrier(ctx);
    st.timer.end(ctx, Phase::CenterOfMass.key());

    if rebuilt && lifecycle::persistent_tree(cfg) {
        st.timer.begin(ctx, Phase::TreeBuild.key());
        rec.time(Phase::TreeBuild, "lifecycle::after_rebuild", || {
            lifecycle::after_rebuild(ctx, shared, st, cfg, step, center, rsize)
        });
        st.timer.end(ctx, Phase::TreeBuild.key());
    }

    st.timer.begin(ctx, Phase::Partition.key());
    let (plan, keyed) =
        rec.time(Phase::Partition, "partition_phase", || partition_phase(ctx, shared, st, cfg));
    st.timer.end(ctx, Phase::Partition.key());

    st.timer.begin(ctx, Phase::Redistribute.key());
    let outcome = rec.time(Phase::Redistribute, "redistribute_phase", || {
        redistribute_phase(ctx, shared, st, cfg, &plan, keyed)
    });
    st.migrated += outcome.migrated_in;
    st.owned_accum += outcome.owned;
    rec.barrier(ctx);
    st.timer.end(ctx, Phase::Redistribute.key());

    st.timer.begin(ctx, Phase::Force.key());
    let forces = if cfg.walk == WalkMode::Group && cfg.opt.async_aggregation() {
        rec.time(Phase::Force, "force_phase_async_group", || {
            force_phase_async_group(ctx, shared, st, cfg)
        })
    } else {
        rec.time(Phase::Force, "force_phase_cached", || force_phase_cached(ctx, shared, st, cfg))
    };
    rec.time(Phase::Force, "write_back", || write_back(ctx, shared, st, cfg, &forces));
    rec.barrier(ctx);
    st.timer.end(ctx, Phase::Force.key());

    st.timer.begin(ctx, Phase::Advance.key());
    rec.time(Phase::Advance, "advance_phase", || advance_phase(ctx, shared, st, cfg));
    rec.barrier(ctx);
    st.timer.end(ctx, Phase::Advance.key());

    if !lifecycle::persistent_tree(cfg) {
        rec.timed("cleanup", "tree teardown", || {
            st.my_cells.clear();
            if ctx.rank() == 0 {
                shared.cells.clear(ctx);
                shared.root.write_raw(GlobalPtr::NULL);
            }
        });
        rec.barrier(ctx);
    }
}

/// Per-layer host figures reduced from the spans.
#[derive(Debug, Clone)]
pub struct SpanSummary {
    /// Per table phase (`Phase::key`) that has spans: the largest per-rank
    /// busy time over the measured steps, phase-end barrier waits excluded.
    pub phase_host_s: Vec<(&'static str, f64)>,
    /// Barrier waits of the loop's phase-end barriers, summed over ranks,
    /// measured steps.
    pub barrier_wait_s: f64,
    /// Force-phase busy time over all steps, summed over ranks.
    pub force_all_steps_s: f64,
    /// `1 − covered/wall`: the share of the run's host time that no span
    /// covers, on the rank with the least coverage.
    pub residual: f64,
}

/// Reduces the spans of a traced run.
pub fn summarize(run: &TracedRun, ranks: usize) -> SpanSummary {
    let busy_measured = |phase: &str| {
        (0..ranks)
            .map(|r| {
                run.spans
                    .iter()
                    .filter(|s| s.rank == r && s.measured && s.phase == phase)
                    .map(|s| s.dur)
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    };
    let phase_host_s = Phase::ALL
        .iter()
        .filter(|p| run.spans.iter().any(|s| s.measured && s.phase == p.key()))
        .map(|p| (p.key(), busy_measured(p.key())))
        .collect();
    let barrier_wait_s =
        run.spans.iter().filter(|s| s.measured && s.phase == "barrier").map(|s| s.dur).sum();
    let force_all_steps_s =
        run.spans.iter().filter(|s| s.phase == Phase::Force.key()).map(|s| s.dur).sum();
    let least_covered = (0..ranks)
        .map(|r| run.spans.iter().filter(|s| s.rank == r).map(|s| s.dur).sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    SpanSummary {
        phase_host_s,
        barrier_wait_s,
        force_all_steps_s,
        residual: 1.0 - least_covered / run.wall_s,
    }
}

/// Writes the spans as Chrome trace-event JSON (one track per rank; open
/// it in Perfetto or `chrome://tracing`).
pub fn write_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use serde::Value;
    let events = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("name".to_string(), Value::String(s.name.to_string())),
                ("cat".to_string(), Value::String(s.phase.to_string())),
                ("ph".to_string(), Value::String("X".to_string())),
                ("ts".to_string(), Value::Float(s.start * 1e6)),
                ("dur".to_string(), Value::Float(s.dur * 1e6)),
                ("pid".to_string(), Value::UInt(0)),
                ("tid".to_string(), Value::UInt(s.rank as u64)),
                (
                    "args".to_string(),
                    Value::Object(vec![
                        ("step".to_string(), Value::UInt(s.step as u64)),
                        ("measured".to_string(), Value::Bool(s.measured)),
                    ]),
                ),
            ])
        })
        .collect();
    let doc = Value::Object(vec![("traceEvents".to_string(), Value::Array(events))]);
    let text = serde_json::to_string(&doc).map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(path, text)
}
