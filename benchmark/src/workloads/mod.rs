//! The four workloads and what they share: the shape of a measured
//! round, and the staged form of `partir_jit` the traced runs use.

pub mod compile_zoo;
pub mod search_pair;
pub mod serve_mix;
pub mod train_step;

use std::time::Duration;

use crate::api::{
    evaluate, lower, CompiledPlan, EvalCache, Evaluation, Func, HardwareConfig, Partitioning,
    PlanOptions, Schedule, SpmdProgram, Tactic,
};
use crate::metrics::Values;
use crate::trace::Tracer;

/// What one measured round adds to a run. For the closed-loop workloads
/// a round is one op; for `serve_mix` it is one phase, paced or burst,
/// and holds many ops.
#[derive(Debug, Default)]
pub struct Round {
    /// Latency of each op that completed, ms.
    pub op_ms: Vec<f64>,
    /// Wall seconds the system was busy on the ops counted in
    /// `completed` (never time it sat waiting for an arrival).
    pub busy_s: f64,
    /// Ops completed within `busy_s`.
    pub completed: usize,
    pub attempted: usize,
    /// Ops that errored, were rejected, or failed their output check.
    pub failed: usize,
}

impl Round {
    /// A round of one closed-loop op that took `took`; `check` is the
    /// verdict on its outputs (an `Err` is a failed op, with the reason).
    pub fn single(took: Duration, check: Result<(), String>) -> Round {
        if let Err(why) = &check {
            eprintln!("op failed: {why}");
        }
        Round {
            op_ms: vec![took.as_secs_f64() * 1e3],
            busy_s: took.as_secs_f64(),
            completed: 1,
            attempted: 1,
            failed: usize::from(check.is_err()),
        }
    }
}

/// One workload: how to set it up, run one round of it, and trace it.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// One line: which layers the workload stresses and which it leaves
    /// idle. Printed with the results.
    const WHY: &'static str;
    /// The full set-up a user pays before the first op, from the seed
    /// alone. Timed as `setup_s`, eleven times per run.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Harness-only preparation that is not the system's set-up: the
    /// reference outputs the ops are checked against.
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// A check too heavy to run before the ops: it would set the
    /// process's peak memory in the program's place. Runs once, after
    /// the last op; an `Err` fails every op of the run.
    fn audit(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Runs round `i`, timing only the calls into the program and
    /// checking the outputs after the clock has stopped.
    fn round(&mut self, i: usize) -> Round;

    /// The traced run: for about `seconds`, runs ops with the harness
    /// calling each stage itself under `tracer`, alternating with
    /// untraced monolithic ops, and returns the per-layer values it
    /// measured, with the round totals so failed ops count. An `Err`
    /// is a set-up or probe that could not run at all.
    fn traced(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<(Values, Round), String>;
}

/// Adds `r` into `total` (latencies appended, counts summed).
pub fn absorb(total: &mut Round, r: Round) {
    total.op_ms.extend(r.op_ms);
    total.busy_s += r.busy_s;
    total.completed += r.completed;
    total.attempted += r.attempted;
    total.failed += r.failed;
}

/// What the staged jit learned besides the program.
#[derive(Debug, Default, Clone, Copy)]
pub struct JitCounts {
    pub rewrites: usize,
    pub conflicts: usize,
    pub sim_evals: usize,
    /// Final simulated cost of the partitioning (seconds, penalised).
    pub cost: f64,
    /// Simulator's step-time estimate for the final program, ms.
    pub step_est_ms: f64,
    /// Filled by a `Static` tactic.
    pub candidates: u64,
    pub class_duplicates: u64,
    pub static_evals: u64,
    pub static_sim_evals: u64,
    pub pruned: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// `partir_jit` taken apart: the same calls in the same order, each one
/// a span. Kept next to the monolithic call it mirrors so `trace.coverage`
/// says at once when the two drift apart.
pub fn staged_jit(
    tr: &mut Tracer,
    func: &Func,
    hw: &HardwareConfig,
    schedule: &Schedule,
) -> Result<(SpmdProgram, Partitioning, JitCounts), String> {
    let mut counts = JitCounts::default();
    let mut part = tr
        .time("core.new", || Partitioning::new(func, hw.mesh.clone()))
        .map_err(text)?;
    let cache = EvalCache::new();
    let mut last = Evaluation::default();
    for tactic in schedule.tactics() {
        match tactic {
            Tactic::Manual(m) => {
                tr.time("core.tactic", || m.apply(func, &mut part))
                    .map_err(text)?;
            }
            Tactic::Auto(a) => {
                tr.time("sched.auto", || {
                    a.apply_with_cache(func, hw, &mut part, &cache)
                })
                .map_err(text)?;
            }
            Tactic::Static(s) => {
                let report = tr
                    .time("sched.static", || {
                        s.apply_reporting(func, hw, &mut part, &cache)
                    })
                    .map_err(text)?;
                counts.candidates += report.candidates;
                counts.class_duplicates += report.class_duplicates;
                counts.static_evals += report.static_evals;
                counts.static_sim_evals += report.sim_evals;
                counts.pruned += report.pruned;
            }
        }
        let report = tr.time("core.propagate", || part.propagate(func));
        counts.rewrites += report.applied;
        counts.conflicts += report.conflicts.len();
        // The per-tactic metadata evaluation. Manual tactics reach a new
        // state every time, so this is `sim::evaluate` itself; after a
        // search it is answered from the search's cache, as in the jit.
        last = match tactic {
            Tactic::Manual(_) => {
                counts.sim_evals += 1;
                tr.time("sim.evaluate", || evaluate(func, &part, hw))
                    .map_err(text)?
            }
            _ => tr
                .time("sim.evaluate", || cache.evaluate(func, &part, hw))
                .map_err(text)?,
        };
    }
    let lowered = tr.time("spmd.lower", || lower(func, &part)).map_err(text)?;
    let program = tr.time("spmd.fuse", || lowered.fused()).map_err(text)?;
    let stats = cache.stats();
    counts.cache_hits = stats.hits;
    counts.cache_misses = stats.misses;
    counts.sim_evals += stats.misses as usize;
    counts.pruned += stats.pruned;
    counts.cost = last.cost(hw);
    counts.step_est_ms = last.sim.runtime_s * 1e3;
    Ok((program, part, counts))
}

/// The schedule labelled `label` in one of the zoo's Table 2 lists.
pub fn table_row(rows: Vec<(&'static str, Schedule)>, label: &str) -> Result<Schedule, String> {
    rows.into_iter()
        .find(|(l, _)| *l == label)
        .map(|(_, s)| s)
        .ok_or_else(|| format!("no schedule row {label}"))
}

/// Any error of the program, as the text a failed op is reported with.
pub fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The counts a compiled cell yields, and [`counted`] to read them off
/// in the same order.
pub const COUNTED: [&str; 9] = [
    "core.rewrites",
    "core.conflicts",
    "spmd.collectives",
    "spmd.predicted_bytes",
    "sim.evals",
    "sim.step_est_ms",
    "plan.arena_bytes",
    "plan.fused_ops",
    "plan.overlap_windows",
];

pub fn counted(program: &SpmdProgram, plan: &CompiledPlan, n: &JitCounts) -> [f64; 9] {
    [
        n.rewrites as f64,
        n.conflicts as f64,
        program.stats().total() as f64,
        program
            .predicted_traffic()
            .map_or(0.0, |p| p.total_bytes() as f64),
        n.sim_evals as f64,
        n.step_est_ms,
        plan.arena_bytes() as f64,
        plan.fused_ops() as f64,
        overlap_windows(plan) as f64,
    ]
}

/// Collective windows the plan actually hoisted open.
pub fn overlap_windows(plan: &CompiledPlan) -> usize {
    plan.collective_windows()
        .iter()
        .filter(|w| w.gap_steps > 0)
        .count()
}

/// The simulated cost `partir_jit` recorded after its last tactic.
pub fn final_cost(jitted: &crate::api::Jitted, hw: &HardwareConfig) -> f64 {
    jitted.reports.last().map_or(f64::NAN, |r| {
        Evaluation {
            sim: r.sim,
            stats: r.stats,
        }
        .cost(hw)
    })
}

/// One staged set-up of `func` under `schedule`, compiled with `options`
/// and verified: the compile layers as spans, their times and counts
/// into `values`. For the workloads whose ops never enter those layers
/// again.
pub fn staged_setup(
    tr: &mut Tracer,
    values: &mut Values,
    func: &Func,
    hw: &HardwareConfig,
    schedule: &Schedule,
    options: &PlanOptions,
) -> Result<(), String> {
    let (program, _part, counts) = staged_jit(tr, func, hw, schedule)?;
    let plan = tr
        .time("plan.compile", || program.compile_with(options))
        .map_err(text)?;
    let diags = tr.time("plan.verify", || plan.verify());
    if crate::api::error_count(&diags) > 0 {
        return Err(format!("plan verifier reported {diags:?}"));
    }
    for (name, v) in COUNTED.into_iter().zip(counted(&program, &plan, &counts)) {
        values.insert(name, v);
    }
    stage_medians(tr, values, COMPILE_STAGES);
    // The stages `partir_jit` is made of: everything but compile and verify.
    let jit_ms = JIT_STAGES.iter().map(|(metric, _)| values[metric]).sum();
    values.insert("sched.jit_ms", jit_ms);
    Ok(())
}

/// `trace.coverage` and `trace.overhead_share` of a run whose untraced
/// monolithic op took `mono_ms` (median).
pub fn trace_quality(tr: &Tracer, values: &mut Values, mono_ms: f64) {
    values.insert("trace.coverage", tr.staged_ms_p50() / mono_ms);
    values.insert("trace.overhead_share", tr.op_ms_p50() / mono_ms - 1.0);
}

/// Copies the tracer's per-op medians of the named stage spans into
/// `values` under their metric names.
pub fn stage_medians(tr: &Tracer, values: &mut Values, pairs: &[(&'static str, &'static str)]) {
    for &(metric, span) in pairs {
        values.insert(metric, tr.ms_p50(span));
    }
}

/// The compile-path stages and the metric each one feeds: first the six
/// inside `partir_jit`, then plan compilation and verification.
pub const COMPILE_STAGES: &[(&str, &str)] = &[
    ("core.new_ms", "core.new"),
    ("core.tactic_ms", "core.tactic"),
    ("core.propagate_ms", "core.propagate"),
    ("sim.evaluate_ms", "sim.evaluate"),
    ("spmd.lower_ms", "spmd.lower"),
    ("spmd.fuse_ms", "spmd.fuse"),
    ("plan.compile_ms", "plan.compile"),
    ("plan.verify_ms", "plan.verify"),
];
const JIT_STAGES: &[(&str, &str)] = COMPILE_STAGES.split_at(6).0;

#[cfg(test)]
mod tests {
    use super::compile_zoo::CompileZoo;
    use super::search_pair::SearchPair;
    use super::serve_mix::ServeMix;
    use super::train_step::TrainStep;
    use super::*;

    /// Set-up, reference outputs and `rounds` rounds: every op must pass
    /// its output check.
    fn smoke<W: Workload>(rounds: usize) {
        let mut w = W::setup(7).expect("set-up");
        w.prepare().expect("reference outputs");
        let mut total = Round::default();
        for i in 0..rounds {
            absorb(&mut total, w.round(i));
        }
        w.audit().expect("audit");
        assert!(total.attempted >= 2, "{}: {total:?}", W::NAME);
        assert_eq!(total.failed, 0, "{}: {total:?}", W::NAME);
        assert!(total.completed >= 1 && total.busy_s > 0.0);
        assert!(total.op_ms.iter().all(|ms| *ms > 0.0));
    }

    #[test]
    fn compile_zoo_two_ops() {
        smoke::<CompileZoo>(2);
    }

    #[test]
    fn search_pair_two_ops() {
        smoke::<SearchPair>(2);
    }

    #[test]
    fn train_step_two_ops() {
        smoke::<TrainStep>(2);
    }

    #[test]
    fn serve_mix_one_paced_and_one_burst_phase() {
        smoke::<ServeMix>(2);
    }

    #[test]
    fn staged_jit_builds_the_program_partir_jit_builds() {
        use crate::api::{partir_jit, schedules, tpu_mesh, transformer, TransformerConfig};
        let func = transformer::build_train_step(&TransformerConfig::tiny())
            .expect("model")
            .func;
        let hw = tpu_mesh(2, 2);
        for (label, schedule) in schedules::transformer_table2() {
            let jitted = partir_jit(&func, &hw, &schedule).expect("jit");
            let mut tr = Tracer::new();
            let (program, part, counts) = tr
                .op(|tr| staged_jit(tr, &func, &hw, &schedule))
                .expect("staged jit");
            assert_eq!(
                program.func().fingerprint(),
                jitted.program.func().fingerprint(),
                "{label}"
            );
            assert_eq!(
                part.fingerprint(),
                jitted.partitioning.fingerprint(),
                "{label}"
            );
            assert_eq!(counts.cost, final_cost(&jitted, &hw), "{label}");
            assert_eq!(counts.sim_evals, schedule.tactics().len(), "{label}");
        }
    }
}
