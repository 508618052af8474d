//! Schedule execution: the `partir.jit` equivalent.

use std::time::{Duration, Instant};

use partir_analysis::StaticObjective;
use partir_core::Partitioning;
use partir_ir::Func;
use partir_mesh::HardwareConfig;
use partir_sim::{Evaluation, SimReport};
use partir_spmd::{lower, CollectiveStats, SpmdProgram};

use crate::{CacheStats, EvalCache, SchedError, Tactic};

/// Where the numbers of a [`TacticReport`] come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostSource {
    /// The analytical simulator (`sim::evaluate` behind the shared
    /// [`EvalCache`]) — exact, but pays lowering + fusion + a simulated
    /// walk per distinct state.
    #[default]
    Sim,
    /// The static objective (`partir_analysis::static_cost`) — costs
    /// read straight off the propagated state, orders of magnitude
    /// cheaper per candidate.
    Static,
}

/// An ordered list of tactics.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    tactics: Vec<Tactic>,
}

impl Schedule {
    /// Creates a schedule from tactics.
    pub fn new(tactics: impl IntoIterator<Item = Tactic>) -> Self {
        Schedule {
            tactics: tactics.into_iter().collect(),
        }
    }

    /// The tactics in application order.
    pub fn tactics(&self) -> &[Tactic] {
        &self.tactics
    }

    /// Human-readable name like `BP+MP+Z3`.
    pub fn label(&self) -> String {
        self.tactics
            .iter()
            .map(|t| t.name().to_string())
            .collect::<Vec<_>>()
            .join("+")
    }
}

impl FromIterator<Tactic> for Schedule {
    fn from_iter<I: IntoIterator<Item = Tactic>>(iter: I) -> Self {
        Schedule::new(iter)
    }
}

/// Metadata recorded after each tactic (paper §3: "cost estimates …
/// recorded after every tactic in the schedule").
///
/// The last tactic's numbers simulate the program [`partir_jit`]
/// returns. Every earlier tactic's come from the static objective
/// (`partir_analysis::StaticObjective`), which replays lowering and
/// fusion on the partitioning without building the program: its
/// collective counts and wire bytes are the simulator's, its seconds and
/// flops agree to float rounding, and its `sim.peak_memory_bytes` is the
/// objective's liveness bound, which is ≥ the simulated peak.
/// [`TacticReport::source`] says which kind a report holds.
#[derive(Debug, Clone)]
pub struct TacticReport {
    /// Tactic name.
    pub tactic: String,
    /// Actions the tactic issued (tile/atomic, or search-applied).
    pub actions: usize,
    /// Rewrites propagation applied after the tactic.
    pub rewrites: usize,
    /// Propagation conflicts outstanding after the tactic.
    pub conflicts: usize,
    /// Collective counts of the program as of this tactic.
    pub stats: CollectiveStats,
    /// Cost estimate of the program as of this tactic.
    pub sim: SimReport,
    /// Where `stats` and `sim` come from: [`CostSource::Static`] before
    /// the last tactic, [`CostSource::Sim`] for the last — and before it
    /// too when the objective refuses the function (a tensor of rank
    /// > 6, an op of more than 8 operands, a mesh of more than 4 axes).
    pub source: CostSource,
    /// Wall-clock spent applying the tactic (partitioning only).
    pub partition_time: Duration,
}

/// A partitioned program plus its per-tactic metadata.
#[derive(Debug)]
pub struct Jitted {
    /// The fused device-local program.
    pub program: SpmdProgram,
    /// The final partitioning state.
    pub partitioning: Partitioning,
    /// One report per tactic.
    pub reports: Vec<TacticReport>,
    /// Total wall-clock spent partitioning, the one lowering of the final
    /// state included; the metadata evaluations (static costing before
    /// the last tactic, simulation of the final program) are not.
    pub partition_time: Duration,
    /// Evaluation-cache counters for the run. Automatic tactics and the
    /// last report's simulation share one cache, so a final state a
    /// search already scored is not simulated again. The static reports
    /// before it do not touch the cache: an all-manual schedule misses
    /// exactly once.
    pub cache: CacheStats,
}

/// Applies `schedule` to `func` and lowers the result — the equivalent of
/// the paper's `partir.jit(f, mesh, schedule)`.
///
/// # Errors
///
/// Fails if a tactic's explicit action is invalid or lowering fails.
pub fn partir_jit(
    func: &Func,
    hw: &HardwareConfig,
    schedule: &Schedule,
) -> Result<Jitted, SchedError> {
    let _span = partir_obs::span!("sched.jit");
    let mut part = Partitioning::new(func, hw.mesh.clone())?;
    let mut reports = Vec::with_capacity(schedule.tactics().len());
    let mut partition_time = Duration::ZERO;
    // One evaluation cache for the whole run: searches use it as their
    // transposition table, and the last report below hits it when a
    // search already scored the final state.
    let cache = EvalCache::new();
    // Costs the states before the last tactic. Built on the first of
    // them, so a one-tactic schedule never pays for it.
    let mut objective = None;
    let mut program = None;
    let last = schedule.tactics().len().checked_sub(1);
    for (i, tactic) in schedule.tactics().iter().enumerate() {
        let _tactic_span = partir_obs::span!(format!("tactic.{}", tactic.name()));
        let start = Instant::now();
        let actions = match tactic {
            Tactic::Manual(m) => m.apply(func, &mut part)?,
            Tactic::Auto(a) => a.apply_with_cache(func, hw, &mut part, &cache)?,
            Tactic::Static(s) => s.apply_with_cache(func, hw, &mut part, &cache)?,
        };
        let report = part.propagate(func);
        let spent = start.elapsed();
        partition_time += spent;
        // Metadata evaluation: collective counts + cost estimates as of
        // this tactic (the user-facing incremental feedback). The last
        // tactic's state is the one the caller gets lowered, so it is
        // lowered once and its report simulates that program; every
        // earlier state is costed statically, without building IR.
        let (eval, source) = if Some(i) == last {
            let lowered = program.insert(lower_final(func, &part, &mut partition_time)?);
            (cache.evaluate_lowered(&part, lowered, hw)?, CostSource::Sim)
        } else {
            let objective = objective.get_or_insert_with(|| StaticObjective::new(func));
            match objective.cost(&part, hw) {
                Ok(cost) => (Evaluation::from(cost), CostSource::Static),
                // A function or mesh past the packed walk's bounds.
                Err(_) => (cache.evaluate(func, &part, hw)?, CostSource::Sim),
            }
        };
        reports.push(TacticReport {
            tactic: tactic.name().to_string(),
            actions,
            rewrites: report.applied,
            conflicts: report.conflicts.len(),
            stats: eval.stats,
            sim: eval.sim,
            source,
            partition_time: spent,
        });
    }
    let program = match program {
        Some(program) => program,
        None => lower_final(func, &part, &mut partition_time)?, // empty schedule
    };
    Ok(Jitted {
        program,
        partitioning: part,
        reports,
        partition_time,
        cache: cache.stats(),
    })
}

/// Lowers the final state, charging the time to partitioning.
fn lower_final(
    func: &Func,
    part: &Partitioning,
    partition_time: &mut Duration,
) -> Result<SpmdProgram, SchedError> {
    let start = Instant::now();
    let program = lower(func, part)?;
    *partition_time += start.elapsed();
    Ok(program)
}

/// The PartIR-st ablation (paper §7.4): amalgamates every manual tactic
/// into a single tactic — all actions are issued first, then propagation
/// runs once, so conflicts that incrementality would have resolved remain.
///
/// # Errors
///
/// Fails if an action is invalid or the schedule contains automatic
/// tactics (which are inherently incremental).
pub fn partir_jit_single_tactic(
    func: &Func,
    hw: &HardwareConfig,
    schedule: &Schedule,
) -> Result<Jitted, SchedError> {
    let mut part = Partitioning::new(func, hw.mesh.clone())?;
    let start = Instant::now();
    let mut actions = 0;
    for tactic in schedule.tactics() {
        match tactic {
            Tactic::Manual(m) => actions += m.apply(func, &mut part)?,
            Tactic::Auto(_) | Tactic::Static(_) => {
                return Err(SchedError::Invalid(
                    "PartIR-st cannot amalgamate automatic tactics".to_string(),
                ))
            }
        }
    }
    let report = part.propagate(func);
    let spent = start.elapsed();
    let cache = EvalCache::new();
    let program = lower(func, &part)?;
    let eval = cache.evaluate_lowered(&part, &program, hw)?;
    Ok(Jitted {
        program,
        partitioning: part,
        reports: vec![TacticReport {
            tactic: format!("st({})", schedule.label()),
            actions,
            rewrites: report.applied,
            conflicts: report.conflicts.len(),
            stats: eval.stats,
            sim: eval.sim,
            source: CostSource::Sim,
            partition_time: spent,
        }],
        partition_time: spent,
        cache: cache.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManualPartition;
    use partir_ir::{FuncBuilder, TensorType};
    use partir_mesh::Mesh;

    fn chain() -> Func {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([256, 8]));
        let w1 = b.param("w1", TensorType::f32([8, 16]));
        let w2 = b.param("w2", TensorType::f32([16, 8]));
        let h = b.matmul(x, w1).unwrap();
        let y = b.matmul(h, w2).unwrap();
        b.build([y]).unwrap()
    }

    fn hw() -> HardwareConfig {
        HardwareConfig::tpu_v3_pod(Mesh::new([("B", 4), ("M", 2)]).unwrap())
    }

    #[test]
    fn listing6_schedule_reproduces_listing5() {
        let f = chain();
        let schedule = Schedule::new([
            ManualPartition::new("BP", "B").dim("x", 0).into(),
            ManualPartition::new("MP", "M").dim("w1", 1).into(),
            ManualPartition::new("Z3", "B")
                .dim("w1", 0)
                .dim("w2", 1)
                .into(),
        ]);
        let jitted = partir_jit(&f, &hw(), &schedule).unwrap();
        assert_eq!(schedule.label(), "BP+MP+Z3");
        assert_eq!(jitted.reports.len(), 3);
        // Per-tactic incremental feedback: BP introduces nothing, MP one
        // AR, Z3 two AGs on top.
        assert_eq!(jitted.reports[0].stats.total(), 0);
        assert_eq!(jitted.reports[1].stats.all_reduce, 1);
        assert_eq!(jitted.reports[2].stats.all_gather, 2);
        assert_eq!(jitted.program.stats().all_reduce, 1);
        assert!(jitted.reports.iter().all(|r| r.conflicts == 0));
        // Memory estimates shrink monotonically as Z3 shards parameters.
        assert!(jitted.reports[2].sim.peak_memory_bytes <= jitted.reports[1].sim.peak_memory_bytes);
    }

    #[test]
    fn single_tactic_variant_reports_conflicts() {
        let f = chain();
        // BP and a conflicting w1 tiling on the same axis.
        let schedule = Schedule::new([
            ManualPartition::new("BP", "B").dim("x", 0).into(),
            ManualPartition::new("W1", "B").dim("w1", 1).into(),
        ]);
        let incremental = partir_jit(&f, &hw(), &schedule).unwrap();
        let single = partir_jit_single_tactic(&f, &hw(), &schedule).unwrap();
        assert_eq!(
            incremental
                .reports
                .iter()
                .map(|r| r.conflicts)
                .sum::<usize>(),
            0
        );
        assert!(single.reports[0].conflicts > 0);
        // Both are correct programs, but the single-tactic one gathers
        // more.
        assert!(single.program.stats().all_gather >= incremental.program.stats().all_gather);
    }
}
