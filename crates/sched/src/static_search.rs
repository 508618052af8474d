//! The `StaticSearch` tactic: beam search over tiling actions ranked by
//! the static objective, with the simulator kept only for final top-K
//! rescoring.
//!
//! Where [`crate::AutomaticPartition`] pays lowering + fusion + a
//! simulated walk for every tree node, this tactic never lowers a
//! candidate during the search. Each level it:
//!
//! 1. enumerates the same capped, largest-tensors-first action space as
//!    MCTS ([`crate::auto`]'s `candidate_actions`);
//! 2. tries each action in place on the frontier state and collapses
//!    them into equivalence classes by *propagated* fingerprint
//!    ([`partir_analysis::equivalence_classes`]) — distinct `tile`
//!    actions frequently converge to the same sharding once propagation
//!    runs, and a class only needs to be costed once;
//! 3. drops classes whose fingerprint was already explored or rejected
//!    ([`partir_analysis::is_legal`], ticking the shared pruned
//!    counters);
//! 4. costs each surviving class through one amortised
//!    [`partir_analysis::StaticObjective`] (built once per search),
//!    keeps the [`BEAM_WIDTH`] cheapest, and only then builds those
//!    survivors' states as the next frontier.
//!
//! Every frontier state ever kept is pooled; at the end the `top_k`
//! statically-cheapest pool entries (default 8) are rescored by the
//! analytical simulator through the shared fingerprint-keyed
//! [`EvalCache`], and the winner's action sequence is applied only if
//! its *simulated* cost beats the starting state — the final-K
//! rescoring contract: the static objective proposes, the simulator
//! disposes.

use std::collections::HashSet;
use std::hash::BuildHasherDefault;

use partir_analysis::{equivalence_classes, StaticObjective, TileCandidate};
use partir_core::Partitioning;
use partir_ir::{Fingerprint, Func};
use partir_mesh::{Axis, HardwareConfig};

use crate::auto::{candidate_actions, MAX_ACTIONS, MAX_BRANCHING};
use crate::cache::FingerprintHasher;
use crate::{EvalCache, SchedError};

/// Frontier width per beam level.
pub const BEAM_WIDTH: usize = 4;

/// Static-objective beam search over one or more mesh axes.
#[derive(Debug, Clone)]
pub struct StaticSearch {
    name: String,
    axes: Vec<Axis>,
    /// Pool entries rescored by the simulator at the end.
    pub top_k: usize,
}

/// What one [`StaticSearch`] run did — the numbers the `search_pair`
/// benchmark reports and `tests/search_pins.rs` pins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticSearchReport {
    /// Tile actions enumerated across all levels.
    pub candidates: u64,
    /// Equivalence classes costed by the static objective (each class is
    /// one `static_cost` call, however many actions it groups).
    pub static_evals: u64,
    /// Actions that shared a class with an earlier action (never costed).
    pub class_duplicates: u64,
    /// Classes rejected by the legality pre-filter.
    pub pruned: u64,
    /// Pool entries rescored by the simulator (≤ `top_k`).
    pub sim_evals: u64,
    /// Best static cost seen in the pool.
    pub best_static_cost: f64,
    /// Simulated cost of the winning strategy (the starting state's if
    /// nothing beat it).
    pub best_sim_cost: f64,
    /// Simulated cost of the starting state.
    pub baseline_sim_cost: f64,
    /// Actions applied to the partitioning.
    pub applied: usize,
}

impl StaticSearch {
    /// Creates a static search tactic over `axes`.
    pub fn new<A: Into<Axis>>(name: impl Into<String>, axes: impl IntoIterator<Item = A>) -> Self {
        StaticSearch {
            name: name.into(),
            axes: axes.into_iter().map(Into::into).collect(),
            top_k: 8,
        }
    }

    /// Tactic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets how many finalists the simulator rescores.
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k;
        self
    }

    /// Runs the search and applies the winning action sequence to
    /// `part`. Returns the number of actions applied.
    ///
    /// # Errors
    ///
    /// Fails if costing or the final simulator rescoring fails
    /// (indicating a bug rather than a bad candidate).
    pub fn apply(
        &self,
        func: &Func,
        hw: &HardwareConfig,
        part: &mut Partitioning,
    ) -> Result<usize, SchedError> {
        self.apply_with_cache(func, hw, part, &EvalCache::new())
    }

    /// [`StaticSearch::apply`] with a caller-supplied evaluation cache
    /// for the final top-K rescoring (shared with the other tactics by
    /// `partir_jit`).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`StaticSearch::apply`].
    pub fn apply_with_cache(
        &self,
        func: &Func,
        hw: &HardwareConfig,
        part: &mut Partitioning,
        cache: &EvalCache,
    ) -> Result<usize, SchedError> {
        Ok(self.apply_reporting(func, hw, part, cache)?.applied)
    }

    /// [`StaticSearch::apply_with_cache`] returning the full search
    /// report (candidate counts, class dedup, final costs).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`StaticSearch::apply`].
    pub fn apply_reporting(
        &self,
        func: &Func,
        hw: &HardwareConfig,
        part: &mut Partitioning,
        cache: &EvalCache,
    ) -> Result<StaticSearchReport, SchedError> {
        let _span = partir_obs::span!("sched.static_search");
        let baseline_sim = cache.evaluate(func, part, hw)?.cost(hw);
        // One structural pass over the function; every candidate below is
        // then costed through the amortised evaluator.
        let objective = StaticObjective::new(func);
        let baseline_static = objective.cost(part, hw)?.cost(hw);
        let mut report = StaticSearchReport {
            candidates: 0,
            static_evals: 0,
            class_duplicates: 0,
            pruned: 0,
            sim_evals: 0,
            best_static_cost: baseline_static,
            best_sim_cost: baseline_sim,
            baseline_sim_cost: baseline_sim,
            applied: 0,
        };

        /// A frontier state and the actions that reached it.
        struct Candidate {
            actions: Vec<TileCandidate>,
            state: Partitioning,
        }
        /// A costed class: one action from frontier state `parent`.
        struct Scored {
            parent: usize,
            action: TileCandidate,
            cost: f64,
        }

        let mut seen: HashSet<Fingerprint, BuildHasherDefault<FingerprintHasher>> =
            HashSet::default();
        seen.insert(part.fingerprint());
        let mut beam = vec![Candidate {
            actions: Vec::new(),
            state: part.clone(),
        }];
        let mut pool: Vec<(Vec<TileCandidate>, f64)> = Vec::new();

        for _level in 0..MAX_ACTIONS {
            let mut next: Vec<Scored> = Vec::new();
            // This level's own decisions, reported as one sample each of
            // the `sched.static.level.*` counters.
            let (mut candidates, mut classes, mut pruned) = (0u64, 0u64, 0u64);
            for (parent, cand) in beam.iter_mut().enumerate() {
                let mut actions = candidate_actions(func, &cand.state, &self.axes);
                actions.truncate(MAX_BRANCHING);
                candidates += actions.len() as u64;
                // Every class is tried, deduplicated, filtered and costed
                // on `cand.state` in place; nothing is copied here.
                let duplicates =
                    equivalence_classes(func, &mut cand.state, &actions, |first, state| {
                        partir_obs::counter!("sched.static.classes", 1);
                        classes += 1;
                        if !seen.insert(state.fingerprint()) {
                            return Ok(()); // another path already reached this state
                        }
                        if !partir_analysis::is_legal(func, state) {
                            cache.note_pruned(state.fingerprint());
                            pruned += 1;
                            return Ok(());
                        }
                        let cost = objective.cost(state, hw)?.cost(hw);
                        report.static_evals += 1;
                        partir_obs::counter!("sched.static.evals", 1);
                        next.push(Scored {
                            parent,
                            action: actions[first].clone(),
                            cost,
                        });
                        Ok::<(), SchedError>(())
                    })?;
                report.class_duplicates += duplicates as u64;
            }
            report.candidates += candidates;
            report.pruned += pruned;
            next.sort_by(|a, b| a.cost.total_cmp(&b.cost));
            next.truncate(BEAM_WIDTH);
            partir_obs::counter!("sched.static.level.candidates", candidates);
            partir_obs::counter!("sched.static.level.classes", classes);
            partir_obs::counter!("sched.static.level.pruned", pruned);
            partir_obs::counter!("sched.static.level.kept", next.len());
            let Some(best) = next.first() else {
                break;
            };
            partir_obs::counter!("sched.static.level.best_cost", best.cost);
            // Only the survivors become states of their own.
            let mut survivors = Vec::with_capacity(next.len());
            for scored in next {
                let from = &beam[scored.parent];
                let mut state = from.state.clone();
                state.tile(
                    func,
                    scored.action.value,
                    scored.action.dim,
                    &scored.action.axis,
                )?;
                state.propagate(func);
                let mut actions = from.actions.clone();
                actions.push(scored.action);
                pool.push((actions.clone(), scored.cost));
                survivors.push(Candidate { actions, state });
            }
            beam = survivors;
        }

        // Final-K rescoring: the statically-cheapest pool entries meet
        // the simulator (through the shared cache); the winner is applied
        // only if its *simulated* cost beats the starting state.
        pool.sort_by(|a, b| a.1.total_cmp(&b.1));
        pool.truncate(self.top_k);
        if let Some(best) = pool.first() {
            report.best_static_cost = best.1.min(baseline_static);
        }
        let mut winner: Option<&Vec<TileCandidate>> = None;
        for (actions, _static_cost) in &pool {
            let mut state = part.clone();
            for a in actions {
                state.tile(func, a.value, a.dim, &a.axis)?;
                state.propagate(func);
            }
            let sim_cost = cache.evaluate(func, &state, hw)?.cost(hw);
            report.sim_evals += 1;
            if sim_cost < report.best_sim_cost {
                report.best_sim_cost = sim_cost;
                winner = Some(actions);
            }
        }
        if let Some(actions) = winner {
            for a in actions {
                part.tile(func, a.value, a.dim, &a.axis)?;
                part.propagate(func);
            }
            report.applied = actions.len();
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{FuncBuilder, TensorType};
    use partir_mesh::Mesh;

    fn chain() -> Func {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([4096, 512]));
        let w1 = b.param("w1", TensorType::f32([512, 512]));
        let w2 = b.param("w2", TensorType::f32([512, 512]));
        let h = b.matmul(x, w1).unwrap();
        let y = b.matmul(h, w2).unwrap();
        b.build([y]).unwrap()
    }

    #[test]
    fn static_search_finds_batch_parallelism() {
        let f = chain();
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let mut p = Partitioning::new(&f, mesh).unwrap();
        let cache = EvalCache::new();
        let tactic = StaticSearch::new("static", ["B"]);
        let report = tactic.apply_reporting(&f, &hw, &mut p, &cache).unwrap();
        assert!(report.applied >= 1);
        assert!(report.best_sim_cost < report.baseline_sim_cost);
        // The simulator ran only for the baseline + final top-K, however
        // many classes the search costed.
        assert!(report.sim_evals <= tactic.top_k as u64);
        assert!(cache.stats().misses <= 1 + tactic.top_k as u64);
        let searched = partir_sim::evaluate(&f, &p, &hw).unwrap();
        let replicated =
            partir_sim::evaluate(&f, &Partitioning::new(&f, hw.mesh.clone()).unwrap(), &hw)
                .unwrap();
        assert!(searched.sim.runtime_s < replicated.sim.runtime_s);
    }

    #[test]
    fn equivalence_classes_dedupe_converging_actions() {
        // On the chain, several tile actions propagate to identical
        // states; the class layer must collapse them so the static
        // objective runs strictly fewer times than actions enumerated.
        let f = chain();
        let mesh = Mesh::new([("B", 4), ("M", 2)]).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let mut p = Partitioning::new(&f, mesh).unwrap();
        let report = StaticSearch::new("static", ["B", "M"])
            .apply_reporting(&f, &hw, &mut p, &EvalCache::new())
            .unwrap();
        assert!(report.candidates > 0);
        assert!(
            report.class_duplicates > 0,
            "expected converging actions on the chain: {report:?}"
        );
        assert!(report.static_evals + report.class_duplicates + report.pruned <= report.candidates);
    }

    #[test]
    fn static_search_matches_mcts_on_the_chain() {
        // End-cost parity with the simulator-in-the-loop search on a
        // model where the optimum is known (batch parallelism).
        let f = chain();
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let mut ps = Partitioning::new(&f, mesh.clone()).unwrap();
        StaticSearch::new("static", ["B"])
            .apply(&f, &hw, &mut ps)
            .unwrap();
        let mut pm = Partitioning::new(&f, mesh).unwrap();
        crate::AutomaticPartition::new("auto", ["B"])
            .with_budget(48)
            .apply(&f, &hw, &mut pm)
            .unwrap();
        let cs = partir_sim::evaluate(&f, &ps, &hw).unwrap().cost(&hw);
        let cm = partir_sim::evaluate(&f, &pm, &hw).unwrap().cost(&hw);
        assert!(
            cs <= cm * 1.05,
            "static search lost to MCTS by >5%: {cs} vs {cm}"
        );
    }

    #[test]
    fn static_search_is_deterministic() {
        let f = chain();
        let mesh = Mesh::new([("B", 4), ("M", 2)]).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let run = || {
            let mut p = Partitioning::new(&f, mesh.clone()).unwrap();
            StaticSearch::new("static", ["B", "M"])
                .apply(&f, &hw, &mut p)
                .unwrap();
            p.fingerprint()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unsupported_function_is_an_error_not_a_panic() {
        // Nine operands exceed the static objective's packed operand
        // arrays: the search must hand back its structured refusal.
        let mut b = FuncBuilder::new("f");
        let xs: Vec<_> = (0..9)
            .map(|i| b.param(format!("x{i}"), TensorType::f32([4, 8])))
            .collect();
        let y = b.concatenate(&xs, 0).unwrap();
        let f = b.build([y]).unwrap();
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let mut p = Partitioning::new(&f, mesh).unwrap();
        let err = StaticSearch::new("static", ["B"])
            .apply(&f, &hw, &mut p)
            .unwrap_err();
        assert!(err.to_string().contains("operands"), "{err}");
    }

    #[test]
    fn never_applies_a_sim_regression() {
        // With top_k = 0 nothing is rescored, so nothing may be applied:
        // the simulator has the final word by contract.
        let f = chain();
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let mut p = Partitioning::new(&f, mesh).unwrap();
        let report = StaticSearch::new("static", ["B"])
            .with_top_k(0)
            .apply_reporting(&f, &hw, &mut p, &EvalCache::new())
            .unwrap();
        assert_eq!(report.applied, 0);
        assert_eq!(report.sim_evals, 0);
        assert_eq!(report.best_sim_cost, report.baseline_sim_cost);
    }
}
