//! The `AutomaticPartition` tactic: Monte-Carlo tree search over tiling
//! actions (paper §3 and Appendix A.5.3; algorithm in the Automap line of
//! work the paper cites).
//!
//! States are [`Partitioning`]s (propagated after every action); actions
//! are `tile(value, dim, axis)` over the function's inputs plus a
//! terminating `stop`. The reward is the analytical simulator's runtime
//! estimate with a hard penalty for exceeding device memory — the paper's
//! cost model "seeks runtime improvement and penalizes models that exceed
//! device memory limits". Child states are materialised lazily and the
//! branching factor is capped to the largest tensors, keeping searches on
//! 10k-op training steps tractable.

use partir_analysis::TileCandidate;
use partir_core::Partitioning;
use partir_ir::Func;
use partir_mesh::{Axis, HardwareConfig};
use partir_prng::Rng;

use crate::{EvalCache, SchedError};

/// Where a search's candidate costs come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostSource {
    /// The analytical simulator (`sim::evaluate` behind the shared
    /// [`EvalCache`]) — exact, but pays lowering + fusion + a simulated
    /// walk per distinct state. Retained as the differential oracle for
    /// the static objective.
    #[default]
    Sim,
    /// The static objective (`partir_analysis::static_cost`) — costs
    /// read straight off the propagated state, orders of magnitude
    /// cheaper per candidate.
    Static,
}

/// Search-based tactic over one or more mesh axes.
#[derive(Debug, Clone)]
pub struct AutomaticPartition {
    name: String,
    axes: Vec<Axis>,
    /// Number of MCTS simulations.
    pub budget: usize,
    /// RNG seed (searches are deterministic given a seed).
    pub seed: u64,
    /// Maximum actions per rollout/plan.
    pub max_actions: usize,
    /// UCT exploration constant.
    pub exploration: f64,
    /// Maximum candidate actions considered per node (largest tensors
    /// first).
    pub max_branching: usize,
    /// Reward source for rollouts ([`CostSource::Sim`] by default).
    pub cost_source: CostSource,
}

impl AutomaticPartition {
    /// Creates a search tactic over `axes`.
    pub fn new<A: Into<Axis>>(name: impl Into<String>, axes: impl IntoIterator<Item = A>) -> Self {
        AutomaticPartition {
            name: name.into(),
            axes: axes.into_iter().map(Into::into).collect(),
            budget: 64,
            seed: 0xA77A,
            max_actions: 8,
            exploration: 0.7,
            max_branching: 24,
            cost_source: CostSource::Sim,
        }
    }

    /// Tactic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the simulation budget.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets where rollout rewards come from. With [`CostSource::Static`]
    /// the tree search never lowers or simulates a candidate — every
    /// reward is the static objective — which multiplies the states a
    /// fixed wall-clock budget can visit. [`CostSource::Sim`] remains
    /// the differential oracle.
    pub fn with_cost_source(mut self, source: CostSource) -> Self {
        self.cost_source = source;
        self
    }

    /// Runs the search and applies the best action sequence to `part`.
    /// Returns the number of actions applied. Uses a private
    /// [`EvalCache`] as the transposition table.
    ///
    /// # Errors
    ///
    /// Fails if lowering/simulation of a candidate fails (indicating a
    /// bug rather than a bad candidate).
    pub fn apply(
        &self,
        func: &Func,
        hw: &HardwareConfig,
        part: &mut Partitioning,
    ) -> Result<usize, SchedError> {
        self.apply_with_cache(func, hw, part, &EvalCache::new())
    }

    /// [`AutomaticPartition::apply`] with a caller-supplied evaluation
    /// cache — `partir_jit` shares one cache across all tactics of a
    /// schedule, and tests pass [`EvalCache::disabled`] to check that
    /// caching does not change search results. The search itself is a
    /// pure function of the seed; the cache only memoises the (pure)
    /// evaluation pipeline, so cached and uncached runs are identical.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`AutomaticPartition::apply`].
    pub fn apply_with_cache(
        &self,
        func: &Func,
        hw: &HardwareConfig,
        part: &mut Partitioning,
        cache: &EvalCache,
    ) -> Result<usize, SchedError> {
        let _span = partir_obs::span!("sched.mcts");
        let mut rng = Rng::seed_from_u64(self.seed);
        let evaluator = Evaluator {
            func,
            hw,
            cache,
            source: self.cost_source,
            objective: match self.cost_source {
                CostSource::Static => Some(partir_analysis::StaticObjective::new(func)),
                CostSource::Sim => None,
            },
        };
        let baseline = evaluator.cost(part)?;

        let mut root = Node::with_state(part.clone());
        for _ in 0..self.budget {
            partir_obs::counter!("sched.mcts.simulations", 1);
            self.one_simulation(&mut root, func, &evaluator, baseline, &mut rng)?;
        }

        // Extract the principal variation by visit count, stopping when
        // the best child does not improve on stopping here.
        let mut applied = 0;
        let mut cursor = &root;
        while let Some(best) = cursor
            .children
            .iter()
            .filter(|n| n.visits > 0)
            .max_by_key(|n| n.visits)
        {
            let here = evaluator.reward(cursor.state.as_ref().expect("visited"), baseline)?;
            let there = best.total / best.visits as f64;
            let Some(action) = &best.action else { break };
            if there <= here {
                break;
            }
            part.tile(func, action.value, action.dim, &action.axis)?;
            part.propagate(func);
            applied += 1;
            cursor = best;
            if applied >= self.max_actions {
                break;
            }
        }
        Ok(applied)
    }

    /// One select→expand→rollout→backpropagate pass. Implemented
    /// recursively so lazily-materialised child states can borrow their
    /// parent's.
    fn one_simulation(
        &self,
        node: &mut Node,
        func: &Func,
        evaluator: &Evaluator,
        baseline: f64,
        rng: &mut Rng,
    ) -> Result<f64, SchedError> {
        let state = node.state.as_ref().expect("caller materialised state");
        if !node.expanded {
            let _span = partir_obs::span!("mcts.expand");
            partir_obs::counter!("sched.mcts.expansions", 1);
            node.expanded = true;
            let mut actions = candidate_actions(func, state, &self.axes);
            actions.truncate(self.max_branching);
            node.children = actions
                .into_iter()
                .map(|a| Node::unexplored(Some(a)))
                .collect();
            // Explicit stop child keeps "do nothing more" competitive.
            node.children.push(Node::unexplored(None));
        }
        let reward = if node.children.is_empty() {
            evaluator.reward(state, baseline)?
        } else {
            // Pick: first unvisited child (in order), else UCT.
            let idx = match node.children.iter().position(|c| c.visits == 0) {
                Some(i) => i,
                None => best_child(&node.children, node.visits, self.exploration),
            };
            // Materialise the child state if needed.
            let child = &mut node.children[idx];
            if child.state.is_none() {
                let _span = partir_obs::span!("mcts.materialise");
                let mut s = state.clone();
                match &child.action {
                    Some(a) => {
                        if s.tile(func, a.value, a.dim, &a.axis).is_ok() {
                            s.propagate(func);
                            // Static legality pre-filter: illegal states
                            // never reach the evaluator (no lowering, no
                            // simulation — just a pruned-count tick).
                            if !partir_analysis::is_legal(func, &s) {
                                evaluator.cache.note_pruned(s.fingerprint());
                                child.terminal = true;
                                child.pruned = true;
                            }
                        } else {
                            child.terminal = true;
                        }
                    }
                    None => child.terminal = true, // stop
                }
                child.state = Some(s);
            }
            if child.terminal {
                let r = if child.pruned {
                    0.0 // worst possible reward: rewards are speedups > 0
                } else {
                    evaluator.reward(child.state.as_ref().expect("set above"), baseline)?
                };
                child.visits += 1;
                child.total += r;
                r
            } else if child.visits == 0 {
                // First visit: score the state itself plus one random
                // rollout; keep the better (the evaluator is exact).
                let _span = partir_obs::span!("mcts.rollout");
                partir_obs::counter!("sched.mcts.rollouts", 1);
                let own = child.state.as_mut().expect("set above");
                let r = evaluator
                    .reward(own, baseline)?
                    .max(self.rollout(own, 3, func, evaluator, baseline, rng)?);
                child.visits += 1;
                child.total += r;
                r
            } else {
                self.one_simulation(child, func, evaluator, baseline, rng)?
            }
        };
        node.visits += 1;
        node.total += reward;
        Ok(reward)
    }

    /// The reward of a random walk of at most `steps` further legal
    /// actions from `state`, scored where it stops. Each step is a
    /// [`Partitioning::probe`] nested in the previous one, so the walk
    /// runs in place and `state` is unchanged on return; an illegal step
    /// is taken back and the walk is scored on its last legal state.
    fn rollout(
        &self,
        state: &mut Partitioning,
        steps: usize,
        func: &Func,
        evaluator: &Evaluator,
        baseline: f64,
        rng: &mut Rng,
    ) -> Result<f64, SchedError> {
        if steps > 0 {
            let actions = candidate_actions(func, state, &self.axes);
            if !actions.is_empty() && !rng.gen_bool(0.4) {
                let a = &actions[rng.gen_range(actions.len().min(self.max_branching))];
                let deeper = state.probe(func, a.value, a.dim, &a.axis, |next| {
                    if partir_analysis::is_legal(func, next) {
                        Some(self.rollout(next, steps - 1, func, evaluator, baseline, rng))
                    } else {
                        evaluator.cache.note_pruned(next.fingerprint());
                        None
                    }
                });
                if let Ok(Some(reward)) = deeper {
                    return reward;
                }
            }
        }
        evaluator.reward(state, baseline)
    }
}

struct Node {
    /// The edge from the parent (`None` = stop here).
    action: Option<TileCandidate>,
    /// Materialised lazily on first visit.
    state: Option<Partitioning>,
    visits: u32,
    total: f64,
    expanded: bool,
    terminal: bool,
    /// Rejected by the static legality pre-filter — never evaluated.
    pruned: bool,
    children: Vec<Node>,
}

impl Node {
    fn with_state(state: Partitioning) -> Self {
        Node {
            action: None,
            state: Some(state),
            visits: 0,
            total: 0.0,
            expanded: false,
            terminal: false,
            pruned: false,
            children: Vec::new(),
        }
    }

    fn unexplored(action: Option<TileCandidate>) -> Self {
        Node {
            action,
            state: None,
            visits: 0,
            total: 0.0,
            expanded: false,
            terminal: false,
            pruned: false,
            children: Vec::new(),
        }
    }
}

fn best_child(children: &[Node], parent_visits: u32, exploration: f64) -> usize {
    let ln_n = (parent_visits.max(1) as f64).ln();
    let mut best = 0;
    let mut best_score = f64::NEG_INFINITY;
    for (i, child) in children.iter().enumerate() {
        // A pruned child is known illegal: its one materialisation visit
        // established that, and re-selecting it would burn a whole
        // simulation on a state that can only ever score zero. UCT's
        // exploration bonus would otherwise keep dragging the search
        // back to it as `ln N` grows.
        if child.pruned {
            continue;
        }
        let score = if child.visits == 0 {
            f64::INFINITY
        } else {
            child.total / child.visits as f64 + exploration * (ln_n / child.visits as f64).sqrt()
        };
        if score > best_score {
            best_score = score;
            best = i;
        }
    }
    best
}

/// Legal tile actions over the function's inputs, largest tensors first
/// (the decisions that matter most come first when branching is capped).
/// Shared by MCTS and `StaticSearch`, so both searches enumerate the
/// same action space.
pub(crate) fn candidate_actions(
    func: &Func,
    part: &Partitioning,
    axes: &[Axis],
) -> Vec<TileCandidate> {
    let mut out: Vec<(usize, TileCandidate)> = Vec::new();
    for axis in axes {
        let Ok(size) = part.mesh().axis_size(axis) else {
            continue;
        };
        for &v in func.params() {
            let ctx = part.value_ctx(v);
            if ctx.contains_axis(axis) {
                continue;
            }
            let local = part.local_type(func, v);
            for d in 0..local.rank() {
                if local.shape.dim(d).is_multiple_of(size) && local.shape.dim(d) >= size {
                    out.push((
                        local.size_bytes(),
                        TileCandidate {
                            value: v,
                            dim: d,
                            axis: axis.clone(),
                        },
                    ));
                }
            }
        }
    }
    out.sort_by(|a, b| {
        b.0.cmp(&a.0).then_with(|| {
            (a.1.value, a.1.dim, a.1.axis.name()).cmp(&(b.1.value, b.1.dim, b.1.axis.name()))
        })
    });
    out.into_iter().map(|(_, a)| a).collect()
}

struct Evaluator<'a> {
    func: &'a Func,
    hw: &'a HardwareConfig,
    cache: &'a EvalCache,
    source: CostSource,
    /// Amortised static objective, built once per search when the reward
    /// comes from [`CostSource::Static`] (the structural pass over the
    /// function is paid once; every node costs only the per-candidate
    /// walk).
    objective: Option<partir_analysis::StaticObjective<'a>>,
}

impl Evaluator<'_> {
    /// Cost = estimated runtime, with a multiplicative penalty once the
    /// partition exceeds device memory (see [`partir_sim::Evaluation`]).
    /// Simulator costs are memoised through the shared evaluation cache;
    /// static costs are cheap enough to recompute (no lowering, no
    /// simulation — the whole point of [`CostSource::Static`]).
    fn cost(&self, part: &Partitioning) -> Result<f64, SchedError> {
        let _span = partir_obs::span!("mcts.evaluate");
        match (&self.source, &self.objective) {
            (CostSource::Sim, _) => {
                Ok(self.cache.evaluate(self.func, part, self.hw)?.cost(self.hw))
            }
            (CostSource::Static, Some(obj)) => Ok(obj.cost(part, self.hw)?.cost(self.hw)),
            (CostSource::Static, None) => {
                Ok(partir_analysis::static_cost(self.func, part, self.hw)?.cost(self.hw))
            }
        }
    }

    /// Reward = speedup over the tactic's starting point.
    fn reward(&self, part: &Partitioning, baseline: f64) -> Result<f64, SchedError> {
        Ok(baseline / self.cost(part)?)
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
    fn auto_search_finds_batch_parallelism() {
        let f = chain();
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let mut p = Partitioning::new(&f, mesh).unwrap();
        let tactic = AutomaticPartition::new("auto", ["B"]).with_budget(48);
        let applied = tactic.apply(&f, &hw, &mut p).unwrap();
        assert!(applied >= 1);
        // The searched partition must beat the replicated baseline.
        let searched = partir_sim::evaluate(&f, &p, &hw).unwrap();
        let replicated =
            partir_sim::evaluate(&f, &Partitioning::new(&f, hw.mesh.clone()).unwrap(), &hw)
                .unwrap();
        assert!(searched.sim.runtime_s < replicated.sim.runtime_s);
    }

    #[test]
    fn auto_search_is_deterministic_per_seed() {
        let f = chain();
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let run = |seed| {
            let mut p = Partitioning::new(&f, mesh.clone()).unwrap();
            AutomaticPartition::new("auto", ["B"])
                .with_budget(24)
                .with_seed(seed)
                .apply(&f, &hw, &mut p)
                .unwrap();
            format!("{p:?}")
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn cache_is_transparent_to_the_search() {
        // Identical seed, cache on vs off: the chosen schedule, final
        // state and cost must match exactly — the cache may only change
        // how often the simulator runs, never what the search sees.
        let f = chain();
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let run = |cache: &EvalCache| {
            let mut p = Partitioning::new(&f, mesh.clone()).unwrap();
            let applied = AutomaticPartition::new("auto", ["B"])
                .with_budget(32)
                .with_seed(11)
                .apply_with_cache(&f, &hw, &mut p, cache)
                .unwrap();
            (applied, format!("{p:?}"), p.fingerprint())
        };
        let cached = EvalCache::new();
        let uncached = EvalCache::disabled();
        assert_eq!(run(&cached), run(&uncached));
        // The transposition table actually deduplicated work.
        let (c, u) = (cached.stats(), uncached.stats());
        assert!(c.hits > 0, "no transpositions hit: {c:?}");
        assert_eq!(u.hits, 0);
        assert!(c.misses < u.misses);
        assert!(c.hit_rate() > 0.0);
    }

    #[test]
    fn zero_budget_applies_nothing() {
        let f = chain();
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let mut p = Partitioning::new(&f, mesh).unwrap();
        let applied = AutomaticPartition::new("auto", ["B"])
            .with_budget(0)
            .apply(&f, &hw, &mut p)
            .unwrap();
        assert_eq!(applied, 0);
    }

    #[test]
    fn static_reward_search_finds_batch_parallelism() {
        // Same search as `auto_search_finds_batch_parallelism`, but every
        // rollout reward comes from the static objective: not a single
        // candidate is lowered or simulated, and the search still finds a
        // partition that beats the replicated baseline under the (sim)
        // oracle.
        let f = chain();
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let mut p = Partitioning::new(&f, mesh).unwrap();
        let cache = EvalCache::new();
        let tactic = AutomaticPartition::new("auto", ["B"])
            .with_budget(48)
            .with_cost_source(CostSource::Static);
        let applied = tactic.apply_with_cache(&f, &hw, &mut p, &cache).unwrap();
        assert!(applied >= 1);
        assert_eq!(
            cache.stats().misses,
            0,
            "static rewards must never reach the simulator"
        );
        let searched = partir_sim::evaluate(&f, &p, &hw).unwrap();
        let replicated =
            partir_sim::evaluate(&f, &Partitioning::new(&f, hw.mesh.clone()).unwrap(), &hw)
                .unwrap();
        assert!(searched.sim.runtime_s < replicated.sim.runtime_s);
    }

    #[test]
    fn static_and_sim_rewards_agree_on_the_chain() {
        // Differential oracle: on the matmul chain the two reward sources
        // must pick the same principal variation.
        let f = chain();
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let run = |source| {
            let mut p = Partitioning::new(&f, mesh.clone()).unwrap();
            AutomaticPartition::new("auto", ["B"])
                .with_budget(32)
                .with_seed(5)
                .with_cost_source(source)
                .apply(&f, &hw, &mut p)
                .unwrap();
            p.fingerprint()
        };
        assert_eq!(run(CostSource::Sim), run(CostSource::Static));
    }

    #[test]
    fn best_child_never_reselects_pruned_children() {
        // A pruned child's single materialisation visit is the only
        // budget it may consume; UCT must route around it afterwards,
        // however large the exploration bonus grows.
        let mut children = vec![Node::unexplored(None), Node::unexplored(None)];
        children[0].visits = 1;
        children[0].total = 0.0;
        children[0].pruned = true;
        children[0].terminal = true;
        children[1].visits = 50;
        children[1].total = 40.0;
        for parent_visits in [2u32, 100, 10_000] {
            assert_eq!(best_child(&children, parent_visits, 10.0), 1);
        }
        // Degenerate case: all children pruned still yields a valid index.
        children[1].pruned = true;
        assert_eq!(best_child(&children, 100, 0.7), 0);
    }

    #[test]
    fn candidates_are_largest_first_and_capped() {
        let f = chain();
        let mesh = Mesh::single("B", 4).unwrap();
        let p = Partitioning::new(&f, mesh).unwrap();
        let actions = candidate_actions(&f, &p, &["B".into()]);
        // x (4096x512) actions come before the smaller weights.
        assert_eq!(actions[0].value, f.params()[0]);
        assert!(actions.len() >= 6);
    }
}
