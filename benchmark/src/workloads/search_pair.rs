//! `search_pair`: both search drivers on one small training step. One op
//! is `partir_jit` with the MCTS tactic, then with the static beam
//! search, on a 4×2 mesh.

use std::time::{Duration, Instant};

use crate::api::{
    evaluate, is_legal, partir_jit, schedules, tpu_mesh, transformer, AutomaticPartition, Func,
    HardwareConfig, Partitioning, Schedule, StaticObjective, TransformerConfig, BATCH, MODEL,
};
use crate::metrics::Values;
use crate::stats::{median, shuffle};
use crate::trace::Tracer;
use crate::workloads::{
    absorb, final_cost, stage_medians, staged_jit, text, trace_quality, Round, Workload,
};

/// Simulator evaluations MCTS may spend per search.
const AUTO_BUDGET: usize = 16;

/// MCTS seeds the ops cycle through. How long a search takes depends on
/// its seed (by ±25 % here), so a run whose every op used the workload
/// seed would time a different program for every seed. Cycling a fixed
/// panel gives every run the same work; the workload seed only permutes
/// the order in which the panel is met.
const PANEL: [u64; 8] = [11, 23, 37, 41, 53, 67, 79, 83];

/// Static search must end within this factor of MCTS's simulated cost.
const STATIC_SLACK: f64 = 1.05;

pub struct SearchPair {
    func: Func,
    hw: HardwareConfig,
    /// One MCTS schedule per panel seed, in this run's order.
    auto: Vec<Schedule>,
    stat: Schedule,
    /// Simulated cost of the unpartitioned program: both searches must
    /// beat it.
    baseline: f64,
    /// End costs first seen, per panel slot and for the static search;
    /// later rounds must reproduce them exactly.
    auto_cost: Vec<Option<f64>>,
    static_cost: Option<f64>,
}

/// What one pair measured.
struct Pair {
    auto: Duration,
    stat: Duration,
    costs: Result<(f64, f64), String>,
    hits: u64,
    misses: u64,
    pruned: u64,
}

fn config() -> TransformerConfig {
    // The `bench_search` T-train widths at one layer: search cost follows
    // the size of the graph, not of the tensors, and one layer keeps a
    // pair under a fifth of a second.
    TransformerConfig {
        layers: 1,
        d_model: 32,
        heads: 2,
        d_ff: 128,
        vocab: 64,
        seq: 32,
        batch: 256,
    }
}

impl Workload for SearchPair {
    const NAME: &'static str = "search_pair";
    const WHY: &'static str = "MCTS then static beam search on one training step: the only \
        workload where sched's drivers, EvalCache, the static objective and equivalence \
        classes do the work; no plan is compiled and no kernel runs";

    fn setup(seed: u64) -> Result<Self, String> {
        let func = transformer::build_train_step(&config()).map_err(text)?.func;
        let hw = tpu_mesh(4, 2);
        let replicated = Partitioning::new(&func, hw.mesh.clone()).map_err(text)?;
        let baseline = evaluate(&func, &replicated, &hw).map_err(text)?.cost(&hw);
        let mut panel = PANEL;
        shuffle(seed, &mut panel);
        let auto = panel
            .iter()
            .map(|&s| {
                Schedule::new([AutomaticPartition::new("Auto", [BATCH, MODEL])
                    .with_budget(AUTO_BUDGET)
                    .with_seed(s)
                    .into()])
            })
            .collect();
        Ok(SearchPair {
            func,
            hw,
            auto,
            stat: Schedule::new([schedules::t_static()]),
            baseline,
            auto_cost: vec![None; PANEL.len()],
            static_cost: None,
        })
    }

    fn round(&mut self, i: usize) -> Round {
        let pair = self.pair(i);
        let check = pair.costs.and_then(|costs| self.check(i, costs));
        Round::single(pair.auto + pair.stat, check)
    }

    fn traced(&mut self, seconds: f64, tr: &mut Tracer) -> Result<(Values, Round), String> {
        let mut values = Values::new();
        let mut total = Round::default();
        let (mut auto_ms, mut stat_ms, mut pair_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut ratio = Vec::new();
        let (mut hits, mut misses, mut pruned) = (Vec::new(), Vec::new(), Vec::new());
        let mut last = None;
        let began = Instant::now();
        let mut i = 0;
        while i < 2 || began.elapsed().as_secs_f64() < seconds {
            let slot = i % self.auto.len();
            let staged = tr.op(|tr| {
                let a = staged_jit(tr, &self.func, &self.hw, &self.auto[slot])?;
                let s = staged_jit(tr, &self.func, &self.hw, &self.stat)?;
                Ok::<_, String>((a, s))
            });
            total.attempted += 1;
            match staged {
                // The staged searches are the same pure functions of the
                // same seeds, so they face the same cost checks.
                Ok(((_, _, a), (program, part, s))) => {
                    total.failed += usize::from(self.check(i, (a.cost, s.cost)).is_err());
                    last = Some((program, part, s));
                }
                Err(why) => {
                    eprintln!("staged op failed: {why}");
                    total.failed += 1;
                }
            }
            let pair = self.pair(i);
            auto_ms.push(pair.auto.as_secs_f64() * 1e3);
            stat_ms.push(pair.stat.as_secs_f64() * 1e3);
            pair_ms.push((pair.auto + pair.stat).as_secs_f64() * 1e3);
            hits.push(pair.hits as f64);
            misses.push(pair.misses as f64);
            pruned.push(pair.pruned as f64);
            if let Ok((a, s)) = &pair.costs {
                ratio.push(s / a);
            }
            let check = pair.costs.and_then(|costs| self.check(i, costs));
            absorb(&mut total, Round::single(pair.auto + pair.stat, check));
            i += 1;
        }
        stage_medians(
            tr,
            &mut values,
            &[
                ("core.new_ms", "core.new"),
                ("core.propagate_ms", "core.propagate"),
                ("sim.evaluate_ms", "sim.evaluate"),
                ("spmd.lower_ms", "spmd.lower"),
                ("spmd.fuse_ms", "spmd.fuse"),
            ],
        );
        let mono = median(&pair_ms);
        values.insert("sched.jit_ms", mono);
        values.insert("sched.auto_ms_p50", median(&auto_ms));
        values.insert("sched.static_ms_p50", median(&stat_ms));
        values.insert("sched.cache_hits", median(&hits));
        values.insert("sched.cache_misses", median(&misses));
        values.insert("sched.pruned", median(&pruned));
        values.insert("sim.evals", median(&misses));
        if !ratio.is_empty() {
            values.insert("sched.static_over_auto_cost", median(&ratio));
        }
        if let Some((program, part, s)) = last {
            values.insert("spmd.collectives", program.stats().total() as f64);
            values.insert("sched.candidates", s.candidates as f64);
            values.insert("sched.class_duplicates", s.class_duplicates as f64);
            values.insert("sched.static_evals", s.static_evals as f64);
            values.insert("sched.sim_evals", s.static_sim_evals as f64);
            values.insert("core.rewrites", s.rewrites as f64);
            values.insert("core.conflicts", s.conflicts as f64);
            values.insert("sim.step_est_ms", s.step_est_ms);
            self.probe_analysis(tr, &mut values, &part);
        }
        values.insert("models.ops", self.func.num_ops() as f64);
        tr.time("models.build", || {
            std::hint::black_box(transformer::build_train_step(&config()).is_ok())
        });
        values.insert("models.build_ms", tr.ms_p50("models.build"));
        trace_quality(tr, &mut values, mono);
        Ok((values, total))
    }
}

impl SearchPair {
    /// One op: the two jits, each timed, and their end costs.
    fn pair(&self, i: usize) -> Pair {
        let t = Instant::now();
        let auto = partir_jit(&self.func, &self.hw, &self.auto[i % self.auto.len()]);
        let auto_took = t.elapsed();
        let t = Instant::now();
        let stat = partir_jit(&self.func, &self.hw, &self.stat);
        let stat_took = t.elapsed();
        let (mut hits, mut misses, mut pruned) = (0, 0, 0);
        for j in [&auto, &stat].into_iter().flatten() {
            hits += j.cache.hits;
            misses += j.cache.misses;
            pruned += j.cache.pruned;
        }
        let costs = match (auto, stat) {
            (Ok(a), Ok(s)) => Ok((final_cost(&a, &self.hw), final_cost(&s, &self.hw))),
            (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
        };
        Pair {
            auto: auto_took,
            stat: stat_took,
            costs,
            hits,
            misses,
            pruned,
        }
    }

    fn check(&mut self, i: usize, (auto, stat): (f64, f64)) -> Result<(), String> {
        if !(auto < self.baseline && stat < self.baseline) {
            return Err(format!(
                "end costs {auto:e} (Auto) and {stat:e} (Static) must both beat the \
                 replicated {:e}",
                self.baseline
            ));
        }
        if stat > STATIC_SLACK * auto {
            return Err(format!(
                "Static ended at {stat:e}, more than {STATIC_SLACK} x Auto's {auto:e}"
            ));
        }
        let slot = i % self.auto_cost.len();
        let first_auto = *self.auto_cost[slot].get_or_insert(auto);
        let first_stat = *self.static_cost.get_or_insert(stat);
        if first_auto != auto || first_stat != stat {
            return Err(format!(
                "round {i} ended at ({auto:e}, {stat:e}), an earlier round with the same \
                 seeds at ({first_auto:e}, {first_stat:e})"
            ));
        }
        Ok(())
    }

    /// Times the static objective's three entry points on the state the
    /// static search ended in: the structural pass, one candidate cost,
    /// one legality check.
    fn probe_analysis(&self, tr: &mut Tracer, values: &mut Values, part: &Partitioning) {
        const REPS: usize = 50;
        let objective = tr.time("analysis.objective_new", || {
            StaticObjective::new(&self.func)
        });
        values.insert(
            "analysis.objective_new_ms",
            tr.ms_p50("analysis.objective_new"),
        );
        tr.time("analysis.cost", || {
            for _ in 0..REPS {
                std::hint::black_box(objective.cost(part, &self.hw).ok());
            }
        });
        tr.time("analysis.is_legal", || {
            for _ in 0..REPS {
                std::hint::black_box(is_legal(&self.func, part));
            }
        });
        for (metric, span) in [
            ("analysis.cost_us", "analysis.cost"),
            ("analysis.is_legal_us", "analysis.is_legal"),
        ] {
            values.insert(metric, tr.ms_p50(span) * 1e3 / REPS as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_orders_the_panel_and_nothing_else() {
        let order = |seed| {
            let mut panel = PANEL;
            shuffle(seed, &mut panel);
            panel
        };
        assert_eq!(order(9), order(9));
        assert_ne!(order(9), order(10));
        let mut sorted = order(9);
        sorted.sort_unstable();
        assert_eq!(sorted, PANEL);
    }
}
