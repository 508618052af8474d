//! The metric vocabulary: every name the benchmark prints, with its
//! unit and direction. `BENCHMARK.json` lists the same names; a unit
//! test keeps the two in step.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    /// Per-layer metrics have none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What a user of the system sees, reported for every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.1),
    e2e("op_ms_p50", "ms", Lower, 0.1),
    e2e("op_ms_p90", "ms", Lower, 0.1),
    e2e("ops_per_s", "1/s", Higher, 0.1),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
];

/// One row per measurement of a single layer. A traced run prints all of
/// them; a layer the workload never enters reads 0.
pub const PER_LAYER: &[Metric] = &[
    layer("models.build_ms", "ms", Lower),
    layer("models.ops", "count", Lower),
    layer("core.new_ms", "ms", Lower),
    layer("core.tactic_ms", "ms", Lower),
    layer("core.propagate_ms", "ms", Lower),
    layer("core.rewrites", "count", Lower),
    layer("core.conflicts", "count", Lower),
    layer("spmd.lower_ms", "ms", Lower),
    layer("spmd.fuse_ms", "ms", Lower),
    layer("spmd.collectives", "count", Lower),
    layer("spmd.predicted_bytes", "B", Lower),
    layer("sim.evaluate_ms", "ms", Lower),
    layer("sim.evals", "count", Lower),
    layer("sim.step_est_ms", "ms", Lower),
    layer("plan.compile_ms", "ms", Lower),
    layer("plan.arena_bytes", "B", Lower),
    layer("plan.fused_ops", "count", Higher),
    layer("plan.overlap_windows", "count", Higher),
    layer("plan.verify_ms", "ms", Lower),
    layer("sched.jit_ms", "ms", Lower),
    layer("sched.auto_ms_p50", "ms", Lower),
    layer("sched.static_ms_p50", "ms", Lower),
    layer("sched.cache_hits", "count", Higher),
    layer("sched.cache_misses", "count", Lower),
    layer("sched.pruned", "count", Higher),
    layer("sched.candidates", "count", Lower),
    layer("sched.class_duplicates", "count", Higher),
    layer("sched.static_evals", "count", Lower),
    layer("sched.sim_evals", "count", Lower),
    layer("sched.static_over_auto_cost", "ratio", Lower),
    layer("analysis.objective_new_ms", "ms", Lower),
    layer("analysis.cost_us", "us", Lower),
    layer("analysis.is_legal_us", "us", Lower),
    layer("runtime.shard_ms", "ms", Lower),
    layer("runtime.run_plan_ms", "ms", Lower),
    layer("runtime.unshard_ms", "ms", Lower),
    layer("runtime.blocking_plan_ms", "ms", Lower),
    layer("runtime.lockstep_ms", "ms", Lower),
    layer("runtime.bytes", "B", Lower),
    layer("runtime.messages", "count", Lower),
    layer("runtime.rendezvous_waits", "count", Lower),
    layer("runtime.matches_prediction", "ratio", Higher),
    layer("ir.interp_ms", "ms", Lower),
    layer("ir.dot_ms", "ms", Lower),
    layer("serve.engine_new_ms", "ms", Lower),
    layer("serve.steps", "count", Lower),
    layer("serve.step_ms_p50", "ms", Lower),
    layer("serve.bare_step_ms_p50", "ms", Lower),
    layer("serve.host_share", "ratio", Lower),
    layer("serve.queue_wait_ms_p50", "ms", Lower),
    layer("serve.queue_depth_max", "count", Lower),
    layer("serve.slot_util", "ratio", Higher),
    layer("serve.tokens_per_s", "1/s", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.step_ms_p50.1x2", "ms", Lower),
    layer("serve.step_ms_p50.4x2", "ms", Lower),
    layer("serve.burst_ops_per_s.1x2", "1/s", Higher),
    layer("serve.burst_ops_per_s.4x2", "1/s", Higher),
    layer("harness.cold_setup_ms", "ms", Lower),
    layer("harness.cpu_share", "ratio", Higher),
    layer("harness.runq_wait_share", "ratio", Lower),
    layer("harness.ref_kernel_ms", "ms", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_share", "ratio", Lower),
];

/// Values measured in one run, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The outcome of one run, as the driver reads it.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub values: Values,
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, and under `metrics` exactly
    /// the names of `table`, in table order. Values print with every
    /// digit they have.
    pub fn to_json(&self, table: &[Metric]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|m| {
                let v = self.values.get(m.name).copied().unwrap_or(0.0);
                assert!(v.is_finite(), "{} is not a finite number", m.name);
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The same values as an aligned table, for people.
    pub fn to_table(&self, table: &[Metric]) -> String {
        table
            .iter()
            .map(|m| {
                let v = self.values.get(m.name).copied().unwrap_or(0.0);
                format!("{:<28} {:>16.4} {}\n", m.name, v, m.unit)
            })
            .collect()
    }
}

/// Reads `"<name>": {"value": <number>` back out of a result line. The
/// self-check uses it on the output of its own child runs.
pub fn value_in(json: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &json[json.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut values = Values::new();
        values.insert("setup_s", 0.0123);
        values.insert("op_ms_p50", 101.5);
        values.insert("op_ms_p90", 120.25);
        values.insert("ops_per_s", 9.75);
        values.insert("peak_rss_mb", 64.0);
        Outcome {
            correct: true,
            attempted: 120,
            failed: 0,
            values,
        }
    }

    #[test]
    fn result_line_is_well_formed_and_reads_back() {
        let json = outcome().to_json(END_TO_END);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 120, \"failed\": 0, "));
        assert!(!json.contains('\n'));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
        assert_eq!(json.matches('"').count() % 2, 0);
        assert_eq!(value_in(&json, "op_ms_p50"), Some(101.5));
        assert_eq!(value_in(&json, "peak_rss_mb"), Some(64.0));
        assert_eq!(value_in(&json, "setup_s"), Some(0.0123));
        assert_eq!(value_in(&json, "absent"), None);
        // Exactly the table's names, once each.
        for m in END_TO_END {
            assert_eq!(json.matches(&format!("\"{}\":", m.name)).count(), 1);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` is written by hand; this keeps it listing exactly
    /// the metrics above, with their units, directions and bounds.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let word = |b: Better| match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for m in END_TO_END {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                word(m.better),
                m.bound
            );
            assert!(text.contains(&row), "missing or different: {row}");
        }
        for m in PER_LAYER {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                word(m.better)
            );
            assert!(text.contains(&row), "missing or different: {row}");
        }
        let rows = text.matches("\"better\":").count();
        assert_eq!(rows, END_TO_END.len() + PER_LAYER.len());
    }
}
