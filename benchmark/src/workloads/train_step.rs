//! `train_step`: few large steps on the threaded runtime. One op is one
//! `execute_global_planned` of a transformer training step under
//! BP+MP+Z3 on a 2×2 mesh, with the default (overlapped) plan.

use std::time::Instant;

use crate::api::{
    dot_general, interpret, partir_jit, schedules, synthetic_inputs, tpu_mesh, transformer,
    BuiltModel, CompiledPlan, DotDims, HardwareConfig, IrError, Literal, PlanOptions,
    RuntimeConfig, RuntimeStats, Schedule, SpmdProgram, ThreadedRuntime, TransformerConfig,
};
use crate::metrics::Values;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    absorb, stage_medians, staged_setup, table_row, text, trace_quality, Round, Workload,
};

/// Largest difference allowed between an output of the partitioned step
/// and the reference interpreter's, elementwise.
const TOLERANCE: f32 = 1e-3;

/// Every how many traced ops the reference executions are sampled.
const PROBE_EVERY: usize = 8;

pub struct TrainStep {
    model: BuiltModel,
    hw: HardwareConfig,
    schedule: Schedule,
    program: SpmdProgram,
    plan: CompiledPlan,
    inputs: Vec<Literal>,
    /// Outputs of the first op; every later op must equal them bit for
    /// bit, and `audit` holds them against the reference interpreter.
    first: Option<Vec<Literal>>,
}

fn config() -> TransformerConfig {
    // The `bench_runtime` T-train step at batch 32: large enough that
    // the dot kernels dominate, small enough for two hundred steps a run.
    TransformerConfig {
        layers: 2,
        d_model: 32,
        heads: 2,
        d_ff: 128,
        vocab: 64,
        seq: 32,
        batch: 32,
    }
}

fn build() -> Result<BuiltModel, String> {
    transformer::build_train_step(&config()).map_err(text)
}

fn schedule() -> Result<Schedule, String> {
    table_row(schedules::transformer_table2(), "BP+MP+Z3")
}

impl Workload for TrainStep {
    const NAME: &'static str = "train_step";
    const WHY: &'static str = "few large steps of a compiled plan: time is in ir::kernels \
        (dot), plan step execution and open collective windows; the compile layers show \
        only in setup_s";

    fn setup(seed: u64) -> Result<Self, String> {
        let model = build()?;
        // The smallest mesh on which both axes are non-trivial.
        let hw = tpu_mesh(2, 2);
        let schedule = schedule()?;
        let program = partir_jit(&model.func, &hw, &schedule)
            .map_err(text)?
            .program;
        let plan = program
            .compile_with(&PlanOptions::default())
            .map_err(text)?;
        // The seed draws the step's inputs: weights, moments and tokens.
        let inputs = synthetic_inputs(&model, seed);
        Ok(TrainStep {
            model,
            hw,
            schedule,
            program,
            plan,
            inputs,
            first: None,
        })
    }

    /// Every op's outputs equal the first op's bit for bit, so one
    /// comparison of those with `ir::interp::interpret` on the
    /// unpartitioned step speaks for all. The interpreter holds every
    /// intermediate of the whole step at once — ten times the memory of
    /// the partitioned run — which is why it runs last.
    fn audit(&mut self) -> Result<(), String> {
        let first = self.first.as_ref().ok_or("no op produced outputs")?;
        let oracle = interpret(&self.model.func, &self.inputs).map_err(text)?;
        if first.len() != oracle.len() {
            return Err(format!(
                "{} outputs, the reference has {}",
                first.len(),
                oracle.len()
            ));
        }
        for (k, (got, want)) in first.iter().zip(&oracle).enumerate() {
            let diff = got.max_abs_diff(want).map_err(text)?;
            // A NaN difference must fail too.
            if diff.is_nan() || diff > TOLERANCE {
                return Err(format!("output {k} is {diff} away from the reference"));
            }
        }
        Ok(())
    }

    fn round(&mut self, _i: usize) -> Round {
        let start = Instant::now();
        let out = self.program.execute_global_planned(
            &self.plan,
            &self.inputs,
            &RuntimeConfig::default(),
        );
        let took = start.elapsed();
        let check = out.map_err(text).and_then(|(outputs, stats)| {
            let predicted = self.program.predicted_traffic().map_err(text)?;
            if !stats.matches_prediction(&predicted) {
                return Err("executed traffic differs from the prediction".to_string());
            }
            self.check_outputs(outputs)
        });
        Round::single(took, check)
    }

    fn traced(&mut self, seconds: f64, tr: &mut Tracer) -> Result<(Values, Round), String> {
        let mut values = Values::new();
        let mut total = Round::default();
        // The compile layers, once: they are this workload's set-up.
        tr.time("models.build", || std::hint::black_box(build().ok()));
        values.insert("models.build_ms", tr.ms_p50("models.build"));
        values.insert("models.ops", self.model.func.num_ops() as f64);
        staged_setup(
            tr,
            &mut values,
            &self.model.func,
            &self.hw,
            &self.schedule,
            &PlanOptions::default(),
        )?;
        let blocking = self
            .program
            .compile_with(&PlanOptions::blocking())
            .map_err(text)?;

        let runtime = ThreadedRuntime::new(RuntimeConfig::default());
        let mut mono_ms = Vec::new();
        let (mut bytes, mut messages, mut waits, mut matched) = (0.0, 0.0, Vec::new(), 0usize);
        let began = Instant::now();
        let mut i = 0;
        while i < 2 || began.elapsed().as_secs_f64() < seconds {
            // Staged step: shard, run the plan, unshard, as the
            // monolithic call does inside.
            let staged = tr.op(|tr| self.staged_step(tr, &runtime));
            total.attempted += 1;
            match staged.and_then(|(outputs, stats)| {
                bytes = stats.total_bytes() as f64;
                messages = stats.total_messages() as f64;
                waits.push(stats.rendezvous_waits as f64);
                let predicted = self.program.predicted_traffic().map_err(text)?;
                matched += usize::from(stats.matches_prediction(&predicted));
                self.check_outputs(outputs)
            }) {
                Ok(()) => {}
                Err(why) => {
                    eprintln!("staged op failed: {why}");
                    total.failed += 1;
                }
            }
            let r = self.round(i);
            mono_ms.extend(&r.op_ms);
            absorb(&mut total, r);
            if i % PROBE_EVERY == 0 {
                self.probe_references(tr, &blocking);
            }
            i += 1;
        }
        stage_medians(
            tr,
            &mut values,
            &[
                ("runtime.shard_ms", "runtime.shard"),
                ("runtime.run_plan_ms", "runtime.run_plan"),
                ("runtime.unshard_ms", "runtime.unshard"),
                ("runtime.blocking_plan_ms", "runtime.blocking_plan"),
                ("runtime.lockstep_ms", "runtime.lockstep"),
                ("ir.interp_ms", "ir.interp"),
                ("ir.dot_ms", "ir.dot"),
            ],
        );
        values.insert("runtime.bytes", bytes);
        values.insert("runtime.messages", messages);
        values.insert("runtime.rendezvous_waits", median(&waits));
        values.insert("runtime.matches_prediction", matched as f64 / i as f64);
        trace_quality(tr, &mut values, median(&mono_ms));
        Ok((values, total))
    }
}

impl TrainStep {
    fn check_outputs(&mut self, outputs: Vec<Literal>) -> Result<(), String> {
        match &self.first {
            None => self.first = Some(outputs),
            Some(first) if *first != outputs => {
                return Err("outputs differ from the first op's bit for bit".to_string())
            }
            Some(_) => {}
        }
        Ok(())
    }

    /// `execute_global_planned` taken apart into its three stages.
    fn staged_step(
        &self,
        tr: &mut Tracer,
        runtime: &ThreadedRuntime,
    ) -> Result<(Vec<Literal>, RuntimeStats), String> {
        let devices = self.program.mesh().num_devices();
        let per_device = tr.time("runtime.shard", || {
            let mut per_device = vec![Vec::with_capacity(self.inputs.len()); devices];
            for (k, lit) in self.inputs.iter().enumerate() {
                for (d, shard) in self.program.shard_input(k, lit)?.into_iter().enumerate() {
                    per_device[d].push(shard);
                }
            }
            Ok::<_, IrError>(per_device)
        });
        let per_device = per_device.map_err(text)?;
        let outcome = tr
            .time("runtime.run_plan", || {
                runtime.run_plan(&self.plan, &per_device)
            })
            .map_err(text)?;
        let outputs = tr.time("runtime.unshard", || {
            (0..self.program.output_ctxs().len())
                .map(|k| {
                    let shards: Vec<Literal> =
                        outcome.outputs.iter().map(|o| o[k].clone()).collect();
                    self.program.unshard_output(k, &shards)
                })
                .collect::<Result<Vec<_>, _>>()
        });
        Ok((outputs.map_err(text)?, outcome.stats))
    }

    /// Other ways to run the same step, as probes: the blocking plan, the
    /// lockstep interpreter, the reference interpreter, and the step's
    /// largest matmul on its own.
    fn probe_references(&self, tr: &mut Tracer, blocking: &CompiledPlan) {
        let rt = RuntimeConfig::default();
        tr.time("runtime.blocking_plan", || {
            std::hint::black_box(
                self.program
                    .execute_global_planned(blocking, &self.inputs, &rt)
                    .ok(),
            )
        });
        tr.time("runtime.lockstep", || {
            std::hint::black_box(self.program.execute_global(&self.inputs).ok())
        });
        tr.time("ir.interp", || {
            std::hint::black_box(interpret(&self.model.func, &self.inputs).ok())
        });
        // tokens × d_model by d_model × d_ff, the MLP up-projection.
        let cfg = config();
        let fill = |rows: usize, cols: usize| {
            let data = (0..rows * cols)
                .map(|i| (i % 97) as f32 * 0.01 - 0.5)
                .collect();
            Literal::from_f32(data, [rows, cols]).expect("sized data")
        };
        let (lhs, rhs) = (
            fill(cfg.batch * cfg.seq, cfg.d_model),
            fill(cfg.d_model, cfg.d_ff),
        );
        tr.time("ir.dot", || {
            std::hint::black_box(dot_general(&DotDims::matmul(), &lhs, &rhs).ok())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_draws_the_inputs() {
        let model = build().expect("model");
        assert_eq!(synthetic_inputs(&model, 4), synthetic_inputs(&model, 4));
        assert_ne!(synthetic_inputs(&model, 4), synthetic_inputs(&model, 5));
    }
}
