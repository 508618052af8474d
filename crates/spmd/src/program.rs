use partir_core::ValueCtx;
use partir_ir::{Func, IrError, Literal};
use partir_mesh::Mesh;

use crate::collectives::{predict_traffic, TrafficPrediction};
use crate::interp::{shard_value, unshard_value};
use crate::plan::{CompiledPlan, PlanError, PlanOptions};
use crate::runtime::{RuntimeConfig, RuntimeError, RuntimeStats, ThreadedRuntime};
use crate::stats::{collect_stats, CollectiveStats};

/// A lowered device-local SPMD program plus the sharding of its interface.
///
/// Produced by [`crate::lower`]; run it with
/// [`SpmdProgram::execute_global`] (which shards inputs, runs every
/// device, and reassembles outputs) or inspect its communication with
/// [`SpmdProgram::stats`].
#[derive(Debug, Clone)]
pub struct SpmdProgram {
    func: Func,
    mesh: Mesh,
    input_ctxs: Vec<ValueCtx>,
    output_ctxs: Vec<ValueCtx>,
}

impl SpmdProgram {
    pub(crate) fn new(
        func: Func,
        mesh: Mesh,
        input_ctxs: Vec<ValueCtx>,
        output_ctxs: Vec<ValueCtx>,
    ) -> Self {
        SpmdProgram {
            func,
            mesh,
            input_ctxs,
            output_ctxs,
        }
    }

    /// The device-local function.
    pub fn func(&self) -> &Func {
        &self.func
    }

    /// The mesh the program runs on.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Sharding of each function input.
    pub fn input_ctxs(&self) -> &[ValueCtx] {
        &self.input_ctxs
    }

    /// Sharding of each function output.
    pub fn output_ctxs(&self) -> &[ValueCtx] {
        &self.output_ctxs
    }

    /// Collective statistics (Table 2 of the paper).
    pub fn stats(&self) -> CollectiveStats {
        collect_stats(&self.func)
    }

    /// The program itself: [`crate::lower`] already fuses collective
    /// pairs (`all_slice∘all_gather → all_to_all`,
    /// `all_slice∘all_reduce → reduce_scatter`) and leaves dead code out,
    /// so this is the identity, kept for callers that still ask.
    ///
    /// # Errors
    ///
    /// Never fails.
    pub fn fused(&self) -> Result<SpmdProgram, IrError> {
        Ok(self.clone())
    }

    /// Shards `inputs` per the input contexts, compiles the program and
    /// runs it one device at a time under the turn-taking scheduler with
    /// seed 0 ([`ThreadedRuntime::run_scheduled`]), then reassembles
    /// global outputs. The outputs are bit-identical to every other run
    /// of the program, scheduled or free-running.
    ///
    /// # Errors
    ///
    /// Fails if inputs mismatch the original (global) parameter types,
    /// if the program does not compile, or on a runtime failure (a
    /// deadlock included — see [`RuntimeError`]).
    pub fn execute_global(&self, inputs: &[Literal]) -> Result<Vec<Literal>, RuntimeError> {
        let plan = self.compile()?;
        let outcome =
            ThreadedRuntime::default().run_scheduled(&plan, &self.shard_inputs(inputs)?, 0)?;
        Ok(self.unshard_outputs(&outcome.outputs)?)
    }

    /// Compiles the device-local program into a [`CompiledPlan`]: op
    /// dispatch, elementwise fusion, arena layout, and every device's
    /// collective schedule are resolved once, so repeated
    /// [`SpmdProgram::execute_global_planned`] steps pay none of it.
    ///
    /// # Errors
    ///
    /// Fails on malformed programs and on ops the plan has no kernel
    /// for — see [`PlanError`].
    pub fn compile(&self) -> Result<CompiledPlan, PlanError> {
        self.compile_with(&PlanOptions::default())
    }

    /// Like [`SpmdProgram::compile`] with explicit [`PlanOptions`] —
    /// chiefly [`PlanOptions::blocking`] to keep every collective at its
    /// original program point instead of overlapping starts with compute
    /// (conformance oracles, debugging schedule-sensitive failures).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`SpmdProgram::compile`].
    pub fn compile_with(&self, options: &PlanOptions) -> Result<CompiledPlan, PlanError> {
        CompiledPlan::compile(&self.func, &self.mesh, options)
    }

    /// Like [`SpmdProgram::execute_global`], but runs the devices
    /// concurrently on the threaded message-passing runtime and also
    /// returns the executed-traffic statistics.
    ///
    /// Compiles a fresh [`CompiledPlan`] per call; callers running many
    /// steps should [`SpmdProgram::compile`] once and use
    /// [`SpmdProgram::execute_global_planned`].
    ///
    /// Fault-free, the outputs are bit-identical to
    /// [`SpmdProgram::execute_global`]'s scheduled run.
    ///
    /// # Errors
    ///
    /// Fails on mismatched inputs or any runtime failure (timeout,
    /// corruption, dropped device — see [`RuntimeError`]).
    pub fn execute_global_threaded(
        &self,
        inputs: &[Literal],
        config: &RuntimeConfig,
    ) -> Result<(Vec<Literal>, RuntimeStats), RuntimeError> {
        let plan = self.compile()?;
        self.execute_global_planned(&plan, inputs, config)
    }

    /// Runs a plan produced by [`SpmdProgram::compile`] on the threaded
    /// runtime: shards `inputs`, executes every device's compiled steps
    /// concurrently, and reassembles global outputs. The compile-once/
    /// run-many entry point — steady-state steps do no op dispatch,
    /// shape inference, or intermediate allocation.
    ///
    /// # Errors
    ///
    /// Fails on mismatched inputs or any runtime failure (timeout,
    /// corruption, dropped device — see [`RuntimeError`]).
    pub fn execute_global_planned(
        &self,
        plan: &CompiledPlan,
        inputs: &[Literal],
        config: &RuntimeConfig,
    ) -> Result<(Vec<Literal>, RuntimeStats), RuntimeError> {
        let _span = partir_obs::span!("runtime.execute");
        let per_device = self.shard_inputs(inputs)?;
        let outcome = ThreadedRuntime::new(config.clone()).run_plan(plan, &per_device)?;
        Ok((self.unshard_outputs(&outcome.outputs)?, outcome.stats))
    }

    /// Reassembles every global output from the per-device outputs of a
    /// run (`outputs[d]` are device `d`'s, as
    /// [`crate::RunOutcome::outputs`] holds them).
    ///
    /// # Errors
    ///
    /// Fails if the fragments mismatch the outputs' sharded types.
    pub fn unshard_outputs(&self, outputs: &[Vec<Literal>]) -> Result<Vec<Literal>, IrError> {
        (0..self.output_ctxs.len())
            .map(|i| {
                let shards: Vec<Literal> = outputs.iter().map(|o| o[i].clone()).collect();
                self.unshard_output(i, &shards)
            })
            .collect()
    }

    /// Shards every global input: `result[d]` are device `d`'s local
    /// inputs, as [`crate::ThreadedRuntime::run_plan`] takes them.
    ///
    /// # Errors
    ///
    /// Fails if an input mismatches its global type.
    pub fn shard_inputs(&self, inputs: &[Literal]) -> Result<Vec<Vec<Literal>>, IrError> {
        (0..self.mesh.num_devices())
            .map(|device| {
                inputs
                    .iter()
                    .zip(&self.input_ctxs)
                    .map(|(lit, ctx)| shard_value(lit, ctx, &self.mesh, device))
                    .collect()
            })
            .collect()
    }

    /// Shards one global input into its per-device fragments, per that
    /// input's propagated context. Step-loop drivers (the `partir-serve`
    /// continuous-batching engine) use this to keep parameters and
    /// KV-cache slots *resident* per device: shard once, then per step
    /// re-shard only the small slot-addressed inputs that changed and
    /// call [`CompiledPlan`]'s runtime directly with per-device inputs.
    ///
    /// # Errors
    ///
    /// Fails if `lit` mismatches the input's global type.
    pub fn shard_input(&self, index: usize, lit: &Literal) -> Result<Vec<Literal>, IrError> {
        let ctx = &self.input_ctxs[index];
        (0..self.mesh.num_devices())
            .map(|device| shard_value(lit, ctx, &self.mesh, device))
            .collect()
    }

    /// Reassembles one global output from its per-device fragments —
    /// the inverse of [`SpmdProgram::shard_input`] on the output side.
    /// `shards` must hold one fragment per device, in device order.
    ///
    /// # Errors
    ///
    /// Fails if the fragments mismatch the output's sharded type.
    pub fn unshard_output(&self, index: usize, shards: &[Literal]) -> Result<Literal, IrError> {
        unshard_value(shards, &self.output_ctxs[index], &self.mesh)
    }

    /// Exact per-axis traffic the threaded runtime will move executing
    /// this program — the prediction [`RuntimeStats`] is reconciled
    /// against.
    ///
    /// # Errors
    ///
    /// Fails only on malformed programs.
    pub fn predicted_traffic(&self) -> Result<TrafficPrediction, IrError> {
        predict_traffic(&self.func, &self.mesh)
    }

    /// Pretty-prints the device-local program.
    pub fn to_text(&self) -> String {
        partir_ir::print::print_func(&self.func)
    }

    /// A `jax.sharding`-style summary of the interface: one line per
    /// input/output with its per-dimension partitioning, e.g.
    /// `in  %x: P("B", -)` — the metadata `partir.jit` hands back so
    /// callers can lay out their arrays (paper §3).
    pub fn interface_summary(&self) -> String {
        use std::fmt::Write as _;
        let spec = |ctx: &ValueCtx, rank: usize| -> String {
            let parts: Vec<String> = ctx
                .dim_axes(rank)
                .into_iter()
                .map(|axes| {
                    if axes.is_empty() {
                        "-".to_string()
                    } else {
                        axes.iter()
                            .map(|a| format!("\"{a}\""))
                            .collect::<Vec<_>>()
                            .join("·")
                    }
                })
                .collect();
            format!("P({})", parts.join(", "))
        };
        let mut out = String::new();
        for (i, (&p, ctx)) in self.func.params().iter().zip(&self.input_ctxs).enumerate() {
            let name = self
                .func
                .value(p)
                .name
                .clone()
                .unwrap_or_else(|| format!("arg{i}"));
            writeln!(
                out,
                "in  %{name}: {}",
                spec(ctx, self.func.value_type(p).rank())
            )
            .expect("string write");
        }
        for (i, (&r, ctx)) in self
            .func
            .results()
            .iter()
            .zip(&self.output_ctxs)
            .enumerate()
        {
            writeln!(
                out,
                "out #{i}: {}",
                spec(ctx, self.func.value_type(r).rank())
            )
            .expect("string write");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use partir_core::Partitioning;
    use partir_ir::{FuncBuilder, TensorType};
    use partir_mesh::Mesh;

    #[test]
    fn interface_summary_shows_shardings() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([8, 4]));
        let w = b.param("w", TensorType::f32([4, 4]));
        let y = b.matmul(x, w).unwrap();
        let f = b.build([y]).unwrap();
        let mesh = Mesh::new([("B", 2), ("M", 2)]).unwrap();
        let mut p = Partitioning::new(&f, mesh).unwrap();
        p.tile(&f, x, 0, &"B".into()).unwrap();
        p.propagate(&f);
        let program = crate::lower(&f, &p).unwrap();
        let summary = program.interface_summary();
        assert!(summary.contains("in  %x: P(\"B\", -)"), "{summary}");
        assert!(summary.contains("in  %w: P(-, -)"), "{summary}");
        assert!(summary.contains("out #0: P(\"B\", -)"), "{summary}");
    }
}
