use partir_core::ValueCtx;
use partir_ir::{Func, IrError, Literal};
use partir_mesh::Mesh;

use crate::collectives::{predict_traffic, TrafficPrediction};
use crate::interp::{run_devices, shard_value, unshard_value};
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

    /// Returns the program with collective pairs fused
    /// (`all_slice∘all_gather → all_to_all`,
    /// `all_slice∘all_reduce → reduce_scatter`) and dead code removed.
    ///
    /// # Errors
    ///
    /// Fails only on malformed programs.
    pub fn fused(&self) -> Result<SpmdProgram, IrError> {
        let func = crate::fuse::fuse_collectives(&self.func, &self.mesh)?;
        Ok(SpmdProgram {
            func,
            mesh: self.mesh.clone(),
            input_ctxs: self.input_ctxs.clone(),
            output_ctxs: self.output_ctxs.clone(),
        })
    }

    /// Shards `inputs` per the input contexts, runs every device in
    /// lockstep and reassembles global outputs.
    ///
    /// # Errors
    ///
    /// Fails if inputs mismatch the original (global) parameter types.
    pub fn execute_global(&self, inputs: &[Literal]) -> Result<Vec<Literal>, IrError> {
        let n = self.mesh.num_devices();
        let mut per_device: Vec<Vec<Literal>> = Vec::with_capacity(n);
        for device in 0..n {
            let mut dev_inputs = Vec::with_capacity(inputs.len());
            for (lit, ctx) in inputs.iter().zip(&self.input_ctxs) {
                dev_inputs.push(shard_value(lit, ctx, &self.mesh, device)?);
            }
            per_device.push(dev_inputs);
        }
        let outputs = run_devices(&self.func, &self.mesh, &per_device)?;
        let mut global = Vec::with_capacity(self.output_ctxs.len());
        for (i, ctx) in self.output_ctxs.iter().enumerate() {
            let shards: Vec<Literal> = outputs.iter().map(|o| o[i].clone()).collect();
            global.push(unshard_value(&shards, ctx, &self.mesh)?);
        }
        Ok(global)
    }

    /// Compiles the device-local program into a [`CompiledPlan`]: op
    /// dispatch, elementwise fusion, arena layout, and every device's
    /// collective schedule are resolved once, so repeated
    /// [`SpmdProgram::execute_global_planned`] steps pay none of it.
    ///
    /// # Errors
    ///
    /// Fails on malformed programs or when the plan's arena layout
    /// disagrees with `partir_analysis`'s static memory bound — see
    /// [`PlanError`].
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
    /// [`SpmdProgram::execute_global`].
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
        let mut global = Vec::with_capacity(self.output_ctxs.len());
        for (i, ctx) in self.output_ctxs.iter().enumerate() {
            let shards: Vec<Literal> = outcome.outputs.iter().map(|o| o[i].clone()).collect();
            global.push(unshard_value(&shards, ctx, &self.mesh)?);
        }
        Ok((global, outcome.stats))
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
