//! The benchmark's whole view of the program under test.
//!
//! Every other file of the benchmark imports repository items from here
//! and from nowhere else, so a change that moves or merges a layer
//! breaks this one file. Layers are measured from outside, by timing
//! calls into exactly these public functions.

// core: partitioning state and propagation.
pub use partir_core::Partitioning;
// ir: values, the reference interpreter (the oracle) and the dot kernel.
pub use partir_ir::interp::interpret;
pub use partir_ir::kernels::dot_general;
pub use partir_ir::{DotDims, Fingerprint, Func, IrError, Literal, Shape};
pub use partir_mesh::{HardwareConfig, Mesh};
// models: the zoo and the paper's schedules.
pub use partir_models::gns::{self, GnsConfig};
pub use partir_models::itransformer::{self, ServingConfig};
pub use partir_models::schedules::{self, BATCH, MODEL};
pub use partir_models::transformer::{self, TransformerConfig};
pub use partir_models::unet::{self, UNetConfig};
pub use partir_models::{synthetic_inputs, BuiltModel};
// analysis: the static objective and the legality filter.
pub use partir_analysis::{error_count, is_legal, StaticObjective};
// prng: the workspace's seeded generator, for the workloads' own draws.
pub use partir_prng::Rng;
// sched: jit and the two search drivers.
pub use partir_sched::{partir_jit, AutomaticPartition, EvalCache, Jitted, Schedule, Tactic};
// serve: the continuous-batching engine.
pub use partir_serve::{
    poisson, validate_events, RunOptions, ServeEvent, ServeReport, ServingEngine, Workload,
    WorkloadSpec,
};
// sim: the analytical cost model.
pub use partir_sim::{evaluate, Evaluation};
// spmd: lowering, plans and the threaded runtime.
pub use partir_spmd::{
    lower, CompiledPlan, PlanOptions, RuntimeConfig, RuntimeStats, SpmdProgram, ThreadedRuntime,
};

/// The benchmark machine: a `{batch: b, model: m}` TPU pod.
pub fn tpu_mesh(batch: usize, model: usize) -> HardwareConfig {
    let mesh = Mesh::new([(BATCH, batch), (MODEL, model)]).expect("valid mesh");
    HardwareConfig::tpu_v3_pod(mesh)
}
