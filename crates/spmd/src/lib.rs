//! PartIR:HLO — SPMD lowering, collective fusion and a multi-device
//! runtime (paper §6).
//!
//! [`lower`] turns a function plus its [`partir_core::Partitioning`] into
//! a *device-local* program: every value takes its sharded type, every op
//! runs on local shards, and mesh-axis collectives (`all_reduce`,
//! `all_gather`, `all_slice`, and where a pair fuses as it is emitted:
//! `reduce_scatter`, `all_to_all`) reconcile layout mismatches — exactly
//! the reconciliations the paper's schedules are characterised by (one
//! all-reduce per parameter gradient under batch parallelism, gathers
//! before use under Z3, reduce-scatters for sharded gradients, …).
//!
//! The [`plan`] module compiles a lowered program once: it resolves
//! every op to a direct kernel call, fuses adjacent elementwise chains
//! into single loop bodies, lays intermediates out in a bump arena sized
//! by `partir_analysis`'s static peak bound, and bakes each device's
//! collective schedule (rendezvous partners, per-axis byte counts) ahead
//! of time. Compile once with [`SpmdProgram::compile`], then run many
//! steps without per-step dispatch, shape inference, or allocation.
//!
//! The [`runtime`] module is the one executor of those plans: a
//! [`ThreadedRuntime`] runs one OS thread per device with channel-based
//! message-passing collectives ([`collectives`]), records executed
//! per-axis traffic into [`RuntimeStats`], and injects deterministic
//! faults for failure-path testing. Free-running, it detects deadlock by
//! a rendezvous timeout; under its seeded turn-taking scheduler
//! ([`ThreadedRuntime::run_scheduled`], what
//! [`SpmdProgram::execute_global`] uses) the interleaving replays from a
//! seed and deadlock is reported exactly. Outputs must match the
//! unpartitioned reference interpretation — the executable counterpart
//! of the paper's lowering-correctness proof — and each collective
//! matches its whole-mesh specification, [`apply_collective`], bit for
//! bit. `predict_traffic` mirrors the executed byte counts exactly so
//! the simulator can reconcile predictions against execution.
//!
//! # Examples
//!
//! ```
//! use partir_core::Partitioning;
//! use partir_ir::{FuncBuilder, Literal, TensorType};
//! use partir_mesh::Mesh;
//! use partir_spmd::lower;
//!
//! let mut b = FuncBuilder::new("main");
//! let x = b.param("x", TensorType::f32([8, 4]));
//! let w = b.param("w", TensorType::f32([4, 4]));
//! let y = b.matmul(x, w)?;
//! let f = b.build([y])?;
//! let mesh = Mesh::single("B", 4).unwrap();
//! let mut part = Partitioning::new(&f, mesh)?;
//! part.tile(&f, x, 0, &"B".into())?;
//! part.propagate(&f);
//!
//! let program = lower(&f, &part)?;
//! // Data parallelism: the device-local input is a quarter of the batch
//! // and the program needs no communication at all.
//! assert_eq!(program.stats().total(), 0);
//! let out = program.execute_global(&[
//!     Literal::ones(&TensorType::f32([8, 4])),
//!     Literal::ones(&TensorType::f32([4, 4])),
//! ])?;
//! assert_eq!(out[0].shape().dims(), &[8, 4]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod collectives;
mod interp;
mod lower;
pub mod plan;
mod program;
pub mod runtime;
mod stats;

pub use collectives::{predict_traffic, AxisTraffic, TrafficPrediction};
pub use interp::apply_collective;
pub use lower::lower;
pub use plan::{CollWindow, CompiledPlan, PlanError, PlanExecutor, PlanOptions};
pub use program::SpmdProgram;
pub use runtime::{
    seeded_faults, BlockedWait, DeviceCounters, Fault, RunOutcome, RuntimeConfig, RuntimeError,
    RuntimeStats, Session, ThreadedRuntime,
};
pub use stats::{collect_stats, CollectiveStats};
