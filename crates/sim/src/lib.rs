//! Analytical simulator for SPMD programs (paper §3, Appendix A.5).
//!
//! PartIR:HLO programs carry tensor shapes and mesh-axis collectives, so a
//! simple walk suffices: per-op FLOP counting against device peak FLOPS,
//! ring-style cost models for collectives against per-axis link bandwidth,
//! and a live-range analysis for peak device memory. As the paper notes,
//! absolute values are not guaranteed — the simulator exists to make
//! *relative* improvements predictable for users and automatic tactics,
//! and to reject partitions that exceed device memory.
//!
//! The [`event`] module times the compiled plan instead of the program:
//! the same per-op costs, charged along the plan's step list, so fused
//! elementwise chains and the collective windows the plan opens show. In
//! this reproduction it stands in for real-hardware measurements when
//! regenerating Figures 6, 9 and 10 (see DESIGN.md substitutions).
//!
//! # Examples
//!
//! ```
//! use partir_core::Partitioning;
//! use partir_ir::{FuncBuilder, TensorType};
//! use partir_mesh::{HardwareConfig, Mesh};
//! use partir_sim::{Simulator, SimConfig};
//!
//! let mut b = FuncBuilder::new("main");
//! let x = b.param("x", TensorType::f32([256, 64]));
//! let w = b.param("w", TensorType::f32([64, 64]));
//! let y = b.matmul(x, w)?;
//! let f = b.build([y])?;
//! let mesh = Mesh::single("B", 4).unwrap();
//! let mut part = Partitioning::new(&f, mesh.clone())?;
//! part.tile(&f, x, 0, &"B".into())?;
//! part.propagate(&f);
//! let program = partir_spmd::lower(&f, &part)?;
//!
//! let hw = HardwareConfig::tpu_v3_pod(mesh);
//! let report = Simulator::new(&hw, SimConfig::default()).simulate(program.func())?;
//! assert!(report.runtime_s > 0.0);
//! assert!(report.peak_memory_bytes > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod cost;
mod evaluate;
pub mod event;
mod flops;
mod memory;
pub mod reconcile;

pub use cost::{collective_time, SimConfig, Simulator};
pub use evaluate::{evaluate, evaluate_program, CostBreakdown, Evaluation};
pub use flops::func_flops;
pub use memory::peak_memory_bytes;
pub use reconcile::{
    reconcile, reconcile_overlap, AxisCheck, OverlapCheck, OverlapReconciliation, Reconciliation,
};

/// Simulation results for one device-local program.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimReport {
    /// Estimated wall-clock per step, seconds.
    pub runtime_s: f64,
    /// Pure compute portion, seconds.
    pub compute_s: f64,
    /// Pure communication portion, seconds.
    pub comm_s: f64,
    /// Device-local floating point operations per step.
    pub flops: f64,
    /// Bytes moved by collectives per step (per device).
    pub comm_bytes: f64,
    /// Peak device memory, bytes.
    pub peak_memory_bytes: u64,
}

impl SimReport {
    /// Model FLOPS utilisation given the *model's* (unpartitioned) flops
    /// and the machine (Appendix A.1).
    pub fn mfu(&self, model_flops: f64, num_devices: usize, peak_flops: f64) -> f64 {
        if self.runtime_s == 0.0 {
            return 0.0;
        }
        100.0 * (model_flops / self.runtime_s) / (num_devices as f64 * peak_flops)
    }
}
