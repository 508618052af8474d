//! The single evaluation entry point of the pipeline: lower a
//! partitioning to its device-local program (collectives fused as they
//! are emitted) and simulate the result.
//!
//! Search tactics (`partir-sched`) and benchmarks previously each glued
//! `partir_spmd::lower` + [`Simulator::simulate`] together by hand; [`evaluate`] is now the one place that composition lives, and
//! the unit whose results the search's evaluation cache memoises (keyed
//! by [`partir_core::Partitioning::fingerprint`]).

use partir_analysis::cost::oom_penalty;
use partir_analysis::StaticCost;
use partir_core::Partitioning;
use partir_ir::{Func, IrError};
use partir_mesh::HardwareConfig;
use partir_spmd::{CollectiveStats, SpmdProgram};

use crate::{SimConfig, SimReport, Simulator};

/// Everything the pipeline knows about one partitioning of one function
/// on one machine: the simulator's estimates plus the collective mix of
/// the fused program.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Evaluation {
    /// Simulated runtime/compute/comm/memory of the device-local program.
    pub sim: SimReport,
    /// Collective counts of the fused program.
    pub stats: CollectiveStats,
}

/// Where an [`Evaluation`]'s scalar cost comes from, component by
/// component — the calibration surface for the static objective
/// (`partir_analysis::objective`), which prices a partitioning with the
/// same formulas without lowering it: agreement is checked term-wise,
/// not just on the final scalar.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Roofline compute seconds.
    pub compute_s: f64,
    /// Collective communication seconds.
    pub comm_s: f64,
    /// Bytes on the wire per device per step.
    pub comm_bytes: f64,
    /// Simulated peak device memory, bytes.
    pub peak_memory_bytes: u64,
    /// Multiplicative out-of-memory penalty (1.0 when within HBM).
    pub penalty: f64,
    /// The final scalar: `(compute_s + comm_s) * penalty`.
    pub cost: f64,
}

impl Evaluation {
    /// The scalar objective searches minimise: estimated runtime with a
    /// multiplicative penalty once peak memory exceeds device HBM (the
    /// paper's "penalizes models that exceed device memory limits").
    pub fn cost(&self, hw: &HardwareConfig) -> f64 {
        self.cost_breakdown(hw).cost
    }

    /// [`Evaluation::cost`] split into its components.
    pub fn cost_breakdown(&self, hw: &HardwareConfig) -> CostBreakdown {
        let penalty = oom_penalty(self.sim.peak_memory_bytes, hw.device.hbm_bytes);
        CostBreakdown {
            compute_s: self.sim.compute_s,
            comm_s: self.sim.comm_s,
            comm_bytes: self.sim.comm_bytes,
            peak_memory_bytes: self.sim.peak_memory_bytes,
            penalty,
            cost: self.sim.runtime_s * penalty,
        }
    }
}

/// The static objective's estimate in the simulator's shape: counts,
/// wire bytes, seconds and flops as the simulator gives them for the
/// lowered program, and the objective's liveness bound as
/// `peak_memory_bytes` (≥ the simulated peak).
impl From<StaticCost> for Evaluation {
    fn from(cost: StaticCost) -> Self {
        Evaluation {
            sim: SimReport {
                runtime_s: cost.runtime_s(),
                compute_s: cost.compute_s,
                comm_s: cost.comm_s,
                flops: cost.flops,
                comm_bytes: cost.comm_bytes,
                peak_memory_bytes: cost.peak_memory_bytes,
            },
            stats: cost.stats,
        }
    }
}

/// Lowers `func` under `part` (collectives fused) and simulates the
/// device-local program on `hw` with the default [`SimConfig`].
///
/// # Errors
///
/// Fails if lowering or simulation fails — both indicate a bug (an
/// inconsistent partitioning or unsupported op), not a merely bad
/// partitioning.
pub fn evaluate(
    func: &Func,
    part: &Partitioning,
    hw: &HardwareConfig,
) -> Result<Evaluation, IrError> {
    let _span = partir_obs::span!("sim.evaluate");
    let program = partir_spmd::lower(func, part)?;
    simulate_fused(&program, hw)
}

/// The second half of [`evaluate`], for callers that already hold the
/// lowered and fused program of the state they are scoring.
///
/// # Errors
///
/// Fails if simulation fails.
pub fn evaluate_program(program: &SpmdProgram, hw: &HardwareConfig) -> Result<Evaluation, IrError> {
    let _span = partir_obs::span!("sim.evaluate");
    simulate_fused(program, hw)
}

fn simulate_fused(program: &SpmdProgram, hw: &HardwareConfig) -> Result<Evaluation, IrError> {
    let stats = program.stats();
    let sim = Simulator::new(hw, SimConfig::default()).simulate(program.func())?;
    // Cost-component breakdown: where the simulated runtime comes from
    // (seconds), plus the memory/traffic drivers behind it.
    partir_obs::counter!("sim.compute_s", sim.compute_s);
    partir_obs::counter!("sim.comm_s", sim.comm_s);
    partir_obs::counter!("sim.runtime_s", sim.runtime_s);
    partir_obs::counter!("sim.comm_bytes", sim.comm_bytes);
    partir_obs::counter!("sim.peak_memory_bytes", sim.peak_memory_bytes);
    Ok(Evaluation { sim, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{FuncBuilder, TensorType};
    use partir_mesh::Mesh;

    fn matmul() -> (Func, partir_ir::ValueId) {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([256, 64]));
        let w = b.param("w", TensorType::f32([64, 64]));
        let y = b.matmul(x, w).unwrap();
        (b.build([y]).unwrap(), x)
    }

    #[test]
    fn evaluate_matches_manual_composition() {
        let (f, x) = matmul();
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let mut p = Partitioning::new(&f, mesh).unwrap();
        p.tile(&f, x, 0, &"B".into()).unwrap();
        p.propagate(&f);

        let eval = evaluate(&f, &p, &hw).unwrap();
        let program = partir_spmd::lower(&f, &p).unwrap();
        let report = Simulator::new(&hw, SimConfig::default())
            .simulate(program.func())
            .unwrap();
        assert_eq!(eval.sim, report);
        assert_eq!(eval.stats, program.stats());
        // Pure data parallelism over one matmul needs no collectives.
        assert_eq!(eval.stats.total(), 0);
    }

    #[test]
    fn cost_breakdown_components_recompose() {
        let (f, x) = matmul();
        let mesh = Mesh::new([("B", 2), ("M", 2)]).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let mut p = Partitioning::new(&f, mesh).unwrap();
        p.tile(&f, x, 0, &"B".into()).unwrap();
        p.propagate(&f);
        let eval = evaluate(&f, &p, &hw).unwrap();
        let b = eval.cost_breakdown(&hw);
        assert_eq!(b.cost, eval.cost(&hw));
        assert_eq!(b.penalty, 1.0);
        assert!((b.compute_s + b.comm_s - eval.sim.runtime_s).abs() < 1e-15);
        assert_eq!(b.comm_bytes, eval.sim.comm_bytes);
        assert_eq!(b.peak_memory_bytes, eval.sim.peak_memory_bytes);
    }

    #[test]
    fn cost_penalises_out_of_memory() {
        let (f, _) = matmul();
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let p = Partitioning::new(&f, mesh).unwrap();
        let eval = evaluate(&f, &p, &hw).unwrap();
        assert!(eval.cost(&hw) > 0.0);

        let mut tiny = hw.clone();
        tiny.device.hbm_bytes = 1;
        assert!(eval.cost(&tiny) > 10.0 * eval.cost(&hw));
    }
}
