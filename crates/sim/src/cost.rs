//! Analytical runtime model: roofline compute costs plus ring-style
//! collective costs over the mesh topology.

use partir_analysis::cost::{op_class, ring_stages, ring_time, Roofline, MATMUL_EFFICIENCY};
use partir_ir::{Collective, Func, IrError, OpId, OpKind, TensorType};
use partir_mesh::HardwareConfig;

use crate::flops::{flops_of, moved_bytes_of};
use crate::{func_flops, peak_memory_bytes, SimReport};

/// Tunables of the analytical model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimConfig {
    /// Fraction of collective time hidden under compute (the paper's
    /// compute/communication-overlap rewrites, §6.1).
    pub overlap: f64,
}

/// The analytical simulator (paper Appendix A.5): walks a device-local
/// program once, costing compute with a roofline model and communication
/// with ring-collective formulas over the per-axis links (both from
/// `partir_analysis::cost`).
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    hw: &'a HardwareConfig,
    cfg: SimConfig,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for a machine.
    pub fn new(hw: &'a HardwareConfig, cfg: SimConfig) -> Self {
        Simulator { hw, cfg }
    }

    /// Simulates one step of a device-local program.
    ///
    /// # Errors
    ///
    /// Fails when a collective references an axis missing from the mesh
    /// or topology.
    pub fn simulate(&self, func: &Func) -> Result<SimReport, IrError> {
        let roofline = Roofline::new(&self.hw.device, MATMUL_EFFICIENCY);
        let (compute_s, comm_s, comm_bytes) = self.walk(func, func.body(), &roofline)?;
        let flops = func_flops(func);
        let runtime_s = compute_s + comm_s * (1.0 - self.cfg.overlap);
        Ok(SimReport {
            runtime_s,
            compute_s,
            comm_s,
            flops,
            comm_bytes,
            peak_memory_bytes: peak_memory_bytes(func),
        })
    }

    fn walk(
        &self,
        func: &Func,
        body: &[OpId],
        roofline: &Roofline,
    ) -> Result<(f64, f64, f64), IrError> {
        let mut compute = 0.0;
        let mut comm = 0.0;
        let mut bytes = 0.0;
        for &op_id in body {
            let op = func.op(op_id);
            match &op.kind {
                OpKind::For { trip_count } => {
                    let region = op.region.as_ref().expect("for has region");
                    let (c, m, by) = self.walk(func, &region.body, roofline)?;
                    compute += *trip_count as f64 * c;
                    comm += *trip_count as f64 * m;
                    bytes += *trip_count as f64 * by;
                }
                OpKind::Collective(c) => {
                    let operand_ty = func.value_type(op.operands[0]);
                    let result_ty = func.value_type(op.results[0]);
                    let (t, by) = collective_time(c, operand_ty, result_ty, self.hw)?;
                    comm += t;
                    bytes += by;
                }
                _ => compute += op_time(func, op_id, roofline),
            }
        }
        Ok((compute, comm, bytes))
    }
}

fn op_time(func: &Func, op_id: OpId, roofline: &Roofline) -> f64 {
    let class = op_class(&func.op(op_id).kind);
    roofline.op_time(class, flops_of(func, op_id), moved_bytes_of(func, op_id))
}

/// Ring-style cost of one collective: `(seconds, bytes_on_wire)`.
///
/// Multi-axis collectives execute one axis at a time (sizes grow/shrink
/// per stage from the operand's, so `_result` is not consulted),
/// matching the hierarchical implementations used on real meshes.
///
/// # Errors
///
/// Fails when an axis is missing from the mesh or topology.
pub fn collective_time(
    c: &Collective,
    operand: &TensorType,
    _result: &TensorType,
    hw: &HardwareConfig,
) -> Result<(f64, f64), IrError> {
    let Some((kind, axes)) = ring_stages(c) else {
        return Ok((0.0, 0.0)); // all_slice is device-local
    };
    let err = |e: partir_mesh::MeshError| IrError::invalid(e.to_string());
    let links = axes
        .into_iter()
        .map(|axis| {
            Ok((
                hw.mesh.axis_size(axis).map_err(err)? as f64,
                hw.topology.bandwidth(axis).map_err(err)?,
                hw.topology.latency(axis).map_err(err)?,
            ))
        })
        .collect::<Result<Vec<_>, IrError>>()?;
    Ok(ring_time(kind, operand.size_bytes() as f64, links))
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{FuncBuilder, ReduceOp, TensorType};
    use partir_mesh::Mesh;

    fn hw() -> HardwareConfig {
        HardwareConfig::tpu_v3_pod(Mesh::new([("B", 4), ("M", 2)]).unwrap())
    }

    #[test]
    fn all_reduce_costs_twice_reduce_scatter() {
        let hw = hw();
        let t = TensorType::f32([1024, 1024]);
        let ar = collective_time(
            &Collective::AllReduce {
                axes: vec!["B".into()],
                reduce: ReduceOp::Sum,
            },
            &t,
            &t,
            &hw,
        )
        .unwrap();
        let rs = collective_time(
            &Collective::ReduceScatter {
                dim_axes: vec![vec!["B".into()], vec![]],
                reduce: ReduceOp::Sum,
            },
            &t,
            &TensorType::f32([256, 1024]),
            &hw,
        )
        .unwrap();
        assert!((ar.0 / rs.0 - 2.0).abs() < 0.1, "{} vs {}", ar.0, rs.0);
    }

    #[test]
    fn all_slice_is_free() {
        let hw = hw();
        let t = TensorType::f32([1024]);
        let (time, bytes) = collective_time(
            &Collective::AllSlice {
                dim_axes: vec![vec!["B".into()]],
            },
            &t,
            &TensorType::f32([256]),
            &hw,
        )
        .unwrap();
        assert_eq!(time, 0.0);
        assert_eq!(bytes, 0.0);
    }

    #[test]
    fn sharded_program_is_faster_when_comm_is_cheap() {
        use partir_core::Partitioning;
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([1024, 512]));
        let w = b.param("w", TensorType::f32([512, 512]));
        let y = b.matmul(x, w).unwrap();
        let f = b.build([y]).unwrap();
        let full_report = Simulator::new(&hw, SimConfig::default())
            .simulate(&f)
            .unwrap();
        let mut p = Partitioning::new(&f, mesh).unwrap();
        p.tile(&f, x, 0, &"B".into()).unwrap();
        p.propagate(&f);
        let program = partir_spmd::lower(&f, &p).unwrap();
        let sharded_report = Simulator::new(&hw, SimConfig::default())
            .simulate(program.func())
            .unwrap();
        assert!(sharded_report.runtime_s < full_report.runtime_s / 2.0);
        assert!(sharded_report.flops < full_report.flops / 3.0);
    }

    #[test]
    fn mfu_is_bounded() {
        let report = SimReport {
            runtime_s: 1.0,
            flops: 1e12,
            ..Default::default()
        };
        let mfu = report.mfu(4e12, 4, 2e12);
        assert!((mfu - 50.0).abs() < 1e-9);
    }
}
