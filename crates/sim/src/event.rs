//! Event-level execution model: the compiled plan's own schedule, timed
//! — the stand-in for real-hardware measurements (see DESIGN.md
//! substitutions).
//!
//! [`measure_overlap`] walks `CompiledPlan::verifier_view()` — derived
//! from the executable steps, so it is the schedule the executor runs —
//! once, in that order, on a compute lane plus one link lane per mesh
//! axis. Every cost is the analytical [`crate::Simulator`]'s,
//! from `partir_analysis::cost`:
//!
//! * a kernel or baked step is charged the roofline time of its op (the
//!   op defining the value it writes, looked up in the lowered `Func`);
//! * a fused elementwise chain is charged once, on the bytes it loads
//!   and stores (elementwise flops never bind on the roofline);
//! * a `CollStart` puts its collective's ring time on its axes' link
//!   lanes where the plan placed it, and the `CollWait` with its tag
//!   stalls the compute lane until it lands; the stall is charged to
//!   that tag;
//! * a loop runs its body trip-count times; loop copies are free, as in
//!   the estimate.
//!
//! So the walk departs from the estimate only where the plan compiler
//! decided something: fused chains and collective windows. With neither
//! they agree exactly. Figures 6 and 9 report its runtime as "measured",
//! and Figure 10 the bytes a device's `PlanExecutor` holds resident; the
//! paper measures TPUv3 hardware. `sim::reconcile` checks the per-tag
//! hidden time against the `coll.start` / `coll.wait` spans of real
//! device traces.

use std::collections::BTreeMap;

use partir_analysis::cost::{OpClass, Roofline};
use partir_analysis::plan::{Access, StepView};
use partir_ir::{Func, IrError, OpId, OpKind, ValueDef, ValueId};
use partir_mesh::{Axis, HardwareConfig};
use partir_spmd::CompiledPlan;

use crate::cost::op_time;
use crate::{collective_time, func_flops, SimReport};

/// One collective's time in the plan walk, per rendezvous tag. For
/// collectives inside loops, times accumulate across iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveOverlap {
    /// Rendezvous tag (`coll.start.<index>` / `coll.wait.<index>`).
    pub index: u32,
    /// Modeled on-link duration, seconds (summed over loop iterations).
    pub duration_s: f64,
    /// Portion hidden under other work, seconds: the duration less the
    /// stall its wait charged the compute lane.
    pub hidden_s: f64,
}

/// Compute/communication overlap of a whole plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverlapPrediction {
    /// Per collective, in tag order.
    pub collectives: Vec<CollectiveOverlap>,
}

impl OverlapPrediction {
    /// Total communication time hidden under compute, seconds.
    pub fn hidden_s(&self) -> f64 {
        self.collectives.iter().map(|c| c.hidden_s).sum()
    }
}

/// Times one step of `plan`, compiled from the device-local `func`: the
/// report plays the role of a hardware measurement, beside each
/// collective's hidden time.
///
/// # Errors
///
/// Fails when a collective references an unknown axis, or when the plan
/// was not compiled from `func`.
pub fn measure_overlap(
    plan: &CompiledPlan,
    func: &Func,
    hw: &HardwareConfig,
) -> Result<(SimReport, OverlapPrediction), IrError> {
    let view = plan.verifier_view();
    let tags = view.num_tags as usize;
    let mut costs = vec![(0.0, 0.0, Vec::new()); tags];
    collective_costs(func, hw, &view.steps, &mut costs)?;
    let mut walk = Walk {
        func,
        roofline: Roofline::new(&hw.device),
        clock: 0.0,
        costs,
        links: BTreeMap::new(),
        lands: vec![0.0; tags],
        colls: (0..view.num_tags)
            .map(|index| CollectiveOverlap {
                index,
                duration_s: 0.0,
                hidden_s: 0.0,
            })
            .collect(),
        compute: 0.0,
        comm: 0.0,
        bytes: 0.0,
    };
    walk.steps(&view.steps)?;
    let report = SimReport {
        runtime_s: walk.clock,
        compute_s: walk.compute,
        comm_s: walk.comm,
        flops: func_flops(func),
        comm_bytes: walk.bytes,
        peak_memory_bytes: plan.resident_bytes(),
    };
    Ok((
        report,
        OverlapPrediction {
            collectives: walk.colls,
        },
    ))
}

struct Walk<'a> {
    func: &'a Func,
    roofline: Roofline,
    /// Per tag: ring seconds, wire bytes and the axes it occupies.
    costs: Vec<(f64, f64, Vec<Axis>)>,
    /// When the compute lane frees up.
    clock: f64,
    /// When each per-axis link lane frees up.
    links: BTreeMap<Axis, f64>,
    /// Per tag: when its latest issue lands.
    lands: Vec<f64>,
    colls: Vec<CollectiveOverlap>,
    compute: f64,
    comm: f64,
    bytes: f64,
}

impl Walk<'_> {
    fn steps(&mut self, steps: &[StepView]) -> Result<(), IrError> {
        for step in steps {
            match step {
                StepView::Compute {
                    name,
                    reads,
                    writes,
                } => {
                    let t = self.compute_time(name, reads, writes)?;
                    self.clock += t;
                    self.compute += t;
                }
                StepView::CollStart { tag, .. } => {
                    let (t, by, ref axes) = self.costs[*tag as usize];
                    // A multi-axis collective holds all its axes' lanes.
                    let start = axes
                        .iter()
                        .map(|a| self.links.get(a).copied().unwrap_or(0.0))
                        .fold(self.clock, f64::max);
                    for a in axes {
                        self.links.insert(a.clone(), start + t);
                    }
                    self.lands[*tag as usize] = start + t;
                    self.colls[*tag as usize].duration_s += t;
                    self.comm += t;
                    self.bytes += by;
                }
                StepView::CollWait { tag, .. } => {
                    let tag = *tag as usize;
                    let stall = (self.lands[tag] - self.clock).max(0.0);
                    self.colls[tag].hidden_s += (self.costs[tag].0 - stall).max(0.0);
                    self.clock += stall;
                }
                StepView::For(l) => {
                    for _ in 0..l.trip_count {
                        self.steps(&l.body)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Roofline time of one compute step. `fused_eltwise` is the plan's
    /// mnemonic for a fused chain; every other compute step runs the one
    /// op that defines what it writes.
    fn compute_time(
        &self,
        name: &str,
        reads: &[Access],
        writes: &[Access],
    ) -> Result<f64, IrError> {
        if name == "fused_eltwise" {
            let bytes = reads
                .iter()
                .chain(writes)
                .map(|a| self.func.value_type(ValueId(a.value)).size_bytes() as f64)
                .sum();
            return Ok(self.roofline.op_time(OpClass::Other, 0.0, bytes));
        }
        let Some(w) = writes.first() else {
            return Ok(0.0);
        };
        def_op(self.func, w.value).map(|op| op_time(self.func, op, &self.roofline))
    }
}

/// Ring seconds, wire bytes and axes of each tag's collective: the op
/// defining the value its wait writes.
fn collective_costs(
    func: &Func,
    hw: &HardwareConfig,
    steps: &[StepView],
    costs: &mut [(f64, f64, Vec<Axis>)],
) -> Result<(), IrError> {
    for step in steps {
        match step {
            StepView::CollWait { tag, dst, .. } => {
                let op = func.op(def_op(func, dst.value)?);
                let OpKind::Collective(c) = &op.kind else {
                    return Err(IrError::invalid(format!(
                        "plan wait {tag} writes %{}, which no collective defines",
                        dst.value
                    )));
                };
                let (t, by) = collective_time(c, func.value_type(op.operands[0]), hw)?;
                costs[*tag as usize] = (t, by, c.axes());
            }
            StepView::For(l) => collective_costs(func, hw, &l.body, costs)?,
            _ => {}
        }
    }
    Ok(())
}

/// The op defining value `v`.
fn def_op(func: &Func, v: u32) -> Result<OpId, IrError> {
    match func.value(ValueId(v)).def {
        ValueDef::OpResult { op, .. } => Ok(op),
        _ => Err(IrError::invalid(format!(
            "a plan step writes %{v}, which no op defines"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulator};
    use partir_ir::{Collective, FuncBuilder, ReduceOp, TensorType};
    use partir_mesh::Mesh;
    use partir_spmd::PlanOptions;

    fn all_reduce_b() -> Collective {
        Collective::AllReduce {
            axes: vec!["B".into()],
            reduce: ReduceOp::Sum,
        }
    }

    /// A matmul, one elementwise op (a kernel step: a chain of one does
    /// not fuse) and a reduction.
    fn sample_func() -> Func {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([512, 256]));
        let w = b.param("w", TensorType::f32([256, 512]));
        let y = b.matmul(x, w).unwrap();
        let z = b.tanh(y).unwrap();
        let s = b.reduce_sum(z, vec![1]).unwrap();
        b.build([s]).unwrap()
    }

    fn compile(f: &Func, mesh: &Mesh, options: &PlanOptions) -> CompiledPlan {
        CompiledPlan::compile(f, mesh, options).unwrap()
    }

    #[test]
    fn plan_walk_without_collectives_or_fusion_equals_estimate() {
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let f = sample_func();
        let plan = compile(&f, &mesh, &PlanOptions::default());
        assert_eq!((plan.num_collectives(), plan.fused_ops()), (0, 0));
        let est = Simulator::new(&hw, SimConfig::default())
            .simulate(&f)
            .unwrap();
        let meas = measure_overlap(&plan, &f, &hw).unwrap().0;
        assert!(est.runtime_s > 0.0);
        assert_eq!(meas.runtime_s, est.runtime_s);
        assert_eq!(meas.compute_s, est.compute_s);
        assert_eq!(meas.flops, est.flops);
        assert_eq!(meas.peak_memory_bytes, plan.resident_bytes());
    }

    #[test]
    fn measurement_is_deterministic() {
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let f = sample_func();
        let plan = compile(&f, &mesh, &PlanOptions::default());
        assert_eq!(
            measure_overlap(&plan, &f, &hw).unwrap().0,
            measure_overlap(&plan, &f, &hw).unwrap().0
        );
    }

    /// A collective whose wait the plan sinks below independent compute
    /// hides under it; one consumed immediately does not, and neither
    /// does any collective of a blocking plan.
    #[test]
    fn overlap_emerges_from_dependency_slack() {
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        // Small reduction, big matmul: the link time fits comfortably
        // under the independent compute.
        let small = TensorType::f32([128, 128]);
        let big = TensorType::f32([2048, 2048]);

        // Slack: reduce `x`, then a long independent matmul on `w`,
        // then consume the reduction.
        let mut b = FuncBuilder::with_mesh("slack", mesh.clone());
        let x = b.param("x", small.clone());
        let w = b.param("w", big.clone());
        let r = b.collective(all_reduce_b(), x).unwrap();
        let m = b.matmul(w, w).unwrap();
        let t = b.tanh(r).unwrap();
        let slack = b.build([t, m]).unwrap();

        // No slack: the reduction's consumer is the very next op.
        let mut b = FuncBuilder::with_mesh("tight", mesh.clone());
        let x = b.param("x", small);
        let w = b.param("w", big);
        let r = b.collective(all_reduce_b(), x).unwrap();
        let t = b.tanh(r).unwrap();
        let m = b.matmul(w, w).unwrap();
        let tight = b.build([t, m]).unwrap();

        let run = |f: &Func, options: &PlanOptions| {
            let (report, pred) = measure_overlap(&compile(f, &mesh, options), f, &hw).unwrap();
            assert_eq!(pred.collectives.len(), 1);
            (report, pred.collectives[0])
        };
        let (slack_rep, slack_coll) = run(&slack, &PlanOptions::default());
        let (tight_rep, tight_coll) = run(&tight, &PlanOptions::default());
        assert!(slack_coll.duration_s > 0.0);
        assert_eq!(
            slack_coll.hidden_s, slack_coll.duration_s,
            "slack should hide the collective"
        );
        assert_eq!(tight_coll.hidden_s, 0.0, "tight chain cannot hide it");
        // Overlap shortens the critical path.
        assert!(slack_rep.runtime_s < tight_rep.runtime_s);
        for f in [&slack, &tight] {
            let (report, coll) = run(f, &PlanOptions::blocking());
            assert_eq!(coll.hidden_s, 0.0, "{}: a blocking plan hid time", f.name());
            assert_eq!(report.runtime_s, tight_rep.runtime_s);
        }
    }
}
