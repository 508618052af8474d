//! Event-level execution model — the stand-in for real-hardware
//! measurements (see DESIGN.md substitutions).
//!
//! Compared to the analytical [`crate::Simulator`], this model:
//!
//! * charges a fixed dispatch overhead per op (kernel launches),
//! * schedules the program on **two resources** — a compute lane and one
//!   link lane per mesh axis — so compute/communication overlap emerges
//!   from the dependency structure instead of a fixed overlap fraction:
//!   a collective starts when its input is ready and its link is free,
//!   and only stalls compute when a consumer actually needs its result,
//! * perturbs each op's cost with a deterministic per-op jitter standing
//!   in for layout passes, fusion decisions and measurement noise.
//!
//! This mirrors what the compiled-plan runtime executes: `spmd::plan`
//! splits every collective into a `CollStart` hoisted to where its input
//! is ready and a `CollWait` sunk to its first consumer, so the window a
//! collective has to hide under compute is exactly the dependency slack
//! this model schedules. [`measure_overlap`] reports the per-collective
//! hidden time, which `sim::reconcile` checks against the `coll.start` /
//! `coll.wait` span gaps on real device traces.
//!
//! Figures 9 and 10 compare the analytical estimates against this model;
//! the paper compares against TPUv3 hardware.

use std::collections::BTreeMap;

use partir_analysis::cost::{op_class, Roofline, MATMUL_EFFICIENCY};
use partir_ir::{Func, IrError, OpId, OpKind, ValueId};
use partir_mesh::{Axis, HardwareConfig};

use crate::flops::{flops_of, moved_bytes_of};
use crate::{collective_time, peak_memory_bytes, SimReport};

/// Tunables of the event model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventConfig {
    /// Per-op dispatch overhead, seconds.
    pub op_overhead_s: f64,
    /// Relative amplitude of deterministic per-op jitter (0.05 = ±5%).
    pub jitter: f64,
    /// Extra per-step fixed cost (host sync, infeed), seconds.
    pub step_overhead_s: f64,
}

impl Default for EventConfig {
    fn default() -> Self {
        EventConfig {
            // Per *fused kernel*: backends merge many IR ops per launch,
            // so the effective per-op overhead is sub-microsecond.
            op_overhead_s: 0.3e-6,
            jitter: 0.08,
            step_overhead_s: 30e-6,
        }
    }
}

/// One collective's predicted schedule in the two-resource model.
///
/// `index` counts static collectives in program order — the same order
/// `spmd::plan` assigns rendezvous tags, so entry `i` here describes the
/// collective traced as `coll.start.i` / `coll.wait.i`. For collectives
/// inside loops, times accumulate across iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveOverlap {
    /// Static collective index == runtime rendezvous tag.
    pub index: u32,
    /// Modeled on-link duration, seconds (summed over loop iterations).
    pub duration_s: f64,
    /// Portion hidden under other work, seconds: duration minus the
    /// stall its consumers (or the program end) actually suffered.
    pub hidden_s: f64,
}

/// Predicted compute/communication overlap for a whole program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverlapPrediction {
    /// Per static collective, in tag order.
    pub collectives: Vec<CollectiveOverlap>,
}

impl OverlapPrediction {
    /// Total modeled communication time, seconds.
    pub fn total_s(&self) -> f64 {
        self.collectives.iter().map(|c| c.duration_s).sum()
    }

    /// Total communication time hidden under compute, seconds.
    pub fn hidden_s(&self) -> f64 {
        self.collectives.iter().map(|c| c.hidden_s).sum()
    }

    /// Hidden fraction of total communication time (0 when the program
    /// does not communicate).
    pub fn hidden_fraction(&self) -> f64 {
        let total = self.total_s();
        if total <= 0.0 {
            0.0
        } else {
            self.hidden_s() / total
        }
    }
}

/// Runs the event-level model over a device-local program; the returned
/// report plays the role of a hardware measurement.
///
/// # Errors
///
/// Fails when collectives reference unknown axes.
pub fn measure(func: &Func, hw: &HardwareConfig, cfg: &EventConfig) -> Result<SimReport, IrError> {
    measure_overlap(func, hw, cfg).map(|(report, _)| report)
}

/// Like [`measure`], but also returns the per-collective overlap the
/// two-resource schedule predicts.
///
/// # Errors
///
/// Fails when collectives reference unknown axes.
pub fn measure_overlap(
    func: &Func,
    hw: &HardwareConfig,
    cfg: &EventConfig,
) -> Result<(SimReport, OverlapPrediction), IrError> {
    let mut state = MeasureState {
        hw,
        cfg,
        ready: vec![0.0; func.num_values()],
        compute_free: 0.0,
        link_free: BTreeMap::new(),
        producer: vec![None; func.num_values()],
        colls: Vec::new(),
        static_index: BTreeMap::new(),
        compute: 0.0,
        comm: 0.0,
        bytes: 0.0,
        salt: 0x243f6a8885a308d3,
    };
    state.number_collectives(func, func.body());
    state.walk(func, func.body())?;
    // Collectives whose last issue nobody consumed (program outputs, or
    // dead values): exposed for however long they outlive the compute
    // lane — the program can't finish before they complete.
    let compute_end = state.compute_free;
    for coll in &mut state.colls {
        if let Some(end) = coll.unconsumed_end.take() {
            coll.exposed += (end - compute_end).max(0.0);
        }
    }
    let finish = state.finish_time(func);
    let runtime_s = cfg.step_overhead_s + finish;
    let prediction = OverlapPrediction {
        collectives: state
            .colls
            .iter()
            .map(|c| CollectiveOverlap {
                index: c.index,
                duration_s: c.duration,
                hidden_s: (c.duration - c.exposed).max(0.0),
            })
            .collect(),
    };
    let report = SimReport {
        runtime_s,
        compute_s: state.compute,
        comm_s: state.comm,
        flops: crate::func_flops(func),
        comm_bytes: state.bytes,
        peak_memory_bytes: measured_memory(func),
    };
    Ok((report, prediction))
}

/// The "measured" memory: live-range peak plus a workspace factor for
/// backend temporaries (the analytical estimate deliberately
/// over-estimates relative to this, Appendix A.5.2).
pub fn measured_memory(func: &Func) -> u64 {
    let base = peak_memory_bytes(func);
    // Backends typically reuse buffers better than a pure live-range
    // analysis assumes, but add workspace for convolutions and fusions.
    (base as f64 * 0.92) as u64
}

/// Accumulated schedule state of one static collective.
struct CollState {
    index: u32,
    /// Total on-link time across iterations.
    duration: f64,
    /// Stall time its consumers suffered waiting on it.
    exposed: f64,
    /// End time of the latest issue whose result nobody consumed yet.
    unconsumed_end: Option<f64>,
}

struct MeasureState<'a> {
    hw: &'a HardwareConfig,
    cfg: &'a EventConfig,
    /// Per-value completion time (flat arena, parameters ready at 0).
    ready: Vec<f64>,
    /// When the compute lane frees up.
    compute_free: f64,
    /// When each per-axis link lane frees up.
    link_free: BTreeMap<Axis, f64>,
    /// Which static collective produced each value (latest issue).
    producer: Vec<Option<usize>>,
    colls: Vec<CollState>,
    /// Static collective index per op, assigned in plan-tag order.
    static_index: BTreeMap<OpId, usize>,
    compute: f64,
    comm: f64,
    bytes: f64,
    salt: u64,
}

impl MeasureState<'_> {
    fn jitter(&mut self) -> f64 {
        // xorshift-style deterministic jitter in [1-j, 1+j].
        self.salt ^= self.salt << 13;
        self.salt ^= self.salt >> 7;
        self.salt ^= self.salt << 17;
        let unit = (self.salt >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + self.cfg.jitter * (2.0 * unit - 1.0)
    }

    /// Assigns each static collective its program-order index — one pass
    /// per op, recursing into regions once: exactly the order
    /// `spmd::plan` assigns rendezvous tags.
    fn number_collectives(&mut self, func: &Func, body: &[OpId]) {
        for &op_id in body {
            let op = func.op(op_id);
            match &op.kind {
                OpKind::For { .. } => {
                    let region = op.region.as_ref().expect("for has region");
                    self.number_collectives(func, &region.body);
                }
                OpKind::Collective(_) => {
                    let idx = self.colls.len();
                    self.static_index.insert(op_id, idx);
                    self.colls.push(CollState {
                        index: idx as u32,
                        duration: 0.0,
                        exposed: 0.0,
                        unconsumed_end: None,
                    });
                }
                _ => {}
            }
        }
    }

    /// Start time for a consumer whose lane frees at `lane_free`, plus
    /// stall accounting: operands still pending on a collective delay
    /// the start to their completion, and the binding (latest) one is
    /// charged the wait beyond the dependency-free start. Every pending
    /// collective operand is marked consumed.
    fn consume_operands(&mut self, operands: &[ValueId], lane_free: f64) -> f64 {
        let mut dep_free = lane_free;
        let mut binding: Option<(usize, f64)> = None;
        for &v in operands {
            let r = self.ready[v.0 as usize];
            match self.producer[v.0 as usize] {
                Some(ci) if self.colls[ci].unconsumed_end.is_some() => {
                    if binding.is_none_or(|(_, e)| r > e) {
                        binding = Some((ci, r));
                    }
                }
                _ => dep_free = dep_free.max(r),
            }
        }
        let start = binding.map_or(dep_free, |(_, e)| dep_free.max(e));
        if let Some((ci, end)) = binding {
            self.colls[ci].exposed += (end - dep_free).max(0.0);
        }
        for &v in operands {
            if let Some(ci) = self.producer[v.0 as usize].take() {
                self.colls[ci].unconsumed_end = None;
            }
        }
        start
    }

    fn walk(&mut self, func: &Func, body: &[OpId]) -> Result<(), IrError> {
        for &op_id in body {
            let op = func.op(op_id);
            match &op.kind {
                OpKind::For { trip_count } => {
                    let region = op.region.as_ref().expect("for has region");
                    for iter in 0..*trip_count {
                        // Wire carried values: inits on the first
                        // iteration, the previous yield afterwards. The
                        // i32 index is host-side and free.
                        for (i, &p) in region.params[1..].iter().enumerate() {
                            let src = if iter == 0 {
                                op.operands[i]
                            } else {
                                region.results[i]
                            };
                            self.ready[p.0 as usize] = self.ready[src.0 as usize];
                            self.producer[p.0 as usize] = self.producer[src.0 as usize];
                        }
                        self.walk(func, &region.body)?;
                    }
                    for (i, &r) in op.results.iter().enumerate() {
                        let src = region.results[i];
                        self.ready[r.0 as usize] = self.ready[src.0 as usize];
                        self.producer[r.0 as usize] = self.producer[src.0 as usize];
                    }
                }
                OpKind::Collective(c) => {
                    let operand_ty = func.value_type(op.operands[0]);
                    let result_ty = func.value_type(op.results[0]);
                    let (t, by) = collective_time(c, operand_ty, result_ty, self.hw)?;
                    let t = t * self.jitter() + self.cfg.op_overhead_s;
                    // The link lanes: one per mesh axis; a multi-axis
                    // collective holds all its axes' lanes throughout.
                    let lanes_free = c
                        .axes()
                        .iter()
                        .map(|a| self.link_free.get(a).copied().unwrap_or(0.0))
                        .fold(0.0f64, f64::max);
                    let start = self.consume_operands(&op.operands, lanes_free);
                    let end = start + t;
                    for a in c.axes() {
                        self.link_free.insert(a.clone(), end);
                    }
                    self.comm += t;
                    self.bytes += by;
                    self.ready[op.results[0].0 as usize] = end;
                    let ci = self.static_index[&op_id];
                    self.colls[ci].duration += t;
                    self.colls[ci].unconsumed_end = Some(end);
                    self.producer[op.results[0].0 as usize] = Some(ci);
                }
                _ => {
                    let t = self.op_time(func, op_id) * self.jitter() + self.cfg.op_overhead_s;
                    let start = self.consume_operands(&op.operands, self.compute_free);
                    let end = start + t;
                    self.compute_free = end;
                    self.compute += t;
                    for &r in &op.results {
                        self.ready[r.0 as usize] = end;
                    }
                }
            }
        }
        Ok(())
    }

    /// Completion time of the program: its results, plus every lane
    /// draining (a collective still on the wire holds the step open).
    fn finish_time(&self, func: &Func) -> f64 {
        let results = func
            .results()
            .iter()
            .map(|&v| self.ready[v.0 as usize])
            .fold(self.compute_free, f64::max);
        self.link_free.values().copied().fold(results, f64::max)
    }

    fn op_time(&self, func: &Func, op_id: OpId) -> f64 {
        let flops = flops_of(func, op_id);
        // Real kernels lose efficiency on small tiles.
        let eff = if flops < 1e7 { 0.3 } else { MATMUL_EFFICIENCY };
        Roofline::new(&self.hw.device, eff).op_time(
            op_class(&func.op(op_id).kind),
            flops,
            moved_bytes_of(func, op_id),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulator};
    use partir_ir::{Collective, FuncBuilder, ReduceOp, TensorType};
    use partir_mesh::Mesh;

    fn all_reduce_b() -> Collective {
        Collective::AllReduce {
            axes: vec!["B".into()],
            reduce: ReduceOp::Sum,
        }
    }

    fn sample_func() -> Func {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([2048, 2048]));
        let w = b.param("w", TensorType::f32([2048, 2048]));
        let y = b.matmul(x, w).unwrap();
        let z = b.tanh(y).unwrap();
        b.build([z]).unwrap()
    }

    #[test]
    fn measurement_close_to_estimate_but_not_equal() {
        let hw = HardwareConfig::tpu_v3_pod(Mesh::single("B", 4).unwrap());
        let f = sample_func();
        let est = Simulator::new(&hw, SimConfig::default())
            .simulate(&f)
            .unwrap();
        let meas = measure(&f, &hw, &EventConfig::default()).unwrap();
        assert_ne!(est.runtime_s, meas.runtime_s);
        // Within a factor of 3 — the simulator is a coarse proxy.
        let ratio = meas.runtime_s / est.runtime_s;
        assert!(ratio > 0.3 && ratio < 3.0, "ratio {ratio}");
    }

    #[test]
    fn measurement_is_deterministic() {
        let hw = HardwareConfig::tpu_v3_pod(Mesh::single("B", 4).unwrap());
        let f = sample_func();
        let a = measure(&f, &hw, &EventConfig::default()).unwrap();
        let b = measure(&f, &hw, &EventConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn measured_memory_is_below_estimate() {
        let f = sample_func();
        assert!(measured_memory(&f) < peak_memory_bytes(&f));
    }

    /// A collective whose result is consumed only after independent
    /// compute overlaps; one consumed immediately does not.
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
        let mut b = FuncBuilder::with_mesh("tight", mesh);
        let x = b.param("x", small);
        let w = b.param("w", big);
        let r = b.collective(all_reduce_b(), x).unwrap();
        let t = b.tanh(r).unwrap();
        let m = b.matmul(w, w).unwrap();
        let tight = b.build([t, m]).unwrap();

        let cfg = EventConfig::default();
        let (_, slack_pred) = measure_overlap(&slack, &hw, &cfg).unwrap();
        let (_, tight_pred) = measure_overlap(&tight, &hw, &cfg).unwrap();
        assert_eq!(slack_pred.collectives.len(), 1);
        assert!(
            slack_pred.hidden_fraction() > 0.9,
            "slack should hide the collective: {:?}",
            slack_pred
        );
        assert!(
            tight_pred.hidden_fraction() < 0.1,
            "tight chain cannot hide the collective: {:?}",
            tight_pred
        );
        // Overlap shortens the critical path.
        let (slack_rep, _) = measure_overlap(&slack, &hw, &cfg).unwrap();
        let (tight_rep, _) = measure_overlap(&tight, &hw, &cfg).unwrap();
        assert!(slack_rep.runtime_s < tight_rep.runtime_s);
    }
}
