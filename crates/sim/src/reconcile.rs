//! Predicted-vs-executed traffic reconciliation.
//!
//! The threaded runtime ([`partir_spmd::ThreadedRuntime`]) counts every
//! byte it actually moves into [`RuntimeStats`]. Two independent models
//! predict that traffic:
//!
//! 1. the exact mirror [`partir_spmd::predict_traffic`], which walks the
//!    program and replays the collective algorithms' chunking — it must
//!    agree *exactly*, per axis, in both bytes and message counts;
//! 2. the analytical cost model ([`crate::Simulator`]), whose per-device
//!    `comm_bytes` times the device count must agree up to floating
//!    point (its ring formulas `2(k-1)/k·n`, `(k-1)/k·n`, … are the
//!    real-valued forms of what the runtime moves), except for the
//!    multi-axis all-to-all fallback where the executed algorithm is the
//!    unfused gather+slice composition.
//!
//! [`reconcile`] packages both comparisons; conformance and property
//! tests assert [`Reconciliation::is_exact`] and inspect
//! [`Reconciliation::analytic_relative_error`].
//!
//! The runtime executes compiled plans (`partir_spmd::CompiledPlan`)
//! whose collective schedules — rendezvous partners and per-axis byte
//! counts — are baked at plan-compile time. Reconciliation is therefore
//! also a check on that ahead-of-time wiring: the bytes a plan's baked
//! schedule actually moves must still match the mirror exactly.
//!
//! [`RuntimeStats`]: partir_spmd::RuntimeStats

use std::collections::BTreeSet;

use partir_ir::IrError;
use partir_mesh::{Axis, HardwareConfig};
use partir_obs::Trace;
use partir_spmd::{CollWindow, RuntimeStats, SpmdProgram, TrafficPrediction};

use crate::event::OverlapPrediction;
use crate::{SimConfig, Simulator};

/// Predicted vs executed traffic on one mesh axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisCheck {
    /// The mesh axis.
    pub axis: Axis,
    /// Bytes the mirror predicted.
    pub predicted_bytes: u64,
    /// Bytes the runtime moved.
    pub executed_bytes: u64,
    /// Messages the mirror predicted.
    pub predicted_messages: u64,
    /// Messages the runtime sent.
    pub executed_messages: u64,
}

impl AxisCheck {
    /// Whether prediction and execution agree exactly on this axis.
    pub fn is_exact(&self) -> bool {
        self.predicted_bytes == self.executed_bytes
            && self.predicted_messages == self.executed_messages
    }
}

/// Result of cross-checking one execution against both predictors.
#[derive(Debug, Clone)]
pub struct Reconciliation {
    /// Per-axis mirror comparison (union of predicted and executed axes).
    pub per_axis: Vec<AxisCheck>,
    /// The analytical model's per-device communication bytes.
    pub analytic_bytes_per_device: f64,
    /// Total bytes the runtime moved, summed over devices.
    pub executed_total_bytes: u64,
    /// Devices in the mesh.
    pub num_devices: usize,
}

impl Reconciliation {
    /// Whether executed traffic equals the mirror prediction exactly on
    /// every axis (bytes and messages).
    pub fn is_exact(&self) -> bool {
        self.per_axis.iter().all(AxisCheck::is_exact)
    }

    /// Relative disagreement between executed total bytes and the
    /// analytical model's total (`comm_bytes × num_devices`).
    ///
    /// Zero (up to f64 rounding) for every fused collective; the
    /// multi-axis all-to-all fallback legitimately exceeds the analytic
    /// figure because it executes the unfused gather+slice composition.
    pub fn analytic_relative_error(&self) -> f64 {
        let analytic = self.analytic_bytes_per_device * self.num_devices as f64;
        let executed = self.executed_total_bytes as f64;
        (executed - analytic).abs() / analytic.max(1.0)
    }
}

/// Cross-checks an execution's [`RuntimeStats`] against the exact mirror
/// prediction and the analytical cost model.
///
/// # Errors
///
/// Fails if the program is malformed (prediction or simulation walks
/// reject it).
pub fn reconcile(
    program: &SpmdProgram,
    hw: &HardwareConfig,
    stats: &RuntimeStats,
) -> Result<Reconciliation, IrError> {
    let predicted: TrafficPrediction = program.predicted_traffic()?;
    let report = Simulator::new(hw, SimConfig::default()).simulate(program.func())?;
    let axes: BTreeSet<Axis> = predicted
        .per_axis
        .keys()
        .chain(stats.per_axis.keys())
        .cloned()
        .collect();
    let per_axis = axes
        .into_iter()
        .map(|axis| {
            let p = predicted.per_axis.get(&axis).copied().unwrap_or_default();
            let e = stats.per_axis.get(&axis).copied().unwrap_or_default();
            AxisCheck {
                axis,
                predicted_bytes: p.bytes,
                executed_bytes: e.bytes,
                predicted_messages: p.messages,
                executed_messages: e.messages,
            }
        })
        .collect();
    Ok(Reconciliation {
        per_axis,
        analytic_bytes_per_device: report.comm_bytes,
        executed_total_bytes: stats.total_bytes(),
        num_devices: program.mesh().num_devices(),
    })
}

/// Measured-vs-predicted overlap of one collective, across all device
/// tracks of one traced execution.
///
/// *Measured* overlap is structural, read off the real device timelines:
/// a collective overlapped iff other plan steps ran between its
/// `coll.start.<tag>` span and its `coll.wait.<tag>` span. This is
/// clock-free — adjacent spans always have a few nanoseconds between
/// them, so the wall-clock gap alone cannot distinguish "the runtime
/// did compute under this collective" from span-transition cost.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapCheck {
    /// Rendezvous tag (static collective index, plan/tag order).
    pub tag: u32,
    /// Steps between start and wait in the compiled plan (per
    /// [`CollWindow`]); >0 means the compiler found slack to hoist into.
    pub planned_gap_steps: usize,
    /// Seconds the plan walk ([`crate::event`]) predicts this collective
    /// hides under compute.
    pub predicted_hidden_s: f64,
    /// The plan walk's total duration for this collective.
    pub predicted_duration_s: f64,
    /// Start/wait span pairs found on device tracks (devices ×
    /// iterations).
    pub measured_pairs: usize,
    /// Spans of other steps that ran strictly inside this collective's
    /// start→wait windows, totalled over all pairs.
    pub intervening_steps: usize,
    /// Total wall-clock start→wait gap over all pairs, nanoseconds.
    pub measured_window_ns: u64,
}

impl OverlapCheck {
    /// Whether the compiled plan scheduled this collective with a window.
    pub fn planned(&self) -> bool {
        self.planned_gap_steps > 0
    }

    /// Whether the plan walk predicts any of it hides under compute.
    pub fn predicted(&self) -> bool {
        self.predicted_hidden_s > 1e-12
    }

    /// Whether the device traces show real work inside the window.
    pub fn measured(&self) -> bool {
        self.intervening_steps > 0
    }
}

/// Result of cross-checking measured overlap (device-trace span gaps)
/// against the plan's windows and the plan walk's prediction.
#[derive(Debug, Clone)]
pub struct OverlapReconciliation {
    /// Per collective, in tag order. Only collectives whose spans appear
    /// on at least one device track are listed.
    pub per_collective: Vec<OverlapCheck>,
}

impl OverlapReconciliation {
    /// Fraction of traced collectives where the runtime's measured
    /// overlap agrees with the plan's window (both present or both
    /// absent). The plan and the runtime share the step list, so this
    /// should be 1.0.
    pub fn plan_agreement(&self) -> f64 {
        self.agreement(|c| c.planned())
    }

    /// Fraction of traced collectives where the plan walk's prediction
    /// agrees with the measurement. Both read the same step list, so
    /// they part only where a window's time does not: a collective that
    /// costs nothing on the link (an `all_slice`) hides nothing, and one
    /// queued behind another on its link may land after its window.
    /// Conformance asserts this stays above `1 - tolerance`.
    pub fn model_agreement(&self) -> f64 {
        self.agreement(|c| c.predicted())
    }

    fn agreement(&self, f: impl Fn(&OverlapCheck) -> bool) -> f64 {
        if self.per_collective.is_empty() {
            return 1.0;
        }
        let agree = self
            .per_collective
            .iter()
            .filter(|c| f(c) == c.measured())
            .count();
        agree as f64 / self.per_collective.len() as f64
    }
}

/// Cross-checks one traced execution's *measured* overlap against the
/// compiled plan's collective windows and the plan walk.
///
/// `windows` comes from `CompiledPlan::collective_windows()`,
/// `prediction` from [`crate::event::measure_overlap`], and `trace` from
/// the obs collector that recorded the run (device tracks `device0`,
/// `device1`, …).
pub fn reconcile_overlap(
    windows: &[CollWindow],
    prediction: &OverlapPrediction,
    trace: &Trace,
) -> OverlapReconciliation {
    let per_collective = windows
        .iter()
        .map(|w| {
            let start_name = format!("coll.start.{}", w.tag);
            let wait_name = format!("coll.wait.{}", w.tag);
            let mut measured_pairs = 0;
            let mut intervening_steps = 0;
            let mut measured_window_ns = 0u64;
            for track in trace.tracks.iter().filter(|t| t.name.starts_with("device")) {
                let starts: Vec<_> = track
                    .spans
                    .iter()
                    .filter(|s| s.name == start_name.as_str())
                    .collect();
                let waits: Vec<_> = track
                    .spans
                    .iter()
                    .filter(|s| s.name == wait_name.as_str())
                    .collect();
                for (s, t) in starts.iter().zip(&waits) {
                    measured_pairs += 1;
                    measured_window_ns += t.start_ns.saturating_sub(s.end_ns);
                    if t.start_ns > s.end_ns {
                        intervening_steps += track
                            .spans
                            .iter()
                            .filter(|o| {
                                o.depth == s.depth
                                    && o.start_ns >= s.end_ns
                                    && o.end_ns <= t.start_ns
                            })
                            .count();
                    }
                }
            }
            let pred = prediction.collectives.iter().find(|c| c.index == w.tag);
            OverlapCheck {
                tag: w.tag,
                planned_gap_steps: w.gap_steps,
                predicted_hidden_s: pred.map_or(0.0, |c| c.hidden_s),
                predicted_duration_s: pred.map_or(0.0, |c| c.duration_s),
                measured_pairs,
                intervening_steps,
                measured_window_ns,
            }
        })
        .filter(|c| c.measured_pairs > 0)
        .collect();
    OverlapReconciliation { per_collective }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_core::Partitioning;
    use partir_ir::{FuncBuilder, Literal, TensorType};
    use partir_mesh::Mesh;
    use partir_spmd::RuntimeConfig;

    /// A batch-tiled matmul chain whose contraction forces an all_reduce.
    fn contracting_program(mesh: Mesh) -> SpmdProgram {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([8, 16]));
        let w = b.param("w", TensorType::f32([16, 4]));
        let y = b.matmul(x, w).unwrap();
        let f = b.build([y]).unwrap();
        let mut part = Partitioning::new(&f, mesh).unwrap();
        // Tile the contracting dimension: the matmul becomes a partial
        // sum finished by an all_reduce.
        part.tile(&f, x, 1, &"M".into()).unwrap();
        part.tile(&f, w, 0, &"M".into()).unwrap();
        part.propagate(&f);
        partir_spmd::lower(&f, &part).unwrap()
    }

    #[test]
    fn executed_traffic_reconciles_with_both_models() {
        let mesh = Mesh::new([("B", 2), ("M", 2)]).unwrap();
        let program = contracting_program(mesh.clone());
        assert!(program.stats().all_reduce > 0, "schedule must communicate");
        let inputs = [
            Literal::from_f32((0..128).map(|v| v as f32 * 0.01).collect(), [8, 16]).unwrap(),
            Literal::from_f32((0..64).map(|v| v as f32 * 0.02 - 0.5).collect(), [16, 4]).unwrap(),
        ];
        let (_, stats) = program
            .execute_global_threaded(&inputs, &RuntimeConfig::default())
            .unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh);
        let rec = reconcile(&program, &hw, &stats).unwrap();
        assert!(rec.is_exact(), "mirror mismatch: {:?}", rec.per_axis);
        assert!(rec.executed_total_bytes > 0);
        assert!(
            rec.analytic_relative_error() < 1e-9,
            "analytic error {} (analytic {} executed {})",
            rec.analytic_relative_error(),
            rec.analytic_bytes_per_device * rec.num_devices as f64,
            rec.executed_total_bytes,
        );
    }

    #[test]
    fn mismatched_stats_are_flagged() {
        let mesh = Mesh::new([("B", 2), ("M", 2)]).unwrap();
        let program = contracting_program(mesh.clone());
        let hw = HardwareConfig::tpu_v3_pod(mesh);
        // Empty stats against a communicating program: inconsistent.
        let rec = reconcile(&program, &hw, &RuntimeStats::default()).unwrap();
        assert!(!rec.is_exact());
    }
}
