//! The formulas of the cost model (paper §3, Appendix A.5), each stated
//! once as a pure function.
//!
//! The analytical simulator (`partir_sim`), the static objective
//! ([`crate::objective`]) and the runtime's traffic predictor
//! (`partir_spmd::predict_traffic`) walk different program forms — a
//! lowered device-local function, a propagated partitioning, collective
//! ops on a mesh — but they must price what they find identically. The
//! walks stay where they are; what an op, a collective stage or an
//! over-budget peak *costs* is defined here and nowhere else:
//!
//! * [`op_class`] / [`op_flops`] / [`Roofline::op_time`] — compute;
//! * [`RingKind`] with [`ring_time`] (seconds and wire bytes per device)
//!   and [`ring_traffic`] (exact bytes summed over devices) —
//!   communication;
//! * [`oom_penalty`] — the multiplicative out-of-memory penalty;
//! * [`MATMUL_EFFICIENCY`] / [`HBM_EFFICIENCY`] — the achieved fractions
//!   of peak.
//!
//! Floating-point operation order is part of the contract: searches
//! compare costs from different walks for exact equality.

use std::ops::{Div, Mul};

use partir_ir::{Collective, OpKind, Shape};
use partir_mesh::{Axis, DeviceSpec};

/// Fraction of peak FLOPS achieved by contraction ops (matmul/conv).
pub const MATMUL_EFFICIENCY: f64 = 0.55;

/// Fraction of peak HBM bandwidth achieved by memory-bound ops.
pub const HBM_EFFICIENCY: f64 = 0.7;

/// Roofline class of an op: which peak its flop term divides by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Matmul/convolution: derated peak FLOPS.
    Contraction,
    /// Materialised at compile time: free.
    Constant,
    /// Everything else: memory-bound unless its flops say otherwise.
    Other,
}

/// The roofline class of `kind`.
pub fn op_class(kind: &OpKind) -> OpClass {
    match kind {
        OpKind::Dot(_)
        | OpKind::Convolution(_)
        | OpKind::ConvInputGrad { .. }
        | OpKind::ConvFilterGrad { .. } => OpClass::Contraction,
        OpKind::Constant(_) => OpClass::Constant,
        _ => OpClass::Other,
    }
}

/// What [`op_flops`] reads of a tensor shape, so one formula serves
/// `ir::Shape` and the objective's packed device-local shapes.
pub trait ShapeView {
    /// Extent of dimension `d`.
    fn dim(&self, d: usize) -> usize;
    /// Total element count.
    fn num_elements(&self) -> f64;
}

impl ShapeView for Shape {
    fn dim(&self, d: usize) -> usize {
        Shape::dim(self, d)
    }

    fn num_elements(&self) -> f64 {
        Shape::num_elements(self) as f64
    }
}

impl<S: ShapeView> ShapeView for &S {
    fn dim(&self, d: usize) -> usize {
        S::dim(self, d)
    }

    fn num_elements(&self) -> f64 {
        S::num_elements(self)
    }
}

/// Floating point operations performed by one op with the given operand
/// and result shapes. Elementwise ops count one flop per output element;
/// contractions count multiply-accumulates as two; data movement and
/// bookkeeping ops count none.
#[inline]
pub fn op_flops<S: ShapeView>(kind: &OpKind, operands: &[S], result: &S) -> f64 {
    match kind {
        OpKind::Dot(dims) => {
            let contract: f64 = dims
                .lhs_contract
                .iter()
                .map(|&d| operands[0].dim(d) as f64)
                .product();
            2.0 * result.num_elements() * contract
        }
        OpKind::Convolution(_) => {
            let k = &operands[1];
            // per output element: Ci * kh * kw MACs.
            2.0 * result.num_elements() * (k.dim(1) * k.dim(2) * k.dim(3)) as f64
        }
        OpKind::ConvInputGrad { .. } => {
            let k = &operands[1];
            2.0 * operands[0].num_elements() * (k.dim(1) * k.dim(2) * k.dim(3)) as f64
        }
        OpKind::ConvFilterGrad { .. } => {
            let g = &operands[1];
            2.0 * result.num_elements() * (g.dim(0) * g.dim(2) * g.dim(3)) as f64
        }
        OpKind::Reduce { .. } | OpKind::ArgMax { .. } | OpKind::ScatterAdd { .. } => {
            operands[0].num_elements()
        }
        OpKind::Unary(_)
        | OpKind::Binary(_)
        | OpKind::Compare(_)
        | OpKind::Select
        | OpKind::Convert(_) => result.num_elements(),
        OpKind::Constant(_)
        | OpKind::Iota { .. }
        | OpKind::Transpose { .. }
        | OpKind::Reshape { .. }
        | OpKind::BroadcastInDim { .. }
        | OpKind::Slice { .. }
        | OpKind::Pad { .. }
        | OpKind::Concatenate { .. }
        | OpKind::DynamicSlice { .. }
        | OpKind::DynamicUpdateSlice
        | OpKind::Gather { .. }
        | OpKind::For { .. }
        | OpKind::Collective(_) => 0.0,
    }
}

/// Roofline denominators of one device.
#[derive(Debug, Clone, Copy)]
pub struct Roofline {
    contraction_flops: f64,
    peak_flops: f64,
    hbm: f64,
}

impl Roofline {
    /// The roofline of `device` with contractions running at
    /// `matmul_efficiency` of peak ([`MATMUL_EFFICIENCY`], except where
    /// the event model derates small tiles).
    pub fn new(device: &DeviceSpec, matmul_efficiency: f64) -> Self {
        Roofline {
            contraction_flops: device.peak_flops_f32 * matmul_efficiency,
            peak_flops: device.peak_flops_f32,
            hbm: device.hbm_bandwidth * HBM_EFFICIENCY,
        }
    }

    /// Seconds one op of `class` takes doing `flops` floating point
    /// operations and moving `moved_bytes` (operands plus result)
    /// through HBM: the slower of the two.
    #[inline]
    pub fn op_time(&self, class: OpClass, flops: f64, moved_bytes: f64) -> f64 {
        match class {
            OpClass::Contraction => (flops / self.contraction_flops).max(moved_bytes / self.hbm),
            OpClass::Constant => 0.0,
            OpClass::Other => (moved_bytes / self.hbm).max(flops / self.peak_flops),
        }
    }
}

/// The multiplicative penalty on a partitioning whose peak memory
/// exceeds device HBM (1.0 when it fits) — the paper's "penalizes
/// models that exceed device memory limits".
pub fn oom_penalty(peak_memory_bytes: u64, hbm_bytes: u64) -> f64 {
    let mem = peak_memory_bytes as f64;
    let cap = hbm_bytes as f64;
    if mem > cap {
        10.0 * (mem / cap)
    } else {
        1.0
    }
}

/// The communicating collectives, as ring algorithms executed one mesh
/// axis (one *stage*) at a time. `all_slice` is device-local and has no
/// ring form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingKind {
    /// Reduce-scatter then all-gather ring: two passes, size unchanged.
    AllReduce,
    /// Sizes grow ×k per stage; each stage moves its *output*.
    AllGather,
    /// Sizes shrink ÷k per stage; each stage moves its *input*.
    ReduceScatter,
    /// Pairwise exchange: one pass, size unchanged.
    AllToAll,
}

/// How the per-device size changes across one ring stage.
#[derive(Clone, Copy)]
enum Resize {
    Keep,
    Grow,
    Shrink,
}

impl Resize {
    /// `(full, next)` for a stage over an axis of size `k` entered with
    /// `bytes`: the size each ring pass moves `(k-1)/k` of — the larger
    /// of the stage's input and output — and the size it leaves behind.
    fn step<T: Copy + Mul<Output = T> + Div<Output = T>>(self, bytes: T, k: T) -> (T, T) {
        match self {
            Resize::Keep => (bytes, bytes),
            Resize::Grow => (bytes * k, bytes * k),
            Resize::Shrink => (bytes, bytes / k),
        }
    }
}

impl RingKind {
    /// The stage rule: ring passes over the axis, and how the size
    /// changes.
    const fn rule(self) -> (u32, Resize) {
        match self {
            RingKind::AllReduce => (2, Resize::Keep),
            RingKind::AllGather => (1, Resize::Grow),
            RingKind::ReduceScatter => (1, Resize::Shrink),
            RingKind::AllToAll => (1, Resize::Keep),
        }
    }
}

/// The ring form of `c` and its stage axes in execution order:
/// dimensions ascending, a gathered dimension's axes innermost-first
/// (sizes grow outward), a scattered one's outermost-first. `None` for
/// the device-local `all_slice`.
pub fn ring_stages(c: &Collective) -> Option<(RingKind, Vec<&Axis>)> {
    Some(match c {
        Collective::AllSlice { .. } => return None,
        Collective::AllReduce { axes, .. } => (RingKind::AllReduce, axes.iter().collect()),
        Collective::AllToAll { axes, .. } => (RingKind::AllToAll, axes.iter().collect()),
        Collective::AllGather { dim_axes } => (
            RingKind::AllGather,
            dim_axes.iter().flat_map(|axes| axes.iter().rev()).collect(),
        ),
        Collective::ReduceScatter { dim_axes, .. } => {
            (RingKind::ReduceScatter, dim_axes.iter().flatten().collect())
        }
    })
}

/// Ring cost of one collective on one device: `(seconds, wire bytes)`
/// for a `bytes`-sized local operand, folding the stage rule over the
/// `(axis size, bandwidth, latency)` of each stage in execution order.
#[inline]
pub fn ring_time(
    kind: RingKind,
    mut bytes: f64,
    stages: impl IntoIterator<Item = (f64, f64, f64)>,
) -> (f64, f64) {
    let (passes, resize) = kind.rule();
    let passes = f64::from(passes);
    let mut time = 0.0;
    let mut wire = 0.0;
    for (k, bw, lat) in stages {
        let (full, next) = resize.step(bytes, k);
        let moved = passes * (k - 1.0) / k * full;
        time += moved / bw + passes * (k - 1.0) * lat;
        wire += moved;
        bytes = next;
    }
    (time, wire)
}

/// The exact integer form of [`ring_time`]'s wire bytes, summed over all
/// `devices` of the mesh: bytes moved by each stage, for stage axis
/// sizes `ks`. Every axis size divides `devices`, so `devices / k`
/// groups each move `passes · (k-1)` full-size payloads per stage.
pub fn ring_traffic(kind: RingKind, mut bytes: u64, devices: u64, ks: &[u64]) -> Vec<u64> {
    let (passes, resize) = kind.rule();
    ks.iter()
        .map(|&k| {
            let (full, next) = resize.step(bytes, k);
            bytes = next;
            u64::from(passes) * (devices / k) * (k - 1) * full
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [RingKind; 4] = [
        RingKind::AllReduce,
        RingKind::AllGather,
        RingKind::ReduceScatter,
        RingKind::AllToAll,
    ];

    /// The two folds are one rule: per-device wire bytes × devices equals
    /// the integer traffic, stage by stage (power-of-two axes keep the
    /// float side exact).
    #[test]
    fn float_and_integer_folds_agree() {
        let ks = [2u64, 4, 8];
        let devices: u64 = ks.iter().product();
        for kind in KINDS {
            let traffic = ring_traffic(kind, 1 << 20, devices, &ks);
            let links = ks.iter().map(|&k| (k as f64, 1e9, 0.0));
            let (_, wire) = ring_time(kind, (1u64 << 20) as f64, links);
            let total: u64 = traffic.iter().sum();
            assert_eq!(wire * devices as f64, total as f64, "{kind:?}");
        }
    }

    #[test]
    fn all_reduce_moves_twice_what_all_to_all_does() {
        let links = [(4.0, 1e9, 1e-6)];
        let (t_ar, b_ar) = ring_time(RingKind::AllReduce, 4096.0, links);
        let (t_a2a, b_a2a) = ring_time(RingKind::AllToAll, 4096.0, links);
        assert_eq!(b_ar, 2.0 * b_a2a);
        assert_eq!(t_ar, 2.0 * t_a2a);
    }

    #[test]
    fn penalty_starts_at_the_capacity() {
        assert_eq!(oom_penalty(100, 100), 1.0);
        assert_eq!(oom_penalty(200, 100), 20.0);
    }
}
