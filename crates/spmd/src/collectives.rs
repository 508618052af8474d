//! Channel-based collective exchange algorithms for the threaded runtime,
//! plus an exact traffic predictor the simulator reconciles against.
//!
//! Each algorithm is written from the perspective of *one* device and
//! communicates through the [`Exchange`] trait (implemented by the
//! runtime's per-device channel endpoints). The algorithms are the
//! standard hierarchical ones — per mesh axis, in axis order:
//!
//! * `all_reduce`: leader — the group leader receives every member's
//!   full payload, folds them *linearly in coordinate order* into its own,
//!   and broadcasts the result (one payload, shared by refcount). The
//!   fold order makes the result bit-identical to the staged
//!   [`crate::apply_collective`] under any interleaving, and the leader
//!   moves `2(k-1)·n` bytes per group in `2(k-1)` messages: the bytes of
//!   the analytical ring formula, at any payload size.
//! * `all_gather`: ring — `k-1` steps forwarding the most recently
//!   received block, then concatenation in coordinate order.
//! * `reduce_scatter`: per axis, direct exchange of the eventual output
//!   slices, folded linearly in coordinate order (slicing commutes with
//!   the elementwise fold, so this too is bit-identical to
//!   all_reduce-then-slice).
//! * `all_to_all`: single-axis direct pairwise exchange; multi-axis
//!   falls back to ring all-gather + local slice.
//! * `all_slice`: device-local, no communication.
//!
//! **Planned once, finished in the arena.** [`plan_collective`] plans a
//! collective when its plan is compiled: the strided view that cuts a
//! stage's pieces (chunk `j` is the same view `j` chunks further in), the
//! `concatenate` kernel that joins a gather or an `all_to_all`, and the
//! trailing local slice (the same view on every device, at a
//! per-device offset). At run time a collective's start copies out of
//! the operand's arena slot only what leaves the device and the piece
//! its own wait needs; the wait folds or joins what it receives straight
//! into the result's slot. A stage that feeds another stage produces a
//! `Literal`, because its result is the next stage's payload. Messages
//! own their data: a payload is a `Literal` the sender hands over, and a
//! broadcast or a forwarded ring block shares one buffer by refcount.
//!
//! [`predict_traffic`] states exactly what the algorithms move, byte for
//! byte and message for message, from types alone. Its byte column is
//! the analytical model's ring stage rule in exact integer form
//! (`partir_analysis::cost::ring_traffic`); message counts are the
//! runtime's own. It is the oracle
//! `partir_sim::reconcile` checks [`RuntimeStats`] against.
//!
//! [`RuntimeStats`]: crate::runtime::RuntimeStats

use std::collections::BTreeMap;

use partir_analysis::cost::{ring_stages, ring_traffic, RingKind};
use partir_ir::kernels::{fold_reduce, Buf, BufMut, SliceKernel};
use partir_ir::{Collective, Func, IrError, Literal, OpId, OpKind, ReduceOp, Shape, TensorType};
use partir_mesh::{Axis, Mesh};

use crate::runtime::RuntimeError;

/// Bytes and message count moved over one mesh axis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AxisTraffic {
    /// Payload bytes sent over links of this axis (summed over devices).
    pub bytes: u64,
    /// Messages sent over links of this axis (summed over devices).
    pub messages: u64,
}

impl AxisTraffic {
    /// Accumulates another traffic record.
    pub fn add(&mut self, other: AxisTraffic) {
        self.bytes += other.bytes;
        self.messages += other.messages;
    }
}

/// Exact per-axis traffic a program will move under the threaded runtime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficPrediction {
    /// Per-axis predicted traffic; axes that move no bytes are absent.
    pub per_axis: BTreeMap<Axis, AxisTraffic>,
}

impl TrafficPrediction {
    /// Total predicted bytes over all axes.
    pub fn total_bytes(&self) -> u64 {
        self.per_axis.values().map(|t| t.bytes).sum()
    }

    /// Predicted bytes on one axis (0 if the axis moves nothing).
    pub fn bytes_on(&self, axis: &Axis) -> u64 {
        self.per_axis.get(axis).map_or(0, |t| t.bytes)
    }
}

/// The communication endpoint one device's collectives run over.
///
/// `send` must be non-blocking (the runtime uses unbounded channels);
/// `recv` blocks until the peer's message arrives, or fails on a
/// rendezvous timeout or a detected deadlock.
///
/// Every message carries a `tag` identifying the collective instance it
/// belongs to. Overlapped plans hoist one collective's eager sends above
/// another collective's receives on the same channel, so receives match
/// by `(src, tag)` — FIFO within a tag — instead of raw channel order.
pub(crate) trait Exchange {
    /// This device's id.
    fn device(&self) -> usize;
    /// Sends `payload` to `dst`, attributing the traffic to `axis`.
    fn send(
        &mut self,
        dst: usize,
        axis: &Axis,
        tag: u32,
        payload: Literal,
    ) -> Result<(), RuntimeError>;
    /// Receives the next `tag`-matching message from `src`, attributing
    /// it to `axis`.
    fn recv(&mut self, src: usize, axis: &Axis, tag: u32) -> Result<Literal, RuntimeError>;
}

fn invalid(e: impl std::fmt::Display) -> RuntimeError {
    RuntimeError::Ir(IrError::invalid(e.to_string()))
}

/// One per-axis exchange stage of a compiled collective schedule: the
/// device's group along the axis and its position in it, resolved once
/// at plan-compile time so the steady-state loop never queries the mesh
/// (the old `group_of` lookup allocated a fresh group `Vec` per call).
#[derive(Debug, Clone)]
pub(crate) struct AxisStage {
    /// The mesh axis the traffic is attributed to.
    pub(crate) axis: Axis,
    /// Tensor dimension the stage operates on (gather/scatter dim;
    /// unused for all_reduce stages).
    pub(crate) dim: usize,
    /// The device's communication group along the axis, in coordinate
    /// order.
    pub(crate) group: Vec<usize>,
    /// This device's position in `group`.
    pub(crate) my_pos: usize,
}

/// A fully wired collective schedule for one device: the ordered exchange
/// stages (size-1 axes already dropped) and where this device's piece of
/// the trailing local slice starts. Baked into compiled execution plans
/// beside the device-independent [`CollKernels`].
#[derive(Debug, Clone, Default)]
pub(crate) struct CollSched {
    /// Ordered communication stages.
    pub(crate) stages: Vec<AxisStage>,
    /// Element offset of this device's piece in the value the trailing
    /// local slice cuts ([`CollKernels`]); 0 without one.
    slice_base: usize,
}

/// One device-local slice `(dim, k, coord)`: chunk `coord` of `k` along
/// `dim`.
type Cut = (usize, usize, usize);

/// Resolves one collective's communication pattern for one device:
/// groups and positions in exactly the stage order [`start_scheduled`] +
/// [`wait_scheduled`] execute, and the trailing device-local slices
/// `(dim, k, coord)`.
fn schedule_collective(
    c: &Collective,
    mesh: &Mesh,
    device: usize,
) -> Result<(CollSched, Vec<Cut>), IrError> {
    let err = |e: partir_mesh::MeshError| IrError::invalid(e.to_string());
    let stage_for = |axis: &Axis, dim: usize| -> Result<Option<AxisStage>, IrError> {
        let group = mesh.axis_group(device, axis).map_err(err)?;
        if group.len() == 1 {
            return Ok(None);
        }
        let my_pos = group
            .iter()
            .position(|&d| d == device)
            .expect("device in own group");
        Ok(Some(AxisStage {
            axis: axis.clone(),
            dim,
            group,
            my_pos,
        }))
    };
    let slice_for = |axis: &Axis, dim: usize| -> Result<Cut, IrError> {
        let k = mesh.axis_size(axis).map_err(err)?;
        let coord = mesh.coordinate_along(device, axis).map_err(err)?;
        Ok((dim, k, coord))
    };
    let mut sched = CollSched::default();
    let mut slices = Vec::new();
    match c {
        Collective::AllReduce { axes, .. } => {
            for axis in axes {
                sched.stages.extend(stage_for(axis, 0)?);
            }
        }
        Collective::AllSlice { dim_axes } => {
            for (d, axes) in dim_axes.iter().enumerate() {
                for axis in axes {
                    slices.push(slice_for(axis, d)?);
                }
            }
        }
        Collective::AllGather { dim_axes } => {
            for (d, axes) in dim_axes.iter().enumerate() {
                for axis in axes.iter().rev() {
                    sched.stages.extend(stage_for(axis, d)?);
                }
            }
        }
        Collective::ReduceScatter { dim_axes, .. } => {
            for axis in c.axes() {
                let d = dim_axes
                    .iter()
                    .position(|axes| axes.contains(&axis))
                    .expect("axis comes from dim_axes");
                sched.stages.extend(stage_for(&axis, d)?);
            }
        }
        Collective::AllToAll {
            src_dim,
            dst_dim,
            axes,
        } => {
            if let [axis] = axes.as_slice() {
                sched.stages.extend(stage_for(axis, *dst_dim)?);
            } else {
                // Multi-axis: gather src_dim innermost-first, then slice
                // dst_dim — the unfused composition, kept for the rare
                // multi-axis case.
                for axis in axes.iter().rev() {
                    sched.stages.extend(stage_for(axis, *src_dim)?);
                }
                for axis in axes {
                    slices.push(slice_for(axis, *dst_dim)?);
                }
            }
        }
    }
    Ok((sched, slices))
}

/// How one exchange stage moves and combines data.
#[derive(Debug)]
enum Algo {
    /// `all_reduce`: members send their value to the group leader, which
    /// folds and broadcasts.
    Leader(ReduceOp),
    /// Ring all-gather (`all_gather`; the multi-axis `all_to_all`'s
    /// gathers): blocks forwarded around the group, then `join`ed in
    /// coordinate order.
    Ring { join: SliceKernel },
    /// `reduce_scatter`: each member's `piece` for its owner sent
    /// directly, folded by the owner in coordinate order.
    Scatter { piece: Piece, reduce: ReduceOp },
    /// Single-axis `all_to_all`: each member's `piece` for its owner sent
    /// directly, `join`ed by the owner in coordinate order.
    Exchange {
        piece: Piece,
        join: Box<SliceKernel>,
    },
}

/// Chunk `j` of `k` equal chunks along one dimension: a strided view
/// planned at chunk 0, which is chunk `j` read `j · step` elements
/// further into the operand.
#[derive(Debug)]
struct Piece {
    kernel: SliceKernel,
    ty: TensorType,
    step: usize,
}

/// Extent of one of `k` equal chunks of `shape` along `dim`.
fn chunk_extent(shape: &Shape, dim: usize, k: usize) -> Result<usize, IrError> {
    let size = shape.dim(dim);
    if !size.is_multiple_of(k) {
        return Err(IrError::shape(
            "all_slice",
            format!("dim {dim} of size {size} not divisible by {k}"),
        ));
    }
    Ok(size / k)
}

impl Piece {
    /// Plans the `k` chunks of `ty` along `dim`.
    fn plan(ty: &TensorType, dim: usize, k: usize) -> Result<Self, IrError> {
        let chunk = chunk_extent(&ty.shape, dim, k)?;
        let in_strides = ty.shape.strides();
        let step = chunk * in_strides[dim];
        let ty = TensorType::new(ty.shape.with_dim(dim, chunk), ty.dtype);
        let kernel = SliceKernel::Strided {
            out_dims: ty.shape.dims().to_vec(),
            in_strides,
            base: 0,
        };
        Ok(Piece { kernel, ty, step })
    }

    /// Chunk `j` of `src`, as a payload.
    fn cut(&self, src: Buf<'_>, j: usize) -> Result<Literal, RuntimeError> {
        let mut piece = Literal::zeros(&self.ty);
        strided_into(&self.kernel, src, j * self.step, piece.as_buf_mut())?;
        Ok(piece)
    }
}

/// Runs a strided view planned at offset 0 from offset `base` of `src`.
fn strided_into(
    kernel: &SliceKernel,
    src: Buf<'_>,
    base: usize,
    dst: BufMut<'_>,
) -> Result<(), RuntimeError> {
    Ok(kernel.run([src.slice(base..src.len())], dst)?)
}

/// One exchange stage of a collective, planned for every device at once.
#[derive(Debug)]
struct StagePlan {
    /// The stage's input: the operand, or the previous stage's result.
    in_ty: TensorType,
    /// The stage's result.
    out_ty: TensorType,
    algo: Algo,
}

/// The device-independent half of a compiled collective: how each
/// exchange stage cuts its input and combines what it receives, planned
/// once against the operand type by [`plan_collective`]. Each device's
/// [`CollSched`] supplies its groups, positions and slice offset.
#[derive(Debug)]
pub(crate) struct CollKernels {
    /// Parallel to every device's [`CollSched::stages`].
    stages: Vec<StagePlan>,
    /// The trailing device-local slice (`all_slice`, the multi-axis
    /// `all_to_all`) as one strided view at offset 0, and its type.
    slice: Option<(SliceKernel, TensorType)>,
    /// The operand type.
    in_ty: TensorType,
}

impl CollKernels {
    /// This device's piece of `src` under the trailing local slice — all
    /// of `src` when there is none — written to `dst`.
    fn cut_into(
        &self,
        src: Buf<'_>,
        sched: &CollSched,
        dst: BufMut<'_>,
    ) -> Result<(), RuntimeError> {
        match &self.slice {
            Some((kernel, _)) => strided_into(kernel, src, sched.slice_base, dst),
            None => copy(src, dst),
        }
    }
}

fn copy(src: Buf<'_>, dst: BufMut<'_>) -> Result<(), RuntimeError> {
    Ok(SliceKernel::Copy.run([src], dst)?)
}

/// Plans one collective over `mesh` for an operand of type `ty`: the
/// kernels every device shares, and each device's schedule.
///
/// # Errors
///
/// Fails if the collective references an axis missing from the mesh or
/// splits a dimension its axes do not divide.
pub(crate) fn plan_collective(
    c: &Collective,
    ty: &TensorType,
    mesh: &Mesh,
) -> Result<(CollKernels, Vec<CollSched>), IrError> {
    let (mut scheds, slices): (Vec<_>, Vec<_>) = (0..mesh.num_devices())
        .map(|d| schedule_collective(c, mesh, d))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    // Every device runs the same stages — axes, dims and group sizes —
    // in the same order, so device 0's fix every stage's types.
    let mut cur = ty.clone();
    let mut stages = Vec::new();
    for stage in &scheds[0].stages {
        let k = stage.group.len();
        let join = |ty: &TensorType, dim: usize| {
            SliceKernel::plan(&OpKind::Concatenate { dim }, &vec![ty.clone(); k])
        };
        let (algo, out_ty) = match c {
            Collective::AllReduce { reduce, .. } => (Algo::Leader(*reduce), cur.clone()),
            Collective::ReduceScatter { reduce, .. } => {
                let piece = Piece::plan(&cur, stage.dim, k)?;
                let out_ty = piece.ty.clone();
                let reduce = *reduce;
                (Algo::Scatter { piece, reduce }, out_ty)
            }
            Collective::AllToAll { src_dim, axes, .. } if axes.len() == 1 => {
                let piece = Piece::plan(&cur, stage.dim, k)?;
                let (join, out_ty) = join(&piece.ty, *src_dim)?;
                let join = Box::new(join);
                (Algo::Exchange { piece, join }, out_ty)
            }
            // `all_gather`, and the gathers of a multi-axis `all_to_all`
            // (`all_slice` has no stages).
            _ => {
                let (join, out_ty) = join(&cur, stage.dim)?;
                (Algo::Ring { join }, out_ty)
            }
        };
        let in_ty = std::mem::replace(&mut cur, out_ty.clone());
        stages.push(StagePlan {
            in_ty,
            out_ty,
            algo,
        });
    }
    let mut slice = None;
    for (sched, cuts) in scheds.iter_mut().zip(&slices) {
        if cuts.is_empty() {
            continue;
        }
        // The slices, applied in order, compose into one strided view of
        // the stages' result; only its offset differs per device.
        let strides = cur.shape.strides();
        let mut shape = cur.shape.clone();
        for &(dim, k, coord) in cuts {
            let chunk = chunk_extent(&shape, dim, k)?;
            sched.slice_base += coord * chunk * strides[dim];
            shape = shape.with_dim(dim, chunk);
        }
        slice.get_or_insert_with(|| {
            let kernel = SliceKernel::Strided {
                out_dims: shape.dims().to_vec(),
                in_strides: strides,
                base: 0,
            };
            (kernel, TensorType::new(shape, cur.dtype))
        });
    }
    let kernels = CollKernels {
        stages,
        slice,
        in_ty: ty.clone(),
    };
    Ok((kernels, scheds))
}

/// In-flight state of a collective between its start and its wait: what
/// the wait still needs of this device's own operand, copied out of the
/// arena at the start (the operand's range may be recycled meanwhile).
#[derive(Debug)]
pub(crate) struct CollPending {
    own: Option<Literal>,
}

/// The *start* phase of one collective: issues every send of the first
/// exchange stage, without receiving anything, and keeps the piece of
/// the operand its own wait needs. What it copies out of `src` — the
/// device's arena slot — is exactly that: the payloads that leave the
/// device and its own value, block or piece. Overlapped plans run this as
/// soon as the operand is ready, so the payloads are in flight while the
/// thread keeps computing; all receives (and every later stage) happen
/// in [`wait_scheduled`] at the first consuming step.
pub(crate) fn start_scheduled<E: Exchange>(
    kernels: &CollKernels,
    ex: &mut E,
    sched: &CollSched,
    tag: u32,
    src: Buf<'_>,
) -> Result<CollPending, RuntimeError> {
    let own = match (sched.stages.first(), kernels.stages.first()) {
        (Some(stage), Some(plan)) => stage_sends(ex, stage, plan, tag, src)?,
        // Nothing to exchange (`all_slice`, or only size-1 axes): keep the
        // device's piece.
        _ => {
            let ty = kernels.slice.as_ref().map_or(&kernels.in_ty, |(_, ty)| ty);
            let mut piece = Literal::zeros(ty);
            kernels.cut_into(src, sched, piece.as_buf_mut())?;
            Some(piece)
        }
    };
    Ok(CollPending { own })
}

/// The *wait* (rendezvous/completion) phase of one collective: receives
/// what the peers sent, runs every stage after the first, and writes the
/// device's result into `dst`, its arena slot. The last stage folds or
/// joins straight into `dst`; an earlier stage's result is a `Literal`,
/// because it is the next stage's payload. Folds and joins follow mesh
/// coordinates, so the result is bit-identical to the specification
/// ([`crate::apply_collective`]) under any interleaving.
pub(crate) fn wait_scheduled<E: Exchange>(
    kernels: &CollKernels,
    ex: &mut E,
    sched: &CollSched,
    tag: u32,
    pending: CollPending,
    dst: BufMut<'_>,
) -> Result<(), RuntimeError> {
    let mut own = pending.own;
    let last = sched.stages.len();
    for (i, (stage, plan)) in sched.stages.iter().zip(&kernels.stages).enumerate() {
        if i + 1 == last && kernels.slice.is_none() {
            return stage_finish(ex, stage, plan, tag, own, dst);
        }
        let mut val = Literal::zeros(&plan.out_ty);
        stage_finish(ex, stage, plan, tag, own, val.as_buf_mut())?;
        own = match (sched.stages.get(i + 1), kernels.stages.get(i + 1)) {
            (Some(next), Some(next_plan)) => stage_sends(ex, next, next_plan, tag, val.as_buf())?,
            // Only the trailing slice follows the last stage here.
            _ => return kernels.cut_into(val.as_buf(), sched, dst),
        };
    }
    copy(taken(own)?.as_buf(), dst)
}

fn taken(own: Option<Literal>) -> Result<Literal, RuntimeError> {
    own.ok_or_else(|| invalid("collective wait without its own piece"))
}

/// The sends of one exchange stage — everything that depends only on the
/// stage's input `src` — and the piece of `src` the stage's own
/// [`stage_finish`] needs.
fn stage_sends<E: Exchange>(
    ex: &mut E,
    stage: &AxisStage,
    plan: &StagePlan,
    tag: u32,
    src: Buf<'_>,
) -> Result<Option<Literal>, RuntimeError> {
    let (axis, group, my_pos) = (&stage.axis, &stage.group, stage.my_pos);
    let k = group.len();
    match &plan.algo {
        Algo::Leader(_) => {
            if src.is_empty() {
                return Ok(None);
            }
            let value = Literal::from_buf(src, plan.in_ty.shape.clone())?;
            if my_pos == 0 {
                return Ok(Some(value));
            }
            ex.send(group[0], axis, tag, value)?;
            Ok(None)
        }
        Algo::Ring { .. } => {
            // Step 0 of the ring forwards the device's own block.
            let block = Literal::from_buf(src, plan.in_ty.shape.clone())?;
            ex.send(group[(my_pos + 1) % k], axis, tag, block.clone())?;
            Ok(Some(block))
        }
        Algo::Scatter { piece, .. } | Algo::Exchange { piece, .. } => {
            for (j, &peer) in group.iter().enumerate() {
                if j != my_pos {
                    ex.send(peer, axis, tag, piece.cut(src, j)?)?;
                }
            }
            Ok(Some(piece.cut(src, my_pos)?))
        }
    }
}

/// The rest of one exchange stage: receives everything its peers sent,
/// folds or joins it with `own` in coordinate order, and writes the
/// stage's result to `out`.
fn stage_finish<E: Exchange>(
    ex: &mut E,
    stage: &AxisStage,
    plan: &StagePlan,
    tag: u32,
    mut own: Option<Literal>,
    mut out: BufMut<'_>,
) -> Result<(), RuntimeError> {
    let (axis, group, my_pos) = (&stage.axis, &stage.group, stage.my_pos);
    let k = group.len();
    let (next, prev) = (group[(my_pos + 1) % k], group[(my_pos + k - 1) % k]);
    // Member `m`'s contribution: this device's own piece or a receive.
    let mut piece_of = |ex: &mut E, m: usize| {
        if m == my_pos {
            taken(own.take())
        } else {
            ex.recv(group[m], axis, tag)
        }
    };
    match &plan.algo {
        Algo::Leader(reduce) => {
            if out.is_empty() {
                return Ok(());
            }
            if my_pos != 0 {
                return copy(ex.recv(group[0], axis, tag)?.as_buf(), out);
            }
            // The leader folds every member's value into its own, in
            // coordinate order, then broadcasts one shared payload.
            let mut acc = piece_of(ex, 0)?;
            for m in 1..k {
                fold_reduce(*reduce, acc.as_buf_mut(), piece_of(ex, m)?.as_buf())?;
            }
            for &member in &group[1..] {
                ex.send(member, axis, tag, acc.clone())?;
            }
            copy(acc.as_buf(), out)
        }
        Algo::Ring { join } => {
            let mut blocks: Vec<Option<Literal>> = vec![None; k];
            blocks[my_pos] = own.take();
            for s in 0..k - 1 {
                // Step 0's send — the own block — left at the start.
                if s > 0 {
                    let block = blocks[(my_pos + k - s) % k].clone();
                    ex.send(next, axis, tag, taken(block)?)?;
                }
                blocks[(my_pos + k - 1 - s) % k] = Some(ex.recv(prev, axis, tag)?);
            }
            Ok(join.run(blocks.iter().flatten().map(Literal::as_buf), out)?)
        }
        Algo::Scatter { reduce, .. } => {
            copy(piece_of(ex, 0)?.as_buf(), out.reborrow())?;
            for m in 1..k {
                fold_reduce(*reduce, out.reborrow(), piece_of(ex, m)?.as_buf())?;
            }
            Ok(())
        }
        Algo::Exchange { join, .. } => {
            let parts = (0..k)
                .map(|m| piece_of(ex, m))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(join.run(parts.iter().map(Literal::as_buf), out)?)
        }
    }
}

// ---- Traffic prediction -------------------------------------------------

/// Predicts, exactly, the traffic the threaded runtime moves executing
/// `func` on `mesh`: per-axis bytes and message counts, with collectives
/// inside `for` loops counted once per iteration.
///
/// # Errors
///
/// Fails if a collective references an axis missing from the mesh.
pub fn predict_traffic(func: &Func, mesh: &Mesh) -> Result<TrafficPrediction, IrError> {
    let mut pred = TrafficPrediction::default();
    predict_body(func, mesh, func.body(), 1, &mut pred)?;
    Ok(pred)
}

fn predict_body(
    func: &Func,
    mesh: &Mesh,
    body: &[OpId],
    multiplier: u64,
    pred: &mut TrafficPrediction,
) -> Result<(), IrError> {
    for &op_id in body {
        let op = func.op(op_id);
        match &op.kind {
            OpKind::For { trip_count } => {
                if let Some(region) = &op.region {
                    predict_body(
                        func,
                        mesh,
                        &region.body,
                        multiplier * *trip_count as u64,
                        pred,
                    )?;
                }
            }
            OpKind::Collective(c) => {
                let ty = func.value_type(op.operands[0]);
                predict_collective(c, ty, mesh, multiplier, pred)?;
            }
            _ => {}
        }
    }
    Ok(())
}

fn add_traffic(
    pred: &mut TrafficPrediction,
    axis: &Axis,
    bytes: u64,
    messages: u64,
    multiplier: u64,
) {
    if bytes == 0 && messages == 0 {
        return;
    }
    pred.per_axis
        .entry(axis.clone())
        .or_default()
        .add(AxisTraffic {
            bytes: bytes * multiplier,
            messages: messages * multiplier,
        });
}

/// The ring form the runtime *executes* for `c`, with its stage axes in
/// order: the analytic form of [`ring_stages`], except that a multi-axis
/// `all_to_all` runs as the unfused ring gathers + local slice (see
/// [`schedule_collective`]) — the one collective whose executed traffic
/// exceeds the analytical model's.
fn executed_ring(c: &Collective) -> Option<(RingKind, Vec<&Axis>)> {
    match c {
        Collective::AllToAll { axes, .. } if axes.len() > 1 => {
            Some((RingKind::AllGather, axes.iter().rev().collect()))
        }
        _ => ring_stages(c),
    }
}

fn predict_collective(
    c: &Collective,
    operand: &TensorType,
    mesh: &Mesh,
    multiplier: u64,
    pred: &mut TrafficPrediction,
) -> Result<(), IrError> {
    let Some((kind, axes)) = executed_ring(c) else {
        return Ok(()); // all_slice is device-local
    };
    let devices = mesh.num_devices() as u64;
    let ks = axes
        .iter()
        .map(|axis| mesh.axis_size(axis).map(|k| k as u64))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| IrError::invalid(e.to_string()))?;
    let stage_bytes = ring_traffic(kind, operand.size_bytes() as u64, devices, &ks);
    let nonempty = u64::from(operand.shape.num_elements() > 0);
    for ((axis, &k), bytes) in axes.into_iter().zip(&ks).zip(stage_bytes) {
        if k == 1 {
            continue;
        }
        // Every device sends one message to each of its k-1 peers; an
        // all_reduce's leader gathers in and broadcasts out instead, so
        // each group sends 2(k-1) messages of a non-empty payload.
        let messages = if kind == RingKind::AllReduce {
            2 * (devices / k) * (k - 1) * nonempty
        } else {
            devices * (k - 1)
        };
        add_traffic(pred, axis, bytes, messages, multiplier);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_reduce_prediction_matches_ring_formula() {
        // 4-way all_reduce of 1024 f32 (4 KiB, leader path): bytes follow
        // the ring formula 2 * (k-1)/k * bytes per device either way.
        let mesh = Mesh::single("B", 4).unwrap();
        let c = Collective::AllReduce {
            axes: vec!["B".into()],
            reduce: ReduceOp::Sum,
        };
        let mut pred = TrafficPrediction::default();
        predict_collective(&c, &TensorType::f32([1024]), &mesh, 1, &mut pred).unwrap();
        // Total = devices * 2 * (k-1)/k * n * 4 bytes = 4 * 2 * 3/4 * 4096.
        assert_eq!(pred.total_bytes(), 4 * 2 * 3 * 1024);
        // Leader algorithm: gather-in + broadcast-out = 2(k-1) messages.
        assert_eq!(pred.per_axis[&Axis::new("B")].messages, 2 * 3);
    }

    #[test]
    fn large_all_reduce_predicts_ring_messages() {
        // 128K f32 = 512 KiB: the leader algorithm at every size, so the
        // ring formula's bytes in the leader's 2(k-1) messages per group.
        let n = 128 * 1024;
        let mesh = Mesh::new([("A", 2), ("B", 4)]).unwrap();
        let c = Collective::AllReduce {
            axes: vec!["B".into()],
            reduce: ReduceOp::Sum,
        };
        let mut pred = TrafficPrediction::default();
        predict_collective(&c, &TensorType::f32([n]), &mesh, 1, &mut pred).unwrap();
        assert_eq!(pred.total_bytes(), (2 * 2 * 3 * n * 4) as u64);
        assert_eq!(pred.per_axis[&Axis::new("B")].messages, 2 * 2 * 3);
    }

    #[test]
    fn size_one_axes_move_nothing() {
        let mesh = Mesh::new([("a", 1), ("b", 2)]).unwrap();
        let c = Collective::AllReduce {
            axes: vec!["a".into(), "b".into()],
            reduce: ReduceOp::Sum,
        };
        let mut pred = TrafficPrediction::default();
        predict_collective(&c, &TensorType::f32([8]), &mesh, 1, &mut pred).unwrap();
        assert_eq!(pred.bytes_on(&"a".into()), 0);
        assert!(pred.bytes_on(&"b".into()) > 0);
    }
}
