//! Channel-based collective exchange algorithms for the threaded runtime,
//! plus an exact traffic predictor the simulator reconciles against.
//!
//! Each algorithm is written from the perspective of *one* device and
//! communicates through the [`Exchange`] trait (implemented by the
//! runtime's per-device channel endpoints). The algorithms are the
//! standard hierarchical ones — per mesh axis, in axis order:
//!
//! * `all_reduce`: selected by payload size, NCCL-style. At or below
//!   [`LEADER_ALL_REDUCE_MAX_BYTES`] the group leader receives every
//!   member's full payload (a zero-copy `Arc` transfer), folds them
//!   *linearly in coordinate order*, and broadcasts the result (refcount
//!   bumps) — minimal messages and no chunk copies. Above the cutoff,
//!   two-phase: scatter chunks to distributed roots which fold them in
//!   the same linear order, then a ring all-gather of the reduced chunks
//!   — the bandwidth-optimal form that also spreads the fold across
//!   devices. Both fold orders make the result bit-identical to the
//!   staged [`crate::apply_collective`] under any interleaving, and both
//!   move the same total bytes (`2(k-1)·n` per group), so the analytical
//!   ring formula holds for either.
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
//! [`predict_traffic`] states exactly what the algorithms move, byte for
//! byte and message for message, from types alone. Its byte column is
//! the analytical model's ring stage rule in exact integer form
//! (`partir_analysis::cost::ring_traffic`); message counts and the
//! leader/chunked switch are the runtime's own. It is the oracle
//! `partir_sim::reconcile` checks [`RuntimeStats`] against.
//!
//! [`RuntimeStats`]: crate::runtime::RuntimeStats

use std::collections::BTreeMap;

use partir_analysis::cost::{ring_stages, ring_traffic, RingKind};
use partir_ir::{
    interp::eval_op, Collective, DType, Func, IrError, Literal, OpId, OpKind, ReduceOp, TensorType,
};
use partir_mesh::{Axis, Mesh};

use crate::interp::slice_chunk;
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

/// Element range of flat chunk `j` of `n` elements split `k` ways.
///
/// Chunks are contiguous, near-equal, and cover `0..n` exactly; chunk
/// sizes differ by at most one and trailing chunks may be empty when
/// `n < k`. Both the runtime and [`predict_traffic`] use this split, so
/// executed and predicted traffic agree exactly.
pub(crate) fn chunk_bounds(n: usize, k: usize, j: usize) -> (usize, usize) {
    (j * n / k, (j + 1) * n / k)
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
/// stages (size-1 axes already dropped) followed by device-local slices
/// `(dim, k, coord)`. Baked into compiled execution plans.
#[derive(Debug, Clone, Default)]
pub(crate) struct CollSched {
    /// Ordered communication stages.
    pub(crate) stages: Vec<AxisStage>,
    /// Device-local slices applied after the stages: `(dim, k, coord)`.
    pub(crate) slices: Vec<(usize, usize, usize)>,
}

/// Resolves one collective's communication pattern for one device:
/// groups, positions and slice coordinates, in exactly the stage order
/// [`start_scheduled`] + [`wait_scheduled`] execute.
///
/// # Errors
///
/// Fails if the collective references an axis missing from the mesh.
pub(crate) fn schedule_collective(
    c: &Collective,
    mesh: &Mesh,
    device: usize,
) -> Result<CollSched, IrError> {
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
    let slice_for = |axis: &Axis, dim: usize| -> Result<(usize, usize, usize), IrError> {
        let k = mesh.axis_size(axis).map_err(err)?;
        let coord = mesh.coordinate_along(device, axis).map_err(err)?;
        Ok((dim, k, coord))
    };
    let mut sched = CollSched::default();
    match c {
        Collective::AllReduce { axes, .. } => {
            for axis in axes {
                sched.stages.extend(stage_for(axis, 0)?);
            }
        }
        Collective::AllSlice { dim_axes } => {
            for (d, axes) in dim_axes.iter().enumerate() {
                for axis in axes {
                    sched.slices.push(slice_for(axis, d)?);
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
                    sched.slices.push(slice_for(axis, *dst_dim)?);
                }
            }
        }
    }
    Ok(sched)
}

/// In-flight state of a collective between its start and wait phases:
/// the snapshotted device-local operand plus whether the first exchange
/// stage's input-dependent sends were already issued eagerly.
#[derive(Debug)]
pub(crate) struct CollPending {
    value: Literal,
    eager: bool,
}

/// The *start* phase of one collective: issues every send of the first
/// exchange stage that depends only on the device-local input, without
/// receiving anything. Overlapped plans run this as soon as the operand
/// is ready, so the payloads are in flight while the thread keeps
/// computing; all receives (and every later stage) happen in
/// [`wait_scheduled`] at the first consuming step. The sends here are
/// byte-for-byte the ones the blocking path would issue — overlap moves
/// traffic in time, never in content.
pub(crate) fn start_scheduled<E: Exchange>(
    c: &Collective,
    ex: &mut E,
    sched: &CollSched,
    tag: u32,
    value: Literal,
) -> Result<CollPending, RuntimeError> {
    let eager = match (c, sched.stages.first()) {
        (_, None) | (Collective::AllSlice { .. }, Some(_)) => false,
        (Collective::AllReduce { .. }, Some(stage)) => {
            if value.ty().size_bytes() <= LEADER_ALL_REDUCE_MAX_BYTES {
                leader_reduce_sends(ex, stage, tag, &value)?;
            } else {
                scatter_reduce_sends(ex, stage, tag, &value)?;
            }
            true
        }
        (Collective::AllGather { .. }, Some(stage)) => {
            ring_first_send(ex, stage, tag, &value)?;
            true
        }
        (Collective::ReduceScatter { .. }, Some(stage)) => {
            slice_exchange_sends(ex, stage, tag, &value)?;
            true
        }
        (Collective::AllToAll { .. }, Some(stage)) => {
            if sched.slices.is_empty() {
                // Single-axis direct pairwise exchange; the stage dim is
                // the split (dst) dimension.
                slice_exchange_sends(ex, stage, tag, &value)?;
            } else {
                // Multi-axis fallback: the first stage is a ring gather.
                ring_first_send(ex, stage, tag, &value)?;
            }
            true
        }
    };
    Ok(CollPending { value, eager })
}

/// The *wait* (rendezvous/completion) phase of one collective: receives
/// and folds everything the peers sent, runs every stage after the
/// first, and produces the device-local result. With `pending` fresh
/// from [`start_scheduled`] this is stage-for-stage identical to the
/// blocking dispatch it replaced, so results stay bit-identical to the
/// specification.
pub(crate) fn wait_scheduled<E: Exchange>(
    c: &Collective,
    ex: &mut E,
    sched: &CollSched,
    tag: u32,
    pending: CollPending,
) -> Result<Literal, RuntimeError> {
    let CollPending { value, eager } = pending;
    match c {
        Collective::AllReduce { reduce, .. } => {
            let mut val = value;
            for (i, stage) in sched.stages.iter().enumerate() {
                val = axis_all_reduce(ex, stage, tag, *reduce, val, eager && i == 0)?;
            }
            Ok(val)
        }
        Collective::AllSlice { .. } => apply_slices(&sched.slices, value),
        Collective::AllGather { .. } => {
            let mut val = value;
            for (i, stage) in sched.stages.iter().enumerate() {
                val = axis_ring_gather(ex, stage, tag, val, eager && i == 0)?;
            }
            Ok(val)
        }
        Collective::ReduceScatter { reduce, .. } => {
            let mut val = value;
            for (i, stage) in sched.stages.iter().enumerate() {
                val = axis_reduce_scatter(ex, stage, tag, *reduce, val, eager && i == 0)?;
            }
            Ok(val)
        }
        Collective::AllToAll {
            src_dim, dst_dim, ..
        } => {
            if sched.slices.is_empty() {
                // Single-axis direct pairwise exchange (or size-1 axis:
                // no stages, the value passes through).
                return match sched.stages.first() {
                    None => Ok(value),
                    Some(stage) => {
                        axis_all_to_all(ex, stage, tag, *src_dim, *dst_dim, value, eager)
                    }
                };
            }
            let mut val = value;
            for (i, stage) in sched.stages.iter().enumerate() {
                val = axis_ring_gather(ex, stage, tag, val, eager && i == 0)?;
            }
            apply_slices(&sched.slices, val)
        }
    }
}

/// Eager sends of the leader all-reduce: a non-root member's full-payload
/// transfer to its group leader. Mirrors the send in
/// [`axis_leader_all_reduce`] exactly (including the empty-payload skip).
fn leader_reduce_sends<E: Exchange>(
    ex: &mut E,
    stage: &AxisStage,
    tag: u32,
    val: &Literal,
) -> Result<(), RuntimeError> {
    if val.num_elements() == 0 {
        return Ok(());
    }
    if stage.my_pos != 0 {
        ex.send(stage.group[0], &stage.axis, tag, val.clone())?;
    }
    Ok(())
}

/// Eager sends of the chunked all-reduce: the phase-1 scatter of flat
/// chunks to their distributed roots. Mirrors [`axis_all_reduce`].
fn scatter_reduce_sends<E: Exchange>(
    ex: &mut E,
    stage: &AxisStage,
    tag: u32,
    val: &Literal,
) -> Result<(), RuntimeError> {
    let k = stage.group.len();
    for (j, &root) in stage.group.iter().enumerate() {
        if j == stage.my_pos {
            continue;
        }
        if let Some(chunk) = flat_chunk(val, k, j)? {
            ex.send(root, &stage.axis, tag, chunk)?;
        }
    }
    Ok(())
}

/// Eager send of a ring stage: step 0 forwards the device-local block to
/// the ring successor. Mirrors [`axis_ring_gather`]'s first step.
fn ring_first_send<E: Exchange>(
    ex: &mut E,
    stage: &AxisStage,
    tag: u32,
    val: &Literal,
) -> Result<(), RuntimeError> {
    let k = stage.group.len();
    let next = stage.group[(stage.my_pos + 1) % k];
    ex.send(next, &stage.axis, tag, val.clone())
}

/// Eager sends of a direct slice exchange (reduce_scatter and
/// single-axis all_to_all): every peer's `stage.dim` slice of the local
/// value. Mirrors [`axis_reduce_scatter`] / [`axis_all_to_all`].
fn slice_exchange_sends<E: Exchange>(
    ex: &mut E,
    stage: &AxisStage,
    tag: u32,
    val: &Literal,
) -> Result<(), RuntimeError> {
    let k = stage.group.len();
    for (j, &peer) in stage.group.iter().enumerate() {
        if j != stage.my_pos {
            ex.send(peer, &stage.axis, tag, slice_chunk(val, stage.dim, j, k)?)?;
        }
    }
    Ok(())
}

/// Extracts flat chunk `j` (1-D) of a literal split `k` ways.
fn flat_chunk(lit: &Literal, k: usize, j: usize) -> Result<Option<Literal>, RuntimeError> {
    let n = lit.num_elements();
    let (start, end) = chunk_bounds(n, k, j);
    if start == end {
        return Ok(None);
    }
    let chunk = match lit.dtype() {
        DType::F32 => Literal::from_f32(lit.as_f32()?[start..end].to_vec(), [end - start]),
        DType::I32 => Literal::from_i32(lit.as_i32()?[start..end].to_vec(), [end - start]),
        DType::Pred => Literal::from_pred(lit.as_pred()?[start..end].to_vec(), [end - start]),
        other => Err(IrError::unsupported(format!("chunking dtype {other}"))),
    }?;
    Ok(Some(chunk))
}

/// Reassembles flat chunks (in order, `None` = empty) into `ty`'s shape.
fn concat_flat(chunks: Vec<Option<Literal>>, ty: &TensorType) -> Result<Literal, RuntimeError> {
    let lit = match ty.dtype {
        DType::F32 => {
            let mut data = Vec::with_capacity(ty.shape.num_elements());
            for c in chunks.iter().flatten() {
                data.extend_from_slice(c.as_f32()?);
            }
            Literal::from_f32(data, ty.shape.clone())?
        }
        DType::I32 => {
            let mut data = Vec::with_capacity(ty.shape.num_elements());
            for c in chunks.iter().flatten() {
                data.extend_from_slice(c.as_i32()?);
            }
            Literal::from_i32(data, ty.shape.clone())?
        }
        DType::Pred => {
            let mut data = Vec::with_capacity(ty.shape.num_elements());
            for c in chunks.iter().flatten() {
                data.extend_from_slice(c.as_pred()?);
            }
            Literal::from_pred(data, ty.shape.clone())?
        }
        other => return Err(invalid(format!("concatenating dtype {other}"))),
    };
    Ok(lit)
}

/// Folds `piece` into `acc` (linear, left-to-right).
///
/// Uses [`partir_ir::kernels::fold_reduce`], which mutates the
/// accumulator in place when its buffer is uniquely owned — true for
/// payloads received over channels — and is bit-identical to evaluating
/// the corresponding `Binary` op (what the specification does).
fn fold(
    acc: Option<Literal>,
    piece: Literal,
    reduce: ReduceOp,
) -> Result<Option<Literal>, RuntimeError> {
    Ok(Some(match acc {
        None => piece,
        Some(acc) => partir_ir::kernels::fold_reduce(acc, &piece, reduce)?,
    }))
}

/// Payload-size cutoff below which `all_reduce` uses the latency-optimal
/// leader algorithm instead of scatter-reduce + ring gather.
///
/// In-process channels move `Arc`-backed literals by refcount, so a
/// full-payload send costs the same as a chunk send; the ring's only
/// remaining virtue is distributing the fold across device threads,
/// which pays off only once the fold outweighs the extra `~2(k-1)²`
/// messages and `~2k·n` chunk-extraction/reassembly copies per group.
pub(crate) const LEADER_ALL_REDUCE_MAX_BYTES: usize = 256 * 1024;

/// Leader-based single-axis all-reduce for small payloads: every member
/// sends its full payload to the group leader (position 0) — a zero-copy
/// `Arc` transfer — the leader folds them linearly in coordinate order
/// (own value first, exactly the specification's fold), then broadcasts the
/// result back as refcount bumps. `2(k-1)` messages and `2(k-1)·n`
/// attributed bytes per group, no chunk copies.
fn axis_leader_all_reduce<E: Exchange>(
    ex: &mut E,
    stage: &AxisStage,
    tag: u32,
    reduce: ReduceOp,
    val: Literal,
    eager: bool,
) -> Result<Literal, RuntimeError> {
    if val.num_elements() == 0 {
        return Ok(val);
    }
    let (axis, group, my_pos) = (&stage.axis, &stage.group, stage.my_pos);
    let root = group[0];
    if my_pos != 0 {
        if !eager {
            ex.send(root, axis, tag, val)?;
        }
        return ex.recv(root, axis, tag);
    }
    let mut acc = Some(val);
    for &member in &group[1..] {
        let piece = ex.recv(member, axis, tag)?;
        acc = fold(acc, piece, reduce)?;
    }
    let result = acc.expect("own value folded");
    for &member in &group[1..] {
        ex.send(member, axis, tag, result.clone())?;
    }
    Ok(result)
}

/// Single-axis all-reduce: leader-based below
/// [`LEADER_ALL_REDUCE_MAX_BYTES`]; otherwise two-phase — scatter-reduce
/// to distributed roots (root `j` folds chunk `j` linearly in coordinate
/// order), then a ring all-gather of the reduced chunks.
fn axis_all_reduce<E: Exchange>(
    ex: &mut E,
    stage: &AxisStage,
    tag: u32,
    reduce: ReduceOp,
    val: Literal,
    eager: bool,
) -> Result<Literal, RuntimeError> {
    if val.ty().size_bytes() <= LEADER_ALL_REDUCE_MAX_BYTES {
        return axis_leader_all_reduce(ex, stage, tag, reduce, val, eager);
    }
    let (axis, group, my_pos) = (&stage.axis, &stage.group, stage.my_pos);
    let k = group.len();
    let n = val.num_elements();
    let ty = val.ty();

    // Phase 1: every member sends chunk j to root j = group[j]; roots
    // fold incoming chunks in group (coordinate) order. Skipped when the
    // start phase already scattered the chunks eagerly.
    if !eager {
        scatter_reduce_sends(ex, stage, tag, &val)?;
    }
    let mut acc: Option<Literal> = None;
    if chunk_bounds(n, k, my_pos).0 < chunk_bounds(n, k, my_pos).1 {
        for (m, &member) in group.iter().enumerate() {
            let piece = if m == my_pos {
                flat_chunk(&val, k, my_pos)?.expect("own chunk is non-empty")
            } else {
                ex.recv(member, axis, tag)?
            };
            acc = fold(acc, piece, reduce)?;
        }
    }

    // Phase 2: ring all-gather of the reduced chunks. At step s each
    // device forwards the chunk originated at position (pos - s) mod k
    // and receives the one originated at (pos - 1 - s) mod k.
    let next = group[(my_pos + 1) % k];
    let prev = group[(my_pos + k - 1) % k];
    let mut reduced: Vec<Option<Literal>> = vec![None; k];
    reduced[my_pos] = acc;
    for s in 0..k - 1 {
        let send_origin = (my_pos + k - s % k) % k;
        if let Some(chunk) = &reduced[send_origin] {
            ex.send(next, axis, tag, chunk.clone())?;
        }
        let recv_origin = (my_pos + 2 * k - 1 - s % k) % k;
        let (lo, hi) = chunk_bounds(n, k, recv_origin);
        if lo < hi {
            reduced[recv_origin] = Some(ex.recv(prev, axis, tag)?);
        }
    }
    concat_flat(reduced, &ty)
}

/// Ring all-gather along one axis in dimension `dim`: `k-1` forwarding
/// steps, then concatenation in coordinate order.
fn axis_ring_gather<E: Exchange>(
    ex: &mut E,
    stage: &AxisStage,
    tag: u32,
    val: Literal,
    eager: bool,
) -> Result<Literal, RuntimeError> {
    let (axis, group, my_pos) = (&stage.axis, &stage.group, stage.my_pos);
    let dim = stage.dim;
    let k = group.len();
    let next = group[(my_pos + 1) % k];
    let prev = group[(my_pos + k - 1) % k];
    let mut blocks: Vec<Option<Literal>> = vec![None; k];
    blocks[my_pos] = Some(val);
    for s in 0..k - 1 {
        // Step 0 forwards the device-local block — already in flight
        // when the start phase ran eagerly.
        if s > 0 || !eager {
            let send_origin = (my_pos + k - s % k) % k;
            let block = blocks[send_origin].clone().expect("block received");
            ex.send(next, axis, tag, block)?;
        }
        let recv_origin = (my_pos + 2 * k - 1 - s % k) % k;
        blocks[recv_origin] = Some(ex.recv(prev, axis, tag)?);
    }
    let ordered: Vec<Literal> = blocks
        .into_iter()
        .map(|b| b.expect("all blocks received"))
        .collect();
    let refs: Vec<&Literal> = ordered.iter().collect();
    let out = eval_op(&OpKind::Concatenate { dim }, &refs)?;
    Ok(out.into_iter().next().expect("single result"))
}

/// Direct-exchange reduce-scatter along one axis in dimension `dim`:
/// every member sends slice `j` to the member at position `j`, which
/// folds its incoming slices linearly in coordinate order.
fn axis_reduce_scatter<E: Exchange>(
    ex: &mut E,
    stage: &AxisStage,
    tag: u32,
    reduce: ReduceOp,
    val: Literal,
    eager: bool,
) -> Result<Literal, RuntimeError> {
    let (axis, group, my_pos) = (&stage.axis, &stage.group, stage.my_pos);
    let dim = stage.dim;
    let k = group.len();
    if !eager {
        slice_exchange_sends(ex, stage, tag, &val)?;
    }
    let mut acc: Option<Literal> = None;
    for (m, &member) in group.iter().enumerate() {
        let piece = if m == my_pos {
            slice_chunk(&val, dim, my_pos, k)?
        } else {
            ex.recv(member, axis, tag)?
        };
        acc = fold(acc, piece, reduce)?;
    }
    Ok(acc.expect("group is non-empty"))
}

/// Direct pairwise all-to-all over one axis: member `i` sends its
/// `dst_dim` slice `j` to member `j` and concatenates what it receives
/// along `src_dim` in coordinate order.
fn axis_all_to_all<E: Exchange>(
    ex: &mut E,
    stage: &AxisStage,
    tag: u32,
    src_dim: usize,
    dst_dim: usize,
    val: Literal,
    eager: bool,
) -> Result<Literal, RuntimeError> {
    let (axis, group, my_pos) = (&stage.axis, &stage.group, stage.my_pos);
    let k = group.len();
    if !eager {
        slice_exchange_sends(ex, stage, tag, &val)?;
    }
    let mut parts: Vec<Literal> = Vec::with_capacity(k);
    for (j, &peer) in group.iter().enumerate() {
        parts.push(if j == my_pos {
            slice_chunk(&val, dst_dim, my_pos, k)?
        } else {
            ex.recv(peer, axis, tag)?
        });
    }
    let refs: Vec<&Literal> = parts.iter().collect();
    let out = eval_op(&OpKind::Concatenate { dim: src_dim }, &refs)?;
    Ok(out.into_iter().next().expect("single result"))
}

/// Device-local slicing (no communication): applies the schedule's
/// precomputed `(dim, k, coord)` slices in order.
fn apply_slices(
    slices: &[(usize, usize, usize)],
    mut val: Literal,
) -> Result<Literal, RuntimeError> {
    for &(d, k, c) in slices {
        val = slice_chunk(&val, d, c, k)?;
    }
    Ok(val)
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
    let n = operand.shape.num_elements();
    for ((axis, &k), bytes) in axes.into_iter().zip(&ks).zip(stage_bytes) {
        if k == 1 {
            continue;
        }
        // Every device sends one message to each of its k-1 peers; an
        // all_reduce does so per phase, per group rather than per
        // device in the leader form and per non-empty chunk in the
        // chunked form.
        let messages = if kind != RingKind::AllReduce {
            devices * (k - 1)
        } else {
            let per_phase = if operand.size_bytes() <= LEADER_ALL_REDUCE_MAX_BYTES {
                u64::from(n > 0)
            } else {
                let nonempty = |&j: &usize| {
                    let (lo, hi) = chunk_bounds(n, k as usize, j);
                    lo < hi
                };
                (0..k as usize).filter(nonempty).count() as u64
            };
            2 * (devices / k) * (k - 1) * per_phase
        };
        add_traffic(pred, axis, bytes, messages, multiplier);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_cover_exactly() {
        for n in [0usize, 1, 3, 7, 8, 17] {
            for k in [1usize, 2, 3, 4, 8] {
                let mut total = 0;
                for j in 0..k {
                    let (lo, hi) = chunk_bounds(n, k, j);
                    assert!(lo <= hi && hi <= n);
                    total += hi - lo;
                    if j + 1 < k {
                        assert_eq!(hi, chunk_bounds(n, k, j + 1).0, "contiguous");
                    }
                }
                assert_eq!(total, n, "n={n} k={k}");
            }
        }
    }

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
        // 128K f32 = 512 KiB > LEADER_ALL_REDUCE_MAX_BYTES: chunked
        // scatter-reduce + ring gather, same bytes, k× the messages.
        let n = 128 * 1024;
        assert!(n * 4 > LEADER_ALL_REDUCE_MAX_BYTES);
        let mesh = Mesh::single("B", 4).unwrap();
        let c = Collective::AllReduce {
            axes: vec!["B".into()],
            reduce: ReduceOp::Sum,
        };
        let mut pred = TrafficPrediction::default();
        predict_collective(&c, &TensorType::f32([n]), &mesh, 1, &mut pred).unwrap();
        assert_eq!(pred.total_bytes(), (4 * 2 * 3 * n * 4 / 4) as u64);
        assert_eq!(pred.per_axis[&Axis::new("B")].messages, 2 * 3 * 4);
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
