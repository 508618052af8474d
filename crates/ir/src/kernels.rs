//! The tensor kernel engine: cache-friendly fast paths for the hot ops of
//! the reference and SPMD interpreters.
//!
//! The interpreter in [`crate::interp`] originally walked every output
//! element through a fresh multi-index `Vec` — correct, but dominated by
//! allocation and index arithmetic (those forms survive as oracles in
//! [`crate::reference`]). This module provides the kernels it now
//! dispatches to:
//!
//! * [`dot_general`] reduces *any* [`DotDims`] contraction to a batched
//!   matmul (`[b, m, k] × [b, k, n]`) of register tiles. An operand whose
//!   batch, free and contract dimensions each collapse to one stride is
//!   read in place through those strides — transposed layouts included;
//!   only a general permutation is staged through a strided gather. A
//!   right operand whose columns are not contiguous is packed into the
//!   tile's column panels (16, 8, 4 or 1 wide, chosen from `n` when the op
//!   is planned). The tile keeps a 4×16 (down to 1×1) block of
//!   accumulators in registers, starts them at `+0.0`, adds one product
//!   per `k` in ascending order and stores each output once. The
//!   element-at-a-time index walk survives as [`dot_general_reference`] —
//!   the oracle the property tests compare against. Per output element
//!   both add the same products to `+0.0` in the same (row-major
//!   contraction) order and never split `k`, so their results are
//!   bit-identical.
//! * [`SliceKernel`] is the one definition of every region-free,
//!   collective-free op: planned once against the operand types, then run
//!   slice-in/slice-out with no allocation — by the interpreter on a
//!   fresh result ([`crate::interp::eval_op`]) and by compiled plans on
//!   arena ranges. `transpose`, `broadcast_in_dim` and `slice` are one
//!   strided gather over a stack odometer whose inner loop copies whole
//!   contiguous rows when the innermost input stride is 1 (and splats
//!   when it is 0); `reduce` folds inputs in linear order while tracking
//!   the output offset incrementally; `concatenate`, `pad` and the
//!   dynamic slices copy whole row spans; the elementwise lanes
//!   ([`apply_un`], [`apply_bin`]) are also what a plan's fused
//!   elementwise machine calls per register block.
//! * [`fold_reduce`] is the collectives' accumulation step: it mutates the
//!   accumulator in place when its copy-on-write buffer is uniquely owned
//!   (the common case for payloads received over runtime channels).
//!
//! # Scratch arena
//!
//! The staging gathers and B-panels of [`dot_general`] are pure
//! temporaries, so their buffers are recycled through a small per-thread
//! arena ([`with_scratch`]) instead of hitting the allocator once per op;
//! a dot whose operands are both read in place borrows nothing. The
//! threaded runtime runs one OS thread per device, so the thread-local
//! arena doubles as a per-device scratch pool that lives for the whole
//! execution; buffers are returned (not freed) after each dot.

use std::cell::RefCell;

pub use crate::reference::dot_general_reference;

use crate::{
    BinaryOp, CompareDir, ConvDims, DType, DotDims, IrError, Literal, OpKind, ReduceOp, Shape,
    TensorType, UnaryOp,
};

// ---------------------------------------------------------------------------
// Scratch arena
// ---------------------------------------------------------------------------

/// Upper bound on pooled buffers per thread; beyond this, buffers drop.
const ARENA_MAX_BUFS: usize = 8;
/// Buffers above this element count are not retained (bounds arena RSS).
const ARENA_MAX_ELEMS: usize = 1 << 22;

thread_local! {
    static SCRATCH: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Borrows a zero-length scratch `Vec<f32>` with (possibly) retained
/// capacity from the per-thread arena, runs `f`, and returns the buffer to
/// the pool afterwards.
fn with_scratch<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    let mut buf = SCRATCH
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    buf.clear();
    let out = f(&mut buf);
    if buf.capacity() <= ARENA_MAX_ELEMS {
        SCRATCH.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < ARENA_MAX_BUFS {
                pool.push(buf);
            }
        });
    }
    out
}

/// Number of buffers currently pooled by this thread's scratch arena
/// (diagnostics/tests only).
pub fn scratch_pool_len() -> usize {
    SCRATCH.with(|pool| pool.borrow().len())
}

// ---------------------------------------------------------------------------
// Strided gather walker
// ---------------------------------------------------------------------------

/// Maximum tensor rank the stack-allocated odometers support. Well beyond
/// anything the model zoo produces; enforced with an assert so a deeper
/// rank fails loudly rather than corrupting memory.
const MAX_RANK: usize = 16;

/// Appends to `dst` the row-major traversal of an `out_dims`-shaped view
/// whose element at multi-index `i` lives at
/// `src[base + Σ i[d] * in_strides[d]]`.
///
/// The innermost dimension is special-cased: stride 1 copies the whole row
/// with `extend_from_slice`, stride 0 splats one element. The outer-dim
/// odometer lives on the stack so repeated gathers (e.g. from a compiled
/// plan's steady-state loop) never touch the allocator beyond `dst`.
fn gather_strided<T: Copy>(
    dst: &mut Vec<T>,
    src: &[T],
    out_dims: &[usize],
    in_strides: &[usize],
    base: usize,
) {
    debug_assert_eq!(out_dims.len(), in_strides.len());
    let total: usize = out_dims.iter().product();
    if total == 0 {
        return;
    }
    dst.reserve(total);
    if out_dims.is_empty() {
        dst.push(src[base]);
        return;
    }
    let inner = out_dims.len() - 1;
    assert!(inner < MAX_RANK, "tensor rank exceeds MAX_RANK");
    let (inner_n, inner_s) = (out_dims[inner], in_strides[inner]);
    let rows = total / inner_n.max(1);
    let mut idx = [0usize; MAX_RANK];
    let mut row_base = base;
    for _ in 0..rows {
        match inner_s {
            1 => dst.extend_from_slice(&src[row_base..row_base + inner_n]),
            0 => dst.extend(std::iter::repeat_n(src[row_base], inner_n)),
            s => {
                let mut off = row_base;
                for _ in 0..inner_n {
                    dst.push(src[off]);
                    off += s;
                }
            }
        }
        // Advance the outer-dim odometer (row-major).
        for d in (0..inner).rev() {
            idx[d] += 1;
            row_base += in_strides[d];
            if idx[d] < out_dims[d] {
                break;
            }
            row_base -= in_strides[d] * out_dims[d];
            idx[d] = 0;
        }
    }
}

/// [`gather_strided`] into a preallocated destination slice — the
/// [`SliceKernel::Strided`] body. `dst.len()` must equal the product of
/// `out_dims`.
fn gather_strided_into<T: Copy>(
    dst: &mut [T],
    src: &[T],
    out_dims: &[usize],
    in_strides: &[usize],
    base: usize,
) {
    debug_assert_eq!(out_dims.len(), in_strides.len());
    let total: usize = out_dims.iter().product();
    assert_eq!(dst.len(), total, "gather_strided_into size mismatch");
    if total == 0 {
        return;
    }
    if out_dims.is_empty() {
        dst[0] = src[base];
        return;
    }
    let inner = out_dims.len() - 1;
    assert!(inner < MAX_RANK, "tensor rank exceeds MAX_RANK");
    let (inner_n, inner_s) = (out_dims[inner], in_strides[inner]);
    let rows = total / inner_n.max(1);
    let mut idx = [0usize; MAX_RANK];
    let mut row_base = base;
    let mut cursor = 0usize;
    for _ in 0..rows {
        match inner_s {
            1 => dst[cursor..cursor + inner_n].copy_from_slice(&src[row_base..row_base + inner_n]),
            0 => dst[cursor..cursor + inner_n].fill(src[row_base]),
            s => {
                let mut off = row_base;
                for slot in &mut dst[cursor..cursor + inner_n] {
                    *slot = src[off];
                    off += s;
                }
            }
        }
        cursor += inner_n;
        for d in (0..inner).rev() {
            idx[d] += 1;
            row_base += in_strides[d];
            if idx[d] < out_dims[d] {
                break;
            }
            row_base -= in_strides[d] * out_dims[d];
            idx[d] = 0;
        }
    }
}

// ---------------------------------------------------------------------------
// dot_general
// ---------------------------------------------------------------------------

/// The output shape of a `Dot` op: batch dims, then LHS free, then RHS
/// free — shared by the fast path and the reference oracle
/// ([`crate::reference::dot_general_reference`]).
pub(crate) fn dot_out_shape(dims: &DotDims, ls: &Shape, rs: &Shape) -> Shape {
    let lhs_free = dims.free_dims(ls.rank(), true);
    let rhs_free = dims.free_dims(rs.rank(), false);
    let mut out_dims: Vec<usize> = Vec::new();
    for &b in &dims.lhs_batch {
        out_dims.push(ls.dim(b));
    }
    for &d in &lhs_free {
        out_dims.push(ls.dim(d));
    }
    for &d in &rhs_free {
        out_dims.push(rs.dim(d));
    }
    Shape::from(out_dims)
}

/// Rows of a register tile; the last `m % 4` rows of a panel go through
/// a 3-, 2- or 1-row tile.
const MR: usize = 4;

/// Column panel widths, widest first. A row of `n` outputs is cut into
/// as many 16-wide panels as fit, then at most one 8- and one 4-wide
/// panel, then single columns ([`DotPlan::panels`]).
const PANEL_WIDTHS: [usize; 4] = [16, 8, 4, 1];

/// A 2-D view of an operand: element `(r, c)` is
/// `data[at + r · rs + c · cs]`.
#[derive(Debug, Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    at: usize,
    rs: usize,
    cs: usize,
}

/// One `R × W` block of outputs, `c[r][j] = Σ_kk a[r][kk] · b[kk][j]`.
///
/// The accumulators start at `+0.0` and add one product per `kk` in
/// ascending order, then each output is stored once: per output element
/// that is exactly [`dot_general_reference`]'s sequence of roundings, so
/// the result is bit-identical (a tile started from its first product
/// would turn `0.0 + (−0.0)` into `−0.0`). `k` is never split. `b`'s
/// columns are contiguous (`b.cs` is 1 and not read); `c` starts at the
/// block's first element and has row stride `ldc`.
///
/// The loop nest indexes constant-extent arrays on purpose: in that form
/// the compiler unrolls it into `W / 4` vector registers per row, and it
/// is also the fastest tile form unoptimised. Zipped-iterator forms of
/// the same nest measured 1.2–1.5× slower optimised, up to 3× slower
/// unoptimised.
#[allow(clippy::needless_range_loop)]
fn tile<const R: usize, const W: usize>(
    a: View<'_>,
    b: View<'_>,
    k: usize,
    c: &mut [f32],
    ldc: usize,
) {
    let mut acc = [[0.0f32; W]; R];
    for kk in 0..k {
        let at = b.at + kk * b.rs;
        let b_row: [f32; W] = b.data[at..at + W].try_into().expect("W columns");
        let a_col = a.at + kk * a.cs;
        for r in 0..R {
            let a_rk = a.data[a_col + r * a.rs];
            for j in 0..W {
                acc[r][j] += a_rk * b_row[j];
            }
        }
    }
    for r in 0..R {
        c[r * ldc..r * ldc + W].copy_from_slice(&acc[r]);
    }
}

/// One `W`-wide column panel of a `m × n` output: full [`MR`]-row tiles
/// down the panel, then one 3-, 2- or 1-row tile for the rest.
fn panel<const W: usize>(a: View<'_>, b: View<'_>, k: usize, m: usize, c: &mut [f32], n: usize) {
    let mut i = 0;
    let rows = |i: usize| View {
        at: a.at + i * a.rs,
        ..a
    };
    while i + MR <= m {
        tile::<MR, W>(rows(i), b, k, &mut c[i * n..], n);
        i += MR;
    }
    match m - i {
        3 => tile::<3, W>(rows(i), b, k, &mut c[i * n..], n),
        2 => tile::<2, W>(rows(i), b, k, &mut c[i * n..], n),
        1 => tile::<1, W>(rows(i), b, k, &mut c[i * n..], n),
        _ => {}
    }
}

/// A staging gather of one `Dot` operand to row-major order, as
/// `(out_dims, in_strides)` for [`gather_strided`].
type Stage = (Vec<usize>, Vec<usize>);

/// How [`dot_general_into`] reads the right operand.
#[derive(Debug, Clone)]
enum RhsRead {
    /// In place: its columns are contiguous.
    InPlace,
    /// Each batch is first packed into the tile's column panels, read
    /// through the operand's own strides.
    Panels,
    /// Staged to row-major `[batch, contract, free]` first.
    Stage(Stage),
}

/// An ahead-of-time compiled `Dot` contraction: how each operand is read,
/// the batched-matmul extents and the column panels, resolved once so
/// the steady-state execution ([`dot_general_into`]) does no shape or
/// permutation work at all.
#[derive(Debug, Clone)]
pub struct DotPlan {
    /// LHS staging gather to row-major `[batch, free, contract]`; `None`
    /// when the operand is read in place.
    lhs_stage: Option<Stage>,
    /// `[batch, row, column]` strides of the LHS as the tile reads it
    /// (`m` rows of `k`): its own, or its stage's.
    lhs: [usize; 3],
    rhs_read: RhsRead,
    /// `[batch, row, column]` strides of the RHS (`k` rows of `n`): its
    /// own, or its stage's.
    rhs: [usize; 3],
    /// Batch extent (product of batch dims).
    batch: usize,
    /// LHS free extent.
    m: usize,
    /// Contraction extent.
    k: usize,
    /// RHS free extent.
    n: usize,
    /// How many column panels of each of [`PANEL_WIDTHS`] cover `n`.
    panel_counts: [usize; 4],
}

impl DotPlan {
    /// `(first column, width)` of every column panel, left to right.
    fn panels(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        PANEL_WIDTHS
            .iter()
            .zip(self.panel_counts)
            .flat_map(|(&w, count)| std::iter::repeat_n(w, count))
            .scan(0, |j0, w| {
                *j0 += w;
                Some((*j0 - w, w))
            })
    }
}

/// The one stride through which a dimension group's row-major linear
/// index reaches memory, if there is one. Size-1 dimensions do not count;
/// a group of extent 0 or 1 is never stepped through and answers 0.
fn collapse(shape: &Shape, strides: &[usize], group: &[usize]) -> Option<usize> {
    if group.iter().any(|&d| shape.dim(d) == 0) {
        return Some(0);
    }
    let mut stride = None;
    let mut next = 0;
    for &d in group.iter().rev().filter(|&&d| shape.dim(d) > 1) {
        match stride {
            None => stride = Some(strides[d]),
            Some(_) if strides[d] != next => return None,
            Some(_) => {}
        }
        next = strides[d] * shape.dim(d);
    }
    Some(stride.unwrap_or(0))
}

/// How one operand is read as `[group0, group1, group2]`, where the groups
/// are dimension-index lists whose concatenation is a permutation of
/// `0..rank`: in place through one stride per group when every group
/// collapses ([`collapse`]), else through a staging gather to row-major
/// order. Returns the gather, if any, and the three strides.
fn plan_operand(shape: &Shape, groups: [&[usize]; 3]) -> (Option<Stage>, [usize; 3]) {
    let strides = shape.strides();
    if let [Some(s0), Some(s1), Some(s2)] = groups.map(|g| collapse(shape, &strides, g)) {
        return (None, [s0, s1, s2]);
    }
    let perm: Vec<usize> = groups.iter().flat_map(|g| g.iter().copied()).collect();
    let out_dims: Vec<usize> = perm.iter().map(|&p| shape.dim(p)).collect();
    let in_strides: Vec<usize> = perm.iter().map(|&p| strides[p]).collect();
    let [_, e1, e2] = groups.map(|g| g.iter().map(|&d| shape.dim(d)).product::<usize>());
    (Some((out_dims, in_strides)), [e1 * e2, e2, 1])
}

/// Compiles a `Dot` op's operand reads, extents and column panels once.
fn plan_dot(dims: &DotDims, ls: &Shape, rs: &Shape) -> DotPlan {
    let lhs_free = dims.free_dims(ls.rank(), true);
    let rhs_free = dims.free_dims(rs.rank(), false);
    let (lhs_stage, lhs) = plan_operand(ls, [&dims.lhs_batch, &lhs_free, &dims.lhs_contract]);
    let (rhs_stage, rhs) = plan_operand(rs, [&dims.rhs_batch, &dims.rhs_contract, &rhs_free]);
    let n = rhs_free.iter().map(|&d| rs.dim(d)).product();
    let rhs_read = match rhs_stage {
        Some(stage) => RhsRead::Stage(stage),
        None if rhs[2] == 1 || n <= 1 => RhsRead::InPlace,
        None => RhsRead::Panels,
    };
    let mut panel_counts = [0; 4];
    let mut rest = n;
    for (count, w) in panel_counts.iter_mut().zip(PANEL_WIDTHS) {
        *count = rest / w;
        rest %= w;
    }
    DotPlan {
        lhs_stage,
        lhs,
        rhs_read,
        rhs,
        batch: dims.lhs_batch.iter().map(|&d| ls.dim(d)).product(),
        m: lhs_free.iter().map(|&d| ls.dim(d)).product(),
        k: dims.lhs_contract.iter().map(|&d| ls.dim(d)).product(),
        n,
        panel_counts,
    }
}

/// Executes a compiled [`DotPlan`] into a preallocated output buffer
/// (`out.len()` must be `batch·m·n`), writing every element once. A
/// staging gather or B-panel buffer is borrowed from the per-thread
/// scratch arena only when the plan needs one, so warm steady-state calls
/// are allocation-free. Bit-identical to [`dot_general`] /
/// [`dot_general_reference`].
fn dot_general_into(plan: &DotPlan, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(out.len(), plan.batch * plan.m * plan.n);
    match &plan.lhs_stage {
        None => dot_rhs(plan, a, b, out),
        Some((out_dims, in_strides)) => with_scratch(|staged| {
            gather_strided(staged, a, out_dims, in_strides, 0);
            dot_rhs(plan, staged, b, out)
        }),
    }
}

/// [`dot_general_into`] once the LHS is readable: reads the RHS as the
/// plan says, then runs the column panels batch by batch.
fn dot_rhs(plan: &DotPlan, a: &[f32], b: &[f32], out: &mut [f32]) {
    match &plan.rhs_read {
        RhsRead::InPlace => dot_panels(plan, a, b, out, None),
        RhsRead::Panels => with_scratch(|packed| dot_panels(plan, a, b, out, Some(packed))),
        RhsRead::Stage((out_dims, in_strides)) => with_scratch(|staged| {
            gather_strided(staged, b, out_dims, in_strides, 0);
            dot_panels(plan, a, staged, out, None)
        }),
    }
}

/// The batched matmul proper. With `packed`, each batch of `b` is first
/// copied into column panels — the panel of columns `j0..j0 + w` is `k`
/// rows of `w` starting at `k · j0` — so every tile reads contiguous
/// rows of its panel.
fn dot_panels(
    plan: &DotPlan,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    mut packed: Option<&mut Vec<f32>>,
) {
    let (m, k, n) = (plan.m, plan.k, plan.n);
    let [a_bs, a_rs, a_cs] = plan.lhs;
    let [b_bs, b_rs, b_cs] = plan.rhs;
    if out.is_empty() {
        return;
    }
    for (bi, c) in out.chunks_exact_mut(m * n).enumerate() {
        let a = View {
            data: a,
            at: bi * a_bs,
            rs: a_rs,
            cs: a_cs,
        };
        if let Some(buf) = packed.as_deref_mut() {
            buf.clear();
            for (j0, w) in plan.panels() {
                for kk in 0..k {
                    let row = bi * b_bs + kk * b_rs + j0 * b_cs;
                    buf.extend((0..w).map(|j| b[row + j * b_cs]));
                }
            }
        }
        for (j0, w) in plan.panels() {
            let b = match packed.as_deref() {
                Some(buf) => View {
                    data: buf,
                    at: k * j0,
                    rs: w,
                    cs: 1,
                },
                None => View {
                    data: b,
                    at: bi * b_bs + j0,
                    rs: b_rs,
                    cs: 1,
                },
            };
            let c = &mut c[j0..];
            match w {
                16 => panel::<16>(a, b, k, m, c, n),
                8 => panel::<8>(a, b, k, m, c, n),
                4 => panel::<4>(a, b, k, m, c, n),
                _ => panel::<1>(a, b, k, m, c, n),
            }
        }
    }
}

/// Evaluates a `Dot` op as a batched matmul of register tiles.
///
/// Each operand is read in place through per-operand strides when its
/// batch, free and contract dimensions each collapse to one stride
/// (transposed layouts included); otherwise it is staged once, by a
/// strided gather into the per-thread scratch arena. A right operand
/// whose columns are not contiguous is packed into the tile's column
/// panels instead. Bit-identical to [`dot_general_reference`].
///
/// # Errors
///
/// Fails if either operand is not f32.
pub fn dot_general(dims: &DotDims, lhs: &Literal, rhs: &Literal) -> Result<Literal, IrError> {
    let plan = plan_dot(dims, lhs.shape(), rhs.shape());
    let out_shape = dot_out_shape(dims, lhs.shape(), rhs.shape());
    let mut out = vec![0f32; out_shape.num_elements()];
    dot_general_into(&plan, lhs.as_f32()?, rhs.as_f32()?, &mut out);
    Literal::from_f32(out, out_shape)
}

// ---------------------------------------------------------------------------
// reduce
// ---------------------------------------------------------------------------

/// An ahead-of-time compiled f32 `Reduce`: the kept-dimension analysis
/// and stride tables, resolved once for allocation-free steady-state
/// execution ([`reduce_f32_into`]).
#[derive(Debug, Clone)]
pub struct ReducePlan {
    /// Monoid identity the output is initialized to.
    init: f32,
    /// Reduction monoid.
    op: ReduceOp,
    /// `Some(span)` when the reduced dims are a contiguous trailing
    /// block: each output element folds one contiguous input span of
    /// this length.
    trailing_inner: Option<usize>,
    /// Input dimension sizes (general path odometer).
    in_dims: Vec<usize>,
    /// Output stride of each input dim (0 for reduced dims).
    out_strides: Vec<usize>,
    /// Output element count.
    out_len: usize,
}

/// Compiles a `Reduce` op's fold layout once.
fn plan_reduce(op: ReduceOp, in_shape: &Shape, dims: &[usize]) -> ReducePlan {
    let rank = in_shape.rank();
    let kept: Vec<usize> = (0..rank).filter(|d| !dims.contains(d)).collect();
    let out_shape = Shape::from(kept.iter().map(|&d| in_shape.dim(d)).collect::<Vec<_>>());
    let init = match op {
        ReduceOp::Sum => 0.0f32,
        ReduceOp::Prod => 1.0,
        ReduceOp::Max => f32::NEG_INFINITY,
        ReduceOp::Min => f32::INFINITY,
    };
    let trailing = kept.iter().enumerate().all(|(i, &d)| i == d);
    let trailing_inner = if trailing {
        Some(dims.iter().map(|&d| in_shape.dim(d)).product())
    } else {
        None
    };
    let out_strides_kept = out_shape.strides();
    let mut out_strides = vec![0usize; rank];
    for (i, &d) in kept.iter().enumerate() {
        out_strides[d] = out_strides_kept[i];
    }
    ReducePlan {
        init,
        op,
        trailing_inner,
        in_dims: in_shape.dims().to_vec(),
        out_strides,
        out_len: out_shape.num_elements(),
    }
}

/// Executes a compiled [`ReducePlan`] into a preallocated output buffer
/// (`out.len()` must be the plan's `out_len`). Inputs fold in linear
/// (row-major) order while the output offset is tracked incrementally —
/// the accumulation order of a multi-index walk over the input.
fn reduce_f32_into(plan: &ReducePlan, a: &[f32], out: &mut [f32]) {
    assert_eq!(out.len(), plan.out_len);
    out.fill(plan.init);
    let op = plan.op;
    let fold = |acc: f32, v: f32| -> f32 {
        match op {
            ReduceOp::Sum => acc + v,
            ReduceOp::Prod => acc * v,
            ReduceOp::Max => acc.max(v),
            ReduceOp::Min => acc.min(v),
        }
    };
    // Fast path: reducing a contiguous trailing block of dimensions means
    // each output element folds one contiguous input span, in order.
    if let Some(inner) = plan.trailing_inner {
        if inner > 0 {
            for (o, chunk) in out.iter_mut().zip(a.chunks_exact(inner)) {
                *o = chunk.iter().fold(*o, |acc, &v| fold(acc, v));
            }
        }
        return;
    }
    // General path: walk the input linearly; out_strides[d] is the output
    // stride of input dim d (0 for reduced dims).
    let rank = plan.in_dims.len();
    assert!(rank <= MAX_RANK, "tensor rank exceeds MAX_RANK");
    let mut idx = [0usize; MAX_RANK];
    let mut off = 0usize;
    for &v in a {
        out[off] = fold(out[off], v);
        for d in (0..rank).rev() {
            idx[d] += 1;
            off += plan.out_strides[d];
            if idx[d] < plan.in_dims[d] {
                break;
            }
            off -= plan.out_strides[d] * plan.in_dims[d];
            idx[d] = 0;
        }
    }
}

// ---------------------------------------------------------------------------
// Slice kernels: one definition per op
// ---------------------------------------------------------------------------

/// A borrowed, typed, row-major operand buffer of a [`SliceKernel`]: a
/// [`Literal`]'s data or a range of a compiled plan's arena.
#[derive(Debug, Clone, Copy)]
pub enum Buf<'a> {
    /// `f32` elements.
    F32(&'a [f32]),
    /// `i32` elements.
    I32(&'a [i32]),
    /// `pred` elements.
    Pred(&'a [bool]),
}

/// The mutable destination buffer of a [`SliceKernel`].
#[derive(Debug)]
pub enum BufMut<'a> {
    /// `f32` elements.
    F32(&'a mut [f32]),
    /// `i32` elements.
    I32(&'a mut [i32]),
    /// `pred` elements.
    Pred(&'a mut [bool]),
}

fn unplanned() -> IrError {
    IrError::invalid("slice kernel run on buffers it was not planned for")
}

impl<'a> Buf<'a> {
    fn f32(self) -> Result<&'a [f32], IrError> {
        match self {
            Buf::F32(v) => Ok(v),
            _ => Err(unplanned()),
        }
    }

    fn i32(self) -> Result<&'a [i32], IrError> {
        match self {
            Buf::I32(v) => Ok(v),
            _ => Err(unplanned()),
        }
    }

    fn pred(self) -> Result<&'a [bool], IrError> {
        match self {
            Buf::Pred(v) => Ok(v),
            _ => Err(unplanned()),
        }
    }
}

/// One box copied between two strided layouts, whole innermost rows at a
/// time (the innermost stride is 1 on both sides). `pad` lands the part
/// of its operand that survives cropping at a fixed offset of the result;
/// `dynamic_update_slice` lands the update at a runtime offset.
#[derive(Debug, Clone)]
pub struct BoxCopy {
    /// Extent of the copied box per dimension.
    extents: Vec<usize>,
    src_strides: Vec<usize>,
    src_base: usize,
    dst_strides: Vec<usize>,
    dst_base: usize,
}

/// The geometry the three convolution kinds share: input `[n, ci, h, w]`,
/// kernel `[co, ci, kh, kw]`, output `[n, co, ho, wo]`, strides and
/// symmetric zero padding.
#[derive(Debug, Clone)]
pub struct ConvPlan {
    n: usize,
    ci: usize,
    h: usize,
    w: usize,
    co: usize,
    kh: usize,
    kw: usize,
    ho: usize,
    wo: usize,
    dims: ConvDims,
}

/// One region-free, collective-free op compiled against its operand
/// types: extents, strides and clamp/drop rules are fixed here, once, and
/// [`SliceKernel::run`] then works on plain slices without allocating.
///
/// This is the single definition of these ops. [`crate::interp::eval_op`]
/// allocates a result and runs the kernel on it, which covers the
/// reference and lockstep interpreters; compiled plans keep the kernel in
/// a step and run it on arena ranges — so the three agree bit for bit by
/// construction. The element-at-a-time forms they replace live on as
/// oracles in [`crate::reference`].
///
/// Operand order is the op's; every dimension triple below is the
/// row-major split `[outer, axis, inner]` around the op's axis. A kernel
/// writes its whole destination and never reads it first.
#[derive(Debug, Clone)]
pub enum SliceKernel {
    /// `[] → f32 | i32`: element `[o, j, i]` is `j`.
    Iota {
        /// Extent of the counted dimension.
        n: usize,
        /// Elements per step of the counted dimension.
        inner: usize,
    },
    /// `[x] → f32`, lane by lane ([`apply_un`]).
    Unary(UnaryOp),
    /// `[x, y] → f32 | i32`, lane by lane: `f32` is [`apply_bin`]; `i32`
    /// wraps on overflow, has no `pow`, and fails the run on a zero
    /// divisor.
    Binary(BinaryOp),
    /// `[x, y] → pred`, `x` and `y` of one dtype (`false < true`).
    Compare(CompareDir),
    /// `[pred, on_true, on_false] → f32 | i32`.
    Select,
    /// `[x] → any`: numeric casts saturate, `→ pred` is `!= 0`.
    Convert,
    /// `[lhs, rhs] → f32`: batched matmul of register tiles, each
    /// operand read in place through its strides, packed into column
    /// panels (a non-contiguous RHS) or staged by one gather.
    Dot(DotPlan),
    /// `[x] → x's dtype` — `transpose`, `broadcast_in_dim` and `slice`:
    /// result element `i` is `x[base + Σ i[d] · in_strides[d]]`.
    Strided {
        /// Result dimensions.
        out_dims: Vec<usize>,
        /// Operand stride per result dimension (0 = replicated).
        in_strides: Vec<usize>,
        /// Operand offset of result element 0.
        base: usize,
    },
    /// `[x] → x's dtype` — `reshape`: the same elements in the same order.
    Copy,
    /// `[x] → f32`, folded in the operand's linear order.
    Reduce(ReducePlan),
    /// `[x, scalar] → f32`.
    Pad(BoxCopy),
    /// `[x0, …, xk] → their dtype`, joined along the axis.
    Concatenate {
        /// Product of the dimensions before the axis.
        outer: usize,
        /// Product of the dimensions after the axis.
        inner: usize,
        /// Axis extent of each operand.
        extents: Vec<usize>,
    },
    /// `[x, start…] → x's dtype`: the `sizes` box at the `i32` scalar
    /// starts, each clamped into `0..=max_start`.
    DynamicSlice {
        /// Result dimensions.
        sizes: Vec<usize>,
        /// Operand strides.
        strides: Vec<usize>,
        /// Largest start that keeps the box inside the operand.
        max_start: Vec<usize>,
    },
    /// `[x, update, start…] → x's dtype`: `x` with `update` written at
    /// the clamped starts.
    DynamicUpdateSlice {
        /// Where the update lands when every start is 0.
        place: BoxCopy,
        /// Largest start that keeps the update inside the operand.
        max_start: Vec<usize>,
    },
    /// `[x, indices] → f32`: rows of `x` picked along the axis, indices
    /// clamped into `0..n`.
    Gather {
        /// Product of the dimensions before the axis.
        outer: usize,
        /// Extent of the operand's axis.
        n: usize,
        /// Product of the dimensions after the axis.
        inner: usize,
    },
    /// `[src, indices] → f32`: rows of `src` added into a zeroed result
    /// in source order; targets outside `0..size` are dropped.
    ScatterAdd {
        /// Product of the dimensions before the axis.
        outer: usize,
        /// Extent of the result's axis.
        size: usize,
        /// Product of the dimensions after the axis.
        inner: usize,
    },
    /// `[input, kernel] → f32`: each output sums its taps in
    /// `(channel, kh, kw)` order.
    Convolution(ConvPlan),
    /// `[out_grad, kernel] → f32`: contributions added in the forward
    /// loop order, zero gradients skipped.
    ConvInputGrad(ConvPlan),
    /// `[input, out_grad] → f32`: as [`SliceKernel::ConvInputGrad`].
    ConvFilterGrad(ConvPlan),
    /// `[x] → i32`: first strict maximum along the axis; a row with
    /// nothing above `-inf` (all `-inf`, all NaN) answers 0.
    ArgMax {
        /// Product of the dimensions before the axis.
        outer: usize,
        /// Extent of the reduced axis.
        n: usize,
        /// Product of the dimensions after the axis.
        inner: usize,
    },
}

/// Operand views [`SliceKernel::run`] keeps on the stack: enough for
/// `dynamic_update_slice` at rank 6, the widest op of the zoo (and
/// `analysis::objective::MAX_OPERANDS`).
const STACK_SRCS: usize = 8;

/// `[outer, axis, inner]` extents of `shape` around `axis`.
fn split_at_axis(shape: &Shape, axis: usize) -> (usize, usize, usize) {
    let dims = shape.dims();
    (
        dims[..axis].iter().product(),
        dims[axis],
        dims[axis + 1..].iter().product(),
    )
}

/// Per-dimension largest start of a `sizes` box inside `shape`.
fn max_starts(shape: &Shape, sizes: &[usize]) -> Vec<usize> {
    shape
        .dims()
        .iter()
        .zip(sizes)
        .map(|(&d, &s)| d - s)
        .collect()
}

impl SliceKernel {
    /// Compiles `kind` against its operand types. Returns the kernel and
    /// the type of the buffer it fills.
    ///
    /// # Errors
    ///
    /// `constant`, `for` and collectives, which are not kernels; whatever
    /// [`crate::infer::infer_result_types`] rejects; the dtypes the op
    /// has no semantics for (`pred` iota, `pred` binary, integer `pow`,
    /// non-`f32` dot / reduce / pad / gather / scatter_add / arg_max /
    /// convolution); a gather from an empty axis.
    pub fn plan(kind: &OpKind, operands: &[TensorType]) -> Result<(Self, TensorType), IrError> {
        let out = crate::infer::infer_result_types(kind, operands, None)?
            .pop()
            .ok_or_else(|| IrError::invalid("slice kernel op without a result"))?;
        let f32_only = |ty: &TensorType| match ty.dtype {
            DType::F32 => Ok(()),
            dt => Err(IrError::type_mismatch("f32 operand", dt)),
        };
        let strided =
            |out_dims: Vec<usize>, in_strides: Vec<usize>, base: usize| SliceKernel::Strided {
                out_dims,
                in_strides,
                base,
            };
        let kernel = match kind {
            OpKind::Iota { dim, shape, dtype } => {
                if *dtype == DType::Pred {
                    return Err(IrError::unsupported("pred iota"));
                }
                let (_, n, inner) = split_at_axis(shape, *dim);
                SliceKernel::Iota { n, inner }
            }
            OpKind::Unary(u) => SliceKernel::Unary(*u),
            OpKind::Binary(b) => match (operands[0].dtype, b) {
                (DType::Pred, _) => return Err(IrError::unsupported("binary op on pred")),
                (DType::I32, BinaryOp::Pow) => return Err(IrError::unsupported("integer pow")),
                _ => SliceKernel::Binary(*b),
            },
            OpKind::Compare(dir) => SliceKernel::Compare(*dir),
            OpKind::Select => SliceKernel::Select,
            OpKind::Convert(_) => SliceKernel::Convert,
            OpKind::Dot(dims) => {
                f32_only(&operands[0])?;
                SliceKernel::Dot(plan_dot(dims, &operands[0].shape, &operands[1].shape))
            }
            OpKind::Transpose { perm } => {
                let strides = operands[0].shape.strides();
                strided(
                    out.shape.dims().to_vec(),
                    perm.iter().map(|&p| strides[p]).collect(),
                    0,
                )
            }
            OpKind::BroadcastInDim { broadcast_dims, .. } => {
                let in_shape = &operands[0].shape;
                let strides = in_shape.strides();
                let mut in_strides = vec![0usize; out.shape.rank()];
                for (i, &bd) in broadcast_dims.iter().enumerate() {
                    if in_shape.dim(i) != 1 {
                        in_strides[bd] = strides[i];
                    }
                }
                strided(out.shape.dims().to_vec(), in_strides, 0)
            }
            OpKind::Slice {
                starts,
                strides: steps,
                ..
            } => {
                let strides = operands[0].shape.strides();
                strided(
                    out.shape.dims().to_vec(),
                    strides.iter().zip(steps).map(|(&s, &k)| s * k).collect(),
                    starts.iter().zip(&strides).map(|(&s, &st)| s * st).sum(),
                )
            }
            OpKind::Reshape { .. } => SliceKernel::Copy,
            OpKind::Reduce { op, dims } => {
                f32_only(&operands[0])?;
                SliceKernel::Reduce(plan_reduce(*op, &operands[0].shape, dims))
            }
            OpKind::Pad { low, high } => {
                f32_only(&operands[0])?;
                SliceKernel::Pad(plan_pad(&operands[0].shape, &out.shape, low, high))
            }
            OpKind::Concatenate { dim } => {
                let (outer, _, inner) = split_at_axis(&out.shape, *dim);
                SliceKernel::Concatenate {
                    outer,
                    inner,
                    extents: operands.iter().map(|t| t.shape.dim(*dim)).collect(),
                }
            }
            OpKind::DynamicSlice { sizes } => SliceKernel::DynamicSlice {
                sizes: sizes.clone(),
                strides: operands[0].shape.strides(),
                max_start: max_starts(&operands[0].shape, sizes),
            },
            OpKind::DynamicUpdateSlice => {
                let update = &operands[1].shape;
                SliceKernel::DynamicUpdateSlice {
                    place: BoxCopy {
                        extents: update.dims().to_vec(),
                        src_strides: update.strides(),
                        src_base: 0,
                        dst_strides: out.shape.strides(),
                        dst_base: 0,
                    },
                    max_start: max_starts(&out.shape, update.dims()),
                }
            }
            OpKind::Gather { axis } => {
                f32_only(&operands[0])?;
                let (outer, n, inner) = split_at_axis(&operands[0].shape, *axis);
                if n == 0 && out.shape.num_elements() > 0 {
                    return Err(IrError::invalid("gather from an empty axis"));
                }
                SliceKernel::Gather { outer, n, inner }
            }
            OpKind::ScatterAdd { axis, size } => {
                f32_only(&operands[0])?;
                let (outer, _, inner) = split_at_axis(&operands[0].shape, *axis);
                SliceKernel::ScatterAdd {
                    outer,
                    size: *size,
                    inner,
                }
            }
            OpKind::Convolution(dims) => {
                f32_only(&operands[0])?;
                let (input, kernel) = (&operands[0].shape, &operands[1].shape);
                SliceKernel::Convolution(plan_conv(*dims, input, kernel, &out.shape))
            }
            OpKind::ConvInputGrad { dims, .. } => {
                f32_only(&operands[0])?;
                let (out_grad, kernel) = (&operands[0].shape, &operands[1].shape);
                SliceKernel::ConvInputGrad(plan_conv(*dims, &out.shape, kernel, out_grad))
            }
            OpKind::ConvFilterGrad { dims, .. } => {
                f32_only(&operands[0])?;
                let (input, out_grad) = (&operands[0].shape, &operands[1].shape);
                SliceKernel::ConvFilterGrad(plan_conv(*dims, input, &out.shape, out_grad))
            }
            OpKind::ArgMax { dim } => {
                f32_only(&operands[0])?;
                let (outer, n, inner) = split_at_axis(&operands[0].shape, *dim);
                SliceKernel::ArgMax { outer, n, inner }
            }
            OpKind::Constant(_) | OpKind::For { .. } | OpKind::Collective(_) => {
                return Err(IrError::invalid(format!(
                    "{} is not a slice kernel op",
                    kind.name()
                )))
            }
        };
        Ok((kernel, out))
    }

    /// Fills `dst` from `srcs`, the op's operands in order. Performs no
    /// heap allocation for up to eight operands — every op but a wider
    /// `concatenate`, whose operand views spill to a `Vec`.
    ///
    /// # Errors
    ///
    /// When the buffers' dtypes are not the ones the kernel was planned
    /// for; an `i32` division by zero. Buffer *lengths* are the planner's
    /// contract and are asserted.
    pub fn run<'a>(
        &self,
        srcs: impl IntoIterator<Item = Buf<'a>>,
        dst: BufMut<'_>,
    ) -> Result<(), IrError> {
        let mut stack = [Buf::Pred(&[]); STACK_SRCS];
        let mut spill = Vec::new();
        let mut n = 0;
        for src in srcs {
            match stack.get_mut(n) {
                Some(slot) => *slot = src,
                None => {
                    if spill.is_empty() {
                        spill.extend_from_slice(&stack);
                    }
                    spill.push(src);
                }
            }
            n += 1;
        }
        self.run_on(if n <= STACK_SRCS { &stack[..n] } else { &spill }, dst)
    }

    fn run_on(&self, srcs: &[Buf<'_>], dst: BufMut<'_>) -> Result<(), IrError> {
        use {Buf as B, BufMut as M};
        // `$call` once per dtype, sources and destination bound to slices of it.
        macro_rules! same_dtype {
            ($($x:ident),+ => $out:ident: $call:expr) => {
                match ($(*$x),+, $out) {
                    ($(B::F32($x)),+, M::F32($out)) => $call,
                    ($(B::I32($x)),+, M::I32($out)) => $call,
                    ($(B::Pred($x)),+, M::Pred($out)) => $call,
                    _ => return Err(unplanned()),
                }
            };
        }
        match (self, srcs, dst) {
            (SliceKernel::Iota { n, inner }, [], M::F32(out)) => {
                iota_into(out, *n, *inner, |j| j as f32)
            }
            (SliceKernel::Iota { n, inner }, [], M::I32(out)) => {
                iota_into(out, *n, *inner, |j| j as i32)
            }
            (SliceKernel::Unary(op), [B::F32(x)], M::F32(out)) => apply_un(*op, x, out),
            (SliceKernel::Binary(op), [B::F32(x), B::F32(y)], M::F32(out)) => {
                apply_bin(*op, x, y, out)
            }
            (SliceKernel::Binary(op), [B::I32(x), B::I32(y)], M::I32(out)) => {
                binary_i32_into(*op, x, y, out)?
            }
            (SliceKernel::Compare(dir), [B::F32(x), B::F32(y)], M::Pred(out)) => {
                compare_into(*dir, x, y, out)
            }
            (SliceKernel::Compare(dir), [B::I32(x), B::I32(y)], M::Pred(out)) => {
                compare_into(*dir, x, y, out)
            }
            (SliceKernel::Compare(dir), [B::Pred(x), B::Pred(y)], M::Pred(out)) => {
                compare_into(*dir, x, y, out)
            }
            (SliceKernel::Select, [B::Pred(p), B::F32(t), B::F32(f)], M::F32(out)) => {
                select_into(p, t, f, out)
            }
            (SliceKernel::Select, [B::Pred(p), B::I32(t), B::I32(f)], M::I32(out)) => {
                select_into(p, t, f, out)
            }
            (SliceKernel::Convert, [x], out) => convert_into(*x, out),
            (SliceKernel::Dot(plan), [B::F32(a), B::F32(b)], M::F32(out)) => {
                dot_general_into(plan, a, b, out)
            }
            (
                SliceKernel::Strided {
                    out_dims,
                    in_strides,
                    base,
                },
                [x],
                out,
            ) => same_dtype!(x => out: gather_strided_into(out, x, out_dims, in_strides, *base)),
            (SliceKernel::Copy, [x], out) => same_dtype!(x => out: out.copy_from_slice(x)),
            (SliceKernel::Reduce(plan), [B::F32(x)], M::F32(out)) => reduce_f32_into(plan, x, out),
            (SliceKernel::Pad(place), [B::F32(x), B::F32(value)], M::F32(out)) => {
                out.fill(value[0]);
                copy_box(place, x, out, 0);
            }
            (
                SliceKernel::Concatenate {
                    outer,
                    inner,
                    extents,
                },
                srcs,
                out,
            ) => match out {
                M::F32(out) => concat_into(out, srcs, Buf::f32, *outer, *inner, extents)?,
                M::I32(out) => concat_into(out, srcs, Buf::i32, *outer, *inner, extents)?,
                M::Pred(out) => concat_into(out, srcs, Buf::pred, *outer, *inner, extents)?,
            },
            (
                SliceKernel::DynamicSlice {
                    sizes,
                    strides,
                    max_start,
                },
                [x, starts @ ..],
                out,
            ) => {
                let base = clamped_base(starts, max_start, strides)?;
                same_dtype!(x => out: gather_strided_into(out, x, sizes, strides, base))
            }
            (
                SliceKernel::DynamicUpdateSlice { place, max_start },
                [x, update, starts @ ..],
                out,
            ) => {
                let base = clamped_base(starts, max_start, &place.dst_strides)?;
                same_dtype!(x, update => out: {
                    out.copy_from_slice(x);
                    copy_box(place, update, out, base);
                })
            }
            (SliceKernel::Gather { outer, n, inner }, [B::F32(x), B::I32(idx)], M::F32(out)) => {
                gather_rows_into(out, x, idx, *outer, *n, *inner)
            }
            (
                SliceKernel::ScatterAdd { outer, size, inner },
                [B::F32(src), B::I32(idx)],
                M::F32(out),
            ) => scatter_add_into(out, src, idx, *outer, *size, *inner),
            (SliceKernel::Convolution(p), [B::F32(input), B::F32(kernel)], M::F32(out)) => {
                conv_into(p, input, kernel, out)
            }
            (SliceKernel::ConvInputGrad(p), [B::F32(out_grad), B::F32(kernel)], M::F32(out)) => {
                conv_input_grad_into(p, out_grad, kernel, out)
            }
            (SliceKernel::ConvFilterGrad(p), [B::F32(input), B::F32(out_grad)], M::F32(out)) => {
                conv_filter_grad_into(p, input, out_grad, out)
            }
            (SliceKernel::ArgMax { outer, n, inner }, [B::F32(x)], M::I32(out)) => {
                arg_max_into(out, x, *outer, *n, *inner)
            }
            _ => return Err(unplanned()),
        }
        Ok(())
    }
}

fn iota_into<T: Copy>(out: &mut [T], n: usize, inner: usize, from: impl Fn(usize) -> T) {
    if out.is_empty() {
        return;
    }
    for (row, chunk) in out.chunks_exact_mut(inner).enumerate() {
        chunk.fill(from(row % n));
    }
}

/// `d[j] = op(a[j])` with the operator match hoisted out of the loop so
/// each arm is a tight, autovectorizable kernel. The one statement of the
/// unary lane formulas: [`SliceKernel::Unary`] and the register blocks of
/// a compiled plan's fused elementwise machine both call it, so fused and
/// op-by-op evaluation agree bit for bit.
pub fn apply_un(op: UnaryOp, a: &[f32], d: &mut [f32]) {
    assert_eq!(a.len(), d.len());
    macro_rules! lanes {
        ($f:expr) => {
            for (y, &x) in d.iter_mut().zip(a) {
                *y = $f(x);
            }
        };
    }
    match op {
        UnaryOp::Neg => lanes!(|x: f32| -x),
        UnaryOp::Exp => lanes!(f32::exp),
        UnaryOp::Log => lanes!(f32::ln),
        UnaryOp::Tanh => lanes!(f32::tanh),
        UnaryOp::Sqrt => lanes!(f32::sqrt),
        UnaryOp::Rsqrt => lanes!(|x: f32| 1.0 / x.sqrt()),
        UnaryOp::Abs => lanes!(f32::abs),
        UnaryOp::Logistic => lanes!(|x: f32| 1.0 / (1.0 + (-x).exp())),
        UnaryOp::Sin => lanes!(f32::sin),
        UnaryOp::Cos => lanes!(f32::cos),
    }
}

/// `d[j] = op(a[j], b[j])`, operator match hoisted like [`apply_un`].
pub fn apply_bin(op: BinaryOp, a: &[f32], b: &[f32], d: &mut [f32]) {
    assert!(a.len() == d.len() && b.len() == d.len());
    macro_rules! lanes {
        ($f:expr) => {
            for ((y, &x1), &x2) in d.iter_mut().zip(a).zip(b) {
                *y = $f(x1, x2);
            }
        };
    }
    match op {
        BinaryOp::Add => lanes!(|x: f32, y: f32| x + y),
        BinaryOp::Sub => lanes!(|x: f32, y: f32| x - y),
        BinaryOp::Mul => lanes!(|x: f32, y: f32| x * y),
        BinaryOp::Div => lanes!(|x: f32, y: f32| x / y),
        BinaryOp::Max => lanes!(f32::max),
        BinaryOp::Min => lanes!(f32::min),
        BinaryOp::Pow => lanes!(f32::powf),
    }
}

/// The `i32` lanes: arithmetic wraps (`i32::MIN / -1` included), a zero
/// divisor fails the run. `pow` is refused when the kernel is planned.
fn binary_i32_into(op: BinaryOp, a: &[i32], b: &[i32], d: &mut [i32]) -> Result<(), IrError> {
    assert!(a.len() == d.len() && b.len() == d.len());
    macro_rules! lanes {
        ($f:expr) => {
            for ((y, &x1), &x2) in d.iter_mut().zip(a).zip(b) {
                *y = $f(x1, x2);
            }
        };
    }
    match op {
        BinaryOp::Add => lanes!(i32::wrapping_add),
        BinaryOp::Sub => lanes!(i32::wrapping_sub),
        BinaryOp::Mul => lanes!(i32::wrapping_mul),
        BinaryOp::Div => {
            if b.contains(&0) {
                return Err(IrError::invalid("integer division by zero"));
            }
            lanes!(i32::wrapping_div)
        }
        BinaryOp::Max => lanes!(i32::max),
        BinaryOp::Min => lanes!(i32::min),
        BinaryOp::Pow => return Err(IrError::unsupported("integer pow")),
    }
    Ok(())
}

/// `out[i] = x[i] <dir> y[i]`, the direction matched once outside the
/// loop. `f32` follows IEEE (every ordered comparison with a NaN is
/// false, `!=` true); `pred` orders `false < true`.
fn compare_into<T: Copy + PartialOrd>(dir: CompareDir, x: &[T], y: &[T], out: &mut [bool]) {
    assert!(x.len() == out.len() && y.len() == out.len());
    macro_rules! lanes {
        ($op:tt) => {
            for ((o, &a), &b) in out.iter_mut().zip(x).zip(y) {
                *o = a $op b;
            }
        };
    }
    match dir {
        CompareDir::Eq => lanes!(==),
        CompareDir::Ne => lanes!(!=),
        CompareDir::Lt => lanes!(<),
        CompareDir::Le => lanes!(<=),
        CompareDir::Gt => lanes!(>),
        CompareDir::Ge => lanes!(>=),
    }
}

fn select_into<T: Copy>(pred: &[bool], on_true: &[T], on_false: &[T], out: &mut [T]) {
    assert!(pred.len() == out.len() && on_true.len() == out.len() && on_false.len() == out.len());
    for (((o, &p), &t), &f) in out.iter_mut().zip(pred).zip(on_true).zip(on_false) {
        *o = if p { t } else { f };
    }
}

fn map_into<S: Copy, D>(src: &[S], out: &mut [D], f: impl Fn(S) -> D) {
    assert_eq!(src.len(), out.len());
    for (o, &v) in out.iter_mut().zip(src) {
        *o = f(v);
    }
}

/// Rust's `as` casts are the op's semantics: float → int saturates and
/// sends NaN to 0, int → float rounds to nearest even.
fn convert_into(src: Buf<'_>, out: BufMut<'_>) {
    use {Buf as B, BufMut as M};
    match (src, out) {
        (B::F32(s), M::F32(d)) => d.copy_from_slice(s),
        (B::I32(s), M::I32(d)) => d.copy_from_slice(s),
        (B::Pred(s), M::Pred(d)) => d.copy_from_slice(s),
        (B::F32(s), M::I32(d)) => map_into(s, d, |v| v as i32),
        (B::F32(s), M::Pred(d)) => map_into(s, d, |v| v != 0.0),
        (B::I32(s), M::F32(d)) => map_into(s, d, |v| v as f32),
        (B::I32(s), M::Pred(d)) => map_into(s, d, |v| v != 0),
        (B::Pred(s), M::F32(d)) => map_into(s, d, |v| v as u8 as f32),
        (B::Pred(s), M::I32(d)) => map_into(s, d, i32::from),
    }
}

/// The box of `in_shape` that survives `low`/`high` and where it lands
/// in `out_shape`: input index `s` of dimension `d` is kept when
/// `0 <= s < in` and `0 <= s + low < out`.
fn plan_pad(in_shape: &Shape, out_shape: &Shape, low: &[i64], high: &[i64]) -> BoxCopy {
    let rank = in_shape.rank();
    let mut extents = Vec::with_capacity(rank);
    let (mut src_base, mut dst_base) = (0usize, 0usize);
    let (src_strides, dst_strides) = (in_shape.strides(), out_shape.strides());
    for d in 0..rank {
        let size = in_shape.dim(d) as i64;
        let first = (-low[d]).max(0);
        let end = size.min(size + high[d]);
        extents.push((end - first).max(0) as usize);
        src_base += first as usize * src_strides[d];
        dst_base += (first + low[d]) as usize * dst_strides[d];
    }
    BoxCopy {
        extents,
        src_strides,
        src_base,
        dst_strides,
        dst_base,
    }
}

/// Copies `place`'s box from `src` into `dst`, `offset` elements past
/// where the plan put it.
fn copy_box<T: Copy>(place: &BoxCopy, src: &[T], dst: &mut [T], offset: usize) {
    let dst_base = place.dst_base + offset;
    let total: usize = place.extents.iter().product();
    if total == 0 {
        return;
    }
    let Some((&row, outer_extents)) = place.extents.split_last() else {
        dst[dst_base] = src[place.src_base];
        return;
    };
    let inner = outer_extents.len();
    assert!(inner < MAX_RANK, "tensor rank exceeds MAX_RANK");
    let mut idx = [0usize; MAX_RANK];
    let (mut from, mut to) = (place.src_base, dst_base);
    for _ in 0..total / row {
        dst[to..to + row].copy_from_slice(&src[from..from + row]);
        for d in (0..inner).rev() {
            idx[d] += 1;
            from += place.src_strides[d];
            to += place.dst_strides[d];
            if idx[d] < outer_extents[d] {
                break;
            }
            from -= place.src_strides[d] * outer_extents[d];
            to -= place.dst_strides[d] * outer_extents[d];
            idx[d] = 0;
        }
    }
}

/// Linear offset of a box at the runtime `starts` (`i32` scalars):
/// negative starts clamp to 0, large ones to `max_start`.
fn clamped_base(
    starts: &[Buf<'_>],
    max_start: &[usize],
    strides: &[usize],
) -> Result<usize, IrError> {
    assert_eq!(starts.len(), max_start.len());
    let mut base = 0;
    for ((start, &max), &stride) in starts.iter().zip(max_start).zip(strides) {
        base += (start.i32()?[0].max(0) as usize).min(max) * stride;
    }
    Ok(base)
}

/// Row-span concatenation; `typed` views each operand as the result's
/// dtype.
fn concat_into<'a, T: Copy>(
    out: &mut [T],
    srcs: &[Buf<'a>],
    typed: fn(Buf<'a>) -> Result<&'a [T], IrError>,
    outer: usize,
    inner: usize,
    extents: &[usize],
) -> Result<(), IrError> {
    assert_eq!(srcs.len(), extents.len());
    let out_row = extents.iter().sum::<usize>() * inner;
    assert_eq!(out.len(), outer * out_row);
    let mut offset = 0;
    for (&src, &extent) in srcs.iter().zip(extents) {
        let src = typed(src)?;
        let rows = extent * inner;
        for o in 0..outer {
            out[o * out_row + offset..o * out_row + offset + rows]
                .copy_from_slice(&src[o * rows..(o + 1) * rows]);
        }
        offset += rows;
    }
    Ok(())
}

fn gather_rows_into(
    out: &mut [f32],
    x: &[f32],
    indices: &[i32],
    outer: usize,
    n: usize,
    inner: usize,
) {
    assert_eq!(out.len(), outer * indices.len() * inner);
    assert_eq!(x.len(), outer * n * inner);
    if out.is_empty() {
        return;
    }
    let last = n as i32 - 1;
    let mut rows = out.chunks_exact_mut(inner);
    for o in 0..outer {
        for (&i, row) in indices.iter().zip(&mut rows) {
            let at = (o * n + i.clamp(0, last) as usize) * inner;
            row.copy_from_slice(&x[at..at + inner]);
        }
    }
}

/// For one result element the contributions arrive in ascending source
/// index along the axis — the order of a linear walk over `src` — so
/// `f32` sums over duplicate targets are bit-identical to that walk.
fn scatter_add_into(
    out: &mut [f32],
    src: &[f32],
    indices: &[i32],
    outer: usize,
    size: usize,
    inner: usize,
) {
    assert_eq!(out.len(), outer * size * inner);
    assert_eq!(src.len(), outer * indices.len() * inner);
    out.fill(0.0);
    if src.is_empty() {
        return;
    }
    let mut rows = src.chunks_exact(inner);
    for o in 0..outer {
        for (&target, row) in indices.iter().zip(&mut rows) {
            if target < 0 || target as usize >= size {
                continue;
            }
            let at = (o * size + target as usize) * inner;
            for (acc, &v) in out[at..at + inner].iter_mut().zip(row) {
                *acc += v;
            }
        }
    }
}

fn plan_conv(dims: ConvDims, input: &Shape, kernel: &Shape, output: &Shape) -> ConvPlan {
    ConvPlan {
        n: input.dim(0),
        ci: input.dim(1),
        h: input.dim(2),
        w: input.dim(3),
        co: kernel.dim(0),
        kh: kernel.dim(2),
        kw: kernel.dim(3),
        ho: output.dim(2),
        wo: output.dim(3),
        dims,
    }
}

impl ConvPlan {
    /// The input pixel kernel tap `(khi, kwi)` reads for output pixel
    /// `(oh, ow)`; `None` in the zero padding.
    fn tap(&self, oh: usize, ow: usize, khi: usize, kwi: usize) -> Option<(usize, usize)> {
        let ih = (oh * self.dims.strides.0 + khi).checked_sub(self.dims.padding.0)?;
        let iw = (ow * self.dims.strides.1 + kwi).checked_sub(self.dims.padding.1)?;
        (ih < self.h && iw < self.w).then_some((ih, iw))
    }

    fn input_at(&self, bi: usize, icn: usize, ih: usize, iw: usize) -> usize {
        ((bi * self.ci + icn) * self.h + ih) * self.w + iw
    }

    fn kernel_at(&self, oc: usize, icn: usize, khi: usize, kwi: usize) -> usize {
        ((oc * self.ci + icn) * self.kh + khi) * self.kw + kwi
    }

    fn output_at(&self, bi: usize, oc: usize, oh: usize, ow: usize) -> usize {
        ((bi * self.co + oc) * self.ho + oh) * self.wo + ow
    }

    /// `f(output element, input element, kernel element)` for every tap
    /// that lands inside the input, in the forward loop order: output
    /// elements row-major, then `(channel, kh, kw)`.
    fn for_each_tap(&self, mut f: impl FnMut(usize, usize, usize)) {
        for bi in 0..self.n {
            for oc in 0..self.co {
                for oh in 0..self.ho {
                    for ow in 0..self.wo {
                        let o = self.output_at(bi, oc, oh, ow);
                        for icn in 0..self.ci {
                            for khi in 0..self.kh {
                                for kwi in 0..self.kw {
                                    if let Some((ih, iw)) = self.tap(oh, ow, khi, kwi) {
                                        f(
                                            o,
                                            self.input_at(bi, icn, ih, iw),
                                            self.kernel_at(oc, icn, khi, kwi),
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

fn conv_into(p: &ConvPlan, input: &[f32], kernel: &[f32], out: &mut [f32]) {
    out.fill(0.0);
    p.for_each_tap(|o, i, k| out[o] += input[i] * kernel[k]);
}

fn conv_input_grad_into(p: &ConvPlan, out_grad: &[f32], kernel: &[f32], out: &mut [f32]) {
    out.fill(0.0);
    p.for_each_tap(|o, i, k| {
        if out_grad[o] != 0.0 {
            out[i] += out_grad[o] * kernel[k];
        }
    });
}

fn conv_filter_grad_into(p: &ConvPlan, input: &[f32], out_grad: &[f32], out: &mut [f32]) {
    out.fill(0.0);
    p.for_each_tap(|o, i, k| {
        if out_grad[o] != 0.0 {
            out[k] += out_grad[o] * input[i];
        }
    });
}

fn arg_max_into(out: &mut [i32], x: &[f32], outer: usize, n: usize, inner: usize) {
    assert_eq!(out.len(), outer * inner);
    assert_eq!(x.len(), outer * n * inner);
    for (o, out_row) in out.chunks_exact_mut(inner.max(1)).enumerate() {
        for (i, arg) in out_row.iter_mut().enumerate() {
            let mut best = f32::NEG_INFINITY;
            *arg = 0;
            for j in 0..n {
                let v = x[(o * n + j) * inner + i];
                if v > best {
                    best = v;
                    *arg = j as i32;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// elementwise fold (collectives)
// ---------------------------------------------------------------------------

/// Folds `piece` into an owned accumulator elementwise
/// (`acc[i] = acc[i] ⊕ piece[i]`), mutating in place when the
/// accumulator's copy-on-write buffer is uniquely owned.
///
/// Bit-identical to evaluating the corresponding `Binary` op (same
/// operand order, same operation), which is what the lockstep interpreter
/// does; the threaded runtime's collectives use this on received payloads,
/// which are always unique.
///
/// # Errors
///
/// Fails on dtype/shape mismatches or pred operands.
pub fn fold_reduce(
    mut acc: Literal,
    piece: &Literal,
    reduce: ReduceOp,
) -> Result<Literal, IrError> {
    if acc.shape() != piece.shape() {
        return Err(IrError::invalid(format!(
            "fold shape mismatch {} vs {}",
            acc.shape(),
            piece.shape()
        )));
    }
    let bin = match reduce {
        ReduceOp::Sum => BinaryOp::Add,
        ReduceOp::Max => BinaryOp::Max,
        ReduceOp::Min => BinaryOp::Min,
        ReduceOp::Prod => BinaryOp::Mul,
    };
    match acc.dtype() {
        DType::F32 => {
            let rhs = piece.as_f32()?;
            for (a, &b) in acc.as_f32_mut()?.iter_mut().zip(rhs) {
                *a = match bin {
                    BinaryOp::Add => *a + b,
                    BinaryOp::Max => a.max(b),
                    BinaryOp::Min => a.min(b),
                    _ => *a * b,
                };
            }
            Ok(acc)
        }
        DType::I32 => {
            let rhs = piece.as_i32()?;
            for (a, &b) in acc.as_i32_mut()?.iter_mut().zip(rhs) {
                *a = match bin {
                    BinaryOp::Add => a.wrapping_add(b),
                    BinaryOp::Max => (*a).max(b),
                    BinaryOp::Min => (*a).min(b),
                    _ => a.wrapping_mul(b),
                };
            }
            Ok(acc)
        }
        DType::Pred => Err(IrError::unsupported("fold on pred")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(data: Vec<f32>, dims: &[usize]) -> Literal {
        Literal::from_f32(data, dims.to_vec()).unwrap()
    }

    #[test]
    fn blocked_matmul_matches_reference() {
        let dims = DotDims::matmul();
        let a = lit((0..12).map(|v| v as f32 * 0.5 - 2.0).collect(), &[3, 4]);
        let b = lit((0..20).map(|v| v as f32 * 0.25 + 1.0).collect(), &[4, 5]);
        let fast = dot_general(&dims, &a, &b).unwrap();
        let oracle = dot_general_reference(&dims, &a, &b).unwrap();
        assert_eq!(fast, oracle);
        assert_eq!(fast.shape().dims(), &[3, 5]);
    }

    #[test]
    fn transposed_contraction_matches_reference() {
        // Contract lhs dim 0 with rhs dim 1: both operands need staging.
        let dims = DotDims {
            lhs_batch: vec![],
            rhs_batch: vec![],
            lhs_contract: vec![0],
            rhs_contract: vec![1],
        };
        let a = lit((0..12).map(|v| (v as f32).sin()).collect(), &[4, 3]);
        let b = lit((0..8).map(|v| (v as f32).cos()).collect(), &[2, 4]);
        let fast = dot_general(&dims, &a, &b).unwrap();
        let oracle = dot_general_reference(&dims, &a, &b).unwrap();
        assert_eq!(fast, oracle);
    }

    #[test]
    fn batched_multi_contract_matches_reference() {
        let dims = DotDims {
            lhs_batch: vec![0],
            rhs_batch: vec![0],
            lhs_contract: vec![2, 3],
            rhs_contract: vec![1, 2],
        };
        let a = lit(
            (0..2 * 3 * 2 * 2).map(|v| v as f32 * 0.1).collect(),
            &[2, 3, 2, 2],
        );
        let b = lit(
            (0..2 * 2 * 2 * 4).map(|v| v as f32 * 0.3 - 1.0).collect(),
            &[2, 2, 2, 4],
        );
        let fast = dot_general(&dims, &a, &b).unwrap();
        let oracle = dot_general_reference(&dims, &a, &b).unwrap();
        assert_eq!(fast, oracle);
        assert_eq!(fast.shape().dims(), &[2, 3, 4]);
    }

    #[test]
    fn zero_sized_contraction() {
        let dims = DotDims::matmul();
        let a = lit(vec![], &[2, 0]);
        let b = lit(vec![], &[0, 3]);
        let fast = dot_general(&dims, &a, &b).unwrap();
        assert_eq!(fast.as_f32().unwrap(), &[0.0; 6]);
        assert_eq!(fast, dot_general_reference(&dims, &a, &b).unwrap());
    }

    #[test]
    fn scratch_arena_recycles_buffers() {
        // A transposed LHS is read in place: no buffer is borrowed.
        let at_b = DotDims {
            lhs_batch: vec![],
            rhs_batch: vec![],
            lhs_contract: vec![0],
            rhs_contract: vec![0],
        };
        let a = lit(vec![1.0; 8], &[4, 2]);
        let b = lit(vec![2.0; 12], &[4, 3]);
        let before = scratch_pool_len();
        dot_general(&at_b, &a, &b).unwrap();
        assert_eq!(
            scratch_pool_len(),
            before,
            "nothing borrowed, nothing pooled"
        );
        // A transposed RHS is packed into column panels, and an LHS whose
        // free dims are split by the contract dim is staged: both buffers
        // come from the arena and go back to it.
        let split = DotDims {
            lhs_batch: vec![],
            rhs_batch: vec![],
            lhs_contract: vec![1],
            rhs_contract: vec![1],
        };
        let a = lit(vec![1.0; 24], &[2, 4, 3]);
        let b = lit(vec![2.0; 20], &[5, 4]);
        let fast = dot_general(&split, &a, &b).unwrap();
        assert_eq!(fast, dot_general_reference(&split, &a, &b).unwrap());
        assert!(
            scratch_pool_len() >= before + 2,
            "staging and panel buffers return to the pool"
        );
    }

    /// One op through its kernel, as the interpreter runs it.
    fn eval(kind: OpKind, operands: &[&Literal]) -> Literal {
        crate::interp::eval_op(&kind, operands).unwrap().remove(0)
    }

    #[test]
    fn strided_slice_matches_semantics() {
        let x = lit((0..24).map(|v| v as f32).collect(), &[4, 6]);
        let kind = OpKind::Slice {
            starts: vec![1, 0],
            limits: vec![4, 6],
            strides: vec![2, 3],
        };
        let s = eval(kind, &[&x]);
        assert_eq!(s.shape().dims(), &[2, 2]);
        assert_eq!(s.as_f32().unwrap(), &[6.0, 9.0, 18.0, 21.0]);
    }

    #[test]
    fn concat_copies_row_spans() {
        let a = lit(vec![0., 1., 2., 3.], &[2, 2]);
        let b = lit(vec![4., 5., 6., 7.], &[2, 2]);
        let c = eval(OpKind::Concatenate { dim: 1 }, &[&a, &b]);
        assert_eq!(c.shape().dims(), &[2, 4]);
        assert_eq!(c.as_f32().unwrap(), &[0., 1., 4., 5., 2., 3., 6., 7.]);
        let c0 = eval(OpKind::Concatenate { dim: 0 }, &[&a, &b]);
        assert_eq!(c0.as_f32().unwrap(), &[0., 1., 2., 3., 4., 5., 6., 7.]);
    }

    #[test]
    fn update_slice_lands_at_the_start_and_leaves_the_operand_alone() {
        let base = lit(vec![0.0; 16], &[4, 4]);
        let update = lit(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let one = Literal::scalar_i32(1);
        let out = eval(OpKind::DynamicUpdateSlice, &[&base, &update, &one, &one]);
        assert_eq!(
            out.as_f32().unwrap(),
            &[0., 0., 0., 0., 0., 1., 2., 0., 0., 3., 4., 0., 0., 0., 0., 0.]
        );
        assert_eq!(base.as_f32().unwrap(), &[0.0; 16]);
    }

    #[test]
    fn fold_reduce_in_place_and_correct() {
        let acc = lit(vec![1.0, 5.0], &[2]);
        let ptr = acc.as_f32().unwrap().as_ptr();
        let piece = lit(vec![3.0, 2.0], &[2]);
        let out = fold_reduce(acc, &piece, ReduceOp::Max).unwrap();
        assert_eq!(out.as_f32().unwrap(), &[3.0, 5.0]);
        assert_eq!(out.as_f32().unwrap().as_ptr(), ptr);
        let i = Literal::from_i32(vec![2, 3], [2]).unwrap();
        let j = Literal::from_i32(vec![5, 7], [2]).unwrap();
        assert_eq!(
            fold_reduce(i, &j, ReduceOp::Sum).unwrap().as_i32().unwrap(),
            &[7, 10]
        );
    }

    #[test]
    fn reduce_middle_dim_matches_trailing_path() {
        let x = lit((0..24).map(|v| v as f32).collect(), &[2, 3, 4]);
        // Reduce the middle dim (general path).
        let sum = |dims: Vec<usize>| OpKind::Reduce {
            op: ReduceOp::Sum,
            dims,
        };
        let mid = eval(sum(vec![1]), &[&x]);
        assert_eq!(mid.shape().dims(), &[2, 4]);
        assert_eq!(mid.as_f32().unwrap()[0], 0.0 + 4.0 + 8.0);
        // Reduce trailing dims (fast path).
        let tail = eval(sum(vec![1, 2]), &[&x]);
        assert_eq!(tail.shape().dims(), &[2]);
        assert_eq!(tail.as_f32().unwrap()[0], (0..12).sum::<i32>() as f32);
    }
}
