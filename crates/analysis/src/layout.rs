//! Forward layout tracking over lowered (device-local) programs.
//!
//! Each value's fact is the per-dimension stack of mesh axes it is
//! currently sliced over, in outer-to-inner order — exactly the
//! [`ValueCtx::dim_axes`] layout `partir_spmd::lower` maintains. The
//! lattice is flat ([`Flat`]): layouts merge to ⊤ when paths disagree or
//! an op's effect on the layout is not tracked (matrix products etc. —
//! their sharding semantics live in the TMR, not here). Collectives have
//! exact transfer functions, so the analysis precisely follows gather /
//! slice / all-to-all chains and catches:
//!
//! * gathering axes a value is not sliced over (`layout-bad-gather`) —
//!   the "dropped axis" class of bugs, where data is concatenated from
//!   devices that hold identical replicas;
//! * slicing along an axis that already slices the value
//!   (`layout-double-slice`), which silently drops shards;
//! * elementwise ops combining operands with different layouts
//!   (`layout-elementwise-mismatch`);
//! * gather/slice round trips that cancel (`layout-redundant-pair`);
//! * results whose computed layout contradicts the program's declared
//!   output sharding (`layout-result-mismatch`).
//!
//! Next to that specification sit the paper's §6 lowering rules, stated
//! once over any [`AxisStacks`] representation: the reshard split
//! ([`reshard_split`]) and the two collective fusions
//! ([`fuse_gather_slice`], [`fuse_reduce_slice`]). `spmd::lower` and
//! `spmd::fuse` apply them to [`DimLayout`]s; the static objective
//! applies them to its packed, heap-free layouts.

use partir_core::ValueCtx;
use partir_ir::verify::op_path;
use partir_ir::{Collective, Func, OpId, OpKind, ValueDef};
use partir_mesh::Axis;

use crate::dataflow::{forward_fixpoint, Fact, FactMap, Flat, ForwardAnalysis};
use crate::diag::{Diagnostic, Severity};

/// Per-dimension axis stacks, outer-to-inner.
pub type DimLayout = Vec<Vec<Axis>>;

/// Per-dimension stacks of mesh axes, outer-to-inner, generic over how
/// an axis is represented: the shape the reshard and fusion rules read
/// and build.
pub trait AxisStacks: Sized + PartialEq {
    /// One mesh axis.
    type Axis: Clone + PartialEq;

    /// Number of dimensions.
    fn rank(&self) -> usize;

    /// The axes slicing dimension `d`, outermost first.
    fn stack(&self, d: usize) -> &[Self::Axis];

    /// `rank` unsliced dimensions.
    fn empty(rank: usize) -> Self;

    /// Slices dimension `d` further over `axis` (innermost).
    fn push(&mut self, d: usize, axis: Self::Axis);

    /// Whether any dimension carries an axis.
    fn has_axes(&self) -> bool {
        (0..self.rank()).any(|d| !self.stack(d).is_empty())
    }
}

impl AxisStacks for DimLayout {
    type Axis = Axis;

    fn rank(&self) -> usize {
        self.len()
    }

    fn stack(&self, d: usize) -> &[Axis] {
        &self[d]
    }

    fn empty(rank: usize) -> Self {
        vec![Vec::new(); rank]
    }

    fn push(&mut self, d: usize, axis: Axis) {
        self[d].push(axis);
    }
}

/// The reshard rule: per dimension, the common slicing prefix of `from`
/// and `to` stays in place, the rest of `from` is gathered and the rest
/// of `to` sliced. Returns `(gather, slice)`, so resharding is
/// `all_slice(slice) ∘ all_gather(gather)` with empty stages dropped.
pub fn reshard_split<L: AxisStacks>(from: &L, to: &L) -> (L, L) {
    let rank = from.rank();
    let (mut gather, mut slice) = (L::empty(rank), L::empty(rank));
    if from == to {
        return (gather, slice); // most reshards are identities
    }
    for d in 0..rank {
        let (f, t) = (from.stack(d), to.stack(d));
        let common = f.iter().zip(t).take_while(|(a, b)| a == b).count();
        for a in &f[common..] {
            gather.push(d, a.clone());
        }
        for a in &t[common..] {
            slice.push(d, a.clone());
        }
    }
    (gather, slice)
}

/// What `all_slice(all_gather(x))` fuses into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherSlice {
    /// Gather and slice cancel exactly.
    Cancel,
    /// One dimension gathered and another sliced over the same axis
    /// stack: an `all_to_all` over the gather's `src_dim` stack.
    AllToAll {
        /// The gathered dimension.
        src_dim: usize,
        /// The sliced dimension.
        dst_dim: usize,
    },
}

/// The gather∘slice fusion rule, or `None` when the pair stays as is.
pub fn fuse_gather_slice<L: AxisStacks>(gather: &L, slice: &L) -> Option<GatherSlice> {
    if gather == slice {
        return Some(GatherSlice::Cancel);
    }
    // The one dimension of `l` carrying axes, if exactly one does.
    let sole = |l: &L| {
        let mut dims = (0..l.rank()).filter(|&d| !l.stack(d).is_empty());
        let d = dims.next()?;
        dims.next().is_none().then_some(d)
    };
    let (src_dim, dst_dim) = (sole(gather)?, sole(slice)?);
    (src_dim != dst_dim && gather.stack(src_dim) == slice.stack(dst_dim))
        .then_some(GatherSlice::AllToAll { src_dim, dst_dim })
}

/// What `all_slice(all_reduce(x))` fuses into: `all_slice(residual_slice)`,
/// then `all_reduce(residual_reduce)`, then `reduce_scatter(covered)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceSlice<L, R> {
    /// Per dimension, the slice prefix the reduce does not cover.
    pub residual_slice: L,
    /// Per dimension, the covered slice suffix the `reduce_scatter`
    /// scatters.
    pub covered: L,
    /// Reduce axes no slice covers, in reduce order.
    pub residual_reduce: R,
}

/// The reduce∘slice fusion rule for `all_slice(slice)` after an
/// `all_reduce` over `reduce`, or `None` when nothing is covered or a
/// covered axis precedes the covered suffix of its dimension. Slicing
/// order within a dimension defines the shard layout, so only a suffix
/// may be peeled into the `reduce_scatter`; the uncovered prefix is
/// sliced first, which commutes with a reduce over other axes.
pub fn fuse_reduce_slice<L, R>(reduce: &[L::Axis], slice: &L) -> Option<ReduceSlice<L, R>>
where
    L: AxisStacks,
    R: Default + Extend<L::Axis>,
{
    let rank = slice.rank();
    let (mut residual_slice, mut covered) = (L::empty(rank), L::empty(rank));
    for d in 0..rank {
        let axes = slice.stack(d);
        let suffix = axes
            .iter()
            .rposition(|a| !reduce.contains(a))
            .map_or(0, |p| p + 1);
        if axes[..suffix].iter().any(|a| reduce.contains(a)) {
            return None; // a covered axis before the suffix would reorder
        }
        for a in &axes[..suffix] {
            residual_slice.push(d, a.clone());
        }
        for a in &axes[suffix..] {
            covered.push(d, a.clone());
        }
    }
    if !covered.has_axes() {
        return None;
    }
    let scattered = |a: &L::Axis| (0..rank).any(|d| covered.stack(d).contains(a));
    let mut residual_reduce = R::default();
    residual_reduce.extend(reduce.iter().filter(|a| !scattered(a)).cloned());
    Some(ReduceSlice {
        residual_slice,
        covered,
        residual_reduce,
    })
}

type LayoutFact = Flat<DimLayout>;

/// Applies a collective's effect to a known operand layout, or explains
/// why the collective is inconsistent with it.
fn apply_collective(c: &Collective, layout: &DimLayout) -> Result<DimLayout, String> {
    let mut out = layout.clone();
    let strip_suffix = |stack: &mut Vec<Axis>, axes: &[Axis], dim: usize| -> Result<(), String> {
        if axes.is_empty() {
            return Ok(());
        }
        if stack.len() < axes.len() || &stack[stack.len() - axes.len()..] != axes {
            return Err(format!(
                "gathers axes [{}] in dim {dim}, but the value is sliced over [{}] there",
                join(axes),
                join(stack)
            ));
        }
        stack.truncate(stack.len() - axes.len());
        Ok(())
    };
    let push_axes = |out: &mut DimLayout, axes: &[Axis], dim: usize| -> Result<(), String> {
        for a in axes {
            if out.iter().any(|stack| stack.contains(a)) {
                return Err(format!(
                    "slices dim {dim} over axis \"{a}\" which already slices the value"
                ));
            }
            out[dim].push(a.clone());
        }
        Ok(())
    };
    match c {
        Collective::AllReduce { .. } => {}
        Collective::AllGather { dim_axes } => {
            for (d, axes) in dim_axes.iter().enumerate() {
                strip_suffix(&mut out[d], axes, d)?;
            }
        }
        Collective::AllSlice { dim_axes } | Collective::ReduceScatter { dim_axes, .. } => {
            for (d, axes) in dim_axes.iter().enumerate() {
                push_axes(&mut out, axes, d)?;
            }
        }
        Collective::AllToAll {
            src_dim,
            dst_dim,
            axes,
        } => {
            strip_suffix(&mut out[*src_dim], axes, *src_dim)?;
            push_axes(&mut out, axes, *dst_dim)?;
        }
    }
    Ok(out)
}

fn join(axes: &[Axis]) -> String {
    axes.iter()
        .map(|a| format!("\"{a}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

struct LayoutAnalysis {
    input_layouts: Option<Vec<DimLayout>>,
}

impl ForwardAnalysis for LayoutAnalysis {
    type Fact = LayoutFact;

    fn entry(&self, _func: &Func, index: usize, _v: partir_ir::ValueId) -> LayoutFact {
        match &self.input_layouts {
            Some(layouts) => Flat::Known(layouts[index].clone()),
            None => Flat::Top,
        }
    }

    fn loop_index(&self, _func: &Func, _v: partir_ir::ValueId) -> LayoutFact {
        Flat::Known(Vec::new()) // rank-0 scalar: trivially replicated
    }

    fn transfer(&self, func: &Func, op: OpId, operands: &[LayoutFact]) -> Vec<LayoutFact> {
        let data = func.op(op);
        let fact = match &data.kind {
            // Nullary ops materialise the full value on every device.
            _ if data.operands.is_empty() => {
                let rank = func.value_type(data.results[0]).rank();
                Flat::Known(vec![Vec::new(); rank])
            }
            OpKind::Collective(c) => match &operands[0] {
                Flat::Known(layout) => match apply_collective(c, layout) {
                    Ok(out) => Flat::Known(out),
                    Err(_) => Flat::Top, // reported by the check pass
                },
                other => other.clone(),
            },
            OpKind::Transpose { perm } => match &operands[0] {
                Flat::Known(layout) => {
                    Flat::Known(perm.iter().map(|&p| layout[p].clone()).collect())
                }
                other => other.clone(),
            },
            k if k.is_elementwise() => {
                let mut fact = LayoutFact::bottom();
                for f in operands {
                    fact.join(f);
                }
                fact
            }
            // Compute ops change sharding per the TMR; untracked here.
            _ => Flat::Top,
        };
        vec![fact; data.results.len()]
    }
}

/// Runs the layout analysis and reports inconsistencies.
///
/// `input_layouts` / `output_layouts` are the program's declared
/// interface shardings (e.g. an `SpmdProgram`'s input/output contexts);
/// pass `None` when unknown, which turns off the corresponding checks.
pub fn check_layouts(
    func: &Func,
    input_layouts: Option<&[ValueCtx]>,
    output_layouts: Option<&[ValueCtx]>,
) -> Vec<Diagnostic> {
    let to_layouts = |ctxs: &[ValueCtx], values: &[partir_ir::ValueId]| -> Vec<DimLayout> {
        ctxs.iter()
            .zip(values)
            .map(|(ctx, &v)| ctx.dim_axes(func.value_type(v).rank()))
            .collect()
    };
    let analysis = LayoutAnalysis {
        input_layouts: input_layouts.map(|ctxs| to_layouts(ctxs, func.params())),
    };
    let facts = forward_fixpoint(func, &analysis);
    let mut diags = check_pass(func, &facts);
    if let Some(ctxs) = output_layouts {
        let declared = to_layouts(ctxs, func.results());
        for (i, (&r, want)) in func.results().iter().zip(&declared).enumerate() {
            if let Flat::Known(got) = facts.get(r) {
                if got != want {
                    diags.push(Diagnostic::new(
                        Severity::Error,
                        "layout-result-mismatch",
                        format!(
                            "output #{i} is sliced over {:?} but its declared sharding \
                             is {:?} — an axis was dropped or invented on the way out",
                            summarise(got),
                            summarise(want)
                        ),
                    ));
                }
            }
        }
    }
    diags
}

fn summarise(layout: &DimLayout) -> Vec<String> {
    layout
        .iter()
        .map(|stack| {
            if stack.is_empty() {
                "-".to_string()
            } else {
                stack
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join("·")
            }
        })
        .collect()
}

/// Single post-fixpoint walk emitting diagnostics from the final facts.
fn check_pass(func: &Func, facts: &FactMap<LayoutFact>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for op_id in func.op_ids() {
        let data = func.op(op_id);
        let at = |d: Diagnostic| d.at_op(op_path(func, op_id)).at_loc(func.op_loc(op_id));
        if let OpKind::Collective(c) = &data.kind {
            if let Flat::Known(layout) = facts.get(data.operands[0]) {
                if let Err(why) = apply_collective(c, layout) {
                    let rule = if why.contains("gathers") {
                        "layout-bad-gather"
                    } else {
                        "layout-double-slice"
                    };
                    diags.push(at(Diagnostic::new(Severity::Error, rule, why)));
                }
            }
            // A slice undoing an immediately preceding gather of the
            // same axes is a round trip the fusion pass should have
            // cancelled — all the traffic buys nothing.
            if let (Collective::AllSlice { dim_axes }, ValueDef::OpResult { op: prev, .. }) =
                (c, &func.value(data.operands[0]).def)
            {
                if let OpKind::Collective(Collective::AllGather {
                    dim_axes: prev_axes,
                }) = &func.op(*prev).kind
                {
                    if dim_axes == prev_axes {
                        diags.push(at(Diagnostic::new(
                            Severity::Warning,
                            "layout-redundant-pair",
                            "all_slice exactly undoes the preceding all_gather; \
                             the round trip moves data for nothing",
                        )));
                    }
                }
            }
        } else if data.kind.is_elementwise() && data.operands.len() > 1 {
            let known: Vec<&DimLayout> = data
                .operands
                .iter()
                .filter_map(|&v| match facts.get(v) {
                    Flat::Known(l) => Some(l),
                    _ => None,
                })
                .collect();
            if known.len() == data.operands.len() && known.windows(2).any(|w| w[0] != w[1]) {
                diags.push(at(Diagnostic::new(
                    Severity::Warning,
                    "layout-elementwise-mismatch",
                    format!(
                        "elementwise operands carry different layouts: {:?}",
                        known.iter().map(|l| summarise(l)).collect::<Vec<_>>()
                    ),
                )));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{Layout, Stack};
    use partir_ir::{FuncBuilder, ReduceOp, TensorType};
    use partir_mesh::Mesh;
    use partir_prng::{propcheck::check, Rng};

    fn mesh() -> Mesh {
        Mesh::new([("B", 2), ("M", 2)]).unwrap()
    }

    fn sharded_ctx(axis: &str, dim: usize) -> ValueCtx {
        // Build a ValueCtx through the public core API: tile a dummy
        // one-op function's parameter and read the ctx back.
        let mut b = FuncBuilder::new("ctx");
        let x = b.param("x", TensorType::f32([8, 8]));
        let y = b.neg(x).unwrap();
        let f = b.build([y]).unwrap();
        let mut p = partir_core::Partitioning::new(&f, mesh()).unwrap();
        p.tile(&f, x, dim, &axis.into()).unwrap();
        p.value_ctx(x).clone()
    }

    #[test]
    fn gather_of_unsliced_axis_is_flagged() {
        // Input is replicated, but the program gathers over "B".
        let mut b = FuncBuilder::with_mesh("f", mesh());
        let x = b.param("x", TensorType::f32([4, 4]));
        let y = b
            .collective(
                Collective::AllGather {
                    dim_axes: vec![vec!["B".into()], vec![]],
                },
                x,
            )
            .unwrap();
        let f = b.build([y]).unwrap();
        let replicated = ValueCtx::new();
        let diags = check_layouts(&f, Some(std::slice::from_ref(&replicated)), None);
        assert!(
            diags.iter().any(|d| d.rule == "layout-bad-gather"),
            "{diags:?}"
        );
    }

    #[test]
    fn double_slice_is_flagged() {
        let mut b = FuncBuilder::with_mesh("f", mesh());
        let x = b.param("x", TensorType::f32([8, 8]));
        let s1 = b
            .collective(
                Collective::AllSlice {
                    dim_axes: vec![vec!["B".into()], vec![]],
                },
                x,
            )
            .unwrap();
        let s2 = b
            .collective(
                Collective::AllSlice {
                    dim_axes: vec![vec![], vec!["B".into()]],
                },
                s1,
            )
            .unwrap();
        let f = b.build([s2]).unwrap();
        let replicated = ValueCtx::new();
        let diags = check_layouts(&f, Some(std::slice::from_ref(&replicated)), None);
        assert!(
            diags.iter().any(|d| d.rule == "layout-double-slice"),
            "{diags:?}"
        );
    }

    #[test]
    fn dropped_axis_shows_as_result_mismatch() {
        // Input sharded over "B" in dim 0; the program never gathers it
        // but declares the output replicated.
        let mut b = FuncBuilder::with_mesh("f", mesh());
        let x = b.param("x", TensorType::f32([4, 4]));
        let y = b.neg(x).unwrap();
        let f = b.build([y]).unwrap();
        let in_ctx = sharded_ctx("B", 0);
        let out_ctx = ValueCtx::new();
        let diags = check_layouts(
            &f,
            Some(std::slice::from_ref(&in_ctx)),
            Some(std::slice::from_ref(&out_ctx)),
        );
        assert!(
            diags.iter().any(|d| d.rule == "layout-result-mismatch"),
            "{diags:?}"
        );
    }

    #[test]
    fn redundant_gather_slice_pair_warns() {
        let mut b = FuncBuilder::with_mesh("f", mesh());
        let x = b.param("x", TensorType::f32([4, 4]));
        let g = b
            .collective(
                Collective::AllGather {
                    dim_axes: vec![vec!["B".into()], vec![]],
                },
                x,
            )
            .unwrap();
        let s = b
            .collective(
                Collective::AllSlice {
                    dim_axes: vec![vec!["B".into()], vec![]],
                },
                g,
            )
            .unwrap();
        let f = b.build([s]).unwrap();
        let in_ctx = sharded_ctx("B", 0);
        let diags = check_layouts(&f, Some(std::slice::from_ref(&in_ctx)), None);
        assert!(
            diags.iter().any(|d| d.rule == "layout-redundant-pair"),
            "{diags:?}"
        );
    }

    #[test]
    fn consistent_round_trip_is_clean() {
        let mut b = FuncBuilder::with_mesh("f", mesh());
        let x = b.param("x", TensorType::f32([4, 4]));
        let g = b
            .collective(
                Collective::AllGather {
                    dim_axes: vec![vec!["B".into()], vec![]],
                },
                x,
            )
            .unwrap();
        let s = b
            .collective(
                Collective::AllSlice {
                    dim_axes: vec![vec![], vec!["M".into()]],
                },
                g,
            )
            .unwrap();
        let f = b.build([s]).unwrap();
        let in_ctx = sharded_ctx("B", 0);
        let out_ctx = sharded_ctx("M", 1);
        let diags = check_layouts(
            &f,
            Some(std::slice::from_ref(&in_ctx)),
            Some(std::slice::from_ref(&out_ctx)),
        );
        assert_eq!(crate::diag::error_count(&diags), 0, "{diags:?}");
    }

    /// `all_reduce{x}` then `all_slice [[x, y]]` must not fuse: x would be
    /// scattered ahead of y. Beside a covered dimension (the second
    /// case) only the reorder check refuses it.
    #[test]
    fn reduce_does_not_fuse_past_an_uncovered_slice_axis() {
        let (x, y, z): (Axis, Axis, Axis) = ("x".into(), "y".into(), "z".into());
        let fuse = |reduce: Vec<Axis>, slice: DimLayout| {
            fuse_reduce_slice::<_, Vec<Axis>>(&reduce, &slice)
        };
        assert_eq!(
            fuse(vec![x.clone()], vec![vec![x.clone(), y.clone()]]),
            None
        );
        assert_eq!(
            fuse(vec![x.clone(), z.clone()], vec![vec![x, y], vec![z]]),
            None
        );
    }

    fn shuffled(rng: &mut Rng, mut axes: Vec<Axis>) -> Vec<Axis> {
        for i in (1..axes.len()).rev() {
            axes.swap(i, rng.gen_range(i + 1));
        }
        axes
    }

    /// Stacks some of `pool`, in random order, onto random dimensions.
    fn draw_stacks(rng: &mut Rng, rank: usize, pool: Vec<Axis>) -> DimLayout {
        let mut l = DimLayout::empty(rank);
        for a in shuffled(rng, pool) {
            if rng.gen_bool(0.6) {
                l[rng.gen_range(rank)].push(a);
            }
        }
        l
    }

    fn axis_id(mesh: &[Axis], a: &Axis) -> u8 {
        mesh.iter().position(|m| m == a).unwrap() as u8
    }

    fn pack(l: &DimLayout, mesh: &[Axis]) -> Layout {
        let mut p = Layout::empty(l.rank());
        for (d, stack) in l.iter().enumerate() {
            for a in stack {
                p.push(d, axis_id(mesh, a));
            }
        }
        p
    }

    fn unpack(p: &Layout, mesh: &[Axis]) -> DimLayout {
        let ids = |d| p.stack(d).iter().map(|&id| mesh[id as usize].clone());
        (0..p.rank()).map(|d| ids(d).collect()).collect()
    }

    fn all_gather(l: &DimLayout, dim_axes: DimLayout) -> Result<DimLayout, String> {
        apply_collective(&Collective::AllGather { dim_axes }, l)
    }

    fn all_slice(l: &DimLayout, dim_axes: DimLayout) -> Result<DimLayout, String> {
        apply_collective(&Collective::AllSlice { dim_axes }, l)
    }

    /// Fusion firings seen by the property: cancel, all_to_all,
    /// reduce_scatter.
    type Hits = [u32; 3];

    /// One case of the rule property: random `from`, a random gather
    /// suffix of it, a random slice and reduce over the axes left
    /// unsliced, on a mesh of 1–4 axes.
    fn rules_case(rng: &mut Rng, hits: &mut Hits) -> Result<(), String> {
        let names = ["a", "b", "c", "d"];
        let n = rng.gen_range_in(1, 5);
        let mesh: Vec<Axis> = names[..n].iter().map(|&a| a.into()).collect();
        let rank = rng.gen_range_in(1, 5);
        let from = draw_stacks(rng, rank, mesh.clone());
        let (mut gather, mut mid) = (DimLayout::empty(rank), from.clone());
        for d in 0..rank {
            let keep = rng.gen_range(from[d].len() + 1);
            gather[d] = from[d][keep..].to_vec();
            mid[d].truncate(keep);
        }
        let sliced = |a: &&Axis| mid.iter().any(|stack| stack.contains(a));
        let free: Vec<Axis> = mesh.iter().filter(|a| !sliced(a)).cloned().collect();
        let slice = draw_stacks(rng, rank, free.clone());
        let reduce: Vec<Axis> = shuffled(rng, free)
            .into_iter()
            .filter(|_| rng.gen_bool(0.5))
            .collect();
        let mut to = mid.clone();
        for d in 0..rank {
            to[d].extend(slice[d].iter().cloned());
        }
        let gather_slice =
            |g: &DimLayout, s: &DimLayout| all_slice(&all_gather(&from, g.clone())?, s.clone());

        // (a) The reshard split moves `from` to `to`, and never gathers
        // an outer axis only to slice it back.
        let (g, s) = reshard_split(&from, &to);
        let churns = (0..rank).any(|d| !g[d].is_empty() && g[d].first() == s[d].first());
        if gather_slice(&g, &s)? != to || churns {
            return Err(format!("reshard {from:?} -> {to:?} split as {g:?} / {s:?}"));
        }

        // (b) The gather∘slice rule preserves the pair's effect, on the
        // split and on the drawn pair alike.
        for (g, s) in [(&g, &s), (&gather, &slice)] {
            let want = gather_slice(g, s)?;
            let got = match fuse_gather_slice(g, s) {
                None => continue,
                Some(GatherSlice::Cancel) => {
                    hits[0] += 1;
                    from.clone()
                }
                Some(GatherSlice::AllToAll { src_dim, dst_dim }) => {
                    hits[1] += 1;
                    let axes = g[src_dim].clone();
                    let c = Collective::AllToAll {
                        src_dim,
                        dst_dim,
                        axes,
                    };
                    apply_collective(&c, &from)?
                }
            };
            if got != want {
                return Err(format!(
                    "gather {g:?} / slice {s:?} fused to {got:?}, not {want:?}"
                ));
            }
        }

        // (c) The reduce∘slice rule preserves the layout (an all_reduce
        // leaves it as is), reduces over exactly `reduce`, and never
        // slices an axis before reducing over it.
        let fused = fuse_reduce_slice::<_, Vec<Axis>>(&reduce, &slice);
        if let Some(rs) = &fused {
            hits[2] += 1;
            let dim_axes = rs.covered.clone();
            let scatter = Collective::ReduceScatter {
                dim_axes,
                reduce: ReduceOp::Sum,
            };
            let got = apply_collective(&scatter, &all_slice(&mid, rs.residual_slice.clone())?)?;
            let mut reduced: Vec<&Axis> = rs.covered.iter().flatten().collect();
            reduced.extend(&rs.residual_reduce);
            let mut expected: Vec<&Axis> = reduce.iter().collect();
            reduced.sort();
            expected.sort();
            let early = rs
                .residual_slice
                .iter()
                .flatten()
                .any(|a| reduce.contains(a));
            if got != all_slice(&mid, slice.clone())? || reduced != expected || early {
                return Err(format!(
                    "reduce {reduce:?} / slice {slice:?} on {mid:?} fused to {rs:?}"
                ));
            }
        }

        // (d) The packed instantiation gives the same answers.
        let p = |l: &DimLayout| pack(l, &mesh);
        let (pg, ps) = reshard_split(&p(&from), &p(&to));
        if (unpack(&pg, &mesh), unpack(&ps, &mesh)) != (g, s) {
            return Err(format!(
                "packed reshard split differs on {from:?} -> {to:?}"
            ));
        }
        if fuse_gather_slice(&p(&gather), &p(&slice)) != fuse_gather_slice(&gather, &slice) {
            return Err(format!(
                "packed gather∘slice differs on {gather:?} / {slice:?}"
            ));
        }
        let ids: Vec<u8> = reduce.iter().map(|a| axis_id(&mesh, a)).collect();
        let axis = |id: &u8| mesh[*id as usize].clone();
        let packed = fuse_reduce_slice::<_, Stack>(&ids, &p(&slice)).map(|rs| ReduceSlice {
            residual_slice: unpack(&rs.residual_slice, &mesh),
            covered: unpack(&rs.covered, &mesh),
            residual_reduce: rs.residual_reduce.axes().iter().map(axis).collect(),
        });
        if packed != fused {
            return Err(format!(
                "packed reduce∘slice differs on {reduce:?} / {slice:?}"
            ));
        }
        Ok(())
    }

    #[test]
    fn shared_rules_agree_with_collective_layout_semantics() {
        let mut hits = Hits::default();
        check("reshard and fusion rules", 512, |rng| {
            rules_case(rng, &mut hits)
        });
        assert!(
            hits.iter().all(|&n| n >= 10),
            "too few fusions fired: {hits:?}"
        );
    }
}
