//! Lowering of partitioned functions to device-local SPMD programs
//! (paper §6.1), with the §6 collective fusions decided as each
//! collective is emitted — one pass, one function build.
//!
//! The rules, per op:
//!
//! 1. Each operand is *resharded* from its stored layout (its value
//!    context) to the layout the op's loop context requires: axes the op
//!    does not distribute over must be gathered (`all_gather`), axes the
//!    entry slices must be sliced (`all_slice`).
//! 2. The op executes on local shards, with shape-bearing attributes
//!    localized. Tiled nullary ops (constants, iota) materialise the full
//!    value and `all_slice` it.
//! 3. `#sum` contexts emit an `all_reduce` over their axes; any extra
//!    tiling recorded on the result value is realised with `all_slice`.
//!
//! Fusion ([`fuse_gather_slice`], [`fuse_reduce_slice`]) applies wherever
//! a gather or reduce meets a slice:
//!
//! * inside one reshard, a gather then a slice cancel or become one
//!   `all_to_all`;
//! * an op's `#sum` then a pure-slice result reshard becomes a residual
//!   `all_slice`, a residual `all_reduce`, then a `reduce_scatter`;
//! * across ops: when a chain (an op's, or a `for` result's reshard)
//!   ends in a bare gather or reduce and the value's sole use
//!   ([`UseInfo::sole_site`]) reshards it by a pure slice the rule
//!   accepts, the producer is not emitted and the consumer's reshard
//!   emits the fused form where the slice would have been.
//!
//! Ops and `for` results dead in the original function are not lowered.

use std::collections::HashMap;

use partir_analysis::layout::{
    collect_uses, fuse_gather_slice, fuse_reduce_slice, reshard_split, AxisStacks, DimLayout,
    GatherSlice, ReduceSlice, UseInfo, UseSite,
};
use partir_core::temporal::localize_kind;
use partir_core::tmr::ResultAction;
use partir_core::{OpAxisCtx, Partitioning};
use partir_ir::{Collective, Func, FuncBuilder, IrError, OpId, OpKind, ReduceOp, Shape, ValueId};
use partir_mesh::Axis;

use crate::program::SpmdProgram;

/// Lowers `func` under `part` into a device-local SPMD program, with
/// collective pairs fused and dead code left out.
///
/// # Errors
///
/// Fails on malformed functions; all layouts produced by propagation are
/// lowerable by construction.
pub fn lower(func: &Func, part: &Partitioning) -> Result<SpmdProgram, IrError> {
    let _span = partir_obs::span!("spmd.lower");
    let mesh = part.mesh().clone();
    let mut b = FuncBuilder::with_mesh(format!("{}_spmd", func.name()), mesh.clone());
    let mut lowerer = Lowerer {
        func,
        part,
        live: partir_ir::passes::live_values(func),
        uses: collect_uses(func),
        map: vec![None; func.num_values()],
        deferred: HashMap::new(),
        absorbed: 0,
    };
    for &p in func.params() {
        let local_ty = part.local_type(func, p);
        let name = func
            .value(p)
            .name
            .clone()
            .unwrap_or_else(|| format!("arg{}", p.0));
        let lp = b.param(name, local_ty);
        lowerer.map[p.0 as usize] = Some(lp);
    }
    lowerer.lower_body(&mut b, func.body())?;
    debug_assert!(
        lowerer.deferred.is_empty(),
        "a deferred producer was never consumed"
    );
    let results: Vec<ValueId> = func
        .results()
        .iter()
        .map(|&r| lowerer.lowered(r))
        .collect::<Result<_, _>>()?;
    let lowered = b.build(results)?;
    partir_obs::counter!("spmd.lower.ops", lowered.op_ids().count());
    partir_obs::counter!("spmd.fuse.absorbed", lowerer.absorbed);
    let input_ctxs = func
        .params()
        .iter()
        .map(|&p| part.value_ctx(p).clone())
        .collect();
    let output_ctxs = func
        .results()
        .iter()
        .map(|&r| part.value_ctx(r).clone())
        .collect();
    // Debug-mode post-condition: lowering never emits structurally
    // illegal collectives (unknown/duplicate axes). Structure-only — the
    // O(devices) rendezvous check stays in `partir-lint` and the tests.
    #[cfg(debug_assertions)]
    {
        let diags = partir_analysis::collective::check_structure(&lowered, &mesh);
        debug_assert_eq!(
            partir_analysis::error_count(&diags),
            0,
            "lowering produced an illegal collective: {diags:?}"
        );
    }
    Ok(SpmdProgram::new(lowered, mesh, input_ctxs, output_ctxs))
}

/// What a gather or reduce and the `all_slice` after it fuse into.
enum Fusion {
    Cancel,
    AllToAll(Collective),
    Reduce(ReduceSlice<DimLayout, Vec<Axis>>, ReduceOp),
}

impl Fusion {
    /// `all_slice(slice) ∘ all_gather(gather)`, if the rule fuses it.
    fn gather(gather: &DimLayout, slice: &DimLayout) -> Option<Fusion> {
        fuse_gather_slice(gather, slice).map(|fused| match fused {
            GatherSlice::Cancel => Fusion::Cancel,
            // The rule matched the gathered and sliced stacks.
            GatherSlice::AllToAll { src_dim, dst_dim } => Fusion::AllToAll(Collective::AllToAll {
                src_dim,
                dst_dim,
                axes: slice[dst_dim].clone(),
            }),
        })
    }

    /// `all_slice(slice) ∘ all_reduce(axes)`, if the rule fuses it.
    fn reduce(axes: &[Axis], monoid: ReduceOp, slice: &DimLayout) -> Option<Fusion> {
        fuse_reduce_slice(axes, slice).map(|split| Fusion::Reduce(split, monoid))
    }

    /// Emits the fused form on `src`, the producer's operand.
    fn emit(self, b: &mut FuncBuilder, src: ValueId) -> Result<ValueId, IrError> {
        match self {
            Fusion::Cancel => Ok(src),
            Fusion::AllToAll(a2a) => b.collective(a2a, src),
            Fusion::Reduce(
                ReduceSlice {
                    residual_slice,
                    covered,
                    residual_reduce,
                },
                monoid,
            ) => {
                // Uncovered slice prefix first (slice/reduce commute and
                // this preserves the per-dim slicing order), then the
                // reductions.
                let mut cur = src;
                if residual_slice.has_axes() {
                    cur = b.collective(
                        Collective::AllSlice {
                            dim_axes: residual_slice,
                        },
                        cur,
                    )?;
                }
                if !residual_reduce.is_empty() {
                    cur = b.collective(
                        Collective::AllReduce {
                            axes: residual_reduce,
                            reduce: monoid,
                        },
                        cur,
                    )?;
                }
                b.collective(
                    Collective::ReduceScatter {
                        dim_axes: covered,
                        reduce: monoid,
                    },
                    cur,
                )
            }
        }
    }
}

struct Lowerer<'a> {
    func: &'a Func,
    part: &'a Partitioning,
    /// Values the original function's results need; the rest is not
    /// lowered.
    live: Vec<bool>,
    uses: Vec<UseInfo>,
    /// Each original value's lowered stored form, by value id.
    map: Vec<Option<ValueId>>,
    /// Values whose chain-ending gather or reduce was not emitted: the
    /// producer's operand and the fusion their sole use emits instead.
    deferred: HashMap<ValueId, (ValueId, Fusion)>,
    /// Gathers and reduces fused away.
    absorbed: usize,
}

impl Lowerer<'_> {
    fn lower_body(&mut self, b: &mut FuncBuilder, body: &[OpId]) -> Result<(), IrError> {
        for &op_id in body {
            let op = self.func.op(op_id);
            if !op.results.iter().any(|r| self.live[r.0 as usize]) {
                continue; // dead code
            }
            if op.region.is_some() {
                self.lower_for(b, op_id)?;
            } else {
                self.lower_op(b, op_id)?;
            }
        }
        Ok(())
    }

    fn lowered(&self, v: ValueId) -> Result<ValueId, IrError> {
        self.map[v.0 as usize].ok_or_else(|| IrError::invalid("value used before it was lowered"))
    }

    /// The layout the op's context requires for operand slot `i`.
    fn required_operand_layout(&self, op_id: OpId, i: usize, rank: usize) -> DimLayout {
        let mut layout: DimLayout = vec![Vec::new(); rank];
        for (axis, axis_ctx) in self.part.op_ctx(op_id).entries() {
            let OpAxisCtx::Entry(e) = axis_ctx;
            if let Some(Some(d)) = e.operands.get(i) {
                layout[*d].push(axis.clone());
            }
        }
        layout
    }

    /// The layout the op's context produces for its result, plus the axes
    /// it must reduce over.
    fn produced_result_layout(
        &self,
        op_id: OpId,
        rank: usize,
    ) -> (DimLayout, Vec<(Axis, ReduceOp)>) {
        let mut layout: DimLayout = vec![Vec::new(); rank];
        let mut reduces = Vec::new();
        for (axis, axis_ctx) in self.part.op_ctx(op_id).entries() {
            let OpAxisCtx::Entry(e) = axis_ctx;
            match e.result {
                ResultAction::Tile(d) => layout[d].push(axis.clone()),
                ResultAction::Reduce(r) => reduces.push((axis.clone(), r)),
            }
        }
        (layout, reduces)
    }

    fn stored_layout(&self, v: ValueId) -> DimLayout {
        let rank = self.func.value_type(v).rank();
        self.part.value_ctx(v).dim_axes(rank)
    }

    /// Emits `all_slice(slice) ∘ all_gather(gather)` on `cur`, empty
    /// stages dropped and the pair fused when the rule allows.
    fn gather_slice(
        &mut self,
        b: &mut FuncBuilder,
        mut cur: ValueId,
        gather: DimLayout,
        slice: DimLayout,
    ) -> Result<ValueId, IrError> {
        if gather.has_axes() {
            if slice.has_axes() {
                if let Some(fused) = Fusion::gather(&gather, &slice) {
                    self.absorbed += 1;
                    return fused.emit(b, cur);
                }
            }
            cur = b.collective(Collective::AllGather { dim_axes: gather }, cur)?;
        }
        if slice.has_axes() {
            cur = b.collective(Collective::AllSlice { dim_axes: slice }, cur)?;
        }
        Ok(cur)
    }

    /// Reshards original value `v` at its use to layout `to`, split by
    /// [`reshard_split`]: the common slicing prefix stays in place (so
    /// "shard this partial result further" costs a slice). A deferred
    /// producer of `v` is emitted here, fused with this use's slice.
    fn reshard_use(
        &mut self,
        b: &mut FuncBuilder,
        v: ValueId,
        to: &DimLayout,
    ) -> Result<ValueId, IrError> {
        if !self.deferred.is_empty() {
            if let Some((src, fused)) = self.deferred.remove(&v) {
                return fused.emit(b, src);
            }
        }
        let lv = self.lowered(v)?;
        let from = self.stored_layout(v);
        if from == *to {
            return Ok(lv);
        }
        let (gather, slice) = reshard_split(&from, to);
        self.gather_slice(b, lv, gather, slice)
    }

    /// The fusion of `v`'s chain-ending gather or reduce with its sole
    /// use, when that use reshards `v` by a pure slice: the cross-op rule.
    fn cross_fusion(
        &self,
        v: ValueId,
        stored: &DimLayout,
        fuse: impl FnOnce(&DimLayout) -> Option<Fusion>,
    ) -> Option<Fusion> {
        let required = match self.uses[v.0 as usize].sole_site()? {
            UseSite::Operand { op, slot } => {
                self.required_operand_layout(op, slot as usize, stored.len())
            }
            UseSite::Boundary { param } => self.stored_layout(param),
        };
        let (gather, slice) = reshard_split(stored, &required);
        if gather.has_axes() || !slice.has_axes() {
            return None;
        }
        fuse(&slice)
    }

    /// Emits the end of `v`'s producing chain on `value`: the `#sum`
    /// reduction over `reduces`, then the reshard from `produced` to
    /// `v`'s stored layout, with every fusion rule applied. Records the
    /// stored form of `v`, or defers it to `v`'s sole use.
    fn chain_end(
        &mut self,
        b: &mut FuncBuilder,
        v: ValueId,
        mut value: ValueId,
        reduces: &[(Axis, ReduceOp)],
        produced: &DimLayout,
    ) -> Result<(), IrError> {
        let stored = self.stored_layout(v);
        if reduces.is_empty() && *produced == stored {
            self.map[v.0 as usize] = Some(value); // most chains end here
            return Ok(());
        }
        let (gather, slice) = reshard_split(produced, &stored);
        if let Some(&(_, monoid)) = reduces.first() {
            debug_assert!(
                reduces.iter().all(|(_, r)| *r == monoid),
                "mixed reduction monoids on one op"
            );
            let axes: Vec<Axis> = reduces.iter().map(|(a, _)| a.clone()).collect();
            if !gather.has_axes() {
                let fused = if slice.has_axes() {
                    Fusion::reduce(&axes, monoid, &slice)
                } else {
                    self.cross_fusion(v, &stored, |s| Fusion::reduce(&axes, monoid, s))
                };
                if let Some(fused) = fused {
                    return self.finish(b, v, value, fused, !slice.has_axes());
                }
            }
            value = b.collective(
                Collective::AllReduce {
                    axes,
                    reduce: monoid,
                },
                value,
            )?;
        }
        if gather.has_axes() && !slice.has_axes() {
            if let Some(fused) = self.cross_fusion(v, &stored, |s| Fusion::gather(&gather, s)) {
                return self.finish(b, v, value, fused, true);
            }
        }
        let out = self.gather_slice(b, value, gather, slice)?;
        self.map[v.0 as usize] = Some(out);
        Ok(())
    }

    /// Absorbs a chain-ending producer into `fused`: emitted now, or
    /// deferred to `v`'s sole use when `cross` holds.
    fn finish(
        &mut self,
        b: &mut FuncBuilder,
        v: ValueId,
        src: ValueId,
        fused: Fusion,
        cross: bool,
    ) -> Result<(), IrError> {
        self.absorbed += 1;
        if cross {
            self.deferred.insert(v, (src, fused));
        } else {
            let out = fused.emit(b, src)?;
            self.map[v.0 as usize] = Some(out);
        }
        Ok(())
    }

    fn lower_op(&mut self, b: &mut FuncBuilder, op_id: OpId) -> Result<(), IrError> {
        let op = self.func.op(op_id);
        let result = op.results[0];
        let result_ty = self.func.value_type(result);
        let (produced, reduces) = self.produced_result_layout(op_id, result_ty.rank());

        // Nullary ops tiled by result-only entries: materialise the full
        // value, then slice down to the stored layout.
        if op.operands.is_empty() {
            let full = b.emit(op.kind.clone(), &[])?[0];
            let stored = self.stored_layout(result);
            let empty = DimLayout::empty(result_ty.rank());
            let out = self.gather_slice(b, full, empty, stored)?;
            self.map[result.0 as usize] = Some(out);
            return Ok(());
        }

        // 1. Reshard operands to the op's required layouts.
        let mut local_operands = Vec::with_capacity(op.operands.len());
        for (i, &operand) in op.operands.iter().enumerate() {
            let rank = self.func.value_type(operand).rank();
            let to = self.required_operand_layout(op_id, i, rank);
            local_operands.push(self.reshard_use(b, operand, &to)?);
        }

        // 2. Execute the op with localized attributes.
        let mut local_result_shape: Vec<usize> = result_ty.shape.dims().to_vec();
        for (d, axes) in produced.iter().enumerate() {
            for a in axes {
                let size = self
                    .part
                    .mesh()
                    .axis_size(a)
                    .map_err(|e| IrError::invalid(e.to_string()))?;
                local_result_shape[d] /= size;
            }
        }
        let kind = localize_kind(&op.kind, &Shape::from(local_result_shape))?;
        let value = b.emit(kind, &local_operands)?[0];

        // 3. Reduce #sum axes, then reshard to the stored result layout.
        self.chain_end(b, result, value, &reduces, &produced)
    }

    fn lower_for(&mut self, b: &mut FuncBuilder, op_id: OpId) -> Result<(), IrError> {
        let op = self.func.op(op_id);
        let OpKind::For { trip_count } = op.kind else {
            return Err(IrError::invalid("region op that is not a for"));
        };
        let region = op.region.as_ref().expect("for has region");
        // Reshard inits to the region-param layouts.
        let mut inits = Vec::with_capacity(op.operands.len());
        for (i, &init) in op.operands.iter().enumerate() {
            let to = self.stored_layout(region.params[i + 1]);
            inits.push(self.reshard_use(b, init, &to)?);
        }
        let results = b.for_loop(trip_count, &inits, |inner, index, carried| {
            self.map[region.params[0].0 as usize] = Some(index);
            for (rp, &c) in region.params[1..].iter().zip(carried) {
                self.map[rp.0 as usize] = Some(c);
            }
            self.lower_body(inner, &region.body)?;
            // Reshard yielded values back to the param layouts so the
            // next iteration sees a consistent carried layout.
            let mut yields = Vec::with_capacity(region.results.len());
            for (i, &ry) in region.results.iter().enumerate() {
                let to = self.stored_layout(region.params[i + 1]);
                yields.push(self.reshard_use(inner, ry, &to)?);
            }
            Ok(yields)
        })?;
        // Op results carry the param layout; reshard the live ones to
        // their stored ctx.
        for (i, (&orig, &lowered)) in op.results.iter().zip(&results).enumerate() {
            if self.live[orig.0 as usize] {
                let from = self.stored_layout(region.params[i + 1]);
                self.chain_end(b, orig, lowered, &[], &from)?;
            }
        }
        Ok(())
    }
}
