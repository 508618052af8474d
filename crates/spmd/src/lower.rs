//! Lowering of partitioned functions to device-local SPMD programs
//! (paper §6.1).
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
//!    tiling recorded on the result value is realised with `all_slice`
//!    (fusing to `reduce_scatter` later).

use std::collections::HashMap;

use partir_analysis::layout::{reshard_split, AxisStacks, DimLayout};
use partir_core::temporal::localize_kind;
use partir_core::tmr::ResultAction;
use partir_core::{OpAxisCtx, Partitioning};
use partir_ir::{Collective, Func, FuncBuilder, IrError, OpId, OpKind, ReduceOp, Shape, ValueId};
use partir_mesh::Axis;

use crate::program::SpmdProgram;

/// Lowers `func` under `part` into a device-local SPMD program.
///
/// # Errors
///
/// Fails on malformed functions; all layouts produced by propagation are
/// lowerable by construction.
pub fn lower(func: &Func, part: &Partitioning) -> Result<SpmdProgram, IrError> {
    let _span = partir_obs::span!("spmd.lower");
    let mesh = part.mesh().clone();
    let mut b = FuncBuilder::with_mesh(format!("{}_spmd", func.name()), mesh.clone());
    let mut map: HashMap<ValueId, ValueId> = HashMap::new();
    for &p in func.params() {
        let local_ty = part.local_type(func, p);
        let name = func
            .value(p)
            .name
            .clone()
            .unwrap_or_else(|| format!("arg{}", p.0));
        let lp = b.param(name, local_ty);
        map.insert(p, lp);
    }
    let lowerer = Lowerer { func, part };
    lowerer.lower_body(&mut b, func.body(), &mut map)?;
    let results: Vec<ValueId> = func
        .results()
        .iter()
        .map(|r| {
            map.get(r)
                .copied()
                .ok_or_else(|| IrError::invalid("function result was not lowered".to_string()))
        })
        .collect::<Result<_, _>>()?;
    let lowered = b.build(results)?;
    partir_obs::counter!("spmd.lower.ops", lowered.op_ids().count());
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

struct Lowerer<'a> {
    func: &'a Func,
    part: &'a Partitioning,
}

impl Lowerer<'_> {
    fn lower_body(
        &self,
        b: &mut FuncBuilder,
        body: &[OpId],
        map: &mut HashMap<ValueId, ValueId>,
    ) -> Result<(), IrError> {
        for &op_id in body {
            let op = self.func.op(op_id);
            if op.region.is_some() {
                self.lower_for(b, op_id, map)?;
            } else {
                self.lower_op(b, op_id, map)?;
            }
        }
        Ok(())
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

    /// Emits gather/slice collectives moving `v` from layout `from` to
    /// layout `to`, split by [`reshard_split`]: the common slicing prefix
    /// stays in place (so "shard this partial result further" costs a
    /// slice, which fuses with a preceding all_reduce into a
    /// reduce_scatter). The fusion pass cancels and merges what remains.
    fn reshard(
        &self,
        b: &mut FuncBuilder,
        v: ValueId,
        from: &DimLayout,
        to: &DimLayout,
    ) -> Result<ValueId, IrError> {
        if from == to {
            return Ok(v);
        }
        let (gather, slice) = reshard_split(from, to);
        let mut cur = v;
        if gather.has_axes() {
            cur = b.collective(Collective::AllGather { dim_axes: gather }, cur)?;
        }
        if slice.has_axes() {
            cur = b.collective(Collective::AllSlice { dim_axes: slice }, cur)?;
        }
        Ok(cur)
    }

    fn stored_layout(&self, v: ValueId) -> DimLayout {
        let rank = self.func.value_type(v).rank();
        self.part.value_ctx(v).dim_axes(rank)
    }

    fn lower_op(
        &self,
        b: &mut FuncBuilder,
        op_id: OpId,
        map: &mut HashMap<ValueId, ValueId>,
    ) -> Result<(), IrError> {
        let op = self.func.op(op_id);
        let result = op.results[0];
        let result_ty = self.func.value_type(result);
        let (produced, reduces) = self.produced_result_layout(op_id, result_ty.rank());

        // Nullary ops tiled by result-only entries: materialise the full
        // value, then slice down to the stored layout.
        if op.operands.is_empty() {
            let full = b.emit(op.kind.clone(), &[])?[0];
            let stored = self.stored_layout(result);
            let identity = DimLayout::empty(result_ty.rank());
            let out = self.reshard(b, full, &identity, &stored)?;
            map.insert(result, out);
            return Ok(());
        }

        // 1. Reshard operands to the op's required layouts.
        let mut local_operands = Vec::with_capacity(op.operands.len());
        for (i, &operand) in op.operands.iter().enumerate() {
            let lv = *map
                .get(&operand)
                .ok_or_else(|| IrError::invalid("operand not lowered"))?;
            let rank = self.func.value_type(operand).rank();
            let from = self.stored_layout(operand);
            let to = self.required_operand_layout(op_id, i, rank);
            local_operands.push(self.reshard(b, lv, &from, &to)?);
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
        let mut value = b.emit(kind, &local_operands)?[0];

        // 3. Reduce #sum axes, then reshard to the stored result layout.
        if !reduces.is_empty() {
            let monoid = reduces[0].1;
            debug_assert!(
                reduces.iter().all(|(_, r)| *r == monoid),
                "mixed reduction monoids on one op"
            );
            value = b.collective(
                Collective::AllReduce {
                    axes: reduces.iter().map(|(a, _)| a.clone()).collect(),
                    reduce: monoid,
                },
                value,
            )?;
        }
        let stored = self.stored_layout(result);
        value = self.reshard(b, value, &produced, &stored)?;
        map.insert(result, value);
        Ok(())
    }

    fn lower_for(
        &self,
        b: &mut FuncBuilder,
        op_id: OpId,
        map: &mut HashMap<ValueId, ValueId>,
    ) -> Result<(), IrError> {
        let op = self.func.op(op_id);
        let OpKind::For { trip_count } = op.kind else {
            return Err(IrError::invalid("region op that is not a for"));
        };
        let region = op.region.as_ref().expect("for has region");
        // Reshard inits to the region-param layouts.
        let mut inits = Vec::with_capacity(op.operands.len());
        for (i, &init) in op.operands.iter().enumerate() {
            let lv = *map
                .get(&init)
                .ok_or_else(|| IrError::invalid("for init not lowered"))?;
            let from = self.stored_layout(init);
            let to = self.stored_layout(region.params[i + 1]);
            inits.push(self.reshard(b, lv, &from, &to)?);
        }
        let results = b.for_loop(trip_count, &inits, |inner, index, carried| {
            map.insert(region.params[0], index);
            for (rp, &c) in region.params[1..].iter().zip(carried) {
                map.insert(*rp, c);
            }
            self.lower_body(inner, &region.body, map)?;
            // Reshard yielded values back to the param layouts so the
            // next iteration sees a consistent carried layout.
            let mut yields = Vec::with_capacity(region.results.len());
            for (i, ry) in region.results.iter().enumerate() {
                let lv = *map
                    .get(ry)
                    .ok_or_else(|| IrError::invalid("yield not lowered"))?;
                let from = self.stored_layout(*ry);
                let to = self.stored_layout(region.params[i + 1]);
                yields.push(self.reshard(inner, lv, &from, &to)?);
            }
            Ok(yields)
        })?;
        // Op results carry the param layout; reshard to their stored ctx.
        for (i, (&orig, &lowered)) in op.results.iter().zip(&results).enumerate() {
            let from = self.stored_layout(region.params[i + 1]);
            let to = self.stored_layout(orig);
            let v = self.reshard(b, lowered, &from, &to)?;
            map.insert(orig, v);
        }
        Ok(())
    }
}
