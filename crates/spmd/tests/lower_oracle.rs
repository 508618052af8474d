//! Differential oracle of one-pass lowering: [`lower`] must build
//! exactly the program of the two-pass pipeline it replaced — lower to
//! unfused collectives keeping dead code, then rebuild the whole function
//! fusing collective pairs and dropping dead ops. Same ops in the same
//! order, same value numbering: equal fingerprints and equal printed
//! text, on every zoo model × Table 2 schedule after every tactic on the
//! 1×2, 2×2 and 4×2 meshes, on random programs and partitionings, and
//! on loop-boundary cells where collectives fuse across ops. On the
//! random programs, fusion must also never increase simulated
//! communication over the unfused program.

mod common;

use partir_core::Partitioning;
use partir_ir::print::print_func;
use partir_ir::{Func, FuncBuilder, TensorType};
use partir_mesh::{Axis, HardwareConfig, Mesh};
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::{
    gns::GnsConfig,
    itransformer::{ITransformerConfig, ServingConfig},
    transformer::TransformerConfig,
    unet::UNetConfig,
};
use partir_prng::propcheck::check;
use partir_sched::{Schedule, Tactic};
use partir_spmd::lower;

/// The two-pass pipeline, verbatim: `lower` emits every reshard unfused
/// and lowers dead ops too; `fuse_collectives` then rebuilds the
/// function, fusing `all_slice(all_gather)` and `all_slice(all_reduce)`
/// pairs and dropping dead code.
mod reference {
    use std::collections::{HashMap, HashSet};

    use partir_analysis::layout::{
        fuse_gather_slice, fuse_reduce_slice, reshard_split, AxisStacks, DimLayout, GatherSlice,
        ReduceSlice,
    };
    use partir_core::temporal::localize_kind;
    use partir_core::tmr::ResultAction;
    use partir_core::{OpAxisCtx, Partitioning};
    use partir_ir::{
        Collective, Func, FuncBuilder, IrError, OpData, OpId, OpKind, ReduceOp, Shape, ValueId,
    };
    use partir_mesh::Axis;

    /// Lowers `func` under `part` into a device-local SPMD program.
    ///
    /// # Errors
    ///
    /// Fails on malformed functions; all layouts produced by propagation are
    /// lowerable by construction.
    pub fn lower(func: &Func, part: &Partitioning) -> Result<Func, IrError> {
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
        b.build(results)
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

    /// What an `all_slice(all_gather | all_reduce)` pair fuses into.
    #[derive(Debug, Clone, PartialEq)]
    enum Fusion {
        Gather(GatherSlice),
        Reduce(ReduceSlice<DimLayout, Vec<Axis>>, ReduceOp),
    }

    /// Decides whether `slice_axes` applied to the result of `producer`
    /// (an all_gather or all_reduce) fuses, and into what.
    fn decide(producer: &Collective, slice_axes: &DimLayout) -> Option<Fusion> {
        match producer {
            Collective::AllGather { dim_axes } => {
                fuse_gather_slice(dim_axes, slice_axes).map(Fusion::Gather)
            }
            Collective::AllReduce { axes, reduce } => {
                fuse_reduce_slice(axes, slice_axes).map(|split| Fusion::Reduce(split, *reduce))
            }
            _ => None,
        }
    }

    /// A map from value to the ops that consume it (anywhere in the
    /// function, including region bodies).
    fn uses(func: &Func) -> HashMap<ValueId, Vec<OpId>> {
        let mut uses: HashMap<ValueId, Vec<OpId>> = HashMap::new();
        for op in func.op_ids() {
            for &operand in &func.op(op).operands {
                uses.entry(operand).or_default().push(op);
            }
        }
        uses
    }

    /// Returns a copy of `func` with collective pairs fused and dead ops
    /// removed.
    ///
    /// The mesh is needed to re-infer collective result types.
    ///
    /// # Errors
    ///
    /// Fails only on malformed functions.
    pub fn fuse_collectives(func: &Func, mesh: &partir_mesh::Mesh) -> Result<Func, IrError> {
        let uses = uses(func);
        // Values that escape through function or region results are used even
        // though no op consumes them.
        let mut escapes: HashSet<ValueId> = func.results().iter().copied().collect();
        for op_id in func.op_ids() {
            if let Some(region) = &func.op(op_id).region {
                escapes.extend(region.results.iter().copied());
            }
        }
        let mut absorbed: HashSet<OpId> = HashSet::new();
        for op_id in func.op_ids() {
            let op = func.op(op_id);
            let OpKind::Collective(c) = &op.kind else {
                continue;
            };
            if !matches!(
                c,
                Collective::AllGather { .. } | Collective::AllReduce { .. }
            ) {
                continue;
            }
            let result = op.results[0];
            if escapes.contains(&result) {
                continue;
            }
            let Some(users) = uses.get(&result) else {
                continue;
            };
            if users.len() != 1 {
                continue;
            }
            let user = func.op(users[0]);
            if let OpKind::Collective(Collective::AllSlice { dim_axes }) = &user.kind {
                if decide(c, dim_axes).is_some() {
                    absorbed.insert(op_id);
                }
            }
        }
        let live = partir_ir::passes::live_values(func);
        let mut b = FuncBuilder::with_mesh(func.name().to_string(), mesh.clone());
        let mut map: HashMap<ValueId, ValueId> = HashMap::new();
        for &p in func.params() {
            let name = func
                .value(p)
                .name
                .clone()
                .unwrap_or_else(|| format!("arg{}", p.0));
            let np = b.param(name, func.value_type(p).clone());
            map.insert(p, np);
        }
        rebuild(func, &mut b, func.body(), &mut map, &absorbed, &live)?;
        let results: Vec<ValueId> = func
            .results()
            .iter()
            .map(|r| {
                map.get(r)
                    .copied()
                    .ok_or_else(|| IrError::invalid("result lost during fusion"))
            })
            .collect::<Result<_, _>>()?;
        b.build(results)
    }

    fn rebuild(
        func: &Func,
        b: &mut FuncBuilder,
        body: &[OpId],
        map: &mut HashMap<ValueId, ValueId>,
        absorbed: &HashSet<OpId>,
        live: &[bool],
    ) -> Result<(), IrError> {
        for &op_id in body {
            let op = func.op(op_id);
            if absorbed.contains(&op_id) {
                continue; // emitted as part of the fused user
            }
            if !op.results.iter().any(|r| live[r.0 as usize]) {
                continue; // dead code
            }
            if let OpKind::For { trip_count } = op.kind {
                rebuild_for(func, b, op, trip_count, map, absorbed, live)?;
                continue;
            }
            // Peephole: an all_slice whose producer was absorbed.
            if let OpKind::Collective(Collective::AllSlice { dim_axes }) = &op.kind {
                let producer = producer_op(func, op.operands[0]);
                if let Some(pid) = producer {
                    if absorbed.contains(&pid) {
                        let pop = func.op(pid);
                        let OpKind::Collective(pc) = &pop.kind else {
                            unreachable!("absorbed ops are collectives");
                        };
                        let fusion = decide(pc, dim_axes).expect("decided during analysis");
                        let src = *map
                            .get(&pop.operands[0])
                            .ok_or_else(|| IrError::invalid("fusion source not rebuilt"))?;
                        let out = match fusion {
                            Fusion::Gather(GatherSlice::Cancel) => src,
                            // The rule matched the gathered and sliced stacks.
                            Fusion::Gather(GatherSlice::AllToAll { src_dim, dst_dim }) => {
                                let axes = dim_axes[dst_dim].clone();
                                let a2a = Collective::AllToAll {
                                    src_dim,
                                    dst_dim,
                                    axes,
                                };
                                b.collective(a2a, src)?
                            }
                            Fusion::Reduce(
                                ReduceSlice {
                                    residual_slice,
                                    covered: dim_axes,
                                    residual_reduce,
                                },
                                monoid,
                            ) => {
                                // Uncovered slice prefix first (slice/reduce
                                // commute and this preserves the per-dim
                                // slicing order), then the reductions.
                                let mut cur = src;
                                if residual_slice.iter().any(|a| !a.is_empty()) {
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
                                        dim_axes,
                                        reduce: monoid,
                                    },
                                    cur,
                                )?
                            }
                        };
                        map.insert(op.results[0], out);
                        continue;
                    }
                }
            }
            // Default: clone the op.
            let operands: Vec<ValueId> = op
                .operands
                .iter()
                .map(|v| {
                    map.get(v)
                        .copied()
                        .ok_or_else(|| IrError::invalid("operand not rebuilt"))
                })
                .collect::<Result<_, _>>()?;
            let new_results = b.emit(op.kind.clone(), &operands)?;
            for (&old, &new) in op.results.iter().zip(&new_results) {
                map.insert(old, new);
            }
        }
        Ok(())
    }

    fn rebuild_for(
        func: &Func,
        b: &mut FuncBuilder,
        op: &OpData,
        trip_count: usize,
        map: &mut HashMap<ValueId, ValueId>,
        absorbed: &HashSet<OpId>,
        live: &[bool],
    ) -> Result<(), IrError> {
        let region = op.region.as_ref().expect("for has region");
        let inits: Vec<ValueId> = op
            .operands
            .iter()
            .map(|v| {
                map.get(v)
                    .copied()
                    .ok_or_else(|| IrError::invalid("init not rebuilt"))
            })
            .collect::<Result<_, _>>()?;
        let results = b.for_loop(trip_count, &inits, |inner, index, carried| {
            map.insert(region.params[0], index);
            for (rp, &c) in region.params[1..].iter().zip(carried) {
                map.insert(*rp, c);
            }
            rebuild(func, inner, &region.body, map, absorbed, live)?;
            region
                .results
                .iter()
                .map(|v| {
                    map.get(v)
                        .copied()
                        .ok_or_else(|| IrError::invalid("yield not rebuilt"))
                })
                .collect()
        })?;
        for (&old, &new) in op.results.iter().zip(&results) {
            map.insert(old, new);
        }
        Ok(())
    }

    fn producer_op(func: &Func, v: ValueId) -> Option<OpId> {
        match func.value(v).def {
            partir_ir::ValueDef::OpResult { op, .. } => Some(op),
            _ => None,
        }
    }
}

/// Compares one-pass lowering of `func` under `part` with the two-pass
/// pipeline; returns the unfused reference program for further checks.
fn assert_one_pass(what: &str, func: &Func, part: &Partitioning) -> Result<Func, String> {
    let one_pass = lower(func, part).map_err(|e| format!("{what}: {e}"))?;
    let unfused = reference::lower(func, part).map_err(|e| format!("{what}: {e}"))?;
    let two_pass =
        reference::fuse_collectives(&unfused, part.mesh()).map_err(|e| format!("{what}: {e}"))?;
    let (got, want) = (print_func(one_pass.func()), print_func(&two_pass));
    if got != want {
        return Err(format!(
            "{what}: one-pass lowering differs from lower + fuse\n--- one pass\n{got}\n--- two passes\n{want}"
        ));
    }
    if one_pass.func().fingerprint() != two_pass.fingerprint() {
        return Err(format!("{what}: equal text but different fingerprints"));
    }
    Ok(unfused)
}

/// The benchmark mesh ladder: 1×2, 2×2, 4×2 (batch × model).
fn meshes() -> Vec<Mesh> {
    [1usize, 2, 4]
        .into_iter()
        .map(|b| Mesh::new([(BATCH, b), (MODEL, 2)]).unwrap())
        .collect()
}

type ZooEntry = (&'static str, Func, Vec<(&'static str, Schedule)>);

#[test]
fn zoo_cells_after_every_tactic_match_the_two_pass_pipeline() {
    // Batch 8 so the batch axis tiles on every mesh of the ladder.
    let unet_cfg = UNetConfig {
        batch: 8,
        ..UNetConfig::tiny()
    };
    let zoo: Vec<ZooEntry> = vec![
        (
            "transformer",
            partir_models::transformer::build_train_step(&TransformerConfig::tiny())
                .unwrap()
                .func,
            schedules::transformer_table2(),
        ),
        (
            "itransformer",
            partir_models::itransformer::build_serving(&ITransformerConfig::tiny())
                .unwrap()
                .func,
            schedules::itransformer_table2(),
        ),
        (
            "itransformer-decode",
            partir_models::itransformer::build_decode_step(&ServingConfig::tiny())
                .unwrap()
                .func,
            schedules::itransformer_table2(),
        ),
        (
            "unet",
            partir_models::unet::build_train_step(&unet_cfg)
                .unwrap()
                .func,
            schedules::unet_table2(),
        ),
        (
            "gns",
            partir_models::gns::build_train_step(&GnsConfig::tiny())
                .unwrap()
                .func,
            schedules::gns_table2(),
        ),
    ];
    let mut states = 0;
    for (name, func, rows) in &zoo {
        for mesh in meshes() {
            let sizes: Vec<String> = mesh.axes().iter().map(|(_, s)| s.to_string()).collect();
            for (label, schedule) in rows {
                let mut part = Partitioning::new(func, mesh.clone()).unwrap();
                for tactic in schedule.tactics() {
                    let Tactic::Manual(m) = tactic else {
                        panic!("{name}/{label}: the zoo rows are manual");
                    };
                    m.apply(func, &mut part).unwrap();
                    part.propagate(func);
                    let what = format!(
                        "{name}/{label} on {} after {}",
                        sizes.join("x"),
                        tactic.name()
                    );
                    assert_one_pass(&what, func, &part).unwrap();
                    states += 1;
                }
            }
        }
    }
    assert!(states > 100, "only {states} states compared");
}

#[test]
fn random_programs_match_the_two_pass_pipeline() {
    check("one-pass lowering == lower + fuse", 96, |rng| {
        let (func, part) = common::random_partitioned(rng);
        let unfused = assert_one_pass("random program", &func, &part)?;
        // Fusion never makes communication more expensive (op *count*
        // may grow when a multi-axis all_reduce splits into a cheaper
        // all_reduce + reduce_scatter pair, so the invariant is on
        // simulated communication time).
        let hw = HardwareConfig::tpu_v3_pod(part.mesh().clone());
        let sim = partir_sim::Simulator::new(&hw, partir_sim::SimConfig::default());
        let unfused_comm = sim.simulate(&unfused).unwrap().comm_s;
        let fused_comm = sim
            .simulate(lower(&func, &part).unwrap().func())
            .unwrap()
            .comm_s;
        if fused_comm > unfused_comm + 1e-12 {
            return Err(format!("fused {fused_comm} > unfused {unfused_comm}"));
        }
        Ok(())
    });
}

/// Two carried loops (the cell of `objective_prop.rs`'s
/// `cross_op_fusion_matches_simulator`): with the first loop's result
/// pinned replicated, its init and yield are `#sum` results whose sole
/// use is the loop boundary's slice, so each reduce becomes a
/// reduce_scatter across ops — the yield's once per trip. Without the
/// pin, the same loops carry the tiling through.
#[test]
fn loop_boundary_cells_match_the_two_pass_pipeline() {
    const TRIPS: usize = 3;
    let mut b = FuncBuilder::new("carried");
    let x = b.param("x", TensorType::f32([8, 16]));
    let w0 = b.param("w0", TensorType::f32([16, 8]));
    let w1 = b.param("w1", TensorType::f32([8, 8]));
    let h = b.matmul(x, w0).unwrap();
    let mut carried = Vec::new();
    let first = b
        .for_loop(TRIPS, &[h], |b, _, c| {
            carried.push(c[0]);
            Ok(vec![b.matmul(c[0], w1)?])
        })
        .unwrap();
    let second = b
        .for_loop(TRIPS, &first, |b, _, c| {
            carried.push(c[0]);
            Ok(vec![b.neg(c[0])?])
        })
        .unwrap();
    let func = b.build(second).unwrap();

    let m: Axis = "m".into();
    for pinned in [true, false] {
        let mut part = Partitioning::new(&func, Mesh::new([("m", 2)]).unwrap()).unwrap();
        if pinned {
            part.atomic(&func, first[0], &m).unwrap();
        }
        for &c in &carried {
            part.tile(&func, c, 1, &m).unwrap();
        }
        part.tile(&func, x, 1, &m).unwrap();
        part.propagate(&func);
        let what = format!("two carried loops (result pinned: {pinned})");
        assert_one_pass(&what, &func, &part).unwrap();
        if pinned {
            let stats = lower(&func, &part).unwrap().stats();
            assert_eq!(
                (stats.reduce_scatter, stats.all_reduce, stats.all_gather),
                (1 + TRIPS, 0, 1),
                "{what}: {stats:?}"
            );
        }
    }
}
