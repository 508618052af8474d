//! Collective fusion (paper §6): `all_slice(all_gather(x))` cancels or
//! becomes `all_to_all`; `all_slice(all_reduce(x))` becomes
//! `reduce_scatter`. Plus dead-code elimination for orphaned ops. The
//! rules themselves are [`fuse_gather_slice`] and [`fuse_reduce_slice`];
//! this pass finds the pairs and emits what the rules decide.

use std::collections::{HashMap, HashSet};

use partir_analysis::layout::{
    fuse_gather_slice, fuse_reduce_slice, DimLayout, GatherSlice, ReduceSlice,
};
use partir_ir::{Collective, Func, FuncBuilder, IrError, OpData, OpId, OpKind, ReduceOp, ValueId};
use partir_mesh::Axis;

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

/// Returns a copy of `func` with collective pairs fused and dead ops
/// removed.
///
/// The mesh is needed to re-infer collective result types.
///
/// # Errors
///
/// Fails only on malformed functions.
pub fn fuse_collectives(func: &Func, mesh: &partir_mesh::Mesh) -> Result<Func, IrError> {
    let _span = partir_obs::span!("spmd.fuse");
    let uses = func.uses();
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
    partir_obs::counter!("spmd.fuse.absorbed", absorbed.len());
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

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{Collective, FuncBuilder, ReduceOp, TensorType};
    use partir_mesh::Mesh;

    fn mesh() -> Mesh {
        Mesh::new([("x", 2), ("y", 2)]).unwrap()
    }

    fn count_kind(f: &Func, name: &str) -> usize {
        f.op_ids().filter(|&o| f.op(o).kind.name() == name).count()
    }

    #[test]
    fn slice_of_gather_cancels() {
        let m = mesh();
        let mut b = FuncBuilder::with_mesh("f", m.clone());
        let x = b.param("x", TensorType::f32([4, 4]));
        let g = b
            .collective(
                Collective::AllGather {
                    dim_axes: vec![vec!["x".into()], vec![]],
                },
                x,
            )
            .unwrap();
        let s = b
            .collective(
                Collective::AllSlice {
                    dim_axes: vec![vec!["x".into()], vec![]],
                },
                g,
            )
            .unwrap();
        let f = b.build([s]).unwrap();
        let fused = fuse_collectives(&f, &m).unwrap();
        assert_eq!(count_kind(&fused, "all_gather"), 0);
        assert_eq!(count_kind(&fused, "all_slice"), 0);
        assert_eq!(fused.results()[0], fused.params()[0]);
    }

    #[test]
    fn gather_then_slice_other_dim_becomes_all_to_all() {
        let m = mesh();
        let mut b = FuncBuilder::with_mesh("f", m.clone());
        let x = b.param("x", TensorType::f32([4, 4]));
        let g = b
            .collective(
                Collective::AllGather {
                    dim_axes: vec![vec!["x".into()], vec![]],
                },
                x,
            )
            .unwrap();
        let s = b
            .collective(
                Collective::AllSlice {
                    dim_axes: vec![vec![], vec!["x".into()]],
                },
                g,
            )
            .unwrap();
        let f = b.build([s]).unwrap();
        let fused = fuse_collectives(&f, &m).unwrap();
        assert_eq!(count_kind(&fused, "all_to_all"), 1);
        assert_eq!(count_kind(&fused, "all_gather"), 0);
    }

    #[test]
    fn slice_of_reduce_becomes_reduce_scatter() {
        let m = mesh();
        let mut b = FuncBuilder::with_mesh("f", m.clone());
        let x = b.param("x", TensorType::f32([4, 4]));
        let r = b
            .collective(
                Collective::AllReduce {
                    axes: vec!["x".into(), "y".into()],
                    reduce: ReduceOp::Sum,
                },
                x,
            )
            .unwrap();
        let s = b
            .collective(
                Collective::AllSlice {
                    dim_axes: vec![vec!["x".into()], vec![]],
                },
                r,
            )
            .unwrap();
        let f = b.build([s]).unwrap();
        let fused = fuse_collectives(&f, &m).unwrap();
        assert_eq!(count_kind(&fused, "reduce_scatter"), 1);
        // The y axis was not scattered: a residual all_reduce remains.
        assert_eq!(count_kind(&fused, "all_reduce"), 1);
        assert_eq!(count_kind(&fused, "all_slice"), 0);
    }

    #[test]
    fn multi_use_gather_is_not_absorbed() {
        let m = mesh();
        let mut b = FuncBuilder::with_mesh("f", m.clone());
        let x = b.param("x", TensorType::f32([4, 4]));
        let g = b
            .collective(
                Collective::AllGather {
                    dim_axes: vec![vec!["x".into()], vec![]],
                },
                x,
            )
            .unwrap();
        let s = b
            .collective(
                Collective::AllSlice {
                    dim_axes: vec![vec!["x".into()], vec![]],
                },
                g,
            )
            .unwrap();
        let both = b.add(s, s).unwrap();
        let f = b.build([both, g]).unwrap();
        let fused = fuse_collectives(&f, &m).unwrap();
        // g has two uses (slice + result) so it must survive.
        assert_eq!(count_kind(&fused, "all_gather"), 1);
    }

    #[test]
    fn dead_ops_are_removed() {
        let m = mesh();
        let mut b = FuncBuilder::with_mesh("f", m.clone());
        let x = b.param("x", TensorType::f32([4, 4]));
        let _dead = b.neg(x).unwrap();
        let live = b.add(x, x).unwrap();
        let f = b.build([live]).unwrap();
        let fused = fuse_collectives(&f, &m).unwrap();
        assert_eq!(count_kind(&fused, "neg"), 0);
        assert_eq!(count_kind(&fused, "add"), 1);
    }
}
