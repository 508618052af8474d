//! Generic cleanup passes: common-subexpression elimination and dead-code
//! elimination.
//!
//! Autodiff-generated training steps contain many duplicated scalar
//! constants, broadcasts and transposes; [`cse`] merges them (within a
//! region scope) and [`dce`] drops unused ops, shrinking the graphs the
//! partitioner walks. Both passes preserve parameter order and names, so
//! they compose with name-addressed tactics — run them *before* creating
//! a `Partitioning` (value ids change).

use std::collections::HashMap;

use crate::{Func, FuncBuilder, IrError, OpData, OpId, OpKind, ValueId};

/// Maximum constant element count that participates in CSE (hashing huge
/// literals costs more than the duplicate).
const CSE_CONST_LIMIT: usize = 64;

/// Eliminates common subexpressions: ops with identical kind and operands
/// (within the same region) are computed once. Also deduplicates small
/// constants. Returns the rewritten function.
///
/// # Errors
///
/// Fails only on malformed functions.
pub fn cse(func: &Func) -> Result<Func, IrError> {
    let mut b = FuncBuilder::new(func.name().to_string());
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
    let mut seen: HashMap<String, ValueId> = HashMap::new();
    rebuild(func, &mut b, func.body(), &mut map, &mut Some(&mut seen))?;
    let results: Vec<ValueId> = func
        .results()
        .iter()
        .map(|r| {
            map.get(r)
                .copied()
                .ok_or_else(|| IrError::invalid("result lost during CSE"))
        })
        .collect::<Result<_, _>>()?;
    b.build(results)
}

/// Removes ops whose results are unused (transitively). Returns the
/// rewritten function.
///
/// # Errors
///
/// Fails only on malformed functions.
pub fn dce(func: &Func) -> Result<Func, IrError> {
    let live = live_values(func);
    let mut b = FuncBuilder::new(func.name().to_string());
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
    rebuild_live(func, &mut b, func.body(), &mut map, &live)?;
    let results: Vec<ValueId> = func
        .results()
        .iter()
        .map(|r| {
            map.get(r)
                .copied()
                .ok_or_else(|| IrError::invalid("result lost during DCE"))
        })
        .collect::<Result<_, _>>()?;
    b.build(results)
}

/// A key identifying an op for CSE purposes, or `None` when the op must
/// not be merged.
fn op_key(op: &OpData, operands: &[ValueId]) -> Option<String> {
    match &op.kind {
        OpKind::For { .. } => None, // regions are never merged
        OpKind::Constant(lit) if lit.num_elements() > CSE_CONST_LIMIT => None,
        kind => Some(format!("{kind:?}|{operands:?}")),
    }
}

fn rebuild(
    func: &Func,
    b: &mut FuncBuilder,
    body: &[OpId],
    map: &mut HashMap<ValueId, ValueId>,
    seen: &mut Option<&mut HashMap<String, ValueId>>,
) -> Result<(), IrError> {
    for &op_id in body {
        let op = func.op(op_id);
        let operands: Vec<ValueId> = op
            .operands
            .iter()
            .map(|v| {
                map.get(v)
                    .copied()
                    .ok_or_else(|| IrError::invalid("operand not rebuilt"))
            })
            .collect::<Result<_, _>>()?;
        if let (OpKind::For { trip_count }, Some(region)) = (&op.kind, &op.region) {
            let results = b.for_loop(*trip_count, &operands, |inner, index, carried| {
                map.insert(region.params[0], index);
                for (rp, &c) in region.params[1..].iter().zip(carried) {
                    map.insert(*rp, c);
                }
                // Region scope gets its own CSE table (values defined in a
                // region must not be referenced outside it and vice versa
                // across iterations).
                let mut inner_seen: HashMap<String, ValueId> = HashMap::new();
                rebuild(func, inner, &region.body, map, &mut Some(&mut inner_seen))?;
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
            continue;
        }
        if let (Some(table), Some(key)) = (seen.as_deref_mut(), op_key(op, &operands)) {
            if let Some(&existing) = table.get(&key) {
                map.insert(op.results[0], existing);
                continue;
            }
            let results = b.emit(op.kind.clone(), &operands)?;
            table.insert(key, results[0]);
            for (&old, &new) in op.results.iter().zip(&results) {
                map.insert(old, new);
            }
        } else {
            let results = b.emit(op.kind.clone(), &operands)?;
            for (&old, &new) in op.results.iter().zip(&results) {
                map.insert(old, new);
            }
        }
    }
    Ok(())
}

fn rebuild_live(
    func: &Func,
    b: &mut FuncBuilder,
    body: &[OpId],
    map: &mut HashMap<ValueId, ValueId>,
    live: &[bool],
) -> Result<(), IrError> {
    for &op_id in body {
        let op = func.op(op_id);
        if !op.results.iter().any(|r| live[r.0 as usize]) {
            continue;
        }
        let operands: Vec<ValueId> = op
            .operands
            .iter()
            .map(|v| {
                map.get(v)
                    .copied()
                    .ok_or_else(|| IrError::invalid("operand not rebuilt"))
            })
            .collect::<Result<_, _>>()?;
        if let (OpKind::For { trip_count }, Some(region)) = (&op.kind, &op.region) {
            let results = b.for_loop(*trip_count, &operands, |inner, index, carried| {
                map.insert(region.params[0], index);
                for (rp, &c) in region.params[1..].iter().zip(carried) {
                    map.insert(*rp, c);
                }
                rebuild_live(func, inner, &region.body, map, live)?;
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
            continue;
        }
        let results = b.emit(op.kind.clone(), &operands)?;
        for (&old, &new) in op.results.iter().zip(&results) {
            map.insert(old, new);
        }
    }
    Ok(())
}

/// Which values the function results transitively need, indexed by
/// value id: an op with any live result keeps its operands live, and a
/// live `for` keeps its whole region (params and yields) live. [`dce`],
/// collective fusion and the static objective all skip the ops this
/// marks dead.
pub fn live_values(func: &Func) -> Vec<bool> {
    fn mark(live: &mut [bool], v: ValueId) -> bool {
        !std::mem::replace(&mut live[v.0 as usize], true)
    }
    let mut live = vec![false; func.num_values()];
    for &r in func.results() {
        live[r.0 as usize] = true;
    }
    let mut changed = true;
    while changed {
        changed = false;
        for op_id in (0..func.num_ops() as u32).rev().map(OpId) {
            let op = func.op(op_id);
            if !op.results.iter().any(|r| live[r.0 as usize]) {
                continue;
            }
            for &o in &op.operands {
                changed |= mark(&mut live, o);
            }
            if let Some(region) = &op.region {
                for &v in region.results.iter().chain(&region.params) {
                    changed |= mark(&mut live, v);
                }
            }
        }
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{interp::interpret, Literal, TensorType};

    #[test]
    fn cse_merges_duplicate_constants_and_ops() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([4]));
        // Two identical scalar-constant + broadcast + mul chains.
        let a = b.binary_scalar(crate::BinaryOp::Mul, x, 2.0).unwrap();
        let c = b.binary_scalar(crate::BinaryOp::Mul, x, 2.0).unwrap();
        let s = b.add(a, c).unwrap();
        let f = b.build([s]).unwrap();
        let before = f.num_ops();
        let optimized = cse(&f).unwrap();
        crate::verify::verify_func(&optimized, None).unwrap();
        assert!(
            optimized.num_ops() < before,
            "{} !< {before}",
            optimized.num_ops()
        );
        let input = Literal::from_f32(vec![1., 2., 3., 4.], [4]).unwrap();
        let r1 = interpret(&f, std::slice::from_ref(&input)).unwrap();
        let r2 = interpret(&optimized, &[input]).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn cse_does_not_merge_across_regions() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([2]));
        let outer_c = b.const_f32(1.0).unwrap();
        let outer_cb = b.broadcast_scalar(outer_c, [2]).unwrap();
        let seeded = b.add(x, outer_cb).unwrap();
        let out = b
            .for_loop(2, &[seeded], |b, _i, carried| {
                let inner_c = b.const_f32(1.0)?;
                let inner_cb = b.broadcast_scalar(inner_c, [2])?;
                Ok(vec![b.add(carried[0], inner_cb)?])
            })
            .unwrap();
        let f = b.build(out).unwrap();
        let optimized = cse(&f).unwrap();
        crate::verify::verify_func(&optimized, None).unwrap();
        // Inner constant must stay inside the loop (not merged with the
        // outer one), so results agree.
        let input = Literal::from_f32(vec![0., 0.], [2]).unwrap();
        let r1 = interpret(&f, std::slice::from_ref(&input)).unwrap();
        let r2 = interpret(&optimized, &[input]).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1[0].as_f32().unwrap(), &[3.0, 3.0]);
    }

    #[test]
    fn cse_skips_large_constants() {
        let mut b = FuncBuilder::new("f");
        let big = Literal::from_f32(vec![1.0; 128], [128]).unwrap();
        let c1 = b.constant(big.clone()).unwrap();
        let c2 = b.constant(big).unwrap();
        let s = b.add(c1, c2).unwrap();
        let f = b.build([s]).unwrap();
        let optimized = cse(&f).unwrap();
        // Both big constants survive (merging them is a non-goal).
        assert_eq!(optimized.num_ops(), f.num_ops());
    }

    #[test]
    fn dce_drops_unused_chains() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([2]));
        let dead1 = b.neg(x).unwrap();
        let _dead2 = b.exp(dead1).unwrap();
        let live = b.tanh(x).unwrap();
        let f = b.build([live]).unwrap();
        let optimized = dce(&f).unwrap();
        assert_eq!(optimized.num_ops(), 1);
        let input = Literal::from_f32(vec![0.5, -0.5], [2]).unwrap();
        assert_eq!(
            interpret(&f, std::slice::from_ref(&input)).unwrap(),
            interpret(&optimized, &[input]).unwrap()
        );
    }

    #[test]
    fn passes_preserve_parameter_names_and_order() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("params.w", TensorType::f32([2]));
        let y = b.param("opt.m.w", TensorType::f32([2]));
        let s = b.add(x, y).unwrap();
        let f = b.build([s]).unwrap();
        for pass in [cse, dce] {
            let out = pass(&f).unwrap();
            assert_eq!(out.param_by_name("params.w"), Some(out.params()[0]));
            assert_eq!(out.param_by_name("opt.m.w"), Some(out.params()[1]));
        }
    }
}
