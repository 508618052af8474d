//! PartIR:Temporal — sequential semantics for sharded programs.
//!
//! Every op that acquired a loop context is executed as an explicit,
//! *sequential* loop nest: operands are sliced per the applied TMR entry,
//! the op body runs on each chunk, and chunk results are concatenated
//! (`#tile`) or reduced (`#sum`). Values always hold their full (global)
//! contents, so the output must equal the unpartitioned reference
//! interpretation — this is the executable soundness check for every TMR
//! rule and for propagation itself (paper §4: "a reference semantics of
//! PartIR:Core").

use partir_ir::{
    interp::eval_op, BinaryOp, Func, IrError, Literal, OpData, OpId, OpKind, ReduceOp, Shape,
};
use partir_mesh::Axis;

use crate::state::{OpAxisCtx, Partitioning};
use crate::tmr::{ResultAction, TmrEntry};

/// Interprets `func` under `part`'s loop contexts, sequentially.
///
/// # Errors
///
/// Fails on malformed programs or ops the reference interpreter cannot
/// evaluate.
pub fn interpret_sharded(
    func: &Func,
    part: &Partitioning,
    inputs: &[Literal],
) -> Result<Vec<Literal>, IrError> {
    if inputs.len() != func.params().len() {
        return Err(IrError::invalid(format!(
            "expected {} inputs, got {}",
            func.params().len(),
            inputs.len()
        )));
    }
    let mut env: Vec<Option<Literal>> = vec![None; func.num_values()];
    for (&p, lit) in func.params().iter().zip(inputs) {
        env[p.0 as usize] = Some(lit.clone());
    }
    exec_ops(func, part, func.body(), &mut env)?;
    func.results()
        .iter()
        .map(|&r| {
            env[r.0 as usize]
                .clone()
                .ok_or_else(|| IrError::invalid("result never computed"))
        })
        .collect()
}

fn exec_ops(
    func: &Func,
    part: &Partitioning,
    body: &[OpId],
    env: &mut Vec<Option<Literal>>,
) -> Result<(), IrError> {
    for &op_id in body {
        let op = func.op(op_id);
        if let OpKind::For { trip_count } = &op.kind {
            exec_for(func, part, op, *trip_count, env)?;
            continue;
        }
        let operands: Vec<Literal> = op
            .operands
            .iter()
            .map(|&v| {
                env[v.0 as usize]
                    .clone()
                    .ok_or_else(|| IrError::invalid("use before def"))
            })
            .collect::<Result<_, _>>()?;
        // Nullary ops (constant, iota) tiled via result-only entries are
        // evaluated whole: the loop would only reconstruct the same full
        // value chunk by chunk.
        let nest: Vec<(Axis, TmrEntry)> = if op.operands.is_empty() {
            Vec::new()
        } else {
            part.op_ctx(op_id)
                .entries()
                .iter()
                .map(|(a, c)| match c {
                    OpAxisCtx::Entry(e) => (a.clone(), e.clone()),
                })
                .collect()
        };
        let result_shape = func.value_type(op.results[0]).shape.clone();
        let value = run_nest(part, op, &nest, operands, result_shape)?;
        env[op.results[0].0 as usize] = Some(value);
    }
    Ok(())
}

fn exec_for(
    func: &Func,
    part: &Partitioning,
    op: &OpData,
    trip_count: usize,
    env: &mut Vec<Option<Literal>>,
) -> Result<(), IrError> {
    let region = op
        .region
        .as_ref()
        .ok_or_else(|| IrError::invalid("for without region"))?;
    let mut carried: Vec<Literal> = op
        .operands
        .iter()
        .map(|&v| {
            env[v.0 as usize]
                .clone()
                .ok_or_else(|| IrError::invalid("use before def"))
        })
        .collect::<Result<_, _>>()?;
    for i in 0..trip_count {
        env[region.params[0].0 as usize] = Some(Literal::scalar_i32(i as i32));
        for (p, val) in region.params[1..].iter().zip(&carried) {
            env[p.0 as usize] = Some(val.clone());
        }
        exec_ops(func, part, &region.body, env)?;
        carried = region
            .results
            .iter()
            .map(|&v| {
                env[v.0 as usize]
                    .clone()
                    .ok_or_else(|| IrError::invalid("yield before def"))
            })
            .collect::<Result<_, _>>()?;
    }
    for (&r, val) in op.results.iter().zip(carried) {
        env[r.0 as usize] = Some(val);
    }
    Ok(())
}

/// Runs one op under the remaining loop nest, returning the *full* result.
fn run_nest(
    part: &Partitioning,
    op: &OpData,
    nest: &[(Axis, TmrEntry)],
    operands: Vec<Literal>,
    result_shape: Shape,
) -> Result<Literal, IrError> {
    let Some(((axis, entry), rest)) = nest.split_first() else {
        // Leaf: adjust shape-bearing attributes to the local result shape
        // and evaluate.
        let kind = localize_kind(&op.kind, &result_shape)?;
        let refs: Vec<&Literal> = operands.iter().collect();
        let results = eval_op(&kind, &refs)?;
        return Ok(results.into_iter().next().expect("single result"));
    };
    let k = part
        .mesh()
        .axis_size(axis)
        .map_err(|e| IrError::invalid(e.to_string()))?;
    let mut chunks: Vec<Literal> = Vec::with_capacity(k);
    for c in 0..k {
        let sliced: Vec<Literal> = operands
            .iter()
            .enumerate()
            .map(|(i, lit)| match entry.operands.get(i).copied().flatten() {
                Some(dim) => slice_chunk(lit, dim, c, k),
                None => Ok(lit.clone()),
            })
            .collect::<Result<_, _>>()?;
        let inner_shape = match entry.result {
            ResultAction::Tile(d) => {
                let mut dims = result_shape.dims().to_vec();
                if !dims[d].is_multiple_of(k) {
                    return Err(IrError::shape(
                        op.kind.name(),
                        format!("result dim {d} not divisible by {k}"),
                    ));
                }
                dims[d] /= k;
                Shape::from(dims)
            }
            ResultAction::Reduce(_) => result_shape.clone(),
        };
        chunks.push(run_nest(part, op, rest, sliced, inner_shape)?);
    }
    combine(chunks, entry.result)
}

/// Extracts the `c`-th of `k` equal chunks of `lit` along `dim`.
fn slice_chunk(lit: &Literal, dim: usize, c: usize, k: usize) -> Result<Literal, IrError> {
    let shape = lit.shape().clone();
    if !shape.dim(dim).is_multiple_of(k) {
        return Err(IrError::shape(
            "slice",
            format!("dim {dim} of size {} not divisible by {k}", shape.dim(dim)),
        ));
    }
    let chunk = shape.dim(dim) / k;
    let mut starts = vec![0; shape.rank()];
    let mut limits: Vec<usize> = shape.dims().to_vec();
    starts[dim] = c * chunk;
    limits[dim] = (c + 1) * chunk;
    let strides = vec![1; shape.rank()];
    let kind = OpKind::Slice {
        starts,
        limits,
        strides,
    };
    let out = eval_op(&kind, &[lit])?;
    Ok(out.into_iter().next().expect("single result"))
}

fn combine(chunks: Vec<Literal>, action: ResultAction) -> Result<Literal, IrError> {
    match action {
        ResultAction::Tile(d) => {
            let refs: Vec<&Literal> = chunks.iter().collect();
            let out = eval_op(&OpKind::Concatenate { dim: d }, &refs)?;
            Ok(out.into_iter().next().expect("single result"))
        }
        ResultAction::Reduce(op) => {
            let bin = match op {
                ReduceOp::Sum => BinaryOp::Add,
                ReduceOp::Max => BinaryOp::Max,
                ReduceOp::Min => BinaryOp::Min,
                ReduceOp::Prod => BinaryOp::Mul,
            };
            let mut iter = chunks.into_iter();
            let mut acc = iter.next().ok_or_else(|| IrError::invalid("empty loop"))?;
            for chunk in iter {
                let out = eval_op(&OpKind::Binary(bin), &[&acc, &chunk])?;
                acc = out.into_iter().next().expect("single result");
            }
            Ok(acc)
        }
    }
}

/// Rewrites shape-bearing attributes to a local result shape; nullary ops
/// (constant/iota) are evaluated full and sliced by the caller via the
/// normal combine path, so they must never reach here tiled — instead the
/// TMR gives them result-only entries and `run_nest` slices their output.
///
/// Also used by the SPMD lowering in `partir-spmd` to emit device-local
/// attribute shapes.
pub fn localize_kind(kind: &OpKind, local_result: &Shape) -> Result<OpKind, IrError> {
    Ok(match kind {
        OpKind::Reshape { .. } => OpKind::Reshape {
            shape: local_result.clone(),
        },
        OpKind::BroadcastInDim { broadcast_dims, .. } => OpKind::BroadcastInDim {
            shape: local_result.clone(),
            broadcast_dims: broadcast_dims.clone(),
        },
        OpKind::Iota { dim, dtype, .. } => OpKind::Iota {
            dim: *dim,
            shape: local_result.clone(),
            dtype: *dtype,
        },
        OpKind::Constant(lit) => {
            // A constant tiled along some dim must produce the local chunk;
            // temporal execution reconstructs the full value by
            // concatenation, so producing the same full constant per chunk
            // would be wrong. Since the TMR only tiles constants via
            // result-only entries, reconstruct the chunk by slicing.
            if lit.shape() == local_result {
                OpKind::Constant(lit.clone())
            } else {
                return Err(IrError::unsupported(
                    "tiled constants must be sliced by the caller",
                ));
            }
        }
        OpKind::Slice {
            starts,
            limits,
            strides,
        } => {
            // Pass-through dims get their limits shrunk to the local size.
            let mut limits = limits.clone();
            for (d, l) in limits.iter_mut().enumerate() {
                let local = local_result.dim(d) * strides[d];
                if starts[d] == 0 && *l > local {
                    *l = local;
                }
            }
            OpKind::Slice {
                starts: starts.clone(),
                limits,
                strides: strides.clone(),
            }
        }
        OpKind::DynamicSlice { .. } => OpKind::DynamicSlice {
            sizes: local_result.dims().to_vec(),
        },
        other => other.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partitioning;
    use partir_ir::{interp::interpret, FuncBuilder, TensorType};
    use partir_mesh::Mesh;

    fn rand_lit(dims: &[usize], salt: u64) -> Literal {
        let ty = TensorType::f32(dims.to_vec());
        let n = ty.shape.num_elements();
        let mut state = salt.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let data: Vec<f32> = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect();
        Literal::from_f32(data, dims.to_vec()).unwrap()
    }

    #[test]
    fn tiled_matmul_chain_matches_reference() {
        let mut b = FuncBuilder::new("main");
        let x = b.param("x", TensorType::f32([8, 4]));
        let w1 = b.param("w1", TensorType::f32([4, 6]));
        let w2 = b.param("w2", TensorType::f32([6, 4]));
        let h = b.matmul(x, w1).unwrap();
        let y = b.matmul(h, w2).unwrap();
        let f = b.build([y]).unwrap();
        let mesh = Mesh::new([("B", 4), ("M", 2)]).unwrap();
        let mut p = Partitioning::new(&f, mesh).unwrap();
        p.tile(&f, x, 0, &"B".into()).unwrap();
        p.propagate(&f);
        p.tile(&f, w1, 1, &"M".into()).unwrap();
        p.propagate(&f);

        let inputs = vec![
            rand_lit(&[8, 4], 1),
            rand_lit(&[4, 6], 2),
            rand_lit(&[6, 4], 3),
        ];
        let reference = interpret(&f, &inputs).unwrap();
        let temporal = interpret_sharded(&f, &p, &inputs).unwrap();
        let diff = reference[0].max_abs_diff(&temporal[0]).unwrap();
        assert!(diff < 1e-4, "temporal deviates from reference by {diff}");
    }

    #[test]
    fn sum_context_reduces_correctly() {
        // Contract over a tiled dimension: the #sum loop must accumulate.
        let mut b = FuncBuilder::new("sum");
        let x = b.param("x", TensorType::f32([4, 8]));
        let y = b.param("y", TensorType::f32([8, 4]));
        let z = b.matmul(x, y).unwrap();
        let f = b.build([z]).unwrap();
        let mesh = Mesh::single("M", 4).unwrap();
        let mut p = Partitioning::new(&f, mesh).unwrap();
        p.tile(&f, x, 1, &"M".into()).unwrap();
        let report = p.propagate(&f);
        assert!(report.conflicts.is_empty());
        let inputs = vec![rand_lit(&[4, 8], 7), rand_lit(&[8, 4], 8)];
        let reference = interpret(&f, &inputs).unwrap();
        let temporal = interpret_sharded(&f, &p, &inputs).unwrap();
        assert!(reference[0].max_abs_diff(&temporal[0]).unwrap() < 1e-4);
    }

    #[test]
    fn unsharded_program_is_plain_interpretation() {
        let mut b = FuncBuilder::new("id");
        let x = b.param("x", TensorType::f32([4]));
        let y = b.neg(x).unwrap();
        let f = b.build([y]).unwrap();
        let p = Partitioning::new(&f, Mesh::single("a", 2).unwrap()).unwrap();
        let inputs = vec![rand_lit(&[4], 5)];
        let reference = interpret(&f, &inputs).unwrap();
        let temporal = interpret_sharded(&f, &p, &inputs).unwrap();
        assert_eq!(reference, temporal);
    }
}
