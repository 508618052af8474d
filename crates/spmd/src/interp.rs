//! Lockstep multi-device interpreter for SPMD programs.
//!
//! Every simulated device executes the same device-local program;
//! collectives exchange data across [`partir_mesh::Mesh`] groups. Used to
//! validate that lowering + fusion preserve semantics (the executable
//! analogue of the paper's correctness proof for SPMD lowering).
//!
//! This interpreter deliberately stays op-by-op: it is the
//! *differential oracle* for the compiled execution path. The threaded
//! runtime compiles programs into [`crate::plan::CompiledPlan`]s (direct
//! kernel calls, fused elementwise loops, arena-allocated
//! intermediates); conformance and property tests assert plan execution
//! is bit-identical to what this module computes, so any disagreement
//! localises a plan-compiler bug.

use partir_core::{ShardKind, ValueCtx};
use partir_ir::kernels::SliceKernel;
use partir_ir::{
    interp::eval_op, BinaryOp, Collective, Func, IrError, Literal, OpId, OpKind, ReduceOp,
    TensorType,
};
use partir_mesh::{Axis, Mesh};

/// Runs `func` on every device of `mesh` in lockstep.
///
/// `inputs[d]` are the device-local inputs of device `d`. Returns the
/// device-local outputs per device.
///
/// # Errors
///
/// Fails on malformed programs or mismatched inputs.
pub fn run_devices(
    func: &Func,
    mesh: &Mesh,
    inputs: &[Vec<Literal>],
) -> Result<Vec<Vec<Literal>>, IrError> {
    let n = mesh.num_devices();
    if inputs.len() != n {
        return Err(IrError::invalid(format!(
            "expected inputs for {n} devices, got {}",
            inputs.len()
        )));
    }
    let mut envs: Vec<Vec<Option<Literal>>> = vec![vec![None; func.num_values()]; n];
    for (d, device_inputs) in inputs.iter().enumerate() {
        if device_inputs.len() != func.params().len() {
            return Err(IrError::invalid("wrong per-device input arity"));
        }
        for (&p, lit) in func.params().iter().zip(device_inputs) {
            if &lit.ty() != func.value_type(p) {
                return Err(IrError::invalid(format!(
                    "device {d} input for {:?} has type {}, expected {}",
                    func.value(p).name,
                    lit.ty(),
                    func.value_type(p)
                )));
            }
            envs[d][p.0 as usize] = Some(lit.clone());
        }
    }
    exec_body(func, mesh, func.body(), &mut envs)?;
    (0..n)
        .map(|d| {
            func.results()
                .iter()
                .map(|&r| {
                    envs[d][r.0 as usize]
                        .clone()
                        .ok_or_else(|| IrError::invalid("result never computed"))
                })
                .collect()
        })
        .collect()
}

fn exec_body(
    func: &Func,
    mesh: &Mesh,
    body: &[OpId],
    envs: &mut [Vec<Option<Literal>>],
) -> Result<(), IrError> {
    let n = envs.len();
    for &op_id in body {
        let op = func.op(op_id);
        match &op.kind {
            OpKind::For { trip_count } => {
                let region = op
                    .region
                    .as_ref()
                    .ok_or_else(|| IrError::invalid("for without region"))?;
                let mut carried: Vec<Vec<Literal>> = (0..n)
                    .map(|d| {
                        op.operands
                            .iter()
                            .map(|&v| {
                                envs[d][v.0 as usize]
                                    .clone()
                                    .ok_or_else(|| IrError::invalid("use before def"))
                            })
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .collect::<Result<_, _>>()?;
                for i in 0..*trip_count {
                    for (d, env) in envs.iter_mut().enumerate() {
                        env[region.params[0].0 as usize] = Some(Literal::scalar_i32(i as i32));
                        for (p, val) in region.params[1..].iter().zip(&carried[d]) {
                            env[p.0 as usize] = Some(val.clone());
                        }
                    }
                    exec_body(func, mesh, &region.body, envs)?;
                    for (d, env) in envs.iter().enumerate() {
                        carried[d] = region
                            .results
                            .iter()
                            .map(|&v| {
                                env[v.0 as usize]
                                    .clone()
                                    .ok_or_else(|| IrError::invalid("yield before def"))
                            })
                            .collect::<Result<_, _>>()?;
                    }
                }
                for (d, env) in envs.iter_mut().enumerate() {
                    for (&r, val) in op.results.iter().zip(carried[d].drain(..)) {
                        env[r.0 as usize] = Some(val);
                    }
                }
            }
            OpKind::Collective(c) => {
                let vals: Vec<Literal> = (0..n)
                    .map(|d| {
                        envs[d][op.operands[0].0 as usize]
                            .clone()
                            .ok_or_else(|| IrError::invalid("use before def"))
                    })
                    .collect::<Result<_, _>>()?;
                let outs = apply_collective(c, mesh, vals)?;
                for (d, out) in outs.into_iter().enumerate() {
                    envs[d][op.results[0].0 as usize] = Some(out);
                }
            }
            _ => {
                for env in envs.iter_mut() {
                    let operands: Vec<&Literal> = op
                        .operands
                        .iter()
                        .map(|&v| {
                            env[v.0 as usize]
                                .as_ref()
                                .ok_or_else(|| IrError::invalid("use before def"))
                        })
                        .collect::<Result<_, _>>()?;
                    let results = eval_op(&op.kind, &operands)?;
                    for (&r, val) in op.results.iter().zip(results) {
                        env[r.0 as usize] = Some(val);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Applies one collective across the whole mesh (index = device id).
pub fn apply_collective(
    c: &Collective,
    mesh: &Mesh,
    vals: Vec<Literal>,
) -> Result<Vec<Literal>, IrError> {
    match c {
        Collective::AllReduce { axes, reduce } => all_reduce(mesh, axes, *reduce, vals),
        Collective::AllSlice { dim_axes } => all_slice(mesh, dim_axes, vals),
        Collective::AllGather { dim_axes } => all_gather(mesh, dim_axes, vals),
        Collective::ReduceScatter { dim_axes, reduce } => {
            let union: Vec<Axis> = c.axes();
            let reduced = all_reduce(mesh, &union, *reduce, vals)?;
            all_slice(mesh, dim_axes, reduced)
        }
        Collective::AllToAll {
            src_dim,
            dst_dim,
            axes,
        } => {
            let rank = vals[0].shape().rank();
            let mut gather_axes = vec![Vec::new(); rank];
            gather_axes[*src_dim] = axes.clone();
            let mut slice_axes = vec![Vec::new(); rank];
            slice_axes[*dst_dim] = axes.clone();
            let gathered = all_gather(mesh, &gather_axes, vals)?;
            all_slice(mesh, &slice_axes, gathered)
        }
    }
}

pub(crate) fn reduce_binary(reduce: ReduceOp) -> BinaryOp {
    match reduce {
        ReduceOp::Sum => BinaryOp::Add,
        ReduceOp::Max => BinaryOp::Max,
        ReduceOp::Min => BinaryOp::Min,
        ReduceOp::Prod => BinaryOp::Mul,
    }
}

/// Staged all-reduce: one axis at a time, in the given order, each stage
/// folding its single-axis groups linearly in coordinate order.
///
/// Staging matters for floating point: the threaded runtime
/// ([`crate::runtime`]) reduces hierarchically per axis, and staging the
/// lockstep reference the same way makes the two bit-identical.
fn all_reduce(
    mesh: &Mesh,
    axes: &[Axis],
    reduce: ReduceOp,
    mut vals: Vec<Literal>,
) -> Result<Vec<Literal>, IrError> {
    let bin = reduce_binary(reduce);
    for axis in axes {
        let groups = mesh
            .collective_groups(std::slice::from_ref(axis))
            .map_err(|e| IrError::invalid(e.to_string()))?;
        let mut out: Vec<Option<Literal>> = vec![None; vals.len()];
        for group in groups {
            let mut acc = vals[group[0]].clone();
            for &member in &group[1..] {
                let r = eval_op(&OpKind::Binary(bin), &[&acc, &vals[member]])?;
                acc = r.into_iter().next().expect("single result");
            }
            for &member in &group {
                out[member] = Some(acc.clone());
            }
        }
        vals = out
            .into_iter()
            .map(|v| v.expect("all devices covered"))
            .collect();
    }
    Ok(vals)
}

fn all_slice(
    mesh: &Mesh,
    dim_axes: &[Vec<Axis>],
    vals: Vec<Literal>,
) -> Result<Vec<Literal>, IrError> {
    let mut out = Vec::with_capacity(vals.len());
    for (device, mut lit) in vals.into_iter().enumerate() {
        for (d, axes) in dim_axes.iter().enumerate() {
            for axis in axes {
                let k = mesh
                    .axis_size(axis)
                    .map_err(|e| IrError::invalid(e.to_string()))?;
                let c = mesh
                    .coordinate_along(device, axis)
                    .map_err(|e| IrError::invalid(e.to_string()))?;
                lit = slice_chunk(&lit, d, c, k)?;
            }
        }
        out.push(lit);
    }
    Ok(out)
}

fn all_gather(
    mesh: &Mesh,
    dim_axes: &[Vec<Axis>],
    mut vals: Vec<Literal>,
) -> Result<Vec<Literal>, IrError> {
    // Undo slicing innermost-first: per dim, walk the axis list in
    // reverse, each step concatenating the peer chunks along the dim.
    for (d, axes) in dim_axes.iter().enumerate() {
        for axis in axes.iter().rev() {
            let mut next = vals.clone();
            for (device, slot) in next.iter_mut().enumerate() {
                let peers = mesh
                    .axis_group(device, axis)
                    .map_err(|e| IrError::invalid(e.to_string()))?;
                let chunks: Vec<&Literal> = peers.iter().map(|&p| &vals[p]).collect();
                let out = eval_op(&OpKind::Concatenate { dim: d }, &chunks)?;
                *slot = out.into_iter().next().expect("single result");
            }
            vals = next;
        }
    }
    Ok(vals)
}

/// Chunk `c` of the `k` equal chunks of `lit` along `dim`. Every stage of
/// every collective on a device thread takes one, so the chunk is handed
/// to the strided-gather kernel as the view it is (offset `c · chunk`
/// rows of `dim` into the operand, the operand's own strides) instead of
/// being spelled as a `slice` op for `eval_op` to infer and plan again.
pub(crate) fn slice_chunk(
    lit: &Literal,
    dim: usize,
    c: usize,
    k: usize,
) -> Result<Literal, IrError> {
    let shape = lit.shape();
    if !shape.dim(dim).is_multiple_of(k) {
        return Err(IrError::shape(
            "all_slice",
            format!("dim {dim} of size {} not divisible by {k}", shape.dim(dim)),
        ));
    }
    let chunk = shape.dim(dim) / k;
    let in_strides = shape.strides();
    let out_ty = TensorType::new(shape.with_dim(dim, chunk), lit.dtype());
    let kernel = SliceKernel::Strided {
        out_dims: out_ty.shape.dims().to_vec(),
        base: c * chunk * in_strides[dim],
        in_strides,
    };
    let mut out = Literal::zeros(&out_ty);
    kernel.run([lit.as_buf()], out.as_buf_mut())?;
    Ok(out)
}

/// Extracts device `device`'s shard of a global value under `ctx`.
///
/// # Errors
///
/// Fails if a tiled dimension is not divisible.
pub fn shard_value(
    lit: &Literal,
    ctx: &ValueCtx,
    mesh: &Mesh,
    device: usize,
) -> Result<Literal, IrError> {
    let mut out = lit.clone();
    for (axis, kind) in ctx.entries() {
        if let ShardKind::Tile { dim } = kind {
            let k = mesh
                .axis_size(axis)
                .map_err(|e| IrError::invalid(e.to_string()))?;
            let c = mesh
                .coordinate_along(device, axis)
                .map_err(|e| IrError::invalid(e.to_string()))?;
            out = slice_chunk(&out, *dim, c, k)?;
        }
    }
    Ok(out)
}

/// Reassembles a global value from all devices' shards under `ctx`.
///
/// Replicated values take device 0's copy.
///
/// # Errors
///
/// Fails if shards disagree with the expected layout.
pub fn unshard_value(shards: &[Literal], ctx: &ValueCtx, mesh: &Mesh) -> Result<Literal, IrError> {
    let tiled: Vec<(Axis, usize)> = ctx
        .entries()
        .iter()
        .filter_map(|(a, k)| match k {
            ShardKind::Tile { dim } => Some((a.clone(), *dim)),
            ShardKind::Atomic => None,
        })
        .collect();
    if tiled.is_empty() {
        return Ok(shards[0].clone());
    }
    // Invert shard_value by walking the tiling stack outermost-last:
    // repeatedly all_gather.
    let rank = shards[0].shape().rank();
    let mut dim_axes: Vec<Vec<Axis>> = vec![Vec::new(); rank];
    for (a, d) in &tiled {
        dim_axes[*d].push(a.clone());
    }
    let gathered = all_gather(mesh, &dim_axes, shards.to_vec())?;
    Ok(gathered.into_iter().next().expect("device 0 exists"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new([("x", 2), ("y", 2)]).unwrap()
    }

    fn lit4x4() -> Literal {
        Literal::from_f32((0..16).map(|v| v as f32).collect(), [4, 4]).unwrap()
    }

    #[test]
    fn shard_unshard_roundtrip() {
        let m = mesh();
        let mut ctx = ValueCtx::new();
        // Private push is crate-internal; emulate via Partitioning in the
        // integration tests — here exercise empty ctx (replication).
        let shards: Vec<Literal> = (0..4).map(|_| lit4x4()).collect();
        let full = unshard_value(&shards, &ctx, &m).unwrap();
        assert_eq!(full, lit4x4());
        ctx = ValueCtx::new();
        let s = shard_value(&lit4x4(), &ctx, &m, 3).unwrap();
        assert_eq!(s, lit4x4());
    }

    #[test]
    fn all_reduce_sums_groups() {
        let m = mesh();
        let vals: Vec<Literal> = (0..4)
            .map(|d| Literal::from_f32(vec![d as f32], [1]).unwrap())
            .collect();
        // Reduce over "y": groups {0,1} and {2,3}.
        let out = all_reduce(&m, &["y".into()], ReduceOp::Sum, vals).unwrap();
        assert_eq!(out[0].as_f32().unwrap(), &[1.0]);
        assert_eq!(out[1].as_f32().unwrap(), &[1.0]);
        assert_eq!(out[2].as_f32().unwrap(), &[5.0]);
        assert_eq!(out[3].as_f32().unwrap(), &[5.0]);
    }

    #[test]
    fn slice_then_gather_roundtrips() {
        let m = mesh();
        let dim_axes = vec![vec![Axis::new("x")], vec![Axis::new("y")]];
        let vals: Vec<Literal> = (0..4).map(|_| lit4x4()).collect();
        let sliced = all_slice(&m, &dim_axes, vals).unwrap();
        assert_eq!(sliced[0].shape().dims(), &[2, 2]);
        // Device 0 has coords (0,0): top-left block.
        assert_eq!(sliced[0].as_f32().unwrap(), &[0.0, 1.0, 4.0, 5.0]);
        // Device 3 has coords (1,1): bottom-right block.
        assert_eq!(sliced[3].as_f32().unwrap(), &[10.0, 11.0, 14.0, 15.0]);
        let gathered = all_gather(&m, &dim_axes, sliced).unwrap();
        for g in gathered {
            assert_eq!(g, lit4x4());
        }
    }

    #[test]
    fn deep_slice_one_dim_two_axes_roundtrips() {
        let m = mesh();
        let dim_axes = vec![vec![Axis::new("x"), Axis::new("y")], vec![]];
        let vals: Vec<Literal> = (0..4).map(|_| lit4x4()).collect();
        let sliced = all_slice(&m, &dim_axes, vals).unwrap();
        assert_eq!(sliced[0].shape().dims(), &[1, 4]);
        // Device order along (x outer, y inner): rows 0..4 in device order
        // 0,1,2,3.
        assert_eq!(sliced[2].as_f32().unwrap(), &[8.0, 9.0, 10.0, 11.0]);
        let gathered = all_gather(&m, &dim_axes, sliced).unwrap();
        for g in gathered {
            assert_eq!(g, lit4x4());
        }
    }

    #[test]
    fn all_to_all_moves_shard_dimension() {
        let m = Mesh::single("a", 2).unwrap();
        // Device-local [2,2] blocks; A2A gathers dim0 and slices dim1.
        let v0 = Literal::from_f32(vec![0., 1., 2., 3.], [2, 2]).unwrap();
        let v1 = Literal::from_f32(vec![4., 5., 6., 7.], [2, 2]).unwrap();
        let c = Collective::AllToAll {
            src_dim: 0,
            dst_dim: 1,
            axes: vec!["a".into()],
        };
        let out = apply_collective(&c, &m, vec![v0, v1]).unwrap();
        assert_eq!(out[0].shape().dims(), &[4, 1]);
        assert_eq!(out[0].as_f32().unwrap(), &[0., 2., 4., 6.]);
        assert_eq!(out[1].as_f32().unwrap(), &[1., 3., 5., 7.]);
    }
}
