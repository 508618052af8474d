//! The specification of every collective, and the layout of values
//! across a mesh.
//!
//! [`apply_collective`] states what each collective computes, with the
//! whole mesh in view at once: it takes every device's value and returns
//! every device's result, folding and concatenating in mesh-coordinate
//! order. It is the spec the message-passing algorithms of
//! [`crate::collectives`] are checked against, bit for bit
//! (`tests/runtime_prop.rs`); programs themselves run only on the
//! threaded runtime ([`crate::runtime`]).
//!
//! [`shard_value`] and [`unshard_value`] move global values to and from
//! their per-device shards under a sharding context; [`slice_chunk`] is
//! the chunk extraction both they and the specification use. (The
//! collectives themselves cut chunks with views planned when their plan
//! is compiled, [`crate::collectives`].)

use partir_core::{ShardKind, ValueCtx};
use partir_ir::kernels::SliceKernel;
use partir_ir::{
    interp::eval_op, BinaryOp, Collective, IrError, Literal, OpKind, ReduceOp, TensorType,
};
use partir_mesh::{Axis, Mesh};

/// Applies one collective across the whole mesh: `vals[d]` is device
/// `d`'s operand, and the result's entry `d` is device `d`'s result.
///
/// # Errors
///
/// Fails if the collective names an axis missing from the mesh or
/// slices a dimension its axes do not divide.
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

fn reduce_binary(reduce: ReduceOp) -> BinaryOp {
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
/// spec the same way makes the two bit-identical.
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

/// Chunk `c` of the `k` equal chunks of `lit` along `dim`, handed to the
/// strided-gather kernel as the view it is (offset `c · chunk` rows of
/// `dim` into the operand, the operand's own strides).
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
pub(crate) fn shard_value(
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
pub(crate) fn unshard_value(
    shards: &[Literal],
    ctx: &ValueCtx,
    mesh: &Mesh,
) -> Result<Literal, IrError> {
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
