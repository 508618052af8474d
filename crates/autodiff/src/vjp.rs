//! Per-op vector-Jacobian products.
//!
//! Each rule receives the forward op, its operands, its (single) result
//! and the result's cotangent, and emits IR computing the cotangent
//! contribution for every operand (`None` for non-differentiable operands
//! such as predicates and integer indices).

use partir_ir::{
    BinaryOp, CompareDir, DotDims, FuncBuilder, IrError, Literal, OpKind, UnaryOp, ValueId,
};

/// Emits the VJP of one op; returns one optional cotangent per operand.
///
/// # Errors
///
/// Fails for ops without rules (`for`, collectives, the dynamic slices,
/// the convolution gradients) and for a few
/// attribute combinations the model zoo never produces (documented on
/// each arm).
pub fn vjp(
    b: &mut FuncBuilder,
    kind: &OpKind,
    operands: &[ValueId],
    result: ValueId,
    cot: ValueId,
) -> Result<Vec<Option<ValueId>>, IrError> {
    match kind {
        OpKind::Constant(_) | OpKind::Iota { .. } => Ok(vec![]),
        OpKind::Unary(u) => {
            let x = operands[0];
            let g = match u {
                UnaryOp::Neg => b.neg(cot)?,
                UnaryOp::Exp => b.mul(cot, result)?,
                UnaryOp::Log => b.div(cot, x)?,
                UnaryOp::Tanh => {
                    // 1 - tanh(x)^2
                    let sq = b.mul(result, result)?;
                    let one = ones_like(b, result)?;
                    let oneminus = b.sub(one, sq)?;
                    b.mul(cot, oneminus)?
                }
                UnaryOp::Sqrt => {
                    // g / (2 sqrt x)
                    let half = b.binary_scalar(BinaryOp::Mul, cot, 0.5)?;
                    b.div(half, result)?
                }
                UnaryOp::Rsqrt => {
                    // d/dx x^{-1/2} = -1/2 x^{-3/2} = -1/2 rsqrt(x)^3
                    let cube0 = b.mul(result, result)?;
                    let cube = b.mul(cube0, result)?;
                    let scaled = b.binary_scalar(BinaryOp::Mul, cube, -0.5)?;
                    b.mul(cot, scaled)?
                }
                UnaryOp::Abs => {
                    let zero = zeros_like(b, x)?;
                    let pos = b.compare(CompareDir::Ge, x, zero)?;
                    let neg = b.neg(cot)?;
                    b.select(pos, cot, neg)?
                }
                UnaryOp::Logistic => {
                    // s (1 - s)
                    let one = ones_like(b, result)?;
                    let oneminus = b.sub(one, result)?;
                    let d = b.mul(result, oneminus)?;
                    b.mul(cot, d)?
                }
                UnaryOp::Sin => {
                    let c = b.unary(UnaryOp::Cos, x)?;
                    b.mul(cot, c)?
                }
                UnaryOp::Cos => {
                    let s = b.unary(UnaryOp::Sin, x)?;
                    let ns = b.neg(s)?;
                    b.mul(cot, ns)?
                }
            };
            Ok(vec![Some(g)])
        }
        OpKind::Binary(op) => {
            let (x, y) = (operands[0], operands[1]);
            match op {
                BinaryOp::Add => Ok(vec![Some(cot), Some(cot)]),
                BinaryOp::Sub => {
                    let gy = b.neg(cot)?;
                    Ok(vec![Some(cot), Some(gy)])
                }
                BinaryOp::Mul => {
                    let gx = b.mul(cot, y)?;
                    let gy = b.mul(cot, x)?;
                    Ok(vec![Some(gx), Some(gy)])
                }
                BinaryOp::Div => {
                    let gx = b.div(cot, y)?;
                    // gy = -g x / y^2 = -(g/y) * (x/y) = -gx * result
                    let t = b.mul(gx, result)?;
                    let gy = b.neg(t)?;
                    Ok(vec![Some(gx), Some(gy)])
                }
                BinaryOp::Max | BinaryOp::Min => {
                    let dir = if matches!(op, BinaryOp::Max) {
                        CompareDir::Ge
                    } else {
                        CompareDir::Le
                    };
                    let zero = zeros_like(b, cot)?;
                    let takes_x = b.compare(dir, x, y)?;
                    let gx = b.select(takes_x, cot, zero)?;
                    let gy = b.select(takes_x, zero, cot)?;
                    Ok(vec![Some(gx), Some(gy)])
                }
                BinaryOp::Pow => {
                    // gx = g * y * x^(y-1);  gy = g * x^y * ln x
                    let one = ones_like(b, y)?;
                    let ym1 = b.sub(y, one)?;
                    let xym1 = b.binary(BinaryOp::Pow, x, ym1)?;
                    let t = b.mul(y, xym1)?;
                    let gx = b.mul(cot, t)?;
                    let lnx = b.log(x)?;
                    let t2 = b.mul(result, lnx)?;
                    let gy = b.mul(cot, t2)?;
                    Ok(vec![Some(gx), Some(gy)])
                }
            }
        }
        OpKind::Compare(_) => Ok(vec![None, None]),
        OpKind::Select => {
            let pred = operands[0];
            let zero = zeros_like(b, cot)?;
            let gt = b.select(pred, cot, zero)?;
            let gf = b.select(pred, zero, cot)?;
            Ok(vec![None, Some(gt), Some(gf)])
        }
        OpKind::Convert(_) => {
            let src_ty = b.ty(operands[0]).clone();
            if src_ty.dtype.is_float() && b.ty(cot).dtype.is_float() {
                let g = b.convert(cot, src_ty.dtype)?;
                Ok(vec![Some(g)])
            } else {
                Ok(vec![None])
            }
        }
        OpKind::Dot(dims) => vjp_dot(b, dims, operands, cot),
        OpKind::Transpose { perm } => {
            let mut inverse = vec![0usize; perm.len()];
            for (i, &p) in perm.iter().enumerate() {
                inverse[p] = i;
            }
            let g = b.transpose(cot, inverse)?;
            Ok(vec![Some(g)])
        }
        OpKind::Reshape { .. } => {
            let src_shape = b.ty(operands[0]).shape.clone();
            let g = b.reshape(cot, src_shape)?;
            Ok(vec![Some(g)])
        }
        OpKind::BroadcastInDim {
            shape,
            broadcast_dims,
        } => {
            let src_shape = b.ty(operands[0]).shape.clone();
            // Sum over result dims not mapped from the operand, plus dims
            // where the operand had size 1 but was expanded.
            let mut reduce_dims: Vec<usize> = (0..shape.rank())
                .filter(|d| !broadcast_dims.contains(d))
                .collect();
            for (i, &bd) in broadcast_dims.iter().enumerate() {
                if src_shape.dim(i) == 1 && shape.dim(bd) != 1 {
                    reduce_dims.push(bd);
                }
            }
            reduce_dims.sort_unstable();
            let summed = if reduce_dims.is_empty() {
                cot
            } else {
                b.reduce_sum(cot, reduce_dims)?
            };
            let g = b.reshape(summed, src_shape)?;
            Ok(vec![Some(g)])
        }
        OpKind::Reduce { op, dims } => {
            let src_shape = b.ty(operands[0]).shape.clone();
            let kept: Vec<usize> = (0..src_shape.rank())
                .filter(|d| !dims.contains(d))
                .collect();
            match op {
                partir_ir::ReduceOp::Sum => {
                    let g = b.broadcast_in_dim(cot, src_shape, kept)?;
                    Ok(vec![Some(g)])
                }
                partir_ir::ReduceOp::Max | partir_ir::ReduceOp::Min => {
                    // Gradient flows to elements equal to the extremum
                    // (ties receive the full cotangent, as in XLA).
                    let x = operands[0];
                    let bres = b.broadcast_in_dim(result, src_shape.clone(), kept.clone())?;
                    let bcot = b.broadcast_in_dim(cot, src_shape.clone(), kept)?;
                    let mask = b.compare(CompareDir::Eq, x, bres)?;
                    let zero = zeros_like(b, x)?;
                    let g = b.select(mask, bcot, zero)?;
                    Ok(vec![Some(g)])
                }
                partir_ir::ReduceOp::Prod => {
                    Err(IrError::unsupported("gradient of product reductions"))
                }
            }
        }
        OpKind::Slice {
            starts,
            limits,
            strides,
        } => {
            if strides.iter().any(|&s| s != 1) {
                return Err(IrError::unsupported("gradient of strided slices"));
            }
            let src_shape = b.ty(operands[0]).shape.clone();
            let low: Vec<i64> = starts.iter().map(|&s| s as i64).collect();
            let high: Vec<i64> = (0..src_shape.rank())
                .map(|d| src_shape.dim(d) as i64 - limits[d] as i64)
                .collect();
            let zero = b.const_f32(0.0)?;
            let g = b.pad(cot, zero, low, high)?;
            Ok(vec![Some(g)])
        }
        OpKind::Pad { low, high } => {
            if low.iter().chain(high).any(|&p| p < 0) {
                return Err(IrError::unsupported("gradient of negative padding"));
            }
            let src_shape = b.ty(operands[0]).shape.clone();
            let starts: Vec<usize> = low.iter().map(|&l| l as usize).collect();
            let limits: Vec<usize> = (0..src_shape.rank())
                .map(|d| starts[d] + src_shape.dim(d))
                .collect();
            let g = b.slice(cot, starts, limits)?;
            // The pad value receives the sum of the padding positions'
            // cotangents; models never differentiate w.r.t. it, so zero.
            let gz = b.const_f32(0.0)?;
            Ok(vec![Some(g), Some(gz)])
        }
        OpKind::Concatenate { dim } => {
            let mut out = Vec::with_capacity(operands.len());
            let rank = b.ty(operands[0]).rank();
            let mut offset = 0usize;
            for &operand in operands {
                let shape = b.ty(operand).shape.clone();
                let mut starts = vec![0; rank];
                let mut limits: Vec<usize> = b.ty(cot).shape.dims().to_vec();
                starts[*dim] = offset;
                limits[*dim] = offset + shape.dim(*dim);
                offset += shape.dim(*dim);
                out.push(Some(b.slice(cot, starts, limits)?));
            }
            Ok(out)
        }
        OpKind::Gather { axis } => {
            let src_size = b.ty(operands[0]).shape.dim(*axis);
            let g = b.scatter_add(cot, operands[1], *axis, src_size)?;
            Ok(vec![Some(g), None])
        }
        OpKind::ScatterAdd { axis, .. } => {
            let g = b.gather(cot, operands[1], *axis)?;
            Ok(vec![Some(g), None])
        }
        OpKind::Convolution(dims) => {
            let (input, kernel) = (operands[0], operands[1]);
            let in_shape = b.ty(input).shape.clone();
            let k_shape = b.ty(kernel).shape.clone();
            let ginput = b.emit(
                OpKind::ConvInputGrad {
                    dims: *dims,
                    input_hw: (in_shape.dim(2), in_shape.dim(3)),
                },
                &[cot, kernel],
            )?[0];
            let gkernel = b.emit(
                OpKind::ConvFilterGrad {
                    dims: *dims,
                    kernel_hw: (k_shape.dim(2), k_shape.dim(3)),
                },
                &[input, cot],
            )?[0];
            Ok(vec![Some(ginput), Some(gkernel)])
        }
        OpKind::ArgMax { .. } => Ok(vec![None]),
        OpKind::For { .. }
        | OpKind::Collective(_)
        | OpKind::DynamicSlice { .. }
        | OpKind::DynamicUpdateSlice
        | OpKind::ConvInputGrad { .. }
        | OpKind::ConvFilterGrad { .. } => Err(IrError::unsupported(format!(
            "no differentiation rule for {}",
            kind.name()
        ))),
    }
}

fn vjp_dot(
    b: &mut FuncBuilder,
    dims: &DotDims,
    operands: &[ValueId],
    cot: ValueId,
) -> Result<Vec<Option<ValueId>>, IrError> {
    let (lhs, rhs) = (operands[0], operands[1]);
    let lhs_rank = b.ty(lhs).rank();
    let rhs_rank = b.ty(rhs).rank();
    let lhs_free = dims.free_dims(lhs_rank, true);
    let rhs_free = dims.free_dims(rhs_rank, false);
    let nb = dims.lhs_batch.len();
    let (nlf, nrf) = (lhs_free.len(), rhs_free.len());

    // d lhs = dot(cot, rhs) contracting cot's rhs_free block with rhs's
    // free dims, batched over the shared batch block; then transpose into
    // lhs layout.
    let dlhs_raw = b.dot(
        cot,
        rhs,
        DotDims {
            lhs_batch: (0..nb).collect(),
            rhs_batch: dims.rhs_batch.clone(),
            lhs_contract: (nb + nlf..nb + nlf + nrf).collect(),
            rhs_contract: rhs_free.clone(),
        },
    )?;
    // dlhs_raw layout: [batch…, lhs_free…, rhs_contract…]
    let mut perm = vec![0usize; lhs_rank];
    for (i, &d) in dims.lhs_batch.iter().enumerate() {
        perm[d] = i;
    }
    for (j, &d) in lhs_free.iter().enumerate() {
        perm[d] = nb + j;
    }
    for (k, &d) in dims.lhs_contract.iter().enumerate() {
        perm[d] = nb + nlf + k;
    }
    let dlhs = b.transpose(dlhs_raw, perm)?;

    // d rhs = dot(cot, lhs) contracting cot's lhs_free block with lhs's
    // free dims. Raw layout: [batch…, rhs_free…, lhs_contract…].
    let drhs_raw = b.dot(
        cot,
        lhs,
        DotDims {
            lhs_batch: (0..nb).collect(),
            rhs_batch: dims.lhs_batch.clone(),
            lhs_contract: (nb..nb + nlf).collect(),
            rhs_contract: lhs_free.clone(),
        },
    )?;
    let mut perm = vec![0usize; rhs_rank];
    for (i, &d) in dims.rhs_batch.iter().enumerate() {
        perm[d] = i;
    }
    for (j, &d) in rhs_free.iter().enumerate() {
        perm[d] = nb + j;
    }
    for (k, &d) in dims.rhs_contract.iter().enumerate() {
        perm[d] = nb + nrf + k;
    }
    let drhs = b.transpose(drhs_raw, perm)?;
    Ok(vec![Some(dlhs), Some(drhs)])
}

fn zeros_like(b: &mut FuncBuilder, v: ValueId) -> Result<ValueId, IrError> {
    let shape = b.ty(v).shape.clone();
    let c = b.constant(Literal::scalar_f32(0.0))?;
    b.broadcast_in_dim(c, shape, vec![])
}

fn ones_like(b: &mut FuncBuilder, v: ValueId) -> Result<ValueId, IrError> {
    let shape = b.ty(v).shape.clone();
    let c = b.constant(Literal::scalar_f32(1.0))?;
    b.broadcast_in_dim(c, shape, vec![])
}
