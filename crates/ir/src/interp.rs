//! Reference interpreter: sequential semantics for the IR.
//!
//! This is the analogue of the paper's PartIR:Temporal reference semantics
//! — it executes unpartitioned programs on a single "device" and is the
//! oracle that the SPMD lowering (in `partir-spmd`) is tested against.
//! Collectives are *illegal* here and produce [`IrError::Unsupported`].

use crate::kernels::{Buf, SliceKernel};
use crate::{
    BinaryOp, ConvDims, DType, DotDims, Func, IrError, Literal, OpData, OpId, OpKind, ReduceOp,
    Shape, TensorType, UnaryOp, ValueId,
};

/// Runs `func` on the given inputs, returning its results.
///
/// # Errors
///
/// Fails if the input count/types mismatch the parameters, or if the
/// function contains collectives or malformed ops.
pub fn interpret(func: &Func, inputs: &[Literal]) -> Result<Vec<Literal>, IrError> {
    if inputs.len() != func.params().len() {
        return Err(IrError::invalid(format!(
            "expected {} inputs, got {}",
            func.params().len(),
            inputs.len()
        )));
    }
    let mut env: Vec<Option<Literal>> = vec![None; func.num_values()];
    for (&p, lit) in func.params().iter().zip(inputs) {
        if &lit.ty() != func.value_type(p) {
            return Err(IrError::invalid(format!(
                "input for {:?} has type {}, expected {}",
                func.value(p).name,
                lit.ty(),
                func.value_type(p)
            )));
        }
        env[p.0 as usize] = Some(lit.clone());
    }
    exec_ops(func, func.body(), &mut env)?;
    func.results()
        .iter()
        .map(|&r| {
            env[r.0 as usize]
                .clone()
                .ok_or_else(|| IrError::invalid("result value was never computed"))
        })
        .collect()
}

fn exec_ops(func: &Func, body: &[OpId], env: &mut Vec<Option<Literal>>) -> Result<(), IrError> {
    for &op in body {
        exec_op(func, func.op(op), env)?;
    }
    Ok(())
}

fn take(env: &[Option<Literal>], v: ValueId) -> Result<&Literal, IrError> {
    env[v.0 as usize]
        .as_ref()
        .ok_or_else(|| IrError::invalid(format!("use of undefined value {v:?}")))
}

fn exec_op(func: &Func, op: &OpData, env: &mut Vec<Option<Literal>>) -> Result<(), IrError> {
    if let OpKind::For { trip_count } = &op.kind {
        let region = op
            .region
            .as_ref()
            .ok_or_else(|| IrError::invalid("for op without region"))?;
        let mut carried: Vec<Literal> = op
            .operands
            .iter()
            .map(|&v| take(env, v).cloned())
            .collect::<Result<_, _>>()?;
        for i in 0..*trip_count {
            env[region.params[0].0 as usize] = Some(Literal::scalar_i32(i as i32));
            for (p, val) in region.params[1..].iter().zip(&carried) {
                env[p.0 as usize] = Some(val.clone());
            }
            exec_ops(func, &region.body, env)?;
            carried = region
                .results
                .iter()
                .map(|&v| take(env, v).cloned())
                .collect::<Result<_, _>>()?;
        }
        for (&r, val) in op.results.iter().zip(carried) {
            env[r.0 as usize] = Some(val);
        }
        return Ok(());
    }
    let operands: Vec<&Literal> = op
        .operands
        .iter()
        .map(|&v| take(env, v))
        .collect::<Result<_, _>>()?;
    let results = eval_op(&op.kind, &operands, func.value_type(op.results[0]))?;
    for (&r, val) in op.results.iter().zip(results) {
        env[r.0 as usize] = Some(val);
    }
    Ok(())
}

/// Evaluates a single (region-free, collective-free) op.
///
/// `result_ty` is the declared type of the first result (needed by ops
/// whose output shape is an attribute of the op-site, e.g. after SPMD
/// rewrites changed operand shapes this catches inconsistencies early).
///
/// # Errors
///
/// Fails on collectives, `for` (handled by the caller) and malformed data.
pub fn eval_op(
    kind: &OpKind,
    operands: &[&Literal],
    result_ty: &TensorType,
) -> Result<Vec<Literal>, IrError> {
    match kind {
        OpKind::Constant(lit) => Ok(vec![lit.clone()]),
        OpKind::Iota { .. }
        | OpKind::Compare(_)
        | OpKind::Select
        | OpKind::Convert(_)
        | OpKind::Pad { .. }
        | OpKind::Gather { .. }
        | OpKind::ScatterAdd { .. }
        | OpKind::ArgMax { .. } => Ok(vec![eval_slice_kernel(kind, operands)?]),
        OpKind::Unary(u) => Ok(vec![eval_unary(*u, operands[0])?]),
        OpKind::Binary(b) => Ok(vec![eval_binary(*b, operands[0], operands[1])?]),
        OpKind::Dot(dims) => Ok(vec![eval_dot(dims, operands[0], operands[1])?]),
        OpKind::Transpose { perm } => Ok(vec![eval_transpose(operands[0], perm)?]),
        OpKind::Reshape { shape } => Ok(vec![operands[0].clone().reshaped(shape.clone())?]),
        OpKind::BroadcastInDim {
            shape,
            broadcast_dims,
        } => Ok(vec![eval_broadcast(operands[0], shape, broadcast_dims)?]),
        OpKind::Reduce { op, dims } => Ok(vec![eval_reduce(*op, operands[0], dims)?]),
        OpKind::Slice {
            starts,
            limits,
            strides,
        } => Ok(vec![eval_slice(operands[0], starts, limits, strides)?]),
        OpKind::Concatenate { dim } => Ok(vec![eval_concat(operands, *dim)?]),
        OpKind::DynamicSlice { sizes } => Ok(vec![eval_dynamic_slice(operands, sizes)?]),
        OpKind::DynamicUpdateSlice => Ok(vec![eval_dynamic_update_slice(operands)?]),
        OpKind::Convolution(dims) => Ok(vec![eval_conv(dims, operands[0], operands[1])?]),
        OpKind::ConvInputGrad { dims, input_hw } => Ok(vec![eval_conv_input_grad(
            dims,
            *input_hw,
            operands[0],
            operands[1],
        )?]),
        OpKind::ConvFilterGrad { dims, kernel_hw } => Ok(vec![eval_conv_filter_grad(
            dims,
            *kernel_hw,
            operands[0],
            operands[1],
        )?]),
        OpKind::For { .. } => Err(IrError::invalid("for must be handled by the interpreter")),
        OpKind::Collective(c) => Err(IrError::unsupported(format!(
            "collective {} in the reference interpreter (result type {result_ty})",
            OpKind::Collective(c.clone()).name()
        ))),
    }
}

/// The predicate and data-movement ops: plan the op's [`SliceKernel`]
/// against the operand types, allocate the result, run the kernel on it.
/// Compiled plans run the same kernels on arena ranges.
fn eval_slice_kernel(kind: &OpKind, operands: &[&Literal]) -> Result<Literal, IrError> {
    let tys: Vec<TensorType> = operands.iter().map(|lit| lit.ty()).collect();
    let (kernel, out_ty) = SliceKernel::plan(kind, &tys)?;
    let srcs: Vec<Buf<'_>> = operands.iter().map(|lit| lit.as_buf()).collect();
    let mut out = Literal::zeros(&out_ty);
    kernel.run(&srcs, out.as_buf_mut())?;
    Ok(out)
}

fn eval_unary(u: UnaryOp, x: &Literal) -> Result<Literal, IrError> {
    let f = |v: f32| -> f32 {
        match u {
            UnaryOp::Neg => -v,
            UnaryOp::Exp => v.exp(),
            UnaryOp::Log => v.ln(),
            UnaryOp::Tanh => v.tanh(),
            UnaryOp::Sqrt => v.sqrt(),
            UnaryOp::Rsqrt => 1.0 / v.sqrt(),
            UnaryOp::Abs => v.abs(),
            UnaryOp::Logistic => 1.0 / (1.0 + (-v).exp()),
            UnaryOp::Sin => v.sin(),
            UnaryOp::Cos => v.cos(),
        }
    };
    let data: Vec<f32> = x.as_f32()?.iter().copied().map(f).collect();
    Literal::from_f32(data, x.shape().clone())
}

fn eval_binary(b: BinaryOp, x: &Literal, y: &Literal) -> Result<Literal, IrError> {
    match x.dtype() {
        DType::F32 => {
            let f = |a: f32, c: f32| -> f32 {
                match b {
                    BinaryOp::Add => a + c,
                    BinaryOp::Sub => a - c,
                    BinaryOp::Mul => a * c,
                    BinaryOp::Div => a / c,
                    BinaryOp::Max => a.max(c),
                    BinaryOp::Min => a.min(c),
                    BinaryOp::Pow => a.powf(c),
                }
            };
            let data: Vec<f32> = x
                .as_f32()?
                .iter()
                .zip(y.as_f32()?)
                .map(|(&a, &c)| f(a, c))
                .collect();
            Literal::from_f32(data, x.shape().clone())
        }
        DType::I32 => {
            let f = |a: i32, c: i32| -> Result<i32, IrError> {
                Ok(match b {
                    BinaryOp::Add => a.wrapping_add(c),
                    BinaryOp::Sub => a.wrapping_sub(c),
                    BinaryOp::Mul => a.wrapping_mul(c),
                    BinaryOp::Div => {
                        if c == 0 {
                            return Err(IrError::invalid("integer division by zero"));
                        }
                        a / c
                    }
                    BinaryOp::Max => a.max(c),
                    BinaryOp::Min => a.min(c),
                    BinaryOp::Pow => {
                        return Err(IrError::unsupported("integer pow"));
                    }
                })
            };
            let data: Vec<i32> = x
                .as_i32()?
                .iter()
                .zip(y.as_i32()?)
                .map(|(&a, &c)| f(a, c))
                .collect::<Result<_, _>>()?;
            Literal::from_i32(data, x.shape().clone())
        }
        DType::Pred => Err(IrError::unsupported("binary op on pred")),
    }
}

fn eval_dot(dims: &DotDims, lhs: &Literal, rhs: &Literal) -> Result<Literal, IrError> {
    // Blocked batched-matmul fast path; bit-identical to the index-walk
    // oracle retained as `reference::dot_general_reference`.
    crate::kernels::dot_general(dims, lhs, rhs)
}

fn eval_transpose(x: &Literal, perm: &[usize]) -> Result<Literal, IrError> {
    crate::kernels::transpose(x, perm)
}

fn eval_broadcast(
    x: &Literal,
    shape: &Shape,
    broadcast_dims: &[usize],
) -> Result<Literal, IrError> {
    crate::kernels::broadcast(x, shape, broadcast_dims)
}

fn eval_reduce(op: ReduceOp, x: &Literal, dims: &[usize]) -> Result<Literal, IrError> {
    crate::kernels::reduce_f32(op, x, dims)
}

fn eval_slice(
    x: &Literal,
    starts: &[usize],
    limits: &[usize],
    strides: &[usize],
) -> Result<Literal, IrError> {
    crate::kernels::slice(x, starts, limits, strides)
}

fn eval_concat(operands: &[&Literal], dim: usize) -> Result<Literal, IrError> {
    crate::kernels::concat(operands, dim)
}

fn clamp_starts(
    indices: &[&Literal],
    operand: &Shape,
    sizes: &[usize],
) -> Result<Vec<usize>, IrError> {
    indices
        .iter()
        .enumerate()
        .map(|(d, lit)| {
            let raw = lit.as_i32()?[0].max(0) as usize;
            Ok(raw.min(operand.dim(d) - sizes[d]))
        })
        .collect()
}

fn eval_dynamic_slice(operands: &[&Literal], sizes: &[usize]) -> Result<Literal, IrError> {
    let x = operands[0];
    let starts = clamp_starts(&operands[1..], x.shape(), sizes)?;
    let limits: Vec<usize> = starts.iter().zip(sizes).map(|(&s, &z)| s + z).collect();
    let strides = vec![1; sizes.len()];
    eval_slice(x, &starts, &limits, &strides)
}

fn eval_dynamic_update_slice(operands: &[&Literal]) -> Result<Literal, IrError> {
    let (x, update) = (operands[0], operands[1]);
    let sizes: Vec<usize> = update.shape().dims().to_vec();
    let starts = clamp_starts(&operands[2..], x.shape(), &sizes)?;
    // `clone()` is a refcount bump; the kernel copies on write only when
    // the buffer is shared (and then copies whole rows, not elements).
    crate::kernels::update_slice_in_place(x.clone(), update, &starts)
}

fn eval_conv(dims: &ConvDims, input: &Literal, kernel: &Literal) -> Result<Literal, IrError> {
    let (isz, ksz) = (
        input.shape().dims().to_vec(),
        kernel.shape().dims().to_vec(),
    );
    let (n, ci, h, w) = (isz[0], isz[1], isz[2], isz[3]);
    let (co, _, kh, kw) = (ksz[0], ksz[1], ksz[2], ksz[3]);
    let (sh, sw) = dims.strides;
    let (ph, pw) = dims.padding;
    let (ho, wo) = crate::infer::conv_out_hw((h, w), (kh, kw), dims.strides, dims.padding)?;
    let a = input.as_f32()?;
    let k = kernel.as_f32()?;
    let out_shape = Shape::from([n, co, ho, wo]);
    let mut data = vec![0f32; out_shape.num_elements()];
    let in_shape = input.shape();
    let k_shape = kernel.shape();
    for bi in 0..n {
        for oc in 0..co {
            for oh in 0..ho {
                for ow in 0..wo {
                    let mut acc = 0f32;
                    for icn in 0..ci {
                        for khi in 0..kh {
                            for kwi in 0..kw {
                                let ih = (oh * sh + khi) as i64 - ph as i64;
                                let iw = (ow * sw + kwi) as i64 - pw as i64;
                                if ih < 0 || iw < 0 || ih >= h as i64 || iw >= w as i64 {
                                    continue;
                                }
                                let av =
                                    a[in_shape.linear_index(&[bi, icn, ih as usize, iw as usize])];
                                let kv = k[k_shape.linear_index(&[oc, icn, khi, kwi])];
                                acc += av * kv;
                            }
                        }
                    }
                    data[out_shape.linear_index(&[bi, oc, oh, ow])] = acc;
                }
            }
        }
    }
    Literal::from_f32(data, out_shape)
}

fn eval_conv_input_grad(
    dims: &ConvDims,
    input_hw: (usize, usize),
    out_grad: &Literal,
    kernel: &Literal,
) -> Result<Literal, IrError> {
    let gsz = out_grad.shape().dims().to_vec();
    let ksz = kernel.shape().dims().to_vec();
    let (n, co, ho, wo) = (gsz[0], gsz[1], gsz[2], gsz[3]);
    let (_, ci, kh, kw) = (ksz[0], ksz[1], ksz[2], ksz[3]);
    let (sh, sw) = dims.strides;
    let (ph, pw) = dims.padding;
    let (h, w) = input_hw;
    let g = out_grad.as_f32()?;
    let k = kernel.as_f32()?;
    let out_shape = Shape::from([n, ci, h, w]);
    let g_shape = out_grad.shape();
    let k_shape = kernel.shape();
    let mut data = vec![0f32; out_shape.num_elements()];
    for bi in 0..n {
        for oc in 0..co {
            for oh in 0..ho {
                for ow in 0..wo {
                    let gv = g[g_shape.linear_index(&[bi, oc, oh, ow])];
                    if gv == 0.0 {
                        continue;
                    }
                    for icn in 0..ci {
                        for khi in 0..kh {
                            for kwi in 0..kw {
                                let ih = (oh * sh + khi) as i64 - ph as i64;
                                let iw = (ow * sw + kwi) as i64 - pw as i64;
                                if ih < 0 || iw < 0 || ih >= h as i64 || iw >= w as i64 {
                                    continue;
                                }
                                let kv = k[k_shape.linear_index(&[oc, icn, khi, kwi])];
                                data[out_shape.linear_index(&[
                                    bi,
                                    icn,
                                    ih as usize,
                                    iw as usize,
                                ])] += gv * kv;
                            }
                        }
                    }
                }
            }
        }
    }
    Literal::from_f32(data, out_shape)
}

fn eval_conv_filter_grad(
    dims: &ConvDims,
    kernel_hw: (usize, usize),
    input: &Literal,
    out_grad: &Literal,
) -> Result<Literal, IrError> {
    let isz = input.shape().dims().to_vec();
    let gsz = out_grad.shape().dims().to_vec();
    let (n, ci, h, w) = (isz[0], isz[1], isz[2], isz[3]);
    let (_, co, ho, wo) = (gsz[0], gsz[1], gsz[2], gsz[3]);
    let (kh, kw) = kernel_hw;
    let (sh, sw) = dims.strides;
    let (ph, pw) = dims.padding;
    let a = input.as_f32()?;
    let g = out_grad.as_f32()?;
    let out_shape = Shape::from([co, ci, kh, kw]);
    let in_shape = input.shape();
    let g_shape = out_grad.shape();
    let mut data = vec![0f32; out_shape.num_elements()];
    for bi in 0..n {
        for oc in 0..co {
            for oh in 0..ho {
                for ow in 0..wo {
                    let gv = g[g_shape.linear_index(&[bi, oc, oh, ow])];
                    if gv == 0.0 {
                        continue;
                    }
                    for icn in 0..ci {
                        for khi in 0..kh {
                            for kwi in 0..kw {
                                let ih = (oh * sh + khi) as i64 - ph as i64;
                                let iw = (ow * sw + kwi) as i64 - pw as i64;
                                if ih < 0 || iw < 0 || ih >= h as i64 || iw >= w as i64 {
                                    continue;
                                }
                                let av =
                                    a[in_shape.linear_index(&[bi, icn, ih as usize, iw as usize])];
                                data[out_shape.linear_index(&[oc, icn, khi, kwi])] += gv * av;
                            }
                        }
                    }
                }
            }
        }
    }
    Literal::from_f32(data, out_shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FuncBuilder, TensorType};

    fn lit(data: Vec<f32>, dims: &[usize]) -> Literal {
        Literal::from_f32(data, dims.to_vec()).unwrap()
    }

    #[test]
    fn matmul_chain_matches_hand_computation() {
        let mut b = FuncBuilder::new("main");
        let x = b.param("x", TensorType::f32([2, 2]));
        let w = b.param("w", TensorType::f32([2, 2]));
        let y = b.matmul(x, w).unwrap();
        let f = b.build([y]).unwrap();
        let out = interpret(
            &f,
            &[
                lit(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]),
                lit(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]),
            ],
        )
        .unwrap();
        assert_eq!(out[0].as_f32().unwrap(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn batched_dot() {
        let mut b = FuncBuilder::new("bd");
        let x = b.param("x", TensorType::f32([2, 1, 3]));
        let y = b.param("y", TensorType::f32([2, 3, 1]));
        let d = b
            .dot(
                x,
                y,
                DotDims {
                    lhs_batch: vec![0],
                    rhs_batch: vec![0],
                    lhs_contract: vec![2],
                    rhs_contract: vec![1],
                },
            )
            .unwrap();
        let f = b.build([d]).unwrap();
        let out = interpret(
            &f,
            &[
                lit((1..=6).map(|v| v as f32).collect(), &[2, 1, 3]),
                lit(vec![1.0; 6], &[2, 3, 1]),
            ],
        )
        .unwrap();
        assert_eq!(out[0].as_f32().unwrap(), &[6.0, 15.0]);
    }

    #[test]
    fn reduce_broadcast_transpose() {
        let mut b = FuncBuilder::new("rbt");
        let x = b.param("x", TensorType::f32([2, 3]));
        let s = b.reduce_sum(x, vec![1]).unwrap();
        let t = b.transpose(x, vec![1, 0]).unwrap();
        let bc = b.broadcast_in_dim(s, [3, 2], vec![1]).unwrap();
        let sum = b.add(t, bc).unwrap();
        let f = b.build([sum]).unwrap();
        let out = interpret(&f, &[lit(vec![1., 2., 3., 4., 5., 6.], &[2, 3])]).unwrap();
        // t = [[1,4],[2,5],[3,6]], row sums [6,15] broadcast to cols.
        assert_eq!(out[0].as_f32().unwrap(), &[7., 19., 8., 20., 9., 21.]);
    }

    #[test]
    fn transpose_i32() {
        let mut b = FuncBuilder::new("ti");
        let x = b.param("x", TensorType::i32([2, 3]));
        let t = b.transpose(x, vec![1, 0]).unwrap();
        let f = b.build([t]).unwrap();
        let input = Literal::from_i32(vec![1, 2, 3, 4, 5, 6], [2, 3]).unwrap();
        let out = interpret(&f, &[input]).unwrap();
        assert_eq!(out[0].shape().dims(), &[3, 2]);
        assert_eq!(out[0].as_i32().unwrap(), &[1, 4, 2, 5, 3, 6]);
    }

    #[test]
    fn transpose_pred() {
        let mut b = FuncBuilder::new("tp");
        let x = b.param("x", TensorType::pred([2, 2]));
        let t = b.transpose(x, vec![1, 0]).unwrap();
        let f = b.build([t]).unwrap();
        let input = Literal::from_pred(vec![true, false, false, true], [2, 2]).unwrap();
        let out = interpret(&f, &[input]).unwrap();
        assert_eq!(out[0].as_pred().unwrap(), &[true, false, false, true]);
        let asym = Literal::from_pred(vec![true, true, false, false], [2, 2]).unwrap();
        let mut b2 = FuncBuilder::new("tp2");
        let x2 = b2.param("x", TensorType::pred([2, 2]));
        let t2 = b2.transpose(x2, vec![1, 0]).unwrap();
        let f2 = b2.build([t2]).unwrap();
        let out2 = interpret(&f2, &[asym]).unwrap();
        assert_eq!(out2[0].as_pred().unwrap(), &[true, false, true, false]);
    }

    #[test]
    fn slice_pad_concat_roundtrip() {
        let mut b = FuncBuilder::new("spc");
        let x = b.param("x", TensorType::f32([4]));
        let head = b.slice(x, vec![0], vec![2]).unwrap();
        let tail = b.slice(x, vec![2], vec![4]).unwrap();
        let back = b.concatenate(&[head, tail], 0).unwrap();
        let zero = b.const_f32(0.0).unwrap();
        let padded = b.pad(back, zero, vec![1], vec![0]).unwrap();
        let f = b.build([padded]).unwrap();
        let out = interpret(&f, &[lit(vec![1., 2., 3., 4.], &[4])]).unwrap();
        assert_eq!(out[0].as_f32().unwrap(), &[0., 1., 2., 3., 4.]);
    }

    #[test]
    fn gather_scatter_inverse_on_permutation() {
        let mut b = FuncBuilder::new("gs");
        let x = b.param("x", TensorType::f32([3, 2]));
        let idx = b
            .constant(Literal::from_i32(vec![2, 0, 1], [3]).unwrap())
            .unwrap();
        let g = b.gather(x, idx, 0).unwrap();
        let s = b.scatter_add(g, idx, 0, 3).unwrap();
        let f = b.build([s]).unwrap();
        let input = lit(vec![1., 2., 3., 4., 5., 6.], &[3, 2]);
        let out = interpret(&f, std::slice::from_ref(&input)).unwrap();
        assert_eq!(out[0], input);
    }

    #[test]
    fn for_loop_accumulates() {
        let mut b = FuncBuilder::new("loop");
        let x = b.param("x", TensorType::f32([2]));
        let out = b
            .for_loop(4, &[x], |b, _i, c| {
                let one = b.constant(Literal::from_f32(vec![1.0; 2], [2])?)?;
                Ok(vec![b.add(c[0], one)?])
            })
            .unwrap();
        let f = b.build(out).unwrap();
        let r = interpret(&f, &[lit(vec![0., 10.], &[2])]).unwrap();
        assert_eq!(r[0].as_f32().unwrap(), &[4., 14.]);
    }

    #[test]
    fn for_loop_uses_index() {
        let mut b = FuncBuilder::new("loop");
        let x = b.param("x", TensorType::f32([4]));
        let out = b
            .for_loop(4, &[x], |b, i, c| {
                let if32 = b.convert(i, DType::F32)?;
                let bc = b.broadcast_scalar(if32, [1])?;
                Ok(vec![b.dynamic_update_slice(c[0], bc, &[i])?])
            })
            .unwrap();
        let f = b.build(out).unwrap();
        let r = interpret(&f, &[lit(vec![9.; 4], &[4])]).unwrap();
        assert_eq!(r[0].as_f32().unwrap(), &[0., 1., 2., 3.]);
    }

    #[test]
    fn convolution_identity_kernel() {
        let mut b = FuncBuilder::new("conv");
        let x = b.param("x", TensorType::f32([1, 1, 3, 3]));
        let k = b.param("k", TensorType::f32([1, 1, 1, 1]));
        let y = b.convolution(x, k, ConvDims::default()).unwrap();
        let f = b.build([y]).unwrap();
        let input = lit((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]);
        let out = interpret(&f, &[input.clone(), lit(vec![1.0], &[1, 1, 1, 1])]).unwrap();
        assert_eq!(out[0], input);
    }

    #[test]
    fn conv_padding_and_stride() {
        let mut b = FuncBuilder::new("conv");
        let x = b.param("x", TensorType::f32([1, 1, 4, 4]));
        let k = b.param("k", TensorType::f32([1, 1, 3, 3]));
        let y = b
            .convolution(
                x,
                k,
                ConvDims {
                    strides: (2, 2),
                    padding: (1, 1),
                },
            )
            .unwrap();
        let f = b.build([y]).unwrap();
        let out = interpret(
            &f,
            &[
                lit(vec![1.0; 16], &[1, 1, 4, 4]),
                lit(vec![1.0; 9], &[1, 1, 3, 3]),
            ],
        )
        .unwrap();
        assert_eq!(out[0].shape().dims(), &[1, 1, 2, 2]);
        // Top-left window covers 2x2 ones (padding trims), center 3x3 etc.
        assert_eq!(out[0].as_f32().unwrap(), &[4.0, 6.0, 6.0, 9.0]);
    }

    #[test]
    fn argmax_picks_first_max_dim() {
        let mut b = FuncBuilder::new("am");
        let x = b.param("x", TensorType::f32([2, 3]));
        let y = b.argmax(x, 1).unwrap();
        let f = b.build([y]).unwrap();
        let out = interpret(&f, &[lit(vec![1., 5., 2., 9., 0., 9.], &[2, 3])]).unwrap();
        assert_eq!(out[0].as_i32().unwrap(), &[1, 0]);
    }

    #[test]
    fn collectives_are_rejected() {
        use partir_mesh::Mesh;
        let mesh = Mesh::single("m", 2).unwrap();
        let mut b = FuncBuilder::with_mesh("spmd", mesh);
        let x = b.param("x", TensorType::f32([4]));
        let y = b
            .collective(
                crate::Collective::AllReduce {
                    axes: vec!["m".into()],
                    reduce: ReduceOp::Sum,
                },
                x,
            )
            .unwrap();
        let f = b.build([y]).unwrap();
        let err = interpret(&f, &[lit(vec![1.0; 4], &[4])]).unwrap_err();
        assert!(matches!(err, IrError::Unsupported(_)));
    }

    #[test]
    fn input_type_checked() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([2]));
        let f = b.build([x]).unwrap();
        assert!(interpret(&f, &[lit(vec![1.0; 3], &[3])]).is_err());
        assert!(interpret(&f, &[]).is_err());
    }
}
