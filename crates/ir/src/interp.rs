//! Reference interpreter: sequential semantics for the IR.
//!
//! This is the analogue of the paper's PartIR:Temporal reference semantics
//! — it executes unpartitioned programs on a single "device" and is the
//! oracle that the SPMD lowering (in `partir-spmd`) is tested against.
//! Collectives are *illegal* here and produce [`IrError::Unsupported`].

use crate::kernels::SliceKernel;
use crate::{Func, IrError, Literal, OpData, OpId, OpKind, TensorType, ValueId};

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
    let results = eval_op(&op.kind, &operands)?;
    for (&r, val) in op.results.iter().zip(results) {
        env[r.0 as usize] = Some(val);
    }
    Ok(())
}

/// Evaluates a single (region-free, collective-free) op: plans the op's
/// [`SliceKernel`] against the operand types, allocates the result it
/// infers and runs the kernel on it. Compiled plans run the same kernels
/// on arena ranges.
///
/// # Errors
///
/// Fails on collectives, `for` (handled by the caller), whatever
/// [`SliceKernel::plan`] refuses and malformed data.
pub fn eval_op(kind: &OpKind, operands: &[&Literal]) -> Result<Vec<Literal>, IrError> {
    match kind {
        OpKind::Constant(lit) => Ok(vec![lit.clone()]),
        OpKind::For { .. } => Err(IrError::invalid("for must be handled by the interpreter")),
        OpKind::Collective(_) => Err(IrError::unsupported(format!(
            "collective {} in the reference interpreter",
            kind.name()
        ))),
        kind => {
            let tys: Vec<TensorType> = operands.iter().map(|lit| lit.ty()).collect();
            let (kernel, out_ty) = SliceKernel::plan(kind, &tys)?;
            let mut out = Literal::zeroed(out_ty);
            kernel.run(operands.iter().map(|lit| lit.as_buf()), out.as_buf_mut())?;
            Ok(vec![out])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConvDims, DType, DotDims, FuncBuilder, ReduceOp};

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
