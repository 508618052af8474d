//! Differential tests for the slice kernels: every [`SliceKernel`] must
//! be *bit-identical* to the oracle it replaced (`partir_ir::reference`:
//! index walks, and the scalar forms of the elementwise ops) over random
//! ranks 0–4, size-1 and zero-size dimensions, axes at every position
//! (strided access) and crops (offset access) — run on a poisoned
//! destination, because a compiled plan hands kernels arena ranges that
//! still hold the previous tenant's data. The edge semantics the oracles
//! imply are pinned by name below, the three convolutions are pinned to
//! what their loop nests produced before they moved onto slices, and one
//! table holds every region-free op kind to having a kernel at all.

use partir_ir::kernels::SliceKernel;
use partir_ir::{reference, CompareDir, DType, IrError, Literal, OpKind, Shape, TensorType};
use partir_prng::{propcheck::check, Rng};

/// Plans `kind` on the operands' types and runs it on a destination
/// pre-filled with garbage, as a plan step would.
fn run_kernel(kind: &OpKind, operands: &[&Literal]) -> Result<Literal, IrError> {
    let tys: Vec<TensorType> = operands.iter().map(|l| l.ty()).collect();
    let (kernel, out_ty) = SliceKernel::plan(kind, &tys)?;
    let mut out = Literal::filled(&out_ty, 7.0);
    kernel.run(operands.iter().map(|l| l.as_buf()), out.as_buf_mut())?;
    Ok(out)
}

/// Bit-level equality (NaN payloads and signed zeros included).
fn same_bits(kernel: &Literal, oracle: &Literal) -> Result<(), String> {
    if kernel.shape() != oracle.shape() || kernel.dtype() != oracle.dtype() {
        return Err(format!(
            "type mismatch: kernel {} vs oracle {}",
            kernel.ty(),
            oracle.ty()
        ));
    }
    let same = match kernel.dtype() {
        DType::F32 => {
            let bits = |l: &Literal| -> Vec<u32> {
                l.as_f32().unwrap().iter().map(|v| v.to_bits()).collect()
            };
            bits(kernel) == bits(oracle)
        }
        _ => kernel == oracle,
    };
    if same {
        Ok(())
    } else {
        Err(format!("kernel {kernel:?}\noracle {oracle:?}"))
    }
}

fn check_against(
    kind: &OpKind,
    operands: &[&Literal],
    oracle: Result<Literal, IrError>,
) -> Result<(), String> {
    let got = run_kernel(kind, operands).map_err(|e| format!("kernel failed on {kind:?}: {e}"))?;
    let want = oracle.map_err(|e| format!("oracle failed on {kind:?}: {e}"))?;
    same_bits(&got, &want).map_err(|e| format!("{kind:?} on {operands:?}\n{e}"))
}

/// A dim size skewed toward the degenerate cases (0 rare, 1 common).
fn gen_size(rng: &mut Rng) -> usize {
    match rng.gen_range(8) {
        0 => 0,
        1 | 2 => 1,
        n => n - 2, // 1..=5
    }
}

fn gen_dims(rng: &mut Rng, min_rank: usize) -> Vec<usize> {
    let rank = rng.gen_range_in(min_rank, 4);
    (0..rank).map(|_| gen_size(rng)).collect()
}

/// An `f32` drawn from a small set (so ties and equal pairs are common)
/// salted with the values comparisons and casts treat specially.
fn gen_f32(rng: &mut Rng) -> f32 {
    match rng.gen_range(16) {
        0 => f32::NAN,
        1 => f32::NEG_INFINITY,
        2 => f32::INFINITY,
        3 => -0.0,
        4 => 3.0e9,  // beyond i32
        5 => -3.0e9, // beyond i32
        6 => 1.0e8,  // absorbs a following +1.0
        7 => -1.0e8,
        n => n as f32 * 0.75 - 8.0,
    }
}

fn gen_literal(rng: &mut Rng, dims: &[usize], dtype: DType) -> Literal {
    let n: usize = dims.iter().product();
    match dtype {
        DType::F32 => Literal::from_f32((0..n).map(|_| gen_f32(rng)).collect(), dims.to_vec()),
        DType::I32 => Literal::from_i32(
            (0..n).map(|_| rng.gen_range(7) as i32 - 3).collect(),
            dims.to_vec(),
        ),
        _ => Literal::from_pred((0..n).map(|_| rng.gen_bool(0.5)).collect(), dims.to_vec()),
    }
    .unwrap()
}

fn gen_dtype(rng: &mut Rng) -> DType {
    *rng.choose(&[DType::F32, DType::I32, DType::Pred])
}

fn gen_indices(rng: &mut Rng, len: usize, range: usize) -> Literal {
    // Two out-of-range values on either side of `0..range`.
    let data = (0..len)
        .map(|_| rng.gen_range(range + 4) as i32 - 2)
        .collect();
    Literal::from_i32(data, [len]).unwrap()
}

const DIRS: [CompareDir; 6] = [
    CompareDir::Eq,
    CompareDir::Ne,
    CompareDir::Lt,
    CompareDir::Le,
    CompareDir::Gt,
    CompareDir::Ge,
];

#[test]
fn compare_matches_oracle() {
    check("compare kernel == index-walk oracle", 256, |rng| {
        let dims = gen_dims(rng, 0);
        let dtype = gen_dtype(rng);
        let (x, y) = (
            gen_literal(rng, &dims, dtype),
            gen_literal(rng, &dims, dtype),
        );
        let dir = *rng.choose(&DIRS);
        check_against(
            &OpKind::Compare(dir),
            &[&x, &y],
            reference::compare(dir, &x, &y),
        )
    });
}

#[test]
fn select_matches_oracle() {
    check("select kernel == index-walk oracle", 128, |rng| {
        let dims = gen_dims(rng, 0);
        let dtype = *rng.choose(&[DType::F32, DType::I32]);
        let p = gen_literal(rng, &dims, DType::Pred);
        let (t, f) = (
            gen_literal(rng, &dims, dtype),
            gen_literal(rng, &dims, dtype),
        );
        check_against(
            &OpKind::Select,
            &[&p, &t, &f],
            reference::select(&p, &t, &f),
        )
    });
}

#[test]
fn convert_matches_oracle() {
    check("convert kernel == index-walk oracle", 256, |rng| {
        let dims = gen_dims(rng, 0);
        let (from, to) = (gen_dtype(rng), gen_dtype(rng));
        let x = gen_literal(rng, &dims, from);
        check_against(&OpKind::Convert(to), &[&x], reference::convert(&x, to))
    });
}

#[test]
fn iota_matches_oracle() {
    check("iota kernel == index-walk oracle", 128, |rng| {
        let dims = gen_dims(rng, 1);
        let dim = rng.gen_range(dims.len());
        let dtype = *rng.choose(&[DType::F32, DType::I32]);
        let shape = Shape::from(dims);
        let kind = OpKind::Iota {
            dim,
            shape: shape.clone(),
            dtype,
        };
        check_against(&kind, &[], reference::iota(dim, &shape, dtype))
    });
}

#[test]
fn pad_matches_oracle() {
    check("pad kernel == index-walk oracle", 384, |rng| {
        let dims = gen_dims(rng, 0);
        // Negative amounts crop (an offset read); keep every result
        // extent non-negative, which is all type inference asks.
        let mut low = Vec::new();
        let mut high = Vec::new();
        for &d in &dims {
            let (l, h) = (rng.gen_range(7) as i64 - 3, rng.gen_range(7) as i64 - 3);
            let fits = d as i64 + l + h >= 0;
            low.push(if fits { l } else { 0 });
            high.push(if fits { h } else { 0 });
        }
        let x = gen_literal(rng, &dims, DType::F32);
        let value = Literal::scalar_f32(gen_f32(rng));
        let kind = OpKind::Pad {
            low: low.clone(),
            high: high.clone(),
        };
        check_against(
            &kind,
            &[&x, &value],
            reference::pad(&x, &value, &low, &high),
        )
    });
}

#[test]
fn gather_matches_oracle() {
    check("gather kernel == index-walk oracle", 256, |rng| {
        let dims = gen_dims(rng, 1);
        let axis = rng.gen_range(dims.len());
        let x = gen_literal(rng, &dims, DType::F32);
        let picks = rng.gen_range(6);
        let indices = gen_indices(rng, picks, dims[axis]);
        let kind = OpKind::Gather { axis };
        let out_elems = Shape::from(dims.clone())
            .with_dim(axis, indices.num_elements())
            .num_elements();
        if dims[axis] == 0 && out_elems > 0 {
            // Nothing to clamp into: the oracle panics, the kernel
            // refuses at plan time.
            return match run_kernel(&kind, &[&x, &indices]) {
                Err(_) => Ok(()),
                Ok(out) => Err(format!("gather from an empty axis produced {out:?}")),
            };
        }
        check_against(
            &kind,
            &[&x, &indices],
            reference::gather(&x, &indices, axis),
        )
    });
}

#[test]
fn scatter_add_matches_oracle() {
    check("scatter_add kernel == index-walk oracle", 256, |rng| {
        let dims = gen_dims(rng, 1);
        let axis = rng.gen_range(dims.len());
        let size = rng.gen_range(5);
        // Finite magnitudes only: with ±inf/NaN every order gives NaN,
        // with 1e8 beside 1.0 the order of duplicates shows.
        let n: usize = dims.iter().product();
        let data = (0..n)
            .map(|_| *rng.choose(&[1.0e8f32, -1.0e8, 1.0, -1.0, 0.25, 3.5]))
            .collect();
        let src = Literal::from_f32(data, dims.clone()).unwrap();
        let indices = gen_indices(rng, dims[axis], size);
        let kind = OpKind::ScatterAdd { axis, size };
        check_against(
            &kind,
            &[&src, &indices],
            reference::scatter_add(&src, &indices, axis, size),
        )
    });
}

#[test]
fn arg_max_matches_oracle() {
    check("arg_max kernel == index-walk oracle", 256, |rng| {
        let dims = gen_dims(rng, 1);
        let dim = rng.gen_range(dims.len());
        let x = gen_literal(rng, &dims, DType::F32);
        check_against(&OpKind::ArgMax { dim }, &[&x], reference::arg_max(&x, dim))
    });
}

// ---------------------------------------------------------------------------
// Pinned edge semantics
// ---------------------------------------------------------------------------

fn f32s(data: &[f32]) -> Literal {
    Literal::from_f32(data.to_vec(), [data.len()]).unwrap()
}

fn preds(kind: &OpKind, operands: &[&Literal]) -> Vec<bool> {
    run_kernel(kind, operands)
        .unwrap()
        .as_pred()
        .unwrap()
        .to_vec()
}

#[test]
fn nan_compares_false_in_every_ordered_direction() {
    let x = f32s(&[f32::NAN, 1.0, f32::NAN, 1.0]);
    let y = f32s(&[1.0, f32::NAN, f32::NAN, 1.0]);
    for dir in DIRS {
        let got = preds(&OpKind::Compare(dir), &[&x, &y]);
        let on_nan = dir == CompareDir::Ne;
        let on_equal = matches!(dir, CompareDir::Eq | CompareDir::Le | CompareDir::Ge);
        assert_eq!(got, [on_nan, on_nan, on_nan, on_equal], "{dir:?}");
    }
}

#[test]
fn compare_orders_i32_and_pred() {
    let a = Literal::from_i32(vec![-2, 5, 5], [3]).unwrap();
    let b = Literal::from_i32(vec![3, 5, -7], [3]).unwrap();
    assert_eq!(
        preds(&OpKind::Compare(CompareDir::Lt), &[&a, &b]),
        [true, false, false]
    );
    assert_eq!(
        preds(&OpKind::Compare(CompareDir::Ge), &[&a, &b]),
        [false, true, true]
    );
    // false < true, as the oracle's 0.0 < 1.0.
    let p = Literal::from_pred(vec![false, true, false, true], [4]).unwrap();
    let q = Literal::from_pred(vec![true, false, false, true], [4]).unwrap();
    assert_eq!(
        preds(&OpKind::Compare(CompareDir::Lt), &[&p, &q]),
        [true, false, false, false]
    );
    assert_eq!(
        preds(&OpKind::Compare(CompareDir::Eq), &[&p, &q]),
        [false, false, true, true]
    );
}

#[test]
fn arg_max_first_tie_wins_and_empty_handed_rows_answer_zero() {
    let inf = f32::NEG_INFINITY;
    let x = Literal::from_f32(
        vec![
            1.0,
            9.0,
            9.0, // tie: index 1
            inf,
            inf,
            inf, // nothing above -inf: 0
            f32::NAN,
            f32::NAN,
            f32::NAN, // NaN is never greater: 0
            f32::NAN,
            2.0,
            inf, // NaN skipped: 1
        ],
        [4, 3],
    )
    .unwrap();
    let out = run_kernel(&OpKind::ArgMax { dim: 1 }, &[&x]).unwrap();
    assert_eq!(out.as_i32().unwrap(), &[1, 0, 0, 1]);
    // Along the leading (strided) axis: column maxima.
    let out = run_kernel(&OpKind::ArgMax { dim: 0 }, &[&x]).unwrap();
    assert_eq!(out.as_i32().unwrap(), &[0, 0, 0]);
}

#[test]
fn gather_clamps_indices_into_the_axis() {
    let x = Literal::from_f32(vec![10., 11., 20., 21., 30., 31.], [3, 2]).unwrap();
    let idx = Literal::from_i32(vec![-5, 99, 1], [3]).unwrap();
    let out = run_kernel(&OpKind::Gather { axis: 0 }, &[&x, &idx]).unwrap();
    assert_eq!(out.as_f32().unwrap(), &[10., 11., 30., 31., 20., 21.]);
}

/// Used to panic inside `clamp(0, -1)`: there is no row to clamp to.
#[test]
fn gather_from_an_empty_axis_is_an_error_unless_nothing_is_gathered() {
    let x = Literal::zeros(&TensorType::f32([0, 2]));
    let idx = Literal::from_i32(vec![0, 1], [2]).unwrap();
    let kind = OpKind::Gather { axis: 0 };
    let err = partir_ir::interp::eval_op(&kind, &[&x, &idx]).unwrap_err();
    assert!(err.to_string().contains("empty axis"), "{err}");
    let none = Literal::from_i32(vec![], [0]).unwrap();
    let out = run_kernel(&kind, &[&x, &none]).unwrap();
    assert_eq!(out.shape(), &Shape::from([0, 2]));
}

#[test]
fn scatter_add_drops_out_of_range_and_sums_duplicates_in_source_order() {
    // Four updates to row 0, in this order: ((1e8 + 1) − 1e8) + 1 = 1 in
    // f32 (the first +1 is absorbed); any other order gives 2 or 0.
    let src = f32s(&[1.0e8, 1.0, -1.0e8, 1.0, 5.0, 6.0]);
    let idx = Literal::from_i32(vec![0, 0, 0, 0, -1, 2], [6]).unwrap();
    let out = run_kernel(&OpKind::ScatterAdd { axis: 0, size: 2 }, &[&src, &idx]).unwrap();
    assert_eq!(out.as_f32().unwrap(), &[1.0, 0.0]);
}

#[test]
fn pad_by_nothing_is_the_identity_and_rank_zero_pads() {
    let x = Literal::from_f32((0..6).map(|v| v as f32).collect(), [2, 3]).unwrap();
    let v = Literal::scalar_f32(-1.0);
    let kind = OpKind::Pad {
        low: vec![0, 0],
        high: vec![0, 0],
    };
    assert_eq!(run_kernel(&kind, &[&x, &v]).unwrap(), x);
    let scalar = Literal::scalar_f32(4.5);
    let kind = OpKind::Pad {
        low: vec![],
        high: vec![],
    };
    assert_eq!(run_kernel(&kind, &[&scalar, &v]).unwrap(), scalar);
}

#[test]
fn unsupported_dtypes_are_errors_not_panics() {
    let i = Literal::from_i32(vec![1, 2], [2]).unwrap();
    let zero = Literal::scalar_i32(0);
    let pad = OpKind::Pad {
        low: vec![1],
        high: vec![0],
    };
    assert!(run_kernel(&pad, &[&i, &zero]).is_err());
    assert!(run_kernel(&OpKind::ArgMax { dim: 0 }, &[&i]).is_err());
    let pred_iota = OpKind::Iota {
        dim: 0,
        shape: Shape::from([3]),
        dtype: DType::Pred,
    };
    assert!(run_kernel(&pred_iota, &[]).is_err());
}

// ---------------------------------------------------------------------------
// Every region-free op is a kernel
// ---------------------------------------------------------------------------

/// The table row of `kind`; `None` for what is not a kernel (`constant`
/// is a literal, `for` and collectives belong to the drivers).
/// Exhaustive on purpose: a new [`OpKind`] does not compile here until
/// it is given a row, and [`every_region_free_op_plans_to_a_kernel`]
/// then fails until the row has a typing `SliceKernel::plan` accepts.
fn kernel_row(kind: &OpKind) -> Option<usize> {
    Some(match kind {
        OpKind::Constant(_) | OpKind::For { .. } | OpKind::Collective(_) => return None,
        OpKind::Iota { .. } => 0,
        OpKind::Unary(_) => 1,
        OpKind::Binary(_) => 2,
        OpKind::Compare(_) => 3,
        OpKind::Select => 4,
        OpKind::Convert(_) => 5,
        OpKind::Dot(_) => 6,
        OpKind::Transpose { .. } => 7,
        OpKind::Reshape { .. } => 8,
        OpKind::BroadcastInDim { .. } => 9,
        OpKind::Reduce { .. } => 10,
        OpKind::Slice { .. } => 11,
        OpKind::Pad { .. } => 12,
        OpKind::Concatenate { .. } => 13,
        OpKind::DynamicSlice { .. } => 14,
        OpKind::DynamicUpdateSlice => 15,
        OpKind::Gather { .. } => 16,
        OpKind::ScatterAdd { .. } => 17,
        OpKind::Convolution(_) => 18,
        OpKind::ConvInputGrad { .. } => 19,
        OpKind::ConvFilterGrad { .. } => 20,
        OpKind::ArgMax { .. } => 21,
    })
}
const KERNEL_ROWS: usize = 22;

#[test]
fn every_region_free_op_plans_to_a_kernel() {
    use partir_ir::{BinaryOp, ConvDims, DotDims, ReduceOp, UnaryOp};
    let f = |dims: &[usize]| TensorType::f32(dims.to_vec());
    let idx = TensorType::scalar(DType::I32);
    let conv = ConvDims::default();
    let table: Vec<(OpKind, Vec<TensorType>)> = vec![
        (
            OpKind::Iota {
                dim: 0,
                shape: Shape::from([3]),
                dtype: DType::I32,
            },
            vec![],
        ),
        (OpKind::Unary(UnaryOp::Tanh), vec![f(&[4])]),
        (
            OpKind::Binary(BinaryOp::Add),
            vec![TensorType::i32([4]), TensorType::i32([4])],
        ),
        (OpKind::Compare(CompareDir::Lt), vec![f(&[4]), f(&[4])]),
        (
            OpKind::Select,
            vec![TensorType::pred([4]), f(&[4]), f(&[4])],
        ),
        (OpKind::Convert(DType::Pred), vec![f(&[4])]),
        (OpKind::Dot(DotDims::matmul()), vec![f(&[2, 3]), f(&[3, 4])]),
        (
            OpKind::Transpose { perm: vec![1, 0] },
            vec![TensorType::pred([2, 3])],
        ),
        (
            OpKind::Reshape {
                shape: Shape::from([6]),
            },
            vec![TensorType::i32([2, 3])],
        ),
        (
            OpKind::BroadcastInDim {
                shape: Shape::from([2, 3]),
                broadcast_dims: vec![1],
            },
            vec![f(&[3])],
        ),
        (
            OpKind::Reduce {
                op: ReduceOp::Max,
                dims: vec![0],
            },
            vec![f(&[2, 3])],
        ),
        (
            OpKind::Slice {
                starts: vec![1],
                limits: vec![5],
                strides: vec![2],
            },
            vec![TensorType::pred([6])],
        ),
        (
            OpKind::Pad {
                low: vec![1],
                high: vec![-1],
            },
            vec![f(&[4]), TensorType::scalar(DType::F32)],
        ),
        (
            OpKind::Concatenate { dim: 0 },
            vec![TensorType::pred([2]), TensorType::pred([3])],
        ),
        (
            OpKind::DynamicSlice { sizes: vec![2, 1] },
            vec![TensorType::i32([4, 3]), idx.clone(), idx.clone()],
        ),
        (
            OpKind::DynamicUpdateSlice,
            vec![TensorType::pred([4]), TensorType::pred([2]), idx.clone()],
        ),
        (
            OpKind::Gather { axis: 0 },
            vec![f(&[3, 2]), TensorType::i32([5])],
        ),
        (
            OpKind::ScatterAdd { axis: 0, size: 4 },
            vec![f(&[3, 2]), TensorType::i32([3])],
        ),
        (
            OpKind::Convolution(conv),
            vec![f(&[1, 2, 4, 4]), f(&[3, 2, 2, 2])],
        ),
        (
            OpKind::ConvInputGrad {
                dims: conv,
                input_hw: (4, 4),
            },
            vec![f(&[1, 3, 3, 3]), f(&[3, 2, 2, 2])],
        ),
        (
            OpKind::ConvFilterGrad {
                dims: conv,
                kernel_hw: (2, 2),
            },
            vec![f(&[1, 2, 4, 4]), f(&[1, 3, 3, 3])],
        ),
        (OpKind::ArgMax { dim: 1 }, vec![f(&[2, 3])]),
    ];
    let mut seen = [false; KERNEL_ROWS];
    for (kind, tys) in &table {
        let row = kernel_row(kind).expect("a kernel op");
        let (kernel, out_ty) = SliceKernel::plan(kind, tys)
            .unwrap_or_else(|e| panic!("{} has no kernel on {tys:?}: {e}", kind.name()));
        // Runs on buffers of the planned types, poisoned destination.
        let operands: Vec<Literal> = tys.iter().map(Literal::zeros).collect();
        let mut out = Literal::filled(&out_ty, 7.0);
        kernel
            .run(operands.iter().map(Literal::as_buf), out.as_buf_mut())
            .unwrap_or_else(|e| panic!("{} kernel failed: {e}", kind.name()));
        seen[row] = true;
    }
    assert_eq!(seen, [true; KERNEL_ROWS], "a kernel row has no typing");
    // What is not a kernel says so instead of planning something.
    let not_kernels = [
        OpKind::Constant(Literal::scalar_f32(1.0)),
        OpKind::For { trip_count: 2 },
    ];
    for kind in not_kernels {
        assert_eq!(kernel_row(&kind), None);
        assert!(SliceKernel::plan(&kind, &[]).is_err(), "{}", kind.name());
    }
}

// ---------------------------------------------------------------------------
// Elementwise lanes
// ---------------------------------------------------------------------------

const UNARIES: [partir_ir::UnaryOp; 10] = {
    use partir_ir::UnaryOp::*;
    [Neg, Exp, Log, Tanh, Sqrt, Rsqrt, Abs, Logistic, Sin, Cos]
};
const BINARIES: [partir_ir::BinaryOp; 7] = {
    use partir_ir::BinaryOp::*;
    [Add, Sub, Mul, Div, Max, Min, Pow]
};

#[test]
fn unary_matches_scalar_oracle() {
    check("unary kernel == scalar oracle", 256, |rng| {
        let dims = gen_dims(rng, 0);
        let x = gen_literal(rng, &dims, DType::F32);
        let u = *rng.choose(&UNARIES);
        check_against(&OpKind::Unary(u), &[&x], reference::unary(u, &x))
    });
}

#[test]
fn binary_f32_matches_scalar_oracle() {
    check("f32 binary kernel == scalar oracle", 384, |rng| {
        let dims = gen_dims(rng, 0);
        let x = gen_literal(rng, &dims, DType::F32);
        let y = gen_literal(rng, &dims, DType::F32);
        let b = *rng.choose(&BINARIES);
        check_against(&OpKind::Binary(b), &[&x, &y], reference::binary(b, &x, &y))
    });
}

#[test]
fn binary_i32_wraps_and_matches_scalar_oracle() {
    use partir_ir::BinaryOp;
    check("i32 binary kernel == scalar oracle", 256, |rng| {
        let dims = gen_dims(rng, 0);
        let n: usize = dims.iter().product();
        let mut gen = |nonzero: bool| {
            let data = (0..n)
                .map(|_| match rng.gen_range(8) {
                    0 => i32::MAX,
                    1 => i32::MIN,
                    2 => -1,
                    3 if !nonzero => 0,
                    k => k as i32 * 1_000_003 - 7,
                })
                .collect();
            Literal::from_i32(data, dims.clone()).unwrap()
        };
        let (x, y) = (gen(false), gen(true));
        let b = *rng.choose(&BINARIES[..6]);
        check_against(&OpKind::Binary(b), &[&x, &y], reference::binary(b, &x, &y))
    });
    let lit = |v: &[i32]| Literal::from_i32(v.to_vec(), [v.len()]).unwrap();
    let (x, y) = (lit(&[i32::MAX, i32::MIN, i32::MIN]), lit(&[1, -1, -1]));
    let run = |b| run_kernel(&OpKind::Binary(b), &[&x, &y]).unwrap();
    assert_eq!(
        run(BinaryOp::Add).as_i32().unwrap(),
        &[i32::MIN, i32::MAX, i32::MAX]
    );
    assert_eq!(
        run(BinaryOp::Mul).as_i32().unwrap(),
        &[i32::MAX, i32::MIN, i32::MIN]
    );
    assert_eq!(
        run(BinaryOp::Div).as_i32().unwrap(),
        &[i32::MAX, i32::MIN, i32::MIN]
    );
}

#[test]
fn i32_division_by_zero_fails_the_run_and_pow_or_pred_fail_the_plan() {
    use partir_ir::BinaryOp;
    let x = Literal::from_i32(vec![7, 8], [2]).unwrap();
    let z = Literal::from_i32(vec![3, 0], [2]).unwrap();
    // Planned fine; the data is what is wrong.
    let tys = [x.ty(), z.ty()];
    assert!(SliceKernel::plan(&OpKind::Binary(BinaryOp::Div), &tys).is_ok());
    let err = run_kernel(&OpKind::Binary(BinaryOp::Div), &[&x, &z]).unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
    let err = SliceKernel::plan(&OpKind::Binary(BinaryOp::Pow), &tys).unwrap_err();
    assert!(
        matches!(err, IrError::Unsupported(_)) && err.to_string().contains("integer pow"),
        "{err}"
    );
    let p = TensorType::pred([2]);
    let err = SliceKernel::plan(&OpKind::Binary(BinaryOp::Add), &[p.clone(), p]).unwrap_err();
    assert!(matches!(err, IrError::Unsupported(_)), "{err}");
}

// ---------------------------------------------------------------------------
// Strided and dynamic slices
// ---------------------------------------------------------------------------

#[test]
fn strided_slice_matches_index_walk() {
    check("slice kernel == index walk", 256, |rng| {
        let dims = gen_dims(rng, 0);
        let dtype = gen_dtype(rng);
        let x = gen_literal(rng, &dims, dtype);
        let (mut starts, mut limits, mut strides) = (Vec::new(), Vec::new(), Vec::new());
        for &d in &dims {
            let s = rng.gen_range(d + 1);
            starts.push(s);
            limits.push(s + rng.gen_range(d - s + 1));
            strides.push(1 + rng.gen_range(3));
        }
        let kind = OpKind::Slice {
            starts: starts.clone(),
            limits: limits.clone(),
            strides: strides.clone(),
        };
        let got = run_kernel(&kind, &[&x]).map_err(|e| e.to_string())?;
        let out_dims: Vec<usize> = (0..dims.len())
            .map(|d| (limits[d] - starts[d]).div_ceil(strides[d]))
            .collect();
        if got.shape().dims() != out_dims {
            return Err(format!("shape {} vs {out_dims:?}", got.shape()));
        }
        for idx in got.shape().indices() {
            let from: Vec<usize> = (0..dims.len())
                .map(|d| starts[d] + idx[d] * strides[d])
                .collect();
            let (a, b) = (got.get(&idx).unwrap(), x.get(&from).unwrap());
            if a.to_bits() != b.to_bits() {
                return Err(format!("{kind:?}: out{idx:?} = {a}, x{from:?} = {b}"));
            }
        }
        Ok(())
    });
}

#[test]
fn dynamic_slice_clamps_starts_at_both_edges() {
    let x = Literal::from_i32((0..12).collect(), [3, 4]).unwrap();
    let kind = OpKind::DynamicSlice { sizes: vec![2, 2] };
    let at = |r: i32, c: i32| -> Vec<i32> {
        let (r, c) = (Literal::scalar_i32(r), Literal::scalar_i32(c));
        run_kernel(&kind, &[&x, &r, &c])
            .unwrap()
            .as_i32()
            .unwrap()
            .to_vec()
    };
    assert_eq!(at(0, 1), [1, 2, 5, 6]);
    // Negative starts clamp to 0, large ones to dim − size.
    assert_eq!(at(-3, i32::MIN), [0, 1, 4, 5]);
    assert_eq!(at(1, 2), [6, 7, 10, 11]);
    assert_eq!(at(99, i32::MAX), [6, 7, 10, 11]);
    assert_eq!(at(-1, 7), [2, 3, 6, 7]);
    // Rank 0: no starts, the element itself.
    let s = Literal::scalar_f32(2.5);
    let whole = run_kernel(&OpKind::DynamicSlice { sizes: vec![] }, &[&s]).unwrap();
    assert_eq!(whole, s);
}

#[test]
fn dynamic_update_slice_clamps_starts_and_keeps_the_rest() {
    let x = Literal::from_f32(vec![0.0; 12], [3, 4]).unwrap();
    let u = Literal::from_f32(vec![1., 2., 3., 4.], [2, 2]).unwrap();
    let at = |r: i32, c: i32| -> Vec<f32> {
        let (r, c) = (Literal::scalar_i32(r), Literal::scalar_i32(c));
        run_kernel(&OpKind::DynamicUpdateSlice, &[&x, &u, &r, &c])
            .unwrap()
            .as_f32()
            .unwrap()
            .to_vec()
    };
    assert_eq!(at(0, 1), [0., 1., 2., 0., 0., 3., 4., 0., 0., 0., 0., 0.]);
    assert_eq!(at(-9, -1), [1., 2., 0., 0., 3., 4., 0., 0., 0., 0., 0., 0.]);
    assert_eq!(at(7, 9), [0., 0., 0., 0., 0., 0., 1., 2., 0., 0., 3., 4.]);
    // `pred` and an empty update: the operand comes back unchanged.
    let p = Literal::from_pred(vec![true, false, true], [3]).unwrap();
    let none = Literal::from_pred(vec![], [0]).unwrap();
    let i = Literal::scalar_i32(2);
    assert_eq!(
        run_kernel(&OpKind::DynamicUpdateSlice, &[&p, &none, &i]).unwrap(),
        p
    );
}

// ---------------------------------------------------------------------------
// Convolutions
// ---------------------------------------------------------------------------

/// FNV-1a over the result's bit patterns.
fn fnv(lit: &Literal) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in lit.as_f32().unwrap() {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// The three convolution kernels against what the interpreter's loop
/// nests (`eval_conv`, `eval_conv_input_grad`, `eval_conv_filter_grad`,
/// indexing through `Shape::linear_index`) produced for the same
/// operands before they moved onto slices: input `[2, 2, 4, 5]`, kernel
/// `[3, 2, 3, 2]`, values whose sums depend on the accumulation order,
/// every fifth output gradient zero.
#[test]
fn convolutions_match_the_pre_move_loop_nests() {
    use partir_ir::ConvDims;
    let ramp = |dims: &[usize], salt: u32| -> Literal {
        let n: usize = dims.iter().product();
        let data = (0..n as u32)
            .map(|i| ((i * 37 + salt * 11) % 23) as f32 * 0.173 - 1.9)
            .collect();
        Literal::from_f32(data, dims.to_vec()).unwrap()
    };
    type Pin = ((usize, usize), (usize, usize), [usize; 4], [u64; 3]);
    let pins: [Pin; 4] = [
        (
            (1, 1),
            (0, 0),
            [2, 3, 2, 4],
            [0x78b67be63b0ed24f, 0x5824d630174de559, 0x4e1b6f800e94beee],
        ),
        (
            (2, 1),
            (1, 1),
            [2, 3, 2, 6],
            [0xb9f6b3dc83868e4e, 0x56f1cc810d1cf456, 0xf72878a57d6c4a9],
        ),
        (
            (1, 2),
            (0, 2),
            [2, 3, 2, 4],
            [0xb71f573e1eb726fc, 0x48e2b68d5e75fa91, 0xc288c5fb9bd94585],
        ),
        (
            (2, 2),
            (1, 0),
            [2, 3, 2, 2],
            [0x65d2a899fe169387, 0x5c2a88f4ff7897fa, 0xb84eafeb627b529f],
        ),
    ];
    for (strides, padding, out_dims, want) in pins {
        let dims = ConvDims { strides, padding };
        let input = ramp(&[2, 2, 4, 5], 1);
        let kernel = ramp(&[3, 2, 3, 2], 2);
        let out = run_kernel(&OpKind::Convolution(dims), &[&input, &kernel]).unwrap();
        assert_eq!(out.shape().dims(), out_dims, "{dims:?}");
        let mut grad = ramp(&out_dims, 3);
        for g in grad.as_f32_mut().unwrap().iter_mut().step_by(5) {
            *g = 0.0;
        }
        let input_grad = OpKind::ConvInputGrad {
            dims,
            input_hw: (4, 5),
        };
        let filter_grad = OpKind::ConvFilterGrad {
            dims,
            kernel_hw: (3, 2),
        };
        let ig = run_kernel(&input_grad, &[&grad, &kernel]).unwrap();
        let fg = run_kernel(&filter_grad, &[&input, &grad]).unwrap();
        assert_eq!([fnv(&out), fnv(&ig), fnv(&fg)], want, "{dims:?}");
    }
}

/// A zero output gradient contributes nothing — not `0 · inf = NaN`.
#[test]
fn zero_output_gradients_are_skipped() {
    use partir_ir::ConvDims;
    let dims = ConvDims::default();
    let zeros = Literal::from_f32(vec![0.0, -0.0, 0.0, -0.0], [1, 1, 2, 2]).unwrap();
    let inf = Literal::filled(&TensorType::f32([1, 1, 2, 2]), f32::INFINITY);
    let ig = run_kernel(
        &OpKind::ConvInputGrad {
            dims,
            input_hw: (3, 3),
        },
        &[&zeros, &inf],
    )
    .unwrap();
    assert_eq!(ig.as_f32().unwrap(), &[0.0; 9]);
    let input = Literal::filled(&TensorType::f32([1, 1, 3, 3]), f32::INFINITY);
    let fg = run_kernel(
        &OpKind::ConvFilterGrad {
            dims,
            kernel_hw: (2, 2),
        },
        &[&input, &zeros],
    )
    .unwrap();
    assert_eq!(fg.as_f32().unwrap(), &[0.0; 4]);
}
