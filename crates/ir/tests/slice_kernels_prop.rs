//! Differential tests for the slice kernels: every [`SliceKernel`] must
//! be *bit-identical* to the index-walk oracle it replaced
//! (`partir_ir::reference`) over random ranks 0–4, size-1 and zero-size
//! dimensions, axes at every position (strided access) and crops
//! (offset access) — run on a poisoned destination, because a compiled
//! plan hands kernels arena ranges that still hold the previous tenant's
//! data. The edge semantics the oracles imply are pinned by name below.

use partir_ir::kernels::{Buf, SliceKernel};
use partir_ir::{reference, CompareDir, DType, IrError, Literal, OpKind, Shape, TensorType};
use partir_prng::{propcheck::check, Rng};

/// Plans `kind` on the operands' types and runs it on a destination
/// pre-filled with garbage, as a plan step would.
fn run_kernel(kind: &OpKind, operands: &[&Literal]) -> Result<Literal, IrError> {
    let tys: Vec<TensorType> = operands.iter().map(|l| l.ty()).collect();
    let (kernel, out_ty) = SliceKernel::plan(kind, &tys)?;
    let srcs: Vec<Buf<'_>> = operands.iter().map(|l| l.as_buf()).collect();
    let mut out = Literal::filled(&out_ty, 7.0);
    kernel.run(&srcs, out.as_buf_mut())?;
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
    let ty = TensorType::f32([2, 2]);
    let err = partir_ir::interp::eval_op(&kind, &[&x, &idx], &ty).unwrap_err();
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
