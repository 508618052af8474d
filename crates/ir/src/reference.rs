//! Oracles: the element-at-a-time forms the interpreter used before
//! [`crate::kernels`] replaced them.
//!
//! The index walks step through multi-indices (`Shape::indices`,
//! `Shape::multi_index`, `Literal::get`) and allocate per element;
//! [`unary`] and [`binary`] are the scalar expressions the elementwise
//! lanes were written from. None is reachable from [`crate::interp`], the
//! SPMD interpreters or a compiled plan: they exist so that the property
//! tests (`tests/kernels_prop.rs`, `tests/slice_kernels_prop.rs`) and the
//! micro benches can hold each kernel to the definition it replaced, bit
//! for bit.

use crate::{BinaryOp, CompareDir, DType, DotDims, IrError, Literal, Shape, UnaryOp};

/// The original element-at-a-time `Dot` evaluation: walks every output
/// element and every contraction index through multi-index iterators.
///
/// The oracle the property tests compare [`crate::kernels::dot_general`]
/// against.
///
/// # Errors
///
/// Fails if either operand is not f32.
pub fn dot_general_reference(
    dims: &DotDims,
    lhs: &Literal,
    rhs: &Literal,
) -> Result<Literal, IrError> {
    let (ls, rs) = (lhs.shape().clone(), rhs.shape().clone());
    let lhs_free = dims.free_dims(ls.rank(), true);
    let rhs_free = dims.free_dims(rs.rank(), false);
    let out_shape = crate::kernels::dot_out_shape(dims, &ls, &rs);
    let contract_shape = Shape::from(
        dims.lhs_contract
            .iter()
            .map(|&d| ls.dim(d))
            .collect::<Vec<_>>(),
    );
    let (a, b) = (lhs.as_f32()?, rhs.as_f32()?);
    let (lstr, rstr) = (ls.strides(), rs.strides());
    let mut data = vec![0f32; out_shape.num_elements()];
    let nb = dims.lhs_batch.len();
    for (out_lin, out_idx) in out_shape.indices().enumerate() {
        // Base offsets from batch + free coordinates.
        let mut l_base = 0usize;
        let mut r_base = 0usize;
        for (i, &bd) in dims.lhs_batch.iter().enumerate() {
            l_base += out_idx[i] * lstr[bd];
        }
        for (i, &bd) in dims.rhs_batch.iter().enumerate() {
            r_base += out_idx[i] * rstr[bd];
        }
        for (i, &fd) in lhs_free.iter().enumerate() {
            l_base += out_idx[nb + i] * lstr[fd];
        }
        for (i, &fd) in rhs_free.iter().enumerate() {
            r_base += out_idx[nb + lhs_free.len() + i] * rstr[fd];
        }
        let mut acc = 0f32;
        for c_idx in contract_shape.indices() {
            let mut lo = l_base;
            let mut ro = r_base;
            for (i, &c) in c_idx.iter().enumerate() {
                lo += c * lstr[dims.lhs_contract[i]];
                ro += c * rstr[dims.rhs_contract[i]];
            }
            acc += a[lo] * b[ro];
        }
        data[out_lin] = acc;
    }
    Literal::from_f32(data, out_shape)
}

/// `Unary`, one scalar expression per element.
///
/// # Errors
///
/// Fails on non-`f32` operands.
pub fn unary(u: UnaryOp, x: &Literal) -> Result<Literal, IrError> {
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

/// `Binary`, one scalar expression per element; `i32` wraps.
///
/// # Errors
///
/// Fails on `pred` operands, integer `pow` and an integer zero divisor.
pub fn binary(b: BinaryOp, x: &Literal, y: &Literal) -> Result<Literal, IrError> {
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
                        a.wrapping_div(c)
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

/// `Iota` by multi-index walk.
///
/// # Errors
///
/// Fails on `pred`.
pub fn iota(dim: usize, shape: &Shape, dtype: DType) -> Result<Literal, IrError> {
    match dtype {
        DType::I32 => {
            let data = shape.indices().map(|idx| idx[dim] as i32).collect();
            Literal::from_i32(data, shape.clone())
        }
        DType::F32 => {
            let data = shape.indices().map(|idx| idx[dim] as f32).collect();
            Literal::from_f32(data, shape.clone())
        }
        DType::Pred => Err(IrError::unsupported("pred iota")),
    }
}

/// `Compare` through [`Literal::get`]: every dtype is compared as `f64`.
///
/// # Errors
///
/// Fails when `y` cannot be indexed like `x`.
pub fn compare(dir: CompareDir, x: &Literal, y: &Literal) -> Result<Literal, IrError> {
    let n = x.num_elements();
    let mut data = Vec::with_capacity(n);
    for lin in 0..n {
        let idx = x.shape().multi_index(lin);
        let (a, b) = (x.get(&idx)?, y.get(&idx)?);
        data.push(match dir {
            CompareDir::Eq => a == b,
            CompareDir::Ne => a != b,
            CompareDir::Lt => a < b,
            CompareDir::Le => a <= b,
            CompareDir::Gt => a > b,
            CompareDir::Ge => a >= b,
        });
    }
    Literal::from_pred(data, x.shape().clone())
}

/// `Select` by multi-index walk, through `f64`.
///
/// # Errors
///
/// Fails on `pred` payloads or a non-`pred` condition.
pub fn select(pred: &Literal, t: &Literal, f: &Literal) -> Result<Literal, IrError> {
    pred.as_pred()?;
    let mut picked = Vec::with_capacity(t.num_elements());
    for idx in t.shape().indices() {
        picked.push(if pred.get(&idx)? != 0.0 {
            t.get(&idx)?
        } else {
            f.get(&idx)?
        });
    }
    match t.dtype() {
        // `get` widens losslessly, so narrowing back is the identity.
        DType::F32 => Literal::from_f32(
            picked.iter().map(|&v| v as f32).collect(),
            t.shape().clone(),
        ),
        DType::I32 => Literal::from_i32(
            picked.iter().map(|&v| v as i32).collect(),
            t.shape().clone(),
        ),
        DType::Pred => Err(IrError::unsupported("select on pred payloads")),
    }
}

/// `Convert` through [`Literal::get`].
///
/// # Errors
///
/// Infallible for well-formed literals.
pub fn convert(x: &Literal, to: DType) -> Result<Literal, IrError> {
    let n = x.num_elements();
    let at = |lin: usize| x.get(&x.shape().multi_index(lin));
    match to {
        DType::F32 => {
            let data = (0..n)
                .map(|l| Ok(at(l)? as f32))
                .collect::<Result<_, IrError>>()?;
            Literal::from_f32(data, x.shape().clone())
        }
        DType::I32 => {
            let data = (0..n)
                .map(|l| Ok(at(l)? as i32))
                .collect::<Result<_, IrError>>()?;
            Literal::from_i32(data, x.shape().clone())
        }
        DType::Pred => {
            let data = (0..n)
                .map(|l| Ok(at(l)? != 0.0))
                .collect::<Result<_, IrError>>()?;
            Literal::from_pred(data, x.shape().clone())
        }
    }
}

/// `Pad` by walking every output index back to its input index.
///
/// # Errors
///
/// Fails on non-`f32` operands.
pub fn pad(x: &Literal, value: &Literal, low: &[i64], high: &[i64]) -> Result<Literal, IrError> {
    let in_shape = x.shape().clone();
    let out_dims: Vec<usize> = (0..in_shape.rank())
        .map(|d| (in_shape.dim(d) as i64 + low[d] + high[d]) as usize)
        .collect();
    let out_shape = Shape::from(out_dims);
    let a = x.as_f32()?;
    let pad = value.as_f32()?[0];
    let mut data = vec![pad; out_shape.num_elements()];
    for (out_lin, out_idx) in out_shape.indices().enumerate() {
        let mut in_idx = Vec::with_capacity(out_idx.len());
        let mut inside = true;
        for (d, &i) in out_idx.iter().enumerate() {
            let s = i as i64 - low[d];
            if s < 0 || s >= in_shape.dim(d) as i64 {
                inside = false;
                break;
            }
            in_idx.push(s as usize);
        }
        if inside {
            data[out_lin] = a[in_shape.linear_index(&in_idx)];
        }
    }
    Literal::from_f32(data, out_shape)
}

/// Index `Gather` along `axis`, one output multi-index at a time;
/// indices clamp into range.
///
/// # Errors
///
/// Fails on non-`f32` operands or non-`i32` indices.
pub fn gather(x: &Literal, indices: &Literal, axis: usize) -> Result<Literal, IrError> {
    let idx = indices.as_i32()?;
    let in_shape = x.shape().clone();
    let out_shape = in_shape.with_dim(axis, idx.len());
    let a = x.as_f32()?;
    let axis_size = in_shape.dim(axis);
    let mut data = Vec::with_capacity(out_shape.num_elements());
    for mut out_idx in out_shape.indices() {
        let gathered = idx[out_idx[axis]].clamp(0, axis_size as i32 - 1) as usize;
        out_idx[axis] = gathered;
        data.push(a[in_shape.linear_index(&out_idx)]);
    }
    Literal::from_f32(data, out_shape)
}

/// `ScatterAdd` along `axis` in source linear order; out-of-range
/// updates are dropped, as in XLA scatter.
///
/// # Errors
///
/// Fails on non-`f32` sources or non-`i32` indices.
pub fn scatter_add(
    src: &Literal,
    indices: &Literal,
    axis: usize,
    size: usize,
) -> Result<Literal, IrError> {
    let idx = indices.as_i32()?;
    let in_shape = src.shape().clone();
    let out_shape = in_shape.with_dim(axis, size);
    let a = src.as_f32()?;
    let mut data = vec![0f32; out_shape.num_elements()];
    for (lin, mut src_idx) in in_shape.indices().enumerate() {
        let target = idx[src_idx[axis]];
        if target < 0 || target as usize >= size {
            continue;
        }
        src_idx[axis] = target as usize;
        data[out_shape.linear_index(&src_idx)] += a[lin];
    }
    Literal::from_f32(data, out_shape)
}

/// `ArgMax` along `dim` in input linear order: the first strict maximum
/// wins, and a row with nothing above `-inf` answers 0.
///
/// # Errors
///
/// Fails on non-`f32` operands.
pub fn arg_max(x: &Literal, dim: usize) -> Result<Literal, IrError> {
    let in_shape = x.shape().clone();
    let kept: Vec<usize> = (0..in_shape.rank()).filter(|&d| d != dim).collect();
    let out_shape = Shape::from(kept.iter().map(|&d| in_shape.dim(d)).collect::<Vec<_>>());
    let a = x.as_f32()?;
    let mut best = vec![f32::NEG_INFINITY; out_shape.num_elements()];
    let mut arg = vec![0i32; out_shape.num_elements()];
    for (lin, in_idx) in in_shape.indices().enumerate() {
        let out_idx: Vec<usize> = kept.iter().map(|&d| in_idx[d]).collect();
        let o = out_shape.linear_index(&out_idx);
        if a[lin] > best[o] {
            best[o] = a[lin];
            arg[o] = in_idx[dim] as i32;
        }
    }
    Literal::from_i32(arg, out_shape)
}
