//! Shared scaffolding for building complete models.

use partir_autodiff::{adam_update, backward, AdamConfig};
use partir_ir::{DType, Func, FuncBuilder, IrError, Literal, TensorType, ValueId};

/// How a function input is initialised by [`synthetic_inputs`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Init {
    /// All zeros (optimizer moments).
    Zeros,
    /// All ones (norm scales).
    Ones,
    /// Uniform floats in `(-scale, scale)` (weights, activations).
    Uniform(f32),
    /// Uniform ints in `[0, max)` (token ids, graph indices).
    IntUniform(i32),
}

/// A fully built model: the function plus input metadata.
#[derive(Debug, Clone)]
pub struct BuiltModel {
    /// The program (training step or serving loop).
    pub func: Func,
    /// Per-input initialisation, aligned with `func.params()`.
    pub inits: Vec<Init>,
    /// Number of *parameter* tensors (the paper's per-model counts).
    pub num_param_tensors: usize,
    /// Human-readable model name.
    pub name: String,
}

/// Deterministic synthetic inputs for a built model.
pub fn synthetic_inputs(model: &BuiltModel, seed: u64) -> Vec<Literal> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64 // [0, 1)
    };
    model
        .func
        .params()
        .iter()
        .zip(&model.inits)
        .map(|(&p, init)| {
            let ty = model.func.value_type(p);
            let n = ty.shape.num_elements();
            match init {
                Init::Zeros => Literal::zeros(ty),
                Init::Ones => Literal::ones(ty),
                Init::Uniform(scale) => {
                    let data: Vec<f32> = (0..n)
                        .map(|_| ((next() * 2.0 - 1.0) as f32) * scale)
                        .collect();
                    Literal::from_f32(data, ty.shape.clone()).expect("sized data")
                }
                Init::IntUniform(max) => {
                    let data: Vec<i32> = (0..n).map(|_| (next() * *max as f64) as i32).collect();
                    Literal::from_i32(data, ty.shape.clone()).expect("sized data")
                }
            }
        })
        .collect()
}

/// Declares one model parameter together with its Adam moments; returns
/// `(param, m, v)`.
pub(crate) fn param_with_opt(
    b: &mut FuncBuilder,
    inits: &mut Vec<Init>,
    name: &str,
    ty: TensorType,
    init: Init,
) -> (ValueId, ValueId, ValueId) {
    let p = b.param(format!("params.{name}"), ty.clone());
    inits.push(init);
    let m = b.param(format!("opt.m.{name}"), ty.clone());
    inits.push(Init::Zeros);
    let v = b.param(format!("opt.v.{name}"), ty);
    inits.push(Init::Zeros);
    (p, m, v)
}

/// Completes a training step: appends the backward pass for `loss` and
/// one Adam update per parameter, then builds the function with results
/// `[loss, new_params…, new_m…, new_v…]`.
pub(crate) fn finish_train_step(
    mut b: FuncBuilder,
    loss: ValueId,
    params: &[(ValueId, ValueId, ValueId)],
) -> Result<Func, IrError> {
    let wrt: Vec<ValueId> = params.iter().map(|&(p, _, _)| p).collect();
    let grads = backward(&mut b, loss, &wrt)?;
    let cfg = AdamConfig::default();
    let mut new_params = Vec::with_capacity(params.len());
    let mut new_ms = Vec::with_capacity(params.len());
    let mut new_vs = Vec::with_capacity(params.len());
    for (&(p, m, v), &g) in params.iter().zip(&grads) {
        let (np, nm, nv) = adam_update(&mut b, p, g, m, v, &cfg)?;
        new_params.push(np);
        new_ms.push(nm);
        new_vs.push(nv);
    }
    let mut results = vec![loss];
    results.extend(new_params);
    results.extend(new_ms);
    results.extend(new_vs);
    // Note: we deliberately do *not* CSE here. Merging structurally
    // identical values across layers (shared scalar broadcasts, masks)
    // forces them to share one sharding, which changes the collective
    // pattern the paper's per-layer counting laws assume. CSE remains
    // available as `partir_ir::passes::cse` for consumers that prefer
    // smaller graphs over count fidelity.
    b.build(results)
}

/// Scalar mean of an arbitrary-rank f32 value.
pub(crate) fn mean_all(b: &mut FuncBuilder, x: ValueId) -> Result<ValueId, IrError> {
    let ty = b.ty(x).clone();
    let n = ty.shape.num_elements() as f32;
    let dims: Vec<usize> = (0..ty.rank()).collect();
    let total = b.reduce_sum(x, dims)?;
    let denom = b.constant(Literal::scalar_f32(n))?;
    b.div(total, denom)
}

/// Declares an i32 data input.
pub(crate) fn int_input(
    b: &mut FuncBuilder,
    inits: &mut Vec<Init>,
    name: &str,
    shape: Vec<usize>,
    max: i32,
) -> ValueId {
    let v = b.param(name, TensorType::new(shape, DType::I32));
    inits.push(Init::IntUniform(max));
    v
}

/// Declares an f32 data input.
pub(crate) fn f32_input(
    b: &mut FuncBuilder,
    inits: &mut Vec<Init>,
    name: &str,
    shape: Vec<usize>,
) -> ValueId {
    let v = b.param(name, TensorType::f32(shape));
    inits.push(Init::Uniform(0.5));
    v
}
