//! Chinchilla-style decoder-only Transformer (the paper's T32/T48).
//!
//! Each block has exactly **9 parameter tensors** — `ln1_scale`,
//! `ln1_bias`, `w_qkv`, `w_o`, `ln2_scale`, `ln2_bias`, `w_up`, `w_down`
//! and the extra `ln3_scale` ("additional normalization layer") — plus a
//! single tied embedding, giving the paper's 289 parameter tensors at 32
//! layers. The fused QKV weight uses layout `[d_model, heads, 3, d_head]`
//! so that Megatron-style head sharding propagates through it (the
//! paper's `qkv_einsum … return 1`).
//!
//! `build_train_step` emits the full training step: forward, softmax
//! cross-entropy, reverse-mode backward and Adam — the graphs the paper's
//! schedules (BP/MP/Z2/Z3/EMB) partition.

use partir_ir::{BinaryOp, DotDims, FuncBuilder, IrError, Literal, TensorType, ValueId};

use crate::nn;
use crate::train::{finish_train_step, int_input, param_with_opt, BuiltModel, Init};

/// Transformer hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformerConfig {
    /// Number of residual blocks.
    pub layers: usize,
    /// Model width.
    pub d_model: usize,
    /// Attention heads (must divide `d_model`).
    pub heads: usize,
    /// MLP hidden width.
    pub d_ff: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Sequence length.
    pub seq: usize,
    /// Batch size.
    pub batch: usize,
}

impl TransformerConfig {
    /// The paper's T32 structure (32 layers, 9 tensors per block) at
    /// CPU-simulable width. Collective counts depend only on this
    /// structure, not on the width.
    pub fn t32() -> Self {
        TransformerConfig {
            layers: 32,
            d_model: 64,
            heads: 8,
            d_ff: 256,
            vocab: 128,
            seq: 16,
            batch: 48,
        }
    }

    /// The paper's T48 structure (48 layers).
    pub fn t48() -> Self {
        TransformerConfig {
            layers: 48,
            d_model: 128,
            heads: 16,
            d_ff: 512,
            vocab: 128,
            seq: 16,
            batch: 64,
        }
    }

    /// The paper's T32 at *full* width (5B-parameter class: d_model 4096,
    /// 32 heads, 32k vocabulary; sequences shortened to 512 to keep the
    /// no-rematerialisation activation footprint sensible). Only for
    /// simulation and partitioning — graphs carry shapes, not data, so
    /// building and lowering are cheap, but never interpret this.
    pub fn t32_full() -> Self {
        TransformerConfig {
            layers: 32,
            d_model: 4096,
            heads: 32,
            d_ff: 16384,
            vocab: 32768,
            seq: 512,
            batch: 48,
        }
    }

    /// The paper's T48 at full width (32B-parameter class).
    pub fn t48_full() -> Self {
        TransformerConfig {
            layers: 48,
            d_model: 8192,
            heads: 64,
            d_ff: 32768,
            vocab: 32768,
            seq: 512,
            batch: 64,
        }
    }

    /// A configuration small enough for the SPMD interpreter in tests.
    pub fn tiny() -> Self {
        TransformerConfig {
            layers: 2,
            d_model: 8,
            heads: 2,
            d_ff: 16,
            vocab: 16,
            seq: 4,
            batch: 8,
        }
    }

    /// Per-head width.
    pub fn d_head(&self) -> usize {
        self.d_model / self.heads
    }

    /// Parameter tensor count: 9 per block plus the tied embedding.
    pub fn num_param_tensors(&self) -> usize {
        9 * self.layers + 1
    }
}

/// Declares the parameters (with Adam moments) of one block; returns the
/// nine `(param, m, v)` triples in declaration order.
struct BlockParams {
    ln1_scale: (ValueId, ValueId, ValueId),
    ln1_bias: (ValueId, ValueId, ValueId),
    w_qkv: (ValueId, ValueId, ValueId),
    w_o: (ValueId, ValueId, ValueId),
    ln2_scale: (ValueId, ValueId, ValueId),
    ln2_bias: (ValueId, ValueId, ValueId),
    w_up: (ValueId, ValueId, ValueId),
    w_down: (ValueId, ValueId, ValueId),
    ln3_scale: (ValueId, ValueId, ValueId),
}

impl BlockParams {
    fn all(&self) -> [(ValueId, ValueId, ValueId); 9] {
        [
            self.ln1_scale,
            self.ln1_bias,
            self.w_qkv,
            self.w_o,
            self.ln2_scale,
            self.ln2_bias,
            self.w_up,
            self.w_down,
            self.ln3_scale,
        ]
    }
}

fn declare_block(
    b: &mut FuncBuilder,
    inits: &mut Vec<Init>,
    cfg: &TransformerConfig,
    layer: usize,
) -> BlockParams {
    let d = cfg.d_model;
    let scale = 1.0 / (d as f32).sqrt();
    let mut p = |name: &str, ty: TensorType, init: Init| {
        param_with_opt(b, inits, &format!("blk{layer}.{name}"), ty, init)
    };
    BlockParams {
        ln1_scale: p("ln1_scale", TensorType::f32([d]), Init::Ones),
        ln1_bias: p("ln1_bias", TensorType::f32([d]), Init::Zeros),
        w_qkv: p(
            "w_qkv",
            TensorType::f32([d, cfg.heads, 3, cfg.d_head()]),
            Init::Uniform(scale),
        ),
        w_o: p("w_o", TensorType::f32([d, d]), Init::Uniform(scale)),
        ln2_scale: p("ln2_scale", TensorType::f32([d]), Init::Ones),
        ln2_bias: p("ln2_bias", TensorType::f32([d]), Init::Zeros),
        w_up: p("w_up", TensorType::f32([d, cfg.d_ff]), Init::Uniform(scale)),
        w_down: p(
            "w_down",
            TensorType::f32([cfg.d_ff, d]),
            Init::Uniform(1.0 / (cfg.d_ff as f32).sqrt()),
        ),
        ln3_scale: p("ln3_scale", TensorType::f32([d]), Init::Ones),
    }
}

/// One decoder block applied to `x` (`[B, T, d]`).
fn block_forward(
    b: &mut FuncBuilder,
    cfg: &TransformerConfig,
    params: &BlockParams,
    x: ValueId,
    mask: ValueId,
) -> Result<ValueId, IrError> {
    let (bsz, t, h, dh) = (cfg.batch, cfg.seq, cfg.heads, cfg.d_head());
    // Attention.
    let normed = nn::layer_norm(b, x, params.ln1_scale.0, params.ln1_bias.0)?;
    let qkv = b.dot(
        normed,
        params.w_qkv.0,
        DotDims {
            lhs_batch: vec![],
            rhs_batch: vec![],
            lhs_contract: vec![2],
            rhs_contract: vec![0],
        },
    )?; // [B, T, H, 3, dh]
    let pick = |b: &mut FuncBuilder, which: usize| -> Result<ValueId, IrError> {
        let s = b.slice(qkv, vec![0, 0, 0, which, 0], vec![bsz, t, h, which + 1, dh])?;
        let squeezed = b.reshape(s, [bsz, t, h, dh])?;
        b.transpose(squeezed, vec![0, 2, 1, 3]) // [B, H, T, dh]
    };
    let q = pick(b, 0)?;
    let k = pick(b, 1)?;
    let v = pick(b, 2)?;
    let kt = b.transpose(k, vec![0, 1, 3, 2])?; // [B, H, dh, T]
    let scores = b.dot(
        q,
        kt,
        DotDims {
            lhs_batch: vec![0, 1],
            rhs_batch: vec![0, 1],
            lhs_contract: vec![3],
            rhs_contract: vec![2],
        },
    )?; // [B, H, T, T]
    let scaled = b.binary_scalar(BinaryOp::Mul, scores, 1.0 / (dh as f32).sqrt())?;
    let mask_b = b.broadcast_in_dim(mask, [bsz, h, t, t], vec![2, 3])?;
    let neg_scalar = b.constant(Literal::scalar_f32(-1e9))?;
    let neg_inf = b.broadcast_in_dim(neg_scalar, [bsz, h, t, t], vec![])?;
    let masked = b.select(mask_b, scaled, neg_inf)?;
    let probs = nn::softmax(b, masked)?;
    let ctx = b.dot(
        probs,
        v,
        DotDims {
            lhs_batch: vec![0, 1],
            rhs_batch: vec![0, 1],
            lhs_contract: vec![3],
            rhs_contract: vec![2],
        },
    )?; // [B, H, T, dh]
    let ctx_bt = b.transpose(ctx, vec![0, 2, 1, 3])?; // [B, T, H, dh]
    let ctx_flat = b.reshape(ctx_bt, [bsz, t, cfg.d_model])?;
    let attn = nn::linear(b, ctx_flat, params.w_o.0)?;
    let x = b.add(x, attn)?;
    // MLP.
    let normed2 = nn::layer_norm(b, x, params.ln2_scale.0, params.ln2_bias.0)?;
    let up = nn::linear(b, normed2, params.w_up.0)?;
    let act = b.tanh(up)?;
    let down = nn::linear(b, act, params.w_down.0)?;
    let x = b.add(x, down)?;
    // The "additional normalization layer".
    nn::rms_scale(b, x, params.ln3_scale.0)
}

type LossParts = (
    FuncBuilder,
    ValueId,
    Vec<(ValueId, ValueId, ValueId)>,
    Vec<Init>,
);

/// Builds the forward loss of the Transformer; returns the builder, the
/// loss value, the parameter triples and the input inits.
fn build_loss(cfg: &TransformerConfig) -> Result<LossParts, IrError> {
    let mut b = FuncBuilder::new("transformer_train");
    let mut inits = Vec::new();
    let emb = param_with_opt(
        &mut b,
        &mut inits,
        "emb",
        TensorType::f32([cfg.vocab, cfg.d_model]),
        Init::Uniform(0.05),
    );
    let blocks: Vec<BlockParams> = (0..cfg.layers)
        .map(|l| declare_block(&mut b, &mut inits, cfg, l))
        .collect();
    let tokens = int_input(
        &mut b,
        &mut inits,
        "tokens",
        vec![cfg.batch, cfg.seq],
        cfg.vocab as i32,
    );
    let targets = int_input(
        &mut b,
        &mut inits,
        "targets",
        vec![cfg.batch, cfg.seq],
        cfg.vocab as i32,
    );

    // Embed.
    let flat = b.reshape(tokens, [cfg.batch * cfg.seq])?;
    let embedded = b.gather(emb.0, flat, 0)?; // [B*T, d]
    let mut x = b.reshape(embedded, [cfg.batch, cfg.seq, cfg.d_model])?;
    let mask = nn::causal_mask(&mut b, cfg.seq)?;
    for params in &blocks {
        x = block_forward(&mut b, cfg, params, x, mask)?;
    }
    // Tied unembedding.
    let emb_t = b.transpose(emb.0, vec![1, 0])?; // [d, V]
    let logits = nn::linear(&mut b, x, emb_t)?; // [B, T, V]
    let loss = nn::softmax_xent_mean(&mut b, logits, targets)?;

    let mut params = vec![emb];
    for blk in &blocks {
        params.extend(blk.all());
    }
    Ok((b, loss, params, inits))
}

/// Builds the full Transformer training step (forward + backward + Adam).
///
/// # Errors
///
/// Fails only on internal IR construction errors.
pub fn build_train_step(cfg: &TransformerConfig) -> Result<BuiltModel, IrError> {
    let (b, loss, params, inits) = build_loss(cfg)?;
    let func = finish_train_step(b, loss, &params)?;
    Ok(BuiltModel {
        func,
        inits,
        num_param_tensors: cfg.num_param_tensors(),
        name: format!("T{}", cfg.layers),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::synthetic_inputs;
    use partir_ir::interp::interpret;

    #[test]
    fn t32_has_289_parameter_tensors() {
        let cfg = TransformerConfig::t32();
        assert_eq!(cfg.num_param_tensors(), 289);
        // 9·48 + 1 for T48.
        assert_eq!(TransformerConfig::t48().num_param_tensors(), 433);
    }

    #[test]
    fn tiny_train_step_builds_verifies_and_runs() {
        let model = build_train_step(&TransformerConfig::tiny()).unwrap();
        partir_ir::verify::verify_func(&model.func, None).unwrap();
        // Inputs: params + 2·moments per tensor + tokens + targets.
        assert_eq!(model.func.params().len(), model.num_param_tensors * 3 + 2);
        // Results: loss + params + m + v.
        assert_eq!(model.func.results().len(), model.num_param_tensors * 3 + 1);
        let inputs = synthetic_inputs(&model, 42);
        let out = interpret(&model.func, &inputs).unwrap();
        let loss = out[0].as_f32().unwrap()[0];
        assert!(loss.is_finite() && loss > 0.0, "loss {loss}");
        // Roughly ln(vocab) for random logits.
        assert!(loss < 2.0 * (TransformerConfig::tiny().vocab as f32).ln());
    }

    #[test]
    fn training_reduces_loss_over_steps() {
        // Run three manual steps feeding updated params back in.
        let cfg = TransformerConfig::tiny();
        let model = build_train_step(&cfg).unwrap();
        let mut inputs = synthetic_inputs(&model, 7);
        let first = interpret(&model.func, &inputs).unwrap();
        let mut last_loss = first[0].as_f32().unwrap()[0];
        let n = cfg.num_param_tensors();
        let mut out = first;
        for _ in 0..3 {
            // results: [loss, params(n), m(n), v(n)] → inputs
            // [params(n)·(p,m,v interleaved), tokens, targets].
            for i in 0..n {
                inputs[3 * i] = out[1 + i].clone();
                inputs[3 * i + 1] = out[1 + n + i].clone();
                inputs[3 * i + 2] = out[1 + 2 * n + i].clone();
            }
            out = interpret(&model.func, &inputs).unwrap();
        }
        let final_loss = out[0].as_f32().unwrap()[0];
        assert!(
            final_loss < last_loss,
            "loss did not improve: {last_loss} -> {final_loss}"
        );
        last_loss = final_loss;
        let _ = last_loss;
    }
}
