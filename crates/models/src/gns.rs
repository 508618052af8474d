//! Graph Network Simulator for molecular property prediction
//! (paper §7.1: GNS with 5-layer MLPs, 24 message-passing steps).
//!
//! The graph is nodes plus directed edges given as sender/receiver index
//! vectors. Message passing gathers node latents at the edge endpoints,
//! updates edge latents with an MLP, scatter-adds messages back into the
//! nodes and updates node latents with a second MLP. *Edge sharding*
//! (the paper's ES strategy) tiles the edge dimension: gathers stay local
//! because the node table is replicated, while each scatter-add becomes a
//! partial sum — one all-reduce per aggregation, exactly the collective
//! pattern Table 2 reports.

use partir_ir::{FuncBuilder, IrError, TensorType, ValueId};

use crate::nn;
use crate::train::{f32_input, finish_train_step, int_input, param_with_opt, BuiltModel, Init};

/// GNS hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GnsConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges.
    pub edges: usize,
    /// Input feature width (nodes and edges).
    pub features: usize,
    /// Latent width.
    pub latent: usize,
    /// Message passing steps.
    pub mp_steps: usize,
    /// Layers per MLP.
    pub mlp_layers: usize,
}

impl GnsConfig {
    /// The paper's structure (24 message-passing steps, 5-layer MLPs) at
    /// CPU-simulable width.
    pub fn paper() -> Self {
        GnsConfig {
            nodes: 128,
            edges: 512,
            features: 16,
            latent: 32,
            mp_steps: 24,
            mlp_layers: 5,
        }
    }

    /// A tiny configuration for interpreter tests.
    pub fn tiny() -> Self {
        GnsConfig {
            nodes: 8,
            edges: 16,
            features: 4,
            latent: 8,
            mp_steps: 2,
            mlp_layers: 2,
        }
    }
}

type Triple = (ValueId, ValueId, ValueId);

/// Declares an MLP's weight stack (input → latent…latent → output).
fn declare_mlp(
    b: &mut FuncBuilder,
    inits: &mut Vec<Init>,
    name: &str,
    d_in: usize,
    d_hidden: usize,
    d_out: usize,
    layers: usize,
) -> Vec<Triple> {
    let mut widths = vec![d_in];
    widths.extend(std::iter::repeat_n(d_hidden, layers.saturating_sub(1)));
    widths.push(d_out);
    widths
        .windows(2)
        .enumerate()
        .map(|(i, pair)| {
            param_with_opt(
                b,
                inits,
                &format!("{name}.w{i}"),
                TensorType::f32([pair[0], pair[1]]),
                Init::Uniform(1.0 / (pair[0] as f32).sqrt()),
            )
        })
        .collect()
}

fn mlp_weights(triples: &[Triple]) -> Vec<ValueId> {
    triples.iter().map(|t| t.0).collect()
}

/// Builds the full GNS training step (encode → 24×MP → decode → MSE +
/// Adam).
///
/// # Errors
///
/// Fails only on internal IR construction errors.
pub fn build_train_step(cfg: &GnsConfig) -> Result<BuiltModel, IrError> {
    let mut b = FuncBuilder::new("gns_train");
    let mut inits = Vec::new();
    let mut params: Vec<Triple> = Vec::new();
    let l = cfg.latent;

    let node_enc = declare_mlp(
        &mut b,
        &mut inits,
        "node_enc",
        cfg.features,
        l,
        l,
        cfg.mlp_layers,
    );
    params.extend(&node_enc);
    let edge_enc = declare_mlp(
        &mut b,
        &mut inits,
        "edge_enc",
        cfg.features,
        l,
        l,
        cfg.mlp_layers,
    );
    params.extend(&edge_enc);
    // Unshared per-step MLPs, as in the molecular GNS.
    let mut edge_mlps = Vec::new();
    let mut node_mlps = Vec::new();
    for step in 0..cfg.mp_steps {
        let e = declare_mlp(
            &mut b,
            &mut inits,
            &format!("mp{step}.edge"),
            3 * l,
            l,
            l,
            cfg.mlp_layers,
        );
        params.extend(&e);
        edge_mlps.push(e);
        let n = declare_mlp(
            &mut b,
            &mut inits,
            &format!("mp{step}.node"),
            2 * l,
            l,
            l,
            cfg.mlp_layers,
        );
        params.extend(&n);
        node_mlps.push(n);
    }
    let decoder = declare_mlp(&mut b, &mut inits, "decoder", l, l, 1, cfg.mlp_layers);
    params.extend(&decoder);

    // Data: features plus graph structure. Sender/receiver indices are
    // the values the ES tactic names ("predictions" in the paper's jraph
    // schedule).
    let node_feats = f32_input(
        &mut b,
        &mut inits,
        "node_feats",
        vec![cfg.nodes, cfg.features],
    );
    let edge_feats = f32_input(
        &mut b,
        &mut inits,
        "edge_feats",
        vec![cfg.edges, cfg.features],
    );
    let senders = int_input(
        &mut b,
        &mut inits,
        "senders",
        vec![cfg.edges],
        cfg.nodes as i32,
    );
    let receivers = int_input(
        &mut b,
        &mut inits,
        "receivers",
        vec![cfg.edges],
        cfg.nodes as i32,
    );
    let target = f32_input(&mut b, &mut inits, "target", vec![1]);

    // Encode.
    let mut h = nn::mlp_stack(&mut b, node_feats, &mlp_weights(&node_enc))?; // [N, L]
    let mut e = nn::mlp_stack(&mut b, edge_feats, &mlp_weights(&edge_enc))?; // [E, L]

    // Message passing.
    for step in 0..cfg.mp_steps {
        let from_senders = b.gather(h, senders, 0)?; // [E, L]
        let from_receivers = b.gather(h, receivers, 0)?;
        let edge_in = b.concatenate(&[e, from_senders, from_receivers], 1)?; // [E, 3L]
        let e_new = nn::mlp_stack(&mut b, edge_in, &mlp_weights(&edge_mlps[step]))?;
        e = b.add(e, e_new)?; // residual edge update
        let agg = b.scatter_add(e, receivers, 0, cfg.nodes)?; // [N, L]
        let node_in = b.concatenate(&[h, agg], 1)?; // [N, 2L]
        let h_new = nn::mlp_stack(&mut b, node_in, &mlp_weights(&node_mlps[step]))?;
        h = b.add(h, h_new)?; // residual node update
    }

    // Global mean-pool + decode to the molecular property.
    let pooled = b.reduce_sum(h, vec![0])?; // [L]
    let pooled = b.binary_scalar(partir_ir::BinaryOp::Div, pooled, cfg.nodes as f32)?;
    let pooled = b.reshape(pooled, [1, l])?;
    let pred = nn::mlp_stack(&mut b, pooled, &mlp_weights(&decoder))?; // [1, 1]
    let pred = b.reshape(pred, [1])?;
    let loss = nn::mse(&mut b, pred, target)?;

    let num_param_tensors = params.len();
    let func = finish_train_step(b, loss, &params)?;
    Ok(BuiltModel {
        func,
        inits,
        num_param_tensors,
        name: "GNS".to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::synthetic_inputs;
    use partir_ir::interp::interpret;

    #[test]
    fn tiny_gns_builds_and_runs() {
        let model = build_train_step(&GnsConfig::tiny()).unwrap();
        partir_ir::verify::verify_func(&model.func, None).unwrap();
        let inputs = synthetic_inputs(&model, 5);
        let out = interpret(&model.func, &inputs).unwrap();
        assert!(out[0].as_f32().unwrap()[0].is_finite());
    }

    #[test]
    fn paper_config_matches_structure() {
        let cfg = GnsConfig::paper();
        assert_eq!(cfg.mp_steps, 24);
        assert_eq!(cfg.mlp_layers, 5);
        let model = build_train_step(&GnsConfig::tiny()).unwrap();
        // encoders + 2 MLPs per step + decoder, mlp_layers weights each.
        let tiny = GnsConfig::tiny();
        let expected = (2 + 2 * tiny.mp_steps + 1) * tiny.mlp_layers;
        assert_eq!(model.num_param_tensors, expected);
    }
}
