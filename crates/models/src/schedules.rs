//! The paper's schedules (Appendix A.6), expressed as tactics over the
//! model zoo's parameter naming.
//!
//! Meshes use the axis names [`BATCH`] and [`MODEL`]; tactics compose in
//! the order the paper applies them (BP before Z2/Z3 — the ZeRO
//! strategies *rely* on batch-parallelism propagating first, §2.2).

use partir_sched::{DimSpec, ManualPartition, Matcher, Schedule, StaticSearch, Tactic};

/// Canonical batch ("data") axis name.
pub const BATCH: &str = "batch";
/// Canonical model axis name.
pub const MODEL: &str = "model";

// ---- Transformer (T32/T48) tactics ------------------------------------

/// Batch parallelism: shard the token batch.
pub fn t_bp() -> Tactic {
    ManualPartition::new("BP", BATCH).dim("tokens", 0).into()
}

/// Megatron model parallelism: shard QKV heads and the MLP up-projection;
/// `w_o` / `w_down` follow by inference (contracting-dim matches).
pub fn t_mp() -> Tactic {
    ManualPartition::new("MP", MODEL)
        .contains_dim("w_qkv", 1)
        .contains_dim("w_up", 1)
        .into()
}

/// ZeRO-2: parameters replicated (atomic), optimizer state sharded along
/// the batch axis; gradients follow the optimizer state by inference.
pub fn t_z2() -> Tactic {
    ManualPartition::new("Z2", BATCH)
        .rule(
            Matcher::PrefixContains("params.".into(), "w_".into()),
            DimSpec::Replicated,
        )
        .replicated("params.emb")
        .rule(
            Matcher::PrefixContains("opt.".into(), "w_".into()),
            DimSpec::FirstDivisibleDim,
        )
        .rule(
            Matcher::PrefixContains("opt.".into(), ".emb".into()),
            DimSpec::FirstDivisibleDim,
        )
        .into()
}

/// ZeRO-3/FSDP: weight matrices and optimizer state sharded along the
/// batch axis (the 4 matrices per block + embedding — the paper's 129
/// Z-sharded tensors for T32).
pub fn t_z3() -> Tactic {
    ManualPartition::new("Z3", BATCH)
        .rule(
            Matcher::PrefixContains("params.".into(), "w_".into()),
            DimSpec::FirstDivisibleDim,
        )
        .rule(
            Matcher::Exact("params.emb".into()),
            DimSpec::FirstDivisibleDim,
        )
        .rule(
            Matcher::PrefixContains("opt.".into(), "w_".into()),
            DimSpec::FirstDivisibleDim,
        )
        .rule(
            Matcher::PrefixContains("opt.".into(), ".emb".into()),
            DimSpec::FirstDivisibleDim,
        )
        .into()
}

/// Embedding partitioning along d_model, which shards activations too.
pub fn t_emb() -> Tactic {
    ManualPartition::new("EMB", MODEL)
        .dim("params.emb", 1)
        .into()
}

/// The transformer rows of Table 2.
pub fn transformer_table2() -> Vec<(&'static str, Schedule)> {
    vec![
        ("BP", Schedule::new([t_bp()])),
        ("BP+MP", Schedule::new([t_bp(), t_mp()])),
        ("BP+MP+Z2", Schedule::new([t_bp(), t_mp(), t_z2()])),
        ("BP+MP+Z3", Schedule::new([t_bp(), t_mp(), t_z3()])),
        (
            "BP+MP+Z3+EMB",
            Schedule::new([t_bp(), t_mp(), t_z3(), t_emb()]),
        ),
        ("MP", Schedule::new([t_mp()])),
        ("EMB", Schedule::new([t_emb()])),
    ]
}

/// Static-objective beam search over both mesh axes: candidates ranked by
/// `partir_analysis::static_cost`, simulator kept for final top-K
/// rescoring only.
pub fn t_static() -> Tactic {
    StaticSearch::new("Static", [BATCH, MODEL]).into()
}

// ---- Inference transformer (IT32) tactics ------------------------------

/// Batch parallelism for serving: shard the token buffer (caches follow
/// through the loop-carried unification).
pub fn it_bp() -> Tactic {
    ManualPartition::new("BP", BATCH).dim("tokens", 0).into()
}

/// Megatron sharding of the query and MLP projections; the shared
/// multi-query K/V stays replicated.
pub fn it_mp() -> Tactic {
    ManualPartition::new("MP", MODEL)
        .contains_dim("w_q", 1)
        .contains_dim("w_up", 1)
        .into()
}

/// Multi-query sharding: KV caches additionally sharded over the model
/// axis on their batch dimension (Pope et al.'s batch-dimension sharding
/// of the shared K/V head).
pub fn it_mq() -> Tactic {
    ManualPartition::new("MQ", MODEL)
        .rule(
            Matcher::Contains("k_cache".into()),
            DimSpec::FirstDivisibleDim,
        )
        .rule(
            Matcher::Contains("v_cache".into()),
            DimSpec::FirstDivisibleDim,
        )
        .into()
}

/// The IT32 rows of Table 2.
pub fn itransformer_table2() -> Vec<(&'static str, Schedule)> {
    vec![
        ("BP", Schedule::new([it_bp()])),
        ("BP+MP", Schedule::new([it_bp(), it_mp()])),
        ("BP+MP+MQ", Schedule::new([it_bp(), it_mp(), it_mq()])),
        ("MP", Schedule::new([it_mp()])),
    ]
}

// ---- U-Net tactics ------------------------------------------------------

/// Batch parallelism over the image batch.
pub fn u_bp() -> Tactic {
    ManualPartition::new("BP", BATCH).dim("x", 0).into()
}

/// ZeRO-2 for the U-Net: every parameter replicated, all optimizer
/// state sharded (the paper's generic Z2 tactic applies to the full
/// pytree, A.6).
pub fn u_z2() -> Tactic {
    ManualPartition::new("Z2", BATCH)
        .rule(Matcher::Prefix("params.".into()), DimSpec::Replicated)
        .rule(Matcher::Prefix("opt.".into()), DimSpec::FirstDivisibleDim)
        .into()
}

/// ZeRO-3 for the U-Net: every parameter and optimizer tensor sharded on
/// its first divisible dimension.
pub fn u_z3() -> Tactic {
    ManualPartition::new("Z3", BATCH)
        .rule(
            Matcher::Prefix("params.".into()),
            DimSpec::FirstDivisibleDim,
        )
        .rule(Matcher::Prefix("opt.".into()), DimSpec::FirstDivisibleDim)
        .into()
}

/// Megatron-like channel sharding: hidden conv channels and attention
/// heads on the model axis (paper A.6 "shard the convolutions on their
/// weights").
pub fn u_mp() -> Tactic {
    ManualPartition::new("MP", MODEL)
        .contains_dim("conv1_w", 0)
        .contains_dim("attn_wq", 1)
        .contains_dim("attn_wk", 1)
        .contains_dim("attn_wv", 1)
        .into()
}

/// The U-Net rows of Table 2.
pub fn unet_table2() -> Vec<(&'static str, Schedule)> {
    vec![
        ("BP", Schedule::new([u_bp()])),
        ("BP+Z2", Schedule::new([u_bp(), u_z2()])),
        ("BP+Z3", Schedule::new([u_bp(), u_z3()])),
    ]
}

// ---- GNS tactics ---------------------------------------------------------

/// Edge sharding: distribute edges (and their endpoint index vectors)
/// while replicating nodes (paper §7.3, the jraph `predictions` rules).
pub fn g_es() -> Tactic {
    ManualPartition::new("ES", BATCH)
        .dim("edge_feats", 0)
        .dim("senders", 0)
        .dim("receivers", 0)
        .into()
}

/// The GNS row of Table 2.
pub fn gns_table2() -> Vec<(&'static str, Schedule)> {
    vec![("ES", Schedule::new([g_es()]))]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_schedule_labels() {
        let rows = transformer_table2();
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[4].1.label(), "BP+MP+Z3+EMB");
        assert_eq!(itransformer_table2().len(), 4);
        assert_eq!(unet_table2().len(), 3);
        assert_eq!(gns_table2().len(), 1);
    }
}
