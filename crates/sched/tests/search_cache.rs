//! Acceptance tests for the fingerprinted evaluation pipeline: on the
//! Transformer training step, a seeded MCTS must (a) hit the evaluation
//! cache, and (b) produce byte-identical results with the cache enabled
//! and disabled.

use partir_core::Partitioning;
use partir_mesh::{HardwareConfig, Mesh};
use partir_models::transformer::{build_train_step, TransformerConfig};
use partir_sched::{partir_jit, AutomaticPartition, EvalCache, Schedule};

/// Small enough to simulate quickly, large enough that batch tiling
/// beats the replicated baseline (~3× in simulated runtime) and the
/// search has something real to find.
fn config() -> TransformerConfig {
    TransformerConfig {
        layers: 2,
        d_model: 32,
        heads: 2,
        d_ff: 128,
        vocab: 64,
        seq: 32,
        batch: 256,
    }
}

#[test]
fn transformer_mcts_hits_cache_and_stays_deterministic() {
    let model = build_train_step(&config()).unwrap();
    let mesh = Mesh::single("B", 4).unwrap();
    let hw = HardwareConfig::tpu_v3_pod(mesh.clone());

    let run = |cache: &EvalCache| {
        let mut part = Partitioning::new(&model.func, mesh.clone()).unwrap();
        let tactic = AutomaticPartition::new("automap", ["B"])
            .with_budget(48)
            .with_seed(3);
        let applied = tactic
            .apply_with_cache(&model.func, &hw, &mut part, cache)
            .unwrap();
        (applied, part.fingerprint(), format!("{part:?}"))
    };

    let cached = EvalCache::new();
    let uncached = EvalCache::disabled();
    let with_cache = run(&cached);
    let without_cache = run(&uncached);

    // Byte-identical schedules and states.
    assert_eq!(with_cache, without_cache);
    assert!(with_cache.0 >= 1, "search applied no actions");

    // The transposition table was actually exercised.
    let stats = cached.stats();
    assert!(stats.hits > 0, "expected cache hits, got {stats:?}");
    assert!(stats.hit_rate() > 0.0);
    assert!(stats.misses < uncached.stats().misses);
    assert_eq!(stats.entries as u64, stats.misses);
}

#[test]
fn schedule_report_surfaces_cache_statistics() {
    let model = build_train_step(&config()).unwrap();
    let mesh = Mesh::single("B", 4).unwrap();
    let hw = HardwareConfig::tpu_v3_pod(mesh);
    let schedule = Schedule::new([AutomaticPartition::new("automap", ["B"])
        .with_budget(12)
        .with_seed(5)
        .into()]);
    let jitted = partir_jit(&model.func, &hw, &schedule).unwrap();
    // The per-tactic metadata evaluation re-visits the search's chosen
    // state, so a shared cache guarantees at least one hit.
    assert!(jitted.cache.hits > 0, "cache stats: {:?}", jitted.cache);
    assert!(jitted.cache.hit_rate() > 0.0);
    assert_eq!(jitted.reports.len(), 1);
}
