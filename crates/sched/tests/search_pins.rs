//! Both search drivers, pinned on the `search_pair` benchmark cell (the
//! one-layer T-train step on a 4×2 mesh): every count, cost and end state
//! below was read off the clone-per-candidate implementation. The
//! in-place trial, the shared TMR table and the short-circuiting legality
//! gate may only change how long a search takes — if a number here moves,
//! the search itself changed.

use partir_core::Partitioning;
use partir_ir::{Fingerprint, Func};
use partir_mesh::{HardwareConfig, Mesh};
use partir_models::schedules::{BATCH, MODEL};
use partir_models::transformer::{build_train_step, TransformerConfig};
use partir_obs::Collector;
use partir_sched::{AutomaticPartition, EvalCache, StaticSearch, StaticSearchReport};

fn cell() -> (Func, HardwareConfig) {
    let func = build_train_step(&TransformerConfig {
        layers: 1,
        d_model: 32,
        heads: 2,
        d_ff: 128,
        vocab: 64,
        seq: 32,
        batch: 256,
    })
    .unwrap()
    .func;
    let mesh = Mesh::new([(BATCH, 4), (MODEL, 2)]).unwrap();
    (func, HardwareConfig::tpu_v3_pod(mesh))
}

/// The sharded inputs of `part`, as `name context` lines.
fn sharded_inputs(func: &Func, part: &Partitioning) -> Vec<String> {
    func.params()
        .iter()
        .filter(|&&v| !part.value_ctx(v).is_empty())
        .map(|&v| {
            let name = func.value(v).name.as_deref().unwrap_or("?");
            format!("{name} {}", part.value_ctx(v))
        })
        .collect()
}

#[test]
fn static_search_counts_and_winner_are_pinned() {
    let (func, hw) = cell();
    let mut part = Partitioning::new(&func, hw.mesh.clone()).unwrap();
    let cache = EvalCache::new();
    let report = StaticSearch::new("Static", [BATCH, MODEL])
        .apply_reporting(&func, &hw, &mut part, &cache)
        .unwrap();
    assert_eq!(
        report,
        StaticSearchReport {
            candidates: 696,
            static_evals: 246,
            class_duplicates: 446,
            pruned: 0,
            sim_evals: 8,
            best_static_cost: f64::from_bits(0x3f310ec682aef619),
            best_sim_cost: f64::from_bits(0x3f310ec682aef619),
            baseline_sim_cost: f64::from_bits(0x3f505f87d6b0deef),
            applied: 2,
        }
    );
    // The winning sequence: batch over the tokens, then model and batch
    // over the targets.
    assert_eq!(
        sharded_inputs(&func, &part),
        [
            "tokens [\"batch\"#tile<0>]",
            "targets [\"model\"#tile<1>, \"batch\"#tile<0>]",
        ]
    );
    assert_eq!(
        part.fingerprint(),
        Fingerprint(0x95276df6e1d04f9d6d2ee7523c7182b4)
    );
    // Baseline + the eight finalists, all distinct states.
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.pruned), (0, 9, 0));
}

/// Removing the per-level parent clone and running rollouts in place must
/// not move a single MCTS decision: end state, end cost and the cache
/// traffic of each of the benchmark's eight panel seeds.
#[test]
fn mcts_panel_seeds_are_pinned() {
    let (func, hw) = cell();
    let end_cost = f64::from_bits(0x3f4fa1ab87827b24);
    let end_state = Fingerprint(0x8a9f36027bb0b3d7cd536848e9c282af);
    for (seed, hits, misses) in [
        (11, 13, 21),
        (23, 13, 21),
        (37, 13, 21),
        (41, 12, 22),
        (53, 12, 22),
        (67, 13, 21),
        (79, 11, 23),
        (83, 12, 22),
    ] {
        let mut part = Partitioning::new(&func, hw.mesh.clone()).unwrap();
        let cache = EvalCache::new();
        let applied = AutomaticPartition::new("Auto", [BATCH, MODEL])
            .with_budget(16)
            .with_seed(seed)
            .apply_with_cache(&func, &hw, &mut part, &cache)
            .unwrap();
        let before = cache.stats();
        assert_eq!(
            (applied, before.hits, before.misses, before.pruned),
            (1, hits, misses, 0),
            "seed {seed}"
        );
        assert_eq!(part.fingerprint(), end_state, "seed {seed}");
        let cost = cache.evaluate(&func, &part, &hw).unwrap().cost(&hw);
        assert_eq!(cost, end_cost, "seed {seed}");
    }
}

/// The per-level counters tell the search's own story: one sample per
/// beam level of each `sched.static.level.*` counter, adding up to the
/// report's totals, with at most `beam_width` states kept per level and
/// the best kept cost reaching the report's best.
#[test]
fn level_counters_add_up_to_the_report() {
    let (func, hw) = cell();
    let collector = Collector::recording();
    let tactic = StaticSearch::new("Static", [BATCH, MODEL]);
    let report = partir_obs::with_track(&collector, "main", || {
        let mut part = Partitioning::new(&func, hw.mesh.clone()).unwrap();
        tactic
            .apply_reporting(&func, &hw, &mut part, &EvalCache::new())
            .unwrap()
    });
    let trace = collector.snapshot();
    let series = |name: &str| -> Vec<f64> {
        trace.tracks[0]
            .counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.delta)
            .collect()
    };
    let candidates = series("sched.static.level.candidates");
    let classes = series("sched.static.level.classes");
    let pruned = series("sched.static.level.pruned");
    let kept = series("sched.static.level.kept");
    let best = series("sched.static.level.best_cost");
    assert_eq!(candidates.len(), tactic.max_actions);
    assert!([&classes, &pruned, &kept, &best]
        .iter()
        .all(|s| s.len() == candidates.len()));
    assert_eq!(candidates.iter().sum::<f64>(), report.candidates as f64);
    assert_eq!(
        classes.iter().sum::<f64>(),
        (report.candidates - report.class_duplicates) as f64
    );
    assert_eq!(pruned.iter().sum::<f64>(), report.pruned as f64);
    assert!(kept
        .iter()
        .all(|&k| k >= 1.0 && k <= tactic.beam_width as f64));
    let best_seen = best.iter().copied().fold(f64::INFINITY, f64::min);
    assert_eq!(best_seen, report.best_static_cost);
    // The old totals are still there, under their old names.
    assert_eq!(
        series("sched.static.classes").len() as f64,
        classes.iter().sum::<f64>()
    );
    assert_eq!(
        series("sched.static.evals").len() as u64,
        report.static_evals
    );
}
