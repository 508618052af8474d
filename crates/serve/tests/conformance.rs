//! Differential serving conformance: every request decoded through the
//! continuously-batched engine is bit-identical to the same request run
//! *alone* through the original fixed-batch IT32 serving loop
//! (interpreted, unpartitioned), swept over the 1×2/2×2/4×2 mesh ladder,
//! every Table 2 IT32 schedule, and {blocking, overlapped} plans. Some
//! overlapped plan on 2×2 must hoist a collective window open, so the
//! overlap pass stays live under serving shapes.
//!
//! Tokens are i32 argmax outputs, compared with `assert_eq!` — the same
//! exact-integer-output convention as the spmd conformance suite.

use std::collections::HashMap;

use partir_ir::interp::interpret;
use partir_ir::{Literal, Shape};
use partir_mesh::{HardwareConfig, Mesh};
use partir_models::itransformer::{build_serving, ServingConfig};
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::train::synthetic_inputs;
use partir_serve::{poisson, validate_events, RunOptions, ServingEngine, Workload, WorkloadSpec};
use partir_spmd::PlanOptions;

const SEED: u64 = 2024;

/// Decodes one request alone through the oracle serving loop.
fn oracle_tokens(cfg: &ServingConfig, prompt: &[i32], steps: usize) -> Vec<i32> {
    let ocfg = cfg.oracle_config(prompt.len(), steps);
    let oracle = build_serving(&ocfg).expect("oracle builds");
    let mut inputs = synthetic_inputs(&oracle, SEED);
    let total = ocfg.buffer_len();
    let mut buf = vec![0i32; total];
    buf[..prompt.len()].copy_from_slice(prompt);
    inputs[oracle.num_param_tensors] =
        Literal::from_i32(buf, Shape::from([1, total])).expect("token buffer");
    let out = interpret(&oracle.func, &inputs).expect("oracle runs");
    let buf = out[0].as_i32().expect("i32 buffer");
    buf[prompt.len()..prompt.len() + steps].to_vec()
}

/// Solo-oracle expectation per request id (memoised per shape).
fn expectations(cfg: &ServingConfig, workload: &Workload) -> HashMap<u64, Vec<i32>> {
    let mut memo: HashMap<(Vec<i32>, usize), Vec<i32>> = HashMap::new();
    workload
        .requests
        .iter()
        .map(|r| {
            let key = (r.prompt.clone(), r.decode_steps);
            let tokens = memo
                .entry(key)
                .or_insert_with(|| oracle_tokens(cfg, &r.prompt, r.decode_steps))
                .clone();
            (r.id, tokens)
        })
        .collect()
}

#[test]
fn batched_engine_matches_solo_oracle_across_the_mesh_ladder() {
    let cfg = ServingConfig::tiny();
    // Dense Poisson arrivals against a 100us virtual step: admissions and
    // retirements interleave, so batch composition changes mid-flight.
    let workload = poisson(
        &WorkloadSpec {
            requests: 6,
            mean_interarrival_us: 120.0,
            prompt_len: (1, 3),
            decode_len: (1, 5),
            vocab: cfg.vocab,
        },
        11,
    );
    let expected = expectations(&cfg, &workload);
    let options = [
        ("overlapped", PlanOptions::default()),
        ("blocking", PlanOptions::blocking()),
    ];
    // Whether some overlapped 2×2 plan hoisted a collective window open.
    let mut hoisted_on_2x2 = false;
    for b in [1usize, 2, 4] {
        let mesh = Mesh::new([(BATCH, b), (MODEL, 2)]).expect("mesh");
        let hw = HardwareConfig::tpu_v3_pod(mesh);
        for (sched_label, schedule) in schedules::itransformer_table2() {
            for (opt_label, opts) in &options {
                let label = format!("{sched_label}/{opt_label} on {b}x2");
                let engine = ServingEngine::new(&cfg, &hw, &schedule, opts, SEED)
                    .unwrap_or_else(|e| panic!("{label}: build failed: {e}"));
                if b == 2 && opts.overlap {
                    hoisted_on_2x2 |= engine
                        .plan()
                        .collective_windows()
                        .iter()
                        .any(|w| w.gap_steps > 0);
                }
                let report = engine
                    .run(
                        &workload,
                        &RunOptions {
                            queue_capacity: 16,
                            virtual_step_us: Some(100),
                            collector: None,
                        },
                    )
                    .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
                validate_events(&report.events, &workload, cfg.slots, 16)
                    .unwrap_or_else(|e| panic!("{label}: invalid timeline: {e}"));
                assert_eq!(report.outcomes.len(), workload.requests.len(), "{label}");
                for o in &report.outcomes {
                    assert!(!o.rejected, "{label}: request {} rejected", o.id);
                    assert_eq!(
                        o.tokens, expected[&o.id],
                        "{label}: request {} diverged from the solo oracle",
                        o.id
                    );
                }
            }
        }
    }
    assert!(
        hoisted_on_2x2,
        "no overlapped 2x2 engine hoisted a collective window"
    );
}

/// The slot arena really is sharded: under BP+MP+MQ on the 2×2 mesh the
/// KV-cache inputs tile their slot dimension on both axes, and cache
/// outputs keep the input sharding so shards feed back device-to-device.
#[test]
fn slot_arena_shards_and_feeds_back() {
    let cfg = ServingConfig::tiny();
    let mesh = Mesh::new([(BATCH, 2), (MODEL, 2)]).expect("mesh");
    let hw = HardwareConfig::tpu_v3_pod(mesh);
    let rows = schedules::itransformer_table2();
    let (_, schedule) = rows
        .iter()
        .find(|(l, _)| *l == "BP+MP+MQ")
        .expect("BP+MP+MQ row");
    let engine =
        ServingEngine::new(&cfg, &hw, schedule, &PlanOptions::default(), SEED).expect("builds");
    let model = partir_models::itransformer::build_decode_step(&cfg).expect("model");
    let n = model.num_param_tensors;
    let program = engine.program();
    for j in 0..2 * cfg.layers {
        assert_eq!(
            program.output_ctxs()[1 + j],
            program.input_ctxs()[n + 3 + j],
            "cache {j} must feed back shard to shard"
        );
    }
    // First k_cache input: params, tokens, positions, fresh, then caches.
    let axes = program.input_ctxs()[n + 3].dim_axes(3);
    assert_eq!(
        axes[0].len(),
        2,
        "k_cache0 slot dim should tile on both mesh axes, got {axes:?}"
    );
    let summary = program.interface_summary();
    assert!(summary.contains("%k_cache0"), "{summary}");
}
