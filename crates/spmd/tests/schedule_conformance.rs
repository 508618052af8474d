//! Schedule-exploration conformance battery: the threaded runtime must
//! produce the same outputs and move the same bytes under every
//! interleaving of its devices, for both blocking and overlapped plans.
//!
//! [`ThreadedRuntime::run_scheduled`] runs one device at a time and lets
//! a seeded stream pick the next runnable device at every send and at
//! every receive that finds its channel empty — eager sends overtaking
//! each other on shared channels, waits draining stashed messages,
//! rendezvous misses in every order. For 64 seeds on each mesh of the
//! 1×2/2×2/4×2 ladder, and for two programs —
//!
//! * the MLP training step (lowered outside `partir_jit`; a tight chain
//!   where the overlap pass finds no slack, so blocking and overlapped
//!   plans coincide and the battery targets the transport alone), and
//! * the transformer BP+MP+Z3 schedule (whose overlapped plan hoists
//!   dozens of collective starts across windows hundreds of steps wide,
//!   so many payloads are in flight at once and waits drain them out of
//!   issue order) —
//!
//! every scheduled run must produce per-device outputs **bit-identical**
//! to a free-running run of the same plan and executed per-axis traffic
//! equal to `predict_traffic` **exactly**: the schedule and overlap may
//! change *when* bytes move, never *what* moves. A seed run twice must
//! replay the same interleaving (equal `rendezvous_waits`), and the
//! seeds must not all produce one interleaving — otherwise the battery
//! explores nothing.
//!
//! One test per mesh so the battery parallelizes across test threads.

use std::collections::BTreeSet;

use partir_core::Partitioning;
use partir_ir::Literal;
use partir_mesh::{HardwareConfig, Mesh};
use partir_models::mlp::MlpConfig;
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::transformer::TransformerConfig;
use partir_sched::partir_jit;
use partir_spmd::{PlanOptions, SpmdProgram, ThreadedRuntime};

/// Seeds per (program, mesh, plan) cell of the battery.
const SEEDS: u64 = 64;

/// Every how many seeds a cell runs a seed twice to check it replays.
const REPLAY_EVERY: u64 = 8;

/// The MLP training step with batch tiling and one Megatron-sharded
/// layer — all_reduce plus gather/scatter collectives on both axes.
fn mlp_program(mesh: Mesh) -> (SpmdProgram, Vec<Literal>) {
    let model = partir_models::mlp::build_train_step(&MlpConfig::small()).unwrap();
    let mut part = Partitioning::new(&model.func, mesh).unwrap();
    let params = model.func.params().to_vec();
    part.tile(&model.func, params[0], 0, &BATCH.into()).unwrap();
    part.tile(&model.func, params[2], 1, &MODEL.into()).unwrap();
    part.propagate(&model.func);
    let program = partir_spmd::lower(&model.func, &part).unwrap();
    let inputs = partir_models::synthetic_inputs(&model, 4242);
    (program, inputs)
}

/// The transformer training step under the paper's BP+MP+Z3 schedule:
/// batch + model parallelism plus optimizer-state sharding, the
/// schedule with the deepest overlap windows in the zoo.
fn transformer_z3(mesh: &Mesh) -> (SpmdProgram, Vec<Literal>) {
    let model = partir_models::transformer::build_train_step(&TransformerConfig::tiny()).unwrap();
    let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
    let table = schedules::transformer_table2();
    let (_, schedule) = table
        .iter()
        .find(|(name, _)| *name == "BP+MP+Z3")
        .expect("schedule table");
    let program = partir_jit(&model.func, &hw, schedule).unwrap().program;
    let inputs = partir_models::synthetic_inputs(&model, 4242);
    (program, inputs)
}

/// One cell: 64 seeds of one plan of one program.
fn explore(program: &SpmdProgram, inputs: &[Literal], options: PlanOptions, what: &str) {
    let per_device = program.shard_inputs(inputs).unwrap();
    let predicted = program.predicted_traffic().unwrap();
    let plan = program.compile_with(&options).unwrap();
    let what = format!(
        "{what}, {} plan",
        if plan.overlapped() {
            "overlapped"
        } else {
            "blocking"
        }
    );
    let rt = ThreadedRuntime::default();
    let free = rt.run_plan(&plan, &per_device).expect(&what);
    let mut waits = BTreeSet::new();
    for seed in 0..SEEDS {
        let label = format!("{what}, seed {seed}");
        let run = rt.run_scheduled(&plan, &per_device, seed).expect(&label);
        assert_eq!(run.outputs, free.outputs, "{label}: outputs != free run");
        assert_eq!(
            run.stats.per_axis, predicted.per_axis,
            "{label}: executed traffic != prediction"
        );
        if seed % REPLAY_EVERY == 0 {
            let again = rt.run_scheduled(&plan, &per_device, seed).expect(&label);
            assert_eq!(
                again.stats.rendezvous_waits, run.stats.rendezvous_waits,
                "{label}: the seed did not replay its interleaving"
            );
        }
        waits.insert(run.stats.rendezvous_waits);
    }
    assert!(
        waits.len() >= 2,
        "{what}: {SEEDS} seeds gave one interleaving ({waits:?} waits)"
    );
}

/// Every cell of one mesh. A scheduled run uses one core, so the four
/// cells run side by side.
fn explore_mesh(batch: usize) {
    let mesh = Mesh::new([(BATCH, batch), (MODEL, 2)]).unwrap();
    let mlp = mlp_program(mesh.clone());
    let tz3 = transformer_z3(&mesh);
    // The battery only means something if the overlapped plan actually
    // hoists: the Z3 schedule must yield real windows.
    let plan = tz3.0.compile().unwrap();
    assert!(
        plan.collective_windows().iter().any(|w| w.gap_steps > 0),
        "overlap pass found no slack in the Z3 transformer schedule"
    );
    std::thread::scope(|s| {
        for ((program, inputs), what) in [(&mlp, "MLP"), (&tz3, "T-Z3")] {
            for options in [PlanOptions::default(), PlanOptions::blocking()] {
                let what = format!("{what} {batch}x2");
                s.spawn(move || explore(program, inputs, options, &what));
            }
        }
    });
}

#[test]
fn schedule_conformance_1x2() {
    explore_mesh(1);
}

#[test]
fn schedule_conformance_2x2() {
    explore_mesh(2);
}

#[test]
fn schedule_conformance_4x2() {
    explore_mesh(4);
}
