//! Differential conformance suite: for every model-zoo schedule on 1×2,
//! 2×2 and 4×2 meshes, the execution paths must agree —
//!
//! * free-running threaded runs of a [`CompiledPlan`]
//!   ([`SpmdProgram::execute_global_threaded`], and one plan run twice
//!   through [`SpmdProgram::execute_global_planned`]) vs the same plan
//!   under the seeded turn-taking scheduler
//!   ([`ThreadedRuntime::run_scheduled`]): **element-exact** (collective
//!   folds and concatenations follow mesh coordinates, never arrival
//!   order);
//! * all of them vs the unpartitioned reference interpretation:
//!   tolerance-based (the partitioned schedules legitimately
//!   reassociate f32 reductions);
//!
//! and the executed traffic must reconcile exactly with the predicted
//! per-axis byte/message counts (`partir_sim::reconcile`) — including
//! the plan's baked ahead-of-time collective schedules.
//!
//! Fault-injection cases assert the acceptance criteria directly: a
//! stalled participant is detected as a rendezvous timeout (deadlock
//! detection), and a corrupted message surfaces as a structured error
//! rather than a hang or a wrong answer.

use partir_core::Partitioning;
use partir_ir::interp::interpret;
use partir_mesh::{HardwareConfig, Mesh};
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::{
    gns::GnsConfig, itransformer::ITransformerConfig, mlp::MlpConfig,
    transformer::TransformerConfig, unet::UNetConfig, BuiltModel,
};
use partir_sched::{partir_jit, Schedule};
use partir_spmd::{Fault, RuntimeConfig, RuntimeError, SpmdProgram, ThreadedRuntime};

/// The mesh ladder the suite sweeps: 1×2, 2×2, 4×2 (batch × model).
fn meshes() -> Vec<Mesh> {
    [1usize, 2, 4]
        .into_iter()
        .map(|b| Mesh::new([(BATCH, b), (MODEL, 2)]).unwrap())
        .collect()
}

/// Runs one lowered program through both execution paths and checks all
/// conformance properties against the given reference outputs.
fn check_program(
    program: &SpmdProgram,
    hw: &HardwareConfig,
    inputs: &[partir_ir::Literal],
    reference: &[partir_ir::Literal],
    label: &str,
) {
    let (threaded, stats) = program
        .execute_global_threaded(inputs, &RuntimeConfig::default())
        .expect(label);
    // The same plan, one device at a time under the scheduler: threaded
    // vs scheduled is element-exact, no tolerance.
    let plan = program.compile().expect(label);
    let per_device = program.shard_inputs(inputs).expect(label);
    let run = ThreadedRuntime::default()
        .run_scheduled(&plan, &per_device, 0)
        .expect(label);
    let scheduled = program.unshard_outputs(&run.outputs).expect(label);
    assert_eq!(threaded, scheduled, "{label}: threaded != scheduled");
    // Run the plan twice more, free-running: both runs must be
    // bit-identical to the scheduled one (the arena is reused across
    // runs, so this also catches any step reading state a prior run
    // left behind).
    for run in 0..2 {
        let (planned, plan_stats) = program
            .execute_global_planned(&plan, inputs, &RuntimeConfig::default())
            .expect(label);
        assert_eq!(
            planned, scheduled,
            "{label}: planned run {run} != scheduled"
        );
        assert_eq!(
            plan_stats.per_device_bytes, stats.per_device_bytes,
            "{label}: planned run {run} moved different bytes"
        );
    }
    // Both vs the unpartitioned reference: tolerance for f32
    // reassociation under partitioned reductions.
    for (i, (r, t)) in reference.iter().zip(&threaded).enumerate() {
        if r.dtype().is_float() {
            let diff = r.max_abs_diff(t).expect(label);
            assert!(diff < 5e-3, "{label}: output {i} deviates by {diff}");
        } else {
            assert_eq!(r, t, "{label}: integer output {i} differs");
        }
    }
    // Executed traffic == predicted traffic, exactly, per axis.
    let rec = partir_sim::reconcile(program, hw, &stats).expect(label);
    assert!(
        rec.is_exact(),
        "{label}: executed traffic disagrees with prediction: {:?}",
        rec.per_axis
    );
}

/// Sweeps every (schedule, mesh) pair for one model.
fn conform(model: &BuiltModel, rows: &[(&str, Schedule)], family: &str) {
    let inputs = partir_models::synthetic_inputs(model, 1234);
    let reference = interpret(&model.func, &inputs).expect(family);
    for mesh in meshes() {
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let mesh_label: Vec<String> = mesh.axes().iter().map(|(_, s)| s.to_string()).collect();
        for (name, schedule) in rows {
            let label = format!("{family} {name} on {}", mesh_label.join("x"));
            let jitted = partir_jit(&model.func, &hw, schedule).expect(&label);
            check_program(&jitted.program, &hw, &inputs, &reference, &label);
        }
    }
}

#[test]
fn transformer_schedules_conform() {
    let model = partir_models::transformer::build_train_step(&TransformerConfig::tiny()).unwrap();
    conform(&model, &schedules::transformer_table2(), "T-tiny");
}

#[test]
fn unet_schedules_conform() {
    // batch 8 so the batch axis tiles on every mesh of the ladder.
    let cfg = UNetConfig {
        batch: 8,
        ..UNetConfig::tiny()
    };
    let model = partir_models::unet::build_train_step(&cfg).unwrap();
    conform(&model, &schedules::unet_table2(), "UNet-tiny");
}

#[test]
fn gns_schedules_conform() {
    let model = partir_models::gns::build_train_step(&GnsConfig::tiny()).unwrap();
    conform(&model, &schedules::gns_table2(), "GNS-tiny");
}

#[test]
fn itransformer_schedules_conform() {
    let model = partir_models::itransformer::build_serving(&ITransformerConfig::tiny()).unwrap();
    conform(&model, &schedules::itransformer_table2(), "IT-tiny");
}

/// An MLP training step with the batch tiled and one hidden layer
/// Megatron-sharded: exercises all_reduce and gather/scatter collectives
/// outside the `partir_jit` path.
fn mlp_program(mesh: Mesh) -> (BuiltModel, SpmdProgram) {
    let model = partir_models::mlp::build_train_step(&MlpConfig::small()).unwrap();
    let mut part = Partitioning::new(&model.func, mesh).unwrap();
    let params = model.func.params().to_vec();
    // Input batch on the batch axis; first weight's columns on the model
    // axis (Megatron style).
    part.tile(&model.func, params[0], 0, &BATCH.into()).unwrap();
    part.tile(&model.func, params[2], 1, &MODEL.into()).unwrap();
    part.propagate(&model.func);
    let program = partir_spmd::lower(&model.func, &part).unwrap();
    (model, program)
}

#[test]
fn mlp_train_step_conforms() {
    for mesh in meshes() {
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let (model, program) = mlp_program(mesh.clone());
        let inputs = partir_models::synthetic_inputs(&model, 77);
        let reference = interpret(&model.func, &inputs).unwrap();
        let label = format!("MLP on {} devices", mesh.num_devices());
        check_program(&program, &hw, &inputs, &reference, &label);
    }
}

/// Rendezvous budget scaled from plan metadata, so fault-timing tests
/// stay deterministic under the async/overlapped path: the timeout
/// grows with the number of steps one run executes (collective starts
/// can now be far from their waits), instead of hard-coding a constant
/// that silently assumed blocking collectives.
fn scaled_timeout(plan: &partir_spmd::CompiledPlan) -> std::time::Duration {
    plan.rendezvous_budget(std::time::Duration::from_micros(500))
}

#[test]
fn stalled_device_is_detected_as_deadlock_timeout() {
    let mesh = Mesh::new([(BATCH, 2), (MODEL, 2)]).unwrap();
    let (model, program) = mlp_program(mesh);
    assert!(program.stats().total() > 0, "schedule must communicate");
    let inputs = partir_models::synthetic_inputs(&model, 77);
    let plan = program.compile().unwrap();
    let timeout = scaled_timeout(&plan);
    let mut config = RuntimeConfig::with_timeout(timeout);
    // Stall far beyond the budget so detection is unambiguous.
    config.faults = vec![Fault::Stall {
        device: 0,
        millis: (timeout.as_millis() as u64 + 1) * 10,
    }];
    let err = program
        .execute_global_planned(&plan, &inputs, &config)
        .unwrap_err();
    assert!(
        matches!(err, RuntimeError::Timeout { .. }),
        "expected deadlock-detection timeout, got: {err}"
    );
}

#[test]
fn corrupted_message_surfaces_as_structured_error() {
    let mesh = Mesh::new([(BATCH, 2), (MODEL, 2)]).unwrap();
    let (model, program) = mlp_program(mesh);
    let inputs = partir_models::synthetic_inputs(&model, 77);
    let plan = program.compile().unwrap();
    let mut config = RuntimeConfig::with_timeout(scaled_timeout(&plan));
    config.faults = vec![Fault::Corrupt {
        device: 1,
        message: 0,
    }];
    let err = program
        .execute_global_planned(&plan, &inputs, &config)
        .unwrap_err();
    assert!(
        matches!(err, RuntimeError::Corrupt { peer: 1, .. }),
        "expected checksum-detected corruption, got: {err}"
    );
}

#[test]
fn dropped_participant_is_reported_by_identity() {
    let mesh = Mesh::new([(BATCH, 2), (MODEL, 2)]).unwrap();
    let (model, program) = mlp_program(mesh);
    let inputs = partir_models::synthetic_inputs(&model, 77);
    let plan = program.compile().unwrap();
    let mut config = RuntimeConfig::with_timeout(scaled_timeout(&plan));
    config.faults = vec![Fault::Drop { device: 2 }];
    let err = program
        .execute_global_planned(&plan, &inputs, &config)
        .unwrap_err();
    assert_eq!(err, RuntimeError::Dropped { device: 2 });
}
