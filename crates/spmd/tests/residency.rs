//! Executors are resident on the [`CompiledPlan`]: a run checks them
//! out, lends one to each device thread and parks them again. These
//! tests hold that residency where it could bite —
//!
//! * **dirty arena**: a run over arenas a previous run left full of
//!   garbage is bit-identical (a step that read a range it did not write
//!   *this* run fails here, not in production);
//! * **failure, then reuse**: a dropped, a corrupted and a timed-out run
//!   each return their structured error, hand every executor back, and
//!   the next clean run on the same plan equals a fresh plan's (no stale
//!   in-flight collective, no stashed payload crosses runs);
//! * **concurrent runs** of one plan both succeed, bit-identically, and
//!   neither waits for the other's executors.

use std::time::Duration;

use partir_ir::Literal;
use partir_mesh::{HardwareConfig, Mesh};
use partir_models::itransformer::ServingConfig;
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::transformer::TransformerConfig;
use partir_sched::{partir_jit, Schedule};
use partir_spmd::{CompiledPlan, Fault, PlanOptions, RuntimeConfig, RuntimeError, SpmdProgram};

fn mesh(batch: usize) -> Mesh {
    Mesh::new([(BATCH, batch), (MODEL, 2)]).unwrap()
}

fn jit(
    model: &partir_models::BuiltModel,
    table: &[(&str, Schedule)],
    row: &str,
    mesh: &Mesh,
) -> (SpmdProgram, Vec<Literal>) {
    let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
    let (_, schedule) = table.iter().find(|(name, _)| *name == row).expect(row);
    let program = partir_jit(&model.func, &hw, schedule).unwrap().program;
    (program, partir_models::synthetic_inputs(model, 4242))
}

/// The transformer training step (tiny) under BP+MP+Z3.
fn train_step(mesh: &Mesh) -> (SpmdProgram, Vec<Literal>) {
    let model = partir_models::transformer::build_train_step(&TransformerConfig::tiny()).unwrap();
    jit(&model, &schedules::transformer_table2(), "BP+MP+Z3", mesh)
}

/// The serving decode step (tiny) under BP+MP+MQ.
fn decode_step(mesh: &Mesh) -> (SpmdProgram, Vec<Literal>) {
    let model = partir_models::itransformer::build_decode_step(&ServingConfig::tiny()).unwrap();
    jit(&model, &schedules::itransformer_table2(), "BP+MP+MQ", mesh)
}

fn plans(program: &SpmdProgram) -> [(CompiledPlan, &'static str); 2] {
    [
        (program.compile().unwrap(), "overlapped"),
        (
            program.compile_with(&PlanOptions::blocking()).unwrap(),
            "blocking",
        ),
    ]
}

fn dirty_arena(batch: usize) {
    let mesh = mesh(batch);
    for (what, (program, inputs)) in [
        ("T-train", train_step(&mesh)),
        ("decode", decode_step(&mesh)),
    ] {
        let predicted = program.predicted_traffic().unwrap();
        for (plan, mode) in plans(&program) {
            let label = format!("{what} {batch}x2 {mode}");
            let config = RuntimeConfig::default();
            let (clean, _) = program
                .execute_global_planned(&plan, &inputs, &config)
                .expect(&label);
            assert_eq!(
                plan.scribble_parked_executors(),
                mesh.num_devices(),
                "{label}: one executor per device is parked after a run"
            );
            let (dirty, stats) = program
                .execute_global_planned(&plan, &inputs, &config)
                .expect(&label);
            assert_eq!(dirty, clean, "{label}: a step read what it did not write");
            assert_eq!(stats.per_axis, predicted.per_axis, "{label}: traffic");
        }
    }
}

#[test]
fn garbage_left_in_parked_arenas_is_never_read_1x2() {
    dirty_arena(1);
}

#[test]
fn garbage_left_in_parked_arenas_is_never_read_2x2() {
    dirty_arena(2);
}

#[test]
fn garbage_left_in_parked_arenas_is_never_read_4x2() {
    dirty_arena(4);
}

/// A run that fails mid-way (in-flight collectives, payloads queued and
/// stashed) must not colour the next run on the same plan.
#[test]
fn failed_runs_return_their_executors_and_leave_nothing_behind() {
    let mesh = mesh(2);
    let n = mesh.num_devices();
    let (program, inputs) = train_step(&mesh);
    let (want, _) = program
        .execute_global_planned(&program.compile().unwrap(), &inputs, &Default::default())
        .unwrap();
    for (plan, mode) in plans(&program) {
        let budget = plan.rendezvous_budget(Duration::from_micros(500));
        // Its peers give up after `budget`; the sleeper wakes well after.
        let stall = Fault::Stall {
            device: 0,
            millis: budget.as_millis() as u64 * 3 + 20,
        };
        // The last device is dropped, so the others have started (and
        // some finished) collectives towards it when they give up.
        let faults = [
            Fault::Drop { device: n - 1 },
            Fault::Corrupt {
                device: 1,
                message: 3,
            },
            stall,
        ];
        for fault in faults {
            let label = format!("{mode}, {fault:?}");
            let mut config = RuntimeConfig::with_timeout(budget);
            config.faults = vec![fault.clone()];
            let err = program
                .execute_global_planned(&plan, &inputs, &config)
                .expect_err(&label);
            match fault {
                Fault::Drop { device } => assert_eq!(err, RuntimeError::Dropped { device }),
                Fault::Corrupt { device, .. } => assert!(
                    matches!(err, RuntimeError::Corrupt { peer, .. } if peer == device),
                    "{label}: {err}"
                ),
                Fault::Stall { .. } => {
                    assert!(
                        matches!(err, RuntimeError::Timeout { .. }),
                        "{label}: {err}"
                    )
                }
            }
            // `run_plan` returned, so every scoped device thread has been
            // joined; and every executor came back.
            assert_eq!(plan.scribble_parked_executors(), n, "{label}");
            let (got, stats) = program
                .execute_global_planned(&plan, &inputs, &RuntimeConfig::default())
                .expect(&label);
            assert_eq!(got, want, "{label}: clean run after the failure differs");
            assert_eq!(
                stats.per_axis,
                program.predicted_traffic().unwrap().per_axis,
                "{label}: traffic after the failure"
            );
        }
    }
}

/// Two callers inside `run_plan` on one plan at the same time. The first
/// holds the plan's executors through a stalled (but successful) run; the
/// second starts only once the pool is seen empty, so it must be handed
/// fresh executors rather than wait for the first to park.
#[test]
fn concurrent_runs_of_one_plan_do_not_share_or_wait_for_executors() {
    let mesh = mesh(2);
    let (program, inputs) = train_step(&mesh);
    let plan = program.compile().unwrap();
    let (want, _) = program
        .execute_global_planned(&plan, &inputs, &Default::default())
        .unwrap();
    let run = |config: &RuntimeConfig| {
        program
            .execute_global_planned(&plan, &inputs, config)
            .unwrap()
            .0
    };
    std::thread::scope(|scope| {
        let holder = scope.spawn(|| {
            run(&RuntimeConfig::with_faults(vec![Fault::Stall {
                device: 0,
                millis: 300,
            }]))
        });
        let other = scope.spawn(|| {
            while plan.scribble_parked_executors() > 0 {
                std::thread::yield_now();
            }
            [
                run(&RuntimeConfig::default()),
                run(&RuntimeConfig::default()),
            ]
        });
        assert_eq!(holder.join().unwrap(), want);
        for got in other.join().unwrap() {
            assert_eq!(got, want);
        }
    });
    // Whatever the two allocated between them, one per device stays.
    assert_eq!(plan.scribble_parked_executors(), mesh.num_devices());
}
