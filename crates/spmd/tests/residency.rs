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
//!
//! Device sessions keep more than the arenas between steps: inputs stay
//! in their slots until set again, and bound outputs are copied into
//! input slots on the device. So —
//!
//! * **bound steps equal host-fed runs**: N session steps of the decode
//!   step with its caches bound are bit-identical to N `run_plan` calls
//!   that feed the cache shards back from the host, on the mesh ladder,
//!   overlapped and blocking, and also when the session opens over
//!   garbage-filled parked arenas;
//! * **a failed step poisons the session**: every later step returns the
//!   same error, the session closes well within the rendezvous budget,
//!   and every executor comes back;
//! * **caller mistakes are refused, not fatal**: a wrong input type,
//!   arity or index, an out-of-range or mistyped bind, or a step before
//!   every input is set returns an error and leaves the session usable.

use std::time::{Duration, Instant};

use partir_ir::{Literal, Shape};
use partir_mesh::{HardwareConfig, Mesh};
use partir_models::itransformer::ServingConfig;
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::transformer::TransformerConfig;
use partir_sched::{partir_jit, Schedule};
use partir_spmd::{
    CompiledPlan, Fault, PlanOptions, RuntimeConfig, RuntimeError, Session, SpmdProgram,
    ThreadedRuntime,
};

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

// ---------------------------------------------------------------------------
// Device sessions
// ---------------------------------------------------------------------------

/// Decode steps each session test runs.
const STEPS: usize = 4;

/// The decode step's inputs: parameters, then tokens, positions and
/// fresh flags, then the caches; its outputs: next tokens, then the
/// caches in input order.
struct Decode {
    program: SpmdProgram,
    /// Global inputs of the first step.
    inputs: Vec<Literal>,
    num_params: usize,
    cfg: ServingConfig,
}

impl Decode {
    fn new(mesh: &Mesh) -> Self {
        let cfg = ServingConfig::tiny();
        let model = partir_models::itransformer::build_decode_step(&cfg).unwrap();
        let (program, inputs) = jit(&model, &schedules::itransformer_table2(), "BP+MP+MQ", mesh);
        Decode {
            program,
            inputs,
            num_params: model.num_param_tensors,
            cfg,
        }
    }

    fn caches(&self) -> std::ops::Range<usize> {
        self.num_params + 3..self.inputs.len()
    }

    /// Step `i`'s slot inputs (tokens, positions, fresh flags), sharded.
    fn slot_inputs(&self, i: usize) -> Vec<Vec<Literal>> {
        let s = self.cfg.slots;
        let values: [Vec<i32>; 3] = [
            (0..s)
                .map(|j| ((7 * i + 3 * j) % self.cfg.vocab) as i32)
                .collect(),
            (0..s)
                .map(|j| ((i + j) % self.cfg.max_seq) as i32)
                .collect(),
            (0..s)
                .map(|j| i32::from(i == 0 || (i + j).is_multiple_of(5)))
                .collect(),
        ];
        values
            .into_iter()
            .enumerate()
            .map(|(j, v)| {
                let lit = Literal::from_i32(v, Shape::from([s])).unwrap();
                self.program.shard_input(self.num_params + j, &lit).unwrap()
            })
            .collect()
    }

    /// Every device's next-token shard per step, from `run_plan` calls
    /// fed by the host: the cache outputs of each call are the next
    /// call's cache inputs.
    fn host_fed(&self, plan: &CompiledPlan) -> Vec<Vec<Literal>> {
        let rt = ThreadedRuntime::default();
        let mut per_device = self.program.shard_inputs(&self.inputs).unwrap();
        let mut tokens = Vec::new();
        for i in 0..STEPS {
            for (j, shards) in self.slot_inputs(i).into_iter().enumerate() {
                for (dev, shard) in per_device.iter_mut().zip(shards) {
                    dev[self.num_params + j] = shard;
                }
            }
            let outputs = rt.run_plan(plan, &per_device).unwrap().outputs;
            for (dev, out) in per_device.iter_mut().zip(&outputs) {
                for (j, k) in self.caches().enumerate() {
                    dev[k] = out[1 + j].clone();
                }
            }
            tokens.push(outputs.into_iter().map(|mut o| o.swap_remove(0)).collect());
        }
        tokens
    }

    /// Loads every input into `session` and binds each cache output to
    /// its cache input.
    fn open(&self, session: &mut Session<'_>) -> Result<(), RuntimeError> {
        for (k, lit) in self.inputs.iter().enumerate() {
            session.set_input(k, self.program.shard_input(k, lit).unwrap())?;
        }
        for (j, k) in self.caches().enumerate() {
            session.bind(1 + j, k)?;
        }
        Ok(())
    }

    /// The same steps on one session: only the slot inputs are set after
    /// the first, and each step returns only the next-token shards.
    fn session(&self, rt: &ThreadedRuntime, plan: &CompiledPlan) -> Vec<Vec<Literal>> {
        rt.with_session(plan, |session| {
            self.open(session).unwrap();
            self.steps(session)
        })
    }

    /// `STEPS` steps on an open session, each setting the slot inputs.
    fn steps(&self, session: &mut Session<'_>) -> Vec<Vec<Literal>> {
        (0..STEPS)
            .map(|i| {
                for (j, shards) in self.slot_inputs(i).into_iter().enumerate() {
                    session.set_input(self.num_params + j, shards).unwrap();
                }
                let outputs = session.step().unwrap().outputs;
                assert!(
                    outputs.iter().all(|o| o.len() == 1),
                    "bound outputs returned"
                );
                outputs.into_iter().map(|mut o| o.swap_remove(0)).collect()
            })
            .collect()
    }
}

fn bound_session_steps_equal_host_fed_runs(batch: usize) {
    let mesh = mesh(batch);
    let decode = Decode::new(&mesh);
    for (plan, mode) in plans(&decode.program) {
        let label = format!("decode {batch}x2 {mode}");
        let want = decode.host_fed(&plan);
        let rt = ThreadedRuntime::default();
        assert_eq!(decode.session(&rt, &plan), want, "{label}");
        // A session over arenas full of garbage: the first step loads
        // every input, so nothing it reads comes from an earlier run.
        assert_eq!(plan.scribble_parked_executors(), mesh.num_devices());
        assert_eq!(decode.session(&rt, &plan), want, "{label}, dirty arenas");
    }
}

#[test]
fn bound_session_steps_equal_host_fed_runs_1x2() {
    bound_session_steps_equal_host_fed_runs(1);
}

#[test]
fn bound_session_steps_equal_host_fed_runs_2x2() {
    bound_session_steps_equal_host_fed_runs(2);
}

#[test]
fn bound_session_steps_equal_host_fed_runs_4x2() {
    bound_session_steps_equal_host_fed_runs(4);
}

/// A drop-out (at the first step) and a corruption (in the second step,
/// counted over the session's messages) each poison the session: that
/// step and every later one return the same error, and the session
/// closes within the rendezvous budget with every executor parked.
#[test]
fn a_failed_step_poisons_the_session() {
    let mesh = mesh(2);
    let n = mesh.num_devices();
    let decode = Decode::new(&mesh);
    for (plan, mode) in plans(&decode.program) {
        let budget = plan.rendezvous_budget(Duration::from_millis(20));
        let first_step_messages = ThreadedRuntime::default().with_session(&plan, |session| {
            decode.open(session).unwrap();
            let stats = session.step().unwrap().stats;
            stats.per_device[1]
                .per_axis
                .values()
                .map(|t| t.messages)
                .sum::<u64>()
        });
        assert!(first_step_messages > 0, "{mode}: device 1 sends nothing");
        let faults = [
            (Fault::Drop { device: n - 1 }, 0),
            (
                Fault::Corrupt {
                    device: 1,
                    message: first_step_messages,
                },
                1,
            ),
        ];
        for (fault, failing_step) in faults {
            let label = format!("{mode}, {fault:?}");
            let mut config = RuntimeConfig::with_timeout(budget);
            config.faults = vec![fault.clone()];
            let began = Instant::now();
            let errors = ThreadedRuntime::new(config).with_session(&plan, |session| {
                decode.open(session).unwrap();
                for _ in 0..failing_step {
                    session.step().expect(&label);
                }
                let errors: Vec<RuntimeError> =
                    (0..3).map(|_| session.step().expect_err(&label)).collect();
                // A bind on a poisoned session reports the poison too.
                let bind = session.bind(1, decode.caches().start).expect_err(&label);
                (errors, bind)
            });
            let elapsed = began.elapsed();
            let (errors, bind) = errors;
            match fault {
                Fault::Drop { device } => {
                    assert_eq!(errors[0], RuntimeError::Dropped { device }, "{label}")
                }
                Fault::Corrupt { device, .. } => assert!(
                    matches!(errors[0], RuntimeError::Corrupt { peer, .. } if peer == device),
                    "{label}: {}",
                    errors[0]
                ),
                Fault::Stall { .. } => unreachable!(),
            }
            assert!(
                errors.iter().all(|e| *e == errors[0]),
                "{label}: {errors:?}"
            );
            assert_eq!(bind, errors[0], "{label}");
            assert!(
                elapsed < budget,
                "{label}: the session took {elapsed:?} to close, budget {budget:?}"
            );
            // `with_session` returned, so every worker has been joined;
            // and every executor came back.
            assert_eq!(plan.scribble_parked_executors(), n, "{label}");
        }
    }
}

/// Wrong inputs and binds are refused with a structured error, and the
/// session stays usable: after the refusals it steps exactly as a fresh
/// one does.
#[test]
fn caller_mistakes_are_refused_without_poisoning() {
    let mesh = mesh(2);
    let n = mesh.num_devices();
    let decode = Decode::new(&mesh);
    let plan = decode.program.compile().unwrap();
    let rt = ThreadedRuntime::default();
    let want = decode.session(&rt, &plan);
    let got = rt.with_session(&plan, |session| {
        let num_inputs = decode.inputs.len();
        let shards = |k: usize| decode.program.shard_input(k, &decode.inputs[k]).unwrap();
        let refused = |what: &str, r: Result<(), RuntimeError>, says: &str| match r {
            Err(RuntimeError::Ir(e)) if e.to_string().contains(says) => {}
            other => panic!("{what}: expected a refusal saying {says:?}, got {other:?}"),
        };
        let step = session.step().map(drop);
        refused("step before any input", step, "was never set");
        let r = session.set_input(num_inputs, shards(0));
        refused("input out of range", r, "no input");
        let mut short = shards(0);
        short.pop();
        let r = session.set_input(0, short);
        refused("one shard short", r, "one shard for each");
        let r = session.set_input(0, shards(decode.num_params));
        refused("wrong type", r, "expected");
        let r = session.bind(1 + decode.caches().len(), 0);
        refused("bind past the outputs", r, "outputs and");
        let r = session.bind(0, num_inputs);
        refused("bind past the inputs", r, "outputs and");
        let r = session.bind(0, 0);
        refused("bind across types", r, "differs from");
        decode.open(session).unwrap();
        let r = session.bind(3, decode.caches().start);
        refused("two outputs into one input", r, "already feeds");
        decode.steps(session)
    });
    assert_eq!(got, want);
    assert_eq!(plan.scribble_parked_executors(), n);
}
