//! The observability layer's two hard guarantees, tested end to end:
//!
//! 1. **Inertness** (propcheck): for random zoo models, schedules,
//!    meshes and inputs, running the whole pipeline — `partir_jit`,
//!    `evaluate`, the threaded runtime — under a recording collector
//!    produces exactly the same results as under the no-op collector:
//!    identical `Func` and `Partitioning` fingerprints, identical
//!    evaluation costs (bitwise, not approximately), bit-identical
//!    runtime outputs and traffic stats. Tracing observes; it never
//!    participates.
//!
//! 2. **Golden trace**: a tiny MLP compile — plus a planned runtime
//!    execution on a single-device mesh, so the `device0` track pins
//!    the async-collective `coll.start.N`/`coll.wait.N` spans —
//!    profiled with the fake deterministic clock round-trips
//!    byte-for-byte to a checked-in Chrome trace JSON — stable event
//!    ordering, no wall-clock, no debug/release difference. Regenerate
//!    with
//!    `OBS_UPDATE_GOLDEN=1 cargo test -p partir-bench --test observability`.

use std::collections::BTreeMap;

use partir_core::Partitioning;
use partir_ir::{Fingerprint, Literal};
use partir_mesh::{Axis, HardwareConfig, Mesh};
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::{
    gns::GnsConfig, itransformer::ITransformerConfig, mlp::MlpConfig,
    transformer::TransformerConfig, BuiltModel,
};
use partir_obs::{with_track, Collector};
use partir_prng::{propcheck, Rng};
use partir_sched::{partir_jit, Schedule};
use partir_spmd::{AxisTraffic, RuntimeConfig};

/// Everything the pipeline computes that tracing could conceivably
/// perturb. Two runs are "identical" iff these compare equal (f64 costs
/// bitwise via `to_bits`, literals element-exact).
#[derive(Debug, PartialEq)]
struct PipelineResult {
    part_fp: Fingerprint,
    func_fp: Fingerprint,
    cost_bits: u64,
    outputs: Vec<Literal>,
    per_axis: BTreeMap<Axis, AxisTraffic>,
}

/// Runs the full pipeline for one (model, schedule, mesh, seed) case
/// under the given collector.
fn run_pipeline(
    collector: &Collector,
    model: &BuiltModel,
    schedule: Option<&Schedule>,
    hw: &HardwareConfig,
    input_seed: u64,
) -> PipelineResult {
    with_track(collector, "main", || {
        let (program, part) = match schedule {
            Some(s) => {
                let jitted = partir_jit(&model.func, hw, s).expect("jit");
                (jitted.program, jitted.partitioning)
            }
            None => {
                let mut part = Partitioning::new(&model.func, hw.mesh.clone()).expect("state");
                let params = model.func.params().to_vec();
                part.tile(&model.func, params[0], 0, &BATCH.into())
                    .expect("tile");
                part.tile(&model.func, params[2], 1, &MODEL.into())
                    .expect("tile");
                part.propagate(&model.func);
                let program = partir_spmd::lower(&model.func, &part).expect("lower");
                (program, part)
            }
        };
        let eval = partir_sim::evaluate(&model.func, &part, hw).expect("evaluate");
        let inputs = partir_models::synthetic_inputs(model, input_seed);
        let (outputs, stats) = program
            .execute_global_threaded(&inputs, &RuntimeConfig::default())
            .expect("threaded run");
        PipelineResult {
            part_fp: part.fingerprint(),
            func_fp: program.func().fingerprint(),
            cost_bits: eval.cost(hw).to_bits(),
            outputs,
            per_axis: stats.per_axis,
        }
    })
}

/// Builds one random case: a zoo model, an optional schedule from its
/// family's table, and a ladder mesh.
fn random_case(rng: &mut Rng) -> (BuiltModel, Option<Schedule>, HardwareConfig, u64) {
    let batch = [1usize, 2, 4][rng.gen_range(3)];
    let mesh = Mesh::new([(BATCH, batch), (MODEL, 2)]).expect("mesh");
    let hw = HardwareConfig::tpu_v3_pod(mesh);
    let (model, schedule) = match rng.gen_range(4) {
        0 => {
            let m = partir_models::transformer::build_train_step(&TransformerConfig::tiny())
                .expect("transformer");
            let table = schedules::transformer_table2();
            let (_, s) = &table[rng.gen_range(table.len())];
            (m, Some(s.clone()))
        }
        1 => {
            let m = partir_models::itransformer::build_serving(&ITransformerConfig::tiny())
                .expect("itransformer");
            let table = schedules::itransformer_table2();
            let (_, s) = &table[rng.gen_range(table.len())];
            (m, Some(s.clone()))
        }
        2 => {
            let m = partir_models::gns::build_train_step(&GnsConfig::tiny()).expect("gns");
            let table = schedules::gns_table2();
            let (_, s) = &table[rng.gen_range(table.len())];
            (m, Some(s.clone()))
        }
        _ => {
            let m = partir_models::mlp::build_train_step(&MlpConfig::small()).expect("mlp");
            (m, None)
        }
    };
    let input_seed = rng.gen_range(1 << 16) as u64;
    (model, schedule, hw, input_seed)
}

#[test]
fn tracing_is_inert() {
    propcheck::check("obs::tracing_is_inert", 5, |rng| {
        let (model, schedule, hw, input_seed) = random_case(rng);
        let recording = Collector::recording();
        let traced = run_pipeline(&recording, &model, schedule.as_ref(), &hw, input_seed);
        let untraced = run_pipeline(
            &Collector::noop(),
            &model,
            schedule.as_ref(),
            &hw,
            input_seed,
        );
        if recording.num_events() == 0 {
            return Err("recording collector observed nothing".to_string());
        }
        if traced.part_fp != untraced.part_fp {
            return Err("partitioning fingerprints diverged".to_string());
        }
        if traced.func_fp != untraced.func_fp {
            return Err("program fingerprints diverged".to_string());
        }
        if traced.cost_bits != untraced.cost_bits {
            return Err("evaluation costs diverged (bitwise)".to_string());
        }
        if traced.outputs != untraced.outputs {
            return Err("threaded-runtime outputs diverged".to_string());
        }
        if traced.per_axis != untraced.per_axis {
            return Err("traffic stats diverged".to_string());
        }
        Ok(())
    });
}

/// Builds the MLP step with its standard schedule (batch tiled, one
/// layer Megatron-sharded) lowered onto `mesh`.
fn golden_program(model: &BuiltModel, mesh: Mesh) -> partir_spmd::SpmdProgram {
    let mut part = Partitioning::new(&model.func, mesh).expect("state");
    let params = model.func.params().to_vec();
    part.tile(&model.func, params[0], 0, &BATCH.into())
        .expect("tile");
    part.tile(&model.func, params[2], 1, &MODEL.into())
        .expect("tile");
    part.propagate(&model.func);
    partir_spmd::lower(&model.func, &part).expect("lower")
}

/// Compiles the golden subject under a fake-clock collector: MLP
/// tile+propagate+lower+fuse+evaluate on a 2×2 mesh, then a planned
/// runtime execution on a 1×1 mesh. The runtime section deliberately
/// uses the single-device mesh: the collectives survive lowering (so
/// the `device0` track carries `coll.start.N`/`coll.wait.N` spans and
/// every plan-step span in program order), but their schedules move no
/// messages, so no `rendezvous_wait` span — whose appearance depends on
/// OS scheduling — can ever occur, and the fake clock ticks per track,
/// making the whole trace byte-stable.
fn golden_trace_json() -> String {
    let collector = Collector::with_fake_clock(1_000);
    let model = partir_models::mlp::build_train_step(&MlpConfig::small()).expect("mlp");
    let mesh = Mesh::new([(BATCH, 2), (MODEL, 2)]).expect("mesh");
    let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
    with_track(&collector, "main", || {
        let mut part = Partitioning::new(&model.func, mesh).expect("state");
        let params = model.func.params().to_vec();
        part.tile(&model.func, params[0], 0, &BATCH.into())
            .expect("tile");
        part.tile(&model.func, params[2], 1, &MODEL.into())
            .expect("tile");
        part.propagate(&model.func);
        partir_sim::evaluate(&model.func, &part, &hw).expect("evaluate");
    });
    let single = Mesh::new([(BATCH, 1), (MODEL, 1)]).expect("mesh");
    let program = golden_program(&model, single);
    let inputs = partir_models::synthetic_inputs(&model, 7);
    with_track(&collector, "main", || {
        let plan = program.compile().expect("plan");
        program
            .execute_global_planned(&plan, &inputs, &RuntimeConfig::default())
            .expect("planned run");
    });
    let trace = collector.snapshot();
    trace.check_well_formed().expect("well-formed");
    trace.to_chrome_json()
}

#[test]
fn golden_mlp_profile_round_trips() {
    let got = golden_trace_json();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/mlp_profile.trace.json"
    );
    if std::env::var_os("OBS_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("update golden");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(
        got, want,
        "fake-clock trace diverged from the golden; if the change is \
         intentional, regenerate with OBS_UPDATE_GOLDEN=1"
    );
    // And it is reproducible within one process, byte for byte.
    assert_eq!(got, golden_trace_json());
}
