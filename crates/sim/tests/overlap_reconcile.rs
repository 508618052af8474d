//! Measured-vs-predicted overlap reconciliation on the model zoo.
//!
//! For each zoo case: compile the overlapped plan, run it traced on the
//! threaded runtime, read the *measured* overlap off the device
//! timelines (work between each collective's `coll.start` and
//! `coll.wait` spans), and reconcile against
//!
//! 1. the plan's own collective windows — must agree **exactly**: the
//!    runtime executes the plan's step list in order, so steps sit
//!    between start and wait on the trace iff the plan put them there;
//! 2. the plan walk ([`measure_overlap`]) — must agree within
//!    [`TOLERANCE`]: the walk reads the same compiled plan, so each
//!    collective's start and wait sit where the trace shows them, but
//!    it predicts overlap only where the collective's modelled link time
//!    hides under compute. A collective that costs nothing on the link
//!    (an `all_slice`) has steps inside its window on the trace and
//!    hides no time in the walk.

use partir_core::Partitioning;
use partir_mesh::{HardwareConfig, Mesh};
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::{
    gns::GnsConfig, itransformer::ITransformerConfig, mlp::MlpConfig,
    transformer::TransformerConfig, BuiltModel,
};
use partir_obs::{with_track, Collector};
use partir_sched::{partir_jit, Schedule};
use partir_sim::event::measure_overlap;
use partir_sim::reconcile_overlap;
use partir_spmd::{RuntimeConfig, SpmdProgram};

/// Stated tolerance for event-model vs measured overlap agreement: the
/// sign (overlapped or not) must match on at least this fraction of
/// collectives, aggregated over the zoo.
const TOLERANCE: f64 = 0.35;

fn zoo_cases() -> Vec<(&'static str, BuiltModel, Option<Schedule>)> {
    let mut cases = Vec::new();
    let t = partir_models::transformer::build_train_step(&TransformerConfig::tiny())
        .expect("transformer");
    let (_, s) = &schedules::transformer_table2()[0];
    cases.push(("transformer", t, Some(s.clone())));
    let i = partir_models::itransformer::build_serving(&ITransformerConfig::tiny())
        .expect("itransformer");
    let (_, s) = &schedules::itransformer_table2()[0];
    cases.push(("itransformer", i, Some(s.clone())));
    let g = partir_models::gns::build_train_step(&GnsConfig::tiny()).expect("gns");
    let (_, s) = &schedules::gns_table2()[0];
    cases.push(("gns", g, Some(s.clone())));
    let m = partir_models::mlp::build_train_step(&MlpConfig::small()).expect("mlp");
    cases.push(("mlp", m, None));
    cases
}

fn build_program(
    model: &BuiltModel,
    schedule: Option<&Schedule>,
    hw: &HardwareConfig,
) -> SpmdProgram {
    match schedule {
        Some(s) => partir_jit(&model.func, hw, s).expect("jit").program,
        None => {
            let mut part = Partitioning::new(&model.func, hw.mesh.clone()).expect("state");
            let params = model.func.params().to_vec();
            part.tile(&model.func, params[0], 0, &BATCH.into())
                .expect("tile");
            part.tile(&model.func, params[2], 1, &MODEL.into())
                .expect("tile");
            part.propagate(&model.func);
            partir_spmd::lower(&model.func, &part).expect("lower")
        }
    }
}

#[test]
fn measured_overlap_reconciles_with_plan_and_event_model() {
    let mesh = Mesh::new([(BATCH, 2), (MODEL, 2)]).expect("mesh");
    let hw = HardwareConfig::tpu_v3_pod(mesh);
    let mut total = 0usize;
    let mut model_agree = 0.0f64;
    let mut cases_with_overlap = 0usize;
    for (name, model, schedule) in zoo_cases() {
        let program = build_program(&model, schedule.as_ref(), &hw);
        let plan = program.compile().expect("compile");
        if plan.num_collectives() == 0 {
            continue;
        }
        let (_, prediction) = measure_overlap(&plan, program.func(), &hw).expect("event model");
        let collector = Collector::recording();
        let inputs = partir_models::synthetic_inputs(&model, 7);
        with_track(&collector, "main", || {
            program
                .execute_global_planned(&plan, &inputs, &RuntimeConfig::default())
                .expect("threaded run");
        });
        let trace = collector.snapshot();
        let rec = reconcile_overlap(plan.collective_windows(), &prediction, &trace);
        assert!(
            !rec.per_collective.is_empty(),
            "{name}: no collective spans found on device tracks"
        );
        // The trace must agree exactly with the plan's windows: the
        // runtime executes the plan's reordered step list verbatim.
        assert_eq!(
            rec.plan_agreement(),
            1.0,
            "{name}: measured overlap diverged from plan windows: {:?}",
            rec.per_collective
        );
        if rec.per_collective.iter().any(|c| c.measured()) {
            cases_with_overlap += 1;
        }
        model_agree += rec.model_agreement() * rec.per_collective.len() as f64;
        total += rec.per_collective.len();
    }
    assert!(total > 0, "zoo produced no traced collectives");
    let aggregate = model_agree / total as f64;
    assert!(
        aggregate >= 1.0 - TOLERANCE,
        "event-model overlap agreement {aggregate:.2} below {:.2} over {total} collectives",
        1.0 - TOLERANCE
    );
    assert!(
        cases_with_overlap > 0,
        "no zoo case showed any measured overlap"
    );
}

/// The overlap pass keeps paying off at benchmark scale: on the T-train
/// step (the `train_step` benchmark's model at batch 64) under BP+MP+Z3
/// on 2×2, the overlapped plan hoists some collective window open and
/// the event model predicts collective time hidden behind compute for
/// one of those hoisted collectives. Compiles only; runs nothing.
#[test]
fn overlap_hides_collective_time_at_benchmark_scale() {
    let model = partir_models::transformer::build_train_step(&TransformerConfig {
        layers: 2,
        d_model: 32,
        heads: 2,
        d_ff: 128,
        vocab: 64,
        seq: 32,
        batch: 64,
    })
    .expect("transformer");
    let mesh = Mesh::new([(BATCH, 2), (MODEL, 2)]).expect("mesh");
    let hw = HardwareConfig::tpu_v3_pod(mesh);
    let (_, schedule) = schedules::transformer_table2()
        .into_iter()
        .find(|(label, _)| *label == "BP+MP+Z3")
        .expect("BP+MP+Z3 row");
    let program = build_program(&model, Some(&schedule), &hw);
    let plan = program.compile().expect("compile");
    let (_, prediction) = measure_overlap(&plan, program.func(), &hw).expect("event model");
    let hoisted: Vec<u32> = plan
        .collective_windows()
        .iter()
        .filter(|w| w.gap_steps > 0)
        .map(|w| w.tag)
        .collect();
    assert!(!hoisted.is_empty(), "BP+MP+Z3 hoisted no collective window");
    assert!(prediction.hidden_s() > 0.0, "event model hides no time");
    assert!(
        prediction
            .collectives
            .iter()
            .any(|c| c.hidden_s > 0.0 && hoisted.contains(&c.index)),
        "no hoisted window hides collective time: hoisted {hoisted:?}"
    );
}
