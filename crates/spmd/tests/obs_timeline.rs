//! Timeline-vs-simulator conformance: the per-device byte counters the
//! observability layer records during a threaded execution must agree
//! exactly with the runtime's own [`RuntimeStats`] and with the static
//! traffic prediction (`predict_traffic`) — three independent tallies of
//! the same bytes (trace counters, per-device stats merged at join, and
//! the analytic mirror). Also asserts every recorded trace is
//! structurally well-formed: every span closed, no overlapping siblings
//! on one track.

use std::collections::BTreeMap;

use partir_core::Partitioning;
use partir_mesh::{Axis, HardwareConfig, Mesh};
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::{
    gns::GnsConfig, itransformer::ITransformerConfig, mlp::MlpConfig,
    transformer::TransformerConfig, unet::UNetConfig, BuiltModel,
};
use partir_obs::{with_track, Collector};
use partir_sched::{partir_jit, Schedule};
use partir_spmd::{RuntimeConfig, SpmdProgram};

/// The mesh ladder the suite sweeps: 1×2, 2×2, 4×2 (batch × model).
fn meshes() -> Vec<Mesh> {
    [1usize, 2, 4]
        .into_iter()
        .map(|b| Mesh::new([(BATCH, b), (MODEL, 2)]).unwrap())
        .collect()
}

/// Runs `program` traced and checks trace/stats/prediction agreement.
fn check_timeline(program: &SpmdProgram, model: &BuiltModel, label: &str) {
    let inputs = partir_models::synthetic_inputs(model, 321);
    let collector = Collector::recording();
    let (_, stats) = with_track(&collector, "main", || {
        program
            .execute_global_threaded(&inputs, &RuntimeConfig::default())
            .expect(label)
    });
    let trace = collector.snapshot();
    trace
        .check_well_formed()
        .unwrap_or_else(|e| panic!("{label}: {e}"));

    // Plan-level spans: the one-time compilation shows on the caller's
    // track, and every device track is made of plan-step spans (op
    // mnemonics plus `fused_eltwise` for fused chains), not op-by-op
    // interpreter frames.
    let main_track = trace
        .track("main")
        .unwrap_or_else(|| panic!("{label}: no main track"));
    assert_eq!(
        main_track.span_count("plan.compile"),
        1,
        "{label}: expected exactly one plan.compile span"
    );

    // Tally 1 vs tally 2: per-device trace counters vs the per-device
    // stats rows merged at join.
    let n = program.mesh().num_devices();
    assert_eq!(stats.per_device.len(), n, "{label}");
    for (d, dev) in stats.per_device.iter().enumerate() {
        let track = trace
            .track(&format!("device{d}"))
            .unwrap_or_else(|| panic!("{label}: no track for device {d}"));
        assert!(
            !track.spans.is_empty(),
            "{label}: device {d} recorded no plan-step spans"
        );
        assert_eq!(
            track.counter_total("runtime.send.bytes") as u64,
            dev.bytes,
            "{label}: device {d} traced bytes != stats bytes"
        );
        assert_eq!(
            track.counter_total("runtime.send.messages") as u64,
            dev.per_axis.values().map(|t| t.messages).sum::<u64>(),
            "{label}: device {d} traced messages != stats messages"
        );
        for (axis, traffic) in &dev.per_axis {
            // Per-axis traced bytes, summed below across devices.
            let traced = track.counter_total(&format!("runtime.send.bytes.{}", axis.name())) as u64;
            assert_eq!(
                traced,
                traffic.bytes,
                "{label}: device {d} axis {:?} traced bytes != stats",
                axis.name()
            );
        }
    }

    // Tally 1 vs tally 3: traced per-axis totals vs the static
    // prediction (which the runtime stats are already known to match —
    // see the conformance suite — so all three agree).
    let prediction = program.predicted_traffic().expect(label);
    assert!(
        stats.matches_prediction(&prediction),
        "{label}: executed traffic != prediction"
    );
    let mut traced_per_axis: BTreeMap<Axis, u64> = BTreeMap::new();
    for axis in stats.per_axis.keys() {
        traced_per_axis.insert(
            axis.clone(),
            trace.counter_grand_total(&format!("runtime.send.bytes.{}", axis.name())) as u64,
        );
    }
    for (axis, predicted) in &prediction.per_axis {
        assert_eq!(
            traced_per_axis.get(axis).copied().unwrap_or(0),
            predicted.bytes,
            "{label}: traced bytes on axis {:?} != predicted",
            axis.name()
        );
    }
}

/// Sweeps one scheduled model over the mesh ladder.
fn sweep(model: &BuiltModel, schedule: &Schedule, family: &str) {
    for mesh in meshes() {
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let label = format!("{family} on {} devices", mesh.num_devices());
        let jitted = partir_jit(&model.func, &hw, schedule).expect(&label);
        check_timeline(&jitted.program, model, &label);
    }
}

#[test]
fn transformer_timeline_conforms() {
    let model = partir_models::transformer::build_train_step(&TransformerConfig::tiny()).unwrap();
    let (_, schedule) = &schedules::transformer_table2()[0];
    sweep(&model, schedule, "T-tiny");
}

#[test]
fn itransformer_timeline_conforms() {
    let model = partir_models::itransformer::build_serving(&ITransformerConfig::tiny()).unwrap();
    let (_, schedule) = &schedules::itransformer_table2()[0];
    sweep(&model, schedule, "IT-tiny");
}

#[test]
fn unet_timeline_conforms() {
    let cfg = UNetConfig {
        batch: 8,
        ..UNetConfig::tiny()
    };
    let model = partir_models::unet::build_train_step(&cfg).unwrap();
    let (_, schedule) = &schedules::unet_table2()[0];
    sweep(&model, schedule, "UNet-tiny");
}

#[test]
fn gns_timeline_conforms() {
    let model = partir_models::gns::build_train_step(&GnsConfig::tiny()).unwrap();
    let (_, schedule) = &schedules::gns_table2()[0];
    sweep(&model, schedule, "GNS-tiny");
}

#[test]
fn mlp_timeline_conforms() {
    for mesh in meshes() {
        let model = partir_models::mlp::build_train_step(&MlpConfig::small()).unwrap();
        let mut part = Partitioning::new(&model.func, mesh.clone()).unwrap();
        let params = model.func.params().to_vec();
        part.tile(&model.func, params[0], 0, &BATCH.into()).unwrap();
        part.tile(&model.func, params[2], 1, &MODEL.into()).unwrap();
        part.propagate(&model.func);
        let program = partir_spmd::lower(&model.func, &part).unwrap();
        let label = format!("MLP on {} devices", mesh.num_devices());
        check_timeline(&program, &model, &label);
    }
}
