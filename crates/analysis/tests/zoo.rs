//! Analyzer over the model-zoo goldens: every Table 2 schedule on every
//! zoo model must lint **clean** — zero `Error`-severity diagnostics on
//! both the propagated partitioning and the lowered device program —
//! and the static peak-memory bound must dominate the simulated peak on
//! every model/mesh pair. This is the "no false positives" half of the
//! analyzer's contract (the mutation suite is the "no false negatives"
//! half).

use partir_analysis::{error_count, lint, static_peak_bound, PeakWalk};
use partir_mesh::{HardwareConfig, Mesh};
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::{
    gns::GnsConfig, itransformer::ITransformerConfig, mlp::MlpConfig,
    transformer::TransformerConfig, unet::UNetConfig,
};
use partir_sched::{partir_jit, Schedule};

type ZooEntry = (&'static str, partir_ir::Func, Vec<(&'static str, Schedule)>);

fn zoo() -> Vec<ZooEntry> {
    vec![
        (
            "transformer",
            partir_models::transformer::build_train_step(&TransformerConfig::tiny())
                .unwrap()
                .func,
            schedules::transformer_table2(),
        ),
        (
            "itransformer",
            partir_models::itransformer::build_serving(&ITransformerConfig::tiny())
                .unwrap()
                .func,
            schedules::itransformer_table2(),
        ),
        (
            "unet",
            partir_models::unet::build_train_step(&UNetConfig::tiny())
                .unwrap()
                .func,
            schedules::unet_table2(),
        ),
        (
            "gns",
            partir_models::gns::build_train_step(&GnsConfig::tiny())
                .unwrap()
                .func,
            schedules::gns_table2(),
        ),
        (
            "mlp",
            partir_models::mlp::build_train_step(&MlpConfig::small())
                .unwrap()
                .func,
            vec![(
                "BP",
                Schedule::new([partir_sched::ManualPartition::new("BP", BATCH)
                    .dim("x", 0)
                    .into()]),
            )],
        ),
    ]
}

fn meshes() -> Vec<Mesh> {
    vec![
        Mesh::new([(BATCH, 2)]).unwrap(),
        Mesh::new([(BATCH, 2), (MODEL, 2)]).unwrap(),
    ]
}

#[test]
fn zoo_goldens_lint_clean() {
    for (name, func, rows) in zoo() {
        for mesh in meshes() {
            let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
            for (label, schedule) in &rows {
                // Schedules addressing the model axis need it present.
                let needs_model = schedule.label().contains("MP")
                    || schedule.label().contains("EMB")
                    || schedule.label().contains("MQ");
                if needs_model && mesh.axes().len() < 2 {
                    continue;
                }
                let jitted = match partir_jit(&func, &hw, schedule) {
                    Ok(j) => j,
                    Err(e) => panic!("{name}/{label} on {mesh:?} failed to jit: {e}"),
                };
                let part_diags = lint::lint_partitioning(&func, &jitted.partitioning);
                assert_eq!(
                    error_count(&part_diags),
                    0,
                    "{name}/{label}: partitioning lint errors:\n{}",
                    lint::render(&part_diags)
                );
                let program = &jitted.program;
                let dev_diags = lint::lint_device_func(
                    program.func(),
                    program.mesh(),
                    Some(program.input_ctxs()),
                    Some(program.output_ctxs()),
                );
                assert_eq!(
                    error_count(&dev_diags),
                    0,
                    "{name}/{label}: device lint errors:\n{}",
                    lint::render(&dev_diags)
                );
            }
        }
    }
}

#[test]
fn static_bound_dominates_simulated_peak_across_zoo() {
    for (name, func, rows) in zoo() {
        // The unpartitioned program itself.
        let bound = static_peak_bound(&func, &PeakWalk::of(&func));
        let simulated = partir_sim::peak_memory_bytes(&func);
        assert!(
            bound >= simulated,
            "{name} (global): bound {bound} < simulated {simulated}"
        );
        // And every lowered device program.
        for mesh in meshes() {
            let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
            for (label, schedule) in &rows {
                let needs_model = schedule.label().contains("MP")
                    || schedule.label().contains("EMB")
                    || schedule.label().contains("MQ");
                if needs_model && mesh.axes().len() < 2 {
                    continue;
                }
                let jitted = partir_jit(&func, &hw, schedule).unwrap();
                let f = jitted.program.func();
                let bound = static_peak_bound(f, &PeakWalk::of(f));
                let simulated = partir_sim::peak_memory_bytes(f);
                assert!(
                    bound >= simulated,
                    "{name}/{label} on {mesh:?}: bound {bound} < simulated {simulated}"
                );
            }
        }
    }
}
