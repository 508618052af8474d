//! Baseline comparisons (the §7.4 story): PartIR's incremental schedules
//! versus the single-tactic ablation (PartIR-st) and the GSPMD-style
//! annotation-propagation baseline, on the conflict-heavy U-Net Z
//! schedules.
//!
//! A reproduction note: in this implementation the residual/backward
//! structure lets propagation *eventually* disambiguate most U-Net sites
//! even when all actions are applied at once, so PartIR-st rarely ends
//! with reported conflicts. It still loses what incrementality buys:
//! under BP+MP+Z3 it emits ~2× the gathers and is ~2× slower in the
//! simulator, and under BP+Z3 it Z-shards fewer tensors (fewer
//! reduce-scatters ⇒ more memory) — the Fig. 7 qualitative ordering.

use partir_gspmd::{gspmd_partition, GspmdOptions, InputSharding};
use partir_ir::interp::interpret;
use partir_mesh::{HardwareConfig, Mesh};
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::synthetic_inputs;
use partir_models::unet::UNetConfig;
use partir_sched::{partir_jit, partir_jit_single_tactic, Schedule};
use partir_sim::{SimConfig, Simulator};

fn paper_machine() -> HardwareConfig {
    HardwareConfig::tpu_v3_pod(Mesh::new([(BATCH, 8), (MODEL, 2)]).unwrap())
}

fn tiny_machine() -> HardwareConfig {
    HardwareConfig::tpu_v3_pod(Mesh::new([(BATCH, 2), (MODEL, 2)]).unwrap())
}

#[test]
fn single_tactic_is_slower_under_bp_mp_z3() {
    let model = partir_models::unet::build_train_step(&UNetConfig::paper()).unwrap();
    let hw = paper_machine();
    let schedule = Schedule::new([schedules::u_bp(), schedules::u_mp(), schedules::u_z3()]);

    let incremental = partir_jit(&model.func, &hw, &schedule).unwrap();
    let single = partir_jit_single_tactic(&model.func, &hw, &schedule).unwrap();

    let inc = incremental.program.stats();
    let st = single.program.stats();
    assert!(
        st.all_gather as f64 >= 1.5 * inc.all_gather as f64,
        "st gathers {} vs incremental {}",
        st.all_gather,
        inc.all_gather
    );
    let inc_rt = incremental.reports.last().unwrap().sim.runtime_s;
    let st_rt = single.reports[0].sim.runtime_s;
    assert!(
        st_rt > 1.3 * inc_rt,
        "st runtime {st_rt} vs incremental {inc_rt}"
    );
}

#[test]
fn single_tactic_under_shards_z3() {
    // Without BP-first prioritisation, fewer gradients end up
    // reduce-scattered, so the Z3 memory-sharding intent is missed.
    let model = partir_models::unet::build_train_step(&UNetConfig::paper()).unwrap();
    let hw = paper_machine();
    let schedule = Schedule::new([schedules::u_bp(), schedules::u_z3()]);
    let incremental = partir_jit(&model.func, &hw, &schedule).unwrap();
    let single = partir_jit_single_tactic(&model.func, &hw, &schedule).unwrap();
    assert!(
        single.program.stats().reduce_scatter < incremental.program.stats().reduce_scatter,
        "st {} vs incremental {}",
        single.program.stats().reduce_scatter,
        incremental.program.stats().reduce_scatter
    );
    assert!(
        single.reports[0].sim.peak_memory_bytes
            >= incremental.reports.last().unwrap().sim.peak_memory_bytes
    );
}

#[test]
fn single_tactic_remains_correct_at_tiny_scale() {
    let model = partir_models::unet::build_train_step(&UNetConfig::tiny()).unwrap();
    let hw = tiny_machine();
    let schedule = Schedule::new([schedules::u_bp(), schedules::u_mp(), schedules::u_z3()]);
    let incremental = partir_jit(&model.func, &hw, &schedule).unwrap();
    let single = partir_jit_single_tactic(&model.func, &hw, &schedule).unwrap();
    let inputs = synthetic_inputs(&model, 5);
    let reference = interpret(&model.func, &inputs).unwrap();
    for jitted in [&incremental, &single] {
        let out = jitted.program.execute_global(&inputs).unwrap();
        assert!(reference[0].max_abs_diff(&out[0]).unwrap() < 5e-3);
    }
}

/// The GSPMD-- seeding for a BP+MP+Z3-equivalent partition: every
/// annotation at once, conflicts left to the baseline's heuristics.
fn gspmd_annotations(model: &partir_models::BuiltModel, batch_size: usize) -> Vec<InputSharding> {
    let mut annotations = vec![InputSharding::tile("x", 0, BATCH)];
    for &p in model.func.params() {
        let name = model.func.value(p).name.clone().unwrap_or_default();
        let ty = model.func.value_type(p);
        if name.contains("conv1_w")
            || name.contains("attn_wq")
            || name.contains("attn_wk")
            || name.contains("attn_wv")
        {
            let d = if name.contains("conv1_w") { 0 } else { 1 };
            annotations.push(InputSharding::tile(&name, d, MODEL));
        }
        if name.starts_with("params.") || name.starts_with("opt.") {
            if let Some(dim) = (0..ty.rank()).find(|&d| ty.shape.dim(d).is_multiple_of(batch_size))
            {
                annotations.push(InputSharding::tile(&name, dim, BATCH));
            }
        }
    }
    annotations
}

#[test]
fn gspmd_minus_minus_is_noticeably_slower_than_partir() {
    // Fig. 7's headline: without internal annotations the heuristic
    // baseline produces programs that fit but are noticeably slower.
    let model = partir_models::unet::build_train_step(&UNetConfig::paper()).unwrap();
    let hw = paper_machine();
    let schedule = Schedule::new([schedules::u_bp(), schedules::u_mp(), schedules::u_z3()]);
    let partir = partir_jit(&model.func, &hw, &schedule).unwrap();

    let part = gspmd_partition(
        &model.func,
        hw.mesh.clone(),
        &gspmd_annotations(&model, 8),
        &GspmdOptions::default(),
    )
    .unwrap();
    let program = partir_spmd::lower(&model.func, &part).unwrap();
    let sim = Simulator::new(&hw, SimConfig::default());
    let partir_rt = sim.simulate(partir.program.func()).unwrap().runtime_s;
    let gspmd_rt = sim.simulate(program.func()).unwrap().runtime_s;
    assert!(
        gspmd_rt > 1.3 * partir_rt,
        "gspmd-- {gspmd_rt} vs partir {partir_rt}"
    );
    assert!(program.stats().all_gather > partir.program.stats().all_gather);
}

#[test]
fn gspmd_partition_is_correct_at_tiny_scale() {
    let model = partir_models::unet::build_train_step(&UNetConfig::tiny()).unwrap();
    let hw = tiny_machine();
    let part = gspmd_partition(
        &model.func,
        hw.mesh.clone(),
        &gspmd_annotations(&model, 2),
        &GspmdOptions::default(),
    )
    .unwrap();
    let program = partir_spmd::lower(&model.func, &part).unwrap();
    let inputs = synthetic_inputs(&model, 6);
    let reference = interpret(&model.func, &inputs).unwrap();
    let out = program.execute_global(&inputs).unwrap();
    assert!(reference[0].max_abs_diff(&out[0]).unwrap() < 5e-3);
}

#[test]
fn gspmd_propagation_leaves_no_conflicts() {
    let model = partir_models::unet::build_train_step(&UNetConfig::tiny()).unwrap();
    let hw = tiny_machine();
    let mut part = gspmd_partition(
        &model.func,
        hw.mesh.clone(),
        &gspmd_annotations(&model, 2),
        &GspmdOptions::default(),
    )
    .unwrap();
    let report = part.propagate(&model.func);
    assert!(report.conflicts.is_empty());
}
