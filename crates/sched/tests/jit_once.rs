//! `partir_jit` lowers the final state once and feeds that program to the
//! last tactic's report through the cache. What it returns must be what
//! the two-lowering composition returned — per tactic `EvalCache::evaluate`
//! (lower + fuse + simulate, program dropped), then `lower` + `fused`
//! again — on the four `compile_zoo` benchmark cells (all-manual
//! schedules: the last report is a cache miss) and on one schedule ending
//! in a search (the last report is a cache hit).

use partir_core::Partitioning;
use partir_ir::{Fingerprint, Func};
use partir_mesh::{HardwareConfig, Mesh};
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::{gns, itransformer, transformer, unet};
use partir_sched::{
    partir_jit, partir_jit_single_tactic, CacheStats, EvalCache, Schedule, StaticSearch, Tactic,
};
use partir_sim::SimReport;
use partir_spmd::{lower, CollectiveStats};

/// A `TacticReport` without its wall-clock column.
type Row = (String, usize, usize, usize, CollectiveStats, SimReport);

fn rows(jitted: &partir_sched::Jitted) -> Vec<Row> {
    let row = |r: &partir_sched::TacticReport| {
        (
            r.tactic.clone(),
            r.actions,
            r.rewrites,
            r.conflicts,
            r.stats,
            r.sim,
        )
    };
    jitted.reports.iter().map(row).collect()
}

/// The composition `partir_jit` replaced: every tactic's state evaluated
/// from scratch, the final state lowered a second time.
fn two_lowerings(
    func: &Func,
    hw: &HardwareConfig,
    schedule: &Schedule,
) -> (Fingerprint, Fingerprint, Vec<Row>, CacheStats) {
    let mut part = Partitioning::new(func, hw.mesh.clone()).unwrap();
    let cache = EvalCache::new();
    let mut rows = Vec::new();
    for tactic in schedule.tactics() {
        let actions = match tactic {
            Tactic::Manual(m) => m.apply(func, &mut part).unwrap(),
            Tactic::Auto(a) => a.apply_with_cache(func, hw, &mut part, &cache).unwrap(),
            Tactic::Static(s) => s.apply_with_cache(func, hw, &mut part, &cache).unwrap(),
        };
        let report = part.propagate(func);
        let eval = cache.evaluate(func, &part, hw).unwrap();
        rows.push((
            tactic.name().to_string(),
            actions,
            report.applied,
            report.conflicts.len(),
            eval.stats,
            eval.sim,
        ));
    }
    let program = lower(func, &part).unwrap().fused().unwrap();
    (
        program.func().fingerprint(),
        part.fingerprint(),
        rows,
        cache.stats(),
    )
}

fn assert_same(name: &str, func: &Func, hw: &HardwareConfig, schedule: &Schedule) {
    let jitted = partir_jit(func, hw, schedule).unwrap();
    let (program, part, reports, cache) = two_lowerings(func, hw, schedule);
    assert_eq!(jitted.program.func().fingerprint(), program, "{name}");
    assert_eq!(jitted.partitioning.fingerprint(), part, "{name}");
    assert_eq!(rows(&jitted), reports, "{name}");
    assert_eq!(jitted.cache, cache, "{name}");
}

fn table_row(rows: Vec<(&'static str, Schedule)>, label: &str) -> Schedule {
    let row = rows.into_iter().find(|(l, _)| *l == label);
    row.unwrap_or_else(|| panic!("no schedule row {label}")).1
}

fn hw(batch: usize, model: usize) -> HardwareConfig {
    HardwareConfig::tpu_v3_pod(Mesh::new([(BATCH, batch), (MODEL, model)]).unwrap())
}

#[test]
fn compile_zoo_cells_jit_as_before() {
    let hw = hw(2, 2);
    let t_cfg = transformer::TransformerConfig {
        layers: 4,
        ..transformer::TransformerConfig::t32()
    };
    let t = transformer::build_train_step(&t_cfg).unwrap().func;
    let t_schedule = table_row(schedules::transformer_table2(), "BP+MP+Z3+EMB");
    assert_same("T/BP+MP+Z3+EMB", &t, &hw, &t_schedule);
    assert_same(
        "UNet/BP+Z3",
        &unet::build_train_step(&unet::UNetConfig::paper())
            .unwrap()
            .func,
        &hw,
        &table_row(schedules::unet_table2(), "BP+Z3"),
    );
    assert_same(
        "GNS/ES",
        &gns::build_train_step(&gns::GnsConfig::paper())
            .unwrap()
            .func,
        &hw,
        &table_row(schedules::gns_table2(), "ES"),
    );
    assert_same(
        "IT32-decode/BP+MP+MQ",
        &itransformer::build_decode_step(&itransformer::ServingConfig::it32())
            .unwrap()
            .func,
        &hw,
        &table_row(schedules::itransformer_table2(), "BP+MP+MQ"),
    );

    // The single-tactic ablation takes the same route to its one report.
    let single = partir_jit_single_tactic(&t, &hw, &t_schedule).unwrap();
    let mut part = Partitioning::new(&t, hw.mesh.clone()).unwrap();
    for tactic in t_schedule.tactics() {
        let Tactic::Manual(m) = tactic else {
            panic!("table 2 rows are manual")
        };
        m.apply(&t, &mut part).unwrap();
    }
    part.propagate(&t);
    let eval = partir_sim::evaluate(&t, &part, &hw).unwrap();
    let program = lower(&t, &part).unwrap().fused().unwrap();
    assert_eq!(
        single.program.func().fingerprint(),
        program.func().fingerprint()
    );
    assert_eq!(single.reports[0].stats, eval.stats);
    assert_eq!(single.reports[0].sim, eval.sim);
    assert_eq!((single.cache.hits, single.cache.misses), (0, 1));
}

#[test]
fn schedule_ending_in_a_search_jits_as_before() {
    let func = transformer::build_train_step(&transformer::TransformerConfig::tiny())
        .unwrap()
        .func;
    let schedule = Schedule::new([
        schedules::t_bp(),
        StaticSearch::new("Static", [MODEL]).into(),
    ]);
    assert_same("tiny T/BP+Static", &func, &hw(2, 2), &schedule);
}
