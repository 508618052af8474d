//! Regenerates **Figure 7**: relative slowdown versus PartIR (higher is
//! worse) for the U-Net on a `{batch: 8, model: 2}` mesh, comparing
//! PartIR, PartIR-st (all tactics amalgamated into one), GSPMD (expert
//! constraints applied in priority stages) and GSPMD-- (all annotations
//! at once, heuristic conflict resolution).
//!
//! Run with: `cargo run --release -p partir-bench --bin fig7 [--json]`

use partir_bench::{emit, tpu_mesh, Row};
use partir_gspmd::{gspmd_partition, heuristic_propagate, GspmdOptions, InputSharding};
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::unet::UNetConfig;
use partir_models::BuiltModel;
use partir_sched::{partir_jit, partir_jit_single_tactic, Schedule, Tactic};
use partir_sim::{SimConfig, Simulator};

/// Annotation groups equivalent to the tactic sequence; GSPMD applies
/// them staged (expert constraints), GSPMD-- all at once.
fn annotation_groups(model: &BuiltModel, tactics: &[&str]) -> Vec<Vec<InputSharding>> {
    let mut groups = Vec::new();
    for &tactic in tactics {
        let mut group = Vec::new();
        match tactic {
            "BP" => group.push(InputSharding::tile("x", 0, BATCH)),
            "MP" => {
                for &p in model.func.params() {
                    let name = model.func.value(p).name.clone().unwrap_or_default();
                    if name.contains("conv1_w") {
                        group.push(InputSharding::tile(&name, 0, MODEL));
                    } else if name.contains("attn_wq")
                        || name.contains("attn_wk")
                        || name.contains("attn_wv")
                    {
                        group.push(InputSharding::tile(&name, 1, MODEL));
                    }
                }
            }
            "Z2" | "Z3" => {
                for &p in model.func.params() {
                    let name = model.func.value(p).name.clone().unwrap_or_default();
                    let shard_params = tactic == "Z3";
                    let is_param = name.starts_with("params.");
                    let is_opt = name.starts_with("opt.");
                    if (is_param && shard_params) || is_opt {
                        let ty = model.func.value_type(p);
                        if let Some(dim) =
                            (0..ty.rank()).find(|&d| ty.shape.dim(d).is_multiple_of(8))
                        {
                            group.push(InputSharding::tile(&name, dim, BATCH));
                        }
                    }
                }
            }
            other => panic!("unknown tactic {other}"),
        }
        groups.push(group);
    }
    groups
}

fn partir_tactic(name: &str) -> Tactic {
    match name {
        "BP" => schedules::u_bp(),
        "MP" => schedules::u_mp(),
        "Z2" => schedules::u_z2(),
        "Z3" => schedules::u_z3(),
        other => panic!("unknown tactic {other}"),
    }
}

fn main() {
    let model = partir_models::unet::build_train_step(&UNetConfig::paper()).expect("UNet");
    let hw = tpu_mesh(8, 2);
    let sim = Simulator::new(&hw, SimConfig::default());
    let mut rows = Vec::new();

    for tactics in [
        vec!["BP", "Z2"],
        vec!["BP", "Z3"],
        vec!["BP", "MP", "Z2"],
        vec!["BP", "MP", "Z3"],
    ] {
        let label = tactics.join("+");
        let schedule = Schedule::new(tactics.iter().map(|t| partir_tactic(t)));

        // PartIR (reference).
        let partir = partir_jit(&model.func, &hw, &schedule).expect("partir");
        let partir_rt = sim
            .simulate(partir.program.func())
            .expect("simulate")
            .runtime_s;
        let mut push = |system: &str, runtime: f64, mem: u64| {
            rows.push(
                Row::new("fig7", &label, system)
                    .metric("slowdown", runtime / partir_rt)
                    .metric("runtime_ms", runtime * 1e3)
                    .metric("mem_MiB", mem as f64 / (1 << 20) as f64),
            );
        };
        let partir_mem = sim
            .simulate(partir.program.func())
            .expect("simulate")
            .peak_memory_bytes;
        push("PartIR", partir_rt, partir_mem);

        // PartIR-st.
        let st = partir_jit_single_tactic(&model.func, &hw, &schedule).expect("st");
        let st_report = sim.simulate(st.program.func()).expect("simulate");
        push(
            "PartIR-st",
            st_report.runtime_s,
            st_report.peak_memory_bytes,
        );

        // GSPMD: staged expert constraints.
        let groups = annotation_groups(&model, &tactics);
        let mut part = partir_core::Partitioning::new(&model.func, hw.mesh.clone())
            .expect("fresh partitioning");
        for group in &groups {
            for ann in group {
                if let Some(v) = model.func.value_by_name(&ann.name) {
                    let _ = part.tile(&model.func, v, ann.dim, &ann.axis);
                }
            }
            heuristic_propagate(&model.func, &mut part);
        }
        let program = partir_spmd::lower(&model.func, &part).expect("lower");
        let report = sim.simulate(program.func()).expect("simulate");
        push("GSPMD", report.runtime_s, report.peak_memory_bytes);

        // GSPMD--: everything at once.
        let flat: Vec<InputSharding> = groups.into_iter().flatten().collect();
        let part = gspmd_partition(
            &model.func,
            hw.mesh.clone(),
            &flat,
            &GspmdOptions::default(),
        )
        .expect("gspmd--");
        let program = partir_spmd::lower(&model.func, &part).expect("lower");
        let report = sim.simulate(program.func()).expect("simulate");
        push("GSPMD--", report.runtime_s, report.peak_memory_bytes);
    }

    emit(&rows);
}
