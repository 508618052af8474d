//! Quickstart: the paper's §2.3 walk-through on the two-matmul chain.
//!
//! Builds Listing 1, applies the Listing 6 schedule (BP, MP, Z3) tactic
//! by tactic, and prints after each step what the paper's listings show:
//! the PartIR:Core view, the collectives of the lowered SPMD program and
//! the cost estimates (the static objective's before the last tactic,
//! the simulator's for the final program). Finishes by executing the
//! program on the
//! simulated mesh and checking it against the single-device reference.
//!
//! Run with: `cargo run -p partir-bench --example quickstart`

use partir_ir::{interp::interpret, Literal, TensorType};
use partir_mesh::{HardwareConfig, Mesh};
use partir_models::mlp::matmul_chain;
use partir_sched::{partir_jit, ManualPartition, Schedule};
use partir_sim::{SimConfig, Simulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Listing 1: f(x, w1, w2) = (x @ w1) @ w2 on a {B:4, M:2} mesh.
    let func = matmul_chain(256, 8, 16, 8);
    let mesh = Mesh::new([("B", 4), ("M", 2)])?;
    let hw = HardwareConfig::tpu_v3_pod(mesh.clone());

    println!("== Unpartitioned module (Listing 2) ==");
    println!("{}", partir_ir::print::print_func(&func));

    // Listing 6: the schedule is a sequence of tactics.
    let schedule = Schedule::new([
        ManualPartition::new("BP", "B").dim("x", 0).into(),
        ManualPartition::new("MP", "M").dim("w1", 1).into(),
        ManualPartition::new("Z3", "B")
            .dim("w1", 0)
            .dim("w2", 1)
            .into(),
    ]);
    let jitted = partir_jit(&func, &hw, &schedule)?;

    println!("== Incremental feedback after every tactic ==");
    for report in &jitted.reports {
        println!(
            "  after {:<4}  collectives [{}]  est. step {:>9.3} µs  peak mem {:>8} B  ({:?})",
            report.tactic,
            report.stats,
            report.sim.runtime_s * 1e6,
            report.sim.peak_memory_bytes,
            report.source,
        );
    }

    println!("\n== PartIR:Core view of the final partitioning (§5) ==");
    println!(
        "{}",
        partir_core::print::print_core(&func, &jitted.partitioning)
    );

    println!("== Device-local SPMD program (Listing 5) ==");
    println!("{}", jitted.program.to_text());

    // Execute on all 8 simulated devices and compare with the reference.
    let inputs = vec![
        Literal::ones(&TensorType::f32([256, 8])),
        Literal::filled(&TensorType::f32([8, 16]), 0.5),
        Literal::filled(&TensorType::f32([16, 8]), 0.25),
    ];
    let reference = interpret(&func, &inputs)?;
    let spmd = jitted.program.execute_global(&inputs)?;
    let diff = reference[0].max_abs_diff(&spmd[0])?;
    println!("max |reference - spmd| = {diff:e}");
    assert!(diff < 1e-3);

    let report = Simulator::new(&hw, SimConfig::default()).simulate(jitted.program.func())?;
    println!(
        "analytical estimate: {:.3} µs compute + {:.3} µs communication",
        report.compute_s * 1e6,
        report.comm_s * 1e6
    );
    println!("quickstart OK");
    Ok(())
}
