//! `partir-lint` — the static SPMD legality & resource linter.
//!
//! Three modes:
//!
//! * `partir-lint [--mesh batch=2,model=2] FILE...` — parse each textual
//!   IR file and lint it against the mesh. Parse failures are reported
//!   with line/column positions.
//! * `partir-lint [--smoke]` — no files: sweep the model zoo. Every
//!   Table 2 schedule is applied to every zoo model on each benchmark
//!   mesh; the propagated partitioning and the lowered device program
//!   (plus its fused form) are linted. `--smoke` trims the sweep for CI.
//! * `partir-lint --plans [--smoke]` — compile every zoo model ×
//!   schedule on the 1×2/2×2/4×2 mesh ladder into a [`partir_spmd::CompiledPlan`]
//!   (both overlapped and blocking) and run the plan-level translation
//!   validator ([`partir_analysis::plan`]): happens-before races,
//!   arena-lifetime disjointness, and cross-device rendezvous
//!   linearisation. A cell whose program holds an op the plan compiler
//!   refuses (no kernel for the op or its operand dtype) fails with
//!   `error[plan]`.
//!
//! Prints every diagnostic (severity, rule, op path, message), worst
//! first. By default the exit code is non-zero iff any
//! `Error`-severity diagnostic was produced; `--deny [SEVERITY]`
//! lowers that gate (`--deny` alone fails on *any* diagnostic,
//! `--deny warning` on warnings and errors) so CI can gate on the
//! sweep without grepping output.
//!
//! Run with: `cargo run --release -p partir-bench --bin partir-lint`

use std::process::ExitCode;

use partir_analysis::{lint, Severity};
use partir_mesh::{HardwareConfig, Mesh};
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::{
    gns::GnsConfig,
    itransformer::{ITransformerConfig, ServingConfig},
    transformer::TransformerConfig,
    unet::UNetConfig,
};
use partir_sched::{partir_jit, Schedule};
use partir_spmd::PlanOptions;

fn parse_mesh(spec: &str) -> Mesh {
    let axes: Vec<(String, usize)> = spec
        .split(',')
        .map(|part| {
            let (name, size) = part
                .split_once('=')
                .unwrap_or_else(|| panic!("bad mesh axis {part:?}; expected name=size"));
            let size: usize = size
                .parse()
                .unwrap_or_else(|_| panic!("bad mesh axis size in {part:?}"));
            (name.to_string(), size)
        })
        .collect();
    Mesh::new(axes).expect("valid mesh")
}

/// Lints one unit of work and prints its diagnostics; returns the
/// number of findings at or above the `deny` severity gate.
fn report(label: &str, diags: &[partir_analysis::Diagnostic], deny: Severity) -> usize {
    let denied = diags.iter().filter(|d| d.severity >= deny).count();
    let worst = diags.iter().map(|d| d.severity).max();
    if diags.is_empty() || worst == Some(Severity::Info) {
        println!("ok    {label}");
    } else {
        println!("check {label}");
    }
    for d in diags {
        // Info diagnostics (e.g. the memory bound) stay quiet unless
        // something else is worth looking at, to keep zoo sweeps readable
        // — unless the gate itself denies Info.
        if d.severity > Severity::Info || worst > Some(Severity::Info) || deny == Severity::Info {
            println!("      {d}");
        }
    }
    denied
}

fn lint_files(files: &[String], mesh: &Mesh, deny: Severity) -> usize {
    let mut denied = 0;
    for path in files {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let diags = lint::lint_source(&text, mesh);
                denied += report(path, &diags, deny);
            }
            Err(e) => {
                println!("check {path}\n      error[io] {e}");
                denied += 1;
            }
        }
    }
    denied
}

type ZooEntry = (&'static str, partir_ir::Func, Vec<(&'static str, Schedule)>);

fn zoo(smoke: bool) -> Vec<ZooEntry> {
    let mut models = vec![
        (
            "transformer",
            partir_models::transformer::build_train_step(&TransformerConfig::tiny())
                .expect("transformer builds")
                .func,
            schedules::transformer_table2(),
        ),
        (
            "itransformer",
            partir_models::itransformer::build_serving(&ITransformerConfig::tiny())
                .expect("itransformer builds")
                .func,
            schedules::itransformer_table2(),
        ),
    ];
    if !smoke {
        models.push((
            "unet",
            partir_models::unet::build_train_step(&UNetConfig::tiny())
                .expect("unet builds")
                .func,
            schedules::unet_table2(),
        ));
        models.push((
            "gns",
            partir_models::gns::build_train_step(&GnsConfig::tiny())
                .expect("gns builds")
                .func,
            schedules::gns_table2(),
        ));
    }
    models
}

fn lint_zoo(smoke: bool, deny: Severity) -> usize {
    let meshes = if smoke {
        vec![Mesh::new([(BATCH, 2), (MODEL, 2)]).expect("mesh")]
    } else {
        // Tiny zoo configs have batch=2, so batch axes stay at 2.
        vec![
            Mesh::new([(BATCH, 2)]).expect("mesh"),
            Mesh::new([(BATCH, 2), (MODEL, 2)]).expect("mesh"),
        ]
    };
    let mut denied = 0;
    for (name, func, rows) in zoo(smoke) {
        for mesh in &meshes {
            let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
            for (schedule_label, schedule) in &rows {
                let needs_model = schedule_label.contains("MP")
                    || schedule_label.contains("EMB")
                    || schedule_label.contains("MQ");
                if needs_model && mesh.axes().len() < 2 {
                    continue;
                }
                let label = format!(
                    "{name}/{schedule_label} on {}",
                    mesh.axes()
                        .iter()
                        .map(|(a, s)| format!("{a}={s}"))
                        .collect::<Vec<_>>()
                        .join(",")
                );
                let jitted = match partir_jit(&func, &hw, schedule) {
                    Ok(j) => j,
                    Err(e) => {
                        println!("check {label}\n      error[jit] {e}");
                        denied += 1;
                        continue;
                    }
                };
                denied += report(
                    &format!("{label} (partitioning)"),
                    &lint::lint_partitioning(&func, &jitted.partitioning),
                    deny,
                );
                let program = &jitted.program;
                denied += report(
                    &format!("{label} (device program)"),
                    &lint::lint_device_func(
                        program.func(),
                        program.mesh(),
                        Some(program.input_ctxs()),
                        Some(program.output_ctxs()),
                    ),
                    deny,
                );
                match program.fused() {
                    Ok(fused) => {
                        denied += report(
                            &format!("{label} (fused)"),
                            &lint::lint_device_func(
                                fused.func(),
                                fused.mesh(),
                                Some(fused.input_ctxs()),
                                Some(fused.output_ctxs()),
                            ),
                            deny,
                        );
                    }
                    Err(e) => {
                        println!("check {label} (fused)\n      error[fuse] {e}");
                        denied += 1;
                    }
                }
            }
        }
    }
    denied
}

/// The `--plans` sweep: every zoo model × schedule on the conformance
/// mesh ladder (1×2, 2×2, 4×2), compiled both overlapped and blocking,
/// pushed through the plan-level translation validator.
fn lint_plans(smoke: bool, deny: Severity) -> usize {
    let meshes: Vec<Mesh> = [1usize, 2, 4]
        .into_iter()
        .map(|b| Mesh::new([(BATCH, b), (MODEL, 2)]).expect("mesh"))
        .collect();
    let mut models = vec![
        (
            "transformer",
            partir_models::transformer::build_train_step(&TransformerConfig::tiny())
                .expect("transformer builds")
                .func,
            schedules::transformer_table2(),
        ),
        (
            "itransformer",
            partir_models::itransformer::build_serving(&ITransformerConfig::tiny())
                .expect("itransformer builds")
                .func,
            schedules::itransformer_table2(),
        ),
        // The serving-shaped decode step: same weights and schedules,
        // but a [slots]-batched single position over the KV-cache slot
        // arena — the plan the serving engine runs every step.
        (
            "itransformer-serve",
            partir_models::itransformer::build_decode_step(&ServingConfig::tiny())
                .expect("decode step builds")
                .func,
            schedules::itransformer_table2(),
        ),
    ];
    if !smoke {
        // Batch 8 so the batch axis tiles on every mesh of the ladder.
        let unet_cfg = UNetConfig {
            batch: 8,
            ..UNetConfig::tiny()
        };
        models.push((
            "unet",
            partir_models::unet::build_train_step(&unet_cfg)
                .expect("unet builds")
                .func,
            schedules::unet_table2(),
        ));
        models.push((
            "gns",
            partir_models::gns::build_train_step(&GnsConfig::tiny())
                .expect("gns builds")
                .func,
            schedules::gns_table2(),
        ));
    }
    let options = [
        ("overlapped", PlanOptions::default()),
        ("blocking", PlanOptions::blocking()),
    ];
    let mut denied = 0;
    for (name, func, rows) in models {
        for mesh in &meshes {
            let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
            let mesh_label: Vec<String> = mesh.axes().iter().map(|(_, s)| s.to_string()).collect();
            for (schedule_label, schedule) in &rows {
                let label = format!("{name}/{schedule_label} on {}", mesh_label.join("x"));
                let jitted = match partir_jit(&func, &hw, schedule) {
                    Ok(j) => j,
                    Err(e) => {
                        println!("check {label}\n      error[jit] {e}");
                        denied += 1;
                        continue;
                    }
                };
                for (opt_label, opts) in &options {
                    match jitted.program.compile_with(opts) {
                        Ok(plan) => {
                            denied += report(
                                &format!("{label} (plan {opt_label})"),
                                &plan.verify(),
                                deny,
                            );
                        }
                        Err(e) => {
                            println!("check {label} (plan {opt_label})\n      error[plan] {e}");
                            denied += 1;
                        }
                    }
                }
            }
        }
    }
    denied
}

fn main() -> ExitCode {
    let mut files = Vec::new();
    let mut mesh_spec = format!("{BATCH}=2,{MODEL}=2");
    let mut smoke = false;
    let mut plans = false;
    let mut deny = Severity::Error;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "--smoke" => smoke = true,
            "--plans" => plans = true,
            "--mesh" => {
                i += 1;
                mesh_spec = raw.get(i).expect("--mesh needs a value").clone();
            }
            "--deny" => {
                // Optional value: bare `--deny` fails on any diagnostic.
                deny = match raw.get(i + 1).map(String::as_str) {
                    Some("info") => {
                        i += 1;
                        Severity::Info
                    }
                    Some("warning") => {
                        i += 1;
                        Severity::Warning
                    }
                    Some("error") => {
                        i += 1;
                        Severity::Error
                    }
                    _ => Severity::Info,
                };
            }
            "--help" | "-h" => {
                println!(
                    "usage: partir-lint [--smoke] [--plans] [--deny [info|warning|error]] \
                     [--mesh name=size,...] [FILE...]"
                );
                return ExitCode::SUCCESS;
            }
            other => files.push(other.to_string()),
        }
        i += 1;
    }

    let denied = if plans {
        lint_plans(smoke, deny)
    } else if files.is_empty() {
        lint_zoo(smoke, deny)
    } else {
        lint_files(&files, &parse_mesh(&mesh_spec), deny)
    };
    if denied > 0 {
        eprintln!("partir-lint: {denied} denied diagnostic(s) at or above --deny {deny}");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
