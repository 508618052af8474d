//! `partir-lint` — the static SPMD legality & resource linter.
//!
//! Three modes:
//!
//! * `partir-lint [--mesh batch=2,model=2] FILE...` — parse each textual
//!   IR file and lint it against the mesh. Parse failures are reported
//!   with line/column positions.
//! * `partir-lint [--smoke]` — no files: sweep the model zoo. Every
//!   Table 2 schedule is applied to every zoo model on each benchmark
//!   mesh; the propagated partitioning and the lowered (fused) device
//!   program are linted. `--smoke` trims the sweep for CI.
//! * `partir-lint --plans [--smoke]` — compile every zoo model ×
//!   schedule on the 1×2/2×2/4×2 mesh ladder into a [`partir_spmd::CompiledPlan`]
//!   (both overlapped and blocking) and run the plan-level translation
//!   validator ([`partir_analysis::plan`]): arena bounds, collective
//!   windows, one token walk over the arena (happens-before races and
//!   clobbered parameter ranges), and cross-device rendezvous
//!   linearisation. A cell whose program holds an op the plan compiler
//!   refuses (no kernel for the op or its operand dtype) fails with
//!   `error[plan]`.
//!
//! Prints every diagnostic (severity, rule, op path, message), worst
//! first. By default the exit code is non-zero iff any
//! `Error`-severity diagnostic was produced; `--deny [SEVERITY]`
//! lowers that gate (`--deny` alone fails on *any* diagnostic,
//! `--deny warning` on warnings and errors) so CI can gate on the
//! sweep without grepping output. A malformed `--mesh` exits with
//! code 2 before anything is linted.
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

/// Parses a `--mesh name=size,...` spec. An empty spec is what
/// `--mesh` as the last argument leaves behind.
fn parse_mesh(spec: &str) -> Result<Mesh, String> {
    if spec.is_empty() {
        return Err("no value (expected name=size,...)".to_string());
    }
    let axes = spec
        .split(',')
        .map(|part| {
            let (name, size) = part
                .split_once('=')
                .ok_or_else(|| format!("axis {part:?} is not name=size"))?;
            let size: usize = size
                .parse()
                .map_err(|_| format!("axis size in {part:?} is not a number"))?;
            Ok((name.to_string(), size))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Mesh::new(axes).map_err(|e| format!("{spec:?}: {e}"))
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

/// The model zoo both sweeps run: every model with its Table 2
/// schedules. `smoke` keeps the transformer-family models only.
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
        // Batch 8 so the batch axis tiles on every mesh of the plan
        // ladder.
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
    let options = [
        ("overlapped", PlanOptions::default()),
        ("blocking", PlanOptions::blocking()),
    ];
    let mut denied = 0;
    for (name, func, rows) in zoo(smoke) {
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
                mesh_spec = raw.get(i).cloned().unwrap_or_default();
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

    let mesh = match parse_mesh(&mesh_spec) {
        Ok(mesh) => mesh,
        Err(e) => {
            eprintln!("partir-lint: bad --mesh: {e}");
            return ExitCode::from(2);
        }
    };
    let denied = if plans {
        lint_plans(smoke, deny)
    } else if files.is_empty() {
        lint_zoo(smoke, deny)
    } else {
        lint_files(&files, &mesh, deny)
    };
    if denied > 0 {
        eprintln!("partir-lint: {denied} denied diagnostic(s) at or above --deny {deny}");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mesh_parses() {
        let mesh = parse_mesh(&format!("{BATCH}=2,{MODEL}=2")).unwrap();
        assert_eq!(mesh.axis_size(&BATCH.into()).unwrap(), 2);
        assert_eq!(mesh.axis_size(&MODEL.into()).unwrap(), 2);
    }

    #[test]
    fn axis_without_size_is_refused() {
        let e = parse_mesh("batch=2,model").unwrap_err();
        assert!(e.contains("not name=size"), "{e}");
    }

    #[test]
    fn non_numeric_size_is_refused() {
        let e = parse_mesh("batch=two").unwrap_err();
        assert!(e.contains("not a number"), "{e}");
    }

    #[test]
    fn specs_the_mesh_refuses_are_errors() {
        assert!(parse_mesh("batch=2,batch=2").is_err());
        assert!(parse_mesh("batch=0").is_err());
    }

    #[test]
    fn missing_value_is_refused() {
        // `--mesh` as the last argument leaves an empty spec.
        let e = parse_mesh("").unwrap_err();
        assert!(e.contains("no value"), "{e}");
    }
}
