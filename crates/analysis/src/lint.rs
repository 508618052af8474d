//! Aggregated lint entry points — what the `partir-lint` binary and the
//! pipeline debug post-conditions call.

use partir_core::{Partitioning, ValueCtx};
use partir_ir::{Func, IrError};
use partir_mesh::Mesh;

use crate::diag::{Diagnostic, Severity};
use crate::{collective, layout, memory, sharding};

/// Lints a propagated partitioning, before lowering: sharding
/// consistency plus IR verification of the source function.
pub fn lint_partitioning(func: &Func, part: &Partitioning) -> Vec<Diagnostic> {
    let mut diags = verify_diags(func, Some(part.mesh()));
    diags.extend(sharding::check_partitioning(func, part));
    sort(&mut diags);
    diags
}

/// Lints a lowered device-local program: IR verification, collective
/// structure, layout tracking, and the static memory bound as an `Info`
/// figure. Rendezvous order is the compiled plan's to verify
/// ([`crate::plan::verify_plan`]).
///
/// `input_ctxs` / `output_ctxs` are the program's declared interface
/// shardings when known (an `SpmdProgram`'s contexts).
pub fn lint_device_func(
    func: &Func,
    mesh: &Mesh,
    input_ctxs: Option<&[ValueCtx]>,
    output_ctxs: Option<&[ValueCtx]>,
) -> Vec<Diagnostic> {
    let mut diags = verify_diags(func, Some(mesh));
    diags.extend(collective::check_structure(func, mesh));
    diags.extend(layout::check_layouts(func, input_ctxs, output_ctxs));
    diags.push(Diagnostic::new(
        Severity::Info,
        "memory-static-bound",
        format!(
            "static peak-memory bound: {} bytes per device",
            memory::static_peak_bound(func, &memory::PeakWalk::of(func))
        ),
    ));
    sort(&mut diags);
    diags
}

/// Parses a textual device-local program and lints it against `mesh`.
/// Parse failures become a single `Error` diagnostic carrying the
/// source position instead of aborting.
pub fn lint_source(text: &str, mesh: &Mesh) -> Vec<Diagnostic> {
    match partir_ir::parse::parse_func_with_mesh(text, mesh.clone()) {
        Ok(func) => lint_device_func(&func, mesh, None, None),
        Err(err) => {
            let loc = match &err {
                IrError::Parse { line, col, .. } => Some(partir_ir::SrcLoc {
                    line: *line,
                    col: *col,
                }),
                _ => None,
            };
            vec![Diagnostic::new(Severity::Error, "parse-error", err.to_string()).at_loc(loc)]
        }
    }
}

/// IR structural verification, rendered as diagnostics (the verifier's
/// op paths become the diagnostics' locations).
fn verify_diags(func: &Func, mesh: Option<&Mesh>) -> Vec<Diagnostic> {
    match partir_ir::verify::verify_func(func, mesh) {
        Ok(()) => Vec::new(),
        Err(err) => {
            let d = Diagnostic::new(Severity::Error, "ir-verify", err.to_string());
            let d = match err.op_path() {
                Some(path) => d.at_op(path),
                None => d,
            };
            vec![d]
        }
    }
}

/// Severity-descending order, ties kept stable (program order).
fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
}

/// Renders diagnostics one per line, worst first.
pub fn render(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{FuncBuilder, TensorType};

    #[test]
    fn lint_source_reports_parse_position() {
        let mesh = Mesh::new([("B", 2)]).unwrap();
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([4, 4]));
        let y = b.neg(x).unwrap();
        let f = b.build([y]).unwrap();
        // Corrupt the op mnemonic on line 2 of the printed form.
        let text = partir_ir::print::print_func(&f).replace("neg", "bogus");
        let diags = lint_source(&text, &mesh);
        assert_eq!(diags.len(), 1, "{}", render(&diags));
        assert_eq!(diags[0].rule, "parse-error");
        assert_eq!(diags[0].loc.map(|l| l.line), Some(2));
    }

    #[test]
    fn lint_source_accepts_valid_programs() {
        let mesh = Mesh::new([("B", 2)]).unwrap();
        let mut b = FuncBuilder::with_mesh("f", mesh.clone());
        let x = b.param("x", TensorType::f32([4, 4]));
        let y = b.neg(x).unwrap();
        let f = b.build([y]).unwrap();
        let text = partir_ir::print::print_func(&f);
        let diags = lint_source(&text, &mesh);
        assert_eq!(crate::diag::error_count(&diags), 0, "{}", render(&diags));
    }

    #[test]
    fn device_lint_includes_memory_info() {
        let mesh = Mesh::new([("B", 2)]).unwrap();
        let mut b = FuncBuilder::with_mesh("f", mesh.clone());
        let x = b.param("x", TensorType::f32([4, 4]));
        let y = b.neg(x).unwrap();
        let f = b.build([y]).unwrap();
        let diags = lint_device_func(&f, &mesh, None, None);
        assert!(diags.iter().any(|d| d.rule == "memory-static-bound"));
    }
}
