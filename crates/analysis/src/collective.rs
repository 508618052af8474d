//! Structural rules for collectives: the side conditions every
//! collective of a lowered program must meet on its mesh.
//!
//! `partir_spmd::lower` emits an SPMD program, so every device runs the
//! same function and issues the same collectives in the same order; the
//! devices of a group can then only wedge if a collective is malformed
//! for the mesh it runs on. [`check_structure`] rejects unknown and
//! repeated axes, and warns on size-1 axes, collectives that a
//! zero-trip loop never issues and identity all-to-alls. Whether the
//! per-device *stage order* the plan compiler bakes in admits a
//! rendezvous linearisation is checked once, on the compiled plan
//! ([`crate::plan`], `plan-rendezvous-*`).

use partir_ir::verify::op_path;
use partir_ir::{Collective, Func, OpKind};
use partir_mesh::{Axis, Mesh};

use crate::diag::{Diagnostic, Severity};

/// Structural side conditions every collective must satisfy for the
/// rendezvous argument to hold on `mesh`.
pub fn check_structure(func: &Func, mesh: &Mesh) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for op_id in func.op_ids() {
        let op = func.op(op_id);
        if let (OpKind::For { trip_count: 0 }, Some(region)) = (&op.kind, &op.region) {
            if region.body.iter().any(|&b| func.op(b).kind.is_collective()) {
                diags.push(
                    Diagnostic::new(
                        Severity::Warning,
                        "collective-dead-in-zero-trip-loop",
                        "collectives inside a zero-trip loop never execute",
                    )
                    .at_op(op_path(func, op_id))
                    .at_loc(func.op_loc(op_id)),
                );
            }
        }
        let OpKind::Collective(c) = &op.kind else {
            continue;
        };
        let at = |d: Diagnostic| d.at_op(op_path(func, op_id)).at_loc(func.op_loc(op_id));
        // Raw (pre-dedup) axis uses: an axis appearing twice in one
        // collective double-counts its group and breaks shard layout.
        let raw: Vec<&Axis> = match c {
            Collective::AllReduce { axes, .. } | Collective::AllToAll { axes, .. } => {
                axes.iter().collect()
            }
            Collective::AllGather { dim_axes }
            | Collective::AllSlice { dim_axes }
            | Collective::ReduceScatter { dim_axes, .. } => dim_axes.iter().flatten().collect(),
        };
        for (i, axis) in raw.iter().enumerate() {
            if raw[..i].contains(axis) {
                diags.push(at(Diagnostic::new(
                    Severity::Error,
                    "collective-duplicate-axis",
                    format!("axis \"{axis}\" appears more than once in one collective"),
                )));
            }
        }
        if raw.is_empty() {
            diags.push(at(Diagnostic::new(
                Severity::Warning,
                "collective-no-axes",
                "collective communicates over no axes (no-op)",
            )));
        }
        for axis in c.axes() {
            match mesh.axis_size(&axis) {
                Err(_) => diags.push(at(Diagnostic::new(
                    Severity::Error,
                    "collective-unknown-axis",
                    format!("mesh {mesh} has no axis \"{axis}\""),
                ))),
                Ok(1) => diags.push(at(Diagnostic::new(
                    Severity::Warning,
                    "collective-degenerate-axis",
                    format!("collective over size-1 axis \"{axis}\" moves no data"),
                ))),
                Ok(_) => {}
            }
        }
        if let Collective::AllToAll {
            src_dim, dst_dim, ..
        } = c
        {
            if src_dim == dst_dim {
                diags.push(at(Diagnostic::new(
                    Severity::Warning,
                    "collective-trivial-all-to-all",
                    format!("all_to_all with src_dim == dst_dim == {src_dim} is an identity"),
                )));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::error_count;
    use partir_ir::{FuncBuilder, ReduceOp, TensorType};

    fn mesh() -> Mesh {
        Mesh::new([("B", 2), ("M", 2)]).unwrap()
    }

    fn ar(b: &mut FuncBuilder, x: partir_ir::ValueId, axis: &str) -> partir_ir::ValueId {
        b.collective(
            Collective::AllReduce {
                axes: vec![axis.into()],
                reduce: ReduceOp::Sum,
            },
            x,
        )
        .unwrap()
    }

    #[test]
    fn spmd_program_is_deadlock_free() {
        // Well-formed collectives of one SPMD function: nothing for the
        // structural rules to reject.
        let mut b = FuncBuilder::with_mesh("f", mesh());
        let x = b.param("x", TensorType::f32([4, 4]));
        let y = ar(&mut b, x, "B");
        let f = b.build([y]).unwrap();
        let diags = check_structure(&f, &mesh());
        assert_eq!(error_count(&diags), 0, "{diags:?}");
    }

    #[test]
    fn cross_axis_cyclic_wait_is_flagged() {
        // One all-reduce over both axes is structurally sound, so the
        // rules here report nothing; if the diagonal devices 1 and 2
        // then run its M stage before its B stage, every stage table is
        // still symmetric, yet the waits form a cycle: 0 on 2 (B), 2 on
        // 3 (M), 3 on 1 (B), 1 on 0 (M). Only the plan drain sees it.
        let mut b = FuncBuilder::with_mesh("f", mesh());
        let x = b.param("x", TensorType::f32([4, 4]));
        let y = b
            .collective(
                Collective::AllReduce {
                    axes: vec!["B".into(), "M".into()],
                    reduce: ReduceOp::Sum,
                },
                x,
            )
            .unwrap();
        let f = b.build([y]).unwrap();
        assert!(check_structure(&f, &mesh()).is_empty());
        let view = crate::plan::tests::two_axis_view([true, false, false, true]);
        let diags = crate::plan::verify_plan(&view);
        assert!(
            !diags.iter().any(|d| d.rule == "plan-rendezvous-asymmetric"),
            "{diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "plan-rendezvous-deadlock" && d.severity == Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn unknown_axis_against_foreign_mesh_is_an_error() {
        // Lowered for a mesh with axis "z", linted against one without.
        let build_mesh = Mesh::new([("B", 2), ("z", 2)]).unwrap();
        let mut b = FuncBuilder::with_mesh("f", build_mesh);
        let x = b.param("x", TensorType::f32([4, 4]));
        let y = ar(&mut b, x, "z");
        let f = b.build([y]).unwrap();
        let diags = check_structure(&f, &mesh());
        assert!(
            diags.iter().any(|d| d.rule == "collective-unknown-axis"),
            "{diags:?}"
        );
    }
}
