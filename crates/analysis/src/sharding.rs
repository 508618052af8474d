//! Sharding-consistency checks over `partir_core` propagation results,
//! before SPMD lowering.
//!
//! Errors are states lowering or execution cannot handle: tile entries
//! pointing at out-of-range dimensions, axes missing from the mesh, a
//! dimension not divisible by its tiling axes, or one value acquiring an
//! axis twice. The `Partitioning` action API refuses to *create* such
//! states, so on healthy pipelines these never fire — they exist to
//! guard hand-constructed or deserialised states and to gate search
//! candidates cheaply (see `partir_sched`).
//!
//! Warnings surface what propagation left behind: unresolved TMR
//! conflicts (several candidate entries for one op/axis — the paper
//! reports these to the user rather than resolving them heuristically).
//! An `Info` summarises how many operand reshards lowering will insert.

use std::ops::ControlFlow;

use partir_core::{OpAxisCtx, Partitioning, ShardKind};
use partir_ir::verify::op_path;
use partir_ir::{Func, ValueId};
use partir_mesh::Axis;

use crate::diag::{Diagnostic, Severity};

/// One Error-severity finding, still unformatted: [`is_legal`] only asks
/// whether there is one, [`legality_errors`] turns each into a
/// [`Diagnostic`].
enum Violation<'a> {
    DuplicateAxis {
        value: ValueId,
        axis: &'a Axis,
    },
    UnknownAxis {
        value: ValueId,
        axis: &'a Axis,
    },
    DimOutOfRange {
        value: ValueId,
        axis: &'a Axis,
        dim: usize,
        rank: usize,
    },
    Indivisible {
        value: ValueId,
        dim: usize,
        size: usize,
        factor: usize,
    },
}

impl Violation<'_> {
    fn diagnostic(&self, func: &Func, part: &Partitioning) -> Diagnostic {
        let name = |v: ValueId| match &func.value(v).name {
            Some(name) => format!("value %{name}"),
            None => format!("value v{}", v.0),
        };
        let (rule, message) = match *self {
            Violation::DuplicateAxis { value, axis } => (
                "sharding-duplicate-axis",
                format!("{} acquires axis \"{axis}\" more than once", name(value)),
            ),
            Violation::UnknownAxis { value, axis } => (
                "sharding-unknown-axis",
                format!(
                    "{} is sharded over \"{axis}\", absent from mesh {}",
                    name(value),
                    part.mesh()
                ),
            ),
            Violation::DimOutOfRange {
                value,
                axis,
                dim,
                rank,
            } => (
                "sharding-dim-out-of-range",
                format!(
                    "{} tiles dimension {dim} over \"{axis}\" but has rank {rank}",
                    name(value)
                ),
            ),
            Violation::Indivisible {
                value,
                dim,
                size,
                factor,
            } => (
                "sharding-indivisible",
                format!(
                    "{} dimension {dim} of size {size} is not divisible by its \
                     tiling factor {factor}",
                    name(value)
                ),
            ),
        };
        Diagnostic::new(Severity::Error, rule, message)
    }
}

/// The Error rules, stated once: walks every sharded value and hands
/// each violation to `sink`, stopping as soon as it breaks. Allocates
/// and formats nothing itself.
fn walk_errors<'a>(
    func: &Func,
    part: &'a Partitioning,
    sink: &mut impl FnMut(Violation<'a>) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mesh = part.mesh();
    for value in func.value_ids() {
        let entries = part.value_ctx(value).entries();
        if entries.is_empty() {
            continue;
        }
        let shape = &func.value_type(value).shape;
        let rank = shape.rank();
        for (i, (axis, kind)) in entries.iter().enumerate() {
            if entries[..i].iter().any(|(a, _)| a == axis) {
                sink(Violation::DuplicateAxis { value, axis })?;
            }
            if mesh.axis_size(axis).is_err() {
                sink(Violation::UnknownAxis { value, axis })?;
            } else if let ShardKind::Tile { dim } = *kind {
                if dim >= rank {
                    sink(Violation::DimOutOfRange {
                        value,
                        axis,
                        dim,
                        rank,
                    })?;
                }
            }
        }
        for dim in 0..rank {
            // Product of the known axes tiling `dim`.
            let factor: usize = entries
                .iter()
                .filter(|(_, kind)| *kind == ShardKind::Tile { dim })
                .filter_map(|(axis, _)| mesh.axis_size(axis).ok())
                .product();
            if factor > 1 && !shape.dim(dim).is_multiple_of(factor) {
                sink(Violation::Indivisible {
                    value,
                    dim,
                    size: shape.dim(dim),
                    factor,
                })?;
            }
        }
    }
    ControlFlow::Continue(())
}

/// Checks one propagated partitioning for consistency.
pub fn check_partitioning(func: &Func, part: &Partitioning) -> Vec<Diagnostic> {
    let mut diags = legality_errors(func, part);
    for conflict in part.conflicts() {
        diags.push(
            Diagnostic::new(
                Severity::Warning,
                "sharding-conflict",
                format!(
                    "propagation left an unresolved conflict: {}",
                    conflict.describe(func)
                ),
            )
            .at_op(op_path(func, conflict.op))
            .at_loc(func.op_loc(conflict.op)),
        );
    }
    let reshards = count_reshards(func, part);
    if reshards > 0 {
        diags.push(Diagnostic::new(
            Severity::Info,
            "sharding-reshards",
            format!("lowering will insert reshard collectives on {reshards} operand(s)"),
        ));
    }
    diags
}

/// Error-severity findings only — the messages behind the legality gate.
pub fn legality_errors(func: &Func, part: &Partitioning) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let _ = walk_errors(func, part, &mut |violation| {
        diags.push(violation.diagnostic(func, part));
        ControlFlow::Continue(())
    });
    diags
}

/// Whether a propagated state passes every Error-severity check — the
/// cheap gate `partir_sched` applies to each search candidate before
/// costing it. Stops at the first violation and formats nothing.
pub fn is_legal(func: &Func, part: &Partitioning) -> bool {
    walk_errors(func, part, &mut |_| ControlFlow::Break(())).is_continue()
}

/// Operands whose stored layout differs from the layout their consuming
/// op requires — each costs an `all_gather`/`all_slice` pair at lowering.
fn count_reshards(func: &Func, part: &Partitioning) -> usize {
    let mut n = 0;
    for op_id in func.op_ids() {
        let op = func.op(op_id);
        if op.region.is_some() {
            continue; // loop inits reshard against region params, not a TMR entry
        }
        let required = part.op_ctx(op_id).entries();
        for (i, &operand) in op.operands.iter().enumerate() {
            let stored = part.value_ctx(operand).entries();
            // Per dimension, the stored and the required axis stacks
            // must be the same sequence.
            let same_layout = (0..func.value_type(operand).rank()).all(|dim| {
                let stored_axes = stored
                    .iter()
                    .filter(|(_, kind)| *kind == ShardKind::Tile { dim })
                    .map(|(axis, _)| axis);
                let required_axes = required
                    .iter()
                    .filter(|(_, OpAxisCtx::Entry(e))| e.operands.get(i) == Some(&Some(dim)))
                    .map(|(axis, _)| axis);
                stored_axes.eq(required_axes)
            });
            if !same_layout {
                n += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{FuncBuilder, TensorType};
    use partir_mesh::Mesh;

    fn matmul_func() -> (ValueId, ValueId, partir_ir::Func) {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([8, 4]));
        let w = b.param("w", TensorType::f32([4, 4]));
        let y = b.matmul(x, w).unwrap();
        (x, w, b.build([y]).unwrap())
    }

    #[test]
    fn healthy_partitioning_is_clean() {
        let (x, _, f) = matmul_func();
        let mesh = Mesh::new([("B", 2), ("M", 2)]).unwrap();
        let mut p = Partitioning::new(&f, mesh).unwrap();
        p.tile(&f, x, 0, &"B".into()).unwrap();
        p.propagate(&f);
        let diags = check_partitioning(&f, &p);
        assert_eq!(crate::diag::error_count(&diags), 0, "{diags:?}");
        assert!(is_legal(&f, &p));
    }

    #[test]
    fn conflicting_tilings_warn() {
        // Both matmul operands tile their *free* dimension over the same
        // axis: the op gets two TMR candidates for "B" and propagation
        // records a conflict instead of resolving it.
        let (x, w, f) = matmul_func();
        let mesh = Mesh::new([("B", 2), ("M", 2)]).unwrap();
        let mut p = Partitioning::new(&f, mesh).unwrap();
        p.tile(&f, x, 0, &"B".into()).unwrap();
        p.tile(&f, w, 1, &"B".into()).unwrap();
        let report = p.propagate(&f);
        assert!(
            !report.conflicts.is_empty() || !p.conflicts().is_empty(),
            "expected a propagation conflict"
        );
        let diags = check_partitioning(&f, &p);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "sharding-conflict" && d.severity == Severity::Warning),
            "{diags:?}"
        );
    }

    #[test]
    fn reshards_surface_as_info() {
        // Tiling only the contracting-dim weight forces the lowering to
        // reshard (gather) somewhere.
        let (x, _, f) = matmul_func();
        let mesh = Mesh::new([("B", 2), ("M", 2)]).unwrap();
        let mut p = Partitioning::new(&f, mesh).unwrap();
        p.tile(&f, x, 0, &"B".into()).unwrap();
        // No propagation: the op ctx stays empty while x is sharded, so
        // the matmul needs x gathered back.
        let diags = check_partitioning(&f, &p);
        assert!(
            diags.iter().any(|d| d.rule == "sharding-reshards"),
            "{diags:?}"
        );
    }
}
