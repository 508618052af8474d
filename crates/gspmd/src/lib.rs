//! A GSPMD-style baseline partitioner (paper §7.2, §7.4, §9).
//!
//! GSPMD treats distribution as a *data layout* problem: users annotate
//! inputs (and, for hard cases, internal values) with shardings, a
//! propagation pass spreads annotations through the module resolving
//! conflicts with heuristics, and code generation inserts collectives.
//!
//! This reproduction reuses PartIR-rs's TMR and lowering machinery but
//! changes the propagation *policy*, which is exactly the axis the paper
//! compares on:
//!
//! * all user annotations are applied up front (no incrementality);
//! * when several TMR entries match (a situation PartIR reports as a
//!   conflict and leaves to tactic ordering), the baseline picks one with
//!   a fixed heuristic — preferring entries matching more already-sharded
//!   operands, then batch-like (first) entries;
//! * expert *internal annotations* ([`GspmdOptions::internal_annotations`])
//!   can pre-seed intermediate values, modelling the sharding constraints
//!   the paper says "involved human labor to identify". Without them the
//!   partitioner is the paper's `GSPMD--`.
//!
//! # Examples
//!
//! ```
//! use partir_gspmd::{gspmd_partition, GspmdOptions, InputSharding};
//! use partir_ir::{FuncBuilder, TensorType};
//! use partir_mesh::Mesh;
//!
//! let mut b = FuncBuilder::new("f");
//! let x = b.param("x", TensorType::f32([16, 8]));
//! let w = b.param("w", TensorType::f32([8, 8]));
//! let y = b.matmul(x, w)?;
//! let f = b.build([y])?;
//! let mesh = Mesh::single("B", 4).unwrap();
//! let opts = GspmdOptions::default();
//! let part = gspmd_partition(
//!     &f,
//!     mesh,
//!     &[InputSharding::tile("x", 0, "B")],
//!     &opts,
//! )?;
//! let program = partir_spmd::lower(&f, &part)?;
//! assert_eq!(program.stats().total(), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

use partir_core::tmr::{ResultAction, TmrEntry};
use partir_core::{CoreError, Partitioning, ShardKind};
use partir_ir::Func;
use partir_mesh::{Axis, Mesh};

/// One user annotation on a named input (or tagged value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSharding {
    /// Name of the value.
    pub name: String,
    /// Tiled dimension.
    pub dim: usize,
    /// Mesh axis.
    pub axis: Axis,
}

impl InputSharding {
    /// Creates a tiling annotation.
    pub fn tile(name: impl Into<String>, dim: usize, axis: impl Into<Axis>) -> Self {
        InputSharding {
            name: name.into(),
            dim,
            axis: axis.into(),
        }
    }
}

/// Behaviour switches of the baseline.
#[derive(Debug, Clone, Default)]
pub struct GspmdOptions {
    /// Expert-provided internal annotations (value name → sharding).
    /// Empty = the paper's `GSPMD--` configuration.
    pub internal_annotations: Vec<InputSharding>,
}

/// Runs annotation seeding plus heuristic propagation; the result reuses
/// PartIR-rs's [`Partitioning`] representation so the same SPMD lowering,
/// fusion, statistics and simulation apply.
///
/// # Errors
///
/// Fails when an annotation names a missing value or an invalid dim.
pub fn gspmd_partition(
    func: &Func,
    mesh: Mesh,
    inputs: &[InputSharding],
    opts: &GspmdOptions,
) -> Result<Partitioning, CoreError> {
    let mut part = Partitioning::new(func, mesh)?;
    for ann in inputs.iter().chain(&opts.internal_annotations) {
        let v = func
            .value_by_name(&ann.name)
            .ok_or_else(|| CoreError::Invalid(format!("no value named {:?}", ann.name)))?;
        if part.value_ctx(v).contains_axis(&ann.axis) {
            continue;
        }
        part.tile(func, v, ann.dim, &ann.axis)?;
    }
    heuristic_propagate(func, &mut part);
    Ok(part)
}

/// Propagation with heuristic conflict resolution: run PartIR's own
/// fixpoint, then force-resolve every remaining conflict and repeat until
/// nothing changes.
pub fn heuristic_propagate(func: &Func, part: &mut Partitioning) {
    loop {
        let report = part.propagate(func);
        if report.conflicts.is_empty() {
            break;
        }
        let mut resolved_any = false;
        for conflict in &report.conflicts {
            // Re-derive candidates (earlier resolutions may have changed
            // the evidence).
            let candidates = part.candidate_entries(func, conflict.op, &conflict.axis);
            if candidates.len() < 2 {
                continue;
            }
            let pick = pick_entry(&candidates, func, part, conflict.op, &conflict.axis);
            if part
                .apply_entry(func, conflict.op, &conflict.axis, &pick)
                .is_ok()
            {
                resolved_any = true;
            }
        }
        if !resolved_any {
            break;
        }
    }
}

/// The conflict heuristic: prefer the entry whose required operand
/// tilings are already present (least data movement), tie-breaking toward
/// the first (batch-like) entry — a deterministic stand-in for GSPMD's
/// tuned priority rules.
fn pick_entry(
    candidates: &[TmrEntry],
    func: &Func,
    part: &Partitioning,
    op: partir_ir::OpId,
    axis: &Axis,
) -> TmrEntry {
    let data = func.op(op);
    let score = |e: &TmrEntry| -> i64 {
        let mut s = 0i64;
        for (i, need) in e.operands.iter().enumerate() {
            if let Some(d) = need {
                match part.value_ctx(data.operands[i]).entry(axis) {
                    Some(ShardKind::Tile { dim }) if dim == *d => s += 4,
                    Some(_) => s -= 4,
                    None => s -= 1, // must be introduced by inference
                }
            }
        }
        if let ResultAction::Tile(d) = e.result {
            if let Some(ShardKind::Tile { dim }) = part.value_ctx(data.results[0]).entry(axis) {
                s += if dim == d { 4 } else { -4 };
            }
        }
        // Mild preference against reductions (they cost an all-reduce).
        if matches!(e.result, ResultAction::Reduce(_)) {
            s -= 1;
        }
        s
    };
    candidates
        .iter()
        .max_by_key(|e| score(e))
        .cloned()
        .expect("non-empty candidates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{FuncBuilder, TensorType};

    fn chain() -> Func {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([16, 8]));
        let w1 = b.param("w1", TensorType::f32([8, 16]));
        let w2 = b.param("w2", TensorType::f32([16, 8]));
        let h = b.matmul(x, w1).unwrap();
        let y = b.matmul(h, w2).unwrap();
        b.build([y]).unwrap()
    }

    #[test]
    fn resolves_partir_conflicts_heuristically() {
        // x(0) and w1(1) tiled at once: PartIR reports a conflict; the
        // baseline picks an entry and completes the partition.
        let f = chain();
        let mesh = Mesh::single("B", 4).unwrap();
        let part = gspmd_partition(
            &f,
            mesh,
            &[
                InputSharding::tile("x", 0, "B"),
                InputSharding::tile("w1", 1, "B"),
            ],
            &GspmdOptions::default(),
        )
        .unwrap();
        // After heuristic resolution no conflicts remain.
        let mut check = part.clone();
        assert!(check.propagate(&f).conflicts.is_empty());
        // And the lowered program still computes the right thing.
        let program = partir_spmd::lower(&f, &part).unwrap();
        let inputs = vec![
            partir_ir::Literal::ones(&TensorType::f32([16, 8])),
            partir_ir::Literal::ones(&TensorType::f32([8, 16])),
            partir_ir::Literal::ones(&TensorType::f32([16, 8])),
        ];
        let reference = partir_ir::interp::interpret(&f, &inputs).unwrap();
        let spmd = program.execute_global(&inputs).unwrap();
        assert!(reference[0].max_abs_diff(&spmd[0]).unwrap() < 1e-3);
    }

    #[test]
    fn internal_annotations_steer_the_outcome() {
        // Seed a conflicting pair (x on its batch dim, w1 on its
        // contracting dim): GSPMD-- resolves with its own heuristic,
        // while an expert internal annotation on the intermediate forces
        // the batch-parallel resolution.
        let seeds = [
            InputSharding::tile("x", 0, "B"),
            InputSharding::tile("w1", 1, "B"),
        ];
        let f = chain();
        let mesh = Mesh::single("B", 4).unwrap();
        let minus = gspmd_partition(&f, mesh.clone(), &seeds, &GspmdOptions::default()).unwrap();
        let mut f2 = chain();
        let h = {
            let op = f2.body()[0];
            f2.op(op).results[0]
        };
        f2.set_value_name(h, "h").unwrap();
        let plus = gspmd_partition(
            &f2,
            mesh,
            &seeds,
            &GspmdOptions {
                internal_annotations: vec![InputSharding::tile("h", 0, "B")],
            },
        )
        .unwrap();
        let s_minus = partir_spmd::lower(&f, &minus).unwrap().stats();
        let s_plus = partir_spmd::lower(&f2, &plus).unwrap().stats();
        // Different programs (the annotation changed conflict resolution).
        assert_ne!(s_minus, s_plus);
    }

    #[test]
    fn unknown_annotation_is_an_error() {
        let f = chain();
        let mesh = Mesh::single("B", 2).unwrap();
        assert!(gspmd_partition(
            &f,
            mesh,
            &[InputSharding::tile("nope", 0, "B")],
            &GspmdOptions::default()
        )
        .is_err());
    }
}
