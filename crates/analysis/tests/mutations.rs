//! Mutation suite: known-bad programs the analyzer must flag.
//!
//! Each case seeds one specific defect — a collective over an unknown
//! axis, a conflicting tiling, a cross-axis wait cycle, … — and asserts
//! the analyzer reports the expected rule. A control case checks the unmutated
//! program is clean, so the suite also guards against false positives.

use partir_analysis::collective::check_structure;
use partir_analysis::layout::check_layouts;
use partir_analysis::plan::StepView;
use partir_analysis::{error_count, lint, sharding, verify_plan, Severity};
use partir_core::{Partitioning, ValueCtx};
use partir_ir::{Collective, Func, FuncBuilder, ReduceOp, TensorType, ValueId};
use partir_mesh::Mesh;
use std::sync::Arc;

fn mesh() -> Mesh {
    Mesh::new([("B", 2), ("M", 2)]).unwrap()
}

fn ar(b: &mut FuncBuilder, x: ValueId, axis: &str, reduce: ReduceOp) -> ValueId {
    b.collective(
        Collective::AllReduce {
            axes: vec![axis.into()],
            reduce,
        },
        x,
    )
    .unwrap()
}

fn assert_rule(diags: &[partir_analysis::Diagnostic], rule: &str) {
    assert!(
        diags.iter().any(|d| d.rule == rule),
        "expected rule {rule:?}, got: {}",
        lint::render(diags)
    );
}

/// The legality gate and the diagnostics are two readers of one rule
/// walk: the gate must say "illegal" exactly when there is an error to
/// report.
fn assert_gate_agrees(f: &Func, p: &Partitioning) {
    let errors = sharding::legality_errors(f, p);
    assert_eq!(
        sharding::is_legal(f, p),
        errors.is_empty(),
        "is_legal disagrees with: {}",
        lint::render(&errors)
    );
}

/// Control: an unmutated SPMD program produces zero errors.
#[test]
fn control_program_is_clean() {
    let mut b = FuncBuilder::with_mesh("f", mesh());
    let x = b.param("x", TensorType::f32([4, 4]));
    let y = ar(&mut b, x, "B", ReduceOp::Sum);
    let z = ar(&mut b, y, "M", ReduceOp::Sum);
    let f = b.build([z]).unwrap();
    let diags = lint::lint_device_func(&f, &mesh(), None, None);
    assert_eq!(error_count(&diags), 0, "{}", lint::render(&diags));
}

/// Mutation 1: a collective over an axis the target mesh does not have
/// (lowered for one machine, deployed on another).
#[test]
fn mutation_unknown_axis() {
    let foreign = Mesh::new([("B", 2), ("z", 2)]).unwrap();
    let mut b = FuncBuilder::with_mesh("f", foreign);
    let x = b.param("x", TensorType::f32([4, 4]));
    let y = ar(&mut b, x, "z", ReduceOp::Sum);
    let f = b.build([y]).unwrap();
    let diags = check_structure(&f, &mesh());
    assert_rule(&diags, "collective-unknown-axis");
}

/// Mutation 2: the same axis listed twice in one collective.
#[test]
fn mutation_duplicate_axis() {
    let mut b = FuncBuilder::with_mesh("f", mesh());
    let x = b.param("x", TensorType::f32([4, 4]));
    let y = b
        .collective(
            Collective::AllReduce {
                axes: vec!["B".into(), "B".into()],
                reduce: ReduceOp::Sum,
            },
            x,
        )
        .unwrap();
    let f = b.build([y]).unwrap();
    let diags = check_structure(&f, &mesh());
    assert_rule(&diags, "collective-duplicate-axis");
}

/// Mutation 3: gathering an axis the value is not sliced over.
#[test]
fn mutation_bad_gather() {
    let mut b = FuncBuilder::with_mesh("f", mesh());
    let x = b.param("x", TensorType::f32([4, 4]));
    let y = b
        .collective(
            Collective::AllGather {
                dim_axes: vec![vec!["B".into()], vec![]],
            },
            x,
        )
        .unwrap();
    let f = b.build([y]).unwrap();
    let replicated = ValueCtx::new();
    let diags = check_layouts(&f, Some(std::slice::from_ref(&replicated)), None);
    assert_rule(&diags, "layout-bad-gather");
}

/// Mutation 4: slicing the value over the same axis twice.
#[test]
fn mutation_double_slice() {
    let mut b = FuncBuilder::with_mesh("f", mesh());
    let x = b.param("x", TensorType::f32([8, 8]));
    let s1 = b
        .collective(
            Collective::AllSlice {
                dim_axes: vec![vec!["B".into()], vec![]],
            },
            x,
        )
        .unwrap();
    let s2 = b
        .collective(
            Collective::AllSlice {
                dim_axes: vec![vec![], vec!["B".into()]],
            },
            s1,
        )
        .unwrap();
    let f = b.build([s2]).unwrap();
    let replicated = ValueCtx::new();
    let diags = check_layouts(&f, Some(std::slice::from_ref(&replicated)), None);
    assert_rule(&diags, "layout-double-slice");
}

/// Mutation 5: a dropped axis — the program leaves the value sliced but
/// declares a replicated interface.
#[test]
fn mutation_dropped_axis() {
    let mut b = FuncBuilder::with_mesh("f", mesh());
    let x = b.param("x", TensorType::f32([4, 4]));
    let y = b.neg(x).unwrap();
    let f = b.build([y]).unwrap();
    // Build the sharded input ctx through the public core API.
    let mut cb = FuncBuilder::new("ctx");
    let cx = cb.param("x", TensorType::f32([4, 4]));
    let cy = cb.neg(cx).unwrap();
    let cf = cb.build([cy]).unwrap();
    let mut p = Partitioning::new(&cf, mesh()).unwrap();
    p.tile(&cf, cx, 0, &"B".into()).unwrap();
    assert_gate_agrees(&cf, &p);
    let in_ctx = p.value_ctx(cx).clone();
    let out_ctx = ValueCtx::new();
    let diags = check_layouts(
        &f,
        Some(std::slice::from_ref(&in_ctx)),
        Some(std::slice::from_ref(&out_ctx)),
    );
    assert_rule(&diags, "layout-result-mismatch");
}

/// Mutation 6: conflicting tile assignments — both matmul operands
/// sharded over the same axis on incompatible dimensions.
#[test]
fn mutation_conflicting_tiling() {
    let mut b = FuncBuilder::new("f");
    let x = b.param("x", TensorType::f32([4, 4]));
    let w = b.param("w", TensorType::f32([4, 4]));
    let y = b.matmul(x, w).unwrap();
    let f = b.build([y]).unwrap();
    let mut p = Partitioning::new(&f, mesh()).unwrap();
    p.tile(&f, x, 0, &"B".into()).unwrap();
    p.tile(&f, w, 1, &"B".into()).unwrap();
    p.propagate(&f);
    let diags = lint::lint_partitioning(&f, &p);
    assert_rule(&diags, "sharding-conflict");
    // Conflicts are suspicious, not illegal: the program still executes.
    assert!(sharding::is_legal(&f, &p));
    assert_gate_agrees(&f, &p);
}

/// Mutation 7: a redundant gather/slice round-trip the partitioner
/// should have cancelled.
#[test]
fn mutation_redundant_collective_pair() {
    let mut b = FuncBuilder::with_mesh("f", mesh());
    let x = b.param("x", TensorType::f32([4, 4]));
    let g = b
        .collective(
            Collective::AllGather {
                dim_axes: vec![vec!["B".into()], vec![]],
            },
            x,
        )
        .unwrap();
    let s = b
        .collective(
            Collective::AllSlice {
                dim_axes: vec![vec!["B".into()], vec![]],
            },
            g,
        )
        .unwrap();
    let f = b.build([s]).unwrap();
    let mut cb = FuncBuilder::new("ctx");
    let cx = cb.param("x", TensorType::f32([4, 4]));
    let cy = cb.neg(cx).unwrap();
    let cf = cb.build([cy]).unwrap();
    let mut p = Partitioning::new(&cf, mesh()).unwrap();
    p.tile(&cf, cx, 0, &"B".into()).unwrap();
    assert_gate_agrees(&cf, &p);
    let in_ctx = p.value_ctx(cx).clone();
    let diags = check_layouts(&f, Some(std::slice::from_ref(&in_ctx)), None);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "layout-redundant-pair" && d.severity == Severity::Warning),
        "{}",
        lint::render(&diags)
    );
}

/// Mutation 8: a collective over a size-1 ("degenerate") axis.
#[test]
fn mutation_degenerate_axis() {
    let degenerate = Mesh::new([("B", 2), ("one", 1)]).unwrap();
    let mut b = FuncBuilder::with_mesh("f", degenerate.clone());
    let x = b.param("x", TensorType::f32([4, 4]));
    let y = ar(&mut b, x, "one", ReduceOp::Sum);
    let f = b.build([y]).unwrap();
    let diags = check_structure(&f, &degenerate);
    assert_rule(&diags, "collective-degenerate-axis");
}

/// Mutation 9: a cross-axis cyclic wait. A reduction over both axes
/// lowers to one all-reduce with a B stage and an M stage; reversing
/// them on the diagonal devices 0 and 3 keeps every group's stage table
/// symmetric, yet the waits form a cycle: 0 on 2 (B), 2 on 3 (M), 3 on
/// 1 (B), 1 on 0 (M). Only the drain of the compiled plan catches it.
#[test]
fn mutation_cross_axis_cycle() {
    let mut b = FuncBuilder::new("both_axes");
    let x = b.param("x", TensorType::f32([4, 4]));
    let s = b.reduce_sum(x, vec![0, 1]).unwrap();
    let f = b.build([s]).unwrap();
    let mut p = Partitioning::new(&f, mesh()).unwrap();
    p.tile(&f, x, 0, &"B".into()).unwrap();
    p.tile(&f, x, 1, &"M".into()).unwrap();
    p.propagate(&f);
    let plan = partir_spmd::lower(&f, &p).unwrap().compile().unwrap();
    let mut view = plan.verifier_view().clone();
    assert_eq!(error_count(&verify_plan(&view)), 0);
    let mut reversed = false;
    for step in &mut view.steps {
        let StepView::CollWait { stages, .. } = step else {
            continue;
        };
        if stages[0].len() == 2 {
            let stages = Arc::make_mut(stages);
            stages[0].reverse();
            stages[3].reverse();
            reversed = true;
        }
    }
    assert!(reversed, "expected a two-stage all-reduce in the plan");
    let diags = verify_plan(&view);
    assert!(
        !diags.iter().any(|d| d.rule == "plan-rendezvous-asymmetric"),
        "{}",
        lint::render(&diags)
    );
    assert_rule(&diags, "plan-rendezvous-deadlock");
}

/// A state checked against a function it was not built for: the action
/// API never creates an illegal state, so this is how the gate's error
/// rules are reached. Each mismatch must fire its rule, and the gate
/// must agree with the diagnostics on every one.
#[test]
fn mismatched_function_trips_the_gate() {
    let chain = |rows: usize, rank1: bool| {
        let mut b = FuncBuilder::new("f");
        let ty = if rank1 {
            TensorType::f32([rows])
        } else {
            TensorType::f32([rows, 4])
        };
        let x = b.param("x", ty);
        let y = b.neg(x).unwrap();
        (b.build([y]).unwrap(), x)
    };
    let (f, x) = chain(4, false);
    let mut p = Partitioning::new(&f, mesh()).unwrap();
    p.tile(&f, x, 0, &"B".into()).unwrap();
    p.tile(&f, x, 1, &"M".into()).unwrap();
    p.propagate(&f);
    assert!(sharding::is_legal(&f, &p));
    assert_gate_agrees(&f, &p);

    // Three rows do not divide over "B".
    let (odd, _) = chain(3, false);
    assert_rule(&sharding::legality_errors(&odd, &p), "sharding-indivisible");
    assert!(!sharding::is_legal(&odd, &p));
    assert_gate_agrees(&odd, &p);

    // A rank-1 value has no dimension 1 to tile over "M".
    let (flat, _) = chain(4, true);
    assert_rule(
        &sharding::legality_errors(&flat, &p),
        "sharding-dim-out-of-range",
    );
    assert_gate_agrees(&flat, &p);
    // The full report starts with exactly the gate's errors.
    let errors = sharding::legality_errors(&flat, &p);
    assert_eq!(
        sharding::check_partitioning(&flat, &p)[..errors.len()],
        errors[..]
    );
}

/// The same differential over seeded random states of the tiny
/// transformer, each read against its own function (always legal) and
/// against a sibling of the same structure whose batch of 6 the 4-way
/// axis does not divide (illegal once the batch is tiled over it, as in
/// every other sample).
#[test]
fn gate_agrees_on_seeded_random_states() {
    use partir_models::transformer::{build_train_step, TransformerConfig};
    let own = build_train_step(&TransformerConfig::tiny()).unwrap().func;
    let sibling = build_train_step(&TransformerConfig {
        batch: 6,
        ..TransformerConfig::tiny()
    })
    .unwrap()
    .func;
    assert_eq!(own.num_values(), sibling.num_values());
    let mesh = Mesh::new([("batch", 4), ("model", 2)]).unwrap();
    let axes = ["batch".into(), "model".into()];
    let mut rng = partir_prng::Rng::seed_from_u64(0x1E6A1);
    let mut illegal = 0;
    let tokens = *own
        .params()
        .iter()
        .find(|&&v| own.value(v).name.as_deref() == Some("tokens"))
        .unwrap();
    for sample in 0..48 {
        let mut p = Partitioning::new(&own, mesh.clone()).unwrap();
        if sample % 2 == 0 {
            // The zoo's own batch-parallel tactic, so that half the
            // states shard the batch the sibling cannot divide.
            p.tile(&own, tokens, 0, &axes[0]).unwrap();
            p.propagate(&own);
        }
        for _ in 0..rng.gen_range_in(1, 4) {
            let v = *rng.choose(own.params());
            let rank = own.value_type(v).rank();
            if rank > 0 {
                let _ = p.tile(&own, v, rng.gen_range(rank), rng.choose(&axes));
                p.propagate(&own);
            }
        }
        assert!(sharding::is_legal(&own, &p));
        assert_gate_agrees(&own, &p);
        assert_gate_agrees(&sibling, &p);
        illegal += usize::from(!sharding::is_legal(&sibling, &p));
    }
    assert!(
        illegal >= 24,
        "the batch-parallel states must all trip the gate"
    );
}
