//! Mutation suite: known-bad programs the analyzer must flag.
//!
//! Each case seeds one specific defect — a mismatched collective order,
//! a conflicting tiling, a dropped axis, … — and asserts the analyzer
//! reports the expected rule. A control case checks the unmutated
//! program is clean, so the suite also guards against false positives.

use partir_analysis::collective::{check_deadlock_freedom, check_device_traces, device_trace};
use partir_analysis::layout::check_layouts;
use partir_analysis::{error_count, lint, sharding, Severity};
use partir_core::{Partitioning, ValueCtx};
use partir_ir::{Collective, Func, FuncBuilder, ReduceOp, TensorType, ValueId};
use partir_mesh::Mesh;

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

fn two_device_traces(fa: &Func, fb: &Func) -> Vec<Vec<partir_analysis::collective::Event>> {
    let ta = device_trace(fa);
    let tb = device_trace(fb);
    // Devices 0,1 run `fa`; 2,3 run `fb` — each "B" group mixes both.
    vec![ta.clone(), ta, tb.clone(), tb]
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

/// Mutation 1: two collectives over the same axis, reordered on half the
/// devices — the classic rendezvous-order deadlock.
#[test]
fn mutation_same_axis_order_mismatch() {
    let build = |first, second| {
        let mut b = FuncBuilder::with_mesh("f", mesh());
        let x = b.param("x", TensorType::f32([4, 4]));
        let y = ar(&mut b, x, "B", first);
        let z = ar(&mut b, y, "B", second);
        b.build([z]).unwrap()
    };
    let fa = build(ReduceOp::Sum, ReduceOp::Max);
    let fb = build(ReduceOp::Max, ReduceOp::Sum);
    let diags = check_device_traces(&two_device_traces(&fa, &fb), &mesh());
    assert_rule(&diags, "collective-mismatch");
}

/// Mutation 2: same position, different reduction monoid — the devices
/// rendezvous but would compute garbage (and our matcher treats the
/// monoid as part of the collective's identity).
#[test]
fn mutation_reduce_monoid_mismatch() {
    let build = |reduce| {
        let mut b = FuncBuilder::with_mesh("f", mesh());
        let x = b.param("x", TensorType::f32([4, 4]));
        let y = ar(&mut b, x, "B", reduce);
        b.build([y]).unwrap()
    };
    let fa = build(ReduceOp::Sum);
    let fb = build(ReduceOp::Max);
    let diags = check_device_traces(&two_device_traces(&fa, &fb), &mesh());
    assert_rule(&diags, "collective-mismatch");
}

/// Mutation 3: payload sizes disagree across the rendezvous.
#[test]
fn mutation_payload_size_mismatch() {
    let build = |rows| {
        let mut b = FuncBuilder::with_mesh("f", mesh());
        let x = b.param("x", TensorType::f32([rows, 4]));
        let y = ar(&mut b, x, "B", ReduceOp::Sum);
        b.build([y]).unwrap()
    };
    let fa = build(4);
    let fb = build(8);
    let diags = check_device_traces(&two_device_traces(&fa, &fb), &mesh());
    assert_rule(&diags, "collective-mismatch");
}

/// Mutation 4: loop trip counts disagree, so one side issues more
/// collectives than the other.
#[test]
fn mutation_trip_count_mismatch() {
    let build = |trips| {
        let mut b = FuncBuilder::with_mesh("f", mesh());
        let x = b.param("x", TensorType::f32([4, 4]));
        let results = b
            .for_loop(trips, &[x], |inner, _i, carried| {
                let t = inner.collective(
                    Collective::AllReduce {
                        axes: vec!["B".into()],
                        reduce: ReduceOp::Sum,
                    },
                    carried[0],
                )?;
                Ok(vec![t])
            })
            .unwrap();
        b.build([results[0]]).unwrap()
    };
    let fa = build(2);
    let fb = build(3);
    let diags = check_device_traces(&two_device_traces(&fa, &fb), &mesh());
    assert_rule(&diags, "collective-mismatch");
}

/// Mutation 5: one side drops the collective entirely — the other waits
/// forever.
#[test]
fn mutation_missing_collective() {
    let mut b = FuncBuilder::with_mesh("f", mesh());
    let x = b.param("x", TensorType::f32([4, 4]));
    let y = ar(&mut b, x, "B", ReduceOp::Sum);
    let fa = b.build([y]).unwrap();
    let mut b = FuncBuilder::with_mesh("f", mesh());
    let x = b.param("x", TensorType::f32([4, 4]));
    let y = b.neg(x).unwrap();
    let fb = b.build([y]).unwrap();
    let diags = check_device_traces(&two_device_traces(&fa, &fb), &mesh());
    assert_rule(&diags, "collective-mismatch");
}

/// Mutation 6: a cross-axis cyclic wait that per-axis sequence matching
/// cannot see — only the abstract rendezvous execution catches it.
#[test]
fn mutation_cross_axis_cycle() {
    let build = |first: &str, second: &str| {
        let mut b = FuncBuilder::with_mesh("f", mesh());
        let x = b.param("x", TensorType::f32([4, 4]));
        let y = ar(&mut b, x, first, ReduceOp::Sum);
        let z = ar(&mut b, y, second, ReduceOp::Sum);
        b.build([z]).unwrap()
    };
    let ta = device_trace(&build("B", "M"));
    let tb = device_trace(&build("M", "B"));
    // Wait cycle: 0 on 2 (B), 2 on 3 (M), 3 on 1 (B), 1 on 0 (M).
    let traces = vec![ta.clone(), tb.clone(), tb, ta];
    let diags = check_device_traces(&traces, &mesh());
    assert_rule(&diags, "collective-deadlock");
}

/// Mutation 7: a collective over an axis the target mesh does not have
/// (lowered for one machine, deployed on another).
#[test]
fn mutation_unknown_axis() {
    let foreign = Mesh::new([("B", 2), ("z", 2)]).unwrap();
    let mut b = FuncBuilder::with_mesh("f", foreign);
    let x = b.param("x", TensorType::f32([4, 4]));
    let y = ar(&mut b, x, "z", ReduceOp::Sum);
    let f = b.build([y]).unwrap();
    let diags = check_deadlock_freedom(&f, &mesh());
    assert_rule(&diags, "collective-unknown-axis");
}

/// Mutation 8: the same axis listed twice in one collective.
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
    let diags = check_deadlock_freedom(&f, &mesh());
    assert_rule(&diags, "collective-duplicate-axis");
}

/// Mutation 9: gathering an axis the value is not sliced over.
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

/// Mutation 10: slicing the value over the same axis twice.
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

/// Mutation 11: a dropped axis — the program leaves the value sliced but
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

/// Mutation 12: conflicting tile assignments — both matmul operands
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

/// Mutation 13: a redundant gather/slice round-trip the partitioner
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

/// Mutation 14: a collective over a size-1 ("degenerate") axis.
#[test]
fn mutation_degenerate_axis() {
    let degenerate = Mesh::new([("B", 2), ("one", 1)]).unwrap();
    let mut b = FuncBuilder::with_mesh("f", degenerate.clone());
    let x = b.param("x", TensorType::f32([4, 4]));
    let y = ar(&mut b, x, "one", ReduceOp::Sum);
    let f = b.build([y]).unwrap();
    let diags = check_deadlock_freedom(&f, &degenerate);
    assert_rule(&diags, "collective-degenerate-axis");
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
