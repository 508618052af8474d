//! End-to-end SPMD lowering tests reproducing the paper's §2.3 walk-through
//! on the two-matmul chain, checking both the *collectives introduced* and
//! the *numerics* against the reference interpreter.

use partir_core::Partitioning;
use partir_ir::{interp::interpret, Func, FuncBuilder, Literal, TensorType, ValueId};
use partir_mesh::Mesh;
use partir_spmd::{lower, SpmdProgram};

fn matmul_chain() -> (Func, [ValueId; 4]) {
    let mut b = FuncBuilder::new("main");
    let x = b.param("x", TensorType::f32([16, 8]));
    let w1 = b.param("w1", TensorType::f32([8, 16]));
    let w2 = b.param("w2", TensorType::f32([16, 8]));
    let h = b.matmul(x, w1).unwrap();
    let y = b.matmul(h, w2).unwrap();
    let f = b.build([y]).unwrap();
    (f, [x, w1, w2, y])
}

fn rand_lit(dims: &[usize], salt: u64) -> Literal {
    let n: usize = dims.iter().product();
    let mut state = salt.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let data: Vec<f32> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect();
    Literal::from_f32(data, dims.to_vec()).unwrap()
}

fn check_numerics(f: &Func, program: &SpmdProgram, inputs: &[Literal]) {
    let reference = interpret(f, inputs).expect("reference run");
    let spmd = program.execute_global(inputs).expect("spmd run");
    assert_eq!(reference.len(), spmd.len());
    for (r, s) in reference.iter().zip(&spmd) {
        let diff = r.max_abs_diff(s).expect("comparable outputs");
        assert!(diff < 1e-3, "spmd deviates from reference by {diff}");
    }
}

fn chain_inputs() -> Vec<Literal> {
    vec![
        rand_lit(&[16, 8], 1),
        rand_lit(&[8, 16], 2),
        rand_lit(&[16, 8], 3),
    ]
}

#[test]
fn batch_parallel_chain_needs_no_communication() {
    // Listing 3: pure data parallelism.
    let (f, [x, ..]) = matmul_chain();
    let mesh = Mesh::new([("B", 4), ("M", 2)]).unwrap();
    let mut p = Partitioning::new(&f, mesh).unwrap();
    p.tile(&f, x, 0, &"B".into()).unwrap();
    assert!(p.propagate(&f).conflicts.is_empty());
    let program = lower(&f, &p).unwrap();
    assert_eq!(program.stats().total(), 0, "{}", program.to_text());
    // Device-local input is 4x8 (batch sliced by 4).
    assert_eq!(program.func().params().len(), 3);
    assert_eq!(
        program
            .func()
            .value_type(program.func().params()[0])
            .shape
            .dims(),
        &[4, 8]
    );
    check_numerics(&f, &program, &chain_inputs());
}

#[test]
fn megatron_chain_introduces_one_all_reduce() {
    // Listing 4: BP + MP — exactly one all_reduce over "M".
    let (f, [x, w1, ..]) = matmul_chain();
    let mesh = Mesh::new([("B", 4), ("M", 2)]).unwrap();
    let mut p = Partitioning::new(&f, mesh).unwrap();
    p.tile(&f, x, 0, &"B".into()).unwrap();
    p.propagate(&f);
    p.tile(&f, w1, 1, &"M".into()).unwrap();
    assert!(p.propagate(&f).conflicts.is_empty());
    let program = lower(&f, &p).unwrap();
    let stats = program.stats();
    assert_eq!(stats.all_reduce, 1, "{}", program.to_text());
    assert_eq!(stats.all_gather, 0);
    assert_eq!(stats.total(), 1);
    check_numerics(&f, &program, &chain_inputs());
}

#[test]
fn z3_chain_gathers_parameters_before_use() {
    // Listing 5: BP + MP + Z3 — two all_gathers (one per parameter) plus
    // the Megatron all_reduce.
    let (f, [x, w1, w2, _]) = matmul_chain();
    let mesh = Mesh::new([("B", 4), ("M", 2)]).unwrap();
    let mut p = Partitioning::new(&f, mesh).unwrap();
    p.tile(&f, x, 0, &"B".into()).unwrap();
    p.propagate(&f);
    p.tile(&f, w1, 1, &"M".into()).unwrap();
    p.propagate(&f);
    p.tile(&f, w1, 0, &"B".into()).unwrap();
    p.tile(&f, w2, 1, &"B".into()).unwrap();
    assert!(p.propagate(&f).conflicts.is_empty());
    let program = lower(&f, &p).unwrap();
    let stats = program.stats();
    assert_eq!(stats.all_gather, 2, "{}", program.to_text());
    assert_eq!(stats.all_reduce, 1);
    // Parameters are stored fully sharded: w1 is 8x16 / (B on dim0, M on
    // dim1) = 2x8.
    let w1_local = program.func().value_type(program.func().params()[1]);
    assert_eq!(w1_local.shape.dims(), &[2, 8]);
    check_numerics(&f, &program, &chain_inputs());
}

#[test]
fn activation_sharding_converts_reduce_to_reduce_scatter() {
    // The paper's ES variation: sharding the output activation on M turns
    // the all_reduce into a reduce_scatter.
    let (f, [x, w1, _, y]) = matmul_chain();
    let mesh = Mesh::new([("B", 4), ("M", 2)]).unwrap();
    let mut p = Partitioning::new(&f, mesh).unwrap();
    p.tile(&f, x, 0, &"B".into()).unwrap();
    p.propagate(&f);
    p.tile(&f, w1, 1, &"M".into()).unwrap();
    p.propagate(&f);
    p.tile(&f, y, 1, &"M".into()).unwrap();
    p.propagate(&f);
    let program = lower(&f, &p).unwrap();
    let stats = program.stats();
    assert_eq!(stats.reduce_scatter, 1, "{}", program.to_text());
    assert_eq!(stats.all_reduce, 0);
    check_numerics(&f, &program, &chain_inputs());
}

#[test]
fn conflicting_single_tactic_still_lowers_correctly() {
    // PartIR-st behaviour: both tilings at once conflict, propagation is
    // blocked, and lowering falls back to gathering — slower but correct.
    let (f, [x, w1, ..]) = matmul_chain();
    let mesh = Mesh::single("B", 4).unwrap();
    let mut p = Partitioning::new(&f, mesh).unwrap();
    p.tile(&f, x, 0, &"B".into()).unwrap();
    p.tile(&f, w1, 1, &"B".into()).unwrap();
    let report = p.propagate(&f);
    assert!(!report.conflicts.is_empty());
    let program = lower(&f, &p).unwrap();
    assert!(program.stats().all_gather >= 2, "{}", program.to_text());
    check_numerics(&f, &program, &chain_inputs());
}

#[test]
fn atomic_keeps_value_replicated_through_lowering() {
    let mut b = FuncBuilder::new("z2");
    let param = b.param("p", TensorType::f32([8]));
    let update = b.param("u", TensorType::f32([8]));
    let new_p = b.sub(param, update).unwrap();
    let f = b.build([new_p]).unwrap();
    let mesh = Mesh::single("B", 4).unwrap();
    let mut p = Partitioning::new(&f, mesh).unwrap();
    p.atomic(&f, param, &"B".into()).unwrap();
    p.tile(&f, update, 0, &"B".into()).unwrap();
    p.propagate(&f);
    let program = lower(&f, &p).unwrap();
    // The sharded update must be gathered before the replicated subtract:
    // exactly the Z2 one-AllGather-per-parameter behaviour.
    assert_eq!(program.stats().all_gather, 1, "{}", program.to_text());
    let inputs = vec![rand_lit(&[8], 4), rand_lit(&[8], 5)];
    check_numerics(&f, &program, &inputs);
}

#[test]
fn gradient_pattern_reduce_scatters() {
    // dw = xᵀ·dy contracting over the batch-tiled dim; tiling dw (as the
    // optimizer does under Z2/Z3) turns the AR into an RS.
    let mut b = FuncBuilder::new("grad");
    let x = b.param("x", TensorType::f32([8, 4]));
    let dy = b.param("dy", TensorType::f32([8, 6]));
    let dw = b
        .dot(
            x,
            dy,
            partir_ir::DotDims {
                lhs_batch: vec![],
                rhs_batch: vec![],
                lhs_contract: vec![0],
                rhs_contract: vec![0],
            },
        )
        .unwrap();
    let f = b.build([dw]).unwrap();
    let mesh = Mesh::single("B", 2).unwrap();
    let mut p = Partitioning::new(&f, mesh).unwrap();
    p.tile(&f, x, 0, &"B".into()).unwrap();
    p.propagate(&f);
    // Now shard the produced gradient itself (Z-style).
    p.tile(&f, dw, 0, &"B".into()).unwrap();
    p.propagate(&f);
    let program = lower(&f, &p).unwrap();
    let stats = program.stats();
    assert_eq!(stats.reduce_scatter, 1, "{}", program.to_text());
    assert_eq!(stats.all_reduce, 0);
    let inputs = vec![rand_lit(&[8, 4], 6), rand_lit(&[8, 6], 7)];
    check_numerics(&f, &program, &inputs);
}

#[test]
fn for_loop_with_sharded_carry_runs_spmd() {
    let mut b = FuncBuilder::new("loop");
    let x = b.param("x", TensorType::f32([8, 4]));
    let w = b.param("w", TensorType::f32([4, 4]));
    let out = b
        .for_loop(3, &[x], |b, _i, c| Ok(vec![b.matmul(c[0], w)?]))
        .unwrap();
    let f = b.build(out).unwrap();
    let mesh = Mesh::single("B", 4).unwrap();
    let mut p = Partitioning::new(&f, mesh).unwrap();
    p.tile(&f, x, 0, &"B".into()).unwrap();
    assert!(p.propagate(&f).conflicts.is_empty());
    let program = lower(&f, &p).unwrap();
    assert_eq!(program.stats().total(), 0, "{}", program.to_text());
    let inputs = vec![rand_lit(&[8, 4], 8), rand_lit(&[4, 4], 9)];
    check_numerics(&f, &program, &inputs);
}

#[test]
fn transformer_like_block_with_reshape_and_softmax() {
    // A mini attention-ish block exercising reshape, transpose, softmax
    // composition and batched dots under batch parallelism.
    let (bsz, t, h, dh) = (4, 3, 2, 5);
    let d = h * dh;
    let mut b = FuncBuilder::new("attn");
    let x = b.param("x", TensorType::f32([bsz, t, d]));
    let wq = b.param("wq", TensorType::f32([d, d]));
    let dot3 = |b: &mut FuncBuilder, x, w| {
        b.dot(
            x,
            w,
            partir_ir::DotDims {
                lhs_batch: vec![],
                rhs_batch: vec![],
                lhs_contract: vec![2],
                rhs_contract: vec![0],
            },
        )
    };
    let q = dot3(&mut b, x, wq).unwrap();
    let qh = b.reshape(q, [bsz, t, h, dh]).unwrap();
    let qt = b.transpose(qh, vec![0, 2, 1, 3]).unwrap(); // [B,H,T,dh]
    let kt = b.transpose(qh, vec![0, 2, 3, 1]).unwrap(); // [B,H,dh,T]
    let scores = b
        .dot(
            qt,
            kt,
            partir_ir::DotDims {
                lhs_batch: vec![0, 1],
                rhs_batch: vec![0, 1],
                lhs_contract: vec![3],
                rhs_contract: vec![2],
            },
        )
        .unwrap(); // [B,H,T,T]
    let mx = b.reduce_max(scores, vec![3]).unwrap();
    let mxb = b
        .broadcast_in_dim(mx, [bsz, h, t, t], vec![0, 1, 2])
        .unwrap();
    let shifted = b.sub(scores, mxb).unwrap();
    let e = b.exp(shifted).unwrap();
    let denom = b.reduce_sum(e, vec![3]).unwrap();
    let denb = b
        .broadcast_in_dim(denom, [bsz, h, t, t], vec![0, 1, 2])
        .unwrap();
    let probs = b.div(e, denb).unwrap();
    let f = b.build([probs]).unwrap();

    let mesh = Mesh::new([("B", 4), ("M", 2)]).unwrap();
    let mut p = Partitioning::new(&f, mesh).unwrap();
    p.tile(&f, x, 0, &"B".into()).unwrap();
    assert!(p.propagate(&f).conflicts.is_empty());
    let program = lower(&f, &p).unwrap();
    assert_eq!(program.stats().total(), 0, "{}", program.to_text());
    let inputs = vec![rand_lit(&[bsz, t, d], 10), rand_lit(&[d, d], 11)];
    check_numerics(&f, &program, &inputs);

    // Head sharding over M: the reshape's head dim propagates.
    let mut p = Partitioning::new(&f, Mesh::new([("M", 2)]).unwrap()).unwrap();
    p.tile(&f, wq, 1, &"M".into()).unwrap();
    let report = p.propagate(&f);
    assert!(report.conflicts.is_empty());
    let program = lower(&f, &p).unwrap();
    check_numerics(&f, &program, &inputs);
}

fn count_kind(program: &SpmdProgram, name: &str) -> usize {
    let f = program.func();
    f.op_ids().filter(|&o| f.op(o).kind.name() == name).count()
}

#[test]
fn partial_scatter_leaves_a_residual_all_reduce() {
    // The contraction is tiled over both axes, so the dot reduces over
    // both; its result is sliced over M only. M's share of the reduce
    // becomes a reduce_scatter, B's stays an all_reduce.
    let (f, [_, _, w2, y]) = matmul_chain();
    let mesh = Mesh::new([("B", 2), ("M", 2)]).unwrap();
    let mut p = Partitioning::new(&f, mesh).unwrap();
    p.tile(&f, w2, 0, &"B".into()).unwrap();
    p.tile(&f, w2, 0, &"M".into()).unwrap();
    p.propagate(&f);
    p.tile(&f, y, 0, &"M".into()).unwrap();
    p.propagate(&f);
    let program = lower(&f, &p).unwrap();
    let stats = program.stats();
    assert_eq!(
        (stats.reduce_scatter, stats.all_reduce, stats.all_slice),
        (1, 1, 0),
        "{}",
        program.to_text()
    );
    check_numerics(&f, &program, &chain_inputs());
}

/// A loop over a carried value tiled on columns whose result is pinned
/// replicated, so its result reshard gathers the columns; then one
/// consumer loop per entry of `consumer_dims`, carrying that result tiled
/// on the given dim, so each init reshard is a pure slice.
fn pinned_loop_result(consumer_dims: &[usize]) -> (Func, Partitioning) {
    let mut b = FuncBuilder::new("pinned");
    let x = b.param("x", TensorType::f32([8, 16]));
    let w0 = b.param("w0", TensorType::f32([16, 8]));
    let w1 = b.param("w1", TensorType::f32([8, 8]));
    let h = b.matmul(x, w0).unwrap();
    let mut carried = Vec::new();
    let first = b
        .for_loop(3, &[h], |b, _, c| {
            carried.push((c[0], 1));
            Ok(vec![b.matmul(c[0], w1)?])
        })
        .unwrap();
    let mut outs = Vec::new();
    for &dim in consumer_dims {
        let out = b
            .for_loop(2, &first, |b, _, c| {
                carried.push((c[0], dim));
                Ok(vec![b.neg(c[0])?])
            })
            .unwrap();
        outs.push(out[0]);
    }
    let f = b.build(outs).unwrap();
    let m = "m".into();
    let mut p = Partitioning::new(&f, Mesh::single("m", 2).unwrap()).unwrap();
    p.atomic(&f, first[0], &m).unwrap();
    for &(c, dim) in &carried {
        p.tile(&f, c, dim, &m).unwrap();
    }
    p.tile(&f, x, 1, &m).unwrap();
    p.propagate(&f);
    (f, p)
}

fn pinned_inputs() -> Vec<Literal> {
    vec![
        rand_lit(&[8, 16], 13),
        rand_lit(&[16, 8], 14),
        rand_lit(&[8, 8], 15),
    ]
}

#[test]
fn loop_result_gather_cancels_against_its_sole_use() {
    // Across ops: the first loop's gathered result is the second loop's
    // init, which slices it back — the gather is never emitted.
    let (f, p) = pinned_loop_result(&[1]);
    let program = lower(&f, &p).unwrap();
    let text = program.to_text();
    // The only gather is the final result's; no slice is left.
    assert_eq!(count_kind(&program, "all_gather"), 1, "{text}");
    assert_eq!(count_kind(&program, "all_slice"), 0, "{text}");
    check_numerics(&f, &program, &pinned_inputs());
}

#[test]
fn loop_result_gather_and_a_slice_of_another_dim_become_all_to_all() {
    // Across ops: the first loop's result gathers columns, the second
    // loop's init slices rows over the same axis — one all_to_all.
    let (f, p) = pinned_loop_result(&[0]);
    let program = lower(&f, &p).unwrap();
    let text = program.to_text();
    assert_eq!(count_kind(&program, "all_to_all"), 1, "{text}");
    assert_eq!(count_kind(&program, "all_gather"), 1, "{text}");
    assert_eq!(count_kind(&program, "all_slice"), 0, "{text}");
    check_numerics(&f, &program, &pinned_inputs());
}

#[test]
fn multi_use_loop_result_keeps_its_gather() {
    // Two loops consume the gathered result: cross-op fusion needs a sole
    // use, so the gather stays and each init slices.
    let (f, p) = pinned_loop_result(&[1, 1]);
    let program = lower(&f, &p).unwrap();
    let text = program.to_text();
    assert_eq!(count_kind(&program, "all_gather"), 3, "{text}");
    assert_eq!(count_kind(&program, "all_slice"), 2, "{text}");
    check_numerics(&f, &program, &pinned_inputs());
}

#[test]
fn dead_ops_are_not_lowered() {
    // A dead op, and a loop whose second result is dead and pinned
    // replicated: neither the op nor that result's gathering reshard is
    // lowered; the loop still carries both values.
    let mut b = FuncBuilder::new("dead");
    let x = b.param("x", TensorType::f32([8, 4]));
    let _dead = b.neg(x).unwrap();
    let mut carried = Vec::new();
    let out = b
        .for_loop(2, &[x, x], |b, _, c| {
            carried.extend_from_slice(c);
            Ok(vec![b.tanh(c[0])?, b.exp(c[1])?])
        })
        .unwrap();
    let live = b.add(out[0], x).unwrap();
    let f = b.build([live]).unwrap();
    let mut p = Partitioning::new(&f, Mesh::single("B", 2).unwrap()).unwrap();
    p.atomic(&f, out[1], &"B".into()).unwrap();
    p.tile(&f, x, 0, &"B".into()).unwrap();
    for &c in &carried {
        p.tile(&f, c, 0, &"B".into()).unwrap();
    }
    p.propagate(&f);
    let program = lower(&f, &p).unwrap();
    let text = program.to_text();
    assert_eq!(count_kind(&program, "neg"), 0, "{text}");
    assert_eq!(count_kind(&program, "exp"), 1, "{text}");
    assert_eq!(count_kind(&program, "all_gather"), 0, "{text}");
    check_numerics(&f, &program, &[rand_lit(&[8, 4], 16)]);
}
