//! Appendix B scenarios: multi-axis propagation and deep tiling.

use partir_core::{Partitioning, ShardKind};
use partir_ir::{interp::interpret, FuncBuilder, Literal, TensorType};
use partir_mesh::Mesh;

fn rand_lit(dims: &[usize], salt: u64) -> Literal {
    let n: usize = dims.iter().product();
    let mut state = salt | 1;
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

#[test]
fn b11_multi_axis_analysis_sees_through_nested_contexts() {
    // The B.1.1 situation: a value carries both a #sum-producing context
    // and a tile on another axis; a consumer must still see the tiling.
    let mut b = FuncBuilder::new("b11");
    let x = b.param("x", TensorType::f32([8, 16]));
    let y = b.param("y", TensorType::f32([16, 8]));
    let z = b.param("z", TensorType::f32([8, 8]));
    let prod = b.matmul(x, y).unwrap(); // will get a #sum over "a"
    let out = b.add(prod, z).unwrap();
    let f = b.build([out]).unwrap();

    let mesh = Mesh::new([("a", 4), ("b", 2)]).unwrap();
    let mut p = Partitioning::new(&f, mesh).unwrap();
    // Contract over "a" (x's dim 1), tile the batch rows over "b".
    p.tile(&f, x, 1, &"a".into()).unwrap();
    p.propagate(&f);
    p.tile(&f, x, 0, &"b".into()).unwrap();
    let report = p.propagate(&f);
    assert!(report.conflicts.is_empty());
    // The matmul is in a sum-loop over "a" AND a tile-loop over "b"...
    let matmul = f.body()[0];
    assert_eq!(p.op_ctx(matmul).entries().len(), 2);
    assert!(p.op_ctx(matmul).reduces());
    // ...and the add still discovered the "b" tiling of the product.
    assert_eq!(
        p.value_ctx(out).entry(&"b".into()),
        Some(ShardKind::Tile { dim: 0 })
    );
    // Semantics preserved through both loops.
    let inputs = vec![
        rand_lit(&[8, 16], 1),
        rand_lit(&[16, 8], 2),
        rand_lit(&[8, 8], 3),
    ];
    let reference = interpret(&f, &inputs).unwrap();
    let temporal = partir_core::temporal::interpret_sharded(&f, &p, &inputs).unwrap();
    assert!(reference[0].max_abs_diff(&temporal[0]).unwrap() < 1e-4);
    let program = partir_spmd::lower(&f, &p).unwrap();
    let spmd = program.execute_global(&inputs).unwrap();
    assert!(reference[0].max_abs_diff(&spmd[0]).unwrap() < 1e-4);
}

#[test]
fn b12_deep_tiling_composes_with_prior_slicing() {
    // B.1.2: further tiling a value that is already sliced must compose
    // ("deep tiling"), never flatten or undo.
    let mut b = FuncBuilder::new("b12");
    let x = b.param("x", TensorType::f32([16, 8]));
    let y = b.neg(x).unwrap();
    let f = b.build([y]).unwrap();
    let mesh = Mesh::new([("a", 2), ("b", 2)]).unwrap();
    let mut p = Partitioning::new(&f, mesh.clone()).unwrap();
    p.tile(&f, x, 1, &"a".into()).unwrap();
    p.propagate(&f);
    // Deep-tile the same dim over "b": contexts stack in order.
    p.tile(&f, x, 1, &"b".into()).unwrap();
    p.propagate(&f);
    let ctx = p.value_ctx(x);
    assert_eq!(ctx.entries().len(), 2);
    assert_eq!(ctx.axes_on_dim(1), vec!["a".into(), "b".into()]);
    assert_eq!(p.local_type(&f, x).shape.dims(), &[16, 2]);
    // The consumer op inherits both nestings.
    assert_eq!(p.op_ctx(f.body()[0]).entries().len(), 2);

    // SPMD execution still matches — the device shards compose.
    let inputs = vec![rand_lit(&[16, 8], 4)];
    let reference = interpret(&f, &inputs).unwrap();
    let program = partir_spmd::lower(&f, &p).unwrap();
    let spmd = program.execute_global(&inputs).unwrap();
    assert_eq!(reference[0], spmd[0]);
}

#[test]
fn same_dim_tiling_order_defines_layout() {
    // Tiling dim 0 by "a" then "b" vs "b" then "a" yields different
    // shard layouts; both must be semantics preserving.
    for order in [["a", "b"], ["b", "a"]] {
        let mut b = FuncBuilder::new("order");
        let x = b.param("x", TensorType::f32([8, 4]));
        let y = b.tanh(x).unwrap();
        let f = b.build([y]).unwrap();
        let mesh = Mesh::new([("a", 2), ("b", 2)]).unwrap();
        let mut p = Partitioning::new(&f, mesh).unwrap();
        p.tile(&f, x, 0, &order[0].into()).unwrap();
        p.tile(&f, x, 0, &order[1].into()).unwrap();
        p.propagate(&f);
        let inputs = vec![rand_lit(&[8, 4], 8)];
        let reference = interpret(&f, &inputs).unwrap();
        let program = partir_spmd::lower(&f, &p).unwrap();
        let spmd = program.execute_global(&inputs).unwrap();
        assert!(reference[0].max_abs_diff(&spmd[0]).unwrap() < 1e-6);
    }
}

#[test]
fn nesting_restriction_blocks_double_axis_use() {
    // §5.2.3: no nested loops over one axis — the second tile on the same
    // value+axis must fail, and an op in an "a" context never acquires a
    // second "a" entry no matter how propagation is retried.
    let mut b = FuncBuilder::new("nest");
    let x = b.param("x", TensorType::f32([8, 8]));
    let y = b.matmul(x, x).unwrap();
    let f = b.build([y]).unwrap();
    let mesh = Mesh::single("a", 2).unwrap();
    let mut p = Partitioning::new(&f, mesh).unwrap();
    p.tile(&f, x, 0, &"a".into()).unwrap();
    assert!(p.tile(&f, x, 1, &"a".into()).is_err());
    for _ in 0..3 {
        p.propagate(&f);
    }
    let ctx = p.op_ctx(f.body()[0]);
    assert!(ctx.entries().len() <= 1);
}

#[test]
fn conflict_diagnostics_are_readable() {
    // The §5.2.3 conflict, rendered for the user.
    let mut b = FuncBuilder::new("c");
    let x = b.param("x", TensorType::f32([8, 8]));
    let w = b.param("w", TensorType::f32([8, 8]));
    let y = b.matmul(x, w).unwrap();
    let f = b.build([y]).unwrap();
    let mesh = Mesh::single("B", 2).unwrap();
    let mut p = Partitioning::new(&f, mesh).unwrap();
    p.tile(&f, x, 0, &"B".into()).unwrap();
    p.tile(&f, w, 1, &"B".into()).unwrap();
    let report = p.propagate(&f);
    assert_eq!(report.conflicts.len(), 1);
    let text = report.summary(&f);
    assert!(text.contains("1 conflicts"), "{text}");
    assert!(
        text.contains("conflict at `dot` along axis \"B\""),
        "{text}"
    );
    assert!(text.contains("#tile<0>"), "{text}");
    assert!(text.contains("⊥"), "{text}");
}
