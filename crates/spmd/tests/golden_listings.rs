//! Golden tests pinning the device-local programs of the paper's §2.3
//! listings, as printed text — a regression net over propagation,
//! lowering and fusion together. Every listing is also round-tripped
//! through the textual parser: [`SpmdProgram::to_text`] must re-parse
//! (against the program's mesh, which collective type inference needs)
//! and re-print to the identical string.

use partir_core::Partitioning;
use partir_ir::{Func, FuncBuilder, TensorType, ValueId};
use partir_mesh::Mesh;
use partir_spmd::{lower, SpmdProgram};

/// Asserts the printed program re-parses and re-prints identically, and
/// returns the text for the listing-specific golden checks.
fn roundtrip_text(program: &SpmdProgram) -> String {
    let text = program.to_text();
    let parsed = partir_ir::parse::parse_func_with_mesh(&text, program.mesh().clone())
        .unwrap_or_else(|e| panic!("golden listing does not re-parse: {e}\n{text}"));
    assert_eq!(
        partir_ir::print::print_func(&parsed),
        text,
        "parser round-trip is not the identity"
    );
    text
}

fn chain() -> (Func, [ValueId; 3]) {
    let mut b = FuncBuilder::new("main");
    let x = b.param("x", TensorType::f32([256, 8]));
    let w1 = b.param("w1", TensorType::f32([8, 16]));
    let w2 = b.param("w2", TensorType::f32([16, 8]));
    let h = b.matmul(x, w1).unwrap();
    let y = b.matmul(h, w2).unwrap();
    (b.build([y]).unwrap(), [x, w1, w2])
}

fn mesh() -> Mesh {
    Mesh::new([("B", 4), ("M", 2)]).unwrap()
}

#[test]
fn listing3_data_parallel_text() {
    let (f, [x, ..]) = chain();
    let mut p = Partitioning::new(&f, mesh()).unwrap();
    p.tile(&f, x, 0, &"B".into()).unwrap();
    p.propagate(&f);
    let text = roundtrip_text(&lower(&f, &p).unwrap());
    // Listing 3: first argument becomes 64x8; weights keep full shapes;
    // no communication at all.
    assert!(text.contains("%x: tensor<64x8xf32>"), "{text}");
    assert!(text.contains("%w1: tensor<8x16xf32>"), "{text}");
    assert!(text.contains("%w2: tensor<16x8xf32>"), "{text}");
    assert!(!text.contains("all_"), "{text}");
}

#[test]
fn listing4_megatron_text() {
    let (f, [x, w1, ..]) = chain();
    let mut p = Partitioning::new(&f, mesh()).unwrap();
    p.tile(&f, x, 0, &"B".into()).unwrap();
    p.propagate(&f);
    p.tile(&f, w1, 1, &"M".into()).unwrap();
    p.propagate(&f);
    let text = roundtrip_text(&lower(&f, &p).unwrap());
    // Listing 4: w1 8x8, w2 8x8, one all_reduce over M on a 64x8 value.
    assert!(text.contains("%w1: tensor<8x8xf32>"), "{text}");
    assert!(text.contains("%w2: tensor<8x8xf32>"), "{text}");
    assert!(
        text.contains("all_reduce <\"M\">") && text.contains(": tensor<64x8xf32>"),
        "{text}"
    );
}

#[test]
fn listing5_fully_sharded_text() {
    let (f, [x, w1, w2]) = chain();
    let mut p = Partitioning::new(&f, mesh()).unwrap();
    p.tile(&f, x, 0, &"B".into()).unwrap();
    p.propagate(&f);
    p.tile(&f, w1, 1, &"M".into()).unwrap();
    p.propagate(&f);
    p.tile(&f, w1, 0, &"B".into()).unwrap();
    p.tile(&f, w2, 1, &"B".into()).unwrap();
    p.propagate(&f);
    let text = roundtrip_text(&lower(&f, &p).unwrap());
    // Listing 5: parameters stored fully sharded (2x8 / 8x2), gathered
    // just before use on their B-sharded dimension.
    assert!(text.contains("%w1: tensor<2x8xf32>"), "{text}");
    assert!(text.contains("%w2: tensor<8x2xf32>"), "{text}");
    assert!(text.contains("all_gather [{\"B\"}, {}] %w1"), "{text}");
    assert!(text.contains("all_gather [{}, {\"B\"}] %w2"), "{text}");
    assert!(text.contains("all_reduce <\"M\">"), "{text}");
}

#[test]
fn es_variation_reduce_scatter_text() {
    // §2.3's closing variation: sharding the output activation on M turns
    // the all_reduce into a reduce_scatter.
    let (f, [x, w1, ..]) = chain();
    let y = f.results()[0];
    let mut p = Partitioning::new(&f, mesh()).unwrap();
    p.tile(&f, x, 0, &"B".into()).unwrap();
    p.propagate(&f);
    p.tile(&f, w1, 1, &"M".into()).unwrap();
    p.propagate(&f);
    p.tile(&f, y, 1, &"M".into()).unwrap();
    p.propagate(&f);
    let text = roundtrip_text(&lower(&f, &p).unwrap());
    assert!(text.contains("reduce_scatter [{}, {\"M\"}]"), "{text}");
    assert!(!text.contains("all_reduce"), "{text}");
}
