//! Cost-model behaviour tests: the simulator must rank collectives and
//! placements the way the paper's reasoning assumes (Appendix A.5).

use partir_ir::{Collective, ReduceOp, TensorType};
use partir_mesh::{HardwareConfig, Mesh, Topology};
use partir_sim::collective_time;

fn tensor() -> TensorType {
    TensorType::f32([1024, 1024])
}

#[test]
fn faster_links_make_cheaper_collectives() {
    let mesh = Mesh::new([("fast", 4), ("slow", 4)]).unwrap();
    let mut hw = HardwareConfig::tpu_v3_pod(mesh.clone());
    hw.topology = Topology::new([("fast", 600.0e9, 1e-6), ("slow", 25.0e9, 1e-5)]);
    let t = tensor();
    let on = |axis: &str| {
        collective_time(
            &Collective::AllReduce {
                axes: vec![axis.into()],
                reduce: ReduceOp::Sum,
            },
            &t,
            &hw,
        )
        .unwrap()
        .0
    };
    assert!(on("fast") * 5.0 < on("slow"));
}

#[test]
fn bigger_axes_cost_more_per_all_reduce() {
    let mesh = Mesh::new([("two", 2), ("eight", 8)]).unwrap();
    let hw = HardwareConfig::tpu_v3_pod(mesh);
    let t = tensor();
    let on = |axis: &str| {
        collective_time(
            &Collective::AllReduce {
                axes: vec![axis.into()],
                reduce: ReduceOp::Sum,
            },
            &t,
            &hw,
        )
        .unwrap()
        .0
    };
    // Ring all-reduce moves 2(k-1)/k of the data: 8-way is ~1.75/1.0 of
    // 2-way for the same payload.
    let ratio = on("eight") / on("two");
    assert!((1.5..2.0).contains(&ratio), "ratio {ratio}");
}

#[test]
fn gather_of_small_shards_is_cheaper_than_reduce_of_full() {
    // Z3's bet: gathering parameter shards costs ~bytes(param), while
    // all-reducing a full gradient costs ~2×bytes(param).
    let mesh = Mesh::single("b", 8).unwrap();
    let hw = HardwareConfig::tpu_v3_pod(mesh);
    let full = tensor();
    let shard = TensorType::f32([128, 1024]);
    let (gather, _) = collective_time(
        &Collective::AllGather {
            dim_axes: vec![vec!["b".into()], vec![]],
        },
        &shard,
        &hw,
    )
    .unwrap();
    let (reduce, _) = collective_time(
        &Collective::AllReduce {
            axes: vec!["b".into()],
            reduce: ReduceOp::Sum,
        },
        &full,
        &hw,
    )
    .unwrap();
    assert!(gather < reduce, "gather {gather} vs reduce {reduce}");
    // And roughly half of it.
    let ratio = reduce / gather;
    assert!((1.8..2.3).contains(&ratio), "ratio {ratio}");
}

#[test]
fn all_to_all_is_cheapest_data_exchange() {
    // A2A moves (k-1)/k of the local bytes — cheaper than gather (which
    // produces k× the data) for the same operand.
    let mesh = Mesh::single("b", 8).unwrap();
    let hw = HardwareConfig::tpu_v3_pod(mesh);
    let local = TensorType::f32([128, 1024]);
    let (a2a, _) = collective_time(
        &Collective::AllToAll {
            src_dim: 0,
            dst_dim: 1,
            axes: vec!["b".into()],
        },
        &local,
        &hw,
    )
    .unwrap();
    let (gather, _) = collective_time(
        &Collective::AllGather {
            dim_axes: vec![vec!["b".into()], vec![]],
        },
        &local,
        &hw,
    )
    .unwrap();
    assert!(a2a < gather, "a2a {a2a} vs gather {gather}");
}

#[test]
fn unknown_axis_is_an_error() {
    let mesh = Mesh::single("b", 2).unwrap();
    let hw = HardwareConfig::tpu_v3_pod(mesh);
    let t = tensor();
    assert!(collective_time(
        &Collective::AllReduce {
            axes: vec!["nope".into()],
            reduce: ReduceOp::Sum
        },
        &t,
        &hw
    )
    .is_err());
}
