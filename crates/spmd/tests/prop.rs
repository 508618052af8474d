//! Property-based tests of SPMD lowering: for random programs and random
//! action sequences, executing the lowered (and fused) device-local
//! program across the whole mesh must reproduce the reference result —
//! the executable analogue of the paper's lowering-correctness proof.
//! That fusion never *increases* communication is checked against the
//! unfused reference lowering in `lower_oracle.rs`.

mod common;

use partir_ir::{interp::interpret, Collective, Func, FuncBuilder, Literal, ReduceOp, TensorType};
use partir_mesh::{Axis, HardwareConfig, Mesh};
use partir_prng::{propcheck::check, Rng};
use partir_spmd::{lower, predict_traffic};

fn inputs_for(func: &Func, rng: &mut Rng) -> Vec<Literal> {
    func.params()
        .iter()
        .map(|&p| {
            let ty = func.value_type(p);
            let data: Vec<f32> = (0..ty.shape.num_elements())
                .map(|_| rng.unit_f32())
                .collect();
            Literal::from_f32(data, ty.shape.clone()).unwrap()
        })
        .collect()
}

#[test]
fn spmd_execution_matches_reference() {
    check("spmd execution matches reference", 48, |rng| {
        let (func, part) = common::random_partitioned(rng);

        let inputs = inputs_for(&func, rng);
        let reference = interpret(&func, &inputs).unwrap();
        let scale = reference[0]
            .as_f32()
            .unwrap()
            .iter()
            .fold(1.0f32, |m, v| m.max(v.abs()));

        let program = lower(&func, &part).unwrap();
        // The lowered program is well formed.
        partir_ir::verify::verify_func(program.func(), Some(program.mesh())).unwrap();
        let out = program.execute_global(&inputs).unwrap();
        let diff = reference[0].max_abs_diff(&out[0]).unwrap();
        if diff > 1e-4 * scale {
            return Err(format!("diff {diff} at scale {scale}"));
        }
        Ok(())
    });
}

/// A random collective over a random non-empty subset of `mesh`'s axes,
/// with a rank-2 operand shape it accepts.
fn gen_collective(rng: &mut Rng, mesh: &Mesh) -> (Collective, TensorType) {
    let mut axes: Vec<(Axis, usize)> = mesh.axes().to_vec();
    for i in (1..axes.len()).rev() {
        axes.swap(i, rng.gen_range(i + 1));
    }
    axes.truncate(1 + rng.gen_range(axes.len()));
    let names = |axes: &[(Axis, usize)]| axes.iter().map(|(a, _)| a.clone()).collect::<Vec<_>>();
    // Each axis lands on one of the two dims.
    let split = rng.gen_range(axes.len() + 1);
    let dim_axes = vec![names(&axes[..split]), names(&axes[split..])];
    let factor = |axes: &[(Axis, usize)]| axes.iter().map(|(_, k)| k).product::<usize>();
    let base = [1 + rng.gen_range(5), 1 + rng.gen_range(5)];
    match rng.gen_range(4) {
        0 => {
            let c = Collective::AllReduce {
                axes: names(&axes),
                reduce: ReduceOp::Sum,
            };
            (c, TensorType::f32(base))
        }
        1 => (Collective::AllGather { dim_axes }, TensorType::f32(base)),
        2 => {
            let c = Collective::ReduceScatter {
                dim_axes,
                reduce: ReduceOp::Sum,
            };
            let dims = [
                base[0] * factor(&axes[..split]),
                base[1] * factor(&axes[split..]),
            ];
            (c, TensorType::f32(dims))
        }
        _ => {
            let c = Collective::AllToAll {
                src_dim: 0,
                dst_dim: 1,
                axes: names(&axes),
            };
            (c, TensorType::f32([base[0], base[1] * factor(&axes)]))
        }
    }
}

/// The analytical model and the runtime's traffic predictor are two
/// folds of one ring stage rule: over random shapes, collective kinds
/// and 1–3-axis meshes (sizes 1–4, so size-1 skips and the inexact
/// `(k-1)/k` of a 3-ring are both drawn), the simulator's bytes on the
/// wire per device × devices equals the predicted bytes. The one named
/// exception is the multi-axis `all_to_all`, which the runtime executes
/// as ring gathers + a local slice: there predicted ≥ analytic.
#[test]
fn analytic_bytes_times_devices_equal_predicted_traffic() {
    check("analytic bytes x devices == predicted", 256, |rng| {
        let sizes: Vec<(String, usize)> = (0..1 + rng.gen_range(3))
            .map(|i| (format!("a{i}"), 1 + rng.gen_range(4)))
            .collect();
        let mesh = Mesh::new(sizes).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let (c, operand) = gen_collective(rng, &mesh);

        let mut b = FuncBuilder::with_mesh("f", mesh.clone());
        let x = b.param("x", operand.clone());
        let y = b
            .collective(c.clone(), x)
            .map_err(|e| format!("{c:?}: {e}"))?;
        let f = b.build([y]).unwrap();

        let (_, per_device) = partir_sim::collective_time(&c, &operand, &hw).unwrap();
        let analytic = per_device * mesh.num_devices() as f64;
        let predicted = predict_traffic(&f, &mesh).unwrap().total_bytes() as f64;

        let multi_axis_all_to_all_fallback =
            matches!(&c, Collective::AllToAll { axes, .. } if axes.len() > 1);
        let holds = if multi_axis_all_to_all_fallback {
            predicted >= analytic * (1.0 - 1e-12)
        } else {
            (predicted - analytic).abs() <= 1e-12 * predicted
        };
        if holds {
            Ok(())
        } else {
            Err(format!(
                "{c:?} on {operand:?}, mesh {mesh:?}: analytic {analytic} vs predicted {predicted}"
            ))
        }
    });
}
