//! Property-based tests of the threaded runtime.
//!
//! * For random tile/atomic schedules on the MLP training step,
//!   concurrent execution must match the global reference interpreter
//!   (and a scheduled run of the same plan bit-for-bit), and the
//!   executed [`RuntimeStats`] must equal the per-axis traffic
//!   prediction exactly — the refinement of the `CollectiveStats`
//!   counts down to bytes and messages.
//! * For random one-collective programs — every collective kind, random
//!   shapes, axis orders and operand dtypes, on four meshes — a scheduled
//!   run must equal the collective's whole-mesh specification
//!   ([`apply_collective`]) bit for bit, under several seeds, with
//!   traffic equal to the prediction. Every run after the first finds
//!   the plan's parked arenas full of garbage, so a wait that leaves any
//!   element of its result slot unwritten fails.
//!
//! [`RuntimeStats`]: partir_spmd::RuntimeStats

use partir_core::Partitioning;
use partir_ir::interp::interpret;
use partir_ir::{Collective, DType, FuncBuilder, Literal, ReduceOp, TensorType};
use partir_mesh::{Axis, Mesh};
use partir_models::mlp::MlpConfig;
use partir_prng::{propcheck::check, Rng};
use partir_spmd::{
    apply_collective, lower, predict_traffic, CompiledPlan, PlanOptions, RuntimeConfig,
    ThreadedRuntime,
};

#[test]
fn threaded_runtime_matches_reference_and_prediction() {
    let model = partir_models::mlp::build_train_step(&MlpConfig::small()).unwrap();
    let reference = {
        let inputs = partir_models::synthetic_inputs(&model, 4242);
        interpret(&model.func, &inputs).unwrap()
    };

    check("threaded runtime matches reference", 24, |rng| {
        let mesh = Mesh::new([("a", 2), ("b", 2)]).unwrap();
        let axes = [Axis::new("a"), Axis::new("b")];
        let mut part = Partitioning::new(&model.func, mesh).unwrap();
        let params = model.func.params();
        // A random schedule: tile/atomic actions over the step's inputs
        // (data batch, labels, parameter stack).
        let n_actions = rng.gen_range_in(1, 5);
        for _ in 0..n_actions {
            let value = params[rng.gen_range(params.len())];
            let axis = &axes[rng.gen_range(2)];
            if rng.gen_bool(0.15) {
                let _ = part.atomic(&model.func, value, axis);
            } else {
                let rank = model.func.value_type(value).rank();
                if rank == 0 {
                    continue;
                }
                let _ = part.tile(&model.func, value, rng.gen_range(rank), axis);
            }
            part.propagate(&model.func);
        }

        let program = lower(&model.func, &part).unwrap();

        let inputs = partir_models::synthetic_inputs(&model, 4242);
        let plan = program
            .compile()
            .map_err(|e| format!("plan compilation failed: {e}"))?;
        let per_device = program.shard_inputs(&inputs).unwrap();
        // Threaded == scheduled on the same plan, element-exact, under a
        // drawn seed.
        let rt = ThreadedRuntime::default();
        let free = rt
            .run_plan(&plan, &per_device)
            .map_err(|e| format!("threaded execution failed: {e}"))?;
        let seed = rng.next_u64();
        let scheduled = rt
            .run_scheduled(&plan, &per_device, seed)
            .map_err(|e| format!("scheduled execution (seed {seed}) failed: {e}"))?;
        if free.outputs != scheduled.outputs {
            return Err(format!(
                "threaded outputs differ from scheduled (seed {seed})"
            ));
        }
        let (threaded, stats) = program
            .execute_global_planned(&plan, &inputs, &RuntimeConfig::default())
            .map_err(|e| format!("planned execution failed: {e}"))?;
        // Overlap must never change *what* is communicated, only *when*:
        // the overlapped plan's per-axis bytes and messages equal the
        // blocking plan's, and both equal the prediction.
        let blocking = program
            .compile_with(&PlanOptions::blocking())
            .map_err(|e| format!("blocking plan compilation failed: {e}"))?;
        let (blocked, blocking_stats) = program
            .execute_global_planned(&blocking, &inputs, &RuntimeConfig::default())
            .map_err(|e| format!("blocking execution failed: {e}"))?;
        if blocked != threaded {
            return Err("blocking-plan outputs differ from the overlapped plan's".into());
        }
        if stats.per_axis != blocking_stats.per_axis {
            return Err(format!(
                "overlapped traffic {:?} != blocking traffic {:?}",
                stats.per_axis, blocking_stats.per_axis
            ));
        }
        // Concurrent == global reference, within f32 reassociation slack.
        for (i, (r, t)) in reference.iter().zip(&threaded).enumerate() {
            let scale = r
                .as_f32()
                .map(|v| v.iter().fold(1.0f32, |m, x| m.max(x.abs())))
                .unwrap_or(1.0);
            let diff = r.max_abs_diff(t).unwrap();
            if diff > 1e-4 * scale {
                return Err(format!("output {i} deviates by {diff} at scale {scale}"));
            }
        }
        // Executed bytes and messages == prediction, exactly, per axis.
        let predicted = program.predicted_traffic().unwrap();
        if !stats.matches_prediction(&predicted) {
            return Err(format!(
                "executed traffic {:?} != predicted {:?}",
                stats.per_axis, predicted.per_axis
            ));
        }
        Ok(())
    });
}

/// Elements in 256 KiB of `f32`, more than any workload's `all_reduce`
/// carries: the leader algorithm must stay exact past it.
const LARGE_ELEMS: usize = 256 * 1024 / 4;

/// Seeds each one-collective program is scheduled under.
const SPEC_SEEDS: u64 = 4;

/// Draws one collective over `mesh` and an operand type it accepts: a
/// random subset of the mesh's axes in random order, every kind
/// (`all_to_all` on one axis and on several), `all_reduce` payloads
/// with fewer elements than devices, and now and then one larger than
/// 256 KiB. Also returns which case it
/// drew, so the property can require every case.
fn random_collective(rng: &mut Rng, mesh: &Mesh) -> (Collective, TensorType, &'static str) {
    let kind = rng.gen_range(6);
    let mut axes: Vec<(Axis, usize)> = mesh.axes().to_vec();
    for i in (1..axes.len()).rev() {
        axes.swap(i, rng.gen_range(i + 1));
    }
    let count = match kind {
        4 => 1,
        5 => rng.gen_range_in(2, axes.len() + 1),
        _ => rng.gen_range_in(1, axes.len() + 1),
    };
    axes.truncate(count);
    let names: Vec<Axis> = axes.iter().map(|(a, _)| a.clone()).collect();
    // Each axis lands on a random dim; a sliced dim is a multiple of
    // the product of its axes' sizes.
    let spread = |rng: &mut Rng, sliced: bool| {
        let rank = rng.gen_range_in(1, 4);
        let mut dim_axes = vec![Vec::new(); rank];
        let mut dims: Vec<usize> = (0..rank).map(|_| rng.gen_range_in(1, 4)).collect();
        for (axis, k) in &axes {
            let d = rng.gen_range(rank);
            dim_axes[d].push(axis.clone());
            if sliced {
                dims[d] *= k;
            }
        }
        (dim_axes, TensorType::f32(dims))
    };
    let reduce = *rng.choose(&[ReduceOp::Sum, ReduceOp::Max]);
    match kind {
        0 => {
            let (n, case) = if rng.gen_bool(0.25) {
                (LARGE_ELEMS + 1 + rng.gen_range(64), "all_reduce large")
            } else {
                (rng.gen_range_in(1, 12), "all_reduce small")
            };
            let c = Collective::AllReduce {
                axes: names,
                reduce,
            };
            (c, TensorType::f32([n]), case)
        }
        1 => {
            let (dim_axes, ty) = spread(rng, false);
            (Collective::AllGather { dim_axes }, ty, "all_gather")
        }
        2 => {
            let (dim_axes, ty) = spread(rng, true);
            (Collective::AllSlice { dim_axes }, ty, "all_slice")
        }
        3 => {
            let (dim_axes, ty) = spread(rng, true);
            let c = Collective::ReduceScatter { dim_axes, reduce };
            (c, ty, "reduce_scatter")
        }
        _ => {
            let rank = rng.gen_range_in(2, 4);
            let src_dim = rng.gen_range(rank);
            let dst_dim = (src_dim + rng.gen_range_in(1, rank)) % rank;
            let mut dims: Vec<usize> = (0..rank).map(|_| rng.gen_range_in(1, 4)).collect();
            dims[dst_dim] *= axes.iter().map(|(_, k)| k).product::<usize>();
            let case = if kind == 4 {
                "all_to_all one axis"
            } else {
                "all_to_all several axes"
            };
            let c = Collective::AllToAll {
                src_dim,
                dst_dim,
                axes: names,
            };
            (c, TensorType::f32(dims), case)
        }
    }
}

/// The dtype of a drawn operand: `f32` or `i32` for the reducing kinds
/// (`pred` has no fold), any of the three for the others.
fn random_dtype(rng: &mut Rng, c: &Collective) -> DType {
    match c {
        Collective::AllReduce { .. } | Collective::ReduceScatter { .. } => {
            *rng.choose(&[DType::F32, DType::I32])
        }
        _ => *rng.choose(&[DType::F32, DType::I32, DType::Pred]),
    }
}

/// A device's operand: `f32` values whose sums depend on the fold order,
/// `i32` values that overflow when summed (sums wrap), random `pred`s.
fn random_operand(rng: &mut Rng, ty: &TensorType) -> Literal {
    let (n, shape) = (ty.shape.num_elements(), ty.shape.clone());
    match ty.dtype {
        DType::F32 => {
            let scale = *rng.choose(&[1e-3f32, 1.0, 1e3]);
            let data = (0..n).map(|_| (rng.unit_f32() - 0.5) * scale).collect();
            Literal::from_f32(data, shape)
        }
        DType::I32 => Literal::from_i32((0..n).map(|_| rng.next_u64() as i32).collect(), shape),
        DType::Pred => Literal::from_pred((0..n).map(|_| rng.gen_bool(0.5)).collect(), shape),
        dt => unreachable!("{dt} is never drawn"),
    }
    .unwrap()
}

/// Shape, dtype and element bits: equality here is bit-identity (signed
/// zeros and NaN payloads included), not `f32` equality.
fn bits(lit: &Literal) -> (Vec<usize>, DType, Vec<u32>) {
    let data = match lit.dtype() {
        DType::F32 => lit.as_f32().unwrap().iter().map(|v| v.to_bits()).collect(),
        DType::I32 => lit.as_i32().unwrap().iter().map(|&v| v as u32).collect(),
        DType::Pred => lit
            .as_pred()
            .unwrap()
            .iter()
            .map(|&v| u32::from(v))
            .collect(),
        dt => unreachable!("{dt} is never drawn"),
    };
    (lit.shape().dims().to_vec(), lit.dtype(), data)
}

#[test]
fn scheduled_collectives_match_their_specification() {
    let meshes = [
        Mesh::new([("a", 1), ("b", 2)]).unwrap(),
        Mesh::new([("a", 2), ("b", 2)]).unwrap(),
        Mesh::new([("a", 4), ("b", 2)]).unwrap(),
        Mesh::new([("a", 2), ("b", 2), ("c", 2)]).unwrap(),
    ];
    let mut seen = std::collections::BTreeSet::new();
    let mut dtypes = std::collections::BTreeSet::new();
    check("scheduled collective == specification", 96, |rng| {
        let mesh = rng.choose(&meshes).clone();
        let (c, ty, case) = random_collective(rng, &mesh);
        let ty = TensorType::new(ty.shape, random_dtype(rng, &c));
        seen.insert(case);
        dtypes.insert(ty.dtype.to_string());
        let what = format!("{c:?} of {ty} on {mesh:?}");
        let mut b = FuncBuilder::with_mesh("one", mesh.clone());
        let x = b.param("x", ty.clone());
        let y = b
            .collective(c.clone(), x)
            .map_err(|e| format!("{what}: {e}"))?;
        let func = b.build([y]).map_err(|e| format!("{what}: {e}"))?;
        let options = if rng.gen_bool(0.5) {
            PlanOptions::default()
        } else {
            PlanOptions::blocking()
        };
        let plan =
            CompiledPlan::compile(&func, &mesh, &options).map_err(|e| format!("{what}: {e}"))?;
        let inputs: Vec<Vec<Literal>> = (0..mesh.num_devices())
            .map(|_| vec![random_operand(rng, &ty)])
            .collect();
        let spec: Vec<_> =
            apply_collective(&c, &mesh, inputs.iter().map(|d| d[0].clone()).collect())
                .map_err(|e| format!("{what}: spec: {e}"))?
                .iter()
                .map(bits)
                .collect();
        let predicted = predict_traffic(&func, &mesh).unwrap();
        for seed in 0..SPEC_SEEDS {
            // Garbage in the executors the previous run parked: the result
            // must not depend on what its slot held before.
            plan.scribble_parked_executors();
            let run = ThreadedRuntime::default()
                .run_scheduled(&plan, &inputs, seed)
                .map_err(|e| format!("{what}, seed {seed}: {e}"))?;
            let got: Vec<_> = run.outputs.iter().map(|o| bits(&o[0])).collect();
            if got != spec {
                return Err(format!("{what}, seed {seed}: outputs differ from the spec"));
            }
            if !run.stats.matches_prediction(&predicted) {
                return Err(format!(
                    "{what}, seed {seed}: executed {:?} != predicted {:?}",
                    run.stats.per_axis, predicted.per_axis
                ));
            }
        }
        Ok(())
    });
    assert_eq!(seen.len(), 7, "cases drawn: {seen:?}");
    assert_eq!(dtypes.len(), 3, "dtypes drawn: {dtypes:?}");
}
