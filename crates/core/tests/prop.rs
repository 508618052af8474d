//! Property-based tests of propagation soundness: for random programs
//! and random action sequences, the sharded program under sequential
//! (temporal) semantics must equal the unpartitioned reference — the
//! executable form of the paper's semantics-preservation claim —
//! propagation must be monotone and idempotent, the incremental
//! worklist propagation must agree exactly with the whole-module
//! fixed point, and an in-place trial (`Partitioning::probe`) must show
//! exactly the state `clone → tile → propagate` reaches and leave no
//! trace behind.

use partir_core::{temporal::interpret_sharded, Partitioning};
use partir_ir::{
    interp::interpret, BinaryOp, Func, FuncBuilder, Literal, TensorType, UnaryOp, ValueId,
};
use partir_mesh::{Axis, Mesh};
use partir_prng::{propcheck::check, Rng};

const N: usize = 8;

/// One step of random program construction over a pool of `[N, N]` values.
#[derive(Debug, Clone)]
enum Step {
    Unary(UnaryOp, usize),
    Binary(BinaryOp, usize, usize),
    Matmul(usize, usize),
    Transpose(usize),
    RowSumBroadcast(usize),
}

fn gen_step(rng: &mut Rng) -> Step {
    match rng.gen_range(5) {
        0 => {
            let u = *rng.choose(&[UnaryOp::Tanh, UnaryOp::Neg, UnaryOp::Abs]);
            Step::Unary(u, rng.gen_range(64))
        }
        1 => {
            let b = *rng.choose(&[BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Max]);
            Step::Binary(b, rng.gen_range(64), rng.gen_range(64))
        }
        2 => Step::Matmul(rng.gen_range(64), rng.gen_range(64)),
        3 => Step::Transpose(rng.gen_range(64)),
        _ => Step::RowSumBroadcast(rng.gen_range(64)),
    }
}

fn gen_steps(rng: &mut Rng) -> Vec<Step> {
    let len = rng.gen_range_in(1, 12);
    (0..len).map(|_| gen_step(rng)).collect()
}

/// An action on a random value: (value index, dim, axis index, atomic?).
type Action = (usize, usize, usize, bool);

fn gen_actions(rng: &mut Rng, min: usize) -> Vec<Action> {
    let len = rng.gen_range_in(min, 6);
    (0..len)
        .map(|_| {
            (
                rng.gen_range(64),
                rng.gen_range(2),
                rng.gen_range(2),
                rng.gen_bool(0.2),
            )
        })
        .collect()
}

fn build_program(steps: &[Step]) -> (Func, Vec<ValueId>) {
    let mut b = FuncBuilder::new("prop");
    let mut pool = vec![
        b.param("x", TensorType::f32([N, N])),
        b.param("y", TensorType::f32([N, N])),
        b.param("z", TensorType::f32([N, N])),
    ];
    for step in steps {
        let pick = |i: usize| pool[i % pool.len()];
        let v = match step {
            Step::Unary(u, i) => b.unary(*u, pick(*i)).unwrap(),
            Step::Binary(op, i, j) => b.binary(*op, pick(*i), pick(*j)).unwrap(),
            Step::Matmul(i, j) => b.matmul(pick(*i), pick(*j)).unwrap(),
            Step::Transpose(i) => b.transpose(pick(*i), vec![1, 0]).unwrap(),
            Step::RowSumBroadcast(i) => {
                let s = b.reduce_sum(pick(*i), vec![1]).unwrap();
                b.broadcast_in_dim(s, [N, N], vec![0]).unwrap()
            }
        };
        pool.push(v);
    }
    let result = *pool.last().unwrap();
    let func = b.build([result]).unwrap();
    (func, pool)
}

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

fn test_mesh() -> (Mesh, [Axis; 2]) {
    let mesh = Mesh::new([("a", 2), ("b", 2)]).unwrap();
    (mesh, [Axis::new("a"), Axis::new("b")])
}

fn apply_actions(func: &Func, pool: &[ValueId], actions: &[Action]) -> Partitioning {
    let (mesh, axes) = test_mesh();
    let mut part = Partitioning::new(func, mesh).unwrap();
    for &(v, dim, axis, atomic) in actions {
        let value = pool[v % pool.len()];
        let axis = &axes[axis];
        // Actions may legitimately be rejected (axis in use, atomic,
        // indivisible); propagation soundness must hold regardless.
        if atomic {
            let _ = part.atomic(func, value, axis);
        } else {
            let _ = part.tile(func, value, dim, axis);
        }
        part.propagate(func);
    }
    part
}

#[test]
fn temporal_semantics_match_reference() {
    check("temporal semantics match reference", 48, |rng| {
        let steps = gen_steps(rng);
        let actions = gen_actions(rng, 0);
        let (func, pool) = build_program(&steps);
        let part = apply_actions(&func, &pool, &actions);
        let inputs = inputs_for(&func, rng);
        let reference = interpret(&func, &inputs).unwrap();
        let temporal = interpret_sharded(&func, &part, &inputs).unwrap();
        let diff = reference[0].max_abs_diff(&temporal[0]).unwrap();
        // Tolerance scales with magnitude (matmul chains can grow).
        let scale = reference[0]
            .as_f32()
            .unwrap()
            .iter()
            .fold(1.0f32, |m, v| m.max(v.abs()));
        if diff <= 1e-4 * scale {
            Ok(())
        } else {
            Err(format!("diff {diff} at scale {scale}"))
        }
    });
}

#[test]
fn propagation_is_idempotent_and_monotone() {
    check("propagation is idempotent and monotone", 48, |rng| {
        let steps = gen_steps(rng);
        let actions = gen_actions(rng, 1);
        let (func, pool) = build_program(&steps);
        let part = apply_actions(&func, &pool, &actions);
        // A second propagate applies nothing new.
        let mut again = part.clone();
        let report = again.propagate(&func);
        if report.applied != 0 || report.inferred != 0 {
            return Err(format!(
                "not idempotent: {} rewrites, {} inferences on re-propagation",
                report.applied, report.inferred
            ));
        }
        if again.fingerprint() != part.fingerprint() {
            return Err("re-propagation changed the fingerprint".to_string());
        }
        // Contexts never mention an axis twice and tiled dims stay in
        // bounds and divisible.
        let mesh = part.mesh().clone();
        for v in func.value_ids() {
            let ctx = part.value_ctx(v);
            let mut seen = std::collections::HashSet::new();
            for (axis, kind) in ctx.entries() {
                if !seen.insert(axis.clone()) {
                    return Err(format!("duplicate axis {axis} in ctx of {v:?}"));
                }
                if let partir_core::ShardKind::Tile { dim } = kind {
                    if *dim >= func.value_type(v).rank() {
                        return Err(format!("tiled dim {dim} out of range for {v:?}"));
                    }
                }
            }
            // Local shape divisibility holds (local_shape panics otherwise).
            let _ = ctx.local_shape(&func.value_type(v).shape, &mesh);
        }
        Ok(())
    });
}

/// The tentpole property of the fingerprinted pipeline: the incremental
/// worklist propagation (seeded from the dirty neighbourhood) must land
/// on exactly the state the whole-module fixed point lands on — same
/// contexts, same conflicts, same fingerprint — for every prefix of a
/// random action sequence on a random program, or on random parameters
/// of a zoo model. The zoo models have hundreds of ops, so their rewrites
/// re-enqueue ops many 64-op words below the one being visited.
#[test]
fn incremental_propagation_matches_full_fixpoint() {
    let zoo = zoo();
    check("incremental propagation matches full fixpoint", 48, |rng| {
        let random;
        let (func, pool): (&Func, &[ValueId]) = if rng.gen_bool(0.5) {
            let func = &zoo[rng.gen_range(zoo.len())];
            (func, func.params())
        } else {
            random = build_program(&gen_steps(rng));
            (&random.0, &random.1)
        };
        let actions = gen_actions(rng, 1);
        let (mesh, axes) = test_mesh();
        let mut inc = Partitioning::new(func, mesh.clone()).unwrap();
        let mut full = Partitioning::new(func, mesh).unwrap();
        for &(v, dim, axis, atomic) in &actions {
            let value = pool[v % pool.len()];
            let dim = dim % func.value_type(value).rank().max(1);
            let axis = &axes[axis];
            let (ri, rf) = if atomic {
                (
                    inc.atomic(func, value, axis),
                    full.atomic(func, value, axis),
                )
            } else {
                (
                    inc.tile(func, value, dim, axis),
                    full.tile(func, value, dim, axis),
                )
            };
            if ri.is_ok() != rf.is_ok() {
                return Err(format!(
                    "action acceptance diverged on {value:?}: {ri:?} vs {rf:?}"
                ));
            }
            let inc_report = inc.propagate(func);
            let full_report = full.propagate_full(func);
            if inc_report.conflicts != full_report.conflicts {
                return Err(format!(
                    "conflicts diverged: {:?} vs {:?}",
                    inc_report.conflicts, full_report.conflicts
                ));
            }
            if inc_report.applied != full_report.applied
                || inc_report.inferred != full_report.inferred
            {
                return Err(format!(
                    "work diverged: applied {} vs {}, inferred {} vs {}",
                    inc_report.applied,
                    full_report.applied,
                    inc_report.inferred,
                    full_report.inferred
                ));
            }
        }
        if inc.fingerprint() != full.fingerprint() {
            return Err(format!(
                "fingerprints diverged: {} vs {}",
                inc.fingerprint(),
                full.fingerprint()
            ));
        }
        for v in func.value_ids() {
            if inc.value_ctx(v) != full.value_ctx(v) {
                return Err(format!("value ctx diverged at {v:?}"));
            }
        }
        for op in func.op_ids() {
            if inc.op_ctx(op) != full.op_ctx(op) {
                return Err(format!("op ctx diverged at {op:?}"));
            }
        }
        Ok(())
    });
}

/// Everything a caller can observe of a state.
fn observe(func: &Func, part: &Partitioning) -> impl PartialEq + std::fmt::Debug {
    (
        func.value_ids()
            .map(|v| part.value_ctx(v).clone())
            .collect::<Vec<_>>(),
        func.op_ids()
            .map(|op| part.op_ctx(op).clone())
            .collect::<Vec<_>>(),
        part.fingerprint(),
        part.conflicts(),
        format!("{part:?}"),
    )
}

/// The zoo's four cells at their smallest, built once.
fn zoo() -> Vec<Func> {
    use partir_models::{gns, itransformer, transformer, unet};
    vec![
        transformer::build_train_step(&transformer::TransformerConfig::tiny())
            .unwrap()
            .func,
        unet::build_train_step(&unet::UNetConfig::tiny())
            .unwrap()
            .func,
        gns::build_train_step(&gns::GnsConfig::tiny()).unwrap().func,
        itransformer::build_decode_step(&itransformer::ServingConfig::tiny())
            .unwrap()
            .func,
    ]
}

/// The trial primitive's contract, on the zoo models and on random
/// programs (whose transposes and matmuls leave conflicts for a trial to
/// resolve or reshape): after a random prefix of actions, `probe` of a
/// random tile (a) fails exactly when `tile` would, (b) shows its closure
/// the state `clone → tile → propagate` reaches, also one level deeper
/// through a nested probe, and (c) returns the state — contexts,
/// fingerprint, conflicts, `Debug` output and pending changes — to what
/// it was.
#[test]
fn probe_shows_the_propagated_state_and_leaves_no_trace() {
    let zoo = zoo();
    let (mesh, axes) = test_mesh();
    check("probe leaves no trace", 128, |rng| {
        let random;
        let func = if rng.gen_bool(0.5) {
            &zoo[rng.gen_range(zoo.len())]
        } else {
            random = build_program(&gen_steps(rng)).0;
            &random
        };
        let values: Vec<ValueId> = func.value_ids().collect();
        let gen_tile = |rng: &mut Rng| {
            let v = if rng.gen_bool(0.7) {
                *rng.choose(func.params())
            } else {
                *rng.choose(&values)
            };
            let rank = func.value_type(v).rank().max(1);
            (v, rng.gen_range(rank), &axes[rng.gen_range(2)])
        };
        let mut part = Partitioning::new(func, mesh.clone()).unwrap();
        for _ in 0..rng.gen_range(5) {
            let (v, dim, axis) = gen_tile(rng);
            if rng.gen_bool(0.15) {
                let _ = part.atomic(func, v, axis);
            } else {
                let _ = part.tile(func, v, dim, axis);
            }
            // Sometimes leave the action unpropagated, so the probe
            // starts from a state with pending changes.
            if rng.gen_bool(0.8) {
                part.propagate(func);
            }
        }
        let before = observe(func, &part);
        let mut settled = part.clone();
        settled.propagate(func);

        let (mut v, mut dim, mut axis) = gen_tile(rng);
        // Half the time a conflict is outstanding, aim the trial at it:
        // tiling the ambiguous op's result settles or reshapes the
        // conflict, which the rollback must then put back.
        if let (Some(c), true) = (settled.conflicts().first(), rng.gen_bool(0.5)) {
            v = func.op(c.op).results[0];
            dim = rng.gen_range(func.value_type(v).rank().max(1));
            axis = axes.iter().find(|a| **a == c.axis).unwrap();
        }
        let (v2, dim2, axis2) = gen_tile(rng);
        let mut slow = part.clone();
        let accepted = slow.tile(func, v, dim, axis).is_ok();
        slow.propagate(func);
        let mut deeper = slow.clone();
        let deeper_accepted = deeper.tile(func, v2, dim2, axis2).is_ok();
        deeper.propagate(func);

        let seen = part.probe(func, v, dim, axis, |s| {
            let outer = observe(func, s) == observe(func, &slow);
            let inner = s.probe(func, v2, dim2, axis2, |s2| {
                observe(func, s2) == observe(func, &deeper)
            });
            let restored = observe(func, s) == observe(func, &slow);
            (outer, inner.ok(), restored)
        });
        match seen {
            Err(_) if !accepted => {}
            Err(e) => return Err(format!("probe refused a tile `tile` accepts: {e}")),
            Ok(_) if !accepted => return Err("probe accepted a tile `tile` refuses".into()),
            Ok((outer, inner, restored)) => {
                if !outer {
                    return Err("the closure saw a state other than clone→tile→propagate".into());
                }
                if inner != deeper_accepted.then_some(true) {
                    return Err(format!(
                        "nested probe: saw {inner:?}, tile accepted = {deeper_accepted}"
                    ));
                }
                if !restored {
                    return Err("the nested probe left a trace in the outer one".into());
                }
            }
        }
        if observe(func, &part) != before {
            return Err("probe left a trace".into());
        }
        // Pending changes survive too: propagating now lands where
        // propagating before the probe would have.
        part.propagate(func);
        if observe(func, &part) != observe(func, &settled) {
            return Err("probe lost or invented pending changes".into());
        }
        Ok(())
    });
}
