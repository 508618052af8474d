//! The random programs and partitionings the lowering properties draw:
//! chains of elementwise, matmul, transpose, reduce-broadcast and
//! concatenate-slice steps over two 8×8 inputs, partitioned on a 2×2
//! mesh by random `tile` and `atomic` actions, each followed by
//! propagation.

use partir_core::Partitioning;
use partir_ir::{BinaryOp, Func, FuncBuilder, TensorType, UnaryOp, ValueId};
use partir_mesh::{Axis, Mesh};
use partir_prng::Rng;

const N: usize = 8;

#[derive(Debug, Clone)]
enum Step {
    Unary(UnaryOp, usize),
    Binary(BinaryOp, usize, usize),
    Matmul(usize, usize),
    Transpose(usize),
    ColMaxBroadcast(usize),
    Concat(usize, usize),
}

fn gen_step(rng: &mut Rng) -> Step {
    match rng.gen_range(6) {
        0 => {
            let u = *rng.choose(&[UnaryOp::Tanh, UnaryOp::Neg, UnaryOp::Exp]);
            Step::Unary(u, rng.gen_range(64))
        }
        1 => {
            let b = *rng.choose(&[BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Min]);
            Step::Binary(b, rng.gen_range(64), rng.gen_range(64))
        }
        2 => Step::Matmul(rng.gen_range(64), rng.gen_range(64)),
        3 => Step::Transpose(rng.gen_range(64)),
        4 => Step::ColMaxBroadcast(rng.gen_range(64)),
        _ => Step::Concat(rng.gen_range(64), rng.gen_range(64)),
    }
}

type Action = (usize, usize, usize, bool);

fn gen_actions(rng: &mut Rng) -> Vec<Action> {
    let len = rng.gen_range(6);
    (0..len)
        .map(|_| {
            (
                rng.gen_range(64),
                rng.gen_range(2),
                rng.gen_range(2),
                rng.gen_bool(0.15),
            )
        })
        .collect()
}

fn build_program(steps: &[Step]) -> (Func, Vec<ValueId>) {
    let mut b = FuncBuilder::new("prop");
    let mut pool = vec![
        b.param("x", TensorType::f32([N, N])),
        b.param("y", TensorType::f32([N, N])),
    ];
    for step in steps {
        let pick = |i: usize| pool[i % pool.len()];
        let v = match step {
            Step::Unary(u, i) => b.unary(*u, pick(*i)).unwrap(),
            Step::Binary(op, i, j) => b.binary(*op, pick(*i), pick(*j)).unwrap(),
            Step::Matmul(i, j) => b.matmul(pick(*i), pick(*j)).unwrap(),
            Step::Transpose(i) => b.transpose(pick(*i), vec![1, 0]).unwrap(),
            Step::ColMaxBroadcast(i) => {
                let s = b.reduce_max(pick(*i), vec![0]).unwrap();
                b.broadcast_in_dim(s, [N, N], vec![1]).unwrap()
            }
            Step::Concat(i, j) => {
                let c = b.concatenate(&[pick(*i), pick(*j)], 0).unwrap();
                b.slice(c, vec![4, 0], vec![4 + N, N]).unwrap()
            }
        };
        pool.push(v);
    }
    let result = *pool.last().unwrap();
    let func = b.build([result]).unwrap();
    (func, pool)
}

/// A random program and a random partitioning of it.
pub fn random_partitioned(rng: &mut Rng) -> (Func, Partitioning) {
    let steps: Vec<Step> = {
        let len = rng.gen_range_in(1, 10);
        (0..len).map(|_| gen_step(rng)).collect()
    };
    let actions = gen_actions(rng);
    let (func, pool) = build_program(&steps);
    let mesh = Mesh::new([("a", 2), ("b", 2)]).unwrap();
    let axes = [Axis::new("a"), Axis::new("b")];
    let mut part = Partitioning::new(&func, mesh).unwrap();
    for &(v, dim, axis, atomic) in &actions {
        let value = pool[v % pool.len()];
        if atomic {
            let _ = part.atomic(&func, value, &axes[axis]);
        } else {
            let _ = part.tile(&func, value, dim, &axes[axis]);
        }
        part.propagate(&func);
    }
    (func, part)
}
