//! The analyzer's soundness property: programs the static analyzer
//! passes (zero `Error` diagnostics from the device-program lint and
//! from the plan verifier, on the overlapped and the blocking plan)
//! execute deadlock-free on the threaded message-passing runtime —
//! free-running and under the seeded scheduler, over both a 1×2 and a
//! 2×2 mesh — and the static peak-memory bound dominates the simulated
//! peak.
//!
//! This is the link the issue demands between the deadlock *checker*
//! and the deadlock-*prone* runtime: the checker's verdict is tested
//! against actual concurrent execution, not just against itself.

use partir_analysis::{error_count, lint, static_peak_bound, PeakWalk};
use partir_core::Partitioning;
use partir_ir::{BinaryOp, Func, FuncBuilder, Literal, TensorType, UnaryOp, ValueId};
use partir_mesh::{Axis, Mesh};
use partir_prng::{propcheck::check, Rng};
use partir_spmd::{lower, PlanOptions, RuntimeConfig, ThreadedRuntime};

const N: usize = 8;

#[derive(Debug, Clone)]
enum Step {
    Unary(UnaryOp, usize),
    Binary(BinaryOp, usize, usize),
    Matmul(usize, usize),
    Transpose(usize),
}

fn gen_step(rng: &mut Rng) -> Step {
    match rng.gen_range(4) {
        0 => {
            let u = *rng.choose(&[UnaryOp::Tanh, UnaryOp::Neg, UnaryOp::Exp]);
            Step::Unary(u, rng.gen_range(64))
        }
        1 => {
            let b = *rng.choose(&[BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul]);
            Step::Binary(b, rng.gen_range(64), rng.gen_range(64))
        }
        2 => Step::Matmul(rng.gen_range(64), rng.gen_range(64)),
        _ => Step::Transpose(rng.gen_range(64)),
    }
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

fn random_partitioning(func: &Func, pool: &[ValueId], mesh: Mesh, rng: &mut Rng) -> Partitioning {
    let axes: Vec<Axis> = mesh.axes().iter().map(|(a, _)| a.clone()).collect();
    let mut part = Partitioning::new(func, mesh).unwrap();
    let n_actions = rng.gen_range(5);
    for _ in 0..n_actions {
        let value = pool[rng.gen_range(pool.len())];
        let axis = &axes[rng.gen_range(axes.len())];
        if rng.gen_bool(0.15) {
            let _ = part.atomic(func, value, axis);
        } else {
            let _ = part.tile(func, value, rng.gen_range(2), axis);
        }
        part.propagate(func);
    }
    part
}

#[test]
fn analyzer_passing_programs_run_deadlock_free() {
    check("analyzer pass implies deadlock-free", 24, |rng| {
        let steps: Vec<Step> = {
            let len = rng.gen_range_in(1, 8);
            (0..len).map(|_| gen_step(rng)).collect()
        };
        let (func, pool) = build_program(&steps);
        let mesh = if rng.gen_bool(0.5) {
            Mesh::new([("a", 2)]).unwrap() // 1×2
        } else {
            Mesh::new([("a", 2), ("b", 2)]).unwrap() // 2×2
        };
        let part = random_partitioning(&func, &pool, mesh, rng);

        let program = lower(&func, &part).unwrap();
        let diags = lint::lint_device_func(
            program.func(),
            program.mesh(),
            Some(program.input_ctxs()),
            Some(program.output_ctxs()),
        );
        if error_count(&diags) > 0 {
            return Err(format!(
                "analyzer rejected a lowered program:\n{}",
                lint::render(&diags)
            ));
        }

        // The one static deadlock check: both compiled forms of the
        // program, overlapped and blocking, must verify clean.
        let plan = program.compile().map_err(|e| e.to_string())?;
        let blocking = program
            .compile_with(&PlanOptions::blocking())
            .map_err(|e| e.to_string())?;
        for (label, compiled) in [("overlapped", &plan), ("blocking", &blocking)] {
            let diags = compiled.verify();
            if error_count(&diags) > 0 {
                return Err(format!(
                    "plan verifier rejected the {label} plan:\n{}",
                    lint::render(&diags)
                ));
            }
        }

        // The analyzer passed it, so the runtime must not deadlock:
        // neither free-running (any timeout or failure falsifies the
        // property) nor under the seeded scheduler, which reports a
        // deadlock exactly instead of timing out.
        let inputs = inputs_for(&func, rng);
        let (outputs, _stats) = program
            .execute_global_threaded(&inputs, &RuntimeConfig::default())
            .map_err(|e| format!("threaded runtime failed: {e}"))?;
        let per_device = program.shard_inputs(&inputs).map_err(|e| e.to_string())?;
        for seed in 0..4 {
            let run = ThreadedRuntime::default()
                .run_scheduled(&plan, &per_device, seed)
                .map_err(|e| format!("scheduled run (seed {seed}) failed: {e}"))?;
            let scheduled = program
                .unshard_outputs(&run.outputs)
                .map_err(|e| e.to_string())?;
            if scheduled != outputs {
                return Err(format!(
                    "threaded vs scheduled (seed {seed}) outputs differ"
                ));
            }
        }

        // Static memory bound dominates the simulated peak.
        let bound = static_peak_bound(program.func(), &PeakWalk::of(program.func()));
        let simulated = partir_sim::peak_memory_bytes(program.func());
        if bound < simulated {
            return Err(format!("static bound {bound} < simulated peak {simulated}"));
        }
        Ok(())
    });
}
