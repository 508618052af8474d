//! Micro-benchmarks for the PartIR-rs compiler stack: propagation, SPMD
//! lowering, collective fusion, the analytical simulator and the
//! end-to-end `partir_jit` — the slice kernels beside the index-walk
//! forms they replaced and the `tanh`/`exp`/`logistic` lanes beside libm,
//! at the shard shapes of the benchmarked training step — and the `dot`
//! kernel at every device shape of the benchmarked training and decode
//! steps.
//!
//! The workspace is registry-free, so this is a self-timed harness
//! (`harness = false`) instead of criterion: each benchmark runs a
//! warm-up, then reports the median and minimum wall-clock over a fixed
//! number of iterations.
//!
//! Run with: `cargo bench -p partir-bench`

use std::collections::BTreeMap;
use std::time::Instant;

use partir_core::Partitioning;
use partir_ir::interp::eval_op;
use partir_ir::kernels::{apply_un, Buf, BufMut, SliceKernel};
use partir_ir::{reference, CompareDir, DotDims, Literal, OpKind, TensorType, UnaryOp};
use partir_mesh::{HardwareConfig, Mesh};
use partir_models::itransformer::ServingConfig;
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::transformer::TransformerConfig;
use partir_models::BuiltModel;
use partir_sched::{partir_jit, Schedule};
use partir_sim::{SimConfig, Simulator};

/// Times `f` over `iters` iterations (after `warmup` discarded runs) and
/// returns the median and minimum in microseconds.
fn time_us<T>(warmup: u32, iters: u32, mut f: impl FnMut() -> T) -> (f64, f64) {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    (samples[samples.len() / 2], samples[0])
}

/// [`time_us`], printed as `name: median min`.
fn bench<T>(name: &str, warmup: u32, iters: u32, f: impl FnMut() -> T) {
    let (median, min) = time_us(warmup, iters, f);
    println!("{name:<40} median {median:>10.1} µs   min {min:>10.1} µs");
}

fn machine() -> HardwareConfig {
    HardwareConfig::tpu_v3_pod(Mesh::new([(BATCH, 4), (MODEL, 2)]).unwrap())
}

fn transformer_func(layers: usize) -> partir_ir::Func {
    let cfg = TransformerConfig {
        layers,
        ..TransformerConfig::tiny()
    };
    partir_models::transformer::build_train_step(&cfg)
        .expect("model builds")
        .func
}

fn bench_propagation() {
    let func = transformer_func(4);
    let hw = machine();
    let x = func.param_by_name("tokens").unwrap();
    bench("propagate/transformer-4L", 2, 10, || {
        let mut part = Partitioning::new(&func, hw.mesh.clone()).unwrap();
        part.tile(&func, x, 0, &BATCH.into()).unwrap();
        let report = part.propagate(&func);
        assert!(report.conflicts.is_empty());
        part
    });
}

fn bench_lowering() {
    let func = transformer_func(4);
    let hw = machine();
    let x = func.param_by_name("tokens").unwrap();
    let mut part = Partitioning::new(&func, hw.mesh.clone()).unwrap();
    part.tile(&func, x, 0, &BATCH.into()).unwrap();
    part.propagate(&func);
    bench("lower/transformer-4L", 2, 10, || {
        partir_spmd::lower(&func, &part).unwrap()
    });
    let program = partir_spmd::lower(&func, &part).unwrap();
    let sim = Simulator::new(&hw, SimConfig::default());
    bench("simulate/transformer-4L", 2, 10, || {
        sim.simulate(program.func()).unwrap()
    });
}

fn bench_end_to_end_jit() {
    let func = transformer_func(2);
    let hw = machine();
    let schedule = Schedule::new([schedules::t_bp(), schedules::t_mp(), schedules::t_z3()]);
    bench("partir_jit/transformer-2L-BP+MP+Z3", 2, 10, || {
        partir_jit(&func, &hw, &schedule).unwrap()
    });
}

fn bench_tmr_queries() {
    let func = transformer_func(2);
    bench("tmr/whole-function", 2, 10, || {
        func.op_ids()
            .map(|op| partir_core::tmr_entries(&func, op).len())
            .sum::<usize>()
    });
}

/// `compare` / `select` / `pad` / `scatter_add` as one device of the
/// `train_step` workload runs them (T 2L d32 seq32 batch32, `BP+MP+Z3`,
/// 2×2): `old` is the index walk kept in `ir::reference`, `new` is
/// `eval_op`, i.e. result allocation plus the slice kernel a compiled
/// plan runs in place. (`select` was a linear zip in the interpreter
/// already — its cost in a plan was the old fallback's lift into `Literal`s —
/// so its `old` row is the oracle, not what the interpreter used to run.)
fn bench_slice_kernels() {
    let ramp = |dims: &[usize]| -> Literal {
        let n: usize = dims.iter().product();
        Literal::from_f32((0..n).map(|i| (i % 97) as f32).collect(), dims.to_vec()).unwrap()
    };
    let pair = |name: &str, old: &dyn Fn() -> Literal, kind: OpKind, operands: &[&Literal]| {
        bench(&format!("{name} old"), 2, 20, old);
        bench(&format!("{name} new"), 2, 20, || {
            eval_op(&kind, operands).unwrap()
        });
    };

    // Attention-score masking: [16, 1, 32, 32].
    let scores = ramp(&[16, 1, 32, 32]);
    let shifted = ramp(&[16, 1, 32, 32]);
    pair(
        "compare [16,1,32,32]",
        &|| reference::compare(CompareDir::Eq, &scores, &shifted).unwrap(),
        OpKind::Compare(CompareDir::Eq),
        &[&scores, &shifted],
    );
    let mask = reference::compare(CompareDir::Eq, &scores, &shifted).unwrap();
    pair(
        "select [16,1,32,32]",
        &|| reference::select(&mask, &scores, &shifted).unwrap(),
        OpKind::Select,
        &[&mask, &scores, &shifted],
    );
    // One-hot of the targets: [16, 32, 64].
    let logits = ramp(&[16, 32, 64]);
    let onehot = ramp(&[16, 32, 64]);
    pair(
        "compare [16,32,64]",
        &|| reference::compare(CompareDir::Eq, &logits, &onehot).unwrap(),
        OpKind::Compare(CompareDir::Eq),
        &[&logits, &onehot],
    );
    // Head re-assembly in the attention backward pass.
    let head = ramp(&[16, 32, 1, 1, 16]);
    let zero = Literal::scalar_f32(0.0);
    let (low, high) = (vec![0, 0, 0, 1, 0], vec![0, 0, 0, 1, 0]);
    pair(
        "pad [16,32,1,1,16]->[..,3,16]",
        &|| reference::pad(&head, &zero, &low, &high).unwrap(),
        OpKind::Pad {
            low: low.clone(),
            high: high.clone(),
        },
        &[&head, &zero],
    );
    // Embedding gradient: 512 token rows into a 64-row table shard.
    let rows = ramp(&[512, 32]);
    let tokens = Literal::from_i32((0..512).map(|i| (i * 37 % 80) - 8).collect(), [512]).unwrap();
    pair(
        "scatter_add [512,32]->[64,32]",
        &|| reference::scatter_add(&rows, &tokens, 0, 64).unwrap(),
        OpKind::ScatterAdd { axis: 0, size: 64 },
        &[&rows, &tokens],
    );
    // The activations of one training-step device, [16, 32, 128] over
    // [-4, 4], written in place as a plan step writes its arena range.
    let act: Vec<f32> = (0..16 * 32 * 128)
        .map(|i| ((i % 97) as f32 - 48.0) / 12.0)
        .collect();
    let mut out = vec![0.0; act.len()];
    unary_pair("tanh", UnaryOp::Tanh, |x| x.tanh(), &act, &mut out);
    unary_pair("exp", UnaryOp::Exp, |x| x.exp(), &act, &mut out);
    unary_pair(
        "logistic",
        UnaryOp::Logistic,
        |x| 1.0 / (1.0 + (-x).exp()),
        &act,
        &mut out,
    );
}

/// One unary lane over `a` into `d`: `old` is the libm call per element
/// the lanes made before `ir::math`, `new` is `apply_un`.
fn unary_pair(name: &str, op: UnaryOp, libm: impl Fn(f32) -> f32, a: &[f32], d: &mut [f32]) {
    bench(&format!("{name} [16,32,128] old"), 5, 50, || {
        for (y, &x) in d.iter_mut().zip(a) {
            *y = libm(x);
        }
        std::hint::black_box(&mut *d);
    });
    bench(&format!("{name} [16,32,128] new"), 5, 50, || {
        apply_un(op, a, d);
        std::hint::black_box(&mut *d);
    });
}

/// Every distinct `dot` one device runs in `model` partitioned by
/// `schedule` on 2×2, as the device program states it (`OpKind::Dot`
/// and its operand types), with how many times a step runs it.
fn device_dots(model: &BuiltModel, schedule: &Schedule) -> Vec<(DotDims, Vec<TensorType>, usize)> {
    let hw = HardwareConfig::tpu_v3_pod(Mesh::new([(BATCH, 2), (MODEL, 2)]).unwrap());
    let program = partir_jit(&model.func, &hw, schedule).unwrap().program;
    let func = program.func();
    let mut classes: BTreeMap<String, (DotDims, Vec<TensorType>, usize)> = BTreeMap::new();
    for op in func.op_ids().map(|op| func.op(op)) {
        if let OpKind::Dot(dims) = &op.kind {
            let types: Vec<TensorType> = op
                .operands
                .iter()
                .map(|&v| func.value_type(v).clone())
                .collect();
            let key = format!("{dims:?} {types:?}");
            classes.entry(key).or_insert((dims.clone(), types, 0)).2 += 1;
        }
    }
    classes.into_values().collect()
}

/// The `dot` kernel as a compiled plan runs it (planned once, then run
/// on preallocated buffers) at every device shape of the two stepped
/// plans the benchmark times — `train_step` (T 2 layers, d_model 32,
/// seq 32, batch 32, `BP+MP+Z3`: 18 shapes, 39 dots a step) and one
/// `serve_mix` decode step (IT32, 16 slots, `BP+MP+MQ`: 8 shapes, 225
/// dots a step), both on 2×2; the same shapes are pinned by name in
/// `crates/ir/tests/kernels_prop.rs`. Prints µs and GMAC/s per shape and
/// the step's `dot` time on one device, each shape weighted by its count.
fn bench_dot() {
    let row = |rows: Vec<(&'static str, Schedule)>, label: &str| {
        rows.into_iter().find(|(l, _)| *l == label).unwrap().1
    };
    let train = partir_models::transformer::build_train_step(&TransformerConfig {
        layers: 2,
        d_model: 32,
        heads: 2,
        d_ff: 128,
        vocab: 64,
        seq: 32,
        batch: 32,
    })
    .unwrap();
    let decode = partir_models::itransformer::build_decode_step(&ServingConfig::it32()).unwrap();
    for (workload, model, schedule) in [
        (
            "train_step",
            train,
            row(schedules::transformer_table2(), "BP+MP+Z3"),
        ),
        (
            "serve_mix decode",
            decode,
            row(schedules::itransformer_table2(), "BP+MP+MQ"),
        ),
    ] {
        let mut step_us = 0.0;
        for (dims, types, count) in device_dots(&model, &schedule) {
            let (kernel, out_ty) = SliceKernel::plan(&OpKind::Dot(dims.clone()), &types).unwrap();
            let ramp = |ty: &TensorType| -> Vec<f32> {
                (0..ty.shape.num_elements())
                    .map(|i| (i % 97) as f32 * 0.01 - 0.5)
                    .collect()
            };
            let (lhs, rhs) = (ramp(&types[0]), ramp(&types[1]));
            let mut out = vec![0f32; out_ty.shape.num_elements()];
            let (median, _) = time_us(3, 60, || {
                kernel
                    .run([Buf::F32(&lhs), Buf::F32(&rhs)], BufMut::F32(&mut out))
                    .unwrap()
            });
            let k: usize = dims
                .lhs_contract
                .iter()
                .map(|&d| types[0].shape.dim(d))
                .product();
            let gmacs = (out.len() * k) as f64 / median / 1e3;
            let shape = format!(
                "{:?}·{:?} c{:?}:{:?}",
                types[0].shape.dims(),
                types[1].shape.dims(),
                dims.lhs_contract,
                dims.rhs_contract
            );
            println!("dot {shape:<44} {count:>3}×  median {median:>8.1} µs  {gmacs:>6.2} GMAC/s");
            step_us += count as f64 * median;
        }
        println!("dot {workload}: {step_us:.1} µs a step per device (count-weighted)");
    }
}

fn main() {
    bench_dot();
    bench_slice_kernels();
    bench_propagation();
    bench_lowering();
    bench_end_to_end_jit();
    bench_tmr_queries();
}
