//! Threaded-runtime benchmark: wall time of the concurrent
//! message-passing runtime executing a pre-compiled plan
//! (`SpmdProgram::compile` once, `execute_global_planned` per step),
//! beside `execute_global` — compile plus one run under the seeded
//! turn-taking scheduler, one device at a time — on model-zoo
//! schedules, with the
//! executed per-axis traffic (bytes, messages, rendezvous waits) and
//! its agreement with the static prediction — plus before/after
//! timings of the dot kernel engine (blocked batched matmul vs the
//! retained index-walk oracle). Each runtime row also reports the
//! plan's overlap: how many collective start/wait windows were hoisted
//! open (`overlap_windows`) and how much collective time the
//! two-resource event model predicts they hide (`overlap_hidden_ms`).
//!
//! Three row groups:
//! * seed-era rows (`MLP`, `T-tiny`) — identical names and configs to
//!   the committed baseline, so before/after wall time compares by row;
//! * benchmark-scale rows (`MLP-big`, `T-train`) — sized so per-device
//!   compute dominates, the regime the runtime comparison is about;
//! * kernel rows — the blocked dot fast path vs the index-walk oracle.
//!
//! Each runtime row is the best of [`TRIALS`] runs after one discarded
//! warm-up, so neither runtime eats the process cold-start.
//!
//! Writes machine-readable results to `BENCH_runtime.json` in the
//! current directory (and prints the usual aligned table; `--json`
//! prints the rows as JSON too).
//!
//! Run with: `cargo run --release -p partir-bench --bin bench_runtime`

use std::time::Instant;

use partir_bench::{emit, rows_to_json, tpu_mesh, Row};
use partir_core::Partitioning;
use partir_ir::kernels::{dot_general, dot_general_reference};
use partir_ir::{DotDims, Literal};
use partir_mesh::HardwareConfig;
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::{mlp::MlpConfig, transformer::TransformerConfig, BuiltModel};
use partir_sched::partir_jit;
use partir_sim::event::{measure_overlap, EventConfig};
use partir_spmd::{RuntimeConfig, SpmdProgram};

/// Timed runs per measurement (after one discarded warm-up).
const TRIALS: usize = 5;

/// Times one closure, returning (seconds, result).
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Minimum wall times of two *interleaved* measurements: one discarded
/// warm-up of each, then [`TRIALS`] alternating timed runs of each.
/// Interleaving matters: machine noise here drifts on a scale of whole
/// runs, so timing all of `a` then all of `b` hands whichever side runs
/// during the quiet spell a bogus win. Min-of-N of alternating runs
/// converges on each side's true floor instead.
fn interleaved_best<A, B>(mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> (f64, A, f64, B) {
    let mut best_a = {
        let _warm = a();
        timed(&mut a)
    };
    let mut best_b = {
        let _warm = b();
        timed(&mut b)
    };
    for _ in 1..TRIALS {
        let run = timed(&mut a);
        if run.0 < best_a.0 {
            best_a = run;
        }
        let run = timed(&mut b);
        if run.0 < best_b.0 {
            best_b = run;
        }
    }
    (best_a.0, best_a.1, best_b.0, best_b.1)
}

/// Benchmarks one lowered program: a scheduled `execute_global` beside
/// threaded execution of a pre-compiled plan. Plan compilation happens once,
/// outside the timed region — the compile-once/run-many split the plan
/// layer exists for — and is reported as its own `compile_ms` metric.
fn bench_program(
    model: &BuiltModel,
    program: &SpmdProgram,
    hw: &HardwareConfig,
    name: &str,
    schedule: &str,
) -> Row {
    let inputs = partir_models::synthetic_inputs(model, 99);
    let (compile_s, plan) = timed(|| program.compile().expect("plan"));
    // Overlap accounting: how many collective start/wait windows the
    // plan actually hoisted open, and how much collective time the
    // two-resource event model predicts those windows hide behind
    // compute (`overlap_hidden_ms`).
    let overlap_windows = plan
        .collective_windows()
        .iter()
        .filter(|w| w.gap_steps > 0)
        .count();
    let (_, overlap) =
        measure_overlap(program.func(), hw, &EventConfig::default()).expect("event model");
    let (scheduled_s, scheduled, threaded_s, out) = interleaved_best(
        || program.execute_global(&inputs).expect("scheduled"),
        || {
            program
                .execute_global_planned(&plan, &inputs, &RuntimeConfig::default())
                .expect("threaded")
        },
    );
    let (threaded, stats) = out;
    assert_eq!(threaded, scheduled, "{name}/{schedule}: runs disagree");
    let predicted = program.predicted_traffic().expect("prediction");
    Row::new("runtime", name, schedule)
        .metric("devices", program.mesh().num_devices() as f64)
        .metric("compile_ms", compile_s * 1e3)
        .metric("scheduled_ms", scheduled_s * 1e3)
        .metric("threaded_ms", threaded_s * 1e3)
        .metric("arena_bytes", plan.arena_bytes() as f64)
        .metric("fused_ops", plan.fused_ops() as f64)
        .metric("overlap_windows", overlap_windows as f64)
        .metric("overlap_hidden_ms", overlap.hidden_s() * 1e3)
        .metric("bytes", stats.total_bytes() as f64)
        .metric("messages", stats.total_messages() as f64)
        .metric("rendezvous_waits", stats.rendezvous_waits as f64)
        .metric(
            "matches_prediction",
            f64::from(u8::from(stats.matches_prediction(&predicted))),
        )
}

/// Before/after timing of one dot shape: the blocked batched-matmul fast
/// path vs the index-walk oracle it replaced (and is tested against).
fn bench_kernel(label: &str, dims: &DotDims, lhs_dims: &[usize], rhs_dims: &[usize]) -> Row {
    let fill = |dims: &[usize], scale: f32| {
        let n: usize = dims.iter().product();
        let data: Vec<f32> = (0..n).map(|i| (i % 97) as f32 * scale - 1.5).collect();
        Literal::from_f32(data, dims.to_vec()).expect("literal")
    };
    let lhs = fill(lhs_dims, 0.03);
    let rhs = fill(rhs_dims, 0.05);
    let (blocked_s, fast, reference_s, oracle) = interleaved_best(
        || dot_general(dims, &lhs, &rhs).expect("fast dot"),
        || dot_general_reference(dims, &lhs, &rhs).expect("oracle dot"),
    );
    assert_eq!(
        fast, oracle,
        "kernel {label}: fast path diverged from oracle"
    );
    Row::new("kernel", "dot", label)
        .metric("blocked_ms", blocked_s * 1e3)
        .metric("reference_ms", reference_s * 1e3)
        .metric("kernel_speedup", reference_s / blocked_s.max(1e-12))
}

/// The MLP step with batch-tiled data and a Megatron-sharded layer.
/// Sized so per-device compute, not thread spawn, dominates the runtime
/// comparison (the kernel engine made the seed-era sizes sub-millisecond);
/// `--tiny` keeps the seed-era correctness-test sizes for CI smoke runs.
fn mlp_program(hw: &HardwareConfig, tiny: bool) -> (BuiltModel, SpmdProgram) {
    let cfg = if tiny {
        MlpConfig::small()
    } else {
        MlpConfig {
            batch: 128,
            d_in: 128,
            d_hidden: 256,
            d_out: 64,
            layers: 3,
        }
    };
    let model = partir_models::mlp::build_train_step(&cfg).expect("model");
    let mut part = Partitioning::new(&model.func, hw.mesh.clone()).expect("state");
    let params = model.func.params().to_vec();
    part.tile(&model.func, params[0], 0, &BATCH.into())
        .expect("tile");
    part.tile(&model.func, params[2], 1, &MODEL.into())
        .expect("tile");
    part.propagate(&model.func);
    let program = partir_spmd::lower(&model.func, &part)
        .expect("lower")
        .fused()
        .expect("fuse");
    (model, program)
}

fn main() {
    partir_bench::tune_allocator_for_benchmarks();
    // `--tiny`: seed-era sizes only and small kernel shapes — the CI
    // smoke configuration, where what matters is that the runtimes agree
    // and `matches_prediction` holds, not the timings.
    let tiny = std::env::args().any(|a| a == "--tiny");
    // `--profile`: record the whole run with partir-obs and write a
    // Chrome trace (`BENCH_runtime.trace.json`) alongside the results.
    if let Some(collector) = std::env::args()
        .any(|a| a == "--profile")
        .then(partir_obs::Collector::recording)
    {
        partir_obs::with_track(&collector, "main", || run(tiny));
        std::fs::write(
            "BENCH_runtime.trace.json",
            collector.snapshot().to_chrome_json(),
        )
        .expect("write BENCH_runtime.trace.json");
        eprintln!("wrote BENCH_runtime.trace.json");
    } else {
        run(tiny);
    }
}

fn run(tiny: bool) {
    let mut rows = Vec::new();

    // Seed-era rows, names and configs unchanged from the committed
    // baseline so the before/after wall-time comparison is by like rows.
    for (b, m) in [(2usize, 2usize), (4, 2)] {
        let hw = tpu_mesh(b, m);
        let (model, program) = mlp_program(&hw, true);
        rows.push(bench_program(
            &model,
            &program,
            &hw,
            "MLP",
            &format!("mm {b}x{m}"),
        ));
    }
    let transformer =
        partir_models::transformer::build_train_step(&TransformerConfig::tiny()).expect("model");
    let hw = tpu_mesh(2, 2);
    for (name, schedule) in schedules::transformer_table2() {
        let jitted = partir_jit(&transformer.func, &hw, &schedule).expect("jit");
        rows.push(bench_program(
            &transformer,
            &jitted.program,
            &hw,
            "T-tiny",
            name,
        ));
    }

    // Benchmark-scale rows: per-device compute dominates, which is what
    // the runtime comparison is about (the seed-era sizes above became
    // overhead-bound once the kernel engine landed).
    if !tiny {
        for (b, m) in [(2usize, 2usize), (4, 2)] {
            let hw = tpu_mesh(b, m);
            let (model, program) = mlp_program(&hw, false);
            rows.push(bench_program(
                &model,
                &program,
                &hw,
                "MLP-big",
                &format!("mm {b}x{m}"),
            ));
        }
        let cfg = TransformerConfig {
            layers: 2,
            d_model: 32,
            heads: 2,
            d_ff: 128,
            vocab: 64,
            seq: 32,
            batch: 64,
        };
        let transformer = partir_models::transformer::build_train_step(&cfg).expect("model");
        for (name, schedule) in schedules::transformer_table2() {
            let jitted = partir_jit(&transformer.func, &hw, &schedule).expect("jit");
            rows.push(bench_program(
                &transformer,
                &jitted.program,
                &hw,
                "T-train",
                name,
            ));
        }
    }

    // Kernel engine before/after: blocked fast path vs index-walk oracle.
    let mm = if tiny { 96 } else { 256 };
    rows.push(bench_kernel(
        &format!("mm {mm}"),
        &DotDims::matmul(),
        &[mm, mm],
        &[mm, mm],
    ));
    rows.push(bench_kernel(
        "batched qk^t",
        &DotDims {
            lhs_batch: vec![0],
            rhs_batch: vec![0],
            lhs_contract: vec![2],
            rhs_contract: vec![2],
        },
        &[8, 64, 32],
        &[8, 64, 32],
    ));
    if !tiny {
        rows.push(bench_kernel(
            "transposed mm",
            &DotDims {
                lhs_batch: vec![],
                rhs_batch: vec![],
                lhs_contract: vec![0],
                rhs_contract: vec![1],
            },
            &[192, 128],
            &[160, 192],
        ));
    }

    emit(&rows);
    let json = rows_to_json(&rows);
    std::fs::write("BENCH_runtime.json", format!("{json}\n")).expect("write BENCH_runtime.json");
    eprintln!("wrote BENCH_runtime.json");
}
