//! Steady-state allocation audit of the compiled-plan executor.
//!
//! The whole point of the plan layer is that the hot loop — load inputs,
//! run steps — allocates *nothing* once the executor and the kernels'
//! scratch pool are warm. A counting global allocator makes that an
//! assertable property instead of a hope: after one warm-up run, a
//! second `load_inputs` + `run_local_steps` pass must perform zero heap
//! allocations. (`read_outputs` is excluded — it materialises fresh
//! `Literal`s for the caller by design.)
//!
//! Audited: a hand-built function, the two programs the repository
//! benchmarks — the transformer training step and the serving decode
//! step — and the two zoo programs whose kernels those never run: the
//! tiny U-Net step (the three convolution kinds) and the
//! `itransformer::build_serving` loop (`dynamic_slice`,
//! `dynamic_update_slice`, `i32` add). All unpartitioned, on a one-device
//! mesh (no collectives, so every step is local). The real programs are
//! the ones that matter: the hand-built one never contained a predicate
//! or data-movement op, and stayed green while every model-zoo plan ran
//! `pad`/`compare`/`select`/`gather`/`scatter_add`/`arg_max` through an
//! allocating interpreter fallback (deleted since).
//!
//! The threaded runtime is audited for what it promises: it allocates per
//! run (channels, threads, message payloads, outputs), but never an arena —
//! the executors are resident on the plan, so the second `run_plan` of a
//! 2×2 plan makes no allocation as large as the plan's `f32` pool — and
//! its collectives run kernels planned at compile time, so the second
//! `run_plan` of the 2×2 decode step stays under half the allocations it
//! made when they planned kernels per call. A device session keeps its
//! bound state on the devices: a steady-state decode step with the KV
//! caches bound allocates at least every device's cache shards less than
//! the same step feeding the caches back through the host.
//!
//! The same counter pins Figure 10's "measured" memory: on every plan
//! here, the bytes `new_executor` allocates, less its in-flight
//! collective table, are exactly the resident bytes the plan walk
//! (`partir_sim::event::measure_overlap`) reports.
//!
//! The test binary is separate from the other suites so the counter only
//! ever observes this test's own traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use partir_ir::{Func, FuncBuilder, Literal, TensorType};
use partir_mesh::{HardwareConfig, Mesh};
use partir_models::itransformer::{ITransformerConfig, ServingConfig};
use partir_models::schedules::{BATCH, MODEL};
use partir_models::transformer::TransformerConfig;
use partir_models::unet::UNetConfig;
use partir_sched::partir_jit;
use partir_spmd::{CompiledPlan, Session, ThreadedRuntime};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Largest single request since the test last zeroed it, in bytes.
static LARGEST: AtomicU64 = AtomicU64::new(0);
/// Bytes requested since the test started, in total.
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates verbatim to `System`, which upholds
// the full `GlobalAlloc` contract (layout fitting, non-aliasing,
// propagation of null on failure). The only addition is a relaxed
// atomic counter bump, which touches no allocator state and cannot
// unwind — so the delegated calls inherit `System`'s guarantees
// unchanged. This test binary is the one deliberate `unsafe` user in
// the workspace (every library crate is `#![forbid(unsafe_code)]`);
// counting heap traffic from a `#[global_allocator]` is impossible
// without it.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded
    // to `System.alloc` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LARGEST.fetch_max(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: caller guarantees `ptr` came from this allocator with
    // `layout`; `System.dealloc` accepts exactly that.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same delegation argument as `alloc`/`dealloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LARGEST.fetch_max(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A single-device compute program covering the plan's step repertoire:
/// baked constants, fused elementwise chains, matmul, transpose,
/// reduction, reshape and a loop.
fn compute_func() -> partir_ir::Func {
    let mut b = FuncBuilder::new("hot");
    let x = b.param("x", TensorType::f32([16, 32]));
    let w = b.param("w", TensorType::f32([32, 16]));
    let h = b.matmul(x, w).unwrap();
    let a = b.tanh(h).unwrap();
    let s = b.add(a, h).unwrap();
    let t = b.transpose(s, vec![1, 0]).unwrap();
    let flat = b.reshape(t, [256]).unwrap();
    let r = b.reshape(flat, [16, 16]).unwrap();
    let m = b.matmul(h, r).unwrap();
    let looped = b
        .for_loop(3, &[m], |inner, _i, carried| {
            let n = inner.neg(carried[0])?;
            let e = inner.exp(n)?;
            Ok(vec![e])
        })
        .unwrap();
    let red = b.reduce_sum(looped[0], vec![1]).unwrap();
    b.build([red]).unwrap()
}

/// Asserts that a fresh executor for `plan` allocates exactly the
/// resident bytes Fig 10 reports for it, plus its in-flight collective
/// table.
fn assert_executor_holds_the_resident_figure(
    label: &str,
    func: &Func,
    plan: &CompiledPlan,
    mesh: &Mesh,
) {
    let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
    let (report, _) = partir_sim::event::measure_overlap(plan, func, &hw).unwrap();
    let resident = report.peak_memory_bytes;
    let before = BYTES.load(Ordering::SeqCst);
    let st = plan.new_executor();
    let allocated = BYTES.load(Ordering::SeqCst) - before;
    drop(st);
    assert_eq!(
        allocated - plan.in_flight_table_bytes(),
        resident,
        "{label}: a fresh executor allocated {allocated} B"
    );
}

/// Compiles `func` for one device and asserts that, after one warm-up
/// run, `load_inputs` + `run_local_steps` performs no heap allocation.
fn assert_hot_loop_allocates_nothing(label: &str, func: &Func, inputs: &[Literal]) {
    let mesh = Mesh::single("B", 1).unwrap();
    let plan = CompiledPlan::compile(func, &mesh, &Default::default()).unwrap();
    assert_executor_holds_the_resident_figure(label, func, &plan, &mesh);

    let mut st = plan.new_executor();
    // Warm-up: fills the arena and the kernels' thread-local scratch.
    plan.load_inputs(&mut st, inputs).unwrap();
    plan.run_local_steps(&mut st).unwrap();
    let warm = plan.read_outputs(&st).unwrap();

    // Steady state: the hot loop must not touch the heap at all.
    let before = ALLOCS.load(Ordering::SeqCst);
    plan.load_inputs(&mut st, inputs).unwrap();
    plan.run_local_steps(&mut st).unwrap();
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "{label}: plan hot loop allocated {} time(s)",
        after - before
    );

    // And it still computes the same thing.
    let again = plan.read_outputs(&st).unwrap();
    assert_eq!(warm, again, "{label}");
}

/// The transformer training step under BP+MP+Z3 on 2×2, on the threaded
/// runtime: the first `run_plan` allocates the four arenas, the second
/// must find them parked on the plan.
fn assert_second_run_plan_allocates_no_arena() {
    let train = partir_models::transformer::build_train_step(&TransformerConfig::tiny()).unwrap();
    let mesh = Mesh::new([(BATCH, 2), (MODEL, 2)]).unwrap();
    let table = partir_models::schedules::transformer_table2();
    let (_, schedule) = table.iter().find(|(name, _)| *name == "BP+MP+Z3").unwrap();
    let program = partir_jit(
        &train.func,
        &HardwareConfig::tpu_v3_pod(mesh.clone()),
        schedule,
    )
    .unwrap()
    .program;
    let plan = program.compile().unwrap();
    assert_executor_holds_the_resident_figure("2×2 train step", program.func(), &plan, &mesh);
    let pools = plan.verifier_view().pool_len;
    // Pool bytes as the executor allocates them: `Vec<f32>`, `Vec<i32>`,
    // `Vec<bool>`. The bar is the largest pool — the `f32` one, seven
    // eighths of the arena: on this tiny step the `i32` and `pred` pools
    // (3392 B, 400 B) are smaller than a collective payload (2560 B),
    // which the runtime allocates by design.
    let largest_pool = [pools[0] * 4, pools[1] * 4, pools[2]]
        .into_iter()
        .max()
        .expect("three pools") as u64;
    let inputs = partir_models::synthetic_inputs(&train, 1234);
    let per_device = program.shard_inputs(&inputs).unwrap();
    let runtime = ThreadedRuntime::default();
    let first = runtime.run_plan(&plan, &per_device).unwrap().outputs;

    LARGEST.store(0, Ordering::SeqCst);
    let second = runtime.run_plan(&plan, &per_device).unwrap().outputs;
    let largest = LARGEST.load(Ordering::SeqCst);
    assert!(
        largest < largest_pool,
        "second run_plan allocated {largest} B at once; the arena's f32 pool is \
         {largest_pool} B, so an arena was re-created"
    );
    assert_eq!(first, second);
}

/// Collectives finish in the arena: the second `run_plan` of the tiny
/// decode step (`BP+MP+MQ`, 2×2) makes at most half the allocations it
/// made when every collective copied its whole operand into a `Literal`,
/// cut each piece with a freshly built kernel, re-planned a
/// `concatenate` per call and copied its result back through a fresh
/// `Literal`: 1 418 then, 492 with collectives planned at compile time.
/// A return to per-call kernel planning fails here.
fn assert_decode_step_collectives_allocate_little() {
    const BEFORE: u64 = 1418;
    let decode = partir_models::itransformer::build_decode_step(&ServingConfig::tiny()).unwrap();
    let mesh = Mesh::new([(BATCH, 2), (MODEL, 2)]).unwrap();
    let table = partir_models::schedules::itransformer_table2();
    let (_, schedule) = table.iter().find(|(name, _)| *name == "BP+MP+MQ").unwrap();
    let program = partir_jit(
        &decode.func,
        &HardwareConfig::tpu_v3_pod(mesh.clone()),
        schedule,
    )
    .unwrap()
    .program;
    let plan = program.compile().unwrap();
    assert_executor_holds_the_resident_figure("2×2 decode step", program.func(), &plan, &mesh);
    let inputs = partir_models::synthetic_inputs(&decode, 1234);
    let per_device = program.shard_inputs(&inputs).unwrap();
    let runtime = ThreadedRuntime::default();
    // The first run sizes the resident executors and the kernels' scratch.
    let first = runtime.run_plan(&plan, &per_device).unwrap().outputs;
    let before = ALLOCS.load(Ordering::SeqCst);
    let second = runtime.run_plan(&plan, &per_device).unwrap().outputs;
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(first, second);
    assert!(
        allocs <= BEFORE / 2,
        "second run_plan of the decode step allocated {allocs} times; the bound is {}",
        BEFORE / 2
    );
}

/// A steady-state step of a device session over the tiny decode plan
/// (`BP+MP+MQ`, 2×2), with only the three slot inputs set per step.
/// With the caches bound, no cache shard is read out to the host: the
/// bound steps allocate at least one copy of every device's cache shards
/// per step less than the same steps with the caches fed back through
/// the host (read out, then set again), the serving engine's path before
/// sessions. Bytes, not a largest-allocation bar: the session's own
/// by-design allocations — collective payloads, channel blocks of a few
/// KiB, the per-step reply vector — are larger than the tiny plan's
/// smallest resident shards (32 B), so a size bar cannot tell a host
/// copy from them.
fn assert_session_step_keeps_caches_on_the_devices() {
    const STEPS: u64 = 20;
    let decode = partir_models::itransformer::build_decode_step(&ServingConfig::tiny()).unwrap();
    let n = decode.num_param_tensors;
    let mesh = Mesh::new([(BATCH, 2), (MODEL, 2)]).unwrap();
    let table = partir_models::schedules::itransformer_table2();
    let (_, schedule) = table.iter().find(|(name, _)| *name == "BP+MP+MQ").unwrap();
    let program = partir_jit(
        &decode.func,
        &HardwareConfig::tpu_v3_pod(mesh.clone()),
        schedule,
    )
    .unwrap()
    .program;
    let plan = program.compile().unwrap();
    let inputs = partir_models::synthetic_inputs(&decode, 1234);
    let shards: Vec<Vec<Literal>> = inputs
        .iter()
        .enumerate()
        .map(|(k, lit)| program.shard_input(k, lit).unwrap())
        .collect();
    let caches = n + 3..inputs.len();
    let cache_bytes: u64 = shards[caches.clone()]
        .iter()
        .flatten()
        .map(|lit| (lit.num_elements() * lit.dtype().size_bytes()) as u64)
        .sum();
    // Bytes allocated by `STEPS` steady-state steps, each setting the
    // slot inputs and then whatever `feed` sets from its outcome.
    let steady = |session: &mut Session<'_>, feed: &dyn Fn(&mut Session<'_>, Vec<Vec<Literal>>)| {
        let small: Vec<Vec<Vec<Literal>>> = (0..STEPS)
            .map(|_| (n..n + 3).map(|k| shards[k].clone()).collect())
            .collect();
        let before = BYTES.load(Ordering::SeqCst);
        for step_inputs in small {
            for (j, s) in step_inputs.into_iter().enumerate() {
                session.set_input(n + j, s).unwrap();
            }
            let outputs = session.step().unwrap().outputs;
            feed(session, outputs);
        }
        BYTES.load(Ordering::SeqCst) - before
    };
    let (fed, bound) = ThreadedRuntime::default().with_session(&plan, |session| {
        for (k, s) in shards.iter().enumerate() {
            session.set_input(k, s.clone()).unwrap();
        }
        let through_host = |session: &mut Session<'_>, outputs: Vec<Vec<Literal>>| {
            for (j, k) in caches.clone().enumerate() {
                let out: Vec<Literal> = outputs.iter().map(|o| o[1 + j].clone()).collect();
                session.set_input(k, out).unwrap();
            }
        };
        // Warm-up: sizes the executors, the kernels' scratch and the
        // channels' first blocks.
        steady(session, &through_host);
        let fed = steady(session, &through_host);
        for (j, k) in caches.clone().enumerate() {
            session.bind(1 + j, k).unwrap();
        }
        let on_device = |_: &mut Session<'_>, outputs: Vec<Vec<Literal>>| {
            assert!(
                outputs.iter().all(|o| o.len() == 1),
                "bound caches returned"
            );
        };
        steady(session, &on_device);
        (fed, steady(session, &on_device))
    });
    assert!(
        fed >= bound + STEPS * cache_bytes,
        "{STEPS} bound steps allocated {bound} B, the same steps feeding the caches \
         through the host {fed} B: binding must save at least the {cache_bytes} B of \
         cache shards per step"
    );
}

// One test function: the counters are global, so the audits must not run
// on concurrent test threads.
#[test]
fn steady_state_hot_loop_allocates_nothing() {
    assert_hot_loop_allocates_nothing(
        "hand-built",
        &compute_func(),
        &[
            Literal::ones(&TensorType::f32([16, 32])),
            Literal::ones(&TensorType::f32([32, 16])),
        ],
    );

    let train = partir_models::transformer::build_train_step(&TransformerConfig::tiny()).unwrap();
    let inputs = partir_models::synthetic_inputs(&train, 1234);
    assert_hot_loop_allocates_nothing("transformer train step", &train.func, &inputs);

    let decode = partir_models::itransformer::build_decode_step(&ServingConfig::tiny()).unwrap();
    let inputs = partir_models::synthetic_inputs(&decode, 1234);
    assert_hot_loop_allocates_nothing("decode step", &decode.func, &inputs);

    let unet = partir_models::unet::build_train_step(&UNetConfig::tiny()).unwrap();
    let inputs = partir_models::synthetic_inputs(&unet, 1234);
    assert_hot_loop_allocates_nothing("tiny U-Net step", &unet.func, &inputs);

    let serving = partir_models::itransformer::build_serving(&ITransformerConfig::tiny()).unwrap();
    let inputs = partir_models::synthetic_inputs(&serving, 1234);
    assert_hot_loop_allocates_nothing("build_serving loop", &serving.func, &inputs);

    assert_second_run_plan_allocates_no_arena();
    assert_decode_step_collectives_allocate_little();
    assert_session_step_keeps_caches_on_the_devices();
}
