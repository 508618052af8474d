//! End-to-end profiler: compile + execute each zoo model under a
//! recording collector and export the merged timeline.
//!
//! For every model the bin runs the full pipeline — `partir_jit`
//! (tactics, propagation, MCTS, lowering, fusion, simulation) on the
//! `main` track, then the threaded runtime (one `deviceN` track per mesh
//! device with compute/collective/rendezvous phases and traffic
//! counters) — and writes `PROFILE_<model>.trace.json`, a Chrome
//! trace-event file openable in `chrome://tracing` or Perfetto
//! (<https://ui.perfetto.dev>, "Open trace file"). A compact text
//! flamegraph summary and a metrics table print to stdout, and the
//! traced per-device traffic is reconciled against the analytical
//! prediction (`partir_sim::reconcile`) — the run fails loudly if they
//! disagree.
//!
//! Flags:
//! * `--attribute` — instead of profiling the zoo, attribute one
//!   `ThreadedRuntime::run_plan` of each of the two plans
//!   `BENCHMARK.json` runs (the `train_step` transformer step and one
//!   `serve_mix` decode step, 2×2) to what every device thread spent
//!   it on: set-up before its first step, step time by kind,
//!   `coll.start`, `coll.wait`, gaps between steps, and the tail after
//!   its last step. The columns partition the call by construction;
//!   the table also prints the untraced wall time beside the traced
//!   one. Two more cells cover the other kernel families: the IT32
//!   serving loop (`dynamic_*`, `i32` add) and the U-Net step
//!   (convolutions). These are the tables in DESIGN §8.
//! * `--tiny` — CI smoke mode: just the MLP on a 1×2 mesh.
//! * `--fake-clock` — stamp events with deterministic per-track ticks
//!   instead of wall time, making the emitted JSON byte-reproducible.
//!
//! Run with: `cargo run --release -p partir-bench --bin partir-profile`

use std::collections::BTreeMap;

use partir_bench::{emit, Row};
use partir_core::Partitioning;
use partir_mesh::{HardwareConfig, Mesh};
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::{
    gns::GnsConfig,
    itransformer::{ITransformerConfig, ServingConfig},
    mlp::MlpConfig,
    transformer::TransformerConfig,
    unet::UNetConfig,
    BuiltModel,
};
use partir_obs::{with_track, Collector, TrackTrace};
use partir_sched::{partir_jit, Schedule};
use partir_spmd::{RuntimeConfig, SpmdProgram, ThreadedRuntime};

/// One profiling subject: a built model and the lowered program to run.
struct Subject {
    name: &'static str,
    model: BuiltModel,
    program: SpmdProgram,
}

/// Compiles one model under the collector: `partir_jit` for scheduled
/// models, the manual tile+propagate+lower path for the MLP (the same
/// program the conformance suite uses).
fn compile(
    collector: &Collector,
    name: &'static str,
    model: BuiltModel,
    schedule: Option<&Schedule>,
    hw: &HardwareConfig,
) -> Subject {
    let program = with_track(collector, "main", || match schedule {
        Some(s) => {
            partir_jit(&model.func, hw, s)
                .unwrap_or_else(|e| panic!("{name}: jit failed: {e}"))
                .program
        }
        None => {
            let mut part = Partitioning::new(&model.func, hw.mesh.clone()).expect("state");
            let params = model.func.params();
            part.tile(&model.func, params[0], 0, &BATCH.into())
                .expect("tile batch");
            part.tile(&model.func, params[2], 1, &MODEL.into())
                .expect("tile model");
            part.propagate(&model.func);
            partir_spmd::lower(&model.func, &part)
                .expect("lower")
                .fused()
                .expect("fuse")
        }
    });
    Subject {
        name,
        model,
        program,
    }
}

/// Executes the subject's program on the threaded runtime under the
/// collector, reconciles traffic, writes the trace, and returns a
/// summary row.
fn profile(collector: &Collector, subject: &Subject, hw: &HardwareConfig) -> Row {
    let inputs = partir_models::synthetic_inputs(&subject.model, 4242);
    let (_outputs, stats) = with_track(collector, "main", || {
        subject
            .program
            .execute_global_threaded(&inputs, &RuntimeConfig::default())
            .unwrap_or_else(|e| panic!("{}: runtime failed: {e}", subject.name))
    });
    let rec = partir_sim::reconcile(&subject.program, hw, &stats)
        .unwrap_or_else(|e| panic!("{}: reconcile failed: {e}", subject.name));
    assert!(
        rec.is_exact(),
        "{}: traced traffic disagrees with prediction: {:?}",
        subject.name,
        rec.per_axis
    );

    let trace = collector.snapshot();
    trace
        .check_well_formed()
        .unwrap_or_else(|e| panic!("{}: malformed trace: {e}", subject.name));
    let path = format!("PROFILE_{}.trace.json", subject.name);
    std::fs::write(&path, trace.to_chrome_json()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\n# {} → {path}", subject.name);
    print!("{}", trace.summary());

    let num_spans: usize = trace.tracks.iter().map(|t| t.spans.len()).sum();
    Row::new("profile", subject.name, "default")
        .metric("tracks", trace.tracks.len() as f64)
        .metric("spans", num_spans as f64)
        .metric("sent_bytes", stats.total_bytes() as f64)
        .metric("messages", stats.total_messages() as f64)
        .metric("rendezvous_waits", stats.rendezvous_waits as f64)
}

/// One model end to end with a fresh collector per model, so each trace
/// file holds exactly one compile + one execution.
fn run_one(
    name: &'static str,
    model: BuiltModel,
    schedule: Option<&Schedule>,
    hw: &HardwareConfig,
    fake_clock: bool,
) -> Row {
    let collector = if fake_clock {
        Collector::with_fake_clock(1_000)
    } else {
        Collector::recording()
    };
    let subject = compile(&collector, name, model, schedule, hw);
    profile(&collector, &subject, hw)
}

/// Runs of each kind (untraced, traced) behind every attributed number.
const ATTRIBUTION_RUNS: usize = 21;
/// The same for the U-Net cell, whose one step takes seconds.
const SLOW_ATTRIBUTION_RUNS: usize = 3;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Where one device thread's share of a `run_plan` call went, in
/// milliseconds by category; the categories partition the call.
fn device_breakdown(track: &TrackTrace, call: (u64, u64)) -> BTreeMap<String, f64> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut by_kind: BTreeMap<String, f64> = BTreeMap::new();
    let mut add = |kind: &str, v: f64| *by_kind.entry(kind.to_string()).or_default() += v;
    // Top-level step spans tile the thread's timeline; a `for` span's
    // time is its body's, so attribute its children and keep only the
    // loop's own remainder (carry copies) under `for`.
    let top: Vec<_> = track.spans.iter().filter(|s| s.depth == 0).collect();
    let (first, last) = (top.first().expect("steps"), top.last().expect("steps"));
    add(
        "set-up (spawn, channels, inputs)",
        ms(first.start_ns - call.0),
    );
    add("tail (outputs, join)", ms(call.1 - last.end_ns));
    let mut gaps = 0.0;
    for pair in top.windows(2) {
        gaps += ms(pair[1].start_ns - pair[0].end_ns);
    }
    add("gaps between steps", gaps);
    for span in &track.spans {
        let children: u64 = track
            .spans
            .iter()
            .filter(|c| {
                c.depth == span.depth + 1 && c.start_ns >= span.start_ns && c.end_ns <= span.end_ns
            })
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        let name = span.name.to_string();
        // `coll.start.<tag>` / `coll.wait.<tag>` fold to their phase.
        let kind = match name.rsplit_once('.') {
            Some((phase, tag)) if tag.parse::<u32>().is_ok() => phase.to_string(),
            _ => name,
        };
        add(&kind, ms(span.end_ns - span.start_ns - children));
    }
    by_kind
}

/// Attributes `run_plan` of one compiled program: median over `runs`
/// traced calls of every device's breakdown, beside the untraced wall
/// time of the same call.
fn attribute(
    name: &str,
    model: &BuiltModel,
    schedule: &Schedule,
    hw: &HardwareConfig,
    runs: usize,
) {
    let program = partir_jit(&model.func, hw, schedule)
        .unwrap_or_else(|e| panic!("{name}: jit failed: {e}"))
        .program;
    let plan = program.compile().expect("plan compiles");
    let inputs = partir_models::synthetic_inputs(model, 3);
    let n = hw.mesh.num_devices();
    let per_device = program.shard_inputs(&inputs).expect("shard");
    let runtime = ThreadedRuntime::new(RuntimeConfig::default());
    for _ in 0..3 {
        runtime.run_plan(&plan, &per_device).expect("warm-up");
    }
    // samples[category][device] → one value per traced run.
    let mut samples: BTreeMap<String, Vec<Vec<f64>>> = BTreeMap::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    // Untraced and traced calls alternate, so a slow spell of the
    // machine lands on both.
    for _ in 0..runs {
        let start = std::time::Instant::now();
        runtime.run_plan(&plan, &per_device).expect("run_plan");
        untraced.push(start.elapsed().as_secs_f64() * 1e3);
        let collector = Collector::recording();
        with_track(&collector, "main", || {
            let _call = partir_obs::span!("run_plan");
            runtime.run_plan(&plan, &per_device).expect("run_plan");
        });
        let trace = collector.snapshot();
        let call = &trace.track("main").expect("main track").spans[0];
        traced.push((call.end_ns - call.start_ns) as f64 / 1e6);
        for d in 0..n {
            let track = trace.track(&format!("device{d}")).expect("device track");
            for (kind, v) in device_breakdown(track, (call.start_ns, call.end_ns)) {
                samples.entry(kind).or_insert_with(|| vec![Vec::new(); n])[d].push(v);
            }
        }
    }
    println!(
        "\n# {name}: run_plan {:.2} ms untraced, {:.2} ms traced (medians of {runs})",
        median(untraced),
        median(traced)
    );
    // One row per category: its median on every device, largest first.
    let mut rows: Vec<(String, Vec<f64>)> = samples
        .into_iter()
        .map(|(kind, per_dev)| {
            let medians = per_dev
                .into_iter()
                .map(|vs| if vs.is_empty() { 0.0 } else { median(vs) })
                .collect();
            (kind, medians)
        })
        .collect();
    let mean = |row: &[f64]| row.iter().sum::<f64>() / n as f64;
    rows.sort_by(|a, b| mean(&b.1).total_cmp(&mean(&a.1)));
    let mut totals = vec![0.0; n];
    for (_, row) in &rows {
        for (total, v) in totals.iter_mut().zip(row) {
            *total += v;
        }
    }
    rows.push(("sum of category medians".to_string(), totals));
    print!("{:<44}", "ms per device");
    for d in 0..n {
        print!(" {:>8}", format!("dev{d}"));
    }
    println!(" {:>8}", "mean");
    for (kind, row) in &rows {
        if mean(row) < 0.005 {
            continue; // the sum row still counts it
        }
        print!("{kind:<44}");
        for v in row {
            print!(" {v:>8.2}");
        }
        println!(" {:>8.2}", mean(row));
    }
}

/// The two plans `BENCHMARK.json` runs, attributed — then the serving
/// loop and U-Net, whose time is in kernels those two never run.
fn attribute_benchmark_plans() {
    partir_bench::tune_allocator_for_benchmarks();
    let hw = HardwareConfig::tpu_v3_pod(Mesh::new([(BATCH, 2), (MODEL, 2)]).expect("mesh"));
    let row = |rows: Vec<(&'static str, Schedule)>, label: &str| -> Schedule {
        rows.into_iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("no schedule row {label}"))
            .1
    };
    // `benchmark/src/workloads/train_step.rs`'s configuration.
    let train = partir_models::transformer::build_train_step(&TransformerConfig {
        layers: 2,
        d_model: 32,
        heads: 2,
        d_ff: 128,
        vocab: 64,
        seq: 32,
        batch: 32,
    })
    .expect("transformer");
    attribute(
        "train_step (T 2L d32 seq32 batch32, BP+MP+Z3, 2x2)",
        &train,
        &row(schedules::transformer_table2(), "BP+MP+Z3"),
        &hw,
        ATTRIBUTION_RUNS,
    );
    // One decode step of `serve_mix`'s engine.
    let decode = partir_models::itransformer::build_decode_step(&ServingConfig::it32())
        .expect("decode step");
    attribute(
        "serve_mix decode step (IT32 16 slots, BP+MP+MQ, 2x2)",
        &decode,
        &row(schedules::itransformer_table2(), "BP+MP+MQ"),
        &hw,
        ATTRIBUTION_RUNS,
    );
    let serving = partir_models::itransformer::build_serving(&ITransformerConfig::it32(8))
        .expect("itransformer");
    attribute(
        "itransformer serving loop (IT32, 8 trips, BP+MP+MQ, 2x2)",
        &serving,
        &row(schedules::itransformer_table2(), "BP+MP+MQ"),
        &hw,
        ATTRIBUTION_RUNS,
    );
    let unet = partir_models::unet::build_train_step(&UNetConfig::paper()).expect("unet");
    attribute(
        "U-Net train step (paper config, BP+Z3, 2x2)",
        &unet,
        &row(schedules::unet_table2(), "BP+Z3"),
        &hw,
        SLOW_ATTRIBUTION_RUNS,
    );
}

fn main() {
    if std::env::args().any(|a| a == "--attribute") {
        attribute_benchmark_plans();
        return;
    }
    let tiny = std::env::args().any(|a| a == "--tiny");
    let fake_clock = std::env::args().any(|a| a == "--fake-clock");

    let mlp_hw =
        |b: usize| HardwareConfig::tpu_v3_pod(Mesh::new([(BATCH, b), (MODEL, 2)]).expect("mesh"));
    let mut rows = Vec::new();

    let mlp = partir_models::mlp::build_train_step(&MlpConfig::small()).expect("mlp");
    rows.push(run_one(
        "mlp",
        mlp,
        None,
        &mlp_hw(if tiny { 1 } else { 2 }),
        fake_clock,
    ));

    if !tiny {
        let hw = mlp_hw(2);
        let transformer = partir_models::transformer::build_train_step(&TransformerConfig::tiny())
            .expect("transformer");
        let (_, schedule) = &schedules::transformer_table2()[0];
        rows.push(run_one(
            "transformer",
            transformer,
            Some(schedule),
            &hw,
            fake_clock,
        ));

        let itransformer = partir_models::itransformer::build_serving(&ITransformerConfig::tiny())
            .expect("itransformer");
        let (_, schedule) = &schedules::itransformer_table2()[0];
        rows.push(run_one(
            "itransformer",
            itransformer,
            Some(schedule),
            &hw,
            fake_clock,
        ));

        let unet = partir_models::unet::build_train_step(&UNetConfig {
            batch: 8,
            ..UNetConfig::tiny()
        })
        .expect("unet");
        let (_, schedule) = &schedules::unet_table2()[0];
        rows.push(run_one("unet", unet, Some(schedule), &hw, fake_clock));

        let gns = partir_models::gns::build_train_step(&GnsConfig::tiny()).expect("gns");
        let (_, schedule) = &schedules::gns_table2()[0];
        rows.push(run_one("gns", gns, Some(schedule), &hw, fake_clock));
    }

    println!();
    emit(&rows);
}
