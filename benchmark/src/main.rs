//! The PartIR-rs benchmark: four workloads, one command.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! runs one workload from a single harness thread, checks its outputs,
//! prints every metric by name with its unit, and ends with one JSON
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1` (which also writes a Chrome trace next to the
//! executable). `--selfcheck` runs every workload twice, in alternation,
//! and compares the two sets of runs against the benchmark's own bounds.
//! See `README.md` beside this crate for what each number means.

mod api;
mod harness;
mod metrics;
mod reference;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use metrics::{value_in, Better, END_TO_END, PER_LAYER};
use workloads::compile_zoo::CompileZoo;
use workloads::search_pair::SearchPair;
use workloads::serve_mix::ServeMix;
use workloads::train_step::TrainStep;
use workloads::Workload;

const WORKLOADS: [&str; 4] = [
    CompileZoo::NAME,
    SearchPair::NAME,
    TrainStep::NAME,
    ServeMix::NAME,
];

const USAGE: &str = "usage: partir-benchmark --workload <compile_zoo|search_pair|train_step|\
serve_mix> --seed <u64> --seconds <n> --trace <0|1>\n       partir-benchmark --selfcheck \
[--seed <u64>] [--seconds <n>]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 24.0,
        trace: false,
        selfcheck: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("{flag} cannot be {value:?}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Runs workload `W` as the arguments ask and prints its results: a
/// table for people, then the result line.
fn run_one<W: Workload>(args: &Args) -> Result<(), String> {
    println!("workload {}: {}", W::NAME, W::WHY);
    let (outcome, table) = if args.trace {
        let (outcome, tracer) = harness::run_traced::<W>(args.seed, args.seconds)?;
        // Next to the executable, so inside the build directory.
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let path = exe.with_file_name(format!("{}.trace.json", W::NAME));
        std::fs::write(&path, tracer.to_chrome_json()).map_err(|e| e.to_string())?;
        eprintln!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
        (outcome, PER_LAYER)
    } else {
        (harness::run::<W>(args.seed, args.seconds)?, END_TO_END)
    };
    print!("{}", outcome.to_table(table));
    println!("{}", outcome.to_json(table));
    Ok(())
}

fn dispatch(name: &str, args: &Args) -> Result<(), String> {
    match name {
        CompileZoo::NAME => run_one::<CompileZoo>(args),
        SearchPair::NAME => run_one::<SearchPair>(args),
        TrainStep::NAME => run_one::<TrainStep>(args),
        ServeMix::NAME => run_one::<ServeMix>(args),
        _ => Err(format!("no workload called {name}\n{USAGE}")),
    }
}

/// A/A check: two sets of runs of this same executable, workloads
/// alternating so that drift of the machine falls on both sets alike,
/// each run a process of its own as the driver makes them. Prints, per
/// metric and workload, how far the second run is worse than the first
/// against the metric's bound.
fn selfcheck(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    for set in &mut sets {
        for name in WORKLOADS {
            let out = Command::new(&exe)
                .args(["--workload", name, "--trace", "0"])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or_default().to_string();
            if !out.status.success() || !line.contains("\"correct\": true") {
                return Err(format!("{name} failed its own run: {line}"));
            }
            eprintln!("{name}: {line}");
            set.push(line);
        }
    }
    let mut within = true;
    println!(
        "{:<12} {:<12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for (k, name) in WORKLOADS.iter().enumerate() {
        for m in END_TO_END {
            let read = |set: &[String]| {
                value_in(&set[k], m.name).ok_or_else(|| format!("{name} printed no {}", m.name))
            };
            let (a, b) = (read(&sets[0])?, read(&sets[1])?);
            let worse = match m.better {
                Better::Lower => b / a - 1.0,
                Better::Higher => 1.0 - b / a,
            };
            let ok = worse <= m.bound;
            within &= ok;
            println!(
                "{name:<12} {:<12} {a:>12.4} {b:>12.4} {:>7.1}% {:>5.0}%{}",
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                if ok { "" } else { "  OUTSIDE" }
            );
        }
    }
    if within {
        Ok(())
    } else {
        Err("the two sets of runs differ by more than a bound".to_string())
    }
}

fn main() -> ExitCode {
    sys::pin_allocator();
    let outcome = parse_args().and_then(|args| {
        if args.selfcheck {
            selfcheck(&args)
        } else {
            let name = args.workload.clone().ok_or(USAGE)?;
            dispatch(&name, &args)
        }
    });
    // A run whose ops failed their checks still ends with its result
    // line and code 0: `correct` and `failed` in the line say so.
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(1)
        }
    }
}
