//! The measuring loop every workload runs under: one harness thread, a
//! cold set-up, untimed warm-up, then timed rounds with ten more set-ups
//! interleaved. The window lasts `--seconds`, and longer on a slower box:
//! it never closes on fewer than [`MIN_OPS`] timed ops.
//!
//! Every set-up and every round is timed between two probes of the
//! reference kernel and reported at reference speed (see `reference`).

use std::time::Instant;

use crate::metrics::{Outcome, Values};
use crate::reference::{self, REFERENCE_MS};
use crate::stats::{median, percentile, samples_beyond};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{absorb, Round, Workload};

/// Set-ups timed per run: the cold one at process start and ten spread
/// evenly through the measuring window. One sub-second sample cannot
/// repeat within a tenth on a shared box; the median of eleven can.
const SETUPS: usize = 11;

/// Untimed warm-up, as a share of the measuring window.
const WARMUP_SHARE: f64 = 0.10;

/// The percentile reported beside the median.
const HIGH_PERCENTILE: f64 = 90.0;

/// Op latencies, and completed ops behind the throughput figure, a run
/// must hold: with a hundred, ten samples lie beyond p90. The ops are
/// sized so that `--seconds` holds more; on a slower box the window
/// stretches until it does.
pub const MIN_OPS: usize = 100;

/// The window gives up at this multiple of `--seconds`: a run that still
/// holds too few ops then reports nothing.
const MAX_STRETCH: f64 = 4.0;

/// A sample and the factor that states it at reference speed.
type Scaled = (f64, f64);

/// One full set-up: what it built, and the seconds it took.
fn timed_setup<W: Workload>(seed: u64) -> Result<(W, Scaled), String> {
    let ((w, took), scale) = reference::bracketed(|| {
        let start = Instant::now();
        let w = W::setup(seed);
        (w, start.elapsed().as_secs_f64())
    });
    Ok((w?, (took, scale)))
}

fn scaled(samples: &[Scaled]) -> Vec<f64> {
    samples.iter().map(|(v, scale)| v * scale).collect()
}

fn unscaled(samples: &[Scaled]) -> Vec<f64> {
    samples.iter().map(|(v, _)| *v).collect()
}

/// The untraced run: end-to-end metrics only.
pub fn run<W: Workload>(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (mut w, cold) = timed_setup::<W>(seed)?;
    let mut setup_s = vec![cold];
    w.prepare()?;

    // Counts and checks of every round; latencies and busy time apart,
    // each with its round's factor.
    let mut total = Round::default();
    let warm = Instant::now();
    let mut i = 0;
    while i < 2 || warm.elapsed().as_secs_f64() < seconds * WARMUP_SHARE {
        // Untimed, but checked like any other op.
        let round = w.round(i);
        total.attempted += round.attempted;
        total.failed += round.failed;
        i += 1;
    }
    // Read here, after the one set-up a user pays and the first ops. The
    // window adds a second copy of the program's state with every
    // interleaved set-up, and rare, timing-dependent heap growth (3 MB
    // in half of `serve_mix`'s runs) that makes the peak at exit bimodal.
    let peak_rss_mb = sys::peak_rss_mb();

    let (mut op_ms, mut busy_s) = (Vec::<Scaled>::new(), Vec::<Scaled>::new());
    let window = Instant::now();
    loop {
        let elapsed = window.elapsed().as_secs_f64();
        let enough = op_ms.len() >= MIN_OPS && total.completed >= MIN_OPS;
        if (elapsed >= seconds && enough) || elapsed >= seconds * MAX_STRETCH {
            break;
        }
        // The k-th interleaved set-up falls due k/11 of the way through.
        // It is built and dropped outside every op's clock.
        if setup_s.len() < SETUPS && elapsed >= seconds * setup_s.len() as f64 / SETUPS as f64 {
            setup_s.push(timed_setup::<W>(seed)?.1);
        }
        let (mut round, scale) = reference::bracketed(|| w.round(i));
        op_ms.extend(round.op_ms.drain(..).map(|ms| (ms, scale)));
        busy_s.push((round.busy_s, scale));
        absorb(&mut total, round);
        i += 1;
    }
    while setup_s.len() < SETUPS {
        setup_s.push(timed_setup::<W>(seed)?.1);
    }
    if let Err(why) = w.audit() {
        eprintln!("{}: every op failed: {why}", W::NAME);
        total.failed = total.attempted;
    }

    let n = op_ms.len();
    if n < MIN_OPS || total.completed < MIN_OPS {
        return Err(format!(
            "{}: only {n} op latencies and {} completed ops in {:.0} s; {MIN_OPS} of each are \
             needed for op_ms_p90 and ops_per_s",
            W::NAME,
            total.completed,
            window.elapsed().as_secs_f64()
        ));
    }
    let kernel_ms: Vec<f64> = setup_s
        .iter()
        .chain(&busy_s)
        .map(|(_, scale)| REFERENCE_MS / scale)
        .collect();
    eprintln!(
        "{}: {n} op latencies, {} beyond p{HIGH_PERCENTILE}; {} ops completed in {:.2} busy s; \
         {SETUPS} set-ups, cold {:.1} ms; {} cores; reference kernel {:.4} ms; as \
         measured: setup_s {:.5}, op_ms_p50 {:.2}, op_ms_p90 {:.2}, ops_per_s {:.3}; peak RSS at \
         exit {:.2} MB",
        W::NAME,
        samples_beyond(n, HIGH_PERCENTILE),
        total.completed,
        total.busy_s,
        cold.0 * 1e3,
        sys::cores(),
        median(&kernel_ms),
        median(&unscaled(&setup_s)),
        median(&unscaled(&op_ms)),
        percentile(&unscaled(&op_ms), HIGH_PERCENTILE),
        total.completed as f64 / total.busy_s,
        sys::peak_rss_mb(),
    );
    let mut values = Values::new();
    values.insert("setup_s", median(&scaled(&setup_s)));
    values.insert("op_ms_p50", median(&scaled(&op_ms)));
    values.insert("op_ms_p90", percentile(&scaled(&op_ms), HIGH_PERCENTILE));
    let busy: f64 = scaled(&busy_s).iter().sum();
    values.insert("ops_per_s", total.completed as f64 / busy);
    values.insert("peak_rss_mb", peak_rss_mb);
    Ok(Outcome {
        correct: total.failed == 0,
        attempted: total.attempted,
        failed: total.failed,
        values,
    })
}

/// The traced run: per-layer metrics only, and the spans behind them.
pub fn run_traced<W: Workload>(seed: u64, seconds: f64) -> Result<(Outcome, Tracer), String> {
    let (mut w, cold) = timed_setup::<W>(seed)?;
    w.prepare()?;
    let (cpu0, runq0, wall) = (sys::cpu_seconds(), sys::runq_wait_seconds(), Instant::now());
    let mut tracer = Tracer::new();
    // Per-layer times are as measured; the probes on both sides of the
    // traced ops say how fast the harness thread's core was for them.
    let (traced, scale) = reference::bracketed(|| w.traced(seconds, &mut tracer));
    let (mut values, mut total) = traced?;
    if let Err(why) = w.audit() {
        eprintln!("{}: every op failed: {why}", W::NAME);
        total.failed = total.attempted;
    }
    values.insert("harness.ref_kernel_ms", REFERENCE_MS / scale);
    let wall = wall.elapsed().as_secs_f64();
    values.insert("harness.cold_setup_ms", cold.0 * 1e3);
    values.insert(
        "harness.cpu_share",
        (sys::cpu_seconds() - cpu0) / (wall * sys::cores() as f64),
    );
    values.insert(
        "harness.runq_wait_share",
        (sys::runq_wait_seconds() - runq0) / wall,
    );
    let outcome = Outcome {
        correct: total.failed == 0,
        attempted: total.attempted.max(1),
        failed: total.failed,
        values,
    };
    Ok((outcome, tracer))
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    /// An op that sleeps for `MS` milliseconds.
    struct Sleeper<const MS: u64>;

    impl<const MS: u64> Workload for Sleeper<MS> {
        const NAME: &'static str = "sleeper";
        const WHY: &'static str = "";

        fn setup(_seed: u64) -> Result<Self, String> {
            Ok(Sleeper)
        }

        fn round(&mut self, _i: usize) -> Round {
            let start = Instant::now();
            std::thread::sleep(Duration::from_millis(MS));
            Round::single(start.elapsed(), Ok(()))
        }

        fn traced(&mut self, _seconds: f64, _tr: &mut Tracer) -> Result<(Values, Round), String> {
            Err("never traced".to_string())
        }
    }

    #[test]
    fn the_window_stretches_until_it_holds_a_hundred_ops() {
        // 200 ms hold some forty 1 ms ops, each between two probes.
        let out = run::<Sleeper<1>>(1, 0.2).expect("a run");
        assert!(out.correct && out.failed == 0);
        // Two warm-up ops at least, and the timed hundred.
        assert!(out.attempted >= MIN_OPS + 2, "{out:?}");
        assert!(out.values["op_ms_p90"] >= out.values["op_ms_p50"]);
        assert!(out.values["op_ms_p50"] > 0.0 && out.values["ops_per_s"] > 0.0);
    }

    #[test]
    fn a_run_that_cannot_hold_a_hundred_ops_reports_nothing() {
        // Four times 50 ms hold at most ten 20 ms ops.
        let err = run::<Sleeper<20>>(1, 0.05).expect_err("too few ops");
        assert!(err.contains("100 of each are needed"), "{err}");
    }
}
