//! The reference kernel: the yardstick the benchmark's times are stated
//! against.
//!
//! The box is a two-vCPU guest on a shared host. With nothing else
//! running in the guest — no stolen time, no page faults, the op's CPU
//! time equal to its wall time — one and the same single-threaded op
//! (a `compile_zoo` sweep) takes anything from 127 to 224 ms within one
//! run, in spells of a second or a few, and the medians of ten 24 s runs
//! range from 143 to 212 ms. Cache-resident pointer chasing and small
//! allocations slow down together by up to 1.6 times while arithmetic
//! and DRAM latency barely move: what a neighbour does with the core's
//! caches and its other hardware thread. The guest has no counter for
//! it.
//!
//! This kernel is a fixed piece of work of that cache-bound kind — small
//! vectors allocated, filled and freed, a hash map built — that shares
//! no code with the program under test. The harness runs it just before
//! and just after every set-up and every round, while the program is
//! idle, and states the time between the two probes as
//! `ms × REFERENCE_MS ÷ kernel ms`. For the single-threaded ops the
//! probe sees the very core the op ran on (r = 0.77 per op) and the
//! scaled medians of ten runs spread by 2–6 % where the plain ones
//! spread by 10–26 %. For the ops that run on the program's device
//! threads it sees one of the two cores they used (r = 0.3–0.5): that
//! narrows their spread when the host is busy (12.8 → 3.2 % and
//! 19.3 → 6.9 % in one sitting) and leaves it as it is when the host is
//! calm. README.md has the runs behind these numbers.

use std::collections::HashMap;
use std::time::Instant;

use crate::stats::median;

/// The speed scaled times are stated at: that of a machine on which the
/// kernel takes this long. It is about what this box does when left
/// alone, so scaled times read as its undisturbed milliseconds; only
/// their ratios between commits matter to the gate. The kernel and this
/// constant are part of the unit: changing either re-bases every scaled
/// number.
pub const REFERENCE_MS: f64 = 0.15;

/// Kernel runs per probe; the probe is their median. Nine rather than
/// five narrowed the spread of `compile_zoo/op_ms_p90` from 11.8 to
/// 10.1 % over the same eight runs (fifteen: 8.7 %) for 0.6 ms more.
const RUNS: usize = 9;

/// Runs the kernel once; returns its time in ms.
fn kernel_ms() -> f64 {
    let start = Instant::now();
    let mut keep: Vec<Vec<u64>> = Vec::new();
    for k in 0..3000u64 {
        let mut v = Vec::with_capacity(16 + (k % 48) as usize);
        for j in 0..(8 + k % 24) {
            v.push(j * k);
        }
        keep.push(v);
        if keep.len() > 64 {
            keep.swap_remove((k % 64) as usize);
        }
    }
    let mut map = HashMap::new();
    for k in 0..3000u64 {
        *map.entry(k.wrapping_mul(0x9e37_79b9_7f4a_7c15) % 1024)
            .or_insert(0u64) += k;
    }
    std::hint::black_box((keep, map));
    start.elapsed().as_secs_f64() * 1e3
}

/// One probe of the calling thread's core: the kernel's time in ms. It
/// takes about a millisecond and a half.
pub fn probe_ms() -> f64 {
    let runs: Vec<f64> = (0..RUNS).map(|_| kernel_ms()).collect();
    median(&runs)
}

/// Runs `work` between two probes. Returns its result and the factor
/// that turns a time measured inside it into a time at reference speed.
pub fn bracketed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let before = probe_ms();
    let out = work();
    let after = probe_ms();
    (out, REFERENCE_MS / ((before + after) / 2.0))
}
