//! `compile_zoo`: the paper's Fig 8 path. One op is one sweep of
//! `partir_jit` + plan compile over four zoo cells on a 2×2 mesh.

use std::time::{Duration, Instant};

use crate::api::{
    error_count, gns, itransformer, partir_jit, schedules, tpu_mesh, transformer, unet,
    CompiledPlan, Fingerprint, Func, GnsConfig, HardwareConfig, Jitted, PlanOptions, Schedule,
    ServingConfig, TransformerConfig, UNetConfig,
};
use crate::metrics::Values;
use crate::stats::{median, shuffle};
use crate::trace::Tracer;
use crate::workloads::{
    absorb, counted, stage_medians, staged_jit, table_row, text, trace_quality, Round, Workload,
    COMPILE_STAGES, COUNTED,
};

/// Transformer depth of the sweep's first cell. The T32 structure
/// (9 tensors per block, tied embedding) at a depth that keeps one sweep
/// near a tenth of a second, so a run holds well over a hundred.
const T_LAYERS: usize = 4;

/// Traced ops after which the plan verifier is timed.
const VERIFY_SAMPLES: usize = 3;

/// Collectives of the fused program: (all_gather, all_reduce,
/// reduce_scatter, all_to_all).
type Counts = (usize, usize, usize, usize);

/// What one cell of a sweep builds.
type Built = (Jitted, CompiledPlan);

struct Cell {
    name: &'static str,
    func: Func,
    schedule: Schedule,
    /// What the schedule must lower to, constants of the harness. They
    /// follow the structure `crates/models/tests/table2_structure.rs`
    /// pins on a 4×2 mesh (counts depend on structure, not mesh size):
    /// * T at L layers under BP+MP+Z3+EMB: AG 16L+3, AR 13L+2, RS 8L+2 —
    ///   at L = 32 the test's 515 / 418 / 258;
    /// * U-Net under BP+Z3: one RS per parameter tensor (106), gathers
    ///   before use, at most 2 AR left;
    /// * GNS under ES: all-reduces and nothing else;
    /// * the 32-layer decode step under BP+MP+MQ: the two Megatron
    ///   reductions per layer become reduce-scatters (64) and the cache
    ///   sharding adds five gathers per layer (160).
    expect: Counts,
    /// (program, partitioning) fingerprints of the first sweep; every
    /// later sweep must reproduce them.
    seen: Option<(Fingerprint, Fingerprint)>,
}

pub struct CompileZoo {
    hw: HardwareConfig,
    cells: Vec<Cell>,
    ir_ops: usize,
}

impl Workload for CompileZoo {
    const NAME: &'static str = "compile_zoo";
    const WHY: &'static str = "jit + plan compile of four zoo cells: all time in core \
        propagation, spmd lower/fuse, per-tactic sim::evaluate and plan compile; none in \
        search or device kernels";

    fn setup(seed: u64) -> Result<Self, String> {
        let e = text;
        let t_cfg = TransformerConfig {
            layers: T_LAYERS,
            ..TransformerConfig::t32()
        };
        let l = T_LAYERS;
        let mut cells = vec![
            Cell {
                name: "T/BP+MP+Z3+EMB",
                func: transformer::build_train_step(&t_cfg).map_err(e)?.func,
                schedule: table_row(schedules::transformer_table2(), "BP+MP+Z3+EMB")?,
                expect: (16 * l + 3, 13 * l + 2, 8 * l + 2, 0),
                seen: None,
            },
            Cell {
                name: "UNet/BP+Z3",
                func: unet::build_train_step(&UNetConfig::paper())
                    .map_err(e)?
                    .func,
                schedule: table_row(schedules::unet_table2(), "BP+Z3")?,
                expect: (164, 1, 106, 0),
                seen: None,
            },
            Cell {
                name: "GNS/ES",
                func: gns::build_train_step(&GnsConfig::paper()).map_err(e)?.func,
                schedule: table_row(schedules::gns_table2(), "ES")?,
                expect: (0, 197, 0, 0),
                seen: None,
            },
            Cell {
                name: "IT32-decode/BP+MP+MQ",
                func: itransformer::build_decode_step(&ServingConfig::it32())
                    .map_err(e)?
                    .func,
                schedule: table_row(schedules::itransformer_table2(), "BP+MP+MQ")?,
                expect: (160, 0, 64, 0),
                seen: None,
            },
        ];
        // The seed permutes the order of the cells inside the sweep: the
        // same work every run, met by caches and the allocator in a
        // different order.
        shuffle(seed, &mut cells);
        let ir_ops = cells.iter().map(|c| c.func.num_ops()).sum();
        Ok(CompileZoo {
            hw: tpu_mesh(2, 2),
            cells,
            ir_ops,
        })
    }

    fn round(&mut self, i: usize) -> Round {
        let (took, _, built) = self.sweep();
        Round::single(took, built.and_then(|built| self.check(&built, i)))
    }

    fn traced(&mut self, seconds: f64, tr: &mut Tracer) -> Result<(Values, Round), String> {
        let mut values = Values::new();
        let mut total = Round::default();
        let (mut jit_ms, mut mono_ms) = (Vec::new(), Vec::new());
        let mut counts = [0f64; COUNTED.len()];
        let began = Instant::now();
        let mut i = 0;
        while i < 2 || began.elapsed().as_secs_f64() < seconds {
            // Staged sweep: the harness makes each call of the jit itself.
            let staged: Result<Vec<_>, String> = tr.op(|tr| {
                self.cells
                    .iter()
                    .map(|c| {
                        let (program, _, n) = staged_jit(tr, &c.func, &self.hw, &c.schedule)?;
                        let plan = tr
                            .time("plan.compile", || {
                                program.compile_with(&PlanOptions::default())
                            })
                            .map_err(text)?;
                        Ok((program, plan, n))
                    })
                    .collect()
            });
            total.attempted += 1;
            match staged {
                Ok(cells) => {
                    counts = [0f64; COUNTED.len()];
                    let mut clean = true;
                    for (program, plan, n) in &cells {
                        // A probe: the monolithic op does not verify. It
                        // costs more than the op, so a few samples do.
                        if i < VERIFY_SAMPLES {
                            clean &= tr.time("plan.verify", || error_count(&plan.verify()) == 0);
                        }
                        for (slot, v) in counts.iter_mut().zip(counted(program, plan, n)) {
                            *slot += v;
                        }
                    }
                    total.failed += usize::from(!clean);
                }
                Err(why) => {
                    eprintln!("staged op failed: {why}");
                    total.failed += 1;
                }
            }
            // The same sweep as one call per layer boundary, untraced.
            let (took, jit, built) = self.sweep();
            mono_ms.push(took.as_secs_f64() * 1e3);
            jit_ms.push(jit.as_secs_f64() * 1e3);
            absorb(
                &mut total,
                Round::single(took, built.and_then(|built| self.check(&built, i))),
            );
            i += 1;
        }
        stage_medians(tr, &mut values, COMPILE_STAGES);
        for (name, v) in COUNTED.into_iter().zip(counts) {
            values.insert(name, v);
        }
        // The set-up is the model builds; the seed only orders them.
        tr.time("models.build", || {
            std::hint::black_box(Self::setup(0).is_ok())
        });
        values.insert("models.build_ms", tr.ms_p50("models.build"));
        values.insert("models.ops", self.ir_ops as f64);
        values.insert("sched.jit_ms", median(&jit_ms));
        trace_quality(tr, &mut values, median(&mono_ms));
        Ok((values, total))
    }
}

impl CompileZoo {
    /// One op: jit and compile every cell. Returns the time of the whole
    /// sweep, the share of it spent inside `partir_jit`, and what was
    /// built, for checking once the clock has stopped.
    fn sweep(&self) -> (Duration, Duration, Result<Vec<Built>, String>) {
        let start = Instant::now();
        let mut jit = Duration::ZERO;
        let built = self
            .cells
            .iter()
            .map(|c| {
                let t = Instant::now();
                let jitted = partir_jit(&c.func, &self.hw, &c.schedule);
                jit += t.elapsed();
                let jitted = jitted.map_err(text)?;
                let plan = jitted
                    .program
                    .compile_with(&PlanOptions::default())
                    .map_err(text)?;
                Ok((jitted, plan))
            })
            .collect();
        (start.elapsed(), jit, built)
    }

    fn check(&mut self, built: &[Built], round: usize) -> Result<(), String> {
        for (cell, (jitted, plan)) in self.cells.iter_mut().zip(built) {
            check_cell(cell, jitted, round)?;
            // The plan is a pure function of the program, which the
            // fingerprints pin: one verifier pass speaks for all rounds.
            if round == 0 && error_count(&plan.verify()) > 0 {
                return Err(format!("{}: plan verifier found errors", cell.name));
            }
        }
        Ok(())
    }
}

fn check_cell(cell: &mut Cell, jitted: &Jitted, round: usize) -> Result<(), String> {
    let s = jitted.program.stats();
    let got = (s.all_gather, s.all_reduce, s.reduce_scatter, s.all_to_all);
    if got != cell.expect {
        return Err(format!(
            "{}: collectives (AG, AR, RS, A2A) = {got:?}, expected {:?}",
            cell.name, cell.expect
        ));
    }
    let conflicts: usize = jitted.reports.iter().map(|r| r.conflicts).sum();
    if conflicts > 0 {
        return Err(format!("{}: {conflicts} propagation conflicts", cell.name));
    }
    let fp = (
        jitted.program.func().fingerprint(),
        jitted.partitioning.fingerprint(),
    );
    match cell.seen {
        None => cell.seen = Some(fp),
        Some(first) if first != fp => {
            return Err(format!(
                "{}: round {round} compiled a different program than round 0",
                cell.name
            ))
        }
        Some(_) => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_orders_the_sweep_and_nothing_else() {
        let order = |seed| -> Vec<&'static str> {
            let zoo = CompileZoo::setup(seed).expect("set-up");
            zoo.cells.iter().map(|c| c.name).collect()
        };
        assert_eq!(order(5), order(5));
        assert!((0..8).any(|s| order(s) != order(5)), "some seed reorders");
        let mut sorted = order(5);
        sorted.sort_unstable();
        let mut all = order(6);
        all.sort_unstable();
        assert_eq!(sorted, all);
    }
}
