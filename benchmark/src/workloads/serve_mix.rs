//! `serve_mix`: many tiny steps on the threaded runtime, driven by the
//! continuous-batching engine. One op is one request. Rounds alternate
//! two phases on one engine: a **paced** open loop whose latencies are
//! the op latencies, and a **burst** whose completions per busy second
//! are the throughput.

use std::time::Instant;

use crate::api::{
    interpret, itransformer, poisson, schedules, synthetic_inputs, tpu_mesh, validate_events,
    HardwareConfig, Literal, PlanOptions, RunOptions, RuntimeConfig, Schedule, ServeEvent,
    ServeReport, ServingConfig, ServingEngine, Shape, ThreadedRuntime, Workload as Requests,
    WorkloadSpec,
};
use crate::metrics::Values;
use crate::stats::{median, shuffle};
use crate::trace::Tracer;
use crate::workloads::{absorb, staged_setup, table_row, text, Round, Workload};

/// Decode budgets a phase hands out: every length from 4 to 20 equally
/// often, so each phase is the same amount of decoding whatever the seed
/// (a free draw would move the median latency by several percent from
/// seed to seed on its own).
const DECODE: std::ops::RangeInclusive<usize> = 4..=20;
/// Requests per phase: two of each decode length.
const REQUESTS: usize = 2 * (*DECODE.end() - *DECODE.start() + 1);
/// Prompt lengths, drawn uniformly.
const PROMPT: (usize, usize) = (1, 8);
/// Paced phase: Poisson arrivals, this mean gap. An open loop — the
/// engine clock never waits for a reply before the next arrival is due.
/// With ~35 ms steps this keeps under half of the 16 slots busy: far
/// enough from saturation that a slow spell of the host stretches the
/// latencies in proportion and does not tip the queue over.
const PACED_GAP_US: f64 = 60_000.0;
const PACED_QUEUE: usize = 64;
/// Burst phase: everything arrives within a few milliseconds and queues,
/// so the engine runs flat out and completions ÷ wall time is capacity.
const BURST_GAP_US: f64 = 100.0;
/// Decode budgets of the requests checked against the solo reference
/// decoder.
const ORACLE_BUDGETS: [usize; 4] = [4, 9, 14, 20];
/// Seed of the engine's weights. Fixed, so every run serves one model;
/// the workload seed draws the traffic.
const WEIGHTS_SEED: u64 = 2024;

const SCHEDULE: &str = "BP+MP+MQ";

pub struct ServeMix {
    seed: u64,
    cfg: ServingConfig,
    engine: ServingEngine,
    /// (prompt, decode budget) → tokens of the solo reference decoder.
    oracle: Vec<(Vec<i32>, usize, Vec<i32>)>,
}

/// One phase as it ran: what was asked, what the engine reported, and
/// the wall seconds `run()` took.
struct Phase {
    paced: bool,
    requests: Requests,
    report: ServeReport,
    wall_s: f64,
}

fn schedule() -> Result<Schedule, String> {
    table_row(schedules::itransformer_table2(), SCHEDULE)
}

fn engine_on(cfg: &ServingConfig, hw: &HardwareConfig) -> Result<ServingEngine, String> {
    ServingEngine::new(cfg, hw, &schedule()?, &PlanOptions::default(), WEIGHTS_SEED).map_err(text)
}

/// The requests of one phase: seeded Poisson arrivals and prompts from
/// the program's own generator, decode budgets a seeded permutation of
/// the balanced set.
fn requests(cfg: &ServingConfig, gap_us: f64, seed: u64) -> Requests {
    let mut w = poisson(
        &WorkloadSpec {
            requests: REQUESTS,
            mean_interarrival_us: gap_us,
            prompt_len: PROMPT,
            decode_len: (*DECODE.start(), *DECODE.end()),
            vocab: cfg.vocab,
        },
        seed,
    );
    let mut budgets: Vec<usize> = DECODE.chain(DECODE).collect();
    shuffle(seed ^ 0x5eed, &mut budgets);
    for (r, b) in w.requests.iter_mut().zip(budgets) {
        r.decode_steps = b;
    }
    w
}

/// Durations (ms) of the decode steps of a run, from its event log: a
/// step lasts from the later of the previous step's end and the first
/// admission to its own end.
fn step_ms(events: &[ServeEvent]) -> Vec<f64> {
    let mut out = Vec::new();
    let mut from = None;
    for e in events {
        match *e {
            ServeEvent::Admit { t, .. } if from.is_none() => from = Some(t),
            ServeEvent::StepEnd { t, .. } => {
                if let Some(f) = from {
                    out.push((t - f) as f64 / 1e3);
                }
                from = Some(t);
            }
            _ => {}
        }
    }
    out
}

impl Workload for ServeMix {
    const NAME: &'static str = "serve_mix";
    const WHY: &'static str = "hundreds of 35 ms decode steps under the serving engine: \
        per-step thread spawn, channel set-up, host shard/unshard and rendezvous outweigh \
        the kernels — the runtime used the opposite way to train_step";

    fn setup(seed: u64) -> Result<Self, String> {
        let cfg = ServingConfig::it32();
        let engine = engine_on(&cfg, &tpu_mesh(2, 2))?;
        Ok(ServeMix {
            seed,
            cfg,
            engine,
            oracle: Vec::new(),
        })
    }

    /// Decodes four of round 0's paced requests alone through the
    /// fixed-batch serving loop on the reference interpreter: the first
    /// request with each of four fixed decode budgets, so the reference
    /// costs the same time and memory whatever the seed.
    fn prepare(&mut self) -> Result<(), String> {
        let paced = requests(&self.cfg, PACED_GAP_US, self.phase_seed(0));
        for budget in ORACLE_BUDGETS {
            let r = paced
                .requests
                .iter()
                .find(|r| r.decode_steps == budget)
                .ok_or_else(|| format!("no request decodes {budget} tokens"))?;
            let ocfg = self.cfg.oracle_config(r.prompt.len(), r.decode_steps);
            let model = itransformer::build_serving(&ocfg).map_err(text)?;
            let mut inputs = synthetic_inputs(&model, WEIGHTS_SEED);
            let total = ocfg.buffer_len();
            let mut buf = vec![0i32; total];
            buf[..r.prompt.len()].copy_from_slice(&r.prompt);
            inputs[model.num_param_tensors] =
                Literal::from_i32(buf, Shape::from([1, total])).map_err(text)?;
            let out = interpret(&model.func, &inputs).map_err(text)?;
            let tokens = out[0].as_i32().map_err(text)?;
            let want = tokens[r.prompt.len()..r.prompt.len() + r.decode_steps].to_vec();
            self.oracle.push((r.prompt.clone(), r.decode_steps, want));
        }
        Ok(())
    }

    /// Even rounds are paced phases, odd rounds bursts.
    fn round(&mut self, i: usize) -> Round {
        match self.phase(&self.engine, i) {
            Ok(p) => self.account(&p),
            Err(why) => {
                eprintln!("round {i} failed: {why}");
                Round {
                    attempted: REQUESTS,
                    failed: REQUESTS,
                    ..Round::default()
                }
            }
        }
    }

    fn traced(&mut self, seconds: f64, tr: &mut Tracer) -> Result<(Values, Round), String> {
        let mut values = Values::new();
        let mut total = Round::default();
        let hw = tpu_mesh(2, 2);

        // Set-up, staged: the decode step through the compile layers,
        // then the engine as the user builds it.
        let model = tr
            .time("models.build", || {
                itransformer::build_decode_step(&self.cfg)
            })
            .map_err(text)?;
        values.insert("models.build_ms", tr.ms_p50("models.build"));
        values.insert("models.ops", model.func.num_ops() as f64);
        staged_setup(
            tr,
            &mut values,
            &model.func,
            &hw,
            &schedule()?,
            &PlanOptions::default(),
        )?;
        tr.time("serve.engine_new", || engine_on(&self.cfg, &hw).map(drop))?;
        values.insert("serve.engine_new_ms", tr.ms_p50("serve.engine_new"));

        // The decode step with no engine around it: resident shards,
        // `run_plan` and nothing else.
        let bare = self.bare_step_ms(tr, &model)?;
        values.insert("serve.bare_step_ms_p50", bare);

        // One burst on the neighbouring meshes: a slower step must show
        // as fewer requests per second, or throughput measures the
        // arrival schedule and not the system.
        for (b, step_key, rate_key) in [
            (1, "serve.step_ms_p50.1x2", "serve.burst_ops_per_s.1x2"),
            (4, "serve.step_ms_p50.4x2", "serve.burst_ops_per_s.4x2"),
        ] {
            let engine = engine_on(&self.cfg, &tpu_mesh(b, 2))?;
            let p = self.phase(&engine, 1)?;
            values.insert(step_key, median(&step_ms(&p.report.events)));
            values.insert(rate_key, p.report.completed().count() as f64 / p.wall_s);
        }

        let (mut steps, mut waits) = (Vec::new(), Vec::new());
        let (mut depth, mut util, mut rejected) = (0usize, Vec::new(), 0usize);
        let (mut step_count, mut tokens, mut burst_s) = (0u64, 0u64, 0.0);
        let began = Instant::now();
        let mut i = 0;
        while i < 2 || began.elapsed().as_secs_f64() < seconds {
            let from = tr.clock_us();
            let p = self.phase(&self.engine, i)?;
            rejected += p.report.rejected();
            step_count += p.report.steps;
            if p.paced {
                tr.record("serve.paced", from, from + p.wall_s * 1e6);
                for o in p.report.completed() {
                    if let Some(admitted) = o.admitted_us {
                        waits.push(admitted.saturating_sub(o.arrival_us) as f64 / 1e3);
                    }
                }
                depth = depth.max(p.report.max_queue_depth);
                util.push(p.report.slot_utilization());
            } else {
                // The burst's steps as spans, placed where the burst ran:
                // its engine clock is wall time, nothing is skipped once
                // the engine is busy.
                tr.record("serve.burst", from, from + p.wall_s * 1e6);
                let mut t = from;
                for ms in step_ms(&p.report.events) {
                    tr.record("serve.step", t, t + ms * 1e3);
                    t += ms * 1e3;
                    steps.push(ms);
                }
                tokens += p.report.total_tokens();
                burst_s += p.wall_s;
            }
            absorb(&mut total, self.account(&p));
            i += 1;
        }
        let engine_step = median(&steps);
        values.insert("serve.steps", step_count as f64 / i as f64);
        values.insert("serve.step_ms_p50", engine_step);
        values.insert("serve.host_share", 1.0 - bare / engine_step);
        values.insert("serve.queue_wait_ms_p50", median(&waits));
        values.insert("serve.queue_depth_max", depth as f64);
        values.insert("serve.slot_util", median(&util));
        values.insert("serve.tokens_per_s", tokens as f64 / burst_s);
        values.insert("serve.rejected", rejected as f64);
        // Share of the bursts' wall time that decode steps account for.
        // The engine is one call, so the harness adds no spans inside it
        // and tracing costs it nothing.
        values.insert(
            "trace.coverage",
            steps.iter().sum::<f64>() / (burst_s * 1e3),
        );
        values.insert("trace.overhead_share", 0.0);
        Ok((values, total))
    }
}

impl ServeMix {
    fn phase_seed(&self, round: usize) -> u64 {
        self.seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(round as u64)
    }

    /// Runs phase `i` on `engine`: paced if `i` is even, a burst if odd.
    fn phase(&self, engine: &ServingEngine, i: usize) -> Result<Phase, String> {
        let paced = i.is_multiple_of(2);
        let (gap_us, queue_capacity) = if paced {
            (PACED_GAP_US, PACED_QUEUE)
        } else {
            (BURST_GAP_US, REQUESTS)
        };
        let requests = requests(&self.cfg, gap_us, self.phase_seed(i));
        let start = Instant::now();
        let report = engine.run(
            &requests,
            &RunOptions {
                queue_capacity,
                virtual_step_us: None,
                collector: None,
            },
        );
        let wall_s = start.elapsed().as_secs_f64();
        let report = report.map_err(text)?;
        validate_events(&report.events, &requests, self.cfg.slots, queue_capacity)?;
        Ok(Phase {
            paced,
            requests,
            report,
            wall_s,
        })
    }

    /// Turns a phase into ops: latencies from a paced phase, completions
    /// per busy second from a burst, failures from either.
    fn account(&self, p: &Phase) -> Round {
        let mut failed = p.report.rejected();
        for o in p.report.completed() {
            let req = p.requests.requests.iter().find(|r| r.id == o.id);
            let wrong = req.is_some_and(|r| {
                self.oracle.iter().any(|(prompt, n, want)| {
                    *prompt == r.prompt && *n == r.decode_steps && *want != o.tokens
                })
            });
            if wrong {
                eprintln!("request {} differs from the solo reference decoder", o.id);
                failed += 1;
            }
        }
        let mut round = Round {
            attempted: REQUESTS,
            failed,
            ..Round::default()
        };
        if p.paced {
            round.op_ms = p
                .report
                .latencies_us()
                .into_iter()
                .map(|us| us as f64 / 1e3)
                .collect();
        } else {
            round.busy_s = p.wall_s;
            round.completed = p.report.completed().count();
        }
        round
    }

    /// Median time (ms) of `run_plan` on the engine's plan with every
    /// input already sharded: the step with no engine around it.
    fn bare_step_ms(&self, tr: &mut Tracer, model: &crate::api::BuiltModel) -> Result<f64, String> {
        const STEPS: usize = 40;
        let program = self.engine.program();
        let devices = program.mesh().num_devices();
        let n = model.num_param_tensors;
        let mut per_device: Vec<Vec<Literal>> = vec![Vec::new(); devices];
        for (k, lit) in synthetic_inputs(model, WEIGHTS_SEED).iter().enumerate() {
            // Past the parameters come tokens, positions, fresh flags and
            // the caches: an idle arena reads all of them as zeros.
            let zeros;
            let lit = if k < n {
                lit
            } else {
                zeros = Literal::zeros(&lit.ty());
                &zeros
            };
            for (d, shard) in program
                .shard_input(k, lit)
                .map_err(text)?
                .into_iter()
                .enumerate()
            {
                per_device[d].push(shard);
            }
        }
        let runtime = ThreadedRuntime::new(RuntimeConfig::default());
        let mut ms = Vec::with_capacity(STEPS);
        for _ in 0..STEPS {
            let start = Instant::now();
            let outcome = tr.time("serve.bare_step", || {
                runtime.run_plan(self.engine.plan(), &per_device)
            });
            ms.push(start.elapsed().as_secs_f64() * 1e3);
            outcome.map_err(text)?;
        }
        Ok(median(&ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_balanced_and_seeded() {
        let cfg = ServingConfig::it32();
        let a = requests(&cfg, PACED_GAP_US, 5);
        assert_eq!(a, requests(&cfg, PACED_GAP_US, 5));
        assert_ne!(a, requests(&cfg, PACED_GAP_US, 6));
        assert_eq!(a.requests.len(), REQUESTS);
        let mut budgets: Vec<usize> = a.requests.iter().map(|r| r.decode_steps).collect();
        budgets.sort_unstable();
        let mut want: Vec<usize> = DECODE.chain(DECODE).collect();
        want.sort_unstable();
        assert_eq!(budgets, want);
        assert!(a.max_seq_len() <= cfg.max_seq);
    }

    #[test]
    fn step_durations_come_from_the_event_log() {
        let events = [
            ServeEvent::Arrive { t: 0, id: 0 },
            ServeEvent::Admit {
                t: 100,
                id: 0,
                slot: 0,
            },
            ServeEvent::StepEnd {
                t: 1_100,
                step: 0,
                active: 1,
            },
            ServeEvent::StepEnd {
                t: 3_100,
                step: 1,
                active: 1,
            },
        ];
        assert_eq!(step_ms(&events), vec![1.0, 2.0]);
    }
}
