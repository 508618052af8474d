//! The continuous-batching serving engine.
//!
//! [`ServingEngine::new`] compiles the IT32 decode step once per
//! (mesh, schedule, plan options) and shards the parameters and the
//! zeroed KV-cache slot arena once. The resident unit is the device
//! session ([`partir_spmd::Session`]): [`ServingEngine::run`] opens one
//! per run, loads the parameters and the zeroed caches into the device
//! arenas at its first step, and binds every cache output to its cache
//! input, so the caches — sharded across the mesh exactly as the
//! propagated partitioning dictates — stay in the arenas between steps
//! and never cross to the host. Each step then sets only the three
//! `[slots]`-sized slot-addressed inputs (current token, position, fresh
//! flag) and reads back only the `[slots]` next-token output. A schedule
//! under which some cache output is sharded differently from its input
//! is refused at construction.
//!
//! Between steps the engine admits queued requests into free slots and
//! retires finished ones. Slot recycling is in-model: an admitted slot
//! raises its `fresh` flag for one step, which the decode function
//! reads as "this slot's cache is zeros" — so a retired request's stale
//! cache shards never need host-side surgery.

use std::collections::VecDeque;
use std::time::Instant;

use partir_ir::{IrError, Literal, Shape};
use partir_mesh::HardwareConfig;
use partir_models::itransformer::{build_decode_step, ServingConfig};
use partir_models::train::synthetic_inputs;
use partir_obs::Collector;
use partir_sched::{partir_jit, SchedError, Schedule};
use partir_spmd::{
    CompiledPlan, PlanError, PlanOptions, RuntimeConfig, RuntimeError, Session, SpmdProgram,
    ThreadedRuntime,
};

use crate::metrics::{RequestOutcome, ServeReport};
use crate::trace::ServeEvent;
use crate::workload::{Request, Workload};

/// Anything that can go wrong building or running the engine.
#[derive(Debug)]
pub enum ServeError {
    /// Partitioning, lowering or plan compilation failed.
    Build(String),
    /// The threaded runtime failed mid-step.
    Runtime(RuntimeError),
    /// The workload does not fit the engine's model shape.
    Workload(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Build(m) => write!(f, "engine build failed: {m}"),
            ServeError::Runtime(e) => write!(f, "decode step failed: {e}"),
            ServeError::Workload(m) => write!(f, "workload rejected: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RuntimeError> for ServeError {
    fn from(e: RuntimeError) -> Self {
        ServeError::Runtime(e)
    }
}

impl From<SchedError> for ServeError {
    fn from(e: SchedError) -> Self {
        ServeError::Build(e.to_string())
    }
}

impl From<PlanError> for ServeError {
    fn from(e: PlanError) -> Self {
        ServeError::Build(e.to_string())
    }
}

impl From<IrError> for ServeError {
    fn from(e: IrError) -> Self {
        ServeError::Build(e.to_string())
    }
}

/// Per-run knobs (the compiled plan is fixed per engine).
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Bounded FIFO admission queue; arrivals beyond it are rejected.
    pub queue_capacity: usize,
    /// `Some(step_us)`: a deterministic virtual clock that advances by
    /// `step_us` per decode step and jumps to the next arrival when
    /// idle — timelines and percentiles depend only on the workload
    /// (golden traces). `None`: wall-clock timestamps (benchmarks).
    pub virtual_step_us: Option<u64>,
    /// Collector for serving counters and per-request spans. Request
    /// spans land on per-slot tracks (`serve.slot{N}`) — slot exclusivity
    /// makes them well-formed; queue/step counters land on `serve`.
    pub collector: Option<Collector>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            queue_capacity: 64,
            virtual_step_us: None,
            collector: None,
        }
    }
}

/// A request occupying a slot.
struct Active {
    req: Request,
    admitted_us: u64,
    tokens: Vec<i32>,
    /// Cache position the *next* step writes/attends to.
    pos: i32,
    /// Token the next step embeds.
    cur: i32,
    /// One step of in-model cache zeroing after admission.
    fresh: bool,
}

/// The compiled, sharded decode step plus the shards every run's
/// session starts from (see the module docs).
pub struct ServingEngine {
    cfg: ServingConfig,
    program: SpmdProgram,
    plan: CompiledPlan,
    runtime: ThreadedRuntime,
    num_params: usize,
    /// Parameter shards, `[param][device]` — sharded once.
    param_shards: Vec<Vec<Literal>>,
    /// Zeroed cache shards, `[cache][device]` — each run's session
    /// starts from them.
    zero_cache_shards: Vec<Vec<Literal>>,
}

impl ServingEngine {
    /// Builds the decode step for `cfg`, partitions it with `schedule`
    /// on `hw`, compiles the plan with `options`, and shards parameters
    /// (drawn from [`synthetic_inputs`] with `seed`, matching the
    /// oracle's) and the zeroed cache arena onto the devices.
    ///
    /// # Errors
    ///
    /// Fails if the slot arena does not divide over the mesh, on any
    /// partitioning/compilation error, and ([`ServeError::Build`], naming
    /// the cache) if some cache output is sharded differently from its
    /// input, so could not stay bound on the devices.
    pub fn new(
        cfg: &ServingConfig,
        hw: &HardwareConfig,
        schedule: &Schedule,
        options: &PlanOptions,
        seed: u64,
    ) -> Result<Self, ServeError> {
        let model = build_decode_step(cfg)?;
        let jitted = partir_jit(&model.func, hw, schedule)?;
        let program = jitted.program;
        let plan = program.compile_with(options)?;
        let n = model.num_param_tensors;

        let inputs = synthetic_inputs(&model, seed);
        let param_shards = inputs
            .iter()
            .take(n)
            .enumerate()
            .map(|(i, lit)| program.shard_input(i, lit))
            .collect::<Result<_, _>>()?;
        let mut zero_cache_shards = Vec::new();
        for j in 0..2 * cfg.layers {
            let idx = n + 3 + j;
            let param = model.func.params()[idx];
            if program.output_ctxs()[1 + j] != program.input_ctxs()[idx] {
                let name = model.func.value(param).name.as_deref().unwrap_or("?");
                return Err(ServeError::Build(format!(
                    "cache %{name} leaves the step sharded differently from how it \
                     enters, so it cannot stay on the devices"
                )));
            }
            let zeros = Literal::zeros(model.func.value_type(param));
            zero_cache_shards.push(program.shard_input(idx, &zeros)?);
        }

        Ok(ServingEngine {
            cfg: *cfg,
            plan,
            runtime: ThreadedRuntime::new(RuntimeConfig::default()),
            num_params: n,
            param_shards,
            zero_cache_shards,
            program,
        })
    }

    /// The model shape the engine serves.
    pub fn config(&self) -> &ServingConfig {
        &self.cfg
    }

    /// The lowered program (interface summaries, traffic predictions).
    pub fn program(&self) -> &SpmdProgram {
        &self.program
    }

    /// The compiled plan (collective windows, arena size).
    pub fn plan(&self) -> &CompiledPlan {
        &self.plan
    }

    /// Serves `workload` to completion on one device session: admits
    /// requests into free slots between decode steps, retires them when
    /// their decode budget is generated, recycles slots, and reports
    /// every outcome plus the full event timeline.
    ///
    /// # Errors
    ///
    /// Fails if a request cannot fit a cache slot, or on any runtime
    /// failure mid-step.
    pub fn run(&self, workload: &Workload, opts: &RunOptions) -> Result<ServeReport, ServeError> {
        for r in &workload.requests {
            if r.prompt.is_empty() || r.decode_steps == 0 {
                return Err(ServeError::Workload(format!(
                    "request {} needs a non-empty prompt and decode budget",
                    r.id
                )));
            }
            if r.seq_len() > self.cfg.max_seq {
                return Err(ServeError::Workload(format!(
                    "request {} needs {} cache positions, slots hold {}",
                    r.id,
                    r.seq_len(),
                    self.cfg.max_seq
                )));
            }
            if r.prompt
                .iter()
                .any(|&t| t < 0 || t >= self.cfg.vocab as i32)
            {
                return Err(ServeError::Workload(format!(
                    "request {} has tokens outside the vocabulary",
                    r.id
                )));
            }
        }

        self.runtime.with_session(&self.plan, |session| {
            for (k, shards) in self.param_shards.iter().enumerate() {
                session.set_input(k, shards.clone())?;
            }
            // Inputs: params, tokens, positions, fresh, caches; outputs:
            // next tokens, caches.
            for (j, shards) in self.zero_cache_shards.iter().enumerate() {
                let k = self.num_params + 3 + j;
                session.set_input(k, shards.clone())?;
                session.bind(1 + j, k)?;
            }
            self.serve(session, workload, opts)
        })
    }

    /// The serving loop of [`ServingEngine::run`] on its open session.
    fn serve(
        &self,
        session: &mut Session<'_>,
        workload: &Workload,
        opts: &RunOptions,
    ) -> Result<ServeReport, ServeError> {
        let s = self.cfg.slots;
        let collector = opts.collector.clone().unwrap_or_else(Collector::noop);
        let start = Instant::now();
        let mut vnow: u64 = 0;
        // Idle time skipped under wall clock (see below): the engine
        // never sleeps, so fast-forwarding to the next arrival keeps the
        // engine clock on the workload's timeline.
        let mut skip: u64 = 0;
        let wall = opts.virtual_step_us.is_none();
        let now = |vnow: u64, skip: u64| -> u64 {
            if wall {
                start.elapsed().as_micros() as u64 + skip
            } else {
                vnow
            }
        };

        let mut pending: VecDeque<Request> = workload.requests.iter().cloned().collect();
        let mut queue: VecDeque<Request> = VecDeque::new();
        let mut slots: Vec<Option<Active>> = (0..s).map(|_| None).collect();
        let mut outcomes: Vec<RequestOutcome> = Vec::new();
        let mut events: Vec<ServeEvent> = Vec::new();
        let mut steps = 0u64;
        let mut active_slot_steps = 0u64;
        let mut max_queue_depth = 0usize;

        loop {
            let idle = slots.iter().all(Option::is_none) && queue.is_empty();
            if idle {
                // Fast-forward the engine clock to the next arrival
                // rather than sleeping (or, under wall clock, ingesting
                // a request before its own timestamp).
                match pending.front() {
                    Some(r) => {
                        if wall {
                            skip += r.arrival_us.saturating_sub(now(vnow, skip));
                        } else {
                            vnow = vnow.max(r.arrival_us);
                        }
                    }
                    None => break,
                }
            }
            let mut t = now(vnow, skip);
            // Ingest due arrivals.
            while let Some(r) = pending.front() {
                if r.arrival_us > t {
                    break;
                }
                let r = pending.pop_front().expect("front exists");
                t = now(vnow, skip).max(t);
                events.push(ServeEvent::Arrive { t, id: r.id });
                if queue.len() >= opts.queue_capacity {
                    events.push(ServeEvent::Reject { t, id: r.id });
                    collector.counter_on("serve", "serve.rejected", 1.0);
                    outcomes.push(RequestOutcome {
                        id: r.id,
                        tokens: Vec::new(),
                        arrival_us: r.arrival_us,
                        admitted_us: None,
                        retired_us: None,
                        slot: None,
                        rejected: true,
                    });
                } else {
                    queue.push_back(r);
                    max_queue_depth = max_queue_depth.max(queue.len());
                }
            }
            // Admit into free slots, FIFO.
            while !queue.is_empty() {
                let Some(slot) = slots.iter().position(Option::is_none) else {
                    break;
                };
                let req = queue.pop_front().expect("non-empty");
                events.push(ServeEvent::Admit {
                    t,
                    id: req.id,
                    slot,
                });
                collector.counter_on("serve", "serve.admitted", 1.0);
                collector.begin_on(&format!("serve.slot{slot}"), format!("request.{}", req.id));
                let pos = req.prompt.len() as i32 - 1;
                let cur = *req.prompt.last().expect("non-empty prompt");
                slots[slot] = Some(Active {
                    req,
                    admitted_us: t,
                    tokens: Vec::new(),
                    pos,
                    cur,
                    fresh: true,
                });
            }
            collector.counter_on("serve", "serve.queue_depth", queue.len() as f64);
            let active = slots.iter().filter(|a| a.is_some()).count();
            if active == 0 {
                continue;
            }

            // One decode step over the arena. Inactive slots run at
            // position 0 with token 0; rows are independent, so their
            // garbage stays theirs.
            let mut tok = vec![0i32; s];
            let mut pos = vec![0i32; s];
            let mut fresh = vec![0i32; s];
            for (i, a) in slots.iter().enumerate() {
                if let Some(a) = a {
                    tok[i] = a.cur;
                    pos[i] = a.pos;
                    fresh[i] = i32::from(a.fresh);
                }
            }
            collector.begin_on("serve", "serve.step");
            let next = self.step(session, [tok, pos, fresh])?;
            collector.end_on("serve");
            steps += 1;
            active_slot_steps += active as u64;
            if let Some(step_us) = opts.virtual_step_us {
                vnow += step_us;
            }
            let t_end = now(vnow, skip);
            events.push(ServeEvent::StepEnd {
                t: t_end,
                step: steps - 1,
                active,
            });
            collector.counter_on("serve", "serve.tokens", active as f64);

            // Record tokens; retire finished requests.
            for (i, entry) in slots.iter_mut().enumerate() {
                let Some(a) = entry.as_mut() else { continue };
                let token = next[i];
                a.tokens.push(token);
                a.cur = token;
                a.pos += 1;
                a.fresh = false;
                if a.tokens.len() == a.req.decode_steps {
                    let a = entry.take().expect("occupied");
                    events.push(ServeEvent::Retire {
                        t: t_end,
                        id: a.req.id,
                        slot: i,
                        tokens: a.tokens.len(),
                    });
                    collector.counter_on("serve", "serve.retired", 1.0);
                    collector.end_on(&format!("serve.slot{i}"));
                    outcomes.push(RequestOutcome {
                        id: a.req.id,
                        tokens: a.tokens,
                        arrival_us: a.req.arrival_us,
                        admitted_us: Some(a.admitted_us),
                        retired_us: Some(t_end),
                        slot: Some(i),
                        rejected: false,
                    });
                }
            }
        }

        let elapsed_us = now(vnow, skip).max(1);
        outcomes.sort_by_key(|o| o.id);
        let report = ServeReport {
            outcomes,
            events,
            steps,
            elapsed_us,
            max_queue_depth,
            active_slot_steps,
            slots: s,
        };
        collector.counter_on("serve", "serve.p50_us", report.p50_us() as f64);
        collector.counter_on("serve", "serve.p99_us", report.p99_us() as f64);
        Ok(report)
    }

    /// Runs one decode step: sets the three slot-addressed inputs
    /// (tokens, positions, fresh flags), steps the session — parameters
    /// and caches are already in the arenas — and unshards the next
    /// tokens, the one output the cache bindings leave.
    fn step(
        &self,
        session: &mut Session<'_>,
        small: [Vec<i32>; 3],
    ) -> Result<Vec<i32>, ServeError> {
        let shape = Shape::from([self.cfg.slots]);
        for (j, values) in small.into_iter().enumerate() {
            let lit = Literal::from_i32(values, shape.clone())?;
            session.set_input(
                self.num_params + j,
                self.program.shard_input(self.num_params + j, &lit)?,
            )?;
        }
        let outcome = session.step()?;
        let tok_shards: Vec<Literal> = outcome
            .outputs
            .into_iter()
            .map(|mut o| o.swap_remove(0))
            .collect();
        let next = self.program.unshard_output(0, &tok_shards)?;
        Ok(next.as_i32().expect("i32 next tokens").to_vec())
    }
}
