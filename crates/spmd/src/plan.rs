//! Compiled per-device execution plans: compile once, run many.
//!
//! The [`crate::interp`] lockstep interpreter and the threaded runtime's
//! original hot loop both re-interpret the lowered program op by op —
//! re-inferring shapes, re-matching dtypes and allocating a fresh
//! [`Literal`] for every intermediate on every step. [`CompiledPlan`]
//! performs that work exactly once:
//!
//! * every op is pre-resolved to the [`SliceKernel`] the interpreters
//!   themselves run for it ([`partir_ir::kernels`] holds the one
//!   definition of each op), planned against the operand types with
//!   shapes, strides and staging permutations baked in;
//! * adjacent same-shape `f32` elementwise ops are fused into a single
//!   register-machine loop body ([`Step::Eltwise`]), so chains like
//!   `neg → exp → add` make one pass over memory;
//! * buffer lifetimes are derived from the same liveness schedule as
//!   [`partir_analysis::static_peak_bound`] (hierarchically per region,
//!   so loop-carried storage is never reused across iterations) and each
//!   intermediate gets a fixed slot in a per-device arena;
//! * collective schedules ([`crate::collectives`]) are wired ahead of
//!   time per device: rendezvous partners, staging order and per-axis
//!   chunking are all resolved at compile time.
//!
//! **What allocates.** After one warm-up run (which sizes the kernels'
//! per-thread scratch pool), loading inputs and running the *local* steps
//! of a plan performs zero heap allocations; `tests/plan_alloc.rs`
//! asserts it on the transformer training step, the decode step, the
//! `build_serving` loop and U-Net. (The one exception is a kernel step
//! with more than eight operands — a wide `concatenate` — whose operand
//! views [`SliceKernel::run`] collects into a `Vec`; the zoo has none.)
//! Not covered: collective steps, which snapshot their operand
//! into a `Literal` payload and receive fresh ones (messages own their
//! data); `read_outputs`, which materialises results for the caller; and
//! what the threaded runtime sets up around the plan on every run —
//! channels and one thread per device. The arenas themselves are resident:
//! the plan owns one [`PlanExecutor`] per device, allocated on the first
//! run and reused by every later one.
//!
//! An op or operand dtype [`SliceKernel::plan`] has no semantics for
//! (integer `pow`, a `pred` binary, a non-`f32` dot) is refused here, at
//! [`CompiledPlan::compile`], with the [`IrError`] the interpreter raises
//! for it — there is no fallback path.
//!
//! The compiler cross-checks its byte accounting against the analysis
//! crate by replaying the liveness walk ([`PlanError::BoundMismatch`])
//! and can enforce an arena budget ([`PlanError::ArenaOverflow`]).
//! Because all devices execute the same SPMD program, one plan serves
//! the whole mesh; only the per-device collective schedules differ, and
//! they are stored per device inside the plan's collective steps.
//!
//! The lockstep interpreter remains the differential oracle: fault-free
//! plan execution is bit-identical to it (and hence to the
//! unpartitioned reference), which the conformance suite asserts across
//! the model zoo.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use partir_analysis::plan::{Access, ForView, PlanView, StageView, StepView};
use partir_analysis::Diagnostic;
use partir_ir::interp::eval_op;
use partir_ir::kernels::{apply_bin, apply_un, Buf, BufMut, SliceKernel};
use partir_ir::{
    BinaryOp, Collective, DType, Func, IrError, Literal, OpId, OpKind, TensorType, UnaryOp, ValueId,
};
use partir_mesh::Mesh;

use crate::collectives::{
    schedule_collective, start_scheduled, wait_scheduled, CollPending, CollSched, Exchange,
};
use crate::runtime::RuntimeError;

/// Register budget of the fused-elementwise machine. Chains that need
/// more temporaries are split into consecutive fused steps.
const MAX_REGS: usize = 16;

// ---------------------------------------------------------------------------
// Errors and options
// ---------------------------------------------------------------------------

/// Structured plan-compilation failure.
#[derive(Debug)]
pub enum PlanError {
    /// The arena the layout needs exceeds the configured budget.
    ArenaOverflow {
        /// Bytes the compiled layout requires.
        needed: u64,
        /// The configured [`PlanOptions::arena_budget`].
        budget: u64,
    },
    /// The compiler's replay of the liveness walk disagrees with
    /// [`partir_analysis::static_peak_bound`] — a byte-accounting bug in
    /// one of the two crates.
    BoundMismatch {
        /// Peak bytes the plan compiler's own accounting replayed.
        replayed: u64,
        /// Peak bytes the analysis crate reports.
        analysis: u64,
    },
    /// Malformed input program.
    Ir(IrError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ArenaOverflow { needed, budget } => {
                write!(f, "plan arena needs {needed} B, budget is {budget} B")
            }
            PlanError::BoundMismatch { replayed, analysis } => write!(
                f,
                "plan replayed peak {replayed} B but analysis bound is {analysis} B"
            ),
            PlanError::Ir(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<IrError> for PlanError {
    fn from(e: IrError) -> Self {
        PlanError::Ir(e)
    }
}

impl From<PlanError> for RuntimeError {
    fn from(e: PlanError) -> Self {
        match e {
            PlanError::Ir(e) => RuntimeError::Ir(e),
            other => RuntimeError::Ir(IrError::invalid(other.to_string())),
        }
    }
}

/// Compilation knobs.
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// Upper bound (bytes) on the per-device arena; compilation fails
    /// with [`PlanError::ArenaOverflow`] when the layout needs more.
    /// `None` (the default) accepts whatever the layout requires.
    pub arena_budget: Option<u64>,
    /// Whether to schedule collectives for compute/communication
    /// overlap: each collective's *start* (its input-dependent sends) is
    /// hoisted to the point its operand is ready and its *wait* (the
    /// rendezvous and fold) sinks to the first consuming step, so
    /// independent compute between the two runs while payloads are in
    /// flight. `false` keeps start and wait adjacent — the blocking
    /// layout. Overlap never changes *what* is communicated or computed,
    /// only *when*: outputs and per-axis traffic are identical either
    /// way. On by default.
    pub overlap: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            arena_budget: None,
            overlap: true,
        }
    }
}

impl PlanOptions {
    /// Default options with overlap scheduling disabled: collectives
    /// stay blocking program points (start immediately followed by
    /// wait).
    pub fn blocking() -> Self {
        PlanOptions {
            overlap: false,
            ..PlanOptions::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Slots and the arena allocator
// ---------------------------------------------------------------------------

/// A fixed range of one typed arena pool, assigned to one SSA value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    dtype: DType,
    off: usize,
    len: usize,
}

fn pool_index(dt: DType) -> usize {
    match dt {
        DType::F32 => 0,
        DType::I32 => 1,
        DType::Pred => 2,
        _ => unreachable!("plan: unsupported dtype {dt}"),
    }
}

fn pool_elem_bytes(dt: DType) -> usize {
    match dt {
        DType::F32 => std::mem::size_of::<f32>(),
        DType::I32 => std::mem::size_of::<i32>(),
        DType::Pred => std::mem::size_of::<bool>(),
        _ => unreachable!("plan: unsupported dtype {dt}"),
    }
}

/// First-fit free-list allocator over one pool. Offsets are in elements;
/// freed ranges coalesce so the high-water mark tracks true peak usage.
#[derive(Debug, Default)]
struct PoolAlloc {
    /// Free ranges `(off, len)`, sorted by offset, coalesced.
    free: Vec<(usize, usize)>,
    /// Pool length required so far (elements).
    high: usize,
}

impl PoolAlloc {
    fn alloc(&mut self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        for i in 0..self.free.len() {
            let (off, flen) = self.free[i];
            if flen >= len {
                if flen == len {
                    self.free.remove(i);
                } else {
                    self.free[i] = (off + len, flen - len);
                }
                return off;
            }
        }
        let off = self.high;
        self.high += len;
        off
    }

    fn free(&mut self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        let i = self.free.partition_point(|&(o, _)| o < off);
        self.free.insert(i, (off, len));
        if i + 1 < self.free.len() && self.free[i].0 + self.free[i].1 == self.free[i + 1].0 {
            self.free[i].1 += self.free[i + 1].1;
            self.free.remove(i + 1);
        }
        if i > 0 && self.free[i - 1].0 + self.free[i - 1].1 == self.free[i].0 {
            self.free[i - 1].1 += self.free[i].1;
            self.free.remove(i);
        }
    }
}

// ---------------------------------------------------------------------------
// Plan IR
// ---------------------------------------------------------------------------

/// Fused-elementwise opcode.
#[derive(Debug, Clone, Copy)]
enum EltOp {
    Un(UnaryOp),
    Bin(BinaryOp),
}

/// One register-machine instruction of a fused elementwise loop.
#[derive(Debug, Clone, Copy)]
struct EltInstr {
    op: EltOp,
    a: u8,
    b: u8,
    dst: u8,
}

/// A fused chain of same-shape `f32` elementwise ops: one pass over the
/// arena, loads → instrs → stores per element.
#[derive(Debug, Clone)]
struct EltwiseStep {
    n: usize,
    loads: Vec<(u8, Slot)>,
    instrs: Vec<EltInstr>,
    stores: Vec<(u8, Slot)>,
}

/// Compile-time-materialized constant (or folded iota) payload.
#[derive(Debug, Clone)]
enum BakedData {
    F32(Vec<f32>),
    I32(Vec<i32>),
    Pred(Vec<bool>),
}

/// Writes a baked payload into its slot.
#[derive(Debug, Clone)]
struct BakedStep {
    data: BakedData,
    dst: Slot,
    name: &'static str,
}

/// A counted loop: entry copies, per-iteration body + carry copies,
/// exit copies (or bypass copies when the trip count is zero).
#[derive(Debug, Clone)]
struct ForStep {
    trip_count: usize,
    /// `i32` scalar slot of the induction variable.
    index: Slot,
    /// Operand → region-param copies before the first iteration.
    entry: Vec<(Slot, Slot)>,
    body: Vec<Step>,
    /// Region-result → region-param copies between iterations
    /// (identity pairs already dropped).
    carry: Vec<(Slot, Slot)>,
    /// Some carry source aliases another carry destination, so carries
    /// stage through the executor's scratch to stay order-independent.
    carry_staged: bool,
    /// Region-result → op-result copies after the last iteration.
    exit: Vec<(Slot, Slot)>,
    /// Operand → op-result copies when `trip_count == 0`.
    bypass: Vec<(Slot, Slot)>,
}

/// The *start* phase of a collective: snapshots the operand and issues
/// the first stage's input-dependent sends eagerly
/// ([`start_scheduled`]). Paired with the [`CollWaitStep`] carrying the
/// same `tag`; the in-flight state travels through
/// [`PlanExecutor::pending`].
#[derive(Debug, Clone)]
struct CollStartStep {
    kind: Collective,
    /// `scheds[d]` is device `d`'s staging order, rendezvous groups and
    /// local slice chain — shared with the paired wait step.
    scheds: Arc<Vec<CollSched>>,
    /// Message tag of this collective instance (also its
    /// [`PlanExecutor::pending`] index), unique per static collective
    /// step; loop iterations reuse it, which is safe because every
    /// device issues a tag's messages in the same program order.
    tag: u32,
    src: Slot,
    src_ty: TensorType,
    /// Timeline span name, `coll.start.<tag>` — paired with the wait
    /// span by tag when reconciling measured overlap.
    span: String,
}

/// The *wait* (rendezvous/completion) phase of a collective: receives
/// and folds what the peers sent and writes the device-local result
/// ([`wait_scheduled`]).
#[derive(Debug, Clone)]
struct CollWaitStep {
    kind: Collective,
    scheds: Arc<Vec<CollSched>>,
    tag: u32,
    dst: Slot,
    /// Timeline span name, `coll.wait.<tag>`.
    span: String,
}

/// One region-free, collective-free op as the [`SliceKernel`] the
/// interpreters run for it, planned once against the operand types and
/// executed directly on arena ranges.
#[derive(Debug, Clone)]
struct KernelStep {
    kernel: SliceKernel,
    /// Operand slots, in the op's operand order.
    srcs: Vec<Slot>,
    dst: Slot,
    name: &'static str,
}

/// One pre-resolved execution step of a compiled plan.
#[derive(Debug, Clone)]
enum Step {
    Baked(BakedStep),
    Eltwise(EltwiseStep),
    Kernel(Box<KernelStep>),
    For(Box<ForStep>),
    CollStart(Box<CollStartStep>),
    CollWait(Box<CollWaitStep>),
}

impl Step {
    /// Span name for the observability timeline — the op mnemonic the
    /// interpreting runtime used, so traces stay comparable.
    fn name(&self) -> &'static str {
        match self {
            Step::Baked(b) => b.name,
            Step::Eltwise(_) => "fused_eltwise",
            Step::Kernel(k) => k.name,
            Step::For(_) => "for",
            Step::CollStart(_) => "coll.start",
            Step::CollWait(_) => "coll.wait",
        }
    }
}

// ---------------------------------------------------------------------------
// The compiled plan
// ---------------------------------------------------------------------------

/// One collective's overlap window in a compiled plan: how many steps
/// of independent work sit between its start and its wait in the step
/// list. A blocking plan has `gap_steps == 0` for every collective; the
/// overlap scheduler widens the window as far as the dependency
/// structure allows. [`partir_obs`] device traces carry matching
/// `coll.start.<tag>` / `coll.wait.<tag>` spans, so measured overlap is
/// checked against this structure (`sim::reconcile`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollWindow {
    /// The collective's message tag (unique per static collective step).
    pub tag: u32,
    /// Steps strictly between the start and the wait in their body.
    pub gap_steps: usize,
}

/// A device-local program compiled to direct kernel calls over a fixed
/// arena. One plan serves every device of the mesh (SPMD); only the
/// collective schedules embedded in the steps are per-device.
#[derive(Debug)]
pub struct CompiledPlan {
    steps: Vec<Step>,
    /// Arena pool lengths in elements: `[f32, i32, pred]`.
    pool_len: [usize; 3],
    /// Carry-staging scratch lengths in elements: `[f32, i32, pred]`.
    carry_elems: [usize; 3],
    param_slots: Vec<Slot>,
    param_tys: Vec<TensorType>,
    result_slots: Vec<Slot>,
    result_tys: Vec<TensorType>,
    num_devices: usize,
    arena_bytes: u64,
    fused_ops: usize,
    /// Static collective steps (also the executor's pending-table size).
    num_colls: usize,
    /// Per-collective start→wait windows, sorted by tag.
    windows: Vec<CollWindow>,
    /// Whether the overlap scheduler ran ([`PlanOptions::overlap`]).
    overlapped: bool,
    /// The verifier's neutral view of the schedule, built in lockstep
    /// with `steps` (including through the overlap pass). Untouched by
    /// execution — zero steady-state cost.
    view: PlanView,
    /// The plan's resident executors, parked here between runs (at most
    /// one per device). The plan is the one object that outlives a call
    /// on every path that runs it — the serving engine holds it across
    /// decode steps, `execute_global_planned` builds a fresh runtime per
    /// call — so the arenas live here and are freed when the plan drops.
    parked: ExecutorPool,
}

/// Executors parked on a [`CompiledPlan`] between runs.
#[derive(Default)]
struct ExecutorPool(Mutex<Vec<PlanExecutor>>);

impl ExecutorPool {
    fn lock(&self) -> MutexGuard<'_, Vec<PlanExecutor>> {
        // Only whole-element pushes and pops happen under the lock, so
        // the vector is valid even if a holder panicked.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl fmt::Debug for ExecutorPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ExecutorPool({} parked)", self.lock().len())
    }
}

impl CompiledPlan {
    /// Compiles `func` (a lowered device-local program) for every device
    /// of `mesh`.
    ///
    /// # Errors
    ///
    /// [`PlanError::BoundMismatch`] when the compiler's byte accounting
    /// disagrees with [`partir_analysis::static_peak_bound`];
    /// [`PlanError::ArenaOverflow`] when the layout exceeds
    /// [`PlanOptions::arena_budget`]; [`PlanError::Ir`] on malformed
    /// programs.
    pub fn compile(func: &Func, mesh: &Mesh, options: &PlanOptions) -> Result<Self, PlanError> {
        let _span = partir_obs::span!("plan.compile");
        let mut external: HashSet<ValueId> = func.results().iter().copied().collect();
        for op_id in func.op_ids() {
            if let Some(region) = &func.op(op_id).region {
                external.extend(region.results.iter().copied());
            }
        }
        let mut c = Compiler {
            func,
            mesh,
            slots: vec![None; func.num_values()],
            alloc: Default::default(),
            uses: func.uses(),
            external,
            carry_elems: [0; 3],
            fused_ops: 0,
            next_tag: 0,
        };
        let param_slots: Vec<Slot> = func.params().iter().map(|&p| c.alloc_value(p)).collect();
        let param_tys: Vec<TensorType> = func
            .params()
            .iter()
            .map(|&p| func.value_type(p).clone())
            .collect();
        let mut out = PlanSteps::default();
        // Top-level leftovers (results, never-used values) stay resident.
        let _ = c.compile_body(func.body(), func.results(), &mut out)?;
        if options.overlap {
            overlap_pass(&mut out.steps, &mut out.views);
        }
        let PlanSteps { steps, views } = out;
        let mut windows = Vec::new();
        collect_windows(&steps, &mut windows);
        windows.sort_by_key(|w| w.tag);
        let result_slots: Vec<Slot> = func
            .results()
            .iter()
            .map(|&r| c.slot_of(r))
            .collect::<Result<_, _>>()?;
        let result_tys: Vec<TensorType> = func
            .results()
            .iter()
            .map(|&r| func.value_type(r).clone())
            .collect();
        let pool_len = [c.alloc[0].high, c.alloc[1].high, c.alloc[2].high];
        let arena_bytes = pool_len
            .iter()
            .zip([DType::F32, DType::I32, DType::Pred])
            .map(|(&len, dt)| len as u64 * pool_elem_bytes(dt) as u64)
            .sum();
        // Satellite check: replay the analysis liveness walk with the
        // plan's own pool-element byte accounting and require exact
        // agreement with the published static bound.
        let analysis = partir_analysis::static_peak_bound(func);
        let replayed = replay_bound(func);
        if replayed != analysis {
            return Err(PlanError::BoundMismatch { replayed, analysis });
        }
        if let Some(budget) = options.arena_budget {
            if arena_bytes > budget {
                return Err(PlanError::ArenaOverflow {
                    needed: arena_bytes,
                    budget,
                });
            }
        }
        let (carry_elems, fused_ops) = (c.carry_elems, c.fused_ops);
        let num_colls = c.next_tag as usize;
        let view = PlanView {
            num_devices: mesh.num_devices(),
            num_tags: c.next_tag,
            pool_len,
            params: func
                .params()
                .iter()
                .zip(&param_slots)
                .map(|(&p, &s)| view_access(p, s))
                .collect(),
            results: func
                .results()
                .iter()
                .zip(&result_slots)
                .map(|(&r, &s)| view_access(r, s))
                .collect(),
            steps: views,
            overlapped: options.overlap,
        };
        // Post-condition (debug builds only, compile time only): the
        // schedule just produced must pass plan-level translation
        // validation — races, slot-lifetime overlaps and rendezvous
        // deadlocks in the overlap scheduler's output are compiler
        // bugs, caught here before a plan ever runs.
        #[cfg(debug_assertions)]
        {
            let diags = partir_analysis::verify_plan(&view);
            assert!(
                partir_analysis::error_count(&diags) == 0,
                "compiled plan failed static verification:\n{}",
                diags
                    .iter()
                    .map(std::string::ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
        Ok(CompiledPlan {
            steps,
            pool_len,
            carry_elems,
            param_slots,
            param_tys,
            result_slots,
            result_tys,
            num_devices: mesh.num_devices(),
            arena_bytes,
            fused_ops,
            num_colls,
            windows,
            overlapped: options.overlap,
            view,
            parked: ExecutorPool::default(),
        })
    }

    /// Devices the plan was compiled for.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Per-device parameter types, in order.
    pub fn param_tys(&self) -> &[TensorType] {
        &self.param_tys
    }

    /// Bytes of the per-device arena the executor allocates up front.
    pub fn arena_bytes(&self) -> u64 {
        self.arena_bytes
    }

    /// Ops folded into fused elementwise loops.
    pub fn fused_ops(&self) -> usize {
        self.fused_ops
    }

    /// Static collective steps in the plan (loop bodies counted once).
    pub fn num_collectives(&self) -> usize {
        self.num_colls
    }

    /// Whether the plan was compiled with overlap scheduling
    /// ([`PlanOptions::overlap`]).
    pub fn overlapped(&self) -> bool {
        self.overlapped
    }

    /// Per-collective start→wait windows, sorted by tag. Blocking plans
    /// report `gap_steps == 0` everywhere.
    pub fn collective_windows(&self) -> &[CollWindow] {
        &self.windows
    }

    /// The verifier's neutral view of this plan's schedule: arena
    /// effects tagged with the SSA value each range holds, plus the
    /// per-device collective stage tables (see
    /// [`partir_analysis::plan`]).
    pub fn verifier_view(&self) -> &PlanView {
        &self.view
    }

    /// Statically verifies the compiled schedule: happens-before
    /// races, first-fit slot-lifetime overlaps, window structure and
    /// cross-device rendezvous deadlock freedom. An empty (or
    /// `Info`-only) result is a proof under the happens-before model in
    /// [`partir_analysis::plan`]. The same check runs automatically as
    /// a debug post-condition of [`CompiledPlan::compile`].
    pub fn verify(&self) -> Vec<Diagnostic> {
        partir_analysis::verify_plan(&self.view)
    }

    /// Dynamic step count of one run: static steps with loop bodies
    /// multiplied out by their trip counts. The natural scale factor for
    /// rendezvous-timeout budgets — a stall detector must outlast the
    /// whole run, not one step.
    pub fn dynamic_steps(&self) -> u64 {
        dynamic_steps(&self.steps)
    }

    /// A rendezvous timeout proportional to the plan's dynamic step
    /// count: `per_step × dynamic_steps`, floored at `per_step`. Fault
    /// tests derive their thresholds from this so timing stays
    /// deterministic whether collectives block or overlap.
    pub fn rendezvous_budget(&self, per_step: std::time::Duration) -> std::time::Duration {
        per_step * (self.dynamic_steps().clamp(1, u32::MAX as u64) as u32)
    }

    /// Fresh executor state (arena pools + carry scratch) for this plan,
    /// owned by the caller — for single-device use through
    /// [`CompiledPlan::load_inputs`] / [`CompiledPlan::run_local_steps`].
    /// The threaded runtime uses the plan's resident executors instead.
    pub fn new_executor(&self) -> PlanExecutor {
        PlanExecutor::new(self)
    }

    /// Checks out one executor per device for a run: the parked ones
    /// first, the missing ones allocated here — on the calling thread,
    /// in device order, so device threads never allocate or zero an
    /// arena. A reused executor's in-flight collective table is cleared:
    /// a run that failed between a start and its wait leaves entries
    /// behind. Arena contents are *not* cleared; every step writes a
    /// range before anything reads it (the plan verifier's dataflow
    /// check, and `tests/residency.rs` over garbage-filled arenas).
    ///
    /// Concurrent runs of one plan never wait on each other: each takes
    /// what is parked at that moment and allocates the rest.
    pub(crate) fn checkout_executors(&self) -> Vec<PlanExecutor> {
        let mut executors = std::mem::take(&mut *self.parked.lock());
        for st in &mut executors {
            st.pending.fill_with(|| None);
        }
        executors.resize_with(self.num_devices, || PlanExecutor::new(self));
        executors
    }

    /// Parks a run's executors for the next one, on success and on error
    /// alike. At most one per device stays resident; what concurrent
    /// runs allocated beyond that is freed here.
    pub(crate) fn park_executors(&self, executors: Vec<PlanExecutor>) {
        let mut parked = self.parked.lock();
        parked.extend(executors);
        parked.truncate(self.num_devices);
    }

    /// Test hook: overwrites every pool and carry buffer of the parked
    /// executors with garbage (NaN / `i32::MIN` / `true`) and returns how
    /// many are parked. The next run must not notice.
    #[doc(hidden)]
    pub fn scribble_parked_executors(&self) -> usize {
        let mut parked = self.parked.lock();
        for st in parked.iter_mut() {
            st.f32s.fill(f32::NAN);
            st.carry_f32s.fill(f32::NAN);
            st.i32s.fill(i32::MIN);
            st.carry_i32s.fill(i32::MIN);
            st.preds.fill(true);
            st.carry_preds.fill(true);
        }
        parked.len()
    }

    /// Type-checks `inputs` and copies them into the executor's arena.
    /// Allocation-free.
    ///
    /// # Errors
    ///
    /// On arity or type mismatch with the compiled parameters.
    pub fn load_inputs(
        &self,
        st: &mut PlanExecutor,
        inputs: &[Literal],
    ) -> Result<(), RuntimeError> {
        if inputs.len() != self.param_slots.len() {
            return Err(RuntimeError::Ir(IrError::invalid(format!(
                "plan expects {} inputs, got {}",
                self.param_slots.len(),
                inputs.len()
            ))));
        }
        for ((lit, slot), ty) in inputs.iter().zip(&self.param_slots).zip(&self.param_tys) {
            // Field-wise comparison: `Literal::ty()` would clone the
            // shape and so allocate in the hot loop.
            if lit.dtype() != ty.dtype || lit.shape() != &ty.shape {
                return Err(RuntimeError::Ir(IrError::invalid(format!(
                    "plan input has type {}, expected {ty}",
                    lit.ty()
                ))));
            }
            write_slot(st, slot, lit)?;
        }
        Ok(())
    }

    /// Runs the compiled steps without a communication fabric — the
    /// steady-state hot loop. Heap-allocation-free after the first run
    /// warms the kernel scratch pool, provided the program contains no
    /// collective exchanges.
    ///
    /// # Errors
    ///
    /// If the program attempts device-to-device communication, or a
    /// kernel fails on its data (an `i32` division by zero).
    pub fn run_local_steps(&self, st: &mut PlanExecutor) -> Result<(), RuntimeError> {
        let mut ex = NoExchange { device: 0 };
        let traced = partir_obs::current().is_some();
        run_steps(&self.steps, st, &mut ex, traced)
    }

    /// Copies the program results out of the arena into fresh
    /// [`Literal`]s.
    ///
    /// # Errors
    ///
    /// On malformed result metadata (shape/element mismatch).
    pub fn read_outputs(&self, st: &PlanExecutor) -> Result<Vec<Literal>, RuntimeError> {
        self.result_slots
            .iter()
            .zip(&self.result_tys)
            .map(|(slot, ty)| read_slot(st, slot, ty))
            .collect()
    }

    /// Convenience single-device execution: load, run, read.
    ///
    /// # Errors
    ///
    /// See [`CompiledPlan::load_inputs`] / [`CompiledPlan::run_local_steps`].
    pub fn execute_local(&self, inputs: &[Literal]) -> Result<Vec<Literal>, RuntimeError> {
        let mut st = self.new_executor();
        self.load_inputs(&mut st, inputs)?;
        self.run_local_steps(&mut st)?;
        self.read_outputs(&st)
    }

    /// Full device execution over an exchange fabric: the threaded
    /// runtime's per-device body.
    pub(crate) fn run_device<E: Exchange>(
        &self,
        ex: &mut E,
        st: &mut PlanExecutor,
        inputs: &[Literal],
    ) -> Result<Vec<Literal>, RuntimeError> {
        self.load_inputs(st, inputs)?;
        let traced = partir_obs::current().is_some();
        run_steps(&self.steps, st, ex, traced)?;
        self.read_outputs(st)
    }
}

/// The [`partir_analysis::static_peak_bound`] walk with the plan's own
/// pool-element byte accounting. Must agree exactly with the bound.
fn replay_bound(func: &Func) -> u64 {
    let bytes_of = |v: ValueId| -> u64 {
        let ty = func.value_type(v);
        ty.shape.num_elements() as u64 * pool_elem_bytes(ty.dtype) as u64
    };
    partir_analysis::PeakWalk::of(func).peak(func, bytes_of, true, |_| false, |_| 0)
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

/// Per-scope bookkeeping: which values this scope allocated (and may
/// therefore free).
#[derive(Default)]
struct ScopeAlloc {
    order: Vec<ValueId>,
    set: HashSet<ValueId>,
}

impl ScopeAlloc {
    fn add(&mut self, v: ValueId) {
        if self.set.insert(v) {
            self.order.push(v);
        }
    }
}

/// Executable steps and their verifier views, built in lockstep: every
/// emission pushes one of each, and the overlap pass permutes both
/// arrays together — so the view is, by construction, a faithful
/// description of the schedule the executor will run.
#[derive(Default)]
struct PlanSteps {
    steps: Vec<Step>,
    views: Vec<StepView>,
}

impl PlanSteps {
    fn push(&mut self, step: Step, view: StepView) {
        self.steps.push(step);
        self.views.push(view);
    }
}

/// The verifier's view of one slot assignment.
fn view_access(v: ValueId, slot: Slot) -> Access {
    Access {
        pool: pool_index(slot.dtype),
        off: slot.off,
        len: slot.len,
        value: v.0,
    }
}

struct Compiler<'f> {
    func: &'f Func,
    mesh: &'f Mesh,
    slots: Vec<Option<Slot>>,
    alloc: [PoolAlloc; 3],
    uses: HashMap<ValueId, Vec<OpId>>,
    /// Values read by op scaffolding rather than operand lists: function
    /// results and every region's yielded values. Always materialized.
    external: HashSet<ValueId>,
    carry_elems: [usize; 3],
    fused_ops: usize,
    /// Next collective message tag (also its pending-table index).
    next_tag: u32,
}

impl<'f> Compiler<'f> {
    fn alloc_value(&mut self, v: ValueId) -> Slot {
        let ty = self.func.value_type(v);
        let len = ty.shape.num_elements();
        let dt = ty.dtype;
        let off = self.alloc[pool_index(dt)].alloc(len);
        let slot = Slot {
            dtype: dt,
            off,
            len,
        };
        self.slots[v.0 as usize] = Some(slot);
        slot
    }

    fn slot_of(&self, v: ValueId) -> Result<Slot, PlanError> {
        self.slots[v.0 as usize]
            .ok_or_else(|| PlanError::Ir(IrError::invalid("plan: value has no slot")))
    }

    fn access_of(&self, v: ValueId) -> Result<Access, PlanError> {
        Ok(view_access(v, self.slot_of(v)?))
    }

    /// Generic verifier view of one op: it reads its operands' ranges
    /// and writes its results'. Call after the result slots exist.
    fn op_view(&self, op_id: OpId) -> Result<StepView, PlanError> {
        let op = self.func.op(op_id);
        Ok(StepView::Compute {
            name: op.kind.name(),
            reads: op
                .operands
                .iter()
                .map(|&o| self.access_of(o))
                .collect::<Result<_, _>>()?,
            writes: op
                .results
                .iter()
                .map(|&r| self.access_of(r))
                .collect::<Result<_, _>>()?,
        })
    }

    fn free_slot(&mut self, slot: Slot) {
        self.alloc[pool_index(slot.dtype)].free(slot.off, slot.len);
    }

    /// Last use position of every value read in this scope. Reads inside
    /// nested regions bubble up to the position of the owning op, so a
    /// value used only inside a loop stays allocated for the whole loop.
    fn scope_last_use(&self, body: &[OpId]) -> HashMap<ValueId, usize> {
        fn collect_reads(func: &Func, op_id: OpId, pos: usize, last: &mut HashMap<ValueId, usize>) {
            let op = func.op(op_id);
            for &v in &op.operands {
                last.insert(v, pos);
            }
            if let Some(region) = &op.region {
                for &v in &region.results {
                    last.insert(v, pos);
                }
                for &inner in &region.body {
                    collect_reads(func, inner, pos, last);
                }
            }
        }
        let mut last = HashMap::new();
        for (pos, &op_id) in body.iter().enumerate() {
            collect_reads(self.func, op_id, pos, &mut last);
        }
        last
    }

    /// Compiles one region body. Values this scope allocates are freed at
    /// their last in-scope use; values pinned by `end_uses` (the scope's
    /// yields) and never-used values are returned so the caller can free
    /// them once the enclosing construct no longer needs them.
    fn compile_body(
        &mut self,
        body: &[OpId],
        end_uses: &[ValueId],
        out: &mut PlanSteps,
    ) -> Result<Vec<ValueId>, PlanError> {
        let last = self.scope_last_use(body);
        let end_pinned: HashSet<ValueId> = end_uses.iter().copied().collect();
        let mut frees_at: Vec<Vec<ValueId>> = vec![Vec::new(); body.len()];
        for (&v, &p) in &last {
            frees_at[p].push(v);
        }
        for list in &mut frees_at {
            list.sort_by_key(|v| v.0);
        }
        let mut scope = ScopeAlloc::default();
        let mut freed: HashSet<ValueId> = HashSet::new();

        let mut pos = 0;
        while pos < body.len() {
            match self.fusable_n(body[pos]) {
                Some(n) => {
                    let mut run_end = pos + 1;
                    while run_end < body.len() && self.fusable_n(body[run_end]) == Some(n) {
                        run_end += 1;
                    }
                    for (s, e) in self.segment_run(body, pos, run_end) {
                        if e - s == 1 {
                            self.emit_op(body[s], out, &mut scope)?;
                        } else {
                            self.emit_fused(&body[s..e], n, out, &mut scope)?;
                        }
                        for frees in &frees_at[s..e] {
                            self.apply_frees(frees, &scope, &end_pinned, &mut freed);
                        }
                    }
                    pos = run_end;
                }
                None => {
                    self.emit_op(body[pos], out, &mut scope)?;
                    self.apply_frees(&frees_at[pos], &scope, &end_pinned, &mut freed);
                    pos += 1;
                }
            }
        }
        Ok(scope
            .order
            .iter()
            .copied()
            .filter(|v| !freed.contains(v))
            .collect())
    }

    fn apply_frees(
        &mut self,
        vals: &[ValueId],
        scope: &ScopeAlloc,
        end_pinned: &HashSet<ValueId>,
        freed: &mut HashSet<ValueId>,
    ) {
        for &v in vals {
            if scope.set.contains(&v) && !end_pinned.contains(&v) && !freed.contains(&v) {
                if let Some(slot) = self.slots[v.0 as usize] {
                    self.free_slot(slot);
                    freed.insert(v);
                }
            }
        }
    }

    /// `Some(element count)` when the op is a same-shape `f32`
    /// elementwise op eligible for fusion.
    fn fusable_n(&self, op_id: OpId) -> Option<usize> {
        let op = self.func.op(op_id);
        if !matches!(op.kind, OpKind::Unary(_) | OpKind::Binary(_)) {
            return None;
        }
        let ty = self.func.value_type(op.results[0]);
        if ty.dtype != DType::F32 {
            return None;
        }
        Some(ty.shape.num_elements())
    }

    /// Splits the elementwise run `[start, end)` into segments whose
    /// register demand fits [`MAX_REGS`].
    fn segment_run(&self, body: &[OpId], start: usize, end: usize) -> Vec<(usize, usize)> {
        let mut segs = Vec::new();
        let mut seg_start = start;
        let mut in_regs: HashSet<ValueId> = HashSet::new();
        let mut regs = 0usize;
        for (pos, &op_id) in body.iter().enumerate().take(end).skip(start) {
            let op = self.func.op(op_id);
            let mut fresh: Vec<ValueId> = Vec::new();
            for &o in &op.operands {
                if !in_regs.contains(&o) && !fresh.contains(&o) {
                    fresh.push(o);
                }
            }
            if regs + fresh.len() + 1 > MAX_REGS && pos > seg_start {
                segs.push((seg_start, pos));
                seg_start = pos;
                in_regs.clear();
                regs = 0;
                fresh.clear();
                for &o in &op.operands {
                    if !fresh.contains(&o) {
                        fresh.push(o);
                    }
                }
            }
            regs += fresh.len() + 1;
            in_regs.extend(fresh);
            in_regs.insert(op.results[0]);
        }
        segs.push((seg_start, end));
        segs
    }

    /// Whether a fused result must be written back to the arena: it is
    /// read by some op outside the segment, yielded by a region, or a
    /// function result. Purely-internal temporaries live in registers.
    fn needs_store(&self, v: ValueId, seg_ops: &HashSet<OpId>) -> bool {
        if self.external.contains(&v) {
            return true;
        }
        self.uses
            .get(&v)
            .is_some_and(|us| us.iter().any(|u| !seg_ops.contains(u)))
    }

    fn emit_fused(
        &mut self,
        seg: &[OpId],
        n: usize,
        out: &mut PlanSteps,
        scope: &mut ScopeAlloc,
    ) -> Result<(), PlanError> {
        let seg_ops: HashSet<OpId> = seg.iter().copied().collect();
        let mut regmap: HashMap<ValueId, u8> = HashMap::new();
        let mut next: u8 = 0;
        let mut loads: Vec<(u8, Slot)> = Vec::new();
        let mut reads: Vec<Access> = Vec::new();
        let mut instrs: Vec<EltInstr> = Vec::new();
        for &op_id in seg {
            let op = self.func.op(op_id);
            let instr = match &op.kind {
                OpKind::Unary(u) => {
                    let a = self.fused_reg(
                        op.operands[0],
                        &mut regmap,
                        &mut next,
                        &mut loads,
                        &mut reads,
                    )?;
                    EltInstr {
                        op: EltOp::Un(*u),
                        a,
                        b: 0,
                        dst: 0,
                    }
                }
                OpKind::Binary(bo) => {
                    let a = self.fused_reg(
                        op.operands[0],
                        &mut regmap,
                        &mut next,
                        &mut loads,
                        &mut reads,
                    )?;
                    let b = self.fused_reg(
                        op.operands[1],
                        &mut regmap,
                        &mut next,
                        &mut loads,
                        &mut reads,
                    )?;
                    EltInstr {
                        op: EltOp::Bin(*bo),
                        a,
                        b,
                        dst: 0,
                    }
                }
                _ => {
                    return Err(PlanError::Ir(IrError::invalid(
                        "non-elementwise op in fused segment",
                    )))
                }
            };
            let dst = next;
            next += 1;
            regmap.insert(op.results[0], dst);
            instrs.push(EltInstr { dst, ..instr });
        }
        debug_assert!(
            (next as usize) <= MAX_REGS,
            "fused segment overflows registers"
        );
        let mut stores: Vec<(u8, Slot)> = Vec::new();
        let mut writes: Vec<Access> = Vec::new();
        for &op_id in seg {
            let v = self.func.op(op_id).results[0];
            if self.needs_store(v, &seg_ops) {
                let slot = self.alloc_value(v);
                scope.add(v);
                stores.push((regmap[&v], slot));
                writes.push(view_access(v, slot));
            }
        }
        self.fused_ops += seg.len();
        out.push(
            Step::Eltwise(EltwiseStep {
                n,
                loads,
                instrs,
                stores,
            }),
            StepView::Compute {
                name: "fused_eltwise",
                reads,
                writes,
            },
        );
        Ok(())
    }

    fn fused_reg(
        &self,
        v: ValueId,
        regmap: &mut HashMap<ValueId, u8>,
        next: &mut u8,
        loads: &mut Vec<(u8, Slot)>,
        reads: &mut Vec<Access>,
    ) -> Result<u8, PlanError> {
        if let Some(&r) = regmap.get(&v) {
            return Ok(r);
        }
        let r = *next;
        *next += 1;
        let slot = self.slot_of(v)?;
        loads.push((r, slot));
        reads.push(view_access(v, slot));
        regmap.insert(v, r);
        Ok(r)
    }

    fn emit_op(
        &mut self,
        op_id: OpId,
        out: &mut PlanSteps,
        scope: &mut ScopeAlloc,
    ) -> Result<(), PlanError> {
        let op = self.func.op(op_id);
        let name = op.kind.name();
        match &op.kind {
            OpKind::Constant(_) | OpKind::Iota { .. } => {
                // An iota is folded at compile time: the plan bakes what
                // its kernel writes.
                let lits = eval_op(&op.kind, &[])?;
                let dst = self.alloc_value(op.results[0]);
                scope.add(op.results[0]);
                let view = self.op_view(op_id)?;
                out.push(
                    Step::Baked(BakedStep {
                        data: baked_data(&lits[0])?,
                        dst,
                        name,
                    }),
                    view,
                );
            }
            OpKind::For { trip_count } => self.emit_for(op_id, *trip_count, out, scope)?,
            OpKind::Collective(c) => {
                let scheds: Arc<Vec<CollSched>> = Arc::new(
                    (0..self.mesh.num_devices())
                        .map(|d| schedule_collective(c, self.mesh, d))
                        .collect::<Result<_, _>>()?,
                );
                let src = self.slot_of(op.operands[0])?;
                let src_ty = self.func.value_type(op.operands[0]).clone();
                let dst = self.alloc_value(op.results[0]);
                scope.add(op.results[0]);
                let tag = self.next_tag;
                self.next_tag += 1;
                // The verifier sees the same per-device stage tables the
                // runtime will rendezvous on.
                let stage_views: Arc<Vec<Vec<StageView>>> = Arc::new(
                    scheds
                        .iter()
                        .map(|s| {
                            s.stages
                                .iter()
                                .map(|st| StageView {
                                    axis: st.axis.clone(),
                                    dim: st.dim,
                                    group: st.group.clone(),
                                })
                                .collect()
                        })
                        .collect(),
                );
                // Emitted adjacent (the blocking layout); the overlap
                // pass hoists the start and sinks the wait afterwards.
                out.push(
                    Step::CollStart(Box::new(CollStartStep {
                        kind: c.clone(),
                        scheds: scheds.clone(),
                        tag,
                        src,
                        src_ty,
                        span: format!("coll.start.{tag}"),
                    })),
                    StepView::CollStart {
                        tag,
                        src: view_access(op.operands[0], src),
                    },
                );
                out.push(
                    Step::CollWait(Box::new(CollWaitStep {
                        kind: c.clone(),
                        scheds,
                        tag,
                        dst,
                        span: format!("coll.wait.{tag}"),
                    })),
                    StepView::CollWait {
                        tag,
                        dst: view_access(op.results[0], dst),
                        stages: stage_views,
                    },
                );
            }
            // Every other op is the slice kernel `ir::kernels` defines for
            // it; an op or operand dtype it has no semantics for is
            // refused here, with the interpreter's error.
            kind => {
                let tys: Vec<TensorType> = op
                    .operands
                    .iter()
                    .map(|&o| self.func.value_type(o).clone())
                    .collect();
                let (kernel, _) = SliceKernel::plan(kind, &tys)?;
                let srcs = op
                    .operands
                    .iter()
                    .map(|&o| self.slot_of(o))
                    .collect::<Result<_, _>>()?;
                let dst = self.alloc_value(op.results[0]);
                scope.add(op.results[0]);
                let view = self.op_view(op_id)?;
                out.push(
                    Step::Kernel(Box::new(KernelStep {
                        kernel,
                        srcs,
                        dst,
                        name,
                    })),
                    view,
                );
            }
        }
        Ok(())
    }

    fn emit_for(
        &mut self,
        op_id: OpId,
        trip_count: usize,
        out: &mut PlanSteps,
        scope: &mut ScopeAlloc,
    ) -> Result<(), PlanError> {
        let op = self.func.op(op_id);
        let region = op
            .region
            .as_ref()
            .ok_or_else(|| PlanError::Ir(IrError::invalid("for without region")))?
            .clone();
        let (operands, results) = (op.operands.clone(), op.results.clone());
        // Loop-scope storage: the induction slot and carried params live
        // for the whole loop regardless of textual last use, so carried
        // state is never clobbered across iterations.
        let index = self.alloc_value(region.params[0]);
        let index_view = view_access(region.params[0], index);
        let mut entry = Vec::new();
        let mut entry_view = Vec::new();
        for (j, &p) in region.params[1..].iter().enumerate() {
            let pslot = self.alloc_value(p);
            entry.push((self.slot_of(operands[j])?, pslot));
            entry_view.push((self.access_of(operands[j])?, view_access(p, pslot)));
        }
        let mut body = PlanSteps::default();
        let leftover = self.compile_body(&region.body, &region.results, &mut body)?;
        // Op results are allocated while every region value is still
        // live, so exit copies can never alias their sources.
        let mut exit = Vec::new();
        let mut exit_view = Vec::new();
        let mut bypass = Vec::new();
        let mut bypass_view = Vec::new();
        for (j, &r) in results.iter().enumerate() {
            let rslot = self.alloc_value(r);
            scope.add(r);
            let rview = view_access(r, rslot);
            exit.push((self.slot_of(region.results[j])?, rslot));
            exit_view.push((self.access_of(region.results[j])?, rview));
            bypass.push((self.slot_of(operands[j])?, rslot));
            bypass_view.push((self.access_of(operands[j])?, rview));
        }
        let mut carry = Vec::new();
        let mut carry_view = Vec::new();
        for (j, &p) in region.params[1..].iter().enumerate() {
            let src = self.slot_of(region.results[j])?;
            let dst = self.slot_of(p)?;
            // The view keeps identity pairs the executor drops: they
            // relabel the region result back to the param value, which
            // the verifier's token flow depends on.
            carry_view.push((self.access_of(region.results[j])?, view_access(p, dst)));
            if src != dst {
                carry.push((src, dst));
            }
        }
        let carry_staged = carry
            .iter()
            .any(|&(s, _)| carry.iter().any(|&(_, d)| s == d));
        if carry_staged {
            let mut elems = [0usize; 3];
            for &(s, _) in &carry {
                elems[pool_index(s.dtype)] += s.len;
            }
            for (have, need) in self.carry_elems.iter_mut().zip(elems) {
                *have = (*have).max(need);
            }
        }
        // The loop is assembled: its private storage can be recycled.
        for v in leftover {
            if let Some(slot) = self.slots[v.0 as usize] {
                self.free_slot(slot);
            }
        }
        for &p in &region.params {
            if let Some(slot) = self.slots[p.0 as usize] {
                self.free_slot(slot);
            }
        }
        let PlanSteps {
            steps: body_steps,
            views: body_views,
        } = body;
        out.push(
            Step::For(Box::new(ForStep {
                trip_count,
                index,
                entry,
                body: body_steps,
                carry,
                carry_staged,
                exit,
                bypass,
            })),
            StepView::For(Box::new(ForView {
                trip_count,
                index: index_view,
                entry: entry_view,
                body: body_views,
                carry: carry_view,
                exit: exit_view,
                bypass: bypass_view,
            })),
        );
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Overlap scheduling
// ---------------------------------------------------------------------------

/// Whether two slots can observe each other: same arena pool and
/// overlapping element ranges. Slots of different pools (dtypes) never
/// alias; empty slots touch nothing.
fn slots_conflict(a: Slot, b: Slot) -> bool {
    a.len > 0
        && b.len > 0
        && pool_index(a.dtype) == pool_index(b.dtype)
        && a.off < b.off + b.len
        && b.off < a.off + a.len
}

fn any_conflict(xs: &[Slot], ys: &[Slot]) -> bool {
    xs.iter().any(|&x| ys.iter().any(|&y| slots_conflict(x, y)))
}

/// Arena ranges a step reads and writes, conservatively: `For` steps
/// account for their whole body plus entry/carry/exit/bypass copies, so
/// nothing ever moves across a dependency hidden in a nested region.
/// Collective starts read only their operand (the in-flight snapshot is
/// executor-private); waits write only their result.
fn step_effects(step: &Step, reads: &mut Vec<Slot>, writes: &mut Vec<Slot>) {
    match step {
        Step::Baked(b) => writes.push(b.dst),
        Step::Eltwise(e) => {
            for &(_, s) in &e.loads {
                reads.push(s);
            }
            for &(_, s) in &e.stores {
                writes.push(s);
            }
        }
        Step::For(f) => {
            writes.push(f.index);
            for &(s, d) in f
                .entry
                .iter()
                .chain(&f.carry)
                .chain(&f.exit)
                .chain(&f.bypass)
            {
                reads.push(s);
                writes.push(d);
            }
            for inner in &f.body {
                step_effects(inner, reads, writes);
            }
        }
        Step::CollStart(c) => reads.push(c.src),
        Step::CollWait(c) => writes.push(c.dst),
        Step::Kernel(k) => {
            reads.extend_from_slice(&k.srcs);
            writes.push(k.dst);
        }
    }
}

/// Reusable effect buffers for the quadratic commute queries of the
/// overlap pass: one allocation set per pass instead of four fresh
/// `Vec<Slot>`s per pair-wise query.
#[derive(Default)]
struct EffectScratch {
    ar: Vec<Slot>,
    aw: Vec<Slot>,
    br: Vec<Slot>,
    bw: Vec<Slot>,
}

/// Whether `a` and `b` may swap positions without changing any device's
/// observable arena state: no write of either overlaps a read or write
/// of the other. Message *content* is swap-invariant separately — sends
/// never block and receives match by `(src, tag)`, so reordering starts
/// and waits of different collectives reorders traffic in time only.
fn steps_commute(a: &Step, b: &Step, s: &mut EffectScratch) -> bool {
    s.ar.clear();
    s.aw.clear();
    s.br.clear();
    s.bw.clear();
    step_effects(a, &mut s.ar, &mut s.aw);
    step_effects(b, &mut s.br, &mut s.bw);
    !any_conflict(&s.aw, &s.br) && !any_conflict(&s.bw, &s.ar) && !any_conflict(&s.aw, &s.bw)
}

/// Dependency-driven overlap scheduling over one step list (recursing
/// into loop bodies): every [`Step::CollStart`] bubbles up toward the
/// step that produces its operand, every [`Step::CollWait`] bubbles down
/// toward its first consumer. Slot liveness makes this safe: a
/// collective's operand slot is owned by its value from producer to
/// (at least) the original collective position, and its result slot
/// from that position to its last use — any reuse of either range by
/// another value appears as a conflicting write and stops the bubble.
///
/// Deadlock-freedom is preserved because every device runs the *same*
/// reordered step list, sends never block, and each wait's messages are
/// issued by a start strictly earlier in that shared order — so the
/// earliest blocked wait always has its inputs in flight.
///
/// The verifier's [`StepView`] list is permuted in lockstep so the
/// static model keeps describing exactly the schedule that executes.
fn overlap_pass(steps: &mut [Step], views: &mut [StepView]) {
    debug_assert_eq!(steps.len(), views.len());
    let mut scratch = EffectScratch::default();
    for (step, view) in steps.iter_mut().zip(views.iter_mut()) {
        if let (Step::For(f), StepView::For(v)) = (step, view) {
            overlap_pass(&mut f.body, &mut v.body);
        }
    }
    // Hoist starts: earliest position keeps payloads in flight longest.
    for i in 1..steps.len() {
        if !matches!(steps[i], Step::CollStart(_)) {
            continue;
        }
        let mut j = i;
        while j > 0 && steps_commute(&steps[j - 1], &steps[j], &mut scratch) {
            steps.swap(j - 1, j);
            views.swap(j - 1, j);
            j -= 1;
        }
    }
    // Sink waits: park as late as the first consumer allows.
    for i in (0..steps.len()).rev() {
        if !matches!(steps[i], Step::CollWait(_)) {
            continue;
        }
        let mut j = i;
        while j + 1 < steps.len() && steps_commute(&steps[j], &steps[j + 1], &mut scratch) {
            steps.swap(j, j + 1);
            views.swap(j, j + 1);
            j += 1;
        }
    }
}

/// Collects every collective's start→wait window (steps strictly
/// between the pair within their body).
fn collect_windows(steps: &[Step], windows: &mut Vec<CollWindow>) {
    let mut starts: HashMap<u32, usize> = HashMap::new();
    for (pos, step) in steps.iter().enumerate() {
        match step {
            Step::CollStart(c) => {
                starts.insert(c.tag, pos);
            }
            Step::CollWait(c) => {
                let start = starts[&c.tag];
                windows.push(CollWindow {
                    tag: c.tag,
                    gap_steps: pos - start - 1,
                });
            }
            Step::For(f) => collect_windows(&f.body, windows),
            _ => {}
        }
    }
}

/// Steps one run executes, with loop bodies multiplied by trip counts.
fn dynamic_steps(steps: &[Step]) -> u64 {
    steps
        .iter()
        .map(|s| match s {
            Step::For(f) => 1 + f.trip_count as u64 * (dynamic_steps(&f.body) + 1),
            _ => 1,
        })
        .sum()
}

fn baked_data(lit: &Literal) -> Result<BakedData, PlanError> {
    Ok(match lit.dtype() {
        DType::F32 => BakedData::F32(lit.as_f32().map_err(PlanError::Ir)?.to_vec()),
        DType::I32 => BakedData::I32(lit.as_i32().map_err(PlanError::Ir)?.to_vec()),
        DType::Pred => BakedData::Pred(lit.as_pred().map_err(PlanError::Ir)?.to_vec()),
        dt => {
            return Err(PlanError::Ir(IrError::invalid(format!(
                "plan: unsupported constant dtype {dt}"
            ))))
        }
    })
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// Mutable per-device execution state: the typed arena pools, the
/// carry-staging scratch, and the in-flight collective table. Allocated
/// once per device; every run reuses it — the threaded runtime checks
/// the plan's resident executors out and parks them again after the
/// join.
pub struct PlanExecutor {
    f32s: Vec<f32>,
    i32s: Vec<i32>,
    preds: Vec<bool>,
    carry_f32s: Vec<f32>,
    carry_i32s: Vec<i32>,
    carry_preds: Vec<bool>,
    /// In-flight collectives between their start and wait steps, indexed
    /// by tag. A slot is `Some` exactly while its collective's payloads
    /// are in flight; the wait takes it.
    pending: Vec<Option<CollPending>>,
}

impl PlanExecutor {
    /// Allocates the arena for `plan`.
    pub fn new(plan: &CompiledPlan) -> Self {
        PlanExecutor {
            f32s: vec![0.0; plan.pool_len[0]],
            i32s: vec![0; plan.pool_len[1]],
            preds: vec![false; plan.pool_len[2]],
            carry_f32s: vec![0.0; plan.carry_elems[0]],
            carry_i32s: vec![0; plan.carry_elems[1]],
            carry_preds: vec![false; plan.carry_elems[2]],
            pending: (0..plan.num_colls).map(|_| None).collect(),
        }
    }
}

/// Executor for plans that never exchange: local single-device runs.
struct NoExchange {
    device: usize,
}

impl Exchange for NoExchange {
    fn device(&self) -> usize {
        self.device
    }

    fn send(
        &mut self,
        _dst: usize,
        _axis: &partir_mesh::Axis,
        _tag: u32,
        _payload: Literal,
    ) -> Result<(), RuntimeError> {
        Err(RuntimeError::Ir(IrError::invalid(
            "local plan execution cannot communicate",
        )))
    }

    fn recv(
        &mut self,
        _src: usize,
        _axis: &partir_mesh::Axis,
        _tag: u32,
    ) -> Result<Literal, RuntimeError> {
        Err(RuntimeError::Ir(IrError::invalid(
            "local plan execution cannot communicate",
        )))
    }
}

/// Resolves a read slot against the two halves around a carved-out
/// write range.
fn read_part<'a, T>(left: &'a [T], right: &'a [T], w_off: usize, w_end: usize, s: Slot) -> &'a [T] {
    if s.off + s.len <= w_off {
        &left[s.off..s.off + s.len]
    } else {
        assert!(s.off >= w_end, "plan: aliasing read/write slots");
        &right[s.off - w_end..s.off - w_end + s.len]
    }
}

/// One arena pool as a [`KernelStep`] reads it: split around the
/// destination range when the pool holds it, whole otherwise.
struct PoolView<'a, T> {
    left: &'a [T],
    right: &'a [T],
    /// `[start, end)` of the range carved out for writing (empty, at the
    /// pool's end, when the destination lives in another pool).
    hole: (usize, usize),
}

impl<'a, T> PoolView<'a, T> {
    /// Opens `pool` for a step writing `dst`: the read view, and the
    /// write range when `pool` is `dst`'s (`dtype`) pool.
    fn open(pool: &'a mut [T], dtype: DType, dst: Slot) -> (Self, Option<&'a mut [T]>) {
        if dst.dtype != dtype {
            let hole = (pool.len(), pool.len());
            let view = PoolView {
                left: pool,
                right: &[],
                hole,
            };
            return (view, None);
        }
        let (left, rest) = pool.split_at_mut(dst.off);
        let (write, right) = rest.split_at_mut(dst.len);
        let view = PoolView {
            left,
            right,
            hole: (dst.off, dst.off + dst.len),
        };
        (view, Some(write))
    }

    /// The slot's elements; panics if it overlaps the write range.
    fn read(&self, s: Slot) -> &'a [T] {
        read_part(self.left, self.right, self.hole.0, self.hole.1, s)
    }
}

/// Runs a [`KernelStep`] on its arena ranges: the destination mutably,
/// the sources immutably (they may alias each other, never the
/// destination).
fn run_kernel(st: &mut PlanExecutor, k: &KernelStep) -> Result<(), IrError> {
    let (f32s, f32_w) = PoolView::open(&mut st.f32s, DType::F32, k.dst);
    let (i32s, i32_w) = PoolView::open(&mut st.i32s, DType::I32, k.dst);
    let (preds, pred_w) = PoolView::open(&mut st.preds, DType::Pred, k.dst);
    let read = |s: &Slot| match s.dtype {
        DType::F32 => Buf::F32(f32s.read(*s)),
        DType::I32 => Buf::I32(i32s.read(*s)),
        DType::Pred => Buf::Pred(preds.read(*s)),
        dt => unreachable!("plan: unsupported dtype {dt}"),
    };
    let dst = match (f32_w, i32_w, pred_w) {
        (Some(w), _, _) => BufMut::F32(w),
        (_, Some(w), _) => BufMut::I32(w),
        (_, _, Some(w)) => BufMut::Pred(w),
        _ => unreachable!("plan: unsupported dtype {}", k.dst.dtype),
    };
    k.kernel.run(k.srcs.iter().map(read), dst)
}

/// Elements per register block of the fused-elementwise machine. The
/// full register file is `MAX_REGS × ELT_BLOCK × 4 B = 8 KiB` of stack —
/// comfortably inside L1.
const ELT_BLOCK: usize = 128;

/// Executes one fused elementwise segment as a blocked vector machine:
/// [`ELT_BLOCK`] elements at a time through the register file, each
/// instruction a whole-block call of the lane functions the unfused
/// kernels run ([`apply_un`]/[`apply_bin`]) rather than a per-element
/// dispatch. Elements are independent, so blocking
/// is bit-identical to scalar order — while keeping every intermediate
/// of the chain in L1 instead of round-tripping arrays through memory.
fn run_eltwise(pool: &mut [f32], e: &EltwiseStep) {
    let mut regs = [[0f32; ELT_BLOCK]; MAX_REGS];
    let mut i = 0;
    while i < e.n {
        let len = ELT_BLOCK.min(e.n - i);
        for &(r, s) in &e.loads {
            regs[r as usize][..len].copy_from_slice(&pool[s.off + i..s.off + i + len]);
        }
        for ins in &e.instrs {
            match ins.op {
                // The register file is a plain array, so the operand
                // block is copied out (256 B, L1-resident) to let the
                // destination borrow mutably.
                EltOp::Un(u) => {
                    let a = regs[ins.a as usize];
                    apply_un(u, &a[..len], &mut regs[ins.dst as usize][..len]);
                }
                EltOp::Bin(bo) => {
                    let a = regs[ins.a as usize];
                    let b = regs[ins.b as usize];
                    apply_bin(bo, &a[..len], &b[..len], &mut regs[ins.dst as usize][..len]);
                }
            }
        }
        for &(r, s) in &e.stores {
            pool[s.off + i..s.off + i + len].copy_from_slice(&regs[r as usize][..len]);
        }
        i += len;
    }
}

fn read_slot(st: &PlanExecutor, slot: &Slot, ty: &TensorType) -> Result<Literal, RuntimeError> {
    let lit = match slot.dtype {
        DType::F32 => Literal::from_f32(
            st.f32s[slot.off..slot.off + slot.len].to_vec(),
            ty.shape.clone(),
        ),
        DType::I32 => Literal::from_i32(
            st.i32s[slot.off..slot.off + slot.len].to_vec(),
            ty.shape.clone(),
        ),
        DType::Pred => Literal::from_pred(
            st.preds[slot.off..slot.off + slot.len].to_vec(),
            ty.shape.clone(),
        ),
        dt => unreachable!("plan: unsupported dtype {dt}"),
    };
    lit.map_err(RuntimeError::Ir)
}

fn write_slot(st: &mut PlanExecutor, slot: &Slot, lit: &Literal) -> Result<(), RuntimeError> {
    if lit.num_elements() != slot.len {
        return Err(RuntimeError::Ir(IrError::invalid(format!(
            "plan: payload has {} elements, slot holds {}",
            lit.num_elements(),
            slot.len
        ))));
    }
    match slot.dtype {
        DType::F32 => st.f32s[slot.off..slot.off + slot.len]
            .copy_from_slice(lit.as_f32().map_err(RuntimeError::Ir)?),
        DType::I32 => st.i32s[slot.off..slot.off + slot.len]
            .copy_from_slice(lit.as_i32().map_err(RuntimeError::Ir)?),
        DType::Pred => st.preds[slot.off..slot.off + slot.len]
            .copy_from_slice(lit.as_pred().map_err(RuntimeError::Ir)?),
        dt => unreachable!("plan: unsupported dtype {dt}"),
    }
    Ok(())
}

fn copy_slot(st: &mut PlanExecutor, src: Slot, dst: Slot) {
    let from = src.off..src.off + src.len;
    match dst.dtype {
        DType::F32 => st.f32s.copy_within(from, dst.off),
        DType::I32 => st.i32s.copy_within(from, dst.off),
        DType::Pred => st.preds.copy_within(from, dst.off),
        dt => unreachable!("plan: unsupported dtype {dt}"),
    }
}

fn copy_pairs(st: &mut PlanExecutor, pairs: &[(Slot, Slot)]) {
    for &(src, dst) in pairs {
        copy_slot(st, src, dst);
    }
}

/// Order-independent carry: stage every source into the scratch, then
/// write every destination.
fn staged_carry(st: &mut PlanExecutor, pairs: &[(Slot, Slot)]) {
    let mut offs = [0usize; 3];
    for &(s, _) in pairs {
        let i = pool_index(s.dtype);
        match s.dtype {
            DType::F32 => st.carry_f32s[offs[i]..offs[i] + s.len]
                .copy_from_slice(&st.f32s[s.off..s.off + s.len]),
            DType::I32 => st.carry_i32s[offs[i]..offs[i] + s.len]
                .copy_from_slice(&st.i32s[s.off..s.off + s.len]),
            DType::Pred => st.carry_preds[offs[i]..offs[i] + s.len]
                .copy_from_slice(&st.preds[s.off..s.off + s.len]),
            dt => unreachable!("plan: unsupported dtype {dt}"),
        }
        offs[i] += s.len;
    }
    let mut offs = [0usize; 3];
    for &(s, d) in pairs {
        let i = pool_index(s.dtype);
        match d.dtype {
            DType::F32 => st.f32s[d.off..d.off + d.len]
                .copy_from_slice(&st.carry_f32s[offs[i]..offs[i] + d.len]),
            DType::I32 => st.i32s[d.off..d.off + d.len]
                .copy_from_slice(&st.carry_i32s[offs[i]..offs[i] + d.len]),
            DType::Pred => st.preds[d.off..d.off + d.len]
                .copy_from_slice(&st.carry_preds[offs[i]..offs[i] + d.len]),
            dt => unreachable!("plan: unsupported dtype {dt}"),
        }
        offs[i] += s.len;
    }
}

fn run_steps<E: Exchange>(
    steps: &[Step],
    st: &mut PlanExecutor,
    ex: &mut E,
    traced: bool,
) -> Result<(), RuntimeError> {
    for step in steps {
        let _span = if traced {
            // Collective phases get tag-qualified span names so one
            // device track pairs `coll.start.<tag>` with its
            // `coll.wait.<tag>` when measuring overlap.
            Some(match step {
                Step::CollStart(c) => partir_obs::span_enter(c.span.clone()),
                Step::CollWait(c) => partir_obs::span_enter(c.span.clone()),
                _ => partir_obs::span_enter(step.name()),
            })
        } else {
            None
        };
        match step {
            Step::Baked(b) => match &b.data {
                BakedData::F32(data) => {
                    st.f32s[b.dst.off..b.dst.off + b.dst.len].copy_from_slice(data)
                }
                BakedData::I32(data) => {
                    st.i32s[b.dst.off..b.dst.off + b.dst.len].copy_from_slice(data)
                }
                BakedData::Pred(data) => {
                    st.preds[b.dst.off..b.dst.off + b.dst.len].copy_from_slice(data)
                }
            },
            Step::Eltwise(e) => run_eltwise(&mut st.f32s, e),
            Step::For(f) => {
                if f.trip_count == 0 {
                    copy_pairs(st, &f.bypass);
                } else {
                    copy_pairs(st, &f.entry);
                    for i in 0..f.trip_count {
                        st.i32s[f.index.off] = i as i32;
                        run_steps(&f.body, st, ex, traced)?;
                        if i + 1 < f.trip_count {
                            if f.carry_staged {
                                staged_carry(st, &f.carry);
                            } else {
                                copy_pairs(st, &f.carry);
                            }
                        }
                    }
                    copy_pairs(st, &f.exit);
                }
            }
            Step::CollStart(cs) => {
                // Snapshot the operand (read_slot copies out of the
                // arena) and put the first stage's sends in flight; the
                // arena range is free to be recycled immediately.
                let val = read_slot(st, &cs.src, &cs.src_ty)?;
                let pending = start_scheduled(&cs.kind, ex, &cs.scheds[ex.device()], cs.tag, val)?;
                st.pending[cs.tag as usize] = Some(pending);
            }
            Step::CollWait(cw) => {
                let pending = st.pending[cw.tag as usize].take().ok_or_else(|| {
                    RuntimeError::Ir(IrError::invalid("collective wait without start"))
                })?;
                let out = wait_scheduled(&cw.kind, ex, &cw.scheds[ex.device()], cw.tag, pending)?;
                write_slot(st, &cw.dst, &out)?;
            }
            Step::Kernel(k) => run_kernel(st, k).map_err(RuntimeError::Ir)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::FuncBuilder;

    fn single_mesh() -> Mesh {
        Mesh::single("B", 1).unwrap()
    }

    #[test]
    fn fused_chain_matches_interpreter() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([8]));
        let y = b.neg(x).unwrap();
        let z = b.exp(y).unwrap();
        let w = b.add(z, x).unwrap();
        let f = b.build([w]).unwrap();
        let mesh = single_mesh();
        let plan = CompiledPlan::compile(&f, &mesh, &PlanOptions::default()).unwrap();
        // neg+exp+add fuse into one loop; only the final result is stored.
        assert_eq!(plan.fused_ops(), 3);
        let input = Literal::from_f32(
            (0..8).map(|i| i as f32 * 0.25 - 1.0).collect::<Vec<_>>(),
            [8],
        )
        .unwrap();
        let got = plan.execute_local(std::slice::from_ref(&input)).unwrap();
        let want = crate::interp::run_devices(&f, &mesh, &[vec![input]]).unwrap();
        assert_eq!(got[0].as_f32().unwrap(), want[0][0].as_f32().unwrap());
    }

    /// Kernel steps across pools, and with operands sharing the
    /// destination's pool, match op-by-op interpretation exactly.
    #[test]
    fn kernel_steps_match_interpreter_without_fallback() {
        use partir_ir::CompareDir;
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([4, 6]));
        let ids = b.param("ids", TensorType::i32([5]));
        let zero = b.const_f32(0.0).unwrap();
        let padded = b.pad(x, zero, vec![1, -1], vec![0, 2]).unwrap(); // [5, 7]
        let rows = b.gather(padded, ids, 0).unwrap(); // [5, 7]
        let back = b.scatter_add(rows, ids, 0, 4).unwrap(); // [4, 7]
        let best = b.argmax(back, 1).unwrap(); // i32 [4]
        let bestf = b.convert(best, DType::F32).unwrap();
        let row0 = b.slice(x, vec![0, 0], vec![1, 4]).unwrap();
        let row0 = b.reshape(row0, [4]).unwrap();
        let gt = b.compare(CompareDir::Gt, bestf, row0).unwrap(); // pred [4]
        let picked = b.select(gt, bestf, row0).unwrap();
        let flags = b.convert(gt, DType::I32).unwrap();
        let same = b.compare(CompareDir::Eq, gt, gt).unwrap(); // pred → pred
        let f = b.build([picked, flags, same, back]).unwrap();
        let mesh = single_mesh();
        let plan = CompiledPlan::compile(&f, &mesh, &PlanOptions::default()).unwrap();
        let inputs = vec![
            Literal::from_f32((0..24).map(|i| (i * 7 % 11) as f32 - 3.0).collect(), [4, 6])
                .unwrap(),
            Literal::from_i32(vec![3, -2, 0, 9, 3], [5]).unwrap(),
        ];
        // Two runs over one arena: kernels must not depend on what the
        // previous run left in their destination ranges.
        let mut st = plan.new_executor();
        for _ in 0..2 {
            plan.load_inputs(&mut st, &inputs).unwrap();
            plan.run_local_steps(&mut st).unwrap();
            let got = plan.read_outputs(&st).unwrap();
            let want = partir_ir::interp::interpret(&f, &inputs).unwrap();
            assert_eq!(got, want);
        }
    }

    /// Runtime-offset slices inside a loop, a kernel step wider than the
    /// stack operand array, and `i32` lanes: all kernel steps, all equal
    /// to the interpreter.
    #[test]
    fn dynamic_slices_and_wide_concat_match_interpreter() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([6]));
        let i0 = b.const_i32(0).unwrap();
        let head = b.dynamic_slice(x, &[i0], vec![2]).unwrap();
        let out = b
            .for_loop(3, &[x, i0], |inner, i, c| {
                let at = inner.add(i, c[1])?;
                Ok(vec![inner.dynamic_update_slice(c[0], head, &[at])?, at])
            })
            .unwrap();
        let wide = b.concatenate(&[out[0]; 9], 0).unwrap();
        let f = b.build([wide, out[1]]).unwrap();
        let plan = CompiledPlan::compile(&f, &single_mesh(), &PlanOptions::default()).unwrap();
        let input = Literal::from_f32((0..6).map(|i| i as f32).collect::<Vec<_>>(), [6]).unwrap();
        let got = plan.execute_local(std::slice::from_ref(&input)).unwrap();
        let want = partir_ir::interp::interpret(&f, &[input]).unwrap();
        assert_eq!(got, want);
    }

    /// What `SliceKernel::plan` has no semantics for is refused when the
    /// plan is compiled, with the error the interpreter raises when it
    /// reaches the op.
    #[test]
    fn integer_pow_is_refused_at_compile_with_the_interpreters_error() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::i32([2]));
        let y = b.binary(BinaryOp::Pow, x, x).unwrap();
        let f = b.build([y]).unwrap();
        let input = Literal::from_i32(vec![2, 3], [2]).unwrap();
        let interp = partir_ir::interp::interpret(&f, &[input]).unwrap_err();
        assert!(matches!(interp, IrError::Unsupported(_)), "{interp}");
        match CompiledPlan::compile(&f, &single_mesh(), &PlanOptions::default()) {
            Err(PlanError::Ir(e)) => assert_eq!(e.to_string(), interp.to_string()),
            other => panic!("expected PlanError::Ir, got {other:?}"),
        }
    }

    #[test]
    fn arena_reuses_dead_slots() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([1024]));
        // A chain of non-fusable copies: each dead intermediate's slot
        // is recycled, so the arena stays ~3 buffers, not 9.
        let mut cur = x;
        for _ in 0..8 {
            cur = b.reshape(cur, [2, 512]).unwrap();
            cur = b.reshape(cur, [1024]).unwrap();
        }
        let f = b.build([cur]).unwrap();
        let plan = CompiledPlan::compile(&f, &single_mesh(), &PlanOptions::default()).unwrap();
        assert!(
            plan.arena_bytes() <= 3 * 1024 * 4,
            "arena {} did not recycle dead slots",
            plan.arena_bytes()
        );
    }

    #[test]
    fn shrunk_arena_budget_fails_structured() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([64]));
        let y = b.neg(x).unwrap();
        let f = b.build([y]).unwrap();
        let mesh = single_mesh();
        let full = CompiledPlan::compile(&f, &mesh, &PlanOptions::default()).unwrap();
        let needed = full.arena_bytes();
        let err = CompiledPlan::compile(
            &f,
            &mesh,
            &PlanOptions {
                arena_budget: Some(needed - 1),
                ..PlanOptions::default()
            },
        )
        .unwrap_err();
        match err {
            PlanError::ArenaOverflow { needed: n, budget } => {
                assert_eq!(n, needed);
                assert_eq!(budget, needed - 1);
            }
            other => panic!("expected ArenaOverflow, got {other:?}"),
        }
    }

    #[test]
    fn loop_carries_survive_iterations() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([16]));
        let results = b
            .for_loop(5, &[x], |inner, _i, carried| {
                let t = inner.neg(carried[0])?;
                Ok(vec![t])
            })
            .unwrap();
        let f = b.build([results[0]]).unwrap();
        let mesh = single_mesh();
        let plan = CompiledPlan::compile(&f, &mesh, &PlanOptions::default()).unwrap();
        let input = Literal::from_f32((0..16).map(|i| i as f32).collect::<Vec<_>>(), [16]).unwrap();
        let got = plan.execute_local(std::slice::from_ref(&input)).unwrap();
        let want = crate::interp::run_devices(&f, &mesh, &[vec![input]]).unwrap();
        assert_eq!(got[0].as_f32().unwrap(), want[0][0].as_f32().unwrap());
    }
}
