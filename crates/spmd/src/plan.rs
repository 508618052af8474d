//! Compiled per-device execution plans: compile once, run many.
//!
//! Interpreting the lowered program op by op re-infers shapes,
//! re-matches dtypes and allocates a fresh [`Literal`] for every
//! intermediate on every step. [`CompiledPlan`] performs that work
//! exactly once:
//!
//! * every op is pre-resolved to the [`SliceKernel`] the interpreters
//!   themselves run for it ([`partir_ir::kernels`] holds the one
//!   definition of each op), planned against the operand types with
//!   shapes, strides and staging permutations baked in;
//! * adjacent same-shape `f32` elementwise ops are fused into a single
//!   register-machine loop body ([`Step::Eltwise`]), so chains like
//!   `neg → exp → add` make one pass over memory;
//! * buffer lifetimes end at each value's last use on the memory
//!   estimates' own walk ([`PeakWalk`], whose loop rules keep
//!   loop-carried storage from being reused across iterations), and each
//!   intermediate gets a fixed first-fit slot in a per-device arena;
//! * collectives ([`crate::collectives`]) are planned ahead of time:
//!   rendezvous partners and staging order per device, and once for all
//!   devices the kernels that cut a stage's pieces out of the arena and
//!   fold or join what arrives into the result's slot.
//!
//! **What allocates.** After one warm-up run (which sizes the kernels'
//! per-thread scratch pool), loading inputs and running the *local* steps
//! of a plan performs zero heap allocations; `tests/plan_alloc.rs`
//! asserts it on the transformer training step, the decode step, the
//! `build_serving` loop and U-Net. (The one exception is a kernel step
//! with more than eight operands — a wide `concatenate` — whose operand
//! views [`SliceKernel::run`] collects into a `Vec`; the zoo has none.)
//! A collective allocates what a message must own: the payloads its start
//! copies out of the arena, the one piece of its own operand its wait
//! needs later, and, in a collective with several stages, each earlier
//! stage's result (the next stage's payload); a gather or an `all_to_all`
//! also collects its blocks' handles in a `Vec`. Its last stage folds or
//! joins straight into the destination slot. `plan_alloc.rs` bounds the
//! whole second `run_plan` of the 2×2 decode step. Beyond the
//! collectives, a step allocates its unbound outputs for the caller, and
//! opening a device session sets up channels and one worker per device
//! (`run_plan` opens one per call; a session step sets up nothing). The
//! arenas themselves are resident: the plan owns one [`PlanExecutor`]
//! per device, allocated on the first run and reused by every later one.
//!
//! An op or operand dtype [`SliceKernel::plan`] has no semantics for
//! (integer `pow`, a `pred` binary, a non-`f32` dot) is refused here, at
//! [`CompiledPlan::compile`], with the [`IrError`] the interpreter raises
//! for it — there is no fallback path.
//!
//! Because all devices execute the same SPMD program, one plan serves
//! the whole mesh; only the per-device collective schedules differ, and
//! they are stored per device inside the plan's collective steps.
//!
//! Plans are the only way partitioned programs run: the threaded runtime
//! executes them free-running or under its seeded scheduler, with
//! bit-identical outputs either way. What the compiler decides about
//! values — slots, lifetimes, loop carries, resident parameters — is
//! proven by one token walk over the arena, and its stage orders by one
//! rendezvous drain per wait site, in [`CompiledPlan::verify`] (a debug
//! post-condition of every compile);
//! numerics are checked against the unpartitioned reference by the
//! conformance suite across the model zoo.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use partir_analysis::plan::{Access, ForView, PlanView, StageView, StepView};
use partir_analysis::{Diagnostic, PeakWalk};
use partir_ir::interp::eval_op;
use partir_ir::kernels::{apply_bin, apply_un, Buf, BufMut, SliceKernel};
use partir_ir::{
    BinaryOp, DType, Func, IrError, Literal, OpId, OpKind, TensorType, UnaryOp, ValueId,
};
use partir_mesh::Mesh;

use crate::collectives::{
    plan_collective, start_scheduled, wait_scheduled, CollKernels, CollPending, CollSched, Exchange,
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
    /// Malformed input program.
    Ir(IrError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
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
        }
    }
}

/// Compilation knobs.
#[derive(Debug, Clone)]
pub struct PlanOptions {
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
        PlanOptions { overlap: true }
    }
}

impl PlanOptions {
    /// Default options with overlap scheduling disabled: collectives
    /// stay blocking program points (start immediately followed by
    /// wait).
    pub fn blocking() -> Self {
        PlanOptions { overlap: false }
    }
}

// ---------------------------------------------------------------------------
// Slots and the arena allocator
// ---------------------------------------------------------------------------

/// A fixed range of one typed arena pool, assigned to one SSA value.
#[derive(Debug, Clone, Copy)]
struct Slot {
    dtype: DType,
    off: usize,
    len: usize,
    /// The value the compiler placed here: a step's slots are also its
    /// verifier view ([`Slot::access`]).
    value: ValueId,
}

impl Slot {
    /// Whether both slots are one arena range, whatever values they hold.
    fn same_range(self, other: Slot) -> bool {
        (self.dtype, self.off, self.len) == (other.dtype, other.off, other.len)
    }

    /// The verifier's view of this slot.
    fn access(self) -> Access {
        Access {
            pool: pool_index(self.dtype),
            off: self.off,
            len: self.len,
            value: self.value.0,
        }
    }
}

fn pool_index(dt: DType) -> usize {
    match dt {
        DType::F32 => 0,
        DType::I32 => 1,
        DType::Pred => 2,
        _ => unreachable!("plan: unsupported dtype {dt}"),
    }
}

/// Bytes of pools `[f32, i32, pred]` of the given element counts.
fn pool_bytes(lens: [usize; 3]) -> u64 {
    lens.iter()
        .zip([DType::F32, DType::I32, DType::Pred])
        .map(|(&len, dt)| len as u64 * dt.size_bytes() as u64)
        .sum()
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

/// The *start* phase of a collective: issues the first stage's
/// input-dependent sends, copying out of the operand's slot only the
/// payloads and the device's own piece ([`start_scheduled`]). Paired
/// with the [`CollWaitStep`] carrying the same `tag`; the in-flight state
/// travels through [`PlanExecutor::pending`].
#[derive(Debug, Clone)]
struct CollStartStep {
    /// The kernels every device runs for this collective, planned once
    /// — shared with the paired wait step.
    kernels: Arc<CollKernels>,
    /// `scheds[d]` is device `d`'s staging order, rendezvous groups and
    /// local slice offset — shared with the paired wait step.
    scheds: Arc<Vec<CollSched>>,
    /// Message tag of this collective instance (also its
    /// [`PlanExecutor::pending`] index), unique per static collective
    /// step; loop iterations reuse it, which is safe because every
    /// device issues a tag's messages in the same program order.
    tag: u32,
    src: Slot,
    /// Timeline span name, `coll.start.<tag>` — paired with the wait
    /// span by tag when reconciling measured overlap.
    span: String,
}

/// The *wait* (rendezvous/completion) phase of a collective: receives
/// what the peers sent and folds or joins it straight into the result's
/// slot ([`wait_scheduled`]).
#[derive(Debug, Clone)]
struct CollWaitStep {
    kernels: Arc<CollKernels>,
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
    fused_ops: usize,
    /// Per-collective start→wait windows, sorted by tag: one per static
    /// collective, so also the size of the executor's pending table.
    windows: Vec<CollWindow>,
    /// Whether the overlap scheduler ran ([`PlanOptions::overlap`]).
    overlapped: bool,
    /// The plan's resident executors, parked here between sessions (at
    /// most one per device). The plan is the one object that outlives a
    /// session on every path that runs it — the serving engine opens one
    /// per run, `execute_global_planned` builds a fresh runtime per call
    /// — so the arenas live here and are freed when the plan drops.
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
    /// [`PlanError::Ir`] on malformed programs and on ops the plan has
    /// no kernel for.
    pub fn compile(func: &Func, mesh: &Mesh, options: &PlanOptions) -> Result<Self, PlanError> {
        let _span = partir_obs::span!("plan.compile");
        let mut c = Compiler {
            func,
            mesh,
            slots: vec![None; func.num_values()],
            alloc: Default::default(),
            walk: PeakWalk::of(func),
            pos: 0,
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
        let mut steps = Vec::new();
        // Parameters and results are pinned: their slots stay resident.
        c.compile_body(func.body(), &mut steps)?;
        if options.overlap {
            overlap_pass(&mut steps);
        }
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
        let plan = CompiledPlan {
            steps,
            pool_len: [c.alloc[0].high, c.alloc[1].high, c.alloc[2].high],
            carry_elems: c.carry_elems,
            param_slots,
            param_tys,
            result_slots,
            result_tys,
            num_devices: mesh.num_devices(),
            fused_ops: c.fused_ops,
            windows,
            overlapped: options.overlap,
            parked: ExecutorPool::default(),
        };
        // Post-condition (debug builds only, compile time only): the
        // schedule just produced must pass plan-level translation
        // validation — races, clobbered parameters and rendezvous
        // deadlocks in the overlap scheduler's or the allocator's output
        // are compiler bugs, caught here before a plan ever runs.
        #[cfg(debug_assertions)]
        {
            let diags = plan.verify();
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
        Ok(plan)
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
        pool_bytes(self.pool_len)
    }

    /// Bytes a device's [`PlanExecutor`] holds resident: the arena pools
    /// (parameters included) plus the loop-carry scratch.
    pub fn resident_bytes(&self) -> u64 {
        self.arena_bytes() + pool_bytes(self.carry_elems)
    }

    /// Test hook: bytes of an executor's in-flight collective table, the
    /// one part of [`PlanExecutor::new`]'s allocation that
    /// [`CompiledPlan::resident_bytes`] leaves out.
    #[doc(hidden)]
    pub fn in_flight_table_bytes(&self) -> u64 {
        (self.windows.len() * std::mem::size_of::<Option<CollPending>>()) as u64
    }

    /// Ops folded into fused elementwise loops.
    pub fn fused_ops(&self) -> usize {
        self.fused_ops
    }

    /// Static collective steps in the plan (loop bodies counted once).
    pub fn num_collectives(&self) -> usize {
        self.windows.len()
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
    /// [`partir_analysis::plan`]). Derived from the executable steps on
    /// every call, so it describes exactly what the executor runs.
    pub fn verifier_view(&self) -> PlanView {
        PlanView {
            num_devices: self.num_devices,
            num_tags: self.windows.len() as u32,
            pool_len: self.pool_len,
            params: self.param_slots.iter().map(|s| s.access()).collect(),
            results: self.result_slots.iter().map(|s| s.access()).collect(),
            steps: step_views(&self.steps),
            overlapped: self.overlapped,
        }
    }

    /// Statically verifies the compiled schedule: arena bounds, window
    /// structure, one token walk (every read finds the value the compiler
    /// put there; no step leaves a parameter range clobbered) and
    /// cross-device rendezvous deadlock freedom. An empty (or
    /// `Info`-only) result is a proof under the happens-before model in
    /// [`partir_analysis::plan`]. The same check runs automatically as
    /// a debug post-condition of [`CompiledPlan::compile`].
    pub fn verify(&self) -> Vec<Diagnostic> {
        partir_analysis::verify_plan(&self.verifier_view())
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
        for (k, lit) in inputs.iter().enumerate() {
            self.check_input(k, lit)?;
            write_slot(st, self.param_slots[k], lit)?;
        }
        Ok(())
    }

    /// Whether `lit` may be input `k`: `k` names a parameter and `lit`
    /// has its type. Allocation-free on success.
    ///
    /// # Errors
    ///
    /// On an out-of-range index or a type mismatch.
    pub(crate) fn check_input(&self, k: usize, lit: &Literal) -> Result<(), RuntimeError> {
        let Some(ty) = self.param_tys.get(k) else {
            return Err(RuntimeError::Ir(IrError::invalid(format!(
                "plan has {} inputs, no input {k}",
                self.param_tys.len()
            ))));
        };
        // Field-wise comparison: `Literal::ty()` would clone the shape
        // and so allocate in the hot loop.
        if lit.dtype() != ty.dtype || lit.shape() != &ty.shape {
            return Err(RuntimeError::Ir(IrError::invalid(format!(
                "plan input {k} has type {}, expected {ty}",
                lit.ty()
            ))));
        }
        Ok(())
    }

    /// Per-device result types, in order.
    pub(crate) fn result_tys(&self) -> &[TensorType] {
        &self.result_tys
    }

    /// Whether output `out`'s arena range overlaps input `k`'s: the
    /// program returns that parameter unchanged.
    pub(crate) fn output_aliases_input(&self, out: usize, k: usize) -> bool {
        let (r, p) = (self.result_slots[out], self.param_slots[k]);
        r.dtype == p.dtype && r.off < p.off + p.len && p.off < r.off + r.len
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
            .map(|(slot, ty)| read_slot(st, *slot, ty))
            .collect()
    }

    /// One device's share of one session step — the threaded runtime's
    /// one device body. Copies the `changed` inputs into their parameter
    /// slots (every other parameter slot still holds what an earlier
    /// step left there), runs every step over the exchange fabric, reads
    /// the outputs `bound` leaves unbound, then copies each bound output
    /// (`bound[out] == Some(k)`) into input `k`'s slot for the next step.
    /// Inputs are type-checked when the session stages them.
    pub(crate) fn run_device<E: Exchange>(
        &self,
        ex: &mut E,
        st: &mut PlanExecutor,
        changed: &[(usize, Cow<'_, Literal>)],
        bound: &[Option<usize>],
    ) -> Result<Vec<Literal>, RuntimeError> {
        for (k, lit) in changed {
            write_slot(st, self.param_slots[*k], lit)?;
        }
        let traced = partir_obs::current().is_some();
        run_steps(&self.steps, st, ex, traced)?;
        let outputs = self
            .result_slots
            .iter()
            .zip(&self.result_tys)
            .zip(bound)
            .filter(|(_, b)| b.is_none())
            .map(|((slot, ty), _)| read_slot(st, *slot, ty))
            .collect::<Result<_, _>>()?;
        // Results never share a parameter's range unless the program
        // returns that parameter unchanged, which the session refuses to
        // bind elsewhere: these copies are independent of their order.
        for (out, k) in bound.iter().enumerate() {
            if let Some(k) = *k {
                copy_slot(st, self.result_slots[out], self.param_slots[k]);
            }
        }
        Ok(outputs)
    }
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

struct Compiler<'f> {
    func: &'f Func,
    mesh: &'f Mesh,
    slots: Vec<Option<Slot>>,
    alloc: [PoolAlloc; 3],
    /// The one liveness: every slot is freed after its last use here.
    walk: PeakWalk,
    /// Position in `walk` of the next op whose frees are due.
    pos: usize,
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
            value: v,
        };
        self.slots[v.0 as usize] = Some(slot);
        slot
    }

    fn slot_of(&self, v: ValueId) -> Result<Slot, PlanError> {
        self.slots[v.0 as usize]
            .ok_or_else(|| PlanError::Ir(IrError::invalid("plan: value has no slot")))
    }

    /// Steps the walk over `ops`, just emitted, freeing every slot whose
    /// last use is one of them.
    fn free_after(&mut self, ops: &[OpId]) {
        for &op_id in ops {
            debug_assert_eq!(self.walk.order()[self.pos], op_id, "plan: off the walk");
            for &v in self.walk.frees_at(self.pos) {
                if let Some(slot) = self.slots[v.0 as usize] {
                    self.alloc[pool_index(slot.dtype)].free(slot.off, slot.len);
                }
            }
            self.pos += 1;
        }
    }

    /// Compiles one region body, freeing each slot after its last use on
    /// the walk. The walk puts a loop's body before the loop, the order
    /// this emits in, so one position counter (`self.pos`) follows it.
    fn compile_body(&mut self, body: &[OpId], out: &mut Vec<Step>) -> Result<(), PlanError> {
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
                            self.emit_op(body[s], out)?;
                        } else {
                            self.emit_fused(&body[s..e], n, out)?;
                        }
                        self.free_after(&body[s..e]);
                    }
                    pos = run_end;
                }
                None => {
                    self.emit_op(body[pos], out)?;
                    self.free_after(&body[pos..=pos]);
                    pos += 1;
                }
            }
        }
        Ok(())
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
    /// pinned, or last used after the segment's last op (at walk position
    /// `seg_last`). Purely-internal temporaries live in registers.
    fn needs_store(&self, v: ValueId, seg_last: usize) -> bool {
        self.walk.last_use(v).is_none_or(|p| p > seg_last)
    }

    fn emit_fused(&mut self, seg: &[OpId], n: usize, out: &mut Vec<Step>) -> Result<(), PlanError> {
        let mut regmap: HashMap<ValueId, u8> = HashMap::new();
        let mut next: u8 = 0;
        let mut loads: Vec<(u8, Slot)> = Vec::new();
        let mut instrs: Vec<EltInstr> = Vec::new();
        for &op_id in seg {
            let op = self.func.op(op_id);
            let instr = match &op.kind {
                OpKind::Unary(u) => {
                    let a = self.fused_reg(op.operands[0], &mut regmap, &mut next, &mut loads)?;
                    EltInstr {
                        op: EltOp::Un(*u),
                        a,
                        b: 0,
                        dst: 0,
                    }
                }
                OpKind::Binary(bo) => {
                    let a = self.fused_reg(op.operands[0], &mut regmap, &mut next, &mut loads)?;
                    let b = self.fused_reg(op.operands[1], &mut regmap, &mut next, &mut loads)?;
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
        let seg_last = self.pos + seg.len() - 1;
        for &op_id in seg {
            let v = self.func.op(op_id).results[0];
            if self.needs_store(v, seg_last) {
                let slot = self.alloc_value(v);
                stores.push((regmap[&v], slot));
            }
        }
        self.fused_ops += seg.len();
        out.push(Step::Eltwise(EltwiseStep {
            n,
            loads,
            instrs,
            stores,
        }));
        Ok(())
    }

    fn fused_reg(
        &self,
        v: ValueId,
        regmap: &mut HashMap<ValueId, u8>,
        next: &mut u8,
        loads: &mut Vec<(u8, Slot)>,
    ) -> Result<u8, PlanError> {
        if let Some(&r) = regmap.get(&v) {
            return Ok(r);
        }
        let r = *next;
        *next += 1;
        loads.push((r, self.slot_of(v)?));
        regmap.insert(v, r);
        Ok(r)
    }

    fn emit_op(&mut self, op_id: OpId, out: &mut Vec<Step>) -> Result<(), PlanError> {
        let op = self.func.op(op_id);
        let name = op.kind.name();
        match &op.kind {
            OpKind::Constant(_) | OpKind::Iota { .. } => {
                // An iota is folded at compile time: the plan bakes what
                // its kernel writes.
                let lits = eval_op(&op.kind, &[])?;
                let dst = self.alloc_value(op.results[0]);
                out.push(Step::Baked(BakedStep {
                    data: baked_data(&lits[0])?,
                    dst,
                    name,
                }));
            }
            OpKind::For { trip_count } => self.emit_for(op_id, *trip_count, out)?,
            OpKind::Collective(c) => {
                let (kernels, scheds) =
                    plan_collective(c, self.func.value_type(op.operands[0]), self.mesh)?;
                let (kernels, scheds) = (Arc::new(kernels), Arc::new(scheds));
                let src = self.slot_of(op.operands[0])?;
                let dst = self.alloc_value(op.results[0]);
                let tag = self.next_tag;
                self.next_tag += 1;
                // Emitted adjacent (the blocking layout); the overlap
                // pass hoists the start and sinks the wait afterwards.
                out.push(Step::CollStart(Box::new(CollStartStep {
                    kernels: kernels.clone(),
                    scheds: scheds.clone(),
                    tag,
                    src,
                    span: format!("coll.start.{tag}"),
                })));
                out.push(Step::CollWait(Box::new(CollWaitStep {
                    kernels,
                    scheds,
                    tag,
                    dst,
                    span: format!("coll.wait.{tag}"),
                })));
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
                out.push(Step::Kernel(Box::new(KernelStep {
                    kernel,
                    srcs,
                    dst,
                    name,
                })));
            }
        }
        Ok(())
    }

    fn emit_for(
        &mut self,
        op_id: OpId,
        trip_count: usize,
        out: &mut Vec<Step>,
    ) -> Result<(), PlanError> {
        let op = self.func.op(op_id);
        let region = op
            .region
            .as_ref()
            .ok_or_else(|| PlanError::Ir(IrError::invalid("for without region")))?
            .clone();
        let (operands, results) = (op.operands.clone(), op.results.clone());
        // Loop-scope storage: the walk frees the induction slot, the
        // carried params and every outer value the body reads only at the
        // loop's own position (its rules 1 and 2), so nothing a later trip
        // reads is recycled inside the body.
        let index = self.alloc_value(region.params[0]);
        let mut entry = Vec::new();
        for (j, &p) in region.params[1..].iter().enumerate() {
            entry.push((self.slot_of(operands[j])?, self.alloc_value(p)));
        }
        let mut body = Vec::new();
        self.compile_body(&region.body, &mut body)?;
        // Op results are allocated while every region value is still
        // live, so exit copies can never alias their sources.
        let mut exit = Vec::new();
        let mut bypass = Vec::new();
        for (j, &r) in results.iter().enumerate() {
            let rslot = self.alloc_value(r);
            exit.push((self.slot_of(region.results[j])?, rslot));
            bypass.push((self.slot_of(operands[j])?, rslot));
        }
        // Region result `j` feeds param `j` (`exit[j].0` → `entry[j].1`);
        // a pair already sharing one range needs no copy.
        let carry: Vec<(Slot, Slot)> = exit
            .iter()
            .zip(&entry)
            .map(|(&(src, _), &(_, dst))| (src, dst))
            .filter(|&(src, dst)| !src.same_range(dst))
            .collect();
        let carry_staged = carry
            .iter()
            .any(|&(s, _)| carry.iter().any(|&(_, d)| s.same_range(d)));
        if carry_staged {
            let mut elems = [0usize; 3];
            for &(s, _) in &carry {
                elems[pool_index(s.dtype)] += s.len;
            }
            for (have, need) in self.carry_elems.iter_mut().zip(elems) {
                *have = (*have).max(need);
            }
        }
        out.push(Step::For(Box::new(ForStep {
            trip_count,
            index,
            entry,
            body,
            carry,
            carry_staged,
            exit,
            bypass,
        })));
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

/// Arena ranges a step reads and writes — the one statement of a step's
/// effects, read by the overlap pass and by the verifier view
/// ([`step_views`]). Conservative for `For` steps: they account for
/// their whole body plus entry/carry/exit/bypass copies, so nothing ever
/// moves across a dependency hidden in a nested region. Collective
/// starts read only their operand (what they copy out of it is
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

/// The verifier's view of a step list, read off the executable steps: a
/// leaf step's reads and writes are its [`step_effects`], a wait's stage
/// tables its per-device [`CollSched`]s. A loop's carry view pairs every
/// region result with its param (`exit[j].0` → `entry[j].1`), keeping
/// the identity pairs the executor drops: they relabel the result back
/// to the param value, which the verifier's token walk depends on.
fn step_views(steps: &[Step]) -> Vec<StepView> {
    let accesses = |pairs: &[(Slot, Slot)]| -> Vec<(Access, Access)> {
        pairs
            .iter()
            .map(|&(s, d)| (s.access(), d.access()))
            .collect()
    };
    steps
        .iter()
        .map(|step| match step {
            Step::CollStart(c) => StepView::CollStart {
                tag: c.tag,
                src: c.src.access(),
            },
            Step::CollWait(c) => StepView::CollWait {
                tag: c.tag,
                dst: c.dst.access(),
                stages: Arc::new(
                    c.scheds
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
                ),
            },
            Step::For(f) => StepView::For(Box::new(ForView {
                trip_count: f.trip_count,
                index: f.index.access(),
                entry: accesses(&f.entry),
                body: step_views(&f.body),
                carry: f
                    .exit
                    .iter()
                    .zip(&f.entry)
                    .map(|(&(src, _), &(_, dst))| (src.access(), dst.access()))
                    .collect(),
                exit: accesses(&f.exit),
                bypass: accesses(&f.bypass),
            })),
            Step::Baked(_) | Step::Eltwise(_) | Step::Kernel(_) => {
                let (mut reads, mut writes) = (Vec::new(), Vec::new());
                step_effects(step, &mut reads, &mut writes);
                StepView::Compute {
                    name: step.name(),
                    reads: reads.into_iter().map(Slot::access).collect(),
                    writes: writes.into_iter().map(Slot::access).collect(),
                }
            }
        })
        .collect()
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
fn overlap_pass(steps: &mut [Step]) {
    let mut scratch = EffectScratch::default();
    for step in steps.iter_mut() {
        if let Step::For(f) = step {
            overlap_pass(&mut f.body);
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
            pending: (0..plan.windows.len()).map(|_| None).collect(),
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

/// A slot's elements.
fn slot_buf(st: &PlanExecutor, s: Slot) -> Buf<'_> {
    let range = s.off..s.off + s.len;
    match s.dtype {
        DType::F32 => Buf::F32(&st.f32s[range]),
        DType::I32 => Buf::I32(&st.i32s[range]),
        DType::Pred => Buf::Pred(&st.preds[range]),
        dt => unreachable!("plan: unsupported dtype {dt}"),
    }
}

/// A slot's elements, for writing.
fn slot_buf_mut(st: &mut PlanExecutor, s: Slot) -> BufMut<'_> {
    let range = s.off..s.off + s.len;
    match s.dtype {
        DType::F32 => BufMut::F32(&mut st.f32s[range]),
        DType::I32 => BufMut::I32(&mut st.i32s[range]),
        DType::Pred => BufMut::Pred(&mut st.preds[range]),
        dt => unreachable!("plan: unsupported dtype {dt}"),
    }
}

fn read_slot(st: &PlanExecutor, slot: Slot, ty: &TensorType) -> Result<Literal, RuntimeError> {
    Ok(Literal::from_buf(slot_buf(st, slot), ty.shape.clone())?)
}

fn write_slot(st: &mut PlanExecutor, slot: Slot, lit: &Literal) -> Result<(), RuntimeError> {
    if lit.num_elements() != slot.len {
        return Err(RuntimeError::Ir(IrError::invalid(format!(
            "plan: payload has {} elements, slot holds {}",
            lit.num_elements(),
            slot.len
        ))));
    }
    Ok(SliceKernel::Copy.run([lit.as_buf()], slot_buf_mut(st, slot))?)
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
                // Put the first stage's sends in flight, keeping what the
                // wait needs; the arena range is free to be recycled
                // immediately.
                let sched = &cs.scheds[ex.device()];
                let src = slot_buf(st, cs.src);
                let pending = start_scheduled(&cs.kernels, ex, sched, cs.tag, src)?;
                st.pending[cs.tag as usize] = Some(pending);
            }
            Step::CollWait(cw) => {
                let pending = st.pending[cw.tag as usize].take().ok_or_else(|| {
                    RuntimeError::Ir(IrError::invalid("collective wait without start"))
                })?;
                let sched = &cw.scheds[ex.device()];
                let dst = slot_buf_mut(st, cw.dst);
                wait_scheduled(&cw.kernels, ex, sched, cw.tag, pending, dst)?;
            }
            Step::Kernel(k) => run_kernel(st, k).map_err(RuntimeError::Ir)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{Collective, FuncBuilder};

    fn single_mesh() -> Mesh {
        Mesh::single("B", 1).unwrap()
    }

    /// Loads, runs and reads one step on a fresh executor.
    fn run_local(plan: &CompiledPlan, inputs: &[Literal]) -> Vec<Literal> {
        let mut st = plan.new_executor();
        plan.load_inputs(&mut st, inputs).unwrap();
        plan.run_local_steps(&mut st).unwrap();
        plan.read_outputs(&st).unwrap()
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
        let got = run_local(&plan, std::slice::from_ref(&input));
        let want = partir_ir::interp::interpret(&f, &[input]).unwrap();
        assert_eq!(got, want);
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
        let got = run_local(&plan, std::slice::from_ref(&input));
        let want = partir_ir::interp::interpret(&f, &[input]).unwrap();
        assert_eq!(got, want);
    }

    /// A value from outside a loop, read only by the body's first op,
    /// keeps its slot for every trip: the body value of the same size
    /// emitted after that read must not take it.
    #[test]
    fn outer_value_read_early_in_a_loop_keeps_its_slot() {
        let mut b = FuncBuilder::new("f");
        let p = b.param("p", TensorType::f32([4, 4]));
        let e = b.exp(p).unwrap();
        let out = b
            .for_loop(3, &[p], |inner, _i, c| {
                let t = inner.add(c[0], e)?;
                Ok(vec![inner.transpose(t, vec![1, 0])?])
            })
            .unwrap();
        let f = b.build([out[0]]).unwrap();
        let plan = CompiledPlan::compile(&f, &single_mesh(), &PlanOptions::default()).unwrap();
        let diags = plan.verify();
        assert_eq!(partir_analysis::error_count(&diags), 0, "{diags:?}");
        let input = Literal::from_f32((0..16).map(|i| i as f32 / 16.0).collect(), [4, 4]).unwrap();
        let got = run_local(&plan, std::slice::from_ref(&input));
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
        let got = run_local(&plan, std::slice::from_ref(&input));
        let want = partir_ir::interp::interpret(&f, &[input]).unwrap();
        assert_eq!(got, want);
    }

    fn error_rules(plan: &CompiledPlan) -> Vec<&'static str> {
        let diags = plan.verify();
        diags
            .iter()
            .filter(|d| d.severity == partir_analysis::Severity::Error)
            .map(|d| d.rule)
            .collect()
    }

    /// The verifier reads the steps the executor runs: corrupting an
    /// executable step — a kernel reading another live value's range, a
    /// loop missing one entry copy — is a race at the read.
    #[test]
    fn corrupted_executable_steps_are_races() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([4]));
        let y = b.param("y", TensorType::f32([4]));
        let xs = b.reshape(x, [2, 2]).unwrap();
        let ys = b.reshape(y, [2, 2]).unwrap();
        let f = b.build([xs, ys]).unwrap();
        let mut plan = CompiledPlan::compile(&f, &single_mesh(), &PlanOptions::default()).unwrap();
        assert_eq!(error_rules(&plan), Vec::<&str>::new());
        let y_slot = plan.param_slots[1];
        let Step::Kernel(k) = &mut plan.steps[0] else {
            panic!("expected the first reshape as a kernel step");
        };
        assert_eq!(k.srcs[0].value, x);
        k.srcs[0].off = y_slot.off;
        assert!(error_rules(&plan).contains(&"plan-race"));

        let mut b = FuncBuilder::new("g");
        let x = b.param("x", TensorType::f32([4]));
        let w = b.param("w", TensorType::f32([4]));
        let out = b
            .for_loop(3, &[x, w], |inner, _i, c| {
                Ok(vec![inner.mul(c[0], c[1])?, c[1]])
            })
            .unwrap();
        let f = b.build([out[0]]).unwrap();
        let mut plan = CompiledPlan::compile(&f, &single_mesh(), &PlanOptions::default()).unwrap();
        assert_eq!(error_rules(&plan), Vec::<&str>::new());
        let Some(Step::For(l)) = plan.steps.iter_mut().find(|s| matches!(s, Step::For(_))) else {
            panic!("expected a loop step");
        };
        l.entry.pop();
        assert!(error_rules(&plan).contains(&"plan-race"));
    }

    /// Mutation 7 of `analysis/tests/plan_verify.rs` on an executable
    /// plan: a 2×2 all_gather over both axes with the stage order
    /// reversed on the diagonal devices 0 and 3. The scheduler reports
    /// the four-cycle of waits at once, on every seed; free-running
    /// threads only see each wait time out.
    #[test]
    fn reversed_stage_order_is_reported_as_deadlock() {
        use crate::runtime::{RuntimeConfig, RuntimeError, ThreadedRuntime};
        let mesh = Mesh::new([("x", 2), ("y", 2)]).unwrap();
        let mut b = FuncBuilder::with_mesh("f", mesh.clone());
        let x = b.param("x", TensorType::f32([2, 2]));
        let gather = Collective::AllGather {
            dim_axes: vec![vec!["x".into()], vec!["y".into()]],
        };
        let y = b.collective(gather, x).unwrap();
        let f = b.build([y]).unwrap();
        let mut plan = CompiledPlan::compile(&f, &mesh, &PlanOptions::default()).unwrap();
        for step in &mut plan.steps {
            let scheds = match step {
                Step::CollStart(s) => &mut s.scheds,
                Step::CollWait(w) => &mut w.scheds,
                _ => continue,
            };
            for d in [0, 3] {
                Arc::make_mut(scheds)[d].stages.reverse();
            }
        }
        let inputs: Vec<Vec<Literal>> = (0..4)
            .map(|d| vec![Literal::from_f32(vec![d as f32; 4], [2, 2]).unwrap()])
            .collect();
        for seed in 0..4 {
            let err = ThreadedRuntime::default()
                .run_scheduled(&plan, &inputs, seed)
                .unwrap_err();
            let RuntimeError::Deadlock { waits } = err else {
                panic!("seed {seed}: expected a deadlock, got {err}");
            };
            let cycle: Vec<(usize, usize, &str)> = waits
                .iter()
                .map(|w| (w.device, w.peer, w.axis.name()))
                .collect();
            assert_eq!(
                cycle,
                [(0, 1, "y"), (1, 3, "x"), (2, 0, "x"), (3, 2, "y")],
                "seed {seed}"
            );
        }
        let budget = plan.rendezvous_budget(std::time::Duration::from_millis(5));
        let err = ThreadedRuntime::new(RuntimeConfig::with_timeout(budget))
            .run_plan(&plan, &inputs)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Timeout { .. }), "{err}");
    }
}
