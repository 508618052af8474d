//! Partitioning state and the propagation pass (paper §5.2.2–5.2.4).
//!
//! Since the fingerprinted-evaluation refactor this module also maintains
//! two pieces of incremental state (see DESIGN.md "Fingerprints &
//! evaluation cache"):
//!
//! * a 128-bit [`Partitioning::fingerprint`] — the function's structural
//!   hash XOR-combined with a hash of every decision taken (per-value
//!   tile/atomic entries and per-op TMR entries), maintained in O(1) per
//!   decision. Equal fingerprints mean identical partitionings of the
//!   same function on the same mesh, which is what the evaluation cache
//!   in `partir-sched` keys on;
//! * a dirty set of values/ops touched since the last propagation, so
//!   [`Partitioning::propagate`] runs a *worklist* seeded only from the
//!   changed neighbourhood instead of re-scanning the whole module. The
//!   whole-module fixed point survives as
//!   [`Partitioning::propagate_full`] and is re-run as a debug-assert
//!   oracle after every incremental propagation in debug builds.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

use partir_ir::{
    Fingerprint, Func, OpData, OpId, ReduceOp, StableHasher, TensorType, ValueDef, ValueId,
};
use partir_mesh::{Axis, Mesh};

use crate::context::{ShardKind, ValueCtx};
use crate::tmr::{ResultAction, TmrEntry, TmrTable};
use crate::CoreError;

/// The loop context an op acquired along one axis.
#[derive(Debug, Clone, PartialEq)]
pub enum OpAxisCtx {
    /// A TMR entry was applied: the op executes inside a loop over the
    /// axis, slicing operands per the entry and combining results per the
    /// entry's action.
    Entry(TmrEntry),
}

/// The ordered loop-nest context of an op (outermost axis first).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpCtx {
    entries: Vec<(Axis, OpAxisCtx)>,
}

impl OpCtx {
    /// Entries in nesting order.
    pub fn entries(&self) -> &[(Axis, OpAxisCtx)] {
        &self.entries
    }

    /// Whether the op is already inside a loop over `axis`
    /// (the nesting restriction of §5.2.3).
    pub fn contains_axis(&self, axis: &Axis) -> bool {
        self.entries.iter().any(|(a, _)| a == axis)
    }

    /// The TMR entry applied along `axis`, if any.
    pub fn entry(&self, axis: &Axis) -> Option<&TmrEntry> {
        self.entries.iter().find_map(|(a, c)| match c {
            OpAxisCtx::Entry(e) if a == axis => Some(e),
            _ => None,
        })
    }

    /// Whether any axis context reduces (`#sum`) the result.
    pub fn reduces(&self) -> bool {
        self.entries.iter().any(|(_, c)| match c {
            OpAxisCtx::Entry(e) => matches!(e.result, ResultAction::Reduce(_)),
        })
    }
}

/// A propagation conflict: multiple TMR entries matched the evidence and
/// PartIR refuses to pick one (paper §5.2.3).
#[derive(Debug, Clone, PartialEq)]
pub struct Conflict {
    /// The op whose rewrite is ambiguous.
    pub op: OpId,
    /// The axis being propagated.
    pub axis: Axis,
    /// The competing entries.
    pub candidates: Vec<TmrEntry>,
}

impl Conflict {
    /// Human-readable description naming the op and axis, for the
    /// incremental debugging workflow the paper describes (§3): users
    /// inspect conflicts after each tactic and resolve them by ordering
    /// or `atomic`/`tag` actions.
    pub fn describe(&self, func: &Func) -> String {
        let op = func.op(self.op);
        let entries = self
            .candidates
            .iter()
            .map(|e| {
                let operands = e
                    .operands
                    .iter()
                    .map(|t| match t {
                        Some(d) => format!("#tile<{d}>"),
                        None => "⊥".to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                let result = match e.result {
                    ResultAction::Tile(d) => format!("#tile<{d}>"),
                    ResultAction::Reduce(r) => format!("#sum<{r:?}>"),
                };
                format!("({operands}) ↪ {result}")
            })
            .collect::<Vec<_>>()
            .join("  vs  ");
        format!(
            "conflict at `{}` along axis \"{}\": {entries}",
            op.kind.name(),
            self.axis
        )
    }
}

/// Result of a [`Partitioning::propagate`] run.
#[derive(Debug, Clone, Default)]
pub struct PropagationReport {
    /// Number of op rewrites applied (loops introduced) in this run.
    pub applied: usize,
    /// Number of value contexts extended (inference-introduced tilings
    /// plus result tilings) in this run.
    pub inferred: usize,
    /// Remaining ambiguous sites after the fixpoint.
    pub conflicts: Vec<Conflict>,
}

impl PropagationReport {
    /// One-line summary plus one line per conflict.
    pub fn summary(&self, func: &Func) -> String {
        let mut out = format!(
            "{} rewrites, {} context extensions, {} conflicts",
            self.applied,
            self.inferred,
            self.conflicts.len()
        );
        for c in &self.conflicts {
            out.push('\n');
            out.push_str(&c.describe(func));
        }
        out
    }
}

/// The mutable partitioning state of one function: per-value tiling
/// contexts and per-op loop contexts.
///
/// Actions ([`Partitioning::tile`], [`Partitioning::atomic`]) are never
/// undone in any state a caller holds outside a [`Partitioning::probe`]
/// closure; [`Partitioning::propagate`] is a fixpoint over TMR matches.
/// This is the compiler API targeted by the tactics in `partir-sched`.
///
/// The state also carries a cheap structural [`Partitioning::fingerprint`]
/// used as the evaluation-cache key during search, and tracks which
/// values/ops changed since the last propagation so `propagate` only
/// revisits the affected neighbourhood.
#[derive(Clone)]
pub struct Partitioning {
    mesh: Mesh,
    value_ctx: Vec<ValueCtx>,
    op_ctx: Vec<OpCtx>,
    num_values: usize,
    /// Base (function ⊕ mesh) hash XOR one hash per decision taken.
    fp: Fingerprint,
    /// Tables derived from the function alone. Shared by all clones so
    /// MCTS child states copy a pointer, not the tables.
    shared: Arc<FuncTables>,
    /// Values whose context gained entries since the last `propagate`.
    dirty_values: BTreeSet<ValueId>,
    /// Ops whose loop context gained entries since the last `propagate`
    /// (only [`Partitioning::apply_entry`] adds these outside propagation).
    dirty_ops: BTreeSet<OpId>,
    /// Ambiguous sites as of the last propagation, keyed by
    /// `(op, axis index)`. BTreeMap so report order matches the historic
    /// whole-module scan (ops ascending, axes in mesh order).
    conflicts: BTreeMap<(OpId, usize), Vec<TmrEntry>>,
    /// Undo log of the [`Partitioning::probe`] calls in progress.
    journal: Journal,
}

/// What every state of one function shares.
struct FuncTables {
    /// Reverse def-use map indexed by value id, *including* the edges from
    /// a region's yielded values to the owning region op (which
    /// [`Func::uses`] omits — it only walks operand lists).
    uses: Vec<Vec<OpId>>,
    /// Built by the first propagation, not by [`Partitioning::new`]:
    /// states that are only constructed, printed or lowered never pay
    /// for it.
    tmr: OnceLock<TmrTable>,
}

impl FuncTables {
    fn tmr(&self, func: &Func) -> &TmrTable {
        self.tmr.get_or_init(|| TmrTable::new(func))
    }
}

/// One reversible step recorded while a probe is open. Contexts only
/// ever grow by appending, so undoing an entry is a pop.
enum Undo {
    Value(ValueId),
    Op(OpId),
    /// The conflict map held `.1` under key `.0` before the change.
    Conflict((OpId, usize), Option<Vec<TmrEntry>>),
}

/// The undo log and the number of open probes. A clone taken inside a
/// probe closure is an ordinary state with nothing to undo.
#[derive(Default)]
struct Journal {
    depth: u32,
    log: Vec<Undo>,
}

impl Clone for Journal {
    fn clone(&self) -> Self {
        Journal::default()
    }
}

/// `shared` is derived from the function and identical across clones;
/// printing it (and the transient dirty sets) would only add noise, and
/// the search's determinism tests compare `format!("{p:?}")` output.
impl fmt::Debug for Partitioning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Partitioning")
            .field("mesh", &self.mesh)
            .field("value_ctx", &self.value_ctx)
            .field("op_ctx", &self.op_ctx)
            .field("fingerprint", &self.fp)
            .finish()
    }
}

fn build_uses(func: &Func) -> Vec<Vec<OpId>> {
    let mut uses = vec![Vec::new(); func.num_values()];
    for op in func.op_ids() {
        let data = func.op(op);
        for &operand in &data.operands {
            uses[operand.0 as usize].push(op);
        }
        if let Some(region) = &data.region {
            // A change to a yielded value's context must re-unify the
            // owning `for` op.
            for &r in &region.results {
                uses[r.0 as usize].push(op);
            }
        }
    }
    uses
}

fn base_fingerprint(func: &Func, mesh: &Mesh) -> Fingerprint {
    let mut h = StableHasher::new();
    h.write_u64(0x5041_5254_4954_4e47); // "PARTITNG" domain tag
    h.write_u64(func.fingerprint().0 as u64);
    h.write_u64((func.fingerprint().0 >> 64) as u64);
    h.write_usize(mesh.axes().len());
    for (axis, size) in mesh.axes() {
        h.write_str(axis.name());
        h.write_usize(*size);
    }
    h.finish()
}

impl Partitioning {
    /// Creates the identity (fully replicated) partitioning of `func`.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; reserved for future validation.
    pub fn new(func: &Func, mesh: Mesh) -> Result<Self, CoreError> {
        let fp = base_fingerprint(func, &mesh);
        Ok(Partitioning {
            shared: Arc::new(FuncTables {
                uses: build_uses(func),
                tmr: OnceLock::new(),
            }),
            mesh,
            value_ctx: vec![ValueCtx::new(); func.num_values()],
            op_ctx: vec![OpCtx::default(); func.num_ops()],
            num_values: func.num_values(),
            fp,
            dirty_values: BTreeSet::new(),
            dirty_ops: BTreeSet::new(),
            conflicts: BTreeMap::new(),
            journal: Journal::default(),
        })
    }

    /// The mesh being partitioned for.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The currently outstanding propagation conflicts (ambiguous TMR
    /// sites the last [`Partitioning::propagate`] refused to resolve).
    /// Exposed so static analyses (`partir-analysis`) can report
    /// unresolved ambiguity without re-running propagation.
    pub fn conflicts(&self) -> Vec<Conflict> {
        self.conflicts
            .iter()
            .map(|(&(op, ai), candidates)| Conflict {
                op,
                axis: self.mesh.axes()[ai].0.clone(),
                candidates: candidates.clone(),
            })
            .collect()
    }

    /// A stable 128-bit fingerprint of this partitioning: the function's
    /// structural hash and the mesh, XOR-combined with a positional hash
    /// of every per-value sharding entry and per-op TMR entry. Two states
    /// built over the same function/mesh that took the same decisions
    /// (in any interleaving that yields the same per-slot entry order)
    /// compare equal — this is the key of the evaluation cache in
    /// `partir-sched`. Maintained incrementally in O(1) per decision.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fp
    }

    /// Extends a value context and folds the decision into the
    /// fingerprint. Every context mutation in this module funnels through
    /// here (or [`Partitioning::record_op_entry`]) so the fingerprint and
    /// dirty sets can never drift from the contexts.
    fn record_value_entry(&mut self, v: ValueId, axis: &Axis, kind: ShardKind) {
        let pos = self.value_ctx[v.0 as usize].entries().len();
        self.value_ctx[v.0 as usize].push(axis.clone(), kind);
        let mut h = StableHasher::new();
        h.write_u64(0x76); // 'v': value-entry domain
        h.write_usize(v.0 as usize);
        h.write_usize(pos);
        h.write_str(axis.name());
        match kind {
            ShardKind::Tile { dim } => {
                h.write_u64(1);
                h.write_usize(dim);
            }
            ShardKind::Atomic => h.write_u64(2),
        }
        self.fp = Fingerprint(self.fp.0 ^ h.finish().0);
        self.dirty_values.insert(v);
        if self.journal.depth > 0 {
            self.journal.log.push(Undo::Value(v));
        }
    }

    /// Extends an op's loop context and folds the applied entry into the
    /// fingerprint. Counterpart of [`Partitioning::record_value_entry`].
    fn record_op_entry(&mut self, op: OpId, axis: &Axis, entry: &TmrEntry) {
        let pos = self.op_ctx[op.0 as usize].entries.len();
        let mut h = StableHasher::new();
        h.write_u64(0x6f); // 'o': op-entry domain
        h.write_usize(op.0 as usize);
        h.write_usize(pos);
        h.write_str(axis.name());
        h.write_usize(entry.operands.len());
        for o in &entry.operands {
            match o {
                Some(d) => {
                    h.write_u64(1);
                    h.write_usize(*d);
                }
                None => h.write_u64(0),
            }
        }
        match &entry.result {
            ResultAction::Tile(d) => {
                h.write_u64(1);
                h.write_usize(*d);
            }
            ResultAction::Reduce(r) => {
                h.write_u64(2);
                // The variant's `Debug` name, without formatting it.
                h.write_str(match r {
                    ReduceOp::Sum => "Sum",
                    ReduceOp::Max => "Max",
                    ReduceOp::Min => "Min",
                    ReduceOp::Prod => "Prod",
                });
            }
        }
        self.fp = Fingerprint(self.fp.0 ^ h.finish().0);
        self.op_ctx[op.0 as usize]
            .entries
            .push((axis.clone(), OpAxisCtx::Entry(entry.clone())));
        self.dirty_ops.insert(op);
        if self.journal.depth > 0 {
            self.journal.log.push(Undo::Op(op));
        }
    }

    /// Sets or clears one conflict-map slot. The only writer of
    /// `conflicts`, so an open probe sees every change.
    fn set_conflict(&mut self, key: (OpId, usize), candidates: Option<Vec<TmrEntry>>) {
        let before = match candidates {
            Some(c) => self.conflicts.insert(key, c),
            None => self.conflicts.remove(&key),
        };
        if self.journal.depth > 0 {
            self.journal.log.push(Undo::Conflict(key, before));
        }
    }

    /// Tries `tile(v, dim, axis)` followed by propagation *in place*,
    /// shows the resulting state to `f`, then takes everything back: the
    /// context entries appended since the call are popped, and the
    /// fingerprint, conflicts and pending-change sets are restored, so
    /// after the call the state is indistinguishable from before it.
    /// What `f` sees is exactly `clone → tile → propagate`, without the
    /// clone — the search drivers cost one candidate per call and
    /// materialise only the survivors.
    ///
    /// `f` may itself act on the state (and open nested probes, which is
    /// how an MCTS rollout walks several steps deep); all of it is undone
    /// with the outer step. A state cloned inside `f` is an ordinary,
    /// permanent state.
    ///
    /// # Errors
    ///
    /// Fails as [`Partitioning::tile`] does, without calling `f`.
    pub fn probe<R>(
        &mut self,
        func: &Func,
        v: ValueId,
        dim: usize,
        axis: &Axis,
        f: impl FnOnce(&mut Partitioning) -> R,
    ) -> Result<R, CoreError> {
        let mark = self.journal.log.len();
        let fp = self.fp;
        let dirty_values = self.dirty_values.clone();
        let dirty_ops = self.dirty_ops.clone();
        self.journal.depth += 1;
        // A refused tile records nothing, so the rollback below is a no-op.
        let out = self.tile(func, v, dim, axis).map(|()| {
            self.propagate(func);
            f(self)
        });
        self.journal.depth -= 1;
        for undo in self.journal.log.drain(mark..).rev() {
            match undo {
                Undo::Value(v) => self.value_ctx[v.0 as usize].pop(),
                Undo::Op(op) => {
                    self.op_ctx[op.0 as usize].entries.pop();
                }
                Undo::Conflict(key, Some(before)) => {
                    self.conflicts.insert(key, before);
                }
                Undo::Conflict(key, None) => {
                    self.conflicts.remove(&key);
                }
            }
        }
        self.fp = fp;
        self.dirty_values = dirty_values;
        self.dirty_ops = dirty_ops;
        out
    }

    /// The tiling context of a value.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the function this state was
    /// created for.
    pub fn value_ctx(&self, v: ValueId) -> &ValueCtx {
        &self.value_ctx[v.0 as usize]
    }

    /// The loop context of an op.
    pub fn op_ctx(&self, op: OpId) -> &OpCtx {
        &self.op_ctx[op.0 as usize]
    }

    /// The device-local type of `v` under the current contexts.
    pub fn local_type(&self, func: &Func, v: ValueId) -> TensorType {
        self.value_ctx(v).local_type(func.value_type(v), &self.mesh)
    }

    /// The paper's `tile<value, dim, axis>` action: marks `v` as tiled on
    /// `dim` across `axis`.
    ///
    /// # Errors
    ///
    /// Fails if the axis is unknown, the value already uses the axis
    /// (nested loops over one axis are illegal), the value is atomic on
    /// the axis, or the (residual) dimension is not divisible.
    pub fn tile(
        &mut self,
        func: &Func,
        v: ValueId,
        dim: usize,
        axis: &Axis,
    ) -> Result<(), CoreError> {
        self.check_value(func, v)?;
        let axis_size = self.mesh.axis_size(axis)?;
        let ctx = &self.value_ctx[v.0 as usize];
        match ctx.entry(axis) {
            Some(ShardKind::Atomic) => return Err(CoreError::Atomic { axis: axis.clone() }),
            Some(ShardKind::Tile { .. }) => {
                return Err(CoreError::AxisAlreadyUsed {
                    axis: axis.clone(),
                    value: describe(func, v),
                })
            }
            None => {}
        }
        let ty = func.value_type(v);
        if dim >= ty.rank() {
            return Err(CoreError::BadTile {
                detail: format!("dim {dim} out of range for {ty}"),
            });
        }
        let local = ctx.local_shape(&ty.shape, &self.mesh);
        if !local.dim(dim).is_multiple_of(axis_size) {
            return Err(CoreError::BadTile {
                detail: format!(
                    "residual dim {dim} of size {} not divisible by axis {axis} of size {axis_size}",
                    local.dim(dim)
                ),
            });
        }
        self.record_value_entry(v, axis, ShardKind::Tile { dim });
        Ok(())
    }

    /// The paper's `atomic<value, axis>` action (§8): pins `v` replicated
    /// across `axis`, blocking propagation through it.
    ///
    /// # Errors
    ///
    /// Fails if the axis is unknown or already used by the value.
    pub fn atomic(&mut self, func: &Func, v: ValueId, axis: &Axis) -> Result<(), CoreError> {
        self.check_value(func, v)?;
        self.mesh.axis_size(axis)?;
        if self.value_ctx[v.0 as usize].contains_axis(axis) {
            return Err(CoreError::AxisAlreadyUsed {
                axis: axis.clone(),
                value: describe(func, v),
            });
        }
        self.record_value_entry(v, axis, ShardKind::Atomic);
        Ok(())
    }

    /// Runs propagation to a fixpoint (paper §5.2.2): greedily applies
    /// uniquely-matching TMR entries, introducing operand tilings by
    /// inference, and reports the sites left ambiguous.
    ///
    /// This is *incremental*: the worklist is seeded only from the
    /// neighbourhood (producer + users) of values and ops whose contexts
    /// changed since the previous call — actions taken through
    /// [`Partitioning::tile`]/[`Partitioning::atomic`]/
    /// [`Partitioning::apply_entry`]. Any op that can fire a new rewrite
    /// must see changed evidence on one of its operands or results, so
    /// seeding from the dirty neighbourhood reaches the same fixpoint as
    /// scanning the whole module; in debug builds this is checked against
    /// the [`Partitioning::propagate_full`] oracle after every call.
    pub fn propagate(&mut self, func: &Func) -> PropagationReport {
        partir_obs::counter!("core.propagate.dirty_values", self.dirty_values.len());
        partir_obs::counter!("core.propagate.dirty_ops", self.dirty_ops.len());
        let mut seeds: BTreeSet<OpId> = BTreeSet::new();
        for &v in &self.dirty_values {
            match func.value(v).def {
                ValueDef::OpResult { op, .. } | ValueDef::RegionParam { op, .. } => {
                    seeds.insert(op);
                }
                ValueDef::Param(_) => {}
            }
            for &u in &self.shared.uses[v.0 as usize] {
                seeds.insert(u);
            }
        }
        seeds.extend(self.dirty_ops.iter().copied());

        #[cfg(debug_assertions)]
        let oracle_input = self.clone();

        let report = self.run_worklist(func, seeds, true);

        // Oracle: the whole-module fixpoint from the same pre-state must
        // land on identical contexts, fingerprint and conflicts. It runs
        // untraced so debug and release builds record identical traces.
        #[cfg(debug_assertions)]
        {
            let mut oracle = oracle_input;
            oracle.run_worklist(func, func.op_ids().collect(), false);
            debug_assert_eq!(
                self.value_ctx, oracle.value_ctx,
                "incremental propagation diverged from the full fixpoint (value contexts)"
            );
            debug_assert_eq!(
                self.op_ctx, oracle.op_ctx,
                "incremental propagation diverged from the full fixpoint (op contexts)"
            );
            debug_assert_eq!(
                self.fp, oracle.fp,
                "incremental propagation diverged from the full fixpoint (fingerprint)"
            );
            debug_assert_eq!(
                self.conflicts, oracle.conflicts,
                "incremental propagation diverged from the full fixpoint (conflicts)"
            );
        }

        report
    }

    /// Whole-module propagation: seeds the worklist with every op instead
    /// of the dirty neighbourhood. Reaches the same fixpoint as
    /// [`Partitioning::propagate`]; kept as the reference implementation
    /// (and debug oracle) and for callers that constructed the state by
    /// other means.
    pub fn propagate_full(&mut self, func: &Func) -> PropagationReport {
        self.run_worklist(func, func.op_ids().collect(), true)
    }

    /// The shared worklist engine behind [`Partitioning::propagate`] and
    /// [`Partitioning::propagate_full`]. Processes ops smallest-id first
    /// (`BTreeSet::pop_first`), so runs that start from different seed
    /// sets but the same fireable rewrites apply them in the same order
    /// and produce identical entry orderings (hence fingerprints).
    /// `traced = false` suppresses observability output (used by the
    /// debug oracle so debug and release builds record identical traces);
    /// it never changes what the worklist computes.
    fn run_worklist(
        &mut self,
        func: &Func,
        seeds: BTreeSet<OpId>,
        traced: bool,
    ) -> PropagationReport {
        // One thread-local probe per propagation call, so the per-rule
        // dynamic counter names below are only formatted when recording.
        let traced = traced && partir_obs::current().is_some();
        let _span = traced.then(|| partir_obs::span_enter("core.propagate"));
        if traced {
            partir_obs::counter_add("core.propagate.seeds", seeds.len() as f64);
        }
        let mut report = PropagationReport::default();
        let axes: Vec<Axis> = self.mesh.axis_names().cloned().collect();
        // Local handle on the per-function tables, so reading them does
        // not hold a borrow of `self` across the rewrites below.
        let shared = Arc::clone(&self.shared);
        let tmr = shared.tmr(func);
        let mut queue = seeds;
        let mut touched: BTreeSet<OpId> = queue.clone();
        let mut pops = 0u64;
        let mut fires: BTreeMap<&'static str, u64> = BTreeMap::new();
        // Values whose context one visit extended; reused across visits.
        let mut changed: Vec<ValueId> = Vec::new();

        while let Some(op) = queue.pop_first() {
            pops += 1;
            let applied_before = report.applied;
            for axis in &axes {
                changed.clear();
                if func.op(op).region.is_some() {
                    self.unify_for(func, op, axis, &mut changed);
                } else if self.try_rewrite(func, tmr.of(op), op, axis, &mut changed) {
                    report.applied += 1;
                }
                for &v in &changed {
                    // Revisit the producer and all users of every value
                    // whose context we extended.
                    match func.value(v).def {
                        ValueDef::OpResult { op, .. } | ValueDef::RegionParam { op, .. } => {
                            queue.insert(op);
                            touched.insert(op);
                        }
                        ValueDef::Param(_) => {}
                    }
                    for &u in &shared.uses[v.0 as usize] {
                        queue.insert(u);
                        touched.insert(u);
                    }
                    report.inferred += 1;
                }
            }
            if traced && report.applied > applied_before {
                *fires.entry(func.op(op).kind.name()).or_insert(0) +=
                    (report.applied - applied_before) as u64;
            }
        }

        // Conflict maintenance: only ops visited this run, plus ops that
        // were ambiguous before, can have changed ambiguity (a candidate
        // set depends solely on the op's operand/result contexts and its
        // own loop context, all of which only change when the op is
        // touched).
        let conflicted: Vec<OpId> = self.conflicts.keys().map(|&(op, _)| op).collect();
        for op in touched.into_iter().chain(conflicted) {
            if func.op(op).region.is_some() {
                continue;
            }
            for (ai, axis) in axes.iter().enumerate() {
                let key = (op, ai);
                let ambiguous = !self.op_ctx[op.0 as usize].contains_axis(axis)
                    && self.matching(func, tmr.of(op), op, axis).nth(1).is_some();
                if ambiguous {
                    let candidates: Vec<TmrEntry> =
                        self.matching(func, tmr.of(op), op, axis).cloned().collect();
                    if self.conflicts.get(&key) != Some(&candidates) {
                        self.set_conflict(key, Some(candidates));
                    }
                } else if self.conflicts.contains_key(&key) {
                    self.set_conflict(key, None);
                }
            }
        }
        for (&(op, ai), candidates) in &self.conflicts {
            report.conflicts.push(Conflict {
                op,
                axis: axes[ai].clone(),
                candidates: candidates.clone(),
            });
        }

        self.dirty_values.clear();
        self.dirty_ops.clear();
        if traced {
            partir_obs::counter_add("core.propagate.pops", pops as f64);
            partir_obs::counter_add("core.propagate.rewrites", report.applied as f64);
            partir_obs::counter_add("core.propagate.inferred", report.inferred as f64);
            partir_obs::counter_add("core.propagate.conflicts", report.conflicts.len() as f64);
            for (kind, n) in fires {
                partir_obs::counter_add(format!("core.rewrite.{kind}"), n as f64);
            }
        }
        report
    }

    /// The candidate TMR entries for rewriting `op` along `axis` under
    /// the current evidence — the public variant used by external tools
    /// (e.g. a GSPMD-style baseline) that resolve conflicts themselves.
    pub fn candidate_entries(&self, func: &Func, op: OpId, axis: &Axis) -> Vec<TmrEntry> {
        if self.op_ctx[op.0 as usize].contains_axis(axis) {
            return Vec::new();
        }
        self.matching(func, self.shared.tmr(func).of(op), op, axis)
            .cloned()
            .collect()
    }

    /// Force-applies one TMR entry to `op` along `axis`, performing the
    /// same inference-tiling a unique propagation match would. This is the
    /// hook heuristic conflict resolvers (GSPMD-style baselines) use;
    /// PartIR itself never calls it.
    ///
    /// # Errors
    ///
    /// Fails if the op already uses the axis or the entry's tilings are
    /// inconsistent with current contexts.
    pub fn apply_entry(
        &mut self,
        func: &Func,
        op: OpId,
        axis: &Axis,
        entry: &TmrEntry,
    ) -> Result<(), CoreError> {
        if self.op_ctx[op.0 as usize].contains_axis(axis) {
            return Err(CoreError::AxisAlreadyUsed {
                axis: axis.clone(),
                value: format!("op {op:?}"),
            });
        }
        let data = func.op(op);
        for (i, &need) in entry.operands.iter().enumerate() {
            let operand = data.operands[i];
            if let Some(d) = need {
                match self.value_ctx[operand.0 as usize].entry(axis) {
                    Some(ShardKind::Tile { dim }) if dim == d => {}
                    Some(_) => {
                        return Err(CoreError::invalid(format!(
                            "operand {i} context incompatible with entry"
                        )))
                    }
                    None => {
                        if !self.can_tile(func, operand, d, axis) {
                            return Err(CoreError::BadTile {
                                detail: format!("operand {i} cannot tile dim {d}"),
                            });
                        }
                        self.record_value_entry(operand, axis, ShardKind::Tile { dim: d });
                    }
                }
            }
        }
        if let ResultAction::Tile(d) = entry.result {
            let result = data.results[0];
            match self.value_ctx[result.0 as usize].entry(axis) {
                Some(ShardKind::Tile { dim }) if dim == d => {}
                Some(_) => {
                    return Err(CoreError::invalid(
                        "result context incompatible with entry".to_string(),
                    ))
                }
                None => {
                    if !self.can_tile(func, result, d, axis) {
                        return Err(CoreError::BadTile {
                            detail: format!("result cannot tile dim {d}"),
                        });
                    }
                    self.record_value_entry(result, axis, ShardKind::Tile { dim: d });
                }
            }
        }
        self.record_op_entry(op, axis, entry);
        Ok(())
    }

    /// Whether a value can acquire `Tile{dim}` on `axis` right now.
    fn can_tile(&self, func: &Func, v: ValueId, dim: usize, axis: &Axis) -> bool {
        let ty = func.value_type(v);
        if dim >= ty.rank() {
            return false;
        }
        let ctx = &self.value_ctx[v.0 as usize];
        if ctx.contains_axis(axis) {
            return false;
        }
        let axis_size = match self.mesh.axis_size(axis) {
            Ok(s) => s,
            Err(_) => return false,
        };
        ctx.local_dim(&ty.shape, dim, &self.mesh)
            .is_multiple_of(axis_size)
    }

    /// The entries of `row` (the TMR row of `op`) that can rewrite `op`
    /// along `axis` under the current evidence. Exactly one match means
    /// propagation can fire; more than one is a conflict. The matches
    /// borrow from the row, not from `self`.
    fn matching<'s, 't>(
        &'s self,
        func: &'s Func,
        row: &'t [TmrEntry],
        op: OpId,
        axis: &'s Axis,
    ) -> impl Iterator<Item = &'t TmrEntry> + use<'s, 't> {
        let data = func.op(op);
        let result_obs = match data.results[..] {
            [result] => self.value_ctx[result.0 as usize].entry(axis),
            _ => None,
        };
        // Ops without exactly one result, or whose result is pinned on
        // the axis, match nothing.
        let row = if data.results.len() == 1 && result_obs != Some(ShardKind::Atomic) {
            row
        } else {
            &row[..0]
        };
        row.iter()
            .filter(move |entry| self.entry_matches(func, data, entry, axis, result_obs))
    }

    /// Whether one TMR entry is consistent with the contexts of `data`'s
    /// operands and result along `axis`, and backed by at least one
    /// observed tiling.
    fn entry_matches(
        &self,
        func: &Func,
        data: &OpData,
        entry: &TmrEntry,
        axis: &Axis,
        result_obs: Option<ShardKind>,
    ) -> bool {
        let mut evidence = false;
        match entry.result {
            ResultAction::Tile(d) => match result_obs {
                Some(ShardKind::Tile { dim }) if dim == d => evidence = true,
                Some(_) => return false,
                None => {
                    if !self.can_tile(func, data.results[0], d, axis) {
                        return false;
                    }
                }
            },
            ResultAction::Reduce(_) => {
                // A reduction produces the full result; any downstream
                // slicing of the result is reconciled at lowering
                // (all_reduce + all_slice fuse to reduce_scatter).
            }
        }
        for (i, &need) in entry.operands.iter().enumerate() {
            let operand = data.operands[i];
            let obs = self.value_ctx[operand.0 as usize].entry(axis);
            match (need, obs) {
                (Some(d), Some(ShardKind::Tile { dim })) if dim == d => evidence = true,
                (Some(_), Some(_)) => return false,
                (Some(d), None) => {
                    // Required inferred tilings must agree per value, so
                    // that an op using one value in two slots stays
                    // consistent: an earlier slot of the same value
                    // already fixed (and checked) the dimension.
                    let earlier = (0..i).find_map(|j| {
                        (data.operands[j] == operand)
                            .then_some(entry.operands[j])
                            .flatten()
                    });
                    match earlier {
                        Some(prev) if prev != d => return false,
                        Some(_) => {}
                        None => {
                            if !self.can_tile(func, operand, d, axis) {
                                return false;
                            }
                        }
                    }
                }
                (None, _) => {}
            }
        }
        evidence
    }

    /// Attempts one rewrite of `op` (whose TMR row is `row`) along
    /// `axis`, appending the values whose contexts were extended to
    /// `changed`. Returns whether the rewrite fired.
    fn try_rewrite(
        &mut self,
        func: &Func,
        row: &[TmrEntry],
        op: OpId,
        axis: &Axis,
        changed: &mut Vec<ValueId>,
    ) -> bool {
        if self.op_ctx[op.0 as usize].contains_axis(axis) {
            return false;
        }
        let entry = {
            let mut matches = self.matching(func, row, op, axis);
            match (matches.next(), matches.next()) {
                (Some(only), None) => only,
                _ => return false,
            }
        };
        let data = func.op(op);
        let result = data.results[0];
        for (i, &need) in entry.operands.iter().enumerate() {
            let operand = data.operands[i];
            if let Some(d) = need {
                if self.value_ctx[operand.0 as usize].entry(axis).is_none() {
                    self.record_value_entry(operand, axis, ShardKind::Tile { dim: d });
                    changed.push(operand);
                }
            }
        }
        if let ResultAction::Tile(d) = entry.result {
            if self.value_ctx[result.0 as usize].entry(axis).is_none() {
                self.record_value_entry(result, axis, ShardKind::Tile { dim: d });
                changed.push(result);
            }
        }
        self.record_op_entry(op, axis, entry);
        true
    }

    /// Unifies contexts across a `for` op boundary: each carried tuple
    /// (init, region param, yielded value, result) must share its tiling.
    fn unify_for(&mut self, func: &Func, op: OpId, axis: &Axis, changed: &mut Vec<ValueId>) {
        let data = func.op(op);
        let Some(region) = &data.region else {
            return;
        };
        for i in 0..data.operands.len() {
            let group = [
                data.operands[i],
                region.params[i + 1],
                region.results[i],
                data.results[i],
            ];
            let mut tile_dim: Option<usize> = None;
            let mut atomic = false;
            let mut consistent = true;
            for &v in &group {
                match self.value_ctx[v.0 as usize].entry(axis) {
                    Some(ShardKind::Tile { dim }) => match tile_dim {
                        Some(d) if d != dim => consistent = false,
                        _ => tile_dim = Some(dim),
                    },
                    Some(ShardKind::Atomic) => atomic = true,
                    None => {}
                }
            }
            if !consistent || (atomic && tile_dim.is_some()) {
                continue; // mixed intents: leave for lowering to reconcile
            }
            if atomic {
                for &v in &group {
                    if !self.value_ctx[v.0 as usize].contains_axis(axis) {
                        self.record_value_entry(v, axis, ShardKind::Atomic);
                        changed.push(v);
                    }
                }
            } else if let Some(d) = tile_dim {
                if group.iter().all(|&v| {
                    self.value_ctx[v.0 as usize].contains_axis(axis)
                        || self.can_tile(func, v, d, axis)
                }) {
                    for &v in &group {
                        if !self.value_ctx[v.0 as usize].contains_axis(axis) {
                            self.record_value_entry(v, axis, ShardKind::Tile { dim: d });
                            changed.push(v);
                        }
                    }
                }
            }
        }
    }

    fn check_value(&self, func: &Func, v: ValueId) -> Result<(), CoreError> {
        if v.0 as usize >= self.num_values || func.num_values() != self.num_values {
            return Err(CoreError::invalid(format!(
                "value {v:?} does not belong to the partitioned function"
            )));
        }
        Ok(())
    }
}

fn describe(func: &Func, v: ValueId) -> String {
    match &func.value(v).name {
        Some(n) => format!("%{n}"),
        None => format!("%{}", v.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{FuncBuilder, TensorType};

    fn matmul_chain() -> (Func, [ValueId; 4]) {
        let mut b = FuncBuilder::new("main");
        let x = b.param("x", TensorType::f32([256, 8]));
        let w1 = b.param("w1", TensorType::f32([8, 16]));
        let w2 = b.param("w2", TensorType::f32([16, 8]));
        let h = b.matmul(x, w1).unwrap();
        let y = b.matmul(h, w2).unwrap();
        let f = b.build([y]).unwrap();
        (f, [x, w1, w2, y])
    }

    fn mesh_bm() -> Mesh {
        Mesh::new([("B", 4), ("M", 2)]).unwrap()
    }

    #[test]
    fn batch_parallelism_propagates_forward() {
        let (f, [x, w1, w2, y]) = matmul_chain();
        let mut p = Partitioning::new(&f, mesh_bm()).unwrap();
        p.tile(&f, x, 0, &"B".into()).unwrap();
        let report = p.propagate(&f);
        assert!(report.conflicts.is_empty());
        assert_eq!(
            p.value_ctx(y).entry(&"B".into()),
            Some(ShardKind::Tile { dim: 0 })
        );
        // Weights stay replicated.
        assert!(p.value_ctx(w1).is_empty());
        assert!(p.value_ctx(w2).is_empty());
        // Both matmuls acquired the B loop.
        assert_eq!(p.op_ctx(f.body()[0]).entries().len(), 1);
        assert_eq!(p.op_ctx(f.body()[1]).entries().len(), 1);
    }

    #[test]
    fn megatron_inference_from_w2_tiling() {
        // Tiling w2 on its contracting dim infers the matching tiling of
        // the intermediate, yielding a #sum context (paper §5.2.2).
        let (f, [x, w1, w2, _y]) = matmul_chain();
        let mut p = Partitioning::new(&f, mesh_bm()).unwrap();
        p.tile(&f, x, 0, &"B".into()).unwrap();
        p.propagate(&f);
        p.tile(&f, w1, 1, &"M".into()).unwrap();
        let report = p.propagate(&f);
        assert!(report.conflicts.is_empty());
        // w2 inferred tiled on dim 0 along M.
        assert_eq!(
            p.value_ctx(w2).entry(&"M".into()),
            Some(ShardKind::Tile { dim: 0 })
        );
        // Second matmul reduces over M.
        let second = f.body()[1];
        assert!(p.op_ctx(second).reduces());
        assert_eq!(
            p.value_ctx(x).entries().len(),
            1 // only B
        );
    }

    #[test]
    fn single_tactic_double_tiling_conflicts() {
        // Tiling x(0) and w1(1) along the same axis before propagating
        // matches two TMR entries: the §5.2.3 conflict.
        let (f, [x, w1, _, _]) = matmul_chain();
        let mut p = Partitioning::new(&f, Mesh::single("B", 4).unwrap()).unwrap();
        p.tile(&f, x, 0, &"B".into()).unwrap();
        p.tile(&f, w1, 1, &"B".into()).unwrap();
        let report = p.propagate(&f);
        assert!(!report.conflicts.is_empty());
        let c = &report.conflicts[0];
        assert_eq!(c.op, f.body()[0]);
        assert_eq!(c.candidates.len(), 2);
    }

    #[test]
    fn incremental_tiling_resolves_the_same_conflict() {
        // Same actions, but propagating between them (two tactics): the
        // matmul joins the B loop first, the later w1 tiling is then
        // blocked by the nesting rule — Z3-style prioritisation.
        let (f, [x, w1, _, _]) = matmul_chain();
        let mut p = Partitioning::new(&f, Mesh::single("B", 4).unwrap()).unwrap();
        p.tile(&f, x, 0, &"B".into()).unwrap();
        let r1 = p.propagate(&f);
        assert!(r1.conflicts.is_empty());
        p.tile(&f, w1, 1, &"B".into()).unwrap();
        let r2 = p.propagate(&f);
        assert!(r2.conflicts.is_empty());
        // w1 is stored tiled but the matmul kept its batch-loop context.
        assert_eq!(
            p.value_ctx(w1).entry(&"B".into()),
            Some(ShardKind::Tile { dim: 1 })
        );
        let first = f.body()[0];
        assert_eq!(p.op_ctx(first).entries().len(), 1);
        assert_eq!(
            p.op_ctx(first).entry(&"B".into()).unwrap().operands,
            vec![Some(0), None]
        );
    }

    #[test]
    fn atomic_blocks_inference() {
        // add(p, u) with u tiled would infer p tiled; atomic prevents it.
        let mut b = FuncBuilder::new("f");
        let param = b.param("p", TensorType::f32([8]));
        let update = b.param("u", TensorType::f32([8]));
        let new_p = b.sub(param, update).unwrap();
        let f = b.build([new_p]).unwrap();
        let mesh = Mesh::single("B", 4).unwrap();
        let mut p = Partitioning::new(&f, mesh).unwrap();
        p.atomic(&f, param, &"B".into()).unwrap();
        p.tile(&f, update, 0, &"B".into()).unwrap();
        let report = p.propagate(&f);
        assert!(report.conflicts.is_empty());
        // Op acquired no context; result stays replicated.
        assert!(p.op_ctx(f.body()[0]).entries().is_empty());
        assert_eq!(p.value_ctx(new_p).entry(&"B".into()), None);
        assert_eq!(
            p.value_ctx(param).entry(&"B".into()),
            Some(ShardKind::Atomic)
        );
    }

    #[test]
    fn backward_propagation_from_result_tiling() {
        let (f, [x, _, _, y]) = matmul_chain();
        let mut p = Partitioning::new(&f, mesh_bm()).unwrap();
        p.tile(&f, y, 0, &"B".into()).unwrap();
        let report = p.propagate(&f);
        assert!(report.conflicts.is_empty());
        assert_eq!(
            p.value_ctx(x).entry(&"B".into()),
            Some(ShardKind::Tile { dim: 0 })
        );
    }

    #[test]
    fn tile_validates_divisibility_and_duplicates() {
        let (f, [x, ..]) = matmul_chain();
        let mesh = Mesh::new([("B", 3)]).unwrap(); // 256 % 3 != 0
        let mut p = Partitioning::new(&f, mesh).unwrap();
        assert!(matches!(
            p.tile(&f, x, 0, &"B".into()),
            Err(CoreError::BadTile { .. })
        ));
        let mut p = Partitioning::new(&f, mesh_bm()).unwrap();
        p.tile(&f, x, 0, &"B".into()).unwrap();
        assert!(matches!(
            p.tile(&f, x, 1, &"B".into()),
            Err(CoreError::AxisAlreadyUsed { .. })
        ));
        assert!(matches!(
            p.tile(&f, x, 5, &"M".into()),
            Err(CoreError::BadTile { .. })
        ));
        assert!(matches!(
            p.tile(&f, x, 0, &"Z".into()),
            Err(CoreError::UnknownAxis(_))
        ));
    }

    #[test]
    fn deep_tiling_composes_across_axes() {
        let (f, [x, ..]) = matmul_chain();
        let mut p = Partitioning::new(&f, mesh_bm()).unwrap();
        p.tile(&f, x, 0, &"B".into()).unwrap();
        p.tile(&f, x, 0, &"M".into()).unwrap(); // further tiling of dim 0
        let local = p.local_type(&f, x);
        assert_eq!(local.shape.dims(), &[32, 8]); // 256 / (4*2)
    }

    #[test]
    fn inference_through_elementwise_chains() {
        // Optimizer-state pattern: m tiled infers g tiled through the
        // element-wise update arithmetic.
        let mut b = FuncBuilder::new("adam");
        let m = b.param("m", TensorType::f32([8]));
        let g = b.param("g", TensorType::f32([8]));
        let gm = b.add(m, g).unwrap();
        let upd = b.mul(gm, gm).unwrap();
        let f = b.build([upd]).unwrap();
        let mesh = Mesh::single("B", 2).unwrap();
        let mut p = Partitioning::new(&f, mesh).unwrap();
        p.tile(&f, m, 0, &"B".into()).unwrap();
        let report = p.propagate(&f);
        assert!(report.conflicts.is_empty());
        assert_eq!(
            p.value_ctx(g).entry(&"B".into()),
            Some(ShardKind::Tile { dim: 0 })
        );
        assert_eq!(
            p.value_ctx(upd).entry(&"B".into()),
            Some(ShardKind::Tile { dim: 0 })
        );
    }

    #[test]
    fn for_loop_unifies_carried_tilings() {
        let mut b = FuncBuilder::new("serve");
        let x = b.param("x", TensorType::f32([8, 4]));
        let out = b
            .for_loop(3, &[x], |b, _i, c| Ok(vec![b.neg(c[0])?]))
            .unwrap();
        let f = b.build(out.clone()).unwrap();
        let mesh = Mesh::single("B", 2).unwrap();
        let mut p = Partitioning::new(&f, mesh).unwrap();
        p.tile(&f, x, 0, &"B".into()).unwrap();
        let report = p.propagate(&f);
        assert!(report.conflicts.is_empty());
        assert_eq!(
            p.value_ctx(out[0]).entry(&"B".into()),
            Some(ShardKind::Tile { dim: 0 })
        );
        // The neg op inside the region runs tiled too.
        let neg_op = f
            .op_ids()
            .find(|&o| matches!(f.op(o).kind, partir_ir::OpKind::Unary(_)))
            .unwrap();
        assert_eq!(p.op_ctx(neg_op).entries().len(), 1);
    }

    #[test]
    fn fingerprint_tracks_decisions() {
        let (f, [x, w1, ..]) = matmul_chain();
        let base = Partitioning::new(&f, mesh_bm()).unwrap().fingerprint();

        let mut p = Partitioning::new(&f, mesh_bm()).unwrap();
        assert_eq!(p.fingerprint(), base);
        p.tile(&f, x, 0, &"B".into()).unwrap();
        let after_tile = p.fingerprint();
        assert_ne!(after_tile, base);
        p.propagate(&f);
        assert_ne!(p.fingerprint(), after_tile);

        // Same decisions ⇒ same fingerprint.
        let mut q = Partitioning::new(&f, mesh_bm()).unwrap();
        q.tile(&f, x, 0, &"B".into()).unwrap();
        q.propagate(&f);
        assert_eq!(p.fingerprint(), q.fingerprint());

        // Divergent decisions ⇒ different fingerprints.
        let mut r = Partitioning::new(&f, mesh_bm()).unwrap();
        r.tile(&f, w1, 1, &"M".into()).unwrap();
        r.propagate(&f);
        assert_ne!(p.fingerprint(), r.fingerprint());
    }

    #[test]
    fn fingerprint_is_order_independent_across_slots() {
        // Actions on distinct values commute: each decision hash encodes
        // its slot and its position within that slot's entry list, not the
        // global interleaving.
        let (f, [x, w1, ..]) = matmul_chain();
        let mut p = Partitioning::new(&f, mesh_bm()).unwrap();
        p.tile(&f, x, 0, &"B".into()).unwrap();
        p.tile(&f, w1, 1, &"M".into()).unwrap();
        let mut q = Partitioning::new(&f, mesh_bm()).unwrap();
        q.tile(&f, w1, 1, &"M".into()).unwrap();
        q.tile(&f, x, 0, &"B".into()).unwrap();
        assert_eq!(p.fingerprint(), q.fingerprint());

        // ...but entry order *within* one value is significant.
        let mut a = Partitioning::new(&f, mesh_bm()).unwrap();
        a.tile(&f, x, 0, &"B".into()).unwrap();
        a.tile(&f, x, 1, &"M".into()).unwrap();
        let mut b = Partitioning::new(&f, mesh_bm()).unwrap();
        b.tile(&f, x, 1, &"M".into()).unwrap();
        b.tile(&f, x, 0, &"B".into()).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_depends_on_function_and_mesh() {
        let (f, _) = matmul_chain();
        let p = Partitioning::new(&f, mesh_bm()).unwrap();
        let q = Partitioning::new(&f, Mesh::new([("B", 2), ("M", 4)]).unwrap()).unwrap();
        assert_ne!(p.fingerprint(), q.fingerprint());

        let mut b2 = FuncBuilder::new("other");
        let x = b2.param("x", TensorType::f32([256, 8]));
        let f2 = b2.build([x]).unwrap();
        let r = Partitioning::new(&f2, mesh_bm()).unwrap();
        assert_ne!(p.fingerprint(), r.fingerprint());
    }

    #[test]
    fn incremental_propagate_matches_full_after_staged_actions() {
        // Exercise the worklist seeding across several propagate rounds
        // interleaved with actions; the release-build check (debug builds
        // also assert this internally on every call).
        let (f, [x, w1, w2, y]) = matmul_chain();
        let mut inc = Partitioning::new(&f, mesh_bm()).unwrap();
        let mut full = Partitioning::new(&f, mesh_bm()).unwrap();
        for (v, dim, axis) in [(x, 0, "B"), (w1, 1, "M"), (w2, 0, "M")] {
            let _ = inc.tile(&f, v, dim, &axis.into());
            let _ = full.tile(&f, v, dim, &axis.into());
            let ri = inc.propagate(&f);
            let rf = full.propagate_full(&f);
            assert_eq!(ri.conflicts, rf.conflicts);
        }
        assert_eq!(inc.fingerprint(), full.fingerprint());
        for v in f.value_ids() {
            assert_eq!(inc.value_ctx(v), full.value_ctx(v));
        }
        assert_eq!(
            inc.value_ctx(y).entry(&"B".into()),
            Some(ShardKind::Tile { dim: 0 })
        );
    }

    #[test]
    fn transpose_diagonal_conflict_needs_atomic_tag() {
        // Paper §8: matmul(x, transpose(x)) — tiling x on dim 0 makes the
        // transpose tiled on dim 1, a conflict at the matmul.
        let mut b = FuncBuilder::new("diag");
        let x = b.param("x", TensorType::f32([8, 8]));
        let t = b.transpose(x, vec![1, 0]).unwrap();
        let y = b.matmul(x, t).unwrap();
        let f = b.build([y]).unwrap();
        let mesh = Mesh::single("M", 2).unwrap();

        let mut p = Partitioning::new(&f, mesh.clone()).unwrap();
        p.tile(&f, x, 0, &"M".into()).unwrap();
        let report = p.propagate(&f);
        assert_eq!(report.conflicts.len(), 1);

        // Applying atomic on the transposed value resolves the ambiguity.
        let mut p = Partitioning::new(&f, mesh).unwrap();
        p.atomic(&f, t, &"M".into()).unwrap();
        p.tile(&f, x, 0, &"M".into()).unwrap();
        let report = p.propagate(&f);
        assert!(report.conflicts.is_empty());
        // The matmul runs batch-tiled on dim 0; the transpose operand will
        // be all-gathered at lowering.
        let matmul = f.body()[1];
        assert_eq!(
            p.op_ctx(matmul).entry(&"M".into()).unwrap().operands,
            vec![Some(0), None]
        );
    }
}
