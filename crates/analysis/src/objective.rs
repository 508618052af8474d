//! The static search objective (TOAST-style): per-candidate cost read
//! straight off a propagated [`Partitioning`] — no `spmd::lower`, no
//! `sim::evaluate`.
//!
//! The analytical simulator is exact but expensive per candidate: every
//! evaluation builds the device-local function (lowering), rebuilds it
//! again (collective fusion), and only then walks it. This module walks
//! the *original* function once instead, replaying lowering and fusion
//! cost-only:
//!
//! * per operand, the reshard from its stored layout (value context) to
//!   the layout the op's loop context requires, split by
//!   [`reshard_split`]: the gather is costed with the staged ring
//!   `all_gather` formula, the slice is free;
//! * `#sum` contexts cost a ring `all_reduce`, or the `reduce_scatter`
//!   form [`fuse_reduce_slice`] gives when a slice follows;
//! * the gather∘slice fusion ([`fuse_gather_slice`]: cancel or
//!   `all_to_all`) applied inside each reshard, *and across op
//!   boundaries*: when a producer's chain ends in a bare gather/reduce
//!   whose stored value has exactly one non-escaping, same-body use that
//!   reshards by pure slicing, the fusion rules are applied to the pair;
//! * compute costed with the roofline model (local shapes derived from
//!   the layouts, never materialised as IR);
//! * peak memory bounded by the shared walk ([`crate::memory::PeakWalk`])
//!   charging device-local sizes, plus the largest gather temporary
//!   alive at each op.
//!
//! Neither *what* a collective stage, an op or an over-budget peak costs
//! nor *which* collectives a reshard or fusion yields is restated here:
//! the formulas are calls into [`crate::cost`], the same functions the
//! simulator calls, and the rules are the [`crate::layout`] functions
//! `spmd::lower` and `spmd::fuse` call, instantiated on packed layouts.
//! What this module owns is the structural replay — where lowering and
//! fusion would put collectives.
//!
//! A search evaluates thousands of candidates of *one* function, so the
//! work is split accordingly: [`StaticObjective`] precomputes everything
//! that depends only on the function (dead-code liveness, the
//! memory-walk linearisation, use sites for cross-op fusion, roofline
//! terms of fully-replicated ops), and [`StaticObjective::cost`] walks
//! one candidate with packed copy-only layouts (axes resolved to small
//! integer ids once per call, fixed-size stacks instead of heap
//! `Vec<Axis>`). Fully replicated ops — the common case away from the
//! sharded data path — take a precomputed fast path.
//!
//! `tests/objective_prop.rs` pins the replay to the simulator's walk of
//! the lowered program: wire bytes equal on every Table 2 cell, rank
//! agreement on random states, and a deliberately mis-weighted
//! objective caught by the same tests (the mutation check).
//!
//! On top of the cost, [`equivalence_classes`] groups candidate
//! `tile(value, dim, axis)` actions whose *propagated* fingerprints
//! coincide: different actions frequently converge to the same state
//! after propagation, and each class only needs to be costed (and later
//! simulator-rescored) once.

use std::collections::HashSet;

use partir_core::{OpAxisCtx, Partitioning, ResultAction, ShardKind};
use partir_ir::{Fingerprint, Func, IrError, OpId, OpKind, ValueId};
use partir_mesh::{Axis, HardwareConfig};

use crate::cost::{
    oom_penalty, op_class, op_flops, ring_time, OpClass, RingKind, Roofline, ShapeView,
    MATMUL_EFFICIENCY,
};
use crate::layout::{
    fuse_gather_slice, fuse_reduce_slice, reshard_split, AxisStacks, GatherSlice, ReduceSlice,
};
use crate::memory::PeakWalk;

/// Maximum tensor rank the packed layouts carry (split-head attention
/// tensors are rank 5, the largest in the zoo). Kept tight: candidate
/// costing copies and compares `Layout`/`LocalShape` values in its
/// innermost loop, so struct size is throughput.
/// [`StaticObjective::cost`] errors beyond it.
const MAX_RANK: usize = 6;

/// Maximum operands of a non-`for` op the per-op operand arrays carry
/// (`dynamic_update_slice` at [`MAX_RANK`] takes eight; only a wider
/// `concatenate` exceeds it). [`StaticObjective::cost`] errors beyond it.
const MAX_OPERANDS: usize = 8;

/// Maximum mesh axes (each axis tiles at most one dimension of a value,
/// so this also bounds any per-dimension axis stack). Batch, model,
/// pipeline and expert parallelism fit in four; `Eval::new` errors on
/// wider meshes.
const MAX_AXES: usize = 4;

/// One dimension's axis stack, outer-to-inner, as mesh-axis ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Stack {
    len: u8,
    ax: [u8; MAX_AXES],
}

impl Stack {
    fn push(&mut self, id: u8) {
        self.ax[self.len as usize] = id;
        self.len += 1;
    }

    pub(crate) fn axes(&self) -> &[u8] {
        &self.ax[..self.len as usize]
    }
}

impl Extend<u8> for Stack {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, ids: I) {
        for id in ids {
            self.push(id);
        }
    }
}

/// Per-dimension slicing stacks of a value (outer-to-inner order), the
/// same shape `all_gather`/`all_slice` collectives carry — packed so a
/// candidate walk never touches the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Layout {
    rank: u8,
    dims: [Stack; MAX_RANK],
}

impl Layout {
    fn dims(&self) -> &[Stack] {
        &self.dims[..self.rank as usize]
    }
}

impl AxisStacks for Layout {
    type Axis = u8;

    fn rank(&self) -> usize {
        self.rank as usize
    }

    fn stack(&self, d: usize) -> &[u8] {
        self.dims[d].axes()
    }

    fn empty(rank: usize) -> Self {
        Layout {
            rank: rank as u8,
            dims: [Stack::default(); MAX_RANK],
        }
    }

    fn push(&mut self, d: usize, id: u8) {
        self.dims[d].push(id);
    }

    // The candidate walk asks this several times per op: read the
    // lengths without building per-dimension slices.
    fn has_axes(&self) -> bool {
        self.dims().iter().any(|s| s.len != 0)
    }
}

/// A device-local shape (dimensions already divided by tiling axes).
/// Dims are `u32`: single-tensor dimensions beyond 4 billion would
/// overflow byte sizes long before they got here.
#[derive(Debug, Clone, Copy, Default)]
struct LocalShape {
    rank: u8,
    dim: [u32; MAX_RANK],
}

impl ShapeView for LocalShape {
    fn num_elements(&self) -> f64 {
        self.dim[..self.rank as usize]
            .iter()
            .map(|&d| d as f64)
            .product()
    }

    fn dim(&self, d: usize) -> usize {
        self.dim[d] as usize
    }
}

/// The static objective's one tunable, kept for the mutation tests: a
/// mis-weighted objective must lose rank agreement with the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectiveConfig {
    /// Multiplier on all communication seconds.
    pub comm_weight: f64,
}

impl Default for ObjectiveConfig {
    fn default() -> Self {
        ObjectiveConfig { comm_weight: 1.0 }
    }
}

/// The static objective's estimate for one candidate partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StaticCost {
    /// Roofline compute seconds (device-local shapes).
    pub compute_s: f64,
    /// Ring-collective communication seconds.
    pub comm_s: f64,
    /// Bytes on the wire per device per step.
    pub comm_bytes: f64,
    /// Liveness-walk peak device memory bound, bytes.
    pub peak_memory_bytes: u64,
}

impl StaticCost {
    /// Estimated step time, seconds.
    pub fn runtime_s(&self) -> f64 {
        self.compute_s + self.comm_s
    }

    /// The scalar the search minimises — same shape as
    /// `partir_sim::Evaluation::cost`: runtime with a multiplicative
    /// penalty once the memory bound exceeds device HBM.
    pub fn cost(&self, hw: &HardwareConfig) -> f64 {
        self.runtime_s() * oom_penalty(self.peak_memory_bytes, hw.device.hbm_bytes)
    }
}

/// Statically costs `part` on `hw` with the default configuration.
///
/// One-shot convenience over [`StaticObjective`]; searches evaluating
/// many candidates of one function should build the objective once and
/// call [`StaticObjective::cost`] per candidate.
///
/// # Errors
///
/// Fails when a context references an axis missing from the mesh or
/// topology (impossible for states produced by `tile`/`propagate`), or
/// when the function exceeds the packed walk's rank or operand-count
/// bound.
pub fn static_cost(
    func: &Func,
    part: &Partitioning,
    hw: &HardwareConfig,
) -> Result<StaticCost, IrError> {
    StaticObjective::new(func).cost(part, hw)
}

/// Hardware-independent roofline terms of one op on its *global*
/// (replicated) shapes — the fast path for unsharded ops.
#[derive(Debug, Clone, Copy)]
struct ReplCost {
    flops: f64,
    bytes: f64,
    class: OpClass,
}

/// Where a value's stored form is consumed (for cross-op fusion).
#[derive(Debug, Clone, Copy, Default)]
enum UseSite {
    #[default]
    None,
    /// Operand slot `slot` of `op`; the required layout comes from the
    /// op's loop context.
    Operand { op: OpId, slot: u32 },
    /// A loop-boundary reshard (`for` init or yield); the required
    /// layout is the stored layout of region param `param`.
    Boundary { param: ValueId },
}

/// Structural use summary of one value — counts, escape flag and the
/// first use site. Candidate-independent; the layout comparison that
/// decides fusion eligibility happens per candidate.
#[derive(Debug, Clone, Copy, Default)]
struct UseInfo {
    count: u32,
    escapes: bool,
    site: UseSite,
    site_body: u32,
}

/// The reusable half of the static objective: everything that depends
/// only on the function, computed once and shared across every
/// candidate a search evaluates.
pub struct StaticObjective<'f> {
    func: &'f Func,
    cfg: ObjectiveConfig,
    /// Values transitively needed by the function results. The fusion
    /// pass eliminates dead code before the simulator runs (train steps
    /// carry dead input-gradient chains, for example), so the static
    /// walk must skip dead ops too.
    live: Vec<bool>,
    /// The memory walk's alloc/free schedule.
    walk: PeakWalk,
    /// Per-value use summaries and defining-body ids (cross-op fusion).
    uses: Vec<UseInfo>,
    def_body: Vec<u32>,
    /// Per-op roofline terms on global shapes (replicated fast path).
    repl: Vec<ReplCost>,
    /// Per-value global byte sizes, packed global shapes and element
    /// sizes (`global_bytes / num_elements`, so device-local bytes are
    /// one multiply away from a device-local shape).
    global_bytes: Vec<u64>,
    gshape: Vec<LocalShape>,
    dsize: Vec<f64>,
    /// Whether the packed walk can cost this function at all; the
    /// reason when it cannot.
    supported: Result<(), String>,
}

impl<'f> StaticObjective<'f> {
    /// Precomputes the function-level analysis with the default config.
    pub fn new(func: &'f Func) -> Self {
        Self::with_config(func, ObjectiveConfig::default())
    }

    /// [`StaticObjective::new`] with an explicit configuration.
    pub fn with_config(func: &'f Func, cfg: ObjectiveConfig) -> Self {
        let live = partir_ir::passes::live_values(func);
        let mut uses = vec![UseInfo::default(); func.num_values()];
        let mut def_body = vec![0u32; func.num_values()];
        let mut next_body = 0u32;
        collect_uses(
            func,
            func.body(),
            0,
            &mut next_body,
            &mut def_body,
            &mut uses,
        );
        for &r in func.results() {
            uses[r.0 as usize].escapes = true;
        }
        let supported = supported(func);
        let gshape: Vec<LocalShape> = if supported.is_ok() {
            func.value_ids().map(|v| global_shape(func, v)).collect()
        } else {
            Vec::new()
        };
        let mut repl = vec![
            ReplCost {
                flops: 0.0,
                bytes: 0.0,
                class: OpClass::Other,
            };
            func.num_ops()
        ];
        if supported.is_ok() {
            for op_id in func.op_ids() {
                let op = func.op(op_id);
                if matches!(op.kind, OpKind::For { .. }) {
                    continue;
                }
                let mut operands = [LocalShape::default(); MAX_OPERANDS];
                for (i, &o) in op.operands.iter().enumerate() {
                    operands[i] = gshape[o.0 as usize];
                }
                let result = gshape[op.results[0].0 as usize];
                let flops = op_flops(&op.kind, &operands[..op.operands.len()], &result);
                let bytes = op
                    .operands
                    .iter()
                    .map(|&o| func.value_type(o).size_bytes() as f64)
                    .sum::<f64>()
                    + func.value_type(op.results[0]).size_bytes() as f64;
                repl[op_id.0 as usize] = ReplCost {
                    flops,
                    bytes,
                    class: op_class(&op.kind),
                };
            }
        }
        let global_bytes: Vec<u64> = func
            .value_ids()
            .map(|v| func.value_type(v).size_bytes() as u64)
            .collect();
        let dsize = global_bytes
            .iter()
            .zip(&gshape)
            .map(|(&b, g)| {
                let elems = g.num_elements();
                if elems > 0.0 {
                    b as f64 / elems
                } else {
                    0.0
                }
            })
            .collect();
        StaticObjective {
            func,
            cfg,
            live,
            walk: PeakWalk::of(func),
            uses,
            def_body,
            repl,
            global_bytes,
            gshape,
            dsize,
            supported,
        }
    }

    /// Whether the fusion pass's dead-code elimination drops `op`.
    fn is_dead(&self, op: OpId) -> bool {
        let results = &self.func.op(op).results;
        !results.iter().any(|r| self.live[r.0 as usize])
    }

    /// Statically costs one candidate against the precomputed analysis.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`static_cost`].
    pub fn cost(&self, part: &Partitioning, hw: &HardwareConfig) -> Result<StaticCost, IrError> {
        if let Err(reason) = &self.supported {
            return Err(IrError::invalid(reason.clone()));
        }
        let mut ev = Eval::new(self, part, hw)?;
        // The cost walk also records per-op gather transients, which the
        // memory walk below folds into the peak bound.
        let (compute_s, comm_s, comm_bytes) = ev.walk_body(self.func.body(), 1.0)?;
        let peak = ev.peak_memory()?;
        Ok(StaticCost {
            compute_s,
            comm_s: comm_s * self.cfg.comm_weight,
            comm_bytes,
            peak_memory_bytes: peak,
        })
    }
}

/// The bounds of the packed walk's fixed-size layouts and operand
/// arrays, checked once per function so no candidate can index past
/// them.
fn supported(func: &Func) -> Result<(), String> {
    if func
        .value_ids()
        .any(|v| func.value_type(v).rank() > MAX_RANK)
    {
        return Err(format!(
            "static objective supports tensors of rank <= {MAX_RANK}"
        ));
    }
    let wide = |o: OpId| {
        let op = func.op(o);
        !matches!(op.kind, OpKind::For { .. }) && op.operands.len() > MAX_OPERANDS
    };
    if func.op_ids().any(wide) {
        return Err(format!(
            "static objective supports ops of <= {MAX_OPERANDS} operands"
        ));
    }
    Ok(())
}

fn global_shape(func: &Func, v: ValueId) -> LocalShape {
    let dims = func.value_type(v).shape.dims();
    let mut ls = LocalShape {
        rank: dims.len() as u8,
        dim: [0; MAX_RANK],
    };
    for (d, &v) in dims.iter().enumerate() {
        ls.dim[d] = v as u32;
    }
    ls
}

/// Structural mirror of the fusion pass's use analysis: counts every
/// consumption of a value's stored form (op operands, `for` init and
/// yield boundary reshards), remembering the first site. Body ids are
/// assigned pre-order so producer/consumer same-body checks match the
/// lowered program's trip-count multipliers.
fn collect_uses(
    func: &Func,
    body: &[OpId],
    body_id: u32,
    next_body: &mut u32,
    def_body: &mut [u32],
    uses: &mut [UseInfo],
) {
    let note = |uses: &mut [UseInfo], v: ValueId, site: UseSite, b: u32| {
        let rec = &mut uses[v.0 as usize];
        rec.count += 1;
        if rec.count == 1 {
            rec.site = site;
            rec.site_body = b;
        }
    };
    for &op_id in body {
        let op = func.op(op_id);
        if let (OpKind::For { .. }, Some(region)) = (&op.kind, &op.region) {
            // Init boundary reshards consume the inits in this body.
            for (i, &init) in op.operands.iter().enumerate() {
                let site = UseSite::Boundary {
                    param: region.params[i + 1],
                };
                note(uses, init, site, body_id);
            }
            *next_body += 1;
            let inner = *next_body;
            for &p in &region.params {
                def_body[p.0 as usize] = inner;
            }
            collect_uses(func, &region.body, inner, next_body, def_body, uses);
            // Yield boundary reshards consume the yields inside the
            // region. (A trivial yield reshard is rejected per candidate:
            // its layout diff is empty, never a pure slice.)
            for (i, &y) in region.results.iter().enumerate() {
                let site = UseSite::Boundary {
                    param: region.params[i + 1],
                };
                note(uses, y, site, inner);
            }
            for &r in &op.results {
                def_body[r.0 as usize] = body_id;
            }
            continue;
        }
        for (i, &operand) in op.operands.iter().enumerate() {
            let site = UseSite::Operand {
                op: op_id,
                slot: i as u32,
            };
            note(uses, operand, site, body_id);
        }
        for &r in &op.results {
            def_body[r.0 as usize] = body_id;
        }
    }
}

/// Accumulated `(compute_s, comm_s, comm_bytes)`.
type Costs = (f64, f64, f64);

const ZERO: Costs = (0.0, 0.0, 0.0);

fn add(c: Costs, total: &mut Costs) {
    total.0 += c.0;
    total.1 += c.1;
    total.2 += c.2;
}

/// One candidate evaluation: mesh axes resolved to ids, link terms and
/// roofline denominators looked up once.
struct Eval<'a, 'f> {
    obj: &'a StaticObjective<'f>,
    part: &'a Partitioning,
    axes: Vec<Axis>,
    size: Vec<f64>,
    int_size: Vec<u64>,
    bw: Vec<f64>,
    lat: Vec<f64>,
    roofline: Roofline,
    /// Largest gather temporary per op, filled during the cost walk and
    /// consumed by the memory walk.
    transient: Vec<u64>,
}

impl<'a, 'f> Eval<'a, 'f> {
    fn new(
        obj: &'a StaticObjective<'f>,
        part: &'a Partitioning,
        hw: &'a HardwareConfig,
    ) -> Result<Self, IrError> {
        let mesh_axes = part.mesh().axes();
        if mesh_axes.len() > MAX_AXES {
            return Err(IrError::invalid(format!(
                "static objective supports meshes of <= {MAX_AXES} axes"
            )));
        }
        let err = |e: partir_mesh::MeshError| IrError::invalid(e.to_string());
        let mut axes = Vec::with_capacity(mesh_axes.len());
        let mut size = Vec::with_capacity(mesh_axes.len());
        let mut int_size = Vec::with_capacity(mesh_axes.len());
        let mut bw = Vec::with_capacity(mesh_axes.len());
        let mut lat = Vec::with_capacity(mesh_axes.len());
        for (a, s) in mesh_axes {
            axes.push(a.clone());
            size.push(*s as f64);
            int_size.push(*s as u64);
            bw.push(hw.topology.bandwidth(a).map_err(err)?);
            lat.push(hw.topology.latency(a).map_err(err)?);
        }
        Ok(Eval {
            obj,
            part,
            axes,
            size,
            int_size,
            bw,
            lat,
            roofline: Roofline::new(&hw.device, MATMUL_EFFICIENCY),
            transient: vec![0u64; obj.func.num_ops()],
        })
    }

    fn axis_id(&self, axis: &Axis) -> Result<u8, IrError> {
        for (i, a) in self.axes.iter().enumerate() {
            // Context axes are clones of the mesh's `Arc<str>` names, so
            // the fat-pointer comparison almost always short-circuits the
            // string compare.
            if std::ptr::eq(a.name(), axis.name()) || a == axis {
                return Ok(i as u8);
            }
        }
        Err(IrError::invalid(format!("axis {axis} missing from mesh")))
    }

    fn link(&self, id: u8) -> (f64, f64, f64) {
        let i = id as usize;
        (self.size[i], self.bw[i], self.lat[i])
    }

    fn stored_layout(&self, v: ValueId) -> Result<Layout, IrError> {
        let mut l = Layout::empty(self.obj.func.value_type(v).rank());
        for (axis, kind) in self.part.value_ctx(v).entries() {
            if let ShardKind::Tile { dim } = kind {
                l.dims[*dim].push(self.axis_id(axis)?);
            }
        }
        Ok(l)
    }

    /// [`Eval::stored_layout`] plus the device-local byte size under that
    /// layout, from one pass over the value context.
    fn stored_layout_bytes(&self, v: ValueId) -> Result<(Layout, f64), IrError> {
        let vi = v.0 as usize;
        let bytes = self.obj.global_bytes[vi] as f64;
        let mut l = Layout::empty(self.obj.gshape[vi].rank as usize);
        let ctx = self.part.value_ctx(v);
        if ctx.is_empty() {
            return Ok((l, bytes));
        }
        let mut divisor = 1.0;
        for (axis, kind) in ctx.entries() {
            if let ShardKind::Tile { dim } = kind {
                let id = self.axis_id(axis)?;
                l.dims[*dim].push(id);
                divisor *= self.size[id as usize];
            }
        }
        Ok((l, bytes / divisor))
    }

    /// The layout the op's loop context requires for operand slot `i`.
    fn required_operand_layout(
        &self,
        op_id: OpId,
        i: usize,
        rank: usize,
    ) -> Result<Layout, IrError> {
        let mut l = Layout::empty(rank);
        for (axis, axis_ctx) in self.part.op_ctx(op_id).entries() {
            let OpAxisCtx::Entry(e) = axis_ctx;
            if let Some(Some(d)) = e.operands.get(i) {
                l.dims[*d].push(self.axis_id(axis)?);
            }
        }
        Ok(l)
    }

    /// `bytes` divided over the axes of `layout`: the device-local size
    /// of a value of `bytes` sliced further by `layout`.
    fn shard_bytes(&self, mut bytes: f64, layout: &Layout) -> f64 {
        for s in layout.dims() {
            for &id in s.axes() {
                bytes /= self.size[id as usize];
            }
        }
        bytes
    }

    /// Device-local shape and byte size of `v` under `layout`. Tiled
    /// dims divide exactly (legality), so `elements * element_size`
    /// equals dividing the global byte count.
    fn local_shape_bytes(&self, v: ValueId, layout: &Layout) -> (LocalShape, f64) {
        let vi = v.0 as usize;
        let mut ls = self.obj.gshape[vi];
        let mut divided = false;
        for (d, s) in layout.dims().iter().enumerate() {
            for &id in s.axes() {
                ls.dim[d] /= self.int_size[id as usize] as u32;
                divided = true;
            }
        }
        let bytes = if divided {
            ls.num_elements() * self.obj.dsize[vi]
        } else {
            self.obj.global_bytes[vi] as f64
        };
        (ls, bytes)
    }

    /// Ring cost of one collective of `kind` on a `bytes`-sized local
    /// value, over the axes `ids` in stage order.
    fn ring<'s>(&self, kind: RingKind, bytes: f64, ids: impl Iterator<Item = &'s u8>) -> Costs {
        let (time, wire) = ring_time(kind, bytes, ids.map(|&id| self.link(id)));
        (0.0, time, wire)
    }

    fn all_reduce(&self, bytes: f64, axes: &[u8]) -> Costs {
        self.ring(RingKind::AllReduce, bytes, axes.iter())
    }

    /// Staged `all_gather`: dims in ascending order, axes within a dim
    /// innermost-first (the stage order of [`crate::cost::ring_stages`]).
    fn all_gather(&self, start_bytes: f64, gather: &Layout) -> Costs {
        let ids = gather.dims().iter().flat_map(|s| s.axes().iter().rev());
        self.ring(RingKind::AllGather, start_bytes, ids)
    }

    /// Staged `reduce_scatter`: axes within a dim outermost-first.
    fn reduce_scatter(&self, start_bytes: f64, covered: &Layout) -> Costs {
        let ids = covered.dims().iter().flat_map(|s| s.axes().iter());
        self.ring(RingKind::ReduceScatter, start_bytes, ids)
    }

    /// Cost of resharding a value of `bytes_from` local bytes from layout
    /// `from` to `to`. Slices are device-local and free.
    fn reshard_cost(&self, bytes_from: f64, from: &Layout, to: &Layout) -> Costs {
        let (gather, slice) = reshard_split(from, to);
        self.resolved_reshard(bytes_from, &gather, &slice)
    }

    /// [`Eval::reshard_cost`] on an already-split reshard, with the
    /// gather∘slice fusion applied.
    fn resolved_reshard(&self, bytes_from: f64, gather: &Layout, slice: &Layout) -> Costs {
        if !gather.has_axes() {
            return ZERO; // pure slice: free
        }
        match fuse_gather_slice(gather, slice) {
            Some(GatherSlice::Cancel) => ZERO,
            Some(GatherSlice::AllToAll { src_dim, .. }) => {
                let ids = gather.stack(src_dim).iter();
                self.ring(RingKind::AllToAll, bytes_from, ids)
            }
            None => self.all_gather(bytes_from, gather),
        }
    }

    /// Roofline time of a fully replicated op from precomputed terms.
    fn repl_time(&self, op_id: OpId) -> f64 {
        let r = self.obj.repl[op_id.0 as usize];
        self.roofline.op_time(r.class, r.flops, r.bytes)
    }

    /// Whether nothing around this op is sharded: no loop context, all
    /// operands and results stored replicated. Such ops cost exactly
    /// their precomputed global roofline time and no communication.
    fn replicated(&self, op_id: OpId, operands: &[ValueId], results: &[ValueId]) -> bool {
        self.part.op_ctx(op_id).entries().is_empty()
            && results.iter().all(|&r| self.part.value_ctx(r).is_empty())
            && operands.iter().all(|&o| self.part.value_ctx(o).is_empty())
    }

    fn walk_body(&mut self, body: &[OpId], trips: f64) -> Result<Costs, IrError> {
        let mut total = ZERO;
        let scale = |c: Costs, total: &mut Costs| {
            total.0 += trips * c.0;
            total.1 += trips * c.1;
            total.2 += trips * c.2;
        };
        for &op_id in body {
            let op = self.obj.func.op(op_id);
            if self.obj.is_dead(op_id) {
                continue; // eliminated before the simulator runs
            }
            if let (OpKind::For { trip_count }, Some(region)) = (&op.kind, &op.region) {
                scale(self.for_cost(op_id, *trip_count, region)?, &mut total);
                continue;
            }
            if self.replicated(op_id, &op.operands, &op.results) {
                total.0 += trips * self.repl_time(op_id);
                continue;
            }
            scale(self.op_cost(op_id)?, &mut total);
        }
        Ok(total)
    }

    /// The sole consumer's pure-slice layout for `v`'s stored form, when
    /// cross-op collective fusion applies (see the module docs). Only
    /// consulted for ops whose chain ends in a bare gather/reduce.
    fn cross_slice(&self, v: ValueId) -> Result<Option<Layout>, IrError> {
        let u = self.obj.uses[v.0 as usize];
        if u.escapes || u.count != 1 || self.obj.def_body[v.0 as usize] != u.site_body {
            return Ok(None);
        }
        let required = match u.site {
            UseSite::None => return Ok(None),
            UseSite::Operand { op, slot } => {
                let rank = self.obj.func.value_type(v).rank();
                self.required_operand_layout(op, slot as usize, rank)?
            }
            UseSite::Boundary { param } => self.stored_layout(param)?,
        };
        let stored = self.stored_layout(v)?;
        let (gather, slice) = reshard_split(&stored, &required);
        Ok((!gather.has_axes() && slice.has_axes()).then_some(slice))
    }

    /// Cost of one non-region op: operand reshards, localized compute,
    /// reduction (with analytical reduce_scatter fusion), result reshard.
    /// Also records the op's gather transient for the memory walk.
    fn op_cost(&mut self, op_id: OpId) -> Result<Costs, IrError> {
        let func = self.obj.func;
        let op = func.op(op_id);
        let result = op.results[0];
        let mut cost = ZERO;

        // Nullary ops materialise the full value and slice (free) down.
        if op.operands.is_empty() {
            cost.0 += self.repl_time(op_id);
            return Ok(cost);
        }

        // Required per-slot layouts, the produced result layout and the
        // reduced axes, all from one pass over the op context.
        let n = op.operands.len();
        let mut req = [Layout::empty(0); MAX_OPERANDS];
        for (i, &o) in op.operands.iter().enumerate() {
            req[i].rank = self.obj.gshape[o.0 as usize].rank;
        }
        let mut produced = Layout::empty(self.obj.gshape[result.0 as usize].rank as usize);
        let mut reduce_axes = Stack::default();
        for (axis, axis_ctx) in self.part.op_ctx(op_id).entries() {
            let OpAxisCtx::Entry(e) = axis_ctx;
            let id = self.axis_id(axis)?;
            for (i, slot) in e.operands.iter().enumerate() {
                if let Some(d) = slot {
                    req[i].dims[*d].push(id);
                }
            }
            match e.result {
                ResultAction::Tile(d) => produced.dims[d].push(id),
                ResultAction::Reduce(_) => reduce_axes.push(id),
            }
        }

        // 1. Operand reshards (stored layout → required layout).
        let mut shapes = [LocalShape::default(); MAX_OPERANDS];
        let mut moved = 0.0;
        let mut transient = 0.0f64;
        for (i, &operand) in op.operands.iter().enumerate() {
            let to = &req[i];
            let (from, bytes_from) = self.stored_layout_bytes(operand)?;
            if from != *to {
                let (g, s) = reshard_split(&from, to);
                add(self.resolved_reshard(bytes_from, &g, &s), &mut cost);
                transient = transient.max(self.gather_growth(bytes_from, &g));
            }
            let (shape, bytes_to) = self.local_shape_bytes(operand, to);
            shapes[i] = shape;
            moved += bytes_to;
        }

        // 2. Localized compute.
        let (local_result, produced_bytes) = self.local_shape_bytes(result, &produced);
        moved += produced_bytes;
        let flops = op_flops(&op.kind, &shapes[..n], &local_result);
        cost.0 += self.roofline.op_time(op_class(&op.kind), flops, moved);

        // 3. Reduce + reshard to the stored layout, with the fusion rules
        // applied.
        let stored = self.stored_layout(result)?;
        let (gather, slice) = reshard_split(&produced, &stored);
        transient = transient.max(self.gather_growth(produced_bytes, &gather));
        self.transient[op_id.0 as usize] = transient as u64;
        let reduce = reduce_axes.axes();
        if reduce.is_empty() && !gather.has_axes() {
            return Ok(cost); // identity or pure slice: free
        }
        // When the chain ends in a bare gather/reduce, the sole
        // consumer's pure-slice reshard (if any) plays the role of the
        // chain's own slice.
        let slice = if slice.has_axes() {
            slice
        } else {
            self.cross_slice(result)?.unwrap_or(slice)
        };
        if !gather.has_axes() {
            // Most reduces meet no slice; those skip the rule's walk.
            let fused = if slice.has_axes() {
                fuse_reduce_slice::<_, Stack>(reduce, &slice)
            } else {
                None
            };
            if let Some(ReduceSlice {
                residual_slice,
                covered,
                residual_reduce,
            }) = fused
            {
                // Fused emission order: residual slice (free), residual
                // all_reduce, reduce_scatter — all on the sliced bytes.
                let bytes = self.shard_bytes(produced_bytes, &residual_slice);
                add(self.all_reduce(bytes, residual_reduce.axes()), &mut cost);
                add(self.reduce_scatter(bytes, &covered), &mut cost);
            } else {
                add(self.all_reduce(produced_bytes, reduce), &mut cost);
            }
            return Ok(cost);
        }
        // Reduce then gather: the all_reduce always runs; the trailing
        // gather may still fuse with the slice.
        if !reduce.is_empty() {
            add(self.all_reduce(produced_bytes, reduce), &mut cost);
        }
        add(
            self.resolved_reshard(produced_bytes, &gather, &slice),
            &mut cost,
        );
        Ok(cost)
    }

    /// Bytes a staged gather materialises beyond the source footprint.
    fn gather_growth(&self, bytes_from: f64, gather: &Layout) -> f64 {
        let mut factor = 1.0;
        for stack in gather.dims() {
            for &id in stack.axes() {
                factor *= self.size[id as usize];
            }
        }
        if factor > 1.0 {
            bytes_from * factor - bytes_from
        } else {
            0.0
        }
    }

    /// Cost of a `for` op: boundary reshards once, body × trip count
    /// (yield reshards live inside the region, mirroring the lowering).
    fn for_cost(
        &mut self,
        op_id: OpId,
        trip_count: usize,
        region: &partir_ir::Region,
    ) -> Result<Costs, IrError> {
        let op = self.obj.func.op(op_id);
        let mut cost = ZERO;
        // Inits → region-param layouts (once).
        for (i, &init) in op.operands.iter().enumerate() {
            let (from, bytes) = self.stored_layout_bytes(init)?;
            let to = self.stored_layout(region.params[i + 1])?;
            add(self.reshard_cost(bytes, &from, &to), &mut cost);
        }
        // Body × trips.
        add(self.walk_body(&region.body, trip_count as f64)?, &mut cost);
        // Yields → param layouts (inside the region: × trips).
        for (i, &ry) in region.results.iter().enumerate() {
            let (from, bytes) = self.stored_layout_bytes(ry)?;
            let to = self.stored_layout(region.params[i + 1])?;
            let (c, m, by) = self.reshard_cost(bytes, &from, &to);
            let t = trip_count as f64;
            add((c * t, m * t, by * t), &mut cost);
        }
        // Results: param layout → stored ctx (once).
        for (i, &orig) in op.results.iter().enumerate() {
            let from = self.stored_layout(region.params[i + 1])?;
            let to = self.stored_layout(orig)?;
            let bytes = self.shard_bytes(self.obj.global_bytes[orig.0 as usize] as f64, &from);
            add(self.reshard_cost(bytes, &from, &to), &mut cost);
        }
        Ok(cost)
    }

    /// Device-local stored byte size of `v` (integer, for the memory
    /// walk). Divisibility is enforced by the tiling actions, so one
    /// total division equals the simulator's per-dimension division.
    fn local_bytes_u64(&self, v: ValueId) -> Result<u64, IrError> {
        let ctx = self.part.value_ctx(v);
        let bytes = self.obj.global_bytes[v.0 as usize];
        if ctx.is_empty() {
            return Ok(bytes);
        }
        let mut divisor = 1u64;
        for (axis, kind) in ctx.entries() {
            if matches!(kind, ShardKind::Tile { .. }) {
                divisor *= self.int_size[self.axis_id(axis)? as usize];
            }
        }
        Ok(bytes / divisor)
    }

    /// Peak-memory bound: the precomputed liveness walk charging
    /// device-local (stored-layout) sizes, plus the largest gather
    /// temporary alive at each op.
    fn peak_memory(&self) -> Result<u64, IrError> {
        let func = self.obj.func;
        // One pass over the value table; the walk below touches each
        // value up to twice (allocate + free), so it reads the sizes
        // from here instead of re-deriving them from the contexts.
        let mut local = vec![0u64; func.num_values()];
        for v in func.value_ids() {
            local[v.0 as usize] = self.local_bytes_u64(v)?;
        }
        Ok(self.obj.walk.peak(
            func,
            |v| local[v.0 as usize],
            true,
            |op| self.obj.is_dead(op), // never materialises
            |op| self.transient[op.0 as usize],
        ))
    }
}

/// One candidate `tile(value, dim, axis)` search action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileCandidate {
    /// The value to tile.
    pub value: ValueId,
    /// The tensor dimension.
    pub dim: usize,
    /// The mesh axis.
    pub axis: Axis,
}

/// Visits the equivalence classes of `candidates`: the distinct states
/// they reach after `tile` + `propagate` from `part`. Each candidate is
/// tried in place ([`Partitioning::probe`]), so `part` is unchanged on
/// return and no candidate costs a copy of the state; `visit` is called
/// once per class, in first-seen order (the caller's largest-tensor-first
/// candidate ordering is preserved), with the index of the class's first
/// candidate and the propagated state. Candidates whose `tile` is refused
/// are dropped. Returns how many candidates joined an earlier class.
///
/// # Errors
///
/// Stops at, and returns, the first error `visit` returns.
pub fn equivalence_classes<E>(
    func: &Func,
    part: &mut Partitioning,
    candidates: &[TileCandidate],
    mut visit: impl FnMut(usize, &Partitioning) -> Result<(), E>,
) -> Result<usize, E> {
    let mut reached: HashSet<Fingerprint> = HashSet::new();
    let mut duplicates = 0;
    for (i, c) in candidates.iter().enumerate() {
        let visited = part.probe(func, c.value, c.dim, &c.axis, |state| {
            if reached.insert(state.fingerprint()) {
                visit(i, state)
            } else {
                duplicates += 1;
                Ok(())
            }
        });
        if let Ok(outcome) = visited {
            outcome?;
        }
    }
    Ok(duplicates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{FuncBuilder, TensorType};
    use partir_mesh::Mesh;

    fn matmul_chain() -> Func {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([256, 64]));
        let w1 = b.param("w1", TensorType::f32([64, 128]));
        let w2 = b.param("w2", TensorType::f32([128, 64]));
        let h = b.matmul(x, w1).unwrap();
        let y = b.matmul(h, w2).unwrap();
        b.build([y]).unwrap()
    }

    fn hw(mesh: &Mesh) -> HardwareConfig {
        HardwareConfig::tpu_v3_pod(mesh.clone())
    }

    /// On a replicated state the static objective must agree exactly with
    /// the simulator: no collectives, identical roofline walk.
    #[test]
    fn replicated_state_matches_simulator_exactly() {
        let f = matmul_chain();
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = hw(&mesh);
        let p = Partitioning::new(&f, mesh).unwrap();
        let stat = static_cost(&f, &p, &hw).unwrap();
        let eval = partir_sim::evaluate(&f, &p, &hw).unwrap();
        assert!((stat.compute_s - eval.sim.compute_s).abs() < 1e-12 * eval.sim.compute_s.max(1.0));
        assert_eq!(stat.comm_bytes, eval.sim.comm_bytes);
        assert_eq!(stat.comm_s, eval.sim.comm_s);
    }

    /// Batch-parallel matmul chain: still collective-free, and the static
    /// compute estimate tracks the simulator's on the local shapes.
    #[test]
    fn batch_parallel_matches_simulator() {
        let f = matmul_chain();
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = hw(&mesh);
        let mut p = Partitioning::new(&f, mesh).unwrap();
        p.tile(&f, f.params()[0], 0, &"B".into()).unwrap();
        p.propagate(&f);
        let stat = static_cost(&f, &p, &hw).unwrap();
        let eval = partir_sim::evaluate(&f, &p, &hw).unwrap();
        assert_eq!(stat.comm_bytes, eval.sim.comm_bytes);
        let rel = (stat.compute_s - eval.sim.compute_s).abs() / eval.sim.compute_s;
        assert!(rel < 1e-9, "compute drifted: {rel}");
    }

    /// Megatron sharding introduces an all_reduce; the static comm bytes
    /// must match the fused program's exactly.
    #[test]
    fn megatron_all_reduce_bytes_match() {
        let f = matmul_chain();
        let mesh = Mesh::new([("B", 4), ("M", 2)]).unwrap();
        let hw = hw(&mesh);
        let mut p = Partitioning::new(&f, mesh).unwrap();
        p.tile(&f, f.params()[0], 0, &"B".into()).unwrap();
        p.tile(&f, f.params()[1], 1, &"M".into()).unwrap();
        p.propagate(&f);
        let stat = static_cost(&f, &p, &hw).unwrap();
        let eval = partir_sim::evaluate(&f, &p, &hw).unwrap();
        assert!(stat.comm_bytes > 0.0);
        assert_eq!(stat.comm_bytes, eval.sim.comm_bytes);
        assert!((stat.comm_s - eval.sim.comm_s).abs() < 1e-15);
    }

    /// The memory bound shrinks as parameters are sharded, and the bound
    /// stays within the same order as the simulator's peak.
    #[test]
    fn memory_bound_tracks_sharding() {
        let f = matmul_chain();
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = hw(&mesh);
        let repl = Partitioning::new(&f, mesh.clone()).unwrap();
        let mut bp = repl.clone();
        bp.tile(&f, f.params()[0], 0, &"B".into()).unwrap();
        bp.propagate(&f);
        let m_repl = static_cost(&f, &repl, &hw).unwrap().peak_memory_bytes;
        let m_bp = static_cost(&f, &bp, &hw).unwrap().peak_memory_bytes;
        assert!(m_bp < m_repl);
    }

    /// The amortised evaluator must agree bit-for-bit with the one-shot
    /// entry point across candidates (it is the same walk, reused).
    #[test]
    fn reusable_objective_matches_one_shot() {
        let f = matmul_chain();
        let mesh = Mesh::new([("B", 4), ("M", 2)]).unwrap();
        let hw = hw(&mesh);
        let obj = StaticObjective::new(&f);
        let mut states = vec![Partitioning::new(&f, mesh).unwrap()];
        let mut bp = states[0].clone();
        bp.tile(&f, f.params()[0], 0, &"B".into()).unwrap();
        bp.propagate(&f);
        states.push(bp);
        let mut mp = states[0].clone();
        mp.tile(&f, f.params()[1], 1, &"M".into()).unwrap();
        mp.propagate(&f);
        states.push(mp);
        for s in &states {
            let reused = obj.cost(s, &hw).unwrap();
            let oneshot = static_cost(&f, s, &hw).unwrap();
            assert_eq!(reused, oneshot);
        }
    }

    /// Equivalence classes: tiling x rows and tiling w1 rows both
    /// propagate through the chain; actions reaching the same fingerprint
    /// share a class and distinct states get distinct classes.
    #[test]
    fn equivalence_classes_group_by_fingerprint() {
        let f = matmul_chain();
        let mesh = Mesh::single("B", 4).unwrap();
        let mut p = Partitioning::new(&f, mesh).unwrap();
        let params = f.params();
        let cands = vec![
            TileCandidate {
                value: params[0],
                dim: 0,
                axis: "B".into(),
            },
            TileCandidate {
                value: params[0],
                dim: 1,
                axis: "B".into(),
            },
            TileCandidate {
                value: params[1],
                dim: 0,
                axis: "B".into(),
            },
        ];
        let before = format!("{p:?}");
        let mut fps = Vec::new();
        let duplicates = equivalence_classes(&f, &mut p, &cands, |rep, state| {
            // The representative reaches the visited state the slow way.
            let mut slow = Partitioning::new(&f, state.mesh().clone()).unwrap();
            let c = &cands[rep];
            slow.tile(&f, c.value, c.dim, &c.axis).unwrap();
            slow.propagate(&f);
            assert_eq!(slow.fingerprint(), state.fingerprint());
            fps.push(state.fingerprint());
            Ok::<(), ()>(())
        })
        .unwrap();
        let classes = fps.len();
        assert!(classes > 0);
        assert_eq!(
            classes + duplicates,
            3,
            "every viable candidate lands in a class"
        );
        // x#0 and w1#0 propagate to different states; x#1 and w1#0 both
        // shard the contraction — whatever the grouping, fingerprints are
        // unique across classes.
        fps.sort();
        fps.dedup();
        assert_eq!(fps.len(), classes);
        assert_eq!(format!("{p:?}"), before, "the trials left no trace");
    }

    /// A verified function past the packed walk's operand bound is
    /// refused with a structured error at costing time — never a panic at
    /// construction — while the simulator still costs it.
    #[test]
    fn nine_operand_concatenate_is_an_error_not_a_panic() {
        let mut b = FuncBuilder::new("f");
        let xs: Vec<ValueId> = (0..9)
            .map(|i| b.param(format!("x{i}"), TensorType::f32([4, 8])))
            .collect();
        let y = b.concatenate(&xs, 0).unwrap();
        let f = b.build([y]).unwrap();
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = hw(&mesh);
        let p = Partitioning::new(&f, mesh).unwrap();
        let err = static_cost(&f, &p, &hw).unwrap_err();
        assert!(err.to_string().contains("operands"), "{err}");
        assert!(partir_sim::evaluate(&f, &p, &hw).is_ok());
    }

    /// The explicit failure mode the mutation test relies on: zeroing the
    /// communication weight makes a comm-heavy state look free.
    #[test]
    fn comm_weight_scales_comm_seconds() {
        let f = matmul_chain();
        let mesh = Mesh::new([("B", 4), ("M", 2)]).unwrap();
        let hw = hw(&mesh);
        let mut p = Partitioning::new(&f, mesh).unwrap();
        p.tile(&f, f.params()[1], 1, &"M".into()).unwrap();
        p.propagate(&f);
        let honest = static_cost(&f, &p, &hw).unwrap();
        let zeroed = StaticObjective::with_config(&f, ObjectiveConfig { comm_weight: 0.0 })
            .cost(&p, &hw)
            .unwrap();
        assert!(honest.comm_s > 0.0);
        assert_eq!(zeroed.comm_s, 0.0);
    }
}
