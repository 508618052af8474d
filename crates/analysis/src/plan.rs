//! Plan-level translation validation: a happens-before race detector
//! and cross-device deadlock verifier for compiled execution plans.
//!
//! `partir_spmd`'s plan compiler reorders collective starts and waits
//! around compute (the overlap pass) and lays every intermediate into a
//! first-fit arena. Both transformations were previously assured only
//! dynamically — a schedule-fuzzing chaos battery. This module checks
//! them *statically*, the way translation validation checks a compiler:
//! the plan compiler derives a [`PlanView`] from its executable steps (a
//! neutral description of the scheduled steps, their arena effects
//! tagged with the SSA value each range is supposed to hold, and the
//! per-device collective stage tables) and [`verify_plan`] proves, or
//! refutes with a pinned [`Diagnostic`], that the schedule is race- and
//! deadlock-free.
//!
//! # The happens-before model
//!
//! Plans are SPMD: every device runs the *same* step list; only the
//! collective stage tables differ per device. The happens-before order
//! of one run is generated by:
//!
//! * **program order** — step `i` happens before step `i + 1` on every
//!   device;
//! * **tag edges** — a `CollStart` happens before the `CollWait` with
//!   the same tag (the in-flight window lives between them);
//! * **loop back-edges** — the carry copies of iteration `k` happen
//!   before the body of iteration `k + 1`;
//! * **rendezvous edges** — a `CollWait`'s per-axis stages synchronise
//!   the devices of each stage's group: no member leaves the stage
//!   before every member has entered it.
//!
//! The only concurrency in this order is the open window between a
//! start and its wait (the payload is in flight while the steps between
//! them run) — so the race check reduces to per-device dataflow over
//! the scheduled step list, and the deadlock check to whether the
//! per-device stage queues admit one global linearisation of the
//! rendezvous edges.
//!
//! # What the verifier proves
//!
//! Four checks, and arena safety is one of them — a single abstract
//! interpretation of which value each arena range holds, kept as a map
//! of disjoint runs per pool (about one run per live slot), so the proof
//! costs the accesses it interprets, not the arena it checks:
//!
//! * every arena access stays inside its pool ([`verify_plan`] rule
//!   `plan-oob-access`);
//! * every start/wait pair is well-formed: same region, start first,
//!   exactly one static site per tag, no window left open across a loop
//!   back-edge (`plan-window-*`);
//! * **the token walk**: interpreting the scheduled effects proves every
//!   read — compute operands, collective payload snapshots, loop
//!   carries, program results — observes exactly the value the compiler
//!   assigned to that range, on every path through every loop
//!   (`plan-race`). An over-hoisted start (reading its operand before
//!   the producer ran), a mis-sunk wait (landing its result after a
//!   consumer read stale data) and two live values sharing arena
//!   elements all show up at the read that observes the wrong value. A
//!   write into an open window's source range is no race: the start
//!   snapshots its payload before the window opens. After the results
//!   the walk reads every parameter range once more: one that no longer
//!   holds its own value was written by some step, even after the
//!   parameter's last read (`plan-param-written`). A device session
//!   keeps inputs in the arena across steps and copies in only those
//!   that changed, so a parameter range must still hold its value when
//!   the next step starts;
//! * **deadlock freedom**: at every wait site, the per-device stage
//!   queues drain to empty under the blocking-rendezvous semantics
//!   (`plan-rendezvous-deadlock`), and every stage's group agrees on
//!   axis, membership and order across its members
//!   (`plan-rendezvous-asymmetric`). Every device runs the same step
//!   list, so devices meet the wait sites in the same order and can
//!   only block inside the current one: one drain per site is exact for
//!   any trip count, with no unrolling. This is the workspace's one
//!   deadlock check: it runs on the compiled representation, after the
//!   overlap pass has reordered the waits.
//!
//! # What it does not prove
//!
//! * numerical equivalence of kernels — only *which* ranges are read
//!   and written, not what is computed;
//! * that no two values share elements where no read can tell (a value
//!   overwritten after its last read is dead, so the reuse is legal);
//! * liveness of the underlying transport: the drain proves the
//!   schedule admits a linearisation, not that a lossy fabric delivers
//!   the messages.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use partir_mesh::Axis;

use crate::diag::{Diagnostic, Severity};

/// Arena pools a plan allocates (`f32`, `i32`, `pred`).
pub const NUM_POOLS: usize = 3;

/// Diagnostics cap per check, so a systemically broken plan does not
/// flood the report.
const MAX_DIAGS: usize = 32;

/// One typed arena range together with the SSA value the compiler
/// assigned to it. The `value` token is what turns range effects into
/// dataflow: a read is correct iff every element of the range still
/// holds the token the compiler expected there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Pool index (`0 = f32`, `1 = i32`, `2 = pred`).
    pub pool: usize,
    /// Element offset into the pool.
    pub off: usize,
    /// Element count.
    pub len: usize,
    /// SSA value id this range holds (the raw `ValueId` index).
    pub value: u32,
}

/// One per-axis exchange stage of a device's AOT collective schedule:
/// the rendezvous group (in coordinate order, the device included) and
/// the tensor dimension the stage operates on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageView {
    /// Mesh axis the stage communicates over.
    pub axis: Axis,
    /// Tensor dimension the stage gathers/scatters (0 for reductions).
    pub dim: usize,
    /// Devices of the rendezvous group, in coordinate order.
    pub group: Vec<usize>,
}

/// A counted loop of a plan, mirrored for verification. Unlike the
/// executable `ForStep`, `carry` keeps *identity* pairs (source and
/// destination sharing one range): the executor skips the copy, but the
/// token relabel — region result becomes next iteration's param — is
/// exactly what the dataflow check needs to see.
#[derive(Debug, Clone)]
pub struct ForView {
    /// Iterations the loop runs.
    pub trip_count: usize,
    /// The `i32` induction slot, written before every iteration.
    pub index: Access,
    /// Operand → region-param copies before the first iteration.
    pub entry: Vec<(Access, Access)>,
    /// One iteration's steps.
    pub body: Vec<StepView>,
    /// Region-result → region-param copies between iterations,
    /// *including* identity pairs the executor drops.
    pub carry: Vec<(Access, Access)>,
    /// Region-result → op-result copies after the last iteration.
    pub exit: Vec<(Access, Access)>,
    /// Operand → op-result copies when `trip_count == 0`.
    pub bypass: Vec<(Access, Access)>,
}

/// One scheduled step, reduced to its observable arena effects.
#[derive(Debug, Clone)]
pub enum StepView {
    /// Any compute step: kernels, fused chains, copies, baked
    /// constants, general fallbacks. Reads happen before writes.
    Compute {
        /// Step mnemonic for diagnostics.
        name: &'static str,
        /// Ranges (and expected values) the step reads.
        reads: Vec<Access>,
        /// Ranges (and defined values) the step writes.
        writes: Vec<Access>,
    },
    /// A collective's start phase: snapshots `src` and puts the first
    /// stage's sends in flight. Non-blocking.
    CollStart {
        /// Message tag pairing it with its wait.
        tag: u32,
        /// Payload range snapshotted at start.
        src: Access,
    },
    /// A collective's wait phase: runs the blocking exchange stages and
    /// writes the folded result. `stages[d]` is device `d`'s ordered
    /// stage list.
    CollWait {
        /// Message tag pairing it with its start.
        tag: u32,
        /// Result range written after the rendezvous.
        dst: Access,
        /// Per-device exchange stages, AOT-resolved.
        stages: Arc<Vec<Vec<StageView>>>,
    },
    /// A counted loop.
    For(Box<ForView>),
}

/// A compiled plan reduced to what verification needs: the scheduled
/// steps with their effects, the arena geometry, and the program's
/// boundary values. Derived by `partir_spmd`'s
/// `CompiledPlan::verifier_view` from the executable steps, so it
/// describes exactly the schedule the executor runs.
#[derive(Debug, Clone)]
pub struct PlanView {
    /// Devices the plan serves.
    pub num_devices: usize,
    /// Static collective sites (tags are `0..num_tags`).
    pub num_tags: u32,
    /// Pool lengths in elements, `[f32, i32, pred]`.
    pub pool_len: [usize; NUM_POOLS],
    /// Parameter ranges, written before the first step.
    pub params: Vec<Access>,
    /// Result ranges, read after the last step.
    pub results: Vec<Access>,
    /// The scheduled steps (identical on every device).
    pub steps: Vec<StepView>,
    /// Whether the overlap pass ran on this plan.
    pub overlapped: bool,
}

/// Verifies one compiled plan: bounds, window structure, the token walk
/// (races and resident parameters) and rendezvous deadlock freedom.
/// Returns every finding; an empty vector (or [`Severity::Info`] only)
/// means the schedule is proven safe under the happens-before model
/// above.
pub fn verify_plan(view: &PlanView) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_bounds(view, &mut diags);
    if !diags.is_empty() {
        // The token walk indexes pools by these ranges; don't.
        return diags;
    }
    check_windows(view, &mut diags);
    check_token_flow(view, &mut diags);
    check_rendezvous(view, &mut diags);
    diags
}

// ---------------------------------------------------------------------------
// Shared walking helpers
// ---------------------------------------------------------------------------

/// Calls `f` for every access of `step` (copies visit source then
/// destination; loops visit their whole structure and body).
fn visit_accesses(step: &StepView, f: &mut impl FnMut(&Access)) {
    match step {
        StepView::Compute { reads, writes, .. } => {
            reads.iter().for_each(&mut *f);
            writes.iter().for_each(&mut *f);
        }
        StepView::CollStart { src, .. } => f(src),
        StepView::CollWait { dst, .. } => f(dst),
        StepView::For(l) => {
            f(&l.index);
            for (s, d) in l
                .entry
                .iter()
                .chain(&l.carry)
                .chain(&l.exit)
                .chain(&l.bypass)
            {
                f(s);
                f(d);
            }
            for inner in &l.body {
                visit_accesses(inner, f);
            }
        }
    }
}

/// Where the token walk reads: `steps[3](for x4)[0](neg)`. Borrowed
/// from the walk and rendered only when a read has a finding.
enum Loc<'a> {
    /// A location with no step: the step list itself, or the results.
    Root(&'static str),
    /// Step `pos` of the body that `parent` names.
    Step {
        parent: &'a Loc<'a>,
        pos: usize,
        step: &'a StepView,
    },
}

impl fmt::Display for Loc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (parent, pos, step) = match self {
            Loc::Root(name) => return f.write_str(name),
            Loc::Step { parent, pos, step } => (parent, pos, step),
        };
        write!(f, "{parent}[{pos}](")?;
        match step {
            StepView::Compute { name, .. } => f.write_str(name)?,
            StepView::CollStart { tag, .. } => write!(f, "coll.start.{tag}")?,
            StepView::CollWait { tag, .. } => write!(f, "coll.wait.{tag}")?,
            StepView::For(l) => write!(f, "for x{}", l.trip_count)?,
        }
        f.write_str(")")
    }
}

fn describe_range(a: &Access) -> String {
    const POOLS: [&str; NUM_POOLS] = ["f32", "i32", "pred"];
    let pool = POOLS.get(a.pool).copied().unwrap_or("pool?");
    match a.off.checked_add(a.len) {
        Some(end) => format!("{pool}[{}..{end}] (value %{})", a.off, a.value),
        None => format!("{pool}[{}..+{}] (value %{})", a.off, a.len, a.value),
    }
}

// ---------------------------------------------------------------------------
// 1. Bounds
// ---------------------------------------------------------------------------

fn check_bounds(view: &PlanView, diags: &mut Vec<Diagnostic>) {
    let mut count = 0usize;
    let mut check = |a: &Access| {
        let in_bounds = a.pool < NUM_POOLS
            && a.off
                .checked_add(a.len)
                .is_some_and(|end| end <= view.pool_len[a.pool]);
        if !in_bounds {
            if count < MAX_DIAGS {
                diags.push(Diagnostic::new(
                    Severity::Error,
                    "plan-oob-access",
                    format!(
                        "access {} exceeds pool length {}",
                        describe_range(a),
                        if a.pool < NUM_POOLS {
                            view.pool_len[a.pool]
                        } else {
                            0
                        }
                    ),
                ));
            }
            count += 1;
        }
    };
    for a in view.params.iter().chain(&view.results) {
        check(a);
    }
    for step in &view.steps {
        visit_accesses(step, &mut check);
    }
    note_suppressed(diags, count, "plan-oob-access");
}

fn note_suppressed(diags: &mut Vec<Diagnostic>, count: usize, rule: &'static str) {
    if count > MAX_DIAGS {
        diags.push(Diagnostic::new(
            Severity::Info,
            rule,
            format!("{} further findings suppressed", count - MAX_DIAGS),
        ));
    }
}

// ---------------------------------------------------------------------------
// 2. Window structure
// ---------------------------------------------------------------------------

/// Start/wait pairing. Every window must open and close inside one
/// region body (a window crossing a loop back-edge would require the
/// in-flight table to survive an iteration boundary the executor resets
/// per tag), each tag must have exactly one static start and one static
/// wait site, and the start must precede the wait.
fn check_windows(view: &PlanView, diags: &mut Vec<Diagnostic>) {
    let mut starts: HashMap<u32, usize> = HashMap::new();
    let mut waits: HashMap<u32, usize> = HashMap::new();
    check_windows_body(&view.steps, diags, &mut starts, &mut waits);
    for tag in 0..view.num_tags {
        for (sites, phase) in [(&starts, "start"), (&waits, "wait")] {
            match sites.get(&tag).copied().unwrap_or(0) {
                1 => {}
                0 => diags.push(Diagnostic::new(
                    Severity::Error,
                    "plan-window-missing",
                    format!("collective tag {tag} has no {phase} step"),
                )),
                n => diags.push(Diagnostic::new(
                    Severity::Error,
                    "plan-window-duplicate",
                    format!("collective tag {tag} has {n} {phase} steps (expected 1)"),
                )),
            }
        }
    }
}

fn check_windows_body(
    steps: &[StepView],
    diags: &mut Vec<Diagnostic>,
    starts: &mut HashMap<u32, usize>,
    waits: &mut HashMap<u32, usize>,
) {
    // Tags whose start is open in this body.
    let mut open: HashSet<u32> = HashSet::new();
    for step in steps {
        match step {
            StepView::CollStart { tag, .. } => {
                *starts.entry(*tag).or_insert(0) += 1;
                open.insert(*tag);
            }
            StepView::CollWait { tag, .. } => {
                *waits.entry(*tag).or_insert(0) += 1;
                if !open.remove(tag) {
                    diags.push(Diagnostic::new(
                        Severity::Error,
                        "plan-window-unpaired",
                        format!(
                            "coll.wait.{tag} has no open start in its region \
                             (wait before start, or start hoisted across a region boundary)"
                        ),
                    ));
                }
            }
            StepView::For(l) => check_windows_body(&l.body, diags, starts, waits),
            StepView::Compute { .. } => {}
        }
    }
    for tag in open {
        diags.push(Diagnostic::new(
            Severity::Error,
            "plan-window-unpaired",
            format!(
                "coll.start.{tag} is never waited for in its region \
                 (dropped wait, or wait sunk across a region boundary)"
            ),
        ));
    }
}

// ---------------------------------------------------------------------------
// 3. The token walk (races and resident parameters)
// ---------------------------------------------------------------------------

/// Abstract arena: which SSA value each pool element currently holds,
/// as disjoint runs per pool (start → (end, token)). An element in no
/// run holds [`UNDEF`]. A plan writes whole slots, so a pool holds about
/// one run per live slot: the walk's memory and time grow with the
/// accesses it interprets, not with the arena it checks.
#[derive(Default)]
struct TokenState {
    pools: [BTreeMap<usize, (usize, u32)>; NUM_POOLS],
}

/// "Uninitialized" token.
const UNDEF: u32 = u32::MAX;

impl TokenState {
    /// Stamps `a.value` over the range: every run overlapping it is cut
    /// to its parts outside the range. Writing [`UNDEF`] leaves the range
    /// empty.
    fn write(&mut self, a: &Access) {
        if a.len == 0 {
            return;
        }
        let runs = &mut self.pools[a.pool];
        let end = a.off + a.len;
        if let Some((&s, &(e, t))) = runs.range(..a.off).next_back() {
            if e > a.off {
                runs.insert(s, (a.off, t));
                if e > end {
                    runs.insert(end, (e, t));
                }
            }
        }
        while let Some((&s, &(e, t))) = runs.range(a.off..end).next() {
            runs.remove(&s);
            if e > end {
                runs.insert(end, (e, t));
            }
        }
        if a.value != UNDEF {
            runs.insert(a.off, (end, a.value));
        }
    }

    /// `Ok` when every element of the range holds `a.value`; `Err` with
    /// the first offending token otherwise (a gap between runs holds
    /// [`UNDEF`]).
    fn read(&self, a: &Access) -> Result<(), u32> {
        if a.len == 0 {
            return Ok(());
        }
        let runs = &self.pools[a.pool];
        let end = a.off + a.len;
        let first = match runs.range(..=a.off).next_back() {
            Some((&s, &(e, _))) if e > a.off => s,
            _ => a.off,
        };
        let mut at = a.off;
        for (&s, &(e, t)) in runs.range(first..end) {
            if s > at && a.value != UNDEF {
                return Err(UNDEF);
            }
            if t != a.value {
                return Err(t);
            }
            at = e;
        }
        if at < end && a.value != UNDEF {
            return Err(UNDEF);
        }
        Ok(())
    }
}

fn describe_token(t: u32) -> String {
    if t == UNDEF {
        "no defined value".to_string()
    } else {
        format!("value %{t}")
    }
}

struct TokenCheck {
    state: TokenState,
    /// Deduplicated findings (loop bodies are interpreted twice).
    seen: HashSet<String>,
    count: usize,
}

impl TokenCheck {
    fn read(&mut self, a: &Access, at: &Loc, diags: &mut Vec<Diagnostic>) {
        if let Err(found) = self.state.read(a) {
            let msg = format!(
                "{at} reads {} but the range holds {} — a write races the value \
                 in the happens-before order",
                describe_range(a),
                describe_token(found),
            );
            if self.seen.insert(msg.clone()) {
                if self.count < MAX_DIAGS {
                    diags.push(Diagnostic::new(Severity::Error, "plan-race", msg));
                }
                self.count += 1;
            }
        }
    }

    fn copy_pairs(&mut self, pairs: &[(Access, Access)], at: &Loc, diags: &mut Vec<Diagnostic>) {
        for (s, d) in pairs {
            self.read(s, at, diags);
            self.state.write(d);
        }
    }
}

/// Abstract interpretation of the scheduled effects: parameters are
/// written, every step's reads are checked against the token map and
/// its writes update it, and the program results are read at the end
/// (`plan-race`). Then every parameter range is read once more: one
/// that no longer holds its own token was written by some step
/// (`plan-param-written`), which a device session, keeping inputs
/// resident between steps, would start its next step from.
///
/// Loops are interpreted twice (entry + body, then carry + body): the
/// body-and-carry transformation writes fixed tokens to fixed ranges,
/// so it is idempotent on the token map — the second pass observes
/// exactly the cross-back-edge state every later iteration observes,
/// making two passes exhaustive. A token names a value, not an
/// iteration, so the back-edge kills every param no carry redefines.
fn check_token_flow(view: &PlanView, diags: &mut Vec<Diagnostic>) {
    let mut chk = TokenCheck {
        state: TokenState::default(),
        seen: HashSet::new(),
        count: 0,
    };
    for p in &view.params {
        chk.state.write(p);
    }
    interp_steps(&view.steps, &Loc::Root("steps"), &mut chk, diags);
    for r in &view.results {
        chk.read(r, &Loc::Root("program result"), diags);
    }
    note_suppressed(diags, chk.count, "plan-race");
    let mut count = 0usize;
    for (i, p) in view.params.iter().enumerate() {
        let Err(found) = chk.state.read(p) else {
            continue;
        };
        if count < MAX_DIAGS {
            diags.push(Diagnostic::new(
                Severity::Error,
                "plan-param-written",
                format!(
                    "parameter {i} at {} holds {} after the last step — a session \
                     step would start from a clobbered input",
                    describe_range(p),
                    describe_token(found),
                ),
            ));
        }
        count += 1;
    }
    note_suppressed(diags, count, "plan-param-written");
}

fn interp_steps(steps: &[StepView], path: &Loc, chk: &mut TokenCheck, diags: &mut Vec<Diagnostic>) {
    for (pos, step) in steps.iter().enumerate() {
        let at = Loc::Step {
            parent: path,
            pos,
            step,
        };
        match step {
            StepView::Compute { reads, writes, .. } => {
                for r in reads {
                    chk.read(r, &at, diags);
                }
                for w in writes {
                    chk.state.write(w);
                }
            }
            StepView::CollStart { src, .. } => chk.read(src, &at, diags),
            StepView::CollWait { dst, .. } => chk.state.write(dst),
            StepView::For(l) => {
                if l.trip_count == 0 {
                    chk.copy_pairs(&l.bypass, &at, diags);
                    continue;
                }
                chk.copy_pairs(&l.entry, &at, diags);
                chk.state.write(&l.index);
                interp_steps(&l.body, &at, chk, diags);
                if l.trip_count > 1 {
                    chk.copy_pairs(&l.carry, &at, diags);
                    // A param no carry pair redefines is dead here.
                    for (_, param) in &l.entry {
                        if !l.carry.iter().any(|(_, d)| d.value == param.value) {
                            chk.state.write(&Access {
                                value: UNDEF,
                                ..*param
                            });
                        }
                    }
                    chk.state.write(&l.index);
                    interp_steps(&l.body, &at, chk, diags);
                }
                chk.copy_pairs(&l.exit, &at, diags);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Rendezvous linearisation
// ---------------------------------------------------------------------------

/// Cross-device deadlock freedom of the compiled schedule, in two
/// parts. *Symmetry*: every stage's group members carry a matching
/// stage (same axis, same dim, identical group) for the same tag —
/// otherwise some member rendezvouses with a partner that never shows
/// up. *Linearisation*: at each wait site (starts never block), greedily
/// complete any stage sitting at the head of all of its members' queues.
/// Completing an enabled stage never disables another (monotonicity),
/// so the greedy [`drain`] empties the queues iff some global order of
/// the site's rendezvous edges exists. Devices meet the sites in one
/// program order, so the plan is deadlock-free iff every site drains;
/// sites in zero-trip loops are checked too, which errs on the safe
/// side.
fn check_rendezvous(view: &PlanView, diags: &mut Vec<Diagnostic>) {
    let mut sites: Vec<(u32, Arc<Vec<Vec<StageView>>>)> = Vec::new();
    collect_wait_sites(&view.steps, &mut sites);

    let mut symmetric = true;
    for (tag, stages) in &sites {
        if stages.len() != view.num_devices {
            diags.push(Diagnostic::new(
                Severity::Error,
                "plan-rendezvous-asymmetric",
                format!(
                    "collective tag {tag} carries {} device schedules for {} devices",
                    stages.len(),
                    view.num_devices
                ),
            ));
            symmetric = false;
            continue;
        }
        for (d, mine) in stages.iter().enumerate() {
            let mut axes_seen: HashSet<&Axis> = HashSet::new();
            for stage in mine {
                if !axes_seen.insert(&stage.axis) {
                    diags.push(Diagnostic::new(
                        Severity::Error,
                        "plan-rendezvous-asymmetric",
                        format!(
                            "device {d} has two stages over axis \"{}\" for tag {tag}",
                            stage.axis
                        ),
                    ));
                    symmetric = false;
                    continue;
                }
                if !stage.group.contains(&d) {
                    diags.push(Diagnostic::new(
                        Severity::Error,
                        "plan-rendezvous-asymmetric",
                        format!(
                            "device {d} is missing from its own group {:?} \
                             (axis \"{}\", tag {tag})",
                            stage.group, stage.axis
                        ),
                    ));
                    symmetric = false;
                    continue;
                }
                for &e in &stage.group {
                    if e == d {
                        continue;
                    }
                    let matched = stages.get(e).and_then(|theirs| {
                        theirs
                            .iter()
                            .find(|s| s.axis == stage.axis && s.dim == stage.dim)
                    });
                    if matched.is_none_or(|s| s.group != stage.group) {
                        diags.push(Diagnostic::new(
                            Severity::Error,
                            "plan-rendezvous-asymmetric",
                            format!(
                                "device {d} rendezvouses with {e} over axis \"{}\" \
                                 (tag {tag}) but {e} has no matching stage with group {:?}",
                                stage.axis, stage.group
                            ),
                        ));
                        symmetric = false;
                    }
                }
            }
        }
    }
    if !symmetric {
        // The drain below matches heads structurally; with asymmetric
        // groups it would re-report the same defect less precisely.
        return;
    }

    for (tag, stages) in &sites {
        let cursor = drain(stages);
        let blocked: Vec<String> = (0..view.num_devices)
            .filter_map(|d| {
                let s = stages[d].get(cursor[d])?;
                Some(format!(
                    "device {d} blocked on tag {tag} axis \"{}\" group {:?}",
                    s.axis, s.group
                ))
            })
            .collect();
        if !blocked.is_empty() {
            // Nothing after the first blocked site is reachable.
            diags.push(Diagnostic::new(
                Severity::Error,
                "plan-rendezvous-deadlock",
                format!("no rendezvous linearisation exists: {}", blocked.join("; ")),
            ));
            return;
        }
    }
}

/// Greedy completion of one wait site's blocking rendezvous: `queues[d]`
/// is device `d`'s stages, in order. A stage completes when the same
/// stage sits at the head of every member of its group; completing an
/// enabled stage never disables another (the system is monotone), so
/// greedy completion is a sound *and* complete deadlock check: the
/// returned cursors reach the end of every queue iff no schedule
/// deadlocks.
fn drain(queues: &[Vec<StageView>]) -> Vec<usize> {
    let mut cursor = vec![0usize; queues.len()];
    loop {
        let mut progressed = false;
        for d in 0..queues.len() {
            let Some(head) = queues[d].get(cursor[d]) else {
                continue;
            };
            let group = &head.group;
            if group
                .iter()
                .all(|&peer| queues[peer].get(cursor[peer]) == Some(head))
            {
                for &peer in group {
                    cursor[peer] += 1;
                }
                progressed = true;
            }
        }
        if !progressed {
            return cursor;
        }
    }
}

fn collect_wait_sites(steps: &[StepView], sites: &mut Vec<(u32, Arc<Vec<Vec<StageView>>>)>) {
    for step in steps {
        match step {
            StepView::CollWait { tag, stages, .. } => sites.push((*tag, stages.clone())),
            StepView::For(l) => collect_wait_sites(&l.body, sites),
            _ => {}
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use partir_prng::{propcheck::check, Rng};

    fn acc(pool: usize, off: usize, len: usize, value: u32) -> Access {
        Access {
            pool,
            off,
            len,
            value,
        }
    }

    fn compute(name: &'static str, reads: Vec<Access>, writes: Vec<Access>) -> StepView {
        StepView::Compute {
            name,
            reads,
            writes,
        }
    }

    fn stage(axis: &str, group: Vec<usize>) -> StageView {
        StageView {
            axis: axis.into(),
            dim: 0,
            group,
        }
    }

    /// `x(param) → neg → all_reduce → mul(ar, x) → result`, two devices
    /// on one axis, with an overlapped window around the neg-independent
    /// compute.
    fn clean_view() -> PlanView {
        let stages = Arc::new(vec![
            vec![stage("B", vec![0, 1])],
            vec![stage("B", vec![0, 1])],
        ]);
        PlanView {
            num_devices: 2,
            num_tags: 1,
            pool_len: [12, 0, 0],
            params: vec![acc(0, 0, 4, 0)],
            results: vec![acc(0, 8, 4, 3)],
            steps: vec![
                compute("neg", vec![acc(0, 0, 4, 0)], vec![acc(0, 4, 4, 1)]),
                StepView::CollStart {
                    tag: 0,
                    src: acc(0, 4, 4, 1),
                },
                StepView::CollWait {
                    tag: 0,
                    dst: acc(0, 8, 4, 2),
                    stages,
                },
                compute(
                    "mul",
                    vec![acc(0, 8, 4, 2), acc(0, 0, 4, 0)],
                    vec![acc(0, 8, 4, 3)],
                ),
            ],
            overlapped: true,
        }
    }

    /// The per-element token map the run map replaced: one token per
    /// arena element. Kept as the oracle of `run_map_matches_per_element_oracle`.
    struct ElementTokens {
        pools: [Vec<u32>; NUM_POOLS],
    }

    impl ElementTokens {
        fn write(&mut self, a: &Access) {
            self.pools[a.pool][a.off..a.off + a.len].fill(a.value);
        }

        fn read(&self, a: &Access) -> Result<(), u32> {
            match self.pools[a.pool][a.off..a.off + a.len]
                .iter()
                .find(|&&t| t != a.value)
            {
                None => Ok(()),
                Some(&t) => Err(t),
            }
        }
    }

    /// Random writes (`UNDEF` kills among them) and reads over the three
    /// pools give the same `Ok` or `Err(token)` from the run map as from
    /// the per-element map. Offsets come from a coarse grid half the
    /// time, so ranges often nest, share an edge or coincide; lengths
    /// include zero.
    #[test]
    fn run_map_matches_per_element_oracle() {
        check("token run map == per-element map", 256, |rng| {
            let pool_len: [usize; NUM_POOLS] = std::array::from_fn(|_| rng.gen_range(40));
            let mut runs = TokenState::default();
            let mut oracle = ElementTokens {
                pools: pool_len.map(|n| vec![UNDEF; n]),
            };
            let tokens = [0, 1, 2, 3, UNDEF];
            let access = |rng: &mut Rng| {
                let pool = rng.gen_range(NUM_POOLS);
                let n = pool_len[pool];
                let point = |rng: &mut Rng| {
                    let p = rng.gen_range(n + 1);
                    if rng.gen_bool(0.5) {
                        p - p % 4
                    } else {
                        p
                    }
                };
                let (x, y) = (point(rng), point(rng));
                let (off, end) = (x.min(y), x.max(y));
                let len = if rng.gen_bool(0.1) { 0 } else { end - off };
                acc(pool, off, len, *rng.choose(&tokens))
            };
            for op in 0..rng.gen_range_in(1, 60) {
                let a = access(rng);
                if rng.gen_bool(0.5) {
                    runs.write(&a);
                    oracle.write(&a);
                    continue;
                }
                let (got, want) = (runs.read(&a), oracle.read(&a));
                if got != want {
                    return Err(format!("op {op}: read {a:?} gave {got:?}, oracle {want:?}"));
                }
            }
            // Every element reads back the oracle's token.
            for (pool, tokens) in oracle.pools.iter().enumerate() {
                for (off, &t) in tokens.iter().enumerate() {
                    let got = runs.read(&acc(pool, off, 1, t));
                    if got.is_err() {
                        return Err(format!("{pool}[{off}] should hold {t}, read {got:?}"));
                    }
                }
            }
            Ok(())
        });
    }

    #[test]
    fn clean_view_verifies() {
        let diags = verify_plan(&clean_view());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn oob_access_flagged() {
        let mut v = clean_view();
        v.pool_len[0] = 8;
        let diags = verify_plan(&v);
        assert!(
            diags.iter().any(|d| d.rule == "plan-oob-access"),
            "{diags:?}"
        );
    }

    /// A range whose end overflows `usize` is out of bounds, not a
    /// panic in the bounds check or a wrapped sum that passes it.
    #[test]
    fn overflowing_range_is_oob() {
        for (pool, off) in [(0, usize::MAX), (0, usize::MAX - 2), (7, 0)] {
            let mut v = clean_view();
            if let StepView::Compute { writes, .. } = &mut v.steps[0] {
                writes[0] = acc(pool, off, 4, 1);
            }
            let diags = verify_plan(&v);
            let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
            assert_eq!(rules, ["plan-oob-access"], "{diags:?}");
        }
    }

    #[test]
    fn over_hoisted_start_races() {
        let mut v = clean_view();
        // Start before the producer of its payload.
        v.steps.swap(0, 1);
        let diags = verify_plan(&v);
        assert!(diags.iter().any(|d| d.rule == "plan-race"), "{diags:?}");
    }

    #[test]
    fn dropped_wait_flagged() {
        let mut v = clean_view();
        v.steps.remove(2);
        let diags = verify_plan(&v);
        assert!(
            diags.iter().any(|d| d.rule == "plan-window-unpaired"),
            "{diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.rule == "plan-window-missing"),
            "{diags:?}"
        );
    }

    /// The last step writes its result over the parameter it is the
    /// last reader of: a legal reuse for every other check, but the next
    /// session step would read the result as its input.
    #[test]
    fn param_overwrite_after_last_read_flagged() {
        let mut v = clean_view();
        v.results = vec![acc(0, 0, 4, 3)];
        if let StepView::Compute { writes, .. } = &mut v.steps[3] {
            *writes = vec![acc(0, 0, 4, 3)];
        }
        let diags = verify_plan(&v);
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, ["plan-param-written"], "{diags:?}");
    }

    #[test]
    fn aliased_slots_flagged() {
        let mut v = clean_view();
        // Move the wait's destination onto the still-live param range.
        if let StepView::CollWait { dst, .. } = &mut v.steps[2] {
            *dst = acc(0, 0, 4, 2);
        }
        if let StepView::Compute { reads, .. } = &mut v.steps[3] {
            reads[0] = acc(0, 0, 4, 2);
        }
        let diags = verify_plan(&v);
        assert!(diags.iter().any(|d| d.rule == "plan-race"), "{diags:?}");
    }

    #[test]
    fn permuted_stage_order_deadlocks() {
        let mut v = clean_view();
        // Two axes; device 1 runs them in the opposite order.
        let stages = Arc::new(vec![
            vec![stage("B", vec![0, 1]), stage("M", vec![0, 1])],
            vec![stage("M", vec![0, 1]), stage("B", vec![0, 1])],
        ]);
        if let StepView::CollWait { stages: s, .. } = &mut v.steps[2] {
            *s = stages;
        }
        let diags = verify_plan(&v);
        assert!(
            diags.iter().any(|d| d.rule == "plan-rendezvous-deadlock"),
            "{diags:?}"
        );
    }

    /// `clean_view` on a 2×2 mesh (`B` outer, `M` inner) whose one
    /// all-reduce waits over both axes; `b_first[d]` says whether device
    /// `d` runs its `B` stage before its `M` stage.
    pub(crate) fn two_axis_view(b_first: [bool; 4]) -> PlanView {
        let stages = (0..4)
            .map(|d| {
                let b = stage("B", vec![d % 2, d % 2 + 2]);
                let m = stage("M", vec![d - d % 2, d - d % 2 + 1]);
                if b_first[d] {
                    vec![b, m]
                } else {
                    vec![m, b]
                }
            })
            .collect();
        let mut v = clean_view();
        v.num_devices = 4;
        if let StepView::CollWait { stages: s, .. } = &mut v.steps[2] {
            *s = Arc::new(stages);
        }
        v
    }

    #[test]
    fn disjoint_axis_reorder_drains() {
        // Devices 0 and 1 run B then M, 2 and 3 run M then B: M {2, 3}
        // completes, then both B groups, then M {0, 1}. Reordering
        // stages is not by itself a deadlock.
        let diags = verify_plan(&two_axis_view([true, true, false, false]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn asymmetric_group_flagged() {
        let mut v = clean_view();
        let stages = Arc::new(vec![
            vec![stage("B", vec![0, 1])],
            vec![stage("B", vec![1])], // device 1 forgot its partner
        ]);
        if let StepView::CollWait { stages: s, .. } = &mut v.steps[2] {
            *s = stages;
        }
        let diags = verify_plan(&v);
        assert!(
            diags.iter().any(|d| d.rule == "plan-rendezvous-asymmetric"),
            "{diags:?}"
        );
    }

    #[test]
    fn loop_identity_carry_is_not_a_conflict() {
        // for i in 0..3 { p = neg(p) } with the region result sharing
        // the param's slot via an identity carry.
        let v = PlanView {
            num_devices: 1,
            num_tags: 0,
            pool_len: [12, 1, 0],
            params: vec![acc(0, 0, 4, 0)],
            results: vec![acc(0, 8, 4, 4)],
            steps: vec![StepView::For(Box::new(ForView {
                trip_count: 3,
                index: acc(1, 0, 1, 1),
                entry: vec![(acc(0, 0, 4, 0), acc(0, 4, 4, 2))],
                body: vec![compute("neg", vec![acc(0, 4, 4, 2)], vec![acc(0, 4, 4, 3)])],
                carry: vec![(acc(0, 4, 4, 3), acc(0, 4, 4, 2))],
                exit: vec![(acc(0, 4, 4, 3), acc(0, 8, 4, 4))],
                bypass: vec![(acc(0, 0, 4, 0), acc(0, 8, 4, 4))],
            }))],
            overlapped: false,
        };
        let diags = verify_plan(&v);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn cross_iteration_clobber_races() {
        // The loop body overwrites the carried param's range with an
        // unrelated value before the carry reads the region result.
        let v = PlanView {
            num_devices: 1,
            num_tags: 0,
            pool_len: [12, 1, 0],
            params: vec![acc(0, 0, 4, 0)],
            results: vec![acc(0, 8, 4, 4)],
            steps: vec![StepView::For(Box::new(ForView {
                trip_count: 3,
                index: acc(1, 0, 1, 1),
                entry: vec![(acc(0, 0, 4, 0), acc(0, 4, 4, 2))],
                body: vec![
                    compute("neg", vec![acc(0, 4, 4, 2)], vec![acc(0, 4, 4, 3)]),
                    // Clobbers the region result before the carry.
                    compute("baked", vec![], vec![acc(0, 4, 4, 9)]),
                ],
                carry: vec![(acc(0, 4, 4, 3), acc(0, 4, 4, 2))],
                exit: vec![(acc(0, 4, 4, 3), acc(0, 8, 4, 4))],
                bypass: vec![(acc(0, 0, 4, 0), acc(0, 8, 4, 4))],
            }))],
            overlapped: false,
        };
        let diags = verify_plan(&v);
        assert!(diags.iter().any(|d| d.rule == "plan-race"), "{diags:?}");
    }

    #[test]
    fn window_across_loop_back_edge_flagged() {
        // Start inside the loop, wait outside: the window crosses the
        // region boundary.
        let stages = Arc::new(vec![vec![stage("B", vec![0])]]);
        let v = PlanView {
            num_devices: 1,
            num_tags: 1,
            pool_len: [12, 1, 0],
            params: vec![acc(0, 0, 4, 0)],
            results: vec![acc(0, 8, 4, 4)],
            steps: vec![
                StepView::For(Box::new(ForView {
                    trip_count: 2,
                    index: acc(1, 0, 1, 1),
                    entry: vec![(acc(0, 0, 4, 0), acc(0, 4, 4, 2))],
                    body: vec![StepView::CollStart {
                        tag: 0,
                        src: acc(0, 4, 4, 2),
                    }],
                    carry: vec![],
                    exit: vec![(acc(0, 4, 4, 2), acc(0, 8, 4, 4))],
                    bypass: vec![(acc(0, 0, 4, 0), acc(0, 8, 4, 4))],
                })),
                StepView::CollWait {
                    tag: 0,
                    dst: acc(0, 8, 4, 4),
                    stages,
                },
            ],
            overlapped: true,
        };
        let diags = verify_plan(&v);
        // Both halves are reported: the in-loop start never closed in
        // its region, and the top-level wait never opened in its own.
        assert!(
            diags
                .iter()
                .filter(|d| d.rule == "plan-window-unpaired")
                .count()
                >= 2,
            "{diags:?}"
        );
    }

    #[test]
    fn huge_trip_count_verifies_clean() {
        // A million-trip loop around one wait site: the per-site drain
        // runs once, whatever the trip count.
        let stages = Arc::new(vec![
            vec![stage("B", vec![0, 1])],
            vec![stage("B", vec![0, 1])],
        ]);
        let v = PlanView {
            num_devices: 2,
            num_tags: 1,
            pool_len: [12, 1, 0],
            params: vec![acc(0, 0, 4, 0)],
            results: vec![acc(0, 0, 4, 0)],
            steps: vec![StepView::For(Box::new(ForView {
                trip_count: 1_000_000,
                index: acc(1, 0, 1, 1),
                entry: vec![],
                body: vec![
                    StepView::CollStart {
                        tag: 0,
                        src: acc(0, 0, 4, 0),
                    },
                    StepView::CollWait {
                        tag: 0,
                        dst: acc(0, 4, 4, 2),
                        stages,
                    },
                ],
                carry: vec![],
                exit: vec![],
                bypass: vec![],
            }))],
            overlapped: false,
        };
        let diags = verify_plan(&v);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
