//! Plan-level translation validation, end to end.
//!
//! Two halves:
//!
//! * a **property sweep**: every zoo model × Table 2 schedule on the
//!   1×2/2×2/4×2 mesh ladder compiles to a [`CompiledPlan`] under both
//!   `PlanOptions::default()` (overlapped) and `PlanOptions::blocking()`,
//!   and the static verifier accepts every one. Blocking plans must
//!   verify *trivially*: no collective window is open at any step.
//! * a **mutation suite**: 15 seeded overlap-pass and allocator bugs
//!   injected into the verifier view of real compiled plans —
//!   over-hoisted starts, mis-sunk waits, aliased slots (every pair of
//!   values whose live ranges overlap, in a straight-line plan and in a
//!   serving loop), swapped slots, permuted stage orders, dropped wait
//!   edges, a dropped loop carry, a parameter range reused after its
//!   last read, and friends — each of which the verifier must flag.
//!   The swapped slots and the dropped carry are value-bookkeeping bugs
//!   no run catches by comparison with a second executor: the verifier
//!   must. The reused parameter range is correct for one run and wrong
//!   only for a device session, which keeps inputs resident between
//!   steps.
//!
//! The mutations operate on a clone of [`CompiledPlan::verifier_view`],
//! exactly the data a buggy overlap/allocation pass would have produced,
//! so the suite pins the verifier's power over the real compiled
//! representation rather than hand-built toys.
//!
//! Every zoo plan and every mutation also meets a **drain oracle**: the
//! verifier drains the rendezvous once per wait site, and the oracle
//! unrolls every device's waits through the loops into one queue and
//! drains that. Both must reach the same deadlock verdict.

use partir_analysis::plan::{Access, ForView, PlanView, StageView, StepView};
use partir_analysis::{verify_plan, Diagnostic, Severity};
use partir_core::Partitioning;
use partir_ir::{FuncBuilder, TensorType};
use partir_mesh::{HardwareConfig, Mesh};
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::{
    gns::GnsConfig, itransformer::ITransformerConfig, mlp::MlpConfig,
    transformer::TransformerConfig, unet::UNetConfig,
};
use partir_sched::{partir_jit, Schedule};
use partir_spmd::PlanOptions;
use std::sync::Arc;

/// The benchmark mesh ladder: 1×2, 2×2, 4×2 (batch × model).
fn meshes() -> Vec<Mesh> {
    [1usize, 2, 4]
        .into_iter()
        .map(|b| Mesh::new([(BATCH, b), (MODEL, 2)]).unwrap())
        .collect()
}

type ZooEntry = (&'static str, partir_ir::Func, Vec<(&'static str, Schedule)>);

fn zoo() -> Vec<ZooEntry> {
    // Batch 8 so the batch axis tiles on every mesh of the ladder.
    let unet_cfg = UNetConfig {
        batch: 8,
        ..UNetConfig::tiny()
    };
    vec![
        (
            "transformer",
            partir_models::transformer::build_train_step(&TransformerConfig::tiny())
                .unwrap()
                .func,
            schedules::transformer_table2(),
        ),
        (
            "itransformer",
            partir_models::itransformer::build_serving(&ITransformerConfig::tiny())
                .unwrap()
                .func,
            schedules::itransformer_table2(),
        ),
        (
            "unet",
            partir_models::unet::build_train_step(&unet_cfg)
                .unwrap()
                .func,
            schedules::unet_table2(),
        ),
        (
            "gns",
            partir_models::gns::build_train_step(&GnsConfig::tiny())
                .unwrap()
                .func,
            schedules::gns_table2(),
        ),
    ]
}

/// Property: the verifier accepts every zoo plan, overlapped and
/// blocking, and blocking plans have no open window at any step.
#[test]
fn zoo_plans_verify_under_both_options() {
    for (name, func, rows) in zoo() {
        for mesh in meshes() {
            let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
            let mesh_label: Vec<String> = mesh.axes().iter().map(|(_, s)| s.to_string()).collect();
            for (schedule_label, schedule) in &rows {
                let label = format!("{name}/{schedule_label} on {}", mesh_label.join("x"));
                let jitted = partir_jit(&func, &hw, schedule).expect(&label);
                for (opt_label, opts) in [
                    ("overlapped", PlanOptions::default()),
                    ("blocking", PlanOptions::blocking()),
                ] {
                    let plan = jitted
                        .program
                        .compile_with(&opts)
                        .unwrap_or_else(|e| panic!("{label} ({opt_label}): {e}"));
                    let diags = plan.verify();
                    assert_drains_agree(&plan.verifier_view(), &diags, &label);
                    assert!(
                        diags.iter().all(|d| d.severity < Severity::Warning),
                        "{label} ({opt_label}) rejected:\n{}",
                        diags
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join("\n")
                    );
                    if opt_label == "blocking" {
                        assert!(
                            plan.collective_windows().iter().all(|w| w.gap_steps == 0),
                            "{label}: blocking plan has an open collective window"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Drain oracle
// ---------------------------------------------------------------------------

/// The deadlock drain over whole unrolled traces: each device's blocking
/// stages, loops multiplied out, in one queue; a stage completes when the
/// same tag and stage sit at the head of every member of its group.
/// Greedy completion is exact because completing a stage never disables
/// another. Costs a queue entry per stage per iteration, so it is kept
/// only as the oracle of the verifier's per-site drain.
fn unrolled_drain_deadlocks(view: &PlanView) -> bool {
    fn unroll<'a>(steps: &'a [StepView], d: usize, out: &mut Vec<(u32, &'a StageView)>) {
        for step in steps {
            match step {
                StepView::CollWait { tag, stages, .. } => {
                    out.extend(stages[d].iter().map(|s| (*tag, s)));
                }
                StepView::For(l) => {
                    for _ in 0..l.trip_count {
                        unroll(&l.body, d, out);
                    }
                }
                _ => {}
            }
        }
    }
    let queues: Vec<Vec<(u32, &StageView)>> = (0..view.num_devices)
        .map(|d| {
            let mut q = Vec::new();
            unroll(&view.steps, d, &mut q);
            q
        })
        .collect();
    let mut cursor = vec![0usize; queues.len()];
    loop {
        let mut progressed = false;
        for d in 0..queues.len() {
            let Some(head) = queues[d].get(cursor[d]) else {
                continue;
            };
            let group = &head.1.group;
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
            return (0..queues.len()).any(|d| cursor[d] < queues[d].len());
        }
    }
}

/// The verifier's findings `diags` on `view` flag
/// `plan-rendezvous-deadlock` exactly when the unrolled oracle
/// deadlocks. Asymmetric groups are reported as such before any drain
/// runs, so they are skipped here.
fn assert_drains_agree(view: &PlanView, diags: &[Diagnostic], what: &str) {
    if diags.iter().any(|d| d.rule == "plan-rendezvous-asymmetric") {
        return;
    }
    let flagged = diags.iter().any(|d| d.rule == "plan-rendezvous-deadlock");
    assert_eq!(
        flagged,
        unrolled_drain_deadlocks(view),
        "{what}: per-site drain and unrolled oracle disagree"
    );
}

/// Every way of reversing some devices' two-stage schedules, at top
/// level and inside a three-trip loop: the per-site drain agrees with
/// the unrolled oracle on all 16 device subsets, and both verdicts occur.
#[test]
fn per_site_drain_matches_unrolled_oracle_on_stage_reorders() {
    let base = two_axis_view();
    let mut verdicts = [0usize; 2];
    for mask in 0..1u32 << base.num_devices {
        let mut view = base.clone();
        for step in &mut view.steps {
            if let StepView::CollWait { stages, .. } = step {
                let stages = Arc::make_mut(stages);
                for (d, mine) in stages.iter_mut().enumerate() {
                    if mask >> d & 1 == 1 {
                        mine.reverse();
                    }
                }
            }
        }
        verdicts[usize::from(unrolled_drain_deadlocks(&view))] += 1;
        let what = format!("reversed device set {mask:#06b}");
        assert_drains_agree(&view, &verify_plan(&view), &what);
        // The same schedules around a loop back-edge.
        let none = Access {
            pool: 1,
            off: 0,
            len: 0,
            value: u32::MAX - 1,
        };
        view.steps = vec![StepView::For(Box::new(ForView {
            trip_count: 3,
            index: none,
            entry: vec![],
            body: std::mem::take(&mut view.steps),
            carry: vec![],
            exit: vec![],
            bypass: vec![],
        }))];
        assert_drains_agree(&view, &verify_plan(&view), &format!("looped, {what}"));
    }
    assert!(
        verdicts.iter().all(|&n| n > 0),
        "reorders should both drain and deadlock: {verdicts:?}"
    );
}

// ---------------------------------------------------------------------------
// Mutation suite
// ---------------------------------------------------------------------------

/// The Megatron-style MLP on a 2×2 mesh: all_reduce and gather/slice
/// collectives with real compute inside the overlapped windows.
fn mlp_view() -> PlanView {
    let model = partir_models::mlp::build_train_step(&MlpConfig::small()).unwrap();
    let mesh = Mesh::new([(BATCH, 2), (MODEL, 2)]).unwrap();
    let mut part = Partitioning::new(&model.func, mesh).unwrap();
    let params = model.func.params().to_vec();
    part.tile(&model.func, params[0], 0, &BATCH.into()).unwrap();
    part.tile(&model.func, params[2], 1, &MODEL.into()).unwrap();
    part.propagate(&model.func);
    let program = partir_spmd::lower(&model.func, &part).unwrap();
    let plan = program.compile_with(&PlanOptions::default()).unwrap();
    let view = plan.verifier_view().clone();
    assert!(
        verify_plan(&view)
            .iter()
            .all(|d| d.severity < Severity::Warning),
        "baseline mlp plan must verify before mutation"
    );
    view
}

/// A single all_reduce over *both* mesh axes: its per-device schedules
/// have two rendezvous stages, which is what stage-order mutations need.
fn two_axis_view() -> PlanView {
    let mut b = FuncBuilder::new("both_axes");
    let x = b.param("x", TensorType::f32([4, 4]));
    let s = b.reduce_sum(x, vec![0, 1]).unwrap();
    let f = b.build([s]).unwrap();
    let mesh = Mesh::new([(BATCH, 2), (MODEL, 2)]).unwrap();
    let mut part = Partitioning::new(&f, mesh).unwrap();
    part.tile(&f, x, 0, &BATCH.into()).unwrap();
    part.tile(&f, x, 1, &MODEL.into()).unwrap();
    part.propagate(&f);
    let program = partir_spmd::lower(&f, &part).unwrap();
    let plan = program.compile_with(&PlanOptions::default()).unwrap();
    let view = plan.verifier_view().clone();
    assert!(
        view.steps.iter().any(|s| matches!(
            s,
            StepView::CollWait { stages, .. } if stages[0].len() == 2
        )),
        "expected a two-stage collective in the two-axis reduction plan"
    );
    view
}

fn rules(view: &PlanView) -> Vec<String> {
    verify_plan(view)
        .into_iter()
        .filter(|d| d.severity >= Severity::Warning)
        .map(|d| d.rule.to_string())
        .collect()
}

fn assert_flags(view: &PlanView, rule: &str, what: &str) {
    assert_drains_agree(view, &verify_plan(view), what);
    let got = rules(view);
    assert!(
        got.iter().any(|r| r == rule),
        "{what}: expected rule {rule}, verifier reported {got:?}"
    );
}

/// First `CollStart` whose source is produced by an earlier top-level
/// step (so hoisting above that producer is provably wrong).
fn hoistable_start(view: &PlanView) -> (usize, usize) {
    for (i, step) in view.steps.iter().enumerate() {
        let StepView::CollStart { src, .. } = step else {
            continue;
        };
        let producer = view.steps[..i].iter().position(|s| {
            matches!(s, StepView::Compute { writes, .. }
                if writes.iter().any(|w| w.value == src.value))
        });
        if let Some(p) = producer {
            return (i, p);
        }
    }
    panic!("no collective start with an in-plan producer");
}

/// Mutation 1: over-hoisted start — the overlap pass moved a
/// `CollStart` above the step that produces its operand.
#[test]
fn mutation_over_hoisted_start() {
    let mut view = mlp_view();
    let (start, producer) = hoistable_start(&view);
    let s = view.steps.remove(start);
    view.steps.insert(producer, s);
    assert_flags(&view, "plan-race", "over-hoisted start");
}

/// Mutation 2: mis-sunk wait — a `CollWait` pushed past the first
/// consumer of its result.
#[test]
fn mutation_mis_sunk_wait() {
    let mut view = mlp_view();
    let (wait, consumer) = (0..view.steps.len())
        .find_map(|i| {
            let StepView::CollWait { dst, .. } = &view.steps[i] else {
                return None;
            };
            let c = view.steps[i + 1..].iter().position(|s| {
                matches!(s, StepView::Compute { reads, .. }
                    if reads.iter().any(|r| r.value == dst.value))
            })?;
            Some((i, i + 1 + c))
        })
        .expect("no wait with an in-plan consumer");
    let w = view.steps.remove(wait);
    view.steps.insert(consumer, w); // lands just *after* the consumer
    assert_flags(&view, "plan-race", "mis-sunk wait");
}

/// Mutation 3: dropped wait edge — the wait vanishes entirely, so the
/// window never closes and the result is never produced.
#[test]
fn mutation_dropped_wait() {
    let mut view = mlp_view();
    let wait = view
        .steps
        .iter()
        .position(|s| matches!(s, StepView::CollWait { .. }))
        .expect("plan has a wait");
    view.steps.remove(wait);
    assert_flags(&view, "plan-window-unpaired", "dropped wait");
}

/// Mutation 4: dropped start — the wait blocks on messages no start
/// ever put in flight.
#[test]
fn mutation_dropped_start() {
    let mut view = mlp_view();
    let start = view
        .steps
        .iter()
        .position(|s| matches!(s, StepView::CollStart { .. }))
        .expect("plan has a start");
    view.steps.remove(start);
    assert_flags(&view, "plan-window-unpaired", "dropped start");
}

/// Mutation 5: duplicated wait — one tag waited twice (a double-free of
/// the in-flight table in the executor).
#[test]
fn mutation_duplicated_wait() {
    let mut view = mlp_view();
    let wait = view
        .steps
        .iter()
        .position(|s| matches!(s, StepView::CollWait { .. }))
        .expect("plan has a wait");
    let w = view.steps[wait].clone();
    view.steps.insert(wait + 1, w);
    assert_flags(&view, "plan-window-duplicate", "duplicated wait");
}

/// Every access of `value`, anywhere in the plan, relocated to `off` —
/// what a first-fit allocator bug that hands out an in-use range does.
fn relocate(steps: &mut [StepView], value: u32, off: usize) {
    for step in steps {
        match step {
            StepView::Compute { reads, writes, .. } => {
                for a in reads.iter_mut().chain(writes.iter_mut()) {
                    if a.value == value {
                        a.off = off;
                    }
                }
            }
            StepView::CollStart { src, .. } => {
                if src.value == value {
                    src.off = off;
                }
            }
            StepView::CollWait { dst, .. } => {
                if dst.value == value {
                    dst.off = off;
                }
            }
            StepView::For(f) => {
                for (a, b) in f
                    .entry
                    .iter_mut()
                    .chain(f.carry.iter_mut())
                    .chain(f.exit.iter_mut())
                    .chain(f.bypass.iter_mut())
                {
                    if a.value == value {
                        a.off = off;
                    }
                    if b.value == value {
                        b.off = off;
                    }
                }
                relocate(&mut f.body, value, off);
            }
        }
    }
}

/// Live ranges over one pass through the step list, loop bodies walked
/// once in place (the order of a loop's first iteration): every value's
/// access, defining position and last reading position. Parameters are
/// defined at position 0.
struct LiveRanges {
    lives: Vec<(Access, usize, usize)>,
    pos: usize,
}

impl LiveRanges {
    fn of(view: &PlanView) -> Self {
        let mut walk = LiveRanges {
            lives: view.params.iter().map(|p| (*p, 0, 0)).collect(),
            pos: 0,
        };
        walk.steps(&view.steps);
        walk
    }

    fn def(&mut self, a: &Access) {
        self.lives.push((*a, self.pos, self.pos));
    }

    fn read(&mut self, a: &Access) {
        let pos = self.pos;
        for life in self.lives.iter_mut().filter(|l| l.0.value == a.value) {
            life.2 = pos;
        }
    }

    fn copies(&mut self, pairs: &[(Access, Access)]) {
        self.pos += 1;
        for (s, d) in pairs {
            self.read(s);
            self.def(d);
        }
    }

    fn steps(&mut self, steps: &[StepView]) {
        for step in steps {
            self.pos += 1;
            match step {
                StepView::Compute { reads, writes, .. } => {
                    reads.iter().for_each(|r| self.read(r));
                    writes.iter().for_each(|w| self.def(w));
                }
                StepView::CollStart { src, .. } => self.read(src),
                StepView::CollWait { dst, .. } => self.def(dst),
                StepView::For(l) if l.trip_count == 0 => self.copies(&l.bypass),
                StepView::For(l) => {
                    self.copies(&l.entry);
                    self.def(&l.index);
                    self.steps(&l.body);
                    if l.trip_count > 1 {
                        // A second iteration follows: the carry reads
                        // the region results after the body.
                        for (s, _) in &l.carry {
                            self.read(s);
                        }
                    }
                    self.copies(&l.exit);
                }
            }
        }
    }
}

/// Every `(victim, thief)` pair of `view`'s values where the thief is
/// defined strictly inside the victim's live range (after the victim's
/// definition, before its last read) at another offset of the same
/// pool, from which relocating the thief onto the victim's offset stays
/// in bounds. Returns `(victim offset, thief value)`.
fn aliasing_pairs(view: &PlanView) -> Vec<(usize, u32)> {
    let lives = LiveRanges::of(view).lives;
    let mut pairs = Vec::new();
    for (v, v_def, v_last) in &lives {
        for (t, t_def, _) in &lives {
            if t.value != v.value
                && t.pool == v.pool
                && t.off != v.off
                && t.len > 0
                && v_def < t_def
                && t_def < v_last
                && v.off + t.len <= view.pool_len[v.pool]
            {
                pairs.push((v.off, t.value));
            }
        }
    }
    pairs
}

/// Mutation 6: aliased slots — a first-fit allocator bug hands a value
/// a range another value still holds. Every such pair of the plan is
/// tried, and the token walk must report a race: the victim's last read
/// observes the thief.
fn sweep_aliased_slots(view: &PlanView, what: &str) {
    let pairs = aliasing_pairs(view);
    assert!(!pairs.is_empty(), "{what}: no overlapping-lifetime pair");
    for &(victim_off, thief) in &pairs {
        let mut view = view.clone();
        relocate(&mut view.steps, thief, victim_off);
        let got = rules(&view);
        assert!(
            got.iter().any(|r| r == "plan-race"),
            "{what}: %{thief} moved to offset {victim_off}: expected plan-race, got {got:?}"
        );
    }
}

#[test]
fn mutation_aliased_slots() {
    sweep_aliased_slots(&mlp_view(), "mlp");
}

/// The same sweep over a plan with a loop: the tiny `itransformer`
/// serving loop, `BP+MP` on 1×2.
#[test]
fn mutation_aliased_slots_around_a_loop() {
    let func = partir_models::itransformer::build_serving(&ITransformerConfig::tiny())
        .unwrap()
        .func;
    let mesh = Mesh::new([(BATCH, 1), (MODEL, 2)]).unwrap();
    let hw = HardwareConfig::tpu_v3_pod(mesh);
    let (_, schedule) = schedules::itransformer_table2()
        .into_iter()
        .find(|(label, _)| *label == "BP+MP")
        .expect("BP+MP row");
    let plan = partir_jit(&func, &hw, &schedule)
        .unwrap()
        .program
        .compile_with(&PlanOptions::default())
        .unwrap();
    let view = plan.verifier_view();
    assert!(
        view.steps.iter().any(|s| matches!(s, StepView::For(_))),
        "the serving plan has a loop"
    );
    sweep_aliased_slots(&view, "itransformer serving");
}

/// Mutation 7: permuted stage order — a buggy scheduler reverses the
/// per-axis rendezvous order on the diagonal devices of the mesh. Each
/// device still runs a plausible-looking schedule (symmetry holds
/// stage-for-stage), but no global linearisation exists: a cycle of
/// devices each waits for a partner blocked on its *other* axis.
#[test]
fn mutation_permuted_stage_order() {
    let mut view = two_axis_view();
    for step in &mut view.steps {
        let StepView::CollWait { stages, .. } = step else {
            continue;
        };
        if stages[0].len() < 2 {
            continue;
        }
        let stages = Arc::make_mut(stages);
        // Devices sharing no group with device 0 form the diagonal.
        let diag: Vec<usize> = (0..stages.len())
            .filter(|&d| d == 0 || stages[0].iter().all(|s: &StageView| !s.group.contains(&d)))
            .collect();
        for d in diag {
            stages[d].reverse();
        }
    }
    assert_flags(&view, "plan-rendezvous-deadlock", "permuted stage order");
}

/// Mutation 8: asymmetric group — one device's stage table names a
/// rendezvous group its partners don't agree with.
#[test]
fn mutation_asymmetric_group() {
    let mut view = mlp_view();
    let step = view
        .steps
        .iter_mut()
        .find(|s| matches!(s, StepView::CollWait { .. }))
        .expect("plan has a wait");
    let StepView::CollWait { stages, .. } = step else {
        unreachable!()
    };
    let stages = Arc::make_mut(stages);
    // Device 0 forgets one of its partners.
    let group = &mut stages[0][0].group;
    let partner = group
        .iter()
        .position(|&d| d != 0)
        .expect("group has a partner");
    group.remove(partner);
    assert_flags(&view, "plan-rendezvous-asymmetric", "asymmetric group");
}

/// Mutation 9: out-of-bounds write — a step writes past the arena pool.
#[test]
fn mutation_oob_access() {
    let mut view = mlp_view();
    let pool_len = view.pool_len;
    let w = view
        .steps
        .iter_mut()
        .find_map(|s| match s {
            StepView::Compute { writes, .. } => writes.first_mut(),
            _ => None,
        })
        .expect("plan has a compute write");
    w.off = pool_len[w.pool];
    assert_flags(&view, "plan-oob-access", "out-of-bounds write");
}

/// Mutation 10: shrunk pool — the allocator under-reports the arena
/// size the steps were planned against.
#[test]
fn mutation_shrunk_pool() {
    let mut view = mlp_view();
    assert!(view.pool_len[0] > 1, "mlp plan uses the f32 pool");
    view.pool_len[0] = 1;
    assert_flags(&view, "plan-oob-access", "shrunk pool");
}

/// Mutation 11: stale source token — a start reads a range the compiler
/// believes holds a value that was never materialised there (the
/// effect-level signature of hoisting above a redefinition).
#[test]
fn mutation_stale_start_token() {
    let mut view = mlp_view();
    let src = view
        .steps
        .iter_mut()
        .find_map(|s| match s {
            StepView::CollStart { src, .. } => Some(src),
            _ => None,
        })
        .expect("plan has a start");
    src.value = u32::MAX - 1;
    assert_flags(&view, "plan-race", "stale start token");
}

/// Mutation 12: a bad commute decision — two dependent compute steps
/// swapped, exactly what a buggy `steps_commute` would permit.
#[test]
fn mutation_swapped_dependent_steps() {
    let mut view = mlp_view();
    let i = (0..view.steps.len() - 1)
        .find(|&i| {
            let (StepView::Compute { writes, .. }, StepView::Compute { reads, .. }) =
                (&view.steps[i], &view.steps[i + 1])
            else {
                return false;
            };
            writes
                .iter()
                .any(|w| reads.iter().any(|r| r.value == w.value))
        })
        .expect("no adjacent dependent compute pair");
    view.steps.swap(i, i + 1);
    assert_flags(&view, "plan-race", "swapped dependent steps");
}

/// Mutation 13: swapped slots — the allocator hands each of two
/// simultaneously-live, equal-size values the other's slot where it is
/// defined, while their readers keep the original assignment. Every
/// range stays in bounds and no two live values overlap, so only the
/// token flow can tell: each reader finds the other value.
#[test]
fn mutation_swapped_slots() {
    let mut view = mlp_view();
    // (value, defining step, pool, off, len, last top-level read).
    let mut defs: Vec<(u32, usize, usize, usize, usize, usize)> = Vec::new();
    for (i, step) in view.steps.iter().enumerate() {
        let StepView::Compute { reads, writes, .. } = step else {
            continue;
        };
        for r in reads {
            if let Some(d) = defs.iter_mut().find(|d| d.0 == r.value) {
                d.5 = i;
            }
        }
        for w in writes {
            defs.push((w.value, i, w.pool, w.off, w.len, i));
        }
    }
    // Both defined before either is last read: simultaneously live.
    let (a, b) = defs
        .iter()
        .find_map(|a| {
            let b = defs.iter().find(|b| {
                a.1 < b.1 && b.1 < a.5 && b.1 < b.5 && (a.2, a.4) == (b.2, b.4) && a.3 != b.3
            })?;
            Some((*a, *b))
        })
        .expect("no two simultaneously-live, equal-size values in the plan");
    for step in &mut view.steps {
        if let StepView::Compute { writes, .. } = step {
            for w in writes {
                if w.value == a.0 {
                    w.off = b.3;
                } else if w.value == b.0 {
                    w.off = a.3;
                }
            }
        }
    }
    assert_flags(&view, "plan-race", "swapped slots");
}

/// Mutation 14: dropped loop-carry pair — the compiler forgets to copy
/// one region result back into its loop param, so every iteration after
/// the first re-reads the first iteration's input.
#[test]
fn mutation_dropped_carry() {
    let mut b = FuncBuilder::new("carry");
    let x = b.param("x", TensorType::f32([8]));
    let out = b
        .for_loop(3, &[x, x], |inner, _i, c| {
            Ok(vec![inner.tanh(c[0])?, inner.add(c[0], c[1])?])
        })
        .unwrap();
    let f = b.build([out[0], out[1]]).unwrap();
    let mesh = Mesh::single(BATCH, 1).unwrap();
    let plan = partir_spmd::CompiledPlan::compile(&f, &mesh, &PlanOptions::default()).unwrap();
    let mut view = plan.verifier_view().clone();
    assert!(
        rules(&view).is_empty(),
        "baseline loop plan must verify before mutation"
    );
    let l = view
        .steps
        .iter_mut()
        .find_map(|s| match s {
            StepView::For(l) => Some(l),
            _ => None,
        })
        .expect("plan has a loop");
    assert!(l.trip_count > 1 && l.carry.len() == 2);
    l.carry.remove(0);
    assert_flags(&view, "plan-race", "dropped carry");
}

/// Every value `step` reads, loops included wholesale.
fn step_reads(step: &StepView, out: &mut Vec<u32>) {
    match step {
        StepView::Compute { reads, .. } => out.extend(reads.iter().map(|a| a.value)),
        StepView::CollStart { src, .. } => out.push(src.value),
        StepView::CollWait { .. } => {}
        StepView::For(l) => {
            for (s, _) in l
                .entry
                .iter()
                .chain(&l.carry)
                .chain(&l.exit)
                .chain(&l.bypass)
            {
                out.push(s.value);
            }
            for inner in &l.body {
                step_reads(inner, out);
            }
        }
    }
}

/// Mutation 15: parameter range reused — the allocator frees a
/// parameter after its last read and hands its range to a value
/// computed later. Within one run every read still sees its value and
/// no two live values overlap, so only the resident-parameter check can
/// tell: a session's next step would start from the clobbered input.
#[test]
fn mutation_param_range_reused_after_last_read() {
    let mut view = mlp_view();
    let last_use = |value: u32| {
        view.steps.iter().rposition(|s| {
            let mut reads = Vec::new();
            step_reads(s, &mut reads);
            reads.contains(&value)
        })
    };
    let (param, value) = view
        .params
        .iter()
        .find_map(|p| {
            let after = last_use(p.value).map_or(0, |i| i + 1);
            view.steps[after..].iter().find_map(|s| match s {
                StepView::Compute { writes, .. } => writes
                    .iter()
                    .find(|w| w.pool == p.pool && w.len <= p.len)
                    .map(|w| (*p, w.value)),
                _ => None,
            })
        })
        .expect("no value computed after a parameter's last read fits its range");
    relocate(&mut view.steps, value, param.off);
    assert_eq!(
        rules(&view),
        ["plan-param-written"],
        "only the resident-parameter check may flag a range reused after its last read"
    );
    assert_drains_agree(&view, &verify_plan(&view), "parameter range reused");
}
