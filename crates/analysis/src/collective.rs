//! Static collective-matching: proving a program's collectives rendezvous
//! without running the threaded runtime.
//!
//! The threaded runtime deadlocks when the devices of a collective group
//! disagree about *which* collective to issue next — different op order,
//! different axes, different reduction monoid, different payload size, or
//! a loop iterating a different number of times. This module extracts a
//! per-device [`Event`] trace (collectives plus loop structure) and
//! applies two complementary checks. Per mesh axis, all members of every
//! [`Mesh::collective_groups`] group must issue identical *projected*
//! sequences — a necessary condition that localises a mismatch to a
//! device pair and axis for the diagnostic. Matching projections alone
//! are not sufficient, though: devices can also wedge in a *cross-axis*
//! cycle (0 waits on 2 over one axis while 2 waits on 3 over another,
//! …) where every per-axis projection agrees. So the checker also runs
//! an abstract rendezvous execution: repeatedly complete any collective
//! sitting at the head of all of its participants' traces. Completing
//! an enabled collective never disables another (the system is
//! monotone), so greedy draining is sound *and* complete — the traces
//! drain fully iff no schedule of the blocking-rendezvous system
//! deadlocks.
//!
//! SPMD programs produced by `partir_spmd::lower` run one function on
//! every device, so their traces agree by construction; the checker still
//! validates the structural side conditions (axes exist in the mesh, no
//! axis repeats within one collective, …) that the symmetry argument
//! rests on, and [`check_device_traces`] accepts genuinely per-device
//! traces so mis-matched (MPMD-style or corrupted) programs are caught.

use partir_ir::verify::op_path;
use partir_ir::{Collective, Func, OpId, OpKind, ReduceOp};
use partir_mesh::{Axis, Mesh};

use crate::diag::{error_count, Diagnostic, Severity};

/// One collective issue site in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectiveEvent {
    /// Short collective mnemonic (AR, AG, AS, RS, A2A).
    pub mnemonic: &'static str,
    /// Mesh axes communicated over, deduplicated, in first-use order.
    pub axes: Vec<Axis>,
    /// Reduction monoid, for reducing collectives.
    pub reduce: Option<ReduceOp>,
    /// Element count of the (device-local) payload.
    pub elements: usize,
    /// Op path of the issue site (diagnostics only — not part of the
    /// rendezvous identity).
    pub path: String,
}

impl CollectiveEvent {
    /// What two events must agree on to rendezvous: everything but the
    /// issue site.
    fn identity(&self) -> (&'static str, &[Axis], Option<ReduceOp>, usize) {
        (self.mnemonic, &self.axes, self.reduce, self.elements)
    }

    fn describe(&self) -> String {
        format!(
            "{}[{}] of {} elements at {}",
            self.mnemonic,
            self.axes
                .iter()
                .map(|a| format!("\"{a}\""))
                .collect::<Vec<_>>()
                .join(", "),
            self.elements,
            self.path
        )
    }
}

/// A node of a device's communication trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A collective issue site.
    Collective(CollectiveEvent),
    /// A counted loop around a sub-trace.
    Loop {
        /// Iterations.
        trip_count: usize,
        /// Events of one iteration.
        body: Vec<Event>,
    },
}

/// Extracts the communication trace of (every device of) an SPMD
/// program: collectives in program order, loops kept structural.
pub fn device_trace(func: &Func) -> Vec<Event> {
    fn walk(func: &Func, body: &[OpId], out: &mut Vec<Event>) {
        for &op_id in body {
            let op = func.op(op_id);
            match &op.kind {
                OpKind::Collective(c) => out.push(Event::Collective(CollectiveEvent {
                    mnemonic: c.mnemonic(),
                    axes: c.axes(),
                    reduce: match c {
                        Collective::AllReduce { reduce, .. }
                        | Collective::ReduceScatter { reduce, .. } => Some(*reduce),
                        _ => None,
                    },
                    elements: func.value_type(op.operands[0]).shape.num_elements(),
                    path: op_path(func, op_id),
                })),
                OpKind::For { trip_count } => {
                    let mut inner = Vec::new();
                    if let Some(region) = &op.region {
                        walk(func, &region.body, &mut inner);
                    }
                    out.push(Event::Loop {
                        trip_count: *trip_count,
                        body: inner,
                    });
                }
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(func, func.body(), &mut out);
    out
}

/// Projects a trace onto one mesh axis: collectives not involving the
/// axis are dropped, empty loops vanish and single-trip loops inline.
fn project(trace: &[Event], axis: &Axis) -> Vec<Event> {
    let mut out = Vec::new();
    for ev in trace {
        match ev {
            Event::Collective(c) => {
                if c.axes.contains(axis) {
                    out.push(ev.clone());
                }
            }
            Event::Loop { trip_count, body } => {
                let inner = project(body, axis);
                if inner.is_empty() || *trip_count == 0 {
                    continue;
                }
                if *trip_count == 1 {
                    out.extend(inner);
                } else {
                    out.push(Event::Loop {
                        trip_count: *trip_count,
                        body: inner,
                    });
                }
            }
        }
    }
    out
}

/// First point where two projected traces disagree, described for a
/// diagnostic; `None` when they match event-for-event.
fn first_divergence(a: &[Event], b: &[Event]) -> Option<String> {
    for i in 0..a.len().max(b.len()) {
        match (a.get(i), b.get(i)) {
            (None, None) => return None,
            (Some(Event::Collective(x)), None) => {
                return Some(format!("{} has no counterpart", x.describe()))
            }
            (None, Some(Event::Collective(y))) => {
                return Some(format!("{} has no counterpart", y.describe()))
            }
            (Some(Event::Loop { .. }), None) | (None, Some(Event::Loop { .. })) => {
                return Some("a loop of collectives has no counterpart".to_string())
            }
            (Some(Event::Collective(x)), Some(Event::Collective(y))) => {
                if x.identity() != y.identity() {
                    return Some(format!("{} vs {}", x.describe(), y.describe()));
                }
            }
            (
                Some(Event::Loop {
                    trip_count: ta,
                    body: ba,
                }),
                Some(Event::Loop {
                    trip_count: tb,
                    body: bb,
                }),
            ) => {
                if ta != tb {
                    return Some(format!(
                        "loop trip counts disagree ({ta} vs {tb}) around collectives"
                    ));
                }
                if let Some(d) = first_divergence(ba, bb) {
                    return Some(format!("inside a {ta}-trip loop: {d}"));
                }
            }
            (Some(Event::Collective(x)), Some(Event::Loop { .. })) => {
                return Some(format!("{} vs a loop of collectives", x.describe()))
            }
            (Some(Event::Loop { .. }), Some(Event::Collective(y))) => {
                return Some(format!("a loop of collectives vs {}", y.describe()))
            }
        }
    }
    None
}

/// Structural side conditions every collective must satisfy for the
/// rendezvous argument to hold on `mesh`.
pub fn check_structure(func: &Func, mesh: &Mesh) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for op_id in func.op_ids() {
        let op = func.op(op_id);
        if let (OpKind::For { trip_count: 0 }, Some(region)) = (&op.kind, &op.region) {
            if region.body.iter().any(|&b| func.op(b).kind.is_collective()) {
                diags.push(
                    Diagnostic::new(
                        Severity::Warning,
                        "collective-dead-in-zero-trip-loop",
                        "collectives inside a zero-trip loop never execute",
                    )
                    .at_op(op_path(func, op_id))
                    .at_loc(func.op_loc(op_id)),
                );
            }
        }
        let OpKind::Collective(c) = &op.kind else {
            continue;
        };
        let at = |d: Diagnostic| d.at_op(op_path(func, op_id)).at_loc(func.op_loc(op_id));
        // Raw (pre-dedup) axis uses: an axis appearing twice in one
        // collective double-counts its group and breaks shard layout.
        let raw: Vec<&Axis> = match c {
            Collective::AllReduce { axes, .. } | Collective::AllToAll { axes, .. } => {
                axes.iter().collect()
            }
            Collective::AllGather { dim_axes }
            | Collective::AllSlice { dim_axes }
            | Collective::ReduceScatter { dim_axes, .. } => dim_axes.iter().flatten().collect(),
        };
        for (i, axis) in raw.iter().enumerate() {
            if raw[..i].contains(axis) {
                diags.push(at(Diagnostic::new(
                    Severity::Error,
                    "collective-duplicate-axis",
                    format!("axis \"{axis}\" appears more than once in one collective"),
                )));
            }
        }
        if raw.is_empty() {
            diags.push(at(Diagnostic::new(
                Severity::Warning,
                "collective-no-axes",
                "collective communicates over no axes (no-op)",
            )));
        }
        for axis in c.axes() {
            match mesh.axis_size(&axis) {
                Err(_) => diags.push(at(Diagnostic::new(
                    Severity::Error,
                    "collective-unknown-axis",
                    format!("mesh {mesh} has no axis \"{axis}\""),
                ))),
                Ok(1) => diags.push(at(Diagnostic::new(
                    Severity::Warning,
                    "collective-degenerate-axis",
                    format!("collective over size-1 axis \"{axis}\" moves no data"),
                ))),
                Ok(_) => {}
            }
        }
        if let Collective::AllToAll {
            src_dim, dst_dim, ..
        } = c
        {
            if src_dim == dst_dim {
                diags.push(at(Diagnostic::new(
                    Severity::Warning,
                    "collective-trivial-all-to-all",
                    format!("all_to_all with src_dim == dst_dim == {src_dim} is an identity"),
                )));
            }
        }
    }
    diags
}

/// Flattens a trace by unrolling loops; `None` when the unrolled length
/// exceeds `cap` (the caller falls back to structural matching).
fn flatten(trace: &[Event], cap: usize) -> Option<Vec<CollectiveEvent>> {
    fn walk(trace: &[Event], cap: usize, out: &mut Vec<CollectiveEvent>) -> bool {
        for ev in trace {
            match ev {
                Event::Collective(c) => {
                    if out.len() >= cap {
                        return false;
                    }
                    out.push(c.clone());
                }
                Event::Loop { trip_count, body } => {
                    for _ in 0..*trip_count {
                        if !walk(body, cap, out) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }
    let mut out = Vec::new();
    walk(trace, cap, &mut out).then_some(out)
}

/// Per-axis projected-sequence comparison — the structural necessary
/// condition, and the source of readable mismatch messages.
fn per_axis_mismatches(traces: &[Vec<Event>], mesh: &Mesh) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (axis, _) in mesh.axes() {
        let projected: Vec<Vec<Event>> = traces.iter().map(|t| project(t, axis)).collect();
        let groups = mesh
            .collective_groups(std::slice::from_ref(axis))
            .expect("axis comes from the mesh");
        for group in groups {
            let leader = group[0];
            for &member in &group[1..] {
                if let Some(diff) = first_divergence(&projected[leader], &projected[member]) {
                    diags.push(Diagnostic::new(
                        Severity::Error,
                        "collective-mismatch",
                        format!(
                            "devices {leader} and {member} disagree on the collective \
                             sequence over axis \"{axis}\": {diff} — the threaded \
                             runtime would deadlock at this rendezvous"
                        ),
                    ));
                    break; // one divergence per group is enough signal
                }
            }
        }
    }
    diags
}

/// Greedy completion of a blocking-rendezvous system. `head(d, c)` is
/// what device `d` blocks on at position `c` of its trace — the group
/// that must show up and a key every member's head must equal — or
/// `None` once `d` has drained. An event completes when it is at the
/// head of every member of its group; completing an enabled event never
/// disables another (the system is monotone), so greedy completion is a
/// sound *and* complete deadlock check: the returned cursors reach the
/// end of every trace iff no schedule deadlocks.
pub(crate) fn drain<G: AsRef<[usize]>, K: PartialEq>(
    num_devices: usize,
    head: impl Fn(usize, usize) -> Option<(G, K)>,
) -> Vec<usize> {
    let mut cursor = vec![0usize; num_devices];
    loop {
        let mut progressed = false;
        for d in 0..num_devices {
            let Some((group, key)) = head(d, cursor[d]) else {
                continue;
            };
            let group = group.as_ref();
            let enabled = group
                .iter()
                .all(|&peer| head(peer, cursor[peer]).is_some_and(|(_, k)| k == key));
            if enabled {
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

/// Abstractly executes the rendezvous system over IR-level traces
/// ([`drain`]); `Some(who is stuck where)` when it wedges.
fn rendezvous_deadlock(queues: &[Vec<CollectiveEvent>], mesh: &Mesh) -> Option<String> {
    let cursor = drain(queues.len(), |d, c| {
        let head = queues[d].get(c)?;
        let group = mesh
            .collective_groups(&head.axes)
            .ok()?
            .into_iter()
            .find(|g| g.contains(&d))?;
        Some((group, head.identity()))
    });
    let blocked: Vec<String> = queues
        .iter()
        .zip(&cursor)
        .enumerate()
        .filter_map(|(d, (q, &c))| {
            q.get(c)
                .map(|h| format!("device {d} blocked at {}", h.describe()))
        })
        .collect();
    (!blocked.is_empty()).then(|| blocked.join("; "))
}

/// Upper bound on unrolled trace length before the checker falls back
/// from exact abstract execution to structural matching.
const UNROLL_CAP: usize = 100_000;

/// Checks that per-device traces rendezvous without deadlock.
/// `traces[d]` is device `d`'s trace.
///
/// Identical traces (the SPMD case) pass by symmetry. Differing traces
/// are checked two ways: per-axis projected sequences must agree within
/// every collective group (and produce pointed diagnostics when they do
/// not), and an abstract execution of the rendezvous system must drain
/// every trace — which also catches cross-axis cyclic waits that
/// per-axis matching cannot see.
pub fn check_device_traces(traces: &[Vec<Event>], mesh: &Mesh) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if traces.len() != mesh.num_devices() {
        diags.push(Diagnostic::new(
            Severity::Error,
            "collective-trace-arity",
            format!(
                "{} traces supplied for a mesh of {} devices",
                traces.len(),
                mesh.num_devices()
            ),
        ));
        return diags;
    }
    if traces.iter().all(|t| t == &traces[0]) {
        // Every device issues the identical sequence: each rendezvous
        // pairs the same head on all participants, by symmetry.
        return diags;
    }
    diags.extend(per_axis_mismatches(traces, mesh));
    let flat: Option<Vec<Vec<CollectiveEvent>>> =
        traces.iter().map(|t| flatten(t, UNROLL_CAP)).collect();
    match flat {
        Some(queues) => {
            if let Some(blocked) = rendezvous_deadlock(&queues, mesh) {
                if diags.is_empty() {
                    diags.push(Diagnostic::new(
                        Severity::Error,
                        "collective-deadlock",
                        format!(
                            "abstract rendezvous execution wedges with no enabled \
                             collective (a cross-axis cyclic wait): {blocked}"
                        ),
                    ));
                }
            }
        }
        None => diags.push(Diagnostic::new(
            Severity::Warning,
            "collective-trace-truncated",
            format!(
                "unrolled trace exceeds {UNROLL_CAP} events; deadlock check fell \
                 back to per-axis structural matching only"
            ),
        )),
    }
    diags
}

/// The headline check for SPMD programs: structural side conditions plus
/// the rendezvous property with every device running `func`.
pub fn check_deadlock_freedom(func: &Func, mesh: &Mesh) -> Vec<Diagnostic> {
    let mut diags = check_structure(func, mesh);
    if error_count(&diags) > 0 {
        // The trace identity is meaningless over malformed collectives.
        return diags;
    }
    let trace = device_trace(func);
    if trace.is_empty() {
        return diags;
    }
    let traces = vec![trace; mesh.num_devices()];
    diags.extend(check_device_traces(&traces, mesh));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{FuncBuilder, TensorType};

    fn mesh() -> Mesh {
        Mesh::new([("B", 2), ("M", 2)]).unwrap()
    }

    fn ar(b: &mut FuncBuilder, x: partir_ir::ValueId, axis: &str) -> partir_ir::ValueId {
        ar_with(b, x, axis, ReduceOp::Sum)
    }

    fn ar_with(
        b: &mut FuncBuilder,
        x: partir_ir::ValueId,
        axis: &str,
        reduce: ReduceOp,
    ) -> partir_ir::ValueId {
        b.collective(
            Collective::AllReduce {
                axes: vec![axis.into()],
                reduce,
            },
            x,
        )
        .unwrap()
    }

    #[test]
    fn spmd_program_is_deadlock_free() {
        let mut b = FuncBuilder::with_mesh("f", mesh());
        let x = b.param("x", TensorType::f32([4, 4]));
        let y = ar(&mut b, x, "B");
        let f = b.build([y]).unwrap();
        let diags = check_deadlock_freedom(&f, &mesh());
        assert_eq!(error_count(&diags), 0, "{diags:?}");
    }

    #[test]
    fn mismatched_order_across_devices_is_flagged() {
        // Two collectives over the SAME axis in opposite orders: devices
        // of one "B" group (e.g. {0, 2}) genuinely rendezvous on
        // different collectives first.
        let build = |first: ReduceOp, second: ReduceOp| {
            let mut b = FuncBuilder::with_mesh("f", mesh());
            let x = b.param("x", TensorType::f32([4, 4]));
            let y = ar_with(&mut b, x, "B", first);
            let z = ar_with(&mut b, y, "B", second);
            b.build([z]).unwrap()
        };
        let fa = build(ReduceOp::Sum, ReduceOp::Max);
        let fb = build(ReduceOp::Max, ReduceOp::Sum);
        let ta = device_trace(&fa);
        let tb = device_trace(&fb);
        let traces = vec![ta.clone(), ta, tb.clone(), tb];
        let diags = check_device_traces(&traces, &mesh());
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "collective-mismatch" && d.severity == Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn disjoint_axis_reorder_is_deadlock_free() {
        // AR("B");AR("M") vs AR("M");AR("B") across devices does NOT
        // deadlock with this device assignment: per-axis sequences agree
        // within every group and the rendezvous execution drains.
        let build = |first: &str, second: &str| {
            let mut b = FuncBuilder::with_mesh("f", mesh());
            let x = b.param("x", TensorType::f32([4, 4]));
            let y = ar(&mut b, x, first);
            let z = ar(&mut b, y, second);
            b.build([z]).unwrap()
        };
        let ta = device_trace(&build("B", "M"));
        let tb = device_trace(&build("M", "B"));
        let traces = vec![ta.clone(), ta, tb.clone(), tb];
        let diags = check_device_traces(&traces, &mesh());
        assert_eq!(error_count(&diags), 0, "{diags:?}");
    }

    #[test]
    fn cross_axis_cyclic_wait_is_flagged() {
        // Per-axis projections all agree, yet devices wait in a cycle:
        // 0 on 2 (B), 2 on 3 (M), 3 on 1 (B), 1 on 0 (M). Only the
        // abstract rendezvous execution can see this one.
        let build = |first: &str, second: &str| {
            let mut b = FuncBuilder::with_mesh("f", mesh());
            let x = b.param("x", TensorType::f32([4, 4]));
            let y = ar(&mut b, x, first);
            let z = ar(&mut b, y, second);
            b.build([z]).unwrap()
        };
        let ta = device_trace(&build("B", "M"));
        let tb = device_trace(&build("M", "B"));
        let traces = vec![ta.clone(), tb.clone(), tb, ta];
        let diags = check_device_traces(&traces, &mesh());
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "collective-deadlock" && d.severity == Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn unknown_axis_against_foreign_mesh_is_an_error() {
        // Lowered for a mesh with axis "z", linted against one without.
        let build_mesh = Mesh::new([("B", 2), ("z", 2)]).unwrap();
        let mut b = FuncBuilder::with_mesh("f", build_mesh);
        let x = b.param("x", TensorType::f32([4, 4]));
        let y = ar(&mut b, x, "z");
        let f = b.build([y]).unwrap();
        let diags = check_deadlock_freedom(&f, &mesh());
        assert!(
            diags.iter().any(|d| d.rule == "collective-unknown-axis"),
            "{diags:?}"
        );
    }

    #[test]
    fn projection_inlines_single_trip_loops_and_drops_empty_ones() {
        let c = CollectiveEvent {
            mnemonic: "AR",
            axes: vec!["B".into()],
            reduce: Some(ReduceOp::Sum),
            elements: 16,
            path: "@f/%0(all_reduce)".into(),
        };
        let trace = vec![
            Event::Loop {
                trip_count: 1,
                body: vec![Event::Collective(c.clone())],
            },
            Event::Loop {
                trip_count: 5,
                body: vec![],
            },
        ];
        let p = project(&trace, &"B".into());
        assert_eq!(p, vec![Event::Collective(c.clone())]);
        assert!(project(&trace, &"M".into()).is_empty());
        assert!(first_divergence(&p, &p).is_none());
    }

    #[test]
    fn trip_count_mismatch_diverges() {
        let c = |elems: usize| {
            Event::Collective(CollectiveEvent {
                mnemonic: "AG",
                axes: vec!["B".into()],
                reduce: None,
                elements: elems,
                path: String::new(),
            })
        };
        let la = vec![Event::Loop {
            trip_count: 2,
            body: vec![c(8)],
        }];
        let lb = vec![Event::Loop {
            trip_count: 3,
            body: vec![c(8)],
        }];
        let d = first_divergence(&la, &lb).unwrap();
        assert!(d.contains("trip counts disagree"), "{d}");
        // Payload mismatch inside matching loops also diverges.
        let lc = vec![Event::Loop {
            trip_count: 2,
            body: vec![c(16)],
        }];
        assert!(first_divergence(&la, &lc)
            .unwrap()
            .contains("inside a 2-trip loop"));
    }
}
