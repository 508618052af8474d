//! Structured tracing and metrics for the PartIR pipeline.
//!
//! Every layer of the repro — `core` propagation, `spmd` lowering and the
//! threaded runtime, the `sim` cost model, `sched`'s MCTS — emits
//! [`span!`]s and [`counter!`]s through this facade. A [`Collector`]
//! gathers them into per-track timelines (one track per logical thread:
//! the compiler on `main`, one per mesh device at runtime) that export to
//! Chrome trace-event JSON ([`Trace::to_chrome_json`], openable in
//! `chrome://tracing` or Perfetto) or to a compact text flamegraph
//! ([`Trace::summary`]).
//!
//! # Inertness contract
//!
//! Tracing is *observation only*: with a recording collector installed,
//! every result — function fingerprints, partitioning fingerprints,
//! simulated costs, threaded-runtime outputs — must be bit-identical to a
//! run with no collector (or [`Collector::noop`]). Instrumentation sites
//! may therefore only read pipeline state, never influence it; the
//! differential property test in `tests/observability.rs` enforces this
//! over random models and schedules.
//!
//! When no collector is installed the macros cost one relaxed atomic
//! load and branch — no allocation, no clock read, no thread-local
//! access — so instrumented hot paths stay hot.
//!
//! # Scoping model
//!
//! A collector is installed for the current thread with [`with_track`];
//! nested installs stack and restore on exit (panic-safe). Spawned
//! threads do not inherit the scope — code that fans out (the threaded
//! runtime) captures [`current`] and re-installs it per worker under a
//! per-device track name. One track must only ever be written by one
//! thread at a time; distinct workers use distinct track names.
//!
//! # Clocks
//!
//! [`Collector::recording`] stamps events with a monotonic clock
//! (nanoseconds since collector creation). [`Collector::with_fake_clock`]
//! advances a deterministic per-track tick per event instead, so traces
//! of deterministic code are byte-stable — the golden-trace tests depend
//! on this, and it keeps wall-clock out of checked-in goldens.

#![forbid(unsafe_code)]

mod chrome;
mod summary;

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use chrome::json_escape;

/// An event name: almost always a `&'static str`, occasionally formatted
/// (per-axis counters, per-device tracks).
pub type Name = Cow<'static, str>;

/// One raw trace event as recorded on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Span or counter name (empty for span ends — pairing is by stack).
    pub name: Name,
    /// Timestamp in nanoseconds (monotonic or fake, per the collector).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The kind of a raw [`Event`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A span opened.
    Begin,
    /// The innermost open span closed.
    End,
    /// A named value was accumulated (deltas sum per track).
    Counter(f64),
}

/// How a collector stamps time.
#[derive(Debug, Clone, Copy)]
enum ClockMode {
    /// Nanoseconds since the collector was created.
    Monotonic,
    /// A deterministic per-track tick: each event advances that track's
    /// clock by `step_ns`. Timestamps then depend only on the event
    /// sequence, never on the machine.
    Fake { step_ns: u64 },
}

/// One track's buffered events (a logical thread of the timeline).
struct TrackBuf {
    name: String,
    events: Mutex<Vec<Event>>,
    /// The fake clock's current tick for this track.
    fake_now: AtomicU64,
}

struct Inner {
    clock: ClockMode,
    epoch: Instant,
    /// Disabled collectors ([`Collector::noop`]) never install a scope.
    enabled: bool,
    tracks: Mutex<Vec<Arc<TrackBuf>>>,
}

/// Number of threads that currently have a scope installed, across all
/// collectors. Zero means every [`span!`]/[`counter!`] call site is a
/// single relaxed load and branch.
static ACTIVE_SCOPES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SCOPE: RefCell<Option<ThreadScope>> = const { RefCell::new(None) };
}

struct ThreadScope {
    collector: Collector,
    track: Arc<TrackBuf>,
}

/// A pluggable event sink. Cheap to clone (a handle); all clones feed
/// the same buffers.
#[derive(Clone)]
pub struct Collector {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("enabled", &self.inner.enabled)
            .field("clock", &self.inner.clock)
            .finish()
    }
}

impl Collector {
    /// A recording collector with a monotonic clock.
    pub fn recording() -> Self {
        Collector::build(ClockMode::Monotonic, true)
    }

    /// A recording collector whose clock is a deterministic per-track
    /// tick of `step_ns` nanoseconds per event — traces of deterministic
    /// code are byte-stable and contain no wall-clock.
    pub fn with_fake_clock(step_ns: u64) -> Self {
        Collector::build(ClockMode::Fake { step_ns }, true)
    }

    /// The no-op collector: [`with_track`] runs the closure without
    /// installing anything, so instrumented code takes the exact same
    /// disabled fast path as code run with no collector at all.
    pub fn noop() -> Self {
        Collector::build(ClockMode::Monotonic, false)
    }

    fn build(clock: ClockMode, enabled: bool) -> Self {
        Collector {
            inner: Arc::new(Inner {
                clock,
                epoch: Instant::now(),
                enabled,
                tracks: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The existing track named `name`, or a freshly registered one.
    fn track(&self, name: &str) -> Arc<TrackBuf> {
        let mut tracks = self.inner.tracks.lock().expect("track registry");
        if let Some(t) = tracks.iter().find(|t| t.name == name) {
            return Arc::clone(t);
        }
        let t = Arc::new(TrackBuf {
            name: name.to_string(),
            events: Mutex::new(Vec::new()),
            fake_now: AtomicU64::new(0),
        });
        tracks.push(Arc::clone(&t));
        t
    }

    fn stamp(&self, track: &TrackBuf) -> u64 {
        match self.inner.clock {
            ClockMode::Monotonic => self.inner.epoch.elapsed().as_nanos() as u64,
            ClockMode::Fake { step_ns } => track.fake_now.fetch_add(step_ns, Ordering::Relaxed),
        }
    }

    fn emit(&self, track: &TrackBuf, name: Name, kind: EventKind) {
        let ts_ns = self.stamp(track);
        track
            .events
            .lock()
            .expect("track buffer")
            .push(Event { name, ts_ns, kind });
    }

    /// Opens a span on `track` directly, without installing a thread
    /// scope. For single-threaded drivers that interleave many logical
    /// timelines (the serving engine's per-slot request spans): spans on
    /// *different* tracks may overlap freely, while [`with_track`] pins
    /// one thread to one track. Every `begin_on` must be paired with an
    /// [`end_on`](Collector::end_on) on the same track; the
    /// well-formedness check catches violations. No-op when disabled.
    pub fn begin_on(&self, track: &str, name: impl Into<Name>) {
        if !self.inner.enabled {
            return;
        }
        let t = self.track(track);
        self.emit(&t, name.into(), EventKind::Begin);
    }

    /// Closes the innermost open span on `track` (see
    /// [`begin_on`](Collector::begin_on)). No-op when disabled.
    pub fn end_on(&self, track: &str) {
        if !self.inner.enabled {
            return;
        }
        let t = self.track(track);
        self.emit(&t, Cow::Borrowed(""), EventKind::End);
    }

    /// Accumulates `delta` into counter `name` on `track` directly,
    /// without installing a thread scope. No-op when disabled.
    pub fn counter_on(&self, track: &str, name: impl Into<Name>, delta: f64) {
        if !self.inner.enabled {
            return;
        }
        let t = self.track(track);
        self.emit(&t, name.into(), EventKind::Counter(delta));
    }

    /// Total number of events recorded so far, across all tracks.
    pub fn num_events(&self) -> usize {
        self.inner
            .tracks
            .lock()
            .expect("track registry")
            .iter()
            .map(|t| t.events.lock().expect("track buffer").len())
            .sum()
    }

    /// Sum of all deltas recorded for counter `name` on track `track`
    /// (0.0 if neither exists).
    pub fn counter_total(&self, track: &str, name: &str) -> f64 {
        self.inner
            .tracks
            .lock()
            .expect("track registry")
            .iter()
            .filter(|t| t.name == track)
            .map(|t| {
                t.events
                    .lock()
                    .expect("track buffer")
                    .iter()
                    .map(|e| match e.kind {
                        EventKind::Counter(v) if e.name == name => v,
                        _ => 0.0,
                    })
                    .sum::<f64>()
            })
            .sum()
    }

    /// Sum of all deltas recorded for counter `name`, over every track.
    pub fn counter_grand_total(&self, name: &str) -> f64 {
        self.tracks()
            .iter()
            .map(|t| self.counter_total(t, name))
            .sum()
    }

    /// Names of all registered tracks, in registration order.
    pub fn tracks(&self) -> Vec<String> {
        self.inner
            .tracks
            .lock()
            .expect("track registry")
            .iter()
            .map(|t| t.name.clone())
            .collect()
    }

    /// A consolidated snapshot: tracks sorted by name, span stacks
    /// replayed into intervals. The exporters and all structural checks
    /// work off this.
    pub fn snapshot(&self) -> Trace {
        let mut tracks: Vec<TrackTrace> = self
            .inner
            .tracks
            .lock()
            .expect("track registry")
            .iter()
            .map(|t| TrackTrace::from_events(&t.name, &t.events.lock().expect("track buffer")))
            .collect();
        tracks.sort_by(|a, b| a.name.cmp(&b.name));
        Trace { tracks }
    }
}

/// Restores the previous thread scope on drop (panic-safe).
struct ScopeGuard {
    previous: Option<ThreadScope>,
    installed: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if !self.installed {
            return;
        }
        let previous = self.previous.take();
        let had_previous = previous.is_some();
        SCOPE.with(|s| *s.borrow_mut() = previous);
        if !had_previous {
            ACTIVE_SCOPES.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Installs `collector` as the current thread's sink, directing events
/// to the track named `track`, for the duration of `f`. Nested calls
/// stack; the previous scope is restored even if `f` panics. A
/// [`Collector::noop`] collector installs nothing — `f` runs on the
/// disabled fast path.
pub fn with_track<R>(collector: &Collector, track: &str, f: impl FnOnce() -> R) -> R {
    if !collector.inner.enabled {
        return f();
    }
    let scope = ThreadScope {
        collector: collector.clone(),
        track: collector.track(track),
    };
    let previous = SCOPE.with(|s| s.borrow_mut().replace(scope));
    if previous.is_none() {
        ACTIVE_SCOPES.fetch_add(1, Ordering::Relaxed);
    }
    let _guard = ScopeGuard {
        previous,
        installed: true,
    };
    f()
}

/// The collector installed on the current thread, if any. Fan-out code
/// (the threaded runtime) captures this before spawning workers and
/// re-installs it per worker with [`with_track`].
pub fn current() -> Option<Collector> {
    if ACTIVE_SCOPES.load(Ordering::Relaxed) == 0 {
        return None;
    }
    SCOPE.with(|s| s.borrow().as_ref().map(|sc| sc.collector.clone()))
}

/// RAII guard of one open span; records the end event on drop. Must be
/// dropped on the thread that created it.
#[must_use = "a span closes when the guard drops — bind it with `let _span = ...`"]
pub struct SpanGuard {
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        SCOPE.with(|s| {
            if let Some(scope) = s.borrow().as_ref() {
                scope
                    .collector
                    .emit(&scope.track, Cow::Borrowed(""), EventKind::End);
            }
        });
    }
}

/// Opens a span on the current thread's track; prefer the [`span!`]
/// macro. Disarmed (one relaxed load) when no collector is installed.
pub fn span_enter(name: impl Into<Name>) -> SpanGuard {
    if ACTIVE_SCOPES.load(Ordering::Relaxed) == 0 {
        return SpanGuard { armed: false };
    }
    SCOPE.with(|s| match s.borrow().as_ref() {
        Some(scope) => {
            scope
                .collector
                .emit(&scope.track, name.into(), EventKind::Begin);
            SpanGuard { armed: true }
        }
        None => SpanGuard { armed: false },
    })
}

/// Accumulates `delta` into counter `name` on the current thread's
/// track; prefer the [`counter!`] macro. Disarmed (one relaxed load)
/// when no collector is installed.
pub fn counter_add(name: impl Into<Name>, delta: f64) {
    if ACTIVE_SCOPES.load(Ordering::Relaxed) == 0 {
        return;
    }
    SCOPE.with(|s| {
        if let Some(scope) = s.borrow().as_ref() {
            scope
                .collector
                .emit(&scope.track, name.into(), EventKind::Counter(delta));
        }
    });
}

/// Opens a span: `let _span = span!("core.propagate");`. The span closes
/// when the guard drops. Free (one relaxed load) without a collector.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_enter($name)
    };
}

/// Accumulates a counter delta: `counter!("sched.cache.hits", 1.0);`.
/// Free (one relaxed load) without a collector.
#[macro_export]
macro_rules! counter {
    ($name:expr, $value:expr) => {
        $crate::counter_add($name, $value as f64)
    };
}

// ---- Snapshot structures -------------------------------------------------

/// One closed (or truncated) span interval on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Span name.
    pub name: Name,
    /// Start timestamp, nanoseconds.
    pub start_ns: u64,
    /// End timestamp, nanoseconds.
    pub end_ns: u64,
    /// Nesting depth (0 = top level of the track).
    pub depth: usize,
}

/// One counter sample on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterRec {
    /// Counter name.
    pub name: Name,
    /// Sample timestamp, nanoseconds.
    pub ts_ns: u64,
    /// The delta recorded at this sample.
    pub delta: f64,
}

/// One track of a [`Trace`].
#[derive(Debug, Clone)]
pub struct TrackTrace {
    /// Track name (e.g. `main`, `device3`).
    pub name: String,
    /// Closed span intervals, in start order.
    pub spans: Vec<SpanRec>,
    /// Counter samples, in record order.
    pub counters: Vec<CounterRec>,
    /// Spans still open when the snapshot was taken (0 for well-formed
    /// traces — every instrumentation site closes by RAII).
    pub unclosed: usize,
    /// Span ends that had no matching begin (always 0 by construction of
    /// the [`SpanGuard`]; kept to make the invariant checkable).
    pub unmatched_ends: usize,
}

impl TrackTrace {
    fn from_events(name: &str, events: &[Event]) -> TrackTrace {
        let mut spans = Vec::new();
        let mut counters = Vec::new();
        let mut stack: Vec<(Name, u64)> = Vec::new();
        let mut unmatched_ends = 0;
        let mut last_ts = 0;
        for e in events {
            last_ts = last_ts.max(e.ts_ns);
            match e.kind {
                EventKind::Begin => stack.push((e.name.clone(), e.ts_ns)),
                EventKind::End => match stack.pop() {
                    Some((name, start_ns)) => spans.push(SpanRec {
                        name,
                        start_ns,
                        end_ns: e.ts_ns,
                        depth: stack.len(),
                    }),
                    None => unmatched_ends += 1,
                },
                EventKind::Counter(delta) => counters.push(CounterRec {
                    name: e.name.clone(),
                    ts_ns: e.ts_ns,
                    delta,
                }),
            }
        }
        let unclosed = stack.len();
        // Truncate any span left open at the last observed timestamp so
        // exports stay readable; `unclosed` records the defect.
        while let Some((name, start_ns)) = stack.pop() {
            spans.push(SpanRec {
                name,
                start_ns,
                end_ns: last_ts,
                depth: stack.len(),
            });
        }
        spans.sort_by_key(|s| (s.start_ns, s.depth));
        TrackTrace {
            name: name.to_string(),
            spans,
            counters,
            unclosed,
            unmatched_ends,
        }
    }

    /// Sum of deltas of counter `name` on this track.
    pub fn counter_total(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.delta)
            .sum()
    }

    /// Number of spans named `name` on this track. Conformance tests use
    /// this to assert plan-level phases (e.g. `plan.compile`, fused
    /// elementwise steps) actually appear in recorded timelines.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }
}

/// A consolidated snapshot of everything a collector recorded.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Tracks sorted by name (stable export order).
    pub tracks: Vec<TrackTrace>,
}

impl Trace {
    /// Checks structural sanity: every span closed, every end matched,
    /// and no two sibling spans on one track overlap (for each pair at
    /// the same depth under the same parent, one ends before the other
    /// begins).
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub fn check_well_formed(&self) -> Result<(), String> {
        for track in &self.tracks {
            if track.unclosed > 0 {
                return Err(format!(
                    "track {:?}: {} span(s) never closed",
                    track.name, track.unclosed
                ));
            }
            if track.unmatched_ends > 0 {
                return Err(format!(
                    "track {:?}: {} span end(s) without a begin",
                    track.name, track.unmatched_ends
                ));
            }
            // Sibling overlap: spans at equal depth must not interleave.
            // Sorted by start, a sibling overlap is a successor at the
            // same depth starting before its predecessor ended while no
            // shallower span separates them.
            for d in 0..=track.spans.iter().map(|s| s.depth).max().unwrap_or(0) {
                let mut prev_end: Option<u64> = None;
                for s in track.spans.iter().filter(|s| s.depth == d) {
                    if let Some(end) = prev_end {
                        if s.start_ns < end {
                            return Err(format!(
                                "track {:?}: sibling spans overlap at depth {d} \
                                 ({:?} starts at {} before {} ends)",
                                track.name, s.name, s.start_ns, end
                            ));
                        }
                    }
                    prev_end = Some(s.end_ns);
                }
            }
        }
        Ok(())
    }

    /// The track named `name`, if recorded.
    pub fn track(&self, name: &str) -> Option<&TrackTrace> {
        self.tracks.iter().find(|t| t.name == name)
    }

    /// Sum of deltas of counter `name` across all tracks.
    pub fn counter_grand_total(&self, name: &str) -> f64 {
        self.tracks.iter().map(|t| t.counter_total(name)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_macros_are_inert_and_record_nothing() {
        // No scope installed on this thread: guards are disarmed.
        let g = span_enter("nothing");
        drop(g);
        counter_add("nothing", 1.0);
        assert!(current().is_none());
        // A noop collector installs nothing either.
        let noop = Collector::noop();
        let out = with_track(&noop, "main", || {
            let _s = span!("x");
            counter!("c", 3);
            current().is_none()
        });
        assert!(out, "noop collector must not install a scope");
        assert_eq!(noop.num_events(), 0);
    }

    #[test]
    fn spans_nest_and_snapshot_replays_the_stack() {
        let c = Collector::with_fake_clock(10);
        with_track(&c, "main", || {
            let _outer = span!("outer");
            {
                let _inner = span!("inner");
                counter!("work", 2.5);
            }
            let _second = span!("second");
        });
        let trace = c.snapshot();
        trace.check_well_formed().expect("well-formed");
        let main = trace.track("main").expect("main track");
        assert_eq!(main.spans.len(), 3);
        let outer = main.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = main.spans.iter().find(|s| s.name == "inner").unwrap();
        let second = main.spans.iter().find(|s| s.name == "second").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(second.depth, 1);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(second.start_ns >= inner.end_ns, "siblings do not overlap");
        assert_eq!(main.counter_total("work"), 2.5);
    }

    #[test]
    fn fake_clock_is_deterministic_per_track() {
        let run = || {
            let c = Collector::with_fake_clock(100);
            with_track(&c, "t", || {
                let _a = span!("a");
                counter!("k", 1);
            });
            format!("{:?}", c.snapshot().tracks)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn nested_with_track_restores_the_outer_scope() {
        let outer = Collector::with_fake_clock(1);
        let inner = Collector::with_fake_clock(1);
        with_track(&outer, "outer", || {
            with_track(&inner, "inner", || {
                counter!("c", 1);
            });
            counter!("c", 2);
        });
        assert_eq!(inner.counter_total("inner", "c"), 1.0);
        assert_eq!(outer.counter_total("outer", "c"), 2.0);
        assert!(current().is_none());
    }

    #[test]
    fn unclosed_spans_are_reported_not_lost() {
        let c = Collector::with_fake_clock(1);
        // Forge an unclosed span by emitting a raw Begin.
        let t = c.track("main");
        c.emit(&t, Cow::Borrowed("dangling"), EventKind::Begin);
        let trace = c.snapshot();
        assert_eq!(trace.track("main").unwrap().unclosed, 1);
        assert!(trace.check_well_formed().is_err());
    }

    #[test]
    fn explicit_track_spans_interleave_across_tracks() {
        let c = Collector::with_fake_clock(10);
        // Two logical request timelines interleaved on one thread —
        // illegal on a single track, fine on two.
        c.begin_on("slot0", "request.1");
        c.counter_on("serve", "admitted", 1.0);
        c.begin_on("slot1", "request.2");
        c.counter_on("serve", "admitted", 1.0);
        c.end_on("slot0");
        c.end_on("slot1");
        let trace = c.snapshot();
        trace.check_well_formed().expect("well-formed");
        assert_eq!(trace.track("slot0").unwrap().span_count("request.1"), 1);
        assert_eq!(trace.track("slot1").unwrap().span_count("request.2"), 1);
        assert_eq!(trace.counter_grand_total("admitted"), 2.0);
        // Disabled collectors record nothing through the explicit API.
        let noop = Collector::noop();
        noop.begin_on("t", "x");
        noop.counter_on("t", "c", 1.0);
        noop.end_on("t");
        assert_eq!(noop.num_events(), 0);
    }

    #[test]
    fn counter_totals_sum_across_tracks() {
        let c = Collector::with_fake_clock(1);
        with_track(&c, "a", || counter!("bytes", 3));
        with_track(&c, "b", || counter!("bytes", 4));
        assert_eq!(c.counter_grand_total("bytes"), 7.0);
        assert_eq!(c.snapshot().counter_grand_total("bytes"), 7.0);
    }
}
