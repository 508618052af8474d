//! Spans recorded by the harness around its calls into each layer.
//!
//! A traced op opens a root span (`op`) and, inside it, one span per
//! stage the monolithic call would have run. Spans opened while no root
//! is open are *probes*: extra measurements of a layer (a verifier run,
//! a reference execution) that are not part of the op. Spans live in
//! memory and are written out as a Chrome trace when the run ends.

use std::time::Instant;

use crate::stats::median;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, `None` for roots and probes.
    pub parent: Option<usize>,
    /// Ordinal of the op the span belongs to; all spans of one op share it.
    pub op: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

/// Name of the root span of a traced op.
const ROOT: &str = "op";

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Microseconds since the tracer was made.
    pub fn clock_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.clock_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_us = self.clock_us();
    }

    /// Runs `f` as the next traced op: every stage it times nests under
    /// one root span.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op += 1;
        let id = self.begin(ROOT);
        let out = f(self);
        self.end(id);
        out
    }

    /// Times one call as a span under whatever is open (a stage of the
    /// current op, or a probe when nothing is).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span whose times were taken elsewhere (the serving
    /// engine's own event clock), as a probe.
    pub fn record(&mut self, name: &'static str, start_us: f64, end_us: f64) {
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent: None,
            op: self.op,
        });
    }

    /// Median over ops of the summed duration (ms) of the spans `keep`
    /// selects, 0 when it selects none. Spans of one op are adjacent.
    fn per_op_ms_p50(&self, keep: impl Fn(usize, &Span) -> bool) -> f64 {
        let mut sums: Vec<(u64, f64)> = Vec::new();
        for (_, s) in self.spans.iter().enumerate().filter(|(i, s)| keep(*i, s)) {
            match sums.last_mut() {
                Some((op, sum)) if *op == s.op => *sum += s.ms(),
                _ => sums.push((s.op, s.ms())),
            }
        }
        if sums.is_empty() {
            0.0
        } else {
            median(&sums.iter().map(|&(_, ms)| ms).collect::<Vec<_>>())
        }
    }

    /// Median over ops of the time (ms) spent in spans called `name`,
    /// 0 when the run has none.
    pub fn ms_p50(&self, name: &str) -> f64 {
        self.per_op_ms_p50(|_, s| s.name == name)
    }

    /// Median duration (ms) of the root spans: a whole traced op,
    /// recording included.
    pub fn op_ms_p50(&self) -> f64 {
        self.ms_p50(ROOT)
    }

    /// Median over ops of the time (ms) covered by stage spans, that is
    /// by spans inside a root that have no span inside them.
    pub fn staged_ms_p50(&self) -> f64 {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        self.per_op_ms_p50(|i, s| s.parent.is_some() && !has_child[i])
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): complete events, times in microseconds, the op id and
    /// parent span index in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                // Probes get their own row so they never overlap an op.
                if s.parent.is_none() && s.name != ROOT { 2 } else { 1 },
                s.start_us,
                s.end_us - s.start_us,
                s.op,
                i,
                parent
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_nest_under_the_op_and_probes_do_not() {
        let mut tr = Tracer::new();
        for _ in 0..3 {
            tr.op(|tr| {
                tr.time("a", || std::hint::black_box(1 + 1));
                tr.time("b", || ());
                tr.time("a", || ());
            });
            tr.time("probe", || ());
        }
        let spans = tr.spans();
        assert_eq!(spans.len(), 3 * 5);
        assert_eq!(spans[0].name, "op");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[4].name, "probe");
        assert_eq!(spans[4].parent, None);
        assert_eq!(spans[1].op, spans[3].op);
        assert_ne!(spans[1].op, spans[6].op);
        assert!(tr.staged_ms_p50() <= tr.op_ms_p50());
        assert_eq!(tr.ms_p50("absent"), 0.0);
    }

    #[test]
    fn spans_of_one_op_are_summed_before_the_median() {
        let mut tr = Tracer::new();
        tr.op(|_| ());
        tr.record("x", 0.0, 10_000.0);
        tr.record("x", 0.0, 20_000.0);
        tr.op(|_| ());
        tr.record("x", 0.0, 50_000.0);
        // Per-op sums 30 ms and 50 ms.
        assert_eq!(tr.ms_p50("x"), 40.0);
    }

    #[test]
    fn chrome_trace_is_balanced_json() {
        let mut tr = Tracer::new();
        tr.op(|tr| tr.time("stage", || ()));
        tr.record("serve.step", 10.0, 30.0);
        let json = tr.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"dur\":20.000"));
    }
}
