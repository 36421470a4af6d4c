//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a start and an end (ns since the tracer started), the
//! span that caused it, and the request it belongs to. Spans are written
//! out when the run ends. A disabled tracer records nothing: the untraced
//! run pays one branch per call site.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Records spans when enabled. Interior mutability lets nested call sites
/// share one tracer through `&Tracer`; each thread of a run records into
/// its own tracer and the owner merges them with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: Option<RefCell<State>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self::with_origin(enabled, Instant::now())
    }

    /// A tracer whose clock starts at `origin` (a second thread's tracer
    /// shares the owner's origin so their spans line up).
    pub fn with_origin(enabled: bool, origin: Instant) -> Self {
        Self {
            origin,
            state: enabled.then(RefCell::default),
        }
    }

    pub fn enabled(&self) -> bool {
        self.state.is_some()
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let Some(state) = &self.state else {
            return f();
        };
        let index = {
            let mut state = state.borrow_mut();
            let index = state.spans.len();
            let parent = state.open.last().copied();
            let start_ns = self.now_ns();
            state.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                request,
            });
            state.open.push(index);
            index
        };
        let result = f();
        let end_ns = self.now_ns();
        let mut state = state.borrow_mut();
        state.open.pop();
        state.spans[index].end_ns = end_ns;
        result
    }

    /// Records a span that was timed elsewhere (a request whose reply is
    /// read after later requests were sent), child of the innermost open
    /// span.
    pub fn record(&self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let Some(state) = &self.state else {
            return;
        };
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut state = state.borrow_mut();
        let parent = state.open.last().copied();
        state.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            request,
        });
    }

    /// Moves another tracer's spans in, under this tracer's innermost open
    /// span.
    pub fn absorb(&self, other: Tracer) {
        let (Some(state), Some(other)) = (&self.state, other.state) else {
            return;
        };
        let mut state = state.borrow_mut();
        let offset = state.spans.len();
        let parent = state.open.last().copied();
        for mut span in other.into_inner().spans {
            span.parent = span.parent.map(|p| p + offset).or(parent);
            state.spans.push(span);
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state
            .as_ref()
            .map(|s| s.borrow().spans.clone())
            .unwrap_or_default()
    }

    /// Durations (ms) of the spans named `name`, as self time.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans();
        let own = self_times(&spans);
        spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans();
        let own = self_times(&spans);
        let mut out = String::new();
        for (span, self_ns) in spans.iter().zip(own) {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, self_ns, parent, span.request
            );
        }
        out
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once, and a child
/// sticking out of its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: 10..50 covered once
            span("c", 90, 120, Some(0)), // only 90..100 lies inside root
            span("a.leaf", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
    }

    #[test]
    fn nested_spans_record_their_parents() {
        let tracer = Tracer::new(true);
        let inner = tracer.span("outer", 1, || tracer.span("inner", 1, || 7));
        assert_eq!(inner, 7);
        tracer.span("sibling", 2, || ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!((spans[2].name, spans[2].parent), ("sibling", None));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let own = self_times(&spans);
        assert_eq!(own[0], spans[0].duration_ns() - spans[1].duration_ns());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", 0, || 3), 3);
        tracer.record("y", 0, Instant::now(), Instant::now());
        assert!(tracer.spans().is_empty());
        assert!(tracer.to_jsonl().is_empty());
    }

    #[test]
    fn absorbed_spans_hang_under_the_open_span() {
        let owner = Tracer::new(true);
        let other = Tracer::with_origin(true, owner.origin());
        other.span("device", 5, || other.span("device.inner", 5, || ()));
        owner.span("phase", 0, || owner.absorb(other));
        let spans = owner.spans();
        assert_eq!(spans[1].name, "device");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
    }
}
