//! The benchmark's own span recorder.
//!
//! Spans are opened by the benchmark around each public library call,
//! kept in memory, reduced to self times when the run ends and
//! optionally written out as JSON. Nothing is recorded while the
//! recorder is off, so an untraced operation pays one branch per call.
//!
//! The library's `obs` collector is deliberately not used here: its ring
//! overwrites records once the program's own stream-refill spans fill it,
//! and every span close takes a global mutex on every worker thread.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Root span of one set-up step.
pub const SETUP: &str = "setup";
/// Root span of one closed-loop operation of the timed pass.
pub const OP: &str = "op";

/// One closed span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u64,
    /// The operation (search, chunk, slot or trace index) or set-up
    /// repetition the span belongs to.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Records nested spans on the thread that owns it.
pub struct Recorder {
    on: Cell<bool>,
    epoch: Instant,
    next_id: Cell<u64>,
    stack: RefCell<Vec<u64>>,
    spans: RefCell<Vec<Span>>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on: Cell::new(on),
            epoch: Instant::now(),
            next_id: Cell::new(1),
            stack: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.on.get() {
            return f();
        }
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let parent = self.stack.borrow().last().copied().unwrap_or(0);
        self.stack.borrow_mut().push(id);
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.stack.borrow_mut().pop();
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.borrow_mut().push(Span {
            name,
            id,
            parent,
            op,
            start_ns: ns(start),
            end_ns: ns(end),
            thread: THREAD.with(|&t| t),
        });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Where the time of every root span named `root` went.
#[derive(Debug, Default, PartialEq)]
pub struct Phase {
    /// Summed duration of the roots.
    pub wall_ns: u64,
    /// Self time per span name, over the roots and all their descendants.
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Phase {
    /// Share of the phase's wall time that spans named `name` spent in
    /// themselves.
    pub fn share(&self, name: &str) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / self.wall_ns as f64
    }

    /// Share of the phase covered by layer spans: everything except the
    /// roots' self time, which is the benchmark's own work between
    /// library calls.
    pub fn coverage(&self, root: &str) -> f64 {
        1.0 - self.share(root)
    }
}

pub fn phase(spans: &[Span], root: &str) -> Phase {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let root_of = |mut i: usize| {
        while let Some(&p) = index.get(&spans[i].parent) {
            i = p;
        }
        i
    };
    let selfs = self_ns(spans);
    let mut out = Phase::default();
    for (i, s) in spans.iter().enumerate() {
        if spans[root_of(i)].name != root {
            continue;
        }
        if s.parent == 0 {
            out.wall_ns += s.end_ns - s.start_ns;
        }
        *out.self_ns.entry(s.name).or_insert(0) += selfs[i];
    }
    out
}

/// The spans as one JSON document, one span per line in opening order.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| s.id);
    let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
    for (i, s) in sorted.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"thread\": {}}}",
            s.name, s.id, s.parent, s.op, s.start_ns, s.end_ns, s.thread
        );
        out.push_str(if i + 1 < sorted.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            op: 0,
            start_ns,
            end_ns,
            thread: 1,
        }
    }

    /// An op [0,100] holding a [10,40] (with child d [20,25]), b [30,60]
    /// overlapping a, and c [90,120] running past the op's end; a second
    /// op [100,120] with no children; a setup root [200,210] with one
    /// child [200,206].
    fn tree() -> Vec<Span> {
        vec![
            span("d", 5, 3, 20, 25),
            span("a", 3, 2, 10, 40),
            span("b", 4, 2, 30, 60),
            span("c", 6, 2, 90, 120),
            span(OP, 2, 0, 0, 100),
            span(OP, 9, 0, 100, 120),
            span("s", 8, 7, 200, 206),
            span(SETUP, 7, 0, 200, 210),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = tree();
        let selfs = self_ns(&spans);
        let by_name = |n: &str| selfs[spans.iter().position(|s| s.name == n).unwrap()];
        assert_eq!(by_name("d"), 5);
        assert_eq!(by_name("a"), 25);
        // b overlaps a on [30,40]; c is clipped to [90,100].
        assert_eq!(selfs[4], 100 - (60 - 10) - (100 - 90));
        assert_eq!(selfs[5], 20);
        assert_eq!(by_name("c"), 30);
        assert_eq!(by_name(SETUP), 4);
    }

    #[test]
    fn phase_shares_and_coverage() {
        let spans = tree();
        let timed = phase(&spans, OP);
        assert_eq!(timed.wall_ns, 120);
        assert_eq!(timed.self_ns.get("s"), None);
        assert!((timed.share("a") - 25.0 / 120.0).abs() < 1e-12);
        assert!((timed.coverage(OP) - 0.5).abs() < 1e-12);
        let setup = phase(&spans, SETUP);
        assert_eq!(setup.wall_ns, 10);
        assert!((setup.share("s") - 0.6).abs() < 1e-12);
        assert_eq!(phase(&spans, "missing"), Phase::default());
    }

    #[test]
    fn recorder_nests_and_switches_off() {
        let rec = Recorder::new(true);
        let v = rec.span(SETUP, 0, || rec.span(OP, 7, || rec.span("leaf", 7, || 42)));
        assert_eq!(v, 42);
        rec.set_on(false);
        rec.span("ignored", 0, || ());
        let spans = rec.spans();
        assert_eq!(
            spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["leaf", OP, SETUP]
        );
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].parent, spans[2].id);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[0].op, 7);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let json = to_json("toy", &spans);
        assert!(json.starts_with("{\"workload\": \"toy\""));
        assert_eq!(json.matches("\"name\"").count(), 3);
    }
}
