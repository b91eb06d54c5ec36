//! In-memory spans recorded by the benchmark's own driver loops around
//! every call into a layer of the program.
//!
//! The program itself is not instrumented (that is ROADMAP item 4): a span
//! here brackets a *call into* a public function, so a layer's time is what
//! its caller waited for it. Spans nest by call order on the generator
//! thread; a span's self time is its duration minus the part its direct
//! children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The epoch the span belongs to (spans of one epoch share it).
    pub epoch: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder. A disabled tracer takes no timestamps and stores
/// nothing, so the untraced epochs run the same code without the cost.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    epoch: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            epoch: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between epochs.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled with spans open");
        self.enabled = enabled;
    }

    /// Stamps the spans that follow with `epoch`.
    pub fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            epoch: self.epoch,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans must close in LIFO order");
        self.spans[index].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per span, for `--trace-out`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"epoch\": {}}}",
                s.name, s.start_ns, s.end_ns, s.epoch
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

/// Self time of every span: duration minus the part of its interval that
/// its direct children cover (children are clipped to the parent, and the
/// generator is single-threaded so siblings never overlap).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            own[p] = own[p].saturating_sub(end.saturating_sub(start));
        }
    }
    own
}

/// Durations (ns) of every span called `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Per-epoch totals (ns) of the spans called `name`, in epoch order, over
/// the epochs that have a `root` span.
pub fn per_epoch_totals_ns(spans: &[Span], root: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|r| r.name == root)
        .map(|r| {
            spans
                .iter()
                .filter(|s| s.name == name && s.epoch == r.epoch)
                .map(|s| s.duration_ns() as f64)
                .sum()
        })
        .collect()
}

/// Per root span called `root`: `(duration, structural self time)` in ns,
/// where the structural self time is the self time of the root plus that of
/// every descendant whose name starts with `structural_prefix` — the time
/// the driver loop spent outside any call into a named layer.
pub fn structural_self_ns(spans: &[Span], root: &str, structural_prefix: &str) -> Vec<(f64, f64)> {
    let own = self_times_ns(spans);
    spans
        .iter()
        .enumerate()
        .filter(|(_, r)| r.name == root)
        .map(|(ri, r)| {
            let structural: u64 = spans
                .iter()
                .enumerate()
                .filter(|(i, s)| {
                    *i == ri
                        || (s.epoch == r.epoch
                            && s.name.starts_with(structural_prefix)
                            && s.start_ns >= r.start_ns
                            && s.end_ns <= r.end_ns)
                })
                .map(|(i, _)| own[i])
                .sum();
            (r.duration_ns() as f64, structural as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            epoch: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("epoch", 0, 100, None),
            span("driver.registration", 0, 60, Some(0)), // adjacent siblings
            span("driver.tries", 60, 95, Some(0)),
            span("client.keys_register", 5, 25, Some(1)), // nested under 1
            span("net.rtt_registry", 25, 55, Some(1)),    // adjacent to 3
            span("select.draw", 60, 61, Some(2)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 5); // 100 − 60 − 35
        assert_eq!(own[1], 10); // 60 − 20 − 30
        assert_eq!(own[2], 34); // 35 − 1
        assert_eq!(own[3], 20);
        assert_eq!(own[4], 30);
        assert_eq!(own[5], 1);
        // Self times partition the root exactly.
        assert_eq!(own.iter().sum::<u64>(), 100);
        // Grandchildren are not subtracted twice from the root.
        let covered = structural_self_ns(&spans, "epoch", "driver.");
        assert_eq!(covered, vec![(100.0, 49.0)]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("epoch", 10, 20, None), span("late", 15, 30, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn tracer_records_parents_and_epochs_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_epoch(7);
        let root = t.enter("epoch");
        let a = t.enter("a");
        t.exit(a);
        let b = t.enter("b");
        let c = t.enter("c");
        t.exit(c);
        t.exit(b);
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.epoch == 7));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[3].end_ns);
        assert_eq!(per_epoch_totals_ns(spans, "epoch", "a").len(), 1);
        assert!(t.to_json().contains("\"name\": \"c\""));

        t.set_enabled(false);
        let off = t.enter("ignored");
        t.exit(off);
        assert_eq!(t.spans().len(), 4);
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn out_of_order_exit_is_a_bug() {
        let mut t = Tracer::new(true);
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
