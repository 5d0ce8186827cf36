//! In-memory span recorder for the traced run, and self-time attribution.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the library is instrumented.
//! A span's *self time* is its duration minus the part of its interval
//! covered by its child spans, so a parent never double-counts the work
//! of the layers it calls.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval on the host wall clock.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer metric key, e.g. `"prune"` or `"nn.l0.fwd"`.
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Training step (batch index across the whole run) the span belongs
    /// to: the shared id of every span of one step.
    pub step: u64,
}

/// Token for an open span; pass it back to [`Recorder::end`].
#[must_use = "an open span must be ended"]
pub struct Open(usize);

/// Begin/end span recorder. Spans must nest (each `end` closes the most
/// recently opened span).
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    step: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
        }
    }
}

impl Recorder {
    /// Set the step id stamped on spans opened from now on.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Open a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            step: self.step,
        });
        self.open.push(idx);
        Open(idx)
    }

    /// Close `span`, which must be the innermost open span.
    pub fn end(&mut self, span: Open) {
        let top = self.open.pop();
        assert_eq!(top, Some(span.0), "spans must nest");
        self.spans[span.0].end_ns = self.now();
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "spans still open");
        &self.spans
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time in milliseconds per span name and step: the self times of
/// all spans with that name in one step are summed.
pub fn per_step_self_ms(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
    let mut acc: BTreeMap<&'static str, BTreeMap<u64, u64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *acc.entry(s.name).or_default().entry(s.step).or_default() += own;
    }
    acc.into_iter()
        .map(|(name, steps)| {
            let ms = steps.into_iter().map(|(step, ns)| (step, ns as f64 / 1e6));
            (name, ms.collect())
        })
        .collect()
}

/// Render spans as JSON lines: name, start, end, parent and step.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"step":{}}}"#,
            s.name, s.start_ns, s.end_ns, s.step
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, step: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            step,
        }
    }

    #[test]
    fn self_time_subtracts_children_on_a_hand_built_tree() {
        // step [0, 100) holds a [10, 30) with grandchild c [15, 20), and
        // b [40, 90).
        let spans = vec![
            span("step", 0, 100, None, 0),
            span("a", 10, 30, Some(0), 0),
            span("c", 15, 20, Some(1), 0),
            span("b", 40, 90, Some(0), 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 15, 5, 50]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("p", 0, 50, None, 0),
            span("x", 10, 30, Some(0), 0),
            span("y", 20, 40, Some(0), 0),
            span("z", 45, 70, Some(0), 0),
        ];
        // Children cover [10, 40) and [45, 50): 35 of the parent's 50.
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn per_step_sums_same_named_spans_within_a_step() {
        let spans = vec![
            span("step", 0, 1_000_000, None, 0),
            span("cache.update", 0, 200_000, Some(0), 0),
            span("cache.update", 500_000, 600_000, Some(0), 0),
            span("step", 2_000_000, 3_000_000, None, 1),
            span("cache.update", 2_000_000, 2_400_000, Some(3), 1),
        ];
        let per = per_step_self_ms(&spans);
        assert_eq!(per["cache.update"], BTreeMap::from([(0, 0.3), (1, 0.4)]));
        assert_eq!(per["step"], BTreeMap::from([(0, 0.7), (1, 0.6)]));
    }

    #[test]
    fn recorder_nests_and_stamps_steps() {
        let mut r = Recorder::default();
        r.set_step(7);
        let outer = r.begin("outer");
        let inner = r.begin("inner");
        r.end(inner);
        r.end(outer);
        let s = r.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert!(s.iter().all(|s| s.step == 7 && s.end_ns >= s.start_ns));
        assert!(to_jsonl(s).lines().count() == 2);
    }

    #[test]
    #[should_panic(expected = "spans must nest")]
    fn recorder_rejects_crossed_spans() {
        let mut r = Recorder::default();
        let a = r.begin("a");
        let _b = r.begin("b");
        r.end(a);
    }
}
