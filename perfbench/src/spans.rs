//! In-memory span recorder for the traced pass.
//!
//! Each span is (name, start, end, parent). Spans are recorded by the
//! benchmark around its calls into the library's layers, kept in memory,
//! and written out as JSON once the run ends.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now and return its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let t = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = t;
        s.dur_ns() as f64 / 1e9
    }

    /// Run `f` inside a span and return its result and duration (seconds).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent);
        let r = f();
        (r, self.close(id))
    }

    #[cfg(test)]
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Self time of span `id`: its duration minus its child spans'
    /// durations. Spans are opened and closed in sequence on one thread,
    /// so children never overlap and never outlive their parent.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns() - children
    }

    /// Total self time per span name, in first-seen order.
    pub fn self_by_name(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (id, s) in self.spans.iter().enumerate() {
            let secs = self.self_ns(id) as f64 / 1e9;
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, acc)) => *acc += secs,
                None => out.push((s.name, secs)),
            }
        }
        out
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                    s.name, s.start_ns, s.end_ns, parent
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
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
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let mut s = Spans::new();
        let root = s.push(span("cell", 0, 100, None));
        s.push(span("fork", 10, 30, Some(root)));
        s.push(span("run", 40, 90, Some(root)));
        assert_eq!(s.self_ns(root), 100 - 20 - 50);
        assert_eq!(s.self_ns(1), 20, "a leaf's self time is its duration");
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let mut s = Spans::new();
        let root = s.push(span("cell", 0, 1_000, None));
        let run = s.push(span("run", 100, 900, Some(root)));
        s.push(span("inner", 200, 300, Some(run)));
        s.push(span("inner", 400, 450, Some(run)));
        let total: f64 = s.self_by_name().iter().map(|(_, t)| t).sum();
        assert!((total - 1_000e-9).abs() < 1e-15);
        let by_name = s.self_by_name();
        assert_eq!(by_name[2], ("inner", 150e-9));
    }
}
