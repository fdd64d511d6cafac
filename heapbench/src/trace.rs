//! Spans recorded around the benchmark's calls into the program's
//! layers. Each thread owns a [`Tracer`]; spans stay in memory and are
//! written once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `parent` is the id of the enclosing span (0 = none).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, closed by [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Per-thread span recorder. A disabled tracer records nothing, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    /// `thread` keeps span ids unique when several threads' spans merge.
    pub fn new(enabled: bool, epoch: Instant, thread: u64) -> Self {
        Tracer {
            enabled,
            epoch,
            next_id: (thread << 48) + 1,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Appends a span under the innermost open span; returns its index.
    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.at(Instant::now());
        let i = self.push(name, start_ns, start_ns);
        self.stack.push(self.spans[i].id);
        Open(Some(i))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(i) = open.0 {
            self.spans[i].end_ns = self.at(Instant::now());
            self.stack.pop();
        }
    }

    /// Records a span timed on another thread as a child of the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let (start_ns, end_ns) = (self.at(start), self.at(end));
            self.push(name, start_ns, end_ns);
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time and call count of every span name: a span's duration minus
/// the time its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.ns();
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let own = s
            .ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    out
}

/// Total duration of the spans named `parent` and of their direct
/// children, for the reconciliation check.
pub fn parent_and_children(spans: &[Span], parent: &str) -> (u64, u64) {
    let ids: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|s| s.id)
        .collect();
    let total = spans
        .iter()
        .filter(|s| s.name == parent)
        .map(Span::ns)
        .sum();
    let children = spans
        .iter()
        .filter(|s| ids.contains(&s.parent))
        .map(Span::ns)
        .sum();
    (total, children)
}

/// Writes the spans as tab-separated `id parent name start_ns end_ns`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                name: "job",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                name: "a",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 3,
                parent: 2,
                name: "b",
                start_ns: 15,
                end_ns: 25,
            },
            Span {
                id: 4,
                parent: 1,
                name: "c",
                start_ns: 50,
                end_ns: 90,
            },
        ];
        let st = self_times(&spans);
        assert_eq!(st["job"], (30, 1));
        assert_eq!(st["a"], (20, 1));
        assert_eq!(st["b"], (10, 1));
        assert_eq!(parent_and_children(&spans, "job"), (100, 70));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let s = t.begin("x");
        t.end(s);
        assert!(t.into_spans().is_empty());
    }
}
