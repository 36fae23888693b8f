//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program, around calls into each
//! layer's public functions: name, start, end, parent span and the id
//! of the operation (one tune, one query, one replay) they belong to.
//! They stay in memory while the run measures, are reduced to self
//! times, and are written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. A disabled recorder records nothing, so
/// the end-to-end runs pay only an `Instant` read per operation.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
            op: 0,
        }
    }

    /// Starts a new operation; spans opened until the next call share
    /// its id.
    pub fn begin_op(&mut self) {
        self.next_op += 1;
        self.op = self.next_op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Self times in milliseconds, per span name in recording order:
    /// each span's duration minus the time its direct children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            out.entry(s.name)
                .or_insert_with(Vec::new)
                .push((s.end_ns - s.start_ns - c) as f64 / 1e6);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.begin_op();
        t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit();
        let s = t.self_ms();
        assert!(s["inner"][0] >= 5.0);
        assert!(s["outer"][0] < s["inner"][0]);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].op, t.spans[1].op);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", || ());
        assert!(t.spans.is_empty());
    }
}
