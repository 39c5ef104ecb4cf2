//! In-memory spans around the harness's own calls into the layers
//! (`setup`, `round`, `submit`, `drain`, `check.*`, `probe.*`). Spans
//! inside `crates/` are a later change (ROADMAP "request-scoped
//! tracing"); here a span boundary is always a public-API call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct SpanId(usize);

const OFF: usize = usize::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span, -1 at top level.
    parent: i64,
    /// The workload cycle the span belongs to, -1 outside the window.
    op: i64,
}

/// Span recorder. Disabled (every call a no-op branch) unless the run
/// was started with `--trace 1`; end-to-end metrics only ever come from
/// runs where it is disabled.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: i64) -> SpanId {
        if !self.on {
            return SpanId(OFF);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().map_or(-1, |&p| p as i64),
            op,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (and any span left open beneath it).
    pub fn end(&mut self, id: SpanId) {
        if id.0 == OFF {
            return;
        }
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id.0 {
                break;
            }
        }
    }

    /// Number of recorded spans.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes `name,start_ns,end_ns,parent,op` records, one JSON object
    /// per line, creating the parent directory if needed.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("round", 3);
        let inner = t.begin("check.audit", 3);
        t.end(inner);
        t.end(outer);
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].parent, -1);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);

        let mut off = Tracer::new(false);
        let id = off.begin("round", 0);
        off.end(id);
        assert_eq!(off.len(), 0);
    }
}
