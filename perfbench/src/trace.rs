//! Benchmark-side spans: one per call into a layer's public functions,
//! recorded from this package's own code (spans inside the engine are a
//! later change). Spans live in memory until the run ends; a layer's
//! self time is its span's duration minus what its child spans cover.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// This span's own identity (unique across threads).
    pub span: u64,
    /// The span that caused this one (0 = a root).
    pub parent: u64,
    /// Shared by every span of one iteration / request / session.
    pub id: u64,
    /// Factor that turns this span's wall time into time at the host's
    /// calm speed (batch workloads; 1 elsewhere). Timestamps stay raw.
    pub scale: f64,
}

/// A per-thread span recorder. When `on` is false every call is a branch
/// and nothing else, so the untraced run executes the same code path.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// High bits of this recorder's span identities (one lane per thread).
    lane: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, lane: u64) -> Tracer {
        Tracer {
            on,
            epoch,
            lane: lane << 40,
            spans: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its identity (0 when tracing is off) for use
    /// as a `parent` and for [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: u64, id: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let span = self.lane + self.spans.len() as u64 + 1;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            span,
            parent,
            id,
            scale: 1.0,
        });
        span
    }

    pub fn end(&mut self, span: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        let index = (span - self.lane - 1) as usize;
        self.spans[index].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.begin(name, parent, id);
        let out = f();
        self.end(span);
        out
    }
}

/// Total scaled self time (ns) and span count per span name.
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, (f64, u64)> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *covered.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: HashMap<&'static str, (f64, u64)> = HashMap::new();
    for s in spans {
        let children = covered.get(&s.span).copied().unwrap_or(0);
        let own = (s.end_ns - s.start_ns).saturating_sub(children);
        let entry = by_name.entry(s.name).or_default();
        entry.0 += own as f64 * s.scale;
        entry.1 += 1;
    }
    by_name
}

/// Write the spans as JSON lines, `{name, start_ns, end_ns, span, parent,
/// id, scale}` each.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Json::obj(vec![
            ("name", Json::str(s.name)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("span", Json::Num(s.span as f64)),
            ("parent", Json::Num(s.parent as f64)),
            ("id", Json::Num(s.id as f64)),
            ("scale", Json::Num(s.scale)),
        ]);
        writeln!(out, "{line}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let span = |name, start_ns, end_ns, span, parent| Span {
            name,
            start_ns,
            end_ns,
            span,
            parent,
            id: 1,
            scale: 1.0,
        };
        let spans = vec![
            span("iter", 0, 100, 1, 0),
            span("parse", 10, 30, 2, 1),
            span("run", 30, 90, 3, 1),
        ];
        let t = self_times(&spans);
        assert_eq!(t["iter"], (20.0, 1));
        assert_eq!(t["parse"], (20.0, 1));
        assert_eq!(t["run"], (60.0, 1));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        let root = t.begin("iter", 0, 1);
        assert_eq!(t.span("x", root, 1, || 7), 7);
        t.end(root);
        assert!(t.spans.is_empty());

        let mut t = Tracer::new(true, Instant::now(), 3);
        let root = t.begin("iter", 0, 1);
        t.span("x", root, 1, || ());
        t.end(root);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, t.spans[0].span);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }
}
