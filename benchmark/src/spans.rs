//! The benchmark's own spans, recorded around the calls into each layer.
//!
//! Spans live in a vector allocated before the traced pass starts and are
//! written out when it ends; recording one costs two clock reads and no
//! allocation. Nothing inside the crates is instrumented: a span here is
//! the time a public function took as seen by its caller. The spans of
//! one frame, one fleet call or one request share an `op`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `id` is 1-based; `parent` 0 means no parent.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle to an open span; [`SpanId::NONE`] when nothing was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// "No span": the parent of top-level spans, and what a tracer that
    /// is off or full hands back.
    pub const NONE: SpanId = SpanId(0);
}

/// What one layer (span name) cost over a traced pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    /// Sum of the spans' durations.
    pub total_ns: u64,
    /// `total_ns` minus the time their direct children covered.
    pub self_ns: u64,
}

/// An in-memory span recorder; [`Tracer::off`] records nothing and reads
/// no clock, so the same code runs timed and traced.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// A recorder that ignores every call.
    pub fn off() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            capacity: 0,
            dropped: 0,
        }
    }

    /// A recorder with room for `capacity` spans, timed from `origin`.
    /// Spans beyond the capacity are counted, not stored.
    pub fn on(origin: Instant, capacity: usize) -> Tracer {
        Tracer {
            origin,
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span. Close it with [`exit`](Self::exit).
    #[inline]
    pub fn enter(&mut self, name: &'static str, parent: SpanId, op: u32) -> SpanId {
        if self.capacity == 0 {
            return SpanId::NONE;
        }
        if self.spans.len() == self.capacity {
            self.dropped += 1;
            return SpanId::NONE;
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: parent.0,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(id)
    }

    /// Closes a span opened by [`enter`](Self::enter) and returns its
    /// duration in ns (0 for a span that was not recorded).
    #[inline]
    pub fn exit(&mut self, id: SpanId) -> u64 {
        if id.0 == 0 {
            return 0;
        }
        let end_ns = self.now_ns();
        match self.spans.get_mut(id.0 as usize - 1) {
            Some(span) => {
                span.end_ns = end_ns;
                end_ns.saturating_sub(span.start_ns)
            }
            None => 0,
        }
    }

    /// Appends another recorder's spans (one per load thread), keeping
    /// ids unique and parent links intact.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Calls, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    /// Share of the time inside spans named `root` that their direct
    /// children cover: what the trace can attribute to a layer.
    pub fn coverage(&self, root: &str) -> f64 {
        let layer = self.layers().get(root).copied().unwrap_or_default();
        if layer.total_ns == 0 {
            return 1.0;
        }
        1.0 - layer.self_ns as f64 / layer.total_ns as f64
    }

    /// Writes `{workload, dropped, spans: [{id, parent, op, name,
    /// start_ns, end_ns}]}`.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"dropped\":{},\"spans\":[",
            self.dropped
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// Self-time arithmetic over a span list: a span's self time is its
/// duration minus the durations of its direct children (children of one
/// parent run one after another on one thread, so their sum is the part
/// of the interval they cover).
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        if let Some(slot) = child_ns.get_mut(s.parent as usize) {
            *slot += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let covered = child_ns.get(s.id as usize).copied().unwrap_or(0);
        let layer = layers.entry(s.name).or_default();
        layer.calls += 1;
        layer.total_ns += duration;
        layer.self_ns += duration.saturating_sub(covered);
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(1, 0, "frame", 0, 100),
            span(2, 1, "render", 5, 45),
            span(3, 1, "process", 50, 95),
            span(4, 3, "lookup", 60, 70),
            span(5, 0, "frame", 100, 150),
        ];
        let layers = layer_times(&spans);
        // frame: 100 + 50 total; the first has 40 + 45 under it.
        assert_eq!(layers["frame"].calls, 2);
        assert_eq!(layers["frame"].total_ns, 150);
        assert_eq!(layers["frame"].self_ns, 15 + 50);
        assert_eq!(layers["render"].self_ns, 40);
        // A grandchild counts against its parent only.
        assert_eq!(layers["process"].total_ns, 45);
        assert_eq!(layers["process"].self_ns, 35);
        assert_eq!(layers["lookup"].self_ns, 10);
        // Self times add up to the top-level time exactly.
        let self_sum: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, 150);
    }

    #[test]
    fn off_and_full_tracers_record_nothing() {
        let mut off = Tracer::off();
        let id = off.enter("x", SpanId::NONE, 1);
        off.exit(id);
        assert_eq!(id, SpanId::NONE);
        assert!(off.spans().is_empty());

        let mut small = Tracer::on(Instant::now(), 1);
        let a = small.enter("a", SpanId::NONE, 1);
        let b = small.enter("b", a, 1);
        small.exit(b);
        small.exit(a);
        assert_eq!(small.spans().len(), 1);
        assert_eq!(small.dropped(), 1);
        assert!(small.spans()[0].end_ns >= small.spans()[0].start_ns);
    }

    #[test]
    fn absorb_rebases_ids_and_parents() {
        let origin = Instant::now();
        let mut a = Tracer::on(origin, 8);
        let root = a.enter("op", SpanId::NONE, 1);
        a.exit(root);
        let mut b = Tracer::on(origin, 8);
        let op = b.enter("op", SpanId::NONE, 2);
        let child = b.enter("child", op, 2);
        b.exit(child);
        b.exit(op);
        a.absorb(b);
        let ids: Vec<(u32, u32)> = a.spans().iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, vec![(1, 0), (2, 0), (3, 2)]);
        assert!((0.0..=1.0).contains(&a.coverage("op")));
    }
}
