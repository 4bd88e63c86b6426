//! Spans recorded from outside the program, around calls into each layer.
//! They stay in memory and are written to one JSON file when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call (or loop of calls) into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one. A replay stage names the
    /// `core.run` span it re-enacts as its parent although it runs after
    /// it: the link is causal, not temporal.
    pub parent: Option<usize>,
    pub epoch: usize,
    /// Work items done inside the span (blocks, transactions, events).
    pub count: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: closing it records the end time.
pub struct Open {
    index: usize,
}

impl Open {
    pub fn index(&self) -> usize {
        self.index
    }
}

pub struct Recorder {
    t0: Instant,
    epoch: usize,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { t0: Instant::now(), epoch: 0, spans: Vec::new() }
    }

    pub fn set_epoch(&mut self, epoch: usize) {
        self.epoch = epoch;
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Open {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            epoch: self.epoch,
            count: 0,
        });
        Open { index: self.spans.len() - 1 }
    }

    /// Closes `open` with `count` work items; returns the span's index.
    pub fn close(&mut self, open: Open, count: u64) -> usize {
        let end_ns = self.now();
        let span = &mut self.spans[open.index];
        span.end_ns = end_ns;
        span.count = count;
        open.index
    }

    /// Records a top-level span that was timed elsewhere: it began at
    /// `from` and lasted `ns`. Returns its index.
    pub fn record(&mut self, name: &'static str, from: Instant, ns: u64, count: u64) -> usize {
        let start_ns = from.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + ns,
            parent: None,
            epoch: self.epoch,
            count,
        });
        self.spans.len() - 1
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let open = self.open(name, parent);
        let out = f();
        (out, self.close(open, count))
    }

    pub fn ns(&self, index: usize) -> u64 {
        self.spans[index].ns()
    }

    /// Nanoseconds per work item of the span at `index`.
    pub fn ns_per_item(&self, index: usize) -> f64 {
        let s = &self.spans[index];
        crate::stats::ratio(s.ns() as f64, s.count as f64)
    }

    /// A span's duration minus its direct children's.
    pub fn self_ns(&self, index: usize) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(index)).map(Span::ns).sum();
        self.ns(index).saturating_sub(children)
    }

    /// Writes every span as `{"workload": ..., "spans": [...]}`.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"epoch\": {}, \"count\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.epoch, s.count
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}
