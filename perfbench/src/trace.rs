//! In-memory span recorder used by the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer's public functions. A disabled tracer records nothing, so the
//! untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: name, interval, the span that caused it and its pass.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every span opened from now on with `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it becomes the parent of spans opened before its
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx].end_ns = end_ns;
    }

    /// Times `f` as a leaf span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Self time (span minus its direct children) summed per
    /// `(pass, name)`.
    pub fn self_ns(&self) -> BTreeMap<(u32, &'static str), u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *out.entry((span.pass, span.name)).or_insert(0) +=
                span.duration_ns().saturating_sub(children);
        }
        out
    }

    /// The median over traced passes of one span name's per-pass self
    /// time, in ms, and the number of passes it was seen in.
    pub fn median_self_ms(
        &self,
        self_ns: &BTreeMap<(u32, &'static str), u64>,
        name: &str,
    ) -> (f64, usize) {
        let mut per_pass: Vec<f64> = self_ns
            .iter()
            .filter(|((_, n), _)| *n == name)
            .map(|(_, ns)| *ns as f64 / 1e6)
            .collect();
        let n = per_pass.len();
        (crate::stats::median(&mut per_pass), n)
    }

    /// Writes every span as one CSV row.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,pass,parent,name,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{id},{},{parent},{},{},{}",
                s.pass, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
