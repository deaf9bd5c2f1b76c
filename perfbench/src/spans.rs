//! The benchmark's own tracer: spans recorded around calls into each
//! layer's public functions, kept in memory and written out when the run
//! ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans of one replay, single-threaded.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(4096)),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    pub fn end(&self, span: usize) {
        let end_ns = self.now_ns();
        self.spans.borrow_mut()[span].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, request, parent);
        let out = std::hint::black_box(f());
        self.end(span);
        out
    }

    /// Time since the tracer was created, in ns.
    pub fn elapsed_ns(&self) -> f64 {
        self.now_ns() as f64
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// Durations in µs per span name.
    pub fn durations_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in self.spans.borrow().iter() {
            out.entry(s.name)
                .or_default()
                .push((s.end_ns - s.start_ns) as f64 / 1e3);
        }
        out
    }

    /// Self time in µs per span name: duration minus the part covered by
    /// direct children (children run sequentially, so their durations
    /// add up).
    pub fn self_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            out.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        out
    }

    /// Cost of recording one empty span, in ns (the tracer's overhead).
    pub fn span_cost_ns() -> f64 {
        let tracer = Tracer::new();
        let rounds = 20_000;
        let start = Instant::now();
        for i in 0..rounds {
            let s = tracer.begin("empty", i, None);
            tracer.end(s);
        }
        start.elapsed().as_nanos() as f64 / rounds as f64
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"span":{i},"name":"{}","request":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
