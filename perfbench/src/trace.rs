//! In-memory spans around the benchmark's calls into the library crates.
//!
//! A span is named `<layer>.<call>` (`cluster.step.admitted`,
//! `core.measure`, ...); its layer is the text before the first dot. Spans
//! nest through an open-span stack, so a span's parent is whatever span
//! was open when it started. A disabled tracer records nothing and costs
//! one branch per call, which is how the end-to-end binary runs.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Marker for "no parent" / "tracing off".
const NONE: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span in the same buffer, or `u32::MAX`.
    pub parent: u32,
    /// Job id or request index the span belongs to (0 when none).
    pub id: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Handle to an open span; pass it back to [`Tracer::exit`].
#[derive(Debug)]
#[must_use]
pub struct Open(u32);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (no span may be open).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled tracing inside a span");
        self.on = on;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let idx = u32::try_from(self.spans.len()).expect("fewer than 4G spans per buffer");
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied().unwrap_or(NONE),
            id,
        });
        self.open.push(idx);
        Open(idx)
    }

    /// Closes a span.
    pub fn exit(&mut self, open: Open) {
        if open.0 == NONE {
            return;
        }
        let end = self.now();
        self.spans[open.0 as usize].end = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(open.0), "spans closed out of order");
    }

    /// Closes a span under a name chosen after the call returned (a
    /// step's bucket is the first event kind it emitted).
    pub fn exit_as(&mut self, open: Open, name: &'static str) {
        if open.0 != NONE {
            self.spans[open.0 as usize].name = name;
        }
        self.exit(open);
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, id);
        let out = f();
        self.exit(open);
        out
    }

    /// Takes the recorded spans, leaving the buffer empty.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "took spans while one was open");
        std::mem::take(&mut self.spans)
    }
}

/// The layer of a span name: the text before the first dot.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Inclusive and self time per span name, plus the roots' total.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    /// Per name: (calls, inclusive ns, self ns).
    pub by_name: BTreeMap<&'static str, (u64, u64, u64)>,
    /// Total duration of parentless spans.
    pub root_ns: u64,
}

impl Summary {
    /// Summarizes one buffer. A span's self time is its duration minus
    /// the durations of its direct children.
    pub fn of(spans: &[Span]) -> Summary {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.dur();
            }
        }
        let mut out = Summary::default();
        for (s, kids) in spans.iter().zip(&child_ns) {
            let e = out.by_name.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += s.dur();
            e.2 += s.dur().saturating_sub(*kids);
            if s.parent == NONE {
                out.root_ns += s.dur();
            }
        }
        out
    }

    /// Adds another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        for (name, (n, inc, slf)) in &other.by_name {
            let e = self.by_name.entry(name).or_insert((0, 0, 0));
            e.0 += n;
            e.1 += inc;
            e.2 += slf;
        }
        self.root_ns += other.root_ns;
    }

    /// Calls recorded under `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.0)
    }

    /// Mean inclusive ns per call of `name` (0 when never called).
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.by_name.get(name) {
            Some(&(n, inc, _)) if n > 0 => inc as f64 / n as f64,
            _ => 0.0,
        }
    }

    /// Self ns summed over every span of `layer`.
    pub fn layer_self_ns(&self, layer_name: &str) -> u64 {
        self.by_name
            .iter()
            .filter(|(k, _)| layer(k) == layer_name)
            .map(|(_, e)| e.2)
            .sum()
    }
}

/// Writes spans as a JSON array of `[name, start_ns, end_ns, parent, id]`
/// rows (`parent` is -1 for a root).
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NONE {
            -1
        } else {
            i64::from(s.parent)
        };
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "[\"{}\",{},{},{},{}]{sep}",
            s.name, s.start, s.end, parent, s.id
        )?;
    }
    out.write_all(b"]\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                name: "bench.rep",
                start: 0,
                end: 100,
                parent: NONE,
                id: 0,
            },
            Span {
                name: "cluster.step.none",
                start: 10,
                end: 40,
                parent: 0,
                id: 0,
            },
            Span {
                name: "stats.snapshot",
                start: 50,
                end: 70,
                parent: 0,
                id: 0,
            },
        ];
        let s = Summary::of(&spans);
        assert_eq!(s.root_ns, 100);
        assert_eq!(s.layer_self_ns("bench"), 50);
        assert_eq!(s.layer_self_ns("cluster"), 30);
        assert_eq!(s.layer_self_ns("stats"), 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.enter("cluster.submit", 1);
        t.exit(o);
        assert!(t.take().is_empty());
    }
}
