//! In-memory span log of the traced run, written once when the run ends.
//!
//! A span is recorded at each boundary the benchmark drives: per VM, the
//! phases setup → warm-up → migrate, and under each phase one child per
//! layer. Layer calls happen once per 2 ms guest quantum, interleaved with
//! the engine, so their children are *aggregates*: the accumulated self
//! time and call count of that layer over the phase, laid end to end from
//! the phase's start (a flame-graph view, not a timeline). The file is a
//! Chrome trace (open it in Perfetto); every event carries its span id,
//! parent id and trace (VM) id in `args`.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::adapter::Acc;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    trace: u64,
    name: String,
    start: Duration,
    dur: Duration,
    calls: Option<u64>,
}

/// The span log of one run.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose timestamps count from now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span over `[start, end)` and returns its id.
    pub fn span(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.push(trace, parent, name, start, end - start, None)
    }

    /// Records an aggregate span: `acc`'s accumulated time laid from
    /// `start`, carrying its call count. Returns its id.
    pub fn aggregate(
        &mut self,
        trace: u64,
        parent: u64,
        name: &str,
        start: Instant,
        acc: Acc,
    ) -> u64 {
        let dur = Duration::from_nanos(acc.ns);
        self.push(trace, Some(parent), name, start, dur, Some(acc.calls))
    }

    /// Records aggregate children of `parent`, laid end to end from
    /// `start`.
    pub fn aggregates(&mut self, trace: u64, parent: u64, start: Instant, layers: &[(&str, Acc)]) {
        let mut at = start;
        for &(name, acc) in layers {
            self.aggregate(trace, parent, name, at, acc);
            at += Duration::from_nanos(acc.ns);
        }
    }

    fn push(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: &str,
        start: Instant,
        dur: Duration,
        calls: Option<u64>,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            trace,
            name: name.to_string(),
            start: start.saturating_duration_since(self.epoch),
            dur,
            calls,
        });
        id
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The log as a Chrome trace document.
    pub fn to_chrome_trace(&self) -> String {
        let mut o = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                o,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"trace\": {}",
                s.name,
                s.trace,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.trace,
            );
            if let Some(calls) = s.calls {
                let _ = write!(o, ", \"calls\": {calls}, \"aggregate\": true");
            }
            o.push_str("}}");
            o.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        o.push_str("]}\n");
        o
    }

    /// Writes the log to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_chrome_trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_are_children_laid_end_to_end() {
        let mut log = SpanLog::new();
        let t0 = Instant::now();
        let root = log.span(7, None, "migrate", t0, t0 + Duration::from_millis(5));
        log.aggregates(
            7,
            root,
            t0,
            &[
                (
                    "jheap",
                    Acc {
                        ns: 2_000_000,
                        calls: 10,
                    },
                ),
                (
                    "engine",
                    Acc {
                        ns: 1_000_000,
                        calls: 1,
                    },
                ),
            ],
        );
        assert_eq!(log.len(), 3);
        assert_eq!(
            log.spans[2].start,
            log.spans[1].start + Duration::from_millis(2)
        );
        let doc = log.to_chrome_trace();
        assert!(doc.contains("\"parent\": 1, \"trace\": 7, \"calls\": 10"));
        assert!(doc.contains("\"parent\": null"));
    }
}
