//! In-memory span recorder for the traced run.
//!
//! Every span is a host-time interval around one call into a layer's
//! public API, made from the benchmark's own code. Spans are kept in
//! memory while the run executes and written out once it ends, as a
//! Chrome trace-event file that opens in Perfetto next to the simulated
//! timelines `repro trace` writes.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use menda_trace::json::escape;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the log.
    pub id: usize,
    /// The span that caused this one (`None` for the workload root).
    pub parent: Option<usize>,
    /// `<layer>/<call>`, e.g. `menda-sparse/generate_scaled`.
    pub name: &'static str,
    /// Workload, matrix or job the call worked on.
    pub key: String,
    /// Timeline the span belongs to. Spans on one track never overlap
    /// unless nested; concurrent work (daemon jobs in flight) gets one
    /// track per client slot.
    pub track: u32,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created (`None` while open).
    pub end_ns: Option<u64>,
}

impl Span {
    /// The layer half of the span name.
    pub fn layer(&self) -> &'static str {
        self.name.split('/').next().unwrap_or(self.name)
    }

    fn end(&self) -> u64 {
        self.end_ns.unwrap_or(self.start_ns)
    }

    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end().saturating_sub(self.start_ns)
    }
}

/// Thread-safe span log.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds between the log's origin and `t`.
    fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now and returns its id.
    pub fn open(&self, name: &'static str, parent: Option<usize>, key: &str, track: u32) -> usize {
        let start_ns = self.offset_ns(Instant::now());
        self.push(name, parent, key, track, start_ns, None)
    }

    /// Closes span `id` now.
    pub fn close(&self, id: usize) {
        let end = self.offset_ns(Instant::now());
        let mut spans = self
            .spans
            .lock()
            .expect("span log poisoned by a panicking thread");
        spans[id].end_ns = Some(end);
    }

    /// Records an already finished interval.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        key: &str,
        track: u32,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.offset_ns(start), self.offset_ns(end));
        self.push(name, parent, key, track, start_ns, Some(end_ns))
    }

    /// Runs `f` inside a span on track 0 and returns its result with the
    /// span's duration in seconds. `f` receives the span id so nested
    /// calls can name it as their parent.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        key: &str,
        f: impl FnOnce(usize) -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent, key, 0);
        let result = f(id);
        self.close(id);
        let secs = self
            .spans
            .lock()
            .expect("span log poisoned by a panicking thread")[id]
            .duration_ns() as f64
            * 1e-9;
        (result, secs)
    }

    fn push(
        &self,
        name: &'static str,
        parent: Option<usize>,
        key: &str,
        track: u32,
        start_ns: u64,
        end_ns: Option<u64>,
    ) -> usize {
        let mut spans = self
            .spans
            .lock()
            .expect("span log poisoned by a panicking thread");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name,
            key: key.to_string(),
            track,
            start_ns,
            end_ns,
        });
        id
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking thread")
            .clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end()));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end()));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time per layer, in seconds.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += t as f64 * 1e-9;
    }
    out
}

/// Checks that the spans form one well-formed tree: every span is
/// closed, has a single root ancestor, lies inside its parent, does not
/// overlap a sibling on its own track, and the self times on each track
/// add up to no more than the root's duration.
///
/// # Errors
///
/// Describes the first violation.
pub fn check_tree(spans: &[Span]) -> Result<(), String> {
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent.is_none()).collect();
    let [root] = roots.as_slice() else {
        return Err(format!("expected one root span, found {}", roots.len()));
    };
    for s in spans {
        let Some(end) = s.end_ns else {
            return Err(format!("span {} ({}) never closed", s.id, s.name));
        };
        if end < s.start_ns {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .filter(|_| p < s.id)
                .ok_or_else(|| format!("span {} has an invalid parent {p}", s.id))?;
            if s.start_ns < parent.start_ns || end > parent.end() {
                return Err(format!(
                    "span {} ({}) is not inside its parent {} ({})",
                    s.id, s.name, p, parent.name
                ));
            }
        }
    }
    let mut siblings: Vec<&Span> = spans.iter().collect();
    siblings.sort_unstable_by_key(|s| (s.parent, s.track, s.start_ns));
    for w in siblings.windows(2) {
        if (w[0].parent, w[0].track) == (w[1].parent, w[1].track) && w[1].start_ns < w[0].end() {
            return Err(format!(
                "spans {} and {} overlap as siblings on track {}",
                w[0].id, w[1].id, w[0].track
            ));
        }
    }
    let selfs = self_times(spans);
    let mut per_track: BTreeMap<u32, u64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&selfs) {
        *per_track.entry(s.track).or_insert(0) += t;
    }
    for (track, total) in per_track {
        if total > root.duration_ns() {
            return Err(format!(
                "self times on track {track} sum to {total} ns, more than the root's {} ns",
                root.duration_ns()
            ));
        }
    }
    Ok(())
}

/// Serializes the spans as a Chrome trace-event document of complete
/// (`"X"`) events, timestamps in microseconds.
pub fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                concat!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},",
                    "\"pid\":0,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"key\":\"{}\"}}}}"
                ),
                escape(s.name),
                escape(s.layer()),
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.track,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                escape(&s.key),
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, track: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "layer/call",
            key: String::new(),
            track,
            start_ns: start,
            end_ns: Some(end),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 0, 100),
            span(1, Some(0), 0, 10, 40),
            span(2, Some(0), 1, 30, 60),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 30]);
    }

    #[test]
    fn malformed_trees_are_rejected() {
        let outside = vec![span(0, None, 0, 0, 100), span(1, Some(0), 0, 50, 150)];
        assert!(check_tree(&outside).is_err());
        let overlapping = vec![
            span(0, None, 0, 0, 100),
            span(1, Some(0), 0, 10, 50),
            span(2, Some(0), 0, 40, 60),
        ];
        assert!(check_tree(&overlapping).is_err());
        let two_roots = vec![span(0, None, 0, 0, 100), span(1, None, 0, 0, 100)];
        assert!(check_tree(&two_roots).is_err());
        let fine = vec![
            span(0, None, 0, 0, 100),
            span(1, Some(0), 0, 10, 50),
            span(2, Some(0), 0, 50, 60),
            span(3, Some(0), 1, 20, 70),
        ];
        check_tree(&fine).expect("well-formed");
    }

    #[test]
    fn chrome_output_parses() {
        let log = SpanLog::new();
        let (_, secs) = log.time("a/b", None, "k\"q", |id| {
            log.time("c/d", Some(id), "inner", |_| ());
        });
        assert!(secs >= 0.0);
        let doc = menda_trace::json::parse(&chrome_json(&log.snapshot())).expect("valid JSON");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(|e| e.as_arr())
                .map(<[_]>::len),
            Some(2)
        );
    }
}
