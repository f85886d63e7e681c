//! In-memory span recorder for the traced run.
//!
//! A span is a named host-time interval around one of the benchmark's own
//! calls into a crate's public API. Spans nest: each records its parent
//! and the trace id of its root, so the set can be re-assembled into
//! call trees after the run. Recording is off by default; when off,
//! [`span`] costs one thread-local flag check and records nothing, which
//! keeps the untraced (measured) run free of tracing work.
//!
//! Span names start with the layer they measure (`wasm.`, `containerd.`,
//! `k8s.`, `k8s.service.`, `harness.`, `simkernel.`, `bench.`), which is
//! what [`self_ns_by_layer`] groups by.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the process's first
/// recording, so every segment shares one timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorded list.
    pub parent: Option<usize>,
    /// Shared by every span under one root span.
    pub trace_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_trace: u64,
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread (drops anything recorded before).
pub fn enable() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder { spans: Vec::new(), stack: Vec::new(), next_trace: 1 })
    });
}

/// Stop recording and return every span recorded since [`enable`].
pub fn disable() -> Vec<Span> {
    REC.with(|r| r.borrow_mut().take().map(|rec| rec.spans).unwrap_or_default())
}

/// Take the spans recorded so far, leaving recording on.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        r.borrow_mut().as_mut().map(|rec| std::mem::take(&mut rec.spans)).unwrap_or_default()
    })
}

/// Guard closing its span on drop.
pub struct SpanGuard {
    idx: Option<usize>,
}

/// Open a span named `name` (no-op while recording is off).
pub fn span(name: &'static str) -> SpanGuard {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let parent = rec.stack.last().copied();
        let trace_id = match parent {
            Some(p) => rec.spans[p].trace_id,
            None => {
                rec.next_trace += 1;
                rec.next_trace - 1
            }
        };
        let start_ns = now_ns();
        rec.spans.push(Span { name, start_ns, end_ns: start_ns, parent, trace_id });
        let idx = rec.spans.len() - 1;
        rec.stack.push(idx);
        Some(idx)
    });
    SpanGuard { idx }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                if let Some(s) = rec.spans.get_mut(idx) {
                    s.end_ns = now_ns();
                }
                if rec.stack.last() == Some(&idx) {
                    rec.stack.pop();
                }
            }
        });
    }
}

/// Run `f` inside a span.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _s = span(name);
    f()
}

/// Append a separately recorded segment to `all`, re-basing its parent
/// indices and trace ids so they stay unique in the combined list.
pub fn append(all: &mut Vec<Span>, seg: &[Span]) {
    let base = all.len();
    let trace_base = all.iter().map(|s| s.trace_id).max().unwrap_or(0);
    all.extend(seg.iter().map(|s| Span {
        parent: s.parent.map(|p| p + base),
        trace_id: s.trace_id + trace_base,
        ..s.clone()
    }));
}

/// The layer a span name belongs to: `k8s.service` for the service
/// layer, otherwise the text before the first dot.
pub fn layer_of(name: &str) -> &str {
    if name.starts_with("k8s.service") {
        return "k8s.service";
    }
    name.split('.').next().unwrap_or(name)
}

/// Self time (span minus its child spans) summed per layer.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if p < child_ns.len() {
                child_ns[p] += s.dur_ns();
            }
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *out.entry(layer_of(s.name).to_string()).or_insert(0) +=
            s.dur_ns().saturating_sub(child_ns[i]);
    }
    out
}

/// Total duration and count of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> (u64, u64) {
    spans.iter().filter(|s| s.name == name).fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
}

/// Spans as JSON lines: name, start, end, parent, trace id.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"trace_id\":{}}}\n",
            s.name, s.start_ns, s.end_ns, parent, s.trace_id
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        enable();
        {
            let _outer = span("k8s.deploy");
            let _inner = span("wasm.decode");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        timed("harness.setup", || ());
        let spans = disable();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].trace_id, spans[1].trace_id);
        assert_ne!(spans[0].trace_id, spans[2].trace_id);
        let by_layer = self_ns_by_layer(&spans);
        assert!(by_layer["wasm"] >= 2_000_000);
        assert!(by_layer["k8s"] < by_layer["wasm"]);
        let _after = span("k8s.deploy");
        assert!(take().is_empty(), "nothing records once disabled");
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _ = disable();
        let _s = span("k8s.deploy");
        assert!(take().is_empty());
    }

    #[test]
    fn layer_names() {
        assert_eq!(layer_of("k8s.service.replay"), "k8s.service");
        assert_eq!(layer_of("k8s.reconcile"), "k8s");
        assert_eq!(layer_of("simkernel.des.run"), "simkernel");
    }
}
