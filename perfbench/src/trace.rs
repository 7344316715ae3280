//! The benchmark's own spans: name, start, end, parent and a trial or hop
//! key, kept in memory while a traced pass runs and written out when the
//! run ends.
//!
//! Spans are recorded only from the benchmark's files, around its calls
//! into each layer. Parents are tracked per thread, so a child span always
//! nests inside its parent's interval and a span's self time is its
//! duration minus its children's.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Trial or hop identifier shared by the spans of one request.
    pub key: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(enabled: bool) {
    epoch();
    ENABLED.store(enabled, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Open span; records itself when dropped.
pub struct Guard(Option<(Span, usize)>);

/// Opens a span named `name` for request `key` (inert while disabled).
pub fn span(name: &'static str, key: u64) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, depth) = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        (parent, stack.len())
    });
    Guard(Some((
        Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            id,
            parent,
            key,
        },
        depth,
    )))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((mut span, depth)) = self.0.take() {
            span.end_ns = now_ns();
            STACK.with(|stack| stack.borrow_mut().truncate(depth - 1));
            SPANS
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(span);
        }
    }
}

/// Takes every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Durations (µs) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|span| span.name == name)
        .map(Span::duration_us)
        .collect()
}

/// Self times (µs) of every span named `name`: its duration minus the
/// durations of its direct children.
pub fn self_times(spans: &[Span], name: &str) -> Vec<f64> {
    let mut children_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for span in spans.iter().filter(|span| span.parent != 0) {
        *children_ns.entry(span.parent).or_default() += span.end_ns - span.start_ns;
    }
    spans
        .iter()
        .filter(|span| span.name == name)
        .map(|span| {
            let total = (span.end_ns - span.start_ns) as f64;
            let children = children_ns.get(&span.id).copied().unwrap_or(0) as f64;
            (total - children) / 1e3
        })
        .collect()
}

/// Writes `spans` as CSV (`name,start_ns,end_ns,id,parent,key`).
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name,start_ns,end_ns,id,parent,key")?;
    for span in spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            span.name, span.start_ns, span.end_ns, span.id, span.parent, span.key
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                name: "outer",
                start_ns: 0,
                end_ns: 10_000,
                id: 1,
                parent: 0,
                key: 7,
            },
            Span {
                name: "inner",
                start_ns: 1_000,
                end_ns: 4_000,
                id: 2,
                parent: 1,
                key: 7,
            },
            Span {
                name: "inner",
                start_ns: 5_000,
                end_ns: 9_000,
                id: 3,
                parent: 1,
                key: 7,
            },
            Span {
                name: "leaf",
                start_ns: 5_500,
                end_ns: 6_500,
                id: 4,
                parent: 3,
                key: 7,
            },
        ];
        assert_eq!(self_times(&spans, "outer"), vec![3.0]);
        assert_eq!(self_times(&spans, "inner"), vec![3.0, 3.0]);
        assert_eq!(durations(&spans, "inner"), vec![3.0, 4.0]);
    }
}
