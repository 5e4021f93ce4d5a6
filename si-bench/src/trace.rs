//! In-memory spans for the traced run, written out as JSON when it ends.
//!
//! A parent span is one real call into the engine (`Engine::execute`,
//! `Engine::commit`, `Engine::commit_group`).  Its children are the runner
//! re-enacting the same operation through the layers' public stage
//! functions, on the same thread, right after the real call returned.  They
//! are therefore laid end to end *after* the parent on the clock, not inside
//! it, and they run cache-warm (the real call just touched the same data),
//! so they under-state a layer whose cost is cache misses.  A layer's self
//! time is its parent's duration minus the sum of its children's.

use crate::json::Json;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same recorder.
    pub parent: Option<u32>,
    /// Shared by the spans of one operation.
    pub op: u64,
}

/// One thread's spans.  Recording is a `Vec::push`.
pub struct Recorder {
    origin: Instant,
    thread: u32,
    pub spans: Vec<Span>,
}

/// Most spans one recorder keeps; later operations go unrecorded.
const SPAN_CAP: usize = 200_000;

impl Recorder {
    pub fn new(origin: Instant, thread: u32) -> Recorder {
        Recorder {
            origin,
            thread,
            spans: Vec::new(),
        }
    }

    pub fn has_room(&self) -> bool {
        self.spans.len() + 8 <= SPAN_CAP
    }

    /// Records a span and returns its index, for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        op: u64,
    ) -> u32 {
        let since = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            start_ns: since(start),
            end_ns: since(end),
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Times `stage` as a child of `parent` and returns its result.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        stage: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = stage();
        let end = Instant::now();
        self.record(name, start, end, Some(parent), op);
        out
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self times (ns) of every span called `name`: its duration minus its
    /// children's.  Only spans that have children count, so that sampled
    /// parents whose re-enactment was skipped do not pass as all-self.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut children = vec![0u64; self.spans.len()];
        let mut has_children = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize] += s.end_ns - s.start_ns;
                has_children[p as usize] = true;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && has_children[*i])
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(children[i]) as f64)
            .collect()
    }

    fn to_json(&self) -> Vec<Json> {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj(vec![
                    ("id", Json::Num(i as f64)),
                    ("thread", Json::Num(f64::from(self.thread))),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("op", Json::Num(s.op as f64)),
                ])
            })
            .collect()
    }
}

/// Writes every recorder's spans to `path`; span ids are per thread.
pub fn write(path: &Path, workload: &str, seed: u64, recorders: &[Recorder]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let spans: Vec<Json> = recorders.iter().flat_map(Recorder::to_json).collect();
    let doc = Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        (
            "note",
            Json::str(
                "children re-enact the parent's operation after it returned, \
                 on the same thread and cache-warm; self = parent - sum(children)",
            ),
        ),
        ("spans", Json::Arr(spans)),
    ]);
    std::fs::write(path, doc.render()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_parent_minus_children() {
        let origin = Instant::now();
        let mut r = Recorder::new(origin, 0);
        let at = |us: u64| origin + Duration::from_micros(us);
        let parent = r.record("execute", at(0), at(100), None, 1);
        r.record("fetch", at(100), at(160), Some(parent), 1);
        r.record("finalize", at(160), at(170), Some(parent), 1);
        r.record("execute", at(200), at(250), None, 2);
        assert_eq!(r.self_times("execute"), vec![30_000.0]);
        assert_eq!(r.durations("execute"), vec![100_000.0, 50_000.0]);
    }
}
