//! In-memory wall-clock spans and counts, recorded around calls into the
//! program's layers and written out once, at the end of a traced run.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use outerspace_json::{dump, Json};

use crate::{Outcome, RunCfg};

/// One timed call: `t0`/`t1` are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.multiply`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds.
    pub t0: f64,
    /// End, seconds.
    pub t1: f64,
}

/// Span and count recorder. Single-threaded: spans nest through the
/// closure passed to [`Tracer::span`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<String, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let t0 = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            t0,
            t1: t0,
        });
        self.open.push(id);
        let v = f(self);
        self.open.pop();
        self.spans[id].t1 = self.origin.elapsed().as_secs_f64();
        v
    }

    /// Adds `v` to the count `name`.
    pub fn count(&mut self, name: &str, v: f64) {
        *self.counts.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded counts.
    pub fn counts(&self) -> &BTreeMap<String, f64> {
        &self.counts
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover (children run inside their parent, one after
    /// another, so they never overlap), summed over spans of that name.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.t1 - s.t0;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_time) {
            *out.entry(s.name.clone()).or_insert(0.0) += (s.t1 - s.t0) - c;
        }
        out
    }

    /// Durations of every span called `name`, seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.t1 - s.t0)
            .collect()
    }

    /// Writes a `context` line, then every span and count, as JSON lines,
    /// each object carrying the `envelope` pairs first and `clock: wall`.
    /// Replaces `path`.
    ///
    /// # Errors
    ///
    /// I/O failure writing the file.
    pub fn write_jsonl(
        &self,
        path: &Path,
        envelope: &[(String, Json)],
        context: &Json,
    ) -> std::io::Result<()> {
        let line = |kind: &str, body: Vec<(String, Json)>| {
            let mut pairs = envelope.to_vec();
            pairs.push(("event".into(), Json::Str(kind.to_string())));
            pairs.push(("clock".into(), Json::Str("wall".into())));
            pairs.extend(body);
            Json::Obj(pairs).to_string_compact()
        };
        let mut text = line("context", vec![("context".into(), context.clone())]);
        text.push('\n');
        for (i, s) in self.spans.iter().enumerate() {
            text.push_str(&line(
                "span",
                vec![
                    ("id".into(), Json::UInt(i as u64)),
                    ("name".into(), Json::Str(s.name.clone())),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                    ("t0".into(), Json::Float(s.t0)),
                    ("t1".into(), Json::Float(s.t1)),
                ],
            ));
            text.push('\n');
        }
        for (name, v) in &self.counts {
            text.push_str(&line(
                "count",
                vec![
                    ("name".into(), Json::Str(name.clone())),
                    ("value".into(), Json::Float(*v)),
                ],
            ));
            text.push('\n');
        }
        dump::write_atomic(path, &text)
    }
}

/// Writes `t` to `<out_dir>/perfbench-<workload>-seed<seed>.events.jsonl`,
/// led by the run context; a failed write fails the run.
pub fn finish(cfg: &RunCfg, workload: &str, t: &Tracer, out: &mut Outcome) {
    let path = cfg.out_dir.join(format!(
        "perfbench-{workload}-seed{}.events.jsonl",
        cfg.seed
    ));
    let envelope = [
        ("harness".to_string(), Json::Str("perfbench".into())),
        ("workload".to_string(), Json::Str(workload.to_string())),
        ("seed".to_string(), Json::UInt(cfg.seed)),
    ];
    let written = std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| t.write_jsonl(&path, &envelope, &cfg.context));
    match written {
        Ok(()) => out
            .notes
            .push(format!("trace written to {}", path.display())),
        Err(e) => out.check(false, || format!("cannot write {}: {e}", path.display())),
    }
}

/// The per-layer metric name of a span: `outer.multiply` → `outer.multiply_s`,
/// a bare layer name such as `energy` → `energy.s`.
pub fn span_metric(name: &str) -> String {
    if name.contains('.') {
        format!("{name}_s")
    } else {
        format!("{name}.s")
    }
}

/// The layer a span belongs to: the part of its name before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let st = t.self_times();
        assert!(st["inner"] >= 0.019 && st["outer"] >= 0.009);
        let whole = t.durations("outer")[0];
        assert!((st["inner"] + st["outer"] - whole).abs() < 1e-9);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(span_metric("energy"), "energy.s");
        assert_eq!(span_metric("sim.merge"), "sim.merge_s");
        assert_eq!(layer_of("serve.compute.sim"), "serve");
    }
}
