//! In-memory span recorder for the traced benchmark runs.
//!
//! A span is one call into a layer's public function: its name (the
//! layer and operation, e.g. `core.pipeline`), start and end in seconds
//! since the recorder was created, the span that caused it, and the id
//! of the request it belongs to. Spans stay in memory until the run
//! ends and are then written out as JSON lines.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use dmdp_harness::json::obj;
use dmdp_harness::Json;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and operation, e.g. `isa.emu.profile`.
    pub name: &'static str,
    /// Seconds since the recorder started.
    pub start: f64,
    /// Seconds since the recorder started; `NaN` while open.
    pub end: f64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Request the span belongs to; shared by all spans of one request.
    pub req: u64,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Thread-safe span sink. Spans are indexed by the order they opened.
/// A tracer made with [`Tracer::off`] records nothing, so the untraced
/// runs pay one branch per call.
pub struct Tracer {
    t0: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Some(Mutex::new(Vec::new())),
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: None,
        }
    }

    /// True if this tracer records spans.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Opens a span and returns its index.
    pub fn open(&self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let Some(spans) = &self.spans else { return 0 };
        let start = self.now();
        let mut spans = spans
            .lock()
            .expect("span list poisoned by a panicking thread");
        spans.push(Span {
            name,
            start,
            end: f64::NAN,
            parent,
            req,
        });
        spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&self, id: usize) {
        let Some(spans) = &self.spans else { return };
        let end = self.now();
        spans
            .lock()
            .expect("span list poisoned by a panicking thread")[id]
            .end = end;
    }

    /// Runs `f` inside a span; `f` receives the span's index so nested
    /// calls can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f(id);
        self.close(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.as_ref().map_or_else(Vec::new, |s| {
            s.lock()
                .expect("span list poisoned by a panicking thread")
                .clone()
        })
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover. Children may overlap each other (pool threads),
/// so their intervals are merged before subtracting.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in kids {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.dur() - covered).max(0.0)
        })
        .collect()
}

/// Sum of the self times of every span named `name`.
pub fn self_sum(spans: &[Span], selfs: &[f64], name: &str) -> f64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| t)
        .sum()
}

/// Durations of every span named `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect()
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Writes the spans as JSON lines, one object per span, with its self
/// time.
pub fn write_jsonl(spans: &[Span], path: &Path) -> Result<(), String> {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(&selfs).enumerate() {
        let line = obj([
            ("id", Json::Num(i as f64)),
            ("name", Json::Str(s.name.to_string())),
            ("start_s", Json::Num(s.start)),
            ("end_s", Json::Num(s.end)),
            ("self_s", Json::Num(*own)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("req", Json::Num(s.req as f64)),
        ]);
        out.push_str(&line.compact());
        out.push('\n');
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("pool", 0.0, 10.0, None),
            span("job", 1.0, 4.0, Some(0)),
            span("job", 2.0, 6.0, Some(0)),
            span("job", 8.0, 12.0, Some(0)),
            span("interval", 2.0, 3.0, Some(2)),
        ];
        let selfs = self_times(&spans);
        // Children cover [1, 6] and [8, 10] of the pool span.
        assert!((selfs[0] - 3.0).abs() < 1e-12);
        assert!((selfs[2] - 3.0).abs() < 1e-12);
        assert!((selfs[4] - 1.0).abs() < 1e-12);
        assert!((self_sum(&spans, &selfs, "job") - (3.0 + 3.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
