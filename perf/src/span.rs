//! Spans recorded by the benchmark itself, around its calls into each
//! layer: kept in memory while the run measures, written out when it
//! ends. (Spans *inside* the program are a later change; at-obs' own
//! trace ring is scraped separately.)

use crate::json::Value;
use std::time::Instant;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_us: u64,
    end_us: u64,
    parent: Option<usize>,
    /// Spans of one operation (one request, one microbenchmark row)
    /// share this identifier.
    op: u64,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle to an open span; also the `parent` of spans it causes.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let now = self.now_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent: parent.map(|p| p.0),
            op,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id.0].end_us = self.now_us();
    }

    /// Records a span whose ends were timed elsewhere (a generator
    /// thread's request, timed on the same clock).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_micros() as u64;
        self.spans.push(Span {
            name,
            start_us: at(start),
            end_us: at(end),
            parent: parent.map(|p| p.0),
            op,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Every span with its self time: its duration minus what its
    /// direct children cover. Children opened and closed in turn by the
    /// recorder's thread never overlap; the sampled `transfer` spans
    /// under the window span do, and floor its self time at 0.
    pub fn to_json(&self) -> Value {
        let mut covered_us = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered_us[parent] += span.end_us - span.start_us;
            }
        }
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, span)| {
                    let self_us = (span.end_us - span.start_us).saturating_sub(covered_us[id]);
                    Value::obj([
                        ("id", Value::Num(id as f64)),
                        ("name", Value::str(span.name)),
                        ("start_us", Value::Num(span.start_us as f64)),
                        ("end_us", Value::Num(span.end_us as f64)),
                        ("self_us", Value::Num(self_us as f64)),
                        (
                            "parent",
                            span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("op", Value::Num(span.op as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::default();
        let t0 = spans.origin;
        let at = |ms| t0 + Duration::from_millis(ms);
        spans.record("parent", None, 1, at(0), at(10));
        let parent = SpanId(0);
        spans.record("child-a", Some(parent), 1, at(1), at(4));
        spans.record("child-b", Some(parent), 1, at(5), at(9));
        spans.record("grandchild", Some(SpanId(1)), 1, at(2), at(3));
        let json = spans.to_json();
        let rows = json.as_arr().unwrap();
        assert_eq!(rows.len(), 4);
        let self_us = |i: usize| rows[i].get("self_us").unwrap().as_f64().unwrap();
        assert_eq!(self_us(0), 3_000.0);
        assert_eq!(self_us(1), 2_000.0);
        assert_eq!(self_us(3), 1_000.0);
        assert_eq!(
            json.as_arr().unwrap()[1].get("parent"),
            Some(&Value::Num(0.0))
        );
    }
}
