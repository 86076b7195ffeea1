//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! The traced pass *peels* a query: it runs the whole query, then repeats the
//! same work one layer lower each time (connector read, client request,
//! in-process handle, storlet invoke, bare filter). The spans therefore sit
//! side by side in time; `parent` records which span a peel step was peeled
//! out of, and a span's self time is its duration minus its children's.
//! Spans stay in memory and are written out once, when the run ends.

use crate::json::Json;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<SpanId>,
    pub round: u32,
    pub query: u32,
}

impl Span {
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Sums over the spans of one name in one round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundSum {
    pub wall_us: u64,
    /// Wall time minus the wall time of the spans peeled out.
    pub self_us: i64,
}

pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    round: u32,
    query: u32,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            round: 0,
            query: 0,
        }
    }

    /// Later spans belong to this round and query.
    pub fn at(&mut self, round: u32, query: u32) {
        self.round = round;
        self.query = query;
    }

    /// Time `work` as a span named `name`, peeled out of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        work: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let start_us = self.origin.elapsed().as_micros() as u64;
        let out = work();
        let end_us = self.origin.elapsed().as_micros() as u64;
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
            round: self.round,
            query: self.query,
        });
        (self.spans.len() - 1, out)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's duration minus the durations of the spans peeled out of
    /// it. Signed: the layers of a real query overlap across threads, so
    /// peeled steps run one after another can add up to more than their
    /// parent.
    pub fn self_times(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.duration_us() as i64).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.duration_us() as i64;
            }
        }
        own
    }

    /// Per round, the sums over the spans named `name`, in round order.
    /// Rounds without such a span are absent.
    pub fn per_round(&self, name: &str) -> Vec<RoundSum> {
        let own = self.self_times();
        let mut rounds: std::collections::BTreeMap<u32, RoundSum> = Default::default();
        for (span, own) in self.spans.iter().zip(own).filter(|(s, _)| s.name == name) {
            let sum = rounds.entry(span.round).or_default();
            sum.wall_us += span.duration_us();
            sum.self_us += own;
        }
        rounds.into_values().collect()
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("start_us", Json::Num(s.start_us as f64)),
                    ("end_us", Json::Num(s.end_us as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("workload", Json::Str(self.workload.clone())),
                    ("round", Json::Num(f64::from(s.round))),
                    ("query", Json::Num(f64::from(s.query))),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn own(t: &Tracer, id: SpanId) -> i64 {
        t.self_times()[id]
    }

    fn fixed(tracer: &mut Tracer, name: &'static str, parent: Option<SpanId>, dur: u64) -> SpanId {
        let start_us = tracer.spans.last().map_or(0, |s| s.end_us);
        tracer.spans.push(Span {
            name,
            start_us,
            end_us: start_us + dur,
            parent,
            round: tracer.round,
            query: tracer.query,
        });
        tracer.spans.len() - 1
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new("w");
        let sql = fixed(&mut t, "compute.sql_1w", None, 1000);
        let read = fixed(&mut t, "connector.read", Some(sql), 600);
        let client = fixed(&mut t, "objectstore.client", Some(read), 550);
        let handle = fixed(&mut t, "objectstore.handle", Some(client), 400);
        let parse = fixed(&mut t, "csvengine.parse", Some(sql), 300);
        assert_eq!(own(&t, sql), 100); // 1000 - (600 + 300); grandchildren do not count twice
        assert_eq!(own(&t, read), 50);
        assert_eq!(own(&t, client), 150);
        assert_eq!(own(&t, handle), 400);
        assert_eq!(own(&t, parse), 300);
        // Every microsecond of the root is attributed exactly once.
        let total: i64 = t.self_times().iter().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn self_time_goes_negative_when_children_overlapped_in_the_parent() {
        let mut t = Tracer::new("w");
        let sql = fixed(&mut t, "compute.sql_1w", None, 100);
        fixed(&mut t, "connector.read", Some(sql), 80);
        fixed(&mut t, "csvengine.parse", Some(sql), 70);
        assert_eq!(own(&t, sql), -50);
    }

    #[test]
    fn per_round_sums_spans_of_one_name() {
        let mut t = Tracer::new("w");
        for round in 0..2 {
            for query in 0..3 {
                t.at(round, query);
                let read = fixed(&mut t, "connector.read", None, 100 + u64::from(round));
                fixed(&mut t, "objectstore.client", Some(read), 60);
            }
        }
        let sums = |name: &str| -> Vec<(u64, i64)> {
            t.per_round(name)
                .iter()
                .map(|s| (s.wall_us, s.self_us))
                .collect()
        };
        assert_eq!(sums("connector.read"), vec![(300, 120), (303, 123)]);
        assert_eq!(sums("objectstore.client"), vec![(180, 180), (180, 180)]);
        assert!(t.per_round("absent").is_empty());
    }

    #[test]
    fn trace_file_round_trips_through_json() {
        let mut t = Tracer::new("vanilla_scan");
        t.at(3, 1);
        let (root, value) = t.time("compute.sql_1w", None, || 7);
        assert_eq!(value, 7);
        t.time("sqlengine.plan", Some(root), || ());
        let doc = crate::json::parse(&t.to_json().render_pretty()).unwrap();
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            spans[1].get("name").unwrap().as_str(),
            Some("sqlengine.plan")
        );
        assert_eq!(
            spans[1].get("workload").unwrap().as_str(),
            Some("vanilla_scan")
        );
        assert_eq!(spans[1].get("round").unwrap().as_f64(), Some(3.0));
        assert_eq!(spans[1].get("query").unwrap().as_f64(), Some(1.0));
    }
}
