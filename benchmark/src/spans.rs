//! Host-clock spans recorded by the benchmark around its calls into the
//! library: name, start, end, and the span that was open when it began.
//! Kept in memory and written once, after the traced run. A recorder that is
//! off (every timed run) records nothing and allocates nothing.

use std::time::Instant;

use obs::Json;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals: calls, inclusive time, and self time (inclusive minus
/// the part covered by child spans).
#[derive(Clone, Debug, PartialEq)]
pub struct NameTotal {
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Spans {
    pub fn off() -> Spans {
        Spans::new(false)
    }

    pub fn on() -> Spans {
        Spans::new(true)
    }

    fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("end without begin");
        self.spans[id].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn within<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.begin(name);
        let out = f(self);
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name, in first-appearance order.
    pub fn totals(&self) -> Vec<NameTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<NameTotal> = Vec::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let entry = match out.iter_mut().find(|t| t.name == s.name) {
                Some(e) => e,
                None => {
                    out.push(NameTotal {
                        name: s.name,
                        calls: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            entry.calls += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(covered);
        }
        out
    }

    /// Chrome `trace_event` document: one complete (`X`) event per span.
    pub fn chrome(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Obj(vec![
                    ("name".into(), Json::str(s.name)),
                    ("ph".into(), Json::str("X")),
                    ("pid".into(), Json::U64(0)),
                    ("tid".into(), Json::U64(0)),
                    ("ts".into(), Json::F64(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Json::F64((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::U64(id as u64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("displayTimeUnit".into(), Json::str("ms")),
            ("traceEvents".into(), Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut s = Spans::on();
        s.within("outer", |s| {
            s.within("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            s.within("inner", |_| ());
        });
        s.within("outer", |_| ());
        let spans = s.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert_eq!(spans[3].parent, None);
        let totals = s.totals();
        assert_eq!(totals[0].name, "outer");
        assert_eq!((totals[0].calls, totals[1].calls), (2, 2));
        assert_eq!(totals[0].self_ns, totals[0].total_ns - totals[1].total_ns);
        assert!(totals[1].total_ns >= 2_000_000);
        let text = s.chrome().render();
        assert!(obs::json::parse(&text).is_ok());
        assert!(text.contains("\"parent\":0"));
    }

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::off();
        assert_eq!(s.within("x", |_| 7), 7);
        assert!(s.spans().is_empty());
    }
}
