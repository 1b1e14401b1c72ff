//! Spans recorded from the benchmark's own files, around the calls into
//! each layer, kept in memory and written out when the run ends.
//!
//! A span is a name, a start, an end and the span that caused it; the
//! spans of one request share its tag. A span's self time is its
//! duration minus the part of it its children cover. The server's own
//! per-group spans (`trace <n>`: enqueue → cut → coalesce → apply → fsync
//! → publish) run on the server's clock, so they are kept beside the
//! driver's spans rather than under them, joined by commit version: a
//! submit's ack names the version of the group that carried it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are microseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What ran.
    pub name: String,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request tag, for spans of one request.
    pub req: Option<u64>,
    /// The commit version the request's ack named, for submits.
    pub version: Option<u64>,
    /// Start.
    pub start_us: f64,
    /// End (equal to `start_us` while still open).
    pub end_us: f64,
}

/// One of the server's group spans, parsed from a `span …` line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GroupSpan {
    /// Worker ordinal.
    pub worker: u64,
    /// Group ordinal within the worker.
    pub group: u64,
    /// Published version (`None` for an uncommitted group).
    pub version: Option<u64>,
    /// Requests in the group.
    pub size: u64,
    /// Stage timestamps on the server's clock, in pipeline order:
    /// enqueue, cut, coalesce, apply, fsync, publish.
    pub stamps_us: [u64; 6],
}

/// The stage each pair of consecutive stamps bounds.
pub const GROUP_STAGES: [&str; 5] = ["queue_wait", "coalesce", "apply", "fsync", "publish"];

impl GroupSpan {
    /// Parses the `key=value` rendering of the server's `trace` verb.
    pub fn parse(line: &str) -> Option<GroupSpan> {
        let fields: BTreeMap<&str, &str> =
            line.split_whitespace().filter_map(|kv| kv.split_once('=')).collect();
        let num = |k: &str| fields.get(k)?.parse::<u64>().ok();
        Some(GroupSpan {
            worker: num("worker")?,
            group: num("group")?,
            version: num("version"),
            size: num("size")?,
            stamps_us: [
                num("enqueue_us")?,
                num("cut_us")?,
                num("coalesce_us")?,
                num("apply_us")?,
                num("fsync_us")?,
                num("publish_us")?,
            ],
        })
    }
}

/// The in-memory span store of one traced run. A disabled tracer records
/// nothing, so the untraced run pays for none of this.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    groups: BTreeMap<(u64, u64), GroupSpan>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), groups: BTreeMap::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        self.add(name, parent, Instant::now(), None, None, None)
    }

    /// Closes a span now.
    pub fn end(&mut self, id: SpanId) {
        let now = self.at(Instant::now());
        if let Some(span) = self.spans.get_mut(id) {
            span.end_us = now;
        }
    }

    /// Records a span whose times are already known (`end` of `None`
    /// leaves it open). Returns 0 when disabled.
    pub fn add(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Option<Instant>,
        req: Option<u64>,
        version: Option<u64>,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_us = self.at(start);
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            req,
            version,
            start_us,
            end_us: end.map_or(start_us, |e| self.at(e)),
        });
        self.spans.len() - 1
    }

    /// Folds in the server's answer to `trace <n>`; a group seen twice is
    /// kept once.
    pub fn add_groups(&mut self, span_lines: &[String]) {
        if !self.enabled {
            return;
        }
        for g in span_lines.iter().filter_map(|l| GroupSpan::parse(l.trim_start_matches("span "))) {
            self.groups.insert((g.worker, g.group), g);
        }
    }

    /// Server group spans collected so far.
    #[cfg(test)]
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// Self time of every span: duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us));
                if b > a {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|x, y| x.0.total_cmp(&y.0));
                let mut covered = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for (a, b) in kids {
                    if b > reach {
                        covered += b - a.max(reach);
                        reach = b;
                    }
                }
                (s.end_us - s.start_us - covered).max(0.0)
            })
            .collect()
    }

    /// Renders the trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut by_version: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            if let (Some(v), Some(req), None) =
                (s.version, s.req, s.parent.and_then(|p| self.spans[p].req))
            {
                by_version.entry(v).or_default().push(req);
            }
        }
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\
             \"clock\":\"spans: us since the run began (driver clock); \
             server_groups: us on the server process's own clock\",\n\"spans\":["
        );
        for (i, (s, self_us)) in self.spans.iter().zip(self.self_times_us()).enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"id\":{i},\"parent\":{},\"name\":\"{}\",\"req\":{},\"version\":{},\
                 \"start_us\":{:.1},\"end_us\":{:.1},\"self_us\":{:.1}}}",
                if i == 0 { "" } else { "," },
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                opt(s.req),
                opt(s.version),
                s.start_us,
                s.end_us,
                self_us,
            );
        }
        out.push_str("\n],\n\"server_groups\":[");
        for (i, g) in self.groups.values().enumerate() {
            let stages: Vec<String> = GROUP_STAGES
                .iter()
                .zip(g.stamps_us.windows(2))
                .map(|(name, w)| format!("\"{name}_us\":{}", w[1].saturating_sub(w[0])))
                .collect();
            let reqs = g.version.and_then(|v| by_version.get(&v)).map_or(String::new(), |r| {
                r.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
            });
            let _ = write!(
                out,
                "{}\n{{\"worker\":{},\"group\":{},\"version\":{},\"size\":{},\
                 \"enqueue_us\":{},\"publish_us\":{},{},\"requests\":[{reqs}]}}",
                if i == 0 { "" } else { "," },
                g.worker,
                g.group,
                opt(g.version),
                g.size,
                g.stamps_us[0],
                g.stamps_us[5],
                stages.join(","),
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes the trace file; a disabled tracer writes nothing.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(workload, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let mut t = Tracer::new(true);
        let e = t.epoch;
        let at = |ms: u64| e + Duration::from_millis(ms);
        let root = t.add("request", None, at(0), Some(at(100)), Some(7), Some(3));
        // Two overlapping children cover 10..50, a third 70..120 is
        // clipped to the parent's end: 40 + 30 covered, 30 left.
        t.add("send", Some(root), at(10), Some(at(40)), Some(7), None);
        t.add("send", Some(root), at(30), Some(at(50)), Some(7), None);
        let late = t.add("drain", Some(root), at(70), Some(at(120)), Some(7), None);
        t.add("inner", Some(late), at(80), Some(at(90)), None, None);
        let selfs = t.self_times_us();
        assert!((selfs[root] - 30_000.0).abs() < 1.0, "{selfs:?}");
        assert!((selfs[1] - 30_000.0).abs() < 1.0);
        assert!((selfs[late] - 40_000.0).abs() < 1.0);
    }

    #[test]
    fn server_groups_parse_dedup_and_join_requests_by_version() {
        let line = "span worker=1 group=5 kind=facts committed=true size=2 version=3 \
                    enqueue_us=100 cut_us=2100 coalesce_us=2110 apply_us=2400 fsync_us=3300 \
                    publish_us=3320 wait_us=2000 commit_us=1220 traces=8,9";
        let g = GroupSpan::parse(line.trim_start_matches("span ")).unwrap();
        assert_eq!((g.worker, g.group, g.version, g.size), (1, 5, Some(3), 2));
        assert_eq!(g.stamps_us, [100, 2100, 2110, 2400, 3300, 3320]);
        assert_eq!(GroupSpan::parse("worker=1 group=2 size=1 version=none"), None);

        let mut t = Tracer::new(true);
        t.add_groups(&[line.to_string(), line.to_string()]);
        assert_eq!(t.groups(), 1);
        let e = t.epoch;
        let req = t.add("submit", None, e, Some(e + Duration::from_millis(4)), Some(41), Some(3));
        t.add("send", Some(req), e, Some(e + Duration::from_millis(1)), Some(41), Some(3));
        let json = t.to_json("ingest-small", 42);
        assert!(json.contains("\"apply_us\":290"), "{json}");
        assert!(json.contains("\"fsync_us\":900"));
        // The request is listed once (its child span shares tag and version).
        assert!(json.contains("\"requests\":[41]"), "{json}");
        assert!(json.contains("\"name\":\"submit\",\"req\":41,\"version\":3"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", None);
        t.end(id);
        t.add_groups(&["span worker=1".to_string()]);
        assert!(t.spans.is_empty() && t.groups() == 0);
        assert!(t.self_times_us().is_empty());
    }
}
