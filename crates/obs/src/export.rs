//! Live health export: heartbeat registry, straggler detection, and a
//! Prometheus/JSON scrape endpoint.
//!
//! The flight recorder ([`crate::flight`]) answers "what happened" after a
//! crash; this module answers "is it healthy **now**". Ranks piggyback
//! small heartbeats (iteration, loss, phase, generation, RSS) on the
//! telemetry channel; rank 0 folds them into a [`HealthRegistry`] together
//! with per-op collective durations from the span stream, and serves two
//! views from a tiny blocking HTTP endpoint ([`HttpExporter`]):
//!
//! - `GET /metrics` — Prometheus text format (training metrics plus
//!   per-rank `spdkfac_heartbeat_staleness_seconds` and
//!   `spdkfac_straggler_zscore` gauges), scrapeable by a stock Prometheus.
//! - `GET /health` — a JSON snapshot for humans and scripts.
//!
//! Straggler detection is the cross-rank complement of the paper's
//! intra-iteration timeline analysis: each rank keeps a rolling (EWMA)
//! duration per collective kind, and a rank's straggler score is its worst
//! z-score against the cross-rank distribution of those rolling means — a
//! rank consistently 3σ slower on `allreduce` stands out immediately, long
//! before it times the group out.

use crate::collect::Heartbeat;
use crate::json::JsonWriter;
use crate::metrics::MetricsSnapshot;
use crate::phase::Phase;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// EWMA smoothing factor for rolling per-op durations (≈ last ~10 ops).
const OP_EWMA_ALPHA: f64 = 0.2;

/// A heartbeat is stale once unseen for this long (seconds) — matches the
/// live monitor's `stale` flag threshold in [`crate::collect`].
pub const STALE_AFTER_SECS: f64 = 5.0;

#[derive(Debug, Clone, Default)]
struct RankHealth {
    /// The last heartbeat received (all zero until the first).
    last: Heartbeat,
    /// Collector-clock time it arrived at; `None` = never seen.
    last_heartbeat: Option<f64>,
    heartbeats: u64,
    /// Rolling mean duration (seconds) per collective-op name.
    op_ewma: BTreeMap<String, f64>,
}

/// Rank-0-side registry of per-rank liveness and straggler state.
///
/// Fed by the telemetry reader threads (heartbeat frames and comm-span
/// durations); snapshotted by the HTTP exporter. All timestamps are on the
/// collector's clock.
#[derive(Debug)]
pub struct HealthRegistry {
    ranks: Vec<RankHealth>,
}

impl HealthRegistry {
    /// An empty registry for a `world`-rank group.
    pub fn new(world: usize) -> HealthRegistry {
        HealthRegistry {
            ranks: vec![RankHealth::default(); world],
        }
    }

    /// Number of ranks tracked.
    pub fn world(&self) -> usize {
        self.ranks.len()
    }

    /// Folds in one heartbeat received at collector time `now`.
    pub fn record_heartbeat(&mut self, hb: &Heartbeat, now: f64) {
        let Some(r) = self.ranks.get_mut(hb.rank as usize) else {
            return;
        };
        r.last = hb.clone();
        r.last_heartbeat = Some(now);
        r.heartbeats += 1;
    }

    /// Folds one observed collective duration into `rank`'s rolling per-op
    /// mean.
    pub fn record_op_duration(&mut self, rank: usize, op: &str, secs: f64) {
        let Some(r) = self.ranks.get_mut(rank) else {
            return;
        };
        if !secs.is_finite() || secs < 0.0 {
            return;
        }
        match r.op_ewma.get_mut(op) {
            Some(ewma) => *ewma = (1.0 - OP_EWMA_ALPHA) * *ewma + OP_EWMA_ALPHA * secs,
            None => {
                r.op_ewma.insert(op.to_string(), secs);
            }
        }
    }

    /// Point-in-time health view at collector time `now`.
    pub fn snapshot(&self, now: f64) -> HealthSnapshot {
        // Cross-rank distribution of rolling means, per op name.
        let mut per_op: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in &self.ranks {
            for (op, &v) in &r.op_ewma {
                per_op.entry(op.as_str()).or_default().push(v);
            }
        }
        let stats: BTreeMap<&str, (f64, f64)> = per_op
            .iter()
            .filter(|(_, vs)| vs.len() >= 2)
            .map(|(op, vs)| {
                let n = vs.len() as f64;
                let mean = vs.iter().sum::<f64>() / n;
                let var = vs.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
                (*op, (mean, var.sqrt()))
            })
            .collect();
        let ranks = self
            .ranks
            .iter()
            .enumerate()
            .map(|(rank, r)| {
                let straggler_z = r
                    .op_ewma
                    .iter()
                    .filter_map(|(op, &v)| {
                        let (mean, sd) = stats.get(op.as_str())?;
                        if *sd > 1e-12 {
                            Some((v - mean) / sd)
                        } else {
                            Some(0.0)
                        }
                    })
                    .fold(0.0f64, f64::max);
                RankHealthSnapshot {
                    rank,
                    last: r.last.clone(),
                    staleness: r.last_heartbeat.map(|t| (now - t).max(0.0)),
                    heartbeats: r.heartbeats,
                    straggler_z,
                }
            })
            .collect();
        HealthSnapshot {
            now,
            world: self.ranks.len(),
            ranks,
        }
    }
}

/// One rank's row in a [`HealthSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct RankHealthSnapshot {
    /// The rank.
    pub rank: usize,
    /// The last heartbeat it sent: iteration, loss, phase, generation,
    /// membership epoch, RSS (all zero while `staleness` is `None`).
    pub last: Heartbeat,
    /// Seconds since the last heartbeat; `None` = never heard from.
    pub staleness: Option<f64>,
    /// Heartbeats received in total.
    pub heartbeats: u64,
    /// Worst per-op duration z-score against the cross-rank distribution
    /// (0 when there is nothing to compare).
    pub straggler_z: f64,
}

impl RankHealthSnapshot {
    /// True once the rank's heartbeat is older than [`STALE_AFTER_SECS`]
    /// (or was never seen at all).
    pub fn is_stale(&self) -> bool {
        self.staleness.is_none_or(|s| s > STALE_AFTER_SECS)
    }
}

/// Point-in-time copy of the whole [`HealthRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Collector-clock snapshot time.
    pub now: f64,
    /// Group size.
    pub world: usize,
    /// Per-rank rows, rank order.
    pub ranks: Vec<RankHealthSnapshot>,
}

/// Sanitizes a metric name for Prometheus (`[a-zA-Z0-9_:]`, prefixed).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("spdkfac_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn prom_num(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders Prometheus text exposition format: the training metrics
/// snapshot (counters, gauges, and histograms as summaries) plus the
/// health plane (per-rank staleness, straggler z-scores, iteration, loss,
/// RSS, generation, phase).
pub fn render_prometheus(
    metrics: Option<&MetricsSnapshot>,
    health: Option<&HealthSnapshot>,
) -> String {
    let mut out = String::new();
    if let Some(m) = metrics {
        for (name, v) in &m.counters {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &m.gauges {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", prom_num(*v)));
        }
        for (name, h) in &m.histograms {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (q, v) in [(0.5, h.p50()), (0.95, h.p95()), (0.99, h.p99())] {
                out.push_str(&format!("{n}{{quantile=\"{q}\"}} {}\n", prom_num(v)));
            }
            out.push_str(&format!("{n}_sum {}\n", prom_num(h.sum)));
            out.push_str(&format!("{n}_count {}\n", h.count));
        }
    }
    if let Some(h) = health {
        type Column = fn(&RankHealthSnapshot) -> String;
        let per_rank: [(&str, &str, Column); 9] = [
            ("heartbeat_staleness_seconds", "gauge", |r| {
                prom_num(r.staleness.unwrap_or(f64::INFINITY))
            }),
            ("straggler_zscore", "gauge", |r| prom_num(r.straggler_z)),
            ("rank_iteration", "gauge", |r| r.last.iteration.to_string()),
            ("rank_loss", "gauge", |r| prom_num(r.last.loss)),
            ("rank_rss_bytes", "gauge", |r| r.last.rss_bytes.to_string()),
            ("rank_generation", "gauge", |r| {
                r.last.generation.to_string()
            }),
            ("rank_epoch", "gauge", |r| r.last.epoch.to_string()),
            ("rank_phase", "gauge", |r| r.last.phase.to_string()),
            ("rank_heartbeats_total", "counter", |r| {
                r.heartbeats.to_string()
            }),
        ];
        for (name, kind, value) in per_rank {
            out.push_str(&format!("# TYPE spdkfac_{name} {kind}\n"));
            for r in &h.ranks {
                out.push_str(&format!(
                    "spdkfac_{name}{{rank=\"{}\"}} {}\n",
                    r.rank,
                    value(r)
                ));
            }
        }
    }
    out
}

/// Renders the `/health` JSON document.
pub fn render_health_json(h: &HealthSnapshot) -> String {
    let mut out = String::with_capacity(256 + h.ranks.len() * 192);
    JsonWriter::new(&mut out).object(|w| {
        w.key("now").num(h.now).key("world").int(h.world as u64);
        w.key("ranks").array(|w| {
            for r in &h.ranks {
                let phase = Phase::from_index(r.last.phase as usize).unwrap_or(Phase::Update);
                w.object(|w| {
                    w.key("rank").int(r.rank as u64);
                    w.key("iteration").int(r.last.iteration);
                    w.key("loss").num(r.last.loss);
                    w.key("phase").str(phase.name());
                    w.key("generation").int(r.last.generation);
                    w.key("epoch").int(r.last.epoch);
                    w.key("rss_bytes").int(r.last.rss_bytes);
                    w.key("staleness").num(r.staleness.unwrap_or(f64::NAN));
                    w.key("heartbeats").int(r.heartbeats);
                    w.key("straggler_z").num(r.straggler_z);
                    w.key("stale").bool(r.is_stale());
                });
            }
        });
    });
    out
}

/// The handler a [`HttpExporter`] dispatches to: maps a request path to
/// `Some((content_type, body))`, or `None` for 404.
pub type HttpHandler = Arc<dyn Fn(&str) -> Option<(&'static str, String)> + Send + Sync>;

/// A minimal blocking HTTP/1.1 server for scrape endpoints: one thread,
/// one request per connection, GET only. Not a web server — just enough
/// for `curl` and a Prometheus scraper.
#[derive(Debug)]
pub struct HttpExporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HttpExporter {
    /// Binds `addr` (e.g. `127.0.0.1:9100`, port 0 for ephemeral) and
    /// serves `handler` on a background thread until [`shutdown`] or drop.
    ///
    /// [`shutdown`]: HttpExporter::shutdown
    pub fn spawn(addr: &str, handler: HttpHandler) -> std::io::Result<HttpExporter> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("spdkfac-metrics-http".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => serve_one(stream, &handler),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(25));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(25)),
                    }
                }
            })?;
        Ok(HttpExporter {
            addr: bound,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for HttpExporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_one(mut stream: std::net::TcpStream, handler: &HttpHandler) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    // Read until the end of the request head (or the buffer fills; a scrape
    // GET fits in one read almost always).
    let mut buf = [0u8; 4096];
    let mut len = 0usize;
    loop {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") || len == buf.len() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let response = if method != "GET" {
        http_response(405, "text/plain; charset=utf-8", "method not allowed\n")
    } else {
        match handler(path) {
            Some((content_type, body)) => http_response(200, content_type, &body),
            None => http_response(404, "text/plain; charset=utf-8", "not found\n"),
        }
    };
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

fn http_response(status: u16, content_type: &str, body: &str) -> String {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use crate::metrics::MetricsRegistry;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    fn beat(rank: usize, iteration: u64) -> Heartbeat {
        Heartbeat {
            rank: rank as u32,
            iteration,
            generation: 2,
            epoch: 1,
            phase: 1,
            loss: 0.5,
            rss_bytes: 1 << 20,
            sent_at: 0.0,
        }
    }

    fn filled_registry() -> HealthRegistry {
        let mut reg = HealthRegistry::new(4);
        for rank in 0..4 {
            reg.record_heartbeat(&beat(rank, 10 + rank as u64), 100.0);
            // Rank 2 is consistently 10x slower on allreduce.
            let d = if rank == 2 { 0.10 } else { 0.01 };
            for _ in 0..20 {
                reg.record_op_duration(rank, "allreduce", d);
            }
        }
        reg
    }

    #[test]
    fn straggler_zscore_flags_the_slow_rank() {
        let reg = filled_registry();
        let snap = reg.snapshot(100.5);
        assert_eq!(snap.world, 4);
        let z2 = snap.ranks[2].straggler_z;
        let z0 = snap.ranks[0].straggler_z;
        assert!(z2 > 1.5, "slow rank z={z2}");
        assert!(z0 < 0.5, "normal rank z={z0}");
        // Staleness = now - last heartbeat.
        assert!((snap.ranks[1].staleness.unwrap() - 0.5).abs() < 1e-9);
        assert!(!snap.ranks[1].is_stale());
    }

    #[test]
    fn missing_rank_is_stale_with_no_staleness_value() {
        let mut reg = HealthRegistry::new(3);
        reg.record_heartbeat(&beat(0, 1), 10.0);
        let snap = reg.snapshot(20.0);
        assert_eq!(snap.ranks[1].staleness, None);
        assert!(snap.ranks[1].is_stale());
        assert_eq!(snap.ranks[1].heartbeats, 0);
        // Rank 0's heartbeat is 10 s old: also stale.
        assert!(snap.ranks[0].is_stale());
        assert_eq!(snap.ranks[0].heartbeats, 1);
    }

    #[test]
    fn prometheus_rendering_includes_health_gauges() {
        let metrics = MetricsRegistry::new();
        metrics.counter("train/iterations").add(7);
        metrics.gauge("runtime/generation").set(3.0);
        metrics.histogram("comm/allreduce_secs").observe(0.01);
        let snap = metrics.snapshot();
        let health = filled_registry().snapshot(100.5);
        let text = render_prometheus(Some(&snap), Some(&health));
        assert!(text.contains("# TYPE spdkfac_train_iterations counter"));
        assert!(text.contains("spdkfac_train_iterations 7"));
        assert!(text.contains("spdkfac_runtime_generation 3"));
        assert!(text.contains("spdkfac_comm_allreduce_secs{quantile=\"0.99\"}"));
        assert!(text.contains("spdkfac_comm_allreduce_secs_count 1"));
        assert!(text.contains("spdkfac_heartbeat_staleness_seconds{rank=\"2\"}"));
        assert!(text.contains("spdkfac_rank_epoch{rank=\"1\"} 1"));
        assert!(text.contains("spdkfac_straggler_zscore{rank=\"2\"}"));
        assert!(text.contains("spdkfac_rank_iteration{rank=\"3\"} 13"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let mut it = line.split(' ');
            let (name, value) = (it.next().unwrap(), it.next().unwrap());
            assert!(name.starts_with("spdkfac_"), "bad metric line {line:?}");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
                "bad value in {line:?}"
            );
        }
    }

    #[test]
    fn never_seen_rank_exports_infinite_staleness() {
        let reg = HealthRegistry::new(2);
        let text = render_prometheus(None, Some(&reg.snapshot(5.0)));
        assert!(text.contains("spdkfac_heartbeat_staleness_seconds{rank=\"0\"} +Inf"));
    }

    #[test]
    fn health_json_is_valid() {
        let snap = filled_registry().snapshot(100.5);
        let doc = render_health_json(&snap);
        let v = parse_json(&doc).expect("health JSON parses");
        let ranks = v.get("ranks").and_then(|r| r.as_array()).unwrap();
        assert_eq!(ranks.len(), 4);
        assert_eq!(ranks[2].get("rank").and_then(|r| r.as_f64()), Some(2.0));
        assert_eq!(
            ranks[0].get("phase").and_then(|p| p.as_str()),
            Some(Phase::from_index(1).unwrap().name())
        );
        assert_eq!(ranks[1].get("stale").and_then(|s| s.as_bool()), Some(false));
    }

    #[test]
    fn http_exporter_serves_metrics_and_health() {
        let handler: HttpHandler = Arc::new(|path| match path {
            "/metrics" => {
                let health = filled_registry().snapshot(100.5);
                Some((
                    "text/plain; version=0.0.4; charset=utf-8",
                    render_prometheus(None, Some(&health)),
                ))
            }
            "/health" => {
                let health = filled_registry().snapshot(100.5);
                Some(("application/json", render_health_json(&health)))
            }
            _ => None,
        });
        let mut srv = HttpExporter::spawn("127.0.0.1:0", handler).unwrap();
        let addr = srv.local_addr();

        let get = |path: &str| -> (String, String) {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(
                s,
                "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
            .unwrap();
            s.flush().unwrap();
            let mut r = BufReader::new(s);
            let mut status = String::new();
            r.read_line(&mut status).unwrap();
            let mut body = String::new();
            let mut line = String::new();
            // Skip the rest of the headers.
            loop {
                line.clear();
                r.read_line(&mut line).unwrap();
                if line == "\r\n" || line.is_empty() {
                    break;
                }
            }
            r.read_to_string(&mut body).unwrap();
            (status, body)
        };

        let (status, body) = get("/metrics");
        assert!(status.contains("200"), "status {status:?}");
        assert!(body.contains("spdkfac_heartbeat_staleness_seconds{rank=\"0\"}"));
        assert!(body.contains("spdkfac_straggler_zscore{rank=\"2\"}"));

        let (status, body) = get("/health");
        assert!(status.contains("200"));
        assert!(parse_json(&body).is_ok());

        let (status, _) = get("/nope");
        assert!(status.contains("404"));

        srv.shutdown();
    }
}
