//! The `serve-pipelined` workload: an in-process TCP [`Server`] on
//! loopback, driven by a closed-loop client with a fixed number of
//! requests in flight per connection.
//!
//! Every response line must byte-match the line an in-process
//! [`Service`] produced for the same request during set-up — the rule
//! `batch` and `serve` already follow.

use crate::metrics::{mean, median, ms, peak_rss_mb, percentile, reset_peak_rss, Metrics, Outcome};
use crate::reduce::derive_seed;
use pslocal_core::protocol::{parse_request, response_line};
use pslocal_core::{RequestOutcome, Server, ServerConfig, Service, ServiceConfig, ServiceResponse};
use pslocal_graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
use pslocal_telemetry::{AggregateSink, NullSink, Sink, Telemetry};
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Service workers of the server.
pub const WORKERS: usize = 2;
/// Client connections, one client thread each.
pub const CONNECTIONS: usize = 2;
/// Length of one peak-RSS window during the load.
const RSS_WINDOW: Duration = Duration::from_millis(500);
/// Request lines each connection keeps in flight.
pub const DEPTH: usize = 4;
/// Distinct request templates the client cycles through.
const TEMPLATES: usize = 64;
const SETUP_REPEATS: usize = 5;
/// A response slower than this fails the run instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One request template: the line's fields after `id`, and the shape
/// it was generated from.
struct Template {
    fields: String,
    params: PlantedCfParams,
    seed: u64,
    expected: RequestOutcome,
}

/// The request mix: per 8 templates, 3 dense (128, 64, 8), 4 sparse
/// (384, 192, 4) and 1 dense whose primary oracle returns an invalid
/// set on its first call, so `reduce_cf_resilient` validates and retries.
fn template_fields(seed: u64) -> Vec<(String, PlantedCfParams, u64)> {
    (0..TEMPLATES)
        .map(|j| {
            let s = derive_seed(seed, j as u64) >> 11;
            let (n, m, k, faults) = match j % 8 {
                0..=2 => (128, 64, 8, ""),
                3..=6 => (384, 192, 4, ""),
                _ => (128, 64, 8, ",\"faults\":\"invalid-set\""),
            };
            let fields = format!("\"n\":{n},\"m\":{m},\"k\":{k},\"seed\":{s}{faults}");
            (fields, PlantedCfParams::new(n, m, k), s)
        })
        .collect()
}

fn request_line(id: &str, fields: &str) -> String {
    format!("{{\"id\":\"{id}\",{fields}}}")
}

/// Answers every template through an in-process [`Service`].
fn templates(seed: u64) -> Result<Vec<Template>, String> {
    let raw = template_fields(seed);
    let config = ServiceConfig::new(WORKERS).with_queue_capacity(TEMPLATES);
    let service = Service::start(config, Telemetry::disabled());
    for (j, (fields, _, _)) in raw.iter().enumerate() {
        let request = parse_request(&request_line(&j.to_string(), fields), None)?;
        service.submit(request).map_err(|_| "reference service queue full".to_string())?;
    }
    let mut expected: Vec<Option<RequestOutcome>> = vec![None; TEMPLATES];
    for _ in 0..TEMPLATES {
        let response = service.recv().ok_or("reference service stopped early")?;
        let j: usize = response.id.parse().map_err(|_| "unexpected reference id")?;
        if !matches!(response.outcome, RequestOutcome::Ok { .. }) {
            return Err(format!("template {j} is not ok: {}", response_line(&response)));
        }
        expected[j] = Some(response.outcome);
    }
    let _ = service.shutdown();
    raw.into_iter()
        .zip(expected)
        .map(|((fields, params, seed), e)| {
            let expected = e.ok_or("missing reference answer")?;
            Ok(Template { fields, params, seed, expected })
        })
        .collect()
}

/// A client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> Result<Self, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        writer.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer, reader })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes).map_err(|e| format!("write: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// A running server and its client connections.
struct Rig<S: Sink + Send + Sync + 'static> {
    server: Server<S>,
    conns: Vec<Conn>,
}

impl<S: Sink + Send + Sync + 'static> Rig<S> {
    /// Starts the server, connects, and warms each connection up with
    /// one round trip.
    fn start(tel: Telemetry<S>, templates: &[Template]) -> Result<Self, String> {
        let config = ServerConfig::default().with_service(ServiceConfig::new(WORKERS));
        let server = Server::start("127.0.0.1:0", config, tel).map_err(|e| e.to_string())?;
        let mut rig = Rig { server, conns: Vec::new() };
        for (c, template) in templates.iter().enumerate().take(CONNECTIONS) {
            let mut conn = Conn::open(rig.server.local_addr())?;
            let id = format!("warm{c}");
            conn.send(&request_line(&id, &template.fields))?;
            let got = conn.recv()?;
            let want = expected_line(&id, &template.expected);
            if got != want {
                return Err(format!("warm-up answer {got} != {want}"));
            }
            rig.conns.push(conn);
        }
        Ok(rig)
    }

    fn stop(self) {
        drop(self.conns);
        let _ = self.server.shutdown();
    }
}

fn expected_line(id: &str, outcome: &RequestOutcome) -> String {
    response_line(&ServiceResponse {
        id: id.to_string(),
        outcome: outcome.clone(),
        queue_wait: Duration::ZERO,
        latency: Duration::ZERO,
    })
}

/// What one closed-loop load produced.
#[derive(Default)]
struct Load {
    latency_ms: Vec<f64>,
    /// Peak RSS of each window of the load.
    rss_mb: Vec<f64>,
    sent: u64,
    errors: Vec<String>,
    elapsed: Duration,
}

/// Drives every connection from its own thread for `budget`, keeping
/// [`DEPTH`] request lines in flight, then drains the outstanding ones.
fn drive(conns: &mut [Conn], templates: &[Template], budget: Duration) -> Load {
    let start = Instant::now();
    let mut rss_mb = Vec::new();
    let per_conn: Vec<Load> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| scope.spawn(move || drive_one(c, conn, templates, start, budget)))
            .collect();
        // The calling thread only samples memory while the clients run.
        reset_peak_rss();
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(RSS_WINDOW);
            rss_mb.extend(peak_rss_mb());
            reset_peak_rss();
        }
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Load {
                    errors: vec!["client thread panicked".into()],
                    ..Load::default()
                })
            })
            .collect()
    });
    let mut load = Load { rss_mb, ..Load::default() };
    for l in per_conn {
        load.elapsed = load.elapsed.max(l.elapsed);
        load.latency_ms.extend(l.latency_ms);
        load.sent += l.sent;
        load.errors.extend(l.errors);
    }
    load
}

fn drive_one(
    c: usize,
    conn: &mut Conn,
    templates: &[Template],
    start: Instant,
    budget: Duration,
) -> Load {
    let mut load = Load::default();
    let mut in_flight: HashMap<String, (usize, Instant)> = HashMap::new();
    let mut seq = 0usize;
    let mut send_next = |conn: &mut Conn, in_flight: &mut HashMap<String, (usize, Instant)>| {
        let j = (c + CONNECTIONS * seq) % templates.len();
        let id = format!("{c}.{seq}");
        seq += 1;
        let line = request_line(&id, &templates[j].fields);
        in_flight.insert(id, (j, Instant::now()));
        conn.send(&line)
    };
    for _ in 0..DEPTH {
        if let Err(e) = send_next(conn, &mut in_flight) {
            load.errors.push(e);
            return load;
        }
        load.sent += 1;
    }
    while !in_flight.is_empty() {
        let line = match conn.recv() {
            Ok(line) => line,
            Err(e) => {
                load.errors.push(format!("connection {c}: {e}"));
                return load;
            }
        };
        let received = Instant::now();
        let Some((id, (j, sent_at))) =
            response_id(&line).and_then(|id| Some((id, in_flight.remove(id)?)))
        else {
            load.errors.push(format!("connection {c}: unmatched response {line}"));
            return load;
        };
        if line != expected_line(id, &templates[j].expected) {
            load.errors.push(format!("connection {c}: wrong answer {line}"));
        } else {
            load.latency_ms.push(ms(received - sent_at));
        }
        if start.elapsed() < budget {
            if let Err(e) = send_next(conn, &mut in_flight) {
                load.errors.push(e);
                return load;
            }
            load.sent += 1;
        }
    }
    load.elapsed = start.elapsed();
    load
}

/// The `id` of a response line.
fn response_id(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"id\":\"")?;
    rest.split('"').next()
}

/// Parses the `STATS` block into `(kind name) -> key=value` fields.
fn stats(conn: &mut Conn) -> Result<HashMap<String, HashMap<String, f64>>, String> {
    conn.send("STATS")?;
    let mut out = HashMap::new();
    loop {
        let line = conn.recv()?;
        if line == "OK" {
            return Ok(out);
        }
        let mut parts = line.split_whitespace();
        let (Some(kind), Some(name)) = (parts.next(), parts.next()) else { continue };
        let mut fields = HashMap::new();
        for part in parts {
            match part.split_once('=') {
                Some((k, v)) => v.parse().ok().map(|v| fields.insert(k.to_string(), v)),
                None => part.parse().ok().map(|v| fields.insert("value".to_string(), v)),
            };
        }
        out.insert(format!("{kind} {name}"), fields);
    }
}

/// Median wall time of `f` over `reps` calls, in microseconds.
fn median_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// One run of `serve-pipelined`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    match run_inner(seed, seconds, trace, &mut out) {
        Ok(()) => {}
        Err(e) => out.fail(e),
    }
    out
}

fn run_inner(seed: u64, seconds: f64, trace: bool, out: &mut Outcome) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut rig: Option<(Vec<Template>, Rig<NullSink>)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((_, old)) = rig.take() {
            old.stop();
        }
        let start = Instant::now();
        let templates = templates(seed)?;
        let r = Rig::start(Telemetry::disabled(), &templates)?;
        setup_s.push(start.elapsed().as_secs_f64());
        rig = Some((templates, r));
    }
    let (templates, mut rig) = rig.ok_or("no set-up ran")?;
    out.attempted += CONNECTIONS as u64;
    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });

    let load = drive(&mut rig.conns, &templates, budget);
    rig.stop();
    account(out, &load);
    if !trace {
        let total_s = load.elapsed.as_secs_f64();
        // Exact per seed: the mean over the template pool, not over the
        // responses a time-limited run happened to get.
        let (phases, colors): (Vec<f64>, Vec<f64>) = templates
            .iter()
            .map(|t| match t.expected {
                RequestOutcome::Ok { phases, colors, .. } => (phases as f64, colors as f64),
                _ => (0.0, 0.0),
            })
            .unzip();
        let m = &mut out.metrics;
        m.set("setup_s", median(&setup_s), "s");
        m.set("op_ms_p50", median(&load.latency_ms), "ms");
        m.set("op_ms_p90", percentile(&load.latency_ms, 90.0), "ms");
        m.set("op_ms_p99", percentile(&load.latency_ms, 99.0), "ms");
        m.set("ops_per_s", load.latency_ms.len() as f64 / total_s, "1/s");
        m.set("phases_mean", mean(&phases), "count");
        m.set("colors_mean", mean(&colors), "count");
        return Ok(());
    }

    // Traced half: the same load against a server whose telemetry feeds
    // an aggregating sink, read back over the wire with STATS.
    let mut traced = Rig::start(Telemetry::new(AggregateSink::new()), &templates)?;
    out.attempted += CONNECTIONS as u64;
    let traced_load = drive(&mut traced.conns, &templates, budget);
    account(out, &traced_load);
    let stats = stats(&mut traced.conns[0]);
    traced.stop();
    let stats = stats?;
    out.metrics = serve_layers(&stats, &templates, &traced_load);
    let overhead = median(&traced_load.latency_ms) / median(&load.latency_ms);
    out.metrics.set("telemetry.trace_overhead", overhead, "ratio");
    out.metrics.set("peak_rss_mb", median(&load.rss_mb), "MB");
    Ok(())
}

fn account(out: &mut Outcome, load: &Load) {
    out.attempted += load.sent;
    for e in &load.errors {
        out.fail(e.clone());
    }
    // Every request sent but not answered correctly is a failure.
    let answered = load.latency_ms.len() as u64;
    let unanswered = load.sent.saturating_sub(answered).saturating_sub(load.errors.len() as u64);
    for _ in 0..unanswered {
        out.fail("request without a correct answer".into());
    }
}

fn serve_layers(
    stats: &HashMap<String, HashMap<String, f64>>,
    templates: &[Template],
    load: &Load,
) -> Metrics {
    let field = |key: &str, f: &str| stats.get(key).and_then(|m| m.get(f)).copied().unwrap_or(0.0);
    let completed = field("counter requests_completed", "value").max(1.0);
    // Span totals are rendered in microseconds.
    let span_ms = |name: &str| field(&format!("span {name}"), "total_us") / 1e3 / completed;
    let mut m = Metrics::default();
    let run_ms = span_ms("service-request");
    let build = span_ms("conflict-graph");
    let oracle = span_ms("oracle");
    let commit = span_ms("commit");
    let restrict = span_ms("restrict");
    m.set("conflict_graph.build_ms", build, "ms");
    m.set("maxis.oracle_ms", oracle, "ms");
    m.set("correspondence.commit_ms", commit, "ms");
    m.set("conflict_graph.restrict_ms", restrict, "ms");
    let unattributed = run_ms - (build + oracle + commit + restrict);
    m.set("reduction.traced_ms", run_ms, "ms");
    m.set("reduction.unattributed_ms", unattributed, "ms");
    m.set(
        "reduction.unattributed_share",
        if run_ms > 0.0 { unattributed / run_ms } else { 0.0 },
        "ratio",
    );
    m.set("service.queue_wait_ms_p50", field("histogram queue_wait_ns", "p50") / 1e6, "ms");
    m.set("service.queue_wait_ms_p99", field("histogram queue_wait_ns", "p99") / 1e6, "ms");
    m.set("service.queue_depth_p50", field("histogram queue_depth", "p50"), "count");
    m.set("service.run_ms_mean", run_ms, "ms");
    m.set("service.retries", field("counter retries", "value") / completed, "count/req");
    let server_ms = field("histogram request_latency_ns", "mean") / 1e6;
    m.set("server.wire_ms_mean", mean(&load.latency_ms) - server_ms, "ms");

    // The per-request front-end layers, timed in-process on the same lines.
    const REPS: usize = 21;
    let (mut planted, mut parse, mut encode) = (Vec::new(), Vec::new(), Vec::new());
    for (j, t) in templates.iter().enumerate() {
        let gen = median_us(REPS, || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(t.seed);
            planted_cf_instance(&mut rng, t.params)
        });
        let line = request_line(&format!("0.{j}"), &t.fields);
        let parsed = median_us(REPS, || parse_request(&line, None));
        let response = ServiceResponse {
            id: format!("0.{j}"),
            outcome: t.expected.clone(),
            queue_wait: Duration::ZERO,
            latency: Duration::ZERO,
        };
        encode.push(median_us(REPS, || response_line(&response)));
        planted.push(gen);
        parse.push(parsed - gen);
    }
    m.set("generators.planted_us", mean(&planted), "us");
    m.set("protocol.parse_us", mean(&parse), "us");
    m.set("protocol.encode_us", mean(&encode), "us");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_answers_match_the_service_and_stats_are_read() {
        let out = run(3, 0.4, true);
        assert_eq!(out.failed, 0, "{:?}", out.errors);
        let m = &out.metrics;
        assert!(m.get("service.run_ms_mean").unwrap_or(0.0) > 0.0);
        assert!(m.get("service.retries").unwrap_or(0.0) > 0.0, "the invalid-set retry path ran");
        assert!(m.get("protocol.parse_us").is_some());
        assert!(m.get("reduction.unattributed_ms").is_some());
    }

    #[test]
    fn template_counts_repeat_exactly_for_one_seed() {
        let (a, b) = (run(4, 0.2, false).metrics, run(4, 0.2, false).metrics);
        for name in ["phases_mean", "colors_mean"] {
            assert_eq!(a.get(name), b.get(name), "{name}");
        }
    }

    #[test]
    fn response_ids_parse() {
        assert_eq!(response_id(r#"{"id":"1.7","outcome":"ok"}"#), Some("1.7"));
        assert_eq!(response_id(r#"{"outcome":"bad_request"}"#), None);
    }
}
