//! The analyst side: `DPRB` connections driven closed-loop (a fixed
//! number of plans in flight) or open-loop (a fixed offered rate, each
//! plan timed from when it was due to be sent).

use crate::trace::{now_ns, Recorder, Tracer};
use dpod_query::Answer;
use dpod_serve::protocol::{Request, Response};
use dpod_serve::wire;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Socket-facing client threads one phase runs (the open-loop sender
/// and receiver); asserted against the host's core count at start.
pub const CLIENT_THREADS: usize = 2;
/// Connections one phase holds open at a time.
pub const CONNECTIONS: usize = 1;
/// Plans in flight during a saturated phase.
pub const IN_FLIGHT: usize = 16;
/// An open-loop phase counts as failed when the generator's p99
/// lateness against its schedule exceeds this.
pub const MAX_SEND_LAG_MS: f64 = 20.0;

/// Opaque per-plan context a [`Mix`] hands itself for the check.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tag {
    /// Which plan of the mix.
    pub plan: u64,
    /// Mix-specific context (e.g. the series frontier at send time).
    pub ctx: u64,
}

/// A seeded request stream plus the check of each answer.
pub trait Mix: Sync {
    /// The `i`-th request of the stream.
    fn request(&self, i: u64) -> (Request, Tag);
    /// Whether `answer` is correct for the plan `tag` names, received at
    /// `received_ns` ([`now_ns`] clock).
    fn check(&self, tag: Tag, answer: &Answer, received_ns: u64) -> bool;
}

/// Chunks each saturated sub-phase's plan count is cut into.
pub const CHUNKS: usize = 20;

/// What one phase (one or more sub-phases) measured.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Plans sent.
    pub attempted: u64,
    /// Plans answered wrongly, refused, or lost — or, for an open-loop
    /// phase whose generator fell behind, every plan it sent.
    pub failed: u64,
    /// Per-plan latency, nanoseconds, in send order.
    pub latencies: Vec<u64>,
    /// Saturated: answers per second of each chunk of consecutive answers.
    pub chunk_rates: Vec<f64>,
    /// Per-plan send lateness, nanoseconds (open loop only).
    pub send_lag: Vec<u64>,
    /// Wall time from first send to last receipt, summed, seconds.
    pub elapsed_s: f64,
    /// Request plus response bytes on the wire, length prefixes included.
    pub wire_bytes: u64,
    /// Next unused stream index.
    pub next_index: u64,
}

impl PhaseResult {
    /// Folds a later sub-phase in.
    pub fn merge(&mut self, mut other: PhaseResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies.append(&mut other.latencies);
        self.chunk_rates.append(&mut other.chunk_rates);
        self.send_lag.append(&mut other.send_lag);
        self.elapsed_s += other.elapsed_s;
        self.wire_bytes += other.wire_bytes;
        self.next_index = other.next_index;
    }

    /// Answered plans per second over the whole phase.
    pub fn overall_rate(&self) -> f64 {
        self.latencies.len() as f64 / self.elapsed_s.max(1e-9)
    }

    /// Lower decile of the chunk rates: the rate the server kept up in
    /// nine chunks of ten. A host stall costs a chunk or two, not the
    /// phase, and the host's bursts of extra speed, which come and go
    /// for seconds at a time, move it only when they fill nine tenths
    /// of the phase.
    pub fn rate(&self) -> f64 {
        crate::stats::quantile(&self.chunk_rates, 0.1)
    }

    /// Nearest-rank latency quantile over the whole phase, milliseconds.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let mut v = self.latencies.clone();
        v.sort_unstable();
        crate::stats::quantile_sorted(&v, q) / 1e6
    }

    /// Nearest-rank send-lag quantile in milliseconds.
    pub fn lag_ms(&self, q: f64) -> f64 {
        let mut v = self.send_lag.clone();
        v.sort_unstable();
        crate::stats::quantile_sorted(&v, q) / 1e6
    }
}

/// One `DPRB` connection (legacy preamble, as `wire::Client::connect`
/// sends by default), split into its two directions.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut writer = BufWriter::new(stream.try_clone()?);
        writer.write_all(wire::WIRE_MAGIC)?;
        writer.write_all(&[wire::WIRE_VERSION])?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }
}

/// Encodes and writes one request (flushing), inside the request's
/// client spans. Returns the frame size with its length prefix.
fn send(
    w: &mut BufWriter<TcpStream>,
    req: &Request,
    rec: &mut Recorder,
    parent: u64,
    id: u64,
) -> Result<u64, String> {
    let body = rec.time("wire.encode_request", parent, id, || {
        wire::encode_request(req)
    });
    rec.time("client.write", parent, id, || {
        wire::write_frame(w, &body)
            .and_then(|()| w.flush().map_err(wire::WireError::from))
            .map_err(|e| e.to_string())
    })?;
    Ok(body.len() as u64 + 4)
}

/// Reads and decodes one response. Returns the answer (or the error
/// message) and the frame size with its length prefix.
fn receive(
    r: &mut BufReader<TcpStream>,
    rec: &mut Recorder,
    parent: u64,
    id: u64,
) -> Result<(Result<Answer, String>, u64), String> {
    let body = rec
        .time("client.wait", parent, id, || wire::read_frame(r))
        .map_err(|e| e.to_string())?
        .ok_or("server closed the connection")?;
    let resp = rec.time("wire.decode_response", parent, id, || {
        wire::decode_response(&body)
    });
    let answer = match resp {
        Ok(Response::Answer { answer }) => Ok(answer),
        Ok(Response::Error { message }) => Err(message),
        Ok(other) => Err(format!("unexpected response {other:?}")),
        Err(e) => Err(e.to_string()),
    };
    Ok((answer, body.len() as u64 + 4))
}

/// One synchronous plan round trip on a fresh connection (the first
/// answer after a publish). Spans hang under `parent`.
///
/// # Errors
/// Transport failures and server-side errors, as text.
pub fn first_answer(
    addr: SocketAddr,
    req: &Request,
    rec: &mut Recorder,
    parent: u64,
    id: u64,
) -> Result<Answer, String> {
    let mut conn = rec
        .time("client.connect", parent, id, || Conn::open(addr))
        .map_err(|e| e.to_string())?;
    send(&mut conn.writer, req, rec, parent, id)?;
    receive(&mut conn.reader, rec, parent, id)?.0
}

/// Closed loop: keeps [`IN_FLIGHT`] plans outstanding on one connection
/// until `count` plans are answered, or until `cap` has passed (a slow
/// host then measures fewer). A fixed count leaves the server's memos
/// in the same state whatever the throughput.
pub fn saturated(
    addr: SocketAddr,
    mix: &dyn Mix,
    start: u64,
    count: u64,
    cap: Duration,
    tracer: &Arc<Tracer>,
) -> PhaseResult {
    let mut rec = tracer.recorder();
    let mut out = PhaseResult::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(_) => {
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    let mut inflight: std::collections::VecDeque<(u64, u64, u64, Tag)> = Default::default();
    let mut i = start;
    let t0 = now_ns();
    let stop = t0 + cap.as_nanos() as u64;
    let mut receipts = Vec::with_capacity(count as usize);
    let mut last = t0;
    loop {
        while inflight.len() < IN_FLIGHT && i < start + count && now_ns() < stop {
            let (req, tag) = mix.request(i);
            let span = rec.open_request(i);
            let sent = now_ns();
            match send(&mut conn.writer, &req, &mut rec, span, i) {
                Ok(n) => out.wire_bytes += n,
                Err(_) => out.failed += 1,
            }
            out.attempted += 1;
            inflight.push_back((i, span, sent, tag));
            i += 1;
        }
        let Some((index, span, sent, tag)) = inflight.pop_front() else {
            break;
        };
        match receive(&mut conn.reader, &mut rec, span, index) {
            Ok((answer, n)) => {
                let got = now_ns();
                out.wire_bytes += n;
                let ok = answer.is_ok_and(|a| {
                    rec.time("client.check", span, index, || mix.check(tag, &a, got))
                });
                if !ok {
                    out.failed += 1;
                }
                out.latencies.push(got - sent);
                receipts.push(got);
                rec.close_at(span, "plan", sent, got, 0, index);
                last = got;
            }
            Err(_) => {
                // The connection is gone: everything still in flight is lost.
                out.failed += 1 + inflight.len() as u64;
                break;
            }
        }
    }
    out.elapsed_s = (last - t0) as f64 / 1e9;
    out.next_index = i;
    let n = receipts.len();
    if n >= CHUNKS {
        out.chunk_rates = (0..CHUNKS)
            .map(|c| {
                let (a, b) = (c * n / CHUNKS, (c + 1) * n / CHUNKS);
                let from = if a == 0 { t0 } else { receipts[a - 1] };
                (b - a) as f64 * 1e9 / (receipts[b - 1] - from).max(1) as f64
            })
            .collect();
    }
    out
}

/// Sent-plan record handed from the open-loop sender to its receiver.
struct Sent {
    index: u64,
    span: u64,
    due: u64,
    tag: Tag,
    ok: bool,
}

/// Open loop: one plan every `1/rate` seconds for `dur` on one
/// connection, whatever the answers do. A sender thread keeps the
/// schedule (sending every overdue plan at once when it wakes late); a
/// receiver thread reads answers in order. Latency runs from each
/// plan's due time, so a stall is charged to every plan it delays.
pub fn open_loop(
    addr: SocketAddr,
    mix: &dyn Mix,
    start: u64,
    rate: f64,
    dur: Duration,
    tracer: &Arc<Tracer>,
) -> PhaseResult {
    let mut out = PhaseResult::default();
    let conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(_) => {
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    let Conn {
        mut reader,
        mut writer,
    } = conn;
    let period = 1e9 / rate;
    let count = (dur.as_secs_f64() * rate).round() as u64;
    let (tx, rx) = mpsc::channel::<Sent>();
    let t0 = now_ns() + 1_000_000;
    std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut rec = tracer.recorder();
            let mut lag = Vec::with_capacity(count as usize);
            let mut bytes = 0u64;
            for k in 0..count {
                let due = t0 + (k as f64 * period) as u64;
                let now = now_ns();
                if now < due {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                let index = start + k;
                let (req, tag) = mix.request(index);
                let span = rec.open_request(index);
                let actual = now_ns();
                lag.push(actual.saturating_sub(due));
                rec.leaf("client.send_lag", due, actual, span, index);
                let sent = send(&mut writer, &req, &mut rec, span, index);
                if let Ok(n) = sent {
                    bytes += n;
                }
                if tx
                    .send(Sent {
                        index,
                        span,
                        due,
                        tag,
                        ok: sent.is_ok(),
                    })
                    .is_err()
                {
                    break;
                }
            }
            drop(tx);
            (lag, bytes)
        });
        let receiver = s.spawn(|| {
            let mut rec = tracer.recorder();
            let mut lat = Vec::with_capacity(count as usize);
            let (mut failed, mut bytes, mut last) = (0u64, 0u64, t0);
            let mut broken = false;
            for sent in rx {
                if broken || !sent.ok {
                    failed += 1;
                    continue;
                }
                match receive(&mut reader, &mut rec, sent.span, sent.index) {
                    Ok((answer, n)) => {
                        let got = now_ns();
                        bytes += n;
                        let ok = answer.is_ok_and(|a| {
                            rec.time("client.check", sent.span, sent.index, || {
                                mix.check(sent.tag, &a, got)
                            })
                        });
                        if !ok {
                            failed += 1;
                        }
                        lat.push(got - sent.due);
                        rec.close_at(sent.span, "plan", sent.due, got, 0, sent.index);
                        last = got;
                    }
                    Err(_) => {
                        broken = true;
                        failed += 1;
                    }
                }
            }
            (lat, failed, bytes, last)
        });
        let (lag, send_bytes) = sender.join().expect("open-loop sender panicked");
        let (lat, failed, recv_bytes, last) = receiver.join().expect("open-loop receiver panicked");
        out.attempted = count;
        out.failed = failed;
        out.latencies = lat;
        out.send_lag = lag;
        out.wire_bytes = send_bytes + recv_bytes;
        out.elapsed_s = (last - t0) as f64 / 1e9;
    });
    out.next_index = start + count;
    out
}
