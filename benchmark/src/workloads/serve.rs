//! `serve_pingpong` and `serve_pipelined`: an in-process `lego-serve` on
//! loopback TCP, driven closed-loop by this process's own connections.

use super::{hit_ratio, ms_since, threads, SweepStats, Tally, Workload};
use crate::roster::{hot_cold_draws, serve_roster};
use crate::stats::{median, percentile};
use crate::trace::{self_ns_per_op, Span, Tracer};
use lego_eval::{CacheGauges, EvalRequest, EvalSession};
use lego_explorer::SplitMix64;
use lego_serve::frame::{decode_frame, encode_frame, KIND_REPLY, KIND_REQUEST};
use lego_serve::wire::{encode_ok_reply, report_bytes_from_reply};
use lego_serve::{Client, Scheduler, SchedulerConfig, Server, ServerConfig, DEFAULT_MAX_FRAME_LEN};
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// The layer calls one round trip is made of, besides the hand-offs.
const ROUNDTRIP_PARTS: &[&str] = &[
    "eval.request_encode",
    "serve.frame_encode",
    "serve.frame_decode",
    "eval.request_decode",
    "eval.evaluate_pristine",
    "eval.report_encode",
    "serve.reply_encode",
    "serve.reply_decode",
];

pub struct Serve {
    roster: Vec<EvalRequest>,
    /// `EvalSession::new().evaluate(&request).encode()` per roster entry.
    expected: Vec<Vec<u8>>,
    /// Roster indices one sweep sends, split evenly over the connections.
    draws: Vec<usize>,
    /// Requests in flight per connection.
    window: usize,
    // Connections close before the server they talk to shuts down.
    clients: Vec<Client<TcpStream>>,
    server: Server,
    /// A warm session and a socket-free scheduler for the layer probes.
    probe_session: EvalSession,
    probe_scheduler: Scheduler,
    setup_failures: u64,
    gauges_before_trace: Option<CacheGauges>,
    roundtrips_us: Vec<f64>,
    tally: Tally,
    _busy_cores: Option<BusyCores>,
}

/// Threads that spin on every core but one until dropped.
///
/// With one request in flight, a round trip is a chain of four thread
/// hand-offs, and on an otherwise idle virtual machine each of them may
/// wake a sleeping virtual CPU: a cost the hypervisor sets, which moved the
/// median round trip between 80 µs and 225 µs from one second to the next,
/// by how many of the four the kernel happened to send across. With the
/// other cores busy the chain stays on one core and every hand-off is a
/// context switch, which is the part this repository's code decides.
struct BusyCores {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl BusyCores {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let others = std::thread::available_parallelism().map_or(0, |n| n.get() - 1);
        let spinners = (0..others)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Relaxed: the flag publishes nothing but itself.
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        BusyCores { stop, spinners }
    }
}

impl Drop for BusyCores {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            // A spinner has nothing to panic about; ignore its result
            // rather than panic in drop.
            let _ = spinner.join();
        }
    }
}

impl Serve {
    pub fn pingpong(seed: u64, smoke: bool) -> Self {
        let roster = serve_roster(seed, if smoke { 16 } else { 64 });
        let draws = (0..roster.len()).collect();
        Serve::start(roster, draws, 1, 1, false, Some(BusyCores::start()))
    }

    pub fn pipelined(seed: u64, smoke: bool) -> Self {
        let roster = serve_roster(seed, if smoke { 64 } else { 512 });
        let draws = hot_cold_draws(
            roster.len(),
            if smoke { 512 } else { 4096 },
            &mut SplitMix64::new(seed ^ 0xd2a7),
        );
        Serve::start(roster, draws, threads(), 32, true, None)
    }

    fn start(
        roster: Vec<EvalRequest>,
        draws: Vec<usize>,
        connections: usize,
        window: usize,
        half_budget: bool,
        busy_cores: Option<BusyCores>,
    ) -> Self {
        let expected: Vec<Vec<u8>> = roster
            .iter()
            .map(|r| EvalSession::new().evaluate(r).encode())
            .collect();
        let probe_session = EvalSession::new();
        for request in &roster {
            probe_session.evaluate(request);
        }
        // Half of what the whole roster keeps resident, so the cold four
        // fifths cannot all stay cached.
        let cache_budget =
            half_budget.then(|| probe_session.cache().estimated_resident_bytes() / 2);
        let server = Server::new(ServerConfig {
            workers: threads(),
            cache_budget,
            ..Default::default()
        });
        let addr = server
            .listen_tcp("127.0.0.1:0")
            .expect("loopback listener binds");
        let mut clients: Vec<Client<TcpStream>> = (0..connections)
            .map(|_| Client::connect_tcp(addr).expect("loopback connects"))
            .collect();
        // Warm-up: every request once, so measured traffic finds each
        // layer priced (or, under the budget, already contended for).
        let mut setup_failures = 0;
        for (request, expect) in roster.iter().zip(&expected) {
            if clients[0].evaluate_bytes(request).ok().as_ref() != Some(expect) {
                setup_failures += 1;
            }
        }
        let probe_scheduler = Scheduler::new(SchedulerConfig {
            workers: threads(),
            ..Default::default()
        });
        Serve {
            roster,
            expected,
            draws,
            window,
            clients,
            server,
            probe_session,
            probe_scheduler,
            setup_failures,
            gauges_before_trace: None,
            roundtrips_us: Vec::new(),
            tally: Tally::default(),
            _busy_cores: busy_cores,
        }
    }

    /// One round trip's layer calls made from this thread, a span around
    /// each; returns whether they reproduce the served reply.
    fn probe_roundtrip(&mut self, tr: &mut Tracer, index: usize) -> bool {
        let request = &self.roster[index];
        let payload = tr.span("eval.request_encode", |_| request.encode());
        self.tally.add("eval.request_bytes", payload.len() as f64);
        self.tally
            .add("eval.report_bytes", self.expected[index].len() as f64);
        let framed = tr.span("serve.frame_encode", |_| {
            encode_frame(KIND_REQUEST, &payload)
        });
        let unframed = tr.span("serve.frame_decode", |_| {
            decode_frame(&framed, DEFAULT_MAX_FRAME_LEN)
        });
        let decoded = tr.span("eval.request_decode", |_| EvalRequest::decode(&payload));
        let report = tr.span("eval.evaluate_pristine", |_| {
            self.probe_session.evaluate_pristine(request)
        });
        let body = tr.span("eval.report_encode", |_| report.encode());
        let reply = tr.span("serve.reply_encode", |_| encode_ok_reply(&body));
        let reply_framed = tr.span("serve.frame_encode", |_| encode_frame(KIND_REPLY, &reply));
        let reply_unframed = tr.span("serve.frame_decode", |_| {
            decode_frame(&reply_framed, DEFAULT_MAX_FRAME_LEN)
        });
        let received = tr.span("serve.reply_decode", |_| report_bytes_from_reply(&reply));

        // Admission, queue, worker and reply channel without the socket.
        let (tx, rx) = mpsc::channel();
        let owned = request.clone();
        let scheduled = tr.span("serve.scheduler_submit_to_reply", |_| {
            self.probe_scheduler.submit(owned, tx).ok()?;
            rx.recv().ok()
        });

        unframed.is_ok_and(|(f, _)| f.payload == payload)
            && decoded.is_ok_and(|d| d == *request)
            && reply_unframed.is_ok_and(|(f, _)| f.payload == reply)
            && received.is_ok_and(|b| b == self.expected[index])
            && scheduled.is_some_and(|s| s == reply)
    }
}

/// Sends `draws` over one connection, keeping `window` requests in flight;
/// returns each round trip in milliseconds and the number that failed.
fn drive(
    client: &mut Client<TcpStream>,
    roster: &[EvalRequest],
    expected: &[Vec<u8>],
    draws: &[usize],
    window: usize,
) -> (Vec<f64>, u64) {
    let mut lat_ms = Vec::with_capacity(draws.len());
    let mut in_flight: VecDeque<(Instant, usize)> = VecDeque::with_capacity(window);
    let mut next = 0;
    let mut failed = 0;
    loop {
        while next < draws.len() && in_flight.len() < window {
            let sent = Instant::now();
            if client.send(&roster[draws[next]]).is_err() {
                // A dead connection fails everything not yet answered.
                return (
                    lat_ms,
                    failed + (draws.len() - next + in_flight.len()) as u64,
                );
            }
            in_flight.push_back((sent, draws[next]));
            next += 1;
        }
        let Some((sent, index)) = in_flight.pop_front() else {
            return (lat_ms, failed);
        };
        match client.recv_report_bytes() {
            Ok(body) if body == expected[index] => lat_ms.push(ms_since(sent)),
            _ => failed += 1,
        }
    }
}

impl Workload for Serve {
    fn sweep(&mut self, tr: &mut Tracer, lat_ms: &mut Vec<f64>) -> SweepStats {
        if tr.enabled() && self.gauges_before_trace.is_none() {
            self.gauges_before_trace = Some(self.server.gauges());
        }
        tr.next_op();
        let chunk = self.draws.len().div_ceil(self.clients.len());
        let (roster, expected, window) = (&self.roster, &self.expected, self.window);
        let start = Instant::now();
        let results: Vec<(Vec<f64>, u64)> = tr.span("op", |_| {
            if let [client] = self.clients.as_mut_slice() {
                return vec![drive(client, roster, expected, &self.draws, window)];
            }
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .clients
                    .iter_mut()
                    .zip(self.draws.chunks(chunk))
                    .map(|(client, draws)| {
                        scope.spawn(move || drive(client, roster, expected, draws, window))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("connection thread panicked"))
                    .collect()
            })
        });
        let busy_s = start.elapsed().as_secs_f64();

        let mut stats = SweepStats {
            ops: self.draws.len() as u64,
            busy_s,
            ..Default::default()
        };
        let first_new = lat_ms.len();
        for (lat, failed) in results {
            stats.failed += failed;
            lat_ms.extend(lat);
        }
        stats.units = stats.ops - stats.failed;

        if tr.enabled() {
            self.roundtrips_us
                .extend(lat_ms[first_new..].iter().map(|ms| ms * 1e3));
            self.tally.add("requests", stats.ops as f64);
            self.tally.add("failed", stats.failed as f64);
        }
        stats
    }

    /// Every roster entry's round trip once more as the layer calls it is
    /// made of, on this thread and without the socket.
    fn probe(&mut self, tr: &mut Tracer) -> u64 {
        let mut failed = 0;
        for index in 0..self.roster.len() {
            tr.next_op();
            failed += u64::from(!self.probe_roundtrip(tr, index));
        }
        failed
    }

    fn quality_ratio(&self) -> f64 {
        // Every reply is checked byte for byte against offline evaluation,
        // so served cost over reference cost is exactly one.
        1.0
    }

    fn layer_values(&self, spans: &[Span]) -> Vec<(&'static str, f64)> {
        let t = &self.tally;
        let requests = t.sum("requests").max(1.0);
        let now = self.server.gauges();
        let before = self.gauges_before_trace.unwrap_or(now);
        let hits = (now.hits - before.hits) as f64;
        let misses = (now.misses - before.misses) as f64;
        let evictions = (now.evictions - before.evictions) as f64 / requests;
        let hit_ratio = hit_ratio(hits, misses);

        let mut values = t.per_op();
        values.extend([
            ("serve.connections", self.clients.len() as f64),
            ("serve.window", self.window as f64),
            ("serve.status_reply_share", t.sum("failed") / requests),
            ("serve.cache_hit_ratio", hit_ratio),
            ("eval.cache_hit_ratio", hit_ratio),
            ("serve.cache_evictions", evictions),
            ("eval.cache_evictions", evictions),
            ("eval.cache_misses", misses / requests),
            ("eval.cache_resident_bytes", now.resident_bytes as f64),
        ]);
        if !self.roundtrips_us.is_empty() {
            let p50 = median(&self.roundtrips_us);
            let parts_us: f64 = ROUNDTRIP_PARTS
                .iter()
                .map(|part| self_ns_per_op(spans, part))
                .filter(|per_op| !per_op.is_empty())
                .map(|per_op| median(&per_op) / 1e3)
                .sum();
            values.push(("serve.roundtrip_p50_us", p50));
            values.push((
                "serve.roundtrip_p99_us",
                percentile(&self.roundtrips_us, 0.99).unwrap_or(0.0),
            ));
            // What is left of a round trip once every layer call is taken
            // out: the socket and the thread wake-ups.
            values.push(("serve.handoff_us", p50 - parts_us));
        }
        values
    }

    fn setup_failures(&self) -> u64 {
        self.setup_failures
    }
}
