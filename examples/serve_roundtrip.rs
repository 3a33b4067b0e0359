//! Serving round trip: a warm evaluation server, framed clients, and
//! the unified status discipline.
//!
//! Starts an in-process `lego::serve::Server` on both a TCP port and a
//! Unix socket, then walks the wire contract:
//!
//! 1. a request priced over TCP comes back **byte-identical** to an
//!    offline `EvalSession::new()` evaluation — the server's warm cache
//!    never leaks into replies;
//! 2. the same request over the Unix socket matches too;
//! 3. pipelined requests return in submission order;
//! 4. an *invalid* request (hardware with no dataflows) earns a typed
//!    status reply — the connection survives and keeps serving;
//! 5. backpressure is visible: against a tiny queue with no workers,
//!    the wire says `QUEUE_FULL` instead of hanging.
//!
//! Run with: `cargo run --example serve_roundtrip`

use lego::eval::{EvalError, EvalRequest, EvalSession, StatusCode};
use lego::model::HwConfig;
use lego::serve::{Client, Server, ServerConfig};

fn main() {
    // ── A server with a byte-budgeted cache, on two transports ─────────
    let server = Server::new(ServerConfig {
        cache_budget: Some(lego::eval::estimated_resident_bytes_for(256)),
        ..Default::default()
    });
    let addr = server.listen_tcp("127.0.0.1:0").expect("bind tcp");
    let sock = std::env::temp_dir().join(format!("serve-roundtrip-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    server.listen_unix(&sock).expect("bind unix");
    println!("serving on tcp {addr} and unix {}", sock.display());

    let request = EvalRequest::new(lego::workloads::zoo::mobilenet_v2(), HwConfig::lego_256());
    request
        .validate()
        .expect("zoo model on stock hardware is a valid request");
    let offline = EvalSession::new().evaluate(&request);

    // ── 1+2. Byte identity on both transports ──────────────────────────
    let mut tcp = Client::connect_tcp(addr).expect("connect tcp");
    let mut unix = Client::connect_unix(&sock).expect("connect unix");
    let via_tcp = tcp.evaluate_bytes(&request).expect("tcp round trip");
    let via_unix = unix.evaluate_bytes(&request).expect("unix round trip");
    assert_eq!(via_tcp, offline.encode());
    assert_eq!(via_unix, offline.encode());
    println!(
        "reply bytes match offline evaluation on both transports ({} bytes, {} layers)",
        via_tcp.len(),
        offline.per_layer.len(),
    );

    // ── 3. Pipelining: replies in submission order ─────────────────────
    let capped = EvalRequest::new(lego::workloads::zoo::lenet(), HwConfig::lego_256())
        .with_tile_cap(Some(32));
    capped.validate().unwrap();
    tcp.send(&request).unwrap();
    tcp.send(&capped).unwrap();
    let first = tcp.recv_report_bytes().unwrap();
    let second = tcp.recv_report_bytes().unwrap();
    assert_eq!(first, offline.encode());
    assert_eq!(second, EvalSession::new().evaluate(&capped).encode());
    println!("pipelined replies arrive in submission order");

    // ── 4. Failures are replies, not dropped connections ───────────────
    let mut no_dataflows = HwConfig::lego_256();
    no_dataflows.dataflows.clear();
    match tcp.evaluate_bytes(&EvalRequest::new(
        lego::workloads::zoo::lenet(),
        no_dataflows,
    )) {
        Err(EvalError::Remote { code, message }) => {
            assert_eq!(code, StatusCode::INVALID_HW);
            println!("invalid request refused with status {code}: {message}");
        }
        other => panic!("expected a remote status, got {other:?}"),
    }
    // The same connection still serves.
    assert_eq!(tcp.evaluate_bytes(&request).unwrap(), offline.encode());
    println!("connection survived the refusal and keeps serving");
    server.shutdown();

    // ── 5. Backpressure on the wire ────────────────────────────────────
    // A deliberately starved server: zero workers, two queue slots.
    let starved = Server::new(ServerConfig {
        workers: 0,
        queue_capacity: 2,
        ..Default::default()
    });
    let addr = starved.listen_tcp("127.0.0.1:0").unwrap();
    let mut c = Client::connect_tcp(addr).unwrap();
    for _ in 0..3 {
        c.send(&capped).unwrap();
    }
    // The first two are admitted (still pending), the third is refused;
    // draining the starved server flushes the pending slots as statuses.
    let drain = std::thread::spawn(move || {
        let mut statuses = Vec::new();
        for _ in 0..3 {
            statuses.push(c.recv_raw().unwrap().0);
        }
        statuses
    });
    std::thread::sleep(std::time::Duration::from_millis(50));
    starved.shutdown();
    let statuses = drain.join().unwrap();
    assert_eq!(statuses[2], StatusCode::QUEUE_FULL);
    println!(
        "starved server answered [{}] — backpressure is a status, not a hang",
        statuses
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );
}
