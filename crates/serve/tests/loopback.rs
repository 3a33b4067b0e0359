//! Loopback integration: a real in-process server, real sockets, and the
//! full error/status discipline a client can observe.

use lego_eval::{CodecError, EvalError, EvalRequest, EvalSession, StatusCode};
use lego_model::{HwConfig, TechModel};
use lego_serve::frame::{self, KIND_REQUEST};
use lego_serve::{Client, Server, ServerConfig};
use lego_workloads::{zoo, Nonlinear};
use std::io::Write;
use std::net::TcpStream;

fn request() -> EvalRequest {
    EvalRequest::new(zoo::lenet(), HwConfig::lego_256())
}

fn unix_path(tag: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("lego-serve-test-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn tcp_and_unix_replies_are_byte_identical_to_offline_evaluation() {
    let server = Server::new(ServerConfig::default());
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let path = unix_path("dual");
    server.listen_unix(&path).unwrap();

    let request = request();
    let offline = EvalSession::new().evaluate(&request).encode();

    let mut tcp = Client::connect_tcp(addr).unwrap();
    let mut unix = Client::connect_unix(&path).unwrap();
    // Twice per transport: the second reply runs against a warm server
    // cache and must still be pristine.
    for _ in 0..2 {
        assert_eq!(tcp.evaluate_bytes(&request).unwrap(), offline);
        assert_eq!(unix.evaluate_bytes(&request).unwrap(), offline);
    }
    server.shutdown();
    assert!(!std::fs::exists(&path).unwrap(), "socket file unlinked");
}

#[test]
fn pipelined_replies_come_back_in_submission_order() {
    let server = Server::new(ServerConfig::default());
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();

    let reqs = [
        request(),
        EvalRequest::new(zoo::lenet(), HwConfig::lego_256()).with_tile_cap(Some(32)),
        request(),
    ];
    let expected: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| EvalSession::new().evaluate(r).encode())
        .collect();

    let mut client = Client::connect_tcp(addr).unwrap();
    for r in &reqs {
        client.send(r).unwrap();
    }
    for want in &expected {
        assert_eq!(&client.recv_report_bytes().unwrap(), want);
    }
    server.shutdown();
}

#[test]
fn malformed_payload_is_a_status_frame_and_the_connection_survives() {
    let server = Server::new(ServerConfig::default());
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();

    let stream = TcpStream::connect(addr).unwrap();
    let mut client = Client::over(stream.try_clone().unwrap());
    // A well-framed frame whose payload is not a codec'd request.
    frame::write_frame(
        &mut stream.try_clone().unwrap(),
        KIND_REQUEST,
        b"this is not an EvalRequest",
    )
    .unwrap();
    match client.recv_report_bytes() {
        Err(EvalError::Remote { code, .. }) => {
            assert_eq!(code, StatusCode::BAD_MAGIC, "payload magic is wrong first")
        }
        other => panic!("{other:?}"),
    }
    // Same connection, valid request: still served.
    let offline = EvalSession::new().evaluate(&request()).encode();
    assert_eq!(client.evaluate_bytes(&request()).unwrap(), offline);
    server.shutdown();
}

#[test]
fn oversized_frames_are_refused_and_the_stream_resynchronizes() {
    let server = Server::new(ServerConfig {
        max_frame_len: 1024,
        ..Default::default()
    });
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();

    let stream = TcpStream::connect(addr).unwrap();
    let mut client = Client::over(stream.try_clone().unwrap());
    frame::write_frame(
        &mut stream.try_clone().unwrap(),
        KIND_REQUEST,
        &vec![0u8; 4096],
    )
    .unwrap();
    match client.recv_report_bytes() {
        Err(EvalError::Remote { code, message }) => {
            assert_eq!(code, StatusCode::FRAME_TOO_LARGE);
            assert!(message.contains("4096"), "{message}");
        }
        other => panic!("{other:?}"),
    }
    // lenet requests are tiny; the connection must still work.
    let offline = EvalSession::new().evaluate(&request()).encode();
    assert_eq!(client.evaluate_bytes(&request()).unwrap(), offline);
    server.shutdown();
}

#[test]
fn desynchronized_stream_gets_a_status_then_the_connection_closes() {
    let server = Server::new(ServerConfig::default());
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();

    // Garbage, and a well-formed request frame from a peer still on the
    // byte-wise checksummed "LGFR" format: both are refused by their magic.
    let mut old_format = frame::encode_frame(KIND_REQUEST, &request().encode());
    old_format[..4].copy_from_slice(b"LGFR");
    for bytes in [b"garbage that is not a frame..".to_vec(), old_format] {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut client = Client::over(stream.try_clone().unwrap());
        stream.write_all(&bytes).unwrap();
        stream.flush().unwrap();
        match client.recv_raw() {
            Ok((status, _)) => assert_eq!(status, StatusCode::BAD_MAGIC),
            Err(e) => panic!("expected a status frame before close: {e}"),
        }
        // After the status the server closes; the next read fails at the
        // connection level (EOF, or a reset if unread bytes remained).
        match client.recv_raw() {
            Err(EvalError::Io(_) | EvalError::Codec(CodecError::Io(_))) => {}
            other => panic!("{other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn invalid_requests_come_back_with_their_admission_status() {
    let server = Server::new(ServerConfig::default());
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();

    let mut bad_hw = HwConfig::lego_256();
    bad_hw.dataflows.clear();
    // Skip `validate` the way a hostile peer would.
    let invalid = EvalRequest::new(zoo::lenet(), bad_hw);
    let mut client = Client::connect_tcp(addr).unwrap();
    match client.evaluate_bytes(&invalid) {
        Err(EvalError::Remote { code, .. }) => assert_eq!(code, StatusCode::INVALID_HW),
        other => panic!("{other:?}"),
    }
    // Negative non-tensor work, which would price LeNet cheaper.
    let mut lenet = zoo::lenet();
    lenet.layers[0] = lenet.layers[0]
        .clone()
        .with_nonlinear(Nonlinear::Softmax, -1_000_000_000);
    let negative = EvalRequest::new(lenet, HwConfig::lego_256());
    let offline = negative.validate().unwrap_err().status();
    assert_eq!(offline, StatusCode::INVALID_LAYER);
    match client.evaluate_bytes(&negative) {
        Err(EvalError::Remote { code, .. }) => assert_eq!(code, offline),
        other => panic!("{other:?}"),
    }
    // The refusal cost nothing: the connection still serves.
    assert!(client.evaluate_bytes(&request()).is_ok());
    server.shutdown();
}

#[test]
fn nan_cost_inputs_get_a_status_and_the_workers_keep_serving() {
    // One bad request per worker and one more, so that a request slipping
    // past validation would reach every worker.
    let workers = 2;
    let server = Server::new(ServerConfig {
        workers,
        ..Default::default()
    });
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();

    let good = EvalRequest::new(zoo::mobilenet_v2(), HwConfig::lego_256());
    let nan_tech = |edit: fn(&mut TechModel)| {
        let mut tech = TechModel::default();
        edit(&mut tech);
        good.clone().with_tech(tech)
    };
    let mut nan_static = good.clone();
    nan_static.hw.static_mw = f64::NAN;
    let bad = [
        (
            nan_tech(|t| t.freq_ghz = f64::NAN),
            StatusCode::INVALID_TECH,
        ),
        (
            nan_tech(|t| t.dram_pj_per_byte = f64::NAN),
            StatusCode::INVALID_TECH,
        ),
        (nan_static, StatusCode::INVALID_HW),
    ];
    assert_eq!(bad.len(), workers + 1);
    let mut client = Client::connect_tcp(addr).unwrap();
    for (request, _) in &bad {
        client.send(request).unwrap();
    }
    for (_, status) in &bad {
        assert_eq!(client.recv_raw().unwrap().0, *status);
    }
    let offline = EvalSession::new().evaluate(&good).encode();
    assert_eq!(client.evaluate_bytes(&good).unwrap(), offline);
    server.shutdown();
}

#[test]
fn queue_full_backpressure_reaches_the_wire_as_a_status() {
    // No workers: everything admitted stays queued, so the capacity+1'th
    // pipelined request must be refused on the wire.
    let server = Server::new(ServerConfig {
        workers: 0,
        queue_capacity: 2,
        ..Default::default()
    });
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();

    let mut client = Client::connect_tcp(addr).unwrap();
    for _ in 0..3 {
        client.send(&request()).unwrap();
    }
    // Replies come in submission order: the first two are still pending
    // (no workers), so the rejection is necessarily for the third —
    // observable only after shutdown flushes the pending slots.
    let tail = std::thread::spawn(move || {
        let mut statuses = Vec::new();
        for _ in 0..3 {
            statuses.push(client.recv_raw().unwrap().0);
        }
        statuses
    });
    // Give the reader a moment to admit, then drain: shutting down with
    // zero workers drops the queued jobs, which the connection writer
    // turns into SHUTTING_DOWN statuses rather than silence.
    std::thread::sleep(std::time::Duration::from_millis(100));
    server.shutdown();
    let statuses = match tail.join() {
        Ok(s) => s,
        Err(e) => std::panic::resume_unwind(e),
    };
    assert_eq!(
        statuses,
        vec![
            StatusCode::SHUTTING_DOWN,
            StatusCode::SHUTTING_DOWN,
            StatusCode::QUEUE_FULL,
        ]
    );
}

#[test]
fn shutdown_frame_is_acknowledged_and_stops_the_server() {
    let server = Server::new(ServerConfig::default());
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let mut client = Client::connect_tcp(addr).unwrap();
    client.shutdown_server().unwrap();
    // wait_for_shutdown_request returns promptly once the frame landed.
    server.wait_for_shutdown_request();
    server.shutdown();
}
