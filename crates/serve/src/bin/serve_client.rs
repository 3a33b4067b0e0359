//! Load-generation client for a running lego-serve endpoint.
//!
//! ```text
//! serve_client (--tcp ADDR | --unix PATH) [--requests N] [--connections C]
//!              [--mix dense|sparse|clustered|all] [--verify]
//!              [--replies-out FILE] [--shutdown]
//! ```
//!
//! Sends a deterministic round-robin mix of requests over `C` concurrent
//! connections and collects every reply in request-index order. With
//! `--verify`, each reply body is compared byte-for-byte against an
//! offline `EvalSession::new()` evaluation of the same request. With
//! `--replies-out`, the replies are written as `len u32 LE | body`
//! records in request-index order — two runs against two independent
//! servers must produce `cmp`-identical files, which is exactly what CI
//! checks. `QUEUE_FULL` rejections are retried (they are backpressure,
//! not failures) and counted in the summary.

use lego_eval::cli::{exit_code, no_more_args, take_flag, take_parsed, take_switch};
use lego_eval::{EvalError, EvalRequest, EvalSession, StatusCode};
use lego_serve::mix::request_mix;
use lego_serve::Client;
use std::io::{Read, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const USAGE: &str = "usage:
  serve_client (--tcp ADDR | --unix PATH) [--requests N] [--connections C]
               [--mix dense|sparse|clustered|all] [--verify]
               [--replies-out FILE] [--shutdown]";

/// Where the client connects; each worker thread opens its own stream.
#[derive(Clone)]
enum Target {
    Tcp(String),
    Unix(String),
}

/// One synchronous round trip with retry-on-backpressure, over either
/// transport.
fn roundtrip(
    target: &Target,
    request: &EvalRequest,
    retries: &AtomicU64,
) -> Result<Vec<u8>, EvalError> {
    fn with_retry<S: Read + Write>(
        client: &mut Client<S>,
        request: &EvalRequest,
        retries: &AtomicU64,
    ) -> Result<Vec<u8>, EvalError> {
        loop {
            match client.evaluate_bytes(request) {
                Err(EvalError::Remote { code, .. }) if code == StatusCode::QUEUE_FULL => {
                    retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::yield_now();
                }
                other => return other,
            }
        }
    }
    match target {
        Target::Tcp(addr) => with_retry(&mut Client::connect_tcp(addr)?, request, retries),
        Target::Unix(path) => with_retry(&mut Client::connect_unix(path)?, request, retries),
    }
}

fn run() -> Result<(), EvalError> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let tcp = take_flag(&mut args, "--tcp", USAGE)?;
    let unix = take_flag(&mut args, "--unix", USAGE)?;
    let requests = take_parsed(&mut args, "--requests", "request count", USAGE)?.unwrap_or(64);
    let connections: usize =
        take_parsed(&mut args, "--connections", "connection count", USAGE)?.unwrap_or(4);
    let mix = take_flag(&mut args, "--mix", USAGE)?.unwrap_or("all".into());
    let verify = take_switch(&mut args, "--verify");
    let replies_out = take_flag(&mut args, "--replies-out", USAGE)?;
    let shutdown = take_switch(&mut args, "--shutdown");
    no_more_args(&args, USAGE)?;
    let target = match (tcp, unix) {
        (Some(addr), None) => Target::Tcp(addr),
        (None, Some(path)) => Target::Unix(path),
        _ => {
            return Err(EvalError::Usage(format!(
                "exactly one of --tcp / --unix\n{USAGE}"
            )))
        }
    };

    let plan = Arc::new(request_mix(&mix, requests)?);
    let retries = Arc::new(AtomicU64::new(0));
    let connections = connections.clamp(1, requests.max(1));

    // Worker c handles request indices c, c+C, c+2C, ... on its own
    // connection; results land in request-index order.
    let workers: Vec<_> = (0..connections)
        .map(|c| {
            let plan = Arc::clone(&plan);
            let target = target.clone();
            let retries = Arc::clone(&retries);
            std::thread::spawn(move || -> Result<Vec<(usize, Vec<u8>)>, EvalError> {
                let mut got = Vec::new();
                for i in (c..plan.len()).step_by(connections.max(1)) {
                    got.push((i, roundtrip(&target, &plan[i], &retries)?));
                }
                Ok(got)
            })
        })
        .collect();
    let mut replies: Vec<Option<Vec<u8>>> = vec![None; plan.len()];
    for w in workers {
        for (i, bytes) in w.join().expect("client worker panicked")? {
            replies[i] = Some(bytes);
        }
    }
    let replies: Vec<Vec<u8>> = replies
        .into_iter()
        .map(|r| r.expect("every index answered"))
        .collect();

    if verify {
        for (i, (request, reply)) in plan.iter().zip(&replies).enumerate() {
            let offline = EvalSession::new().evaluate(request).encode();
            if *reply != offline {
                return Err(EvalError::Internal(format!(
                    "reply {i} differs from the offline evaluation ({} vs {} bytes)",
                    reply.len(),
                    offline.len()
                )));
            }
        }
    }
    if let Some(path) = &replies_out {
        let mut out = Vec::new();
        for reply in &replies {
            out.extend_from_slice(&(reply.len() as u32).to_le_bytes());
            out.extend_from_slice(reply);
        }
        std::fs::write(path, &out)
            .map_err(|e| EvalError::Io(std::io::Error::new(e.kind(), format!("{path}: {e}"))))?;
        println!("replies ({} bytes) -> {path}", out.len());
    }
    if shutdown {
        match &target {
            Target::Tcp(addr) => Client::connect_tcp(addr)?.shutdown_server()?,
            Target::Unix(path) => Client::connect_unix(path)?.shutdown_server()?,
        }
    }

    println!(
        "{} replies over {} connection(s), mix {mix}, {} queue-full retries{}{}",
        replies.len(),
        connections,
        retries.load(Ordering::Relaxed),
        if verify {
            ", verified offline-identical"
        } else {
            ""
        },
        if shutdown { ", server shut down" } else { "" },
    );
    Ok(())
}

fn main() -> ExitCode {
    exit_code("serve_client", run())
}
