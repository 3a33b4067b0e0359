//! The lego-serve server binary: keep one warm `EvalSession` alive and
//! price framed `EvalRequest`s from any number of clients.
//!
//! ```text
//! lego_serve [--tcp ADDR] [--unix PATH] [--workers N] [--queue N]
//!            [--cache-budget BYTES] [--max-frame BYTES] [--wallclock]
//! ```
//!
//! With no endpoint flags the server binds `127.0.0.1:0` (a free port).
//! Each bound endpoint prints a flushed `listening tcp ADDR` /
//! `listening unix PATH` line so drivers can scrape the address. The
//! process runs until a client sends a SHUTDOWN frame, then drains the
//! admitted queue, prints the cache gauges and the observability
//! summary, and exits.

use lego_eval::cli::{exit_code, no_more_args, take_flag, take_parsed, take_switch};
use lego_eval::EvalError;
use lego_obs::Obs;
use lego_serve::{Server, ServerConfig, DEFAULT_MAX_FRAME_LEN};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage:
  lego_serve [--tcp ADDR] [--unix PATH] [--workers N] [--queue N]
             [--cache-budget BYTES] [--max-frame BYTES] [--wallclock]";

fn run() -> Result<(), EvalError> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let tcp = take_flag(&mut args, "--tcp", USAGE)?;
    let unix = take_flag(&mut args, "--unix", USAGE)?;
    let workers = take_parsed(&mut args, "--workers", "worker count", USAGE)?.unwrap_or(4);
    let queue = take_parsed(&mut args, "--queue", "queue depth", USAGE)?.unwrap_or(256);
    let cache_budget = take_parsed(&mut args, "--cache-budget", "cache budget", USAGE)?;
    let max_frame = take_parsed(&mut args, "--max-frame", "frame limit", USAGE)?
        .unwrap_or(DEFAULT_MAX_FRAME_LEN);
    let wallclock = take_switch(&mut args, "--wallclock");
    no_more_args(&args, USAGE)?;

    let obs = if wallclock {
        Obs::wall_clock()
    } else {
        Obs::deterministic()
    };
    let server = Server::new(ServerConfig {
        workers,
        queue_capacity: queue,
        cache_budget,
        max_frame_len: max_frame,
        obs: obs.clone(),
    });

    let default_tcp = tcp.is_none() && unix.is_none();
    if let Some(addr) = tcp.or_else(|| default_tcp.then(|| "127.0.0.1:0".into())) {
        let bound = server.listen_tcp(&addr)?;
        println!("listening tcp {bound}");
    }
    if let Some(path) = unix {
        // A stale socket file from a dead server would fail the bind.
        let _ = std::fs::remove_file(&path);
        server.listen_unix(&path)?;
        println!("listening unix {path}");
    }
    std::io::stdout().flush().map_err(EvalError::Io)?;

    server.wait_for_shutdown_request();
    server.shutdown();

    let gauges = server.gauges();
    println!(
        "cache at exit: {} entries, {} bytes resident{}, {} evictions, hit rate {:.1}%",
        gauges.entries,
        gauges.resident_bytes,
        match gauges.budget_bytes {
            Some(b) => format!(" (budget {b})"),
            None => String::new(),
        },
        gauges.evictions,
        gauges.hit_rate() * 100.0,
    );
    print!("{}", obs.summary().render());
    Ok(())
}

fn main() -> ExitCode {
    exit_code("lego_serve", run())
}
