//! lego-serve: a long-lived evaluation server over the `EvalSession`
//! wire codec.
//!
//! The evaluation layer already made requests and reports *wire
//! payloads* — serializable, versioned, host-independent. This crate
//! adds the missing process: a server that keeps an
//! [`lego_eval::EvalSession`] warm across many clients, speaking
//! length-prefixed checksummed [`frame`]s of codec'd requests over TCP
//! and Unix sockets, with the unified
//! [`EvalError`](lego_eval::EvalError) / [`StatusCode`](lego_eval::StatusCode)
//! API as its wire status contract.
//!
//! The layering, bottom up:
//!
//! * [`frame`] — `"LGF2" | kind | len | checksum | payload` framing with
//!   never-trust-wire-lengths decoding;
//! * [`wire`] — the reply payload contract: `status u16 | body`, where
//!   OK carries an encoded report and anything else carries the stable
//!   status plus a rendered message;
//! * [`scheduler`] — bounded admission (validate → enqueue → reject with
//!   a status when full), worker fan-out over one shared warm session;
//! * [`server`] — listeners, per-connection reader/writer pairs, and the
//!   in-order pipelined reply discipline;
//! * [`client`] — the blocking client half;
//! * [`mix`] — deterministic request rosters for load generation.
//!
//! Three invariants hold end to end:
//!
//! 1. **Byte identity.** A served reply body is byte-identical to
//!    `EvalSession::new().evaluate(&request).encode()` — the server's
//!    warm cache and request counter never leak into replies
//!    ([`lego_eval::EvalSession::evaluate_pristine`]).
//! 2. **Failures are replies.** Malformed payloads, invalid requests,
//!    full queues, and oversized frames all come back as status frames
//!    on a live connection; only an unrecoverable stream desync closes it.
//! 3. **Bounded everything.** The admission queue, the per-frame payload
//!    length, and (optionally) the cache's resident bytes are all capped,
//!    and every cap refuses loudly instead of degrading silently.
//!
//! No async runtime: `std::net` + `std::thread`, one reader and one
//! writer thread per connection, a fixed worker pool behind a condvar.

pub mod client;
pub mod frame;
pub mod mix;
pub mod scheduler;
pub mod server;
pub mod wire;

pub use client::Client;
pub use frame::{Frame, DEFAULT_MAX_FRAME_LEN};
pub use scheduler::{Scheduler, SchedulerConfig};
pub use server::{Server, ServerConfig};
