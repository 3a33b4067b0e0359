//! The long-lived server: listeners, connections, and the reply
//! discipline that makes failures visible instead of fatal.
//!
//! One [`Server`] owns one [`Scheduler`] (and so one warm session) and
//! any number of listening endpoints — TCP, Unix sockets, or both at
//! once. Each accepted connection gets a reader (the connection thread)
//! and a writer thread joined by an ordered queue, so a client may
//! pipeline requests and still receive replies in submission order even
//! though the worker pool prices them out of order.
//!
//! The error discipline, end to end:
//!
//! * a *well-framed but bad* payload (undecodable request, invalid
//!   hardware, refused admission) earns a status reply and the
//!   connection keeps going — the stream is still frame-aligned;
//! * an *oversized* frame earns a status reply, the announced payload is
//!   discarded, and the stream resynchronizes on the next header;
//! * a *desynchronized* stream (bad magic, checksum mismatch, truncation
//!   mid-frame) earns a best-effort status reply and the connection
//!   closes — there is no trustworthy frame boundary left to resume at.
//!
//! Nothing in the read path panics on wire input, and no failure mode
//! silently drops a request that was acknowledged into the queue.

use crate::frame::{self, DEFAULT_MAX_FRAME_LEN, KIND_REPLY, KIND_REQUEST, KIND_SHUTDOWN};
use crate::scheduler::{Scheduler, SchedulerConfig};
use crate::wire::{encode_reply, encode_status_reply};
use lego_eval::{CacheGauges, CodecError, EvalError, EvalRequest, StatusCode};
use lego_obs::Obs;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;

/// How a server is provisioned. Everything has a sensible default; the
/// `lego_serve` binary maps its flags straight onto these fields.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads pricing admitted requests.
    pub workers: usize,
    /// Admission queue depth before `QUEUE_FULL` rejections.
    pub queue_capacity: usize,
    /// Byte budget for the shared evaluation cache (`None` = unbounded).
    pub cache_budget: Option<usize>,
    /// Largest frame payload a connection will accept.
    pub max_frame_len: usize,
    /// Observability handle threaded through accept/queue/evaluate/reply.
    pub obs: Obs,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 256,
            cache_budget: None,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            obs: Obs::disabled(),
        }
    }
}

struct Stop {
    requested: Mutex<bool>,
    cv: Condvar,
    flag: AtomicBool,
}

struct ServerShared {
    scheduler: Scheduler,
    max_frame_len: usize,
    obs: Obs,
    stop: Stop,
}

impl ServerShared {
    fn request_stop(&self) {
        self.stop.flag.store(true, Ordering::Release);
        *self.stop.requested.lock().unwrap() = true;
        self.stop.cv.notify_all();
    }

    fn stopping(&self) -> bool {
        self.stop.flag.load(Ordering::Acquire)
    }
}

struct Endpoint {
    thread: thread::JoinHandle<()>,
    /// Unblocks the endpoint's `accept` so it can observe the stop flag
    /// (a self-connection — std listeners have no portable interrupt).
    wake: Box<dyn Fn() + Send>,
    /// Socket file to unlink on shutdown, for Unix endpoints.
    unlink: Option<PathBuf>,
}

/// A running evaluation server. Dropping it shuts everything down.
pub struct Server {
    shared: Arc<ServerShared>,
    endpoints: Mutex<Vec<Endpoint>>,
}

impl Server {
    /// Builds the scheduler and worker pool; add endpoints with
    /// [`listen_tcp`](Server::listen_tcp) / [`listen_unix`](Server::listen_unix).
    pub fn new(cfg: ServerConfig) -> Self {
        let scheduler = Scheduler::new(SchedulerConfig {
            workers: cfg.workers,
            queue_capacity: cfg.queue_capacity,
            cache_budget: cfg.cache_budget,
            obs: cfg.obs.clone(),
        });
        Server {
            shared: Arc::new(ServerShared {
                scheduler,
                max_frame_len: cfg.max_frame_len,
                obs: cfg.obs,
                stop: Stop {
                    requested: Mutex::new(false),
                    cv: Condvar::new(),
                    flag: AtomicBool::new(false),
                },
            }),
            endpoints: Mutex::new(Vec::new()),
        }
    }

    /// Starts accepting framed connections on a TCP address and returns
    /// the bound address (so `127.0.0.1:0` picks a free port).
    pub fn listen_tcp<A: ToSocketAddrs>(&self, addr: A) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let thread = thread::spawn(move || {
            accept_loop(&shared, || listener.accept().map(|(s, _)| s));
        });
        self.endpoints.lock().unwrap().push(Endpoint {
            thread,
            wake: Box::new(move || {
                let _ = TcpStream::connect(local);
            }),
            unlink: None,
        });
        Ok(local)
    }

    /// Starts accepting framed connections on a Unix socket path.
    pub fn listen_unix<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let path = path.as_ref().to_path_buf();
        let listener = UnixListener::bind(&path)?;
        let shared = Arc::clone(&self.shared);
        let thread = thread::spawn(move || {
            accept_loop(&shared, || listener.accept().map(|(s, _)| s));
        });
        let wake_path = path.clone();
        self.endpoints.lock().unwrap().push(Endpoint {
            thread,
            wake: Box::new(move || {
                let _ = UnixStream::connect(&wake_path);
            }),
            unlink: Some(path),
        });
        Ok(())
    }

    /// Blocks until some connection sends a `SHUTDOWN` frame (or
    /// [`shutdown`](Server::shutdown) is called from another thread).
    pub fn wait_for_shutdown_request(&self) {
        let mut requested = self.shared.stop.requested.lock().unwrap();
        while !*requested {
            requested = self.shared.stop.cv.wait(requested).unwrap();
        }
    }

    /// Stops accepting, drains admitted work, joins the listeners and
    /// workers, and removes Unix socket files.
    pub fn shutdown(&self) {
        self.shared.request_stop();
        let mut endpoints = self.endpoints.lock().unwrap();
        for ep in endpoints.iter() {
            (ep.wake)();
        }
        for ep in endpoints.drain(..) {
            let _ = ep.thread.join();
            if let Some(path) = ep.unlink {
                let _ = std::fs::remove_file(path);
            }
        }
        drop(endpoints);
        self.shared.scheduler.shutdown();
    }

    /// Cache residency/eviction gauges of the shared session.
    pub fn gauges(&self) -> CacheGauges {
        self.shared.scheduler.gauges()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop<S>(shared: &Arc<ServerShared>, accept: impl Fn() -> io::Result<S>)
where
    S: ConnStream,
{
    loop {
        match accept() {
            Ok(stream) => {
                if shared.stopping() {
                    return;
                }
                shared.obs.count("serve.accepted", 1);
                let shared = Arc::clone(shared);
                thread::spawn(move || handle_connection(&shared, stream));
            }
            Err(_) if shared.stopping() => return,
            // Transient accept failures (EMFILE, aborted handshakes)
            // must not take the endpoint down.
            Err(_) => thread::yield_now(),
        }
    }
}

/// The two stream types a connection can run over; `writer` hands the
/// reply thread its own handle to the same socket.
trait ConnStream: Read + Send + Sized + 'static {
    type Writer: Write + Send + 'static;
    fn writer(&self) -> io::Result<Self::Writer>;
}

impl ConnStream for TcpStream {
    type Writer = TcpStream;
    fn writer(&self) -> io::Result<TcpStream> {
        self.try_clone()
    }
}

impl ConnStream for UnixStream {
    type Writer = UnixStream;
    fn writer(&self) -> io::Result<UnixStream> {
        self.try_clone()
    }
}

/// What the reader hands the per-connection writer thread, in request
/// order.
enum WriterMsg {
    /// A reply payload ready now (status replies from admission).
    Ready(Vec<u8>),
    /// A reply still being priced; the writer blocks on it so replies
    /// leave the socket in submission order.
    Pending(mpsc::Receiver<Vec<u8>>),
}

fn writer_loop(mut w: impl Write, queue: mpsc::Receiver<WriterMsg>, obs: &Obs) {
    while let Ok(msg) = queue.recv() {
        let payload = match msg {
            WriterMsg::Ready(payload) => payload,
            WriterMsg::Pending(rx) => match rx.recv() {
                Ok(payload) => payload,
                // The scheduler dropped the job mid-drain; tell the
                // client rather than going silent.
                Err(_) => {
                    encode_status_reply(&EvalError::Rejected(lego_eval::Reject::ShuttingDown))
                }
            },
        };
        let wrote = obs.time("serve/reply_write", || {
            frame::write_frame(&mut w, KIND_REPLY, &payload)
        });
        if wrote.is_err() {
            // The client stopped reading; drain the queue so pending
            // evaluations are received (and dropped) without blocking
            // the workers' send side.
            for _ in queue.iter() {}
            return;
        }
        obs.count("serve.replies", 1);
    }
}

fn handle_connection<S: ConnStream>(shared: &ServerShared, mut stream: S) {
    let Ok(writer) = stream.writer() else { return };
    let (tx, rx) = mpsc::channel::<WriterMsg>();
    let obs = shared.obs.clone();
    let writer_thread = thread::spawn(move || writer_loop(writer, rx, &obs));

    loop {
        match frame::read_frame(&mut stream, shared.max_frame_len) {
            Ok(None) => break, // clean close between frames
            Ok(Some(f)) if f.kind == KIND_REQUEST => {
                shared.obs.count("serve.frames_in", 1);
                match shared
                    .obs
                    .time("serve/decode_request", || EvalRequest::decode(&f.payload))
                {
                    Ok(request) => {
                        let (reply_tx, reply_rx) = mpsc::channel();
                        match shared.scheduler.submit(request, reply_tx) {
                            Ok(()) => {
                                if tx.send(WriterMsg::Pending(reply_rx)).is_err() {
                                    break;
                                }
                            }
                            Err(e) => {
                                shared.obs.count("serve.status_replies", 1);
                                if tx.send(WriterMsg::Ready(encode_status_reply(&e))).is_err() {
                                    break;
                                }
                            }
                        }
                    }
                    Err(e) => {
                        // The frame was intact — the stream is still
                        // aligned, so refuse the payload and keep going.
                        shared.obs.count("serve.status_replies", 1);
                        let err = EvalError::from(e);
                        if tx
                            .send(WriterMsg::Ready(encode_status_reply(&err)))
                            .is_err()
                        {
                            break;
                        }
                    }
                }
            }
            Ok(Some(f)) if f.kind == KIND_SHUTDOWN => {
                let _ = tx.send(WriterMsg::Ready(encode_reply(StatusCode::OK, b"")));
                shared.request_stop();
                break;
            }
            Ok(Some(f)) => {
                // A REPLY frame sent at the server: protocol misuse.
                let err = EvalError::Usage(format!(
                    "unexpected frame kind {} on the request side",
                    f.kind
                ));
                shared.obs.count("serve.status_replies", 1);
                let _ = tx.send(WriterMsg::Ready(encode_status_reply(&err)));
                break;
            }
            Err(CodecError::FrameTooLarge { len, max }) => {
                // Header consumed, payload not: refuse, skip, resume.
                shared.obs.count("serve.status_replies", 1);
                let err = EvalError::from(CodecError::FrameTooLarge { len, max });
                if tx
                    .send(WriterMsg::Ready(encode_status_reply(&err)))
                    .is_err()
                {
                    break;
                }
                if frame::discard(&mut stream, len).is_err() {
                    break;
                }
            }
            Err(e) => {
                // Desynchronized or dead stream: best-effort status,
                // then close.
                shared.obs.count("serve.status_replies", 1);
                let _ = tx.send(WriterMsg::Ready(encode_status_reply(&EvalError::from(e))));
                break;
            }
        }
    }
    drop(tx);
    let _ = writer_thread.join();
}
