//! Admission, batching, and fan-out: the part of the server that owns the
//! warm [`EvalSession`].
//!
//! A [`Scheduler`] is a bounded job queue in front of a worker pool.
//! Connections [`submit`](Scheduler::submit) decoded requests together
//! with a reply sender; workers drain jobs in small batches and price
//! them against one shared session, so every connection benefits from the
//! same memoized cache. Admission is where policy lives:
//!
//! * an invalid request (empty workload, bad hardware, nonpositive tile
//!   cap) is refused *before* it costs a queue slot;
//! * a full queue refuses with [`Reject::QueueFull`] — backpressure is a
//!   status the client sees, never silent latency;
//! * a draining scheduler refuses with [`Reject::ShuttingDown`] while the
//!   workers finish what was already admitted.
//!
//! Replies are the `status u16 | body` payloads of the wire layer, built
//! here so a worker's output can be forwarded verbatim by the connection
//! writer. Evaluation uses [`EvalSession::evaluate_pristine`], so a reply
//! is byte-identical to what a fresh offline session would report for the
//! same request — cache warmth is a server-side detail, not a wire-visible
//! one.

use crate::wire::encode_ok_reply;
use lego_eval::{CacheGauges, EvalError, EvalRequest, EvalSession, Reject};
use lego_obs::Obs;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

/// How a scheduler is provisioned.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads draining the queue (0 = admit but never evaluate —
    /// useful for deterministic backpressure tests).
    pub workers: usize,
    /// Maximum admitted-but-unstarted jobs before `QueueFull`.
    pub queue_capacity: usize,
    /// Byte budget for the shared session's evaluation cache
    /// (`None` = unbounded).
    pub cache_budget: Option<usize>,
    /// Observability handle shared with the session.
    pub obs: Obs,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 4,
            queue_capacity: 256,
            cache_budget: None,
            obs: Obs::disabled(),
        }
    }
}

/// Jobs a worker claims per wakeup; batching amortizes lock traffic when
/// the queue is deep without starving other workers.
const BATCH: usize = 8;

/// One admitted unit of work: a validated request and where its encoded
/// reply payload goes.
struct Job {
    request: EvalRequest,
    reply: mpsc::Sender<Vec<u8>>,
}

struct Shared {
    session: EvalSession,
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
    capacity: usize,
    draining: AtomicBool,
    /// Serve-level request ids, minted at evaluation start and carried
    /// through the obs `request_scope` so every span of a request's
    /// lifetime shares one id in traces.
    next_id: AtomicU64,
    obs: Obs,
}

/// Bounded admission queue + worker pool over one warm [`EvalSession`].
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Builds the shared session and starts the worker pool.
    pub fn new(cfg: SchedulerConfig) -> Self {
        let mut session = EvalSession::new().with_obs(cfg.obs.clone());
        if let Some(budget) = cfg.cache_budget {
            session = session.with_cache_budget(budget);
        }
        let shared = Arc::new(Shared {
            session,
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            capacity: cfg.queue_capacity.max(1),
            draining: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            obs: cfg.obs,
        });
        let workers = (0..cfg.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Scheduler {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Admits one request. On success the reply payload will eventually
    /// arrive on `reply`; on refusal the error says why, and nothing was
    /// queued.
    pub fn submit(
        &self,
        request: EvalRequest,
        reply: mpsc::Sender<Vec<u8>>,
    ) -> Result<(), EvalError> {
        if self.shared.draining.load(Ordering::Acquire) {
            self.shared.obs.count("serve.rejected", 1);
            return Err(Reject::ShuttingDown.into());
        }
        request.validate().inspect_err(|_| {
            self.shared.obs.count("serve.invalid", 1);
        })?;
        let mut queue = self.shared.queue.lock().unwrap();
        if queue.len() >= self.shared.capacity {
            drop(queue);
            self.shared.obs.count("serve.rejected", 1);
            return Err(Reject::QueueFull {
                capacity: self.shared.capacity,
            }
            .into());
        }
        queue.push_back(Job { request, reply });
        self.shared
            .obs
            .record("serve/queue_depth", queue.len() as f64);
        drop(queue);
        self.shared.obs.count("serve.enqueued", 1);
        self.shared.work_ready.notify_one();
        Ok(())
    }

    /// Stops admitting, lets the workers drain everything already queued,
    /// and joins them.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.work_ready.notify_all();
        let mut workers = self.workers.lock().unwrap();
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
        // With workers the queue is empty by now; without (test mode),
        // dropping the leftover jobs drops their reply senders, which
        // connection writers surface as SHUTTING_DOWN statuses.
        self.shared.queue.lock().unwrap().clear();
    }

    /// Cache residency/eviction gauges of the shared session.
    pub fn gauges(&self) -> CacheGauges {
        self.shared.session.cache().gauges()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let batch: Vec<Job> = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if !queue.is_empty() {
                    break;
                }
                if shared.draining.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.work_ready.wait(queue).unwrap();
            }
            let n = queue.len().min(BATCH);
            queue.drain(..n).collect()
        };
        // If this claim left jobs behind, wake a sibling before pricing.
        shared.work_ready.notify_one();
        for job in batch {
            let id = shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
            let _scope = shared.obs.request_scope(id);
            let payload = {
                let _span = shared.obs.span("serve/evaluate");
                let report = shared.session.evaluate_pristine(&job.request);
                encode_ok_reply(&report.encode())
            };
            shared.obs.count("serve.evaluated", 1);
            // A send failure means the connection is gone; the evaluation
            // still warmed the cache, so the work is not wasted.
            let _ = job.reply.send(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::report_from_reply;
    use lego_eval::StatusCode;
    use lego_model::HwConfig;
    use lego_workloads::{zoo, Layer, LayerKind, Model, Nonlinear};

    fn request() -> EvalRequest {
        EvalRequest::new(zoo::lenet(), HwConfig::lego_256())
    }

    fn sink() -> (mpsc::Sender<Vec<u8>>, mpsc::Receiver<Vec<u8>>) {
        mpsc::channel()
    }

    #[test]
    fn queue_full_is_a_deterministic_rejection() {
        // No workers: nothing drains, so the third submit must refuse.
        let s = Scheduler::new(SchedulerConfig {
            workers: 0,
            queue_capacity: 2,
            ..Default::default()
        });
        let (tx, _rx) = sink();
        s.submit(request(), tx.clone()).unwrap();
        s.submit(request(), tx.clone()).unwrap();
        let err = s.submit(request(), tx).unwrap_err();
        assert_eq!(err.status(), StatusCode::QUEUE_FULL);
        assert!(err.to_string().contains('2'), "{err}");
    }

    #[test]
    fn draining_scheduler_refuses_new_work() {
        let s = Scheduler::new(SchedulerConfig {
            workers: 0,
            ..Default::default()
        });
        s.shutdown();
        let (tx, _rx) = sink();
        let err = s.submit(request(), tx).unwrap_err();
        assert_eq!(err.status(), StatusCode::SHUTTING_DOWN);
    }

    #[test]
    fn invalid_requests_never_cost_a_queue_slot() {
        let s = Scheduler::new(SchedulerConfig {
            workers: 0,
            queue_capacity: 1,
            ..Default::default()
        });
        let empty = EvalRequest::new(
            Model {
                name: "empty".into(),
                layers: vec![],
            },
            HwConfig::lego_256(),
        );
        let (tx, _rx) = sink();
        let err = s.submit(empty, tx.clone()).unwrap_err();
        assert_eq!(err.status(), StatusCode::EMPTY_WORKLOAD);
        let gemm = |m, n, k| Layer::new("gemm", LayerKind::Gemm { m, n, k });
        let (n, ic, oc, oh, ow, kh, kw, stride) = (1, 8, 8, 4, 4, 3, 3, 0);
        let stride_zero = Layer::new(
            "conv",
            LayerKind::Conv {
                n,
                ic,
                oc,
                oh,
                ow,
                kh,
                kw,
                stride,
            },
        );
        for layer in [
            gemm(0, 0, 0),
            gemm(-4, 4, 4),
            stride_zero,
            gemm(i64::MAX, i64::MAX, i64::MAX),
            gemm(4, 4, 4).with_nonlinear(Nonlinear::Softmax, -1_000_000_000),
        ] {
            let model = Model {
                name: "impossible".into(),
                layers: vec![layer],
            };
            let impossible = EvalRequest::new(model, HwConfig::lego_256());
            let err = s.submit(impossible, tx.clone()).unwrap_err();
            assert_eq!(err.status(), StatusCode::INVALID_LAYER);
        }
        // The slot is still free for a valid request.
        s.submit(request(), tx).unwrap();
    }

    #[test]
    fn workers_reply_byte_identically_to_an_offline_session() {
        let s = Scheduler::new(SchedulerConfig {
            workers: 2,
            ..Default::default()
        });
        let offline = EvalSession::new().evaluate(&request()).encode();
        // Submit the same request repeatedly: the first run warms the
        // shared cache, yet every reply must stay pristine.
        let receivers: Vec<_> = (0..6)
            .map(|_| {
                let (tx, rx) = sink();
                s.submit(request(), tx).unwrap();
                rx
            })
            .collect();
        for rx in receivers {
            let payload = rx.recv().unwrap();
            let report = report_from_reply(&payload).unwrap();
            assert_eq!(report.encode(), offline);
        }
        s.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_work() {
        let s = Scheduler::new(SchedulerConfig {
            workers: 1,
            ..Default::default()
        });
        let receivers: Vec<_> = (0..4)
            .map(|_| {
                let (tx, rx) = sink();
                s.submit(request(), tx).unwrap();
                rx
            })
            .collect();
        s.shutdown();
        for rx in receivers {
            assert!(rx.recv().is_ok(), "admitted work must be answered");
        }
    }
}
