//! # lego-eval — the canonical request/response evaluation layer
//!
//! Every earlier generation of this workspace priced designs through free
//! functions: `simulate_layer` / `simulate_layer_tiled` /
//! `simulate_layer_ctx`, `best_mapping` and friends, `map_model` and
//! friends — three generations of entry points over one honest cost model,
//! with every bench binary hand-wiring `HwConfig` + `TechModel` + sparsity
//! on the side. This crate collapses them into one API, the shape
//! Sparseloop- and Timeloop-style evaluators expose:
//!
//! * [`EvalRequest`] — *what* to price: a workload, a hardware
//!   configuration (dense + sparse halves), a technology model, the
//!   [`Objective`] to score, and the tiling knob;
//! * [`EvalSession`] — *how* it is priced: owns
//!   [`CostContext`](lego_model::CostContext) construction and the
//!   memoized [`EvalCache`], behind [`evaluate`](EvalSession::evaluate)
//!   for one request and [`run_batch`](EvalSession::run_batch) for many,
//!   on scoped threads;
//! * [`EvalReport`] — the response: per-layer mapping results (including
//!   the [`CompressedFormat`](lego_model::CompressedFormat) selected per
//!   operand), aggregated [`ModelPerf`](lego_sim::ModelPerf), a
//!   [`CostSummary`], and [`Provenance`].
//!
//! Requests and reports carry a versioned binary codec
//! ([`EvalRequest::encode`] / [`EvalReport::encode`]; same magic+version
//! discipline as the explorer's `Snapshot`, `encode → decode → encode`
//! byte-identical), so a multi-host driver can ship work over any byte
//! transport.
//!
//! ```
//! use lego_eval::{EvalRequest, EvalSession};
//! use lego_model::HwConfig;
//!
//! let session = EvalSession::new();
//! let request = EvalRequest::new(lego_workloads::zoo::lenet(), HwConfig::lego_256());
//! let report = session.evaluate(&request);
//! assert!(report.cost.edp() > 0.0);
//!
//! // The request round-trips byte-identically through the codec…
//! let bytes = request.encode();
//! let decoded = lego_eval::EvalRequest::decode(&bytes).unwrap();
//! assert_eq!(decoded.encode(), bytes);
//! // …and a remote worker evaluating the decoded request reproduces the
//! // report bit-for-bit (evaluation is pure; a fresh session matches the
//! // sender's cold cache, which provenance records).
//! assert_eq!(EvalSession::new().evaluate(&decoded), report);
//! ```
//!
//! `simulate_layer_ctx` / `best_mapping_ctx` / `map_model_ctx` — what a
//! session runs per layer — remain public as the low-level entry points
//! the session is tested against.
//!
//! Failures across the stack — codec, validation, transport, admission —
//! collapse into one [`EvalError`] enum whose [`StatusCode`] mapping is
//! the `lego-serve` wire status contract.

pub mod cache;
pub mod cli;
pub mod codec;
pub mod error;
pub mod hash;
pub mod objective;
pub mod session;

pub use cache::{estimated_resident_bytes_for, layer_key, CacheGauges, EvalCache};
pub use codec::{CodecError, VERSION as CODEC_VERSION};
pub use error::{EvalError, Reject, StatusCode};
pub use hash::{stable_hash, FnvHasher};
pub use objective::{BaseObjective, Objective, Objectives};
pub use session::{
    CostSummary, EvalReport, EvalRequest, EvalRequestBuilder, EvalRequestRef, EvalSession,
    LayerReport, Priced, Provenance,
};

/// [`EvalSession::run_batch`]'s lanes: the caller plus the scoped threads
/// one batch spawns and joins, a pool that lives for that batch.
#[cfg(test)]
mod pool {
    mod tests {
        use crate::EvalSession;
        use std::collections::HashSet;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::{Barrier, Mutex};
        use std::thread;

        fn machine() -> usize {
            thread::available_parallelism().map_or(1, |n| n.get())
        }

        #[test]
        fn runs_every_index_exactly_once() {
            let session = EvalSession::new().with_threads(4);
            for len in [0usize, 1, 2, 7, 64, 1000] {
                let items: Vec<usize> = (0..len).collect();
                let counts: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
                let out = session.run_batch(&items, |&i| {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                    3 * i
                });
                assert_eq!(out, items.iter().map(|i| 3 * i).collect::<Vec<_>>());
                assert!(
                    counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                    "len={len}"
                );
            }
        }

        #[test]
        fn zero_worker_pool_runs_inline() {
            let session = EvalSession::new().with_threads(0);
            let caller = thread::current().id();
            let order = Mutex::new(Vec::new());
            let items: Vec<usize> = (0..10).collect();
            session.run_batch(&items, |&i| {
                assert_eq!(thread::current().id(), caller);
                order.lock().unwrap().push(i);
            });
            assert_eq!(order.into_inner().unwrap(), items);
        }

        #[test]
        fn results_are_visible_after_run() {
            let session = EvalSession::new().with_threads(5);
            let items: Vec<u64> = (0..32).collect();
            for round in 0..50 {
                let slots: Vec<AtomicU64> = (0..32).map(|_| AtomicU64::new(0)).collect();
                let out = session.run_batch(&items, |&i| {
                    slots[i as usize].store(i + 1, Ordering::Relaxed);
                    i + round
                });
                assert_eq!(out, (round..round + 32).collect::<Vec<_>>());
                for (i, slot) in (1..).zip(&slots) {
                    assert_eq!(slot.load(Ordering::Relaxed), i);
                }
            }
        }

        #[test]
        fn worker_panic_propagates_to_submitter() {
            let session = EvalSession::new().with_threads(3);
            let items: Vec<usize> = (0..8).collect();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                session.run_batch(&items, |&i| assert_ne!(i, 3, "boom"))
            }));
            assert!(outcome.is_err(), "a panic must reach the caller");
            // A helper thread's panic is carried back to the caller: the
            // caller holds its first item until a helper is inside the
            // batch, and every helper item panics.
            if machine() > 1 {
                let caller = thread::current().id();
                let helper_in = AtomicBool::new(false);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    session.run_batch(&items, |_| {
                        if thread::current().id() == caller {
                            while !helper_in.load(Ordering::SeqCst) {
                                thread::yield_now();
                            }
                        } else {
                            helper_in.store(true, Ordering::SeqCst);
                            panic!("helper boom");
                        }
                    })
                }));
                let payload = outcome.expect_err("a helper panic must reach the caller");
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper boom"));
            }
            // The session survives a panicked batch.
            assert_eq!(session.run_batch(&items[..4], |&i| i), [0, 1, 2, 3]);
        }

        /// One submitter of the stress test below: 200 batches, every 7th
        /// with a panicking item, each over a local freed right after
        /// `run_batch` returns.
        fn submit_batches(session: &EvalSession, s: usize) {
            const LEN: usize = 16;
            for b in 0..200 {
                let words: Vec<String> = (0..LEN).map(|i| format!("{s}:{b}:{i}")).collect();
                let runs: Vec<AtomicU64> = (0..LEN).map(|_| AtomicU64::new(0)).collect();
                let boom = (b % 7 == 0).then_some((s + b) % LEN);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    session.run_batch(&words, |word| {
                        let i = words.iter().position(|w| w == word).expect("a batch item");
                        runs[i].fetch_add(1, Ordering::SeqCst);
                        if boom == Some(i) {
                            panic!("boom {s}:{b}");
                        }
                        word.clone()
                    })
                }));
                drop(words);
                assert!(
                    runs.iter().all(|c| c.load(Ordering::SeqCst) <= 1),
                    "{s}:{b}"
                );
                match (outcome, boom) {
                    (Ok(out), None) => {
                        let expected: Vec<String> =
                            (0..LEN).map(|i| format!("{s}:{b}:{i}")).collect();
                        assert_eq!(out, expected);
                        assert!(runs.iter().all(|c| c.load(Ordering::SeqCst) == 1));
                    }
                    // A panic surfaces on the submitter whose item raised
                    // it, and on no other.
                    (Err(payload), Some(_)) => assert_eq!(
                        payload.downcast_ref::<String>(),
                        Some(&format!("boom {s}:{b}"))
                    ),
                    (outcome, boom) => panic!("{s}:{b}: {:?} with {boom:?}", outcome.is_ok()),
                }
            }
        }

        #[test]
        fn concurrent_submitters_survive_panics_and_short_lived_borrows() {
            let session = EvalSession::new().with_threads(4);
            let start = Barrier::new(4);
            thread::scope(|scope| {
                for s in 0..4 {
                    let (session, start) = (&session, &start);
                    scope.spawn(move || {
                        start.wait();
                        submit_batches(session, s);
                    });
                }
            });
            assert_eq!(session.run_batch(&[1, 2, 3], |&i| 2 * i), [2, 4, 6]);
        }

        #[test]
        fn nested_batches_complete() {
            let session = EvalSession::new().with_threads(2);
            let outer: Vec<u64> = (0..6).collect();
            let inner: Vec<u64> = (0..8).collect();
            let sums = session.run_batch(&outer, |&o| {
                session
                    .run_batch(&inner, |&i| 10 * o + i)
                    .iter()
                    .sum::<u64>()
            });
            assert_eq!(sums, outer.iter().map(|o| 80 * o + 28).collect::<Vec<_>>());
        }

        #[test]
        fn lanes_never_exceed_available_parallelism() {
            let session = EvalSession::new().with_threads(machine() + 2);
            let items: Vec<usize> = (0..256).collect();
            let ids = Mutex::new(HashSet::new());
            session.run_batch(&items, |_| {
                ids.lock().unwrap().insert(thread::current().id());
                thread::yield_now();
            });
            let lanes = ids.into_inner().unwrap().len();
            assert!((1..=machine()).contains(&lanes), "{lanes} lanes");
        }
    }
}
