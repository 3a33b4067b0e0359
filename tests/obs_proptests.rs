//! Property-based observability invariants, end-to-end through the facade:
//!
//! 1. Instrumentation never perturbs results — an `Obs::disabled()` session
//!    and a fully instrumented session produce byte-identical `EvalReport`
//!    encodings for the same request.
//! 2. Deterministic-mode summaries are byte-identical across runs — the
//!    property the CI determinism job's `cmp` of trace exports rests on.

use lego::eval::{EvalRequest, EvalSession};
use lego::model::HwConfig;
use lego::obs::Obs;
use proptest::prelude::*;

fn model_by_index(i: usize) -> lego::workloads::Model {
    match i % 3 {
        0 => lego::workloads::zoo::lenet(),
        1 => lego::workloads::zoo::mobilenet_v2(),
        _ => lego::workloads::zoo::resnet50_2to4(),
    }
}

fn hw_by_index(i: usize) -> HwConfig {
    match i % 2 {
        0 => HwConfig::lego_256(),
        _ => HwConfig::lego_icoc_1k(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn instrumentation_never_changes_report_bytes(
        model_i in 0usize..3,
        hw_i in 0usize..2,
    ) {
        let request = EvalRequest::new(model_by_index(model_i), hw_by_index(hw_i));

        let plain = EvalSession::new()
            .with_obs(Obs::disabled())
            .evaluate(&request);
        let observed = EvalSession::new()
            .with_obs(Obs::deterministic())
            .evaluate(&request);
        let timed = EvalSession::new()
            .with_obs(Obs::wall_clock())
            .evaluate(&request);

        prop_assert_eq!(observed.encode(), plain.encode());
        prop_assert_eq!(timed.encode(), plain.encode());
    }

    #[test]
    fn deterministic_summaries_are_byte_identical_across_runs(
        model_i in 0usize..3,
        hw_i in 0usize..2,
    ) {
        let request = EvalRequest::new(model_by_index(model_i), hw_by_index(hw_i));

        let render = || {
            let obs = Obs::deterministic();
            EvalSession::new().with_obs(obs.clone()).evaluate(&request);
            obs.summary().render()
        };
        let first = render();
        let second = render();
        prop_assert!(!first.is_empty());
        prop_assert_eq!(first, second);
    }
}
