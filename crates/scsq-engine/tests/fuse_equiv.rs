//! Property-based equivalence of the fused stage programs.
//!
//! `FusedChain` lowers a pipeline's stage chain into a jump table of
//! direct step functions at prepare time; its contract is that for any
//! stage chain and any input stream it produces exactly the same
//! outputs, end-of-stream flush, and errors as the interpreted
//! [`StageChain`] reference — including error *messages*, because the
//! runtime surfaces them to the client verbatim.

use proptest::prelude::*;
use scsq_engine::ops::{AggKind, MapFunc, Pipeline, Stage, StageChain};
use scsq_engine::window::WindowSpec;
use scsq_engine::{FusedChain, FusedProgram};
use scsq_ql::{SpHandle, Value};

/// Strategy over single stages (radix combine is covered by its own
/// deterministic test below: it needs paired producers, not a random
/// `from` stream).
fn stage() -> impl Strategy<Value = Stage> {
    prop_oneof![
        prop_oneof![
            Just(MapFunc::Odd),
            Just(MapFunc::Even),
            Just(MapFunc::Fft),
            Just(MapFunc::Power),
        ]
        .prop_map(Stage::Map),
        agg().prop_map(Stage::Agg),
        Just(Stage::StreamOf),
        (1usize..5, 1usize..3, agg()).prop_map(|(size, slide, agg)| {
            Stage::Window(WindowSpec::new(size, slide, agg).expect("valid window"))
        }),
        (0u64..6).prop_map(|limit| Stage::Take { limit }),
    ]
}

fn agg() -> impl Strategy<Value = AggKind> {
    prop_oneof![
        Just(AggKind::Count),
        Just(AggKind::Sum),
        Just(AggKind::Max),
        Just(AggKind::Min),
        Just(AggKind::Avg),
    ]
}

/// Strategy over input values: the numeric kinds every stage accepts
/// plus arrays (maps want them) and the kinds that make elementwise
/// functions fail, so the error paths are exercised too.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-100i64..100).prop_map(Value::Integer),
        (-100.0f64..100.0).prop_map(Value::Real),
        (8u64..4096).prop_map(Value::synthetic_array),
        proptest::collection::vec(-10.0f64..10.0, 1..9)
            .prop_map(|v| Value::Array(scsq_ql::ArrayData::Real(v))),
        any::<bool>().prop_map(Value::Bool),
        Just(Value::Str("x".to_string())),
    ]
}

/// Feeds the same stream through the interpreted chain and the fused
/// program, comparing per-element outputs, the first error, and the
/// end-of-stream flush.
fn assert_equivalent(stages: Vec<Stage>, inputs: Vec<Value>) -> Result<(), TestCaseError> {
    let pipeline = Pipeline {
        input: scsq_engine::InputKind::Const {
            values: Vec::new().into(),
        },
        stages,
    };
    let mut interpreted = StageChain::new(&pipeline);
    let mut fused = FusedChain::new(&FusedProgram::compile(&pipeline));

    for value in inputs {
        let reference = interpreted.process(value.clone(), None);
        let mut out = Vec::new();
        let lowered = fused.process_into(value, None, &mut out).map(|()| out);
        match (reference, lowered) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "per-element outputs"),
            (Err(a), Err(b)) => {
                prop_assert_eq!(a.to_string(), b.to_string(), "error messages");
                return Ok(()); // the runtime stops at the first error
            }
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "one chain failed, the other did not: {a:?} vs {b:?}"
                )))
            }
        }
    }

    let flush_ref = interpreted.finish();
    let flush_fused = fused.finish();
    match (flush_ref, flush_fused) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "end-of-stream flush"),
        (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string(), "flush errors"),
        (a, b) => {
            return Err(TestCaseError::fail(format!(
                "flush disagreement: {a:?} vs {b:?}"
            )))
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fused and interpreted execution agree on outputs, flushes, and
    /// errors over randomized stage chains and value streams.
    #[test]
    fn fused_equals_interpreted(
        stages in proptest::collection::vec(stage(), 0..5),
        inputs in proptest::collection::vec(value(), 0..12),
    ) {
        assert_equivalent(stages, inputs)?;
    }
}

/// Radix combine pairs elements from two named producers; drive both
/// chains with an interleaved two-producer stream and an out-of-order
/// tail that must fail identically.
#[test]
fn radix_combine_matches_interpreted() {
    let first = SpHandle(1);
    let second = SpHandle(2);
    let pipeline = Pipeline {
        input: scsq_engine::InputKind::Receive {
            producers: vec![first, second],
        },
        stages: vec![Stage::RadixCombine { first, second }],
    };
    let mut interpreted = StageChain::new(&pipeline);
    let mut fused = FusedChain::new(&FusedProgram::compile(&pipeline));

    let half = |n: u64| Value::Array(scsq_ql::ArrayData::Complex(vec![(n as f64, 0.0); 4]));
    for i in 0..6u64 {
        let from = if i % 2 == 0 { first } else { second };
        let reference = interpreted.process(half(i), Some(from)).unwrap();
        let mut out = Vec::new();
        fused.process_into(half(i), Some(from), &mut out).unwrap();
        assert_eq!(reference, out, "paired radix outputs");
    }

    // An element from an unknown producer errors identically.
    let stray = SpHandle(99);
    let a = interpreted.process(half(0), Some(stray)).unwrap_err();
    let mut out = Vec::new();
    let b = fused
        .process_into(half(0), Some(stray), &mut out)
        .unwrap_err();
    assert_eq!(a.to_string(), b.to_string());
}
