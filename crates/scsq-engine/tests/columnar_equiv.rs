//! Property-based equivalence of the column tier.
//!
//! [`StageChain::admit_cols`] admits a whole delivered batch and
//! [`StageChain::process_cols`] runs it with one dispatch per stage; its
//! contract is that the result is byte-identical to feeding the same
//! elements one at a time — a batch that folds leaves the accumulators
//! in the same state (same wrapping integer sums, same sequential float
//! rounding, same strict first-best winners) and emits nothing, a batch
//! that emits produces the same rows, the end-of-stream flush is the
//! same, and error *messages* match, because the runtime surfaces them
//! to the client verbatim.
//!
//! One driver below mirrors `World::deliver`: admit the batch, run it as
//! columns, and fall back to the scalar run driver
//! (`StageChain::process_run`, the whole run in one chain walk) when
//! admission declines, exactly as the engine does. The reference is a
//! second chain fed one element at a time (`StageChain::process_into`,
//! the scalar semantics).

use proptest::prelude::*;
use scsq_engine::ops::{AggKind, MapFunc, Pipeline, Stage, StageChain};
use scsq_engine::window::WindowSpec;
use scsq_engine::{ArithOp, CmpOp, ColumnEnding, EngineError, PreparedSource};
use scsq_ql::{ColumnarBatch, Value};

fn agg() -> impl Strategy<Value = AggKind> {
    prop_oneof![
        Just(AggKind::Count),
        Just(AggKind::Sum),
        Just(AggKind::Max),
        Just(AggKind::Min),
        Just(AggKind::Avg),
    ]
}

fn arith_op() -> impl Strategy<Value = ArithOp> {
    prop_oneof![Just(ArithOp::Add), Just(ArithOp::Sub), Just(ArithOp::Mul)]
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
    ]
}

/// Constants for arith/cmp/filter stages. String constants are legal
/// for comparisons against string columns, make arithmetic fail (an
/// error-path probe), and force the columnar admission walk to decline
/// numeric columns compared against strings.
fn rhs() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-10i64..10).prop_map(Value::Integer),
        (-10.0f64..10.0).prop_map(Value::Real),
        Just(Value::Str("m".to_string())),
    ]
}

/// Strategy over stages, dominated by the vectorizable set so most
/// generated chains qualify for the columnar pass, with the map and
/// `winagg` stages to force the per-element fallback branch (and, over
/// mixed-type runs, its type-error paths).
fn stage() -> impl Strategy<Value = Stage> {
    prop_oneof![
        agg().prop_map(Stage::Agg),
        Just(Stage::StreamOf),
        (0u64..8).prop_map(|limit| Stage::Take { limit }),
        Just(Stage::Bandwidth),
        prop_oneof![
            Just(MapFunc::Odd),
            Just(MapFunc::Even),
            Just(MapFunc::Fft),
            Just(MapFunc::Power),
        ]
        .prop_map(Stage::Map),
        (1usize..5, 1usize..3, agg()).prop_map(|(size, slide, agg)| {
            Stage::Window(WindowSpec::new(size, slide, agg).expect("valid window"))
        }),
        (arith_op(), rhs()).prop_map(|(op, rhs)| Stage::Arith { op, rhs }),
        (cmp_op(), rhs()).prop_map(|(op, rhs)| Stage::Cmp { op, rhs }),
        (cmp_op(), rhs()).prop_map(|(op, rhs)| Stage::Filter { op, rhs }),
    ]
}

/// A metric sample bag; negative timestamps and byte counts are
/// generated on purpose so the bandwidth error path is exercised.
fn metric() -> impl Strategy<Value = Value> {
    (-3i64..3, -50i64..500, -10i64..100).prop_map(|(c, t, b)| {
        Value::Bag(vec![
            Value::Integer(c),
            Value::Integer(t),
            Value::Integer(b),
        ])
    })
}

/// Any value the engine can deliver, including the kinds that make
/// aggregates fail.
fn mixed_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-100i64..100).prop_map(Value::Integer),
        (-100.0f64..100.0).prop_map(Value::Real),
        any::<bool>().prop_map(Value::Bool),
        (8u64..256).prop_map(Value::synthetic_array),
        proptest::collection::vec(-10.0f64..10.0, 1..9)
            .prop_map(|v| Value::Array(scsq_ql::ArrayData::Real(v))),
        Just(Value::Str("x".to_string())),
        metric(),
    ]
}

/// Short strings straddling the `rhs()` comparison constant `"m"` in
/// both order and length, so string cmp/filter kernels see every
/// outcome; same-length runs additionally qualify for bulk cost
/// accounting (uniform marshaled stride).
fn word() -> impl Strategy<Value = Value> {
    prop_oneof![Just("a"), Just("m"), Just("mm"), Just("z")].prop_map(|s| Value::Str(s.to_string()))
}

/// A two-column record (non-metric multi-column shape): decomposes into
/// parallel `c0`/`c1` columns at admission.
fn record() -> impl Strategy<Value = Value> {
    ((-100i64..100), (-10.0f64..10.0))
        .prop_map(|(a, b)| Value::Bag(vec![Value::Integer(a), Value::Real(b)]))
}

/// One delivered batch: homogeneous integer / float / string / metric /
/// record runs (the shapes the columnar pass accepts) plus mixed runs
/// and runs of one-field bags it must decline. One integer variant runs
/// 60–70 rows, several full lanes of the chunked folds.
fn batch_values() -> impl Strategy<Value = Vec<Value>> {
    prop_oneof![
        proptest::collection::vec((-100i64..100).prop_map(Value::Integer), 0..10),
        proptest::collection::vec((-100i64..100).prop_map(Value::Integer), 60..70),
        proptest::collection::vec((-100.0f64..100.0).prop_map(Value::Real), 0..10),
        proptest::collection::vec(word(), 0..10),
        proptest::collection::vec(metric(), 0..10),
        proptest::collection::vec(record(), 0..10),
        proptest::collection::vec(mixed_value(), 0..10),
        proptest::collection::vec(
            (-100i64..100).prop_map(|i| Value::Bag(vec![Value::Integer(i)])),
            0..10
        ),
    ]
}

fn chain(stages: &[Stage]) -> StageChain {
    StageChain::new(&Pipeline {
        input: scsq_engine::InputKind::Const {
            values: Vec::new().into(),
        },
        stages: stages.to_vec(),
    })
}

/// How a batch reaches a chain: a run of owned values (a batch only
/// when it has two or more, because `deliver` never transposes a lone
/// value) or a view of shared columns (always a batch, even of one row).
#[derive(Clone, Copy)]
enum Delivered<'a> {
    Values(&'a [Value]),
    View(&'a ColumnarBatch),
}

/// The scalar reference: every element through `process_into`.
fn per_element(chain: &mut StageChain, values: &[Value]) -> Result<Vec<Value>, EngineError> {
    let mut out = Vec::new();
    for v in values {
        chain.process_into(v.clone(), None, &mut out)?;
    }
    Ok(out)
}

/// Mirrors `World::deliver`: admit the batch and run it as columns,
/// returning the rows it emitted (none when it folded); when admission
/// declines, walk its rows through the chain as one run.
fn deliver(chain: &mut StageChain, batch: Delivered<'_>) -> Result<Vec<Value>, EngineError> {
    let cols = match batch {
        Delivered::Values(vs) if vs.len() > 1 => Some(ColumnarBatch::from_values(vs)),
        Delivered::Values(_) => None,
        Delivered::View(view) => Some(view.clone()),
    };
    let Some(admit) = cols.and_then(|c| chain.admit_cols(&c)) else {
        let mut rows = Vec::new();
        match batch {
            Delivered::Values(vs) => rows.extend_from_slice(vs),
            Delivered::View(view) => view.to_values_into(&mut rows),
        }
        let mut out = Vec::new();
        chain.process_run(&mut rows, None, &mut out)?;
        assert!(rows.is_empty(), "the run driver takes the whole run");
        return Ok(out);
    };
    let ending = admit.ending;
    let emitted = chain.process_cols(admit)?;
    assert_eq!(emitted.is_some(), ending == ColumnEnding::Emit, "ending");
    let Some((out, sel)) = emitted else {
        return Ok(Vec::new());
    };
    if let Some(s) = &sel {
        assert_eq!(s.rows().len(), out.rows(), "selection covers the output");
    }
    Ok((0..out.rows()).map(|j| out.value_at(j)).collect())
}

/// Feeds the same batches through one chain per element (the scalar
/// reference) and through another driven by [`deliver`], comparing what
/// each batch emits, the errors, and the end-of-stream flush.
fn assert_equivalent(stages: &[Stage], batches: &[Vec<Value>]) -> Result<(), TestCaseError> {
    let mut scalar = chain(stages);
    let mut columnar = chain(stages);
    for values in batches {
        match (
            per_element(&mut scalar, values),
            deliver(&mut columnar, Delivered::Values(values)),
        ) {
            (Ok(want), Ok(got)) => prop_assert_eq!(want, got, "emitted rows"),
            (Err(a), Err(b)) => {
                prop_assert_eq!(a.to_string(), b.to_string(), "error messages");
                return Ok(()); // the runtime stops at the first error
            }
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "one path failed, the other did not: {a:?} vs {b:?}"
                )))
            }
        }
    }
    match (scalar.finish(), columnar.finish()) {
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

/// Stages legal in a relay chain (re-emitting: no absorber).
fn relay_extra() -> impl Strategy<Value = Stage> {
    prop_oneof![
        Just(Stage::StreamOf),
        (0u64..80).prop_map(|limit| Stage::Take { limit }),
        relay_transform(),
    ]
}

/// A transform stage with constants that sometimes eliminate every row
/// (an empty selection) and sometimes keep them all.
fn relay_rhs() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-10i64..10).prop_map(Value::Integer),
        Just(Value::Integer(1000)),
        (-10.0f64..10.0).prop_map(Value::Real),
    ]
}

fn relay_transform() -> impl Strategy<Value = Stage> {
    prop_oneof![
        (arith_op(), relay_rhs()).prop_map(|(op, rhs)| Stage::Arith { op, rhs }),
        (cmp_op(), relay_rhs()).prop_map(|(op, rhs)| Stage::Cmp { op, rhs }),
        (cmp_op(), relay_rhs()).prop_map(|(op, rhs)| Stage::Filter { op, rhs }),
    ]
}

/// One relayable batch: short and 60–70-row numeric runs.
fn relay_batch() -> impl Strategy<Value = Vec<Value>> {
    prop_oneof![
        proptest::collection::vec((-100i64..100).prop_map(Value::Integer), 0..10),
        proptest::collection::vec((-100i64..100).prop_map(Value::Integer), 60..70),
        proptest::collection::vec((-100.0f64..100.0).prop_map(Value::Real), 0..10),
    ]
}

/// One constant source and whether the plan must prepare it: runs of
/// one fixed-width kind (integers, floats, booleans, fixed-width
/// records) of at least two rows are prepared; strings, mixed bags and
/// one-element sources are not.
fn source_values() -> impl Strategy<Value = (Vec<Value>, bool)> {
    let fixed = |v: Vec<Value>| {
        let prepared = v.len() >= 2;
        (v, prepared)
    };
    prop_oneof![
        proptest::collection::vec((-100i64..100).prop_map(Value::Integer), 1..150).prop_map(fixed),
        proptest::collection::vec((-100.0f64..100.0).prop_map(Value::Real), 1..40).prop_map(fixed),
        proptest::collection::vec(any::<bool>().prop_map(Value::Bool), 1..40).prop_map(fixed),
        proptest::collection::vec(metric(), 1..40).prop_map(fixed),
        proptest::collection::vec(record(), 1..40).prop_map(fixed),
        proptest::collection::vec(word(), 2..40).prop_map(|v| (v, false)),
        (
            proptest::collection::vec(mixed_value(), 2..40),
            -100i64..100
        )
            .prop_map(|(mut v, i)| {
                // Force two kinds, so the run is never accidentally
                // homogeneous.
                v.push(Value::Integer(i));
                v.push(Value::Str("y".to_string()));
                (v, false)
            }),
    ]
}

/// Drives a chain over a prepared source cut at `cuts` the way
/// `World::deliver` does on the two kinds of tier: `views` hands it
/// slices of the plan's column, the other the delivered values. Returns
/// everything emitted plus the flush, or the first error's message.
fn drive_source(
    stages: &[Stage],
    values: &[Value],
    prepared: &PreparedSource,
    cuts: &[usize],
    views: bool,
) -> Result<Vec<Value>, String> {
    let mut columnar = chain(stages);
    let mut out = Vec::new();
    let mut start = 0;
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % values.len()).collect();
    bounds.push(values.len());
    bounds.sort_unstable();
    for end in bounds {
        if end == start {
            continue;
        }
        let view = prepared.cols.slice(start, end);
        let batch = if views {
            Delivered::View(&view)
        } else {
            Delivered::Values(&values[start..end])
        };
        out.extend(deliver(&mut columnar, batch).map_err(|e| e.to_string())?);
        start = end;
    }
    out.extend(columnar.finish().map_err(|e| e.to_string())?);
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A source is prepared exactly when its rows share one fixed-width
    /// layout behind a pass-through chain, the prepared column *is* the
    /// source (every slice of it has the layout and the rows a
    /// transpose of the same sub-run has), and a chain fed slices of it
    /// ends where the same chain fed the transposed values ends.
    #[test]
    fn prepared_sources_equal_their_values(
        source in source_values(),
        stages in proptest::collection::vec(stage(), 1..4),
        cuts in proptest::collection::vec(0usize..1_000, 0..6),
    ) {
        let (values, expect_prepared) = source;
        let source = |stages: Vec<Stage>| Pipeline {
            input: scsq_engine::InputKind::Const {
                values: values.clone().into(),
            },
            stages,
        };
        let prepared = PreparedSource::prepare(&source(vec![Stage::StreamOf]));
        prop_assert_eq!(prepared.is_ok(), expect_prepared, "{:?}", prepared.as_ref().err());
        // Any computing stage in the source's own chain blocks it.
        let computing = source(vec![Stage::StreamOf, Stage::Take { limit: 1 }]);
        prop_assert!(PreparedSource::prepare(&computing).is_err());
        let Ok(prepared) = prepared else {
            return Ok(());
        };
        prop_assert_eq!(prepared.cols.rows(), values.len());
        prop_assert_eq!(prepared.row_bytes, values[0].marshaled_size());
        let (i, j) = match cuts[..] {
            [a, b, ..] => (a % values.len(), b % values.len()),
            _ => (0, values.len() - 1),
        };
        let (i, j) = (i.min(j), i.max(j) + 1);
        let (view, run) = (prepared.cols.slice(i, j), ColumnarBatch::from_values(&values[i..j]));
        let mut rows = Vec::new();
        view.to_values_into(&mut rows);
        prop_assert_eq!(&rows[..], &values[i..j], "rows {}..{}", i, j);
        prop_assert_eq!(view.width(), run.width());
        prop_assert_eq!(view.uniform_row_size(), run.uniform_row_size());
        prop_assert_eq!(
            drive_source(&stages, &values, &prepared, &cuts, true),
            drive_source(&stages, &values, &prepared, &cuts, false)
        );
    }

    /// The column tier (with its per-element fallback) agrees with the
    /// per-element reference on what every batch emits, accumulator state
    /// (via the flush), and errors, over randomized chains — folding,
    /// emitting and declined — and batch streams.
    #[test]
    fn columnar_equals_interpreted(
        stages in proptest::collection::vec(stage(), 1..4),
        batches in proptest::collection::vec(batch_values(), 0..5),
    ) {
        assert_equivalent(&stages, &batches)?;
    }

    /// Relay chains (transforms + take, no absorber) produce — via
    /// column kernels, selection vectors, and one survivor gather —
    /// exactly the per-element outputs, including filters that leave an
    /// empty selection.
    #[test]
    fn relayed_equals_interpreted(
        before in proptest::collection::vec(relay_extra(), 0..2),
        transform in relay_transform(),
        after in proptest::collection::vec(relay_extra(), 0..2),
        batches in proptest::collection::vec(relay_batch(), 0..4),
    ) {
        let mut stages = before;
        stages.push(transform);
        stages.extend(after);
        assert_equivalent(&stages, &batches)?;
    }
}

/// A `bandwidth` chain folds a metric batch and leaves the same
/// accumulator state as per-element execution.
#[test]
fn columnar_pass_absorbs_metric_batches() {
    let stages = [Stage::StreamOf, Stage::Bandwidth];
    let sample = |t: i64, b: i64| {
        Value::Bag(vec![
            Value::Integer(0),
            Value::Integer(t),
            Value::Integer(b),
        ])
    };
    let values = vec![sample(100, 10), sample(250, 20), sample(900, 30)];

    let mut columnar = chain(&stages);
    let admit = columnar
        .admit_cols(&ColumnarBatch::from_values(&values))
        .expect("a metric batch folds into bandwidth");
    assert_eq!(admit.ending, ColumnEnding::Fold);
    assert!(columnar.process_cols(admit).unwrap().is_none());

    let mut scalar = chain(&stages);
    per_element(&mut scalar, &values).unwrap();
    assert_eq!(columnar.finish().unwrap(), scalar.finish().unwrap());
}

/// A declined view whose first failing element fails downstream of an
/// upstream stage that fails on a later element: row 1 completes the
/// window {1, 2} and `arith` rejects 3 * "m"; a breadth-first walk that
/// ignored row order would report `winagg` failing on {2, "x"} (row 2).
#[test]
fn a_declined_run_reports_the_first_failing_element() {
    let stages = [
        Stage::Window(WindowSpec::new(2, 1, AggKind::Sum).expect("valid window")),
        Stage::Arith {
            op: ArithOp::Mul,
            rhs: Value::Str("m".to_string()),
        },
    ];
    let values = vec![
        Value::Integer(1),
        Value::Integer(2),
        Value::Str("x".to_string()),
    ];
    let view = ColumnarBatch::from_values(&values);
    let want = per_element(&mut chain(&stages), &values).unwrap_err();
    let got = deliver(&mut chain(&stages), Delivered::View(&view)).unwrap_err();
    assert_eq!(got.to_string(), want.to_string());
    assert!(want.to_string().contains("arith"), "{want}");
    assert_equivalent(&stages, &[values]).expect("values agree too");
}

/// A chain that neither folds nor transforms is never admitted: emitting
/// its rows untransformed would rebuild every tuple the per-element path
/// forwards anyway.
#[test]
fn relay_chains_decline_the_columnar_pass() {
    for stages in [
        vec![Stage::StreamOf],
        vec![Stage::Take { limit: 4 }],
        vec![Stage::StreamOf, Stage::Take { limit: 4 }],
    ] {
        let values: Vec<Value> = (0..6).map(Value::Integer).collect();
        let cols = ColumnarBatch::from_values(&values);
        assert!(chain(&stages).admit_cols(&cols).is_none(), "{stages:?}");
    }
}

/// Runs `batches` through `stages` once per element and once through the
/// column tier, asserting that every batch is admitted, and compares the
/// two by their `Debug` renderings, errors and the flush included: NaN
/// never equals itself and `-0.0 == 0.0`, so value equality would miss
/// exactly the differences these cases exist to catch.
#[track_caller]
fn assert_fixed_case(stages: &[Stage], batches: &[Vec<Value>]) {
    let run = |columnar: bool| {
        let mut c = chain(stages);
        let mut out = Vec::new();
        for values in batches {
            let res = if columnar {
                let cols = ColumnarBatch::from_values(values);
                assert!(
                    c.admit_cols(&cols).is_some(),
                    "{stages:?} admits {values:?}"
                );
                deliver(&mut c, Delivered::View(&cols))
            } else {
                per_element(&mut c, values)
            };
            match res {
                Ok(rows) => out.extend(rows),
                Err(e) => return format!("{out:?} error {e}"),
            }
        }
        match c.finish() {
            Ok(flushed) => format!("{out:?} flush {flushed:?}"),
            Err(e) => format!("{out:?} flush error {e}"),
        }
    };
    assert_eq!(run(true), run(false), "{stages:?}");
}

/// A `filter` ahead of a numeric fold: the folds only ever see dense
/// survivors, so the cases where a fold over survivors could differ from
/// a fold over a gathered column — NaN, signed zeros, integers past 2^53,
/// order-dependent rounding and a failing survivor — are
/// pinned here against the per-element walk.
#[test]
fn folds_after_a_filter_match_the_scalar_walk() {
    let keep_all = |rhs: Value| Stage::Filter { op: CmpOp::Ne, rhs };
    let fold = |kind| [keep_all(Value::Real(1e300)), Stage::Agg(kind)];
    let reals = |xs: &[f64]| -> Vec<Value> { xs.iter().map(|&x| Value::Real(x)).collect() };
    let nan = f64::NAN;
    for kind in [AggKind::Max, AggKind::Min] {
        // NaN before the best value, after it, and seeding the fold.
        assert_fixed_case(&fold(kind), &[reals(&[1.0, nan, 5.0, nan, -2.0])]);
        assert_fixed_case(&fold(kind), &[reals(&[nan, 3.0, 7.0])]);
        assert_fixed_case(&fold(kind), &[reals(&[4.0, 2.0]), reals(&[nan, 9.0, -9.0])]);
        // Signed-zero ties: the first of equal keys wins.
        assert_fixed_case(&fold(kind), &[reals(&[0.0, -0.0])]);
        assert_fixed_case(&fold(kind), &[reals(&[-0.0, 0.0]), reals(&[0.0, -0.0])]);
    }
    // Two integers past 2^53 with one f64 key: the first one wins.
    let big = 1i64 << 53;
    for kind in [AggKind::Max, AggKind::Min] {
        let stages = [keep_all(Value::Integer(0)), Stage::Agg(kind)];
        assert_fixed_case(
            &stages,
            &[vec![
                Value::Integer(big + 1),
                Value::Integer(big),
                Value::Integer(3),
            ]],
        );
        assert_fixed_case(
            &stages,
            &[vec![
                Value::Integer(3),
                Value::Integer(big),
                Value::Integer(big + 1),
            ]],
        );
    }
    // Rounding that depends on order, with a dropped row in the middle.
    let sum = [
        Stage::Filter {
            op: CmpOp::Lt,
            rhs: Value::Real(1e17),
        },
        Stage::Agg(AggKind::Sum),
    ];
    assert_fixed_case(&sum, &[reals(&[1e16, 1.0, 1e18, 1.0, -1e16, 0.1])]);
    assert_fixed_case(
        &[sum[0].clone(), Stage::Agg(AggKind::Avg)],
        &[reals(&[0.1, 0.2, 1e18, 0.3])],
    );
    // A negative survivor fails the quantile with the scalar text.
    let quantile = |rhs: Value| {
        [
            Stage::Filter { op: CmpOp::Lt, rhs },
            Stage::Quantile { q: 0.5 },
        ]
    };
    assert_fixed_case(
        &quantile(Value::Integer(4)),
        &[vec![
            Value::Integer(3),
            Value::Integer(9),
            Value::Integer(-1),
            Value::Integer(2),
        ]],
    );
    assert_fixed_case(
        &quantile(Value::Real(4.0)),
        &[reals(&[3.5, 9.0, -0.5, 2.0])],
    );
}
