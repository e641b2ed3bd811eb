//! Which delivered batches the column tier takes, pinned by counts.
//!
//! `columnar_equiv.rs` proves the column drivers exact and
//! `columnar_accounting.rs` proves their books balance; this suite pins
//! the admission *decisions* themselves on one query per chain shape:
//! how many batches the column tier took, how many value runs it
//! transposed to get them, how many jitter factors the run drew, what
//! every RP counted in and out, and the static verdict `explain` prints
//! for every stage. Every number is deterministic, so a change to the
//! admission walk that admits or declines one batch more or less fails
//! here by name, and so does a scalar fallback that charges one element
//! more or less.

use scsq_cluster::Environment;
use scsq_engine::{
    admission_verdicts, run_graph, CmpOp, MapFunc, QueryBuilder, QueryGraph, QueryResult,
    RunOptions, Stage,
};
use scsq_ql::{parse_statement, Catalog, Value};

/// Builds and runs `src` (with `v` pre-bound to `v`, when given).
fn run(src: &str, v: Option<Vec<Value>>, options: &RunOptions) -> (QueryGraph, QueryResult) {
    let mut env = Environment::lofar();
    let catalog = Catalog::new();
    let stmt = parse_statement(src).expect("parses");
    let prebound: Vec<(String, Value)> = v
        .into_iter()
        .map(|vals| ("v".to_string(), Value::Bag(vals)))
        .collect();
    let graph = QueryBuilder::new(&mut env, &catalog, options.placement, options)
        .build(&stmt, &prebound)
        .expect("builds");
    let r = run_graph(env, &graph, options).expect("runs");
    (graph, r)
}

/// Runs `src` (with `v` pre-bound to `v`, when given) and renders the
/// pinned facts: batches, transposes and jitter draws, then one line per
/// RP — SPs in creation order, the client last — with its element counts
/// and its stages' verdicts.
fn counts(src: &str, v: Option<Vec<Value>>, options: &RunOptions) -> String {
    let (graph, r) = run(src, v, options);
    let s = r.stats();
    let mut out = format!(
        "batches {} transposes {} draws {}\n",
        s.columnar_batches, s.columnar_transposes, s.jitter_draws
    );
    let pipelines = graph
        .sps
        .iter()
        .map(|sp| &sp.pipeline)
        .chain(std::iter::once(&graph.client));
    for (rp, pipeline) in s.rp_reports.iter().zip(pipelines) {
        out.push_str(&format!(
            "{}/{}: {}\n",
            rp.elements_in,
            rp.elements_out,
            admission_verdicts(&pipeline.stages).join(" | ")
        ));
    }
    out
}

fn small_buffers() -> RunOptions {
    RunOptions {
        mpi_buffer: 2_000,
        ..RunOptions::default()
    }
}

#[track_caller]
fn assert_counts(src: &str, v: Option<Vec<Value>>, options: &RunOptions, want: &str) {
    assert_eq!(counts(src, v, options), want, "{src}");
}

/// A prepared source into `take` → `sum`, forwarded to a final `sum`:
/// both folds take every delivered view, nothing is transposed.
#[test]
fn take_into_sum_folds_every_view() {
    assert_counts(
        "select extract(c) from sp a, sp b, sp c \
         where c=sp(streamof(sum(merge({b}))), 'bg', 0) \
         and b=sp(streamof(sum(take(extract(a), 900))), 'bg', 2) \
         and a=sp(streamof(iota(1,1000)),'bg',1);",
        None,
        &small_buffers(),
        concat!(
            "batches 5 transposes 0 draws 0\n",
            "1000/1000: scalar: chain neither absorbs nor transforms\n",
            "1000/1: columnar | columnar | scalar: after the absorber (sees only the flush)\n",
            "1/1: columnar | scalar: after the absorber (sees only the flush)\n",
            "1/1: \n",
        ),
    );
}

/// Three `arith`s, a `filter`, an `arith` and a `cmp` into `count`: the
/// whole chain folds.
#[test]
fn filter_heavy_chain_folds() {
    assert_counts(
        "select extract(c) from sp a, sp b, sp c \
         where c=sp(streamof(sum(merge({b}))), 'bg', 0) \
         and b=sp(streamof(count(cmp(arith(filter(arith(arith(arith(extract(a), \
         '*', 3), '+', 1), '-', 1), '>', 1500), '*', 2), '<', 7000))), 'bg', 2) \
         and a=sp(streamof(iota(1,1000)),'bg',1);",
        None,
        &small_buffers(),
        concat!(
            "batches 5 transposes 0 draws 0\n",
            "1000/1000: scalar: chain neither absorbs nor transforms\n",
            "1000/1: columnar | columnar | columnar | columnar | columnar | columnar | columnar | scalar: after the absorber (sees only the flush)\n",
            "1/1: columnar | scalar: after the absorber (sees only the flush)\n",
            "1/1: \n",
        ),
    );
}

/// `arith` → `filter` on one SP emits its survivors as column rows,
/// and the `sum` on the next folds them without a transpose.
#[test]
fn two_sp_relay_emits_then_folds() {
    assert_counts(
        "select extract(c) from sp a, sp b, sp c \
         where c=sp(streamof(sum(extract(b))), 'bg', 0) \
         and b=sp(filter(arith(extract(a), '*', 3), '>', 1500), 'bg', 2) \
         and a=sp(streamof(iota(1,1000)),'bg',1);",
        None,
        &small_buffers(),
        concat!(
            "batches 10 transposes 0 draws 0\n",
            "1000/1000: scalar: chain neither absorbs nor transforms\n",
            "1000/500: columnar (relay) | columnar (relay)\n",
            "500/1: columnar | scalar: after the absorber (sees only the flush)\n",
            "1/1: \n",
        ),
    );
}

/// The same relay chain on the client: the result sink takes owned
/// values, so the chain walks per element.
#[test]
fn a_relay_into_the_client_walks_per_element() {
    assert_counts(
        "select filter(arith(extract(a), '*', 3), '>', 1500) from sp a \
         where a=sp(streamof(iota(1,1000)),'bg',1);",
        None,
        &small_buffers(),
        concat!(
            "batches 0 transposes 0 draws 0\n",
            "1000/1000: scalar: chain neither absorbs nor transforms\n",
            "1000/500: columnar (relay) | columnar (relay)\n",
        ),
    );
}

/// `odd` with nothing folding after it: no ending applies, so the chain
/// walks per element and its runs are never transposed; the `count`
/// downstream folds what it forwards. A comparison after the map does
/// not make the chain an emitting one either.
#[test]
fn map_without_an_absorber_stays_scalar() {
    let map_then_cmp = [
        Stage::Map(MapFunc::Odd),
        Stage::Cmp {
            op: CmpOp::Gt,
            rhs: Value::Integer(0),
        },
    ];
    assert_eq!(
        admission_verdicts(&map_then_cmp),
        ["scalar: chain neither absorbs nor transforms"; 2]
    );
    assert_counts(
        "select extract(c) from sp a, sp b, sp c \
         where c=sp(streamof(count(extract(b))), 'bg', 0) \
         and b=sp(odd(extract(a)), 'bg', 2) \
         and a=sp(gen_array(100,60),'bg',1);",
        None,
        &small_buffers(),
        concat!(
            "batches 2 transposes 2 draws 0\n",
            "60/60: \n",
            "60/60: scalar: chain neither absorbs nor transforms\n",
            "60/1: columnar | scalar: after the absorber (sees only the flush)\n",
            "1/1: \n",
        ),
    );
}

/// Metric samples forwarded from `metrics(a)` reach `bandwidth` as the
/// three-column metric shape and fold.
#[test]
fn forwarded_metric_samples_fold_into_bandwidth() {
    assert_counts(
        "select extract(w) from sp a, sp b, sp m, sp w \
         where w=sp(streamof(bandwidth(extract(m))), 'bg', 4) \
         and m=sp(metrics(a), 'bg', 3) \
         and b=sp(streamof(count(extract(a))), 'bg', 0) \
         and a=sp(gen_array(100,300),'bg',1);",
        None,
        &small_buffers(),
        concat!(
            "batches 18 transposes 18 draws 0\n",
            "300/300: \n",
            "17/17: \n",
            "300/1: columnar | scalar: after the absorber (sees only the flush)\n",
            "17/1: columnar | scalar: after the absorber (sees only the flush)\n",
            "1/1: \n",
        ),
    );
}

/// A bag of two-field records reaches `take` → `count` as parallel
/// columns and folds.
#[test]
fn record_batches_fold_into_count() {
    let records = (0..400)
        .map(|i| Value::Bag(vec![Value::Integer(i), Value::Real(i as f64 / 4.0)]))
        .collect();
    assert_counts(
        "select extract(b) from sp a, sp b \
         where b=sp(streamof(count(take(extract(a), 300))), 'bg', 0) \
         and a=sp(streamof(v),'bg',1);",
        Some(records),
        &small_buffers(),
        concat!(
            "batches 5 transposes 0 draws 0\n",
            "400/400: scalar: chain neither absorbs nor transforms\n",
            "400/1: columnar | columnar | scalar: after the absorber (sees only the flush)\n",
            "1/1: \n",
        ),
    );
}

/// Small buffers and 5 % service jitter: every service charged draws one
/// factor, so the draw count pins how many elements the run charged.
fn jittered() -> RunOptions {
    RunOptions {
        service_jitter: 0.05,
        ..small_buffers()
    }
}

/// The benchmark's declined leg, at 1 000 elements.
const WINAGG_DECLINED: &str = "select extract(c) from sp a, sp b, sp c \
     where c=sp(streamof(sum(merge({b}))), 'bg', 0) \
     and b=sp(streamof(sum(winagg(extract(a), 4, 4, 'sum'))), 'bg', 2) \
     and a=sp(streamof(iota(1,1000)),'bg',1);";

/// `winagg` has no kernel: its chain declines every batch, and only the
/// `sum` it forwards to folds.
#[test]
fn winagg_declines() {
    assert_counts(
        WINAGG_DECLINED,
        None,
        &jittered(),
        concat!(
            "batches 0 transposes 0 draws 1014\n",
            "1000/1000: scalar: chain neither absorbs nor transforms\n",
            "1000/1: scalar: no whole-column kernel | scalar: chain blocked by a non-vectorizable stage | scalar: chain blocked by a non-vectorizable stage\n",
            "1/1: columnar | scalar: after the absorber (sees only the flush)\n",
            "1/1: \n",
        ),
    );
}

/// An `arith` before the `winagg` makes the declined chain charge
/// compute: one draw per element it takes, on the row-by-row walk.
#[test]
fn a_costly_winagg_chain_declines() {
    assert_counts(
        "select extract(c) from sp a, sp b, sp c \
         where c=sp(streamof(sum(merge({b}))), 'bg', 0) \
         and b=sp(streamof(sum(winagg(arith(extract(a), '*', 3), 4, 4, 'sum'))), 'bg', 2) \
         and a=sp(streamof(iota(1,1000)),'bg',1);",
        None,
        &jittered(),
        concat!(
            "batches 0 transposes 0 draws 2014\n",
            "1000/1000: scalar: chain neither absorbs nor transforms\n",
            "1000/1: scalar: chain blocked by a non-vectorizable stage | scalar: no whole-column kernel | scalar: chain blocked by a non-vectorizable stage | scalar: chain blocked by a non-vectorizable stage\n",
            "1/1: columnar | scalar: after the absorber (sees only the flush)\n",
            "1/1: \n",
        ),
    );
}

/// `take` ahead of the `winagg`: the declined run stops feeding the
/// window mid-buffer, and the flush covers the last partial window.
#[test]
fn take_into_winagg_declines() {
    assert_counts(
        "select extract(c) from sp a, sp b, sp c \
         where c=sp(streamof(sum(merge({b}))), 'bg', 0) \
         and b=sp(streamof(sum(winagg(take(extract(a), 901), 4, 4, 'sum'))), 'bg', 2) \
         and a=sp(streamof(iota(1,1000)),'bg',1);",
        None,
        &jittered(),
        concat!(
            "batches 0 transposes 0 draws 1014\n",
            "1000/1000: scalar: chain neither absorbs nor transforms\n",
            "1000/1: scalar: chain blocked by a non-vectorizable stage | scalar: no whole-column kernel | scalar: chain blocked by a non-vectorizable stage | scalar: chain blocked by a non-vectorizable stage\n",
            "1/1: columnar | scalar: after the absorber (sees only the flush)\n",
            "1/1: \n",
        ),
    );
}

/// A record-bag source reaches the `winagg` as two-column views, which
/// the declined chain takes back as one bag per row.
#[test]
fn a_record_run_into_winagg_declines() {
    let records = (0..400)
        .map(|i| Value::Bag(vec![Value::Integer(i), Value::Real(i as f64 / 4.0)]))
        .collect();
    assert_counts(
        "select extract(b) from sp a, sp b \
         where b=sp(streamof(sum(winagg(extract(a), 3, 2, 'count'))), 'bg', 0) \
         and a=sp(streamof(v),'bg',1);",
        Some(records),
        &jittered(),
        concat!(
            "batches 0 transposes 0 draws 412\n",
            "400/400: scalar: chain neither absorbs nor transforms\n",
            "400/1: scalar: no whole-column kernel | scalar: chain blocked by a non-vectorizable stage | scalar: chain blocked by a non-vectorizable stage\n",
            "1/1: \n",
        ),
    );
}

/// `explain analyze` of the declined leg, less its wall-clock columns
/// (every line with a `%`): per-RP counts and per-stage tallies are
/// exact whichever way the scalar tier walks a run.
#[test]
fn declined_explain_analyze_tallies() {
    let options = RunOptions {
        profile: true,
        ..jittered()
    };
    let (_, r) = run(WINAGG_DECLINED, None, &options);
    let report = r.stats().profile.as_ref().expect("a profiled run");
    let text: String = report
        .render()
        .lines()
        .filter(|l| !l.contains('%'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        text,
        concat!(
            "rp#0 @ bg:1: const[1000 values] | in 1000 out 1000\n",
            "  streamof                            1         1000         1000\n",
            "rp#1 @ bg:2: receive[sp#0] | in 1000 out 1\n",
            "  winagg(4, 4, sum)                1000         1000          250\n",
            "  sum                               250          250            0\n",
            "  streamof                            1            1            1\n",
            "rp#2 @ bg:0: receive[sp#1] | in 1 out 1\n",
            "  sum                                 1            1            0\n",
            "  streamof                            1            1            1\n",
            "rp#3 client @ fe:0: receive[sp#2] | in 1 out 1\n",
            "coalescer: 0 digests, 0 jumps (0.0 digests/jump); 25 events dispatched, 0 skipped\n",
        )
    );
}

/// A 13-byte buffer cuts a prepared source of 9-byte integers into 28
/// deliveries of one or two rows: a one-row view is still a batch, for
/// the fold and for the relay alike (a one-value run never is).
#[test]
fn one_row_views_are_batches() {
    let options = RunOptions {
        mpi_buffer: 13,
        ..RunOptions::default()
    };
    assert_counts(
        "select extract(b) from sp a, sp b \
         where b=sp(streamof(sum(extract(a))), 'bg', 0) \
         and a=sp(streamof(iota(1,40)),'bg',1);",
        None,
        &options,
        concat!(
            "batches 28 transposes 0 draws 0\n",
            "40/40: scalar: chain neither absorbs nor transforms\n",
            "40/1: columnar | scalar: after the absorber (sees only the flush)\n",
            "1/1: \n",
        ),
    );
    assert_counts(
        "select extract(c) from sp a, sp b, sp c \
         where c=sp(streamof(sum(extract(b))), 'bg', 0) \
         and b=sp(arith(extract(a), '+', 1), 'bg', 2) \
         and a=sp(streamof(iota(1,40)),'bg',1);",
        None,
        &options,
        concat!(
            "batches 56 transposes 0 draws 0\n",
            "40/40: scalar: chain neither absorbs nor transforms\n",
            "40/40: columnar (relay)\n",
            "40/1: columnar | scalar: after the absorber (sees only the flush)\n",
            "1/1: \n",
        ),
    );
}

/// The admission matrix's stage alphabet: every aggregate, the pass-
/// through and absorbing stages, a `map`, a `winagg`, and `arith` /
/// `cmp` / `filter` against an integer, a real and a string constant.
fn matrix_alphabet() -> Vec<Stage> {
    use scsq_engine::window::WindowSpec;
    use scsq_engine::{AggKind, ArithOp};
    let consts = [
        Value::Integer(2),
        Value::Real(1.5),
        Value::Str("m".to_string()),
    ];
    let mut stages: Vec<Stage> = [
        AggKind::Count,
        AggKind::Sum,
        AggKind::Max,
        AggKind::Min,
        AggKind::Avg,
    ]
    .into_iter()
    .map(Stage::Agg)
    .collect();
    stages.extend([
        Stage::StreamOf,
        Stage::Take { limit: 2 },
        Stage::Bandwidth,
        Stage::Quantile { q: 0.5 },
        Stage::Map(MapFunc::Odd),
        Stage::Window(WindowSpec::new(2, 2, AggKind::Sum).expect("valid window")),
    ]);
    for rhs in consts {
        stages.push(Stage::Arith {
            op: ArithOp::Mul,
            rhs: rhs.clone(),
        });
        stages.push(Stage::Cmp {
            op: CmpOp::Gt,
            rhs: rhs.clone(),
        });
        stages.push(Stage::Filter { op: CmpOp::Lt, rhs });
    }
    stages
}

/// One batch of each shape a delivery can present — integer, real,
/// boolean, string, synthetic, metric, record and opaque — plus string
/// and synthetic runs whose rows differ in marshaled size (which a
/// costly chain must decline) and an empty view.
fn matrix_batches() -> Vec<(&'static str, scsq_ql::ColumnarBatch)> {
    use scsq_ql::ColumnarBatch;
    let strs =
        |xs: &[&str]| -> Vec<Value> { xs.iter().map(|s| Value::Str(s.to_string())).collect() };
    let sample = |t: i64, b: i64| {
        Value::Bag(vec![
            Value::Integer(0),
            Value::Integer(t),
            Value::Integer(b),
        ])
    };
    let shapes: Vec<(&str, Vec<Value>)> = vec![
        ("int", (1..=3).map(Value::Integer).collect()),
        ("float", [1.5, -2.0, 3.25].map(Value::Real).to_vec()),
        ("bool", [true, false, true].map(Value::Bool).to_vec()),
        ("str", strs(&["ab", "mz", "zz"])),
        (
            "synthetic",
            [64, 64, 64].map(Value::synthetic_array).to_vec(),
        ),
        (
            "metric",
            vec![sample(100, 10), sample(250, 20), sample(900, 30)],
        ),
        (
            "record",
            (0..3)
                .map(|i| Value::Bag(vec![Value::Integer(i), Value::Real(i as f64 / 4.0)]))
                .collect(),
        ),
        (
            "other",
            vec![
                Value::Integer(1),
                Value::Str("x".to_string()),
                Value::Bool(true),
            ],
        ),
        ("str-ragged", strs(&["a", "mzz", "zz"])),
        (
            "synthetic-ragged",
            [64, 128, 64].map(Value::synthetic_array).to_vec(),
        ),
    ];
    let mut batches: Vec<(&str, ColumnarBatch)> = shapes
        .into_iter()
        .map(|(name, vs)| (name, ColumnarBatch::from_values(&vs)))
        .collect();
    let empty = batches[0].1.slice(0, 0);
    batches.push(("empty", empty));
    batches
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every chain of one to three stages over [`matrix_alphabet`] against
/// every batch of [`matrix_batches`]: admit or decline, the ending, the
/// row count and the charged element size, plus the chain's `explain`
/// verdicts. The per-shape admit / fold / emit counts and a digest of
/// the whole rendering pin every admission decision at once.
#[test]
fn admission_matrix() {
    use scsq_engine::ops::StageChain;
    use scsq_engine::{ColumnEnding, InputKind, Pipeline};
    let alphabet = matrix_alphabet();
    let batches = matrix_batches();
    let mut chains: Vec<Vec<Stage>> = alphabet.iter().map(|s| vec![s.clone()]).collect();
    for len in 2..=3 {
        let longer: Vec<Vec<Stage>> = chains
            .iter()
            .filter(|c| c.len() == len - 1)
            .flat_map(|c| {
                alphabet.iter().map(move |s| {
                    let mut c = c.clone();
                    c.push(s.clone());
                    c
                })
            })
            .collect();
        chains.extend(longer);
    }
    assert_eq!(chains.len(), 20 + 20 * 20 + 20 * 20 * 20);
    let mut render = String::new();
    let mut tally = vec![[0u32; 3]; batches.len()];
    for stages in &chains {
        let chain = StageChain::new(&Pipeline {
            input: InputKind::Const {
                values: Vec::new().into(),
            },
            stages: stages.clone(),
        });
        render.push_str(&format!(
            "{stages:?} [{}]",
            admission_verdicts(stages).join(" | ")
        ));
        for ((name, batch), counts) in batches.iter().zip(&mut tally) {
            match chain.admit_cols(batch) {
                None => render.push_str(&format!(" {name}=-")),
                Some(admit) => {
                    counts[0] += 1;
                    let ending = match admit.ending {
                        ColumnEnding::Fold => {
                            counts[1] += 1;
                            "fold"
                        }
                        ColumnEnding::Emit => {
                            counts[2] += 1;
                            "emit"
                        }
                    };
                    render.push_str(&format!(
                        " {name}={ending}/{}/{}",
                        admit.rows, admit.elem_bytes
                    ));
                }
            }
        }
        render.push('\n');
    }
    let counts: String = batches
        .iter()
        .zip(&tally)
        .map(|((name, _), [a, f, e])| format!("{name}: {a} admitted, {f} fold, {e} emit\n"))
        .collect();
    assert_eq!(
        counts,
        concat!(
            "int: 3644 admitted, 3278 fold, 366 emit\n",
            "float: 3644 admitted, 3278 fold, 366 emit\n",
            "bool: 425 admitted, 425 fold, 0 emit\n",
            "str: 525 admitted, 475 fold, 50 emit\n",
            "synthetic: 450 admitted, 450 fold, 0 emit\n",
            "metric: 850 admitted, 850 fold, 0 emit\n",
            "record: 425 admitted, 425 fold, 0 emit\n",
            "other: 115 admitted, 115 fold, 0 emit\n",
            "str-ragged: 115 admitted, 115 fold, 0 emit\n",
            "synthetic-ragged: 115 admitted, 115 fold, 0 emit\n",
            "empty: 0 admitted, 0 fold, 0 emit\n",
        )
    );
    assert_eq!(
        format!("{:016x}", fnv1a(render.as_bytes())),
        "afa4c33905bedaa5",
        "the rendering changed"
    );
}
