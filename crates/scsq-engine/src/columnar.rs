//! Whole-column compute kernels for the stage chain.
//!
//! The scalar driver ([`crate::ops::StageChain::process_run`]) pays one
//! `StageState` match, one `Value` match, and one move per tuple. For the
//! engine's dominant shapes — long runs of identically-typed tuples
//! flowing into a terminal aggregate — the same work is a single tight
//! loop over a flat array. This module holds those loops: public
//! transform, filter and gather kernels over typed slices, plus the
//! `pub(crate)` folds the chain's column driver (`crate::fused`) uses to
//! absorb a whole batch into a (crate-private) `StageState`
//! accumulator. Every kernel is total: the driver hands each one the
//! slice type its step was lowered for, so there is no wrong-typed
//! input left to reject.
//!
//! Correctness bar: every fold mutates the same `StageState` fields as
//! the scalar step (`StageState::step`) by replaying its per-element
//! updates *in element order* — integer sums use the same wrapping
//! discipline (plain `+=`), float sums accumulate sequentially so the
//! rounding is bit-identical, max/min replace only on the same strict
//! comparison — so a columnar pass and a per-element pass over the same
//! run leave byte-identical state. A fold after a `filter` runs over the
//! gathered survivors, which keeps their order. `tests/columnar_equiv.rs`
//! enforces this against random pipelines.

use crate::error::EngineError;
use crate::ops::{bandwidth_accumulate, quantile_accumulate, ArithOp, CmpOp, MapFunc};
use scsq_ql::column::{Column, ColumnData, SelectionVector, METRIC_COLUMNS};
use scsq_ql::{ColumnarBatch, Value};
use scsq_sim::LatencyHistogram;
use std::borrow::Cow;

/// Lane count of the chunked integer sum: wide enough to fill a 512-bit
/// vector of `i64`, small enough that the scalar drain of a short
/// column stays trivial.
const LANES: usize = 8;

/// A delivered batch, or the column flowing between a column program's
/// steps, as the typed slices the kernels read. Slices borrow the batch
/// until a kernel writes new storage.
#[derive(Debug)]
pub(crate) enum Vals<'a> {
    I64(Cow<'a, [i64]>),
    F64(Cow<'a, [f64]>),
    Bool(Cow<'a, [bool]>),
    /// Row offsets into the byte buffer, as [`Column::as_utf8`] yields.
    Utf8(&'a [u32], &'a [u8]),
    Synthetic(Cow<'a, [u64]>),
    /// The `channel`, `time_ns` and `bytes` columns.
    Metric([&'a [i64]; 3]),
    /// A multi-column record batch, of which only the row count is read.
    Record(usize),
    /// An opaque batch, of which only the row count is read.
    Other(usize),
}

/// A batch's columns, each sliced to its view: the storage [`Vals::of`]
/// borrows.
pub(crate) fn view_columns(cols: &ColumnarBatch) -> Vec<Column> {
    cols.columns()
        .iter()
        .filter_map(|(name, _)| cols.column(name))
        .collect()
}

/// The first `k` rows of a slice.
fn prefix<T: Clone>(xs: Cow<'_, [T]>, k: usize) -> Cow<'_, [T]> {
    match xs {
        Cow::Borrowed(xs) => Cow::Borrowed(&xs[..k]),
        Cow::Owned(mut xs) => {
            xs.truncate(k);
            Cow::Owned(xs)
        }
    }
}

/// The selected rows of a slice, or all of them without a selection.
fn dense<T: Copy>(xs: Cow<'_, [T]>, sel: Option<&SelectionVector>) -> Vec<T> {
    match sel {
        Some(s) => gather(&xs, s),
        None => xs.into_owned(),
    }
}

impl<'a> Vals<'a> {
    /// Classifies a delivered batch, `held` being its
    /// [`view_columns`]. A batch is the metric shape only when its three
    /// columns are the [`METRIC_COLUMNS`] and all hold integers.
    pub(crate) fn of(cols: &ColumnarBatch, held: &'a [Column]) -> Vals<'a> {
        let metric_names = METRIC_COLUMNS
            .iter()
            .zip(cols.columns())
            .all(|(want, (name, _))| name == want);
        match held {
            [c] => {
                if let Some(xs) = c.as_i64() {
                    Vals::I64(xs.into())
                } else if let Some(xs) = c.as_f64() {
                    Vals::F64(xs.into())
                } else if let Some(xs) = c.as_bool() {
                    Vals::Bool(xs.into())
                } else if let Some(xs) = c.as_synthetic() {
                    Vals::Synthetic(xs.into())
                } else if let Some((offsets, bytes)) = c.as_utf8() {
                    Vals::Utf8(offsets, bytes)
                } else {
                    Vals::Other(c.len())
                }
            }
            [a, b, c] if metric_names => match (a.as_i64(), b.as_i64(), c.as_i64()) {
                (Some(a), Some(b), Some(c)) => Vals::Metric([a, b, c]),
                _ => Vals::Record(cols.rows()),
            },
            [_, _, ..] => Vals::Record(cols.rows()),
            [] => Vals::Other(cols.rows()),
        }
    }

    fn len(&self) -> usize {
        match self {
            Vals::I64(xs) => xs.len(),
            Vals::F64(xs) => xs.len(),
            Vals::Bool(xs) => xs.len(),
            Vals::Utf8(offsets, _) => offsets.len().saturating_sub(1),
            Vals::Synthetic(xs) => xs.len(),
            Vals::Metric([xs, ..]) => xs.len(),
            Vals::Record(n) | Vals::Other(n) => *n,
        }
    }

    /// The live rows: the selection's, once a `filter` has run.
    pub(crate) fn live(&self, sel: Option<&SelectionVector>) -> usize {
        sel.map_or_else(|| self.len(), SelectionVector::len)
    }

    /// The first `k` rows (`k` at most the length).
    pub(crate) fn take(self, k: usize) -> Vals<'a> {
        match self {
            Vals::I64(xs) => Vals::I64(prefix(xs, k)),
            Vals::F64(xs) => Vals::F64(prefix(xs, k)),
            Vals::Bool(xs) => Vals::Bool(prefix(xs, k)),
            Vals::Utf8(offsets, bytes) => Vals::Utf8(&offsets[..=k], bytes),
            Vals::Synthetic(xs) => Vals::Synthetic(prefix(xs, k)),
            Vals::Metric(cols) => Vals::Metric(cols.map(|xs| &xs[..k])),
            Vals::Record(_) => Vals::Record(k),
            Vals::Other(_) => Vals::Other(k),
        }
    }

    /// The selected rows of a numeric column, dense: what a fold after a
    /// `filter` reads. `None` for the other types.
    pub(crate) fn gather(self, sel: &SelectionVector) -> Option<Vals<'a>> {
        match self {
            Vals::I64(xs) => Some(Vals::I64(gather(&xs, sel).into())),
            Vals::F64(xs) => Some(Vals::F64(gather(&xs, sel).into())),
            _ => None,
        }
    }

    /// The column an emitting program leaves: the selected rows, in
    /// order (gathered strings become row values). `None` for the types
    /// no emitting program ends with.
    pub(crate) fn emit(self, sel: Option<&SelectionVector>) -> Option<Column> {
        Some(Column::new(match (self, sel) {
            (Vals::I64(xs), sel) => ColumnData::Int64(dense(xs, sel)),
            (Vals::F64(xs), sel) => ColumnData::Float64(dense(xs, sel)),
            (Vals::Bool(xs), sel) => ColumnData::Bool(dense(xs, sel)),
            (Vals::Utf8(offsets, bytes), Some(s)) => {
                ColumnData::Values(gather_utf8(offsets, bytes, s))
            }
            _ => return None,
        }))
    }
}

/// Applies `row op rhs` to every row of an integer column (wrapping,
/// the same discipline as the scalar `arith` stage).
pub fn arith_i64(xs: &[i64], op: ArithOp, rhs: i64) -> Vec<i64> {
    match op {
        ArithOp::Add => xs.iter().map(|x| x.wrapping_add(rhs)).collect(),
        ArithOp::Sub => xs.iter().map(|x| x.wrapping_sub(rhs)).collect(),
        ArithOp::Mul => xs.iter().map(|x| x.wrapping_mul(rhs)).collect(),
    }
}

/// Applies `row op rhs` over `f64` to every row of a numeric column.
/// An integer column passes its rows widened per element
/// (`xs.iter().map(|&x| x as f64)`), exactly as the scalar `arith`
/// stage widens via `Value::as_real`.
pub fn arith_f64(xs: impl Iterator<Item = f64>, op: ArithOp, rhs: f64) -> Vec<f64> {
    match op {
        ArithOp::Add => xs.map(|x| x + rhs).collect(),
        ArithOp::Sub => xs.map(|x| x - rhs).collect(),
        ArithOp::Mul => xs.map(|x| x * rhs).collect(),
    }
}

/// Compares every row of an integer column against `rhs` with exact
/// integer ordering (the scalar `cmp` stage's integer/integer arm),
/// producing a boolean mask.
pub fn cmp_mask_i64(xs: &[i64], op: CmpOp, rhs: i64) -> Vec<bool> {
    match op {
        CmpOp::Lt => xs.iter().map(|x| *x < rhs).collect(),
        CmpOp::Le => xs.iter().map(|x| *x <= rhs).collect(),
        CmpOp::Gt => xs.iter().map(|x| *x > rhs).collect(),
        CmpOp::Ge => xs.iter().map(|x| *x >= rhs).collect(),
        CmpOp::Eq => xs.iter().map(|x| *x == rhs).collect(),
        CmpOp::Ne => xs.iter().map(|x| *x != rhs).collect(),
    }
}

/// Compares every row of a numeric column against `rhs` with raw IEEE
/// `f64` operators — the scalar `cmp` stage's mixed-numeric arm; integer
/// rows arrive widened per element, as in [`arith_f64`].
pub fn cmp_mask_f64(xs: impl Iterator<Item = f64>, op: CmpOp, rhs: f64) -> Vec<bool> {
    match op {
        CmpOp::Lt => xs.map(|x| x < rhs).collect(),
        CmpOp::Le => xs.map(|x| x <= rhs).collect(),
        CmpOp::Gt => xs.map(|x| x > rhs).collect(),
        CmpOp::Ge => xs.map(|x| x >= rhs).collect(),
        CmpOp::Eq => xs.map(|x| x == rhs).collect(),
        CmpOp::Ne => xs.map(|x| x != rhs).collect(),
    }
}

/// Compares every row of a string column — `offsets` delimiting rows of
/// `bytes`, as [`scsq_ql::Column::as_utf8`] yields them — against `rhs`
/// lexicographically (the scalar `cmp` stage's string/string arm),
/// without materializing a per-row `Value`.
pub fn cmp_mask_utf8(offsets: &[u32], bytes: &[u8], op: CmpOp, rhs: &str) -> Vec<bool> {
    let rhs = rhs.as_bytes();
    // Byte-wise comparison equals `str` comparison for UTF-8.
    offsets
        .windows(2)
        .map(|w| op.holds(bytes[w[0] as usize..w[1] as usize].cmp(rhs)))
        .collect()
}

/// Applies an elementwise map function to synthetic-array byte sizes
/// symbolically, exactly like `funcs::apply_map` on synthetic arrays:
/// decimation halves each byte size, `fft`/`power` preserve it.
pub fn map_synthetic(xs: &[u64], f: MapFunc) -> Vec<u64> {
    match f {
        MapFunc::Odd | MapFunc::Even => xs.iter().map(|b| b / 2).collect(),
        MapFunc::Fft | MapFunc::Power => xs.to_vec(),
    }
}

/// Collects the rows of a mask that are true into a selection vector —
/// the filter half of filter+gather.
pub fn filter_to_selection(mask: &[bool]) -> SelectionVector {
    let mut sel = SelectionVector::new();
    for (i, &keep) in mask.iter().enumerate() {
        if keep {
            sel.push(i as u32);
        }
    }
    sel
}

/// Narrows an existing selection by a mask indexed in the *original*
/// row space: row `r` survives when it was already selected and
/// `mask[r]` is true. This is how a second `filter` stage composes with
/// the survivors of the first without gathering the data column in
/// between.
///
/// # Panics
///
/// Panics if a selected row is out of range for the mask.
pub fn intersect_selection(mask: &[bool], sel: &SelectionVector) -> SelectionVector {
    let mut out = SelectionVector::new();
    for &r in sel.rows() {
        if mask[r as usize] {
            out.push(r);
        }
    }
    out
}

/// Gathers the selected rows of a column, in order — the gather half of
/// filter+gather.
///
/// # Panics
///
/// Panics if a selected row is out of range for the column.
pub fn gather<T: Copy>(xs: &[T], sel: &SelectionVector) -> Vec<T> {
    sel.rows().iter().map(|&i| xs[i as usize]).collect()
}

/// Gathers the selected rows of a string column (see [`cmp_mask_utf8`])
/// as row values, at O(selected) values.
///
/// # Panics
///
/// Panics if a selected row is out of range for the column.
pub fn gather_utf8(offsets: &[u32], bytes: &[u8], sel: &SelectionVector) -> Vec<Value> {
    sel.rows()
        .iter()
        .map(|&i| {
            let span = offsets[i as usize] as usize..offsets[i as usize + 1] as usize;
            // Lossless: the column stores UTF-8.
            Value::Str(String::from_utf8_lossy(&bytes[span]).into_owned())
        })
        .collect()
}

/// Folds a whole `Int64` column into a sum/avg accumulator exactly as
/// the scalar step would. Integer addition is associative modulo 2^64,
/// so the fold can run `LANES` independent wrapping accumulators (the
/// shape LLVM turns into vector adds) and still land on the identical
/// sum the sequential per-element path produces. Release builds wrap
/// either way; the lane split only changes *where* a debug build would
/// trip an overflow check, which is why the lanes wrap explicitly while
/// the scalar step's `+=` stays the semantic reference.
pub(crate) fn fold_sum_i64(count: &mut i64, sum_int: &mut i64, xs: &[i64]) {
    *count += xs.len() as i64;
    let mut lanes = [0i64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, x) in lanes.iter_mut().zip(chunk) {
            *lane = lane.wrapping_add(*x);
        }
    }
    let mut acc = lanes
        .into_iter()
        .fold(0i64, |acc, lane| acc.wrapping_add(lane));
    for x in chunks.remainder() {
        acc = acc.wrapping_add(*x);
    }
    *sum_int = sum_int.wrapping_add(acc);
}

/// Folds a whole `Float64` column into a sum/avg accumulator exactly as
/// the scalar step would: sequential adds, so rounding is
/// bit-identical to feeding the elements one at a time. An empty run
/// leaves `saw_real` untouched — the scalar step only flips it per
/// real element seen, and the flush type hangs on it.
pub(crate) fn fold_sum_f64(count: &mut i64, sum_real: &mut f64, saw_real: &mut bool, xs: &[f64]) {
    *count += xs.len() as i64;
    for x in xs {
        *saw_real = true;
        *sum_real += *x;
    }
}

/// Folds a whole numeric column into a max/min accumulator exactly as
/// the scalar step would: one pass in element order, replacing the
/// accumulator only on the step's strict comparison over `f64` keys
/// (`key` widens a row, `value` rebuilds it). So the first of equal
/// keys wins (`-0.0` ties `0.0`, and distinct integers past 2^53 can
/// share a key), and a NaN that seeds the accumulator loses every later
/// comparison.
pub(crate) fn fold_best<T: Copy>(
    count: &mut i64,
    best: &mut Option<Value>,
    xs: &[T],
    key: impl Fn(T) -> f64,
    value: impl Fn(T) -> Value,
    maximize: bool,
) {
    *count += xs.len() as i64;
    let mut cur = best.as_ref().and_then(Value::as_real);
    let mut winner = None;
    for &x in xs {
        let k = key(x);
        if cur.is_none_or(|b| if maximize { k > b } else { k < b }) {
            cur = Some(k);
            winner = Some(x);
        }
    }
    if let Some(x) = winner {
        *best = Some(value(x));
    }
}

/// Folds a decomposed metric-sample run (`channel`/`time_ns`/`bytes`
/// `Int64` columns) into a bandwidth accumulator, as the per-element
/// walk would.
///
/// # Errors
///
/// A row whose timestamp or byte count is negative reproduces the
/// scalar step's "metric sample" type error for the reconstructed bag.
/// The rows before it are folded first, so the state is the partial one
/// the per-element path leaves behind.
pub(crate) fn fold_bandwidth(
    bytes: &mut u64,
    last_nanos: &mut u64,
    channel: &[i64],
    time_ns: &[i64],
    sample_bytes: &[i64],
) -> Result<(), EngineError> {
    let bad = time_ns
        .iter()
        .zip(sample_bytes)
        .position(|(&t, &b)| t < 0 || b < 0);
    let clean = bad.unwrap_or(time_ns.len()).min(sample_bytes.len());
    // Every clean row is non-negative, so the sum and the max need no
    // per-row branch.
    *bytes += sample_bytes[..clean].iter().map(|&v| v as u64).sum::<u64>();
    if let Some(&mx) = time_ns[..clean].iter().max() {
        *last_nanos = (*last_nanos).max(mx as u64);
    }
    match bad {
        Some(r) => {
            let bag = Value::Bag(vec![
                Value::Integer(channel[r]),
                Value::Integer(time_ns[r]),
                Value::Integer(sample_bytes[r]),
            ]);
            bandwidth_accumulate(bytes, last_nanos, &bag)
        }
        None => Ok(()),
    }
}

/// Folds a whole numeric column into a quantile histogram exactly as
/// the scalar step would: row by row, in order, through the scalar
/// accumulate (`value` rebuilds the row's value), so a failing row
/// leaves exactly the partial state the per-element path would.
///
/// # Errors
///
/// The scalar step's "non-negative number" type error for the first
/// negative, NaN or infinite row.
pub(crate) fn fold_quantile<T: Copy>(
    hist: &mut LatencyHistogram,
    xs: &[T],
    value: impl Fn(T) -> Value,
) -> Result<(), EngineError> {
    xs.iter()
        .try_for_each(|&x| quantile_accumulate(hist, &value(x)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::metric_sample;

    fn widen(xs: &[i64]) -> impl Iterator<Item = f64> + '_ {
        xs.iter().map(|&x| x as f64)
    }

    #[test]
    fn filter_and_gather_compose() {
        let c = [5i64, 1, 7, 2, 9];
        let sel = filter_to_selection(&cmp_mask_i64(&c, CmpOp::Lt, 5));
        assert_eq!(sel.rows(), &[1, 3]);
        assert_eq!(gather(&c, &sel), [1, 2]);
    }

    #[test]
    fn selection_survives_non_word_lengths() {
        // 127 rows, a multiple of no lane or word width: an all-true
        // mask keeps every row in order, and a second mask narrows it.
        let n = 127i64;
        let c: Vec<i64> = (0..n).collect();
        let sel = filter_to_selection(&cmp_mask_i64(&c, CmpOp::Lt, n));
        assert_eq!(sel.len(), n as usize);
        assert_eq!(gather(&c, &sel), c);
        let second = cmp_mask_i64(&c, CmpOp::Lt, 64);
        let narrowed = intersect_selection(&second, &sel);
        assert_eq!(narrowed.rows(), (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_selection_batches_flow_through_kernels() {
        // 70 rows (not a word multiple), nothing survives the filter:
        // the empty selection must compose and gather to empty without
        // touching fold state.
        let c: Vec<i64> = (0..70).collect();
        let mask = cmp_mask_i64(&c, CmpOp::Lt, 0);
        let sel = filter_to_selection(&mask);
        assert!(sel.rows().is_empty());
        let taken = gather(&c, &sel);
        assert!(taken.is_empty());
        assert!(intersect_selection(&mask, &sel).rows().is_empty());
        let (mut cnt, mut sum) = (7i64, 40i64);
        fold_sum_i64(&mut cnt, &mut sum, &taken);
        assert_eq!((cnt, sum), (7, 40));
    }

    #[test]
    fn folds_replay_scalar_state_updates() {
        let (mut count, mut sum_int) = (2i64, 10i64);
        fold_sum_i64(&mut count, &mut sum_int, &[1, 2, 3]);
        assert_eq!((count, sum_int), (5, 16));

        let mut best = Some(Value::Integer(5));
        let mut c = 0i64;
        fold_best(
            &mut c,
            &mut best,
            &[3, 9, 9],
            |i| i as f64,
            Value::Integer,
            true,
        );
        assert_eq!(best, Some(Value::Integer(9)));
        fold_best(
            &mut c,
            &mut best,
            &[1, 2],
            |i| i as f64,
            Value::Integer,
            false,
        );
        assert_eq!(best, Some(Value::Integer(1)));

        let mut bestf = None;
        let mut cf = 0i64;
        fold_best(&mut cf, &mut bestf, &[1.5, -2.0], |x| x, Value::Real, false);
        assert_eq!(bestf, Some(Value::Real(-2.0)));
    }

    #[test]
    fn chunked_folds_match_sequential_reference() {
        // Long enough to exercise full lanes plus a remainder.
        let xs: Vec<i64> = (0..1003).map(|i| i * 7 - 2500).collect();
        let (mut count, mut sum) = (0i64, 0i64);
        fold_sum_i64(&mut count, &mut sum, &xs);
        let mut reference = 0i64;
        for &x in &xs {
            reference += x;
        }
        assert_eq!((count, sum), (1003, reference));

        let mut best = None;
        let mut c = 0i64;
        fold_best(&mut c, &mut best, &xs, |i| i as f64, Value::Integer, true);
        assert_eq!(best, Some(Value::Integer(*xs.iter().max().unwrap())));
        let mut best = None;
        fold_best(&mut c, &mut best, &xs, |i| i as f64, Value::Integer, false);
        assert_eq!(best, Some(Value::Integer(*xs.iter().min().unwrap())));

        let fs: Vec<f64> = (0..517).map(|i| ((i * 31) % 97) as f64 - 48.0).collect();
        let mut best = None;
        fold_best(&mut c, &mut best, &fs, |x| x, Value::Real, true);
        // First occurrence of the extremum wins, as in the strict walk.
        let seq_max = fs
            .iter()
            .copied()
            .fold(None::<f64>, |b, x| match b {
                Some(b) if x <= b => Some(b),
                _ => Some(x),
            })
            .unwrap();
        assert_eq!(best, Some(Value::Real(seq_max)));
    }

    #[test]
    fn best_fold_keeps_the_strict_walks_winner() {
        // NaN seeds the accumulator and then loses every strict
        // comparison, so it sticks.
        let mut best = None;
        let mut c = 0i64;
        fold_best(
            &mut c,
            &mut best,
            &[f64::NAN, 3.0, 7.0],
            |x| x,
            Value::Real,
            true,
        );
        assert!(matches!(best, Some(Value::Real(x)) if x.is_nan()));
        // Equal keys: the first row wins, whatever its sign or bits.
        let mut best = None;
        fold_best(&mut c, &mut best, &[0.0, -0.0], |x| x, Value::Real, true);
        assert!(matches!(best, Some(Value::Real(x)) if x.is_sign_positive()));
        let big = 1i64 << 53;
        let mut best = None;
        fold_best(
            &mut c,
            &mut best,
            &[big + 1, big],
            |i| i as f64,
            Value::Integer,
            true,
        );
        assert_eq!(best, Some(Value::Integer(big + 1)));
        // Nothing beats the accumulator: it stays.
        let mut best = Some(Value::Integer(10));
        fold_best(
            &mut c,
            &mut best,
            &[10, 3],
            |i| i as f64,
            Value::Integer,
            true,
        );
        assert_eq!(best, Some(Value::Integer(10)));
    }

    #[test]
    fn arith_kernels_match_scalar_ops() {
        let c = [4i64, -3, i64::MAX];
        assert_eq!(
            arith_i64(&c, ArithOp::Mul, 2),
            [8i64, -6, -2],
            "wrapping multiply mirrors the scalar stage"
        );
        assert_eq!(arith_i64(&c, ArithOp::Sub, 1), [3i64, -4, i64::MAX - 1]);
        // Int rows with a real constant widen to f64.
        assert_eq!(
            arith_f64(widen(&c), ArithOp::Add, 0.5),
            [4.5f64, -2.5, i64::MAX as f64 + 0.5]
        );
        let f = [1.0f64, -2.0];
        assert_eq!(
            arith_f64(f.iter().copied(), ArithOp::Sub, 3.0),
            [-2.0f64, -5.0]
        );
    }

    #[test]
    fn cmp_kernels_match_scalar_ops() {
        let c = [1i64, 5, 5, 9];
        assert_eq!(cmp_mask_i64(&c, CmpOp::Ge, 5), [false, true, true, true]);
        assert_eq!(cmp_mask_i64(&c, CmpOp::Ne, 5), [true, false, false, true]);
        assert_eq!(
            cmp_mask_f64(widen(&c), CmpOp::Lt, 5.5),
            [true, true, true, false]
        );
        // NaN constant compares false everywhere except `!=`.
        let f = [1.0, f64::NAN];
        assert_eq!(
            cmp_mask_f64(f.iter().copied(), CmpOp::Eq, f64::NAN),
            [false, false]
        );
        assert_eq!(
            cmp_mask_f64(f.iter().copied(), CmpOp::Ne, f64::NAN),
            [true, true]
        );

        let s = scsq_ql::Column::from_values(&[
            Value::Str("alpha".into()),
            Value::Str("beta".into()),
            Value::Str("ant".into()),
        ]);
        let (offsets, bytes) = s.as_utf8().unwrap();
        assert_eq!(
            cmp_mask_utf8(offsets, bytes, CmpOp::Lt, "az"),
            [true, false, true]
        );
        assert_eq!(
            cmp_mask_utf8(offsets, bytes, CmpOp::Eq, "beta"),
            [false, true, false]
        );
        let odd = SelectionVector::from_rows(vec![0, 2]);
        assert_eq!(
            gather_utf8(offsets, bytes, &odd),
            [Value::Str("alpha".into()), Value::Str("ant".into())]
        );
    }

    #[test]
    fn map_synthetic_mirrors_apply_map() {
        assert_eq!(map_synthetic(&[100, 7], MapFunc::Odd), [50u64, 3]);
        assert_eq!(map_synthetic(&[100, 7], MapFunc::Fft), [100u64, 7]);
    }

    #[test]
    fn intersect_narrows_existing_selection() {
        let sel = SelectionVector::from_rows(vec![0, 2, 3]);
        let mask = [true, true, false, true, true];
        assert_eq!(intersect_selection(&mask, &sel).rows(), &[0, 3]);
    }

    #[test]
    fn bandwidth_fold_matches_per_sample_accumulation() {
        let (mut bytes, mut last) = (0u64, 0u64);
        fold_bandwidth(&mut bytes, &mut last, &[0, 0], &[100, 300], &[10, 20]).unwrap();
        assert_eq!((bytes, last), (30, 300));

        let (mut b2, mut l2) = (0u64, 0u64);
        for s in [metric_sample(0, 100, 10), metric_sample(0, 300, 20)] {
            bandwidth_accumulate(&mut b2, &mut l2, &s).unwrap();
        }
        assert_eq!((bytes, last), (b2, l2));

        let err = fold_bandwidth(&mut bytes, &mut last, &[0], &[-1], &[5]).unwrap_err();
        assert!(err.to_string().contains("metric sample"));
        assert_eq!((bytes, last), (30, 300), "failed row mutates nothing");

        // The rows before the first negative one fold; none after it do.
        let (mut bytes, mut last) = (0u64, 0u64);
        let err = fold_bandwidth(
            &mut bytes,
            &mut last,
            &[0, 1, 2, 3],
            &[500, 900, 700, 2000],
            &[10, 20, -3, 40],
        )
        .unwrap_err();
        assert!(err.to_string().contains("metric sample"));
        assert_eq!((bytes, last), (30, 900));
    }

    #[test]
    fn selection_extremes_all_none_alternating() {
        let c = [3i64, 8, 1, 9, 4, 7];

        // All-pass: the selection is full and folds see every row.
        let all = filter_to_selection(&cmp_mask_i64(&c, CmpOp::Lt, 100));
        assert_eq!(all.rows(), &[0, 1, 2, 3, 4, 5]);
        let (mut n, mut sum) = (0i64, 0i64);
        fold_sum_i64(&mut n, &mut sum, &gather(&c, &all));
        assert_eq!((n, sum), (6, 32));

        // None-pass: the selection is empty; folds and intersections
        // must leave every accumulator untouched.
        let none = filter_to_selection(&cmp_mask_i64(&c, CmpOp::Gt, 100));
        assert!(none.is_empty());
        let (mut n, mut sum) = (0i64, 0i64);
        fold_sum_i64(&mut n, &mut sum, &gather(&c, &none));
        assert_eq!((n, sum), (0, 0));
        let mut best = None;
        fold_best(
            &mut n,
            &mut best,
            &gather(&c, &none),
            |i| i as f64,
            Value::Integer,
            true,
        );
        assert_eq!(best, None);

        // Alternating: every other row survives; a second filter
        // intersects without re-ordering the original row space.
        let odd_mask = [false, true, false, true, false, true];
        let alternating = filter_to_selection(&odd_mask);
        assert_eq!(alternating.rows(), &[1, 3, 5]);
        let second = cmp_mask_i64(&c, CmpOp::Gt, 7);
        assert_eq!(intersect_selection(&second, &alternating).rows(), &[1, 3]);

        // Intersecting with the extremes collapses predictably.
        assert_eq!(intersect_selection(&odd_mask, &all).rows(), &[1, 3, 5]);
        assert!(intersect_selection(&odd_mask, &none).is_empty());
    }
}
