//! Whole-column compute kernels for the stage chain.
//!
//! The scalar driver ([`crate::ops::StageChain::process_run`]) pays one
//! `StageState` match, one `Value` match, and one move per tuple. For the engine's dominant shapes — long runs of
//! identically-typed tuples flowing into a terminal aggregate — the
//! same work is a single tight loop over a flat array. This module
//! holds those loops: public transform/filter/gather kernels over
//! [`Column`]s (the ones the micro-benches time), plus the `pub(crate)`
//! folds the chain's column driver (`crate::fused`) uses to absorb a
//! whole [`ColumnarBatch`](scsq_ql::column::ColumnarBatch) into a
//! (crate-private) `StageState` accumulator.
//!
//! Correctness bar: every fold mutates the same `StageState` fields as
//! the scalar step (`StageState::step`) by replaying its per-element
//! updates *in element order* — integer sums use the same wrapping
//! discipline (plain `+=`), float sums accumulate sequentially so the
//! rounding is bit-identical, max/min replace only on the same strict
//! comparison — so a columnar pass and a per-element pass over the same
//! run leave byte-identical state. `tests/columnar_equiv.rs` enforces
//! this against random pipelines.

use crate::error::EngineError;
use crate::ops::{bandwidth_accumulate, quantile_accumulate, ArithOp, CmpOp, MapFunc};
use scsq_ql::column::{Column, ColumnData, SelectionVector};
use scsq_ql::Value;
use scsq_sim::LatencyHistogram;

/// Lane count of the chunked fold kernels: wide enough to fill a
/// 512-bit vector of `i64`/`f64`, small enough that the scalar drain of
/// a short column stays trivial.
const LANES: usize = 8;

/// Applies `row op rhs` to every row of an `Int64` column (wrapping,
/// the same discipline as the scalar `arith` stage). `None` when the
/// column is not `Int64`-backed.
pub fn arith_i64(c: &Column, op: ArithOp, rhs: i64) -> Option<Column> {
    let xs = c.as_i64()?;
    let out: Vec<i64> = match op {
        ArithOp::Add => xs.iter().map(|x| x.wrapping_add(rhs)).collect(),
        ArithOp::Sub => xs.iter().map(|x| x.wrapping_sub(rhs)).collect(),
        ArithOp::Mul => xs.iter().map(|x| x.wrapping_mul(rhs)).collect(),
    };
    Some(Column::new(ColumnData::Int64(out)))
}

/// Applies `row op rhs` over `f64` to every row of a numeric column —
/// `Float64` directly, `Int64` widened per element exactly as the
/// scalar `arith` stage widens via `Value::as_real`. Produces a
/// `Float64` column; `None` for non-numeric columns.
pub fn arith_f64(c: &Column, op: ArithOp, rhs: f64) -> Option<Column> {
    fn apply(xs: impl Iterator<Item = f64>, op: ArithOp, rhs: f64) -> Vec<f64> {
        match op {
            ArithOp::Add => xs.map(|x| x + rhs).collect(),
            ArithOp::Sub => xs.map(|x| x - rhs).collect(),
            ArithOp::Mul => xs.map(|x| x * rhs).collect(),
        }
    }
    let out = if let Some(xs) = c.as_f64() {
        apply(xs.iter().copied(), op, rhs)
    } else {
        let xs = c.as_i64()?;
        apply(xs.iter().map(|&x| x as f64), op, rhs)
    };
    Some(Column::new(ColumnData::Float64(out)))
}

/// Compares every row of an `Int64` column against `rhs` with exact
/// integer ordering (the scalar `cmp` stage's integer/integer arm),
/// producing a `Bool` mask. `None` when the column is not
/// `Int64`-backed.
pub fn cmp_mask_i64(c: &Column, op: CmpOp, rhs: i64) -> Option<Column> {
    let xs = c.as_i64()?;
    let out: Vec<bool> = match op {
        CmpOp::Lt => xs.iter().map(|x| *x < rhs).collect(),
        CmpOp::Le => xs.iter().map(|x| *x <= rhs).collect(),
        CmpOp::Gt => xs.iter().map(|x| *x > rhs).collect(),
        CmpOp::Ge => xs.iter().map(|x| *x >= rhs).collect(),
        CmpOp::Eq => xs.iter().map(|x| *x == rhs).collect(),
        CmpOp::Ne => xs.iter().map(|x| *x != rhs).collect(),
    };
    Some(Column::new(ColumnData::Bool(out)))
}

/// Compares every row of a numeric column against `rhs` with raw IEEE
/// `f64` operators (`Int64` rows widen per element) — the scalar `cmp`
/// stage's mixed-numeric arm. Produces a `Bool` mask; `None` for
/// non-numeric columns.
pub fn cmp_mask_f64(c: &Column, op: CmpOp, rhs: f64) -> Option<Column> {
    fn apply(xs: impl Iterator<Item = f64>, op: CmpOp, rhs: f64) -> Vec<bool> {
        match op {
            CmpOp::Lt => xs.map(|x| x < rhs).collect(),
            CmpOp::Le => xs.map(|x| x <= rhs).collect(),
            CmpOp::Gt => xs.map(|x| x > rhs).collect(),
            CmpOp::Ge => xs.map(|x| x >= rhs).collect(),
            CmpOp::Eq => xs.map(|x| x == rhs).collect(),
            CmpOp::Ne => xs.map(|x| x != rhs).collect(),
        }
    }
    let out = if let Some(xs) = c.as_f64() {
        apply(xs.iter().copied(), op, rhs)
    } else {
        let xs = c.as_i64()?;
        apply(xs.iter().map(|&x| x as f64), op, rhs)
    };
    Some(Column::new(ColumnData::Bool(out)))
}

/// Compares every row of a `Utf8` column against `rhs`
/// lexicographically (the scalar `cmp` stage's string/string arm),
/// producing a `Bool` mask over the flat offset/byte storage — no
/// per-row `Value` is materialized. `None` when the column is not
/// `Utf8`-backed.
pub fn cmp_mask_utf8(c: &Column, op: CmpOp, rhs: &str) -> Option<Column> {
    let (offsets, bytes) = c.as_utf8()?;
    let rhs = rhs.as_bytes();
    // Byte-wise comparison equals `str` comparison for UTF-8.
    let out: Vec<bool> = offsets
        .windows(2)
        .map(|w| op.holds(bytes[w[0] as usize..w[1] as usize].cmp(rhs)))
        .collect();
    Some(Column::new(ColumnData::Bool(out)))
}

/// Applies an elementwise map function to a `Synthetic` column
/// symbolically, exactly like `funcs::apply_map` on synthetic arrays:
/// decimation halves each byte size, `fft`/`power` preserve it. `None`
/// when the column is not `Synthetic`-backed.
pub fn map_synthetic(c: &Column, f: MapFunc) -> Option<Column> {
    let xs = c.as_synthetic()?;
    let out: Vec<u64> = match f {
        MapFunc::Odd | MapFunc::Even => xs.iter().map(|b| b / 2).collect(),
        MapFunc::Fft | MapFunc::Power => xs.to_vec(),
    };
    Some(Column::new(ColumnData::Synthetic(out)))
}

/// Collects the rows of a `Bool` column that are true into a selection
/// vector — the filter half of filter+gather. `None` when the column is
/// not `Bool`-backed.
pub fn filter_to_selection(mask: &Column) -> Option<SelectionVector> {
    let xs = mask.as_bool()?;
    let mut sel = SelectionVector::new();
    for (i, &keep) in xs.iter().enumerate() {
        if keep {
            sel.push(i as u32);
        }
    }
    Some(sel)
}

/// Narrows an existing selection by a `Bool` mask indexed in the
/// *original* row space: row `r` survives when it was already selected
/// and `mask[r]` is true. This is how a second `filter` stage
/// composes with the survivors of the first without gathering the data
/// column in between. `None` when the mask is not `Bool`-backed.
pub fn intersect_selection(mask: &Column, sel: &SelectionVector) -> Option<SelectionVector> {
    let xs = mask.as_bool()?;
    let mut out = SelectionVector::new();
    for &r in sel.rows() {
        if xs[r as usize] {
            out.push(r);
        }
    }
    Some(out)
}

/// Gathers the selected rows of a column into a new owned column — the
/// gather half of filter+gather.
///
/// # Panics
///
/// Panics if any selected row is out of range for the column view.
pub fn take(c: &Column, sel: &SelectionVector) -> Column {
    if let Some(xs) = c.as_i64() {
        let out: Vec<i64> = sel.rows().iter().map(|&i| xs[i as usize]).collect();
        return Column::new(ColumnData::Int64(out));
    }
    if let Some(xs) = c.as_f64() {
        let out: Vec<f64> = sel.rows().iter().map(|&i| xs[i as usize]).collect();
        return Column::new(ColumnData::Float64(out));
    }
    if let Some(xs) = c.as_bool() {
        let out: Vec<bool> = sel.rows().iter().map(|&i| xs[i as usize]).collect();
        return Column::new(ColumnData::Bool(out));
    }
    if let Some(xs) = c.as_synthetic() {
        let out: Vec<u64> = sel.rows().iter().map(|&i| xs[i as usize]).collect();
        return Column::new(ColumnData::Synthetic(out));
    }
    // Utf8 and the row fallback gather through `value_at`, staying
    // lossless at O(selected) values.
    let out: Vec<Value> = sel.rows().iter().map(|&i| c.value_at(i as usize)).collect();
    Column::new(ColumnData::Values(out))
}

// ---------------------------------------------------------------------
// pub(crate) folds into the chain's own StageState accumulators.
// ---------------------------------------------------------------------

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

/// Extremum of a non-empty `f64` key slice via `LANES` independent
/// `f64::max`/`f64::min` accumulators — the branch-free shape LLVM
/// vectorizes. Callers must rule out NaN keys first: `max`/`min`
/// silently drop a NaN operand, which would diverge from the
/// scalar step's strict-comparison walk.
fn column_extremum(keys: impl Iterator<Item = f64>, maximize: bool) -> f64 {
    let init = if maximize {
        f64::NEG_INFINITY
    } else {
        f64::INFINITY
    };
    let mut lanes = [init; LANES];
    for (i, k) in keys.enumerate() {
        let lane = &mut lanes[i % LANES];
        *lane = if maximize { lane.max(k) } else { lane.min(k) };
    }
    lanes
        .into_iter()
        .fold(init, |a, l| if maximize { a.max(l) } else { a.min(l) })
}

/// Whether `x` beats `b` under the scalar step's strict max/min
/// comparison over `f64` keys.
fn beats(x: f64, b: f64, maximize: bool) -> bool {
    if maximize {
        x > b
    } else {
        x < b
    }
}

/// Folds a whole `Int64` column into a max/min accumulator: the same
/// first-best strict comparison over `f64` keys the scalar step
/// applies, keeping the original integer value. Runs in two passes —
/// a chunked [`column_extremum`] over the keys, then a scan for the
/// first element whose key equals it — which lands on the same winner
/// as the sequential walk: strict comparison keeps the *first*
/// occurrence of the best key, and equal `f64` keys from distinct
/// integers (possible past 2^53) tie exactly the way the scalar step
/// ties, first one wins.
pub(crate) fn fold_best_i64(count: &mut i64, best: &mut Option<Value>, xs: &[i64], maximize: bool) {
    *count += xs.len() as i64;
    let Some(&first) = xs.first() else { return };
    let m = column_extremum(xs.iter().map(|&i| i as f64), maximize);
    let winner = if m == first as f64 {
        first
    } else {
        xs[xs.iter().position(|&i| i as f64 == m).unwrap()]
    };
    if best
        .as_ref()
        .and_then(Value::as_real)
        .is_none_or(|b| beats(m, b, maximize))
    {
        *best = Some(Value::Integer(winner));
    }
}

/// Folds a whole `Float64` column into a max/min accumulator (see
/// [`fold_best_i64`]). A column containing NaN falls back to the
/// sequential walk: NaN loses every strict comparison, so once a NaN
/// seeds the accumulator it sticks — semantics `f64::max`/`f64::min`
/// cannot reproduce.
pub(crate) fn fold_best_f64(count: &mut i64, best: &mut Option<Value>, xs: &[f64], maximize: bool) {
    *count += xs.len() as i64;
    if xs.is_empty() {
        return;
    }
    let mut cur = best.as_ref().and_then(Value::as_real);
    if xs.iter().any(|x| x.is_nan()) {
        let mut cur_raw: Option<f64> = None;
        for &x in xs {
            if cur.is_none_or(|b| beats(x, b, maximize)) {
                cur = Some(x);
                cur_raw = Some(x);
            }
        }
        if let Some(x) = cur_raw {
            *best = Some(Value::Real(x));
        }
        return;
    }
    let m = column_extremum(xs.iter().copied(), maximize);
    if cur.is_none_or(|b| beats(m, b, maximize)) {
        // -0.0 == 0.0 makes the equality scan honor the same "first of
        // equals wins" rule as the strict walk.
        let winner = xs[xs.iter().position(|&x| x == m).unwrap()];
        *best = Some(Value::Real(winner));
    }
}

/// Folds a decomposed metric-sample run (`channel`/`time_ns`/`bytes`
/// `Int64` columns) into a bandwidth accumulator, row by row in order.
///
/// # Errors
///
/// A row whose timestamp or byte count is negative reproduces the
/// scalar step's "metric sample" type error for the reconstructed bag
/// (state mutated by earlier rows stays mutated, exactly as the
/// per-element path leaves it).
pub(crate) fn fold_bandwidth(
    bytes: &mut u64,
    last_nanos: &mut u64,
    channel: &[i64],
    time_ns: &[i64],
    sample_bytes: &[i64],
) -> Result<(), EngineError> {
    // Negative timestamps/byte counts are the error path, so the hot
    // loop works a chunk at a time: one sign-bit sweep (OR of the raw
    // i64s goes negative iff any element does) clears a whole chunk for
    // branch-free sum/max, and only a dirty chunk replays row by row to
    // reproduce the exact failing sample and the partial state the
    // per-element path would leave behind.
    const CHUNK: usize = 1024;
    let dirty = |xs: &[i64]| xs.iter().fold(0i64, |acc, &v| acc | v) < 0;
    for start in (0..time_ns.len()).step_by(CHUNK) {
        let end = (start + CHUNK).min(time_ns.len());
        let (t, b) = (&time_ns[start..end], &sample_bytes[start..end]);
        if dirty(t) || dirty(b) {
            for ((&ch, &t), &b) in channel[start..end].iter().zip(t).zip(b) {
                if t < 0 || b < 0 {
                    let bag = Value::Bag(vec![
                        Value::Integer(ch),
                        Value::Integer(t),
                        Value::Integer(b),
                    ]);
                    return bandwidth_accumulate(bytes, last_nanos, &bag);
                }
                *bytes += b as u64;
                if t as u64 > *last_nanos {
                    *last_nanos = t as u64;
                }
            }
            unreachable!("a dirty chunk must contain a negative sample");
        }
        *bytes += b.iter().map(|&v| v as u64).sum::<u64>();
        let mx = t.iter().fold(i64::MIN, |a, &v| a.max(v));
        if end > start && mx as u64 > *last_nanos {
            *last_nanos = mx as u64;
        }
    }
    Ok(())
}

/// Folds a whole `Int64` column into a quantile histogram exactly as
/// the scalar step would. Bucket counts are order-independent, but the
/// fold still walks in element order so an error (a negative value)
/// leaves exactly the partial state the per-element path would.
///
/// # Errors
///
/// A negative value reproduces the scalar step's "non-negative number"
/// type error for that element.
pub(crate) fn fold_quantile_i64(
    hist: &mut LatencyHistogram,
    xs: &[i64],
) -> Result<(), EngineError> {
    for &x in xs {
        if x < 0 {
            return quantile_accumulate(hist, &Value::Integer(x));
        }
        hist.record(x as u64);
    }
    Ok(())
}

/// [`fold_quantile_i64`] over a `Float64` column: finite non-negative
/// reals truncate toward zero, exactly as the scalar accumulate does.
///
/// # Errors
///
/// A negative, NaN or infinite value reproduces the scalar step's
/// "non-negative number" type error for that element.
pub(crate) fn fold_quantile_f64(
    hist: &mut LatencyHistogram,
    xs: &[f64],
) -> Result<(), EngineError> {
    for &x in xs {
        if !(x.is_finite() && x >= 0.0) {
            return quantile_accumulate(hist, &Value::Real(x));
        }
        hist.record(x as u64);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Selection-aware folds: same accumulators, but only the rows a filter
// stage kept. These replay the scalar step walk index by index — the
// survivors of a filter are rarely the hot path's long dense run, and
// sequential order is what keeps float rounding byte-identical.
// ---------------------------------------------------------------------

/// [`fold_sum_i64`] restricted to the selected rows.
pub(crate) fn fold_sum_i64_sel(
    count: &mut i64,
    sum_int: &mut i64,
    xs: &[i64],
    sel: &SelectionVector,
) {
    *count += sel.len() as i64;
    for &r in sel.rows() {
        *sum_int = sum_int.wrapping_add(xs[r as usize]);
    }
}

/// [`fold_sum_f64`] restricted to the selected rows.
pub(crate) fn fold_sum_f64_sel(
    count: &mut i64,
    sum_real: &mut f64,
    saw_real: &mut bool,
    xs: &[f64],
    sel: &SelectionVector,
) {
    *count += sel.len() as i64;
    for &r in sel.rows() {
        *saw_real = true;
        *sum_real += xs[r as usize];
    }
}

/// [`fold_best_i64`] restricted to the selected rows.
pub(crate) fn fold_best_i64_sel(
    count: &mut i64,
    best: &mut Option<Value>,
    xs: &[i64],
    sel: &SelectionVector,
    maximize: bool,
) {
    *count += sel.len() as i64;
    let mut cur = best.as_ref().and_then(Value::as_real);
    let mut cur_raw: Option<i64> = None;
    for &r in sel.rows() {
        let i = xs[r as usize];
        let x = i as f64;
        if cur.is_none_or(|b| beats(x, b, maximize)) {
            cur = Some(x);
            cur_raw = Some(i);
        }
    }
    if let Some(i) = cur_raw {
        *best = Some(Value::Integer(i));
    }
}

/// [`fold_best_f64`] restricted to the selected rows.
pub(crate) fn fold_best_f64_sel(
    count: &mut i64,
    best: &mut Option<Value>,
    xs: &[f64],
    sel: &SelectionVector,
    maximize: bool,
) {
    *count += sel.len() as i64;
    let mut cur = best.as_ref().and_then(Value::as_real);
    let mut cur_raw: Option<f64> = None;
    for &r in sel.rows() {
        let x = xs[r as usize];
        if cur.is_none_or(|b| beats(x, b, maximize)) {
            cur = Some(x);
            cur_raw = Some(x);
        }
    }
    if let Some(x) = cur_raw {
        *best = Some(Value::Real(x));
    }
}

/// [`fold_quantile_i64`] restricted to the selected rows.
pub(crate) fn fold_quantile_i64_sel(
    hist: &mut LatencyHistogram,
    xs: &[i64],
    sel: &SelectionVector,
) -> Result<(), EngineError> {
    for &r in sel.rows() {
        let x = xs[r as usize];
        if x < 0 {
            return quantile_accumulate(hist, &Value::Integer(x));
        }
        hist.record(x as u64);
    }
    Ok(())
}

/// [`fold_quantile_f64`] restricted to the selected rows.
pub(crate) fn fold_quantile_f64_sel(
    hist: &mut LatencyHistogram,
    xs: &[f64],
    sel: &SelectionVector,
) -> Result<(), EngineError> {
    for &r in sel.rows() {
        let x = xs[r as usize];
        if !(x.is_finite() && x >= 0.0) {
            return quantile_accumulate(hist, &Value::Real(x));
        }
        hist.record(x as u64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::metric_sample;

    fn ints(xs: &[i64]) -> Column {
        Column::new(ColumnData::Int64(xs.to_vec()))
    }

    #[test]
    fn filter_and_take_compose() {
        let c = ints(&[5, 1, 7, 2, 9]);
        let sel = filter_to_selection(&cmp_mask_i64(&c, CmpOp::Lt, 5).unwrap()).unwrap();
        assert_eq!(sel.rows(), &[1, 3]);
        assert_eq!(take(&c, &sel).as_i64(), Some(&[1i64, 2][..]));
    }

    #[test]
    fn selection_survives_non_word_lengths() {
        // 127 rows, a multiple of no lane or word width: an all-true
        // mask keeps every row in order, and a second mask narrows it.
        let n = 127i64;
        let c = ints(&(0..n).collect::<Vec<i64>>());
        let sel = filter_to_selection(&cmp_mask_i64(&c, CmpOp::Lt, n).unwrap()).unwrap();
        assert_eq!(sel.len(), n as usize);
        assert_eq!(take(&c, &sel).as_i64(), c.as_i64());
        let second = cmp_mask_i64(&c, CmpOp::Lt, 64).unwrap();
        let narrowed = intersect_selection(&second, &sel).unwrap();
        assert_eq!(narrowed.rows(), (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_selection_batches_flow_through_kernels() {
        // 70 rows (not a word multiple), nothing survives the filter:
        // the empty selection must compose and gather to empty without
        // touching fold state.
        let c = ints(&(0..70).collect::<Vec<i64>>());
        let mask = cmp_mask_i64(&c, CmpOp::Lt, 0).unwrap();
        let sel = filter_to_selection(&mask).unwrap();
        assert!(sel.rows().is_empty());
        let taken = take(&c, &sel);
        assert!(taken.is_empty());
        let narrowed = intersect_selection(&mask, &sel).unwrap();
        assert!(narrowed.rows().is_empty());
        let (mut cnt, mut sum) = (7i64, 40i64);
        fold_sum_i64(&mut cnt, &mut sum, taken.as_i64().unwrap());
        assert_eq!((cnt, sum), (7, 40));
    }

    #[test]
    fn folds_replay_scalar_state_updates() {
        let (mut count, mut sum_int) = (2i64, 10i64);
        fold_sum_i64(&mut count, &mut sum_int, &[1, 2, 3]);
        assert_eq!((count, sum_int), (5, 16));

        let mut best = Some(Value::Integer(5));
        let mut c = 0i64;
        fold_best_i64(&mut c, &mut best, &[3, 9, 9], true);
        assert_eq!(best, Some(Value::Integer(9)));
        fold_best_i64(&mut c, &mut best, &[1, 2], false);
        assert_eq!(best, Some(Value::Integer(1)));

        let mut bestf = None;
        let mut cf = 0i64;
        fold_best_f64(&mut cf, &mut bestf, &[1.5, -2.0], false);
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
        fold_best_i64(&mut c, &mut best, &xs, true);
        assert_eq!(best, Some(Value::Integer(*xs.iter().max().unwrap())));
        let mut best = None;
        fold_best_i64(&mut c, &mut best, &xs, false);
        assert_eq!(best, Some(Value::Integer(*xs.iter().min().unwrap())));

        let fs: Vec<f64> = (0..517).map(|i| ((i * 31) % 97) as f64 - 48.0).collect();
        let mut best = None;
        fold_best_f64(&mut c, &mut best, &fs, true);
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
    fn best_fold_nan_falls_back_to_strict_walk() {
        // NaN seeds the accumulator and then loses every strict
        // comparison, so it sticks — the chunked path must defer.
        let mut best = None;
        let mut c = 0i64;
        fold_best_f64(&mut c, &mut best, &[f64::NAN, 3.0, 7.0], true);
        assert!(matches!(best, Some(Value::Real(x)) if x.is_nan()));
    }

    #[test]
    fn arith_kernels_match_scalar_ops() {
        let c = ints(&[4, -3, i64::MAX]);
        assert_eq!(
            arith_i64(&c, ArithOp::Mul, 2).unwrap().as_i64(),
            Some(&[8i64, -6, -2][..]),
            "wrapping multiply mirrors the scalar stage"
        );
        assert_eq!(
            arith_i64(&c, ArithOp::Sub, 1).unwrap().as_i64(),
            Some(&[3i64, -4, i64::MAX - 1][..])
        );
        // Int column with real constant widens to Float64.
        assert_eq!(
            arith_f64(&c, ArithOp::Add, 0.5).unwrap().as_f64(),
            Some(&[4.5f64, -2.5, i64::MAX as f64 + 0.5][..])
        );
        let f = Column::new(ColumnData::Float64(vec![1.0, -2.0]));
        assert_eq!(
            arith_f64(&f, ArithOp::Sub, 3.0).unwrap().as_f64(),
            Some(&[-2.0f64, -5.0][..])
        );
        assert!(arith_i64(&f, ArithOp::Add, 1).is_none());
    }

    #[test]
    fn cmp_kernels_match_scalar_ops() {
        let c = ints(&[1, 5, 5, 9]);
        assert_eq!(
            cmp_mask_i64(&c, CmpOp::Ge, 5).unwrap().as_bool(),
            Some(&[false, true, true, true][..])
        );
        assert_eq!(
            cmp_mask_i64(&c, CmpOp::Ne, 5).unwrap().as_bool(),
            Some(&[true, false, false, true][..])
        );
        assert_eq!(
            cmp_mask_f64(&c, CmpOp::Lt, 5.5).unwrap().as_bool(),
            Some(&[true, true, true, false][..])
        );
        // NaN constant compares false everywhere except `!=`.
        let f = Column::new(ColumnData::Float64(vec![1.0, f64::NAN]));
        assert_eq!(
            cmp_mask_f64(&f, CmpOp::Eq, f64::NAN).unwrap().as_bool(),
            Some(&[false, false][..])
        );
        assert_eq!(
            cmp_mask_f64(&f, CmpOp::Ne, f64::NAN).unwrap().as_bool(),
            Some(&[true, true][..])
        );

        let s = Column::from_values(&[
            Value::Str("alpha".into()),
            Value::Str("beta".into()),
            Value::Str("ant".into()),
        ]);
        assert_eq!(
            cmp_mask_utf8(&s, CmpOp::Lt, "az").unwrap().as_bool(),
            Some(&[true, false, true][..])
        );
        assert_eq!(
            cmp_mask_utf8(&s, CmpOp::Eq, "beta").unwrap().as_bool(),
            Some(&[false, true, false][..])
        );
    }

    #[test]
    fn map_synthetic_mirrors_apply_map() {
        let c = Column::new(ColumnData::Synthetic(vec![100, 7]));
        assert_eq!(
            map_synthetic(&c, MapFunc::Odd).unwrap().as_synthetic(),
            Some(&[50u64, 3][..])
        );
        assert_eq!(
            map_synthetic(&c, MapFunc::Fft).unwrap().as_synthetic(),
            Some(&[100u64, 7][..])
        );
    }

    #[test]
    fn intersect_narrows_existing_selection() {
        let sel = SelectionVector::from_rows(vec![0, 2, 3]);
        let mask = Column::new(ColumnData::Bool(vec![true, true, false, true, true]));
        let out = intersect_selection(&mask, &sel).unwrap();
        assert_eq!(out.rows(), &[0, 3]);
    }

    #[test]
    fn selection_folds_only_touch_selected_rows() {
        let xs = [10i64, 20, 30, 40];
        let sel = SelectionVector::from_rows(vec![1, 3]);
        let (mut count, mut sum) = (0i64, 0i64);
        fold_sum_i64_sel(&mut count, &mut sum, &xs, &sel);
        assert_eq!((count, sum), (2, 60));

        let mut best = None;
        let mut c = 0i64;
        fold_best_i64_sel(&mut c, &mut best, &xs, &sel, false);
        assert_eq!(best, Some(Value::Integer(20)));

        let fs = [1.0f64, -5.0, 2.5, 9.0];
        let (mut count, mut sum, mut saw) = (0i64, 0f64, false);
        fold_sum_f64_sel(&mut count, &mut sum, &mut saw, &fs, &sel);
        assert_eq!((count, sum, saw), (2, 4.0, true));

        let mut best = None;
        fold_best_f64_sel(&mut c, &mut best, &fs, &sel, true);
        assert_eq!(best, Some(Value::Real(9.0)));
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
    }

    #[test]
    fn selection_extremes_all_none_alternating() {
        let c = ints(&[3, 8, 1, 9, 4, 7]);

        // All-pass: the selection is full and folds see every row.
        let all = filter_to_selection(&cmp_mask_i64(&c, CmpOp::Lt, 100).unwrap()).unwrap();
        assert_eq!(all.rows(), &[0, 1, 2, 3, 4, 5]);
        let (mut n, mut sum) = (0i64, 0i64);
        fold_sum_i64_sel(&mut n, &mut sum, c.as_i64().unwrap(), &all);
        assert_eq!((n, sum), (6, 32));

        // None-pass: the selection is empty; folds and intersections
        // must leave every accumulator untouched.
        let none = filter_to_selection(&cmp_mask_i64(&c, CmpOp::Gt, 100).unwrap()).unwrap();
        assert!(none.is_empty());
        let (mut n, mut sum) = (0i64, 0i64);
        fold_sum_i64_sel(&mut n, &mut sum, c.as_i64().unwrap(), &none);
        assert_eq!((n, sum), (0, 0));
        let mut best = None;
        fold_best_i64_sel(&mut n, &mut best, c.as_i64().unwrap(), &none, true);
        assert_eq!(best, None);

        // Alternating: every other row survives; a second filter
        // intersects without re-ordering the original row space.
        let odd_mask = Column::new(ColumnData::Bool(vec![
            false, true, false, true, false, true,
        ]));
        let alternating = filter_to_selection(&odd_mask).unwrap();
        assert_eq!(alternating.rows(), &[1, 3, 5]);
        let second = cmp_mask_i64(&c, CmpOp::Gt, 7).unwrap();
        let both = intersect_selection(&second, &alternating).unwrap();
        assert_eq!(both.rows(), &[1, 3]);

        // Intersecting with the extremes collapses predictably.
        assert_eq!(
            intersect_selection(&odd_mask, &all).unwrap().rows(),
            &[1, 3, 5]
        );
        assert!(intersect_selection(&odd_mask, &none).unwrap().is_empty());
    }
}
