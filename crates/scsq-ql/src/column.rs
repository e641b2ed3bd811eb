//! Typed columnar batches.
//!
//! Streams deliver runs of [`Value`]s, and every consumer of a row then
//! re-discovers its type with a `match`. The columnar alternative: a
//! [`Column`] is one typed array, a [`ColumnarBatch`] is a set of named
//! columns of equal length, and both clone and slice in O(1) by sharing
//! `Arc`s. SCSQL objects have no null, so columns are dense — every row
//! holds a value. [`ColumnarBatch::from_values`] and
//! [`ColumnarBatch::to_values_into`] invert each other exactly, so the
//! engine can pick per delivery whether a run is worth transposing.

use crate::value::{ArrayData, Value};
use std::sync::Arc;

/// The typed backing storage of a [`Column`].
///
/// Homogeneous runs of primitives get a flat array; everything the
/// typed layouts cannot express losslessly (bags, materialized arrays,
/// handles, mixed runs) falls back to [`ColumnData::Values`], which is
/// exactly the row representation and therefore always available.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers ([`Value::Integer`]).
    Int64(Vec<i64>),
    /// 64-bit floats ([`Value::Real`]).
    Float64(Vec<f64>),
    /// Booleans ([`Value::Bool`]).
    Bool(Vec<bool>),
    /// Strings ([`Value::Str`]), stored as one byte buffer with
    /// `offsets.len() == rows + 1` delimiting offsets.
    Utf8 {
        /// Row `i` spans `bytes[offsets[i] as usize..offsets[i + 1] as usize]`.
        offsets: Vec<u32>,
        /// Concatenated UTF-8 payload of every row.
        bytes: Vec<u8>,
    },
    /// Synthetic arrays ([`crate::ArrayData::Synthetic`]), stored as
    /// their simulated byte sizes.
    Synthetic(Vec<u64>),
    /// Lossless row fallback for values the typed layouts cannot hold.
    Values(Vec<Value>),
}

impl ColumnData {
    /// Number of rows stored.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Utf8 { offsets, .. } => offsets.len().saturating_sub(1),
            ColumnData::Synthetic(v) => v.len(),
            ColumnData::Values(v) => v.len(),
        }
    }

    /// Whether the storage holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A shared, immutable typed column with a sub-range view.
///
/// Cloning and [slicing](Column::slice) are O(1): both share the backing
/// [`ColumnData`] by `Arc` and adjust only the view bounds. Typed
/// accessors ([`Column::as_i64`] and friends) return the viewed range
/// of the flat array when the storage matches, letting kernels run one
/// tight loop per column instead of one dispatch per element.
#[derive(Debug, Clone)]
pub struct Column {
    data: Arc<ColumnData>,
    start: usize,
    end: usize,
}

impl Column {
    /// Wraps storage, viewing every row.
    pub fn new(data: ColumnData) -> Self {
        let len = data.len();
        Column {
            data: Arc::new(data),
            start: 0,
            end: len,
        }
    }

    /// Builds a column from a run of row values, choosing the narrowest
    /// typed layout that holds every row losslessly; heterogeneous runs
    /// (or kinds without a typed layout) fall back to
    /// [`ColumnData::Values`].
    pub fn from_values(values: &[Value]) -> Self {
        Column::new(column_data_from_values(values))
    }

    /// Number of rows in view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A narrower O(1) view of the same storage.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    pub fn slice(&self, start: usize, end: usize) -> Column {
        assert!(start <= end && end <= self.len(), "slice out of range");
        Column {
            data: Arc::clone(&self.data),
            start: self.start + start,
            end: self.start + end,
        }
    }

    /// The viewed rows as a flat `i64` slice, when backed by
    /// [`ColumnData::Int64`].
    pub fn as_i64(&self) -> Option<&[i64]> {
        match &*self.data {
            ColumnData::Int64(v) => Some(&v[self.start..self.end]),
            _ => None,
        }
    }

    /// The viewed rows as a flat `f64` slice, when backed by
    /// [`ColumnData::Float64`].
    pub fn as_f64(&self) -> Option<&[f64]> {
        match &*self.data {
            ColumnData::Float64(v) => Some(&v[self.start..self.end]),
            _ => None,
        }
    }

    /// The viewed rows as a flat `bool` slice, when backed by
    /// [`ColumnData::Bool`].
    pub fn as_bool(&self) -> Option<&[bool]> {
        match &*self.data {
            ColumnData::Bool(v) => Some(&v[self.start..self.end]),
            _ => None,
        }
    }

    /// The viewed rows as synthetic-array byte sizes, when backed by
    /// [`ColumnData::Synthetic`].
    pub fn as_synthetic(&self) -> Option<&[u64]> {
        match &*self.data {
            ColumnData::Synthetic(v) => Some(&v[self.start..self.end]),
            _ => None,
        }
    }

    /// The viewed rows as raw UTF-8 storage — `(offsets, bytes)` with
    /// `offsets.len() == self.len() + 1` and row `i` spanning
    /// `bytes[offsets[i] as usize..offsets[i + 1] as usize]` — when
    /// backed by [`ColumnData::Utf8`]. This is the flat form string
    /// kernels iterate without per-row dispatch.
    pub fn as_utf8(&self) -> Option<(&[u32], &[u8])> {
        match &*self.data {
            ColumnData::Utf8 { offsets, bytes } => {
                Some((&offsets[self.start..=self.end], bytes.as_slice()))
            }
            _ => None,
        }
    }

    /// The row value at view-relative row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.len()`.
    pub fn value_at(&self, row: usize) -> Value {
        assert!(row < self.len(), "column row out of range");
        let i = self.start + row;
        match &*self.data {
            ColumnData::Int64(v) => Value::Integer(v[i]),
            ColumnData::Float64(v) => Value::Real(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Utf8 { offsets, bytes } => {
                let span = offsets[i] as usize..offsets[i + 1] as usize;
                Value::Str(
                    std::str::from_utf8(&bytes[span])
                        .expect("column stores UTF-8")
                        .to_string(),
                )
            }
            ColumnData::Synthetic(v) => Value::Array(ArrayData::Synthetic { bytes: v[i] }),
            ColumnData::Values(v) => v[i].clone(),
        }
    }
}

/// Ascending row indices selected out of a column view — the output of
/// filter kernels, consumed by gather/`take` kernels. Keeping a
/// selection instead of copying survivors lets a filter cost O(matches)
/// rather than O(rows × row width).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelectionVector {
    rows: Vec<u32>,
}

impl SelectionVector {
    /// An empty selection.
    pub fn new() -> Self {
        SelectionVector::default()
    }

    /// Wraps pre-computed ascending row indices.
    ///
    /// # Panics
    ///
    /// Panics if the indices are not strictly ascending.
    pub fn from_rows(rows: Vec<u32>) -> Self {
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "selection rows must be strictly ascending"
        );
        SelectionVector { rows }
    }

    /// Appends a row index (must exceed every index already present).
    ///
    /// # Panics
    ///
    /// Panics if `row` does not exceed the last stored index.
    pub fn push(&mut self, row: u32) {
        assert!(
            self.rows.last().is_none_or(|&last| row > last),
            "selection rows must be strictly ascending"
        );
        self.rows.push(row);
    }

    /// Keeps only the first `n` selected rows (no-op when `n >= len` —
    /// how `take` caps a filtered run without re-validating order).
    pub fn truncate(&mut self, n: usize) {
        self.rows.truncate(n);
    }

    /// The selected row indices, ascending.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Column names used when a metric-sample run is decomposed into typed
/// columns (`{channel, time_ns, bytes}` — the bag layout `metrics(p)`
/// emits).
pub const METRIC_COLUMNS: [&str; 3] = ["channel", "time_ns", "bytes"];

/// A set of equally long named [`Column`]s with O(1) clone and slice.
///
/// One columnar batch represents a run of tuples, transposed.
/// Single-column batches hold the run under the name `"v"`; runs of
/// metric-sample bags (`{channel, time_ns, bytes}` integer triples)
/// decompose into the three [`METRIC_COLUMNS`], which
/// [`ColumnarBatch::value_at`] reassembles exactly.
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    columns: Arc<Vec<(String, Column)>>,
    start: usize,
    end: usize,
}

impl ColumnarBatch {
    /// Wraps named columns.
    ///
    /// # Panics
    ///
    /// Panics if the columns differ in length.
    pub fn new(columns: Vec<(String, Column)>) -> Self {
        let rows = columns.first().map_or(0, |(_, c)| c.len());
        assert!(
            columns.iter().all(|(_, c)| c.len() == rows),
            "columns must be equally long"
        );
        ColumnarBatch {
            columns: Arc::new(columns),
            start: 0,
            end: rows,
        }
    }

    /// Transposes a run of row values into columns.
    ///
    /// A non-empty run in which every row is a metric-sample bag (a
    /// three-integer `Bag`) becomes the three [`METRIC_COLUMNS`]; a run
    /// of *record* bags — every row a `Bag` of the same arity `m ≥ 2` —
    /// becomes `m` parallel columns named `"c0".."c{m-1}"`, each
    /// in its narrowest typed layout; any other run becomes one column
    /// named `"v"` via [`Column::from_values`].
    pub fn from_values(values: &[Value]) -> Self {
        if !values.is_empty() && values.iter().all(is_metric_sample) {
            let mut channel = Vec::with_capacity(values.len());
            let mut time_ns = Vec::with_capacity(values.len());
            let mut bytes = Vec::with_capacity(values.len());
            for v in values {
                let items = v.as_bag().expect("checked: metric bag");
                channel.push(items[0].as_integer().expect("checked: integer"));
                time_ns.push(items[1].as_integer().expect("checked: integer"));
                bytes.push(items[2].as_integer().expect("checked: integer"));
            }
            return ColumnarBatch::new(vec![
                (
                    METRIC_COLUMNS[0].to_string(),
                    Column::new(ColumnData::Int64(channel)),
                ),
                (
                    METRIC_COLUMNS[1].to_string(),
                    Column::new(ColumnData::Int64(time_ns)),
                ),
                (
                    METRIC_COLUMNS[2].to_string(),
                    Column::new(ColumnData::Int64(bytes)),
                ),
            ]);
        }
        if let Some(width) = uniform_record_width(values) {
            let mut cells: Vec<Vec<Value>> = vec![Vec::with_capacity(values.len()); width];
            for v in values {
                let items = v.as_bag().expect("checked: record bag");
                for (col, cell) in cells.iter_mut().zip(items) {
                    col.push(cell.clone());
                }
            }
            return ColumnarBatch::new(
                cells
                    .into_iter()
                    .enumerate()
                    .map(|(i, col)| (format!("c{i}"), Column::from_values(&col)))
                    .collect(),
            );
        }
        ColumnarBatch::new(vec![("v".to_string(), Column::from_values(values))])
    }

    /// Number of rows in view.
    pub fn rows(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The named columns (name, full-run column) backing this view.
    /// Use [`ColumnarBatch::column`] for view-sliced access.
    pub fn columns(&self) -> &[(String, Column)] {
        &self.columns
    }

    /// The view-sliced column called `name`, if present.
    pub fn column(&self, name: &str) -> Option<Column> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.slice(self.start, self.end))
    }

    /// The view-sliced only column, when the batch has exactly one.
    pub fn single(&self) -> Option<Column> {
        match &self.columns[..] {
            [(_, c)] => Some(c.slice(self.start, self.end)),
            _ => None,
        }
    }

    /// Whether `other` is a view of the *same* backing column set (by
    /// `Arc` identity) with identical view bounds. This is the equality
    /// notion the transport uses for relayed column views: two views are
    /// interchangeable only when they share storage, so value-equal but
    /// separately built batches compare unequal on purpose.
    pub fn same_view(&self, other: &ColumnarBatch) -> bool {
        Arc::ptr_eq(&self.columns, &other.columns)
            && self.start == other.start
            && self.end == other.end
    }

    /// Widens this view over `next` when `next` views the rows that
    /// directly follow it in the same backing column set (by `Arc`
    /// identity), and reports whether it did. This is how a receiver
    /// reassembles a batch that crossed a stream channel as several
    /// adjacent slices (an element straddling a buffer boundary travels
    /// apart from the whole elements packed after it): no column data is
    /// touched.
    pub fn try_extend(&mut self, next: &ColumnarBatch) -> bool {
        let adjacent = Arc::ptr_eq(&self.columns, &next.columns) && next.start == self.end;
        if adjacent {
            self.end = next.end;
        }
        adjacent
    }

    /// The marshaled wire size of view-relative row `row`, mirroring
    /// [`Value::marshaled_size`] on the reassembled value without
    /// materializing it: single-column rows charge the cell alone,
    /// multi-column rows charge the enclosing bag header plus each cell.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_marshaled_size(&self, row: usize) -> u64 {
        assert!(row < self.rows(), "batch row out of range");
        let i = self.start + row;
        match &self.columns[..] {
            [(_, c)] => cell_marshaled_size(c, i),
            cols => {
                5 + cols
                    .iter()
                    .map(|(_, c)| cell_marshaled_size(c, i))
                    .sum::<u64>()
            }
        }
    }

    /// The shared marshaled wire size of every row, or `None` when row
    /// sizes can differ. Decided from column layouts alone in O(width):
    /// fixed-width layouts (integers, reals, booleans) marshal every
    /// row identically, while byte-buffer and boxed layouts vary per
    /// row. A `Some` answer equals [`ColumnarBatch::row_marshaled_size`]
    /// of every row without walking any of them.
    pub fn uniform_row_size(&self) -> Option<u64> {
        let cell = |c: &Column| match &*c.data {
            ColumnData::Int64(_) | ColumnData::Float64(_) => Some(9),
            ColumnData::Bool(_) => Some(2),
            ColumnData::Utf8 { .. } | ColumnData::Synthetic(_) | ColumnData::Values(_) => None,
        };
        match &self.columns[..] {
            [] => None,
            [(_, c)] => cell(c),
            cols => cols.iter().try_fold(5, |acc, (_, c)| Some(acc + cell(c)?)),
        }
    }

    /// A narrower O(1) view of the same rows.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.rows()`.
    pub fn slice(&self, start: usize, end: usize) -> ColumnarBatch {
        assert!(start <= end && end <= self.rows(), "slice out of range");
        ColumnarBatch {
            columns: Arc::clone(&self.columns),
            start: self.start + start,
            end: self.start + end,
        }
    }

    /// The row value at view-relative row `row`. Multi-column rows
    /// reassemble into a `Bag` of the cells in column order, which
    /// inverts the metric and record decompositions of
    /// [`ColumnarBatch::from_values`].
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()` (a batch of no columns has no
    /// rows).
    pub fn value_at(&self, row: usize) -> Value {
        assert!(row < self.rows(), "batch row out of range");
        let i = self.start + row;
        match &self.columns[..] {
            [(_, c)] => c.value_at(i),
            cols => Value::Bag(cols.iter().map(|(_, c)| c.value_at(i)).collect()),
        }
    }

    /// Appends the viewed rows to `out` as row values, in order. A
    /// single-column view dispatches on its layout once, not per row.
    pub fn to_values_into(&self, out: &mut Vec<Value>) {
        let [(_, c)] = &self.columns[..] else {
            out.extend((0..self.rows()).map(|row| self.value_at(row)));
            return;
        };
        // `c`'s rows `self.start..self.end`, as indices into its storage.
        let rows = c.start + self.start..c.start + self.end;
        match &*c.data {
            ColumnData::Int64(v) => out.extend(v[rows].iter().map(|&x| Value::Integer(x))),
            ColumnData::Float64(v) => out.extend(v[rows].iter().map(|&x| Value::Real(x))),
            ColumnData::Bool(v) => out.extend(v[rows].iter().map(|&x| Value::Bool(x))),
            ColumnData::Synthetic(v) => out.extend(
                v[rows]
                    .iter()
                    .map(|&bytes| Value::Array(ArrayData::Synthetic { bytes })),
            ),
            ColumnData::Values(v) => out.extend_from_slice(&v[rows]),
            ColumnData::Utf8 { .. } => out.extend((self.start..self.end).map(|i| c.value_at(i))),
        }
    }
}

/// Marshaled size of absolute backing row `i` of `c` (not
/// view-relative), mirroring [`Value::marshaled_size`] per layout.
fn cell_marshaled_size(c: &Column, i: usize) -> u64 {
    match &*c.data {
        ColumnData::Int64(_) | ColumnData::Float64(_) => 9,
        ColumnData::Bool(_) => 2,
        ColumnData::Utf8 { offsets, .. } => 5 + u64::from(offsets[i + 1] - offsets[i]),
        ColumnData::Synthetic(v) => 9 + v[i],
        ColumnData::Values(v) => v[i].marshaled_size(),
    }
}

/// The shared record arity when every row of a non-empty run is a
/// `Bag` of the same length of at least two, `None` otherwise. A
/// one-field bag stays whole: a single column reads back as the bare
/// cell, which would drop the bag around it.
fn uniform_record_width(values: &[Value]) -> Option<usize> {
    let width = values.first()?.as_bag()?.len();
    if width < 2 {
        return None;
    }
    values
        .iter()
        .all(|v| v.as_bag().is_some_and(|b| b.len() == width))
        .then_some(width)
}

/// Whether `v` is a metric-sample bag: `{channel, time_ns, bytes}` as
/// three integers (the shape `metrics(p)` emits).
fn is_metric_sample(v: &Value) -> bool {
    matches!(
        v.as_bag(),
        Some([Value::Integer(_), Value::Integer(_), Value::Integer(_)])
    )
}

/// Scans a run once and picks the narrowest lossless storage.
fn column_data_from_values(values: &[Value]) -> ColumnData {
    #[derive(PartialEq, Clone, Copy)]
    enum Kind {
        Int,
        Float,
        Bool,
        Str,
        Synthetic,
        Other,
    }
    let kind_of = |v: &Value| match v {
        Value::Integer(_) => Kind::Int,
        Value::Real(_) => Kind::Float,
        Value::Bool(_) => Kind::Bool,
        Value::Str(_) => Kind::Str,
        Value::Array(ArrayData::Synthetic { .. }) => Kind::Synthetic,
        _ => Kind::Other,
    };
    let Some(first) = values.first() else {
        return ColumnData::Values(Vec::new());
    };
    let kind = kind_of(first);
    if kind == Kind::Other || values[1..].iter().any(|v| kind_of(v) != kind) {
        return ColumnData::Values(values.to_vec());
    }
    match kind {
        Kind::Int => ColumnData::Int64(
            values
                .iter()
                .map(|v| v.as_integer().expect("checked: integer"))
                .collect(),
        ),
        Kind::Float => ColumnData::Float64(
            values
                .iter()
                .map(|v| match v {
                    Value::Real(r) => *r,
                    _ => unreachable!("checked: real"),
                })
                .collect(),
        ),
        Kind::Bool => ColumnData::Bool(
            values
                .iter()
                .map(|v| v.as_bool().expect("checked: bool"))
                .collect(),
        ),
        Kind::Str => {
            let mut offsets = Vec::with_capacity(values.len() + 1);
            let mut bytes = Vec::new();
            offsets.push(0u32);
            for v in values {
                let s = v.as_str().expect("checked: string");
                bytes.extend_from_slice(s.as_bytes());
                offsets.push(u32::try_from(bytes.len()).expect("string column under 4 GiB"));
            }
            ColumnData::Utf8 { offsets, bytes }
        }
        Kind::Synthetic => ColumnData::Synthetic(
            values
                .iter()
                .map(|v| match v {
                    Value::Array(ArrayData::Synthetic { bytes }) => *bytes,
                    _ => unreachable!("checked: synthetic"),
                })
                .collect(),
        ),
        Kind::Other => unreachable!("handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(channel: i64, time_ns: i64, bytes: i64) -> Value {
        Value::Bag(vec![
            Value::Integer(channel),
            Value::Integer(time_ns),
            Value::Integer(bytes),
        ])
    }

    #[test]
    fn homogeneous_runs_get_typed_storage() {
        let ints: Vec<Value> = (0..4).map(Value::Integer).collect();
        let c = Column::from_values(&ints);
        assert_eq!(c.as_i64(), Some(&[0i64, 1, 2, 3][..]));
        assert_eq!(c.value_at(2), Value::Integer(2));

        let reals = vec![Value::Real(1.5), Value::Real(-0.0)];
        let c = Column::from_values(&reals);
        assert_eq!(c.as_f64().map(<[f64]>::len), Some(2));

        let bools = vec![Value::Bool(true), Value::Bool(false)];
        assert_eq!(
            Column::from_values(&bools).as_bool(),
            Some(&[true, false][..])
        );

        let syn = vec![Value::synthetic_array(8), Value::synthetic_array(16)];
        assert_eq!(
            Column::from_values(&syn).as_synthetic(),
            Some(&[8u64, 16][..])
        );

        let strs = vec![Value::from("ab"), Value::from(""), Value::from("c")];
        let c = Column::from_values(&strs);
        assert_eq!(c.as_utf8(), Some((&[0u32, 2, 2, 3][..], &b"abc"[..])));
        assert_eq!(c.value_at(1), Value::from(""));
        assert_eq!(c.value_at(2), Value::from("c"));
    }

    #[test]
    fn mixed_runs_fall_back_to_values() {
        let mixed = vec![Value::Integer(1), Value::Real(2.0)];
        let c = Column::from_values(&mixed);
        assert_eq!(*c.data, ColumnData::Values(mixed));
        let bags = vec![Value::Bag(vec![])];
        assert_eq!(*Column::from_values(&bags).data, ColumnData::Values(bags));
    }

    #[test]
    fn column_slices_are_views() {
        let c = Column::from_values(&(0..6).map(Value::Integer).collect::<Vec<_>>());
        let s = c.slice(2, 5);
        assert_eq!(s.as_i64(), Some(&[2i64, 3, 4][..]));
        let ss = s.slice(1, 2);
        assert_eq!(ss.as_i64(), Some(&[3i64][..]));
        assert_eq!(ss.value_at(0), Value::Integer(3));
        assert!(ss.slice(0, 0).is_empty());
    }

    #[test]
    fn selection_vector_enforces_ascending_rows() {
        let mut s = SelectionVector::new();
        s.push(1);
        s.push(5);
        assert_eq!(s.rows(), &[1, 5]);
        assert_eq!(s.len(), 2);
        assert_eq!(SelectionVector::from_rows(vec![0, 2, 9]).len(), 3);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn selection_vector_rejects_descending_rows() {
        SelectionVector::from_rows(vec![3, 1]);
    }

    #[test]
    fn metric_runs_decompose_into_named_columns() {
        let run = vec![metric(1, 100, 1000), metric(1, 200, 2000)];
        let b = ColumnarBatch::from_values(&run);
        assert_eq!(b.width(), 3);
        assert_eq!(b.column("channel").unwrap().as_i64(), Some(&[1i64, 1][..]));
        assert_eq!(
            b.column("time_ns").unwrap().as_i64(),
            Some(&[100i64, 200][..])
        );
        assert_eq!(
            b.column("bytes").unwrap().as_i64(),
            Some(&[1000i64, 2000][..])
        );
        assert_eq!(b.value_at(1), metric(1, 200, 2000));
    }

    #[test]
    fn record_runs_decompose_into_parallel_columns() {
        let rec = |i: i64, f: f64| Value::Bag(vec![Value::Integer(i), Value::Real(f)]);
        let run = vec![rec(1, 0.5), rec(2, 1.5), rec(3, 2.5)];
        let b = ColumnarBatch::from_values(&run);
        assert_eq!(b.width(), 2);
        assert_eq!(b.column("c0").unwrap().as_i64(), Some(&[1i64, 2, 3][..]));
        assert_eq!(
            b.column("c1").unwrap().as_f64(),
            Some(&[0.5f64, 1.5, 2.5][..])
        );
        assert_eq!(b.value_at(1), rec(2, 1.5));
        // Per-position fallback: a heterogeneous cell position still
        // decomposes, via the Values layout.
        let odd = vec![
            Value::Bag(vec![Value::Integer(1), Value::from("x")]),
            Value::Bag(vec![Value::Real(2.0), Value::from("y")]),
        ];
        let b = ColumnarBatch::from_values(&odd);
        assert_eq!(b.width(), 2);
        assert!(matches!(
            *b.column("c0").unwrap().data,
            ColumnData::Values(_)
        ));
        assert_eq!(b.value_at(1), odd[1]);
        // Empty bags and mixed-arity runs keep the single-column form.
        assert_eq!(ColumnarBatch::from_values(&[Value::Bag(vec![])]).width(), 1);
        let ragged = vec![Value::Bag(vec![Value::Integer(1)]), Value::Bag(vec![])];
        assert_eq!(ColumnarBatch::from_values(&ragged).width(), 1);
    }

    #[test]
    fn one_field_records_stay_bags() {
        // A one-column batch reads its rows back as bare cells, so a
        // run of one-field bags must not decompose into its field.
        let run: Vec<Value> = (0..3)
            .map(|i| Value::Bag(vec![Value::Integer(i)]))
            .collect();
        let b = ColumnarBatch::from_values(&run);
        assert!(b.single().is_some_and(|c| c.as_i64().is_none()));
        for (row, v) in run.iter().enumerate() {
            assert_eq!(b.value_at(row), *v);
            assert_eq!(b.row_marshaled_size(row), v.marshaled_size());
        }
    }

    #[test]
    fn views_compare_and_extend_by_storage_identity() {
        let vals: Vec<Value> = (0..4).map(Value::Integer).collect();
        let b = ColumnarBatch::from_values(&vals);
        let twin = ColumnarBatch::from_values(&vals);
        assert!(b.slice(1, 4).same_view(&b.slice(1, 4)));
        assert!(!b.slice(1, 2).same_view(&b.slice(2, 3)), "rows differ");
        assert!(!b.same_view(&twin), "value-equal twins are distinct");
        // Adjacent slices of one storage reassemble; anything else —
        // a gap, an overlap, a twin — is left alone.
        let mut head = b.slice(0, 1);
        assert!(head.try_extend(&b.slice(1, 3)));
        assert!(head.same_view(&b.slice(0, 3)));
        assert!(!head.try_extend(&b.slice(2, 4)), "overlap");
        assert!(!b.slice(0, 1).try_extend(&b.slice(2, 4)), "gap");
        assert!(!b.slice(0, 1).try_extend(&twin.slice(1, 2)), "twin storage");
        assert!(
            head.same_view(&b.slice(0, 3)),
            "a refused extend changes nothing"
        );
    }

    #[test]
    fn row_marshaled_size_matches_value_marshaled_size() {
        let runs: Vec<Vec<Value>> = vec![
            (0..3).map(Value::Integer).collect(),
            vec![Value::Real(1.5), Value::Real(f64::NAN)],
            vec![Value::Bool(true), Value::Bool(false)],
            vec![Value::from("ab"), Value::from(""), Value::from("xyz")],
            vec![Value::synthetic_array(8), Value::synthetic_array(16)],
            vec![metric(0, 1, 2), metric(3, 4, 5)],
            vec![
                Value::Bag(vec![Value::Integer(1), Value::from("x")]),
                Value::Bag(vec![Value::Integer(2), Value::from("yy")]),
            ],
            vec![Value::Integer(1), Value::from("x")], // mixed: Values layout
        ];
        for run in runs {
            let b = ColumnarBatch::from_values(&run);
            for (row, v) in run.iter().enumerate() {
                assert_eq!(b.row_marshaled_size(row), v.marshaled_size(), "{v:?}");
            }
            // View slicing preserves per-row sizes.
            if run.len() > 1 {
                let s = b.slice(1, run.len());
                assert_eq!(s.row_marshaled_size(0), run[1].marshaled_size());
            }
        }
    }

    #[test]
    fn batch_views_slice_all_columns() {
        let run = vec![metric(0, 1, 10), metric(0, 2, 20), metric(0, 3, 30)];
        let b = ColumnarBatch::from_values(&run).slice(1, 3);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.column("bytes").unwrap().as_i64(), Some(&[20i64, 30][..]));
        assert_eq!(b.value_at(0), metric(0, 2, 20));
        assert!(b.single().is_none());
        let single = ColumnarBatch::from_values(&[Value::Integer(9)]);
        assert_eq!(single.single().unwrap().as_i64(), Some(&[9i64][..]));
    }
}
