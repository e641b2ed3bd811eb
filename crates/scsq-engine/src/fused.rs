//! Prepare-time lowering and the whole-column driver of a stage chain.
//!
//! Two things are lowered once, at `Scsq::prepare` time, and shared by
//! every run of the plan: a pipeline's compute-cost accounting compiled
//! to a compact op list ([`CostModel`]), and a constant source
//! transposed to columns ([`PreparedSource`]).
//!
//! The rest of the module is the columnar half of [`StageChain`]. When
//! the chain is built, its stage list is lowered once for each of the
//! eight column types a batch can present (`ColType`) into a table of
//! typed column programs (`ColumnPrograms`): an entry is the list of
//! kernel steps that type flows through, or a decline. A program's walk
//! has two endings ([`ColumnEnding`]): it stops at an absorber, which
//! folds the batch into its state, or it runs off the end of a
//! transforming chain, which emits the rewritten column.
//!
//! Admission ([`StageChain::admit_cols`]) is then a lookup into that
//! table: classify the delivered batch, index the table, and for a
//! chain that charges compute check that the batch's elements share one
//! marshaled size. The driver ([`StageChain::process_cols`]) runs the
//! program's steps over the batch's typed slices through
//! [`crate::columnar`], one dispatch per stage instead of one per
//! element, mutating the same `StageState`s as the scalar run driver
//! (`StageChain::process_run`, the reference semantics and the fallback
//! for every declined batch), so aggregate flushes and coalescer probes
//! cannot tell which ran. `explain`'s verdicts ([`admission_verdicts`])
//! read the walk the table is lowered along.

use crate::columnar::{self, Vals};
use crate::error::EngineError;
use crate::funcs;
use crate::ops::{
    AggKind, ArithOp, CmpOp, InputKind, MapFunc, Pipeline, Stage, StageChain, StageState,
};
use scsq_ql::column::SelectionVector;
use scsq_ql::{ColumnarBatch, Value};

/// One compiled compute-cost operation. Only stages that charge CPU
/// time appear; everything else is dropped at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostOp {
    /// An elementwise function charged via `funcs::map_cost_bytes`;
    /// decimating maps halve the element size seen downstream.
    Map(MapFunc),
    /// A radix combine charged one unit per element byte.
    Radix,
    /// An elementwise arithmetic transform charged one unit per element
    /// byte; numeric in, numeric out, so the size is unchanged.
    Arith,
    /// An elementwise comparison charged one unit per element byte; the
    /// boolean it emits is what downstream stages see.
    Cmp,
    /// An elementwise predicate charged one unit per element byte.
    /// Survivors keep their size; the model charges every *input*
    /// element, so elements the predicate drops still paid to be
    /// examined.
    Filter,
}

/// The cost operation a stage compiles to; `None` for stages that charge
/// no CPU time.
pub(crate) fn cost_op(stage: &Stage) -> Option<CostOp> {
    match stage {
        Stage::Map(f) => Some(CostOp::Map(*f)),
        Stage::RadixCombine { .. } => Some(CostOp::Radix),
        Stage::Arith { .. } => Some(CostOp::Arith),
        Stage::Cmp { .. } => Some(CostOp::Cmp),
        Stage::Filter { .. } => Some(CostOp::Filter),
        _ => None,
    }
}

/// A constant source transposed into shared columns once, at prepare
/// time. A run on the columnar tier hands the whole view to the
/// source's output channels instead of walking the values one by one —
/// and the receivers' column kernels read it without ever transposing.
#[derive(Debug, Clone)]
pub struct PreparedSource {
    /// Every row of the source, in order, as `Arc`-backed columns.
    pub cols: ColumnarBatch,
    /// The marshaled size every row shares.
    pub row_bytes: u64,
}

impl PartialEq for PreparedSource {
    /// Equal when they replay the same rows (two plans prepared from
    /// the same statement do; storage identity is irrelevant here).
    fn eq(&self, other: &PreparedSource) -> bool {
        let rows = self.cols.rows();
        self.row_bytes == other.row_bytes
            && rows == other.cols.rows()
            && (0..rows).all(|r| self.cols.value_at(r) == other.cols.value_at(r))
    }
}

impl PreparedSource {
    /// Transposes `pipeline`'s source when it is a constant of at
    /// least two rows behind a pass-through (`streamof`-only, hence
    /// cost-free) chain whose rows share one fixed-width column layout
    /// — then every sub-run of it transposes to the same layout, one
    /// row's generation cost is every row's, and the rows can travel
    /// as one run ([`scsq_transport::StreamChannel::enqueue_run`]).
    ///
    /// # Errors
    ///
    /// Which of those conditions failed, worded for `explain`.
    pub fn prepare(pipeline: &Pipeline) -> Result<PreparedSource, &'static str> {
        let InputKind::Const { values } = &pipeline.input else {
            return Err("not a constant source");
        };
        if values.len() < 2 {
            // A lone element never forms a batch on the per-element
            // path either.
            return Err("fewer than two rows");
        }
        if !pipeline.stages.iter().all(|s| *s == Stage::StreamOf) {
            return Err("chain is not pass-through");
        }
        let cols = ColumnarBatch::from_values(values);
        let row_bytes = cols
            .uniform_row_size()
            .ok_or("rows share no fixed-width column layout")?;
        Ok(PreparedSource { cols, row_bytes })
    }
}

/// A pipeline's compute-cost accounting, compiled once at prepare time
/// to the stages that charge CPU time. Immutable: the plan holds it and
/// every run of the plan reads the same one.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    ops: Vec<CostOp>,
}

impl CostModel {
    /// Lowers a pipeline's stage chain.
    pub fn compile(pipeline: &Pipeline) -> CostModel {
        CostModel {
            ops: pipeline.stages.iter().filter_map(cost_op).collect(),
        }
    }

    /// CPU cost (in byte-equivalents) of pushing one element of
    /// `elem_bytes` marshaled bytes through the chain. Identical to
    /// walking the stage list per element: decimation halves the size
    /// seen by later stages.
    pub fn cost(&self, elem_bytes: u64) -> u64 {
        let mut bytes = elem_bytes;
        let mut cost = 0u64;
        for op in &self.ops {
            match op {
                CostOp::Map(f) => {
                    cost += funcs::map_cost_bytes(*f, bytes);
                    if matches!(f, MapFunc::Odd | MapFunc::Even) {
                        bytes /= 2;
                    }
                }
                CostOp::Radix | CostOp::Arith | CostOp::Filter => cost += bytes,
                CostOp::Cmp => {
                    cost += bytes;
                    // A comparison emits a marshaled boolean (tag +
                    // payload) whatever went in.
                    bytes = 2;
                }
            }
        }
        cost
    }
}

/// Where an admitted batch's walk ends, and so what it leaves behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnEnding {
    /// The walk stops at an absorber (an aggregate, `bandwidth`,
    /// `quantile`): the batch folds into its state and nothing is
    /// emitted before end of stream.
    Fold,
    /// The walk runs off the end of a chain that transforms or filters:
    /// the rewritten column is emitted downstream as shared rows.
    Emit,
}

/// A batch cleared for whole-column execution by
/// [`StageChain::admit_cols`]: the columns, which ending its program
/// reaches, and the two facts the runtime needs to charge the chain's
/// modeled compute cost *before* running the kernels, mirroring the
/// per-element path's charge-then-process order.
#[derive(Debug)]
pub struct ColumnAdmit {
    cols: ColumnarBatch,
    /// Whether the batch folds or emits.
    pub ending: ColumnEnding,
    /// Number of elements in the admitted batch.
    pub rows: usize,
    /// Marshaled size shared by every element, or 0 when the chain
    /// charges no compute cost (then no size is needed — the cost walk
    /// is empty either way).
    pub elem_bytes: u64,
}

/// What an emitting batch leaves the chain as: the surviving rows as a
/// single-column batch, and the map from output rows to input rows
/// (`None` when the output is a prefix of the input).
pub type Emitted = (ColumnarBatch, Option<SelectionVector>);

/// The column type a batch presents to the first stage, and the type
/// flowing between steps: a typed single column, the three-column
/// metric shape, a multi-column record, or the opaque fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColType {
    Int,
    Float,
    Bool,
    Str,
    Synthetic,
    Metric,
    /// A non-metric multi-column batch: tuples flowing as parallel
    /// typed columns. Pass-through and counting stages admit it;
    /// elementwise transforms and numeric folds decline.
    Record,
    Other,
}

/// A comparison lowered for the column type it reads.
#[derive(Debug, Clone, PartialEq)]
enum Pred {
    /// Exact integer ordering: an integer column against an integer.
    I64(CmpOp, i64),
    /// IEEE ordering: every other numeric pair, integers widened.
    F64(CmpOp, f64),
    /// Lexicographic ordering: a string column against a string.
    Utf8(CmpOp, String),
}

/// One typed step of a column program. Every step but [`Step::Gather`]
/// is the lowering of the chain stage at its position.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    /// `streamof`: the rows pass untouched.
    Pass,
    /// `take`: the first `remaining` live rows pass.
    Take,
    /// `map` over synthetic-array byte sizes.
    MapSynthetic(MapFunc),
    /// `arith` over an integer column with an integer constant.
    ArithI64(ArithOp, i64),
    /// `arith` over `f64`: a real column, or an integer column widened
    /// because the constant is real.
    ArithF64(ArithOp, f64),
    /// `cmp`: the column becomes the boolean mask.
    Cmp(Pred),
    /// `filter`: the mask narrows the selection over the original rows;
    /// the column itself is left dense.
    Filter(Pred),
    /// Compacts the selected rows ahead of a fold that reads values.
    Gather,
    // The absorbers: `count` adds the live rows; `sum` / `avg`, `max` /
    // `min` and `quantile` fold an integer or a real column; `bandwidth`
    // folds the metric shape.
    FoldCount,
    FoldSumI64,
    FoldSumF64,
    FoldBestI64 {
        maximize: bool,
    },
    FoldBestF64 {
        maximize: bool,
    },
    FoldQuantileI64,
    FoldQuantileF64,
    Bandwidth,
}

/// A column program: the steps one batch type runs, and how it ends.
#[derive(Debug, Clone, PartialEq)]
struct Program {
    ending: ColumnEnding,
    steps: Vec<Step>,
}

/// Why a chain's shape admits no batch, whatever its type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decline {
    /// A stage has no whole-column kernel.
    NoKernel,
    /// The chain neither absorbs nor transforms: re-emitting its rows
    /// untransformed would rebuild the very tuples the per-element path
    /// forwards. A `map` without an absorber counts here too: its arrays
    /// are left to the per-element path unless a fold consumes them.
    Passthrough,
}

/// The type-independent half of lowering: how many stages an admitted
/// walk drives and how it ends — up to and including the first absorber
/// (stages after it never see elements mid-stream, only the
/// end-of-stream flush), or the whole chain when it emits — or why no
/// batch is ever admitted.
fn walk(stages: &[Stage]) -> Result<(usize, ColumnEnding), Decline> {
    let has = |f: fn(&Stage) -> bool| stages.iter().any(f);
    let absorbs =
        |s: &Stage| matches!(s, Stage::Agg(_) | Stage::Bandwidth | Stage::Quantile { .. });
    if has(|s| matches!(s, Stage::RadixCombine { .. } | Stage::Window(_))) {
        Err(Decline::NoKernel)
    } else if let Some(a) = stages.iter().position(absorbs) {
        Ok((a + 1, ColumnEnding::Fold))
    } else if has(|s| {
        matches!(
            s,
            Stage::Arith { .. } | Stage::Cmp { .. } | Stage::Filter { .. }
        )
    }) && !has(|s| matches!(s, Stage::Map(_)))
    {
        Ok((stages.len(), ColumnEnding::Emit))
    } else {
        Err(Decline::Passthrough)
    }
}

/// The comparison a `cmp` / `filter` stage lowers to over `ty`, matching
/// the scalar stage's type arms; `None` when it has no kernel for `ty`.
fn pred(op: CmpOp, rhs: &Value, ty: ColType) -> Option<Pred> {
    match (ty, rhs) {
        (ColType::Int, Value::Integer(k)) => Some(Pred::I64(op, *k)),
        (ColType::Int | ColType::Float, _) => Some(Pred::F64(op, rhs.as_real()?)),
        (ColType::Str, Value::Str(k)) => Some(Pred::Utf8(op, k.clone())),
        _ => None,
    }
}

/// The type-dependent half of lowering: the step `stage` becomes when
/// `ty` flows into it, and the type it hands on (`None` from an
/// absorber); `None` when the stage has no kernel for `ty`. `arith`
/// needs a numeric column (an integer column with a real constant
/// widens to float, as the scalar stage does), `cmp` / `filter` a
/// numeric column with a numeric constant or a string column with a
/// string constant, `map` a synthetic column, aggregates other than
/// `count` and `quantile` a numeric column, `bandwidth` the metric
/// shape; `count` takes any type.
fn lower_stage(stage: &Stage, ty: ColType) -> Option<(Step, Option<ColType>)> {
    use ColType::{Float, Int, Metric, Synthetic};
    let step = match (stage, ty) {
        (Stage::StreamOf, _) => Step::Pass,
        (Stage::Take { .. }, _) => Step::Take,
        (Stage::Map(f), Synthetic) => Step::MapSynthetic(*f),
        (Stage::Arith { op, rhs }, Int | Float) => match (ty, rhs) {
            (Int, Value::Integer(k)) => Step::ArithI64(*op, *k),
            _ => return Some((Step::ArithF64(*op, rhs.as_real()?), Some(Float))),
        },
        (Stage::Cmp { op, rhs }, _) => {
            return Some((Step::Cmp(pred(*op, rhs, ty)?), Some(ColType::Bool)))
        }
        (Stage::Filter { op, rhs }, _) => Step::Filter(pred(*op, rhs, ty)?),
        (Stage::Agg(AggKind::Count), _) => return Some((Step::FoldCount, None)),
        (Stage::Agg(kind), Int | Float) => {
            let maximize = *kind == AggKind::Max;
            let step = match (kind, ty) {
                (AggKind::Max | AggKind::Min, Int) => Step::FoldBestI64 { maximize },
                (AggKind::Max | AggKind::Min, _) => Step::FoldBestF64 { maximize },
                (_, Int) => Step::FoldSumI64,
                _ => Step::FoldSumF64,
            };
            return Some((step, None));
        }
        (Stage::Quantile { .. }, Int) => return Some((Step::FoldQuantileI64, None)),
        (Stage::Quantile { .. }, Float) => return Some((Step::FoldQuantileF64, None)),
        (Stage::Bandwidth, Metric) => return Some((Step::Bandwidth, None)),
        _ => return None,
    };
    Some((step, Some(ty)))
}

/// The chain's column programs, one per [`ColType`], lowered once when
/// the chain is built and never changed: what
/// [`StageChain::admit_cols`] looks up and
/// [`StageChain::process_cols`] runs. An entry is `None` when the
/// chain's shape admits nothing or some stage of the walk has no kernel
/// for the type flowing into it.
#[derive(Debug)]
pub(crate) struct ColumnPrograms([Option<Program>; 8]);

impl ColumnPrograms {
    pub(crate) fn lower(stages: &[Stage]) -> ColumnPrograms {
        use ColType::{Bool, Float, Int, Metric, Other, Record, Str, Synthetic};
        let shape = walk(stages).ok();
        let types = [Int, Float, Bool, Str, Synthetic, Metric, Record, Other];
        ColumnPrograms(types.map(|mut ty| {
            let (n, ending) = shape?;
            let mut steps = Vec::with_capacity(n + 1);
            let mut selected = false;
            for stage in &stages[..n] {
                let (step, next) = lower_stage(stage, ty)?;
                // A fold over values reads the survivors dense.
                if selected && next.is_none() && step != Step::FoldCount {
                    steps.push(Step::Gather);
                }
                selected |= matches!(step, Step::Filter(_));
                steps.push(step);
                ty = next.unwrap_or(ty);
            }
            Some(Program { ending, steps })
        }))
    }
}

/// The type a batch or a step's column presents.
fn col_type(vals: &Vals<'_>) -> ColType {
    match vals {
        Vals::I64(_) => ColType::Int,
        Vals::F64(_) => ColType::Float,
        Vals::Bool(_) => ColType::Bool,
        Vals::Utf8(..) => ColType::Str,
        Vals::Synthetic(_) => ColType::Synthetic,
        Vals::Metric(_) => ColType::Metric,
        Vals::Record(_) => ColType::Record,
        Vals::Other(_) => ColType::Other,
    }
}

/// The mask `p` computes; `None` unless the column is of the type `p`
/// was lowered for.
fn mask(p: &Pred, vals: &Vals<'_>) -> Option<Vec<bool>> {
    Some(match (p, vals) {
        (Pred::I64(op, k), Vals::I64(xs)) => columnar::cmp_mask_i64(xs, *op, *k),
        (Pred::F64(op, k), Vals::I64(xs)) => {
            columnar::cmp_mask_f64(xs.iter().map(|&x| x as f64), *op, *k)
        }
        (Pred::F64(op, k), Vals::F64(xs)) => columnar::cmp_mask_f64(xs.iter().copied(), *op, *k),
        (Pred::Utf8(op, k), Vals::Utf8(offsets, bytes)) => {
            columnar::cmp_mask_utf8(offsets, bytes, *op, k)
        }
        _ => return None,
    })
}

/// What one step leaves: the column for the next step, `None` once the
/// batch folded, or the error the per-element path would raise.
type Flow<'a> = Result<Option<Vals<'a>>, EngineError>;

/// Runs one lowered stage step (the driver applies [`Step::Gather`]) on
/// the live column and the state of the stage it was lowered from.
/// `None` when the column or the state is not what the step was lowered
/// for.
fn run_step<'a>(
    step: &Step,
    state: &mut StageState,
    vals: Vals<'a>,
    sel: &mut Option<SelectionVector>,
) -> Option<Flow<'a>> {
    let live = vals.live(sel.as_ref());
    let next = match (step, state, vals) {
        (Step::Pass, _, v) => v,
        (Step::Take, StageState::Take { remaining }, v) => {
            let k = (live as u64).min(*remaining);
            *remaining -= k;
            match sel {
                Some(s) => {
                    s.truncate(k as usize);
                    v
                }
                None => v.take(k as usize),
            }
        }
        (Step::MapSynthetic(f), _, Vals::Synthetic(xs)) => {
            Vals::Synthetic(columnar::map_synthetic(&xs, *f).into())
        }
        (Step::ArithI64(op, k), _, Vals::I64(xs)) => {
            Vals::I64(columnar::arith_i64(&xs, *op, *k).into())
        }
        (Step::ArithF64(op, k), _, Vals::I64(xs)) => {
            Vals::F64(columnar::arith_f64(xs.iter().map(|&x| x as f64), *op, *k).into())
        }
        (Step::ArithF64(op, k), _, Vals::F64(xs)) => {
            Vals::F64(columnar::arith_f64(xs.iter().copied(), *op, *k).into())
        }
        (Step::Cmp(p), _, v) => Vals::Bool(mask(p, &v)?.into()),
        (Step::Filter(p), _, v) => {
            let mask = mask(p, &v)?;
            *sel = Some(match sel.take() {
                Some(s) => columnar::intersect_selection(&mask, &s),
                None => columnar::filter_to_selection(&mask),
            });
            v
        }
        (Step::FoldCount, StageState::Agg { count, .. }, _) => {
            *count += live as i64;
            return Some(Ok(None));
        }
        (Step::FoldSumI64, StageState::Agg { count, sum_int, .. }, Vals::I64(xs)) => {
            columnar::fold_sum_i64(count, sum_int, &xs);
            return Some(Ok(None));
        }
        (
            Step::FoldSumF64,
            StageState::Agg {
                count,
                sum_real,
                saw_real,
                ..
            },
            Vals::F64(xs),
        ) => {
            columnar::fold_sum_f64(count, sum_real, saw_real, &xs);
            return Some(Ok(None));
        }
        (Step::FoldBestI64 { maximize }, StageState::Agg { count, best, .. }, Vals::I64(xs)) => {
            columnar::fold_best(count, best, &xs, |i| i as f64, Value::Integer, *maximize);
            return Some(Ok(None));
        }
        (Step::FoldBestF64 { maximize }, StageState::Agg { count, best, .. }, Vals::F64(xs)) => {
            columnar::fold_best(count, best, &xs, |x| x, Value::Real, *maximize);
            return Some(Ok(None));
        }
        (Step::FoldQuantileI64, StageState::Quantile { hist, .. }, Vals::I64(xs)) => {
            return Some(columnar::fold_quantile(hist, &xs, Value::Integer).map(|()| None));
        }
        (Step::FoldQuantileF64, StageState::Quantile { hist, .. }, Vals::F64(xs)) => {
            return Some(columnar::fold_quantile(hist, &xs, Value::Real).map(|()| None));
        }
        (
            Step::Bandwidth,
            StageState::Bandwidth { bytes, last_nanos },
            Vals::Metric([channel, time_ns, sample_bytes]),
        ) => {
            let folded =
                columnar::fold_bandwidth(bytes, last_nanos, channel, time_ns, sample_bytes);
            return Some(folded.map(|()| None));
        }
        _ => return None,
    };
    Some(Ok(Some(next)))
}

impl StageChain {
    /// Whether the chain could admit *some* batch: some entry of its
    /// program table is a program. The runtime consults this before
    /// transposing a delivered run, so chains that can never admit skip
    /// the decomposition work entirely.
    pub(crate) fn wants_columnar(&self) -> bool {
        self.programs.0.iter().any(Option::is_some)
    }

    /// Decides, without mutating anything, whether a delivered batch
    /// qualifies for whole-column execution, and if so returns it with
    /// the ending its program reaches and the cost-accounting facts.
    ///
    /// The batch is classified by the type it presents (`Int`/`Float`/
    /// `Bool`/`Str`/`Synthetic`, the three-column metric shape, a
    /// multi-column record, or an opaque fallback), and qualifies when
    /// the chain's program table holds a program for that type.
    ///
    /// When any stage charges modeled compute cost the elements must
    /// additionally share one marshaled size, so the runtime can charge
    /// the batch from one `cost(elem_bytes)` — the same total the
    /// per-element walk accrues. `None` means the caller must fall back
    /// to the per-element path (which also reproduces type-error
    /// semantics for ill-typed runs).
    pub fn admit_cols(&self, cols: &ColumnarBatch) -> Option<ColumnAdmit> {
        if cols.is_empty() {
            return None;
        }
        let held = columnar::view_columns(cols);
        let vals = Vals::of(cols, &held);
        let program = self.programs.0[col_type(&vals) as usize].as_ref()?;
        let elem_bytes = if self.costly {
            uniform_elem_bytes(cols, &vals)?
        } else {
            0
        };
        Some(ColumnAdmit {
            cols: cols.clone(),
            ending: program.ending,
            rows: cols.rows(),
            elem_bytes,
        })
    }

    /// Runs an admitted batch through the chain as whole columns: one
    /// kernel dispatch per stage. Returns `None` when the batch folded
    /// into an absorber, or the emitted rows when it ran off the end of
    /// the chain. The emitted rows come with the map back to the input
    /// rows that produced them ([`Emitted`]): the caller forwards each
    /// survivor at the finish time of its *input* element, exactly as
    /// the per-element path does.
    ///
    /// The caller must have charged the compute cost already (the
    /// per-element path charges each element before it enters the
    /// chain, so charge-then-process keeps the orders aligned).
    ///
    /// Transform stages rewrite the column; `filter` narrows a
    /// selection vector over the *original* row space instead of
    /// gathering survivors, so a chain of filters is mask intersection.
    /// Dense stages after a filter keep operating on all rows — dead
    /// rows are computed and never read — and the survivors are
    /// gathered once: ahead of a fold that reads values, or at the end
    /// of an emitting chain.
    ///
    /// # Errors
    ///
    /// The same error the per-element path would raise on the first
    /// failing element (`bandwidth` over malformed samples or
    /// `quantile` over negative values on an admitted shape).
    pub fn process_cols(&mut self, admit: ColumnAdmit) -> Result<Option<Emitted>, EngineError> {
        match self.run_program(&admit.cols) {
            Some(result) => result,
            #[expect(
                clippy::unreachable,
                reason = "an admitted batch runs the program this chain lowered for its type, \
                          over the stage states that program was lowered from"
            )]
            None => unreachable!("a column program met a column or stage it was not lowered for"),
        }
    }

    /// [`StageChain::process_cols`]'s driver; `None` when a step meets a
    /// column type or stage state it was not lowered for.
    fn run_program(
        &mut self,
        cols: &ColumnarBatch,
    ) -> Option<Result<Option<Emitted>, EngineError>> {
        let held = columnar::view_columns(cols);
        let mut vals = Vals::of(cols, &held);
        let program = self.programs.0[col_type(&vals) as usize].as_ref()?;
        let mut sel: Option<SelectionVector> = None;
        let mut si = 0;
        for step in &program.steps {
            if *step == Step::Gather {
                vals = vals.gather(sel.as_ref()?)?;
                continue;
            }
            // Semantic element counts for explain-analyze: what the
            // per-element path would have fed this stage (survivors of
            // the selection so far).
            let live_in = vals.live(sel.as_ref()) as u64;
            let next = match run_step(step, self.stages.get_mut(si)?, vals, &mut sel)? {
                Ok(next) => next,
                Err(e) => return Some(Err(e)),
            };
            if let Some(t) = self.tally.get_mut(si) {
                t.calls += 1;
                t.elems_in += live_in;
                t.elems_out += next.as_ref().map_or(0, |v| v.live(sel.as_ref()) as u64);
            }
            vals = match next {
                Some(v) => v,
                None => return Some(Ok(None)),
            };
            si += 1;
        }
        // No absorber: the chain emits.
        let out = ColumnarBatch::new(vec![("v".to_string(), vals.emit(sel.as_ref())?)]);
        Some(Ok(Some((out, sel))))
    }
}

/// The marshaled size shared by every element of the batch, or `None`
/// when sizes differ (then bulk cost charging would not equal the
/// per-element walk and the batch is declined). Fixed-width layouts
/// answer from the layout; synthetic arrays and strings check the run.
fn uniform_elem_bytes(cols: &ColumnarBatch, vals: &Vals<'_>) -> Option<u64> {
    match vals {
        Vals::Synthetic(xs) => {
            let &b = xs.first()?;
            // Tag + length prefix + the array body.
            xs.iter().all(|&x| x == b).then_some(9 + b)
        }
        Vals::Utf8(offsets, _) => {
            let l = offsets.get(1)? - offsets.first()?;
            // Tag + length prefix + the bytes.
            offsets
                .windows(2)
                .all(|w| w[1] - w[0] == l)
                .then_some(5 + u64::from(l))
        }
        _ => cols.uniform_row_size(),
    }
}

/// The static columnar-admission verdict for each stage of a chain —
/// what `explain` prints so rejected shapes are diagnosable without
/// reading [`StageChain::admit_cols`]. It reads the same walk the
/// chain's column programs are lowered along. `"columnar"` marks the
/// stages a folding walk drives (those after the absorber see only the
/// flush), `"columnar (relay)"` the stages of an emitting one, and
/// `"scalar: <reason>"` explains why a stage forces the per-element
/// path. Verdicts are shape-level: per-batch typing (a string column
/// into `sum`, mixed runs) can still demote an admitted shape at
/// delivery time.
pub fn admission_verdicts(stages: &[Stage]) -> Vec<String> {
    let shape = walk(stages);
    let verdict = |i: usize, s: &Stage| match shape {
        Ok((n, _)) if i >= n => "scalar: after the absorber (sees only the flush)",
        Ok((_, ColumnEnding::Fold)) => "columnar",
        Ok((_, ColumnEnding::Emit)) => "columnar (relay)",
        Err(_) if walk(std::slice::from_ref(s)) == Err(Decline::NoKernel) => {
            "scalar: no whole-column kernel"
        }
        Err(Decline::NoKernel) => "scalar: chain blocked by a non-vectorizable stage",
        Err(Decline::Passthrough) => "scalar: chain neither absorbs nor transforms",
    };
    stages
        .iter()
        .enumerate()
        .map(|(i, s)| verdict(i, s).to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::InputKind;
    use scsq_ql::SpHandle;

    fn pipeline(stages: Vec<Stage>) -> Pipeline {
        Pipeline {
            input: InputKind::Const {
                values: Vec::new().into(),
            },
            stages,
        }
    }

    #[test]
    fn cost_model_matches_stage_walk() {
        let p = pipeline(vec![
            Stage::Map(MapFunc::Odd),
            Stage::Map(MapFunc::Fft),
            Stage::RadixCombine {
                first: SpHandle(1),
                second: SpHandle(2),
            },
            Stage::Agg(AggKind::Count),
        ]);
        let model = CostModel::compile(&p);
        for elem_bytes in [0u64, 8, 1000, 1001, 1_000_000] {
            let mut bytes = elem_bytes;
            let mut want = 0u64;
            for s in &p.stages {
                match s {
                    Stage::Map(f) => {
                        want += funcs::map_cost_bytes(*f, bytes);
                        if matches!(f, MapFunc::Odd | MapFunc::Even) {
                            bytes /= 2;
                        }
                    }
                    Stage::RadixCombine { .. } => want += bytes,
                    _ => {}
                }
            }
            assert_eq!(model.cost(elem_bytes), want);
        }
    }

    #[test]
    fn cost_model_is_free_without_costly_stages() {
        let p = pipeline(vec![Stage::Agg(AggKind::Count), Stage::StreamOf]);
        assert_eq!(CostModel::compile(&p).cost(123_456), 0);
    }
}
