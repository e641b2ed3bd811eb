//! SQEP operators: the compiled form of a stream process's sub-query and
//! the element-level execution logic.
//!
//! §2.3: each RP compiles its sub-query into a local Stream Query
//! Execution Plan (SQEP) and interprets it as data arrives. A
//! [`Pipeline`] is that plan: one input ([`InputKind`]), a chain of
//! [`Stage`]s, each either per-element (map, radix combine, window) or a
//! terminal aggregate that emits when the finite stream ends.
//!
//! [`StageChain`] is its runtime state and the one executor: the scalar
//! semantics of every stage live here, once (`StageState::step`, driven
//! over a run of elements by [`StageChain::process_run`], of which
//! [`StageChain::process_into`] is the run of one); `crate::fused` adds
//! the whole-column driver for the batches it admits.

use crate::error::EngineError;
use crate::funcs;
use crate::window::{WindowSpec, WindowState};
use scsq_ql::{SpHandle, Value};
use scsq_sim::{LatencyHistogram, StateProbe};
use std::collections::VecDeque;
use std::sync::Arc;

/// Where a pipeline's elements come from.
#[derive(Debug, Clone, PartialEq)]
pub enum InputKind {
    /// `gen_array(bytes, count)` — the paper's workload generator: a
    /// finite stream of `count` synthetic arrays of `bytes` bytes.
    Gen {
        /// Bytes per array.
        bytes: u64,
        /// Number of arrays.
        count: u64,
    },
    /// `extract(p)` / `merge(bag)` — subscribe to one or more producer
    /// SPs. `merge` "terminates when (if ever) the last stream process
    /// terminates" (§2.4).
    Receive {
        /// Producer stream processes, in query order.
        producers: Vec<SpHandle>,
    },
    /// `streamof(v)` over an already-evaluated value: emit the value(s)
    /// once and terminate.
    Const {
        /// The values to emit, shared with every run of the plan (a run
        /// walks them by index; nothing copies the source per run).
        values: Arc<[Value]>,
    },
    /// `receiver(name)` — a named external signal source (the paper's
    /// radix2 input): a finite stream of signal arrays.
    Receiver {
        /// Source name.
        name: String,
        /// Number of arrays to emit.
        arrays: u64,
        /// Samples per array (power of two for the FFT pipeline).
        samples: usize,
    },
    /// `grep(pattern, file)` — emit the matching lines of a (synthetic)
    /// file; the mapreduce example's map task.
    Grep {
        /// Substring to search for.
        pattern: String,
        /// File name in the synthetic corpus.
        file: String,
    },
    /// `metrics(p)` — the self-measurement source: one delivery sample
    /// per receive buffer on every channel leaving a target SP. The
    /// runtime synthesizes the samples (bags of `{channel, time_ns,
    /// bytes}`) as deliveries happen; the pipeline itself has no
    /// producers to pull from, so the observed query's channels are
    /// not re-routed through the observer.
    Metrics {
        /// The SPs whose outbound channels are observed.
        targets: Vec<SpHandle>,
    },
    /// `latency(p)` — the latency self-measurement source: one integer
    /// per element delivered on any channel leaving a target SP, the
    /// element's ingress→egress latency in simulated nanoseconds
    /// (enqueue at the producer to visibility at the subscriber). Like
    /// [`InputKind::Metrics`], the runtime synthesizes the samples as
    /// deliveries happen and the observer never perturbs the observed
    /// channels.
    Latency {
        /// The SPs whose outbound channels are observed.
        targets: Vec<SpHandle>,
    },
}

/// Per-element transformations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapFunc {
    /// `odd(x)` — odd-indexed samples of each array.
    Odd,
    /// `even(x)` — even-indexed samples of each array.
    Even,
    /// `fft(x)` — FFT of each array.
    Fft,
    /// `power(x)` — per-bin squared magnitude of each array.
    Power,
}

/// Terminal aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// `count(b)` — number of elements.
    Count,
    /// `sum(b)` — numeric sum of elements.
    Sum,
    /// `max(b)` — numeric maximum.
    Max,
    /// `min(b)` — numeric minimum.
    Min,
    /// `avg(b)` — numeric mean.
    Avg,
}

/// Elementwise arithmetic against a constant (`arith(s, op, k)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `'+'` — addition.
    Add,
    /// `'-'` — subtraction.
    Sub,
    /// `'*'` — multiplication.
    Mul,
}

impl ArithOp {
    /// Parses the query spelling of the operator.
    pub fn parse(op: &str) -> Option<ArithOp> {
        Some(match op {
            "+" => ArithOp::Add,
            "-" => ArithOp::Sub,
            "*" => ArithOp::Mul,
            _ => return None,
        })
    }

    /// The query spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
        }
    }
}

/// Elementwise comparison against a constant (`cmp` / `filter`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `'<'`.
    Lt,
    /// `'<='`.
    Le,
    /// `'>'`.
    Gt,
    /// `'>='`.
    Ge,
    /// `'='`.
    Eq,
    /// `'!='`.
    Ne,
}

impl CmpOp {
    /// Parses the query spelling of the operator.
    pub fn parse(op: &str) -> Option<CmpOp> {
        Some(match op {
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            "=" | "==" => CmpOp::Eq,
            "!=" | "<>" => CmpOp::Ne,
            _ => return None,
        })
    }

    /// The query spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        }
    }

    /// Applies the operator to a three-way ordering.
    pub(crate) fn holds(self, ord: std::cmp::Ordering) -> bool {
        match self {
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
        }
    }
}

/// Applies `value op rhs`. Integer ⊕ integer stays integer (wrapping,
/// like the column kernels); any real operand widens to real. The scalar
/// `arith` stage's semantics, mirrored exactly by the columnar kernels.
pub(crate) fn arith_apply(op: ArithOp, value: Value, rhs: &Value) -> Result<Value, EngineError> {
    match (&value, rhs) {
        (Value::Integer(a), Value::Integer(b)) => Ok(Value::Integer(match op {
            ArithOp::Add => a.wrapping_add(*b),
            ArithOp::Sub => a.wrapping_sub(*b),
            ArithOp::Mul => a.wrapping_mul(*b),
        })),
        _ => {
            let (Some(a), Some(b)) = (value.as_real(), rhs.as_real()) else {
                return Err(EngineError::type_error("number", &value, "arith"));
            };
            Ok(Value::Real(match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
            }))
        }
    }
}

/// Evaluates `value op rhs` as a boolean. Integer/integer compares
/// exactly; string/string compares lexicographically; any other numeric
/// mix compares as f64. Shared by the scalar `cmp` and `filter` stages.
pub(crate) fn cmp_apply(op: CmpOp, value: &Value, rhs: &Value) -> Result<bool, EngineError> {
    match (value, rhs) {
        (Value::Integer(a), Value::Integer(b)) => Ok(op.holds(a.cmp(b))),
        (Value::Str(a), Value::Str(b)) => Ok(op.holds(a.as_str().cmp(b.as_str()))),
        _ => {
            let (Some(a), Some(b)) = (value.as_real(), rhs.as_real()) else {
                return Err(EngineError::type_error("number", value, "cmp"));
            };
            Ok(cmp_f64(op, a, b))
        }
    }
}

/// IEEE comparison of two reals (NaN compares false everywhere except
/// `!=`, exactly like the raw f64 operators the column kernels use).
pub(crate) fn cmp_f64(op: CmpOp, a: f64, b: f64) -> bool {
    match op {
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
    }
}

/// One pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// Elementwise function.
    Map(MapFunc),
    /// Terminal aggregate: accumulates, emits one value at end of
    /// stream.
    Agg(AggKind),
    /// `streamof(e)` — identity on stream contents (it only changes the
    /// static type).
    StreamOf,
    /// `radixcombine(merge({o, e}))` — pair the i-th elements of the two
    /// producers and run the radix-2 combine; `first` is the odd-half
    /// FFT stream, `second` the even-half, matching the paper's radix2
    /// function text.
    RadixCombine {
        /// Producer of odd-half FFTs.
        first: SpHandle,
        /// Producer of even-half FFTs.
        second: SpHandle,
    },
    /// Sliding window aggregate (`winagg`).
    Window(WindowSpec),
    /// `take(s, k)` — pass the first k elements, drop the rest: a stop
    /// condition that makes the downstream stream finite (§2.2).
    Take {
        /// Number of elements to pass.
        limit: u64,
    },
    /// `bandwidth(s)` — terminal aggregate over a `metrics` sample
    /// stream: total delivered bytes / time of the last sample, emitted
    /// as one real (bytes/second) at end of stream.
    Bandwidth,
    /// `arith(s, op, k)` — elementwise arithmetic against a constant.
    Arith {
        /// The operator.
        op: ArithOp,
        /// The constant right-hand operand.
        rhs: Value,
    },
    /// `cmp(s, op, k)` — elementwise comparison against a constant;
    /// emits one boolean per element.
    Cmp {
        /// The operator.
        op: CmpOp,
        /// The constant right-hand operand.
        rhs: Value,
    },
    /// `filter(s, op, k)` — pass the elements for which the comparison
    /// holds, drop the rest.
    Filter {
        /// The predicate operator.
        op: CmpOp,
        /// The constant right-hand operand.
        rhs: Value,
    },
    /// `quantile(s, q)` — terminal aggregate: log-bucketed histogram of
    /// the (non-negative numeric) elements, emitting the value at
    /// quantile `q` as one integer at end of stream.
    Quantile {
        /// The quantile in `[0, 1]`.
        q: f64,
    },
}

/// A compiled SQEP.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    /// Element source.
    pub input: InputKind,
    /// Stage chain, source side first.
    pub stages: Vec<Stage>,
}

impl Pipeline {
    /// A pipeline that just forwards its input (`extract(b)` as a whole
    /// plan).
    pub fn relay(producers: Vec<SpHandle>) -> Pipeline {
        Pipeline {
            input: InputKind::Receive { producers },
            stages: Vec::new(),
        }
    }

    /// The producers this pipeline subscribes to (empty for sources).
    pub fn producers(&self) -> &[SpHandle] {
        match &self.input {
            InputKind::Receive { producers } => producers,
            _ => &[],
        }
    }
}

/// Runtime state of one stage. [`StageState::step`] mutates it one
/// element at a time and the column driver (`crate::fused`) a batch at
/// a time — the same representation, so probes and aggregate flushes
/// are identical by construction whichever ran.
#[derive(Debug)]
pub(crate) enum StageState {
    Map(MapFunc),
    Agg {
        kind: AggKind,
        count: i64,
        sum_int: i64,
        sum_real: f64,
        saw_real: bool,
        /// Best element so far (max/min), kept as the original value.
        best: Option<Value>,
    },
    StreamOf,
    RadixCombine {
        first: SpHandle,
        second: SpHandle,
        q_first: VecDeque<Value>,
        q_second: VecDeque<Value>,
    },
    Window(WindowState),
    Take {
        remaining: u64,
    },
    Bandwidth {
        /// Delivered bytes summed over all samples seen.
        bytes: u64,
        /// Timestamp (ns) of the latest sample.
        last_nanos: u64,
    },
    Arith {
        op: ArithOp,
        rhs: Value,
    },
    Cmp {
        op: CmpOp,
        rhs: Value,
    },
    Filter {
        op: CmpOp,
        rhs: Value,
    },
    Quantile {
        q: f64,
        /// Boxed: the 64-bucket histogram would otherwise quadruple
        /// every `StageState` — the enum sits in every stage of every
        /// chain, quantile or not.
        hist: Box<LatencyHistogram>,
    },
}

/// Builds one `metrics(p)` delivery sample: a bag `{channel, time_ns,
/// bytes}`. The runtime emits these; [`Stage::Bandwidth`] consumes them.
pub(crate) fn metric_sample(channel: usize, time_nanos: u64, bytes: u64) -> Value {
    Value::Bag(vec![
        Value::Integer(channel as i64),
        Value::Integer(time_nanos as i64),
        Value::Integer(bytes as i64),
    ])
}

/// Destructures a `metrics(p)` sample into `(time_ns, bytes)`. `None`
/// for values of any other shape.
pub(crate) fn metric_sample_parts(value: &Value) -> Option<(u64, u64)> {
    let Value::Bag(items) = value else {
        return None;
    };
    let [Value::Integer(_), Value::Integer(t), Value::Integer(bytes)] = items.as_slice() else {
        return None;
    };
    Some((u64::try_from(*t).ok()?, u64::try_from(*bytes).ok()?))
}

/// Folds one sample into a [`StageState::Bandwidth`] accumulator.
pub(crate) fn bandwidth_accumulate(
    bytes: &mut u64,
    last_nanos: &mut u64,
    value: &Value,
) -> Result<(), EngineError> {
    let Some((t, b)) = metric_sample_parts(value) else {
        return Err(EngineError::type_error("metric sample", value, "bandwidth"));
    };
    *bytes += b;
    if t > *last_nanos {
        *last_nanos = t;
    }
    Ok(())
}

/// Converts a quantile-stage element to the nanosecond value it
/// records: a non-negative integer, or a finite non-negative real
/// truncated to an integer (exactly what the columnar fold kernels
/// do, so the histograms match bit for bit across tiers).
pub(crate) fn quantile_value(value: &Value) -> Result<u64, EngineError> {
    match value {
        Value::Integer(i) if *i >= 0 => Ok(*i as u64),
        Value::Real(r) if r.is_finite() && *r >= 0.0 => Ok(*r as u64),
        _ => Err(EngineError::type_error(
            "non-negative number",
            value,
            "quantile",
        )),
    }
}

/// Folds one element into a [`StageState::Quantile`] histogram.
pub(crate) fn quantile_accumulate(
    hist: &mut LatencyHistogram,
    value: &Value,
) -> Result<(), EngineError> {
    hist.record(quantile_value(value)?);
    Ok(())
}

impl StageState {
    /// Consumes one element (from producer `from`, if any), mutates the
    /// stage's state and appends whatever the stage emits to `out`: the
    /// scalar semantics of every stage, and the reference the column
    /// kernels are tested against.
    fn step(
        &mut self,
        value: Value,
        from: Option<SpHandle>,
        out: &mut Vec<Value>,
    ) -> Result<(), EngineError> {
        match self {
            StageState::Map(f) => out.push(funcs::apply_map(*f, value)?),
            StageState::StreamOf => out.push(value),
            StageState::Agg {
                kind,
                count,
                sum_int,
                sum_real,
                saw_real,
                best,
            } => {
                *count += 1;
                let number = |v: &Value| {
                    v.as_real()
                        .ok_or_else(|| EngineError::type_error("number", v, "aggregate"))
                };
                match kind {
                    AggKind::Count => {}
                    AggKind::Sum | AggKind::Avg => {
                        let x = number(&value)?;
                        match &value {
                            Value::Integer(i) => *sum_int += i,
                            _ => {
                                *saw_real = true;
                                *sum_real += x;
                            }
                        }
                    }
                    AggKind::Max => {
                        let x = number(&value)?;
                        if best.as_ref().and_then(Value::as_real).is_none_or(|b| x > b) {
                            *best = Some(value);
                        }
                    }
                    AggKind::Min => {
                        let x = number(&value)?;
                        if best.as_ref().and_then(Value::as_real).is_none_or(|b| x < b) {
                            *best = Some(value);
                        }
                    }
                }
            }
            StageState::RadixCombine {
                first,
                second,
                q_first,
                q_second,
            } => {
                match from {
                    Some(h) if h == *first => q_first.push_back(value),
                    Some(h) if h == *second => q_second.push_back(value),
                    _ => {
                        return Err(EngineError::Runtime(format!(
                            "radixcombine received an element from an unexpected producer {from:?}"
                        )))
                    }
                }
                let pairs = q_first.len().min(q_second.len());
                for (odd, even) in q_first.drain(..pairs).zip(q_second.drain(..pairs)) {
                    out.push(funcs::radix_combine(even, odd)?);
                }
            }
            StageState::Window(w) => w.push(value, out)?,
            StageState::Take { remaining } => {
                if *remaining > 0 {
                    *remaining -= 1;
                    out.push(value);
                }
            }
            StageState::Bandwidth { bytes, last_nanos } => {
                bandwidth_accumulate(bytes, last_nanos, &value)?;
            }
            StageState::Arith { op, rhs } => out.push(arith_apply(*op, value, rhs)?),
            StageState::Cmp { op, rhs } => out.push(Value::Bool(cmp_apply(*op, &value, rhs)?)),
            StageState::Filter { op, rhs } => {
                if cmp_apply(*op, &value, rhs)? {
                    out.push(value);
                }
            }
            StageState::Quantile { hist, .. } => quantile_accumulate(hist, &value)?,
        }
        Ok(())
    }
}

/// Runtime state of a [`Pipeline`]'s stage chain — the one executor:
/// the scalar run driver here, and the whole-column driver of
/// `crate::fused` over the same states for the batches it admits.
#[derive(Debug)]
pub struct StageChain {
    pub(crate) stages: Vec<StageState>,
    /// Explain-analyze counters, one per stage. Empty unless profiling
    /// is enabled (`StageChain::enable_profiling`), so the per-element
    /// cost of the disabled path is a single bounds check.
    pub(crate) tally: Vec<crate::profile::StageTally>,
    /// Reusable ping-pong scratch: a run moves between the two, one
    /// stage at a time, so the driver allocates nothing after warm-up.
    /// `cur_row[i]` is the run row whose walk produced `cur[i]` (likewise
    /// `nxt_row`): what keeps a run's first error exact.
    cur: Vec<Value>,
    nxt: Vec<Value>,
    cur_row: Vec<usize>,
    nxt_row: Vec<usize>,
    /// The column tier's program for each batch type, lowered once
    /// here and looked up by [`StageChain::admit_cols`].
    pub(crate) programs: crate::fused::ColumnPrograms,
    /// Whether any stage charges modeled compute cost. Costly chains
    /// only admit batches whose elements share one marshaled size, so
    /// the runtime can charge the whole batch in bulk (same total, same
    /// jitter draws as charging element by element).
    pub(crate) costly: bool,
}

impl StageChain {
    /// Instantiates runtime state for a pipeline's stages.
    pub fn new(pipeline: &Pipeline) -> StageChain {
        let stage_list = &pipeline.stages;
        let stages = stage_list
            .iter()
            .map(|s| match s {
                Stage::Map(f) => StageState::Map(*f),
                Stage::Agg(kind) => StageState::Agg {
                    kind: *kind,
                    count: 0,
                    sum_int: 0,
                    sum_real: 0.0,
                    saw_real: false,
                    best: None,
                },
                Stage::StreamOf => StageState::StreamOf,
                Stage::RadixCombine { first, second } => StageState::RadixCombine {
                    first: *first,
                    second: *second,
                    q_first: VecDeque::new(),
                    q_second: VecDeque::new(),
                },
                Stage::Window(spec) => StageState::Window(WindowState::new(*spec)),
                Stage::Take { limit } => StageState::Take { remaining: *limit },
                Stage::Bandwidth => StageState::Bandwidth {
                    bytes: 0,
                    last_nanos: 0,
                },
                Stage::Arith { op, rhs } => StageState::Arith {
                    op: *op,
                    rhs: rhs.clone(),
                },
                Stage::Cmp { op, rhs } => StageState::Cmp {
                    op: *op,
                    rhs: rhs.clone(),
                },
                Stage::Filter { op, rhs } => StageState::Filter {
                    op: *op,
                    rhs: rhs.clone(),
                },
                Stage::Quantile { q } => StageState::Quantile {
                    q: *q,
                    hist: Box::new(LatencyHistogram::new()),
                },
            })
            .collect();
        StageChain {
            stages,
            tally: Vec::new(),
            cur: Vec::new(),
            nxt: Vec::new(),
            cur_row: Vec::new(),
            nxt_row: Vec::new(),
            programs: crate::fused::ColumnPrograms::lower(stage_list),
            costly: stage_list
                .iter()
                .any(|s| crate::fused::cost_op(s).is_some()),
        }
    }

    /// Allocates the explain-analyze counters. Called once at RP set-up
    /// when the run is profiled; never on the hot path.
    pub(crate) fn enable_profiling(&mut self) {
        self.tally = vec![crate::profile::StageTally::default(); self.stages.len()];
    }

    /// Books `rows` elements through every stage of a pass-through
    /// chain as one batch invocation (a prepared source's drain).
    pub(crate) fn tally_passthrough(&mut self, rows: u64) {
        for t in &mut self.tally {
            t.calls += 1;
            t.elems_in += rows;
            t.elems_out += rows;
        }
    }

    /// Feeds one element (from producer `from`, if any) through the
    /// chain, appending whatever falls out the end to `out`: a run of
    /// one ([`StageChain::process_run`]).
    ///
    /// # Errors
    ///
    /// Type errors when an elementwise function meets an incompatible
    /// value.
    pub fn process_into(
        &mut self,
        value: Value,
        from: Option<SpHandle>,
        out: &mut Vec<Value>,
    ) -> Result<(), EngineError> {
        self.cur.push(value);
        self.run_from(0, from, out)
    }

    /// Feeds the elements of `run` (all from producer `from`, if any)
    /// through the chain in one walk, leaving `run` empty and appending
    /// whatever falls out the end to `out`: the same outputs, stage
    /// states and profile tallies as [`StageChain::process_into`] on each
    /// element in turn.
    ///
    /// # Errors
    ///
    /// The error that element-by-element walk stops at, with `out`
    /// holding exactly the outputs of the elements before the failing
    /// one. The chain's state is then that of a failed run: the caller
    /// stops feeding it, as the runtime does.
    pub fn process_run(
        &mut self,
        run: &mut Vec<Value>,
        from: Option<SpHandle>,
        out: &mut Vec<Value>,
    ) -> Result<(), EngineError> {
        // `cur` is empty between walks: the swap hands `run` its capacity.
        std::mem::swap(&mut self.cur, run);
        self.run_from(0, from, out)
    }

    /// The one chain walk: drives the run staged in `cur` through stages
    /// `start..`, breadth-first, and appends what falls out the end to
    /// `out`. Stages are order-preserving stateful flat-maps, so passing
    /// every output of one stage to the next in order feeds each stage
    /// the same sequence a row-by-row walk would.
    ///
    /// Errors keep that walk's precedence. Each value carries the run row
    /// it came from. When a stage fails on row `r`, only values of rows
    /// before `r` go on (the row-by-row walk never took row `r` or any
    /// later row past this stage), so a later stage can only fail on an
    /// earlier row, and does exactly when the row-by-row walk would have
    /// failed there first. The last error found is therefore the one that
    /// walk reports, and what reaches `out` is what it emitted before.
    fn run_from(
        &mut self,
        start: usize,
        from: Option<SpHandle>,
        out: &mut Vec<Value>,
    ) -> Result<(), EngineError> {
        let mut failed = None;
        self.cur_row.clear();
        self.cur_row.extend(0..self.cur.len());
        for (i, stage) in self.stages.iter_mut().enumerate().skip(start) {
            if self.cur.is_empty() {
                break;
            }
            self.nxt.clear();
            self.nxt_row.clear();
            let n_in = self.cur.len() as u64;
            for (v, &row) in self.cur.drain(..).zip(&self.cur_row) {
                if let Err(e) = stage.step(v, from, &mut self.nxt) {
                    let keep = self.nxt_row.partition_point(|&r| r < row);
                    self.nxt.truncate(keep);
                    self.nxt_row.truncate(keep);
                    failed = Some(e);
                    break;
                }
                self.nxt_row.resize(self.nxt.len(), row);
            }
            if let Some(t) = self.tally.get_mut(i) {
                t.calls += n_in;
                t.elems_in += n_in;
                t.elems_out += self.nxt.len() as u64;
            }
            std::mem::swap(&mut self.cur, &mut self.nxt);
            std::mem::swap(&mut self.cur_row, &mut self.nxt_row);
        }
        out.append(&mut self.cur);
        failed.map_or(Ok(()), Err)
    }

    /// Walks the chain's mutable state through a coalescing probe.
    /// `probe_value` hashes buffered tuples into the probe's shape
    /// (aggregator counters extrapolate; buffered values must not
    /// change for a jump to be sound).
    pub(crate) fn probe(
        &mut self,
        p: &mut StateProbe<'_>,
        probe_value: &mut dyn FnMut(&Value, &mut StateProbe<'_>),
    ) {
        p.shape(self.stages.len() as u64);
        for s in &mut self.stages {
            match s {
                StageState::Map(f) => {
                    p.shape(1);
                    p.shape(*f as u64);
                }
                StageState::StreamOf => p.shape(2),
                StageState::Agg {
                    kind,
                    count,
                    sum_int,
                    sum_real,
                    saw_real,
                    best,
                } => {
                    p.shape(3);
                    p.shape(*kind as u64);
                    p.num_i64(count);
                    p.num_i64(sum_int);
                    p.shape(sum_real.to_bits());
                    p.shape(*saw_real as u64);
                    p.shape(best.is_some() as u64);
                    if let Some(v) = best {
                        probe_value(v, p);
                    }
                }
                StageState::RadixCombine {
                    first,
                    second,
                    q_first,
                    q_second,
                } => {
                    p.shape(4);
                    p.shape(first.0);
                    p.shape(second.0);
                    p.shape(q_first.len() as u64);
                    for v in q_first.iter() {
                        probe_value(v, p);
                    }
                    p.shape(q_second.len() as u64);
                    for v in q_second.iter() {
                        probe_value(v, p);
                    }
                }
                StageState::Window(w) => {
                    p.shape(5);
                    w.probe(p, probe_value);
                }
                StageState::Take { remaining } => {
                    p.shape(6);
                    p.num(remaining);
                }
                StageState::Bandwidth { bytes, last_nanos } => {
                    p.shape(7);
                    p.num(bytes);
                    // A timestamp: extrapolating it as a count would
                    // scale rather than shift it, so hash it as shape —
                    // a changing value then simply blocks the jump.
                    p.shape(*last_nanos);
                }
                // The compute stages are stateless: op + constant are
                // fixed at compile time, so shape alone pins them.
                StageState::Arith { op, rhs } => {
                    p.shape(8);
                    p.shape(*op as u64);
                    probe_value(rhs, p);
                }
                StageState::Cmp { op, rhs } => {
                    p.shape(9);
                    p.shape(*op as u64);
                    probe_value(rhs, p);
                }
                StageState::Filter { op, rhs } => {
                    p.shape(10);
                    p.shape(*op as u64);
                    probe_value(rhs, p);
                }
                StageState::Quantile { q, hist } => {
                    p.shape(11);
                    p.shape(q.to_bits());
                    hist.probe(p);
                }
            }
        }
        // Explain-analyze counters advance by a constant per period in a
        // steady phase, so a coalesce jump extrapolates them — profiled
        // runs still count every analytically-skipped element.
        p.shape(self.tally.len() as u64);
        for t in &mut self.tally {
            p.num(&mut t.calls);
            p.num(&mut t.elems_in);
            p.num(&mut t.elems_out);
        }
    }

    /// Signals end of stream; aggregates flush. Returns the final
    /// elements.
    ///
    /// # Errors
    ///
    /// A window's type error over its final partial window, and type
    /// errors from downstream stages processing flushed values.
    pub fn finish(&mut self) -> Result<Vec<Value>, EngineError> {
        let mut result = Vec::new();
        for idx in 0..self.stages.len() {
            // Each stage flushes into the run the chain walk drives on.
            let flushed = &mut self.cur;
            flushed.clear();
            match &mut self.stages[idx] {
                StageState::Agg {
                    kind,
                    count,
                    sum_int,
                    sum_real,
                    saw_real,
                    best,
                } => match kind {
                    AggKind::Count => flushed.push(Value::Integer(*count)),
                    AggKind::Sum => flushed.push(if *saw_real {
                        Value::Real(*sum_real + *sum_int as f64)
                    } else {
                        Value::Integer(*sum_int)
                    }),
                    AggKind::Avg => {
                        if *count != 0 {
                            flushed
                                .push(Value::Real((*sum_real + *sum_int as f64) / *count as f64));
                        }
                    }
                    // Empty streams have no extremum; emit nothing, like
                    // SQL's NULL-free aggregates over empty inputs.
                    AggKind::Max | AggKind::Min => flushed.extend(best.take()),
                },
                StageState::Window(w) => w.finish(flushed)?,
                StageState::Bandwidth { bytes, last_nanos } if *bytes > 0 && *last_nanos > 0 => {
                    flushed.push(Value::Real(
                        *bytes as f64 / (*last_nanos as f64 / 1_000_000_000.0),
                    ));
                }
                StageState::Quantile { q, hist } if !hist.is_empty() => {
                    flushed.push(Value::Integer(hist.quantile(*q) as i64));
                }
                _ => {}
            }
            self.run_from(idx + 1, None, &mut result)?;
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scsq_ql::ArrayData;

    fn chain(stages: Vec<Stage>) -> StageChain {
        StageChain::new(&Pipeline {
            input: InputKind::Const {
                values: Arc::new([]),
            },
            stages,
        })
    }

    /// Feeds one element and returns what fell out the end.
    fn push(
        c: &mut StageChain,
        value: Value,
        from: Option<SpHandle>,
    ) -> Result<Vec<Value>, EngineError> {
        let mut out = Vec::new();
        c.process_into(value, from, &mut out)?;
        Ok(out)
    }

    #[test]
    fn empty_chain_is_identity() {
        let mut c = chain(vec![]);
        let out = push(&mut c, Value::Integer(5), None).unwrap();
        assert_eq!(out, vec![Value::Integer(5)]);
        assert!(c.finish().unwrap().is_empty());
    }

    #[test]
    fn count_emits_once_at_eos() {
        let mut c = chain(vec![Stage::Agg(AggKind::Count)]);
        for i in 0..7 {
            assert!(push(&mut c, Value::synthetic_array(100 + i), None)
                .unwrap()
                .is_empty());
        }
        assert_eq!(c.finish().unwrap(), vec![Value::Integer(7)]);
    }

    #[test]
    fn sum_of_integers_stays_integer() {
        let mut c = chain(vec![Stage::Agg(AggKind::Sum)]);
        for i in 1..=4i64 {
            push(&mut c, Value::Integer(i), None).unwrap();
        }
        assert_eq!(c.finish().unwrap(), vec![Value::Integer(10)]);
    }

    #[test]
    fn sum_widens_to_real_when_needed() {
        let mut c = chain(vec![Stage::Agg(AggKind::Sum)]);
        push(&mut c, Value::Integer(1), None).unwrap();
        push(&mut c, Value::Real(0.5), None).unwrap();
        assert_eq!(c.finish().unwrap(), vec![Value::Real(1.5)]);
    }

    #[test]
    fn ill_typed_elements_are_type_errors() {
        let (arith, cmp, filter) = (
            Stage::Arith {
                op: ArithOp::Add,
                rhs: Value::Integer(1),
            },
            Stage::Cmp {
                op: CmpOp::Lt,
                rhs: Value::Integer(1),
            },
            Stage::Filter {
                op: CmpOp::Lt,
                rhs: Value::Real(1.0),
            },
        );
        // The runtime surfaces these messages to the client verbatim.
        for (stage, value, message) in [
            (
                Stage::Agg(AggKind::Sum),
                Value::from("x"),
                "aggregate: expected number, found string",
            ),
            (
                Stage::Agg(AggKind::Avg),
                Value::Bool(true),
                "aggregate: expected number, found boolean",
            ),
            (
                Stage::Agg(AggKind::Max),
                Value::from("x"),
                "aggregate: expected number, found string",
            ),
            (
                Stage::Agg(AggKind::Min),
                Value::synthetic_array(8),
                "aggregate: expected number, found array",
            ),
            (
                arith,
                Value::from("x"),
                "arith: expected number, found string",
            ),
            (cmp, Value::from("x"), "cmp: expected number, found string"),
            (
                filter,
                Value::Bool(true),
                "cmp: expected number, found boolean",
            ),
            (
                Stage::Map(MapFunc::Fft),
                Value::Integer(1),
                "expected array",
            ),
        ] {
            let mut c = chain(vec![stage.clone()]);
            let err = push(&mut c, value, None).unwrap_err().to_string();
            assert!(err.contains(message), "{stage:?}: {err}");
        }
        // `count` takes anything.
        let mut c = chain(vec![Stage::Agg(AggKind::Count)]);
        push(&mut c, Value::from("x"), None).unwrap();
    }

    #[test]
    fn a_stage_that_emits_nothing_ends_the_walk() {
        // Nothing reaches the stage that would reject it.
        let mut c = chain(vec![Stage::Take { limit: 0 }, Stage::Agg(AggKind::Sum)]);
        assert!(push(&mut c, Value::from("x"), None).unwrap().is_empty());
        let mut c = chain(vec![
            Stage::Filter {
                op: CmpOp::Gt,
                rhs: Value::Integer(5),
            },
            Stage::Map(MapFunc::Fft),
        ]);
        c.enable_profiling();
        assert!(push(&mut c, Value::Integer(1), None).unwrap().is_empty());
        assert_eq!(c.tally[1], crate::profile::StageTally::default());
        // A survivor does reach it.
        assert!(push(&mut c, Value::Integer(9), None).is_err());
    }

    #[test]
    fn winagg_feeds_a_downstream_aggregate_and_the_tallies_follow() {
        let window = WindowSpec::new(2, 2, AggKind::Sum).unwrap();
        let mut c = chain(vec![Stage::Window(window), Stage::Agg(AggKind::Sum)]);
        c.enable_profiling();
        for i in 1..=3 {
            assert!(push(&mut c, Value::Integer(i), None).unwrap().is_empty());
        }
        // The full window {1, 2} went downstream mid-stream; the flush
        // sends the partial window {3} after it, then the sum of both.
        assert_eq!(c.finish().unwrap(), vec![Value::Integer(6)]);
        let tally = |calls, elems_in, elems_out| crate::profile::StageTally {
            calls,
            elems_in,
            elems_out,
        };
        assert_eq!(c.tally, vec![tally(3, 3, 1), tally(2, 2, 0)]);
    }

    /// Feeds `values` as one run and element by element into two fresh
    /// profiled chains; returns both outcomes and leaves the chains for
    /// inspection.
    fn run_vs_elements(
        stages: &[Stage],
        values: &[Value],
    ) -> [(Vec<Value>, Result<(), String>, StageChain); 2] {
        let mut run = chain(stages.to_vec());
        run.enable_profiling();
        let mut run_out = Vec::new();
        let run_res = run
            .process_run(&mut values.to_vec(), None, &mut run_out)
            .map_err(|e| e.to_string());
        let mut each = chain(stages.to_vec());
        each.enable_profiling();
        let mut each_out = Vec::new();
        let each_res = values
            .iter()
            .try_for_each(|v| each.process_into(v.clone(), None, &mut each_out))
            .map_err(|e| e.to_string());
        [(run_out, run_res, run), (each_out, each_res, each)]
    }

    #[test]
    fn a_run_emits_and_tallies_what_its_elements_do() {
        let window = WindowSpec::new(3, 2, AggKind::Sum).unwrap();
        let stages = [
            Stage::Filter {
                op: CmpOp::Ne,
                rhs: Value::Integer(4),
            },
            Stage::Window(window),
            Stage::Take { limit: 3 },
            Stage::Agg(AggKind::Max),
        ];
        let values: Vec<Value> = (1..=12).map(Value::Integer).collect();
        let [(run_out, run_res, mut run), (each_out, each_res, mut each)] =
            run_vs_elements(&stages, &values);
        assert_eq!((run_out, run_res), (each_out, each_res));
        assert_eq!(run.tally, each.tally);
        assert_eq!(run.finish().unwrap(), each.finish().unwrap());
        assert_eq!(run.tally, each.tally);
    }

    #[test]
    fn a_run_reports_the_error_its_first_failing_element_raises() {
        // Element by element, row 1 completes the window {1, 2} and `arith`
        // rejects its sum 3 * "m". Breadth-first, `winagg` reaches row 2
        // (the window {2, "x"}) and fails first; the run must still report
        // the `arith` error, and emit nothing from row 1 or later.
        let stages = [
            Stage::Window(WindowSpec::new(2, 1, AggKind::Sum).unwrap()),
            Stage::Arith {
                op: ArithOp::Mul,
                rhs: Value::from("m"),
            },
        ];
        let values = [Value::Integer(1), Value::Integer(2), Value::from("x")];
        let [(run_out, run_res, _), (each_out, each_res, _)] = run_vs_elements(&stages, &values);
        assert_eq!(
            each_res,
            Err("type error in arith: expected number, found integer".into())
        );
        assert_eq!((run_out, run_res), (each_out, each_res));
        // Rows before the failing one still come out: with an integer
        // constant only row 2's window fails, after rows 0 and 1 emitted.
        let stages = [
            Stage::Window(WindowSpec::new(1, 1, AggKind::Sum).unwrap()),
            Stage::Arith {
                op: ArithOp::Add,
                rhs: Value::Integer(1),
            },
        ];
        let [(run_out, run_res, _), (each_out, each_res, _)] = run_vs_elements(&stages, &values);
        assert_eq!(run_out, vec![Value::Integer(2), Value::Integer(3)]);
        assert!(
            run_res.as_ref().unwrap_err().contains("winagg"),
            "{run_res:?}"
        );
        assert_eq!((run_out, run_res), (each_out, each_res));
    }

    #[test]
    fn a_partial_window_type_error_fails_the_flush() {
        // A full window over "x" is a type error mid-stream; the final
        // partial window holding it is one at end of stream, not a 0.
        let window = WindowSpec::new(4, 4, AggKind::Sum).unwrap();
        let mut c = chain(vec![Stage::Window(window), Stage::Agg(AggKind::Sum)]);
        for v in [Value::Integer(1), Value::Integer(2), Value::from("x")] {
            assert!(push(&mut c, v, None).unwrap().is_empty());
        }
        let err = c.finish().unwrap_err().to_string();
        assert!(
            err.contains("winagg: expected number, found string"),
            "{err}"
        );
    }

    #[test]
    fn streamof_then_count_composes() {
        // streamof(count(...)): identity after the aggregate.
        let mut c = chain(vec![Stage::Agg(AggKind::Count), Stage::StreamOf]);
        push(&mut c, Value::Integer(0), None).unwrap();
        push(&mut c, Value::Integer(0), None).unwrap();
        assert_eq!(c.finish().unwrap(), vec![Value::Integer(2)]);
    }

    #[test]
    fn map_feeds_aggregate() {
        // count(odd(x)) — count arrays after decimation.
        let mut c = chain(vec![Stage::Map(MapFunc::Odd), Stage::Agg(AggKind::Count)]);
        push(&mut c, Value::from(vec![1.0, 2.0, 3.0, 4.0]), None).unwrap();
        assert_eq!(c.finish().unwrap(), vec![Value::Integer(1)]);
    }

    #[test]
    fn radixcombine_pairs_in_order() {
        use scsq_fft::{fft_real, Complex};
        let a = SpHandle(1); // odd-half FFTs
        let b = SpHandle(2); // even-half FFTs
        let mut c = chain(vec![Stage::RadixCombine {
            first: a,
            second: b,
        }]);

        let signal: Vec<f64> = (0..8).map(|i| (i as f64 * 0.9).cos()).collect();
        let odd: Vec<f64> = signal.iter().copied().skip(1).step_by(2).collect();
        let even: Vec<f64> = signal.iter().copied().step_by(2).collect();
        let fft_of = |v: &[f64]| {
            Value::Array(ArrayData::Complex(
                fft_real(v)
                    .unwrap()
                    .into_iter()
                    .map(|c| (c.re, c.im))
                    .collect(),
            ))
        };

        // Odd-half arrives first; nothing emitted until its partner.
        assert!(push(&mut c, fft_of(&odd), Some(a)).unwrap().is_empty());
        let out = push(&mut c, fft_of(&even), Some(b)).unwrap();
        assert_eq!(out.len(), 1);
        let Value::Array(ArrayData::Complex(spectrum)) = &out[0] else {
            panic!("expected complex array")
        };
        let direct = fft_real(&signal).unwrap();
        for (got, want) in spectrum.iter().zip(&direct) {
            assert!((Complex::new(got.0, got.1) - *want).abs() < 1e-9);
        }
    }

    #[test]
    fn radixcombine_rejects_unknown_producer() {
        let mut c = chain(vec![Stage::RadixCombine {
            first: SpHandle(1),
            second: SpHandle(2),
        }]);
        for from in [Some(SpHandle(9)), None] {
            let err = push(&mut c, Value::Integer(1), from).unwrap_err();
            assert!(err.to_string().contains("unexpected producer"), "{err}");
        }
    }

    #[test]
    fn relay_pipeline_has_producers() {
        let p = Pipeline::relay(vec![SpHandle(3)]);
        assert_eq!(p.producers(), &[SpHandle(3)]);
        assert!(p.stages.is_empty());
    }

    #[test]
    fn metrics_pipeline_has_no_producers() {
        let p = Pipeline {
            input: InputKind::Metrics {
                targets: vec![SpHandle(1)],
            },
            stages: vec![],
        };
        assert!(p.producers().is_empty(), "observers subscribe to nothing");
    }

    #[test]
    fn bandwidth_divides_bytes_by_last_sample_time() {
        let mut c = chain(vec![Stage::Bandwidth]);
        // Two buffers of 500 bytes, the second visible at t = 2 ms.
        assert!(push(&mut c, metric_sample(0, 1_000_000, 500), None)
            .unwrap()
            .is_empty());
        push(&mut c, metric_sample(0, 2_000_000, 500), None).unwrap();
        let out = c.finish().unwrap();
        assert_eq!(out, vec![Value::Real(1000.0 / 0.002)]);
    }

    #[test]
    fn bandwidth_over_empty_stream_emits_nothing() {
        let mut c = chain(vec![Stage::Bandwidth]);
        assert!(c.finish().unwrap().is_empty());
    }

    #[test]
    fn bandwidth_rejects_non_samples() {
        let mut c = chain(vec![Stage::Bandwidth]);
        let err = push(&mut c, Value::Integer(5), None).unwrap_err();
        assert!(err.to_string().contains("metric sample"));
    }

    #[test]
    fn quantile_emits_histogram_quantile_at_eos() {
        let mut c = chain(vec![Stage::Quantile { q: 0.5 }]);
        for v in 1..=1000i64 {
            assert!(push(&mut c, Value::Integer(v), None).unwrap().is_empty());
        }
        // p50 of 1..=1000 lands in the [256, 512) bucket: upper bound 511.
        assert_eq!(c.finish().unwrap(), vec![Value::Integer(511)]);
    }

    #[test]
    fn quantile_truncates_reals_and_clamps_to_max() {
        let mut c = chain(vec![Stage::Quantile { q: 1.0 }]);
        push(&mut c, Value::Real(5.9), None).unwrap();
        push(&mut c, Value::Real(6.2), None).unwrap();
        assert_eq!(c.finish().unwrap(), vec![Value::Integer(6)]);
    }

    #[test]
    fn quantile_over_empty_stream_emits_nothing() {
        let mut c = chain(vec![Stage::Quantile { q: 0.99 }]);
        assert!(c.finish().unwrap().is_empty());
    }

    #[test]
    fn quantile_rejects_negative_and_non_numeric() {
        let mut c = chain(vec![Stage::Quantile { q: 0.5 }]);
        assert!(push(&mut c, Value::Integer(-1), None).is_err());
        assert!(push(&mut c, Value::from("x"), None).is_err());
    }
}
