//! Sliding-window aggregation.
//!
//! §4 notes that "SCSQ features all common stream operators including
//! window aggregation"; the evaluation queries do not use it, but the
//! operator is part of the system. `winagg(s, size, slide, 'fn')`
//! computes `fn` over each window of `size` elements, advancing by
//! `slide`.

use crate::error::EngineError;
use crate::ops::AggKind;
use scsq_ql::Value;
use std::collections::VecDeque;

/// Static description of a window aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window length in elements.
    pub size: usize,
    /// Slide in elements (tumbling when `slide == size`).
    pub slide: usize,
    /// Aggregate applied to each window.
    pub agg: AggKind,
}

impl WindowSpec {
    /// Creates a spec, validating the parameters.
    ///
    /// # Errors
    ///
    /// [`EngineError::Bind`] if size or slide is zero.
    pub fn new(size: usize, slide: usize, agg: AggKind) -> Result<WindowSpec, EngineError> {
        if size == 0 || slide == 0 {
            return Err(EngineError::bind(format!(
                "window size and slide must be positive (got size={size}, slide={slide})"
            )));
        }
        Ok(WindowSpec { size, slide, agg })
    }
}

/// Runtime state of a window aggregate.
#[derive(Debug)]
pub struct WindowState {
    spec: WindowSpec,
    buffer: VecDeque<Value>,
    /// Elements consumed since the last emitted window.
    since_emit: usize,
    emitted_any: bool,
}

impl WindowState {
    /// Fresh state for a spec.
    pub fn new(spec: WindowSpec) -> WindowState {
        WindowState {
            spec,
            buffer: VecDeque::new(),
            since_emit: 0,
            emitted_any: false,
        }
    }

    /// Feeds one element, appending the window aggregate it completes (if
    /// any) to `out`.
    ///
    /// # Errors
    ///
    /// Type error when summing non-numeric elements.
    pub fn push(&mut self, value: Value, out: &mut Vec<Value>) -> Result<(), EngineError> {
        self.buffer.push_back(value);
        if self.buffer.len() > self.spec.size {
            self.buffer.pop_front();
        }
        self.since_emit += 1;
        let due = if self.emitted_any {
            self.since_emit >= self.spec.slide
        } else {
            self.buffer.len() >= self.spec.size
        };
        if due {
            self.since_emit = 0;
            self.emitted_any = true;
            out.push(self.aggregate()?);
        }
        Ok(())
    }

    /// End of stream: appends a final partial window over the elements
    /// that arrived since the last emission, if any, to `out`.
    ///
    /// # Errors
    ///
    /// The same type error a full window over those elements raises.
    pub fn finish(&mut self, out: &mut Vec<Value>) -> Result<(), EngineError> {
        let tail = self.since_emit.min(self.buffer.len());
        if tail == 0 {
            return Ok(());
        }
        self.since_emit = 0;
        self.buffer.drain(..self.buffer.len() - tail);
        out.push(self.aggregate()?);
        Ok(())
    }

    /// Walks the window's mutable state through a coalescing probe.
    pub(crate) fn probe(
        &mut self,
        p: &mut scsq_sim::StateProbe<'_>,
        probe_value: &mut dyn FnMut(&Value, &mut scsq_sim::StateProbe<'_>),
    ) {
        p.shape(self.buffer.len() as u64);
        for v in &self.buffer {
            probe_value(v, p);
        }
        p.num_usize(&mut self.since_emit);
        p.shape(self.emitted_any as u64);
    }

    fn aggregate(&self) -> Result<Value, EngineError> {
        if self.spec.agg == AggKind::Count {
            return Ok(Value::Integer(self.buffer.len() as i64));
        }
        let mut acc = 0.0;
        let mut all_int = true;
        let mut int_acc = 0i64;
        let mut best: Option<&Value> = None;
        for v in &self.buffer {
            let x = match v {
                Value::Integer(i) => {
                    int_acc += i;
                    *i as f64
                }
                Value::Real(r) => {
                    all_int = false;
                    *r
                }
                other => return Err(EngineError::type_error("number", other, "winagg")),
            };
            acc += if matches!(v, Value::Real(_)) { x } else { 0.0 };
            let replace = match (self.spec.agg, best.and_then(Value::as_real)) {
                (AggKind::Max, Some(b)) => x > b,
                (AggKind::Min, Some(b)) => x < b,
                (_, None) => true,
                _ => false,
            };
            if replace {
                best = Some(v);
            }
        }
        let total = acc + int_acc as f64;
        Ok(match self.spec.agg {
            AggKind::Count => Value::Integer(self.buffer.len() as i64),
            AggKind::Sum if all_int => Value::Integer(int_acc),
            AggKind::Sum => Value::Real(total),
            AggKind::Avg => Value::Real(total / self.buffer.len() as f64),
            AggKind::Max | AggKind::Min => best
                .cloned()
                .ok_or_else(|| EngineError::Runtime("winagg max/min of an empty window".into()))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(state: &mut WindowState, values: &[i64]) -> Vec<Value> {
        let mut out = Vec::new();
        for &v in values {
            state.push(Value::Integer(v), &mut out).unwrap();
        }
        out
    }

    fn flush(state: &mut WindowState) -> Result<Vec<Value>, EngineError> {
        let mut out = Vec::new();
        state.finish(&mut out)?;
        Ok(out)
    }

    #[test]
    fn tumbling_count_window() {
        let mut w = WindowState::new(WindowSpec::new(3, 3, AggKind::Count).unwrap());
        let out = ints(&mut w, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(out, vec![Value::Integer(3), Value::Integer(3)]);
    }

    #[test]
    fn sliding_sum_window() {
        let mut w = WindowState::new(WindowSpec::new(3, 1, AggKind::Sum).unwrap());
        let out = ints(&mut w, &[1, 2, 3, 4]);
        // Windows: [1,2,3]=6, [2,3,4]=9.
        assert_eq!(out, vec![Value::Integer(6), Value::Integer(9)]);
    }

    #[test]
    fn finish_flushes_partial_window() {
        let mut w = WindowState::new(WindowSpec::new(4, 4, AggKind::Sum).unwrap());
        assert!(ints(&mut w, &[5, 7]).is_empty());
        assert_eq!(flush(&mut w).unwrap(), vec![Value::Integer(12)]);
        // Second finish is a no-op.
        assert!(flush(&mut w).unwrap().is_empty());
    }

    #[test]
    fn finish_covers_only_unemitted_elements() {
        // Tumbling size 4 over 10 elements: two full windows emit, then
        // the flush covers only [9, 10], not the window buffer's stale
        // tail.
        let mut w = WindowState::new(WindowSpec::new(4, 4, AggKind::Sum).unwrap());
        let emitted = ints(&mut w, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(emitted, vec![Value::Integer(10), Value::Integer(26)]);
        assert_eq!(flush(&mut w).unwrap(), vec![Value::Integer(19)]);
    }

    #[test]
    fn real_values_widen_the_sum() {
        let mut w = WindowState::new(WindowSpec::new(2, 2, AggKind::Sum).unwrap());
        let mut out = Vec::new();
        w.push(Value::Integer(1), &mut out).unwrap();
        w.push(Value::Real(0.25), &mut out).unwrap();
        assert_eq!(out, vec![Value::Real(1.25)]);
    }

    #[test]
    fn zero_size_is_rejected() {
        assert!(WindowSpec::new(0, 1, AggKind::Count).is_err());
        assert!(WindowSpec::new(1, 0, AggKind::Count).is_err());
    }

    #[test]
    fn sum_window_rejects_strings() {
        let mut w = WindowState::new(WindowSpec::new(1, 1, AggKind::Sum).unwrap());
        assert!(w.push(Value::from("x"), &mut Vec::new()).is_err());
    }

    #[test]
    fn partial_window_rejects_strings_like_a_full_one() {
        // The unemitted tail {"x"} is aggregated at end of stream with the
        // same check a full window gets: a type error, not a sum of 0.
        let mut w = WindowState::new(WindowSpec::new(4, 4, AggKind::Sum).unwrap());
        assert_eq!(ints(&mut w, &[1, 2, 3, 4]), vec![Value::Integer(10)]);
        w.push(Value::from("x"), &mut Vec::new()).unwrap();
        let err = flush(&mut w).unwrap_err().to_string();
        assert!(
            err.contains("winagg: expected number, found string"),
            "{err}"
        );
        // `count` windows take anything, partial or not.
        let mut w = WindowState::new(WindowSpec::new(4, 4, AggKind::Count).unwrap());
        w.push(Value::from("x"), &mut Vec::new()).unwrap();
        assert_eq!(flush(&mut w).unwrap(), vec![Value::Integer(1)]);
    }
}
