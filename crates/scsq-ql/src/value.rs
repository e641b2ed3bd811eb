//! The SCSQL object model.
//!
//! "All data in SCSQ is represented by *objects* in SCSQL" (§2.4, Fig 4).
//! A stream is an object representing a possibly unbounded sequence of
//! objects; stream processes are objects too, so queries can pass them
//! around, put them in bags, and merge over them.

use std::fmt;

/// Handle to a stream process (SP) — the first-class process objects of
/// §2.4. Handles are issued by the engine's client manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpHandle(pub u64);

/// Handle to a stream object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamHandle(pub u64);

/// Payload of an SCSQL array object.
///
/// The paper's experiments stream "arrays of numerical data" of 3 MB
/// each; materializing them would cost gigabytes of host memory for no
/// benefit, so [`ArrayData::Synthetic`] carries only the byte size while
/// behaving as one element for `count()` and friends. Real workloads
/// (FFT, examples) use materialized variants.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayData {
    /// A materialized array of reals.
    Real(Vec<f64>),
    /// A materialized array of complex numbers as (re, im) pairs (the
    /// FFT pipeline of the paper's `radix2` example).
    Complex(Vec<(f64, f64)>),
    /// A synthetic array: `bytes` of numerical data exist only in the
    /// simulation's accounting.
    Synthetic {
        /// Marshaled size in bytes.
        bytes: u64,
    },
}

impl ArrayData {
    /// Number of scalar elements (synthetic arrays report their byte
    /// count divided by the 8-byte element size the paper's "arrays of
    /// numerical data" imply).
    pub fn len(&self) -> usize {
        match self {
            ArrayData::Real(v) => v.len(),
            ArrayData::Complex(v) => v.len(),
            ArrayData::Synthetic { bytes } => (*bytes / 8) as usize,
        }
    }

    /// Whether the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marshaled payload size in bytes (excluding the type tag).
    pub fn byte_size(&self) -> u64 {
        match self {
            ArrayData::Real(v) => 8 * v.len() as u64,
            ArrayData::Complex(v) => 16 * v.len() as u64,
            ArrayData::Synthetic { bytes } => *bytes,
        }
    }
}

/// An SCSQL object.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Integer(i64),
    /// 64-bit float.
    Real(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Array of numerical data.
    Array(ArrayData),
    /// Bag (unordered collection; the paper's `bag of sp` and the result
    /// of `spv`).
    Bag(Vec<Value>),
    /// Stream process handle.
    Sp(SpHandle),
    /// Stream handle.
    Stream(StreamHandle),
}

impl Value {
    /// A synthetic numerical array of `bytes` bytes (what `gen_array`
    /// produces).
    pub fn synthetic_array(bytes: u64) -> Value {
        Value::Array(ArrayData::Synthetic { bytes })
    }

    /// The SCSQL type name, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Integer(_) => "integer",
            Value::Real(_) => "real",
            Value::Str(_) => "string",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
            Value::Bag(_) => "bag",
            Value::Sp(_) => "sp",
            Value::Stream(_) => "stream",
        }
    }

    /// The integer inside, if this is an integer.
    pub fn as_integer(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => Some(*i),
            _ => None,
        }
    }

    /// The float inside, accepting integers (SQL-style numeric widening).
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(r) => Some(*r),
            Value::Integer(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The string inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean inside, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The SP handle inside, if this is a stream process.
    pub fn as_sp(&self) -> Option<SpHandle> {
        match self {
            Value::Sp(h) => Some(*h),
            _ => None,
        }
    }

    /// The bag contents, if this is a bag.
    pub fn as_bag(&self) -> Option<&[Value]> {
        match self {
            Value::Bag(items) => Some(items),
            _ => None,
        }
    }

    /// Marshaled size of this object in bytes — what the sender driver
    /// charges when packing it into stream buffers (§2.3 step ii). This
    /// is the marshaling format's definition: a one-byte type tag, then
    /// 8 bytes for an integer, real or handle, 1 for a boolean, a 4-byte
    /// length and the UTF-8 bytes of a string, an 8-byte element count
    /// and the payload of an array, or a 4-byte count and the marshaled
    /// items of a bag. A synthetic array's payload is its simulated byte
    /// count, which is never materialized.
    pub fn marshaled_size(&self) -> u64 {
        1 + match self {
            Value::Integer(_) | Value::Real(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => 4 + s.len() as u64,
            Value::Array(a) => 8 + a.byte_size(),
            Value::Bag(items) => 4 + items.iter().map(Value::marshaled_size).sum::<u64>(),
            Value::Sp(_) | Value::Stream(_) => 8,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Integer(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Self {
        Value::Array(ArrayData::Real(v))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Integer(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Array(ArrayData::Synthetic { bytes }) => write!(f, "array<{bytes}B>"),
            Value::Array(a) => write!(f, "array[{}]", a.len()),
            Value::Bag(items) => {
                write!(f, "{{")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::Sp(h) => write!(f, "sp#{}", h.0),
            Value::Stream(h) => write!(f, "stream#{}", h.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marshaled_sizes_are_tag_plus_payload() {
        assert_eq!(Value::Integer(7).marshaled_size(), 9);
        assert_eq!(Value::Real(1.5).marshaled_size(), 9);
        assert_eq!(Value::Bool(true).marshaled_size(), 2);
        assert_eq!(Value::from("abc").marshaled_size(), 1 + 4 + 3);
        assert_eq!(
            Value::synthetic_array(3_000_000).marshaled_size(),
            3_000_009
        );
        assert_eq!(
            Value::from(vec![1.0, 2.0, 3.0]).marshaled_size(),
            1 + 8 + 24
        );
        assert_eq!(
            Value::Array(ArrayData::Complex(vec![(1.0, 2.0)])).marshaled_size(),
            1 + 8 + 16
        );
        assert_eq!(Value::Sp(SpHandle(3)).marshaled_size(), 9);
        assert_eq!(Value::Stream(StreamHandle(8)).marshaled_size(), 9);
    }

    #[test]
    fn bag_size_is_recursive() {
        let bag = Value::Bag(vec![Value::Integer(1), Value::from("xy")]);
        assert_eq!(bag.marshaled_size(), 1 + 4 + 9 + (1 + 4 + 2));
    }

    #[test]
    fn synthetic_array_counts_as_one_element_with_many_scalars() {
        let v = Value::synthetic_array(3_000_000);
        match v {
            Value::Array(ref a) => {
                assert_eq!(a.len(), 375_000);
                assert!(!a.is_empty());
            }
            _ => panic!("not an array"),
        }
    }

    #[test]
    fn accessors_filter_by_type() {
        assert_eq!(Value::Integer(3).as_integer(), Some(3));
        assert_eq!(Value::Integer(3).as_real(), Some(3.0));
        assert_eq!(Value::Real(2.5).as_real(), Some(2.5));
        assert_eq!(Value::Real(2.5).as_integer(), None);
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Integer(1).as_bool(), None);
        assert_eq!(Value::Sp(SpHandle(4)).as_sp(), Some(SpHandle(4)));
        assert!(Value::Bag(vec![]).as_bag().unwrap().is_empty());
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Value::Integer(42).to_string(), "42");
        assert_eq!(Value::from("bg").to_string(), "'bg'");
        assert_eq!(
            Value::Bag(vec![Value::Integer(1), Value::Integer(2)]).to_string(),
            "{1, 2}"
        );
        assert_eq!(Value::synthetic_array(100).to_string(), "array<100B>");
        assert_eq!(Value::Sp(SpHandle(2)).to_string(), "sp#2");
    }

    #[test]
    fn type_names_cover_all_variants() {
        let variants = [
            Value::Integer(0),
            Value::Real(0.0),
            Value::from(""),
            Value::Bool(false),
            Value::synthetic_array(1),
            Value::Bag(vec![]),
            Value::Sp(SpHandle(0)),
            Value::Stream(StreamHandle(0)),
        ];
        let names: Vec<_> = variants.iter().map(|v| v.type_name()).collect();
        assert_eq!(
            names,
            ["integer", "real", "string", "boolean", "array", "bag", "sp", "stream"]
        );
    }
}
