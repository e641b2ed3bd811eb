//! Engine error type.

use scsq_cluster::CndbError;
use scsq_ql::QlError;
use std::fmt;

/// Errors from query set-up or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Language-level error (parse, catalog).
    Ql(QlError),
    /// Node selection failed (allocation sequence exhausted, unknown
    /// node) — the paper: "in case the stream contains no available
    /// node, the query will fail".
    Placement(CndbError),
    /// The binder could not resolve the query's variables.
    Bind(String),
    /// A value had the wrong type for where it was used.
    Type {
        /// What was required.
        expected: &'static str,
        /// What was found (type name).
        found: String,
        /// Where it happened.
        context: String,
    },
    /// Everything else that can go wrong while running.
    Runtime(String),
}

impl EngineError {
    /// Convenience constructor for bind errors.
    pub fn bind(msg: impl Into<String>) -> Self {
        EngineError::Bind(msg.into())
    }

    /// Convenience constructor for type errors.
    pub fn type_error(expected: &'static str, found: &impl TypeNamed, context: &str) -> Self {
        EngineError::Type {
            expected,
            found: found.type_name_owned(),
            context: context.to_string(),
        }
    }
}

/// Helper trait so [`EngineError::type_error`] can take any value that
/// knows its SCSQL type name.
pub trait TypeNamed {
    /// The SCSQL type name of the value.
    fn type_name_owned(&self) -> String;
}

impl TypeNamed for scsq_ql::Value {
    fn type_name_owned(&self) -> String {
        self.type_name().to_string()
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Ql(e) => write!(f, "{e}"),
            EngineError::Placement(e) => write!(f, "placement error: {e}"),
            EngineError::Bind(msg) => write!(f, "binder error: {msg}"),
            EngineError::Type {
                expected,
                found,
                context,
            } => write!(
                f,
                "type error in {context}: expected {expected}, found {found}"
            ),
            EngineError::Runtime(msg) => write!(f, "runtime error: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<QlError> for EngineError {
    fn from(e: QlError) -> Self {
        EngineError::Ql(e)
    }
}

impl From<CndbError> for EngineError {
    fn from(e: CndbError) -> Self {
        EngineError::Placement(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scsq_ql::Value;

    #[test]
    fn displays_are_informative() {
        let e = EngineError::bind("unresolved variable `x`");
        assert_eq!(e.to_string(), "binder error: unresolved variable `x`");
        let e = EngineError::type_error("sp", &Value::Integer(3), "merge argument");
        assert_eq!(
            e.to_string(),
            "type error in merge argument: expected sp, found integer"
        );
    }

    #[test]
    fn conversions_wrap_sources() {
        let e: EngineError = QlError::Catalog("unknown function `zap`".into()).into();
        assert!(e.to_string().contains("zap"));
    }
}
