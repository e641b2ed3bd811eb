//! Error type for SCSQL processing.

use std::fmt;

/// Errors from lexing, parsing, or catalog resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QlError {
    /// Lexical error: unexpected character or malformed literal.
    Lex {
        /// 1-based line.
        line: u32,
        /// 1-based column.
        col: u32,
        /// Description of the problem.
        msg: String,
    },
    /// Syntax error.
    Parse {
        /// 1-based line.
        line: u32,
        /// 1-based column.
        col: u32,
        /// Description of the problem.
        msg: String,
    },
    /// Catalog error: unknown function, wrong arity, or duplicate
    /// definition.
    Catalog(String),
}

impl QlError {
    /// Convenience constructor for parse errors.
    pub fn parse(line: u32, col: u32, msg: impl Into<String>) -> Self {
        QlError::Parse {
            line,
            col,
            msg: msg.into(),
        }
    }

    /// Convenience constructor for lexical errors.
    pub fn lex(line: u32, col: u32, msg: impl Into<String>) -> Self {
        QlError::Lex {
            line,
            col,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for QlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QlError::Lex { line, col, msg } => {
                write!(f, "lexical error at {line}:{col}: {msg}")
            }
            QlError::Parse { line, col, msg } => {
                write!(f, "syntax error at {line}:{col}: {msg}")
            }
            QlError::Catalog(msg) => write!(f, "catalog error: {msg}"),
        }
    }
}

impl std::error::Error for QlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = QlError::parse(3, 14, "expected `from`");
        assert_eq!(e.to_string(), "syntax error at 3:14: expected `from`");
        let e = QlError::lex(1, 2, "unterminated string");
        assert!(e.to_string().starts_with("lexical error at 1:2"));
    }
}
