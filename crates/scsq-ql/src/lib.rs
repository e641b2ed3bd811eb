#![deny(missing_docs)]
//! # scsq-ql — the SCSQL continuous query language
//!
//! §2.4 of the paper: "SCSQL is a query language similar to SQL, but
//! extended with streams and stream processes as first-class objects."
//! This crate implements the *language* half of SCSQ:
//!
//! * [`value`] — the SCSQL object model (paper Fig 4): integers, reals,
//!   strings, arrays (including *synthetic* arrays whose bytes are
//!   simulated rather than materialized), bags, and handles to streams
//!   and stream processes. [`Value::marshaled_size`] defines the
//!   marshaling format: the bytes a stream carrier charges for each
//!   object it packs into a send buffer (§2.3).
//! * [`lexer`] / [`parser`] / [`ast`] — SCSQL surface syntax. The six
//!   inbound queries, the intra-BlueGene measurement queries, the
//!   mapreduce-grep query, and the `radix2` function from the paper all
//!   parse verbatim.
//! * [`catalog`] — the function catalog: the built-in vocabulary
//!   (`sp`, `spv`, `extract`, `merge`, `streamof`, `count`, `iota`, …)
//!   plus user-defined query functions (`create function`).
//!
//! Query *execution* lives in `scsq-engine`; this crate is pure syntax
//! and data, with no dependency on the simulator.
//!
//! ## Example
//!
//! ```
//! use scsq_ql::parse_statement;
//!
//! let stmt = parse_statement(
//!     "select extract(b) from sp a, sp b \
//!      where b=sp(streamof(count(extract(a))), 'bg', 0) \
//!      and a=sp(gen_array(3000000, 100), 'bg', 1);",
//! )?;
//! # Ok::<(), scsq_ql::QlError>(())
//! ```

pub mod ast;
pub mod catalog;
pub mod column;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod value;

pub use ast::{Expr, FunctionDef, PredOp, Predicate, SelectQuery, Statement, TypeName, VarDecl};
pub use catalog::{Builtin, Catalog, Resolved};
pub use column::{Column, ColumnData, ColumnarBatch, SelectionVector};
pub use error::QlError;
pub use lexer::{Lexer, Token, TokenKind};
pub use parser::{parse_program, parse_statement};
pub use printer::{expr_to_scsql, statement_to_scsql};
pub use value::{ArrayData, SpHandle, StreamHandle, Value};
