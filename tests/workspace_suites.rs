//! The per-crate suites that prove the executor tiers, the coalescer
//! and the transport encodings equivalent, run from the root package.
//!
//! They live under `crates/*/tests`, which the tier-1 command (`cargo
//! test -q` at the repository root) never reaches: it builds the root
//! package only. Mounting the same source files here puts every
//! equivalence proptest, figure-CSV byte-identity test and the bench
//! binaries' flag check inside that gate. (`scripts/verify.sh` and CI run `cargo test -q --workspace`,
//! which runs them in their home crates too — with other proptest
//! cases, since the vendored runner seeds from the module path.)

#[path = "../crates/scsq-transport/tests/props.rs"]
mod transport_props;

#[path = "../crates/scsq-engine/tests/columnar_equiv.rs"]
mod columnar_equiv;

#[path = "../crates/scsq-engine/tests/columnar_accounting.rs"]
mod columnar_accounting;

#[path = "../crates/scsq-engine/tests/columnar_counts.rs"]
mod columnar_counts;

#[path = "../crates/scsq-engine/tests/coalesce_equiv.rs"]
mod coalesce_equiv;

#[path = "../crates/scsq-engine/tests/coalesce_counts.rs"]
mod coalesce_counts;

#[path = "../crates/scsq-bench/tests/coalesce_csv.rs"]
mod coalesce_csv;

#[path = "../crates/scsq-bench/tests/columnar_csv.rs"]
mod columnar_csv;

#[path = "../crates/scsq-bench/tests/cli_flags.rs"]
mod cli_flags;
