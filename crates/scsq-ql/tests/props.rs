//! Property-based tests for SCSQL syntax and the columnar transpose:
//! printing any well-formed tree and re-parsing it yields the identical
//! tree, and every view of a transposed run reads back the run.

use proptest::prelude::*;
use scsq_ql::{
    parse_program, parse_statement, statement_to_scsql, ArrayData, ColumnarBatch, Expr,
    FunctionDef, PredOp, Predicate, SelectQuery, SpHandle, Statement, TypeName, Value, VarDecl,
};

/// Identifiers that cannot collide with keywords.
fn arb_ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("no keywords", |s| {
        !matches!(
            s.as_str(),
            "select"
                | "from"
                | "where"
                | "and"
                | "in"
                | "create"
                | "function"
                | "as"
                | "bag"
                | "of"
        )
    })
}

fn arb_literal() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Integer),
        // Finite reals that print re-parsably.
        (-1e12f64..1e12)
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::Real),
        "[a-z0-9 _.]{0,12}".prop_map(Value::Str),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_literal().prop_map(Expr::Literal),
        arb_ident().prop_map(Expr::Var),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (arb_ident(), proptest::collection::vec(inner.clone(), 0..4))
                .prop_map(|(name, args)| Expr::Call { name, args }),
            proptest::collection::vec(inner, 0..4).prop_map(Expr::Set),
        ]
    })
}

fn arb_type() -> impl Strategy<Value = TypeName> {
    prop_oneof![
        Just(TypeName::Sp),
        Just(TypeName::Integer),
        Just(TypeName::Real),
        Just(TypeName::String),
        Just(TypeName::Stream),
        Just(TypeName::Object),
    ]
}

fn arb_decl() -> impl Strategy<Value = VarDecl> {
    (arb_ident(), arb_type(), any::<bool>()).prop_map(|(name, ty, bag)| VarDecl { name, ty, bag })
}

fn arb_pred() -> impl Strategy<Value = Predicate> {
    (
        arb_ident(),
        prop_oneof![Just(PredOp::Eq), Just(PredOp::In)],
        arb_expr(),
    )
        .prop_map(|(v, op, rhs)| Predicate {
            lhs: Expr::Var(v),
            op,
            rhs,
        })
}

fn arb_select() -> impl Strategy<Value = SelectQuery> {
    (
        proptest::collection::vec(arb_expr(), 1..3),
        proptest::collection::vec(arb_decl(), 1..4),
        proptest::collection::vec(arb_pred(), 0..4),
    )
        .prop_map(|(head, decls, preds)| SelectQuery { head, decls, preds })
}

fn arb_statement() -> impl Strategy<Value = Statement> {
    prop_oneof![
        arb_select().prop_map(Statement::Select),
        arb_expr().prop_map(Statement::Expr),
        (
            arb_ident(),
            proptest::collection::vec((arb_ident(), arb_type()), 0..3),
            arb_type(),
            arb_expr(),
        )
            .prop_map(|(name, params, returns, body)| {
                Statement::CreateFunction(FunctionDef {
                    name,
                    params,
                    returns,
                    body,
                })
            }),
    ]
}

/// Reals with the encodings `PartialEq` cannot see: NaN and −0.0.
fn arb_real() -> impl Strategy<Value = f64> {
    prop_oneof![Just(f64::NAN), Just(-0.0), Just(0.0), any::<f64>()]
}

/// Any scalar a stream can carry, including the kinds without a typed
/// column layout (materialized arrays, bags, handles).
fn arb_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Integer),
        arb_real().prop_map(Value::Real),
        any::<bool>().prop_map(Value::Bool),
        "[a-z]{0,4}".prop_map(Value::Str),
        (0u64..5_000_000).prop_map(Value::synthetic_array),
        proptest::collection::vec(arb_real(), 0..3).prop_map(|v| Value::Array(ArrayData::Real(v))),
        prop_oneof![Just(0usize), Just(2)].prop_map(|n| Value::Bag(vec![Value::Integer(7); n])),
        any::<u64>().prop_map(|h| Value::Sp(SpHandle(h))),
    ]
}

/// A run as a stream delivers it: homogeneous runs of every typed
/// layout, metric triples, record bags of one arity, and mixed runs.
/// Runs of one-field bags are pinned by a unit test in `column.rs`.
fn arb_run() -> impl Strategy<Value = Vec<Value>> {
    use proptest::collection::vec;
    let n = 0..10usize;
    prop_oneof![
        vec(any::<i64>().prop_map(Value::Integer), n.clone()),
        vec(arb_real().prop_map(Value::Real), n.clone()),
        vec(any::<bool>().prop_map(Value::Bool), n.clone()),
        vec("[a-z]{0,4}".prop_map(Value::Str), n.clone()),
        vec(
            (0u64..5_000_000).prop_map(Value::synthetic_array),
            n.clone()
        ),
        vec(
            (any::<i64>(), any::<i64>(), any::<i64>()).prop_map(|(c, t, b)| {
                Value::Bag(vec![
                    Value::Integer(c),
                    Value::Integer(t),
                    Value::Integer(b),
                ])
            }),
            n.clone(),
        ),
        (2usize..5).prop_flat_map(move |w| vec(vec(arb_cell(), w).prop_map(Value::Bag), 0..10)),
        vec(arb_cell(), n),
    ]
}

/// Value equality down to the bits of every real.
fn bit_eq(a: &Value, b: &Value) -> bool {
    let reals_eq = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    match (a, b) {
        (Value::Real(x), Value::Real(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(ArrayData::Real(x)), Value::Array(ArrayData::Real(y))) => reals_eq(x, y),
        (Value::Bag(x), Value::Bag(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| bit_eq(p, q))
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every sub-slice of a transposed run reads back the run: row
    /// values bit for bit, row sizes as `Value::marshaled_size` charges
    /// them, and the layout-level uniform size whenever it answers.
    #[test]
    fn columnar_views_round_trip_the_run(run in arb_run()) {
        let batch = ColumnarBatch::from_values(&run);
        for start in 0..=run.len() {
            for end in start..=run.len() {
                let view = batch.slice(start, end);
                let src = &run[start..end];
                let uniform = view.uniform_row_size();
                for (row, v) in src.iter().enumerate() {
                    let got = view.value_at(row);
                    prop_assert!(
                        bit_eq(&got, v),
                        "row {} of {}..{}: {:?} != {:?}", row, start, end, got, v
                    );
                    prop_assert_eq!(view.row_marshaled_size(row), v.marshaled_size());
                    if let Some(size) = uniform {
                        prop_assert_eq!(size, v.marshaled_size());
                    }
                }
                let mut out = Vec::new();
                view.to_values_into(&mut out);
                prop_assert_eq!(out.len(), src.len());
                prop_assert!(out.iter().zip(src).all(|(g, v)| bit_eq(g, v)));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// parse(print(tree)) == tree for arbitrary well-formed trees.
    #[test]
    fn print_parse_round_trip(stmt in arb_statement()) {
        let printed = statement_to_scsql(&stmt);
        let reparsed = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("reparse of `{printed}` failed: {e}"));
        prop_assert_eq!(reparsed, stmt, "printed: {}", printed);
    }

    /// Printing is deterministic and parse-stable under a second cycle.
    #[test]
    fn printing_is_idempotent(stmt in arb_statement()) {
        let once = statement_to_scsql(&stmt);
        let twice = statement_to_scsql(&parse_statement(&once).expect("parses"));
        prop_assert_eq!(once, twice);
    }

    /// Multi-statement programs round-trip too.
    #[test]
    fn programs_round_trip(stmts in proptest::collection::vec(arb_statement(), 1..4)) {
        let text: String = stmts.iter().map(|s| statement_to_scsql(s) + "\n").collect();
        let reparsed = parse_program(&text).expect("program parses");
        prop_assert_eq!(reparsed, stmts);
    }
}
