//! Query explanation: the set-up of a CQ, rendered as text.
//!
//! The paper's Figure 2 shows "the set-up of a CQ for execution in
//! SCSQ": which stream processes exist, where their RPs run, and which
//! streams connect them. [`explain_graph`] renders exactly that picture
//! for any query, without running it — the placement side effects (CNDB
//! allocations) happen against a scratch environment.

use crate::builder::QueryGraph;
use crate::fused::PreparedSource;
use crate::ops::{InputKind, Pipeline, Stage};
use scsq_cluster::ClusterName;
use scsq_ql::SpHandle;
use std::fmt::Write;

/// Renders a query graph as a human-readable set-up report.
pub fn explain_graph(graph: &QueryGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "continuous query set-up ({} stream processes):",
        graph.sps.len()
    );
    for sp in &graph.sps {
        let _ = writeln!(
            out,
            "  sp#{} @ {:<6} {}",
            sp.handle.0,
            sp.node.to_string(),
            describe_pipeline(&sp.pipeline)
        );
        write_verdicts(&mut out, &sp.pipeline, sp.source.as_ref());
    }
    let _ = writeln!(
        out,
        "  client @ {:<6} {}",
        graph.client_node.to_string(),
        describe_pipeline(&graph.client)
    );
    write_verdicts(&mut out, &graph.client, None);
    let mut streams = Vec::new();
    let mut collect = |producers: &[SpHandle], dst: String, dst_cluster: ClusterName| {
        for p in producers {
            #[expect(
                clippy::expect_used,
                reason = "the builder subscribes a pipeline only to SPs of the same graph"
            )]
            let src = graph
                .sps
                .iter()
                .find(|s| s.handle == *p)
                .expect("producer exists");
            let carrier = if src.node.cluster == ClusterName::BlueGene
                && dst_cluster == ClusterName::BlueGene
            {
                "mpi"
            } else {
                "tcp"
            };
            streams.push(format!(
                "  sp#{} ({}) ={}=> {}",
                p.0, src.node, carrier, dst
            ));
        }
    };
    for sp in &graph.sps {
        collect(
            sp.pipeline.producers(),
            format!("sp#{} ({})", sp.handle.0, sp.node),
            sp.node.cluster,
        );
    }
    collect(
        graph.client.producers(),
        format!("client ({})", graph.client_node),
        graph.client_node.cluster,
    );
    let _ = writeln!(out, "streams ({}):", streams.len());
    for s in streams {
        let _ = writeln!(out, "{s}");
    }
    out
}

/// Appends one indented line per stage with its static
/// columnar-admission verdict (`columnar` / `columnar (relay)` /
/// `scalar: <reason>`), so rejected shapes are diagnosable from the
/// set-up report alone. An SP's constant source gets a line of the
/// same form first: `columnar (prepared source)` — its pass-through
/// stages then ride the prepared column too — or why it is walked
/// element by element.
fn write_verdicts(out: &mut String, p: &Pipeline, source: Option<&PreparedSource>) {
    const PREPARED: &str = "columnar (prepared source)";
    let mut verdicts = crate::fused::admission_verdicts(&p.stages);
    if matches!(p.input, InputKind::Const { .. }) {
        let verdict = if source.is_some() {
            verdicts.fill(PREPARED.to_string());
            PREPARED.to_string()
        } else {
            // Only the client's pipeline reaches here with a source
            // that would qualify: its constants feed the result sink.
            let why = PreparedSource::prepare(p).err();
            format!("scalar: {}", why.unwrap_or("client-side constant"))
        };
        let _ = writeln!(out, "      {:<20} {verdict}", describe_input(&p.input));
    }
    for (stage, verdict) in p.stages.iter().zip(&verdicts) {
        let _ = writeln!(out, "      {:<20} {}", describe_stage(stage), verdict);
    }
}

/// One-line description of a compiled SQEP.
pub fn describe_pipeline(p: &Pipeline) -> String {
    let mut s = describe_input(&p.input);
    for stage in &p.stages {
        s.push_str(" | ");
        s.push_str(&describe_stage(stage));
    }
    s
}

/// One-token description of a SQEP source.
pub(crate) fn describe_input(input: &InputKind) -> String {
    match input {
        InputKind::Gen { bytes, count } => format!("gen_array({bytes} B x {count})"),
        InputKind::Receive { producers } => {
            let ids: Vec<String> = producers.iter().map(|h| format!("sp#{}", h.0)).collect();
            format!("receive[{}]", ids.join(", "))
        }
        InputKind::Const { values } => format!("const[{} values]", values.len()),
        InputKind::Receiver {
            name,
            arrays,
            samples,
        } => {
            format!("receiver('{name}', {arrays} x {samples} samples)")
        }
        InputKind::Grep { pattern, file } => format!("grep('{pattern}', '{file}')"),
        InputKind::Metrics { targets } => {
            let ids: Vec<String> = targets.iter().map(|h| format!("sp#{}", h.0)).collect();
            format!("metrics[{}]", ids.join(", "))
        }
        InputKind::Latency { targets } => {
            let ids: Vec<String> = targets.iter().map(|h| format!("sp#{}", h.0)).collect();
            format!("latency[{}]", ids.join(", "))
        }
    }
}

/// One-token description of a single SQEP stage.
pub(crate) fn describe_stage(stage: &Stage) -> String {
    match stage {
        Stage::Map(f) => format!("{f:?}").to_lowercase(),
        Stage::Agg(k) => format!("{k:?}").to_lowercase(),
        Stage::StreamOf => "streamof".to_string(),
        Stage::RadixCombine { first, second } => {
            format!("radixcombine(sp#{}, sp#{})", first.0, second.0)
        }
        Stage::Window(w) => format!("winagg({}, {}, {:?})", w.size, w.slide, w.agg).to_lowercase(),
        Stage::Take { limit } => format!("take({limit})"),
        Stage::Bandwidth => "bandwidth".to_string(),
        Stage::Quantile { q } => format!("quantile({q})"),
        Stage::Arith { op, rhs } => format!("arith({} {rhs})", op.symbol()),
        Stage::Cmp { op, rhs } => format!("cmp({} {rhs})", op.symbol()),
        Stage::Filter { op, rhs } => format!("filter({} {rhs})", op.symbol()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use crate::placement::PlacementPolicy;
    use crate::runtime::RunOptions;
    use scsq_cluster::Environment;
    use scsq_ql::{parse_statement, Catalog};

    fn explain(src: &str) -> String {
        let mut env = Environment::lofar();
        let catalog = Catalog::new();
        let options = RunOptions::default();
        let stmt = parse_statement(src).expect("parses");
        let graph = QueryBuilder::new(&mut env, &catalog, PlacementPolicy::Naive, &options)
            .build(&stmt, &[])
            .expect("builds");
        explain_graph(&graph)
    }

    #[test]
    fn explains_the_p2p_query() {
        let text = explain(
            "select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(3000000,100),'bg',1);",
        );
        assert!(text.contains("2 stream processes"), "{text}");
        assert!(
            text.contains("sp#0 @ bg:1   gen_array(3000000 B x 100)"),
            "{text}"
        );
        assert!(text.contains("receive[sp#0] | count | streamof"), "{text}");
        assert!(text.contains("=mpi=>"), "{text}");
        assert!(text.contains("=tcp=> client (fe:0)"), "{text}");
    }

    #[test]
    fn explains_inbound_topology() {
        let text = explain(
            "select extract(c) from bag of sp a, sp b, sp c, integer n
             where c=sp(extract(b), 'bg')
             and b=sp(count(merge(a)), 'bg')
             and a=spv((select gen_array(1000,1)
                        from integer i where i in iota(1,n)), 'be', 1)
             and n=3;",
        );
        assert!(text.contains("5 stream processes"), "{text}");
        assert!(text.contains("receive[sp#0, sp#1, sp#2] | count"), "{text}");
        // Three TCP streams cross be -> bg.
        assert_eq!(text.matches("=tcp=> sp#3").count(), 3, "{text}");
    }

    #[test]
    fn describes_metrics_observers() {
        let text = explain(
            "select extract(m) from sp a, sp b, sp m
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(1000000,10),'bg',1)
             and m=sp(streamof(bandwidth(metrics(a))), 'bg', 2);",
        );
        assert!(text.contains("metrics[sp#0]"), "{text}");
        assert!(text.contains("| bandwidth | streamof"), "{text}");
    }

    #[test]
    fn annotates_absorbing_chains_with_columnar_verdicts() {
        let text = explain(
            "select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(3000000,100),'bg',1);",
        );
        // count absorbs columnar; streamof only ever sees the flush.
        assert!(text.contains("count                columnar"), "{text}");
        assert!(
            text.contains("streamof             scalar: after the absorber (sees only the flush)"),
            "{text}"
        );
    }

    #[test]
    fn annotates_relay_chains_and_blocked_chains() {
        let text = explain(
            "select extract(b) from sp a, sp b
             where b=sp(filter(arith(extract(a), '*', 3), '>', 10), 'bg', 0)
             and a=sp(streamof(iota(1,100)),'bg',1);",
        );
        assert!(
            text.contains("arith(* 3)           columnar (relay)"),
            "{text}"
        );
        assert!(
            text.contains("filter(> 10)         columnar (relay)"),
            "{text}"
        );

        let text = explain(
            "select extract(b) from sp a, sp b
             where b=sp(streamof(winagg(extract(a), 2, 2, 'count')), 'bg', 0)
             and a=sp(gen_array(10000,6),'bg',1);",
        );
        assert!(
            text.contains("winagg(2, 2, count)  scalar: no whole-column kernel"),
            "{text}"
        );
        assert!(
            text.contains("streamof             scalar: chain blocked by a non-vectorizable stage"),
            "{text}"
        );

        let text = explain(
            "select extract(b) from sp a, sp b
             where b=sp(take(extract(a), 3), 'bg', 0)
             and a=sp(gen_array(10000,9),'bg',1);",
        );
        assert!(
            text.contains("take(3)              scalar: chain neither absorbs nor transforms"),
            "{text}"
        );
    }

    #[test]
    fn annotates_constant_sources_with_a_verdict() {
        // A fixed-width constant behind a pass-through chain is
        // prepared; its stages ride the column.
        let text = explain(
            "select extract(b) from sp a, sp b
             where b=sp(streamof(sum(extract(a))), 'bg', 0)
             and a=sp(streamof(iota(1,100)),'bg',1);",
        );
        assert!(
            text.contains("const[100 values]    columnar (prepared source)"),
            "{text}"
        );
        assert!(
            text.contains("streamof             columnar (prepared source)"),
            "{text}"
        );
        // Each way of not qualifying names itself.
        for (source, why) in [
            ("streamof(iota(7,7))", "fewer than two rows"),
            ("arith(iota(1,100), '+', 1)", "chain is not pass-through"),
            (
                "streamof({'a', 'bb'})",
                "rows share no fixed-width column layout",
            ),
        ] {
            let text = explain(&format!(
                "select extract(b) from sp a, sp b
                 where b=sp(streamof(count(extract(a))), 'bg', 0)
                 and a=sp({source},'bg',1);"
            ));
            let verdict = format!("scalar: {why}");
            let mut lines = text.lines().map(str::trim_start);
            assert!(
                lines.any(|l| l.starts_with("const[") && l.ends_with(&verdict)),
                "{text}"
            );
        }
        // Client-side constants feed the result sink, never a channel.
        let text = explain("iota(1,5);");
        assert!(
            text.contains("const[5 values]      scalar: client-side constant"),
            "{text}"
        );
    }

    #[test]
    fn describes_every_stage_kind() {
        let text = explain(
            "select extract(w) from sp src, sp w
             where w=sp(winagg(take(extract(src), 5), 2, 2, 'sum'), 'bg')
             and src=sp(streamof(iota(1,9)), 'be');",
        );
        assert!(text.contains("take(5)"), "{text}");
        assert!(text.contains("winagg(2, 2, sum)"), "{text}");
        assert!(text.contains("const[9 values] | streamof"), "{text}");
    }
}
