//! Compiles and runs every runnable SCSQL snippet in the documentation.
//!
//! Markdown code blocks fenced as ```` ```scsql ```` in `docs/` are
//! executed through the `scsql` shell binary in script mode; a snippet
//! that fails to parse, bind, place, or run fails this test. Blocks with
//! any other fence tag (grammar sketches, shell transcripts, JSON) are
//! ignored. This keeps the documentation's examples from rotting.

use std::path::Path;
use std::process::Command;

/// Extracts the contents of every ```` ```scsql ````-fenced block.
fn scsql_blocks(markdown: &str) -> Vec<String> {
    let mut blocks = Vec::new();
    let mut current: Option<String> = None;
    for line in markdown.lines() {
        match &mut current {
            Some(block) => {
                if line.trim_start().starts_with("```") {
                    blocks.push(current.take().expect("in a block"));
                } else {
                    block.push_str(line);
                    block.push('\n');
                }
            }
            None => {
                if line.trim() == "```scsql" {
                    current = Some(String::new());
                }
            }
        }
    }
    assert!(current.is_none(), "unterminated ```scsql block");
    blocks
}

/// Runs one snippet through the shell binary and panics with the
/// shell's stderr if it failed.
fn run_snippet(doc: &str, index: usize, snippet: &str) {
    let path = std::env::temp_dir().join(format!(
        "scsq_doc_snippet_{}_{index}.scsql",
        doc.replace(['/', '.'], "_")
    ));
    std::fs::write(&path, snippet).expect("write snippet");
    let out = Command::new(env!("CARGO_BIN_EXE_scsql"))
        .arg(&path)
        .output()
        .expect("shell binary runs");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success() && !stderr.contains("error:"),
        "{doc} snippet #{index} failed:\n{snippet}\n--- stderr ---\n{stderr}"
    );
}

fn check_doc(rel: &str, expect_at_least: usize) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {rel}: {e}"));
    let blocks = scsql_blocks(&text);
    assert!(
        blocks.len() >= expect_at_least,
        "{rel}: expected at least {expect_at_least} runnable snippets, found {}",
        blocks.len()
    );
    for (i, block) in blocks.iter().enumerate() {
        run_snippet(rel, i, block);
    }
}

#[test]
fn scsql_reference_snippets_run() {
    check_doc("docs/scsql_reference.md", 7);
}

/// The reference shows `explain`'s report for its relay pipeline,
/// source verdict included; the shown text must be what `explain`
/// prints for the snippet right above it.
#[test]
fn scsql_reference_explain_transcript_is_current() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/scsql_reference.md");
    let text = std::fs::read_to_string(&path).expect("read the reference");
    let (before, after) = text
        .split_once("For the relay pipeline above:")
        .expect("the explain walkthrough");
    let query = scsql_blocks(before).pop().expect("the relay snippet");
    let shown = after
        .split_once("```text\n")
        .and_then(|(_, rest)| rest.split_once("```"))
        .expect("a ```text transcript")
        .0;
    let report = scsq::Scsq::lofar().explain(&query).expect("explains");
    assert!(shown.contains("columnar (prepared source)"), "{shown}");
    assert!(
        report.starts_with(shown),
        "docs/scsql_reference.md shows a stale explain report; current:\n{report}"
    );
}

#[test]
fn server_doc_snippets_run() {
    check_doc("docs/server.md", 1);
}

/// The filter-heavy columnar example embeds its query as one plain
/// string literal; run that SCSQL through the shell too, so the
/// example's query cannot rot even when the example binary itself is
/// not built.
#[test]
fn columnar_filter_example_query_runs() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/columnar_filter.rs");
    let text = std::fs::read_to_string(&path).expect("read example");
    let start = text.find("\"select").expect("example embeds a query") + 1;
    let end = start + text[start..].find(";\"").expect("query terminator") + 1;
    run_snippet("examples/columnar_filter.rs", 0, &text[start..end]);
}

#[test]
fn observability_snippets_run() {
    check_doc("docs/observability.md", 1);
}

#[test]
fn block_extraction_is_exact() {
    let md = "intro\n```scsql\nselect 1;\n```\n```\ngrammar\n```\n```scsql\nmerge({});\n```\n";
    assert_eq!(scsql_blocks(md), vec!["select 1;\n", "merge({});\n"]);
}
