//! The one `main` behind every figure binary.
//!
//! A binary describes its figure — the sweep that fills its panels, a
//! footer, and a representative query — and [`main`] does the rest:
//! one walk over the six flags, the `--metrics` hub snapshot, the
//! `--profile` / `--trace` representative run, and table or CSV output.
//!
//! Usage of every binary:
//! `<bin> [--quick] [--csv] [--jobs N] [--metrics PATH] [--profile] [--trace PATH]`

use crate::Scale;
use scsq_core::{HardwareSpec, RunOptions, Scsq, ScsqError, Value};
use scsq_sim::Series;

/// The tail of every usage error: exactly the flags [`Args::parse`] reads.
const USAGE: &str = "flags: --quick --csv --jobs N --metrics PATH --profile --trace PATH";

/// One table of a figure: a title, axis labels and its series.
pub struct Panel {
    /// The table's `# ` heading.
    pub title: &'static str,
    /// The x column's header.
    pub x_label: &'static str,
    /// What the series' y values measure.
    pub y_label: &'static str,
    /// One column per series.
    pub series: Vec<Series>,
}

/// The run behind `--profile` / `--trace`: one execution of `query`
/// on `spec`, separate from the sweep so the figure stays unperturbed.
pub struct Representative {
    /// The hardware it runs on.
    pub spec: HardwareSpec,
    /// The SCSQL text.
    pub query: String,
    /// Pre-bound query variables.
    pub bindings: Vec<(&'static str, Value)>,
}

/// Everything a figure binary prints, described.
pub struct Figure {
    /// Printed in order: as tables separated by a blank line, or as one
    /// CSV block each.
    pub panels: Vec<Panel>,
    /// Lines printed under the tables (not with `--csv`).
    pub footer: String,
    /// The `--profile` / `--trace` run.
    pub representative: Representative,
}

/// The six flags, read by one walk.
#[derive(Debug, PartialEq)]
struct Args {
    quick: bool,
    csv: bool,
    profile: bool,
    jobs: usize,
    metrics: Option<String>,
    trace: Option<String>,
}

impl Args {
    /// Reads `--quick`, `--csv`, `--profile`, and `--jobs N`,
    /// `--metrics PATH`, `--trace PATH` (each also as `--flag=V`; `--jobs`
    /// defaults to the machine's available parallelism). Any other word
    /// — an unknown `--flag`, a presence flag given a value, a positional
    /// argument, a bad value — is an error: a misspelt or retired switch
    /// must not quietly run the default.
    fn parse(words: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            quick: false,
            csv: false,
            profile: false,
            jobs: std::thread::available_parallelism().map_or(1, usize::from),
            metrics: None,
            trace: None,
        };
        let mut words = words.into_iter();
        while let Some(word) = words.next() {
            let (flag, inline) = match word.split_once('=') {
                Some((flag, value)) => (flag, Some(value.to_string())),
                None => (word.as_str(), None),
            };
            match (flag, inline) {
                ("--quick", None) => args.quick = true,
                ("--csv", None) => args.csv = true,
                ("--profile", None) => args.profile = true,
                ("--quick" | "--csv" | "--profile", Some(_)) => {
                    return Err(format!("{flag} takes no value ({word})"))
                }
                ("--jobs", value) => {
                    let n = value.or_else(|| words.next()).and_then(|v| v.parse().ok());
                    args.jobs = n
                        .filter(|&n| n >= 1)
                        .ok_or("--jobs expects a positive integer (e.g. --jobs 4)")?;
                }
                ("--metrics" | "--trace", value) => {
                    let path = value.or_else(|| words.next()).filter(|p| !p.is_empty());
                    let path = path.ok_or(format!("{flag} expects an output path"))?;
                    match flag {
                        "--metrics" => args.metrics = Some(path),
                        _ => args.trace = Some(path),
                    }
                }
                _ if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ => return Err(format!("unexpected argument {word}")),
            }
        }
        Ok(args)
    }
}

/// Prints `message` on stderr and exits with `code`.
fn exit(code: i32, message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(code);
}

/// Runs a figure binary: parses the command line (a usage error exits
/// 2 with one line and no output), sweeps `figure` at `quick` or the
/// paper's scale on `--jobs` workers, writes the `--metrics` snapshot,
/// runs the representative query for `--profile` / `--trace`, and
/// prints the panels. A query or I/O error exits 1.
pub fn main(quick: Scale, figure: impl FnOnce(Scale, usize) -> Result<Figure, ScsqError>) {
    let args = Args::parse(std::env::args().skip(1))
        .unwrap_or_else(|problem| exit(2, format!("{problem}; {USAGE}")));
    let scale = if args.quick { quick } else { Scale::paper() };
    let figure = figure(scale, args.jobs).unwrap_or_else(|e| exit(1, format!("sweep failed: {e}")));
    if let Some(path) = &args.metrics {
        let snap = scsq_core::metrics::hub().snapshot();
        std::fs::write(path, snap.to_json())
            .unwrap_or_else(|e| exit(1, format!("cannot write {path}: {e}")));
        eprintln!(
            "metrics: {} queries, {} events, {} bytes delivered -> {path}",
            snap.queries, snap.events, snap.bytes_delivered
        );
    }
    if args.profile || args.trace.is_some() {
        profile(&figure.representative, args.profile, args.trace.as_deref());
    }
    let out = if args.csv {
        figure
            .panels
            .iter()
            .map(|p| series_to_csv(&p.series))
            .collect()
    } else {
        let tables: Vec<String> = figure.panels.iter().map(render_table).collect();
        tables.join("\n") + &figure.footer
    };
    print!("{out}");
}

/// Runs the representative query once under the explain-analyze
/// profiler: prints the per-stage table with `show_profile`, and with
/// `trace` writes the profiled run's simulated-timeline spans to that
/// path in Chrome trace-event format (loadable in `chrome://tracing` /
/// Perfetto).
fn profile(run: &Representative, show_profile: bool, trace: Option<&str>) {
    let fail = |e: ScsqError| -> ! { exit(1, format!("representative profiled run failed: {e}")) };
    let plan = Scsq::with_spec(run.spec.clone())
        .prepare_with(&run.query, &run.bindings)
        .unwrap_or_else(|e| fail(e));
    let (_, profile) = plan
        .explain_analyze(&run.spec, &RunOptions::default())
        .unwrap_or_else(|e| fail(e));
    if show_profile {
        print!("{}", profile.render());
    }
    if let Some(path) = trace {
        let json = scsq_sim::obs::chrome_trace_json(&profile.spans);
        std::fs::write(path, json).unwrap_or_else(|e| exit(1, format!("cannot write {path}: {e}")));
        eprintln!(
            "trace: {} spans ({} dropped) -> {path}",
            profile.spans.len(),
            profile.spans_dropped
        );
    }
}

/// Renders a panel as an aligned text table: one row per x value, one
/// column per series.
fn render_table(panel: &Panel) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n", panel.title));
    out.push_str(&format!("# y = {}\n", panel.y_label));
    // The sorted union of x values over all series; series missing a
    // point show a dash.
    let mut xs: Vec<f64> = panel
        .series
        .iter()
        .flat_map(|s| s.points().iter().map(|(x, _)| *x))
        .collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    out.push_str(&format!("{:>12}", panel.x_label));
    for s in &panel.series {
        out.push_str(&format!("  {:>28}", s.label()));
    }
    out.push('\n');
    for x in xs {
        out.push_str(&format!("{x:>12}"));
        for s in &panel.series {
            match s.y_at(x) {
                Some(y) => out.push_str(&format!("  {y:>28.2}")),
                None => out.push_str(&format!("  {:>28}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders all series as CSV rows `label,x,y,sd` — the `sd` column is
/// the sample standard deviation over the repetitions behind each mean.
pub fn series_to_csv(series: &[Series]) -> String {
    let mut out = String::from("series,x,y,sd\n");
    for s in series {
        out.push_str(&s.to_csv());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Series> {
        let mut a = Series::new("alpha");
        a.push(1.0, 10.0);
        a.push_with_dev(2.0, 20.0, 0.5);
        let mut b = Series::new("beta");
        b.push(1.0, 11.0);
        b.push(2.0, 21.0);
        vec![a, b]
    }

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn table_has_header_and_rows() {
        let t = render_table(&Panel {
            title: "Fig X",
            x_label: "n",
            y_label: "Mbps",
            series: sample(),
        });
        assert!(t.contains("# Fig X"));
        assert!(t.contains("alpha"));
        assert!(t.contains("beta"));
        assert!(t.lines().count() >= 5);
        assert!(t.contains("21.00"));
    }

    #[test]
    fn csv_lists_every_point() {
        let c = series_to_csv(&sample());
        assert_eq!(c.lines().count(), 5);
        assert_eq!(c.lines().next(), Some("series,x,y,sd"));
        assert!(c.contains("alpha,1,10,0\n"));
        assert!(c.contains("alpha,2,20,0.5\n"));
        assert!(c.contains("beta,2,21,0\n"));
    }

    #[test]
    fn one_walk_reads_every_flag_in_both_forms() {
        let args = parse(&["--quick", "--jobs", "4", "--trace=t.json", "--csv"]).unwrap();
        assert_eq!(
            args,
            Args {
                quick: true,
                csv: true,
                profile: false,
                jobs: 4,
                metrics: None,
                trace: Some("t.json".into()),
            }
        );
        let args = parse(&["--jobs=7", "--metrics", "m.json", "--profile"]).unwrap();
        assert_eq!((args.jobs, args.profile), (7, true));
        assert_eq!(args.metrics.as_deref(), Some("m.json"));
        assert!(parse(&[]).unwrap().jobs >= 1);
    }

    #[test]
    fn missing_or_bad_values_are_errors() {
        for words in [
            &["--jobs"][..],
            &["--jobs", "0"],
            &["--jobs=x"],
            &["--metrics="],
            &["--trace"],
        ] {
            assert!(parse(words).is_err(), "{words:?}");
        }
    }
}
