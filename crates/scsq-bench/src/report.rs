//! Table / CSV rendering of figure series, plus the `--metrics`
//! snapshot artifact.

use scsq_sim::Series;

/// Writes the global [`scsq_core::metrics`] hub snapshot as JSON to
/// `path` and reports it on stderr. Every figure binary calls this when
/// invoked with `--metrics PATH`.
///
/// # Errors
///
/// Propagates the file write error.
pub fn write_hub_metrics(path: &str) -> std::io::Result<()> {
    let snap = scsq_core::metrics::hub().snapshot();
    std::fs::write(path, snap.to_json())?;
    eprintln!(
        "metrics: {} queries, {} events, {} bytes delivered -> {path}",
        snap.queries, snap.events, snap.bytes_delivered
    );
    Ok(())
}

/// Renders a figure as an aligned text table: one row per x value, one
/// column per series.
pub fn print_figure(title: &str, x_label: &str, y_label: &str, series: &[Series]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    out.push_str(&format!("# y = {y_label}\n"));
    // The sorted union of x values over all series; series missing a
    // point show a dash.
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points().iter().map(|(x, _)| *x))
        .collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    // Header.
    out.push_str(&format!("{x_label:>12}"));
    for s in series {
        out.push_str(&format!("  {:>28}", s.label()));
    }
    out.push('\n');
    for x in xs {
        out.push_str(&format!("{x:>12}"));
        for s in series {
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

    #[test]
    fn table_has_header_and_rows() {
        let t = print_figure("Fig X", "n", "Mbps", &sample());
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
}
