//! `compare A.json B.json`: per workload and end-to-end metric, both
//! medians with quartiles, the change against the bound, and
//! `unresolved` where the run-to-run spread exceeds the bound (or
//! there are too few runs to know it). Per-layer values are listed
//! side by side without a verdict — they have no bound.

use crate::json::{self, Json};
use crate::Args;

/// Runs needed before a spread means anything.
const MIN_RUNS: f64 = 4.0;

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    })
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// How much worse B's median is than A's, as a share of A's (negative
/// = better), given the metric's direction.
pub fn worsening(a: f64, b: f64, better: &str) -> f64 {
    let change = (b - a) / a.abs();
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// The verdict for one metric.
pub fn verdict(worse: f64, bound: f64, spread_a: f64, spread_b: f64, runs: f64) -> &'static str {
    if runs < MIN_RUNS || spread_a > bound || spread_b > bound {
        "unresolved"
    } else if worse > bound {
        "REGRESSED"
    } else if worse < -bound {
        "improved"
    } else {
        "within bound"
    }
}

/// Prints the comparison; exits 1 when any metric regressed.
pub fn main(args: &Args) -> ! {
    let [a_path, b_path] = args.positional.as_slice() else {
        crate::usage();
    };
    let (a, b) = (load(a_path), load(b_path));
    let mut regressed = false;
    let mut spreads = Json::obj();
    let empty = Json::obj();
    let workloads = a.get("workloads").and_then(Json::as_obj).unwrap_or(&[]);
    for (workload, wa) in workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload}: missing from {b_path}");
            continue;
        };
        println!(
            "\n{workload}   failed_share A {}  B {}",
            num(wa, "failed_share"),
            num(wb, "failed_share")
        );
        println!(
            "  {:<13} {:>36} {:>36} {:>8} {:>6}  verdict",
            "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound"
        );
        let mut workload_spreads = Json::obj();
        let e2e = wa.get("end_to_end").and_then(Json::as_obj).unwrap_or(&[]);
        for (metric, ma) in e2e {
            let Some(mb) = wb.get("end_to_end").and_then(|m| m.get(metric)) else {
                continue;
            };
            let better = ma.get("better").and_then(Json::as_str).unwrap_or("lower");
            let bound = num(ma, "bound");
            let worse = worsening(num(ma, "median"), num(mb, "median"), better);
            let (sa, sb) = (num(ma, "spread_share"), num(mb, "spread_share"));
            let runs = num(ma, "n").min(num(mb, "n"));
            let v = verdict(worse, bound, sa, sb, runs);
            regressed |= v == "REGRESSED";
            let cell = |m: &Json| {
                format!(
                    "{:.5} [{:.5}, {:.5}]",
                    num(m, "median"),
                    num(m, "q1"),
                    num(m, "q3")
                )
            };
            println!(
                "  {:<13} {:>36} {:>36} {:>+7.2}% {:>5.0}%  {v} (spread A {:.2}% B {:.2}%, n={runs})",
                metric,
                cell(ma),
                cell(mb),
                worse * 100.0,
                bound * 100.0,
                sa * 100.0,
                sb * 100.0,
            );
            workload_spreads.set(
                metric,
                Json::obj()
                    .with("bound", Json::Num(bound))
                    .with("spread_a", Json::Num(sa))
                    .with("spread_b", Json::Num(sb))
                    .with("median_a", Json::Num(num(ma, "median")))
                    .with("median_b", Json::Num(num(mb, "median")))
                    .with("worsening", Json::Num(worse))
                    .with("verdict", Json::Str(v.to_string())),
            );
        }
        spreads.set(workload, workload_spreads);
        let layers_b = wb.get("per_layer").unwrap_or(&empty);
        let layers = wa.get("per_layer").and_then(Json::as_obj).unwrap_or(&[]);
        if !layers.is_empty() {
            println!("  per layer (one traced run each; no bound, no verdict):");
        }
        for (name, la) in layers {
            let (va, vb) = (
                num(la, "value"),
                layers_b.get(name).map_or(f64::NAN, |l| num(l, "value")),
            );
            if va == 0.0 && vb == 0.0 {
                continue;
            }
            let unit = la.get("unit").and_then(Json::as_str).unwrap_or("");
            println!(
                "    {name:<40} {va:>16.4} {vb:>16.4} {unit:<6} {:>+8.2}%",
                (vb - va) / va.abs() * 100.0
            );
        }
    }
    if let Some(path) = args.flags.get("spreads") {
        if let Err(e) = std::fs::write(path, spreads.to_pretty()) {
            eprintln!("cannot write {path}: {e}");
        }
    }
    std::process::exit(i32::from(regressed));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.06, 0.05, 0.01, 0.01, 10.0), "REGRESSED");
        assert_eq!(verdict(0.04, 0.05, 0.01, 0.01, 10.0), "within bound");
        assert_eq!(verdict(-0.2, 0.05, 0.01, 0.01, 10.0), "improved");
        // A spread wider than the bound, or too few runs to know it:
        // unresolved, never "unchanged".
        assert_eq!(verdict(0.0, 0.05, 0.06, 0.01, 10.0), "unresolved");
        assert_eq!(verdict(0.2, 0.05, 0.0, 0.0, 1.0), "unresolved");
    }
}
