//! The coalescer's per-point counts over the 102 paper-sweep queries,
//! pinned to a golden file: digests, jumps, skipped events and
//! coordinates recorded at every Figure 6, Figure 8 and Figure 15
//! point, on the seed-11 hardware spec the repo benchmark uses.
//!
//! The counts are exact, so a change to the detector, a probe or the
//! event queue's walk that moves any of them fails here, in a debug
//! build, in seconds. The shape words a digest mixes are not pinned:
//! how a walk hashes what it has already proven equal may change
//! without moving a jump. `coalstat 100 0 11 counts` prints the same
//! table at paper scale (with the shape words), and `scripts/verify.sh`
//! diffs that against `golden/coalstat_counts.csv`.

use scsq_bench::{paper_points, Scale};
use scsq_core::{HardwareSpec, Scsq};

const GOLDEN: &str = include_str!("golden/coalesce_points.csv");

/// The paper's scale, 100 arrays of 3 MB per generator: at 20 arrays
/// no Figure 15 point digests at all. Repetitions are not swept here.
fn scale() -> Scale {
    Scale::paper()
}

fn counts_csv() -> String {
    let spec = HardwareSpec::lofar().jittered(11, 0.02);
    let mut scsq = Scsq::with_spec(spec.clone());
    let points = paper_points(&mut scsq, scale(), 0.0).expect("the paper queries compile");
    assert_eq!(points.len(), 102);
    let mut csv = String::from("leg,buffering,x,digests,jumps,events_skipped,coords\n");
    for point in &points {
        let result = point.plan.run(&spec, &point.options).expect("runs");
        let c = result.stats().coalesce;
        csv.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            point.leg, point.variant, point.x, c.digests, c.jumps, c.events_skipped, c.coords
        ));
    }
    csv
}

#[test]
fn per_point_counts_match_the_golden_file() {
    let csv = counts_csv();
    let diff: Vec<_> = csv
        .lines()
        .zip(GOLDEN.lines())
        .filter(|(now, pinned)| now != pinned)
        .map(|(now, pinned)| format!("  now {now}\n  was {pinned}"))
        .collect();
    assert!(
        diff.is_empty() && csv.lines().count() == GOLDEN.lines().count(),
        "{} of {} rows moved:\n{}\n\nfull table:\n{csv}",
        diff.len(),
        GOLDEN.lines().count(),
        diff.join("\n")
    );
}
