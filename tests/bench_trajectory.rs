//! `BENCH_trajectory.json` is the committed record of the benchmark's
//! campaigns: one row per workload and metric of each measured change. This
//! test holds the file to its schema and to the benchmark it describes. It
//! reads `BENCHMARK.json` only, and fails on an unknown schema version, a
//! missing field, quartiles out of order (`q1 ≤ median ≤ q3`), more wins
//! than pairs, or a workload or metric name `BENCHMARK.json` does not
//! declare.

use std::collections::BTreeSet;
use std::path::PathBuf;

use serde::Deserialize;

/// The only schema version this test knows. A change to the row shape bumps
/// it here and in the file together.
const SCHEMA_VERSION: u64 = 1;

#[derive(Debug, Deserialize)]
struct Trajectory {
    schema_version: u64,
    rows: Vec<Row>,
}

/// One metric of one workload over one campaign of `n` alternating pairs:
/// the measured tree is commit `sha` plus change `pr`, and `wins` counts the
/// pairs in which it beat `sha` (`null` where the campaign did not report
/// it).
#[derive(Debug, Deserialize)]
struct Row {
    sha: String,
    pr: u64,
    date: String,
    nproc: u64,
    workload: String,
    metric: String,
    q1: f64,
    median: f64,
    q3: f64,
    n: u64,
    wins: Option<u64>,
}

#[derive(Debug, Deserialize)]
struct Named {
    name: String,
}

/// The names `BENCHMARK.json` declares: its workloads, and its end-to-end
/// and per-layer metrics.
#[derive(Debug, Deserialize)]
struct Benchmark {
    workloads: Vec<Named>,
    end_to_end: Vec<Named>,
    per_layer: Vec<Named>,
}

fn read(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

/// Checks a trajectory document against a benchmark declaration; the number
/// of rows, or the first fault.
fn check(trajectory: &str, benchmark: &str) -> Result<usize, String> {
    let bench: Benchmark = serde_json::from_str(benchmark).map_err(|e| e.to_string())?;
    let workloads: BTreeSet<_> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
    let metrics: BTreeSet<_> = bench
        .end_to_end
        .iter()
        .chain(&bench.per_layer)
        .map(|m| m.name.as_str())
        .collect();
    let doc: Trajectory = serde_json::from_str(trajectory).map_err(|e| e.to_string())?;
    if doc.schema_version != SCHEMA_VERSION {
        return Err(format!("unknown schema version {}", doc.schema_version));
    }
    for (i, r) in doc.rows.iter().enumerate() {
        let at = format!("row {i} (PR {} {} {})", r.pr, r.workload, r.metric);
        if !workloads.contains(r.workload.as_str()) {
            return Err(format!("{at}: workload not in BENCHMARK.json"));
        }
        if !metrics.contains(r.metric.as_str()) {
            return Err(format!("{at}: metric not in BENCHMARK.json"));
        }
        if !(r.q1 <= r.median && r.median <= r.q3) {
            return Err(format!(
                "{at}: q1 {} / median {} / q3 {}",
                r.q1, r.median, r.q3
            ));
        }
        if r.n == 0 || r.wins.is_some_and(|w| w > r.n) {
            return Err(format!("{at}: {:?} wins of {} pairs", r.wins, r.n));
        }
        let hex = r.sha.len() >= 7 && r.sha.chars().all(|c| c.is_ascii_hexdigit());
        let date =
            r.date.len() == 10 && r.date.as_bytes()[4] == b'-' && r.date.as_bytes()[7] == b'-';
        if !hex || !date || r.nproc == 0 {
            return Err(format!(
                "{at}: sha {:?}, date {:?}, nproc {}",
                r.sha, r.date, r.nproc
            ));
        }
    }
    Ok(doc.rows.len())
}

#[test]
fn the_committed_trajectory_matches_its_schema_and_the_benchmark() {
    let rows = check(&read("BENCH_trajectory.json"), &read("BENCHMARK.json"))
        .unwrap_or_else(|e| panic!("BENCH_trajectory.json: {e}"));
    assert!(rows > 0, "the trajectory has no rows");
}

#[test]
fn each_kind_of_fault_is_refused() {
    let bench = read("BENCHMARK.json");
    let row = r#"{"sha": "0a1b2c3", "pr": 7, "date": "2026-01-02", "nproc": 2,
        "workload": "epoch_packed", "metric": "epoch_s",
        "q1": 0.1, "median": 0.2, "q3": 0.3, "n": 10, "wins": 10}"#;
    let doc =
        |version: &str, row: &str| format!(r#"{{"schema_version": {version}, "rows": [{row}]}}"#);
    assert_eq!(check(&doc("1", row), &bench), Ok(1));
    let faults = [
        ("unknown version", doc("2", row)),
        (
            "missing field",
            doc("1", &row.replace(r#""nproc": 2,"#, "")),
        ),
        ("q1 above the median", doc("1", &row.replace("0.1", "0.25"))),
        ("median above q3", doc("1", &row.replace("0.3", "0.15"))),
        (
            "unknown workload",
            doc("1", &row.replace("epoch_packed", "epoch_wide")),
        ),
        (
            "unknown metric",
            doc("1", &row.replace(r#""epoch_s""#, r#""epoch_ms""#)),
        ),
        (
            "more wins than pairs",
            doc("1", &row.replace(r#""wins": 10"#, r#""wins": 11"#)),
        ),
    ];
    for (what, text) in faults {
        assert!(check(&text, &bench).is_err(), "{what} was accepted");
    }
}
