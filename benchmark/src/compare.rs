//! `dubhe-benchmark compare`: two sets of runs of the same build, judged
//! against the bounds in `BENCHMARK.json` — the repeatability artefact
//! `repeat.sh` prints.
//!
//! Each set is a directory of run outputs named `<workload>.<i>.txt` (the
//! standard output of one `--trace 0` run). For every workload and
//! end-to-end metric the table shows both sets' quartiles, the spread of
//! each (inter-quartile distance over the median, as the acceptance driver
//! computes it), how much worse the second median is than the first, and
//! the verdict: `pass`, `unresolved` (a spread wider than the bound) or
//! `FAIL` (second median worse than the first by more than the bound).
//! `setup_s` is judged on its medians alone, as the driver judges it.

use std::path::Path;
use std::process::ExitCode;

use serde::Value;

use crate::stats::{compare, median, Better, Verdict};
use crate::value_after;

struct MetricSpec {
    name: String,
    unit: String,
    better: Better,
    bound: f64,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn text(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn items(v: Option<&Value>) -> &[Value] {
    match v {
        Some(Value::Array(items)) => items,
        _ => &[],
    }
}

/// `(workload names, end-to-end metric specs)` out of `BENCHMARK.json`.
fn read_bench(path: &str) -> Result<(Vec<String>, Vec<MetricSpec>), String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let bench: Value = serde_json::from_str(&raw).map_err(|e| format!("parse {path}: {e}"))?;
    let workloads = items(bench.get("workloads"))
        .iter()
        .filter_map(|w| w.get("name").and_then(text).map(str::to_string))
        .collect();
    let metrics = items(bench.get("end_to_end"))
        .iter()
        .map(|m| {
            Some(MetricSpec {
                name: m.get("name").and_then(text)?.to_string(),
                unit: m.get("unit").and_then(text)?.to_string(),
                better: Better::parse(m.get("better").and_then(text)?)?,
                bound: m.get("bound").and_then(number)?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or(format!("{path}: malformed end_to_end entry"))?;
    Ok((workloads, metrics))
}

/// One run's output: its metrics by name, and the host canary it printed.
struct RunOutput {
    metrics: Value,
    canary_ms: Option<f64>,
}

fn read_run(path: &Path) -> Result<RunOutput, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let last = raw
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or(format!("{}: empty", path.display()))?;
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("{}: last line: {e}", path.display()))?;
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{}: run was not correct", path.display()));
    }
    let metrics = result
        .get("metrics")
        .cloned()
        .ok_or(format!("{}: no metrics", path.display()))?;
    let canary_ms = raw
        .lines()
        .find_map(|l| l.strip_prefix("host.canary_ms "))
        .and_then(|rest| rest.split(' ').next()?.parse().ok());
    Ok(RunOutput { metrics, canary_ms })
}

/// Every `<workload>.*.txt` in `dir`, in name order.
fn read_set(dir: &str, workload: &str) -> Result<Vec<RunOutput>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                n.strip_prefix(workload)
                    .is_some_and(|rest| rest.starts_with('.') && rest.ends_with(".txt"))
            })
        })
        .collect();
    paths.sort();
    paths.iter().map(|p| read_run(p)).collect()
}

fn values(runs: &[RunOutput], metric: &str) -> Result<Vec<f64>, String> {
    runs.iter()
        .map(|r| {
            r.metrics
                .get(metric)
                .and_then(|m| m.get("value"))
                .and_then(number)
                .ok_or(format!("a run has no {metric}"))
        })
        .collect()
}

fn canary(runs: &[RunOutput]) -> String {
    let readings: Vec<f64> = runs.iter().filter_map(|r| r.canary_ms).collect();
    if readings.is_empty() {
        "n/a".to_string()
    } else {
        format!("{:.2}", median(&readings))
    }
}

fn required<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    value_after(args, flag).ok_or(format!("compare: missing {flag} <value>"))
}

fn table(args: &[String]) -> Result<bool, String> {
    let (workloads, metrics) = read_bench(required(args, "--bench")?)?;
    let (first_dir, second_dir) = (required(args, "--first")?, required(args, "--second")?);
    let mut all_pass = true;
    for workload in &workloads {
        let first = read_set(first_dir, workload)?;
        let second = read_set(second_dir, workload)?;
        if first.len() < 2 || second.len() < 2 {
            return Err(format!(
                "{workload}: need at least two runs per set, found {} and {}",
                first.len(),
                second.len()
            ));
        }
        println!(
            "\n{workload}: {} + {} runs, host.canary_ms medians {} / {}",
            first.len(),
            second.len(),
            canary(&first),
            canary(&second)
        );
        println!(
            "  {:<22} {:>5} {:>36} {:>36} {:>8} {:>8} {:>8}  verdict",
            "metric", "bound", "first q1/q2/q3", "second q1/q2/q3", "spread1", "spread2", "worse"
        );
        for m in &metrics {
            let c = compare(
                m.better,
                m.bound,
                m.name != "setup_s",
                &values(&first, &m.name)?,
                &values(&second, &m.name)?,
            );
            let quartiles = |q: [f64; 3]| format!("{:.5}/{:.5}/{:.5}", q[0], q[1], q[2]);
            let verdict = match c.verdict {
                Verdict::Pass => "pass",
                Verdict::Unresolved => "unresolved",
                Verdict::Regressed => "FAIL",
            };
            all_pass &= c.verdict == Verdict::Pass;
            println!(
                "  {:<22} {:>5} {:>36} {:>36} {:>7.2}% {:>7.2}% {:>+7.2}%  {verdict}",
                format!("{} [{}]", m.name, m.unit),
                m.bound,
                quartiles(c.first),
                quartiles(c.second),
                c.first_spread * 100.0,
                c.second_spread * 100.0,
                c.worsening * 100.0,
            );
        }
    }
    Ok(all_pass)
}

pub fn main(args: &[String]) -> ExitCode {
    match table(args) {
        Ok(true) => {
            println!("\nevery metric of every workload repeats within its bound");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("\nsome metric did not repeat within its bound (see FAIL / unresolved above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("dubhe-benchmark compare: {e}");
            ExitCode::from(2)
        }
    }
}
