//! The Dubhe selection-epoch benchmark: one workload per process.
//!
//! ```text
//! dubhe-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--trace-out <file>]
//! dubhe-benchmark compare --bench BENCHMARK.json --first <dir> --second <dir>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off: set-up
//! three times from scratch, then identical epochs back to back for
//! `--seconds`. `--trace 1` measures the per-layer metrics: one set-up,
//! untraced and traced epochs alternating, then the layer ladder. Either
//! way every epoch passes every correctness gate or the run reports
//! `"correct": false` and exits non-zero. The last line of standard output
//! is the result as one JSON object; the lines before it are the same
//! numbers (and a few more) as `name value unit`.
//!
//! See `benchmark/README.md` for what each workload and metric means.

mod compare;
mod epoch;
mod fanin;
mod heap;
mod ladder;
mod proc;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use dubhe_select::protocol::ListenerStats;

use epoch::EpochWorkload;
use fanin::FanInWorkload;
use proc::Rusage;
use stats::{fastest, median, spread, summarize};
use trace::{durations_ns, per_epoch_totals_ns, structural_self_ns, Tracer};
use workload::{nproc, EpochOutcome, Reading, Workload};

/// From-scratch set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest epochs a window may hold, however slow the host.
const MIN_EPOCHS: usize = 5;
/// Share of `--seconds` a `--trace 1` run spends on epochs; the rest is
/// left for the ladder so both kinds of run take about as long.
const TRACED_WINDOW_SHARE: f64 = 0.7;

pub const WORKLOADS: [&str; 4] = [
    "epoch_elementwise",
    "epoch_packed",
    "fanin_large_sealed",
    "fanin_small_plain",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

pub fn value_after<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let required = |flag: &str| value_after(args, flag).ok_or(format!("missing {flag} <value>"));
    let workload = required("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = required("--seed")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer".to_string())?;
    let seconds: f64 = required("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        trace_out: value_after(args, "--trace-out").map(str::to_string),
    })
}

/// Everything a run prints.
#[derive(Default)]
struct Report {
    readings: Vec<Reading>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Report {
    fn absorb(&mut self, epochs: &[EpochOutcome]) {
        for outcome in epochs {
            self.attempted += outcome.attempted;
            self.failed += outcome.failed;
            for e in &outcome.errors {
                if self.errors.len() < 8 {
                    self.errors.push(e.clone());
                }
            }
        }
    }
}

/// Share of the machine's CPU time the hypervisor took away since `earlier`.
fn steal_ratio_since(earlier: (u64, u64)) -> f64 {
    let (steal, total) = proc::steal_jiffies();
    (steal - earlier.0) as f64 / (total - earlier.1).max(1) as f64
}

fn walls(epochs: &[EpochOutcome]) -> Vec<f64> {
    epochs.iter().map(|o| o.wall_s).collect()
}

/// `--trace 0`: the end-to-end metrics.
fn run_end_to_end<W: Workload>(w: &W, args: &Args) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first: each one starts from scratch.
        drop(ready.take());
        let started = Instant::now();
        let built = w.set_up(args.seed, &mut Tracer::new(false))?;
        setups.push(started.elapsed().as_secs_f64());
        ready = Some(built);
    }
    let ready = ready.expect("SETUPS > 0");

    // One more untimed epoch, with the heap meter on.
    let mut tracer = Tracer::new(false);
    let (metered, peak_heap_mib) = heap::peak_growth_mib(|| w.run_epoch(&ready, &mut tracer));

    let (mut epochs, mut canary) = (Vec::new(), Vec::new());
    let steal = proc::steal_jiffies();
    let window = Instant::now();
    while epochs.len() < MIN_EPOCHS || window.elapsed().as_secs_f64() < args.seconds {
        canary.push(proc::canary_ms());
        epochs.push(w.run_epoch(&ready, &mut tracer));
    }

    let wall = walls(&epochs);
    let cpu: Vec<f64> = epochs.iter().map(|o| o.cpu.cpu_s()).collect();
    let wire = epochs[0].wire_bytes;
    let mut report = Report::default();
    report.absorb(std::slice::from_ref(&metered));
    report.absorb(&epochs);
    if epochs.iter().any(|o| o.wire_bytes != wire) || metered.wire_bytes != wire {
        report
            .errors
            .push("identical epochs put different byte counts on the wire".into());
    }
    let ok_ratio = (report.attempted - report.failed) as f64 / report.attempted as f64;
    report.readings = vec![
        Reading::timed("setup_s", "s", 1.0, &setups),
        Reading::exact("epoch_s", fastest(&wall), "s"),
        Reading::exact("cpu_s_per_epoch", fastest(&cpu), "s"),
        Reading::exact(
            "wire_bytes_per_client",
            wire as f64 / w.clients() as f64,
            "B",
        ),
        Reading::exact("peak_heap_mib", peak_heap_mib, "MiB"),
        Reading::exact("ok_ratio", ok_ratio, "ratio"),
    ];
    println!("epochs {} count", epochs.len());
    let series: Vec<String> = wall.iter().map(|s| format!("{s:.4}")).collect();
    println!("# epoch_s series: {}", series.join(" "));
    for (name, samples) in [("epoch_s", &wall), ("cpu_s_per_epoch", &cpu)] {
        let summary = summarize(samples);
        println!("{name}.median {} s", summary.median);
        if let Some((p, v)) = summary.tail {
            println!("{name}.p{p} {v} s n={}", summary.count);
        }
    }
    println!("failed_ratio {} ratio", 1.0 - ok_ratio);
    println!("proc.peak_rss_mib {} MiB", proc::peak_rss_mib());
    println!("host.canary_ms {} ms", median(&canary));
    println!("host.canary_iqr {} ratio", spread(&canary));
    println!("host.steal_ratio {} ratio", steal_ratio_since(steal));
    Ok(report)
}

/// One reading taken off a per-epoch record: `(name, unit, how to read it)`.
type Column<T> = (&'static str, &'static str, fn(&T) -> f64);

/// `--trace 1`: the per-layer metrics.
fn run_traced<W: Workload>(w: &W, args: &Args) -> Result<Report, String> {
    let mut tracer = Tracer::new(true);
    let ready = w.set_up(args.seed, &mut tracer)?;

    let (mut untraced, mut traced, mut canary) = (Vec::new(), Vec::new(), Vec::new());
    let steal = proc::steal_jiffies();
    let window = Instant::now();
    let budget = args.seconds * TRACED_WINDOW_SHARE;
    // Alternating, so a change of host regime hits both kinds alike.
    while traced.len() < MIN_EPOCHS || window.elapsed().as_secs_f64() < budget {
        canary.push(proc::canary_ms());
        tracer.set_enabled(false);
        untraced.push(w.run_epoch(&ready, &mut tracer));
        tracer.set_enabled(true);
        tracer.set_epoch(traced.len() as u32 + 1);
        traced.push(w.run_epoch(&ready, &mut tracer));
    }

    let steal_ratio = steal_ratio_since(steal);
    let mut report = Report {
        readings: w.ladder(&ready),
        ..Report::default()
    };
    report.absorb(&untraced);
    report.absorb(&traced);

    let spans = tracer.spans();
    let readings = &mut report.readings;

    // Calls into the roles, the selector and the connector: median per call.
    for (name, span, unit, scale) in [
        (
            "client.keys_register_ms",
            "client.keys_register",
            "ms",
            1e-6,
        ),
        (
            "client.total_decrypt_ms",
            "client.total_decrypt",
            "ms",
            1e-6,
        ),
        ("client.try_encrypt_ms", "client.try_encrypt", "ms", 1e-6),
        ("agent.total_decrypt_ms", "agent.total_decrypt", "ms", 1e-6),
        ("agent.try_decide_ms", "agent.try_decide", "ms", 1e-6),
        ("select.draw_us", "select.draw", "us", 1e-3),
        ("net.connect_ms", "net.connect", "ms", 1e-6),
    ] {
        readings.push(Reading::timed(
            name,
            unit,
            scale,
            &durations_ns(spans, span),
        ));
    }

    // Round trips: a span per delivery on the epoch workloads, the
    // generator's own send → reply stamps on the pipelined fan-ins.
    let mut rtt_registry = durations_ns(spans, "net.rtt_registry");
    let mut rtt_distribution = durations_ns(spans, "net.rtt_distribution");
    for outcome in &traced {
        rtt_registry.extend(outcome.rtt_us.0.iter().map(|us| us * 1e3));
        rtt_distribution.extend(outcome.rtt_us.1.iter().map(|us| us * 1e3));
    }
    readings.push(Reading::timed(
        "net.rtt_registry_us",
        "us",
        1e-3,
        &rtt_registry,
    ));
    readings.push(Reading::timed(
        "net.rtt_distribution_us",
        "us",
        1e-3,
        &rtt_distribution,
    ));

    // The listener's own counters, identical in every epoch; its reply
    // latency is a log-bucket histogram, so medians over the epochs.
    let listener: [Column<ListenerStats>; 10] = [
        ("net.reply_p50_us", "us", |l| l.latency.p50_us),
        ("net.reply_p99_us", "us", |l| l.latency.p99_us),
        ("net.frames", "count", |l| {
            (l.frames_received + l.frames_sent) as f64
        }),
        ("net.bytes_in", "B", |l| l.bytes_received as f64),
        ("net.bytes_out", "B", |l| l.bytes_sent as f64),
        ("net.peak_write_queue", "B", |l| l.peak_write_queue as f64),
        ("net.decode_errors", "count", |l| l.decode_errors as f64),
        ("net.backpressure_disconnects", "count", |l| {
            l.backpressure_disconnects as f64
        }),
        ("net.aead_rejections", "count", |l| l.aead_rejections as f64),
        ("net.handshakes", "count", |l| l.handshakes_completed as f64),
    ];
    for (name, unit, read) in listener {
        let per_epoch: Vec<f64> = traced.iter().map(|o| read(&o.listener)).collect();
        readings.push(Reading::exact(name, median(&per_epoch), unit));
    }

    // The driver: its two phases, and what is left of the epoch once every
    // call into a named layer is taken out.
    for (name, span) in [
        ("driver.registration_s", "driver.registration"),
        ("driver.tries_s", "driver.tries"),
    ] {
        let totals = per_epoch_totals_ns(spans, "epoch", span);
        readings.push(Reading::timed(name, "s", 1e-9, &totals));
    }
    let structural = structural_self_ns(spans, "epoch", "driver.");
    let self_s: Vec<f64> = structural.iter().map(|(_, own)| *own).collect();
    let uncovered: Vec<f64> = structural.iter().map(|(all, own)| own / all).collect();
    readings.push(Reading::timed("driver.self_s", "s", 1e-9, &self_s));

    // What the process spent per untraced epoch.
    let process: [Column<Rusage>; 4] = [
        ("proc.user_s", "s", |c| c.user_s),
        ("proc.sys_s", "s", |c| c.sys_s),
        ("proc.vol_ctx_switches", "count", |c| c.vol_ctx as f64),
        ("proc.invol_ctx_switches", "count", |c| c.invol_ctx as f64),
    ];
    for (name, unit, read) in process {
        let per_epoch: Vec<f64> = untraced.iter().map(|o| read(&o.cpu)).collect();
        readings.push(Reading::timed(name, unit, 1.0, &per_epoch));
    }
    readings.push(Reading::exact(
        "proc.peak_rss_mib",
        proc::peak_rss_mib(),
        "MiB",
    ));

    let overhead = median(&walls(&traced)) / median(&walls(&untraced));
    readings.push(Reading::exact("trace.overhead_ratio", overhead, "ratio"));
    readings.push(Reading::exact(
        "trace.coverage",
        1.0 - median(&uncovered),
        "ratio",
    ));
    readings.push(Reading::timed("host.canary_ms", "ms", 1.0, &canary));
    readings.push(Reading::exact("host.canary_iqr", spread(&canary), "ratio"));
    readings.push(Reading::exact("host.steal_ratio", steal_ratio, "ratio"));

    println!("epochs {} count", untraced.len() + traced.len());
    println!("spans {} count", spans.len());
    if let Some(path) = &args.trace_out {
        std::fs::write(path, tracer.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        println!("# spans written to {path}");
    }
    Ok(report)
}

fn run<W: Workload>(w: &W, args: &Args) -> ExitCode {
    println!(
        "# workload {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!(
        "# host nproc={} connections={} generator_threads=1 loopback-only closed-loop",
        nproc(),
        w.connections()
    );
    println!("# params {}", w.describe());
    let result = if args.trace {
        run_traced(w, args)
    } else {
        run_end_to_end(w, args)
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("dubhe-benchmark: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    let mut json = String::new();
    for r in &report.readings {
        println!("{} {} {}", r.name, r.value, r.unit);
        if let Some((p, v)) = r.tail {
            println!("{}.p{p} {v} {} n={}", r.name, r.unit, r.samples);
        }
        if !r.value.is_finite() {
            eprintln!("dubhe-benchmark: {} is not a finite number", r.name);
            return ExitCode::from(2);
        }
        if !json.is_empty() {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            r.name, r.value, r.unit
        ));
    }
    for e in &report.errors {
        eprintln!("dubhe-benchmark: gate failed: {e}");
    }
    let correct = report.failed == 0 && report.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        report.attempted, report.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dubhe-benchmark: {e}");
            eprintln!(
                "usage: dubhe-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--trace-out <file>]"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "epoch_elementwise" => run(&EpochWorkload::elementwise(), &args),
        "epoch_packed" => run(&EpochWorkload::packed(), &args),
        "fanin_large_sealed" => run(&FanInWorkload::large_sealed(), &args),
        _ => run(&FanInWorkload::small_plain(), &args),
    }
}
