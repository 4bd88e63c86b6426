//! `pbc-benchmark`: the wall-clock benchmark of the client path.
//!
//! With `--workload W` it runs that workload in this process and prints
//! one JSON object as its last line. Without, it runs every workload in a
//! child process each (so set-up time and peak memory are per workload)
//! and prints every metric; `--sets 2` does that twice and compares the
//! two sets with the bounds of `BENCHMARK.json`. See `README.md`.

mod driver;
mod kernels;
mod replay;
mod run;
mod span;
mod spec;
mod stats;
mod tcp;

use run::{Limit, Options, Outcome};
use spec::{Better, END_TO_END};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: run.sh [--workload W] [--seed S] [--seconds N] \
[--trace 0|1] [--sets N] [--smoke] [--manifest]";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    sets: usize,
    smoke: bool,
    manifest: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: None,
        trace: false,
        sets: 1,
        smoke: false,
        manifest: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number =
            |v: &String| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = number(value()?)?,
            "--seconds" => cli.seconds = Some(number(value()?)?.max(1)),
            "--trace" => cli.trace = number(value()?)? != 0,
            "--sets" => cli.sets = number(value()?)?.max(1) as usize,
            "--smoke" => cli.smoke = true,
            "--manifest" => cli.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.smoke && cli.sets > 1 {
        return Err("--smoke runs both passes once; it does not take --sets".into());
    }
    Ok(cli)
}

fn fingerprint() -> String {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={nproc}, cpu=\"{cpu}\", kernel=\"{}\", rustc=\"{}\", commit={}",
        read("/proc/sys/kernel/osrelease").trim(),
        std::env::var("PBC_BENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        std::env::var("PBC_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    )
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every value with all its digits.
fn result_json(o: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.attempted.max(1),
        o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn worker(name: &str, cli: &Cli) -> ExitCode {
    let workloads = spec::workloads();
    let Some(w) = workloads.iter().find(|w| w.name == name) else {
        eprintln!(
            "unknown workload {name}; known: {:?}",
            workloads.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        return ExitCode::from(2);
    };
    println!("workload {}: {}", w.name, w.why);
    println!("{}", fingerprint());
    println!(
        "load: open-loop Poisson in simulated time (generator lateness is zero by construction); \
         network delay: LatencyModel::lan() = uniform 100..=120 ticks one way, 1 tick = 1 simulated us; \
         window {} batches, queue capacity {}, TTL = horizon/2; tcp-pbft4 is closed loop, one client, \
         one batch outstanding, on localhost sockets",
        spec::MAX_INFLIGHT_BATCHES,
        spec::QUEUE_CAPACITY
    );
    // A traced epoch runs the workload three times and replays it stage
    // by stage: a quarter of the epochs keeps a traced set about as long.
    let epochs = if cli.trace { (w.epochs / 4).max(1) } else { w.epochs };
    let opt = Options {
        seed: cli.seed,
        limit: cli.seconds.map_or(Limit::Epochs(epochs), Limit::Seconds),
        trace: cli.trace,
        smoke: cli.smoke,
    };
    let outcome = run::run(w, opt);
    println!(
        "{} epochs, {} stalled; {} operations attempted, {} failed (refused, expired or undecided)",
        outcome.epochs, outcome.stalled_epochs, outcome.attempted, outcome.failed
    );
    for m in &outcome.metrics {
        match m.spread {
            Some(s) => println!(
                "  {:<34} {:>16.6} {:<6} min {:.6} q1 {:.6} q3 {:.6} max {:.6} n {}",
                m.name, m.value, m.unit, s.min, s.q1, s.q3, s.max, s.n
            ),
            None => println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit),
        }
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}

/// Reads `"name": {"value": x` pairs back out of a child's result line.
/// The line is our own `result_json`, so a scan for that shape suffices.
fn parse_result(line: &str) -> Option<BTreeMap<String, f64>> {
    let body = line.split_once("\"metrics\": {")?.1;
    let mut out = BTreeMap::new();
    for part in body.split("\"}").filter(|p| p.contains("{\"value\": ")) {
        let (head, value) = part.split_once("{\"value\": ")?;
        let name = head.rsplit('"').nth(1)?;
        let value = value.split(',').next()?.trim().parse().ok()?;
        out.insert(name.to_string(), value);
    }
    Some(out)
}

/// Runs one workload in a child process, echoing its report.
fn child(name: &str, cli: &Cli, trace: bool) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &cli.seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = cli.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.stderr(Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, result) = text.trim_end().rsplit_once('\n').unwrap_or(("", text.trim_end()));
    // Per-epoch lines are for a single-workload run; a set prints the summary.
    for line in report.lines().filter(|l| !l.starts_with("  epoch ")) {
        println!("{line}");
    }
    if !out.status.success() {
        return Err(format!("{name} exited with {}", out.status));
    }
    parse_result(result).ok_or_else(|| format!("{name}: no result line"))
}

/// Relative worsening of `second` against `first` in the metric's
/// direction; negative when it got better.
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => stats::ratio(second - first, first.abs()),
        Better::Higher => stats::ratio(first - second, first.abs()),
    }
}

fn parent(cli: &Cli) -> ExitCode {
    let names: Vec<&'static str> = spec::workloads().iter().map(|w| w.name).collect();
    let mut sets: Vec<BTreeMap<&str, BTreeMap<String, f64>>> = Vec::new();
    // The smoke test takes both passes, untraced then traced.
    let passes: &[bool] = if cli.smoke { &[false, true] } else { &[cli.trace] };
    for set in 0..cli.sets {
        let mut results = BTreeMap::new();
        for &trace in passes {
            println!(
                "== set {} of {}, seed {}, trace {} ==",
                set + 1,
                cli.sets,
                cli.seed,
                trace as u8
            );
            for name in &names {
                match child(name, cli, trace) {
                    Ok(metrics) => drop(results.insert(*name, metrics)),
                    Err(e) => {
                        eprintln!("FAILED: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        sets.push(results);
    }
    if cli.sets < 2 || cli.trace {
        return ExitCode::SUCCESS;
    }
    // Repeatability: every later set against the first, per (metric, workload).
    println!(
        "== repeatability: relative difference of each set against set 1, beside the bound =="
    );
    let mut ok = true;
    for name in &names {
        for m in END_TO_END {
            let first = sets[0][name][m.name];
            for (k, set) in sets.iter().enumerate().skip(1) {
                let second = set[name][m.name];
                let worse = worsening(m.better, first, second);
                let verdict = if worse > m.bound { "EXCEEDS" } else { "ok" };
                ok &= worse <= m.bound;
                println!(
                    "  {name:<20} {:<24} set1 {first:>14.6} set{} {second:>14.6} worse by {:>+8.4} bound {:.4} {verdict}",
                    m.name,
                    k + 1,
                    worse,
                    m.bound
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: a metric differs between sets by more than its bound");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.manifest {
        print!("{}", spec::manifest());
        return ExitCode::SUCCESS;
    }
    match &cli.workload {
        Some(name) => worker(name, &cli),
        None => parent(&cli),
    }
}
