//! `e2e` — the repository's benchmark: four workloads, two clocks, and a
//! probe-store layer ledger. See `README.md` beside this file for the
//! metric glossary, the layer/metric interaction table, why each workload
//! exists, and how to read a trace.
//!
//! ```text
//! e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--quick]
//! ```
//!
//! * With `--workload` **and** `--trace` (how the benchmark driver calls
//!   it) one workload runs once — `--trace 0` measures the end-to-end
//!   metrics with probes reduced to counters, `--trace 1` runs the traced
//!   pass and reports the per-layer metrics — and the last line of standard
//!   output is one JSON object `{correct, attempted, failed, metrics}`.
//! * Otherwise every selected workload runs both passes, `--repeat` times
//!   in alternating order, and the spread of each end-to-end metric is
//!   checked against its bound from `BENCHMARK.json`.
//!
//! Exit code: 0 when every answer was correct, every conservation check
//! held and (repeat mode) every spread stayed within its bound; 1
//! otherwise; 2 for a usage error.
//!
//! The benchmark measures every layer **from outside**: it composes the
//! store stack itself, interposes its own `ProbeStore` between every two
//! layers, and reads no product stats struct. It deliberately uses only the
//! API surface listed in the README, so that later PRs can delete
//! `QueryServer`, the `*Stats` structs, `airphant_bench` and the corpus
//! generators without touching it.

mod clock;
mod gen;
mod harness;
mod ingest;
mod lookup;
mod metrics;
mod oracle;
mod probe;
mod scatter;
mod serve;
mod stats;

use harness::{Outcome, RunConfig};
use metrics::{Catalog, MetricDef};
use std::path::PathBuf;

#[global_allocator]
static GLOBAL: clock::CountingAlloc = clock::CountingAlloc;

const USAGE: &str =
    "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--quick]";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    repeat: usize,
    quick: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        repeat: 2,
        quick: false,
    };
    let mut argv = argv;
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run_workload(name: &str, cfg: &RunConfig, traced: bool) -> Outcome {
    match name {
        "lookup-cold" => lookup::run(cfg, traced),
        "serve-zipf" => serve::run(cfg, traced),
        "scatter-segments" => scatter::run(cfg, traced),
        "ingest-live" => ingest::run(cfg, traced),
        other => unreachable!("workload {other} was validated against BENCHMARK.json"),
    }
}

/// Print an outcome as `workload metric value unit` lines and return
/// whether it was correct.
fn report(workload: &str, outcome: &Outcome, catalog: &Catalog) -> bool {
    for note in &outcome.notes {
        println!("# {workload} {note}");
    }
    let mut ok = true;
    for (name, value) in &outcome.metrics {
        match catalog.find(name) {
            Some(def) if value.is_finite() => println!("{workload} {name} {value} {}", def.unit),
            Some(_) => {
                println!("# {workload} FAIL {name} is not a finite number");
                ok = false;
            }
            None => {
                println!("# {workload} FAIL {name} is not in BENCHMARK.json");
                ok = false;
            }
        }
    }
    for why in &outcome.failures.first {
        println!("# {workload} FAIL operation: {why}");
    }
    for why in &outcome.violations {
        println!("# {workload} FAIL check: {why}");
    }
    println!(
        "# {workload} attempted {} failed {} violations {}",
        outcome.failures.attempted,
        outcome.failures.failed,
        outcome.violations.len()
    );
    ok && outcome.failures.failed == 0 && outcome.violations.is_empty()
}

/// The driver's last line. Every metric of `defs` is present; one that does
/// not apply to the workload reads 0 (per-layer only — every end-to-end
/// metric applies to every workload, and a missing one makes the run
/// incorrect).
fn json_line(outcome: &Outcome, defs: &[MetricDef], correct: bool) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|def| {
            let value = outcome
                .metrics
                .iter()
                .find(|(n, _)| *n == def.name)
                .map_or(0.0, |(_, v)| if v.is_finite() { *v } else { 0.0 });
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.attempted.max(1),
        outcome.failures.failed,
        metrics.join(", ")
    )
}

fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("e2e")
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let catalog = Catalog::load();
    let selected: Vec<String> = match &args.workload {
        Some(w) if catalog.workloads.contains(w) => vec![w.clone()],
        Some(w) => {
            eprintln!(
                "e2e: unknown workload {w}; one of {:?}\n{USAGE}",
                catalog.workloads
            );
            std::process::exit(2);
        }
        None => catalog.workloads.clone(),
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(catalog.run_seconds),
        quick: args.quick,
        out_dir: out_dir(),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("e2e: cannot create {}: {e}", cfg.out_dir.display());
        std::process::exit(1);
    }
    println!(
        "# e2e seed {} seconds {} quick {} threads available {}",
        cfg.seed,
        cfg.seconds,
        cfg.quick,
        std::thread::available_parallelism().map_or(1, usize::from)
    );

    // Driver mode: one workload, one pass kind, JSON last.
    if let (Some(traced), [workload]) = (args.trace, selected.as_slice()) {
        let outcome = run_workload(workload, &cfg, traced);
        let mut correct = report(workload, &outcome, &catalog);
        let defs = if traced {
            &catalog.per_layer
        } else {
            &catalog.end_to_end
        };
        if !traced {
            for def in defs {
                let found = outcome.metrics.iter().find(|(n, _)| *n == def.name);
                if !found.is_some_and(|(_, v)| v.is_finite() && *v != 0.0) {
                    println!(
                        "# {workload} FAIL end-to-end metric {} is missing or 0",
                        def.name
                    );
                    correct = false;
                }
            }
        }
        println!("{}", json_line(&outcome, defs, correct));
        std::process::exit(if correct { 0 } else { 1 });
    }

    // Repeat mode: every selected workload, both passes, alternating order.
    let repeat = if cfg.quick { 1 } else { args.repeat };
    let mut all_correct = true;
    let mut runs: Vec<(String, Outcome)> = Vec::new();
    for rep in 0..repeat {
        let mut order = selected.clone();
        if rep % 2 == 1 {
            order.reverse();
        }
        for workload in &order {
            if args.trace != Some(true) {
                let outcome = run_workload(workload, &cfg, false);
                all_correct &= report(workload, &outcome, &catalog);
                runs.push((workload.clone(), outcome));
            }
            if args.trace != Some(false) {
                let outcome = run_workload(workload, &cfg, true);
                all_correct &= report(workload, &outcome, &catalog);
            }
        }
    }

    // Spread of each end-to-end metric over the repeats: the driver's
    // interquartile distance from four runs on, the full range below that.
    for workload in &selected {
        for def in &catalog.end_to_end {
            let values: Vec<f64> = runs
                .iter()
                .filter(|(w, _)| w == workload)
                .filter_map(|(_, o)| o.metrics.iter().find(|(n, _)| *n == def.name))
                .map(|(_, v)| *v)
                .collect();
            if values.len() < 2 {
                continue;
            }
            let spread = if values.len() >= 4 {
                stats::spread(&values)
            } else {
                let lo = values.iter().copied().fold(f64::MAX, f64::min);
                let hi = values.iter().copied().fold(f64::MIN, f64::max);
                (hi - lo) / stats::median(&values).abs().max(f64::MIN_POSITIVE)
            };
            // Like the driver, report the spread of set-up time but do not
            // hold it to a bound: it is wall time on a shared box.
            let bound = if def.name == "setup_s" {
                f64::INFINITY
            } else {
                def.bound.unwrap_or(f64::INFINITY)
            };
            println!(
                "# spread {workload} {} ({} is better) {spread:.5} of bound {bound} over {} runs: {}",
                def.name,
                if def.higher_is_better { "higher" } else { "lower" },
                values.len(),
                if spread <= bound { "ok" } else { "EXCEEDS" }
            );
            all_correct &= spread <= bound;
        }
    }
    println!("# e2e {}", if all_correct { "OK" } else { "FAILED" });
    std::process::exit(if all_correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = args("--workload serve-zipf --seed 42 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve-zipf"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, Some(12.0), Some(true)));
        assert_eq!((a.repeat, a.quick), (2, false));
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--repeat 0").is_err());
        assert!(args("--bogus").is_err());
        assert!(args("--seed").is_err());
    }

    #[test]
    fn json_line_carries_every_declared_metric() {
        let catalog = Catalog::load();
        let mut outcome = Outcome::default();
        outcome.set("setup_s", 0.8127);
        outcome.failures.attempted = 1000;
        let line = json_line(&outcome, &catalog.end_to_end, true);
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_f64()), Some(1000.0));
        let metrics = v.get("metrics").unwrap();
        for def in &catalog.end_to_end {
            let m = metrics.get(&def.name).unwrap();
            assert_eq!(
                m.get("unit").and_then(|u| u.as_str()),
                Some(def.unit.as_str())
            );
        }
        let setup = metrics.get("setup_s").unwrap().get("value");
        assert_eq!(setup.and_then(|x| x.as_f64()), Some(0.8127));
    }
}
