//! Host-time benchmark of the amdb simulation workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig2-5050 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics (serial and parallel
//! wall time for the library's driver to produce a workload's tables,
//! template set-up time, each scaled to a reference host speed by the
//! `probe`; peak RSS); with `--trace 1` the per-layer metrics of a
//! separate traced pass.
//! Every pass is checked (see `judge`); the last line of stdout is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.
//! `--workload all` runs every workload in turn and checks the
//! cross-workload predictions of the per-layer table.

mod judge;
mod layers;
mod probe;
mod spans;
mod workloads;

use judge::Judge;
use layers::{traced_round, METRICS};
use probe::{scaled, Probe};
use spans::Spans;
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::{Workload, NAMES};

/// Rounds measured even when `--seconds` runs out sooner: two end-to-end
/// rounds so the mean has company, one traced round (it is five passes).
const MIN_ROUNDS_E2E: usize = 2;
const MIN_ROUNDS_TRACED: usize = 1;
/// Where the traced pass writes its spans, relative to the working directory.
const SPAN_DIR: &str = ".bench_out";

const USAGE: &str = "usage: perfbench --workload <fig2-5050|fig3-8020-fanout|write-surge|\
fleet-observed|all> [--seed N] [--seconds S] [--trace 0|1]";

/// (name, unit) of the end-to-end metrics, in print order.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("wall_s_par", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: None,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = Some(value.parse().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad("a number"))?;
                    if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                        return Err(bad("a non-negative number"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
            return Err(format!("unknown workload '{}'", args.workload));
        }
        Ok(args)
    }
}

/// Interquartile mean: the mean of the middle half of `values` once
/// sorted (all of them when there are fewer than four). A run has only a
/// few rounds; over them this estimate spread less from run to run than
/// the median did, and it still drops an outlying round once there are
/// four or more.
fn iqm(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len() / 4;
    let mid = &v[k..v.len() - k];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One workload's measured metrics (name → value) and its check tally.
struct Outcome {
    metrics: BTreeMap<&'static str, f64>,
    judge: Judge,
}

/// Time `f` in seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// One end-to-end round: the template load, then the workload's tables
/// produced serially and at `jobs` workers. The host-speed probe (see
/// `probe`) runs after the load and after each pass, so every pass is
/// scaled by the mean of the two probes around it and the load by the
/// probe after it. Also returns the process's peak RSS as it stood after
/// the serial pass.
fn e2e_round(
    wl: &Workload,
    jobs: usize,
    probe: &mut Probe,
    judge: &mut Judge,
) -> (BTreeMap<&'static str, f64>, Option<f64>) {
    let (tpls, setup_s) = timed(|| wl.build_templates());
    drop(tpls);
    let p0 = probe.time_s();
    let (serial, wall_s) = timed(|| wl.produce(1));
    let p1 = probe.time_s();
    let serial_rss_mb = peak_rss_mb();
    judge.pass(wl, &serial.results, serial.rendered.as_deref());
    drop(serial);
    let (par, wall_s_par) = timed(|| wl.produce(jobs));
    let p2 = probe.time_s();
    judge.pass(wl, &par.results, par.rendered.as_deref());
    eprintln!(
        "perfbench: {} raw setup_s {setup_s:.4} wall_s {wall_s:.4} wall_s_par {wall_s_par:.4}; \
         probe {p0:.4} {p1:.4} {p2:.4}",
        wl.name
    );
    let round = BTreeMap::from([
        ("setup_s", scaled(setup_s, p0)),
        ("wall_s", scaled(wall_s, (p0 + p1) / 2.0)),
        ("wall_s_par", scaled(wall_s_par, (p1 + p2) / 2.0)),
    ]);
    (round, serial_rss_mb)
}

fn measure(wl: &Workload, seconds: f64, trace: bool) -> Outcome {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut judge = Judge::default();
    let mut spans = Spans::new();
    let mut rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    // Peak RSS up to the end of the first serial pass: templates plus one
    // cell at a time. Later parallel passes are left out, because which
    // cells overlap in them, and so the peak, varies from run to run.
    let mut serial_rss_mb = None;
    let mut probe = Probe::new();
    let (min_rounds, tpls) = if trace {
        // The library's own pass sets the reference every traced pass must
        // reproduce, and checks the pin.
        let lib = wl.produce(1);
        judge.pass(wl, &lib.results, lib.rendered.as_deref());
        (MIN_ROUNDS_TRACED, wl.build_templates())
    } else {
        (MIN_ROUNDS_E2E, Vec::new())
    };
    let start = Instant::now();
    let mut last_round_s = 0.0;
    // Start another round while it would end nearer to `seconds` than
    // stopping now does.
    while rounds.len() < min_rounds || start.elapsed().as_secs_f64() + last_round_s / 2.0 < seconds
    {
        let round_start = Instant::now();
        let round = if trace {
            traced_round(wl, &tpls, jobs, &mut spans, &mut judge)
        } else {
            let (round, rss_mb) = e2e_round(wl, jobs, &mut probe, &mut judge);
            if rounds.is_empty() {
                serial_rss_mb = rss_mb;
            }
            round
        };
        eprintln!(
            "perfbench: {} round {}: {round:?}",
            wl.name,
            rounds.len() + 1
        );
        rounds.push(round);
        last_round_s = round_start.elapsed().as_secs_f64();
    }

    let mut metrics: BTreeMap<&'static str, f64> = rounds[0]
        .keys()
        .map(|&k| (k, iqm(&rounds.iter().map(|r| r[k]).collect::<Vec<_>>())))
        .collect();
    if trace {
        print_layer_table(wl, &metrics, &spans, rounds.len());
        let path = format!("{SPAN_DIR}/spans-{}-seed{}.json", wl.name, wl.seed);
        if let Err(e) =
            std::fs::create_dir_all(SPAN_DIR).and_then(|()| std::fs::write(&path, spans.to_json()))
        {
            eprintln!("perfbench: writing {path}: {e}");
        }
    } else {
        match serial_rss_mb {
            Some(mb) => {
                metrics.insert("peak_rss_mb", mb);
            }
            None => judge.check(false, wl, "process", "no VmHWM in /proc/self/status"),
        }
    }
    Outcome { metrics, judge }
}

fn print_layer_table(
    wl: &Workload,
    metrics: &BTreeMap<&'static str, f64>,
    spans: &Spans,
    rounds: usize,
) {
    println!(
        "== {} (seed {}) per-layer, interquartile mean of {rounds} round(s) ==",
        wl.name, wl.seed
    );
    for (name, unit, _) in METRICS {
        println!("  {name:<28} {:>16.6} {unit}", metrics[name]);
    }
    println!("  span self time per round (s):");
    for (name, secs) in spans.self_by_name() {
        println!("    {name:<26} {:>12.4}", secs / rounds as f64);
    }
    for (claim, holds) in single_workload_predictions(wl.name, metrics) {
        println!(
            "  prediction {}: {claim}",
            if holds { "holds" } else { "DOES NOT HOLD" }
        );
    }
}

/// Predictions one workload's traced metrics can check on their own.
fn single_workload_predictions(
    name: &str,
    m: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, bool)> {
    let obs = m["obs.overhead_share"];
    let mut out = vec![if name == "fleet-observed" {
        ("obs.overhead_share > 0", obs > 0.0)
    } else {
        ("obs.overhead_share == 0", obs == 0.0)
    }];
    if name == "fig2-5050" || name == "fig3-8020-fanout" {
        let apply = [
            "apply.plan_ns_per_event",
            "apply.mean_batch",
            "apply.conflict_bound_ratio",
        ];
        out.push(("apply.* == 0", apply.iter().all(|k| m[k] == 0.0)));
    }
    out
}

/// Predictions across workloads (`--workload all --trace 1`).
fn cross_workload_predictions(all: &BTreeMap<&str, BTreeMap<&'static str, f64>>) {
    let share = |wl: &str, k: &str| all[wl][k];
    let client = |wl| share(wl, "sql.client_share");
    let ordered = client("fig3-8020-fanout") > client("fig2-5050")
        && client("fig2-5050") > client("write-surge");
    let other_max = NAMES
        .iter()
        .all(|wl| share("write-surge", "core.other_share") >= share(wl, "core.other_share"));
    for (claim, holds) in [
        (
            "sql.client_share: fig3-8020-fanout > fig2-5050 > write-surge",
            ordered,
        ),
        ("core.other_share is largest on write-surge", other_max),
    ] {
        println!(
            "prediction {}: {claim}",
            if holds { "holds" } else { "DOES NOT HOLD" }
        );
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut attempted = 0;
    let mut failed = 0;
    let mut json_metrics: Vec<String> = Vec::new();
    let mut all: BTreeMap<&str, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for &name in &names {
        let wl = Workload::new(name, args.seed).expect("workload names are validated");
        let out = measure(&wl, args.seconds, args.trace);
        attempted += out.judge.attempted;
        failed += out.judge.failed;
        let listed: Vec<(&str, &str)> = if args.trace {
            METRICS.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.to_vec()
        };
        for (metric, unit) in listed {
            let Some(&value) = out.metrics.get(metric) else {
                continue;
            };
            if !value.is_finite() {
                eprintln!("perfbench: {name} {metric} is not finite");
                attempted += 1;
                failed += 1;
                continue;
            }
            if !args.trace {
                println!("{name} {metric} {value} {unit}");
            }
            let key = if names.len() == 1 {
                metric.to_string()
            } else {
                format!("{name}:{metric}")
            };
            json_metrics.push(format!(
                "\"{key}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        all.insert(name, out.metrics);
    }
    if args.trace && names.len() == NAMES.len() {
        cross_workload_predictions(&all);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        json_metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists every metric the
    /// benchmark prints, with the same unit, and only workloads it knows.
    #[test]
    fn benchmark_manifest_matches_the_metrics_printed() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "missing end-to-end {entry}");
        }
        for (name, unit, better) in METRICS {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(manifest.contains(&entry), "missing per-layer {entry}");
        }
        // Every gated workload is one the benchmark runs.
        let gated: Vec<&str> = manifest
            .split("{\"name\": \"")
            .filter_map(|rest| rest.split_once("\", \"why\"").map(|(name, _)| name))
            .collect();
        assert!(gated.len() >= 2, "at least two gated workloads");
        for name in gated {
            assert!(NAMES.contains(&name), "unknown gated workload {name}");
        }
    }

    #[test]
    fn args_parse_the_benchmark_flags_and_reject_the_rest() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a =
            Args::parse(argv("--workload write-surge --seed 7 --seconds 3 --trace 1").into_iter())
                .expect("valid flags");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("write-surge", Some(7), 3.0, true)
        );
        for bad in [
            "--workload nope",
            "--workload fig2-5050 --trace 2",
            "--workload fig2-5050 --seed x",
            "--workload fig2-5050 --seconds",
            "--workload fig2-5050 --bogus 1",
        ] {
            assert!(Args::parse(argv(bad).into_iter()).is_err(), "{bad}");
        }
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(iqm(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(iqm(&[9.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(iqm(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]), 3.5);
    }
}
