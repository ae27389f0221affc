//! tmprof benchmark: three workloads, end-to-end and per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <profile_replay|tiered_emul|fleet_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The workload is built from `--seed`, a
//! reference output is computed untimed, and then rounds (set-up plus
//! timed work) repeat until `--seconds` have passed; every round's output
//! is checked against the reference. Host times are in reference seconds
//! (see `calib`). With `--trace 0` the last stdout line
//! is a JSON object carrying the end-to-end metrics; with `--trace 1`
//! every other round records spans around each library call, and the JSON
//! carries the per-layer metrics. A record of the run (commit, host,
//! seed, configuration, every round, and the spans) is written under
//! `perfbench/out/`. See `perfbench/README.md` for what each metric should
//! move.

mod calib;
mod common;
mod fleet_churn;
mod profile_replay;
mod span;
mod stats;
mod tiered_emul;

use std::fmt::Write as _;
use std::process::ExitCode;

use calib::{Calibrator, REFERENCE_S};
use common::{Round, Workload};
use span::{now, Tracer};
use stats::{median, quantile};

const WORKLOADS: [&str; 3] = ["profile_replay", "tiered_emul", "fleet_churn"];
/// Fewest rounds per run, whatever `--seconds` says (traced runs double
/// it: half the rounds are untraced, to measure the tracing overhead).
const MIN_ROUNDS: usize = 3;
/// Untraced runs keep going until this many epochs were timed, so that
/// `epoch_ms_p90` has at least ten samples beyond it.
const MIN_EPOCH_SAMPLES: usize = 100;
/// No round starts after this many seconds of the process, so a slow host
/// still finishes in bounded time (with fewer samples, as recorded).
const HARD_CAP_S: f64 = 120.0;
/// Worker threads for the fleet and the replay: two, or fewer on a
/// smaller host.
const MAX_WORKERS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad("one of profile_replay, tiered_emul, fleet_churn")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The program under test reads `TMPROF_*` knobs from the environment; a
/// benchmark run must not be steered by any of them.
fn knobs_in_env() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        // tmprof-lint: allow(knob-registry) — a prefix that matches every knob, used to reject them all
        .filter(|k| k.starts_with("TMPROF_"))
        .collect()
}

/// The checked-out commit, read from `.git` without running git.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{refname}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(refname))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({refname})"))
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(name, value)` pairs of a result.
type Metrics = Vec<(&'static str, f64)>;

/// `(name, unit)` of the end-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 9] = [
    ("sim_ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("epoch_ms_p50", "ms"),
    ("epoch_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
    ("tier1_hitrate", "ratio"),
    ("replay_hitrate", "ratio"),
    ("profiling_overhead_pct", "%"),
    ("sim_cycles_per_op", "cycles/op"),
];

/// Each layer (span-name prefix) and its self-time metric.
const SELF_TIME: [(&str, &str); 7] = [
    ("bench", "bench.self_s"),
    ("workloads", "workloads.self_s"),
    ("sim", "sim.self_s"),
    ("profilers", "profilers.self_s"),
    ("core", "core.self_s"),
    ("policy", "policy.self_s"),
    ("emul", "emul.self_s"),
];

/// A round as measured: whether it was traced, and the factor that turns
/// its host seconds into reference seconds.
struct Measured {
    traced: bool,
    scale: f64,
    round: Round,
}

impl Measured {
    /// Simulated ops per reference second after set-up.
    fn rate(&self) -> f64 {
        self.round.sim.ops as f64 / (self.round.run_s * self.scale)
    }
}

/// Reference milliseconds of every epoch of the untraced rounds.
fn epoch_ms(rounds: &[Measured]) -> Vec<f64> {
    rounds
        .iter()
        .filter(|m| !m.traced)
        .flat_map(|m| m.round.epoch_ms.iter().map(move |e| e * m.scale))
        .collect()
}

fn end_to_end(rounds: &[Measured]) -> Metrics {
    let plain: Vec<&Measured> = rounds.iter().filter(|m| !m.traced).collect();
    let rate: Vec<f64> = plain.iter().map(|m| m.rate()).collect();
    let setup: Vec<f64> = plain.iter().map(|m| m.round.setup_s * m.scale).collect();
    let sim = &plain[0].round.sim;
    let epochs = epoch_ms(rounds);
    let values = [
        median(&rate),
        median(&setup),
        quantile(&epochs, 0.5),
        quantile(&epochs, 0.9),
        peak_rss_mb(),
        sim.steady.tier1_hitrate(),
        sim.replay_hitrate,
        sim.counts.profiling_overhead() * 100.0,
        sim.counts.cycles as f64 / sim.ops as f64,
    ];
    END_TO_END.iter().map(|m| m.0).zip(values).collect()
}

/// `(name, unit)` of the per-layer metrics, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 46] = [
    ("workloads.gen_ns_per_op", "ns"),
    ("sim.exec_s", "s"),
    ("sim.exec_ns_per_op", "ns"),
    ("sim.dtlb_miss_ratio", "ratio"),
    ("sim.ptw_walks", "count"),
    ("sim.llc_mpko", "1/kop"),
    ("sim.page_faults", "count"),
    ("sim.shootdowns", "count"),
    ("sim.machine_new_s", "s"),
    ("policy.fleet_new_s", "s"),
    ("profilers.trace_drain_s", "s"),
    ("profilers.trace_samples", "count"),
    ("profilers.abit_scan_s", "s"),
    ("profilers.abit_ptes_visited", "count"),
    ("profilers.abit_ns_per_pte", "ns"),
    ("profilers.abit_hit_ratio", "ratio"),
    ("core.close_s", "s"),
    ("core.profile_pages", "count"),
    ("policy.replay_s", "s"),
    ("policy.select_s", "s"),
    ("policy.mover_s", "s"),
    ("policy.pages_moved", "count"),
    ("policy.mover_us_per_page", "us"),
    ("policy.admit_rejected", "count"),
    ("emul.protect_s", "s"),
    ("emul.pages_protected", "count"),
    ("emul.slow_faults", "count"),
    ("emul.hot_faults", "count"),
    ("core.sched_units", "count"),
    ("core.sched_units_stolen", "count"),
    ("core.sched_queue_depth_peak", "count"),
    ("policy.fleet_wall_speedup", "x"),
    ("sim.cycles", "cycles"),
    ("sim.exec_cycles", "cycles"),
    ("profilers.overhead_cycles", "cycles"),
    ("policy.migration_cycles", "cycles"),
    ("policy.migration_cycles_pct", "%"),
    ("emul.injected_cycles", "cycles"),
    ("bench.self_s", "s"),
    ("workloads.self_s", "s"),
    ("sim.self_s", "s"),
    ("profilers.self_s", "s"),
    ("core.self_s", "s"),
    ("policy.self_s", "s"),
    ("emul.self_s", "s"),
    ("bench.trace_overhead_pct", "%"),
];

fn per_layer(rounds: &[Measured], tr: &Tracer, fleet_wall_speedup: f64) -> Metrics {
    let traced: Vec<(u32, &Measured)> = rounds
        .iter()
        .enumerate()
        .filter(|(_, m)| m.traced)
        .map(|(i, m)| (i as u32, m))
        .collect();
    // Median over traced rounds of a per-round quantity; `f` gets the
    // round id, the round, and its reference-seconds scale.
    let per_round = |f: &dyn Fn(u32, &Round, f64) -> f64| -> f64 {
        let xs: Vec<f64> = traced
            .iter()
            .map(|&(i, m)| f(i, &m.round, m.scale))
            .collect();
        median(&xs)
    };
    let span_s = |name: &str| per_round(&|i, _, k| tr.total(name, i) * k);
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    // Median `sim_ops_per_s` of the traced or of the untraced rounds.
    let rate = |traced: bool| {
        let xs: Vec<f64> = rounds
            .iter()
            .filter(|m| m.traced == traced)
            .map(Measured::rate)
            .collect();
        median(&xs)
    };
    // Schedule-dependent counts: median over all rounds.
    let schedule = |f: &dyn Fn(&Round) -> u64| {
        median(
            &rounds
                .iter()
                .map(|m| f(&m.round) as f64)
                .collect::<Vec<_>>(),
        )
    };

    let s = &traced[0].1.round.sim;
    let c = &s.counts;
    let mut out: Metrics = vec![
        (
            "workloads.gen_ns_per_op",
            per_round(&|i, r, k| tr.total("workloads.gen", i) * k / r.sim.ops as f64 * 1e9),
        ),
        ("sim.exec_s", span_s("sim.exec")),
        (
            "sim.exec_ns_per_op",
            per_round(&|i, r, k| tr.total("sim.exec", i) * k / r.sim.ops as f64 * 1e9),
        ),
        (
            "sim.dtlb_miss_ratio",
            ratio(c.dtlb_l1_misses as f64, (c.loads + c.stores) as f64),
        ),
        ("sim.ptw_walks", c.ptw_walks as f64),
        ("sim.llc_mpko", c.llc_mpko()),
        ("sim.page_faults", c.page_faults as f64),
        ("sim.shootdowns", s.shootdowns as f64),
        ("sim.machine_new_s", span_s("sim.machine_new")),
        ("policy.fleet_new_s", span_s("policy.fleet_new")),
        ("profilers.trace_drain_s", span_s("profilers.trace_drain")),
        ("profilers.trace_samples", s.trace_samples as f64),
        ("profilers.abit_scan_s", span_s("profilers.abit_scan")),
        ("profilers.abit_ptes_visited", s.abit_ptes_visited as f64),
        (
            "profilers.abit_ns_per_pte",
            per_round(&|i, r, k| {
                ratio(
                    tr.total("profilers.abit_scan", i) * k,
                    r.sim.abit_ptes_visited as f64,
                ) * 1e9
            }),
        ),
        (
            "profilers.abit_hit_ratio",
            ratio(s.abit_observations as f64, s.abit_ptes_visited as f64),
        ),
        ("core.close_s", span_s("core.close")),
        ("core.profile_pages", s.profile_pages as f64),
        ("policy.replay_s", span_s("policy.replay")),
        ("policy.select_s", span_s("policy.select")),
        ("policy.mover_s", span_s("policy.mover")),
        ("policy.pages_moved", s.pages_moved as f64),
        (
            "policy.mover_us_per_page",
            per_round(&|i, r, k| {
                ratio(tr.total("policy.mover", i) * k, r.sim.pages_moved as f64) * 1e6
            }),
        ),
        ("policy.admit_rejected", s.admit_rejected as f64),
        ("emul.protect_s", span_s("emul.protect")),
        ("emul.pages_protected", s.pages_protected as f64),
        ("emul.slow_faults", s.slow_faults as f64),
        ("emul.hot_faults", s.hot_faults as f64),
        ("core.sched_units", s.sched_units as f64),
        ("core.sched_units_stolen", schedule(&|r| r.sched_stolen)),
        (
            "core.sched_queue_depth_peak",
            schedule(&|r| r.sched_queue_peak),
        ),
        ("policy.fleet_wall_speedup", fleet_wall_speedup),
        ("sim.cycles", c.cycles as f64),
        ("sim.exec_cycles", (c.cycles - c.profiling_cycles) as f64),
        (
            "profilers.overhead_cycles",
            (s.abit_cycles + s.trace_cycles) as f64,
        ),
        ("policy.migration_cycles", s.migration_cycles as f64),
        (
            "policy.migration_cycles_pct",
            ratio(s.migration_cycles as f64, c.cycles as f64) * 100.0,
        ),
        ("emul.injected_cycles", s.injected_cycles as f64),
    ];
    for (layer, name) in SELF_TIME {
        out.push((name, per_round(&|i, _, k| tr.self_time(layer, i) * k)));
    }
    out.push((
        "bench.trace_overhead_pct",
        (rate(false) / rate(true) - 1.0) * 100.0,
    ));
    out
}

fn json_metrics(values: &[(&'static str, f64)], units: &[(&str, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, v)) in values.iter().enumerate() {
        let unit = units.iter().find(|u| u.0 == *name).map_or("", |u| u.1);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let knobs = knobs_in_env();
    if !knobs.is_empty() {
        eprintln!("perfbench: unset {knobs:?}; the benchmark runs the program's defaults only");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc.min(MAX_WORKERS);

    let t_ref = now();
    let mut wl: Box<dyn Workload> = match args.workload.as_str() {
        "profile_replay" => Box::new(profile_replay::ProfileReplay::new(args.seed, workers)),
        "tiered_emul" => Box::new(tiered_emul::TieredEmul::new(args.seed)),
        _ => Box::new(fleet_churn::FleetChurn::new(args.seed, workers)),
    };
    let reference_s = now() - t_ref;

    let mut tr = Tracer::new();
    let min_rounds = if args.trace {
        2 * MIN_ROUNDS
    } else {
        MIN_ROUNDS
    };
    let mut cal = Calibrator::new();
    let mut rounds: Vec<Measured> = Vec::new();
    let mut epoch_samples = 0;
    let start = now();
    while rounds.len() < 2
        || now() < HARD_CAP_S
            && (rounds.len() < min_rounds
                || now() - start < args.seconds
                || (!args.trace && epoch_samples < MIN_EPOCH_SAMPLES))
    {
        let i = rounds.len() as u32;
        let traced = args.trace && i % 2 == 1;
        tr.set(traced, i);
        let before = cal.measure();
        let s = tr.begin("bench.round");
        let mut round = wl.round(&mut tr);
        tr.end(s);
        let scale = REFERENCE_S / ((before + cal.measure()) / 2.0);
        round.ok &= rounds
            .first()
            .is_none_or(|first| first.round.sim == round.sim);
        if !traced {
            epoch_samples += round.epoch_ms.len();
        }
        rounds.push(Measured {
            traced,
            scale,
            round,
        });
    }
    let attempted = rounds.len();
    let failed = rounds.iter().filter(|m| !m.round.ok).count();

    let (metrics, units): (Metrics, &[(&str, &str)]) = if args.trace {
        (per_layer(&rounds, &tr, wl.fleet_wall_speedup()), &PER_LAYER)
    } else {
        (end_to_end(&rounds), &END_TO_END)
    };
    if let Some((name, v)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is {v}; no result");
        return ExitCode::from(1);
    }

    // Human-readable summary, then the record, then the result line.
    println!(
        "perfbench {} seed={} trace={} rounds={attempted} epoch_samples={epoch_samples} \
         reference_s={reference_s:.3}",
        args.workload, args.seed, args.trace as u8
    );
    for (name, v) in &metrics {
        let unit = units.iter().find(|u| u.0 == *name).map_or("", |u| u.1);
        println!("  {name:<32} {v:>18.6} {unit}");
    }
    println!(
        "  {:<32} {:>18.6} ratio",
        "failed_ratio",
        failed as f64 / attempted as f64
    );

    let metrics_json = json_metrics(&metrics, units);
    let mut record = String::new();
    let _ = write!(
        record,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": \"{}\", \
         \"nproc\": {nproc}, \"workers\": {workers}, \"config\": \"{}\", \"reference_s\": {reference_s}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"epoch_samples\": {epoch_samples}, \
         \"metrics\": {metrics_json}, \"rounds\": [",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        commit(),
        wl.config().replace('"', "'"),
    );
    // Raw host times per round, with the scale to reference seconds.
    for (i, m) in rounds.iter().enumerate() {
        let r = &m.round;
        let _ = write!(
            record,
            "{}\n{{\"traced\": {}, \"ok\": {}, \"scale\": {}, \"setup_s\": {}, \"run_s\": {}, \"ops\": {}, \"epoch_ms\": {:?}}}",
            if i > 0 { "," } else { "" },
            m.traced,
            r.ok,
            m.scale,
            r.setup_s,
            r.run_s,
            r.sim.ops,
            r.epoch_ms
        );
    }
    let _ = writeln!(record, "], \"spans\": {}}}", tr.to_json());
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, record)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
        return ExitCode::from(1);
    }
    println!("  record: {}", path.display());

    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}",
        failed == 0
    );
    ExitCode::SUCCESS
}
