//! `divide-bench` — the repository's end-to-end benchmark.
//!
//! ```text
//! divide-bench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! divide-bench trace --workload W [--out DIR] [...]
//! divide-bench compare BASE NEW [--bench BENCHMARK.json]
//! ```
//!
//! One workload per process: set-up repeats until [`SETUP_SECONDS`] have
//! passed and at least [`MIN_SETUPS`] ran (the median is `setup_s`), then
//! timed reps repeat until `--seconds` have passed and at least
//! [`MIN_REPS`] ran (see [`end_to_end`] for how they are summarised).
//! Without `--workload` every workload runs in a child process of its
//! own, so peak memory is per workload. Reps use `min(2, nproc)` threads.
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics of a traced run.
//! The line before it repeats the metrics with their spread, the
//! workload, the output digest and the check verdict; `compare` reads
//! those lines. A wrong output prints `"correct": false` and exits 1.

mod compare;
mod json;
mod measure;
mod trace;
mod workload;

use measure::{failed_frac, median, status_kb};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{latency_summary, Tracer};
use workload::{Config, Rep, WORKLOADS};

/// Set-ups per run, at least; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
/// Set-ups repeat until this much time has passed, so that the median of
/// the cheap ones (tens of milliseconds) rests on dozens of samples.
const SETUP_SECONDS: f64 = 2.0;
/// Timed reps per run, at least.
const MIN_REPS: usize = 3;
/// Untraced/traced one-thread rep pairs in a traced run, at least.
const MIN_PAIRS: usize = 3;
/// Reference digests for seed 1: `workload seed fnv64`.
const REFERENCE: &str = include_str!("../reference.txt");

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".divide-bench/trace"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("compare") => compare::main(&argv[1..]),
        Some("trace") => match parse_args(&argv[1..]) {
            Ok(a) if a.workload.is_some() => run_one(&Args { trace: true, ..a }),
            Ok(_) => usage("trace needs --workload"),
            Err(e) => usage(&e),
        },
        _ => match parse_args(&argv) {
            Ok(a) if a.workload.is_some() => run_one(&a),
            Ok(_) => run_all(&argv),
            Err(e) => usage(&e),
        },
    };
    std::process::exit(code);
}

fn usage(problem: &str) -> i32 {
    eprintln!(
        "divide-bench: {problem}\n\
         usage: divide-bench [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
         [--out DIR]\n       \
         divide-bench trace --workload W [--out DIR] [...]\n       \
         divide-bench compare BASE NEW [--bench BENCHMARK.json]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    2
}

/// Every workload, each in a child process of its own.
fn run_all(argv: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return usage(&format!("cannot locate own executable: {e}")),
    };
    let mut code = 0;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(argv)
            .args(["--workload", w])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("divide-bench: {w} exited with {s}");
                code = 1;
            }
            Err(e) => {
                eprintln!("divide-bench: cannot run {w}: {e}");
                code = 1;
            }
        }
    }
    code
}

/// Removes the run's journal directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_one(args: &Args) -> i32 {
    match run(args) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("divide-bench: {e}");
            1
        }
    }
}

fn reference(workload: &str, seed: u64) -> Option<u64> {
    REFERENCE
        .lines()
        .map(str::split_whitespace)
        .find_map(|mut f| {
            (f.next() == Some(workload) && f.next() == Some(&seed.to_string()))
                .then(|| f.next().and_then(|d| u64::from_str_radix(d, 16).ok()))
                .flatten()
        })
}

/// One metric in the result line: `(name, value, unit)`.
type Metric = (&'static str, f64, &'static str);

fn run(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().expect("run_one checks --workload");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let dir = Path::new(".divide-bench").join(format!("journals-{name}-{}", std::process::id()));
    let _scratch = Scratch(dir.clone());
    let mut w = workload::make(name, Config::new(dir), args.seed)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let tracer = args.trace.then(Tracer::new);

    let mut setup_s = Vec::new();
    let started = Instant::now();
    while setup_s.len() < MIN_SETUPS || started.elapsed().as_secs_f64() < SETUP_SECONDS {
        let setup = Instant::now();
        w.setup(threads, None)?;
        setup_s.push(setup.elapsed().as_secs_f64());
    }
    if let Some(t) = &tracer {
        // One more set-up, traced; the reps use it.
        t.span("setup", name, || w.setup(threads, Some(t)))?;
    }
    let setup_rss_mb = status_kb("VmRSS:") as f64 / 1024.0;

    let mut reps = Vec::new();
    let metrics = match &tracer {
        None => {
            let started = Instant::now();
            while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
                reps.push(w.rep(threads, None)?);
            }
            end_to_end(&reps, &setup_s)
        }
        Some(t) => {
            let normal = w.rep(threads, None)?;
            let (mut untraced, mut traced) = (Vec::new(), Vec::new());
            let started = Instant::now();
            while traced.len() < MIN_PAIRS || started.elapsed().as_secs_f64() < args.seconds {
                // Alternate which kind goes first, so neither always
                // inherits the other's heap and cache state.
                if traced.len() % 2 == 0 {
                    untraced.push(w.rep(1, None)?);
                    traced.push(w.rep(1, Some(t))?);
                } else {
                    traced.push(w.rep(1, Some(t))?);
                    untraced.push(w.rep(1, None)?);
                }
            }
            let run = TracedRun {
                probes: w.probes(),
                normal,
                untraced,
                traced,
            };
            let metrics = per_layer(args, name, t, &run, setup_rss_mb)?;
            reps = std::iter::once(run.normal)
                .chain(run.untraced)
                .chain(run.traced)
                .collect();
            metrics
        }
    };

    let mut problems: Vec<String> = reps.iter().flat_map(|r| r.violations.clone()).collect();
    problems.dedup();
    let digest = reps[0].digest;
    if reps.iter().any(|r| r.digest != digest) {
        problems.push("the output digest differs across reps".to_string());
    }
    let reference = match reference(name, args.seed) {
        Some(d) if d == digest => "match",
        Some(d) => {
            problems.push(format!("digest {digest:016x} != reference {d:016x}"));
            "mismatch"
        }
        None => "none",
    };
    let correct = problems.is_empty();
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed = if correct {
        reps.iter().map(|r| r.failed).sum()
    } else {
        attempted
    };

    let mut detail = format!(
        "{{\"workload\":{},\"seed\":{},\"threads\":{threads},\"trace\":{},\
         \"setups\":{},\"reps\":{},\"digest\":\"{digest:016x}\",\"reference\":\"{reference}\",\
         \"components\":{},\"problems\":[{}],\"metrics\":{{",
        json::string(name),
        args.seed,
        args.trace,
        setup_s.len(),
        reps.len(),
        json::string(&reps[0].components),
        problems
            .iter()
            .map(|p| json::string(p))
            .collect::<Vec<_>>()
            .join(","),
    );
    let mut extra: Vec<(Metric, Vec<f64>)> = Vec::new();
    if tracer.is_none() {
        let failed_frac = failed_frac(attempted, failed, correct);
        extra.push((("failed_frac", failed_frac, "frac"), vec![failed_frac]));
        let tails: Vec<f64> = reps.iter().map(|r| r.tail_s).collect();
        extra.push((("exec.tail_s", median(&tails), "s"), tails));
        extra.push((("mem.setup_rss_mb", setup_rss_mb, "MB"), vec![setup_rss_mb]));
    }
    let samples = |m: &str| -> Vec<f64> {
        match m {
            "wall_s" => reps.iter().map(|r| r.timing.wall_s).collect(),
            "cpu_s" => reps.iter().map(|r| r.timing.cpu_s).collect(),
            "ops_per_s" => reps
                .iter()
                .map(|r| r.ops as f64 / r.timing.wall_s)
                .collect(),
            "peak_rss_mb" => reps.iter().map(|r| r.timing.peak_rss_mb).collect(),
            "setup_s" => setup_s.clone(),
            _ => Vec::new(),
        }
    };
    let all: Vec<(Metric, Vec<f64>)> = metrics
        .iter()
        .map(|&m| (m, samples(m.0)))
        .chain(extra)
        .collect();
    for (i, ((m, value, unit), values)) in all.iter().enumerate() {
        let spread = if values.is_empty() {
            String::new()
        } else {
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            format!(
                ",\"min\":{},\"max\":{},\"n\":{}",
                json::number(min),
                json::number(max),
                values.len()
            )
        };
        let _ = write!(
            detail,
            "{}{}:{{\"value\":{},\"unit\":{}{spread}}}",
            if i == 0 { "" } else { "," },
            json::string(m),
            json::number(*value),
            json::string(unit)
        );
    }
    detail.push_str("}}");
    println!("{detail}");

    let result: Vec<String> = metrics
        .iter()
        .map(|(m, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::string(m),
                json::number(*v),
                json::string(u)
            )
        })
        .collect();
    for p in &problems {
        eprintln!("divide-bench: {name}: {p}");
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        result.join(",")
    );
    Ok(correct)
}

/// The end-to-end metrics of timed reps. Times are medians over reps and
/// set-up time the median of the set-ups. Peak memory is the first rep's:
/// the footprint of one run right after set-up. Later reps start from
/// whatever the allocator kept of earlier ones, so their peaks climb by a
/// run-dependent amount (serve's by up to 70% over twenty reps).
fn end_to_end(reps: &[Rep], setup_s: &[f64]) -> Vec<Metric> {
    let med = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    vec![
        ("wall_s", med(|r| r.timing.wall_s), "s"),
        ("ops_per_s", med(|r| r.ops as f64 / r.timing.wall_s), "1/s"),
        ("cpu_s", med(|r| r.timing.cpu_s), "s"),
        ("peak_rss_mb", reps[0].timing.peak_rss_mb, "MB"),
        ("setup_s", median(setup_s), "s"),
    ]
}

/// Attributed layers: `(metric, span layer)`; each value is the layer's
/// self time as a share of the traced rep's wall time.
const LAYERS: [(&str, &str); 10] = [
    ("dataset.curate_city_frac", "dataset.curate_city"),
    ("analysis.sections_frac", "analysis.sections"),
    ("bat.new_frac", "bat.new"),
    ("bat.handle_frac", "bat.handle"),
    ("core.journal.open_frac", "core.journal.open"),
    ("core.make_env_frac", "core.make_env"),
    ("core.campaign_self_frac", "core.run_sharded"),
    ("core.telemetry.record_frac", "core.telemetry.record"),
    ("core.render_frac", "core.render"),
    ("serve.engine_self_frac", "serve.run_recorded"),
];

/// Probes re-driven after the traced rep: `(metric, fact)`, as shares of
/// the traced wall time.
const PROBES: [(&str, &str); 6] = [
    ("dataset.aggregate_frac", "probe.dataset.aggregate_s"),
    ("core.shard.merge_frac", "probe.core.shard.merge_s"),
    ("core.monitor.observe_frac", "probe.core.monitor.observe_s"),
    ("core.trace.assemble_frac", "probe.core.trace.assemble_s"),
    (
        "core.telemetry.aggregate_frac",
        "probe.core.telemetry.aggregate_s",
    ),
    ("serve.schedule_frac", "probe.serve.schedule_s"),
];

/// Counts and ratios the traced rep reports as they are.
const FACTS: [(&str, &str); 11] = [
    ("bat.handle_calls", "count"),
    ("bat.hit_rate", "frac"),
    ("core.telemetry.events", "count"),
    ("core.telemetry.jsonl_bytes", "bytes"),
    ("core.journal.bytes", "bytes"),
    ("core.journal.replayed_frac", "frac"),
    ("mem.merged_events", "count"),
    ("serve.cache_hit_frac", "frac"),
    ("serve.shed_frac", "frac"),
    ("serve.evictions", "count"),
    ("exec.shard_imbalance", "ratio"),
];

/// The reps of a traced run.
struct TracedRun {
    /// One rep at the normal thread count.
    normal: Rep,
    /// One-thread reps without and with tracing, in run order.
    untraced: Vec<Rep>,
    traced: Vec<Rep>,
    /// What the workload's probes measured after them.
    probes: workload::Facts,
}

/// Interference from the rest of the machine only ever adds time, so the
/// fastest rep of each kind stands for it: the fastest traced rep is
/// attributed, and the tracing overhead compares it with the fastest
/// untraced one. Writes `W.layers.json` and `W.spans.json` to `--out`
/// and returns the per-layer metrics.
fn per_layer(
    args: &Args,
    name: &str,
    tracer: &Tracer,
    run: &TracedRun,
    setup_rss_mb: f64,
) -> Result<Vec<Metric>, String> {
    let fastest = |reps: &[Rep]| {
        (0..reps.len())
            .min_by(|&a, &b| reps[a].timing.wall_s.total_cmp(&reps[b].timing.wall_s))
            .ok_or("the traced run needs one-thread reps")
    };
    let normal = &run.normal;
    let untraced = &run.untraced[fastest(&run.untraced)?];
    let k = fastest(&run.traced)?;
    let traced = &run.traced[k];
    // The k-th traced rep opened the k-th `rep` span.
    let rep_span = *tracer
        .spans("rep")
        .get(k)
        .ok_or("a traced rep left no span")?;
    let setup_span = tracer
        .last("setup")
        .ok_or("the traced set-up left no span")?;
    let attr = tracer.attribute(rep_span);
    let setup = tracer.attribute(setup_span);
    let wall = attr.root_ns as f64 / 1e9;
    let setup_wall = setup.root_ns as f64 / 1e9;
    let mut facts = traced.facts.clone();
    facts.extend(run.probes.clone());
    let fact = |k: &str| facts.get(k).copied().unwrap_or(0.0);

    let mut metrics: Vec<Metric> = LAYERS
        .iter()
        .map(|&(m, layer)| (m, attr.self_s(layer) / wall, "frac"))
        .collect();
    metrics.push((
        "trace.unattributed_frac",
        attr.unattributed_ns as f64 / 1e9 / wall,
        "frac",
    ));
    metrics.extend(PROBES.iter().map(|&(m, k)| (m, fact(k) / wall, "frac")));
    metrics.push((
        "world.build_frac",
        setup.self_s("world.build") / setup_wall,
        "frac",
    ));
    metrics.push((
        "serve.build_store_frac",
        setup.self_s("serve.build_store") / setup_wall,
        "frac",
    ));
    let speedup = untraced.timing.wall_s / normal.timing.wall_s;
    let overhead = (wall - untraced.timing.wall_s) / untraced.timing.wall_s;
    metrics.extend([
        ("exec.speedup", speedup, "ratio"),
        ("exec.tail_s", normal.tail_s, "s"),
        (
            "exec.tail_frac",
            normal.tail_s / normal.timing.wall_s,
            "frac",
        ),
        ("trace.wall_s", wall, "s"),
        ("trace.overhead_frac", overhead, "frac"),
        ("mem.setup_rss_mb", setup_rss_mb, "MB"),
    ]);
    metrics.extend(FACTS.iter().map(|&(m, unit)| (m, fact(m), unit)));

    let layer_rows = |a: &trace::Attribution, total: f64| -> String {
        a.layers
            .iter()
            .map(|(layer, t)| {
                let (p50, tail, p, n) = latency_summary(&t.buckets);
                format!(
                    "{{\"layer\":{},\"self_s\":{},\"share\":{},\"calls\":{},\"p50_ns\":{p50},\
                     \"tail_ns\":{tail},\"tail_percentile\":{p},\"n\":{n}}}",
                    json::string(layer),
                    json::number(t.self_ns as f64 / 1e9),
                    json::number(t.self_ns as f64 / 1e9 / total),
                    t.calls
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let facts = facts
        .iter()
        .map(|(k, v)| format!("{}:{}", json::string(k), json::number(*v)))
        .collect::<Vec<_>>()
        .join(",");
    let layers_json = format!(
        "{{\"workload\":{},\"seed\":{},\"threads\":1,\"traced_wall_s\":{},\"untraced_wall_s\":{},\
         \"normal_threads\":{},\"normal_wall_s\":{},\"overhead_frac\":{},\"speedup\":{},\
         \"unattributed_s\":{},\"sum_minus_wall_ns\":{},\"layers\":[{}],\
         \"setup\":{{\"wall_s\":{},\"unattributed_s\":{},\"layers\":[{}]}},\"facts\":{{{facts}}}}}\n",
        json::string(name),
        args.seed,
        json::number(wall),
        json::number(untraced.timing.wall_s),
        std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
        json::number(normal.timing.wall_s),
        json::number(overhead),
        json::number(speedup),
        json::number(attr.unattributed_ns as f64 / 1e9),
        attr.sum_ns() - attr.root_ns as i64,
        layer_rows(&attr, wall),
        json::number(setup_wall),
        json::number(setup.unattributed_ns as f64 / 1e9),
        layer_rows(&setup, setup_wall),
    );
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    for (file, text) in [
        (format!("{name}.layers.json"), layers_json),
        (format!("{name}.spans.json"), tracer.chrome_json()),
    ] {
        let path = args.out.join(file);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_digests_parse_and_replay_pins_the_live_campaign() {
        for w in WORKLOADS {
            assert!(reference(w, 1).is_some(), "{w} has a seed-1 digest");
        }
        assert_eq!(reference("replay", 1), reference("campaign", 1));
        assert_eq!(reference("study", 2), None);
    }
}
