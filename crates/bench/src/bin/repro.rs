//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--scale quick|mid|paper] [--cities "A,B,..."] [--seed N]
//!       [--threads N] [--out FILE] [--artifacts DIR] [--quick] <experiment>
//!
//! experiments:
//!   all        every table, figure, and ablation
//!   table1 table2 table3
//!   fig2a fig2b fig3 fig4 fig5 fig6 fig7 fig8 fig9a fig9b
//!   scaling strawman ablation-matcher ablation-wait ablation-sampling
//!   staleness audit drift chaos resume trace health longitudinal tier-flattening
//!   markup-baseline upload-consistency robustness policy release
//!   serve      plan-serving campaign: thread sweep + SLO dashboard
//!              ([--quick], [--artifacts DIR] for CI byte-comparison)
//!   tail       causal traces + tail-latency attribution: serve p99
//!              breach and drift-rebootstrap exemplars, trace.json
//!              export ([--quick], [--artifacts DIR])
//!   lint       run divide-lint over the workspace
//!   determinism  print per-artifact content hashes at --threads N
//! ```
//!
//! `--scale quick` (default) runs the full pipeline with ~6 sampled
//! addresses per block group; `--scale paper` uses the paper's 10% / ≥30
//! methodology (hundreds of thousands of simulated queries).
//!
//! Every experiment lives in `bench::registry`; this binary only parses
//! arguments, curates the shared study when the selected experiment
//! declares it needs one, and dispatches.

use bench::registry::{self, ExperimentAction, ExperimentCtx};
use bench::study::{resolve_cities, run_study, Scale};
use std::io::Write;

struct Args {
    scale: Scale,
    cities: Option<String>,
    seed: u64,
    threads: usize,
    out: Option<String>,
    artifacts: Option<String>,
    quick: bool,
    command: String,
}

fn usage() -> ! {
    let names = registry::names().join(" ");
    eprintln!(
        "usage: repro [--scale quick|mid|paper] [--cities \"A,B\"] [--seed N] [--threads N] \
         [--out FILE] [--artifacts DIR] [--quick] <experiment>\n\
         experiments: {names}"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: Scale::Quick,
        cities: None,
        seed: 1,
        threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        out: None,
        artifacts: None,
        quick: false,
        command: String::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.scale = Scale::parse(&v).unwrap_or_else(|| usage());
            }
            "--cities" => args.cities = Some(it.next().unwrap_or_else(|| usage())),
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => args.out = Some(it.next().unwrap_or_else(|| usage())),
            "--artifacts" => args.artifacts = Some(it.next().unwrap_or_else(|| usage())),
            "--quick" => args.quick = true,
            "--help" | "-h" => usage(),
            cmd if !cmd.starts_with('-') && args.command.is_empty() => {
                args.command = cmd.to_string()
            }
            _ => usage(),
        }
    }
    if args.command.is_empty() {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let Some(experiment) = registry::find(&args.command) else {
        eprintln!("[repro] unknown experiment: {}", args.command);
        usage();
    };

    let study = if experiment.needs_study() {
        let cities = resolve_cities(args.cities.as_deref());
        eprintln!(
            "[repro] curating {} cities at {:?} scale on {} threads ...",
            cities.len(),
            args.scale,
            args.threads
        );
        let started = std::time::Instant::now();
        let study = run_study(&cities, args.scale, args.seed, args.threads);
        eprintln!(
            "[repro] curation done in {:.1}s",
            started.elapsed().as_secs_f64()
        );
        Some(study)
    } else {
        None
    };

    let ctx = ExperimentCtx {
        study: study.as_ref(),
        seed: args.seed,
        threads: args.threads,
        scale: args.scale,
        quick: args.quick,
        artifacts: args.artifacts.as_deref(),
    };

    match experiment.run(&ctx) {
        ExperimentAction::Exit(code) => std::process::exit(code),
        ExperimentAction::Report(report) => match &args.out {
            Some(path) => {
                let mut f = std::fs::File::create(path)
                    .unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
                f.write_all(report.as_bytes()).expect("write report");
                eprintln!("[repro] wrote {path}");
            }
            None => print!("{report}"),
        },
    }
}
