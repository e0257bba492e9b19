//! `repro serve` — the plan-serving campaign experiment.
//!
//! Curates two study cities, loads their per-city artifacts into a
//! sharded [`PlanStore`], then replays the seeded zipfian/burst/scan
//! load campaign at thread counts 1, 2 and 4 — digesting the event
//! stream, the Prometheus exposition and the folded profile of each
//! run and asserting they are byte-identical. The report is a serving
//! dashboard: lookups, shed rate, cache hit ratio, latency quantiles,
//! and the p99 SLO alert the cache-hostile scan must fire *and*
//! resolve.
//!
//! With `--artifacts DIR` the sweep is replaced by a single run at
//! `--threads N` that writes `events.jsonl`, `health.prom`,
//! `profile.folded` and `trace.json` to `DIR`; CI invokes that twice at
//! different thread counts and byte-compares the directories.

use crate::registry::{ExperimentAction, ExperimentCtx};
use bbsim_census::city_by_name;
use bbsim_dataset::{curate_city, CityArtifact, CurationOptions};
use bbsim_serve::{run_recorded, PlanStore, ServeOptions, ServeOutcome};
use bqt::monitor::{render_folded, render_prometheus, CampaignSection};
use bqt::{render_trace_json, JsonlRecorder};
use std::io;
use std::sync::Arc;

/// The cities whose curated datasets back the store. Two cities give
/// three shards (city × ISP), enough for the thread sweep to exercise
/// real work stealing.
const SERVE_CITIES: [&str; 2] = ["Billings", "Fargo"];

/// Streams bytes into an FNV-1a 64 digest; stands in for a file when
/// only byte-identity matters.
struct HashWriter {
    hash: u64,
    len: u64,
}

impl HashWriter {
    fn new() -> Self {
        Self {
            hash: 0xCBF2_9CE4_8422_2325,
            len: 0,
        }
    }
}

impl io::Write for HashWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.len += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Curates the serve cities at quick scale and loads the store through
/// the on-disk artifact text format (the same round trip a deployment
/// would take).
pub fn build_store(seed: u64) -> PlanStore {
    let artifacts: Vec<CityArtifact> = SERVE_CITIES
        .iter()
        .map(|name| {
            let city = city_by_name(name).expect("study city");
            let ds = curate_city(city, &CurationOptions::quick(seed));
            let art = CityArtifact::from_dataset(&ds);
            // Round-trip through the artifact text format so `repro
            // serve` exercises exactly what a store loaded from disk
            // would serve.
            CityArtifact::from_text(&art.to_text()).expect("artifact round-trip")
        })
        .collect();
    PlanStore::load(&artifacts)
}

/// Everything one campaign run leaves for the byte-identity check.
struct RunDigest {
    outcome: ServeOutcome,
    events_hash: u64,
    events_len: u64,
    prom: String,
    folded: String,
    trace: String,
}

fn digest_run(store: &Arc<PlanStore>, opts: ServeOptions) -> RunDigest {
    let mut rec = JsonlRecorder::stable(HashWriter::new());
    let outcome = run_recorded(store, &opts, &mut rec);
    let sink = rec.into_inner();
    let section = CampaignSection {
        label: "serve",
        telemetry: &outcome.summary,
        health: &outcome.health,
    };
    let prom = render_prometheus(std::slice::from_ref(&section));
    let folded = render_folded(std::slice::from_ref(&section));
    let trace = render_trace_json(std::slice::from_ref(&section));
    RunDigest {
        outcome,
        events_hash: sink.hash,
        events_len: sink.len,
        prom,
        folded,
        trace,
    }
}

fn fnv64(text: &str) -> u64 {
    bbsim_net::fnv1a(text.as_bytes())
}

/// Asserts the fire-and-resolve SLO shape and the lookup floor, then
/// renders the dashboard.
fn dashboard(d: &RunDigest, opts: &ServeOptions, quick: bool, sweep: &[usize]) -> String {
    let o = &d.outcome;
    let s = &o.summary;
    let floor: u64 = if quick { 50_000 } else { 1_000_000 };
    assert!(
        o.lookups() >= floor,
        "serve campaign must sustain >= {floor} lookups, got {}",
        o.lookups()
    );
    let p99 = o
        .health
        .alerts
        .iter()
        .find(|a| a.rule == "p99_latency")
        .expect("the cache-hostile scan must fire the p99 latency SLO");
    assert!(
        p99.resolved_at.is_some(),
        "the p99 latency alert must resolve once the scan rotates out"
    );

    let mut out = String::new();
    out.push_str("# repro serve -- sharded plan-serving campaign\n");
    out.push_str(&format!(
        "mode={} seed={} cities={} shards={}\n",
        if quick { "quick" } else { "paper" },
        opts.seed,
        SERVE_CITIES.join(","),
        o.health.started_workers,
    ));
    if !sweep.is_empty() {
        let ts: Vec<String> = sweep.iter().map(|t| t.to_string()).collect();
        out.push_str(&format!(
            "threads sweep [{}]: byte-identical (events.jsonl fnv64={:016x} bytes={}, \
             health.prom fnv64={:016x}, profile.folded fnv64={:016x}, trace.json fnv64={:016x})\n",
            ts.join(","),
            d.events_hash,
            d.events_len,
            fnv64(&d.prom),
            fnv64(&d.folded),
            fnv64(&d.trace),
        ));
    }
    out.push_str(&format!(
        "arrivals={} served={} shed={} ({:.2}%)\n",
        o.arrivals,
        o.lookups(),
        s.serve_sheds,
        100.0 * s.serve_sheds as f64 / o.arrivals.max(1) as f64,
    ));
    out.push_str(&format!(
        "answer cache: hits={} ({:.1}% of served) evictions={}\n",
        s.serve_cache_hits,
        100.0 * s.serve_cache_hits as f64 / o.lookups().max(1) as f64,
        s.cache_evictions,
    ));
    let q = |p: f64| d.outcome.summary.lookup_latency.quantile_ms(p).unwrap_or(0);
    out.push_str(&format!(
        "lookup latency: p50<={}ms p90<={}ms p99<={}ms\n",
        q(0.50),
        q(0.90),
        q(0.99),
    ));
    for a in &o.health.alerts {
        out.push_str(&format!(
            "alert {}: fired@{}ms resolved@{} value={:.3}\n",
            a.rule,
            a.fired_at.as_millis(),
            a.resolved_at
                .map_or_else(|| "never".to_string(), |t| format!("{}ms", t.as_millis())),
            a.value,
        ));
    }
    out.push_str(&format!("makespan={}ms (virtual)\n", o.makespan_ms));
    out
}

/// Single run at `--threads N`, writing the three campaign artifacts
/// to `dir` for CI's cross-thread byte comparison.
fn write_artifacts(
    store: &Arc<PlanStore>,
    opts: ServeOptions,
    quick: bool,
    dir: &str,
) -> ExperimentAction {
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let file = std::fs::File::create(dir.join("events.jsonl"))
        .unwrap_or_else(|e| panic!("cannot create events.jsonl: {e}"));
    let threads = opts.threads;
    let mut rec = JsonlRecorder::stable(io::BufWriter::new(file));
    let outcome = run_recorded(store, &opts, &mut rec);
    rec.finish().expect("write events.jsonl");
    let section = CampaignSection {
        label: "serve",
        telemetry: &outcome.summary,
        health: &outcome.health,
    };
    std::fs::write(
        dir.join("health.prom"),
        render_prometheus(std::slice::from_ref(&section)),
    )
    .expect("write health.prom");
    std::fs::write(
        dir.join("profile.folded"),
        render_folded(std::slice::from_ref(&section)),
    )
    .expect("write profile.folded");
    std::fs::write(
        dir.join("trace.json"),
        render_trace_json(std::slice::from_ref(&section)),
    )
    .expect("write trace.json");
    let d = RunDigest {
        outcome,
        events_hash: 0,
        events_len: 0,
        prom: String::new(),
        folded: String::new(),
        trace: String::new(),
    };
    let mut report = dashboard(&d, &opts, quick, &[]);
    report.push_str(&format!(
        "artifacts: {} (threads={threads})\n",
        dir.display()
    ));
    ExperimentAction::Report(report)
}

/// The `repro serve` entry point.
pub fn serve(ctx: &ExperimentCtx) -> ExperimentAction {
    eprintln!(
        "[repro] serve: curating {} at quick scale ...",
        SERVE_CITIES.join("+")
    );
    let store = Arc::new(build_store(ctx.seed));
    let opts = if ctx.quick {
        ServeOptions::quick(ctx.seed)
    } else {
        ServeOptions::paper_default(ctx.seed)
    };

    if let Some(dir) = ctx.artifacts {
        return write_artifacts(&store, opts.threads(ctx.threads), ctx.quick, dir);
    }

    const SWEEP: [usize; 3] = [1, 2, 4];
    let mut runs = Vec::new();
    for threads in SWEEP {
        eprintln!("[repro] serve: campaign at threads={threads} ...");
        runs.push(digest_run(&store, opts.clone().threads(threads)));
    }
    let first = &runs[0];
    for (i, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            (first.events_hash, first.events_len),
            (run.events_hash, run.events_len),
            "events.jsonl diverged between threads=1 and threads={}",
            SWEEP[i]
        );
        assert_eq!(
            first.prom, run.prom,
            "health.prom diverged between threads=1 and threads={}",
            SWEEP[i]
        );
        assert_eq!(
            first.folded, run.folded,
            "profile.folded diverged between threads=1 and threads={}",
            SWEEP[i]
        );
        assert_eq!(
            first.trace, run.trace,
            "trace.json diverged between threads=1 and threads={}",
            SWEEP[i]
        );
    }
    ExperimentAction::Report(dashboard(first, &opts, ctx.quick, &SWEEP))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_writer_matches_fnv1a() {
        use io::Write as _;
        let mut w = HashWriter::new();
        w.write_all(b"decoding the divide").expect("infallible");
        assert_eq!(w.hash, bbsim_net::fnv1a(b"decoding the divide"));
        assert_eq!(w.len, 19);
    }
}
