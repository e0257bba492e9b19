//! `repro tail` — tail-latency attribution over causal trace trees.
//!
//! Two campaigns, the two tails the stack can grow:
//!
//! 1. **Serve scan-phase p99 breach** — the PR 8 serving campaign whose
//!    cache-hostile scan fires (and resolves) the `p99_latency` SLO. The
//!    alert now names its slowest-trace exemplars, and the attribution
//!    table decomposes each endpoint's worst lookup into queue wait vs.
//!    cache work.
//! 2. **Drift rebootstrap** — the PR 7 mid-campaign BAT redesign. The
//!    self-healing quarantine shows up as a typed `rebootstrap`
//!    component inside the slowest jobs' traces.
//!
//! Determinism is asserted, not assumed: the serve half renders
//! `trace.json` and the attribution table at threads 1, 2 and 4 and
//! demands byte-identity; the drift half crashes mid-quarantine,
//! resumes from journal bytes, and demands the resumed run's trace
//! export match the uninterrupted one's. Every exemplar printed is
//! checked to attribute *exactly*: components sum to the trace's
//! measured duration, to the millisecond.
//!
//! With `--artifacts DIR` the sweep is replaced by a single serve run
//! at `--threads N` writing `trace.json` and `attribution.txt` to
//! `DIR`; CI invokes that twice at different thread counts and
//! byte-compares both files.

use crate::experiments_ext::DriftRescue;
use crate::registry::{ExperimentAction, ExperimentCtx};
use crate::serve_exp::build_store;
use bbsim_analysis::Table;
use bbsim_serve::{run, PlanStore, ServeOptions, ServeOutcome};
use bqt::monitor::CampaignSection;
use bqt::trace::{attribute, ExemplarSet};
use bqt::{render_trace_json, Journal};
use std::sync::Arc;

/// Panics unless every exemplar's attribution sums exactly to its
/// measured duration — the acceptance invariant, enforced at run time
/// on the real campaigns, not just in unit tests.
fn assert_exact_attribution(exemplars: &ExemplarSet, context: &str) {
    let all = exemplars
        .global
        .iter()
        .chain(exemplars.per_endpoint.values());
    for trace in all {
        let total = attribute(&trace.root).total_ms();
        assert_eq!(
            total,
            trace.duration_ms(),
            "{context}: attribution of {} must sum to its duration",
            trace.id()
        );
    }
}

/// One row per endpoint: its slowest trace decomposed into components.
fn attribution_table(exemplars: &ExemplarSet) -> String {
    let mut t = Table::new(vec![
        "endpoint",
        "worst trace",
        "dur_ms",
        "components (critical path)",
    ]);
    for (endpoint, trace) in &exemplars.per_endpoint {
        let a = attribute(&trace.root);
        t.row(vec![
            endpoint.clone(),
            trace.id(),
            trace.duration_ms().to_string(),
            a.summary(),
        ]);
    }
    t.render()
}

/// The serve half's deliverables for one thread count.
struct TailRun {
    outcome: ServeOutcome,
    trace_json: String,
    table: String,
}

fn tail_run(store: &Arc<PlanStore>, opts: ServeOptions) -> TailRun {
    let outcome = run(store, &opts);
    let section = CampaignSection {
        label: "serve",
        telemetry: &outcome.summary,
        health: &outcome.health,
    };
    let trace_json = render_trace_json(std::slice::from_ref(&section));
    assert_exact_attribution(&outcome.health.exemplars, "serve");
    let table = attribution_table(&outcome.health.exemplars);
    TailRun {
        outcome,
        trace_json,
        table,
    }
}

/// Renders the serve half's report: the breach, the exemplars it named,
/// and the per-endpoint decomposition.
fn serve_report(run: &TailRun, sweep: &[usize]) -> String {
    let o = &run.outcome;
    let p99_alert = o
        .health
        .alerts
        .iter()
        .find(|a| a.rule == "p99_latency")
        .expect("the cache-hostile scan must fire the p99 latency SLO");
    assert!(
        !p99_alert.exemplars.is_empty(),
        "a p99 page must name its slowest traces"
    );
    let q = |p: f64| o.summary.lookup_latency.quantile_ms(p).unwrap_or(0);
    let mut out = String::new();
    out.push_str("## serve: scan-phase p99 breach\n");
    if !sweep.is_empty() {
        let ts: Vec<String> = sweep.iter().map(|t| t.to_string()).collect();
        out.push_str(&format!(
            "threads sweep [{}]: trace.json and attribution table byte-identical \
             (trace.json fnv64={:016x})\n",
            ts.join(","),
            bbsim_net::fnv1a(run.trace_json.as_bytes()),
        ));
    }
    out.push_str(&format!(
        "served={} p50<={}ms p99<={}ms\n",
        o.lookups(),
        q(0.50),
        q(0.99),
    ));
    out.push_str(&format!(
        "alert p99_latency: fired@{}ms exemplars={}\n",
        p99_alert.fired_at.as_millis(),
        p99_alert.exemplars,
    ));
    out.push_str(&run.table);
    out
}

/// The drift half: the longitudinal redesign campaign, traced. Returns
/// the report section after asserting crash+resume byte-identity of the
/// trace export.
fn drift_tail(seed: u64) -> String {
    let (rescue, _) = DriftRescue::new(seed, 0x7A11, 120);
    let render = |report: &bqt::OrchestratorReport| -> String {
        let section = report.health_section("drift").expect("monitor attached");
        render_trace_json(std::slice::from_ref(&section))
    };

    let (truth, _) = rescue
        .guarded(&mut Journal::in_memory())
        .expect("no crash scheduled");
    let health = truth.health.as_ref().expect("monitor attached");
    assert_exact_attribution(&health.exemplars, "drift");
    let truth_json = render(&truth);

    // Crash inside the quarantine window, resume from journal bytes,
    // and demand the identical trace export.
    let (resumed, _) = rescue.resumed();
    assert_eq!(
        truth_json,
        render(&resumed),
        "trace.json must retrace byte-for-byte across crash+resume"
    );

    // The healed quarantine's footprint: rebootstrap/breaker/backoff ms
    // across the slowest jobs.
    let mut healed = 0u64;
    for trace in &health.exemplars.global {
        let a = attribute(&trace.root);
        healed += a.rebootstrap_ms + a.breaker_wait_ms + a.retry_backoff_ms;
    }
    let mut out = String::new();
    out.push_str("\n## drift: rebootstrap quarantine in the tail\n");
    out.push_str(&format!(
        "redesign at {}ms healed mid-campaign; crash@{}ms resumes to a byte-identical \
         trace.json (fnv64={:016x})\n",
        rescue.midpoint.as_millis(),
        rescue.crash_at().as_millis(),
        bbsim_net::fnv1a(truth_json.as_bytes()),
    ));
    out.push_str(&format!(
        "slowest {} jobs spend {healed}ms in rebootstrap/breaker/backoff combined\n",
        health.exemplars.global.len(),
    ));
    out.push_str(&attribution_table(&health.exemplars));
    out
}

/// Single serve run at `--threads N`, writing `trace.json` and
/// `attribution.txt` for CI's cross-thread byte comparison.
fn write_artifacts(store: &Arc<PlanStore>, opts: ServeOptions, dir: &str) -> ExperimentAction {
    let threads = opts.threads;
    let run = tail_run(store, opts);
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    std::fs::write(dir.join("trace.json"), &run.trace_json).expect("write trace.json");
    std::fs::write(dir.join("attribution.txt"), &run.table).expect("write attribution.txt");
    let mut report = serve_report(&run, &[]);
    report.push_str(&format!(
        "artifacts: {} (threads={threads})\n",
        dir.display()
    ));
    ExperimentAction::Report(report)
}

/// The `repro tail` entry point.
pub fn tail(ctx: &ExperimentCtx) -> ExperimentAction {
    eprintln!("[repro] tail: curating the serve store at quick scale ...");
    let store = Arc::new(build_store(ctx.seed));
    let opts = if ctx.quick {
        ServeOptions::quick(ctx.seed)
    } else {
        ServeOptions::paper_default(ctx.seed)
    };

    if let Some(dir) = ctx.artifacts {
        return write_artifacts(&store, opts.threads(ctx.threads), dir);
    }

    const SWEEP: [usize; 3] = [1, 2, 4];
    let mut runs = Vec::new();
    for threads in SWEEP {
        eprintln!("[repro] tail: serve campaign at threads={threads} ...");
        runs.push(tail_run(&store, opts.clone().threads(threads)));
    }
    let first = &runs[0];
    for (i, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            first.trace_json, run.trace_json,
            "trace.json diverged between threads=1 and threads={}",
            SWEEP[i]
        );
        assert_eq!(
            first.table, run.table,
            "attribution table diverged between threads=1 and threads={}",
            SWEEP[i]
        );
    }

    let mut report = String::from("# repro tail -- tail-latency attribution\n");
    report.push_str(&serve_report(first, &SWEEP));
    eprintln!("[repro] tail: drift rebootstrap campaign ...");
    report.push_str(&drift_tail(ctx.seed));
    ExperimentAction::Report(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqt::trace::{Span, SpanKind, Trace};

    #[test]
    fn attribution_table_has_one_row_per_endpoint() {
        let mut set = ExemplarSet::default();
        set.per_endpoint.insert(
            "isp/city".into(),
            Trace {
                tag: 7,
                endpoint: "isp/city".into(),
                root: Span {
                    kind: SpanKind::Job,
                    label: "isp/city:plans".into(),
                    start_ms: 0,
                    end_ms: 1_000,
                    children: Vec::new(),
                },
            },
        );
        let table = attribution_table(&set);
        assert!(table.contains("isp/city:7@0"), "{table}");
        assert!(table.contains("job=1000"), "{table}");
    }
}
