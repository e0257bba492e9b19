//! `divide-bench compare BASE NEW`: medians and quartiles per workload ×
//! end-to-end metric over two sets of runs, judged by the bounds in
//! `BENCHMARK.json`.
//!
//! BASE and NEW are files holding the standard output of any number of
//! runs; every line with a `"workload"` key is one run. Runs pair up in
//! file order. A metric regresses when NEW's median is worse than BASE's
//! by more than its bound (`failed_frac` may not rise at all). A gain
//! needs NEW to win at least nine in ten pairs and the medians to differ
//! by more than BASE's quartile spread; a loss by the same rule is
//! reported as slower, even inside the bound, because runs that pair up
//! in time share the machine's slow spells and so resolve changes smaller
//! than the spread of single runs. Where BASE's own spread is wider than
//! the bound, the metric is unresolved unless every NEW run beats every
//! BASE run.

use crate::json::{self, Json};
use crate::measure::quartiles;
use crate::workload::WORKLOADS;
use std::collections::BTreeMap;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// Per workload, per metric: the values of successive runs.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let Ok(v) = json::parse(line) else { continue };
        let Some(workload) = v.get("workload").and_then(Json::str) else {
            continue;
        };
        let per = runs.entry(workload.to_string()).or_default();
        for (name, m) in v.get("metrics").map(Json::fields).unwrap_or_default() {
            if let Some(value) = m.get("value").and_then(Json::num) {
                per.entry(name.clone()).or_default().push(value);
            }
        }
    }
    if runs.is_empty() {
        return Err(format!("{path}: no divide-bench result lines"));
    }
    Ok(runs)
}

fn load_bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut bounds: Vec<Bound> = v
        .get("end_to_end")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some(Bound {
                name: m.get("name")?.str()?.to_string(),
                lower_is_better: m.get("better")?.str()? == "lower",
                bound: m.get("bound")?.num()?,
            })
        })
        .collect();
    if bounds.is_empty() {
        return Err(format!("{path}: no end_to_end metrics"));
    }
    bounds.push(Bound {
        name: "failed_frac".to_string(),
        lower_is_better: true,
        bound: 0.0,
    });
    Ok(bounds)
}

#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Gain,
    Slower,
    Unresolved,
    Regression,
}

/// Judges NEW against BASE for one metric; also returns NEW's share of
/// pair wins.
pub fn judge(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> (Verdict, f64) {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let (b1, bm, b3) = quartiles(base);
    let (_, nm, _) = quartiles(new);
    let pairs = base.len().min(new.len()).max(1);
    let wins = base.iter().zip(new).filter(|(b, n)| better(**n, **b));
    let losses = base.iter().zip(new).filter(|(b, n)| better(**b, **n));
    let win_share = wins.count() as f64 / pairs as f64;
    let loss_share = losses.count() as f64 / pairs as f64;
    let worse_by = if lower_is_better { nm - bm } else { bm - nm };
    let verdict = if worse_by > bound * bm.abs() {
        Verdict::Regression
    } else if (b3 - b1) > bound * bm.abs()
        && !new.iter().all(|n| base.iter().all(|b| better(*n, *b)))
    {
        Verdict::Unresolved
    } else if win_share >= 0.9 && better(nm, bm) && (nm - bm).abs() > b3 - b1 {
        Verdict::Gain
    } else if loss_share >= 0.9 && better(bm, nm) && (nm - bm).abs() > b3 - b1 {
        Verdict::Slower
    } else {
        Verdict::Same
    };
    (verdict, win_share)
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => match it.next() {
                Some(p) => bench = p.clone(),
                None => return usage(),
            },
            _ => files.push(a.clone()),
        }
    }
    let [base, new] = files.as_slice() else {
        return usage();
    };
    let loaded = load_bounds(&bench).and_then(|b| Ok((b, load_runs(base)?, load_runs(new)?)));
    let (bounds, base_runs, new_runs) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("divide-bench compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<9} {:<12} {:>36} {:>36} {:>8} {:>6} {:>5}  verdict",
        "workload",
        "metric",
        "base median [q1, q3] n",
        "new median [q1, q3] n",
        "delta",
        "bound",
        "wins"
    );
    let mut regressions = 0;
    let mut names: Vec<&String> = base_runs.keys().collect();
    names.sort_by_key(|w| WORKLOADS.iter().position(|k| k == w).unwrap_or(usize::MAX));
    for workload in names {
        let Some(new_metrics) = new_runs.get(workload) else {
            println!("{workload:<9} (no NEW runs)");
            continue;
        };
        for b in &bounds {
            let (Some(bv), Some(nv)) = (base_runs[workload].get(&b.name), new_metrics.get(&b.name))
            else {
                continue;
            };
            let (verdict, wins) = judge(bv, nv, b.lower_is_better, b.bound);
            let cell = |v: &[f64]| {
                let (q1, m, q3) = quartiles(v);
                format!("{m:.4} [{q1:.4}, {q3:.4}] {}", v.len())
            };
            let (_, bm, _) = quartiles(bv);
            let (_, nm, _) = quartiles(nv);
            let delta = if bm == 0.0 { 0.0 } else { (nm - bm) / bm.abs() };
            if verdict == Verdict::Regression {
                regressions += 1;
            }
            println!(
                "{workload:<9} {:<12} {:>36} {:>36} {:>+7.1}% {:>5.0}% {:>4.0}%  {verdict:?}",
                b.name,
                cell(bv),
                cell(nv),
                delta * 100.0,
                b.bound * 100.0,
                wins * 100.0,
            );
        }
    }
    i32::from(regressions > 0)
}

fn usage() -> i32 {
    eprintln!("usage: divide-bench compare BASE NEW [--bench BENCHMARK.json]");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bounds_pairs_and_spread() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        let same = [10.05, 10.0, 9.95, 10.1, 9.9, 10.0, 10.0, 10.05, 9.95, 10.0];
        assert_eq!(judge(&base, &same, true, 0.1).0, Verdict::Same);
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&base, &slower, true, 0.1).0, Verdict::Regression);
        let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(&base, &faster, true, 0.1), (Verdict::Gain, 1.0));
        // A consistent loss inside the bound is resolved by the pairs.
        let a_bit_slower: Vec<f64> = base.iter().map(|v| v * 1.05).collect();
        assert_eq!(
            judge(&base, &a_bit_slower, true, 0.1),
            (Verdict::Slower, 0.0)
        );
        // Higher-is-better metrics regress when they fall.
        assert_eq!(judge(&base, &faster, false, 0.1).0, Verdict::Regression);
        // A base spread wider than the bound leaves small moves unresolved.
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(judge(&noisy, &same, true, 0.1).0, Verdict::Unresolved);
        // Any rise of a zero-bound metric is a regression.
        assert_eq!(
            judge(&[0.0; 4], &[0.0, 0.0, 0.01, 0.0], true, 0.0).0,
            Verdict::Same
        );
        assert_eq!(
            judge(&[0.0; 4], &[0.01; 4], true, 0.0).0,
            Verdict::Regression
        );
    }
}
