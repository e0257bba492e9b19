//! The experiment registry: every `repro` subcommand as a value.
//!
//! Each paper table, figure, ablation and operational probe registers
//! here as an [`Experiment`] — a name, whether it wants the shared
//! curated study, and a run function. The `repro` binary is reduced to
//! argument parsing plus one registry lookup; adding an experiment
//! means adding one line to [`registry`], not extending a
//! hand-maintained `match` *and* a parallel `needs_study` list that can
//! drift apart.

use crate::experiments as exp;
use crate::experiments_ext as ext;
use crate::study::{Scale, StudyDataset};

/// Everything an experiment may draw on, resolved by the driver once.
pub struct ExperimentCtx<'a> {
    /// The shared curated study — present iff the experiment declared
    /// [`Experiment::needs_study`].
    pub study: Option<&'a StudyDataset>,
    /// Master seed (`--seed`).
    pub seed: u64,
    /// OS thread budget (`--threads`).
    pub threads: usize,
    /// Study sampling scale (`--scale`).
    pub scale: Scale,
    /// Abbreviated run (`--quick`): smaller corpora, fewer samples.
    pub quick: bool,
    /// Directory for on-disk campaign artifacts (`--artifacts`), used
    /// by experiments CI byte-compares across runs.
    pub artifacts: Option<&'a str>,
}

impl ExperimentCtx<'_> {
    /// The curated study this experiment declared it needs.
    ///
    /// # Panics
    /// If called from an experiment whose `needs_study` is false —
    /// the driver only curates for experiments that ask.
    pub fn study(&self) -> &StudyDataset {
        self.study
            .expect("experiment declared needs_study, driver curates before run")
    }
}

/// What an experiment hands back to the driver.
pub enum ExperimentAction {
    /// A plain-text report; the driver writes it to `--out` or stdout.
    Report(String),
    /// The experiment did its own reporting; exit with this code.
    Exit(i32),
}

/// One `repro` subcommand: a name, whether it wants the shared curated
/// study, and a plain function.
pub struct Experiment {
    /// The subcommand name (`repro <name>`).
    pub name: &'static str,
    /// Whether the driver must curate the shared study first.
    pub needs_study: bool,
    /// Runs the experiment.
    pub run: fn(&ExperimentCtx) -> ExperimentAction,
}

/// Shorthand for a study-backed report experiment.
fn study_exp(name: &'static str, run: fn(&ExperimentCtx) -> ExperimentAction) -> Experiment {
    Experiment {
        name,
        needs_study: true,
        run,
    }
}

/// Shorthand for a self-contained report experiment.
fn solo_exp(name: &'static str, run: fn(&ExperimentCtx) -> ExperimentAction) -> Experiment {
    Experiment {
        name,
        needs_study: false,
        run,
    }
}

fn report(text: String) -> ExperimentAction {
    ExperimentAction::Report(text)
}

/// Every registered experiment, in `repro --help` order.
pub fn registry() -> Vec<Experiment> {
    vec![
        study_exp("all", |c| report(exp::all_reports(c.study(), c.seed))),
        solo_exp("table1", |_| report(exp::table1())),
        study_exp("table2", |c| report(exp::table2(c.study()))),
        study_exp("table3", |c| report(exp::table3(c.study()))),
        study_exp("fig2a", |c| report(exp::fig2a(c.study()))),
        study_exp("fig2b", |c| report(exp::fig2b(c.study()))),
        solo_exp("fig3", |_| report(exp::fig3())),
        study_exp("fig4", |c| report(exp::fig4(c.study()))),
        study_exp("fig5", |c| report(exp::fig5(c.study()))),
        study_exp("fig6", |c| report(exp::fig6(c.study()))),
        study_exp("fig7", |c| report(exp::fig7(c.study()))),
        study_exp("fig8", |c| report(exp::fig8(c.study()))),
        study_exp("fig9a", |c| report(exp::fig9a(c.study()))),
        study_exp("fig9b", |c| report(exp::fig9b(c.study()))),
        solo_exp("scaling", |c| report(exp::scaling(c.seed))),
        solo_exp("strawman", |c| report(exp::strawman_vs_bqt(c.seed))),
        solo_exp("ablation-matcher", |c| {
            report(exp::ablation_matcher(c.seed))
        }),
        solo_exp("ablation-wait", |c| report(exp::ablation_wait(c.seed))),
        solo_exp("ablation-sampling", |c| {
            report(exp::ablation_sampling(c.seed))
        }),
        solo_exp("staleness", |c| report(ext::staleness(c.seed))),
        solo_exp("audit", |c| report(ext::audit(c.seed))),
        solo_exp("drift", |c| report(ext::drift(c.seed))),
        solo_exp("chaos", |c| report(ext::chaos(c.seed))),
        solo_exp("resume", |c| report(ext::resume(c.seed))),
        solo_exp("trace", |c| report(ext::trace(c.seed))),
        solo_exp("health", |c| report(ext::health(c.seed))),
        solo_exp("longitudinal", |c| {
            report(ext::longitudinal(c.seed, c.threads))
        }),
        study_exp("tier-flattening", |c| {
            report(ext::tier_flattening_report(c.study()))
        }),
        study_exp("markup-baseline", |c| {
            report(ext::markup_baseline(c.study()))
        }),
        study_exp("upload-consistency", |c| {
            report(ext::upload_consistency_report(c.study()))
        }),
        study_exp("robustness", |c| report(ext::robustness(c.study()))),
        study_exp("policy", |c| report(ext::policy(c.study()))),
        study_exp("release", |c| {
            report(ext::release(c.study(), "release", c.seed))
        }),
        solo_exp("serve", crate::serve_exp::serve),
        solo_exp("tail", crate::tail_exp::tail),
        solo_exp("lint", run_lint),
        solo_exp("determinism", |c| {
            report(crate::determinism::determinism(c.seed, c.threads))
        }),
    ]
}

/// Looks a subcommand up by name.
pub fn find(name: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.name == name)
}

/// All registered names, for `repro --help`.
pub fn names() -> Vec<&'static str> {
    registry().iter().map(|e| e.name).collect()
}

/// Runs the workspace static analyzer. Exit code 0 when clean, 1 on any
/// finding, 2 on setup errors — same contract as the standalone
/// `divide-lint` binary.
fn run_lint(_ctx: &ExperimentCtx) -> ExperimentAction {
    use divide_lint::{analyze, discover_root, Config};

    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let Some(root) = discover_root(here) else {
        eprintln!("[repro] lint: no workspace root above {}", here.display());
        return ExperimentAction::Exit(2);
    };
    let findings = match analyze(&Config::workspace(root)) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!("[repro] lint: {e}");
            return ExperimentAction::Exit(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    println!("[repro] lint: {} findings", findings.len());
    ExperimentAction::Exit(if findings.is_empty() { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_cover_the_paper_surface() {
        let names = names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate experiment name");
        for must in [
            "all",
            "table1",
            "fig9b",
            "serve",
            "tail",
            "lint",
            "determinism",
        ] {
            assert!(names.contains(&must), "missing {must}");
        }
    }

    #[test]
    fn study_flags_match_the_signatures() {
        // Self-contained experiments must not claim the study; the
        // driver would waste minutes curating for nothing.
        for solo in ["table1", "fig3", "scaling", "serve", "tail", "longitudinal"] {
            assert!(!find(solo).expect(solo).needs_study, "{solo}");
        }
        for study in ["all", "table2", "fig4", "policy", "release"] {
            assert!(find(study).expect(study).needs_study, "{study}");
        }
    }
}
