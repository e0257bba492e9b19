//! divide-lint integration tests: the fixture corpus under
//! `tests/lint_fixtures/` (known-bad / known-clean pairs per rule and
//! source kind), a lexer-totality property, and a self-run asserting
//! the real workspace has no findings within the analyzer's 5 s budget.

use divide_lint::{analyze, Config, Finding, RuleId};
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("lint_fixtures")
}

fn run(configure: impl FnOnce(&mut Config)) -> Vec<Finding> {
    let mut config = Config::bare(fixtures());
    configure(&mut config);
    analyze(&config).expect("fixture analysis")
}

// ---- T1 scope: ambient inputs ---------------------------------------

#[test]
fn d1_flags_every_ambient_input() {
    let findings = run(|c| c.replay_scopes = vec!["d1/bad.rs".into()]);
    assert!(findings.iter().all(|f| f.rule == RuleId::T1));
    assert!(findings
        .iter()
        .all(|f| f.message.ends_with(" in replay-critical scope")));
    let expect = [
        "import of `std::time::Instant`",
        "wall-clock read `Instant::now()`",
        "wall-clock read `SystemTime::now()`",
        "process-environment read via `std::env`",
        "OS-entropy RNG `thread_rng`",
        "OS-entropy seeding `from_entropy`",
    ];
    for needle in expect {
        assert!(
            findings.iter().any(|f| f.message.contains(needle)),
            "missing T1 finding for {needle:?}: {findings:?}"
        );
    }
    assert_eq!(findings.len(), expect.len(), "{findings:?}");
    // Locations are exact: the import, outside any fn, sits on line 5.
    assert_eq!((findings[0].line, findings[0].col), (5, 5));
}

#[test]
fn d1_exempts_tests_and_honours_suppression() {
    let findings = run(|c| c.replay_scopes = vec!["d1/clean.rs".into()]);
    assert!(findings.is_empty(), "{findings:?}");
}

// ---- T1 scope: hash-order iteration ---------------------------------

#[test]
fn d2_flags_hash_iteration_feeding_emitters() {
    let findings = run(|c| c.replay_scopes = vec!["d2/bad.rs".into()]);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == RuleId::T1));
    assert!(findings[0].message.contains("`for-in`"), "{findings:?}");
    assert!(findings[1].message.contains("`keys`"), "{findings:?}");
    assert!(findings.iter().all(|f| f.message.contains("`rows`")));
}

#[test]
fn d2_allows_ordered_maps_keyed_lookups_and_tests() {
    let findings = run(|c| c.replay_scopes = vec!["d2/clean.rs".into()]);
    assert!(findings.is_empty(), "{findings:?}");
}

// ---- T2 scope: panic sites --------------------------------------------

#[test]
fn d3_flags_unwrap_and_expect() {
    let findings = run(|c| c.supervision_scopes = vec!["d3/bad.rs".into()]);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == RuleId::T2));
    assert_eq!(findings[0].message, "`.unwrap()` in supervision scope");
    assert_eq!(findings[1].message, "`.expect()` in supervision scope");
}

#[test]
fn d3_allows_totals_suppressions_and_tests() {
    let findings = run(|c| c.supervision_scopes = vec!["d3/clean.rs".into()]);
    assert!(findings.is_empty(), "{findings:?}");
}

// ---- shard merge hazards (both T1 sources on one code shape) ----------

/// The known-bad shard merge trips both T1 source kinds: wall-clock
/// stamps and hash-order iteration over per-shard streams.
#[test]
fn shard_fixture_flags_wall_clock_and_unordered_merge() {
    let findings = run(|c| c.replay_scopes = vec!["shard/bad.rs".into()]);
    assert!(
        findings.iter().all(|f| f.rule == RuleId::T1),
        "{findings:?}"
    );
    assert_eq!(findings.len(), 4, "{findings:?}");
    for needle in [
        "import of `std::time::Instant`",
        "wall-clock read `Instant::now()`",
        "hash-order iteration (`for-in`) over `streams`",
        "hash-order iteration (`values`) over `streams`",
    ] {
        assert!(
            findings.iter().any(|f| f.message.contains(needle)),
            "missing T1 finding for {needle:?}: {findings:?}"
        );
    }
}

/// The deterministic shape of the real merge — shard-indexed `Vec`s,
/// virtual stamps, keyed hash lookups, one justified suppression — passes
/// clean.
#[test]
fn shard_fixture_clean_shape_passes_both_rules() {
    let findings = run(|c| {
        c.replay_scopes = vec!["shard/clean.rs".into()];
        c.supervision_scopes = vec!["shard/clean.rs".into()];
    });
    assert!(findings.is_empty(), "{findings:?}");
}

/// Points T1 and T2's file scopes at `scopes` in the real workspace.
fn real_scoped(scopes: &[&str]) -> Vec<Finding> {
    let mut config = Config::bare(PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    config.replay_scopes = scopes.iter().map(|s| s.to_string()).collect();
    config.supervision_scopes.clone_from(&config.replay_scopes);
    analyze(&config).expect("module analysis")
}

fn render(findings: &[Finding]) -> String {
    findings
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// The dogfood gate for the module specifically: the real `bqt::shard`
/// passes T1 and T2 at file scope with zero findings.
#[test]
fn real_shard_module_is_clean_under_all_rules() {
    let findings = real_scoped(&["crates/core/src/shard.rs"]);
    assert!(
        findings.is_empty(),
        "bqt::shard must be lint-clean:\n{}",
        render(&findings)
    );
}

// ---- drift-monitor hazards (T1 + E1 on the self-healing loop) -------

/// The known-bad drift monitor trips T1 three ways: wall-clock sighting
/// stamps, an environment-variable rebootstrap toggle, and OS-entropy
/// probe jitter — each of which would make a re-bootstrap unreplayable.
#[test]
fn drift_fixture_flags_ambient_inputs_in_the_monitor() {
    let findings = run(|c| c.replay_scopes = vec!["drift/bad.rs".into()]);
    assert!(findings.iter().all(|f| f.rule == RuleId::T1));
    for needle in [
        "wall-clock read `SystemTime::now()`",
        "process-environment read via `std::env`",
        "OS-entropy RNG `thread_rng`",
    ] {
        assert!(
            findings.iter().any(|f| f.message.contains(needle)),
            "missing T1 finding for {needle:?}: {findings:?}"
        );
    }
    assert_eq!(findings.len(), 3, "{findings:?}");
}

/// The deterministic shape of the real monitor — virtual stamps handed
/// in, salted probe seeds, a pure quarantine predicate — passes clean,
/// with clock reads confined to tests.
#[test]
fn drift_fixture_clean_shape_passes() {
    let findings = run(|c| {
        c.replay_scopes = vec!["drift/clean.rs".into()];
        c.supervision_scopes = vec!["drift/clean.rs".into()];
    });
    assert!(findings.is_empty(), "{findings:?}");
}

/// The E1 canary for the drift event slice: the four-variant mirror of
/// the drift `EventKind`s covers every surface, so it passes — and a
/// fifth variant added without extending every surface would not.
#[test]
fn drift_schema_canary_is_exhaustive() {
    let findings = run(|c| c.e1 = vec![e1_config("drift/schema.rs")]);
    assert!(findings.is_empty(), "{findings:?}");
}

/// The dogfood gate for the drift modules: the real drift monitor and
/// the BAT's drift schedule pass T1 and T2 at file scope with zero
/// findings.
#[test]
fn real_drift_modules_are_clean_under_all_rules() {
    let findings = real_scoped(&["crates/core/src/drift.rs", "crates/bat/src/drift.rs"]);
    assert!(
        findings.is_empty(),
        "the drift modules must be lint-clean:\n{}",
        render(&findings)
    );
}

// ---- trace span-tree schema (E1 on SpanKind) ------------------------

/// The `SpanKind` E1 surfaces from before `wire_enum!` generated its
/// wire names, pointed at a fixture file that still writes them by hand.
fn trace_e1_config(file: &'static str) -> divide_lint::E1Config {
    e1_surfaces(
        file,
        "SpanKind",
        ["wire_name", "bucket", "span_json", "charge"],
    )
}

/// The E1 canary for the span-tree schema: the four-variant mirror of
/// `SpanKind` covers every surface, so it passes — and a fifth kind
/// added without extending every surface would not.
#[test]
fn trace_schema_canary_is_exhaustive() {
    let findings = run(|c| c.e1 = vec![trace_e1_config("trace/schema.rs")]);
    assert!(findings.is_empty(), "{findings:?}");
}

/// The known-bad span-tree schema: a wildcard in the bucketing hiding a
/// variant, and a variant the attribution fold skips — three distinct
/// findings.
#[test]
fn trace_schema_bad_flags_wildcard_and_fold_gap() {
    let findings = run(|c| c.e1 = vec![trace_e1_config("trace/schema_bad.rs")]);
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == RuleId::E1));
    for needle in [
        "replay-stable filter `fn bucket` does not cover `SpanKind::Rebootstrap`",
        "wildcard `_ =>` arm in replay-stable filter `fn bucket`",
        "metrics aggregator `fn charge` does not cover `SpanKind::QueueWait`",
    ] {
        assert!(
            findings.iter().any(|f| f.message.contains(needle)),
            "missing E1 finding for {needle:?}: {findings:?}"
        );
    }
}

/// The dogfood gate for the trace module: the real `bqt::trace` passes
/// T1 and T2 at file scope with zero findings.
/// (Its E1 surfaces are enforced by the workspace self-run below.)
#[test]
fn real_trace_module_is_clean_under_all_rules() {
    let findings = real_scoped(&["crates/core/src/trace/"]);
    assert!(
        findings.is_empty(),
        "bqt::trace must be lint-clean:\n{}",
        render(&findings)
    );
}

// ---- T1/T2: interprocedural taint -----------------------------------

fn entry(file: &str, owner: Option<&str>, name: &str) -> divide_lint::EntrySpec {
    divide_lint::EntrySpec {
        file: file.into(),
        owner: owner.map(str::to_string),
        name: name.into(),
    }
}

/// The wall-clock read sits two calls below the entry point, in a fn
/// no file scope names — and the finding carries the complete
/// entry → helper → sink witness chain.
#[test]
fn t1_reports_transitive_sources_with_full_chains() {
    let findings = run(|c| {
        c.entries = vec![entry("taint/t1_bad.rs", Some("Campaign"), "run")];
    });
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == RuleId::T1));
    let wall = findings
        .iter()
        .find(|f| f.message.contains("Instant::now"))
        .expect("wall-clock finding");
    assert!(
        wall.message
            .contains("reachable from replay entry `Campaign::run`"),
        "{}",
        wall.message
    );
    assert!(
        wall.hint.contains("Campaign::run (taint/t1_bad.rs:")
            && wall.hint.contains("-> checkpoint (taint/t1_bad.rs:")
            && wall.hint.contains("-> stamp (taint/t1_bad.rs:"),
        "incomplete witness chain: {}",
        wall.hint
    );
    let hash = findings
        .iter()
        .find(|f| f.message.contains("hash-order iteration"))
        .expect("hash-iteration finding");
    assert!(hash.hint.contains("-> hash_summary"), "{}", hash.hint);
}

/// A fn passed by path (`.map(Helper::stamp)`) is a call edge: the
/// wall-clock read inside it is reached, with the chain through it.
#[test]
fn t1_follows_a_fn_passed_by_path() {
    let findings = run(|c| {
        c.entries = vec![entry("taint/t1_fn_path.rs", Some("Campaign"), "run")];
    });
    assert_eq!(findings.len(), 1, "{findings:?}");
    let wall = &findings[0];
    assert_eq!(wall.rule, RuleId::T1);
    assert!(wall.message.contains("Instant::now"), "{}", wall.message);
    assert!(
        wall.hint.contains("Campaign::run (taint/t1_fn_path.rs:")
            && wall.hint.contains("-> Helper::stamp (taint/t1_fn_path.rs:"),
        "incomplete witness chain: {}",
        wall.hint
    );
}

/// A fn passed by bare name (`.map(stamp_tag)`) is a call edge too.
#[test]
fn t1_follows_a_fn_passed_by_name() {
    let findings = run(|c| {
        c.entries = vec![entry("taint/t1_fn_name.rs", Some("Campaign"), "run")];
    });
    assert_eq!(findings.len(), 1, "{findings:?}");
    let wall = &findings[0];
    assert_eq!(wall.rule, RuleId::T1);
    assert!(wall.message.contains("Instant::now"), "{}", wall.message);
    assert!(
        wall.hint.contains("Campaign::run (taint/t1_fn_name.rs:")
            && wall.hint.contains("-> stamp_tag (taint/t1_fn_name.rs:"),
        "incomplete witness chain: {}",
        wall.hint
    );
}

/// A source that is both in scope and reached names the nearest entry
/// and its witness chain, not the scope; the same file under its scope
/// alone names the scope.
#[test]
fn t1_reached_source_in_scope_names_the_entry_not_the_scope() {
    let scoped = || vec!["taint/t1_bad.rs".to_string()];
    let both = run(|c| {
        c.replay_scopes = scoped();
        c.entries = vec![entry("taint/t1_bad.rs", Some("Campaign"), "run")];
    });
    assert_eq!(both.len(), 2, "{both:?}");
    for f in &both {
        assert_eq!(f.rule, RuleId::T1);
        assert!(
            f.message
                .ends_with(" reachable from replay entry `Campaign::run`"),
            "{}",
            f.message
        );
        assert!(
            f.hint
                .starts_with("call chain: Campaign::run (taint/t1_bad.rs:"),
            "{}",
            f.hint
        );
    }
    let wall = both
        .iter()
        .find(|f| f.message.contains("Instant::now"))
        .expect("wall-clock finding");
    assert!(wall.hint.contains("-> checkpoint") && wall.hint.contains("-> stamp"));

    let scope_only = run(|c| c.replay_scopes = scoped());
    let sites = |fs: &[Finding]| fs.iter().map(|f| (f.line, f.col)).collect::<Vec<_>>();
    assert_eq!(sites(&scope_only), sites(&both));
    assert!(scope_only
        .iter()
        .all(|f| f.message.ends_with(" in replay-critical scope") && !f.hint.contains("chain")));
}

/// Virtual clock threaded in, one reasoned `lint:allow(T1)`, a
/// tainted-but-unreachable dev helper outside any scope, and test-only
/// clock reads: all quiet.
#[test]
fn t1_clean_virtual_clock_allows_and_unreachable_sources_pass() {
    let findings = run(|c| {
        c.entries = vec![entry("taint/t1_clean.rs", Some("Campaign"), "run")];
    });
    assert!(findings.is_empty(), "{findings:?}");
}

/// An entry that resolves to no fn fails the analysis with a message
/// naming it, even when the other entries resolve: a renamed or deleted
/// entry must not quietly drop out of T1 and T2.
#[test]
fn stale_entry_point_is_an_error_naming_it() {
    let mut config = Config::bare(fixtures());
    config.entries = vec![
        entry("taint/t1_clean.rs", Some("Campaign"), "run"),
        entry("taint/t1_clean.rs", Some("Campaign"), "epochs"),
    ];
    let err = analyze(&config).expect_err("a stale entry must fail the analysis");
    assert!(
        err.contains("Campaign::epochs in taint/t1_clean.rs"),
        "{err}"
    );
    assert!(!err.contains("Campaign::run"), "{err}");
}

#[test]
fn t2_reports_transitive_panics() {
    let findings = run(|c| {
        c.entries = vec![entry("taint/t2_bad.rs", None, "supervise")];
    });
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == RuleId::T2));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("panicking macro `panic!`")));
    let unwrap = findings
        .iter()
        .find(|f| f.message.contains("`.unwrap()`"))
        .expect("unwrap finding");
    assert!(unwrap
        .message
        .contains("reachable from supervision entry `supervise`"));
    assert!(
        unwrap.hint.contains("-> tally") && unwrap.hint.contains("-> parse_row"),
        "incomplete witness chain: {}",
        unwrap.hint
    );
}

/// Typed errors, a reasoned `lint:allow(T2)` and test-only unwraps: all
/// quiet.
#[test]
fn t2_clean_typed_errors_allows_and_tests_pass() {
    let findings = run(|c| {
        c.entries = vec![entry("taint/t2_clean.rs", None, "supervise")];
    });
    assert!(findings.is_empty(), "{findings:?}");
}

// ---- T3: worker lock discipline -------------------------------------

#[test]
fn t3_flags_shared_locks_and_sync_orderings() {
    let findings = run(|c| c.t3_scopes = vec!["taint/t3_bad.rs".into()]);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == RuleId::T3));
    assert!(findings.iter().any(|f| f
        .message
        .contains("un-sharded lock acquisition `shared.lock()`")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("`Ordering::SeqCst`")));
}

/// The sanctioned idiom — indexed per-shard slots, `Relaxed` claims,
/// merge after join — passes clean.
#[test]
fn t3_sanctioned_shard_slot_idiom_passes() {
    let findings = run(|c| c.t3_scopes = vec!["taint/t3_clean.rs".into()]);
    assert!(findings.is_empty(), "{findings:?}");
}

// ---- canonical ordering ----------------------------------------------

/// Satellite regression gate: `analyze` returns findings already in
/// canonical `(file, line, col, rule)` order, identically across runs —
/// the property the text output and the SARIF emitter lean on.
#[test]
fn findings_are_canonically_ordered_and_stable() {
    let run_once = || {
        run(|c| {
            c.replay_scopes = ["d1/bad.rs", "drift/bad.rs", "d2/bad.rs", "shard/bad.rs"]
                .map(String::from)
                .to_vec();
            c.supervision_scopes = vec!["d3/bad.rs".into()];
            c.entries = vec![
                entry("taint/t1_bad.rs", Some("Campaign"), "run"),
                entry("taint/t2_bad.rs", None, "supervise"),
            ];
            c.t3_scopes = vec!["taint/t3_bad.rs".into()];
        })
    };
    let first = run_once();
    let second = run_once();
    assert!(!first.is_empty());
    assert_eq!(first, second, "analysis must be run-to-run stable");
    let mut resorted = first.clone();
    divide_lint::sort_canonical(&mut resorted);
    assert_eq!(first, resorted, "analyze() must return canonical order");
    for pair in first.windows(2) {
        let a = (&pair[0].file, pair[0].line, pair[0].col, pair[0].rule);
        let b = (&pair[1].file, pair[1].line, pair[1].col, pair[1].rule);
        assert!(a <= b, "out of order: {a:?} then {b:?}");
    }
}

/// The emitters consume that canonical order and render every finding.
#[test]
fn emitters_render_fixture_findings() {
    let findings = run(|c| {
        c.entries = vec![entry("taint/t1_bad.rs", Some("Campaign"), "run")];
    });
    let sarif = divide_lint::emit::sarif(&findings);
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    assert!(sarif.contains("\"ruleId\": \"T1\""));
    assert!(sarif.contains("taint/t1_bad.rs"));
    assert!(sarif.contains("call chain:"));
}

// ---- E1: telemetry exhaustiveness -----------------------------------

fn e1_config(file: &'static str) -> divide_lint::E1Config {
    e1_surfaces(
        file,
        "Kind",
        ["name", "replay_stable", "to_line", "observe"],
    )
}

/// A one-file schema with four hand-written surfaces (labelled as the
/// wire-name map, stable filter, serializer and aggregator).
fn e1_surfaces(
    file: &'static str,
    enum_name: &'static str,
    fns: [&'static str; 4],
) -> divide_lint::E1Config {
    let labels = [
        "wire-name map",
        "replay-stable filter",
        "JSONL serializer",
        "metrics aggregator",
    ];
    divide_lint::E1Config {
        enum_file: file,
        enum_name,
        surfaces: fns
            .into_iter()
            .zip(labels)
            .map(|(f, l)| (file, f, l))
            .collect(),
    }
}

#[test]
fn e1_accepts_a_fully_covered_schema() {
    let findings = run(|c| c.e1 = vec![e1_config("e1_ok/schema.rs")]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn e1_flags_missing_variants_and_wildcards() {
    let findings = run(|c| c.e1 = vec![e1_config("e1_bad/schema.rs")]);
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == RuleId::E1));
    for needle in [
        "does not cover `Kind::B`",
        "does not cover `Kind::C`",
        "wildcard `_ =>` arm in replay-stable filter",
    ] {
        assert!(
            findings.iter().any(|f| f.message.contains(needle)),
            "missing E1 finding for {needle:?}: {findings:?}"
        );
    }
}

// ---- W1: workspace lint posture -------------------------------------

#[test]
fn w1_flags_missing_table_and_member_opt_out() {
    let mut config = Config::bare(fixtures().join("w1_bad"));
    config.w1_member_dirs = Some(vec!["crates".into()]);
    let findings = analyze(&config).expect("fixture analysis");
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == RuleId::W1));
    assert_eq!(findings[0].file, "Cargo.toml");
    assert_eq!(findings[1].file, "crates/a/Cargo.toml");
}

#[test]
fn w1_accepts_a_wired_workspace() {
    let mut config = Config::bare(fixtures().join("w1_clean"));
    config.w1_member_dirs = Some(vec!["crates".into()]);
    let findings = analyze(&config).expect("fixture analysis");
    assert!(findings.is_empty(), "{findings:?}");
}

// ---- self-run ---------------------------------------------------------

/// The dogfood gate: the real workspace must have no findings — exactly
/// what CI's `cargo run -p divide-lint` step enforces.
#[test]
fn workspace_has_no_findings() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let started = Instant::now();
    let findings = analyze(&Config::workspace(root)).expect("workspace analysis");
    // The analyzer's wall-clock budget: a full-workspace pass, call graph
    // and every rule included, must stay under 5 s as the workspace grows.
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "full-workspace lint took {elapsed:?}, over the 5 s budget"
    );
    assert!(findings.is_empty(), "findings:\n{}", render(&findings));
}

/// Every public `run*` method of `Campaign` is a T1/T2 entry point, so a
/// new way to run a campaign cannot fall outside both rules unnoticed.
/// The methods are found with the analyzer's own parser.
#[test]
fn every_public_campaign_run_is_an_entry_point() {
    const CAMPAIGN: &str = "crates/core/src/campaign.rs";
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(CAMPAIGN);
    let file = divide_lint::SourceFile::new(CAMPAIGN.into(), &std::fs::read(path).unwrap());
    let tokens = file.tokens();
    let runs: Vec<String> = divide_lint::parse::parse_file(&file)
        .fns
        .into_iter()
        .filter(|f| {
            !f.is_test
                && f.owner.as_deref() == Some("Campaign")
                && f.name.starts_with("run")
                && f.span.0 > 0
                && divide_lint::scan::is_ident(&tokens[f.span.0 - 1], "pub")
        })
        .map(|f| f.name)
        .collect();
    assert!(
        runs.len() >= 3,
        "the parser lost Campaign's run methods: {runs:?}"
    );
    for name in &runs {
        assert!(
            divide_lint::scopes::ENTRY_POINTS
                .iter()
                .any(|e| e.file == CAMPAIGN && e.owner == Some("Campaign") && e.name == name),
            "`Campaign::{name}` is missing from ENTRY_POINTS"
        );
    }
}

// ---- lexer totality ----------------------------------------------------

proptest! {
    /// The lexer is total: arbitrary bytes — invalid UTF-8, unterminated
    /// strings, nested comment garbage — never panic it.
    #[test]
    fn lexer_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let lexed = divide_lint::lexer::lex_bytes(&bytes);
        // Positions stay 1-based whatever the input looked like.
        for tok in &lexed.tokens {
            prop_assert!(tok.line >= 1 && tok.col >= 1);
        }
    }

    /// Source-shaped inputs (ASCII with comment/string delimiters) hit
    /// the lexer's tricky paths; still total.
    #[test]
    fn lexer_never_panics_on_source_shaped_text(
        text in "[ -~\\n\"'/*#r]{0,512}",
    ) {
        let _ = divide_lint::lexer::lex(&text);
    }

    /// The item parser is total on arbitrary source-shaped text —
    /// unbalanced braces, truncated headers, attribute soup — and every
    /// extracted span stays inside the token stream.
    #[test]
    fn parser_never_panics_on_source_shaped_text(
        text in "[ -~\\n\"'/*#r{}()<>:;.,!&|=]{0,512}",
    ) {
        let file = divide_lint::SourceFile::new("p.rs".into(), text.as_bytes());
        let parsed = divide_lint::parse::parse_file(&file);
        let n = file.tokens().len();
        for f in &parsed.fns {
            prop_assert!(f.span.0 <= f.span.1, "inverted span in {f:?}");
            prop_assert!(n == 0 || f.span.1 < n, "span out of bounds in {f:?}");
        }
    }

    /// Item-shaped fragment soup stresses the brace-tree specifically:
    /// fn/impl/mod headers, attributes, turbofish, nested closers in any
    /// interleaving — the parser never panics and spans stay sane.
    #[test]
    fn parser_survives_item_fragment_soup(
        picks in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        const FRAGMENTS: &[&str] = &[
            "fn f(", ") {", "}", "{",
            "impl Type {", "impl Trait for Type {",
            "mod m {", "trait T {",
            "self.call();", "x::y(z);", "free();",
            "#[attr(a, b)]", "let x = v[i];",
            "parse::<u64>(s)", "panic!(\"b\")",
            "\"unterminated", "// comment\n", "'a>",
        ];
        let text: String = picks
            .iter()
            .map(|&p| FRAGMENTS[p as usize % FRAGMENTS.len()])
            .collect();
        let file = divide_lint::SourceFile::new("p.rs".into(), text.as_bytes());
        let parsed = divide_lint::parse::parse_file(&file);
        let n = file.tokens().len();
        for f in &parsed.fns {
            prop_assert!(f.span.0 <= f.span.1);
            prop_assert!(n == 0 || f.span.1 < n);
            for call in &f.calls {
                prop_assert!(call.line >= 1 && call.col >= 1);
            }
        }
    }
}
