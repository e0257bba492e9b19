//! Section-5 analyses: everything the paper concludes, recomputed from the
//! scraped dataset.
//!
//! Inputs are the measurement-side types only — per-address
//! [`bbsim_dataset::PlanRecord`]s, their block-group aggregates, and
//! *public* context (census geometry and ACS incomes, rebuilt from the
//! census crate). The hidden world model is never consulted: each finding
//! here is recovered from what BQT scraped, exactly like the paper's
//! analysis recovered them from the live web.
//!
//! * [`intercity`] — §5.2: carriage-value distributions per city and the
//!   plans-vector L1 comparison across city pairs (Figs. 5, 6);
//! * [`intracity`] — §5.3: spatial clustering via Moran's I, individual and
//!   composite ISP-pair maps (Fig. 7, Table 3);
//! * [`competition`] — §5.4: competition-mode classification and the
//!   one-tailed KS tests on cable carriage values (Fig. 8);
//! * [`income`] — §5.5: fiber deployment split by block-group income
//!   (Figs. 9a, 9b);
//! * [`report`] — plain-text table rendering for the repro harness.

pub mod audit;
pub mod baseline;
pub mod competition;
pub mod flattening;
pub mod income;
pub mod intercity;
pub mod intracity;
pub mod policy;
pub mod report;

pub use audit::{audit_form477, AuditSummary};
pub use baseline::{markup_view, upload_consistency, MarkupComparison};
pub use competition::{classify_modes, test_competition, CompetitionMode, CompetitionReport};
pub use flattening::{tier_flattening, worst_flattening, PricePointSpread};
pub use income::{fiber_by_income, FiberIncomeBreakdown};
pub use intercity::{cv_histogram, l1_pairs, plan_vector_for};
pub use intracity::{
    ascii_map, composite_best_cv, lisa_field, lisa_map, morans_i_for_isp, morans_i_for_pair,
};
pub use policy::{evaluate_intervention, EquityOutcome, Intervention};
pub use report::Table;
