//! Statistics substrate for the Decoding-the-Divide reproduction.
//!
//! Everything the paper's evaluation needs, implemented from scratch:
//!
//! * descriptive statistics — mean, variance, quantiles, median, and the
//!   coefficient of variation used in Fig. 4 ([`descriptive`]);
//! * empirical CDFs and fixed-width histograms for distribution figures
//!   ([`ecdf`]);
//! * two-sample Kolmogorov–Smirnov tests, both the two-sided form and the
//!   one-tailed forms the paper uses for the competition analysis (§5.4,
//!   Fig. 8) ([`ks`]);
//! * Moran's I spatial autocorrelation with analytic (normality)
//!   inference, Geary's C and local Moran's I, used for Table 3 and the
//!   Fig. 7 hotspot maps ([`moran`]);
//! * the paper's 30-dimensional "plans vector" and its L1 distance, used to
//!   compare an ISP's offerings across cities (Fig. 6) ([`planvec`]);
//! * special functions (erf, standard normal CDF) backing the above
//!   ([`special`]).
//!
//! Every statistic is a pure function of its input: nothing here draws
//! random numbers or reads ambient entropy.

pub mod descriptive;
pub mod ecdf;
pub mod ks;
pub mod moran;
pub mod planvec;
pub mod rank;
pub mod special;

pub use descriptive::{
    coefficient_of_variation, mean, median, quantile, std_dev, variance, Summary,
};
pub use ecdf::{Ecdf, Histogram};
pub use ks::{ks_one_tailed, ks_two_sample, KsOutcome, Tail};
pub use moran::{gearys_c, local_morans_i, morans_i, MoranResult};
pub use planvec::{l1_distance, PlanVector, PLAN_VECTOR_DIMS};
pub use rank::{mann_whitney, midranks, pearson, spearman, MannWhitneyOutcome};
