//! Street-address substrate: the synthetic Zillow-like database.
//!
//! The paper queries 837 k street addresses sourced from Zillow's ZTRAX
//! dataset. That data is proprietary, so this crate generates a synthetic
//! inventory with the *failure modes* the paper's tool had to handle (§3.1):
//!
//! * crowdsourced-style noise — suffix abbreviation variants ("Ave" vs
//!   "Avenue"), inconsistent case, typos, missing unit numbers ([`noise`]);
//! * multi-dwelling units whose unit number is absent from the listing;
//! * per-block-group address inventories with realistic street structure
//!   ([`db`]).
//!
//! It also provides what BQT needs to *recover* from that noise:
//! normalization against USPS-style abbreviation tables ([`abbrev`]) and
//! fuzzy string matching (Levenshtein, Jaro–Winkler, token-sort) for picking
//! the right entry from an ISP's suggestion list ([`matching`]). The ISP's
//! own side of that matching, the normalized-lookup table its BAT consults,
//! is [`index`], built once per city during generation.

pub mod abbrev;
pub mod db;
pub mod index;
pub mod matching;
pub mod model;
pub mod noise;
pub mod street;

pub use db::{AddressDb, AddressId, AddressRecord};
pub use index::AddressIndex;
pub use matching::{best_match, jaro_winkler, levenshtein, token_sort_similarity};
pub use model::{Directional, StreetAddress, Suffix};
pub use noise::{render_noisy, NoiseProfile};
pub use street::StreetNamer;
