//! Geographic substrate for the Decoding-the-Divide reproduction.
//!
//! The paper analyzes broadband plans at the granularity of US census block
//! groups inside cities. This crate provides:
//!
//! * hierarchical, FIPS-like identifiers for states, counties, tracts and
//!   block groups ([`ids`]);
//! * latitude/longitude points ([`point`]);
//! * synthetic city layouts: connected blobs of block-group cells grown on a
//!   lattice, so each city has an irregular but reproducible footprint
//!   ([`grid`]);
//! * rook contiguity and the row-standardized spatial weights it induces on
//!   any subset of a city's cells, the input to Moran's I spatial
//!   autocorrelation ([`CityGrid::rook_weights`]).
//!
//! Everything is deterministic: any randomized construction takes an explicit
//! seed, never ambient entropy.

pub mod grid;
pub mod ids;
pub mod point;

pub use grid::{CellIndex, CityGrid};
pub use ids::{BlockGroupId, CountyCode, StateCode, TractCode};
pub use point::LatLon;
