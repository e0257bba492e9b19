//! Umbrella crate re-exporting the full Decoding-the-Divide reproduction API.
pub use bbsim_address as address;
pub use bbsim_analysis as analysis;
pub use bbsim_bat as bat;
pub use bbsim_census as census;
pub use bbsim_dataset as dataset;
pub use bbsim_geo as geo;
pub use bbsim_isp as isp;
pub use bbsim_net as net;
pub use bbsim_serve as serve;
pub use bbsim_stats as stats;
pub use bqt;

/// Everything a campaign-driving example needs in one import.
///
/// Re-exports [`bqt::prelude`] (campaign building, configuration, journal,
/// telemetry and the virtual network) plus the world-building names the
/// examples pair it with: the simulated BAT servers, study-city lookup,
/// the dataset curation entry points and the plan-serving query layer.
pub mod prelude {
    pub use bbsim_bat::{register_fleet, templates, BatServer};
    pub use bbsim_census::{city_by_name, ALL_CITIES};
    pub use bbsim_dataset::{aggregate_block_groups, curate_city, CityArtifact, CurationOptions};
    pub use bbsim_isp::{CityWorld, Isp};
    pub use bbsim_serve::{
        PlanStore, Router, ServeAnswer, ServeOptions, ServeQuery, ServeRequest, ServeResponse,
    };
    pub use bqt::prelude::*;
}
