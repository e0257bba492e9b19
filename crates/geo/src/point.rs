//! Latitude/longitude points.

/// A point on the Earth's surface in decimal degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatLon {
    pub lat: f64,
    pub lon: f64,
}

impl LatLon {
    pub fn new(lat: f64, lon: f64) -> Self {
        debug_assert!(
            (-90.0..=90.0).contains(&lat),
            "latitude out of range: {lat}"
        );
        debug_assert!(
            (-180.0..=180.0).contains(&lon),
            "longitude out of range: {lon}"
        );
        Self { lat, lon }
    }
}
