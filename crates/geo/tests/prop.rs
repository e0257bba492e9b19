//! Property tests over city-grid construction and spatial weights.

use bbsim_geo::{CityGrid, LatLon};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any grown city is connected, has the requested size, unique GEOIDs,
    /// and symmetric rook weights.
    #[test]
    fn grown_cities_are_well_formed(
        n in 1usize..400,
        seed in any::<u64>(),
        state in 1u8..=99,
        county in 1u16..=999,
    ) {
        let g = CityGrid::grow(LatLon::new(35.0, -100.0), n, state, county, seed);
        prop_assert_eq!(g.len(), n);

        // Unique ids.
        let mut ids: Vec<_> = g.ids().to_vec();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), n);

        // Connectivity via rook adjacency.
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(i) = stack.pop() {
            for j in g.rook_neighbors(i) {
                if !seen[j] {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));

        // Symmetric, row-standardized rook weights.
        let cells: Vec<usize> = (0..n).collect();
        let w = g.rook_weights(&cells);
        for i in 0..n {
            for &(j, _) in &w[i] {
                prop_assert!(w[j].iter().any(|&(k, _)| k == i));
            }
            let s: f64 = w[i].iter().map(|&(_, v)| v).sum();
            if !w[i].is_empty() {
                prop_assert!((s - 1.0).abs() < 1e-9);
            }
        }
    }

    /// Radial position is always normalized and zero at the origin cell.
    #[test]
    fn radial_position_is_normalized(n in 1usize..200, seed in any::<u64>()) {
        let g = CityGrid::grow(LatLon::new(0.0, 0.0), n, 1, 1, seed);
        prop_assert_eq!(g.radial_position(0), 0.0);
        for i in 0..g.len() {
            let r = g.radial_position(i);
            prop_assert!((0.0..=1.0).contains(&r));
        }
    }
}
