//! Synthetic city layouts: connected blobs of block-group cells on a lattice.
//!
//! Each study city is modelled as a set of unit cells (one per census block
//! group) grown from the city centre by a seeded random accretion process.
//! The result is an irregular but connected and reproducible footprint, which
//! gives contiguity graphs (and thus Moran's I) realistic structure: interior
//! cells have 4 rook neighbours, boundary cells fewer.

use crate::ids::BlockGroupId;
use crate::point::LatLon;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Index of a cell (block group) within a [`CityGrid`]; dense `0..len()`.
pub type CellIndex = usize;

/// A city rendered as a connected set of lattice cells, one per block group.
#[derive(Debug, Clone)]
pub struct CityGrid {
    center: LatLon,
    /// Lattice coordinates of each cell, indexed by `CellIndex`.
    cells: Vec<(i32, i32)>,
    /// Reverse lookup from lattice coordinate to cell index.
    by_coord: HashMap<(i32, i32), CellIndex>,
    /// Block-group id of each cell.
    ids: Vec<BlockGroupId>,
}

impl CityGrid {
    /// Grows a connected blob of `n_cells` cells around `center`.
    ///
    /// Growth is random accretion: starting from the origin cell, repeatedly
    /// pick a random frontier cell (an empty lattice site adjacent to the
    /// blob) with a bias toward sites closer to the origin, producing
    /// compact-but-irregular city shapes. Deterministic in `seed`.
    ///
    /// Block-group GEOIDs are assigned within `state`/`county`, tracts of
    /// up to 4 block groups each.
    pub fn grow(center: LatLon, n_cells: usize, state: u8, county: u16, seed: u64) -> Self {
        assert!(n_cells >= 1, "a city needs at least one block group");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cells: Vec<(i32, i32)> = Vec::with_capacity(n_cells);
        let mut by_coord: HashMap<(i32, i32), CellIndex> = HashMap::with_capacity(n_cells);
        let mut frontier: Vec<(i32, i32)> = Vec::new();

        let add = |c: (i32, i32),
                   cells: &mut Vec<(i32, i32)>,
                   by_coord: &mut HashMap<(i32, i32), CellIndex>,
                   frontier: &mut Vec<(i32, i32)>| {
            let idx = cells.len();
            cells.push(c);
            by_coord.insert(c, idx);
            for d in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
                let nb = (c.0 + d.0, c.1 + d.1);
                if !by_coord.contains_key(&nb) && !frontier.contains(&nb) {
                    frontier.push(nb);
                }
            }
        };

        add((0, 0), &mut cells, &mut by_coord, &mut frontier);
        while cells.len() < n_cells {
            // Bias toward compactness: sample a few frontier candidates and
            // take the one closest to the origin.
            let k = 3.min(frontier.len());
            let mut best: Option<(usize, i64)> = None;
            for _ in 0..k {
                let i = rng.gen_range(0..frontier.len());
                let (x, y) = frontier[i];
                let d2 = (x as i64).pow(2) + (y as i64).pow(2);
                if best.is_none_or(|(_, bd)| d2 < bd) {
                    best = Some((i, d2));
                }
            }
            let Some((i, _)) = best else { break };
            let c = frontier.swap_remove(i);
            add(c, &mut cells, &mut by_coord, &mut frontier);
            frontier.retain(|f| !by_coord.contains_key(f));
        }

        // Assign GEOIDs: consecutive cells share tracts of up to 4 groups.
        let ids = (0..cells.len())
            .map(|i| BlockGroupId::new(state, county, (i / 4 + 1) as u32, (i % 4 + 1) as u8))
            .collect();

        CityGrid {
            center,
            cells,
            by_coord,
            ids,
        }
    }

    /// Number of cells (block groups) in the city.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// City centre used as the lattice origin.
    pub fn center(&self) -> LatLon {
        self.center
    }

    /// Block-group id of cell `i`.
    pub fn id(&self, i: CellIndex) -> BlockGroupId {
        self.ids[i]
    }

    /// All block-group ids, indexed by cell.
    pub fn ids(&self) -> &[BlockGroupId] {
        &self.ids
    }

    /// Lattice coordinate of cell `i`.
    pub fn coord(&self, i: CellIndex) -> (i32, i32) {
        self.cells[i]
    }

    /// Rook (edge-sharing) neighbours of cell `i`.
    pub fn rook_neighbors(&self, i: CellIndex) -> Vec<CellIndex> {
        let (x, y) = self.cells[i];
        [(1, 0), (-1, 0), (0, 1), (0, -1)]
            .iter()
            .filter_map(|d| self.by_coord.get(&(x + d.0, y + d.1)).copied())
            .collect()
    }

    /// Row-standardized rook weights over the subgraph `cells` induce.
    ///
    /// Row `k` belongs to `cells[k]` and gives `1/n` to each of its `n`
    /// rook neighbours that `cells` also holds, named by their position
    /// in `cells`; a cell with no such neighbour gets an empty row. This
    /// is the weights matrix Moran's I and LISA take.
    pub fn rook_weights(&self, cells: &[CellIndex]) -> Vec<Vec<(usize, f64)>> {
        let mut dense_index = vec![usize::MAX; self.len()];
        for (k, &i) in cells.iter().enumerate() {
            dense_index[i] = k;
        }
        cells
            .iter()
            .map(|&i| {
                let ns: Vec<usize> = self
                    .rook_neighbors(i)
                    .into_iter()
                    .filter(|&j| dense_index[j] != usize::MAX)
                    .map(|j| dense_index[j])
                    .collect();
                let w = 1.0 / ns.len() as f64;
                ns.into_iter().map(|j| (j, w)).collect()
            })
            .collect()
    }

    /// Normalized radial position of cell `i` in `[0, 1]`: 0 at the city
    /// centre, 1 at the farthest cell. Used by the world model to place
    /// income gradients and infrastructure.
    pub fn radial_position(&self, i: CellIndex) -> f64 {
        let max_d2 = self
            .cells
            .iter()
            .map(|&(x, y)| (x as f64).powi(2) + (y as f64).powi(2))
            .fold(0.0, f64::max);
        if max_d2 == 0.0 {
            return 0.0;
        }
        let (x, y) = self.cells[i];
        (((x as f64).powi(2) + (y as f64).powi(2)) / max_d2).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nola() -> CityGrid {
        CityGrid::grow(LatLon::new(29.95, -90.07), 439, 22, 71, 7)
    }

    #[test]
    fn grow_produces_requested_cell_count() {
        assert_eq!(nola().len(), 439);
    }

    #[test]
    fn grow_is_deterministic_in_seed() {
        let a = CityGrid::grow(LatLon::new(29.95, -90.07), 100, 22, 71, 42);
        let b = CityGrid::grow(LatLon::new(29.95, -90.07), 100, 22, 71, 42);
        assert_eq!(a.cells, b.cells);
        let c = CityGrid::grow(LatLon::new(29.95, -90.07), 100, 22, 71, 43);
        assert_ne!(a.cells, c.cells);
    }

    #[test]
    fn blob_is_connected_via_rook_adjacency() {
        let g = nola();
        let mut seen = vec![false; g.len()];
        let mut stack = vec![0];
        seen[0] = true;
        while let Some(i) = stack.pop() {
            for j in g.rook_neighbors(i) {
                if !seen[j] {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "grid must be a single component");
    }

    #[test]
    fn ids_are_unique() {
        let g = nola();
        let mut ids: Vec<_> = g.ids().to_vec();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), g.len());
    }

    #[test]
    fn rook_weights_index_the_subset_and_leave_isolates_empty() {
        let g = nola();
        let all: Vec<CellIndex> = (0..g.len()).collect();
        let w = g.rook_weights(&all);
        for (i, row) in w.iter().enumerate() {
            let cols: Vec<usize> = row.iter().map(|&(j, _)| j).collect();
            assert_eq!(cols, g.rook_neighbors(i), "cell {i}");
            let s: f64 = row.iter().map(|&(_, v)| v).sum();
            assert!((s - 1.0).abs() < 1e-12, "row {i} sums to {s}");
        }
        // The origin cell and one rook neighbour, plus a cell touching
        // neither: columns are positions in the subset.
        let nb = g.rook_neighbors(0)[0];
        let far = (1..g.len())
            .find(|&i| i != nb && !g.rook_neighbors(i).iter().any(|&j| j == 0 || j == nb))
            .expect("a cell away from both");
        let w = g.rook_weights(&[far, 0, nb]);
        assert!(w[0].is_empty());
        assert_eq!(w[1], vec![(2, 1.0)]);
        assert_eq!(w[2], vec![(1, 1.0)]);
    }

    #[test]
    fn radial_position_is_normalized() {
        let g = nola();
        let mut saw_one = false;
        for i in 0..g.len() {
            let r = g.radial_position(i);
            assert!((0.0..=1.0).contains(&r));
            if (r - 1.0).abs() < 1e-12 {
                saw_one = true;
            }
        }
        assert_eq!(g.radial_position(0), 0.0, "origin cell is the centre");
        assert!(saw_one, "the farthest cell has radial position 1");
    }

    #[test]
    fn single_cell_city_is_valid() {
        let g = CityGrid::grow(LatLon::new(0.0, 0.0), 1, 1, 1, 0);
        assert_eq!(g.len(), 1);
        assert!(g.rook_neighbors(0).is_empty());
        assert_eq!(g.radial_position(0), 0.0);
    }
}
