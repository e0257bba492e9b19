//! §5.3 — intra-city spatial structure.
//!
//! Moran's I over block-group carriage values quantifies the clustering the
//! maps show (Table 3); the composite ISP-pair view (best carriage value
//! from either provider per block group) reproduces Fig. 7c's observation
//! that the dominant cable ISP sets the effective best deal almost
//! everywhere.
//!
//! Geometry is public: the city grid is rebuilt from the census registry,
//! and weights cover only the block groups with scraped data (ISP coverage
//! is partial): the row-standardized rook weights of the subgraph they
//! induce, built once per field by [`CityGrid::rook_weights`] and shared by
//! Moran's I and LISA.

use bbsim_census::CityProfile;
use bbsim_dataset::BlockGroupRow;
use bbsim_geo::{CellIndex, CityGrid};
use bbsim_isp::Isp;
use bbsim_stats::{local_morans_i, morans_i, MoranResult};

/// Aligns one ISP's block-group medians onto grid cells.
/// Returns a cell-indexed vector with `None` where the ISP has no data.
pub fn cell_aligned_cvs(grid: &CityGrid, rows: &[BlockGroupRow], isp: Isp) -> Vec<Option<f64>> {
    let mut out = vec![None; grid.len()];
    for r in rows.iter().filter(|r| r.isp == isp) {
        if r.bg_index < out.len() {
            out[r.bg_index] = Some(r.median_cv);
        }
    }
    out
}

/// The composite (ISP-pair) field: the best carriage value offered by any
/// of `isps` per block group (Fig. 7c).
pub fn composite_best_cv(
    grid: &CityGrid,
    rows: &[BlockGroupRow],
    isps: &[Isp],
) -> Vec<Option<f64>> {
    let mut out = vec![None; grid.len()];
    for r in rows.iter().filter(|r| isps.contains(&r.isp)) {
        if r.bg_index < out.len() {
            let cell = &mut out[r.bg_index];
            *cell = Some(cell.map_or(r.median_cv, |c: f64| c.max(r.median_cv)));
        }
    }
    out
}

/// The covered cells of a partially observed field, their values, and
/// the row-standardized rook weights among them.
struct Covered {
    cells: Vec<CellIndex>,
    values: Vec<f64>,
    weights: Vec<Vec<(usize, f64)>>,
}

impl Covered {
    /// `None` when fewer than 10 cells are covered.
    fn of(grid: &CityGrid, field: &[Option<f64>]) -> Option<Self> {
        assert_eq!(grid.len(), field.len());
        let (cells, values): (Vec<CellIndex>, Vec<f64>) = field
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (i, v)))
            .unzip();
        if cells.len() < 10 {
            return None;
        }
        let weights = grid.rook_weights(&cells);
        Some(Self {
            cells,
            values,
            weights,
        })
    }
}

/// Moran's I over the covered subgraph of a partially observed field.
///
/// Builds rook weights among only the cells with values, row-standardizes
/// them, and runs the statistic. `None` when fewer than 10 covered cells or
/// the field is constant (e.g. Xfinity: identical plans everywhere — the
/// paper reports its Moran's I as 0).
pub fn morans_i_partial(grid: &CityGrid, field: &[Option<f64>]) -> Option<MoranResult> {
    let covered = Covered::of(grid, field)?;
    morans_i(&covered.values, &covered.weights)
}

/// Moran's I of one ISP's carriage values in a city (a Table-3 cell).
pub fn morans_i_for_isp(
    city: &CityProfile,
    rows: &[BlockGroupRow],
    isp: Isp,
) -> Option<MoranResult> {
    let grid = city.grid();
    let field = cell_aligned_cvs(&grid, rows, isp);
    morans_i_partial(&grid, &field)
}

/// Moran's I of the composite best-cv field of an ISP pair (Table 3's
/// "ISP pairs" block).
pub fn morans_i_for_pair(
    city: &CityProfile,
    rows: &[BlockGroupRow],
    pair: (Isp, Isp),
) -> Option<MoranResult> {
    let grid = city.grid();
    let field = composite_best_cv(&grid, rows, &[pair.0, pair.1]);
    morans_i_partial(&grid, &field)
}

/// Renders a partially observed field as an ASCII map (the text stand-in
/// for Fig. 7): cells are bucketed into five equal-width value bands
/// `1`–`5`, `.` = no data, space = outside the city footprint.
pub fn ascii_map(grid: &CityGrid, field: &[Option<f64>]) -> String {
    assert_eq!(grid.len(), field.len());
    let coords: Vec<(i32, i32)> = (0..grid.len()).map(|i| grid.coord(i)).collect();
    let min_x = coords.iter().map(|c| c.0).min().expect("non-empty grid");
    let max_x = coords.iter().map(|c| c.0).max().expect("non-empty grid");
    let min_y = coords.iter().map(|c| c.1).min().expect("non-empty grid");
    let max_y = coords.iter().map(|c| c.1).max().expect("non-empty grid");

    // Five equal-width value bands between the observed min and max.
    let observed: Vec<f64> = field.iter().flatten().copied().collect();
    let lo = observed.iter().cloned().fold(f64::MAX, f64::min);
    let hi = observed.iter().cloned().fold(f64::MIN, f64::max);
    let bucket = |v: f64| -> char {
        if observed.is_empty() || hi <= lo {
            return '3'; // constant field: middle band
        }
        let q = (((v - lo) / (hi - lo)) * 5.0).floor().clamp(0.0, 4.0) as u8;
        (b'1' + q) as char
    };

    let mut cell_at = std::collections::HashMap::new();
    for (i, &(x, y)) in coords.iter().enumerate() {
        cell_at.insert((x, y), i);
    }

    let mut out = String::new();
    for y in (min_y..=max_y).rev() {
        for x in min_x..=max_x {
            let ch = match cell_at.get(&(x, y)) {
                Some(&i) => match field[i] {
                    Some(v) => bucket(v),
                    None => '.',
                },
                None => ' ',
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsim_census::city_by_name;
    use bbsim_geo::BlockGroupId;

    fn rows_clustered(city: &CityProfile, isp: Isp) -> Vec<BlockGroupRow> {
        // Left half of the grid low cv, right half high: strong clustering.
        let grid = city.grid();
        (0..grid.len())
            .map(|bg| {
                let (x, _) = grid.coord(bg);
                BlockGroupRow {
                    city: city.name.to_string(),
                    isp,
                    block_group: grid.id(bg),
                    bg_index: bg,
                    median_cv: if x < 0 { 2.0 } else { 12.0 },
                    cov: Some(0.0),
                    n_addresses: 30,
                    fiber_share: 0.0,
                }
            })
            .collect()
    }

    #[test]
    fn clustered_field_yields_high_morans_i() {
        let city = city_by_name("Billings").unwrap();
        let rows = rows_clustered(city, Isp::Spectrum);
        let r = morans_i_for_isp(city, &rows, Isp::Spectrum).unwrap();
        assert!(r.i > 0.6, "I = {}", r.i);
    }

    #[test]
    fn constant_field_is_undefined_like_xfinity() {
        let city = city_by_name("Billings").unwrap();
        let mut rows = rows_clustered(city, Isp::Spectrum);
        for r in &mut rows {
            r.median_cv = 15.0;
        }
        assert!(morans_i_for_isp(city, &rows, Isp::Spectrum).is_none());
    }

    #[test]
    fn partial_coverage_is_supported() {
        let city = city_by_name("Billings").unwrap();
        let mut rows = rows_clustered(city, Isp::Spectrum);
        rows.truncate(rows.len() / 2);
        let r = morans_i_for_isp(city, &rows, Isp::Spectrum);
        assert!(r.is_some());
    }

    #[test]
    fn too_few_cells_is_none() {
        let city = city_by_name("Billings").unwrap();
        let mut rows = rows_clustered(city, Isp::Spectrum);
        rows.truncate(5);
        assert!(morans_i_for_isp(city, &rows, Isp::Spectrum).is_none());
    }

    #[test]
    fn composite_takes_the_best_of_either_isp() {
        let grid = city_by_name("Billings").unwrap().grid();
        let mk = |isp: Isp, bg: usize, cv: f64| BlockGroupRow {
            city: "Billings".to_string(),
            isp,
            block_group: BlockGroupId::new(30, 111, 1, 1),
            bg_index: bg,
            median_cv: cv,
            cov: None,
            n_addresses: 1,
            fiber_share: 0.0,
        };
        let rows = vec![
            mk(Isp::CenturyLink, 0, 3.0),
            mk(Isp::Spectrum, 0, 12.0),
            mk(Isp::CenturyLink, 1, 14.5),
            mk(Isp::Spectrum, 1, 12.0),
            mk(Isp::Spectrum, 2, 12.0),
        ];
        let composite = composite_best_cv(&grid, &rows, &[Isp::CenturyLink, Isp::Spectrum]);
        assert_eq!(composite[0], Some(12.0));
        assert_eq!(composite[1], Some(14.5));
        assert_eq!(composite[2], Some(12.0));
        assert_eq!(composite[3], None);
    }

    #[test]
    fn ascii_map_has_one_row_per_lattice_row_and_quintile_chars() {
        let city = city_by_name("Billings").unwrap();
        let grid = city.grid();
        let rows = rows_clustered(city, Isp::Spectrum);
        let field = cell_aligned_cvs(&grid, &rows, Isp::Spectrum);
        let map = ascii_map(&grid, &field);
        assert!(map.lines().count() > 3);
        assert!(map.contains('1'));
        assert!(map.contains('5'));
        for ch in map.chars() {
            assert!(matches!(ch, '1'..='5' | '.' | ' ' | '\n'), "{ch:?}");
        }
    }

    #[test]
    fn cell_alignment_places_rows_at_their_bg_index() {
        let city = city_by_name("Billings").unwrap();
        let grid = city.grid();
        let rows = rows_clustered(city, Isp::Spectrum);
        let field = cell_aligned_cvs(&grid, &rows, Isp::Spectrum);
        assert_eq!(field[7], Some(rows[7].median_cv));
        // Absent ISP yields an empty field.
        let empty = cell_aligned_cvs(&grid, &rows, Isp::Cox);
        assert!(empty.iter().all(Option::is_none));
    }
}

/// Local Moran's I (LISA) over the covered subgraph of a partially observed
/// field: positive where a block group sits inside a patch of similar
/// carriage values, negative where it is a spatial outlier. Returns a
/// cell-aligned field (None where no data), for hotspot rendering next to
/// the Fig.-7 maps.
pub fn lisa_field(grid: &CityGrid, field: &[Option<f64>]) -> Option<Vec<Option<f64>>> {
    let covered = Covered::of(grid, field)?;
    let local = local_morans_i(&covered.values, &covered.weights)?;
    let mut out = vec![None; grid.len()];
    for (&i, l) in covered.cells.iter().zip(local) {
        out[i] = Some(l);
    }
    Some(out)
}

/// Renders a LISA field as a hotspot map: `+` = significant positive local
/// association (inside a cluster), `-` = negative (spatial outlier),
/// `.` = weak/no association or no data, space = outside the footprint.
pub fn lisa_map(grid: &CityGrid, lisa: &[Option<f64>]) -> String {
    assert_eq!(grid.len(), lisa.len());
    let coords: Vec<(i32, i32)> = (0..grid.len()).map(|i| grid.coord(i)).collect();
    let min_x = coords.iter().map(|c| c.0).min().expect("non-empty grid");
    let max_x = coords.iter().map(|c| c.0).max().expect("non-empty grid");
    let min_y = coords.iter().map(|c| c.1).min().expect("non-empty grid");
    let max_y = coords.iter().map(|c| c.1).max().expect("non-empty grid");
    let mut cell_at = std::collections::HashMap::new();
    for (i, &(x, y)) in coords.iter().enumerate() {
        cell_at.insert((x, y), i);
    }
    let mut out = String::new();
    for y in (min_y..=max_y).rev() {
        for x in min_x..=max_x {
            let ch = match cell_at.get(&(x, y)) {
                Some(&i) => match lisa[i] {
                    Some(v) if v > 0.5 => '+',
                    Some(v) if v < -0.5 => '-',
                    Some(_) => '.',
                    None => '.',
                },
                None => ' ',
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod lisa_tests {
    use super::*;
    use bbsim_census::city_by_name;

    #[test]
    fn clustered_field_yields_positive_interior_lisa() {
        let city = city_by_name("Billings").expect("study city");
        let grid = city.grid();
        // Left half low, right half high.
        let field: Vec<Option<f64>> = (0..grid.len())
            .map(|i| Some(if grid.coord(i).0 < 0 { 1.0 } else { 9.0 }))
            .collect();
        let lisa = lisa_field(&grid, &field).expect("defined");
        // Most cells sit inside one of the two patches: positive LISA.
        let positive = lisa.iter().flatten().filter(|&&v| v > 0.0).count();
        let total = lisa.iter().flatten().count();
        assert!(positive * 10 > total * 7, "{positive}/{total} positive");
        let map = lisa_map(&grid, &lisa);
        assert!(map.contains('+'));
    }

    #[test]
    fn constant_field_has_no_lisa() {
        let city = city_by_name("Billings").expect("study city");
        let grid = city.grid();
        let field: Vec<Option<f64>> = vec![Some(5.0); grid.len()];
        assert!(lisa_field(&grid, &field).is_none());
    }

    #[test]
    fn sparse_field_is_none_and_partial_is_aligned() {
        let city = city_by_name("Billings").expect("study city");
        let grid = city.grid();
        let mut field: Vec<Option<f64>> = vec![None; grid.len()];
        for (i, f) in field.iter_mut().enumerate().take(5) {
            *f = Some(i as f64);
        }
        assert!(lisa_field(&grid, &field).is_none());
        // Half-covered field: LISA defined exactly where data is.
        for (i, f) in field.iter_mut().enumerate().take(grid.len() / 2) {
            *f = Some((i % 7) as f64);
        }
        let lisa = lisa_field(&grid, &field).expect("defined");
        for i in 0..grid.len() {
            assert_eq!(lisa[i].is_some(), field[i].is_some(), "cell {i}");
        }
    }
}
