//! Row-based standard-cell placement: greedy construction plus simulated-
//! annealing refinement of half-perimeter wirelength, with the hard
//! constraint that a cell may only be placed in rows of its own region
//! (power domain / component group).

use crate::error::LayoutError;
use crate::floorplan::Floorplan;
use crate::geom::{half_perimeter, Point};
use crate::physlib::PhysicalLibrary;
use std::collections::BTreeMap;
use std::fmt;
use tdsigma_netlist::FlatNetlist;
use tdsigma_tech::rng::Rng64;

/// A placed leaf cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacedCell {
    /// Flat instance path.
    pub path: String,
    /// Library cell name.
    pub cell: String,
    /// Region the cell was placed in.
    pub region: String,
    /// Lower-left x, nm.
    pub x_nm: i64,
    /// Lower-left y, nm.
    pub y_nm: i64,
    /// Cell width, nm.
    pub width_nm: i64,
    /// Cell height, nm.
    pub height_nm: i64,
}

impl PlacedCell {
    /// Centre point of the cell.
    pub fn center(&self) -> Point {
        Point::new(
            self.x_nm + self.width_nm / 2,
            self.y_nm + self.height_nm / 2,
        )
    }
}

/// A legal placement of every cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// All placed cells, in flat-netlist order.
    pub cells: Vec<PlacedCell>,
    /// Total half-perimeter wirelength over signal nets, nm.
    pub hpwl_nm: i64,
    pub(crate) index: BTreeMap<String, usize>,
}

impl Placement {
    /// Looks up a placed cell by path.
    pub fn cell(&self, path: &str) -> Option<&PlacedCell> {
        self.index.get(path).map(|&i| &self.cells[i])
    }

    /// Number of placed cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if nothing was placed.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "placement of {} cells, HPWL {:.1} µm",
            self.cells.len(),
            self.hpwl_nm as f64 / 1e3
        )
    }
}

/// Nets excluded from the wirelength objective (rail-distributed supplies).
fn is_supply_net(name: &str) -> bool {
    let base = name.rsplit('/').next().unwrap_or(name);
    matches!(base, "VDD" | "VSS" | "VREFP" | "VREFN" | "GND")
}

struct CellState {
    width_sites: usize,
    region_idx: usize,
    row: usize,
    order_in_row: usize,
    /// Lower-left x, nm — kept in step with the row order by [`reflow`].
    x_nm: i64,
}

struct RowState {
    region_idx: usize,
    y_nm: i64,
    x0_nm: i64,
    sites: usize,
    used_sites: usize,
    cells: Vec<usize>,
}

/// Places the flat netlist onto the floorplan.
///
/// `assignments` maps every flat cell path to the name of its floorplan
/// region. The placer never violates region boundaries; within each region
/// it minimises global HPWL with simulated annealing (deterministic for a
/// given `seed`).
///
/// Each annealing move is costed incrementally: only cells whose position
/// the swap changes are re-positioned, and only their nets are re-measured.
/// Cost is integer HPWL and nets of unmoved cells contribute exactly zero
/// to the move's delta, so the move/accept sequence — and therefore the
/// placement — is the same as re-measuring every net of both rows.
///
/// # Errors
///
/// * [`LayoutError::UnknownCell`] for cells missing from the library.
/// * [`LayoutError::DoesNotFit`] if a region's rows overflow.
pub fn place(
    flat: &FlatNetlist,
    assignments: &BTreeMap<String, String>,
    floorplan: &Floorplan,
    lib: &PhysicalLibrary,
    seed: u64,
) -> Result<Placement, LayoutError> {
    let row_h = floorplan.row_height_nm();
    let site = floorplan.site_width_nm();

    // Rows, globally indexed.
    let mut rows: Vec<RowState> = Vec::new();
    for (region_idx, region) in floorplan.regions.iter().enumerate() {
        for row in &region.rows {
            rows.push(RowState {
                region_idx,
                y_nm: row.y_nm,
                x0_nm: row.x0_nm,
                sites: row.sites,
                used_sites: 0,
                cells: Vec::new(),
            });
        }
    }

    // Cell states in flat order; greedy fill per region.
    let mut cells: Vec<CellState> = Vec::with_capacity(flat.cells.len());
    for cell in &flat.cells {
        let phys = lib.cell(&cell.cell)?;
        let region_name = assignments
            .get(&cell.path)
            .ok_or_else(|| LayoutError::DoesNotFit {
                region: format!("<unassigned cell {}>", cell.path),
                required_sites: phys.width_sites,
                available_sites: 0,
            })?;
        let region_idx = floorplan
            .regions
            .iter()
            .position(|r| &r.name == region_name)
            .ok_or_else(|| LayoutError::DoesNotFit {
                region: region_name.clone(),
                required_sites: phys.width_sites,
                available_sites: 0,
            })?;
        // First row of the region with room.
        let row_idx = rows
            .iter()
            .position(|r| r.region_idx == region_idx && r.used_sites + phys.width_sites <= r.sites)
            .ok_or_else(|| LayoutError::DoesNotFit {
                region: region_name.clone(),
                required_sites: phys.width_sites,
                available_sites: 0,
            })?;
        let row = &mut rows[row_idx];
        let x_nm = row.x0_nm + row.used_sites as i64 * site;
        let order = row.cells.len();
        row.cells.push(cells.len());
        row.used_sites += phys.width_sites;
        cells.push(CellState {
            width_sites: phys.width_sites,
            region_idx,
            row: row_idx,
            order_in_row: order,
            x_nm,
        });
    }

    // Signal nets as cell-index lists.
    let mut net_cells: Vec<Vec<usize>> = Vec::new();
    {
        let mut net_map: BTreeMap<&str, usize> = BTreeMap::new();
        for (ci, cell) in flat.cells.iter().enumerate() {
            for net in cell.connections.values() {
                if is_supply_net(net) {
                    continue;
                }
                let id = *net_map.entry(net.as_str()).or_insert_with(|| {
                    net_cells.push(Vec::new());
                    net_cells.len() - 1
                });
                if net_cells[id].last() != Some(&ci) {
                    net_cells[id].push(ci);
                }
            }
        }
    }
    // Nets per cell.
    let mut cell_nets: Vec<Vec<usize>> = vec![Vec::new(); cells.len()];
    for (ni, members) in net_cells.iter().enumerate() {
        for &ci in members {
            cell_nets[ci].push(ni);
        }
    }

    // Pin = cell centre; HPWL is the bounding box of a net's pins.
    let net_hpwl = |cells: &[CellState], rows: &[RowState], members: &[usize]| -> i64 {
        half_perimeter(members.iter().map(|&ci| {
            let c = &cells[ci];
            Point::new(
                c.x_nm + c.width_sites as i64 * site / 2,
                rows[c.row].y_nm + row_h / 2,
            )
        }))
    };

    let mut net_costs: Vec<i64> = net_cells
        .iter()
        .map(|m| net_hpwl(&cells, &rows, m))
        .collect();
    let total: i64 = net_costs.iter().sum();

    // Simulated annealing: swap two cells of the same region.
    let mut rng = Rng64::seed_from_u64(seed);
    let n = cells.len();
    if n >= 2 {
        let iterations = (n * 60).clamp(200, 60_000);
        let mut temperature = (total as f64 / net_costs.len().max(1) as f64).max(1.0);
        let cooling = (0.01f64 / temperature.max(1.0)).powf(1.0 / iterations as f64);
        // Per-move scratch, reused: `(cell, x before the move)` for every
        // cell the swap shifted, and `(net, HPWL after the move)` for every
        // net with a moved pin, deduplicated by epoch stamps.
        let mut moved: Vec<(usize, i64)> = Vec::new();
        let mut affected: Vec<(usize, i64)> = Vec::new();
        let mut stamp: Vec<u32> = vec![0; net_cells.len()];
        let mut epoch = 0u32;
        for _ in 0..iterations {
            let a = rng.gen_range(n);
            let b = rng.gen_range(n);
            if a == b || cells[a].region_idx != cells[b].region_idx {
                temperature *= cooling;
                continue;
            }
            // Swapping cells of different widths within the same row is a
            // reorder; across rows it must respect capacity.
            let (row_a, ord_a) = (cells[a].row, cells[a].order_in_row);
            let (row_b, ord_b) = (cells[b].row, cells[b].order_in_row);
            if row_a != row_b {
                let (wa, wb) = (cells[a].width_sites, cells[b].width_sites);
                if rows[row_a].used_sites - wa + wb > rows[row_a].sites
                    || rows[row_b].used_sites - wb + wa > rows[row_b].sites
                {
                    temperature *= cooling;
                    continue;
                }
            }

            swap_cells(&mut cells, &mut rows, a, b);
            // Only the span between the two slots shifts within one row;
            // across rows, each row's suffix from the swapped slot does.
            moved.clear();
            if row_a == row_b {
                let (lo, hi) = (ord_a.min(ord_b), ord_a.max(ord_b));
                reflow(&mut cells, &rows[row_a], lo..hi + 1, site, &mut moved);
            } else {
                let end_a = rows[row_a].cells.len();
                let end_b = rows[row_b].cells.len();
                reflow(&mut cells, &rows[row_a], ord_a..end_a, site, &mut moved);
                reflow(&mut cells, &rows[row_b], ord_b..end_b, site, &mut moved);
            }
            // `a` and `b` always count: a row change moves y even when x
            // happens to stay put.
            epoch += 1;
            affected.clear();
            for ci in moved.iter().map(|&(ci, _)| ci).chain([a, b]) {
                for &ni in &cell_nets[ci] {
                    if stamp[ni] != epoch {
                        stamp[ni] = epoch;
                        affected.push((ni, 0));
                    }
                }
            }
            let mut delta = 0i64;
            for (ni, after) in affected.iter_mut() {
                *after = net_hpwl(&cells, &rows, &net_cells[*ni]);
                delta += *after - net_costs[*ni];
            }
            let accept = delta <= 0 || rng.gen_f64() < (-(delta as f64) / temperature).exp();
            if accept {
                for &(ni, after) in &affected {
                    net_costs[ni] = after;
                }
            } else {
                swap_cells(&mut cells, &mut rows, a, b);
                for &(ci, x_nm) in &moved {
                    cells[ci].x_nm = x_nm;
                }
            }
            temperature *= cooling;
        }
    }

    // Materialise.
    let mut placed = Vec::with_capacity(n);
    let mut index = BTreeMap::new();
    for (ci, flat_cell) in flat.cells.iter().enumerate() {
        let c = &cells[ci];
        let region = floorplan.regions[c.region_idx].name.clone();
        index.insert(flat_cell.path.clone(), placed.len());
        placed.push(PlacedCell {
            path: flat_cell.path.clone(),
            cell: flat_cell.cell.clone(),
            region,
            x_nm: c.x_nm,
            y_nm: rows[c.row].y_nm,
            width_nm: c.width_sites as i64 * site,
            height_nm: row_h,
        });
    }
    let hpwl: i64 = net_costs.iter().sum();
    Ok(Placement {
        cells: placed,
        hpwl_nm: hpwl,
        index,
    })
}

fn swap_cells(cells: &mut [CellState], rows: &mut [RowState], a: usize, b: usize) {
    let (row_a, ord_a) = (cells[a].row, cells[a].order_in_row);
    let (row_b, ord_b) = (cells[b].row, cells[b].order_in_row);
    rows[row_a].cells[ord_a] = b;
    rows[row_b].cells[ord_b] = a;
    let (wa, wb) = (cells[a].width_sites, cells[b].width_sites);
    if row_a != row_b {
        rows[row_a].used_sites = rows[row_a].used_sites - wa + wb;
        rows[row_b].used_sites = rows[row_b].used_sites - wb + wa;
    }
    cells[a].row = row_b;
    cells[a].order_in_row = ord_b;
    cells[b].row = row_a;
    cells[b].order_in_row = ord_a;
}

/// Re-derives the lower-left x of the cells in `slots` of `row` from the
/// (unchanged) cell before the span, logging `(cell, old x)` for every
/// cell whose x changed.
fn reflow(
    cells: &mut [CellState],
    row: &RowState,
    slots: std::ops::Range<usize>,
    site: i64,
    moved: &mut Vec<(usize, i64)>,
) {
    let mut x = match slots.start.checked_sub(1) {
        Some(prev) => {
            let c = &cells[row.cells[prev]];
            c.x_nm + c.width_sites as i64 * site
        }
        None => row.x0_nm,
    };
    for &ci in &row.cells[slots] {
        let c = &mut cells[ci];
        if c.x_nm != x {
            moved.push((ci, c.x_nm));
            c.x_nm = x;
        }
        x += c.width_sites as i64 * site;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;
    use tdsigma_netlist::{Design, Module, PortDirection, PowerPlan};
    use tdsigma_tech::{NodeId, Technology};

    fn chain(n: usize) -> FlatNetlist {
        let mut m = Module::new("chain");
        let vdd = m.add_port("VDD", PortDirection::Inout);
        let vss = m.add_port("VSS", PortDirection::Inout);
        let mut prev = m.add_port("IN", PortDirection::Input);
        for i in 0..n {
            let next = if i == n - 1 {
                m.add_port("OUT", PortDirection::Output)
            } else {
                m.add_net(format!("n{i}"))
            };
            m.add_leaf(
                format!("I{i}"),
                "INVX1",
                [("A", prev), ("Y", next), ("VDD", vdd), ("VSS", vss)],
            )
            .unwrap();
            prev = next;
        }
        Design::new(m).unwrap().flatten()
    }

    fn setup(
        n: usize,
    ) -> (
        FlatNetlist,
        BTreeMap<String, String>,
        Floorplan,
        PhysicalLibrary,
    ) {
        let flat = chain(n);
        let plan = PowerPlan::infer(&flat).unwrap();
        let lib = PhysicalLibrary::for_technology(&Technology::for_node(NodeId::N40).unwrap());
        let fp = Floorplan::generate(&flat, &plan, &lib, 0.8).unwrap();
        let assignments: BTreeMap<String, String> = flat
            .cells
            .iter()
            .map(|c| {
                (
                    c.path.clone(),
                    plan.region_of(&c.path).unwrap().name.clone(),
                )
            })
            .collect();
        (flat, assignments, fp, lib)
    }

    #[test]
    fn all_cells_placed_in_their_region() {
        let (flat, assignments, fp, lib) = setup(24);
        let p = place(&flat, &assignments, &fp, &lib, 1).unwrap();
        assert_eq!(p.len(), 24);
        for cell in &p.cells {
            assert_eq!(&cell.region, &assignments[&cell.path]);
            let region = fp.region(&cell.region).unwrap();
            let r = crate::geom::Rect::new(
                cell.x_nm,
                cell.y_nm,
                cell.x_nm + cell.width_nm,
                cell.y_nm + cell.height_nm,
            );
            assert!(
                region.rect.contains_rect(&r),
                "{} outside its region",
                cell.path
            );
        }
    }

    #[test]
    fn no_overlaps() {
        let (flat, assignments, fp, lib) = setup(40);
        let p = place(&flat, &assignments, &fp, &lib, 2).unwrap();
        for (i, a) in p.cells.iter().enumerate() {
            let ra =
                crate::geom::Rect::new(a.x_nm, a.y_nm, a.x_nm + a.width_nm, a.y_nm + a.height_nm);
            for b in p.cells.iter().skip(i + 1) {
                let rb = crate::geom::Rect::new(
                    b.x_nm,
                    b.y_nm,
                    b.x_nm + b.width_nm,
                    b.y_nm + b.height_nm,
                );
                assert!(!ra.overlaps(&rb), "{} overlaps {}", a.path, b.path);
            }
        }
    }

    #[test]
    fn cells_are_site_aligned() {
        let (flat, assignments, fp, lib) = setup(16);
        let p = place(&flat, &assignments, &fp, &lib, 3).unwrap();
        for cell in &p.cells {
            assert_eq!(cell.x_nm % fp.site_width_nm(), 0, "{}", cell.path);
            assert_eq!(cell.y_nm % fp.row_height_nm(), 0, "{}", cell.path);
        }
    }

    #[test]
    fn annealing_improves_over_worst_case() {
        // A chain netlist: greedy order is already good, but annealing must
        // at least not regress and HPWL must be bounded by die perimeter ×
        // net count.
        let (flat, assignments, fp, lib) = setup(32);
        let p = place(&flat, &assignments, &fp, &lib, 4).unwrap();
        let per_net_worst = fp.die.width() + fp.die.height();
        // 31 internal 2-pin nets (plus IN/OUT single-pin contributions = 0).
        assert!(p.hpwl_nm < 33 * per_net_worst);
        assert!(p.hpwl_nm > 0);
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let (flat, assignments, fp, lib) = setup(20);
        let p1 = place(&flat, &assignments, &fp, &lib, 7).unwrap();
        let p2 = place(&flat, &assignments, &fp, &lib, 7).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn lookup_by_path() {
        let (flat, assignments, fp, lib) = setup(8);
        let p = place(&flat, &assignments, &fp, &lib, 5).unwrap();
        assert!(p.cell("I3").is_some());
        assert!(p.cell("GHOST").is_none());
        assert!(!p.is_empty());
    }

    #[test]
    fn missing_assignment_errors() {
        let (flat, mut assignments, fp, lib) = setup(8);
        assignments.remove("I0");
        assert!(matches!(
            place(&flat, &assignments, &fp, &lib, 6),
            Err(LayoutError::DoesNotFit { .. })
        ));
    }

    #[test]
    fn display_reports_hpwl() {
        let (flat, assignments, fp, lib) = setup(8);
        let p = place(&flat, &assignments, &fp, &lib, 8).unwrap();
        assert!(p.to_string().contains("HPWL"));
    }
}
