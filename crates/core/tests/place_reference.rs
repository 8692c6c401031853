//! Placer equivalence: the incremental annealer vs the original
//! full-recompute one, cell for cell.
//!
//! `reference_place` below is a frozen copy of the placer as it was before
//! the incremental rewrite: every move re-walks row prefixes for each pin
//! position, gathers every net of every cell in *both* rows, and re-measures
//! all of them (allocating a point list per net). It draws the RNG stream
//! in the same order and accepts on the same integer HPWL delta, so the
//! production placer must reproduce its placement exactly. If the
//! incremental cost model ever misses a moved pin, mis-shifts a row span
//! or commits a stale net cost, the two walks diverge and the cell lists
//! differ.
//!
//! The paper netlists cover both nodes, PD-aware and naive floorplans and
//! three seeds; the synthetic mixed-width netlist makes same-row reorders
//! and cross-row swaps of unequal widths common (the paths where a swap
//! shifts every cell between or after the swapped slots).

use std::collections::BTreeMap;
use tdsigma_core::netgen;
use tdsigma_core::spec::AdcSpec;
use tdsigma_layout::geom::{half_perimeter, Point};
use tdsigma_layout::place::{place, PlacedCell};
use tdsigma_layout::{Floorplan, LayoutError, PhysicalLibrary};
use tdsigma_netlist::{Design, FlatNetlist, Module, PortDirection, PowerPlan};
use tdsigma_tech::rng::Rng64;
use tdsigma_tech::{NodeId, Technology};

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
}

struct RowState {
    region_idx: usize,
    y_nm: i64,
    x0_nm: i64,
    sites: usize,
    used_sites: usize,
    cells: Vec<usize>,
}

/// The frozen full-recompute placer. Returns the placed cells and the total
/// HPWL (the production `Placement` keeps its path index crate-private).
fn reference_place(
    flat: &FlatNetlist,
    assignments: &BTreeMap<String, String>,
    floorplan: &Floorplan,
    lib: &PhysicalLibrary,
    seed: u64,
) -> Result<(Vec<PlacedCell>, i64), LayoutError> {
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
        let order = rows[row_idx].cells.len();
        rows[row_idx].cells.push(cells.len());
        rows[row_idx].used_sites += phys.width_sites;
        cells.push(CellState {
            width_sites: phys.width_sites,
            region_idx,
            row: row_idx,
            order_in_row: order,
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

    let position = |cells: &[CellState], rows: &[RowState], ci: usize| -> Point {
        let c = &cells[ci];
        let row = &rows[c.row];
        let mut x = row.x0_nm;
        for &other in row.cells.iter().take(c.order_in_row) {
            x += cells[other].width_sites as i64 * site;
        }
        Point::new(x + c.width_sites as i64 * site / 2, row.y_nm + row_h / 2)
    };

    let net_hpwl = |cells: &[CellState], rows: &[RowState], members: &[usize]| -> i64 {
        let pts: Vec<Point> = members
            .iter()
            .map(|&ci| position(cells, rows, ci))
            .collect();
        half_perimeter(&pts)
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
        for _ in 0..iterations {
            let a = rng.gen_range(n);
            let b = rng.gen_range(n);
            if a == b || cells[a].region_idx != cells[b].region_idx {
                temperature *= cooling;
                continue;
            }
            // Swapping cells of different widths within the same row is a
            // reorder; across rows it must respect capacity.
            if cells[a].row != cells[b].row {
                let (wa, wb) = (cells[a].width_sites, cells[b].width_sites);
                let row_a = &rows[cells[a].row];
                let row_b = &rows[cells[b].row];
                if row_a.used_sites - wa + wb > row_a.sites
                    || row_b.used_sites - wb + wa > row_b.sites
                {
                    temperature *= cooling;
                    continue;
                }
            }
            // Collect affected nets: nets of every cell in both rows (x of
            // later cells in the rows shifts when widths differ).
            let mut affected: Vec<usize> = Vec::new();
            for &row_idx in &[cells[a].row, cells[b].row] {
                for &ci in &rows[row_idx].cells {
                    affected.extend(cell_nets[ci].iter().copied());
                }
            }
            affected.sort_unstable();
            affected.dedup();
            let before: i64 = affected.iter().map(|&ni| net_costs[ni]).sum();

            swap_cells(&mut cells, &mut rows, a, b);

            let after: i64 = affected
                .iter()
                .map(|&ni| net_hpwl(&cells, &rows, &net_cells[ni]))
                .sum();
            let delta = after - before;
            let accept = delta <= 0 || rng.gen_f64() < (-(delta as f64) / temperature).exp();
            if accept {
                for &ni in &affected {
                    net_costs[ni] = net_hpwl(&cells, &rows, &net_cells[ni]);
                }
            } else {
                swap_cells(&mut cells, &mut rows, a, b);
            }
            temperature *= cooling;
        }
    }

    // Materialise.
    let mut placed = Vec::with_capacity(n);
    for (ci, flat_cell) in flat.cells.iter().enumerate() {
        let c = &cells[ci];
        let row = &rows[c.row];
        let mut x = row.x0_nm;
        for &other in row.cells.iter().take(c.order_in_row) {
            x += cells[other].width_sites as i64 * site;
        }
        let region = floorplan.regions[c.region_idx].name.clone();
        placed.push(PlacedCell {
            path: flat_cell.path.clone(),
            cell: flat_cell.cell.clone(),
            region,
            x_nm: x,
            y_nm: row.y_nm,
            width_nm: c.width_sites as i64 * site,
            height_nm: row_h,
        });
    }
    let hpwl: i64 = net_costs.iter().sum();
    Ok((placed, hpwl))
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

/// Runs both placers and asserts identical cells and HPWL.
fn assert_same_placement(
    flat: &FlatNetlist,
    assignments: &BTreeMap<String, String>,
    floorplan: &Floorplan,
    lib: &PhysicalLibrary,
    seed: u64,
    label: &str,
) {
    let got = place(flat, assignments, floorplan, lib, seed).expect("placement");
    let (want_cells, want_hpwl) =
        reference_place(flat, assignments, floorplan, lib, seed).expect("reference placement");
    assert_eq!(got.hpwl_nm, want_hpwl, "{label}: HPWL");
    assert_eq!(got.cells, want_cells, "{label}: cells");
}

/// PD-aware assignments (the power plan's regions), as `synthesize` builds
/// them.
fn pd_assignments(flat: &FlatNetlist, plan: &PowerPlan) -> BTreeMap<String, String> {
    flat.cells
        .iter()
        .map(|c| {
            let region = plan
                .region_of(&c.path)
                .map(|r| r.name.clone())
                .unwrap_or_else(|| "CORE".to_string());
            (c.path.clone(), region)
        })
        .collect()
}

/// Everything in the single naive region, as `synthesize_naive` does.
fn naive_assignments(flat: &FlatNetlist) -> BTreeMap<String, String> {
    flat.cells
        .iter()
        .map(|c| (c.path.clone(), "CORE".to_string()))
        .collect()
}

fn check_paper_node(spec: AdcSpec, node: &str) {
    for slices in [2usize, 4, 8] {
        let spec = spec.clone().with_slices(slices).expect("spec");
        let flat = netgen::generate(&spec).expect("netlist").flatten();
        let plan = PowerPlan::infer(&flat).expect("plan");
        let lib = PhysicalLibrary::for_technology(&spec.tech);
        let pd = Floorplan::generate(&flat, &plan, &lib, 0.7).expect("floorplan");
        let naive = Floorplan::generate_naive(&flat, &lib, 0.7).expect("naive floorplan");
        let pd_assign = pd_assignments(&flat, &plan);
        let naive_assign = naive_assignments(&flat);
        for seed in [1u64, 7, 42] {
            let label = format!("{node} {slices} slices seed {seed}");
            assert_same_placement(&flat, &pd_assign, &pd, &lib, seed, &format!("{label} PD"));
            assert_same_placement(
                &flat,
                &naive_assign,
                &naive,
                &lib,
                seed,
                &format!("{label} naive"),
            );
        }
    }
}

#[test]
fn paper_netlists_40nm_match_reference() {
    check_paper_node(AdcSpec::paper_40nm().expect("spec"), "40nm");
}

#[test]
fn paper_netlists_180nm_match_reference() {
    check_paper_node(AdcSpec::paper_180nm().expect("spec"), "180nm");
}

/// A random logic cloud of cells from a 2-site inverter to a 12-site flop:
/// each cell reads one to three earlier outputs (so nets fan out and span
/// rows), flops share a clock net, and two supplies give the PD-aware
/// floorplan two regions.
fn mixed_width_netlist(n: usize, seed: u64) -> FlatNetlist {
    const KINDS: [(&str, &[&str]); 8] = [
        ("INVX1", &["A"]),
        ("NAND2X1", &["A", "B"]),
        ("DFFX1", &["D"]),
        ("XOR2X2", &["A", "B"]),
        ("INVX4", &["A"]),
        ("NOR3X1", &["A", "B", "C"]),
        ("BUFX2", &["A"]),
        ("NAND3X4", &["A", "B", "C"]),
    ];
    let mut rng = Rng64::seed_from_u64(seed);
    let mut m = Module::new("mixed");
    let vdd = m.add_port("VDD", PortDirection::Inout);
    let vctrl = m.add_port("VCTRLP", PortDirection::Inout);
    let vss = m.add_port("VSS", PortDirection::Inout);
    let clk = m.add_port("CLK", PortDirection::Input);
    let mut outputs = vec![m.add_port("IN", PortDirection::Input)];
    for i in 0..n {
        let (cell, inputs) = KINDS[rng.gen_range(KINDS.len())];
        let out = m.add_net(format!("n{i}"));
        let supply = if i % 5 == 0 { vctrl } else { vdd };
        let mut pins = vec![("VDD", supply), ("VSS", vss)];
        for &pin in inputs {
            pins.push((pin, outputs[rng.gen_range(outputs.len())]));
        }
        if cell.starts_with("DFF") {
            pins.push(("CK", clk));
            pins.push(("Q", out));
        } else {
            pins.push(("Y", out));
        }
        m.add_leaf(format!("U{i}"), cell, pins).expect("leaf");
        outputs.push(out);
    }
    Design::new(m).expect("design").flatten()
}

#[test]
fn mixed_width_netlist_matches_reference() {
    let lib = PhysicalLibrary::for_technology(&Technology::for_node(NodeId::N40).expect("node"));
    for (n, netlist_seed) in [(60usize, 3u64), (240, 11)] {
        let flat = mixed_width_netlist(n, netlist_seed);
        let mut widths: Vec<usize> = flat
            .cells
            .iter()
            .map(|c| lib.cell(&c.cell).expect("cell").width_sites)
            .collect();
        widths.sort_unstable();
        widths.dedup();
        assert!(widths.len() >= 4, "netlist must mix widths: {widths:?}");
        let plan = PowerPlan::infer(&flat).expect("plan");
        let pd_assign = pd_assignments(&flat, &plan);
        let naive_assign = naive_assignments(&flat);
        for utilization in [0.5, 0.9] {
            let pd = Floorplan::generate(&flat, &plan, &lib, utilization).expect("floorplan");
            let naive = Floorplan::generate_naive(&flat, &lib, utilization).expect("naive");
            for seed in [1u64, 7, 42] {
                let label = format!("mixed n={n} util={utilization} seed={seed}");
                assert_same_placement(&flat, &pd_assign, &pd, &lib, seed, &format!("{label} PD"));
                assert_same_placement(
                    &flat,
                    &naive_assign,
                    &naive,
                    &lib,
                    seed,
                    &format!("{label} naive"),
                );
            }
        }
    }
}
