//! Flood-risk analysis — the motivating example of §2.1: given building
//! boundaries `R` and flood zones `S`, find every building at risk via
//! `Intersects(r, s)`, and compare LibRTS against the CPU R-tree and the
//! software LBVH on the same workload.
//!
//! ```sh
//! cargo run --release --example flood_risk [-- <scale>]
//! ```

use baselines::{lbvh::Lbvh, rtree::RTree};
use datasets::{queries, Dataset};
use librts::{CountingHandler, Predicate, RTSIndex};
use std::time::Instant;

fn main() {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);

    // "Buildings": the census-block dataset profile.
    let buildings = Dataset::UsCensus.generate(scale, 7);
    // "Flood zones": rectangles calibrated to touch ~0.1% of buildings.
    let flood_zones = queries::intersects_queries(&buildings, 2_000, 0.001, 8);
    println!(
        "{} buildings, {} flood zones (≈0.1% selectivity)\n",
        buildings.len(),
        flood_zones.len()
    );

    // --- LibRTS ------------------------------------------------------------
    let t = Instant::now();
    let index = RTSIndex::with_rects(&buildings, Default::default()).unwrap();
    let build_librts = t.elapsed();
    let counter = CountingHandler::new();
    let report = index.range_query(Predicate::Intersects, &flood_zones, &counter);
    let at_risk = counter.count();
    println!(
        "LibRTS:  build {build_librts:>10.2?}  query {:>10.2?} (wall) / {:>10.2?} (device model)",
        report.wall_time(),
        report.device_time()
    );
    // A default index runs k = 1 and samples no selectivity.
    match report.estimated_selectivity {
        Some(s) => println!(
            "         multicast k = {}, estimated selectivity = {:.5}%",
            report.chosen_k,
            s * 100.0
        ),
        None => println!("         multicast k = {}", report.chosen_k),
    }
    println!("         {} (building, flood-zone) pairs at risk", at_risk);

    // --- Boost-style R-tree (CPU) -------------------------------------------
    let t = Instant::now();
    let rtree = RTree::bulk_load(&buildings);
    let build_rtree = t.elapsed();
    let rt = rtree.batch_intersects(&flood_zones);
    println!(
        "R-tree:  build {build_rtree:>10.2?}  query {:>10.2?} (wall)            -> {} pairs",
        rt.wall_time, rt.results
    );

    // --- LBVH (software GPU BVH) --------------------------------------------
    let t = Instant::now();
    let lbvh = Lbvh::build(&buildings);
    let build_lbvh = t.elapsed();
    let lt = lbvh.batch_intersects(&flood_zones);
    println!(
        "LBVH:    build {build_lbvh:>10.2?}  query {:>10.2?} (wall) / {:>10.2?} (device model) -> {} pairs",
        lt.wall_time,
        lt.device_time.unwrap(),
        lt.results
    );

    assert_eq!(at_risk, rt.results, "LibRTS and R-tree disagree");
    assert_eq!(at_risk, lt.results, "LibRTS and LBVH disagree");
    println!("\nall three engines agree on the result set size ✓");
}
