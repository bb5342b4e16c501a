//! Bringing your own data: write/read the CSV and WKT formats the
//! harness accepts, index the loaded rectangles, and inspect BVH
//! quality before and after heavy updates (the §6.7 effect, measured
//! by `rtcore::Gas` on every refit).
//!
//! ```sh
//! cargo run --release --example custom_data
//! ```

use datasets::io;
use datasets::polygons::polygons_from_rects;
use datasets::spider::{generate_parcel_rects, generate_rects, SpiderParams};
use geom::{Point, Rect};
use librts::{PipIndex, Predicate, RTSIndex};
use rtcore::{BuildOptions, Gas};

fn main() {
    // --- 1. Produce a dataset and round-trip it through CSV --------------
    let world = Rect::xyxy(0.0, 0.0, 1000.0, 1000.0);
    let parcels = generate_parcel_rects(5_000, 0.2, 0.3, &world, 11);
    let mut csv = Vec::new();
    io::write_rect_csv(&mut csv, &parcels).unwrap();
    let loaded = io::read_rect_csv(&csv[..]).unwrap();
    assert_eq!(loaded, parcels);
    println!(
        "wrote + reloaded {} parcel rectangles ({} bytes of CSV)",
        loaded.len(),
        csv.len()
    );

    // --- 2. Index the loaded data and query it ---------------------------
    let index = RTSIndex::with_rects(&loaded, Default::default()).unwrap();
    let q = Rect::xyxy(100.0f32, 100.0, 180.0, 160.0);
    let hits = index.collect_range_query(Predicate::Intersects, &[q]);
    println!(
        "{} parcels intersect the {}x{} probe window; index uses {} KiB",
        hits.len(),
        q.extent(0),
        q.extent(1),
        index.memory_bytes() / 1024
    );
    let nearest = index.nearest(&Point::xy(-50.0, -50.0)).unwrap();
    println!(
        "nearest parcel to the depot outside the map: id {} at distance {:.1}",
        nearest.id, nearest.distance
    );

    // --- 3. Polygons through WKT -----------------------------------------
    let polys = polygons_from_rects(&loaded[..500], 12, 12);
    let mut wkt = Vec::new();
    io::write_wkt_polygons(&mut wkt, &polys).unwrap();
    let polys_back = io::read_wkt_polygons(&wkt[..]).unwrap();
    assert_eq!(polys_back, polys);
    let pip = PipIndex::build(polys_back, Default::default()).unwrap();
    let inside = pip.collect(&[polys[0].bounds().center()]);
    println!(
        "WKT round-trip ok; PIP found {} polygon(s) over the first centroid",
        inside.len()
    );

    // --- 4. Watch refit quality degrade (§6.7) ----------------------------
    let scattered = generate_rects(&SpiderParams::default(), 5_000, 13);
    let lifted: Vec<Rect<f32, 3>> = loaded.iter().map(|r| r.lift(0.0, 0.0)).collect();
    let mut gas = Gas::build(lifted.clone(), BuildOptions::default()).unwrap();
    let before = gas.quality();
    let moved: Vec<Rect<f32, 3>> = lifted
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if i % 10 == 0 {
                scattered[i].lift(0.0, 0.0)
            } else {
                *r
            }
        })
        .collect();
    gas.refit(moved).unwrap();
    let after = gas.quality();
    println!(
        "refit after scattering 10% of parcels: SAH cost {:.1} -> {:.1} \
         ({:.2}x), sibling overlap {:.4} -> {:.4}",
        before.sah_cost,
        after.sah_cost,
        after.sah_cost / before.sah_cost,
        before.sibling_overlap,
        after.sibling_overlap
    );
    assert!(after.sah_cost > before.sah_cost);
    println!("done ✓");
}
