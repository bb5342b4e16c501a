//! The four workloads. Each generates its data and its whole request
//! sequence from the run seed when it is constructed, before anything
//! is timed.

pub mod airspace;
pub mod churn;
pub mod contains;
pub mod intersects;

use std::time::Instant;

use baselines::rtree::RTree;
use geom::{Point, Rect};
use librts::RTSIndex;

use crate::check::Digest;
use crate::client::Write;

/// Rectangles per insert batch of the 2-D single-client workloads:
/// one GAS each, so about 250K rectangles make 31 GASes.
pub const INSERT_BATCH: usize = 8192;

/// Request count of a timed window: `rate` requests per second on the
/// reference host (2 vCPUs) for `seconds`, at least `min`.
pub fn timed_requests(seconds: u64, rate: f64, min: usize) -> usize {
    ((seconds as f64 * rate).round() as usize).max(min)
}

/// Builds an index from `data` in `batch`-rectangle inserts, in
/// generation order, one GAS each.
pub fn insert_batches(data: &[Rect<f32, 2>], batch: usize) -> (RTSIndex<f32>, Vec<Write>) {
    let mut index = RTSIndex::new(Default::default());
    let writes = data
        .chunks(batch)
        .map(|chunk| {
            let start = Instant::now();
            let (_, report) = index
                .insert_timed(chunk)
                .expect("generated rectangles are valid");
            Write {
                name: "index.insert",
                rects: chunk.len(),
                call: (start, Instant::now()),
                reported: report.wall_time,
            }
        })
        .collect();
    (index, writes)
}

/// One 2-D query batch, as the R-tree reference answers it.
pub enum Batch<'a> {
    /// Point query.
    Point(&'a [Point<f32, 2>]),
    /// Range-Contains.
    Contains(&'a [Rect<f32, 2>]),
    /// Range-Intersects.
    Intersects(&'a [Rect<f32, 2>]),
}

/// Digest of `batch` answered by the R-tree; `id_of` maps R-tree ids to
/// index ids.
pub fn rtree_digest(rt: &RTree<f32>, batch: Batch<'_>, id_of: impl Fn(u32) -> u32) -> Digest {
    let mut d = Digest::default();
    let mut out = Vec::new();
    let mut fold = |qi: usize, out: &mut Vec<u32>| {
        for &r in out.iter() {
            d.add(id_of(r), qi as u32);
        }
        out.clear();
    };
    match batch {
        Batch::Point(ps) => ps.iter().enumerate().for_each(|(i, p)| {
            rt.query_point(p, &mut out);
            fold(i, &mut out);
        }),
        Batch::Contains(qs) => qs.iter().enumerate().for_each(|(i, q)| {
            rt.query_contains(q, &mut out);
            fold(i, &mut out);
        }),
        Batch::Intersects(qs) => qs.iter().enumerate().for_each(|(i, q)| {
            rt.query_intersects(q, &mut out);
            fold(i, &mut out);
        }),
    }
    d
}

/// Hashes 2-D rectangles into `h`.
pub fn hash_rects<const D: usize>(h: &mut crate::check::InputHash, rects: &[Rect<f32, D>]) {
    for r in rects {
        h.floats(r.min.coords.iter().chain(&r.max.coords).copied());
    }
}

/// Hashes points into `h`.
pub fn hash_points<const D: usize>(h: &mut crate::check::InputHash, points: &[Point<f32, D>]) {
    for p in points {
        h.floats(p.coords.iter().copied());
    }
}
