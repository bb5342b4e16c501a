//! `point-contains`: forward-only traversal through the two-level IAS.
//!
//! The `UsCensus` profile at its full Table-2 size (248.9K small,
//! clustered rectangles) is inserted in generation order as 8K batches.
//! Generation order is spatially random, so all 31 GASes span the map
//! and every probe ray enters every GAS. One closed-loop client
//! alternates 4,096-item point batches and Range-Contains batches: no
//! multicast, no query-GAS build, no backward pass. This is the control
//! on which backward-only changes must not move.

use std::time::Instant;

use baselines::rtree::RTree;
use datasets::profiles::Dataset;
use geom::{Point, Rect};
use librts::{IndexError, Predicate, RTSIndex};

use super::{
    hash_points, hash_rects, insert_batches, rtree_digest, timed_requests, Batch, INSERT_BATCH,
};
use crate::check::{Digest, DigestHandler, InputHash};
use crate::client::{Answer, Kind, SingleClient, Write};
use crate::{sub_seed, RunConfig, Scale};

/// Timed batches per second of `--seconds`, about what the reference
/// host (2 vCPUs) answers.
const RATE: f64 = 24.0;
const WARMUP: usize = 4;

/// The generated inputs of one run. Even request ids are point
/// batches, odd ids Range-Contains batches.
pub struct PointContains {
    data: Vec<Rect<f32, 2>>,
    points: Vec<Point<f32, 2>>,
    contains: Vec<Rect<f32, 2>>,
    batch: usize,
    timed: usize,
}

impl PointContains {
    /// Generates data and requests from the run seed.
    pub fn new(cfg: &RunConfig) -> Self {
        let (scale, batch, timed) = match cfg.scale {
            Scale::Full => (1, 4096, timed_requests(cfg.seconds, RATE, 40)),
            Scale::Smoke => (250, 64, 4),
        };
        // Whole point/contains pairs, so both classes get equal shares.
        let timed = timed.next_multiple_of(2);
        let data = Dataset::UsCensus.generate(scale, sub_seed(cfg.seed, 1));
        let per_class = batch * (WARMUP + timed) / 2;
        let points = datasets::queries::point_queries(&data, per_class, sub_seed(cfg.seed, 2));
        let contains = datasets::queries::contains_queries(&data, per_class, sub_seed(cfg.seed, 3));
        Self {
            data,
            points,
            contains,
            batch,
            timed,
        }
    }

    fn batch_of(&self, id: usize) -> Batch<'_> {
        let items = id / 2 * self.batch..(id / 2 + 1) * self.batch;
        if id.is_multiple_of(2) {
            Batch::Point(&self.points[items])
        } else {
            Batch::Contains(&self.contains[items])
        }
    }
}

impl SingleClient for PointContains {
    type Index = RTSIndex<f32>;

    fn input_hash(&self) -> u64 {
        let mut h = InputHash::default();
        hash_rects(&mut h, &self.data);
        hash_points(&mut h, &self.points);
        hash_rects(&mut h, &self.contains);
        h.word(self.batch as u64);
        h.finish()
    }

    fn setup(&self) -> (RTSIndex<f32>, Vec<Write>) {
        insert_batches(&self.data, INSERT_BATCH)
    }

    fn warmup(&self) -> usize {
        WARMUP
    }

    fn timed(&self) -> usize {
        self.timed
    }

    fn request(&self, index: &RTSIndex<f32>, id: usize) -> Result<Answer, IndexError> {
        let handler = DigestHandler::default();
        let start = Instant::now();
        let (kind, items, report) = match self.batch_of(id) {
            Batch::Point(ps) => (Kind::Point, ps.len(), index.point_query(ps, &handler)),
            Batch::Contains(qs) => (
                Kind::Contains,
                qs.len(),
                index.try_range_query(Predicate::Contains, qs, &handler)?,
            ),
            Batch::Intersects(_) => unreachable!("point-contains sends no Range-Intersects"),
        };
        let end = Instant::now();
        Ok(Answer {
            kind,
            items: items as u64,
            digest: handler.digest(),
            report,
            call: (start, end),
        })
    }

    fn checked(&self) -> Vec<usize> {
        (0..self.timed).collect()
    }

    fn reference(&self, ids: &[usize]) -> Vec<Digest> {
        let rt = RTree::bulk_load(&self.data);
        exec::map_collect(ids.len(), 1, |i| {
            rtree_digest(&rt, self.batch_of(WARMUP + ids[i]), |r| r)
        })
    }

    fn bytes_per_rect(&self, index: &RTSIndex<f32>) -> Option<f64> {
        Some(index.memory_bytes() as f64 / index.len() as f64)
    }
}
