//! `range-intersects`: Range-Intersects batches over heavy-tailed
//! rectangles.
//!
//! About 250K `OsmLakes` rectangles (heavy-tailed extents) are inserted
//! as 8K-rectangle batches, 31 GASes. One closed-loop client sends
//! 500-query batches at 0.1 % selectivity, never repeated, so every
//! batch misses the query-GAS cache and pays k-prediction, the
//! query-side BVH build, the forward pass and the multicast backward
//! pass. No writes after set-up.

use std::time::Instant;

use baselines::rtree::RTree;
use datasets::profiles::Dataset;
use geom::Rect;
use librts::{IndexError, Predicate, RTSIndex};

use super::{hash_rects, insert_batches, rtree_digest, timed_requests, Batch, INSERT_BATCH};
use crate::check::{Digest, DigestHandler, InputHash};
use crate::client::{Answer, Kind, SingleClient, Write};
use crate::{sub_seed, RunConfig, Scale};

/// Timed batches per second of `--seconds`, about what the reference
/// host (2 vCPUs) answers. 20 seconds give 210 batches, so the p95
/// keeps more than ten samples beyond it.
const RATE: f64 = 10.5;
const WARMUP: usize = 4;
const SELECTIVITY: f64 = 0.001;

/// The generated inputs of one run.
pub struct RangeIntersects {
    data: Vec<Rect<f32, 2>>,
    queries: Vec<Rect<f32, 2>>,
    batch: usize,
    timed: usize,
}

impl RangeIntersects {
    /// Generates data and requests from the run seed.
    pub fn new(cfg: &RunConfig) -> Self {
        let (scale, batch, timed) = match cfg.scale {
            // 8.3M / 33 = 251,515 rectangles.
            Scale::Full => (33, 500, timed_requests(cfg.seconds, RATE, 20)),
            Scale::Smoke => (2_000, 40, 3),
        };
        let data = Dataset::OsmLakes.generate(scale, sub_seed(cfg.seed, 1));
        let queries = datasets::queries::intersects_queries(
            &data,
            batch * (WARMUP + timed),
            SELECTIVITY,
            sub_seed(cfg.seed, 2),
        );
        Self {
            data,
            queries,
            batch,
            timed,
        }
    }

    fn batch_of(&self, id: usize) -> &[Rect<f32, 2>] {
        &self.queries[id * self.batch..(id + 1) * self.batch]
    }
}

impl SingleClient for RangeIntersects {
    type Index = RTSIndex<f32>;

    fn input_hash(&self) -> u64 {
        let mut h = InputHash::default();
        hash_rects(&mut h, &self.data);
        hash_rects(&mut h, &self.queries);
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
        let queries = self.batch_of(id);
        let handler = DigestHandler::default();
        let start = Instant::now();
        let report = index.try_range_query(Predicate::Intersects, queries, &handler)?;
        let end = Instant::now();
        Ok(Answer {
            kind: Kind::Intersects,
            items: queries.len() as u64,
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
            rtree_digest(
                &rt,
                Batch::Intersects(self.batch_of(WARMUP + ids[i])),
                |r| r,
            )
        })
    }

    fn bytes_per_rect(&self, index: &RTSIndex<f32>) -> Option<f64> {
        Some(index.memory_bytes() as f64 / index.len() as f64)
    }
}
