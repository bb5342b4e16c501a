//! `airspace-3d`: the separate 3-D engine.
//!
//! `RTSIndex3` (one GAS) over 150K airspace boxes: controlled volumes
//! stacked around airports plus restricted volumes scattered over a
//! 400 km square. One closed-loop client alternates 3-D point batches
//! (aircraft positions) and 3-D Range-Intersects batches (flight
//! corridors, answered by the Minkowski center-probe). `index3d` has its
//! own query code, so without this workload it would go unmeasured.
//!
//! The reference is the brute-force `conformance::Oracle<3>`, which is
//! too slow for every request; it checks a fixed seeded sample of them.

use std::time::Instant;

use conformance::Oracle;
use geom::{Point, Rect};
use librts::{IndexError, IndexOptions, RTSIndex3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{hash_points, hash_rects, timed_requests};
use crate::check::{Digest, DigestHandler, InputHash};
use crate::client::{Answer, Kind, SingleClient, Write};
use crate::{sub_seed, RunConfig, Scale};

/// Timed batches per second of `--seconds`. The reference host (2 vCPUs)
/// answers about 70; fewer than 1,000 requests in 20 seconds keep the
/// tail at p95, which has room for ten samples beyond it.
const RATE: f64 = 48.0;
const WARMUP: usize = 4;
/// Requests of each class the oracle checks.
const CHECKED_PER_CLASS: usize = 2;

const WORLD: f32 = 400_000.0;
const CEILING: f32 = 15_000.0;
const AIRPORTS: usize = 60;

/// The generated inputs of one run. Even request ids are point
/// batches, odd ids Range-Intersects batches.
pub struct Airspace {
    boxes: Vec<Rect<f32, 3>>,
    points: Vec<Point<f32, 3>>,
    corridors: Vec<Rect<f32, 3>>,
    point_batch: usize,
    corridor_batch: usize,
    timed: usize,
    seed: u64,
}

/// A position near a random airport (60 %) or anywhere (40 %).
fn anchor(rng: &mut StdRng, airports: &[(f32, f32)]) -> (f32, f32) {
    if rng.gen_bool(0.6) {
        let (ax, ay) = airports[rng.gen_range(0..airports.len())];
        // Sum of uniforms: a cheap bell around the airport, ~10 km wide.
        let spread = |rng: &mut StdRng| {
            (0..3)
                .map(|_| rng.gen_range(-6_000.0f32..6_000.0))
                .sum::<f32>()
        };
        (
            (ax + spread(rng)).clamp(0.0, WORLD),
            (ay + spread(rng)).clamp(0.0, WORLD),
        )
    } else {
        (rng.gen_range(0.0..WORLD), rng.gen_range(0.0..WORLD))
    }
}

impl Airspace {
    /// Generates data and requests from the run seed.
    pub fn new(cfg: &RunConfig) -> Self {
        // A corridor batch costs one probe per box whatever its size;
        // 12,288 points cost about the same, so the two classes share
        // one latency range and p50 and p95 sit inside both.
        let (n_boxes, point_batch, corridor_batch, timed) = match cfg.scale {
            Scale::Full => (150_000, 12_288, 64, timed_requests(cfg.seconds, RATE, 40)),
            Scale::Smoke => (2_000, 64, 8, 4),
        };
        let timed = timed.next_multiple_of(2);
        let mut rng = StdRng::seed_from_u64(sub_seed(cfg.seed, 1));
        let airports: Vec<(f32, f32)> = (0..AIRPORTS)
            .map(|_| (rng.gen_range(0.0..WORLD), rng.gen_range(0.0..WORLD)))
            .collect();
        let boxes = (0..n_boxes)
            .map(|_| {
                let (x, y) = anchor(&mut rng, &airports);
                let w = 300.0 + rng.gen::<f32>().powi(3) * 8_000.0;
                let d = 300.0 + rng.gen::<f32>().powi(3) * 8_000.0;
                let z = rng.gen_range(0.0..CEILING * 0.8);
                let h = 150.0 + rng.gen::<f32>() * 2_500.0;
                Rect::xyzxyz(x, y, z, x + w, y + d, z + h)
            })
            .collect();
        let per_class = (WARMUP + timed) / 2;
        let mut rng = StdRng::seed_from_u64(sub_seed(cfg.seed, 2));
        let points = (0..per_class * point_batch)
            .map(|_| {
                let (x, y) = anchor(&mut rng, &airports);
                Point::xyz(x, y, rng.gen_range(0.0..CEILING))
            })
            .collect();
        let corridors = (0..per_class * corridor_batch)
            .map(|_| {
                let (x, y) = anchor(&mut rng, &airports);
                let z = rng.gen_range(0.0..CEILING * 0.9);
                // A straight leg along x or y: long, narrow and shallow.
                let (w, d) = if rng.gen_bool(0.5) {
                    (20_000.0, 600.0)
                } else {
                    (600.0, 20_000.0)
                };
                Rect::xyzxyz(x, y, z, x + w, y + d, z + 300.0)
            })
            .collect();
        Self {
            boxes,
            points,
            corridors,
            point_batch,
            corridor_batch,
            timed,
            seed: cfg.seed,
        }
    }

    fn points_of(&self, id: usize) -> &[Point<f32, 3>] {
        let b = id / 2;
        &self.points[b * self.point_batch..(b + 1) * self.point_batch]
    }

    fn corridors_of(&self, id: usize) -> &[Rect<f32, 3>] {
        let b = id / 2;
        &self.corridors[b * self.corridor_batch..(b + 1) * self.corridor_batch]
    }
}

impl SingleClient for Airspace {
    type Index = RTSIndex3<f32>;

    fn input_hash(&self) -> u64 {
        let mut h = InputHash::default();
        hash_rects(&mut h, &self.boxes);
        hash_points(&mut h, &self.points);
        hash_rects(&mut h, &self.corridors);
        h.finish()
    }

    fn setup(&self) -> (RTSIndex3<f32>, Vec<Write>) {
        let start = Instant::now();
        let index = RTSIndex3::build(&self.boxes, IndexOptions::default())
            .expect("generated boxes are valid");
        let end = Instant::now();
        let write = Write {
            name: "index3d.build",
            rects: self.boxes.len(),
            call: (start, end),
            reported: end - start,
        };
        (index, vec![write])
    }

    fn warmup(&self) -> usize {
        WARMUP
    }

    fn timed(&self) -> usize {
        self.timed
    }

    fn request(&self, index: &RTSIndex3<f32>, id: usize) -> Result<Answer, IndexError> {
        let handler = DigestHandler::default();
        let start = Instant::now();
        let (kind, items, report) = if id.is_multiple_of(2) {
            let ps = self.points_of(id);
            (Kind::Point3, ps.len(), index.point_query(ps, &handler))
        } else {
            let qs = self.corridors_of(id);
            (
                Kind::Intersects3,
                qs.len(),
                index.intersects_query(qs, &handler),
            )
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

    /// A fixed seeded sample: [`CHECKED_PER_CLASS`] timed requests of
    /// each class.
    fn checked(&self) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(sub_seed(self.seed, 3));
        let pairs = self.timed / 2;
        let mut ids: Vec<usize> = (0..CHECKED_PER_CLASS)
            .flat_map(|_| {
                let pair = rng.gen_range(0..pairs);
                [2 * pair, 2 * pair + 1]
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn reference(&self, ids: &[usize]) -> Vec<Digest> {
        let mut oracle = Oracle::<3>::new();
        oracle.insert(&self.boxes);
        // The scan is O(boxes × queries): split each batch into chunks
        // the client's threads share.
        const CHUNK: usize = 16;
        ids.iter()
            .map(|&i| {
                let id = WARMUP + i;
                let n = if id.is_multiple_of(2) {
                    self.point_batch
                } else {
                    self.corridor_batch
                };
                let parts = exec::map_collect(n.div_ceil(CHUNK), 1, |c| {
                    let lo = c * CHUNK;
                    let hi = (lo + CHUNK).min(n);
                    let pairs = if id.is_multiple_of(2) {
                        oracle.point_query(&self.points_of(id)[lo..hi])
                    } else {
                        oracle.intersects(&self.corridors_of(id)[lo..hi])
                    };
                    let mut d = Digest::default();
                    for (r, q) in pairs {
                        d.add(r, q + lo as u32);
                    }
                    d
                });
                parts.into_iter().fold(Digest::default(), Digest::merge)
            })
            .collect()
    }

    fn bytes_per_rect(&self, _index: &RTSIndex3<f32>) -> Option<f64> {
        None
    }
}
