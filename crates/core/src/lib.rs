//! # librts — *LibRTS: A Spatial Indexing Library by Ray Tracing*
//!
//! A Rust reproduction of the PPoPP '25 paper by Geng, Lee and Zhang: a
//! general, mutable spatial index that executes point and range queries
//! as ray-tracing workloads on (here: simulated) RT cores.
//!
//! ## Query formulations (§3)
//!
//! - **Point query**: each point casts a short probe ray
//!   (`t_max = FLT_MIN`); an origin-inside-AABB hit means containment,
//!   boundary false positives are filtered in the IS shader.
//! - **Range-Contains**: reduced to a point query on the query
//!   rectangle's center, then filtered with the exact predicate.
//! - **Range-Intersects**: Theorem 1 turns the predicate into
//!   diagonal/anti-diagonal segment–rectangle tests executed as two ray
//!   casting passes (forward over the index, backward over a BVH built
//!   on the queries) with a both-passes deduplication rule.
//! - **Ray Multicast** (§3.4) balances the backward pass: queries are
//!   spread round-robin over `k` disjoint sub-spaces and each ray is
//!   duplicated `k` times, bounding per-thread intersections by `N/k`;
//!   a cost model with sampled selectivity picks `k`. A default index
//!   runs `k = 1`, the fastest choice on this host (see [`multicast`]);
//!   `MulticastMode::Auto` selects the paper's cost model.
//!
//! ## Mutability (§4)
//!
//! Each insert batch becomes its own GAS; an IAS links the batches, so
//! inserting never rebuilds existing BVHs. Deletes degenerate AABBs and
//! refit; updates overwrite cached coordinates and refit.
//!
//! ## Quick start
//!
//! ```
//! use geom::{Point, Rect};
//! use librts::{Predicate, RTSIndex};
//!
//! let mut index = RTSIndex::<f32>::new(Default::default());
//! index.insert(&[Rect::xyxy(0.0, 0.0, 4.0, 4.0)]).unwrap();
//!
//! // Point query.
//! assert_eq!(index.collect_point_query(&[Point::xy(1.0, 1.0)]), vec![(0, 0)]);
//!
//! // Range query with the Intersects predicate.
//! let hits = index.collect_range_query(Predicate::Intersects, &[Rect::xyxy(3.0, 3.0, 5.0, 5.0)]);
//! assert_eq!(hits, vec![(0, 0)]);
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod concurrent;
pub mod config;
pub mod deadline;
pub mod error;
pub mod handlers;
pub mod index;
pub mod index3d;
pub mod maintenance;
pub mod multicast;
pub mod nearest;
pub mod pip;
mod queries;
pub mod report;

pub use admission::{admit_read, admit_write, Priority};
pub use concurrent::{BatchOp, ConcurrentIndex, ConcurrentIndex3, SnapshotRef, WeakSnapshotRef};
pub use config::{DedupStrategy, IndexOptions, Predicate};
pub use deadline::with_deadline;
pub use error::IndexError;
pub use handlers::{
    CollectingHandler, CountingHandler, FnHandler, LockFreeCollectingHandler, QueryHandler,
    ResultPair,
};
pub use index::RTSIndex;
pub use index3d::RTSIndex3;
pub use maintenance::{
    GasDrift, MaintenanceAction, MaintenanceOutcome, MaintenancePolicy, MaintenanceReport,
};
pub use multicast::{MulticastAxis, MulticastConfig, MulticastMode};
pub use nearest::Nearest;
pub use pip::PipIndex;
pub use report::{Breakdown, MutationReport, Phase, QueryReport};
