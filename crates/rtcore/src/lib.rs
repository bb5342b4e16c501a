//! # rtcore — a software-simulated OptiX-like ray-tracing runtime
//!
//! This crate is the substitute substrate for NVIDIA OptiX + RT cores
//! (see DESIGN.md §2). It reproduces the *programming model* LibRTS is
//! built on:
//!
//! - custom **AABB primitives** in 3-D space ([`Gas`], §2.2–§2.3 of the
//!   paper),
//! - opaque **BVH builds** with fast-build / fast-trace quality knobs and
//!   **refit** (`ALLOW_UPDATE`) but no insert/delete — the constraint
//!   that forces LibRTS's instancing design,
//! - an **IAS** linking GASes via SRT transforms ([`Ias`], §2.3),
//! - the **single-ray shader pipeline** ([`RtProgram`]: IS / AH / CH /
//!   MS callbacks with per-ray payloads, §2.4),
//! - parallel **launches** ([`Device::launch`]) over the `exec` work-stealing pool, and
//! - **hardware counters + a SIMT cost model** ([`CostModel`]) that
//!   convert exact operation counts into simulated RT-core time, pricing
//!   warp divergence — the phenomenon Ray Multicast (§3.4) attacks.
//!
//! # Writing an RT program
//!
//! The shader pipeline mirrors OptiX: implement [`RtProgram`] (the IS
//! shader is mandatory, AH/CH/MS default sensibly), build a [`Gas`]
//! over AABB primitives, and launch rays:
//!
//! ```
//! use geom::{Point, Ray, Rect};
//! use rtcore::{BuildOptions, Device, Gas, HitContext, IsResult, RtProgram};
//! use std::sync::atomic::{AtomicU32, Ordering};
//!
//! /// Counts how many primitive AABBs contain each ray origin —
//! /// the core of LibRTS's point query (§3.1 of the paper).
//! struct CountContaining<'a> {
//!     hits: &'a AtomicU32,
//! }
//!
//! impl RtProgram<f32> for CountContaining<'_> {
//!     type Payload = Point<f32, 3>; // the query point rides along
//!
//!     fn intersection(
//!         &self,
//!         ctx: &HitContext<'_, f32>,
//!         origin: &mut Self::Payload,
//!     ) -> IsResult<f32> {
//!         // IS sees *potential* hits; filter exactly, like LibRTS.
//!         if ctx.aabb.contains_point(origin) {
//!             self.hits.fetch_add(1, Ordering::Relaxed);
//!         }
//!         IsResult::Ignore
//!     }
//! }
//!
//! let boxes = vec![
//!     Rect::xyzxyz(0.0f32, 0.0, 0.0, 2.0, 2.0, 0.0),
//!     Rect::xyzxyz(5.0, 5.0, 0.0, 6.0, 6.0, 0.0),
//! ];
//! let gas = Gas::build(boxes, BuildOptions::default()).unwrap();
//! let device = Device::new();
//! let hits = AtomicU32::new(0);
//! let program = CountContaining { hits: &hits };
//!
//! let report = device.launch::<f32, _>(2, |i, session| {
//!     let mut p = Point::xyz(i as f32 * 5.0 + 0.5, i as f32 * 5.0 + 0.5, 0.0);
//!     let ray = Ray::point_probe(p);
//!     session.trace(&gas, &program, &ray, &mut p);
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 2);
//! assert_eq!(report.totals.rays, 2);
//! assert!(report.device_time.as_nanos() > 0);
//! ```

#![warn(missing_docs)]

pub mod bvh;
pub mod bvh4;
pub mod cache;
pub mod gas;
pub mod ias;
pub mod launch;
pub mod program;
pub mod quality;
mod scratch;
pub mod stats;

pub use bvh::{BuildQuality, Bvh, Control};
pub use bvh4::Bvh4;
pub use cache::GasCache;
pub use gas::{AccelError, BuildOptions, Gas};
pub use ias::{Ias, Instance};
pub use launch::{Device, TraceSession, Traversable};
pub use program::{AnyHitResult, ClosestHit, HitContext, IsResult, RtProgram};
pub use quality::QualityReport;
pub use stats::{CostModel, LaunchReport, RayStats, TraversalBackend, WARP_SIZE};
