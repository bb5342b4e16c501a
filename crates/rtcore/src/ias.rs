//! Instance Acceleration Structure (IAS): a top-level BVH over instances,
//! each linking a GAS with an SRT transform (§2.3). LibRTS uses an IAS
//! with identity transforms purely to get incremental insertions (§4.1):
//! rebuilding the IAS is cheap because it stores no primitives.

use std::sync::Arc;

use geom::{Coord, Rect, Srt};

use crate::bvh::{BuildQuality, Bvh};
use crate::bvh4::Bvh4;
use crate::gas::{AccelError, Gas};

/// One instance: a reference to a GAS, an object-to-world transform and a
/// user-assigned id (returned by `optixGetInstanceId` in shaders).
#[derive(Clone, Debug)]
pub struct Instance<C: Coord> {
    /// The shared bottom-level structure.
    pub gas: Arc<Gas<C>>,
    /// Object-to-world SRT matrix.
    pub transform: Srt<C>,
    /// User id reported to shaders.
    pub instance_id: u32,
    /// Visibility: invisible instances are skipped by traversal (OptiX
    /// visibility masks, degenerated to a boolean here).
    pub visible: bool,
}

impl<C: Coord> Instance<C> {
    /// Instance with identity transform — LibRTS's only usage (§4.1).
    pub fn identity(gas: Arc<Gas<C>>, instance_id: u32) -> Self {
        Self {
            gas,
            transform: Srt::identity(),
            instance_id,
            visible: true,
        }
    }

    /// World-space bounds of the instanced GAS.
    pub fn world_bounds(&self) -> Rect<C, 3> {
        let b = self.gas.bounds();
        if b.is_empty() {
            return b;
        }
        if self.transform.is_identity() {
            b
        } else {
            self.transform.apply_aabb(&b)
        }
    }
}

/// Per-instance precomputed traversal data.
#[derive(Clone, Debug)]
pub(crate) struct InstanceRecord<C: Coord> {
    pub gas: Arc<Gas<C>>,
    /// World-to-object transform (inverse of the instance SRT); `None`
    /// for identity (fast path: no ray transform).
    pub world_to_object: Option<Srt<C>>,
    /// The instance SRT itself, `None` for identity: the box walk maps
    /// a transformed instance's boxes to world space with it.
    pub object_to_world: Option<Srt<C>>,
    pub instance_id: u32,
    /// Rays never reach an invisible instance (its TLAS box is an
    /// unhittable sentinel), and the box walk skips it.
    pub visible: bool,
}

/// A built IAS. Holds shared references to its GASes, so GASes can be
/// reused across IAS rebuilds — the core of the insertion design.
#[derive(Clone, Debug)]
pub struct Ias<C: Coord> {
    /// Wide BVH over instance world bounds (one "primitive" per
    /// instance), collapsed from a binary build.
    pub(crate) tlas: Bvh4<C>,
    /// Root bounds of the TLAS — the whole scene.
    bounds: Rect<C, 3>,
    pub(crate) world_bounds: Vec<Rect<C, 3>>,
    pub(crate) records: Vec<InstanceRecord<C>>,
}

impl<C: Coord> Ias<C> {
    /// Builds an IAS over the given instances. Invisible instances are
    /// retained but never traversed. Instances whose transform is
    /// singular are rejected.
    pub fn build(instances: &[Instance<C>]) -> Result<Self, AccelError> {
        if let Err(fault) = chaos::inject("rtcore.ias_build") {
            return Err(AccelError::Injected { point: fault.point });
        }
        let mut world_bounds = Vec::with_capacity(instances.len());
        let mut records = Vec::with_capacity(instances.len());
        for inst in instances {
            let wb = if inst.visible {
                inst.world_bounds()
            } else {
                Rect::empty()
            };
            // Empty bounds (empty GAS or invisible) are legal; the TLAS
            // builder keeps them as unhittable leaves.
            let object_to_world = (!inst.transform.is_identity()).then_some(inst.transform);
            let world_to_object = object_to_world
                .map(|t| {
                    t.inverse().ok_or(AccelError::NonFiniteAabb {
                        index: records.len(),
                    })
                })
                .transpose()?;
            world_bounds.push(sanitize_empty(wb));
            records.push(InstanceRecord {
                gas: Arc::clone(&inst.gas),
                world_to_object,
                object_to_world,
                instance_id: inst.instance_id,
                visible: inst.visible,
            });
        }
        // IAS builds are intentionally cheap: fast-build quality, leaf=1.
        let binary = Bvh::build(&world_bounds, BuildQuality::PreferFastBuild, 1);
        obs::counter("rtcore.ias_builds").inc();
        obs::counter("rtcore.ias_instances").add(records.len() as u64);
        Ok(Self {
            tlas: Bvh4::collapse(&binary),
            bounds: binary.root_bounds(),
            world_bounds,
            records,
        })
    }

    /// Number of instances.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no instances are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// World bounds of the whole scene.
    #[inline]
    pub fn bounds(&self) -> Rect<C, 3> {
        self.bounds
    }

    /// Box walk over the scene: calls `emit(instance_id, prims)` for the
    /// primitives of every visible instance whose world-space box
    /// intersects `b` (closed), each primitive exactly once. The TLAS
    /// and each identity instance's GAS are walked with
    /// `Bvh4::walk_box`; a transformed instance (LibRTS never makes
    /// one) tests its boxes one by one, mapped to world space. Host-side:
    /// no device time, no [`crate::RayStats`].
    pub fn walk_box<F: FnMut(u32, &[u32])>(&self, b: &Rect<C, 3>, mut emit: F) {
        self.tlas.walk_box(b, &self.world_bounds, |instances| {
            for &i in instances {
                let rec = &self.records[i as usize];
                if !rec.visible {
                    continue;
                }
                let id = rec.instance_id;
                match &rec.object_to_world {
                    None => rec.gas.walk_box(b, |prims| emit(id, prims)),
                    Some(t) => {
                        for (p, aabb) in (0u32..).zip(rec.gas.aabbs()) {
                            if t.apply_aabb(aabb).intersects(b) {
                                emit(id, &[p]);
                            }
                        }
                    }
                }
            }
        });
    }

    /// Total primitives across all instanced GASes.
    pub fn total_primitives(&self) -> usize {
        self.records.iter().map(|r| r.gas.len()).sum()
    }

    /// Device-memory footprint of the top-level structure only: TLAS
    /// nodes, instance world bounds, and instance records — excluding
    /// the referenced GASes. Callers that own the GASes (like
    /// `RTSIndex`) sum their bottom-level memory themselves so shared
    /// structures are never double-counted.
    pub fn tlas_memory_bytes(&self) -> usize {
        self.tlas.memory_bytes()
            + self.world_bounds.len() * std::mem::size_of::<Rect<C, 3>>()
            + self.records.len() * std::mem::size_of::<InstanceRecord<C>>()
    }

    /// Device-memory footprint: the TLAS plus every *distinct* GAS
    /// (shared GASes are counted once — the point of instancing, §2.3).
    pub fn memory_bytes(&self) -> usize {
        let mut seen: Vec<*const Gas<C>> = Vec::with_capacity(self.records.len());
        let mut gas_bytes = 0usize;
        for rec in &self.records {
            let ptr = Arc::as_ptr(&rec.gas);
            if !seen.contains(&ptr) {
                seen.push(ptr);
                gas_bytes += rec.gas.memory_bytes();
            }
        }
        self.tlas_memory_bytes() + gas_bytes
    }
}

/// Replaces an empty rect (±MAX corners) by an unhittable degenerate box
/// at a fixed coordinate so BVH arithmetic stays finite.
fn sanitize_empty<C: Coord>(r: Rect<C, 3>) -> Rect<C, 3> {
    if r.is_empty() {
        Rect::point(geom::Point::splat(C::MAX))
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gas::BuildOptions;
    use geom::Point;

    fn gas_at(x: f32, y: f32) -> Arc<Gas<f32>> {
        let aabbs = vec![Rect::xyzxyz(x, y, 0.0, x + 1.0, y + 1.0, 0.0)];
        Arc::new(Gas::build(aabbs, BuildOptions::default()).unwrap())
    }

    #[test]
    fn identity_instances_bounds() {
        let instances = vec![
            Instance::identity(gas_at(0.0, 0.0), 0),
            Instance::identity(gas_at(10.0, 10.0), 1),
        ];
        let ias = Ias::build(&instances).unwrap();
        assert_eq!(ias.len(), 2);
        assert_eq!(ias.total_primitives(), 2);
        let b = ias.bounds();
        assert_eq!(b.min, Point::xyz(0.0, 0.0, 0.0));
        assert_eq!(b.max, Point::xyz(11.0, 11.0, 0.0));
    }

    #[test]
    fn transformed_instance_bounds() {
        let gas = gas_at(0.0, 0.0);
        let inst = Instance {
            gas,
            transform: Srt::translation(Point::xyz(5.0f32, 0.0, 0.0)),
            instance_id: 3,
            visible: true,
        };
        assert_eq!(
            inst.world_bounds(),
            Rect::xyzxyz(5.0, 0.0, 0.0, 6.0, 1.0, 0.0)
        );
        let ias = Ias::build(&[inst]).unwrap();
        assert!(ias.records[0].world_to_object.is_some());
    }

    #[test]
    fn invisible_instances_excluded_from_bounds() {
        let mut inst = Instance::identity(gas_at(100.0, 100.0), 0);
        inst.visible = false;
        let visible = Instance::identity(gas_at(0.0, 0.0), 1);
        let ias = Ias::build(&[inst, visible]).unwrap();
        // The invisible instance's sentinel box is far away at MAX; the
        // visible one determines the min corner.
        assert_eq!(ias.bounds().min, Point::xyz(0.0, 0.0, 0.0));
    }

    #[test]
    fn singular_transform_rejected() {
        let inst = Instance {
            gas: gas_at(0.0, 0.0),
            transform: Srt::scale(0.0f32, 1.0, 1.0),
            instance_id: 0,
            visible: true,
        };
        assert!(Ias::build(&[inst]).is_err());
    }

    #[test]
    fn instancing_shares_gas_memory() {
        let gas = gas_at(0.0, 0.0);
        let dedup = Ias::build(&[
            Instance::identity(Arc::clone(&gas), 0),
            Instance::identity(Arc::clone(&gas), 1),
            Instance::identity(Arc::clone(&gas), 2),
        ])
        .unwrap();
        let distinct = Ias::build(&[
            Instance::identity(gas_at(0.0, 0.0), 0),
            Instance::identity(gas_at(1.0, 0.0), 1),
            Instance::identity(gas_at(2.0, 0.0), 2),
        ])
        .unwrap();
        // Three links to one GAS must be cheaper than three GASes.
        assert!(dedup.memory_bytes() < distinct.memory_bytes());
    }

    #[test]
    fn gas_shared_across_rebuilds() {
        let gas = gas_at(0.0, 0.0);
        let i1 = vec![Instance::identity(Arc::clone(&gas), 0)];
        let ias1 = Ias::build(&i1).unwrap();
        let i2 = vec![
            Instance::identity(Arc::clone(&gas), 0),
            Instance::identity(gas_at(5.0, 5.0), 1),
        ];
        let ias2 = Ias::build(&i2).unwrap();
        assert_eq!(ias1.total_primitives(), 1);
        assert_eq!(ias2.total_primitives(), 2);
        // Same GAS allocation is shared (pointer equality).
        assert!(Arc::ptr_eq(&ias1.records[0].gas, &ias2.records[0].gas));
    }

    #[test]
    fn empty_ias() {
        let ias = Ias::<f32>::build(&[]).unwrap();
        assert!(ias.is_empty());
        assert!(ias.bounds().is_empty());
    }
}
