//! Index configuration.

use rtcore::{BuildQuality, CostModel};

use crate::multicast::MulticastConfig;

/// How Range-Intersects avoids emitting a pair from both casting passes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DedupStrategy {
    /// Algorithm 1 line 19 (the paper's method): the forward pass skips
    /// pairs the backward pass will also discover, so the union is
    /// duplicate-free by construction.
    #[default]
    ForwardCheck,
    /// Strawman for the ablation study: both passes emit every hit and a
    /// hash-set post-process removes duplicates — the "computationally
    /// expensive" alternative §3.3 argues against.
    HashPostProcess,
}

/// Options controlling an [`crate::RTSIndex`].
#[derive(Clone, Debug)]
pub struct IndexOptions {
    /// GAS build quality. The default mirrors OptiX's default build
    /// (quality path); LibRTS lets OptiX pick.
    pub quality: BuildQuality,
    /// Max primitives per BVH leaf.
    pub leaf_size: usize,
    /// Ray-Multicast configuration for the Range-Intersects backward
    /// casting pass (§3.4). Defaults to `k = 1` (`MulticastMode::Off`),
    /// the fastest choice on this host, where a warp costs the sum of its
    /// lanes; the paper's cost-model `k` is
    /// `MulticastConfig { mode: MulticastMode::Auto, ..Default::default() }`.
    pub multicast: MulticastConfig,
    /// Cost model used for simulated device timing.
    pub cost_model: CostModel,
    /// Range-Intersects deduplication strategy (ablation knob).
    pub dedup: DedupStrategy,
    /// Largest batch a [`crate::RTSIndex::compact`] re-split produces.
    /// Compaction used to collapse every survivor into one mega-batch
    /// GAS, after which any later mutation refit the *entire* index;
    /// bounding the batch size keeps post-compact refit work local to
    /// the touched batch.
    pub compact_batch_size: usize,
}

impl Default for IndexOptions {
    fn default() -> Self {
        Self {
            quality: BuildQuality::PreferFastTrace,
            leaf_size: 4,
            multicast: MulticastConfig::default(),
            cost_model: CostModel::default(),
            dedup: DedupStrategy::default(),
            compact_batch_size: 4096,
        }
    }
}

/// The spatial predicate of a range query (§2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Predicate {
    /// `Contains(r, s)`: the indexed rectangle contains the query
    /// rectangle (Definition 2).
    Contains,
    /// `Intersects(r, s)`: the rectangles overlap (Definition 3).
    Intersects,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let o = IndexOptions::default();
        assert_eq!(o.quality, BuildQuality::PreferFastTrace);
        assert!(o.leaf_size >= 1);
    }
}
