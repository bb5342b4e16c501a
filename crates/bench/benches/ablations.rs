//! Ablation benches for the design choices called out in DESIGN.md §5:
//!
//! 1. forward-check dedup (Algorithm 1) vs hash post-processing;
//! 2. SAH (`PREFER_FAST_TRACE`) vs Morton (`PREFER_FAST_BUILD`) GAS;
//! 3. monolithic single-GAS index vs a many-batch IAS (the price of
//!    mutability, §4.1);
//! 4. refit vs rebuild after updates (§4.2 / §6.7);
//! 5. cost-model k vs fixed extreme k (multicast predictor quality);
//! 6. x-offset vs z-plane sub-space encoding (footnote 4).

use bench::EvalConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use datasets::{queries, Dataset};
use geom::Point;
use librts::{
    CountingHandler, DedupStrategy, IndexOptions, MulticastAxis, MulticastConfig, MulticastMode,
    Predicate, RTSIndex,
};
use rtcore::BuildQuality;
use std::hint::black_box;

fn opts() -> IndexOptions {
    bench::figures::paper_options()
}

fn bench_ablations(c: &mut Criterion) {
    let cfg = EvalConfig::smoke();
    let rects = Dataset::UsCensus.generate(cfg.scale, cfg.seed);
    let iqs = queries::intersects_queries(&rects, cfg.queries(10_000), 0.001, cfg.seed + 3);
    let pts = queries::point_queries(&rects, cfg.queries(100_000), cfg.seed + 1);

    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);

    // 1. Dedup strategy.
    for (label, dedup) in [
        ("dedup_forward_check", DedupStrategy::ForwardCheck),
        ("dedup_hash_postprocess", DedupStrategy::HashPostProcess),
    ] {
        let index = RTSIndex::with_rects(&rects, IndexOptions { dedup, ..opts() }).unwrap();
        g.bench_function(label, |b| {
            b.iter(|| {
                let h = CountingHandler::new();
                index.range_query(Predicate::Intersects, black_box(&iqs), &h);
                black_box(h.count())
            })
        });
    }

    // 2. GAS build quality.
    for (label, quality) in [
        ("gas_sah_fast_trace", BuildQuality::PreferFastTrace),
        ("gas_morton_fast_build", BuildQuality::PreferFastBuild),
    ] {
        let index = RTSIndex::with_rects(&rects, IndexOptions { quality, ..opts() }).unwrap();
        g.bench_function(format!("{label}_point_query"), |b| {
            b.iter(|| {
                let h = CountingHandler::new();
                index.point_query(black_box(&pts), &h);
                black_box(h.count())
            })
        });
    }

    // 3. Monolithic vs fragmented IAS.
    let mono = RTSIndex::with_rects(&rects, opts()).unwrap();
    let mut frag = RTSIndex::<f32>::new(opts());
    for chunk in rects.chunks(rects.len().div_ceil(32)) {
        frag.insert(chunk).unwrap();
    }
    g.bench_function("ias_monolithic_1_batch", |b| {
        b.iter(|| {
            let h = CountingHandler::new();
            mono.point_query(black_box(&pts), &h);
            black_box(h.count())
        })
    });
    g.bench_function("ias_fragmented_32_batches", |b| {
        b.iter(|| {
            let h = CountingHandler::new();
            frag.point_query(black_box(&pts), &h);
            black_box(h.count())
        })
    });

    // 4. Refit vs rebuild after a 2% scatter update.
    let ids: Vec<u32> = (0..(rects.len() / 50) as u32).collect();
    let moved: Vec<_> = ids
        .iter()
        .map(|&i| rects[i as usize].translated(&Point::xy(2_000.0, -1_500.0)))
        .collect();
    g.bench_function("update_refit_only", |b| {
        b.iter_batched(
            || RTSIndex::with_rects(&rects, opts()).unwrap(),
            |mut index| {
                index.update(&ids, &moved).unwrap();
                black_box(index.len())
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.bench_function("update_then_rebuild", |b| {
        b.iter_batched(
            || RTSIndex::with_rects(&rects, opts()).unwrap(),
            |mut index| {
                index.update(&ids, &moved).unwrap();
                index.rebuild();
                black_box(index.len())
            },
            criterion::BatchSize::LargeInput,
        )
    });

    // 5. Multicast: cost-model Auto vs pathological fixed k.
    for (label, mode) in [
        ("multicast_auto", MulticastMode::Auto),
        ("multicast_off", MulticastMode::Off),
        ("multicast_k512", MulticastMode::Fixed(512)),
    ] {
        let index = RTSIndex::with_rects(
            &rects,
            IndexOptions {
                multicast: MulticastConfig {
                    mode,
                    ..Default::default()
                },
                ..opts()
            },
        )
        .unwrap();
        g.bench_function(label, |b| {
            b.iter(|| {
                let h = CountingHandler::new();
                index.range_query(Predicate::Intersects, black_box(&iqs), &h);
                black_box(h.count())
            })
        });
    }

    // 6. Sub-space encoding axis (footnote 4).
    for (label, axis) in [
        ("multicast_axis_x_offset", MulticastAxis::XOffset),
        ("multicast_axis_z_plane", MulticastAxis::ZPlane),
    ] {
        let index = RTSIndex::with_rects(
            &rects,
            IndexOptions {
                multicast: MulticastConfig {
                    mode: MulticastMode::Fixed(16),
                    axis,
                    ..Default::default()
                },
                ..opts()
            },
        )
        .unwrap();
        g.bench_function(label, |b| {
            b.iter(|| {
                let h = CountingHandler::new();
                index.range_query(Predicate::Intersects, black_box(&iqs), &h);
                black_box(h.count())
            })
        });
    }

    g.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
