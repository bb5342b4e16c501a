//! Edge-case and failure-injection tests for `RTSIndex`.

use geom::{Point, Rect};
use librts::{
    CollectingHandler, CountingHandler, DedupStrategy, IndexError, IndexOptions,
    LockFreeCollectingHandler, MulticastConfig, MulticastMode, Predicate, RTSIndex, RTSIndex3,
};

fn r(a: f32, b: f32, c: f32, d: f32) -> Rect<f32, 2> {
    Rect::xyxy(a, b, c, d)
}

/// The paper's configuration: the cost model picks the multicast `k`.
fn paper_options() -> IndexOptions {
    IndexOptions {
        multicast: MulticastConfig {
            mode: MulticastMode::Auto,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn empty_batch_insert_is_noop() {
    let mut index = RTSIndex::<f32>::new(IndexOptions::default());
    let ids = index.insert(&[]).unwrap();
    assert!(ids.is_empty());
    assert_eq!(index.batch_count(), 0);
    index.insert(&[r(0.0, 0.0, 1.0, 1.0)]).unwrap();
    let ids2 = index.insert(&[]).unwrap();
    assert_eq!(ids2, 1..1);
    assert_eq!(index.batch_count(), 1);
}

#[test]
fn delete_entire_batch_then_query() {
    let mut index = RTSIndex::<f32>::new(IndexOptions::default());
    index
        .insert(&[r(0.0, 0.0, 1.0, 1.0), r(2.0, 2.0, 3.0, 3.0)])
        .unwrap();
    index.insert(&[r(10.0, 10.0, 11.0, 11.0)]).unwrap();
    index.delete(&[0, 1]).unwrap();
    assert_eq!(index.len(), 1);
    // The emptied batch must not produce hits; the surviving one must.
    assert_eq!(index.collect_point_query(&[Point::xy(0.5, 0.5)]), vec![]);
    assert_eq!(
        index.collect_point_query(&[Point::xy(10.5, 10.5)]),
        vec![(2, 0)]
    );
}

#[test]
fn delete_spanning_batches_in_one_call() {
    let mut index = RTSIndex::<f32>::new(IndexOptions::default());
    for b in 0..5 {
        let base = b as f32 * 10.0;
        index
            .insert(&[r(base, 0.0, base + 1.0, 1.0), r(base, 5.0, base + 1.0, 6.0)])
            .unwrap();
    }
    // One id from each batch, interleaved order.
    index.delete(&[8, 0, 4, 2, 6]).unwrap();
    assert_eq!(index.len(), 5);
    let survivors = index.collect_point_query(&[
        Point::xy(0.5, 5.5),
        Point::xy(10.5, 5.5),
        Point::xy(20.5, 5.5),
        Point::xy(30.5, 5.5),
        Point::xy(40.5, 5.5),
    ]);
    assert_eq!(survivors, vec![(1, 0), (3, 1), (5, 2), (7, 3), (9, 4)]);
    // All minima are gone.
    assert_eq!(index.collect_point_query(&[Point::xy(0.5, 0.5)]), vec![]);
}

#[test]
fn update_to_same_position_is_stable() {
    let rects = vec![r(0.0, 0.0, 2.0, 2.0), r(5.0, 5.0, 6.0, 6.0)];
    let mut index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    for _ in 0..10 {
        index.update(&[0, 1], &rects).unwrap();
    }
    assert_eq!(
        index.collect_point_query(&[Point::xy(1.0, 1.0), Point::xy(5.5, 5.5)]),
        vec![(0, 0), (1, 1)]
    );
}

#[test]
fn repeated_update_shrink_grow_cycle() {
    let base = r(10.0, 10.0, 20.0, 20.0);
    let mut index = RTSIndex::with_rects(&[base], IndexOptions::default()).unwrap();
    for i in 1..=20 {
        let s = if i % 2 == 0 { 2.0 } else { 0.25 };
        let next = index.get(0).unwrap().scaled_about_center(s);
        index.update(&[0], &[next]).unwrap();
    }
    // After 10 shrinks (0.25x) and 10 grows (2x) the rect is tiny but
    // still centered at (15, 15).
    let got = index.get(0).unwrap();
    assert!((got.center().x() - 15.0).abs() < 1e-3);
    assert_eq!(
        index.collect_point_query(&[Point::xy(15.0, 15.0)]),
        vec![(0, 0)]
    );
}

#[test]
fn zero_area_query_rect_intersects_only_containers() {
    let rects = vec![r(0.0, 0.0, 4.0, 4.0), r(10.0, 10.0, 12.0, 12.0)];
    let index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    // A degenerate (point) query rectangle.
    let q = Rect::point(Point::xy(2.0, 2.0));
    assert_eq!(
        index.collect_range_query(Predicate::Intersects, &[q]),
        vec![(0, 0)]
    );
    // Contains (Definition 2) requires a strictly non-degenerate inner
    // rect, so the degenerate query matches nothing.
    assert_eq!(index.collect_range_query(Predicate::Contains, &[q]), vec![]);
}

#[test]
fn query_rect_larger_than_world() {
    let rects = vec![r(0.0, 0.0, 1.0, 1.0), r(100.0, 100.0, 101.0, 101.0)];
    let index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    let world = r(-1e6, -1e6, 1e6, 1e6);
    assert_eq!(
        index.collect_range_query(Predicate::Intersects, &[world]),
        vec![(0, 0), (1, 0)]
    );
    assert_eq!(
        index.collect_range_query(Predicate::Contains, &[world]),
        vec![]
    );
}

#[test]
fn identical_rects_all_reported() {
    let rects = vec![r(1.0, 1.0, 2.0, 2.0); 100];
    let index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    let hits = index.collect_point_query(&[Point::xy(1.5, 1.5)]);
    assert_eq!(hits.len(), 100);
    let ihits = index.collect_range_query(Predicate::Intersects, &[r(0.0, 0.0, 3.0, 3.0)]);
    assert_eq!(ihits.len(), 100);
}

#[test]
fn negative_coordinates_work() {
    let rects = vec![r(-100.0, -100.0, -90.0, -90.0), r(-5.0, -5.0, 5.0, 5.0)];
    let index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    assert_eq!(
        index.collect_point_query(&[Point::xy(-95.0, -95.0), Point::xy(0.0, 0.0)]),
        vec![(0, 0), (1, 1)]
    );
    let q = r(-200.0, -200.0, -1.0, -1.0);
    assert_eq!(
        index.collect_range_query(Predicate::Intersects, &[q]),
        vec![(0, 0), (1, 0)]
    );
}

#[test]
fn huge_k_with_few_rects() {
    // k far larger than the number of queries / rects must stay correct.
    let rects = vec![r(0.0, 0.0, 1.0, 1.0), r(3.0, 0.0, 4.0, 1.0)];
    let opts = IndexOptions {
        multicast: MulticastConfig {
            mode: MulticastMode::Fixed(512),
            ..Default::default()
        },
        ..Default::default()
    };
    let index = RTSIndex::with_rects(&rects, opts).unwrap();
    let qs = vec![r(0.5, 0.5, 3.5, 0.75)];
    assert_eq!(
        index.collect_range_query(Predicate::Intersects, &qs),
        vec![(0, 0), (1, 0)]
    );
}

#[test]
fn lock_free_handler_matches_sharded() {
    let rects: Vec<Rect<f32, 2>> = (0..500)
        .map(|i| {
            let x = (i % 25) as f32 * 2.0;
            let y = (i / 25) as f32 * 2.0;
            r(x, y, x + 1.5, y + 1.5)
        })
        .collect();
    let index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    let pts: Vec<Point<f32, 2>> = rects.iter().map(|rc| rc.center()).collect();

    let sharded = CollectingHandler::new();
    index.point_query(&pts, &sharded);
    let lock_free = LockFreeCollectingHandler::new();
    index.point_query(&pts, &lock_free);
    assert_eq!(sharded.into_sorted_vec(), lock_free.into_sorted_vec());
}

#[test]
fn interleaved_mutations_stress() {
    let mut index = RTSIndex::<f32>::new(IndexOptions::default());
    let mut live: Vec<(u32, Rect<f32, 2>)> = Vec::new();
    let mut next_slot = 0u32;
    for round in 0..30 {
        let base = round as f32 * 7.0;
        let batch: Vec<Rect<f32, 2>> = (0..10)
            .map(|i| {
                let x = base + (i % 5) as f32;
                let y = (i / 5) as f32 * 3.0;
                r(x, y, x + 0.8, y + 0.8)
            })
            .collect();
        let ids = index.insert(&batch).unwrap();
        assert_eq!(ids.start, next_slot);
        next_slot = ids.end;
        live.extend(ids.zip(batch.iter().copied()));

        if round % 3 == 2 {
            // Delete the three oldest live entries.
            let victims: Vec<u32> = live.iter().take(3).map(|&(id, _)| id).collect();
            index.delete(&victims).unwrap();
            live.retain(|(id, _)| !victims.contains(id));
        }
        if round % 4 == 3 {
            // Move the newest two entries.
            let movers: Vec<u32> = live.iter().rev().take(2).map(|&(id, _)| id).collect();
            let dest: Vec<Rect<f32, 2>> = movers
                .iter()
                .map(|&id| {
                    live.iter()
                        .find(|&&(lid, _)| lid == id)
                        .unwrap()
                        .1
                        .translated(&Point::xy(0.0, 50.0))
                })
                .collect();
            index.update(&movers, &dest).unwrap();
            for (&id, d) in movers.iter().zip(&dest) {
                live.iter_mut().find(|(lid, _)| *lid == id).unwrap().1 = *d;
            }
        }

        // Oracle check on every live rect's center.
        let centers: Vec<Point<f32, 2>> = live.iter().map(|(_, rc)| rc.center()).collect();
        let got = index.collect_point_query(&centers);
        for (qi, &(id, _)) in live.iter().enumerate() {
            assert!(
                got.contains(&(id, qi as u32)),
                "round {round}: live rect {id} lost"
            );
        }
    }
    assert_eq!(index.len(), live.len());
}

#[test]
fn duplicate_id_in_delete_batch_is_rejected() {
    // Regression: a repeated id in one delete batch used to decrement
    // `live` once per occurrence while flipping the deleted bit once,
    // leaving `len()` permanently short.
    let rects: Vec<Rect<f32, 2>> = (0..8)
        .map(|i| {
            let x = i as f32 * 3.0;
            r(x, 0.0, x + 2.0, 2.0)
        })
        .collect();
    let mut index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    assert!(matches!(
        index.delete(&[2, 5, 2]),
        Err(IndexError::DuplicateId { id: 2 })
    ));
    // The failed batch must be atomic: nothing deleted, count intact.
    assert_eq!(index.len(), 8);
    assert!(index.get(2).is_some() && index.get(5).is_some());
    // Duplicates are also rejected for updates (shared id validation).
    assert!(matches!(
        index.update(&[1, 1], &[rects[1], rects[1]]),
        Err(IndexError::DuplicateId { id: 1 })
    ));
    // A clean batch still works and the count stays exact afterwards.
    index.delete(&[2, 5]).unwrap();
    assert_eq!(index.len(), 6);
}

#[test]
fn duplicate_id_in_delete_batch_is_rejected_3d() {
    let boxes: Vec<Rect<f32, 3>> = (0..8)
        .map(|i| {
            let x = i as f32 * 3.0;
            Rect::xyzxyz(x, 0.0, 0.0, x + 2.0, 2.0, 2.0)
        })
        .collect();
    let mut index = RTSIndex3::build(&boxes, IndexOptions::default()).unwrap();
    assert!(matches!(
        index.delete(&[4, 4]),
        Err(IndexError::DuplicateId { id: 4 })
    ));
    assert_eq!(index.len(), 8);
    index.delete(&[4]).unwrap();
    assert_eq!(index.len(), 7);
}

#[test]
fn intersects_skips_invalid_query_rects() {
    // Regression: non-finite / inverted query rects used to reach the
    // per-batch query-GAS build in Phase 2 and panic; they are now
    // filtered out while preserving the original query-id mapping.
    let rects = vec![r(0.0, 0.0, 4.0, 4.0), r(10.0, 10.0, 12.0, 12.0)];
    let index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    let qs = vec![
        r(1.0, 1.0, 3.0, 3.0), // valid, hits rect 0
        Rect {
            min: Point::xy(f32::NAN, 0.0),
            max: Point::xy(1.0, 1.0),
        },
        Rect {
            min: Point::xy(5.0, 0.0),
            max: Point::xy(-5.0, 1.0), // inverted (empty)
        },
        Rect {
            min: Point::xy(f32::NEG_INFINITY, f32::NEG_INFINITY),
            max: Point::xy(f32::INFINITY, f32::INFINITY),
        },
        r(9.0, 9.0, 11.0, 11.0), // valid, hits rect 1
    ];
    let got = index.collect_range_query(Predicate::Intersects, &qs);
    assert_eq!(got, vec![(0, 0), (1, 4)]);
    // All-invalid batches short-circuit without building a query GAS.
    let all_bad = vec![Rect {
        min: Point::xy(f32::NAN, f32::NAN),
        max: Point::xy(f32::NAN, f32::NAN),
    }];
    assert_eq!(
        index.collect_range_query(Predicate::Intersects, &all_bad),
        vec![]
    );
}

#[test]
fn cost_model_uses_live_counts_after_heavy_delete() {
    // Regression: after heavy churn the k-predictor used to sample dead
    // (degenerated) slots and size the backward launch by capacity, not
    // live count. A churned index must now agree with a fresh index
    // built over only the survivors.
    let all: Vec<Rect<f32, 2>> = (0..400)
        .map(|i| {
            let x = (i % 20) as f32 * 4.0;
            let y = (i / 20) as f32 * 4.0;
            r(x, y, x + 3.0, y + 3.0)
        })
        .collect();
    let survivors: Vec<Rect<f32, 2>> = all.iter().copied().step_by(2).collect();
    let dead: Vec<u32> = (0..400u32).filter(|i| i % 2 == 1).collect();

    let mut churned = RTSIndex::with_rects(&all, paper_options()).unwrap();
    churned.delete(&dead).unwrap();
    let fresh = RTSIndex::with_rects(&survivors, paper_options()).unwrap();

    let qs: Vec<Rect<f32, 2>> = (0..32)
        .map(|i| {
            let x = (i % 8) as f32 * 10.0;
            let y = (i / 8) as f32 * 10.0;
            r(x, y, x + 6.0, y + 6.0)
        })
        .collect();
    let hc = CollectingHandler::new();
    let rc = churned.range_query(Predicate::Intersects, &qs, &hc);
    let hf = CollectingHandler::new();
    let rf = fresh.range_query(Predicate::Intersects, &qs, &hf);

    assert_eq!(
        rc.chosen_k, rf.chosen_k,
        "k must be predicted from live data"
    );
    assert_eq!(
        rc.estimated_selectivity, rf.estimated_selectivity,
        "selectivity must be sampled from live slots only"
    );
    // Dead slots take no lanes: the churned index launches exactly as
    // wide as the fresh one. The backward launch casts the live
    // rectangles touching the batch's box, k lanes each, after the
    // forward pass's one lane per query.
    assert_eq!(rc.launch.width, rf.launch.width);
    let batch_box = qs.iter().fold(Rect::empty(), |b, q| b.union(q));
    let touching = survivors
        .iter()
        .filter(|r| r.intersects(&batch_box))
        .count();
    assert!(
        touching < survivors.len(),
        "the batch covers part of the data"
    );
    assert_eq!(
        rc.launch.width,
        qs.len() + touching * rc.chosen_k,
        "backward launch must cover live rects touching the batch only"
    );
    // And of course: identical results modulo the id remapping.
    let got_c = hc.into_sorted_vec();
    let got_f = hf.into_sorted_vec();
    let remapped: Vec<(u32, u32)> = got_f.iter().map(|&(rid, qid)| (rid * 2, qid)).collect();
    assert_eq!(got_c, remapped);
}

/// A default index serves Range-Intersects at `k = 1`: it samples no
/// selectivity, charges no k-prediction device time, and casts one
/// forward ray per valid query and one backward ray per live rectangle —
/// while returning exactly the pairs of the paper's cost-model `k`.
#[test]
fn default_index_runs_range_intersects_at_k1() {
    let rects: Vec<Rect<f32, 2>> = (0..400)
        .map(|i| {
            let x = (i % 20) as f32 * 5.0;
            let y = (i / 20) as f32 * 5.0;
            r(x, y, x + 3.0, y + 3.0)
        })
        .collect();
    let mut qs: Vec<Rect<f32, 2>> = (0..64)
        .map(|i| {
            let x = (i % 8) as f32 * 12.0;
            let y = (i / 8) as f32 * 12.0;
            r(x, y, x + 30.0, y + 30.0)
        })
        .collect();
    qs.push(Rect {
        min: Point::xy(f32::NAN, 0.0),
        max: Point::xy(1.0, 1.0),
    });
    qs.push(Rect {
        min: Point::xy(5.0, 5.0),
        max: Point::xy(1.0, 1.0),
    });
    let dead: Vec<u32> = (0..400u32).step_by(7).collect();
    let build = |opts: IndexOptions| {
        let mut index = RTSIndex::with_rects(&rects, opts).unwrap();
        index.delete(&dead).unwrap();
        index
    };
    let mut want = Vec::new();
    for (rid, rect) in rects.iter().enumerate() {
        for (qid, q) in qs.iter().enumerate() {
            if !dead.contains(&(rid as u32)) && rect.intersects(q) {
                want.push((rid as u32, qid as u32));
            }
        }
    }
    assert!(!want.is_empty());

    let default = build(IndexOptions::default());
    let h = CollectingHandler::new();
    let report = default.range_query(Predicate::Intersects, &qs, &h);
    assert_eq!(report.chosen_k, 1);
    assert_eq!(report.estimated_selectivity, None);
    assert_eq!(
        report.breakdown.k_prediction.device,
        std::time::Duration::ZERO
    );
    assert_eq!(
        report.launch.totals.rays,
        (qs.len() - 2 + default.len()) as u64,
        "one ray per valid query and per live rectangle"
    );
    let got = h.into_sorted_vec();
    assert_eq!(got, want);
    let plan = default.explain_intersects(&qs, &CountingHandler::new());
    assert_eq!(plan.mode, "off");
    assert_eq!(plan.selectivity, None);
    assert!(plan.candidates.is_empty());

    // The paper's cost model picks a larger k on this data, so the two
    // runs really take different backward launches.
    let paper = build(paper_options());
    let h = CollectingHandler::new();
    let report = paper.range_query(Predicate::Intersects, &qs, &h);
    assert!(
        report.chosen_k > 1,
        "cost model chose k = {}",
        report.chosen_k
    );
    assert_eq!(h.into_sorted_vec(), got);
}

#[test]
fn query_report_diagnostics() {
    let rects: Vec<Rect<f32, 2>> = (0..256)
        .map(|i| {
            let x = (i % 16) as f32 * 3.0;
            let y = (i / 16) as f32 * 3.0;
            r(x, y, x + 2.0, y + 2.0)
        })
        .collect();
    let index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    let pts: Vec<Point<f32, 2>> = rects.iter().map(|rc| rc.center()).collect();
    let h = CollectingHandler::new();
    let report = index.point_query(&pts, &h);
    let results = h.len() as u64;
    assert_eq!(results, 256);
    let precision = report.is_precision(results);
    assert!(precision > 0.0 && precision <= 1.0, "precision {precision}");
    assert!(report.nodes_per_ray() >= 1.0);
    assert!(report.max_is_per_thread() >= 1);
    // Empty launch edge cases.
    let empty = index.point_query(&[], &CollectingHandler::new());
    assert_eq!(empty.is_precision(0), 1.0);
    assert_eq!(empty.nodes_per_ray(), 0.0);
}

#[test]
fn intersects_rejects_rects_one_ulp_apart() {
    // The query's max.x sits 1 ulp left of the rect's min.x, so the two
    // are disjoint under Definition 3; the f32 slab clip of the query
    // diagonal rounds its entry parameter to 1.0 and used to report it.
    let s = Rect::xyxy(-31.238205f32, 46.568718, 105.47893, 71.64184);
    let min_x = f32::from_bits(s.max.x().to_bits() + 1);
    let rect = r(min_x, 46.556103, min_x + 0.05, 46.5761);
    assert!(!rect.intersects(&s));
    for dedup in [DedupStrategy::ForwardCheck, DedupStrategy::HashPostProcess] {
        let opts = IndexOptions {
            dedup,
            ..IndexOptions::default()
        };
        let index = RTSIndex::with_rects(&[rect], opts).unwrap();
        let got = index.collect_range_query(Predicate::Intersects, &[s]);
        assert_eq!(got, vec![], "{dedup:?}");
    }
}

#[test]
fn explain_reports_wide_node_visits() {
    let rects: Vec<Rect<f32, 2>> = (0..2_000)
        .map(|i| {
            let x = (i % 50) as f32 * 2.0;
            let y = (i / 50) as f32 * 2.0;
            r(x, y, x + 1.5, y + 1.5)
        })
        .collect();
    let qs: Vec<Rect<f32, 2>> = (0..100)
        .map(|i| {
            let x = (i % 10) as f32 * 9.0;
            let y = (i / 10) as f32 * 7.0;
            r(x, y, x + 3.0, y + 3.0)
        })
        .collect();
    let index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    let report = index.range_query(Predicate::Intersects, &qs, &CountingHandler::new());
    let plan = index.explain_intersects(&qs, &CountingHandler::new());
    assert!(plan.nodes_visited > 0);
    assert_eq!(plan.nodes_visited, report.launch.totals.wide_nodes_visited);
}

/// Point and Range-Contains launches run in the Morton order of their
/// probes within the index's world bounds. A frame with no extent — an
/// empty index, or every rectangle at one point — must change neither
/// results nor anything else, for probes inside, outside and non-finite.
#[test]
fn launch_order_survives_degenerate_frames() {
    let points = [
        Point::xy(2.0f32, 2.0),
        Point::xy(5.0, 5.0),
        Point::xy(f32::NAN, 2.0),
    ];
    let inverted = Rect {
        min: Point::xy(3.0, 3.0),
        max: Point::xy(1.0, 1.0),
    };
    let queries = [r(2.0, 2.0, 2.0, 2.0), r(1.0, 1.0, 3.0, 3.0), inverted];
    for rects in [vec![], vec![r(2.0, 2.0, 2.0, 2.0); 3]] {
        let index = if rects.is_empty() {
            RTSIndex::<f32>::new(IndexOptions::default())
        } else {
            RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap()
        };
        // Every probe list above has three items.
        let oracle = |hit: &dyn Fn(&Rect<f32, 2>, usize) -> bool| {
            let mut pairs = Vec::new();
            for (i, rect) in rects.iter().enumerate() {
                for q in 0..3 {
                    if hit(rect, q) {
                        pairs.push((i as u32, q as u32));
                    }
                }
            }
            pairs
        };
        assert_eq!(
            index.collect_point_query(&points),
            oracle(&|rect, q| points[q].is_finite() && rect.contains_point(&points[q]))
        );
        assert_eq!(
            index.collect_range_query(Predicate::Contains, &queries),
            oracle(&|rect, q| rect.contains_rect(&queries[q]))
        );
        assert_eq!(
            index.collect_range_query(Predicate::Intersects, &queries),
            oracle(&|rect, q| !queries[q].is_empty() && rect.intersects(&queries[q]))
        );
    }

    let index3 = RTSIndex3::build(
        &[Rect::xyzxyz(1.0f32, 1.0, 1.0, 1.0, 1.0, 1.0); 2],
        IndexOptions::default(),
    )
    .unwrap();
    let probes = [
        Point::xyz(1.0f32, 1.0, 1.0),
        Point::xyz(4.0, 4.0, 4.0),
        Point::xyz(f32::NAN, 1.0, 1.0),
    ];
    assert_eq!(index3.collect_point_query(&probes), vec![(0, 0), (1, 0)]);
    let boxes = [
        Rect::xyzxyz(0.0f32, 0.0, 0.0, 2.0, 2.0, 2.0),
        Rect {
            min: Point::xyz(2.0, 2.0, 2.0),
            max: Point::xyz(0.0, 0.0, 0.0),
        },
    ];
    assert_eq!(index3.collect_contains(&boxes), vec![]);
    let empty3 = RTSIndex3::<f32>::build(&[], IndexOptions::default()).unwrap();
    assert_eq!(empty3.collect_point_query(&probes), vec![]);
    assert_eq!(empty3.collect_contains(&boxes), vec![]);
}
