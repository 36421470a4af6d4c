//! Serving determinism properties — the acceptance bar of the live tier.
//!
//! After *any* interleaving of Add/Update/Remove/Query events, every query
//! answer out of a [`LiveBook`] must byte-match (a) a from-scratch flat
//! engine evaluation of the same logical portfolio and (b) any *other*
//! `LiveBook` driven by the same events under a different shards ×
//! threads × chunk budget. The incremental state
//! (per-shard baseline partials, key digests, grouping cache) must be
//! invisible in the answers.

use flexoffers_engine::{Budget, Engine};
use flexoffers_model::{FlexOffer, Slice};
use flexoffers_serving::batch::BatchBook;
use flexoffers_serving::{Event, LiveBook, QueryKind, ServeConfig};
use proptest::prelude::*;

fn arb_flexoffer() -> impl Strategy<Value = FlexOffer> {
    (
        0i64..4,
        0i64..5,
        prop::collection::vec((-5i64..5, 0i64..5), 1..5),
        0.0f64..1.0,
        0.0f64..1.0,
    )
        .prop_map(|(tes, window, raw, cmin_pos, cmax_pos)| {
            let slices: Vec<Slice> = raw
                .into_iter()
                .map(|(min, w)| Slice::new(min, min + w).unwrap())
                .collect();
            let pmin: i64 = slices.iter().map(Slice::min).sum();
            let pmax: i64 = slices.iter().map(Slice::max).sum();
            let cmin = pmin + ((pmax - pmin) as f64 * cmin_pos) as i64;
            let cmax = cmin + ((pmax - cmin) as f64 * cmax_pos) as i64;
            FlexOffer::with_totals(tes, tes + window, slices, cmin, cmax).unwrap()
        })
}

/// A raw op: interpreted against the set of ids live at apply time, so any
/// generated sequence is valid (updates/removes of an empty book are
/// skipped, picks wrap around the live count).
#[derive(Clone, Debug)]
enum RawOp {
    Add(FlexOffer),
    Update(usize, FlexOffer),
    Remove(usize),
    Query(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<RawOp>> {
    // Weighted by selector bands: 3× add, 2× update, 1× remove, 2× query.
    let op = (0usize..8, 0usize..1 << 20, arb_flexoffer()).prop_map(|(sel, pick, fo)| match sel {
        0..=2 => RawOp::Add(fo),
        3 | 4 => RawOp::Update(pick, fo),
        5 => RawOp::Remove(pick),
        _ => RawOp::Query(pick),
    });
    prop::collection::vec(op, 0..24)
}

/// Resolves raw ops into concrete events, tracking live ids exactly the
/// way the books assign them (k-th add owns id k).
fn resolve(ops: Vec<RawOp>) -> Vec<Event> {
    let mut live: Vec<u64> = Vec::new();
    let mut next_id: u64 = 0;
    let mut events = Vec::new();
    for op in ops {
        match op {
            RawOp::Add(offer) => {
                live.push(next_id);
                next_id += 1;
                events.push(Event::Add(offer));
            }
            RawOp::Update(pick, offer) => {
                if !live.is_empty() {
                    let id = live[pick % live.len()];
                    events.push(Event::Update { id, offer });
                }
            }
            RawOp::Remove(pick) => {
                if !live.is_empty() {
                    let id = live.swap_remove(pick % live.len());
                    events.push(Event::Remove { id });
                }
            }
            RawOp::Query(pick) => {
                events.push(Event::Query(QueryKind::all()[pick % 4]));
            }
        }
    }
    // Always interrogate the final state with every query kind.
    for kind in QueryKind::all() {
        events.push(Event::Query(kind));
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flagship property: a live book under any (shards, threads,
    /// chunk) answers every query byte-identically to the from-scratch
    /// batch replay of the same events — at every query point, not just
    /// the end.
    #[test]
    fn live_answers_byte_match_batch_rebuild_at_every_query(
        ops in arb_ops(),
        shards in 1usize..7,
        threads in 1usize..5,
        chunk in 1usize..9,
    ) {
        let budget = Budget::with_threads(threads).unwrap().with_chunk_size(chunk).unwrap();
        let mut live = LiveBook::new(ServeConfig::default(), shards, Engine::new(budget)).unwrap();
        let mut oracle = BatchBook::new(ServeConfig::default(), Engine::sequential());
        for event in resolve(ops) {
            let lhs = live.apply(event.clone()).expect("resolved events are valid");
            let rhs = oracle.apply(event).expect("resolved events are valid");
            prop_assert_eq!(lhs, rhs, "live and batch answers diverged");
        }
    }

    /// Two live books under *different* budgets and shard counts agree
    /// with each other on every answer (1-vs-N threads, 1-vs-K shards).
    #[test]
    fn live_books_agree_across_shard_and_thread_budgets(
        ops in arb_ops(),
        shards in 2usize..9,
        threads in 2usize..5,
    ) {
        let mut one = LiveBook::new(ServeConfig::default(), 1, Engine::sequential()).unwrap();
        let budget = Budget::with_threads(threads).unwrap();
        let mut many = LiveBook::new(ServeConfig::default(), shards, Engine::new(budget)).unwrap();
        for event in resolve(ops) {
            let lhs = one.apply(event.clone()).expect("valid");
            let rhs = many.apply(event).expect("valid");
            prop_assert_eq!(lhs, rhs, "1-shard and {}-shard books diverged", shards);
        }
    }

    /// The incremental contract under random traffic: after a refresh,
    /// one single-offer update recomputes the baseline partial of exactly
    /// one shard on the next trade query.
    #[test]
    fn one_update_reevaluates_exactly_one_shard(
        adds in prop::collection::vec(arb_flexoffer(), 1..20),
        replacement in arb_flexoffer(),
        pick in 0usize..1 << 20,
        shards in 1usize..6,
    ) {
        let mut live =
            LiveBook::new(ServeConfig::default(), shards, Engine::sequential()).unwrap();
        let n = adds.len();
        for offer in adds {
            live.add(offer);
        }
        live.refresh();
        let warm = live.evaluations();
        live.update((pick % n) as u64, replacement).unwrap();
        live.answer(QueryKind::Trade);
        let after = live.evaluations();
        let bumped: usize = warm
            .iter()
            .zip(&after)
            .map(|(&w, &a)| {
                prop_assert!(a == w || a == w + 1, "counters only step by one");
                Ok(a - w)
            })
            .collect::<Result<Vec<usize>, TestCaseError>>()?
            .into_iter()
            .sum();
        prop_assert_eq!(bumped, 1, "exactly one shard re-evaluates");
    }
}
