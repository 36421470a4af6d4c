//! The from-scratch oracle: every serving query answered by rebuilding the
//! logical portfolio and running the flat engine — no incremental state at
//! all. This is what "byte-identical" is measured against: `flexctl serve
//! --batch` replays a script through a [`BatchBook`], CI `cmp`s its output
//! against the live replay, and the property suite does the same per
//! event.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use flexoffers_aggregation::group_indices;
use flexoffers_engine::Engine;
use flexoffers_model::FlexOffer;

use crate::config::ServeConfig;
use crate::event::{Event, QueryKind};
use crate::live::LiveError;
use crate::report;
use crate::sequencer::Sequencer;
use crate::server::EventSink;

/// Answers one query over `offers` (the logical portfolio, in id order) by
/// running the flat engine from scratch — the batch-restart cost the
/// serving tier exists to avoid, kept as the correctness oracle. The
/// grouping and the baseline are computed over `offers` itself.
pub fn answer<O: Borrow<FlexOffer> + Sync>(
    engine: &Engine,
    config: &ServeConfig,
    offers: &[O],
    kind: QueryKind,
) -> String {
    report::answer(
        engine,
        config,
        offers,
        kind,
        || group_indices(offers, &config.grouping),
        || engine.baseline_load_parallel(offers),
    )
}

/// A replay sink with the exact event contract of
/// [`LiveBook::apply`](crate::LiveBook::apply) — same ids, same errors,
/// same answer lines — but answering every query with a from-scratch flat
/// evaluation. The serving determinism gate is `live replay == batch
/// replay`, byte for byte.
#[derive(Debug)]
pub struct BatchBook {
    config: ServeConfig,
    engine: Engine,
    offers: BTreeMap<u64, FlexOffer>,
    next_id: u64,
}

impl BatchBook {
    /// An empty batch book answering under `config` with `engine`.
    pub fn new(config: ServeConfig, engine: Engine) -> Self {
        Self {
            config,
            engine,
            offers: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Number of live offers.
    pub fn len(&self) -> usize {
        self.offers.len()
    }

    /// `true` when no offers are live.
    pub fn is_empty(&self) -> bool {
        self.offers.is_empty()
    }

    /// Applies one event; same contract as
    /// [`LiveBook::apply`](crate::LiveBook::apply).
    pub fn apply(&mut self, event: Event) -> Result<Option<String>, LiveError> {
        match event {
            Event::Add(offer) => {
                self.offers.insert(self.next_id, offer);
                self.next_id += 1;
                Ok(None)
            }
            Event::Update { id, offer } => match self.offers.get_mut(&id) {
                Some(slot) => {
                    *slot = offer;
                    Ok(None)
                }
                None => Err(LiveError::UnknownId { id }),
            },
            Event::Remove { id } => match self.offers.remove(&id) {
                Some(_) => Ok(None),
                None => Err(LiveError::UnknownId { id }),
            },
            Event::Query(kind) => {
                let view: Vec<&FlexOffer> = self.offers.values().collect();
                Ok(Some(answer(&self.engine, &self.config, &view, kind)))
            }
        }
    }
}

/// The batch oracle runs on the serving loop like any book, so `flexctl
/// serve --script --batch` streams its answers through the same writer.
impl EventSink for BatchBook {
    type Error = LiveError;

    fn apply(&mut self, event: Event) -> Result<Option<String>, LiveError> {
        BatchBook::apply(self, event)
    }

    fn sequencer(&self) -> Sequencer {
        Sequencer::seeded(self.offers.keys().copied(), self.next_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexoffers_model::Slice;

    fn offer(tes: i64) -> FlexOffer {
        FlexOffer::new(tes, tes + 2, vec![Slice::new(1, 3).unwrap()]).unwrap()
    }

    #[test]
    fn batch_book_tracks_ids_like_the_live_book() {
        let mut book = BatchBook::new(ServeConfig::default(), Engine::sequential());
        assert!(book.is_empty());
        book.apply(Event::Add(offer(0))).unwrap();
        book.apply(Event::Add(offer(1))).unwrap();
        book.apply(Event::Remove { id: 0 }).unwrap();
        assert_eq!(book.len(), 1);
        assert_eq!(
            book.apply(Event::Remove { id: 0 }).unwrap_err(),
            LiveError::UnknownId { id: 0 }
        );
        assert_eq!(
            book.apply(Event::Update {
                id: 7,
                offer: offer(0)
            })
            .unwrap_err(),
            LiveError::UnknownId { id: 7 }
        );
        let answer = book
            .apply(Event::Query(QueryKind::Measure))
            .unwrap()
            .expect("queries answer");
        assert!(answer.contains("\"offers\":1"), "{answer}");
    }

    #[test]
    fn empty_scenario_queries_refuse_like_the_engine() {
        let book_answer = answer::<FlexOffer>(
            &Engine::sequential(),
            &ServeConfig::default(),
            &[],
            QueryKind::Schedule,
        );
        assert!(
            book_answer.contains("\"error\":\"empty portfolio"),
            "{book_answer}"
        );
    }
}
