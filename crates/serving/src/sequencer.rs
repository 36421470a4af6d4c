//! Who may mutate which id: the one live-id check every front runs.
//!
//! The `k`-th add owns logical id `k` (counting from a seeded history),
//! updates and removes must name a live id, and a removed id stays dead.
//! Script parsing ([`parse_script_from`](crate::parse_script_from)) and
//! the TCP front's gate validate through a [`Sequencer`] (the cluster
//! supervisor checks the same rule against its merged book's owner
//! table): [`check`](Sequencer::check) refuses an event without
//! touching the history, and [`commit`](Sequencer::commit) records it once
//! the sink took it, so a refused or failed mutation leaves the sequencer
//! unchanged.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use crate::event::Event;

/// The live-id set and the next add id of one event history.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Sequencer {
    live: BTreeSet<u64>,
    next_id: u64,
}

/// What a checked event does to the id history, handed back to
/// [`Sequencer::commit`] once the sink has taken the event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Checked {
    /// An add that owns this id.
    Add(u64),
    /// An update or a query: the history does not change.
    Keep,
    /// A remove of this live id.
    Remove(u64),
}

/// An update or remove naming an id that is not live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnknownId {
    /// The event tag: `update` or `remove`.
    pub event: &'static str,
    /// The dead id.
    pub id: u64,
}

impl fmt::Display for UnknownId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} of unknown offer id {}", self.event, self.id)
    }
}

impl Error for UnknownId {}

impl Sequencer {
    /// The history of a book holding `live_ids` whose next add owns
    /// `next_id`.
    pub fn seeded(live_ids: impl IntoIterator<Item = u64>, next_id: u64) -> Self {
        Self {
            live: live_ids.into_iter().collect(),
            next_id,
        }
    }

    /// The id the next add will own.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Every live id, ascending.
    pub fn live_ids(&self) -> Vec<u64> {
        self.live.iter().copied().collect()
    }

    /// The number of live ids.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no id is live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Whether `id` is live.
    pub fn is_live(&self, id: u64) -> bool {
        self.live.contains(&id)
    }

    /// Refuses an update or remove of an id that is not live; otherwise
    /// says what committing `event` will do. Never changes the history.
    pub fn check(&self, event: &Event) -> Result<Checked, UnknownId> {
        match *event {
            Event::Add(_) => Ok(Checked::Add(self.next_id)),
            Event::Query(_) => Ok(Checked::Keep),
            Event::Update { id, .. } if self.is_live(id) => Ok(Checked::Keep),
            Event::Remove { id } if self.is_live(id) => Ok(Checked::Remove(id)),
            Event::Update { id, .. } => Err(UnknownId {
                event: "update",
                id,
            }),
            Event::Remove { id } => Err(UnknownId {
                event: "remove",
                id,
            }),
        }
    }

    /// Records a checked event the sink took. Returns the id an add owns.
    /// `Checked::Add(id)` may also name a caller-assigned fresh id (a
    /// seeded add); the next add id never rewinds.
    pub fn commit(&mut self, checked: Checked) -> Option<u64> {
        match checked {
            Checked::Add(id) => {
                self.live.insert(id);
                self.next_id = self.next_id.max(id.saturating_add(1));
                Some(id)
            }
            Checked::Keep => None,
            Checked::Remove(id) => {
                self.live.remove(&id);
                None
            }
        }
    }

    /// Raises the next add id to at least `next_id` — ids past the last
    /// live one (removed tail ids) are never reassigned.
    pub fn reserve(&mut self, next_id: u64) {
        self.next_id = self.next_id.max(next_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::QueryKind;
    use flexoffers_model::{FlexOffer, Slice};

    fn offer() -> FlexOffer {
        FlexOffer::new(0, 2, vec![Slice::new(1, 3).unwrap()]).unwrap()
    }

    fn step(ids: &mut Sequencer, event: &Event) -> Result<Option<u64>, UnknownId> {
        let checked = ids.check(event)?;
        Ok(ids.commit(checked))
    }

    #[test]
    fn a_seeded_history_continues_its_ids() {
        // The state add,add,add,remove(1) leaves: ids 0 and 2 live, 3 next.
        let mut ids = Sequencer::seeded([2, 0], 3);
        assert_eq!(ids.live_ids(), vec![0, 2]);
        assert_eq!(ids.len(), 2);
        assert!(ids.is_live(2) && !ids.is_live(1));
        assert_eq!(step(&mut ids, &Event::Add(offer())), Ok(Some(3)));
        assert_eq!(step(&mut ids, &Event::Add(offer())), Ok(Some(4)));
        assert_eq!(ids.next_id(), 5);
        assert_eq!(ids.live_ids(), vec![0, 2, 3, 4]);
    }

    #[test]
    fn adds_own_consecutive_ids_and_removed_ids_stay_dead() {
        let mut ids = Sequencer::default();
        assert!(ids.is_empty());
        for expect in 0..3 {
            assert_eq!(step(&mut ids, &Event::Add(offer())), Ok(Some(expect)));
        }
        assert_eq!(step(&mut ids, &Event::Remove { id: 2 }), Ok(None));
        // A removed tail id is not handed out again.
        assert_eq!(step(&mut ids, &Event::Add(offer())), Ok(Some(3)));
        let update = Event::Update {
            id: 1,
            offer: offer(),
        };
        assert_eq!(step(&mut ids, &update), Ok(None));
        let query = Event::Query(QueryKind::Measure);
        assert_eq!(ids.check(&query), Ok(Checked::Keep));
    }

    #[test]
    fn unknown_ids_name_their_event() {
        let ids = Sequencer::seeded([0], 1);
        let update = Event::Update {
            id: 7,
            offer: offer(),
        };
        let err = ids.check(&update).unwrap_err();
        assert_eq!(
            err,
            UnknownId {
                event: "update",
                id: 7
            }
        );
        assert_eq!(err.to_string(), "update of unknown offer id 7");
        let err = ids.check(&Event::Remove { id: 1 }).unwrap_err();
        assert_eq!(err.to_string(), "remove of unknown offer id 1");
    }

    #[test]
    fn a_refused_or_uncommitted_event_leaves_it_unchanged() {
        let mut ids = Sequencer::seeded([0, 2], 3);
        let before = ids.clone();
        assert!(step(&mut ids, &Event::Remove { id: 1 }).is_err());
        // Checked but never committed: the sink refused or failed.
        assert_eq!(ids.check(&Event::Add(offer())), Ok(Checked::Add(3)));
        assert_eq!(ids.check(&Event::Remove { id: 2 }), Ok(Checked::Remove(2)));
        assert_eq!(ids, before);
        // The next committed add still owns the id the failed one was
        // offered, and the id the failed remove named is still live.
        assert_eq!(step(&mut ids, &Event::Add(offer())), Ok(Some(3)));
        assert_eq!(step(&mut ids, &Event::Remove { id: 2 }), Ok(None));
    }

    #[test]
    fn a_seeded_add_never_rewinds_the_counter() {
        let mut ids = Sequencer::default();
        ids.reserve(10);
        assert_eq!(ids.commit(Checked::Add(4)), Some(4));
        assert_eq!(ids.next_id(), 10);
        assert_eq!(ids.commit(Checked::Add(12)), Some(12));
        assert_eq!(ids.next_id(), 13);
        ids.reserve(5);
        assert_eq!(ids.next_id(), 13);
    }
}
