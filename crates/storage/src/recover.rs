//! Crash recovery: latest valid snapshot + journal suffix replay.
//!
//! The recovery invariant is byte-identity: the recovered book answers
//! every query with exactly the bytes an uninterrupted run would have
//! produced at the same point in the event stream — at any shards ×
//! threads budget, because snapshots round-trip the book's state
//! exactly and the replayed suffix goes through the book's ordinary
//! mutation path.
//!
//! Fallbacks are deliberate and silent where a crash can produce them:
//! a missing snapshot, or a snapshot *ahead* of the journal (possible only
//! when the journal was truncated by hand — the writer syncs the journal
//! before every snapshot), both degrade to a full replay from the empty
//! book, since the journal holds the complete mutation history. Corrupt
//! *files* — a terminated-but-unparseable journal line, a snapshot with a
//! bad checksum — are named errors, never panics.

use flexoffers_engine::Engine;
use flexoffers_serving::{LiveBook, ServeConfig};

use crate::error::StorageError;
use crate::journal::read_journal;
use crate::snapshot::load_snapshot;

/// What recovery found and did — printed by `flexctl recover` and used by
/// [`Durable::open`](crate::Durable::open) to resume the journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed events in the journal (torn tail excluded).
    pub journal_events: u64,
    /// Byte length of the journal's committed prefix.
    pub committed_bytes: u64,
    /// Whether an unterminated final line was discarded.
    pub dropped_torn_tail: bool,
    /// The sequence of the snapshot recovery started from (`None` = full
    /// replay from the empty book).
    pub snapshot_seq: Option<u64>,
    /// Events replayed on top of the starting state.
    pub replayed: u64,
}

/// Recovers a [`LiveBook`] from `config.durability`'s journal + snapshot.
/// Read-only: the journal file is not truncated (resuming appends is
/// [`Durable::open`](crate::Durable::open)'s business).
///
/// `shards` is used only when recovery starts from the empty book
/// ([`Durable::open`](crate::Durable::open) and `flexctl recover` pass 1);
/// a snapshot carries its own shard count (answers are shard-invariant, so
/// the difference is a load-spreading detail, not a semantic one).
pub fn recover(
    config: &ServeConfig,
    shards: usize,
    engine: Engine,
) -> Result<(LiveBook, RecoveryReport), StorageError> {
    let durability = config
        .durability
        .as_ref()
        .ok_or(StorageError::MissingDurability)?;
    let contents = read_journal(&durability.journal)?;
    let snapshot = load_snapshot(&durability.snapshot_path())?;

    // The guard compares in `u64`: casting `snapshot.seq` to `usize` first
    // would truncate a huge/corrupt seq on 32-bit targets and could let it
    // slip past the `<=` check. Once the guard holds, `seq` fits in
    // `usize` (it is bounded by `events.len()`), so the cast below is safe.
    let (mut book, start, snapshot_seq) = match snapshot {
        Some(snapshot) if snapshot.seq <= contents.events.len() as u64 => {
            let book = LiveBook::from_export(config.clone(), engine, snapshot.export)?;
            (book, snapshot.seq as usize, Some(snapshot.seq))
        }
        // No snapshot, or one past the journal's end: full replay.
        _ => {
            let book = LiveBook::new(config.clone(), shards, engine)?;
            (book, 0, None)
        }
    };
    for (i, event) in contents.events[start..].iter().enumerate() {
        // Journaled queries (hand-written scripts) replay for their side
        // effect of nothing; their answers go nowhere.
        book.apply(event.clone()).map_err(|e| StorageError::Apply {
            seq: (start + i + 1) as u64,
            source: e,
        })?;
    }
    let report = RecoveryReport {
        journal_events: contents.events.len() as u64,
        committed_bytes: contents.committed_bytes,
        dropped_torn_tail: contents.dropped_torn_tail,
        snapshot_seq,
        replayed: (contents.events.len() - start) as u64,
    };
    Ok((book, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;
    use crate::snapshot::{save_snapshot, Snapshot};
    use crate::testutil::scratch_dir;
    use flexoffers_model::{FlexOffer, Slice};
    use flexoffers_serving::{DurabilityConfig, Event, QueryKind};

    fn offer(tes: i64) -> FlexOffer {
        FlexOffer::new(tes, tes + 3, vec![Slice::new(-1, 2).unwrap()]).unwrap()
    }

    fn config_for(journal: &std::path::Path) -> ServeConfig {
        ServeConfig {
            durability: Some(DurabilityConfig::new(journal)),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn missing_everything_recovers_to_an_empty_book() {
        let dir = scratch_dir("recover_empty");
        let config = config_for(&dir.path().join("events.jsonl"));
        let (book, report) = recover(&config, 2, Engine::sequential()).unwrap();
        assert!(book.is_empty());
        assert_eq!(
            report,
            RecoveryReport {
                journal_events: 0,
                committed_bytes: 0,
                dropped_torn_tail: false,
                snapshot_seq: None,
                replayed: 0,
            }
        );
    }

    #[test]
    fn no_durability_section_is_the_named_error() {
        let err = recover(&ServeConfig::default(), 2, Engine::sequential()).unwrap_err();
        assert!(matches!(err, StorageError::MissingDurability), "{err}");
    }

    #[test]
    fn snapshot_plus_suffix_equals_full_replay() {
        let dir = scratch_dir("recover_suffix");
        let journal_path = dir.path().join("events.jsonl");
        let config = config_for(&journal_path);
        let durability = config.durability.clone().unwrap();

        let events: Vec<Event> = (0..10)
            .map(|i| Event::Add(offer(i)))
            .chain([
                Event::Remove { id: 3 },
                Event::Update {
                    id: 4,
                    offer: offer(40),
                },
            ])
            .collect();

        // Write the journal; snapshot a warm book mid-stream (after 6).
        let mut journal = Journal::create(&journal_path, 1).unwrap();
        let mut mid = LiveBook::new(config.clone(), 3, Engine::sequential()).unwrap();
        for (i, event) in events.iter().enumerate() {
            journal.append(event).unwrap();
            mid.apply(event.clone()).unwrap();
            if i + 1 == 6 {
                mid.answer(QueryKind::Measure); // warm caches into the snapshot
                save_snapshot(
                    &durability.snapshot_path(),
                    &Snapshot {
                        seq: 6,
                        export: mid.export(),
                    },
                )
                .unwrap();
            }
        }
        drop(journal);

        let (mut recovered, report) = recover(&config, 3, Engine::sequential()).unwrap();
        assert_eq!(report.snapshot_seq, Some(6));
        assert_eq!(report.replayed, events.len() as u64 - 6);

        let mut full = LiveBook::new(config.clone(), 3, Engine::sequential()).unwrap();
        for event in &events {
            full.apply(event.clone()).unwrap();
        }
        for kind in QueryKind::all() {
            assert_eq!(recovered.answer(kind), full.answer(kind), "{kind}");
        }
    }

    #[test]
    fn a_snapshot_ahead_of_the_journal_falls_back_to_full_replay() {
        let dir = scratch_dir("recover_ahead");
        let journal_path = dir.path().join("events.jsonl");
        let config = config_for(&journal_path);
        let durability = config.durability.clone().unwrap();

        let mut journal = Journal::create(&journal_path, 1).unwrap();
        let mut book = LiveBook::new(config.clone(), 2, Engine::sequential()).unwrap();
        for i in 0..8 {
            let event = Event::Add(offer(i));
            journal.append(&event).unwrap();
            book.apply(event).unwrap();
        }
        save_snapshot(
            &durability.snapshot_path(),
            &Snapshot {
                seq: 8,
                export: book.export(),
            },
        )
        .unwrap();
        drop(journal);

        // Truncate the journal below the snapshot: only 3 complete lines.
        let text = std::fs::read_to_string(&journal_path).unwrap();
        let prefix: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        std::fs::write(&journal_path, prefix).unwrap();

        let (mut recovered, report) = recover(&config, 2, Engine::sequential()).unwrap();
        assert_eq!(report.snapshot_seq, None, "snapshot ignored");
        assert_eq!(report.replayed, 3);
        assert_eq!(recovered.len(), 3);

        let mut expected = LiveBook::new(config.clone(), 2, Engine::sequential()).unwrap();
        for i in 0..3 {
            expected.apply(Event::Add(offer(i))).unwrap();
        }
        assert_eq!(
            recovered.answer(QueryKind::Measure),
            expected.answer(QueryKind::Measure)
        );
    }

    #[test]
    fn a_corrupt_huge_seq_falls_back_instead_of_truncating() {
        let dir = scratch_dir("recover_huge_seq");
        let journal_path = dir.path().join("events.jsonl");
        let config = config_for(&journal_path);
        let durability = config.durability.clone().unwrap();

        let mut journal = Journal::create(&journal_path, 1).unwrap();
        let mut book = LiveBook::new(config.clone(), 2, Engine::sequential()).unwrap();
        for i in 0..5 {
            let event = Event::Add(offer(i));
            journal.append(&event).unwrap();
            book.apply(event).unwrap();
        }
        drop(journal);
        // A corrupt seq whose low 32 bits are small: `seq as usize` would
        // truncate to 2 on a 32-bit target and wrongly pass the guard,
        // skipping most of the journal. The u64 comparison must instead
        // treat it as ahead-of-journal and fall back to a full replay.
        save_snapshot(
            &durability.snapshot_path(),
            &Snapshot {
                seq: (1u64 << 32) + 2,
                export: book.export(),
            },
        )
        .unwrap();

        let (mut recovered, report) = recover(&config, 2, Engine::sequential()).unwrap();
        assert_eq!(report.snapshot_seq, None, "corrupt snapshot ignored");
        assert_eq!(report.replayed, 5);
        assert_eq!(recovered.len(), 5);
        assert_eq!(
            recovered.answer(QueryKind::Measure),
            book.answer(QueryKind::Measure)
        );
    }

    #[test]
    fn corrupt_snapshots_surface_as_named_errors() {
        let dir = scratch_dir("recover_corrupt");
        let journal_path = dir.path().join("events.jsonl");
        let config = config_for(&journal_path);
        let durability = config.durability.clone().unwrap();

        let mut journal = Journal::create(&journal_path, 1).unwrap();
        journal.append(&Event::Add(offer(0))).unwrap();
        drop(journal);
        std::fs::write(durability.snapshot_path(), b"garbage\n{}\n").unwrap();

        let err = recover(&config, 2, Engine::sequential()).unwrap_err();
        assert!(matches!(err, StorageError::CorruptSnapshot { .. }), "{err}");
    }
}
