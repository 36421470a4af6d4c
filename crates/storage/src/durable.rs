//! The durable sink: any [`Book`] behind a journal-before-apply
//! [`EventSink`].
//!
//! [`Durable::open`] recovers the book **in process** (empty files on
//! first boot, one shard; a snapshot keeps its own layout), resumes the
//! journal past any torn tail, and builds the sink from the recovered
//! [`LiveBook`] ([`Book::from_recovered`]): the book itself in process, a
//! spawned and seeded worker fleet — one shard per worker — for a
//! cluster. [`LiveServer::spawn_sink`] drives the result exactly like a
//! memory-only book — same loop, same ordering, same answers. Each
//! mutation is journaled *before* it touches the book, so a crash at any
//! instant loses at most un-fsynced suffix events, never
//! applied-but-unjournaled ones; queries are not journaled (they carry no
//! state). Snapshots are cut from the book's export every
//! `snapshot_every` mutations (journal synced first, so a snapshot never
//! points past durable bytes) and at clean shutdown. Every book writes
//! the same snapshot format, so the tiers adopt each other's files.
//!
//! [`LiveServer::spawn_sink`]: flexoffers_serving::LiveServer::spawn_sink

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

use flexoffers_engine::Engine;
use flexoffers_serving::{
    BookExport, Event, EventSink, LiveBook, LiveError, Sequencer, ServeConfig,
};

use crate::error::StorageError;
use crate::journal::Journal;
use crate::recover::{recover, RecoveryReport};
use crate::snapshot::{save_snapshot, Snapshot};

/// A book [`Durable`] can journal in front of.
pub trait Book: EventSink + Sized {
    /// What building the book takes besides the recovered state: `()` in
    /// process, the worker count and shard-worker program for a cluster.
    type Spawn;

    /// Builds the book holding exactly `recovered`'s offers under their
    /// ids.
    fn from_recovered(recovered: LiveBook, spawn: Self::Spawn) -> Result<Self, Self::Error>;

    /// The book's current state, as a snapshot persists it.
    fn export(&mut self) -> Result<BookExport, Self::Error>;
}

/// The in-process book keeps the recovered layout (a snapshot carries its
/// own shard count; answers are shard-invariant).
impl Book for LiveBook {
    type Spawn = ();

    fn from_recovered(recovered: LiveBook, (): ()) -> Result<Self, LiveError> {
        Ok(recovered)
    }

    fn export(&mut self) -> Result<BookExport, LiveError> {
        Ok(LiveBook::export(self))
    }
}

/// What a durable sink can fail with: the storage tier (journal,
/// snapshot, recovery) or the book behind it.
#[derive(Debug)]
pub enum DurableError<E> {
    /// The journal, a snapshot, or recovery failed.
    Storage(StorageError),
    /// The book refused a journaled mutation.
    Apply {
        /// 1-based journal sequence number of the failing mutation.
        seq: u64,
        /// The book's rejection.
        source: E,
    },
    /// The book failed outside a mutation (build, query, export,
    /// finish).
    Book(E),
}

impl<E: fmt::Display> fmt::Display for DurableError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Storage(e) => write!(f, "{e}"),
            DurableError::Apply { seq, source } => {
                write!(f, "journal event {seq} failed to apply: {source}")
            }
            DurableError::Book(e) => write!(f, "{e}"),
        }
    }
}

impl<E: Error + 'static> Error for DurableError<E> {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DurableError::Storage(e) => Some(e),
            DurableError::Apply { source, .. } | DurableError::Book(source) => Some(source),
        }
    }
}

impl<E> From<StorageError> for DurableError<E> {
    fn from(e: StorageError) -> Self {
        DurableError::Storage(e)
    }
}

/// A book whose mutations are journaled before they apply.
#[derive(Debug)]
pub struct Durable<B> {
    book: B,
    journal: Journal,
    snapshot_path: PathBuf,
    snapshot_every: Option<u64>,
    last_snapshot_seq: u64,
}

impl<B: Book> Durable<B> {
    /// Recovers from `config.durability`'s journal + snapshot under
    /// `engine` (one shard when recovery starts from the empty book; a
    /// snapshot keeps its own layout), truncates any torn journal tail,
    /// opens the journal for appending, and builds the book from the
    /// recovered state. Returns the sink alongside what recovery found.
    pub fn open(
        config: ServeConfig,
        engine: Engine,
        spawn: B::Spawn,
    ) -> Result<(Self, RecoveryReport), DurableError<B::Error>> {
        let durability = config
            .durability
            .clone()
            .ok_or(StorageError::MissingDurability)?;
        let (recovered, report) = recover(&config, 1, engine)?;
        let journal = Journal::resume(
            &durability.journal,
            durability.sync_every,
            report.committed_bytes,
            report.journal_events,
        )?;
        let book = B::from_recovered(recovered, spawn).map_err(DurableError::Book)?;
        Ok((
            Self {
                book,
                journal,
                snapshot_path: durability.snapshot_path(),
                snapshot_every: durability.snapshot_every,
                last_snapshot_seq: report.snapshot_seq.unwrap_or(0),
            },
            report,
        ))
    }

    /// The wrapped book.
    pub fn book(&self) -> &B {
        &self.book
    }

    /// Mutable access to the wrapped book (answers queries off-loop).
    pub fn book_mut(&mut self) -> &mut B {
        &mut self.book
    }

    /// The journal sequence of the last journaled mutation.
    pub fn seq(&self) -> u64 {
        self.journal.seq()
    }

    /// Syncs the journal and writes a snapshot at the current sequence,
    /// returning that sequence. The journal sync comes first so the
    /// snapshot's `seq` never points past durable journal bytes.
    pub fn snapshot_now(&mut self) -> Result<u64, DurableError<B::Error>> {
        self.journal.sync()?;
        let snapshot = Snapshot {
            seq: self.journal.seq(),
            export: self.book.export().map_err(DurableError::Book)?,
        };
        save_snapshot(&self.snapshot_path, &snapshot)?;
        self.last_snapshot_seq = snapshot.seq;
        Ok(snapshot.seq)
    }

    fn maybe_snapshot(&mut self) -> Result<(), DurableError<B::Error>> {
        if let Some(every) = self.snapshot_every {
            if self.journal.seq() - self.last_snapshot_seq >= every.max(1) {
                self.snapshot_now()?;
            }
        }
        Ok(())
    }
}

impl<B: Book> EventSink for Durable<B> {
    type Error = DurableError<B::Error>;

    fn apply(&mut self, event: Event) -> Result<Option<String>, Self::Error> {
        let mutation = !matches!(event, Event::Query(_));
        if mutation {
            self.journal.append(&event)?;
        }
        let seq = self.journal.seq();
        let answer = self.book.apply(event).map_err(|source| {
            if mutation {
                DurableError::Apply { seq, source }
            } else {
                DurableError::Book(source)
            }
        })?;
        if mutation {
            self.maybe_snapshot()?;
        }
        Ok(answer)
    }

    /// The shutdown snapshot (which syncs the journal first), then the
    /// book's own finish.
    fn finish(&mut self) -> Result<(), Self::Error> {
        self.snapshot_now()?;
        self.book.finish().map_err(DurableError::Book)
    }

    fn sequencer(&self) -> Sequencer {
        self.book.sequencer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::read_journal;
    use crate::snapshot::load_snapshot;
    use crate::testutil::scratch_dir;
    use flexoffers_model::{FlexOffer, Slice};
    use flexoffers_serving::{DurabilityConfig, LiveServer, QueryKind};

    fn offer(tes: i64) -> FlexOffer {
        FlexOffer::new(tes, tes + 3, vec![Slice::new(-1, 2).unwrap()]).unwrap()
    }

    fn config_for(journal: &std::path::Path, snapshot_every: Option<u64>) -> ServeConfig {
        ServeConfig {
            durability: Some(DurabilityConfig {
                snapshot_every,
                ..DurabilityConfig::new(journal)
            }),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn mutations_are_journaled_before_apply_and_queries_are_not() {
        let dir = scratch_dir("durable_journal");
        let config = config_for(&dir.path().join("events.jsonl"), None);
        let journal_path = config.durability.as_ref().unwrap().journal.clone();

        let (mut durable, report) =
            Durable::<LiveBook>::open(config, Engine::sequential(), ()).unwrap();
        assert_eq!(report.journal_events, 0);
        durable.apply(Event::Add(offer(0))).unwrap();
        durable.apply(Event::Add(offer(1))).unwrap();
        let answer = durable
            .apply(Event::Query(QueryKind::Measure))
            .unwrap()
            .expect("queries answer");
        assert!(answer.contains("\"offers\":2"), "{answer}");
        durable.apply(Event::Remove { id: 0 }).unwrap();
        durable.finish().unwrap();

        let contents = read_journal(&journal_path).unwrap();
        assert_eq!(contents.events.len(), 3, "queries are not journaled");
        assert_eq!(durable.seq(), 3);
    }

    #[test]
    fn periodic_snapshots_and_shutdown_snapshot_land_on_disk() {
        let dir = scratch_dir("durable_snapshots");
        let config = config_for(&dir.path().join("events.jsonl"), Some(4));
        let snapshot_path = config.durability.as_ref().unwrap().snapshot_path();

        let (mut durable, _) = Durable::<LiveBook>::open(config, Engine::sequential(), ()).unwrap();
        for i in 0..6 {
            durable.apply(Event::Add(offer(i))).unwrap();
        }
        // 6 mutations with snapshot_every=4: one periodic snapshot at 4.
        let periodic = load_snapshot(&snapshot_path).unwrap().expect("periodic");
        assert_eq!(periodic.seq, 4);
        durable.finish().unwrap();
        let final_snap = load_snapshot(&snapshot_path).unwrap().expect("final");
        assert_eq!(final_snap.seq, 6);
    }

    #[test]
    fn reopen_continues_the_same_history() {
        let dir = scratch_dir("durable_reopen");
        let config = config_for(&dir.path().join("events.jsonl"), Some(3));

        let (mut durable, _) =
            Durable::<LiveBook>::open(config.clone(), Engine::sequential(), ()).unwrap();
        for i in 0..5 {
            durable.apply(Event::Add(offer(i))).unwrap();
        }
        durable.finish().unwrap();
        let before = durable.book_mut().answer(QueryKind::Aggregate);
        drop(durable);

        let (mut reopened, report) =
            Durable::<LiveBook>::open(config, Engine::sequential(), ()).unwrap();
        assert_eq!(report.journal_events, 5);
        assert_eq!(report.snapshot_seq, Some(5), "shutdown snapshot used");
        assert_eq!(report.replayed, 0);
        assert_eq!(reopened.book_mut().answer(QueryKind::Aggregate), before);

        // New mutations continue the id sequence.
        reopened.apply(Event::Add(offer(9))).unwrap();
        assert_eq!(reopened.seq(), 6);
        assert_eq!(reopened.book().live_ids().last(), Some(&5));
    }

    #[test]
    fn the_serving_loop_drives_a_durable_book() {
        let dir = scratch_dir("durable_loop");
        let config = config_for(&dir.path().join("events.jsonl"), Some(8));
        let journal_path = config.durability.as_ref().unwrap().journal.clone();

        let (durable, _) =
            Durable::<LiveBook>::open(config.clone(), Engine::sequential(), ()).unwrap();
        let mut handle = LiveServer::spawn_sink(durable);
        handle.add(offer(0)).unwrap();
        handle.add(offer(1)).unwrap();
        let live_answer = handle.query(QueryKind::Measure).unwrap();
        handle.remove(0).unwrap();
        handle.shutdown().unwrap();

        // The loop's clean drain ran finish(): journal synced + snapshot.
        let contents = read_journal(&journal_path).unwrap();
        assert_eq!(contents.events.len(), 3);

        // Recover and re-ask: byte-identical to the live answer's shape
        // at the same point (re-run the query pre-remove via a fresh book).
        let (mut replayed, _) =
            Durable::<LiveBook>::open(config, Engine::sequential(), ()).unwrap();
        assert_eq!(replayed.book().len(), 1);
        let mut check = LiveBook::new(ServeConfig::default(), 2, Engine::sequential()).unwrap();
        check.add(offer(0));
        check.add(offer(1));
        assert_eq!(check.answer(QueryKind::Measure), live_answer);
        let _ = replayed.book_mut();
    }

    #[test]
    fn apply_errors_carry_their_sequence() {
        let dir = scratch_dir("durable_apply_err");
        let config = config_for(&dir.path().join("events.jsonl"), None);
        let (mut durable, _) = Durable::<LiveBook>::open(config, Engine::sequential(), ()).unwrap();
        durable.apply(Event::Add(offer(0))).unwrap();
        let err = durable.apply(Event::Remove { id: 42 }).unwrap_err();
        assert!(matches!(err, DurableError::Apply { seq: 2, .. }), "{err}");
    }
}
