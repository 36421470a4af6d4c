//! The append-only event journal.
//!
//! One [`Event::to_json_line`] per line — the journal *is* a replayable
//! [`flexoffers_serving::parse_script`] script, byte for
//! byte. The sequence number of a mutation is implicit: line `k` (1-based,
//! counting committed lines) is sequence `k`, which is what snapshots
//! record. The writer always terminates a line before counting it
//! committed, so after any crash the final line is either whole or torn;
//! readers drop an unterminated tail silently ([`read_journal`]) and
//! [`Journal::resume`] truncates it before appending.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use flexoffers_serving::{parse_script, Event, ScriptError};

use crate::error::StorageError;

/// What a journal file held: the committed (fully terminated, validated)
/// events and where they end.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalContents {
    /// The committed events, in journal order.
    pub events: Vec<Event>,
    /// Byte length of the committed prefix (everything up to and including
    /// the last newline; the file's tail past this point is torn).
    pub committed_bytes: u64,
    /// Whether an unterminated tail was discarded.
    pub dropped_torn_tail: bool,
}

/// Reads a journal file, dropping a torn tail. A missing file is an empty
/// journal (first boot), never an error; a *terminated* line that fails
/// validation is [`StorageError::CorruptJournal`].
pub fn read_journal(path: &Path) -> Result<JournalContents, StorageError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(JournalContents {
                events: Vec::new(),
                committed_bytes: 0,
                dropped_torn_tail: false,
            })
        }
        Err(e) => return Err(StorageError::io(path, e)),
    };
    let committed = bytes
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |last| last + 1);
    let dropped_torn_tail = committed < bytes.len();
    let text = std::str::from_utf8(&bytes[..committed]).map_err(|e| {
        let line = bytes[..e.valid_up_to()]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            + 1;
        StorageError::CorruptJournal {
            path: path.to_owned(),
            line,
            message: format!("invalid UTF-8: {e}"),
        }
    })?;
    let events = match parse_script(text) {
        Ok(events) => events,
        // An empty journal (or only a torn first line) replays to nothing.
        Err(ScriptError::Empty) => Vec::new(),
        Err(ScriptError::Line { line, message }) => {
            return Err(StorageError::CorruptJournal {
                path: path.to_owned(),
                line,
                message,
            })
        }
    };
    Ok(JournalContents {
        events,
        committed_bytes: committed as u64,
        dropped_torn_tail,
    })
}

/// The journal's append side: buffered writes, a line always terminated
/// before it counts, fsync every `sync_every` appends (and on demand).
#[derive(Debug)]
pub struct Journal {
    file: BufWriter<File>,
    path: PathBuf,
    seq: u64,
    sync_every: u64,
    since_sync: u64,
}

impl Journal {
    /// Creates a fresh, empty journal (truncating any existing file).
    pub fn create(path: &Path, sync_every: u64) -> Result<Self, StorageError> {
        let file = File::create(path).map_err(|e| StorageError::io(path, e))?;
        Ok(Self::wrap(file, path, 0, sync_every))
    }

    /// Opens an existing journal (creating it if missing) for appending at
    /// sequence `seq`, truncating the file to `committed_bytes` first —
    /// this is what discards a torn tail before new events go in.
    pub fn resume(
        path: &Path,
        sync_every: u64,
        committed_bytes: u64,
        seq: u64,
    ) -> Result<Self, StorageError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StorageError::io(path, e))?;
        file.set_len(committed_bytes)
            .map_err(|e| StorageError::io(path, e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| StorageError::io(path, e))?;
        Ok(Self::wrap(file, path, seq, sync_every))
    }

    fn wrap(file: File, path: &Path, seq: u64, sync_every: u64) -> Self {
        Self {
            file: BufWriter::new(file),
            path: path.to_owned(),
            seq,
            sync_every: sync_every.max(1),
            since_sync: 0,
        }
    }

    /// Appends one event line and returns its sequence number. Runs the
    /// batched fsync when due.
    pub fn append(&mut self, event: &Event) -> Result<u64, StorageError> {
        let mut line = event.to_json_line();
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| StorageError::io(&self.path, e))?;
        self.seq += 1;
        self.since_sync += 1;
        if self.since_sync >= self.sync_every {
            self.sync()?;
        }
        Ok(self.seq)
    }

    /// Flushes the buffer and fsyncs the file — called on the batch
    /// cadence, before every snapshot, and at clean shutdown.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.file
            .flush()
            .map_err(|e| StorageError::io(&self.path, e))?;
        self.file
            .get_ref()
            .sync_data()
            .map_err(|e| StorageError::io(&self.path, e))?;
        self.since_sync = 0;
        Ok(())
    }

    /// The sequence number of the last appended event (0 when empty).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::scratch_dir;
    use flexoffers_model::{FlexOffer, Slice};
    use flexoffers_serving::QueryKind;

    fn offer(tes: i64) -> FlexOffer {
        FlexOffer::new(tes, tes + 2, vec![Slice::new(1, 3).unwrap()]).unwrap()
    }

    #[test]
    fn journal_round_trips_and_is_a_parse_script_script() {
        let dir = scratch_dir("journal_roundtrip");
        let path = dir.path().join("events.jsonl");
        let events = vec![
            Event::Add(offer(0)),
            Event::Add(offer(1)),
            Event::Update {
                id: 1,
                offer: offer(9),
            },
            Event::Remove { id: 0 },
        ];
        let mut journal = Journal::create(&path, 2).unwrap();
        for (i, event) in events.iter().enumerate() {
            assert_eq!(journal.append(event).unwrap(), i as u64 + 1);
        }
        journal.sync().unwrap();
        assert_eq!(journal.seq(), 4);

        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.events, events);
        assert!(!contents.dropped_torn_tail);

        // The file is literally a parse_script script.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(parse_script(&text).unwrap(), events);
    }

    #[test]
    fn missing_journals_are_empty_not_errors() {
        let dir = scratch_dir("journal_missing");
        let contents = read_journal(&dir.path().join("nope.jsonl")).unwrap();
        assert_eq!(contents.events, Vec::new());
        assert_eq!(contents.committed_bytes, 0);
    }

    #[test]
    fn torn_tails_are_dropped_and_resume_truncates_them() {
        let dir = scratch_dir("journal_torn");
        let path = dir.path().join("events.jsonl");
        let mut journal = Journal::create(&path, 1).unwrap();
        journal.append(&Event::Add(offer(0))).unwrap();
        journal.append(&Event::Add(offer(1))).unwrap();
        drop(journal);
        let whole = std::fs::read(&path).unwrap();

        // Tear mid-way through the second line.
        let cut = whole.len() - 5;
        std::fs::write(&path, &whole[..cut]).unwrap();
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.events.len(), 1, "torn line dropped");
        assert!(contents.dropped_torn_tail);
        let first_line_len = contents.committed_bytes;

        // Resuming truncates the torn bytes and appends cleanly after.
        let mut resumed = Journal::resume(&path, 1, first_line_len, 1).unwrap();
        assert_eq!(resumed.append(&Event::Remove { id: 0 }).unwrap(), 2);
        resumed.sync().unwrap();
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.events.len(), 2);
        assert_eq!(contents.events[1], Event::Remove { id: 0 });
        assert!(!contents.dropped_torn_tail);
    }

    #[test]
    fn terminated_garbage_is_a_named_corruption_error() {
        let dir = scratch_dir("journal_garbage");
        let path = dir.path().join("events.jsonl");
        std::fs::write(&path, b"{\"event\":\"add\"\n").unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(
            matches!(err, StorageError::CorruptJournal { line: 1, .. }),
            "{err}"
        );

        // Valid first line, garbage second (terminated), torn third: the
        // terminated garbage is the error, not the torn tail.
        let mut text = Event::Add(offer(0)).to_json_line();
        text.push('\n');
        text.push_str("not json\n");
        text.push_str("{\"event\":\"add\"");
        std::fs::write(&path, text).unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(
            matches!(err, StorageError::CorruptJournal { line: 2, .. }),
            "{err}"
        );

        // Invalid UTF-8 on a terminated line is named, not panicked on.
        std::fs::write(&path, b"\xff\xfe\n").unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(matches!(err, StorageError::CorruptJournal { .. }), "{err}");
    }

    #[test]
    fn query_lines_are_tolerated_on_read() {
        // The durable writer never journals queries, but the journal is a
        // parse_script script — a hand-written one with queries replays.
        let dir = scratch_dir("journal_queries");
        let path = dir.path().join("events.jsonl");
        let mut text = Event::Add(offer(0)).to_json_line();
        text.push('\n');
        text.push_str(&Event::Query(QueryKind::Measure).to_json_line());
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.events.len(), 2);
    }
}
