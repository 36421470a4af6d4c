//! Per-shard snapshots of the live book's incremental state.
//!
//! A snapshot is the [`BookExport`] — per-shard ids, offers, key digests,
//! and cached baseline partials — serialized at a recorded journal
//! sequence number. Everything in the export is integers, so a snapshot
//! round-trips bit for bit, which is what lets recovery answer queries
//! byte-identically to a run that never crashed.
//!
//! Bodies written before the live book stopped caching measure values
//! carry a `rows` array beside each shard's `baseline`; the decoder reads
//! them under the same format tag and ignores the rows (queries recompute
//! measure values from the offers).
//!
//! The file layout is a magic+checksum header line over a single-line JSON
//! body:
//!
//! ```text
//! flexoffers-snapshot/1 <fnv1a64 of the body, 16 hex digits>
//! {"seq":...,"next_id":...,"shards":[...]}
//! ```
//!
//! Writes go through a temp file + fsync + atomic rename, so a crash
//! mid-snapshot leaves the previous snapshot intact; any header or
//! checksum mismatch on load is the named
//! [`StorageError::CorruptSnapshot`], never a panic.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use serde::{Deserialize, Serialize, Value};

use flexoffers_model::FlexOffer;
use flexoffers_serving::{BookExport, ShardExport};
use flexoffers_timeseries::Series;

use crate::error::StorageError;

/// The snapshot format tag (first token of the header line).
pub const SNAPSHOT_FORMAT: &str = "flexoffers-snapshot/1";

/// A book image pinned to the journal sequence it was taken at: replaying
/// the journal suffix past `seq` on top of `export` reproduces the book.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Number of journal events applied when the snapshot was taken.
    pub seq: u64,
    /// The book image.
    pub export: BookExport,
}

/// FNV-1a 64 over the body bytes — dependency-free and plenty to catch
/// torn or tampered snapshot files. Public so a caller can write a
/// snapshot header whose checksum matches a body of its own choosing (the
/// recovery tests forge old-format snapshots this way).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Encodes a [`BookExport`] as the snapshot body's JSON value
/// (`{"next_id":…,"shards":[…]}`). Its `shards` entries are
/// [`shard_to_value`], the shard wire format: a snapshot pins them to a
/// journal seq on disk, and a cluster shard worker ships the same value
/// over its pipe. One codec, so the two cannot drift.
pub fn export_to_value(export: &BookExport) -> Value {
    let shards: Vec<Value> = export.shards.iter().map(shard_to_value).collect();
    obj(vec![
        ("next_id", Value::U64(export.next_id)),
        ("shards", Value::Array(shards)),
    ])
}

/// Encodes one [`ShardExport`] exactly as it appears inside
/// [`export_to_value`]'s `shards` array. Public so a shard worker can
/// serialize the one shard it holds.
pub fn shard_to_value(shard: &ShardExport) -> Value {
    let cache = match &shard.cache {
        None => Value::Null,
        Some(baseline) => obj(vec![("baseline", baseline.to_value())]),
    };
    obj(vec![
        (
            "ids",
            Value::Array(shard.ids.iter().map(|&id| Value::U64(id)).collect()),
        ),
        (
            "offers",
            Value::Array(shard.offers.iter().map(Serialize::to_value).collect()),
        ),
        ("key_digest", Value::U64(shard.key_digest)),
        ("cache", cache),
    ])
}

fn snapshot_to_value(snapshot: &Snapshot) -> Value {
    // `seq` leads, then the export's own fields — the body stays exactly
    // the documented `{"seq":…,"next_id":…,"shards":[…]}` layout.
    let Value::Object(export_fields) = export_to_value(&snapshot.export) else {
        unreachable!("export_to_value builds an object")
    };
    let mut fields = vec![("seq".to_owned(), Value::U64(snapshot.seq))];
    fields.extend(export_fields);
    Value::Object(fields)
}

// ---- decoding (every failure a message, never a panic) ----

fn field<'v>(v: &'v Value, name: &str) -> Result<&'v Value, String> {
    v.get(name).ok_or_else(|| format!("missing `{name}`"))
}

fn as_u64(v: &Value, name: &str) -> Result<u64, String> {
    match v {
        Value::U64(n) => Ok(*n),
        Value::I64(n) if *n >= 0 => Ok(*n as u64),
        other => Err(format!(
            "`{name}`: expected unsigned integer, found {}",
            other.kind()
        )),
    }
}

fn as_array<'v>(v: &'v Value, name: &str) -> Result<&'v [Value], String> {
    match v {
        Value::Array(items) => Ok(items),
        other => Err(format!("`{name}`: expected array, found {}", other.kind())),
    }
}

/// Decodes a [`BookExport`] from its [`export_to_value`] encoding; every
/// failure is a message, never a panic — the input may be a tampered
/// snapshot body. Structural invariants (shard placement, digests, …) are
/// *not* checked here: that is
/// [`LiveBook::from_export`](flexoffers_serving::LiveBook::from_export)'s
/// job. A `cache.rows` array, as older bodies carry, is ignored.
pub fn value_to_export(v: &Value) -> Result<BookExport, String> {
    let next_id = as_u64(field(v, "next_id")?, "next_id")?;
    let shards = as_array(field(v, "shards")?, "shards")?
        .iter()
        .enumerate()
        .map(|(s, shard)| value_to_shard(shard).map_err(|m| format!("shard {s}: {m}")))
        .collect::<Result<Vec<ShardExport>, String>>()?;
    Ok(BookExport { next_id, shards })
}

/// Decodes one [`ShardExport`] from its [`shard_to_value`] encoding —
/// one entry of a snapshot's `shards` array, or the one shard a cluster
/// worker ships over its pipe. Every failure is a message, never a panic;
/// structural invariants are
/// [`LiveBook::import_shard`](flexoffers_serving::LiveBook::import_shard)'s
/// job.
pub fn value_to_shard(shard: &Value) -> Result<ShardExport, String> {
    let ids = as_array(field(shard, "ids")?, "ids")?
        .iter()
        .map(|id| as_u64(id, "ids[]"))
        .collect::<Result<Vec<u64>, String>>()?;
    let offers = as_array(field(shard, "offers")?, "offers")?
        .iter()
        .map(|o| FlexOffer::from_value(o).map_err(|e| format!("offer: {e}")))
        .collect::<Result<Vec<FlexOffer>, String>>()?;
    let key_digest = as_u64(field(shard, "key_digest")?, "key_digest")?;
    let cache = match field(shard, "cache")? {
        Value::Null => None,
        cache => Some(
            Series::<i64>::from_value(field(cache, "baseline")?)
                .map_err(|e| format!("baseline: {e}"))?,
        ),
    };
    Ok(ShardExport {
        ids,
        offers,
        key_digest,
        cache,
    })
}

fn value_to_snapshot(v: &Value) -> Result<Snapshot, String> {
    let seq = as_u64(field(v, "seq")?, "seq")?;
    let export = value_to_export(v)?;
    Ok(Snapshot { seq, export })
}

/// Atomically writes `snapshot` to `path`: temp file, fsync, rename. A
/// crash at any point leaves either the old snapshot or the new one —
/// never a half-written file at `path`.
pub fn save_snapshot(path: &Path, snapshot: &Snapshot) -> Result<(), StorageError> {
    let body =
        serde_json::to_string(&snapshot_to_value(snapshot)).expect("snapshot values serialize");
    let mut text = format!("{SNAPSHOT_FORMAT} {:016x}\n", fnv1a64(body.as_bytes()));
    text.push_str(&body);
    text.push('\n');

    let mut tmp_name = path.file_name().unwrap_or_default().to_owned();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut file = File::create(&tmp).map_err(|e| StorageError::io(&tmp, e))?;
    file.write_all(text.as_bytes())
        .map_err(|e| StorageError::io(&tmp, e))?;
    file.sync_all().map_err(|e| StorageError::io(&tmp, e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| StorageError::io(path, e))?;
    // Best-effort directory sync so the rename itself is durable; not all
    // platforms allow fsync on a directory handle.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(dir) = File::open(dir) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Loads a snapshot. A missing file is `Ok(None)` (recovery replays the
/// whole journal); a present-but-invalid file is the named
/// [`StorageError::CorruptSnapshot`].
pub fn load_snapshot(path: &Path) -> Result<Option<Snapshot>, StorageError> {
    let corrupt = |message: String| StorageError::CorruptSnapshot {
        path: path.to_owned(),
        message,
    };
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StorageError::io(path, e)),
    };
    let text = std::str::from_utf8(&bytes).map_err(|e| corrupt(format!("invalid UTF-8: {e}")))?;
    let (header, body) = text
        .split_once('\n')
        .ok_or_else(|| corrupt("missing header line".to_owned()))?;
    let (magic, checksum) = header
        .split_once(' ')
        .ok_or_else(|| corrupt("malformed header".to_owned()))?;
    if magic != SNAPSHOT_FORMAT {
        return Err(corrupt(format!("unknown format `{magic}`")));
    }
    let body = body.strip_suffix('\n').unwrap_or(body);
    let expect =
        u64::from_str_radix(checksum, 16).map_err(|e| corrupt(format!("bad checksum: {e}")))?;
    let actual = fnv1a64(body.as_bytes());
    if actual != expect {
        return Err(corrupt(format!(
            "checksum mismatch (header {expect:016x}, body {actual:016x})"
        )));
    }
    let value: Value =
        serde_json::from_str(body).map_err(|e| corrupt(format!("malformed body: {e}")))?;
    value_to_snapshot(&value).map(Some).map_err(corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::scratch_dir;
    use flexoffers_engine::Engine;
    use flexoffers_model::Slice;
    use flexoffers_serving::{LiveBook, ServeConfig};

    fn warm_export() -> BookExport {
        let mut book = LiveBook::new(ServeConfig::default(), 3, Engine::sequential()).unwrap();
        for i in 0..12 {
            book.add(FlexOffer::new(i, i + 2, vec![Slice::new(-1, 2).unwrap()]).unwrap());
        }
        book.remove(5).unwrap();
        book.refresh();
        book.export()
    }

    #[test]
    fn snapshots_round_trip_exactly() {
        let dir = scratch_dir("snapshot_roundtrip");
        let path = dir.path().join("book.snap");
        let snapshot = Snapshot {
            seq: 13,
            export: warm_export(),
        };
        save_snapshot(&path, &snapshot).unwrap();
        let loaded = load_snapshot(&path).unwrap().expect("present");
        assert_eq!(loaded, snapshot);

        // Overwrite is atomic and the second image wins.
        let newer = Snapshot {
            seq: 14,
            export: warm_export(),
        };
        save_snapshot(&path, &newer).unwrap();
        assert_eq!(load_snapshot(&path).unwrap().unwrap().seq, 14);
    }

    #[test]
    fn the_export_codec_round_trips_standalone() {
        let export = warm_export();
        let value = export_to_value(&export);
        assert_eq!(value_to_export(&value).unwrap(), export);
        // Through JSON text, exactly as a worker's pipe would carry it.
        let text = serde_json::to_string(&value).unwrap();
        let reparsed: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(value_to_export(&reparsed).unwrap(), export);
        // A snapshot is the same value with `seq` prepended.
        assert!(value_to_export(&snapshot_to_value(&Snapshot {
            seq: 9,
            export: export.clone(),
        }))
        .is_ok());
    }

    #[test]
    fn shard_values_are_exactly_the_export_entries() {
        let export = warm_export();
        let Value::Array(entries) = field(&export_to_value(&export), "shards").unwrap().clone()
        else {
            panic!("shards is an array")
        };
        for (shard, entry) in export.shards.iter().zip(&entries) {
            assert_eq!(&shard_to_value(shard), entry, "one codec, two entry points");
        }
    }

    #[test]
    fn missing_snapshots_are_none_and_tampering_is_named() {
        let dir = scratch_dir("snapshot_tamper");
        let path = dir.path().join("book.snap");
        assert_eq!(load_snapshot(&path).unwrap(), None);

        let snapshot = Snapshot {
            seq: 2,
            export: warm_export(),
        };
        save_snapshot(&path, &snapshot).unwrap();

        // Flip one body byte: checksum mismatch, named error.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] = bytes[at].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(matches!(err, StorageError::CorruptSnapshot { .. }), "{err}");

        // Wrong magic.
        std::fs::write(&path, b"other-format/9 0000000000000000\n{}\n").unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(err.to_string().contains("unknown format"), "{err}");

        // Truncated to nothing.
        std::fs::write(&path, b"").unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(err.to_string().contains("missing header"), "{err}");

        // No stray temp file lingers from successful saves.
        let leftovers: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }
}
