//! The supervisor ↔ worker wire protocol.
//!
//! One request per line over the worker's stdin, one reply per line over
//! its stdout — the same envelope conventions as the TCP tier's
//! `flexoffers-jsonl/1` framing (`docs/PROTOCOL.md`): requests carry a
//! strictly increasing integer `id` that every reply echoes, success is
//! `{"id":N,"ok":…}`, failure is
//! `{"id":N,"error":{"code":…,"message":…}}`. The payloads reuse the
//! stack's existing codecs — offers serialize exactly as they do in serve
//! scripts and the journal, and a shipped shard is byte-for-byte one entry
//! of a snapshot body's `shards` array
//! ([`flexoffers_storage::shard_to_value`]), so the wire format cannot
//! drift from the persistence format.
//!
//! The request set is deliberately tiny — the supervisor owns all policy
//! (id assignment, routing, validation, retry) and a worker is a dumb
//! one-shard executor:
//!
//! ```text
//! {"id":N,"op":"init","threads":T}
//! {"id":N,"op":"add","offer_id":I,"offer":{…}}
//! {"id":N,"op":"update","offer_id":I,"offer":{…}}
//! {"id":N,"op":"remove","offer_id":I}
//! {"id":N,"op":"export"}                 — unconditional full export
//! {"id":N,"op":"export","if_digest":D}   — conditional (delta gather)
//! {"id":N,"op":"load","next_id":I,"shard":{…}}
//! {"id":N,"op":"shutdown"}
//! ```
//!
//! A conditional export is answered `{"not_modified":true,"digest":D}`
//! when the worker's shard **state digest** — FNV-1a 64 over the
//! canonical single-line JSON of its [`ShardExport`] body
//! ([`flexoffers_storage::shard_digest`]), which embeds the commutative
//! `key_digest` — still equals `D`; otherwise the worker ships
//! `{"digest":D',"shard":{…}}`. Supervisor and workers are always the
//! same build, so a bare shard (no `digest` wrapper) is a malformed
//! payload, not an older dialect.

use flexoffers_model::FlexOffer;
use flexoffers_serving::ShardExport;
use flexoffers_storage::{shard_to_value, value_to_shard};
use serde::{Deserialize, Serialize, Value};

/// The worker wire-format version (reported in errors and docs; the
/// framing itself carries no version field — supervisor and workers are
/// always the same build, spawned from the same binary).
pub const WORKER_PROTOCOL: &str = "flexoffers-worker/1";

/// One supervisor → worker request.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerRequest {
    /// Create the worker's empty one-shard book under the evaluation
    /// budget `threads`.
    Init {
        /// Worker-local thread budget.
        threads: usize,
    },
    /// Insert an offer under a supervisor-assigned global id.
    Add {
        /// The global logical id.
        offer_id: u64,
        /// The offer.
        offer: FlexOffer,
    },
    /// Replace the offer with global id `offer_id` in place.
    Update {
        /// The global logical id.
        offer_id: u64,
        /// The replacement offer.
        offer: FlexOffer,
    },
    /// Remove the offer with global id `offer_id`.
    Remove {
        /// The global logical id.
        offer_id: u64,
    },
    /// Refresh the baseline partial and reply with the worker's shard — unless
    /// `if_digest` matches the worker's current shard state digest, in
    /// which case the reply is the tiny `not_modified` frame. `None`
    /// always ships the full export (respawn re-baselining, snapshots,
    /// and the full-gather oracle use this).
    Export {
        /// The supervisor's last-seen state digest for this shard.
        if_digest: Option<u64>,
    },
    /// Replace the worker's shard with this image (respawn rehydration).
    Load {
        /// The cluster's id counter, strictly past every id in `shard`.
        next_id: u64,
        /// The shard image.
        shard: ShardExport,
    },
    /// Acknowledge and exit the worker loop.
    Shutdown,
}

/// One worker → supervisor reply (without its echoed request id).
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerReply {
    /// Success; `export` replies carry the shard payload, everything else
    /// `true`.
    Ok(Value),
    /// Failure, with a machine-readable code — any error is a supervisor
    /// bug or a poisoned worker, and the supervisor treats it as fatal for
    /// that worker.
    Err {
        /// Machine-readable code (`bad_frame`, `bad_request`, `no_book`,
        /// `bad_event`, `bad_book`).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Renders one request line (no trailing newline).
pub fn request_line(id: u64, request: &WorkerRequest) -> String {
    let mut line = String::new();
    write_request_line(&mut line, id, request);
    line
}

/// Renders one request line (no trailing newline) into `buf`, clearing it
/// first — the supervisor keeps one buffer per worker connection so the
/// per-event scatter reuses its allocation across roundtrips.
pub fn write_request_line(buf: &mut String, id: u64, request: &WorkerRequest) {
    buf.clear();
    let mut fields = vec![("id", Value::U64(id))];
    let op = |name: &str| Value::Str(name.to_owned());
    match request {
        WorkerRequest::Init { threads } => {
            fields.push(("op", op("init")));
            fields.push(("threads", Value::U64(*threads as u64)));
        }
        WorkerRequest::Add { offer_id, offer } => {
            fields.push(("op", op("add")));
            fields.push(("offer_id", Value::U64(*offer_id)));
            fields.push(("offer", offer.to_value()));
        }
        WorkerRequest::Update { offer_id, offer } => {
            fields.push(("op", op("update")));
            fields.push(("offer_id", Value::U64(*offer_id)));
            fields.push(("offer", offer.to_value()));
        }
        WorkerRequest::Remove { offer_id } => {
            fields.push(("op", op("remove")));
            fields.push(("offer_id", Value::U64(*offer_id)));
        }
        WorkerRequest::Export { if_digest } => {
            fields.push(("op", op("export")));
            // `None` serializes as an absent field, so an unconditional
            // export is byte-identical to the pre-delta wire — and an old
            // worker parsing a conditional one simply never sees the key.
            if let Some(digest) = if_digest {
                fields.push(("if_digest", Value::U64(*digest)));
            }
        }
        WorkerRequest::Load { next_id, shard } => {
            fields.push(("op", op("load")));
            fields.push(("next_id", Value::U64(*next_id)));
            fields.push(("shard", shard_to_value(shard)));
        }
        WorkerRequest::Shutdown => fields.push(("op", op("shutdown"))),
    }
    serde_json::to_string_into(&obj(fields), buf).expect("request values serialize");
}

fn get_u64(v: &Value, name: &str) -> Result<u64, String> {
    let field = v.get(name).ok_or_else(|| format!("missing `{name}`"))?;
    u64::from_value(field).map_err(|e| format!("`{name}`: {e}"))
}

fn get_usize(v: &Value, name: &str) -> Result<usize, String> {
    usize::try_from(get_u64(v, name)?).map_err(|_| format!("`{name}` out of range"))
}

fn get_offer(v: &Value) -> Result<FlexOffer, String> {
    let field = v.get("offer").ok_or("missing `offer`")?;
    FlexOffer::from_value(field).map_err(|e| format!("`offer`: {e}"))
}

fn get_shard(v: &Value) -> Result<ShardExport, String> {
    let field = v.get("shard").ok_or("missing `shard`")?;
    value_to_shard(field).map_err(|e| format!("`shard`: {e}"))
}

/// Parses one request line into its id and request. A missing/invalid id
/// still fails with a message — the worker answers `{"id":null,…}` then.
pub fn parse_request(line: &str) -> Result<(u64, WorkerRequest), String> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| format!("malformed request JSON: {e}"))?;
    let id = get_u64(&value, "id")?;
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or("missing or non-string `op`")?;
    let request = match op {
        "init" => WorkerRequest::Init {
            threads: get_usize(&value, "threads")?,
        },
        "add" => WorkerRequest::Add {
            offer_id: get_u64(&value, "offer_id")?,
            offer: get_offer(&value)?,
        },
        "update" => WorkerRequest::Update {
            offer_id: get_u64(&value, "offer_id")?,
            offer: get_offer(&value)?,
        },
        "remove" => WorkerRequest::Remove {
            offer_id: get_u64(&value, "offer_id")?,
        },
        "export" => WorkerRequest::Export {
            if_digest: match value.get("if_digest") {
                None => None,
                Some(field) => {
                    Some(u64::from_value(field).map_err(|e| format!("`if_digest`: {e}"))?)
                }
            },
        },
        "load" => WorkerRequest::Load {
            next_id: get_u64(&value, "next_id")?,
            shard: get_shard(&value)?,
        },
        "shutdown" => WorkerRequest::Shutdown,
        other => return Err(format!("unknown op `{other}`")),
    };
    Ok((id, request))
}

/// Renders a success reply line.
pub fn ok_line(id: u64, payload: Value) -> String {
    serde_json::to_string(&obj(vec![("id", Value::U64(id)), ("ok", payload)]))
        .expect("reply values serialize")
}

/// Renders a success reply line around an already-serialized payload —
/// the worker's export path splices its cached shard JSON straight into
/// the frame instead of re-serializing a value tree.
pub fn ok_line_raw(id: u64, payload_json: &str) -> String {
    let mut line = String::with_capacity(payload_json.len() + 24);
    line.push_str("{\"id\":");
    line.push_str(&id.to_string());
    line.push_str(",\"ok\":");
    line.push_str(payload_json);
    line.push('}');
    line
}

/// The payload of a conditional export hit: `if_digest` still matches.
pub fn not_modified_payload(digest: u64) -> String {
    format!("{{\"not_modified\":true,\"digest\":{digest}}}")
}

/// The payload of a conditional export miss: the digest of the worker's
/// shard plus the shard itself, spliced in from `shard_json` (the exact
/// bytes the digest was computed over — serialized once, hashed and
/// shipped).
pub fn full_export_payload(digest: u64, shard_json: &str) -> String {
    let mut payload = String::with_capacity(shard_json.len() + 40);
    payload.push_str("{\"digest\":");
    payload.push_str(&digest.to_string());
    payload.push_str(",\"shard\":");
    payload.push_str(shard_json);
    payload.push('}');
    payload
}

/// A parsed conditional-export reply payload.
#[derive(Clone, Debug, PartialEq)]
pub enum ExportPayload {
    /// The worker's shard still matches the supervisor's digest; nothing
    /// was shipped.
    NotModified {
        /// The digest the worker confirmed.
        digest: u64,
    },
    /// A full export with the worker's shard state digest.
    Full {
        /// The shipped shard's state digest.
        digest: u64,
        /// The worker's shard image.
        shard: ShardExport,
    },
}

/// Parses an export reply's `ok` payload: the `not_modified` frame or the
/// digest-wrapped shard.
pub fn parse_export_payload(payload: &Value) -> Result<ExportPayload, String> {
    if payload
        .get("not_modified")
        .is_some_and(|flag| flag == &Value::Bool(true))
    {
        return Ok(ExportPayload::NotModified {
            digest: get_u64(payload, "digest")?,
        });
    }
    if payload.get("shard").is_some() {
        return Ok(ExportPayload::Full {
            digest: get_u64(payload, "digest")?,
            shard: get_shard(payload)?,
        });
    }
    Err("export payload is neither `not_modified` nor a digest-wrapped `shard`".to_owned())
}

/// Renders an error reply line; `id` is `None` when the request line was
/// unreadable.
pub fn error_line(id: Option<u64>, code: &str, message: &str) -> String {
    let id = id.map_or(Value::Null, Value::U64);
    let error = obj(vec![
        ("code", Value::Str(code.to_owned())),
        ("message", Value::Str(message.to_owned())),
    ]);
    serde_json::to_string(&obj(vec![("id", id), ("error", error)])).expect("reply values serialize")
}

/// Parses one reply line into its echoed id (None for `null`) and payload.
pub fn parse_reply(line: &str) -> Result<(Option<u64>, WorkerReply), String> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| format!("malformed reply JSON: {e}"))?;
    let id = match value.get("id").ok_or("missing `id`")? {
        Value::Null => None,
        other => Some(u64::from_value(other).map_err(|e| format!("`id`: {e}"))?),
    };
    if let Some(payload) = value.get("ok") {
        return Ok((id, WorkerReply::Ok(payload.clone())));
    }
    let error = value.get("error").ok_or("neither `ok` nor `error`")?;
    let text = |name: &str| -> Result<String, String> {
        Ok(error
            .get(name)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("`error.{name}`: expected string"))?
            .to_owned())
    };
    Ok((
        id,
        WorkerReply::Err {
            code: text("code")?,
            message: text("message")?,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexoffers_model::Slice;

    fn offer() -> FlexOffer {
        FlexOffer::new(1, 4, vec![Slice::new(-1, 2).unwrap()]).unwrap()
    }

    fn shard() -> ShardExport {
        ShardExport {
            ids: vec![0, 2],
            offers: vec![offer(), offer()],
            key_digest: 7,
            cache: None,
        }
    }

    #[test]
    fn requests_round_trip_through_their_lines() {
        for (id, request) in [
            (0, WorkerRequest::Init { threads: 2 }),
            (
                1,
                WorkerRequest::Add {
                    offer_id: 9,
                    offer: offer(),
                },
            ),
            (
                2,
                WorkerRequest::Update {
                    offer_id: 9,
                    offer: offer(),
                },
            ),
            (3, WorkerRequest::Remove { offer_id: 9 }),
            (4, WorkerRequest::Export { if_digest: None }),
            (
                5,
                WorkerRequest::Export {
                    if_digest: Some(0xdead_beef),
                },
            ),
            (
                6,
                WorkerRequest::Load {
                    next_id: 3,
                    shard: shard(),
                },
            ),
            (7, WorkerRequest::Shutdown),
        ] {
            let line = request_line(id, &request);
            let (back_id, back) = parse_request(&line).expect(&line);
            assert_eq!(back_id, id, "{line}");
            assert_eq!(back, request, "{line}");
        }
    }

    #[test]
    fn unconditional_exports_keep_the_pre_delta_line_bytes() {
        // The compatibility rule's supervisor half: `None` must serialize
        // with no `if_digest` key at all, so an old worker sees exactly
        // the frame it always has.
        assert_eq!(
            request_line(4, &WorkerRequest::Export { if_digest: None }),
            "{\"id\":4,\"op\":\"export\"}"
        );
        assert!(
            request_line(4, &WorkerRequest::Export { if_digest: Some(1) })
                .contains("\"if_digest\":1")
        );
    }

    #[test]
    fn write_request_line_reuses_its_buffer() {
        let mut buf = String::from("stale contents");
        write_request_line(&mut buf, 3, &WorkerRequest::Remove { offer_id: 9 });
        assert_eq!(buf, request_line(3, &WorkerRequest::Remove { offer_id: 9 }));
    }

    #[test]
    fn raw_ok_lines_match_the_value_path() {
        assert_eq!(ok_line_raw(7, "true"), ok_line(7, Value::Bool(true)));
        let payload = obj(vec![("digest", Value::U64(12))]);
        assert_eq!(
            ok_line_raw(7, &serde_json::to_string(&payload).unwrap()),
            ok_line(7, payload)
        );
    }

    #[test]
    fn export_payloads_parse_in_all_three_shapes() {
        let shard = shard();
        let shard_json = serde_json::to_string(&shard_to_value(&shard)).unwrap();
        let digest = flexoffers_storage::shard_digest(&shard);

        // Hit.
        let hit: Value = serde_json::from_str(&not_modified_payload(digest)).unwrap();
        assert_eq!(
            parse_export_payload(&hit).unwrap(),
            ExportPayload::NotModified { digest }
        );

        // Miss: the spliced frame parses to the digest plus the shard.
        let miss: Value = serde_json::from_str(&full_export_payload(digest, &shard_json)).unwrap();
        assert_eq!(
            parse_export_payload(&miss).unwrap(),
            ExportPayload::Full {
                digest,
                shard: shard.clone()
            }
        );

        // A bare shard (no digest wrapper) is a malformed payload, and so
        // is a wrapped one without its digest.
        let err = parse_export_payload(&shard_to_value(&shard)).unwrap_err();
        assert!(err.contains("digest-wrapped"), "{err}");
        let undigested = obj(vec![("shard", shard_to_value(&shard))]);
        assert!(parse_export_payload(&undigested).is_err());

        // Garbage is a message.
        assert!(parse_export_payload(&Value::Bool(true)).is_err());
        assert!(parse_export_payload(&obj(vec![("not_modified", Value::Bool(true))])).is_err());
    }

    #[test]
    fn replies_round_trip_and_malformed_lines_are_messages() {
        let (id, reply) = parse_reply(&ok_line(7, Value::Bool(true))).unwrap();
        assert_eq!(id, Some(7));
        assert_eq!(reply, WorkerReply::Ok(Value::Bool(true)));

        let (id, reply) = parse_reply(&error_line(None, "bad_frame", "nope")).unwrap();
        assert_eq!(id, None);
        assert_eq!(
            reply,
            WorkerReply::Err {
                code: "bad_frame".to_owned(),
                message: "nope".to_owned()
            }
        );

        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"id\":1,\"op\":\"sing\"}").is_err());
        assert!(parse_request("{\"op\":\"export\"}").is_err(), "id required");
        assert!(parse_reply("{\"id\":1}").is_err());
    }
}
