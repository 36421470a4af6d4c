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
//! {"id":N,"op":"confirm"}               — the shard's live count and key digest
//! {"id":N,"op":"export"}                — the full shard (the oracle path)
//! {"id":N,"op":"load","next_id":I,"shard":{…}}
//! {"id":N,"op":"shutdown"}
//! ```
//!
//! `confirm` is the query path's only request: the worker answers
//! `{"len":L,"key_digest":D}`, two counters its book already maintains,
//! and the supervisor checks them against its own copy of the shard. An
//! `export` is answered with the bare shard. Supervisor and workers are
//! always the same build, so there is no older dialect to accept.

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
    /// Reply with the shard's live count and key digest ([`Confirmed`]) —
    /// what a query's gather checks against the supervisor's copy.
    Confirm,
    /// Refresh the baseline partial and reply with the worker's whole
    /// shard — the full-gather oracle's request.
    Export,
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
    /// Success; `confirm` and `export` replies carry their payloads,
    /// everything else `true`.
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
        WorkerRequest::Confirm => fields.push(("op", op("confirm"))),
        WorkerRequest::Export => fields.push(("op", op("export"))),
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
        "confirm" => WorkerRequest::Confirm,
        "export" => WorkerRequest::Export,
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
/// the worker renders each payload once and splices it into the frame.
pub fn ok_line_raw(id: u64, payload_json: &str) -> String {
    let mut line = String::with_capacity(payload_json.len() + 24);
    line.push_str("{\"id\":");
    line.push_str(&id.to_string());
    line.push_str(",\"ok\":");
    line.push_str(payload_json);
    line.push('}');
    line
}

/// A `confirm` reply: what the worker's one-shard book holds, in the two
/// counters every mutation already maintains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Confirmed {
    /// The shard's live offer count.
    pub len: u64,
    /// The shard's commutative `(tes, tf)` key digest.
    pub key_digest: u64,
}

/// Renders a `confirm` reply's `ok` payload.
pub fn confirm_payload(confirmed: Confirmed) -> String {
    let payload = obj(vec![
        ("len", Value::U64(confirmed.len)),
        ("key_digest", Value::U64(confirmed.key_digest)),
    ]);
    serde_json::to_string(&payload).expect("confirm values serialize")
}

/// Parses a `confirm` reply's `ok` payload.
pub fn parse_confirm(payload: &Value) -> Result<Confirmed, String> {
    Ok(Confirmed {
        len: get_u64(payload, "len")?,
        key_digest: get_u64(payload, "key_digest")?,
    })
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
            (4, WorkerRequest::Confirm),
            (5, WorkerRequest::Export),
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
        // The oracle's export frame is the one it has always been, and
        // the query path's confirm frame carries nothing but its op.
        assert_eq!(
            request_line(4, &WorkerRequest::Export),
            "{\"id\":4,\"op\":\"export\"}"
        );
        assert_eq!(
            request_line(5, &WorkerRequest::Confirm),
            "{\"id\":5,\"op\":\"confirm\"}"
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
    fn confirm_payloads_round_trip_and_need_both_counters() {
        let confirmed = Confirmed {
            len: 3,
            key_digest: u64::MAX,
        };
        let payload: Value = serde_json::from_str(&confirm_payload(confirmed)).unwrap();
        assert_eq!(parse_confirm(&payload), Ok(confirmed));
        assert!(parse_confirm(&obj(vec![("len", Value::U64(3))])).is_err());
        assert!(parse_confirm(&obj(vec![("key_digest", Value::U64(3))])).is_err());
        assert!(parse_confirm(&Value::Bool(true)).is_err());
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
