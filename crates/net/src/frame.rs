//! The request/response envelope of the TCP tier.
//!
//! One request per line: `{"id":N,"event":{…}}`, where the nested object
//! is exactly one `flexoffers-jsonl/1` script event — the same bytes a
//! serve script or the journal holds (see `docs/PROTOCOL.md`, which is
//! normative for both layers). Responses echo the request id:
//! `{"id":N,"ok":…}` on success, `{"id":N,"error":{"code":…,"message":…}}`
//! on failure; `id` is `null` when the envelope itself was unreadable.
//! Request ids must be strictly increasing per connection — the connection
//! handler enforces that; this module only parses and renders lines.

use std::fmt;

use flexoffers_serving::event::strict_id;
use flexoffers_serving::Event;
use serde::Value;

/// The wire-format version the whole stack speaks — serve scripts, the
/// journal file, and this network framing. See `docs/PROTOCOL.md`.
pub const PROTOCOL_VERSION: &str = "flexoffers-jsonl/1";

/// Hard per-line ceiling; a longer frame closes the connection (a missing
/// newline must not buffer unboundedly).
pub const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// Machine-readable `code` values of response error lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The envelope was unreadable — malformed JSON, a missing or invalid
    /// `id`, a non-monotone id, or an oversize line. Closes the connection.
    BadFrame,
    /// The envelope parsed but the nested event did not (unknown tag, bad
    /// offer, float id, …). The connection stays open.
    BadEvent,
    /// An update/remove named an offer id that is not live. The
    /// connection stays open.
    UnknownId,
    /// The query's answer wait exceeded the server deadline. The
    /// connection stays open; the query still ran.
    Deadline,
    /// The server is draining for shutdown. Closes the connection.
    ShuttingDown,
    /// The serving loop or the server's own record/answer writers failed.
    /// Closes the connection.
    ServerError,
}

impl ErrorCode {
    /// The wire-format `code` string.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::BadEvent => "bad_event",
            ErrorCode::UnknownId => "unknown_id",
            ErrorCode::Deadline => "deadline",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::ServerError => "server_error",
        }
    }

    /// Parses a wire-format `code` string.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "bad_frame" => Some(ErrorCode::BadFrame),
            "bad_event" => Some(ErrorCode::BadEvent),
            "unknown_id" => Some(ErrorCode::UnknownId),
            "deadline" => Some(ErrorCode::Deadline),
            "shutting_down" => Some(ErrorCode::ShuttingDown),
            "server_error" => Some(ErrorCode::ServerError),
            _ => None,
        }
    }

    /// Whether the server closes the connection after sending this code.
    pub fn closes_connection(self) -> bool {
        matches!(
            self,
            ErrorCode::BadFrame | ErrorCode::ShuttingDown | ErrorCode::ServerError
        )
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One parsed request frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// The client-chosen request id, echoed on the response line.
    pub id: u64,
    /// The nested script event.
    pub event: Event,
}

/// Why [`parse`] rejected a line — carries everything needed to render
/// the error response.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameRejection {
    /// The request id, when the envelope got far enough to yield one.
    pub id: Option<u64>,
    /// The response `code` (also decides whether the connection closes).
    pub code: ErrorCode,
    /// Human-readable detail for the response `message`.
    pub message: String,
}

impl FrameRejection {
    /// Renders the rejection as its response line.
    pub fn line(&self) -> String {
        error_line(self.id, self.code, &self.message)
    }
}

/// Parses one request line into a [`Frame`].
///
/// Ids follow the same strictness as event ids (`docs/PROTOCOL.md`):
/// integer tokens only — `3.0`, `-1`, and `"3"` are all rejected.
pub fn parse(line: &str) -> Result<Frame, FrameRejection> {
    let bad =
        |id: Option<u64>, code: ErrorCode, message: String| FrameRejection { id, code, message };
    let value: Value = serde_json::from_str(line).map_err(|e| {
        bad(
            None,
            ErrorCode::BadFrame,
            format!("malformed frame JSON: {e}"),
        )
    })?;
    let Value::Object(fields) = &value else {
        return Err(bad(
            None,
            ErrorCode::BadFrame,
            format!("frame must be a JSON object, found {}", value.kind()),
        ));
    };
    for (key, _) in fields {
        if key != "id" && key != "event" {
            return Err(bad(
                None,
                ErrorCode::BadFrame,
                format!("unknown frame field `{key}`"),
            ));
        }
    }
    let id = strict_id(value.get("id"), "request id")
        .map_err(|message| bad(None, ErrorCode::BadFrame, message))?;
    let event_value = value
        .get("event")
        .ok_or_else(|| bad(Some(id), ErrorCode::BadFrame, "missing `event`".to_owned()))?;
    let event = Event::from_value(event_value)
        .map_err(|message| bad(Some(id), ErrorCode::BadEvent, message))?;
    Ok(Frame { id, event })
}

/// Renders a request line — what [`parse`] reads back.
pub fn request_line(id: u64, event: &Event) -> String {
    format!("{{\"id\":{id},\"event\":{}}}", event.to_json_line())
}

/// The success response of an update/remove: `{"id":N,"ok":true}`.
pub fn ok_true(id: u64) -> String {
    format!("{{\"id\":{id},\"ok\":true}}")
}

/// The success response of an add: `{"id":N,"ok":{"id":ASSIGNED}}` — the
/// server-assigned logical offer id the client must use for later
/// updates/removes.
pub fn ok_assigned(id: u64, assigned: u64) -> String {
    format!("{{\"id\":{id},\"ok\":{{\"id\":{assigned}}}}}")
}

/// The success response of a query: the serve answer line, verbatim, as
/// the `ok` value.
pub fn ok_answer(id: u64, answer: &str) -> String {
    format!("{{\"id\":{id},\"ok\":{answer}}}")
}

/// Renders an error response line (`id` `None` renders as `null`).
pub fn error_line(id: Option<u64>, code: ErrorCode, message: &str) -> String {
    let quoted = serde_json::to_string(&Value::Str(message.to_owned())).expect("strings serialize");
    match id {
        Some(id) => format!(
            "{{\"id\":{id},\"error\":{{\"code\":\"{}\",\"message\":{quoted}}}}}",
            code.name()
        ),
        None => format!(
            "{{\"id\":null,\"error\":{{\"code\":\"{}\",\"message\":{quoted}}}}}",
            code.name()
        ),
    }
}

/// Extracts the raw `ok` value from a success line rendered by
/// [`ok_true`]/[`ok_assigned`]/[`ok_answer`] — the exact answer bytes, no
/// re-serialization.
pub fn ok_payload(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"id\":")?;
    let sep = rest.find(",\"ok\":")?;
    if sep == 0 || !rest[..sep].bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest[sep + ",\"ok\":".len()..].strip_suffix('}')
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexoffers_serving::QueryKind;

    #[test]
    fn request_lines_round_trip() {
        let event = Event::Query(QueryKind::Measure);
        let line = request_line(7, &event);
        assert_eq!(
            line,
            "{\"id\":7,\"event\":{\"event\":\"query\",\"kind\":\"measure\"}}"
        );
        let frame = parse(&line).unwrap();
        assert_eq!(frame, Frame { id: 7, event });
        let remove = Event::Remove { id: 3 };
        assert_eq!(parse(&request_line(8, &remove)).unwrap().event, remove);
    }

    #[test]
    fn envelope_ids_are_strict_integers() {
        for (line, needle) in [
            ("{\"id\":3.0,\"event\":{}}", "must be an integer"),
            ("{\"id\":-1,\"event\":{}}", "non-negative"),
            ("{\"id\":\"3\",\"event\":{}}", "expected integer"),
            (
                "{\"event\":{\"event\":\"remove\",\"id\":0}}",
                "missing `id`",
            ),
        ] {
            let rejection = parse(line).unwrap_err();
            assert_eq!(rejection.code, ErrorCode::BadFrame, "{line}");
            assert_eq!(rejection.id, None, "{line}");
            assert!(
                rejection.message.contains(needle),
                "{line} -> {}",
                rejection.message
            );
        }
    }

    #[test]
    fn envelope_errors_are_bad_frame_and_event_errors_are_bad_event() {
        let rejection = parse("not json").unwrap_err();
        assert_eq!(rejection.code, ErrorCode::BadFrame);
        assert!(rejection
            .line()
            .starts_with("{\"id\":null,\"error\":{\"code\":\"bad_frame\""));

        let rejection = parse("[1,2]").unwrap_err();
        assert!(rejection.message.contains("must be a JSON object"));

        let rejection = parse("{\"id\":1,\"event\":{\"event\":\"upsert\"}}").unwrap_err();
        assert_eq!(
            (rejection.id, rejection.code),
            (Some(1), ErrorCode::BadEvent)
        );
        assert!(rejection.message.contains("unknown event `upsert`"));

        // A float id nested in the event is the event's problem, not the
        // frame's — the connection survives it.
        let rejection =
            parse("{\"id\":2,\"event\":{\"event\":\"remove\",\"id\":3.0}}").unwrap_err();
        assert_eq!(
            (rejection.id, rejection.code),
            (Some(2), ErrorCode::BadEvent)
        );

        let rejection = parse("{\"id\":2,\"extra\":1,\"event\":{}}").unwrap_err();
        assert!(rejection.message.contains("unknown frame field `extra`"));

        let rejection = parse("{\"id\":2}").unwrap_err();
        assert_eq!(
            (rejection.id, rejection.code),
            (Some(2), ErrorCode::BadFrame)
        );
        assert!(rejection.message.contains("missing `event`"));
    }

    #[test]
    fn responses_render_and_extract() {
        assert_eq!(ok_true(4), "{\"id\":4,\"ok\":true}");
        assert_eq!(ok_assigned(4, 17), "{\"id\":4,\"ok\":{\"id\":17}}");
        let answer = "{\"query\":\"measure\",\"offers\":2}";
        assert_eq!(
            ok_answer(9, answer),
            format!("{{\"id\":9,\"ok\":{answer}}}")
        );
        assert_eq!(ok_payload(&ok_answer(9, answer)), Some(answer));
        assert_eq!(ok_payload(&ok_true(4)), Some("true"));
        assert_eq!(ok_payload(&ok_assigned(4, 17)), Some("{\"id\":17}"));
        assert_eq!(ok_payload("{\"id\":1,\"error\":{}}"), None);

        let line = error_line(Some(5), ErrorCode::Deadline, "query \"x\" late");
        assert_eq!(
            line,
            "{\"id\":5,\"error\":{\"code\":\"deadline\",\"message\":\"query \\\"x\\\" late\"}}"
        );
        let _: Value = serde_json::from_str(&line).expect("escaped messages stay valid JSON");
        assert!(error_line(None, ErrorCode::BadFrame, "x").starts_with("{\"id\":null,"));
    }

    #[test]
    fn error_codes_round_trip_and_classify() {
        for code in [
            ErrorCode::BadFrame,
            ErrorCode::BadEvent,
            ErrorCode::UnknownId,
            ErrorCode::Deadline,
            ErrorCode::ShuttingDown,
            ErrorCode::ServerError,
        ] {
            assert_eq!(ErrorCode::parse(code.name()), Some(code));
            assert_eq!(code.to_string(), code.name());
        }
        assert_eq!(ErrorCode::parse("teapot"), None);
        assert!(ErrorCode::BadFrame.closes_connection());
        assert!(!ErrorCode::UnknownId.closes_connection());
        assert!(!ErrorCode::Deadline.closes_connection());
    }
}
