//! A small blocking client for the framed TCP tier — what `flexctl bomb`
//! and the integration suite speak.

use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};

use flexoffers_serving::Event;
use serde::Value;

use crate::conn::{Line, LineReader};
use crate::frame;

/// One parsed response line.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// `{"id":…,"ok":…}` — `payload` holds the raw JSON bytes of the `ok`
    /// value (`true`, `{"id":N}`, or a query answer object, verbatim).
    Ok {
        /// The echoed request id.
        id: u64,
        /// The raw `ok` value.
        payload: String,
    },
    /// `{"id":…,"error":{…}}` — `id` is `None` when the server could not
    /// attribute the error to a request (`"id":null`).
    Err {
        /// The echoed request id, if any.
        id: Option<u64>,
        /// The machine-readable code (see [`frame::ErrorCode`]).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl Reply {
    /// Whether this is a success reply.
    pub fn is_ok(&self) -> bool {
        matches!(self, Reply::Ok { .. })
    }

    /// The server-assigned logical offer id of an add acknowledgement
    /// (`{"ok":{"id":N}}`), if this reply is one.
    pub fn assigned_id(&self) -> Option<u64> {
        let Reply::Ok { payload, .. } = self else {
            return None;
        };
        let value: Value = serde_json::from_str(payload).ok()?;
        match value.get("id") {
            Some(Value::U64(n)) => Some(*n),
            Some(Value::I64(n)) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// A blocking connection speaking the `{"id":…,"event":…}` framing with
/// auto-assigned, strictly increasing request ids.
pub struct NetClient {
    stream: TcpStream,
    reader: LineReader,
    next_id: u64,
}

impl NetClient {
    /// Connects and prepares the line reader (Nagle off — requests are
    /// single small lines).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let reader = LineReader::new(stream.try_clone()?);
        Ok(Self {
            stream,
            reader,
            next_id: 0,
        })
    }

    /// The id the next [`send_event`](Self::send_event) will use.
    pub fn next_request_id(&self) -> u64 {
        self.next_id
    }

    /// Frames and sends one event, blocking for its reply.
    pub fn send_event(&mut self, event: &Event) -> io::Result<Reply> {
        let id = self.next_id;
        self.next_id += 1;
        let line = frame::request_line(id, event);
        let raw = self.send_raw(&line)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            )
        })?;
        parse_reply(&raw).map_err(|message| io::Error::new(io::ErrorKind::InvalidData, message))
    }

    /// Sends one raw line (no framing help — tests poke malformed frames
    /// through here) and reads one reply line; `None` means the server
    /// closed the connection instead of replying.
    pub fn send_raw(&mut self, line: &str) -> io::Result<Option<String>> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        match self.reader.next_line(None) {
            Line::Data(reply) => Ok(Some(reply)),
            Line::Eof | Line::Oversize => Ok(None),
        }
    }
}

/// Parses one response line into a [`Reply`].
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| format!("malformed reply JSON: {e}"))?;
    let id = match value.get("id") {
        Some(Value::U64(n)) => Some(*n),
        Some(Value::I64(n)) if *n >= 0 => Some(*n as u64),
        Some(Value::Null) => None,
        _ => return Err("reply needs an integer-or-null `id`".to_owned()),
    };
    if value.get("ok").is_some() {
        let id = id.ok_or("ok replies carry a non-null id")?;
        let payload = frame::ok_payload(line).ok_or("unrecognised ok-reply shape")?;
        return Ok(Reply::Ok {
            id,
            payload: payload.to_owned(),
        });
    }
    let error = value.get("error").ok_or("reply needs `ok` or `error`")?;
    let code = error
        .get("code")
        .and_then(Value::as_str)
        .ok_or("error replies need a string `code`")?;
    let message = error
        .get("message")
        .and_then(Value::as_str)
        .unwrap_or_default();
    Ok(Reply::Err {
        id,
        code: code.to_owned(),
        message: message.to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ErrorCode;

    #[test]
    fn replies_parse_back() {
        assert_eq!(
            parse_reply(&frame::ok_true(3)).unwrap(),
            Reply::Ok {
                id: 3,
                payload: "true".to_owned()
            }
        );
        let added = parse_reply(&frame::ok_assigned(4, 17)).unwrap();
        assert_eq!(added.assigned_id(), Some(17));
        assert!(added.is_ok());

        let parsed = parse_reply(&frame::error_line(None, ErrorCode::BadFrame, "nope")).unwrap();
        assert_eq!(
            parsed,
            Reply::Err {
                id: None,
                code: "bad_frame".to_owned(),
                message: "nope".to_owned()
            }
        );
        assert!(!parsed.is_ok());
        assert_eq!(parsed.assigned_id(), None);

        assert!(parse_reply("{\"id\":1}").is_err());
        assert!(parse_reply("{\"id\":1.5,\"ok\":true}").is_err());
        assert!(parse_reply("nope").is_err());
    }
}
