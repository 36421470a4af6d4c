//! The serving tier's event model and its JSONL wire format.
//!
//! One event per line, tagged by an `"event"` field:
//!
//! ```text
//! {"event":"add","offer":{...}}            // assigned the next logical id
//! {"event":"update","id":3,"offer":{...}}  // revise a live offer in place
//! {"event":"remove","id":3}                // withdraw a live offer
//! {"event":"query","kind":"measure"}       // measure | aggregate | schedule | trade
//! ```
//!
//! Offers use the model crate's serde format (the same JSON `flexctl
//! measure` reads). Ids are implicit: the `k`-th `add` line owns logical id
//! `k`, matching [`flexoffers_workloads::OfferEvent`]'s contract, so a
//! recorded script replays identically anywhere. [`parse_script`] validates
//! the whole script statically — malformed lines, unknown event/kind tags,
//! and references to ids that are not live at that point all fail with the
//! offending line number before any replay starts.
//!
//! The normative specification of this format — shared by serve scripts,
//! the journal file, and the network tier's request framing — lives in
//! `docs/PROTOCOL.md` at the repository root (`flexoffers-jsonl/1`). This
//! module is its reference implementation.

use std::error::Error;
use std::fmt;

use serde::{Serialize, Value};

use flexoffers_model::FlexOffer;
use flexoffers_workloads::OfferEvent;

use crate::sequencer::Sequencer;

/// Which query a [`Event::Query`] asks — the serving counterparts of the
/// engine's batch entry points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// The paper's eight measures over the live portfolio
    /// ([`Engine::measure_portfolio_all`] semantics).
    ///
    /// [`Engine::measure_portfolio_all`]: flexoffers_engine::Engine::measure_portfolio_all
    Measure,
    /// The tolerance grouping plus per-group start-alignment aggregation
    /// ([`Engine::aggregate_portfolio`] semantics).
    ///
    /// [`Engine::aggregate_portfolio`]: flexoffers_engine::Engine::aggregate_portfolio
    Aggregate,
    /// The Scenario 1 pipeline toward the config's target profile.
    Schedule,
    /// The Scenario 2 pipeline on the config's spot market.
    Trade,
}

impl QueryKind {
    /// The wire-format name (also the `"query"` tag of the answer line).
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Measure => "measure",
            QueryKind::Aggregate => "aggregate",
            QueryKind::Schedule => "schedule",
            QueryKind::Trade => "trade",
        }
    }

    /// Parses a wire-format name. `"market"` is accepted as an alias for
    /// `trade` (the scenario the query runs is named `market`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "measure" => Some(QueryKind::Measure),
            "aggregate" => Some(QueryKind::Aggregate),
            "schedule" => Some(QueryKind::Schedule),
            "trade" | "market" => Some(QueryKind::Trade),
            _ => None,
        }
    }

    /// All four kinds, in wire-format order.
    pub fn all() -> [QueryKind; 4] {
        [
            QueryKind::Measure,
            QueryKind::Aggregate,
            QueryKind::Schedule,
            QueryKind::Trade,
        ]
    }
}

impl fmt::Display for QueryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One message of the serving event loop: a book mutation or a query.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A new flex-offer arrives (assigned the next logical id).
    Add(FlexOffer),
    /// The offer with logical id `id` is revised in place.
    Update {
        /// Logical id assigned at add time.
        id: u64,
        /// The replacement flex-offer.
        offer: FlexOffer,
    },
    /// The offer with logical id `id` leaves the book.
    Remove {
        /// Logical id assigned at add time.
        id: u64,
    },
    /// Answer a query over the current book state.
    Query(QueryKind),
}

impl From<OfferEvent> for Event {
    fn from(event: OfferEvent) -> Self {
        match event {
            OfferEvent::Add(offer) => Event::Add(offer),
            OfferEvent::Update { id, offer } => Event::Update { id, offer },
            OfferEvent::Remove { id } => Event::Remove { id },
        }
    }
}

impl Event {
    /// Renders the event as one compact JSONL line (no trailing newline) —
    /// the exact format [`parse_script`] reads back.
    pub fn to_json_line(&self) -> String {
        let tagged = |tag: &str, mut rest: Vec<(String, Value)>| {
            let mut fields = vec![("event".to_owned(), Value::Str(tag.to_owned()))];
            fields.append(&mut rest);
            Value::Object(fields)
        };
        let value = match self {
            Event::Add(offer) => tagged("add", vec![("offer".to_owned(), offer.to_value())]),
            Event::Update { id, offer } => tagged(
                "update",
                vec![
                    ("id".to_owned(), Value::U64(*id)),
                    ("offer".to_owned(), offer.to_value()),
                ],
            ),
            Event::Remove { id } => tagged("remove", vec![("id".to_owned(), Value::U64(*id))]),
            Event::Query(kind) => tagged(
                "query",
                vec![("kind".to_owned(), Value::Str(kind.name().to_owned()))],
            ),
        };
        serde_json::to_string(&value).expect("event values serialize")
    }

    /// Parses one JSONL line. Blank lines are the caller's business
    /// ([`parse_script`] skips them).
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let value: Value =
            serde_json::from_str(line).map_err(|e| format!("malformed event JSON: {e}"))?;
        Self::from_value(&value)
    }

    /// Parses an already-decoded event object — what [`from_json_line`]
    /// does after JSON decoding, split out so embedders (the network
    /// tier's `{"id":…,"event":{…}}` framing) can validate an event
    /// nested inside a larger value without re-serializing it.
    ///
    /// [`from_json_line`]: Self::from_json_line
    pub fn from_value(value: &Value) -> Result<Self, String> {
        let tag = value
            .get("event")
            .and_then(Value::as_str)
            .ok_or("event object needs a string `event` tag")?;
        let id = |value: &Value| strict_id(value.get("id"), "id");
        let offer = |value: &Value| -> Result<FlexOffer, String> {
            let raw = value.get("offer").ok_or("missing `offer`")?;
            use serde::Deserialize;
            FlexOffer::from_value(raw).map_err(|e| format!("bad `offer`: {e}"))
        };
        match tag {
            "add" => Ok(Event::Add(offer(value)?)),
            "update" => Ok(Event::Update {
                id: id(value)?,
                offer: offer(value)?,
            }),
            "remove" => Ok(Event::Remove { id: id(value)? }),
            "query" => {
                let kind = value
                    .get("kind")
                    .and_then(Value::as_str)
                    .ok_or("query needs a string `kind`")?;
                QueryKind::parse(kind)
                    .map(Event::Query)
                    .ok_or_else(|| format!("unknown query kind `{kind}`"))
            }
            other => Err(format!("unknown event `{other}`")),
        }
    }
}

/// Decodes a strictly non-negative integer id — an event's `id` and a
/// request frame's `id` alike; `what` names it in the messages. The float
/// and negative cases are named explicitly rather than left to the
/// generic deserializer: the journal replays untrusted files, and
/// `{"id":3.0}` must fail loudly instead of coercing through the vendored
/// `Value`'s numeric tower.
pub fn strict_id(value: Option<&Value>, what: &str) -> Result<u64, String> {
    match value.ok_or("missing `id`")? {
        Value::U64(n) => Ok(*n),
        Value::I64(n) if *n >= 0 => Ok(*n as u64),
        Value::I64(n) => Err(format!("bad `id`: {what} must be non-negative, got {n}")),
        Value::F64(f) => Err(format!("bad `id`: {what} must be an integer, got {f:?}")),
        other => Err(format!(
            "bad `id`: expected integer, found {}",
            other.kind()
        )),
    }
}

/// Why a script could not be parsed or validated.
#[derive(Clone, Debug, PartialEq)]
pub enum ScriptError {
    /// The script held no events at all (blank lines only, or empty).
    Empty,
    /// A specific line failed to parse or referenced a dead id.
    Line {
        /// 1-based line number in the script.
        line: usize,
        /// What went wrong on it.
        message: String,
    },
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptError::Empty => write!(f, "empty script — no events to replay"),
            ScriptError::Line { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl Error for ScriptError {}

/// Parses a whole JSONL script and statically validates its id references:
/// the `k`-th add owns id `k`, updates must name a live id, removes kill
/// one. Returns the events in script order, or the first offending line.
/// The script format is specified normatively in `docs/PROTOCOL.md`.
pub fn parse_script(text: &str) -> Result<Vec<Event>, ScriptError> {
    parse_script_from(text, Sequencer::default())
}

/// [`parse_script`] seeded with a book's id history — the validation a
/// script that *continues* an existing history (a journaled serve being
/// resumed) must pass: updates and removes may name ids the prior run
/// added, and the first add of the new script owns the seeded next id.
pub fn parse_script_from(text: &str, mut ids: Sequencer) -> Result<Vec<Event>, ScriptError> {
    let mut events = Vec::new();
    for (at, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fail = |message: String| ScriptError::Line {
            line: at + 1,
            message,
        };
        let event = Event::from_json_line(line).map_err(fail)?;
        let checked = ids.check(&event).map_err(|e| fail(e.to_string()))?;
        ids.commit(checked);
        events.push(event);
    }
    if events.is_empty() {
        return Err(ScriptError::Empty);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexoffers_model::Slice;

    fn offer() -> FlexOffer {
        FlexOffer::new(0, 2, vec![Slice::new(1, 3).unwrap()]).unwrap()
    }

    #[test]
    fn events_round_trip_through_jsonl() {
        let events = vec![
            Event::Add(offer()),
            Event::Update {
                id: 0,
                offer: offer(),
            },
            Event::Query(QueryKind::Measure),
            Event::Remove { id: 0 },
            Event::Query(QueryKind::Trade),
        ];
        let script: String = events
            .iter()
            .map(|e| e.to_json_line() + "\n")
            .collect::<String>();
        assert_eq!(parse_script(&script).unwrap(), events);
    }

    #[test]
    fn kind_names_round_trip_and_market_aliases_trade() {
        for kind in QueryKind::all() {
            assert_eq!(QueryKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(QueryKind::parse("market"), Some(QueryKind::Trade));
        assert_eq!(QueryKind::parse("imbalance"), None);
    }

    #[test]
    fn malformed_lines_name_their_line_number() {
        let script = format!("{}\nnot json\n", Event::Add(offer()).to_json_line());
        let err = parse_script(&script).unwrap_err();
        assert!(matches!(err, ScriptError::Line { line: 2, .. }), "{err}");
        assert!(err.to_string().starts_with("line 2:"), "{err}");
    }

    #[test]
    fn unknown_ids_fail_validation() {
        let script = format!(
            "{}\n{}\n",
            Event::Add(offer()).to_json_line(),
            Event::Remove { id: 5 }.to_json_line()
        );
        let err = parse_script(&script).unwrap_err();
        assert!(
            err.to_string().contains("remove of unknown offer id 5"),
            "{err}"
        );

        // A removed id is dead: updating it afterwards is an error too.
        let script = format!(
            "{}\n{}\n{}\n",
            Event::Add(offer()).to_json_line(),
            Event::Remove { id: 0 }.to_json_line(),
            Event::Update {
                id: 0,
                offer: offer()
            }
            .to_json_line()
        );
        let err = parse_script(&script).unwrap_err();
        assert!(
            err.to_string().contains("update of unknown offer id 0"),
            "{err}"
        );
    }

    #[test]
    fn seeded_parsing_validates_a_continuation_script() {
        // Ids 0 and 2 live, next add takes id 3: exactly the state left
        // by add,add,add,remove(1) — a resumed journal's continuation may
        // touch the survivors but not the hole or the future.
        let script = format!(
            "{}\n{}\n{}\n",
            Event::Update {
                id: 2,
                offer: offer()
            }
            .to_json_line(),
            Event::Add(offer()).to_json_line(),
            Event::Remove { id: 3 }.to_json_line(), // the add above owns 3
        );
        let events = parse_script_from(&script, Sequencer::seeded([0, 2], 3)).unwrap();
        assert_eq!(events.len(), 3);
        // The same script from a cold start fails on the first line.
        let err = parse_script(&script).unwrap_err();
        assert!(matches!(err, ScriptError::Line { line: 1, .. }), "{err}");
        // The hole (removed id 1) stays dead in the seeded parse too.
        let err = parse_script_from(
            "{\"event\":\"remove\",\"id\":1}\n",
            Sequencer::seeded([0, 2], 3),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("remove of unknown offer id 1"),
            "{err}"
        );
    }

    #[test]
    fn unknown_tags_and_kinds_are_rejected() {
        let err = parse_script("{\"event\":\"upsert\",\"id\":0}\n").unwrap_err();
        assert!(err.to_string().contains("unknown event `upsert`"), "{err}");
        let err = parse_script("{\"event\":\"query\",\"kind\":\"forecast\"}\n").unwrap_err();
        assert!(
            err.to_string().contains("unknown query kind `forecast`"),
            "{err}"
        );
    }

    #[test]
    fn empty_scripts_are_rejected_and_blank_lines_skipped() {
        assert_eq!(parse_script(""), Err(ScriptError::Empty));
        assert_eq!(parse_script("\n  \n\n"), Err(ScriptError::Empty));
        let script = format!("\n{}\n\n", Event::Query(QueryKind::Schedule).to_json_line());
        assert_eq!(parse_script(&script).unwrap().len(), 1);
    }

    #[test]
    fn float_and_negative_ids_are_rejected_with_line_numbers() {
        // `3.0` is numerically integral, but an id position must hold an
        // integer token — the journal replays untrusted files.
        let script = format!(
            "{}\n{{\"event\":\"remove\",\"id\":3.0}}\n",
            Event::Add(offer()).to_json_line()
        );
        let err = parse_script(&script).unwrap_err();
        assert!(matches!(err, ScriptError::Line { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("id must be an integer"), "{err}");

        for bad in [
            "{\"event\":\"remove\",\"id\":2.5}",
            "{\"event\":\"remove\",\"id\":-3}",
            "{\"event\":\"update\",\"id\":0.0,\"offer\":{}}",
            "{\"event\":\"update\",\"id\":-1,\"offer\":{}}",
            "{\"event\":\"remove\",\"id\":\"3\"}",
        ] {
            let err = Event::from_json_line(bad).unwrap_err();
            assert!(err.starts_with("bad `id`"), "{bad} -> {err}");
        }
        let err = Event::from_json_line("{\"event\":\"remove\",\"id\":-3}").unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
    }

    #[test]
    fn integral_floats_in_offer_fields_are_rejected() {
        // The offer body goes through the vendored serde, which must be as
        // strict as the id path: `"earliest_start":7.0` used to coerce to 7.
        let line = Event::Add(offer()).to_json_line();
        let fuzzed = line.replacen("\"earliest_start\":0", "\"earliest_start\":0.0", 1);
        assert_ne!(
            line, fuzzed,
            "fixture offer should serialize earliest_start"
        );
        let err = Event::from_json_line(&fuzzed).unwrap_err();
        assert!(err.starts_with("bad `offer`"), "{err}");
        assert!(err.contains("expected integer"), "{err}");
    }

    #[test]
    fn offer_events_convert() {
        let event: Event = flexoffers_workloads::OfferEvent::Remove { id: 9 }.into();
        assert_eq!(event, Event::Remove { id: 9 });
    }
}
