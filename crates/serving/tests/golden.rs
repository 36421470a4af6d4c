//! Answer bytes pinned to a committed fixture.
//!
//! The live book and the batch oracle answer through the same engine
//! code, so comparing them with each other cannot catch a change in that
//! shared code. This test holds both to answers recorded from an earlier
//! build instead: a seeded 1,000-offer event stream with all four queries
//! after each quarter, replayed through a [`LiveBook`] at 1 and 2 threads
//! and through a [`BatchBook`]. Every output must equal
//! `tests/fixtures/golden_answers.jsonl` byte for byte.

use std::path::Path;

use flexoffers_engine::{Budget, Engine};
use flexoffers_serving::batch::BatchBook;
use flexoffers_serving::{Event, LiveBook, QueryKind, ServeConfig};
use flexoffers_workloads::{city_households_for, event_stream};

/// The event stream, with a round of all four queries after each quarter.
fn script() -> Vec<Event> {
    let stream: Vec<Event> = event_stream(7, city_households_for(1_000), 0.1)
        .map(Event::from)
        .collect();
    let mut script = Vec::new();
    for quarter in stream.chunks(stream.len().div_ceil(4)) {
        script.extend_from_slice(quarter);
        script.extend(QueryKind::all().map(Event::Query));
    }
    script
}

/// Feeds the script through `apply` and joins the answers, one per line.
fn answers(mut apply: impl FnMut(Event) -> Option<String>) -> String {
    let mut out = String::new();
    for event in script() {
        if let Some(answer) = apply(event) {
            out.push_str(&answer);
            out.push('\n');
        }
    }
    out
}

fn engine(threads: usize) -> Engine {
    Engine::new(Budget::with_threads(threads).expect("non-zero"))
}

#[test]
fn live_and_batch_answers_match_the_recorded_fixture() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_answers.jsonl");
    let expected = std::fs::read_to_string(&path).expect("fixture is committed");
    assert_eq!(expected.lines().count(), 16, "four rounds of four queries");

    for threads in [1, 2] {
        let mut book = LiveBook::new(ServeConfig::default(), 1, engine(threads)).unwrap();
        let live = answers(|event| book.apply(event).expect("the script is valid"));
        assert!(live == expected, "live book at {threads} thread(s) drifted");
    }
    let mut book = BatchBook::new(ServeConfig::default(), engine(1));
    let batch = answers(|event| book.apply(event).expect("the script is valid"));
    assert!(batch == expected, "batch book drifted");
}
