//! The shard-worker loop: a dumb shard executor driven over stdio.
//!
//! A worker holds a one-shard [`LiveBook`] of exactly the offers routed to
//! it — the supervisor routes each mutation to worker `stable_shard(id, K)`,
//! so the worker's shard receives the same pushes and swap-removes, in the
//! same order, as shard `w` of the supervisor's merged K-shard book, which
//! applies every mutation it routes. The worker never answers queries:
//! a query's `confirm` reads the shard's live count and key digest, two
//! counters the book maintains on every mutation, so it costs O(1) and
//! ships nothing. `export` refreshes the baseline partial and ships the
//! whole shard; only the full-gather oracle asks for it.
//!
//! The loop is strictly sequential request/reply (the supervisor pipelines
//! at most one outstanding request per worker per operation), flushes
//! after every reply, and exits cleanly on `shutdown` or stdin EOF — a
//! supervisor crash tears the pipe and reaps the whole tree.

use std::io::{self, BufRead, Write};

use flexoffers_engine::{Budget, Engine};
use flexoffers_serving::{LiveBook, ServeConfig};
use flexoffers_storage::shard_to_value;

use crate::wire::{
    confirm_payload, error_line, ok_line_raw, parse_request, Confirmed, WorkerRequest,
};

/// Runs the worker loop over arbitrary reader/writer pairs (the stdio
/// binary passes locked stdin/stdout; tests pass in-memory pipes).
///
/// Returns when the input reaches EOF or a `shutdown` request is
/// acknowledged. I/O errors on the reply channel propagate — with a dead
/// supervisor there is nobody left to serve.
pub fn run_worker<R: BufRead, W: Write>(input: R, mut output: W) -> io::Result<()> {
    let mut book: Option<LiveBook> = None;
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (id, request) = match parse_request(&line) {
            Ok(parsed) => parsed,
            Err(message) => {
                writeln!(output, "{}", error_line(None, "bad_frame", &message))?;
                output.flush()?;
                continue;
            }
        };
        let reply = match handle(&mut book, request) {
            Ok(Some(payload)) => ok_line_raw(id, &payload),
            Ok(None) => {
                writeln!(output, "{}", ok_line_raw(id, "true"))?;
                output.flush()?;
                return Ok(());
            }
            Err((code, message)) => error_line(Some(id), code, &message),
        };
        writeln!(output, "{reply}")?;
        output.flush()?;
    }
    Ok(())
}

/// Handles one request against the worker's book, answering with the raw
/// JSON of the reply's `ok` payload. `Ok(None)` means `shutdown` —
/// acknowledge and exit.
fn handle(
    book: &mut Option<LiveBook>,
    request: WorkerRequest,
) -> Result<Option<String>, (&'static str, String)> {
    let ok = || Ok(Some("true".to_owned()));
    let bad_event = |e: flexoffers_serving::LiveError| ("bad_event", e.to_string());
    fn live(book: &mut Option<LiveBook>) -> Result<&mut LiveBook, (&'static str, String)> {
        book.as_mut().ok_or_else(no_book)
    }
    match request {
        WorkerRequest::Init { threads } => {
            let budget =
                Budget::with_threads(threads).map_err(|e| ("bad_request", e.to_string()))?;
            // The config shapes query *answers*, and answers happen at the
            // supervisor's merged book, so the default serves.
            *book = Some(
                LiveBook::new(ServeConfig::default(), 1, Engine::new(budget))
                    .expect("one shard is valid"),
            );
            ok()
        }
        WorkerRequest::Add { offer_id, offer } => {
            live(book)?.add_at(offer_id, offer).map_err(bad_event)?;
            ok()
        }
        WorkerRequest::Update { offer_id, offer } => {
            live(book)?.update(offer_id, offer).map_err(bad_event)?;
            ok()
        }
        WorkerRequest::Remove { offer_id } => {
            live(book)?.remove(offer_id).map_err(bad_event)?;
            ok()
        }
        WorkerRequest::Confirm => {
            let book = live(book)?;
            Ok(Some(confirm_payload(Confirmed {
                len: book.len() as u64,
                key_digest: book.key_digests()[0],
            })))
        }
        WorkerRequest::Export => {
            let book = live(book)?;
            book.refresh();
            let shard = shard_to_value(&book.export_shard(0));
            Ok(Some(
                serde_json::to_string(&shard).expect("shard values serialize"),
            ))
        }
        WorkerRequest::Load { next_id, shard } => {
            let book = live(book)?;
            // The book's one shard is replaced wholesale; a failed import
            // leaves it untouched.
            book.reserve_ids(next_id);
            book.import_shard(0, shard)
                .map_err(|e| ("bad_book", e.to_string()))?;
            ok()
        }
        WorkerRequest::Shutdown => Ok(None),
    }
}

fn no_book() -> (&'static str, String) {
    (
        "no_book",
        "no book — the first request must be `init`".to_owned(),
    )
}

/// Runs the worker loop over this process's stdin/stdout — the body of the
/// `flex_shard_worker` binary and of `flexctl shard-worker`.
pub fn run_stdio_worker() -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    run_worker(stdin.lock(), stdout.lock())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{parse_confirm, parse_reply, request_line, WorkerReply};
    use flexoffers_model::{FlexOffer, Slice};
    use flexoffers_serving::ShardExport;

    fn offer(tes: i64) -> FlexOffer {
        FlexOffer::new(tes, tes + 4, vec![Slice::new(0, 3).unwrap()]).unwrap()
    }

    fn init() -> WorkerRequest {
        WorkerRequest::Init { threads: 1 }
    }

    /// Drives a scripted request sequence through an in-memory worker and
    /// returns the parsed replies.
    fn drive(requests: &[WorkerRequest]) -> Vec<WorkerReply> {
        let script: String = requests
            .iter()
            .enumerate()
            .map(|(id, r)| request_line(id as u64, &r.clone()) + "\n")
            .collect();
        let mut out = Vec::new();
        run_worker(script.as_bytes(), &mut out).expect("in-memory worker io");
        let text = String::from_utf8(out).expect("replies are utf-8");
        text.lines()
            .map(|line| {
                let (_, reply) = parse_reply(line).expect(line);
                reply
            })
            .collect()
    }

    fn payload(reply: &WorkerReply) -> &serde::Value {
        match reply {
            WorkerReply::Ok(payload) => payload,
            WorkerReply::Err { .. } => panic!("request failed: {reply:?}"),
        }
    }

    fn shard(reply: &WorkerReply) -> ShardExport {
        flexoffers_storage::value_to_shard(payload(reply)).expect("export payload is a shard")
    }

    fn confirmed(reply: &WorkerReply) -> Confirmed {
        parse_confirm(payload(reply)).expect("confirm payload parses")
    }

    #[test]
    fn a_worker_populates_only_its_routed_shard_and_exports_it_warm() {
        // Two ids the supervisor would route to the same worker of four:
        // the placement is a hash, so find a collision with the real
        // function.
        let first = 1u64;
        let home = flexoffers_engine::stable_shard(first, 4);
        let second = (2..)
            .find(|&id| flexoffers_engine::stable_shard(id, 4) == home)
            .unwrap();
        let routed = [
            WorkerRequest::Add {
                offer_id: first,
                offer: offer(0),
            },
            WorkerRequest::Add {
                offer_id: second,
                offer: offer(8),
            },
            WorkerRequest::Update {
                offer_id: second,
                offer: offer(9),
            },
        ];
        let mut script = vec![init()];
        script.extend(routed.iter().cloned());
        script.extend([
            WorkerRequest::Export,
            WorkerRequest::Remove { offer_id: first },
            WorkerRequest::Export,
        ]);
        let replies = drive(&script);
        assert_eq!(replies.len(), 7);
        let exported = shard(&replies[4]);
        assert_eq!(exported.ids, vec![first, second]);
        assert!(
            exported.cache.is_some(),
            "export refreshes before shipping, so the shard arrives warm"
        );
        // The shipped shard is byte-equal to the routed shard of an
        // in-process four-shard book fed the same mutations.
        let mut reference = LiveBook::new(ServeConfig::default(), 4, Engine::sequential()).unwrap();
        for request in routed {
            match request {
                WorkerRequest::Add { offer_id, offer } => {
                    reference.add_at(offer_id, offer).unwrap()
                }
                WorkerRequest::Update { offer_id, offer } => {
                    reference.update(offer_id, offer).unwrap()
                }
                other => unreachable!("{other:?}"),
            }
        }
        reference.refresh();
        assert_eq!(exported, reference.export_shard(home));
        let after = shard(&replies[6]);
        assert_eq!(after.ids, vec![second]);

        // A fresh worker loaded with the shipped shard ships it back
        // unchanged — the respawn path.
        let reloaded = drive(&[
            init(),
            WorkerRequest::Load {
                next_id: second + 1,
                shard: after.clone(),
            },
            WorkerRequest::Export,
        ]);
        assert_eq!(shard(&reloaded[2]), after);
    }

    #[test]
    fn confirm_reports_the_live_count_and_key_digest() {
        let replies = drive(&[
            init(),
            WorkerRequest::Confirm,
            WorkerRequest::Add {
                offer_id: 1,
                offer: offer(0),
            },
            WorkerRequest::Add {
                offer_id: 5,
                offer: offer(2),
            },
            WorkerRequest::Confirm,
            // A key-changing update moves the digest, not the count…
            WorkerRequest::Update {
                offer_id: 1,
                offer: offer(7),
            },
            WorkerRequest::Confirm,
            // …and a remove moves both.
            WorkerRequest::Remove { offer_id: 5 },
            WorkerRequest::Confirm,
        ]);
        // Each confirm reads what the same mutations leave in a one-shard
        // book, so a supervisor applying them to its own copy agrees.
        let mut reference = LiveBook::new(ServeConfig::default(), 1, Engine::sequential()).unwrap();
        let expect = |book: &LiveBook| Confirmed {
            len: book.len() as u64,
            key_digest: book.key_digests()[0],
        };
        let empty = confirmed(&replies[1]);
        assert_eq!(empty, expect(&reference));
        assert_eq!(empty.len, 0);
        reference.add_at(1, offer(0)).unwrap();
        reference.add_at(5, offer(2)).unwrap();
        let two = confirmed(&replies[4]);
        assert_eq!(two, expect(&reference));
        assert_eq!(two.len, 2);
        reference.update(1, offer(7)).unwrap();
        let updated = confirmed(&replies[6]);
        assert_eq!(updated, expect(&reference));
        assert_eq!(updated.len, 2);
        assert_ne!(updated.key_digest, two.key_digest);
        reference.remove(5).unwrap();
        let removed = confirmed(&replies[8]);
        assert_eq!(removed, expect(&reference));
        assert_eq!(removed.len, 1);
        assert_ne!(removed.key_digest, updated.key_digest);
    }

    #[test]
    fn protocol_errors_are_replies_not_exits() {
        // Mutating before init, a zero-thread budget, a dead id, and a
        // taken id all answer with coded errors and leave the loop alive for the
        // next request.
        let mut out = Vec::new();
        let script = [
            request_line(0, &WorkerRequest::Remove { offer_id: 3 }),
            "this is not json".to_owned(),
            request_line(1, &WorkerRequest::Init { threads: 0 }),
            request_line(2, &init()),
            request_line(
                3,
                &WorkerRequest::Add {
                    offer_id: 4,
                    offer: offer(0),
                },
            ),
            request_line(
                4,
                &WorkerRequest::Add {
                    offer_id: 4,
                    offer: offer(0),
                },
            ),
            request_line(5, &WorkerRequest::Remove { offer_id: 9 }),
            request_line(6, &WorkerRequest::Export),
        ]
        .join("\n");
        run_worker(script.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let replies: Vec<(Option<u64>, WorkerReply)> =
            text.lines().map(|l| parse_reply(l).expect(l)).collect();
        let code = |i: usize| match &replies[i].1 {
            WorkerReply::Err { code, .. } => code.as_str(),
            ok => panic!("expected error at {i}, got {ok:?}"),
        };
        assert_eq!(code(0), "no_book");
        assert_eq!(replies[1].0, None, "unreadable line answers id:null");
        assert_eq!(code(1), "bad_frame");
        assert_eq!(code(2), "bad_request", "zero threads");
        assert!(matches!(replies[3].1, WorkerReply::Ok(_)), "init");
        assert!(matches!(replies[4].1, WorkerReply::Ok(_)), "add");
        assert_eq!(code(5), "bad_event");
        assert_eq!(code(6), "bad_event");
        assert!(
            matches!(replies[7].1, WorkerReply::Ok(_)),
            "the loop survives every error"
        );
    }

    #[test]
    fn shutdown_acknowledges_then_exits_ignoring_later_lines() {
        let script = [
            request_line(0, &init()),
            request_line(1, &WorkerRequest::Shutdown),
            request_line(2, &WorkerRequest::Export),
        ]
        .join("\n");
        let mut out = Vec::new();
        run_worker(script.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2, "nothing after the shutdown ack");
    }
}
