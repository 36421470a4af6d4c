//! The shard-worker loop: a dumb shard executor driven over stdio.
//!
//! A worker holds a one-shard [`LiveBook`] of exactly the offers routed to
//! it — the supervisor routes each mutation to worker `stable_shard(id, K)`,
//! so the worker's shard receives the same pushes and swap-removes, in the
//! same order, as shard `w` of an in-process K-shard book fed the same
//! serialized mutation stream, and its arrays, key digest, baseline
//! partial and canonical JSON are byte-equal to that shard's. The worker
//! never answers queries itself: `export` refreshes its baseline partial
//! and ships the shard, and the supervisor imports it as shard `w` of its
//! persistent merged book (whose placement check rejects a misrouted id),
//! so answer bytes come from the same code path as the in-process tier.
//!
//! # The state digest
//!
//! Each worker maintains its shard **state digest** incrementally across
//! events: any mutation (or `load`) invalidates it, and the next `export`
//! recomputes it lazily — FNV-1a 64 over the canonical single-line JSON
//! of the worker's [`ShardExport`](flexoffers_serving::ShardExport)
//! body ([`flexoffers_storage::shard_digest`]), which embeds the
//! commutative `key_digest`. While the worker is clean, a conditional
//! `export {if_digest}` whose digest matches answers with the tiny
//! `not_modified` frame and serializes nothing; on a miss the cached
//! canonical JSON (the exact bytes the digest covers) is spliced straight
//! into the reply, so the shard body is serialized once per state, not
//! once per gather.
//!
//! The loop is strictly sequential request/reply (the supervisor pipelines
//! at most one outstanding request per worker per operation), flushes
//! after every reply, and exits cleanly on `shutdown` or stdin EOF — a
//! supervisor crash tears the pipe and reaps the whole tree.

use std::io::{self, BufRead, Write};

use flexoffers_engine::{Budget, Engine};
use flexoffers_serving::{LiveBook, ServeConfig};
use flexoffers_storage::{fnv1a64, shard_to_value};

use crate::wire::{
    error_line, full_export_payload, not_modified_payload, ok_line_raw, parse_request,
    WorkerRequest,
};

/// The worker's post-`init` state: its one-shard book and the lazily
/// (re)computed state digest with the canonical shard JSON it was
/// computed over.
struct WorkerState {
    book: LiveBook,
    /// `Some((digest, canonical_shard_json))` while no mutation has
    /// touched the book since the digest was computed.
    digest: Option<(u64, String)>,
}

/// Runs the worker loop over arbitrary reader/writer pairs (the stdio
/// binary passes locked stdin/stdout; tests pass in-memory pipes).
///
/// Returns when the input reaches EOF or a `shutdown` request is
/// acknowledged. I/O errors on the reply channel propagate — with a dead
/// supervisor there is nobody left to serve.
pub fn run_worker<R: BufRead, W: Write>(input: R, mut output: W) -> io::Result<()> {
    let mut state: Option<WorkerState> = None;
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
        let reply = match handle(&mut state, request) {
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
    state: &mut Option<WorkerState>,
    request: WorkerRequest,
) -> Result<Option<String>, (&'static str, String)> {
    let ok = || Ok(Some("true".to_owned()));
    fn live(state: &mut Option<WorkerState>) -> Result<&mut WorkerState, (&'static str, String)> {
        state.as_mut().ok_or_else(no_book)
    }
    match request {
        WorkerRequest::Init { threads } => {
            let budget =
                Budget::with_threads(threads).map_err(|e| ("bad_request", e.to_string()))?;
            // The config shapes query *answers*, and answers happen at the
            // supervisor merge, so the default serves.
            let book = LiveBook::new(ServeConfig::default(), 1, Engine::new(budget))
                .expect("one shard is valid");
            *state = Some(WorkerState { book, digest: None });
            ok()
        }
        WorkerRequest::Add { offer_id, offer } => {
            let st = live(state)?;
            st.book
                .add_at(offer_id, offer)
                .map_err(|e| ("bad_event", e.to_string()))?;
            st.digest = None;
            ok()
        }
        WorkerRequest::Update { offer_id, offer } => {
            let st = live(state)?;
            st.book
                .update(offer_id, offer)
                .map_err(|e| ("bad_event", e.to_string()))?;
            st.digest = None;
            ok()
        }
        WorkerRequest::Remove { offer_id } => {
            let st = live(state)?;
            st.book
                .remove(offer_id)
                .map_err(|e| ("bad_event", e.to_string()))?;
            st.digest = None;
            ok()
        }
        WorkerRequest::Export { if_digest } => {
            let st = live(state)?;
            // Warm the caches first so the supervisor's merged book
            // re-evaluates nothing — the evaluation work happens here, in
            // parallel across workers.
            st.book.refresh();
            if st.digest.is_none() {
                let shard = st.book.export_shard(0);
                let body =
                    serde_json::to_string(&shard_to_value(&shard)).expect("shard values serialize");
                st.digest = Some((fnv1a64(body.as_bytes()), body));
            }
            let (digest, body) = st.digest.as_ref().expect("computed above");
            if if_digest == Some(*digest) {
                Ok(Some(not_modified_payload(*digest)))
            } else {
                Ok(Some(full_export_payload(*digest, body)))
            }
        }
        WorkerRequest::Load { next_id, shard } => {
            let st = live(state)?;
            // The book's one shard is replaced wholesale; a failed import
            // leaves it untouched.
            st.book.reserve_ids(next_id);
            st.book
                .import_shard(0, shard)
                .map_err(|e| ("bad_book", e.to_string()))?;
            st.digest = None;
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
    use crate::wire::{
        parse_export_payload, parse_reply, request_line, ExportPayload, WorkerReply,
    };
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

    fn full_shard(reply: &WorkerReply) -> (u64, ShardExport) {
        let WorkerReply::Ok(payload) = reply else {
            panic!("export failed: {reply:?}");
        };
        match parse_export_payload(payload).expect("export payload parses") {
            ExportPayload::Full { digest, shard } => (digest, shard),
            other => panic!("expected a digest-wrapped full export, got {other:?}"),
        }
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
            WorkerRequest::Export { if_digest: None },
            WorkerRequest::Remove { offer_id: first },
            WorkerRequest::Export { if_digest: None },
        ]);
        let replies = drive(&script);
        assert_eq!(replies.len(), 7);
        let (digest, shard) = full_shard(&replies[4]);
        assert_eq!(shard.ids, vec![first, second]);
        assert!(
            shard.cache.is_some(),
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
        assert_eq!(shard, reference.export_shard(home));
        // The shipped digest is the canonical one the supervisor could
        // recompute from the shard body.
        assert_eq!(digest, flexoffers_storage::shard_digest(&shard));
        let (after_digest, shard) = full_shard(&replies[6]);
        assert_eq!(shard.ids, vec![second]);
        assert_ne!(digest, after_digest, "the remove changed the state");

        // A fresh worker loaded with the shipped shard ships it back with
        // the same digest — the respawn path.
        let reloaded = drive(&[
            init(),
            WorkerRequest::Load {
                next_id: second + 1,
                shard,
            },
            WorkerRequest::Export { if_digest: None },
        ]);
        assert_eq!(full_shard(&reloaded[2]).0, after_digest);
    }

    #[test]
    fn conditional_exports_gate_on_state_not_on_mutation_count() {
        let replies = drive(&[
            init(),
            WorkerRequest::Add {
                offer_id: 1,
                offer: offer(0),
            },
            WorkerRequest::Export { if_digest: None },
            // A stale digest misses…
            WorkerRequest::Export {
                if_digest: Some(0xbad),
            },
            // …an update that *replaces the offer with identical content*
            // still digests equal — the digest gates on state, so the next
            // conditional export is a hit…
            WorkerRequest::Update {
                offer_id: 1,
                offer: offer(0),
            },
            WorkerRequest::Export { if_digest: None },
            // …and a content-changing update misses again.
            WorkerRequest::Update {
                offer_id: 1,
                offer: offer(7),
            },
            WorkerRequest::Export { if_digest: None },
        ]);
        let (digest, _) = full_shard(&replies[2]);
        let (missed, _) = full_shard(&replies[3]);
        assert_eq!(digest, missed, "a miss reships the same state");
        let (after_noop_update, _) = full_shard(&replies[5]);
        assert_eq!(after_noop_update, digest);
        let (changed, _) = full_shard(&replies[7]);
        assert_ne!(changed, digest);

        // Now drive the actual hit: export, then conditional export with
        // the digest just received, with no mutation between.
        let replies = drive(&[
            init(),
            WorkerRequest::Add {
                offer_id: 1,
                offer: offer(0),
            },
            WorkerRequest::Export { if_digest: None },
            WorkerRequest::Export {
                if_digest: Some(digest),
            },
        ]);
        let (again, _) = full_shard(&replies[2]);
        assert_eq!(again, digest, "same history, same digest");
        let WorkerReply::Ok(payload) = &replies[3] else {
            panic!("conditional export failed: {:?}", replies[3]);
        };
        assert_eq!(
            parse_export_payload(payload).unwrap(),
            ExportPayload::NotModified { digest },
            "matching digest ships nothing"
        );
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
            request_line(6, &WorkerRequest::Export { if_digest: None }),
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
            request_line(2, &WorkerRequest::Export { if_digest: None }),
        ]
        .join("\n");
        let mut out = Vec::new();
        run_worker(script.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2, "nothing after the shutdown ack");
    }
}
