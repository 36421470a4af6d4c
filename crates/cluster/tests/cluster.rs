//! Cross-process byte-identity properties — the acceptance bar of the
//! cluster tier.
//!
//! A [`ClusterBook`] must answer bitwise equal to the in-process
//! [`LiveBook`] fed the same event stream, at any workers × threads
//! budget — and killing a worker process at a random event must be
//! invisible in the answer stream (the supervisor respawns and replays
//! behind the scenes). The durable composition must recover, seed the
//! fleet, and write snapshots the single-process tier can adopt.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use flexoffers_cluster::{ClusterBook, ClusterError, WorkerSpec};
use flexoffers_engine::{Budget, Engine};
use flexoffers_model::{FlexOffer, Slice};
use flexoffers_serving::{
    DurabilityConfig, Event, EventSink, LiveBook, LiveServer, QueryKind, ServeConfig,
};
use flexoffers_storage::Durable;
use proptest::prelude::*;

/// The standalone worker binary, built by cargo alongside this test.
fn worker_spec() -> WorkerSpec {
    WorkerSpec::new(env!("CARGO_BIN_EXE_flex_shard_worker"))
}

/// Scratch dir under the system temp dir (no tempfile crate in the tree),
/// removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch_dir(tag: &str) -> ScratchDir {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "flexoffers_cluster_{tag}_{}_{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    ScratchDir(dir)
}

fn arb_flexoffer() -> impl Strategy<Value = FlexOffer> {
    (
        0i64..4,
        0i64..5,
        prop::collection::vec((-5i64..5, 0i64..5), 1..5),
        0.0f64..1.0,
        0.0f64..1.0,
    )
        .prop_map(|(tes, window, raw, cmin_pos, cmax_pos)| {
            let slices: Vec<Slice> = raw
                .into_iter()
                .map(|(min, w)| Slice::new(min, min + w).unwrap())
                .collect();
            let pmin: i64 = slices.iter().map(Slice::min).sum();
            let pmax: i64 = slices.iter().map(Slice::max).sum();
            let cmin = pmin + ((pmax - pmin) as f64 * cmin_pos) as i64;
            let cmax = cmin + ((pmax - cmin) as f64 * cmax_pos) as i64;
            FlexOffer::with_totals(tes, tes + window, slices, cmin, cmax).unwrap()
        })
}

/// A raw op resolved against the ids live at apply time, so any generated
/// sequence is a valid event stream (the storage tier's recovery idiom).
#[derive(Clone, Debug)]
enum RawOp {
    Add(FlexOffer),
    Update(usize, FlexOffer),
    Remove(usize),
    Query(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<RawOp>> {
    let op = (0usize..8, 0usize..1 << 20, arb_flexoffer()).prop_map(|(sel, pick, fo)| match sel {
        0..=2 => RawOp::Add(fo),
        3 | 4 => RawOp::Update(pick, fo),
        5 => RawOp::Remove(pick),
        _ => RawOp::Query(pick),
    });
    prop::collection::vec(op, 0..16)
}

fn resolve(ops: Vec<RawOp>) -> Vec<Event> {
    let mut live: Vec<u64> = Vec::new();
    let mut next_id: u64 = 0;
    let mut events = Vec::new();
    for op in ops {
        match op {
            RawOp::Add(offer) => {
                live.push(next_id);
                next_id += 1;
                events.push(Event::Add(offer));
            }
            RawOp::Update(pick, offer) => {
                if !live.is_empty() {
                    let id = live[pick % live.len()];
                    events.push(Event::Update { id, offer });
                }
            }
            RawOp::Remove(pick) => {
                if !live.is_empty() {
                    let id = live.swap_remove(pick % live.len());
                    events.push(Event::Remove { id });
                }
            }
            RawOp::Query(pick) => {
                events.push(Event::Query(QueryKind::all()[pick % 4]));
            }
        }
    }
    events
}

proptest! {
    // Each case spawns real OS processes, so the case count stays low;
    // coverage comes from the event-stream and budget dimensions.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The flagship property: every answer a cluster produces — mid-stream
    /// and final, across all query kinds — byte-matches the in-process
    /// book fed the same events, at any workers × threads.
    #[test]
    fn cluster_answers_byte_match_the_in_process_book(
        ops in arb_ops(),
        workers_pick in 0usize..3,
        threads in 1usize..3,
    ) {
        let workers = [1, 2, 4][workers_pick];
        let budget = Budget::with_threads(threads).unwrap();
        let config = ServeConfig::default();
        let events = resolve(ops);

        let mut cluster =
            ClusterBook::spawn(config.clone(), budget, workers, worker_spec()).unwrap();
        let mut reference = LiveBook::new(config, workers, Engine::sequential()).unwrap();
        for (i, event) in events.into_iter().enumerate() {
            let got = cluster.apply(event.clone()).expect("resolved events are valid");
            let want = reference.apply(event).expect("resolved events are valid");
            prop_assert_eq!(got, want, "event {} diverged", i);
        }
        for kind in QueryKind::all() {
            prop_assert_eq!(cluster.answer(kind).unwrap(), reference.answer(kind), "{}", kind);
        }
        prop_assert_eq!(cluster.live_ids(), reference.live_ids());
        prop_assert_eq!(cluster.next_id(), reference.next_id());
        prop_assert_eq!(cluster.respawns(), 0, "no failures were injected");
        cluster.shutdown();
    }

    /// Kill a worker process (SIGKILL, no warning to the supervisor) at a
    /// random event, and again right before the final queries: every
    /// answer must still byte-match the in-process reference, with the
    /// respawn visible only in the supervisor's counter.
    #[test]
    fn killing_a_worker_at_a_random_event_is_invisible_in_answers(
        ops in arb_ops(),
        kill_frac in 0usize..=100,
        victim_pick in 0usize..4,
        workers_pick in 0usize..2,
    ) {
        let workers = [2, 4][workers_pick];
        let victim = victim_pick % workers;
        let config = ServeConfig::default();
        let events = resolve(ops);
        let kill_at = events.len() * kill_frac / 100;

        let mut cluster =
            ClusterBook::spawn(config.clone(), Budget::sequential(), workers, worker_spec())
                .unwrap();
        let mut reference = LiveBook::new(config, workers, Engine::sequential()).unwrap();
        for (i, event) in events.into_iter().enumerate() {
            if i == kill_at {
                cluster.kill_worker(victim);
            }
            let got = cluster.apply(event.clone()).expect("repaired cluster applies");
            let want = reference.apply(event).expect("resolved events are valid");
            prop_assert_eq!(got, want, "event {} diverged after the kill", i);
        }
        // A second kill right before the gather guarantees at least one
        // respawn happens on the query path itself.
        cluster.kill_worker(victim);
        for kind in QueryKind::all() {
            prop_assert_eq!(
                cluster.answer(kind).unwrap(),
                reference.answer(kind),
                "{} diverged after the pre-query kill",
                kind
            );
        }
        prop_assert!(cluster.respawns() >= 1, "the kill was repaired by respawn");
        prop_assert_eq!(cluster.live_ids(), reference.live_ids());
        cluster.shutdown();
    }

    /// The confirm-gather contract: at every query in a random
    /// interleaving, the answer byte-matches both the full-gather oracle
    /// ([`ClusterBook::answer_full`]) and the in-process reference —
    /// including when a worker is SIGKILLed at a random event. No query
    /// ships a shard, even after a kill: a back-to-back query confirms
    /// every worker, and a SIGKILL before a query is repaired by exactly
    /// one respawn from the merged book while the other workers confirm.
    #[test]
    fn delta_gathers_match_the_full_gather_oracle_and_cache_clean_shards(
        ops in arb_ops(),
        workers_pick in 0usize..3,
        kill_frac in 0usize..=100,
        victim_pick in 0usize..4,
    ) {
        let workers = [1, 2, 4][workers_pick];
        let budget = Budget::sequential();
        let victim = victim_pick % workers;
        let config = ServeConfig::default();
        let events = resolve(ops);
        let kill_at = events.len() * kill_frac / 100;

        let mut cluster =
            ClusterBook::spawn(config.clone(), budget, workers, worker_spec()).unwrap();
        let mut reference = LiveBook::new(config, workers, Engine::sequential()).unwrap();
        for (i, event) in events.into_iter().enumerate() {
            if i == kill_at {
                cluster.kill_worker(victim);
            }
            if let Event::Query(kind) = event {
                let full = cluster.answer_full(kind).expect("full-gather oracle answers");
                let delta = cluster.answer(kind).expect("confirm gather answers");
                let want = reference.answer(kind);
                prop_assert_eq!(&delta, &full, "event {}: delta vs full-gather oracle", i);
                prop_assert_eq!(&delta, &want, "event {}: delta vs in-process", i);
            } else {
                cluster.apply(event.clone()).expect("resolved events are valid");
                reference.apply(event).expect("resolved events are valid");
            }
        }

        // Settle: a worker the loop killed and never touched again is
        // repaired here. Then, with no mutations in between, the next
        // gather confirms every shard.
        prop_assert_eq!(
            cluster.answer(QueryKind::Measure).unwrap(),
            reference.answer(QueryKind::Measure)
        );
        let before = cluster.gather_stats();
        prop_assert_eq!(
            cluster.answer(QueryKind::Measure).unwrap(),
            reference.answer(QueryKind::Measure)
        );
        let clean = cluster.gather_stats();
        prop_assert_eq!(clean.cached_shards - before.cached_shards, workers as u64,
            "every shard confirms");

        // A SIGKILL is repaired by one respawn from the merged book; the
        // untouched workers still confirm.
        let respawns = cluster.respawns();
        cluster.kill_worker(victim);
        prop_assert_eq!(
            cluster.answer(QueryKind::Aggregate).unwrap(),
            reference.answer(QueryKind::Aggregate)
        );
        let repaired = cluster.gather_stats();
        prop_assert_eq!(cluster.respawns() - respawns, 1, "the kill is repaired by one respawn");
        prop_assert_eq!(repaired.cached_shards - clean.cached_shards, (workers - 1) as u64,
            "untouched workers stay confirmed through a peer's respawn");
        prop_assert_eq!(repaired.dirty_shards, 0, "no query ever ships a shard");
        prop_assert_eq!(repaired.dirty_bytes, 0, "no query ever ships a shard");
        cluster.shutdown();
    }
}

fn offer(tes: i64) -> FlexOffer {
    FlexOffer::new(tes, tes + 3, vec![Slice::new(-1, 2).unwrap()]).unwrap()
}

fn durable_config(journal: &Path, snapshot_every: Option<u64>) -> ServeConfig {
    ServeConfig {
        durability: Some(DurabilityConfig {
            snapshot_every,
            sync_every: 1,
            ..DurabilityConfig::new(journal)
        }),
        ..ServeConfig::default()
    }
}

/// The durable composition end to end: an in-process durable run crashes;
/// a cluster recovers it, continues the history, and shuts down; a plain
/// in-process durable book then adopts the cluster's snapshot + journal
/// with zero replay and answers byte-identically.
#[test]
fn durable_cluster_recovers_continues_and_writes_adoptable_snapshots() {
    let dir = scratch_dir("durable");
    let config = durable_config(&dir.path().join("events.jsonl"), None);

    // Phase 1: single-process history, crash (no shutdown snapshot).
    let (mut durable, _) =
        Durable::<LiveBook>::open(config.clone(), Engine::sequential(), ()).unwrap();
    for i in 0..7 {
        durable.apply(Event::Add(offer(i))).unwrap();
    }
    durable.apply(Event::Remove { id: 2 }).unwrap();
    durable
        .apply(Event::Update {
            id: 4,
            offer: offer(9),
        })
        .unwrap();
    drop(durable);

    // Phase 2: the cluster recovers and continues the same history.
    let (mut cluster, report) =
        Durable::<ClusterBook>::open(config.clone(), Engine::sequential(), (3, worker_spec()))
            .unwrap();
    assert_eq!(report.journal_events, 9);
    assert_eq!(cluster.book().live_ids(), vec![0, 1, 3, 4, 5, 6]);
    assert_eq!(cluster.book().next_id(), 7);
    cluster.apply(Event::Add(offer(11))).unwrap();
    cluster.apply(Event::Remove { id: 0 }).unwrap();
    let clustered = cluster
        .apply(Event::Query(QueryKind::Measure))
        .unwrap()
        .expect("queries answer");
    cluster.finish().unwrap();
    assert_eq!(cluster.seq(), 11);

    // The uninterrupted in-process reference over the whole history.
    let mut reference = LiveBook::new(ServeConfig::default(), 3, Engine::sequential()).unwrap();
    for i in 0..7 {
        reference.add(offer(i));
    }
    reference.remove(2).unwrap();
    reference.update(4, offer(9)).unwrap();
    reference.add(offer(11));
    reference.remove(0).unwrap();
    assert_eq!(clustered, reference.answer(QueryKind::Measure));

    // Phase 3: the single-process tier adopts the cluster's files.
    let (mut adopted, report) =
        Durable::<LiveBook>::open(config, Engine::sequential(), ()).unwrap();
    assert_eq!(report.snapshot_seq, Some(11), "cluster shutdown snapshot");
    assert_eq!(report.replayed, 0);
    for kind in QueryKind::all() {
        assert_eq!(
            adopted.book_mut().answer(kind),
            reference.answer(kind),
            "{kind} diverged after adoption"
        );
    }
}

/// The cluster is a first-class [`EventSink`]: the unchanged serving loop
/// drives it through [`LiveServer::spawn_sink`] like any local book.
#[test]
fn the_serving_loop_drives_a_cluster_sink() {
    let config = ServeConfig::default();
    let cluster =
        ClusterBook::spawn(config.clone(), Budget::sequential(), 2, worker_spec()).unwrap();
    let mut handle = LiveServer::spawn_sink(cluster);
    handle.add(offer(0)).unwrap();
    handle.add(offer(1)).unwrap();
    handle.remove(0).unwrap();
    let answer = handle.query(QueryKind::Aggregate).unwrap();
    handle.shutdown().unwrap();

    let mut reference = LiveBook::new(config, 2, Engine::sequential()).unwrap();
    reference.add(offer(0));
    reference.add(offer(1));
    reference.remove(0).unwrap();
    assert_eq!(answer, reference.answer(QueryKind::Aggregate));
}

/// A query after mutations moves no shard bytes: each gather confirms
/// every worker, and the answers still equal the full-gather oracle and
/// the in-process book.
#[test]
fn a_query_after_mutations_moves_no_shard_bytes() {
    let config = ServeConfig::default();
    let mut cluster =
        ClusterBook::spawn(config.clone(), Budget::sequential(), 2, worker_spec()).unwrap();
    let mut reference = LiveBook::new(config, 2, Engine::sequential()).unwrap();
    for round in 0..3 {
        let mut events: Vec<Event> = (0..6).map(|i| Event::Add(offer(round * 6 + i))).collect();
        let first = reference.next_id();
        events.push(Event::Update {
            id: first,
            offer: offer(20),
        });
        events.push(Event::Remove { id: first + 1 });
        for event in events {
            cluster.apply(event.clone()).unwrap();
            reference.apply(event).unwrap();
        }
        let before = cluster.gather_stats();
        for kind in QueryKind::all() {
            let full = cluster.answer_full(kind).unwrap();
            let got = cluster.answer(kind).unwrap();
            assert_eq!(got, reference.answer(kind), "round {round}: {kind}");
            assert_eq!(got, full, "round {round}: {kind} vs the full-gather oracle");
        }
        let after = cluster.gather_stats();
        assert_eq!(after.dirty_bytes - before.dirty_bytes, 0, "round {round}");
        assert_eq!(after.dirty_shards - before.dirty_shards, 0, "round {round}");
        assert_eq!(after.gathers - before.gathers, 4);
        assert_eq!(after.cached_shards - before.cached_shards, 2 * 4);
    }
    assert_eq!(cluster.respawns(), 0);
    cluster.shutdown();
}

/// A worker killed after a mutation is acknowledged, and before the next
/// query, is respawned from the merged book's current shard: the query
/// answers correctly without shipping a shard, and the full-gather
/// oracle — which reads the respawned worker — agrees.
#[test]
fn a_worker_killed_after_an_acked_mutation_respawns_from_the_current_merged_shard() {
    let config = ServeConfig::default();
    let mut cluster =
        ClusterBook::spawn(config.clone(), Budget::sequential(), 2, worker_spec()).unwrap();
    let mut reference = LiveBook::new(config, 2, Engine::sequential()).unwrap();
    for i in 0..8 {
        cluster.add(offer(i)).unwrap();
        reference.add(offer(i));
    }
    assert_eq!(
        cluster.answer(QueryKind::Measure).unwrap(),
        reference.answer(QueryKind::Measure)
    );
    let victim = flexoffers_engine::stable_shard(3, 2);
    cluster.update(3, offer(11)).unwrap();
    reference.update(3, offer(11)).unwrap();
    let added = cluster.add(offer(5)).unwrap();
    reference.add(offer(5));
    cluster.kill_worker(victim);

    let before = cluster.gather_stats();
    assert_eq!(
        cluster.answer(QueryKind::Trade).unwrap(),
        reference.answer(QueryKind::Trade)
    );
    let after = cluster.gather_stats();
    assert_eq!(cluster.respawns(), 1, "the confirm found the dead pipe");
    assert_eq!(
        after.cached_shards - before.cached_shards,
        1,
        "the peer confirmed"
    );
    assert_eq!(after.dirty_bytes, 0, "the respawn shipped nothing back");
    for kind in QueryKind::all() {
        assert_eq!(
            cluster.answer_full(kind).unwrap(),
            reference.answer(kind),
            "{kind}: the respawned worker holds the acked mutations"
        );
    }
    cluster.remove(added).unwrap();
    reference.remove(added).unwrap();
    assert_eq!(
        cluster.answer(QueryKind::Schedule).unwrap(),
        reference.answer(QueryKind::Schedule)
    );
    assert_eq!(
        cluster.respawns(),
        1,
        "the respawned worker confirms from then on"
    );
    cluster.shutdown();
}

/// Failure conditions are structured, named errors — never hangs or
/// panics.
#[test]
fn failure_conditions_surface_as_named_errors() {
    let config = ServeConfig::default();
    assert!(matches!(
        ClusterBook::spawn(config.clone(), Budget::sequential(), 0, worker_spec()),
        Err(ClusterError::ZeroWorkers)
    ));
    assert!(matches!(
        ClusterBook::spawn(
            config.clone(),
            Budget::sequential(),
            2,
            WorkerSpec::new("/nonexistent/flex_shard_worker"),
        ),
        Err(ClusterError::Spawn { worker: 0, .. })
    ));

    let mut cluster = ClusterBook::spawn(config, Budget::sequential(), 2, worker_spec()).unwrap();
    assert_eq!(
        cluster.update(42, offer(0)),
        Err(ClusterError::UnknownId { id: 42 })
    );
    assert_eq!(cluster.remove(42), Err(ClusterError::UnknownId { id: 42 }));
    let id = cluster.add(offer(0)).unwrap();
    assert_eq!(
        cluster.add_at(id, offer(1)),
        Err(ClusterError::IdTaken { id })
    );
    cluster.remove(id).unwrap();
    assert_eq!(
        cluster.update(id, offer(1)),
        Err(ClusterError::UnknownId { id })
    );
    cluster.shutdown();
}
