//! The seeded request generator.
//!
//! A workload is a pure function of its seed: the city book the server is
//! preloaded with, and an endless update → remove → add mutation cycle over
//! it that keeps the book size stable. The generator tracks which logical
//! ids are live, so every update and remove it emits names a live id, and
//! it predicts the id the server assigns to each add (ids are handed out in
//! arrival order, and all of a run's adds arrive on one connection).

use flexoffers_engine::stable_shard;
use flexoffers_model::FlexOffer;
use flexoffers_serving::Event;
use flexoffers_workloads::city_stream;

/// SplitMix64 — a tiny, dependency-free deterministic stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Replacement offers drawn by updates and adds: a city of their own, so
/// revisions change device profiles and grouping keys. A long ingest
/// replaces most of the book with pool offers, so the pool is large enough
/// that its make-up (slices per offer, grouping keys) is the same for
/// every seed: a 64-household pool moved the mean slice count by ±2.5 %
/// and the grouping keys by ±6 % between seeds.
const POOL_HOUSEHOLDS: usize = 512;

/// The preloaded city is the same for every seed: query cost depends on
/// the book's grouping structure, and a per-seed city moved the query
/// latencies by ~10 % between seeds. The seed drives the mutation stream
/// and the replacement offers, which reshape the book as a run goes on.
const CITY_SEED: u64 = 2015;

/// The one preloaded id the generator never updates or removes: the
/// operator of a mixed phase revises it before each query.
pub const OPERATOR_ID: u64 = 0;

#[derive(Clone, Debug)]
pub struct Generator {
    rng: Rng,
    pool: Vec<FlexOffer>,
    live: Vec<u64>,
    next_id: u64,
    emitted: u64,
}

impl Generator {
    /// The generator for `seed` and the city of `households` it preloads.
    pub fn new(seed: u64, households: usize) -> (Self, Vec<FlexOffer>) {
        let preload: Vec<FlexOffer> = city_stream(CITY_SEED, households).collect();
        let pool = city_stream(seed ^ 0x5eed_f1e7_0ffe_7001, POOL_HOUSEHOLDS).collect();
        let generator = Self {
            rng: Rng::new(seed ^ 0xa076_1d64_78bd_642f),
            pool,
            live: (OPERATOR_ID + 1..preload.len() as u64).collect(),
            next_id: preload.len() as u64,
            emitted: 0,
        };
        (generator, preload)
    }

    /// The next mutation of the update → remove → add cycle. With
    /// `target = Some((s, k))`, an update or remove picks a live id that
    /// `stable_shard` places in shard `s` of `k`, so a caller can decide
    /// which shards a round dirties.
    pub fn next(&mut self, target: Option<(usize, usize)>) -> Event {
        let step = self.emitted % 3;
        self.emitted += 1;
        match step {
            0 => {
                let at = self.pick(target);
                let id = self.live[at];
                Event::Update {
                    id,
                    offer: self.pooled(),
                }
            }
            1 => {
                let at = self.pick(target);
                Event::Remove {
                    id: self.live.swap_remove(at),
                }
            }
            _ => {
                self.live.push(self.next_id);
                self.next_id += 1;
                Event::Add(self.pooled())
            }
        }
    }

    /// The id the server assigns to the most recent add.
    #[cfg(test)]
    pub fn last_added(&self) -> u64 {
        self.next_id - 1
    }

    fn pooled(&mut self) -> FlexOffer {
        self.pool[self.rng.below(self.pool.len())].clone()
    }

    /// An index into `live`, restricted to ids of the target shard. The
    /// book spans both shards, so a few draws find one; the bound only
    /// guards against a degenerate book.
    fn pick(&mut self, target: Option<(usize, usize)>) -> usize {
        let Some((shard, shards)) = target else {
            return self.rng.below(self.live.len());
        };
        for _ in 0..4096 {
            let at = self.rng.below(self.live.len());
            if stable_shard(self.live[at], shards) == shard {
                return at;
            }
        }
        self.rng.below(self.live.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn events(seed: u64, n: usize, target: bool) -> Vec<Event> {
        let (mut generator, _) = Generator::new(seed, 40);
        (0..n)
            .map(|i| generator.next(target.then_some((i % 2, 2))))
            .collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_requests() {
        let (_, a) = Generator::new(11, 40);
        let (_, b) = Generator::new(12, 40);
        assert_eq!(a, b, "every seed preloads the same city");
        assert_eq!(events(11, 300, false), events(11, 300, false));
        assert_ne!(events(11, 300, false), events(12, 300, false));
    }

    #[test]
    fn every_update_and_remove_names_a_live_id() {
        for target in [false, true] {
            let (mut generator, preload) = Generator::new(5, 40);
            let mut live: BTreeSet<u64> = (0..preload.len() as u64).collect();
            let mut next_id = preload.len() as u64;
            for i in 0..3000 {
                match generator.next(target.then_some((i % 2, 2))) {
                    Event::Update { id, .. } => {
                        assert!(live.contains(&id) && id != OPERATOR_ID, "update of {id}")
                    }
                    Event::Remove { id } => {
                        assert!(live.remove(&id) && id != OPERATOR_ID, "remove of {id}")
                    }
                    Event::Add(_) => {
                        assert_eq!(generator.last_added(), next_id);
                        live.insert(next_id);
                        next_id += 1;
                    }
                    Event::Query(_) => unreachable!("the generator emits mutations only"),
                }
            }
            // One add per remove: the book size is stable.
            assert_eq!(live.len(), preload.len());
        }
    }

    #[test]
    fn targeted_mutations_land_in_their_shard() {
        let (mut generator, _) = Generator::new(3, 40);
        for i in 0..600 {
            let shard = i % 2;
            match generator.next(Some((shard, 2))) {
                Event::Update { id, .. } | Event::Remove { id } => {
                    assert_eq!(stable_shard(id, 2), shard)
                }
                _ => {}
            }
        }
    }
}
