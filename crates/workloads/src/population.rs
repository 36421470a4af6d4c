//! District-scale populations of prosumer devices.

use rand::rngs::StdRng;
use rand::SeedableRng;

use flexoffers_model::Portfolio;

use crate::device::DeviceModel;
use crate::dishwasher::Dishwasher;
use crate::ev::EvCharger;
use crate::fridge::Refrigerator;
use crate::heatpump::HeatPump;
use crate::solar::SolarPanel;
use crate::v2g::VehicleToGrid;
use crate::wind::WindTurbine;

/// Builds a portfolio from configurable device counts, deterministically
/// under a seed.
///
/// ```
/// use flexoffers_workloads::PopulationBuilder;
///
/// let portfolio = PopulationBuilder::new(42)
///     .electric_vehicles(10)
///     .dishwashers(20)
///     .solar_panels(5)
///     .build();
/// assert_eq!(portfolio.len(), 35);
/// // Same seed, same portfolio.
/// let again = PopulationBuilder::new(42)
///     .electric_vehicles(10)
///     .dishwashers(20)
///     .solar_panels(5)
///     .build();
/// assert_eq!(portfolio, again);
/// ```
#[derive(Clone, Debug)]
pub struct PopulationBuilder {
    seed: u64,
    day: i64,
    evs: usize,
    dishwashers: usize,
    heat_pumps: usize,
    fridges: usize,
    solars: usize,
    winds: usize,
    v2gs: usize,
}

impl PopulationBuilder {
    /// Starts an empty population with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            day: 0,
            evs: 0,
            dishwashers: 0,
            heat_pumps: 0,
            fridges: 0,
            solars: 0,
            winds: 0,
            v2gs: 0,
        }
    }

    /// Anchors profiles at the given day (default 0).
    pub fn day(mut self, day: i64) -> Self {
        self.day = day;
        self
    }

    /// Adds EV chargers.
    pub fn electric_vehicles(mut self, n: usize) -> Self {
        self.evs = n;
        self
    }

    /// Adds dishwashers.
    pub fn dishwashers(mut self, n: usize) -> Self {
        self.dishwashers = n;
        self
    }

    /// Adds heat pumps.
    pub fn heat_pumps(mut self, n: usize) -> Self {
        self.heat_pumps = n;
        self
    }

    /// Adds refrigerators.
    pub fn refrigerators(mut self, n: usize) -> Self {
        self.fridges = n;
        self
    }

    /// Adds solar panels.
    pub fn solar_panels(mut self, n: usize) -> Self {
        self.solars = n;
        self
    }

    /// Adds wind turbines.
    pub fn wind_turbines(mut self, n: usize) -> Self {
        self.winds = n;
        self
    }

    /// Adds vehicle-to-grid batteries.
    pub fn vehicle_to_grid(mut self, n: usize) -> Self {
        self.v2gs = n;
        self
    }

    /// Generates the portfolio.
    pub fn build(&self) -> Portfolio {
        self.stream().collect()
    }

    /// Generates the population lazily, one flex-offer at a time, in
    /// exactly the order (and with exactly the RNG stream) [`build`] uses —
    /// `builder.stream().collect::<Portfolio>() == builder.build()` bit for
    /// bit. This is the allocation-frugal entry point for streaming
    /// consumers: a million-offer city can be drained event by event (or
    /// straight into a live book) without one giant `Vec` materialised up
    /// front.
    ///
    /// [`build`]: PopulationBuilder::build
    pub fn stream(&self) -> PopulationStream {
        let schedule: Vec<(Box<dyn DeviceModel>, usize)> = vec![
            (Box::new(EvCharger::default()), self.evs),
            (Box::new(Dishwasher::default()), self.dishwashers),
            (Box::new(HeatPump::default()), self.heat_pumps),
            (Box::new(Refrigerator::default()), self.fridges),
            (Box::new(SolarPanel::default()), self.solars),
            (Box::new(WindTurbine::default()), self.winds),
            (Box::new(VehicleToGrid::default()), self.v2gs),
        ];
        let remaining = schedule.iter().map(|(_, n)| n).sum();
        PopulationStream {
            rng: StdRng::seed_from_u64(self.seed),
            day: self.day,
            schedule,
            position: 0,
            emitted_in_current: 0,
            remaining,
        }
    }
}

/// A lazy flex-offer generator over a [`PopulationBuilder`]'s device
/// schedule — see [`PopulationBuilder::stream`]. The iterator reports an
/// exact [`size_hint`](Iterator::size_hint), so `collect` into a `Vec` or
/// [`Portfolio`] allocates once.
pub struct PopulationStream {
    rng: StdRng,
    day: i64,
    schedule: Vec<(Box<dyn DeviceModel>, usize)>,
    position: usize,
    emitted_in_current: usize,
    remaining: usize,
}

impl Iterator for PopulationStream {
    type Item = flexoffers_model::FlexOffer;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (model, count) = self.schedule.get(self.position)?;
            if self.emitted_in_current < *count {
                self.emitted_in_current += 1;
                self.remaining -= 1;
                return Some(model.generate(self.day, &mut self.rng));
            }
            self.position += 1;
            self.emitted_in_current = 0;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for PopulationStream {}

impl std::fmt::Debug for PopulationStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PopulationStream")
            .field("day", &self.day)
            .field("remaining", &self.remaining)
            .finish_non_exhaustive()
    }
}

/// A district preset: `households` homes with a Danish-flavoured device mix
/// (40 % EVs, 80 % dishwashers, 60 % heat pumps, one fridge each, 25 % solar,
/// 5 % V2G) plus one shared wind turbine per 100 households.
pub fn district(seed: u64, households: usize) -> Portfolio {
    PopulationBuilder::new(seed)
        .electric_vehicles(households * 2 / 5)
        .dishwashers(households * 4 / 5)
        .heat_pumps(households * 3 / 5)
        .refrigerators(households)
        .solar_panels(households / 4)
        .vehicle_to_grid(households / 20)
        .wind_turbines(households / 100)
        .build()
}

/// A city preset for portfolio-scale (100k+ offer) engine workloads: a
/// denser, more electrified mix than [`district`] — 55 % EVs, 90 %
/// dishwashers, 70 % heat pumps, one fridge each, 15 % rooftop solar, 8 %
/// V2G, one utility wind turbine per 200 households.
///
/// The offer count grows by roughly 3.38 offers per household
/// ([`city_offer_count`] gives the exact figure, accounting for the
/// per-device integer truncation), so ~30k households exercise a
/// 100k-offer engine run. Deterministic under `seed` like every generator
/// here.
pub fn city(seed: u64, households: usize) -> Portfolio {
    city_builder(seed, households).build()
}

/// The [`city`] preset as a lazy stream: the exact same offers in the exact
/// same order, generated one at a time — million-offer cities can be drained
/// into an event stream or a live book without a full-portfolio `Vec`.
pub fn city_stream(seed: u64, households: usize) -> PopulationStream {
    city_builder(seed, households).stream()
}

fn city_builder(seed: u64, households: usize) -> PopulationBuilder {
    PopulationBuilder::new(seed)
        .electric_vehicles(households * 11 / 20)
        .dishwashers(households * 9 / 10)
        .heat_pumps(households * 7 / 10)
        .refrigerators(households)
        .solar_panels(households * 3 / 20)
        .vehicle_to_grid(households * 2 / 25)
        .wind_turbines(households / 200)
}

/// Exact number of offers [`city`] generates for `households`.
pub fn city_offer_count(households: usize) -> usize {
    households * 11 / 20
        + households * 9 / 10
        + households * 7 / 10
        + households
        + households * 3 / 20
        + households * 2 / 25
        + households / 200
}

/// The smallest household count for which [`city`] yields at least
/// `offers` flex-offers — pair with
/// [`Portfolio::truncate`](flexoffers_model::Portfolio::truncate) for an
/// exact benchmark size.
pub fn city_households_for(offers: usize) -> usize {
    // city_offer_count grows ~3.38 per household; start below and step up.
    let mut households = offers * 20 / 69;
    while city_offer_count(households) < offers {
        households += 1;
    }
    households
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexoffers_model::SignClass;

    #[test]
    fn builder_counts_add_up() {
        let p = PopulationBuilder::new(1)
            .electric_vehicles(3)
            .dishwashers(2)
            .heat_pumps(1)
            .refrigerators(4)
            .solar_panels(2)
            .wind_turbines(1)
            .vehicle_to_grid(1)
            .build();
        assert_eq!(p.len(), 14);
        let summary = p.sign_summary();
        assert_eq!(summary.negative, 3); // solar + wind
        assert_eq!(summary.mixed, 1); // v2g
        assert_eq!(summary.positive, 10);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = district(7, 20);
        let b = district(7, 20);
        assert_eq!(a, b);
        let c = district(8, 20);
        assert_ne!(a, c);
    }

    #[test]
    fn district_mix_is_diverse() {
        let p = district(3, 100);
        let s = p.sign_summary();
        assert!(s.positive > 0 && s.negative > 0 && s.mixed > 0);
        assert_eq!(p.len(), 40 + 80 + 60 + 100 + 25 + 5 + 1);
    }

    #[test]
    fn all_generated_offers_are_well_formed_with_valid_extremes() {
        // FlexOffer construction enforces invariants; additionally verify
        // every offer admits at least one valid assignment.
        let p = district(9, 30);
        for fo in &p {
            assert!(fo.constrained_assignment_count().is_none_or(|n| n > 0));
            if fo.sign() == SignClass::Positive {
                assert!(fo.total_max() > 0);
            }
        }
    }

    #[test]
    fn city_count_formula_is_exact_and_deterministic() {
        for households in [0, 1, 7, 199, 200, 1000] {
            let p = city(11, households);
            assert_eq!(p.len(), city_offer_count(households), "{households}");
        }
        assert_eq!(city(11, 300), city(11, 300));
        assert_ne!(city(11, 300), city(12, 300));
    }

    #[test]
    fn city_households_for_hits_the_target() {
        for target in [1, 1000, 10_000, 100_000] {
            let households = city_households_for(target);
            assert!(city_offer_count(households) >= target);
            assert!(households == 0 || city_offer_count(households - 1) < target);
        }
    }

    #[test]
    fn city_mix_is_diverse() {
        let p = city(3, 400);
        let s = p.sign_summary();
        assert!(s.positive > 0 && s.negative > 0 && s.mixed > 0);
    }

    #[test]
    fn stream_replays_build_exactly() {
        let builder = PopulationBuilder::new(13)
            .electric_vehicles(3)
            .dishwashers(2)
            .solar_panels(1)
            .vehicle_to_grid(1)
            .day(2);
        let streamed: Portfolio = builder.stream().collect();
        assert_eq!(streamed, builder.build());
    }

    #[test]
    fn city_stream_replays_city_exactly_with_exact_size_hint() {
        for households in [0, 1, 37, 400] {
            let stream = city_stream(11, households);
            assert_eq!(stream.len(), city_offer_count(households));
            let streamed: Portfolio = stream.collect();
            assert_eq!(streamed, city(11, households), "{households} households");
        }
    }

    #[test]
    fn stream_size_hint_counts_down() {
        let mut stream = PopulationBuilder::new(1).refrigerators(3).stream();
        assert_eq!(stream.size_hint(), (3, Some(3)));
        stream.next().expect("three offers");
        assert_eq!(stream.size_hint(), (2, Some(2)));
        assert_eq!(stream.by_ref().count(), 2);
        assert_eq!(stream.size_hint(), (0, Some(0)));
        assert!(stream.next().is_none());
    }

    #[test]
    fn day_anchoring_shifts_profiles() {
        let today = PopulationBuilder::new(5).electric_vehicles(2).build();
        let tomorrow = PopulationBuilder::new(5)
            .electric_vehicles(2)
            .day(1)
            .build();
        for (a, b) in today.iter().zip(tomorrow.iter()) {
            assert_eq!(
                a.earliest_start() + crate::SLOTS_PER_DAY,
                b.earliest_start()
            );
        }
    }
}
