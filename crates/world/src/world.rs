//! The [`World`]: one handle over the whole synthetic platform.

use crate::latency::SharedEvent;
use crate::population::PopulationModel;
use crate::sessions::{generate_timeline, TruthStream};
use crate::streamer::Streamer;
use crate::twitch::{RateLimiter, TwitchSim};
use tero_geoparse::{Gazetteer, PlaceKind, SocialProfile};
use tero_types::{GameId, Location, SimDuration, SimRng, SimTime, StreamerId};

/// Configuration of a synthetic world.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed — the whole world is a pure function of this.
    pub seed: u64,
    /// Number of organically placed streamers.
    pub n_streamers: usize,
    /// Data-set length in days.
    pub days: u64,
    /// Pinned populations: force `count` streamers at `location` whose
    /// main game is `game` (used by the Figs 9–12 regenerators, which need
    /// 50 League players in specific places).
    pub pinned: Vec<(Location, GameId, usize)>,
    /// Number of regional shared-anomaly events to scatter over the run.
    pub shared_events: usize,
    /// Optional release-day surge: `(game, start_day)` — five days of
    /// frequent world-wide events for one game (§4.2.3's Nov-16 anecdote).
    pub release_event: Option<(GameId, u64)>,
    /// Twitch API request budget per minute.
    pub api_budget_per_min: u32,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 1,
            n_streamers: 200,
            days: 14,
            pinned: Vec::new(),
            shared_events: 10,
            release_event: None,
            api_budget_per_min: 800,
        }
    }
}

/// The built world: ground truth plus the platform view over it.
pub struct World {
    /// The gazetteer used everywhere.
    pub gaz: Gazetteer,
    /// The configuration the world was built from.
    pub config: WorldConfig,
    /// The platform simulator (API + CDN).
    pub twitch: TwitchSim,
    /// All shared-anomaly events (ground truth).
    pub shared_events: Vec<SharedEvent>,
    /// The public social-media directory (Twitter + Steam profiles of
    /// everyone who has one — what the location module searches).
    pub social_directory: Vec<SocialProfile>,
    /// End of the data-set.
    pub horizon: SimTime,
}

impl World {
    /// Build a world. Deterministic in `config.seed`.
    pub fn build(config: WorldConfig) -> World {
        let gaz = Gazetteer::new();
        let mut rng = SimRng::new(config.seed);
        let horizon = SimTime::from_hours(24 * config.days);
        let population = PopulationModel::new(&gaz);

        // Streamers: pinned first, then organic. Usernames are unique on
        // the platform (Twitch enforces this).
        let mut streamers: Vec<Streamer> = Vec::new();
        let mut taken: std::collections::HashSet<String> = std::collections::HashSet::new();
        let unique = |s: Streamer,
                      taken: &mut std::collections::HashSet<String>,
                      rng: &mut SimRng,
                      gaz: &Gazetteer,
                      horizon: SimTime|
         -> Streamer {
            let mut s = s;
            while !taken.insert(s.id.as_str().to_string()) {
                let home = s.home.clone();
                s = Streamer::generate(gaz, home, horizon, rng);
            }
            s
        };
        for (loc, game, count) in &config.pinned {
            let place = gaz
                .resolve(loc)
                .unwrap_or_else(|| panic!("pinned location {loc} not in gazetteer"))
                .clone();
            for _ in 0..*count {
                // City-level home: if the pin is coarser than a city, keep
                // the resolved place (its centre/radius represent the
                // region).
                let mut s = Streamer::generate(&gaz, place.clone(), horizon, &mut rng);
                if let Some(pos) = s.games.iter().position(|&g| g == *game) {
                    s.games.swap(0, pos);
                } else {
                    s.games.insert(0, *game);
                    s.games.truncate(3);
                    // Regenerate behaviour for the adjusted game list.
                    s.behavior = s
                        .games
                        .iter()
                        .map(|&g| crate::streamer::Behavior::for_game(g, &mut rng))
                        .collect();
                }
                // Pinned streamers should not move away mid-data-set.
                s.second_home = None;
                s.net_second = None;
                let s = unique(s, &mut taken, &mut rng, &gaz, horizon);
                streamers.push(s);
            }
        }
        for _ in 0..config.n_streamers {
            let home = population.sample(&mut rng).clone();
            let s = Streamer::generate(&gaz, home, horizon, &mut rng);
            let s = unique(s, &mut taken, &mut rng, &gaz, horizon);
            streamers.push(s);
        }

        // Shared events: random {region of an actual streamer, game}.
        let mut shared_events = Vec::new();
        if !streamers.is_empty() {
            for _ in 0..config.shared_events {
                let s = &streamers[rng.range_usize(0, streamers.len())];
                let game = *rng.choose(&s.games);
                let region = s.home.location.to_region_level();
                let start = SimTime::from_micros(rng.below(horizon.as_micros().max(1)));
                let duration = SimDuration::from_mins(10 + rng.below(40));
                shared_events.push(SharedEvent {
                    game,
                    region: Some(region),
                    start,
                    end: start + duration,
                    magnitude_ms: 25.0 + rng.f64() * 70.0,
                });
            }
        }
        // Release-day surge: five days of frequent world-wide events.
        if let Some((game, start_day)) = config.release_event {
            for day in start_day..(start_day + 5).min(config.days) {
                for _ in 0..30 {
                    let start =
                        SimTime::from_hours(24 * day) + SimDuration::from_secs(rng.below(86_400));
                    shared_events.push(SharedEvent {
                        game,
                        region: None,
                        start,
                        end: start + SimDuration::from_mins(10 + rng.below(25)),
                        magnitude_ms: 30.0 + rng.f64() * 60.0,
                    });
                }
            }
        }
        shared_events.sort_by_key(|e| e.start);

        // Timelines.
        let timelines: Vec<Vec<TruthStream>> = streamers
            .iter()
            .map(|s| generate_timeline(s, &gaz, &shared_events, horizon, &mut rng))
            .collect();

        // Social directory (shuffled so order leaks nothing). Movers who
        // have already relocated by the end of the data-set advertise
        // their *new* home in their profile (§3.1.1: streamers do update
        // their location) — so measurements taken before the move get
        // attributed to the new location, the contamination §3.1.2's
        // cluster-rejection option screens.
        let mut social_directory: Vec<SocialProfile> = streamers
            .iter()
            .flat_map(|s| {
                let mut profiles: Vec<SocialProfile> =
                    s.twitter.iter().chain(s.steam.iter()).cloned().collect();
                if let Some((second, move_at)) = &s.second_home {
                    if *move_at < horizon {
                        for p in &mut profiles {
                            if p.location_field.is_some() {
                                let style = crate::textgen::TwitterFieldStyle::CityRegion;
                                p.location_field =
                                    Some(crate::textgen::twitter_field(style, second, &mut rng));
                            }
                        }
                    }
                }
                profiles
            })
            .collect();
        // ~1 % of streamers also have a *fan/impersonator* profile under
        // their username with an explicit link to them but a wrong
        // location — the source of the paper's 1.6 % mapping errors.
        for s in &streamers {
            if rng.chance(0.01) {
                let wrong_home = gaz
                    .places()
                    .iter()
                    .filter(|p| p.kind == PlaceKind::City && p.location != s.home.location)
                    .nth(rng.range_usize(0, 40))
                    .cloned();
                if let Some(place) = wrong_home {
                    social_directory.push(SocialProfile {
                        platform: tero_geoparse::profiles::SocialPlatform::Steam,
                        username: s.id.as_str().to_string(),
                        location_field: Some(place.location.country.clone()),
                        bio: format!("fan of twitch.tv/{}", s.id.as_str()),
                        links_to_twitch: Some(s.id.as_str().to_string()),
                    });
                }
            }
        }
        rng.shuffle(&mut social_directory);

        let twitch = TwitchSim {
            streamers,
            timelines,
            limiter: RateLimiter::new(config.api_budget_per_min),
            chaos: None,
        };

        World {
            gaz,
            config,
            twitch,
            shared_events,
            social_directory,
            horizon,
        }
    }

    /// Install a deterministic fault injector on the platform simulator.
    /// API and CDN calls consult it from then on; the injector is also
    /// what the stores and the download module should share (clone it).
    pub fn install_chaos(&mut self, injector: tero_chaos::ChaosInjector) {
        self.twitch.install_chaos(injector);
    }

    /// The installed fault injector, if any.
    pub fn chaos(&self) -> Option<&tero_chaos::ChaosInjector> {
        self.twitch.chaos()
    }

    /// All streamers (ground truth).
    pub fn streamers(&self) -> &[Streamer] {
        &self.twitch.streamers
    }

    /// Ground-truth timelines, parallel to [`World::streamers`].
    pub fn timelines(&self) -> &[Vec<TruthStream>] {
        &self.twitch.timelines
    }

    /// Look up a streamer by username.
    pub fn streamer(&self, id: &StreamerId) -> Option<&Streamer> {
        self.twitch.streamers.iter().find(|s| &s.id == id)
    }

    /// Ground-truth location (city granularity) of a streamer at `t`.
    pub fn truth_location(&self, id: &StreamerId, t: SimTime) -> Option<Location> {
        self.streamer(id).map(|s| s.location_at(t).location.clone())
    }

    /// Total ground-truth thumbnail instants across the world.
    pub fn total_samples(&self) -> usize {
        self.twitch
            .timelines
            .iter()
            .flat_map(|tl| tl.iter())
            .map(|s| s.samples.len())
            .sum()
    }

    /// A helper city pin for tests and benches: resolve a named city.
    pub fn city(gaz: &Gazetteer, name: &str) -> Location {
        gaz.lookup_kind(name, PlaceKind::City)
            .first()
            .map(|p| p.location.clone())
            .unwrap_or_else(|| panic!("city {name} not in gazetteer"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_world() {
        let world = World::build(WorldConfig {
            seed: 42,
            n_streamers: 30,
            days: 7,
            ..WorldConfig::default()
        });
        assert_eq!(world.streamers().len(), 30);
        assert!(world.total_samples() > 200, "{}", world.total_samples());
        assert!(!world.social_directory.is_empty());
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = WorldConfig {
            seed: 7,
            n_streamers: 10,
            days: 3,
            ..WorldConfig::default()
        };
        let a = World::build(cfg.clone());
        let b = World::build(cfg);
        assert_eq!(a.total_samples(), b.total_samples());
        for (x, y) in a.streamers().iter().zip(b.streamers()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.home.location, y.home.location);
        }
    }

    #[test]
    fn pinned_streamers_get_location_and_game() {
        let gaz = Gazetteer::new();
        let chicago = World::city(&gaz, "Chicago");
        let world = World::build(WorldConfig {
            seed: 3,
            n_streamers: 5,
            days: 3,
            pinned: vec![(chicago.clone(), GameId::LeagueOfLegends, 8)],
            ..WorldConfig::default()
        });
        let pinned: Vec<&Streamer> = world
            .streamers()
            .iter()
            .filter(|s| s.home.location == chicago)
            .collect();
        assert!(pinned.len() >= 8);
        assert!(pinned
            .iter()
            .take(8)
            .all(|s| s.games[0] == GameId::LeagueOfLegends));
    }

    #[test]
    fn api_flow_end_to_end() {
        let mut world = World::build(WorldConfig {
            seed: 11,
            n_streamers: 40,
            days: 3,
            ..WorldConfig::default()
        });
        // Find a time with live streams.
        let mut t = SimTime::from_hours(1);
        let mut listings = Vec::new();
        while t < world.horizon {
            listings = world.twitch.get_streams(t).expect("budget");
            if !listings.is_empty() {
                break;
            }
            t += SimDuration::from_mins(30);
        }
        assert!(!listings.is_empty(), "no live stream found in 3 days");
        let url = &listings[0].thumbnail_url;
        match world.twitch.cdn_get(url, t) {
            crate::twitch::CdnResponse::Thumbnail { content, .. } => {
                let image = world.twitch.render(&content).expect("content renders");
                assert_eq!(image.width, tero_vision::scene::THUMB_W);
                assert!(content.generated_at <= t);
            }
            crate::twitch::CdnResponse::Offline => {
                // Live but first thumbnail not yet posted is possible only
                // within 5 min of stream start; accept but verify the HEAD
                // agrees.
                assert!(world.twitch.cdn_head(url, t).is_none());
            }
            crate::twitch::CdnResponse::TimedOut => {
                unreachable!("no fault injector installed");
            }
        }
        // Unknown URL is offline.
        assert!(matches!(
            world.twitch.cdn_get("cdn://thumbs/nobody", t),
            crate::twitch::CdnResponse::Offline
        ));
    }

    #[test]
    fn release_event_floods_one_game() {
        let world = World::build(WorldConfig {
            seed: 5,
            n_streamers: 10,
            days: 10,
            shared_events: 0,
            release_event: Some((GameId::CodWarzone, 2)),
            ..WorldConfig::default()
        });
        assert!(world.shared_events.len() >= 100);
        assert!(world
            .shared_events
            .iter()
            .all(|e| e.game == GameId::CodWarzone && e.region.is_none()));
        let first = world.shared_events.first().unwrap().start;
        assert!(first >= SimTime::from_hours(48));
    }
}
