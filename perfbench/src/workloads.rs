//! The workloads: their seeded inputs, one measured drive of each
//! through the public API, and the sharded probe of the traced run.

use crate::probes::TimedStore;
use crate::serve::{View, ViewSchedule};
use std::sync::Arc;
use std::time::Instant;
use tero::chaos::FaultPlan;
use tero::core::pipeline::{ExtractionMode, Tero, TeroReport, WindowOutcome};
use tero::core::sharded::{run_sharded_observed, ShardedConfig};
use tero::obs::Snapshot;
use tero::store::{KvStore, ObjectStore};
use tero::types::{GameId, Location, SimTime};
use tero::world::{World, WorldConfig};

/// Countries the pinned groups live in, ordered so that any prefix
/// spreads over time zones.
const COUNTRIES: [&str; 8] = [
    "Netherlands",
    "Japan",
    "Brazil",
    "Canada",
    "Poland",
    "Spain",
    "Mexico",
    "Germany",
];

/// Equal windows of the sharded run (the orchestrator cuts the horizon
/// into equal time slices itself).
const SHARDED_WINDOWS: u64 = 8;

/// The most worker threads any run uses: the two cores the benchmark is
/// sized for, fewer on a smaller machine.
pub fn max_workers() -> usize {
    tero::pool::default_workers().clamp(1, 2)
}

/// The benchmark's workloads, and the OCR probe of the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Calibrated extraction over pinned groups, driven in windows of
    /// equal work.
    CalibratedWindows,
    /// FullOcr over a small pinned world: driven only by the traced run
    /// of `calibrated_windows`, for the OCR engines and the pool.
    FullOcr,
    /// Queries over recorded per-window serving views.
    ServeRefresh,
}

impl Workload {
    /// Every workload of the command line, in the order
    /// `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::CalibratedWindows, Workload::ServeRefresh];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CalibratedWindows => "calibrated_windows",
            Workload::FullOcr => "fullocr",
            Workload::ServeRefresh => "serve_refresh",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worlds of a run measuring for `seconds`: few, so that each is
    /// driven many times within `seconds` (at least [`MIN_ROUNDS`]). Both
    /// workloads drive the same 8 × 8 worlds.
    pub fn worlds(self, seconds: u64) -> usize {
        ((0.6 * seconds as f64 / 10.0).round() as usize).max(2)
    }

    /// Worker threads of the workload's pipeline: `fullocr` measures the
    /// pool at [`max_workers`]; the workloads gain nothing from a second
    /// worker (their ingest is sequential) and run on one, which leaves
    /// them less exposed to load on the machine's other core.
    pub fn workers(self) -> usize {
        match self {
            Workload::FullOcr => max_workers(),
            _ => 1,
        }
    }

    /// Ground-truth thumbnail instants per window, so a window holds the
    /// same amount of work whatever the seed (see [`window_ends`]).
    pub fn per_window(self) -> usize {
        match self {
            Workload::CalibratedWindows | Workload::ServeRefresh => 30,
            Workload::FullOcr => 10,
        }
    }

    /// Queries in each closed-loop replay after a drive: the query
    /// phase is a small share of a pipeline workload's run and most of
    /// `serve_refresh`'s measured time.
    pub fn queries(self) -> usize {
        match self {
            Workload::ServeRefresh => 40_000,
            _ => 10_000,
        }
    }

    /// The world this workload builds for `seed`. Every workload's world
    /// is made of pinned League of Legends groups of fixed size, so the
    /// seed changes the streamers, sessions and latencies but not how
    /// many streamers there are, and distributions publish.
    pub fn world(self, seed: u64) -> WorldConfig {
        let (countries, each, days) = match self {
            Workload::CalibratedWindows | Workload::ServeRefresh => (8, 8, 1),
            Workload::FullOcr => (4, 2, 1),
        };
        pinned_world(seed, countries, each, days)
    }

    /// A `Tero` for one drive of this workload.
    pub fn tero(self, workers: usize) -> Tero {
        Tero {
            mode: match self {
                Workload::FullOcr => ExtractionMode::FullOcr,
                _ => ExtractionMode::Calibrated,
            },
            min_streamers: 2,
            worker_threads: workers,
            ..Tero::default()
        }
    }
}

/// A world of `each` League of Legends streamers pinned in each of the
/// first `countries` of [`COUNTRIES`], with no random streamers.
fn pinned_world(seed: u64, countries: usize, each: usize, days: u64) -> WorldConfig {
    WorldConfig {
        seed,
        n_streamers: 0,
        days,
        pinned: COUNTRIES[..countries]
            .iter()
            .map(|c| (Location::country(*c), GameId::LeagueOfLegends, each))
            .collect(),
        api_budget_per_min: 2_000,
        ..WorldConfig::default()
    }
}

/// The sharded probe's configuration for `seed`: 2 engines over 3 store
/// shards, a quiet fault plan and Calibrated extraction, over four pinned
/// pairs for one day.
fn sharded_config(seed: u64) -> ShardedConfig {
    ShardedConfig {
        engines: 2,
        shards: 3,
        windows: SHARDED_WINDOWS,
        world: pinned_world(seed, 4, 2, 1),
        mode: ExtractionMode::Calibrated,
        min_streamers: 2,
        plan: FaultPlan::quiet(seed),
        net_seed: seed,
        trace: false,
        merge_workers: 1,
    }
}

/// Fewest times each world is driven in an untraced run, which drives
/// its worlds round after round until `--seconds` have passed. Many
/// drives of few worlds: the fastest of many drives spread over a run
/// finds the machine's quiet moments far more reliably than the fastest
/// of 3 or 5, and the worlds of one size differ little in cost per
/// thumbnail.
pub const MIN_ROUNDS: usize = 8;

/// One timed drive from the first window call to the report.
pub struct Run {
    /// The horizon report.
    pub report: TeroReport,
    /// Wall time of every equal window (all but the first and the final
    /// call), ms.
    pub windows_ms: Vec<f64>,
    /// Wall time of the final call: the last full window plus the
    /// finalize stages, up to the report, ms.
    pub horizon_ms: f64,
    /// Sum of all window calls, s: the run's wall time minus whatever
    /// the between-window hook spent.
    pub total_s: f64,
}

/// Window ends for `world`, counted back from the horizon: every window
/// holds `per_window` of the world's ground-truth thumbnail instants
/// except the first, which takes the remainder. The last end is the
/// final window's start; the final call runs from there to the horizon.
pub fn window_ends(world: &World, per_window: usize) -> Vec<SimTime> {
    let mut instants: Vec<u64> = world
        .timelines()
        .iter()
        .flatten()
        .flat_map(|stream| stream.samples.iter().map(|s| s.t.as_micros()))
        .collect();
    instants.sort_unstable();
    let per_window = per_window.max(1);
    let mut ends: Vec<u64> = (1..)
        .map(|k| k * per_window)
        .take_while(|&back| back < instants.len())
        .map(|back| instants[instants.len() - back])
        .collect();
    ends.reverse();
    ends.dedup();
    ends.into_iter().map(SimTime::from_micros).collect()
}

/// Drive `tero` over `world` through windows ending at `ends`, then one
/// call to the horizon itself. `between` runs after every window but
/// that last call, with the window's 1-based index, outside the timed
/// calls.
pub fn drive(
    tero: &Tero,
    world: &mut World,
    ends: &[SimTime],
    mut between: impl FnMut(usize),
) -> Run {
    let mut windows_ms = Vec::new();
    let mut total_s = 0.0;
    let mut w = 0;
    loop {
        let to = ends.get(w).copied().unwrap_or(world.horizon);
        let t = Instant::now();
        let outcome = tero.run_window(world, SimTime::EPOCH, to);
        let secs = t.elapsed().as_secs_f64();
        total_s += secs;
        match outcome {
            WindowOutcome::Complete(report) => {
                return Run {
                    report,
                    windows_ms,
                    horizon_ms: secs * 1e3,
                    total_s,
                }
            }
            WindowOutcome::Advanced => {
                // The first window holds the remainder and the engine's
                // creation, so it is not one of the equal windows.
                if w > 0 {
                    windows_ms.push(secs * 1e3);
                }
                w += 1;
                between(w);
            }
            // Engine kills only come from a chaos plan; the worlds here
            // carry none, and a kill resumes on the next call anyway.
            WindowOutcome::Killed => {}
        }
    }
}

/// The size of the workload's world for `seed`: its ground-truth
/// thumbnail instants.
pub fn size(workload: Workload, seed: u64) -> usize {
    World::build(workload.world(seed))
        .timelines()
        .iter()
        .flatten()
        .map(|stream| stream.samples.len())
        .sum()
}

/// Fastest of `n` builds of the workload's world, each timed alone, s.
pub fn fastest_build_s(workload: Workload, seed: u64, n: usize) -> f64 {
    let config = workload.world(seed);
    (0..n.max(1))
        .map(|_| {
            let config = config.clone();
            let t = Instant::now();
            std::hint::black_box(World::build(config));
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// One drive of a single-process workload.
pub struct Rep {
    /// The timed drive.
    pub run: Run,
    /// Set-up wall time, s: the world build, plus for `serve_refresh`
    /// the whole recording run.
    pub setup_s: f64,
    /// Whether the provenance ledger reconciled with the funnel counters.
    pub reconciled: bool,
    /// The run's metrics.
    pub metrics: Snapshot,
    /// `serve_refresh` only: the serving view after every window, the
    /// horizon's last.
    pub views: Vec<View>,
    /// The completed run's serving store.
    pub serving: KvStore,
    /// Traced only: the timed store backend the engine ran on.
    pub store: Option<Arc<TimedStore>>,
    /// Traced only: `(serialized bytes, ms)` of the engine snapshot
    /// taken before the final call.
    pub state: Option<(usize, f64)>,
}

/// Drive one world of `workload`. A traced
/// drive runs on a [`TimedStore`], with the registry's timing
/// histograms on, and snapshots the engine before the final window.
pub fn rep(workload: Workload, seed: u64, workers: usize, traced: bool) -> Rep {
    let t = Instant::now();
    let mut world = World::build(workload.world(seed));
    let build_s = t.elapsed().as_secs_f64();
    let store = traced.then(|| Arc::new(TimedStore::default()));
    let (kv, objects) = match &store {
        Some(s) => s.facades(),
        None => (KvStore::new(), ObjectStore::new()),
    };
    // Views are read from the backend itself, so recording them adds no
    // timed store operations.
    let view_kv = store.as_ref().map_or_else(|| kv.clone(), |s| s.inner_kv());
    let tero = Tero {
        stores: Some((kv, objects)),
        ..workload.tero(workers)
    };
    tero.obs.set_timing(traced);
    let record = workload == Workload::ServeRefresh;
    let ends = window_ends(&world, workload.per_window());
    let mut views = Vec::new();
    let mut state = None;
    let run = drive(&tero, &mut world, &ends, |w| {
        if record {
            views.push(ViewSchedule::capture(&view_kv));
        }
        if traced && w == ends.len() {
            let t = Instant::now();
            let snap = tero
                .engine_snapshot()
                .expect("engine runs until the horizon");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let bytes = serde_json::to_string(&snap).map_or(0, |s| s.len());
            state = Some((bytes, ms));
        }
    });
    if record {
        views.push(ViewSchedule::capture(&view_kv));
    }
    Rep {
        setup_s: if record {
            t.elapsed().as_secs_f64()
        } else {
            build_s
        },
        reconciled: tero.trace.ledger().reconcile(&tero.obs).is_ok(),
        metrics: tero.metrics_snapshot(),
        serving: tero.serving_store().expect("the run completed"),
        run,
        views,
        store,
        state,
    }
}

/// One sharded run, timed from outside through the window observer.
pub struct ShardedRun {
    /// Report thumbnails.
    pub thumbnails: u64,
    /// Gaps between consecutive observer calls (every window but the
    /// first, which includes the engines' world builds), ms.
    pub windows_ms: Vec<f64>,
    /// From the last observer call to the merged report, ms.
    pub merge_ms: f64,
    /// The network registry after the run.
    pub net: Snapshot,
    /// Whether the merged report digests like a single-process run of
    /// the same world.
    pub digest_ok: bool,
}

/// Run the sharded probe once, and check its merged report against a
/// single-process run of the same world (untimed).
pub fn run_sharded(seed: u64) -> ShardedRun {
    let cfg = sharded_config(seed);
    let mut marks: Vec<Instant> = Vec::new();
    let outcome = run_sharded_observed(&cfg, |_| marks.push(Instant::now()));
    let end = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    let last = *marks.last().expect("one observer call per window");
    let single = Tero {
        mode: cfg.mode,
        min_streamers: cfg.min_streamers,
        ..Tero::default()
    }
    .run(&mut World::build(cfg.world.clone()));
    ShardedRun {
        thumbnails: outcome.report.thumbnails,
        windows_ms: marks.windows(2).map(|p| ms(p[0], p[1])).collect(),
        merge_ms: ms(last, end),
        net: outcome.net_registry.snapshot(),
        digest_ok: outcome.report.digest() == single.digest(),
    }
}

/// The single-shot reference for `workload`: one `Tero::run` over a
/// fresh world. Its report digest is what every windowed or traced
/// drive must reproduce.
pub fn reference(workload: Workload, seed: u64) -> String {
    let mut world = World::build(workload.world(seed));
    workload.tero(workload.workers()).run(&mut world).digest()
}
