//! The served-query end of every workload: a seeded query mix over a
//! sequence of recorded serving views, replayed against
//! `tero_serve::QueryEngine` closed loop (the end-to-end figures) or open
//! loop (the traced run's), and checked against a cache-off replay of
//! the same interleaving.

use crate::openloop::{self, DEADLINE_US};
use crate::stats::{median, quantile, tail, Tail};
use crate::Rng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tero::core::serving::{
    load_sketch, DIST_SKETCH_PREFIX, RAW_SKETCH_PREFIX, SERVE_PREFIX, SERVE_VERSION_KEY,
};
use tero::obs::Registry;
use tero::serve::{fold_answers, Answer, Query, QueryEngine, SketchRef, QUERY_PERCENTILES};
use tero::store::KvStore;

/// One serving view: every `engine:serve:*` key and value except the
/// version key, which the replay bumps itself.
pub type View = BTreeMap<String, String>;

/// Query kinds, in the order of their per-kind metrics.
pub const KINDS: [&str; 4] = ["percentile", "cdf", "histogram", "wasserstein"];

/// Cumulative weights (out of 100) of [`KINDS`] in the mix: 55
/// percentiles, 25 CDFs, 12 histograms, 8 Wasserstein pairs, the
/// production-shaped mix `tero_serve::LoadGen` documents and uses
/// (`crates/serve/src/loadgen.rs`, private there, so repeated here).
const KIND_WEIGHTS: [u64; 4] = [55, 80, 92, 100];

/// The serving views a replay walks through: view `b % len` serves
/// queries `b * every .. (b + 1) * every`.
#[derive(Debug, Clone)]
pub struct ViewSchedule {
    /// The views, in the order the engine committed them.
    pub views: Vec<View>,
    /// Queries between two view changes.
    pub every: usize,
}

impl ViewSchedule {
    /// Read the current serving view out of a KV store.
    pub fn capture(kv: &KvStore) -> View {
        kv.keys_with_prefix(SERVE_PREFIX)
            .into_iter()
            .filter(|k| k != SERVE_VERSION_KEY)
            .filter_map(|k| kv.get(&k).map(|v| (k, v)))
            .collect()
    }

    /// Whether `view` holds any sketch a query could target.
    pub fn has_sketches(view: &View) -> bool {
        view.keys().any(|k| is_sketch_key(k))
    }

    fn view_for(&self, query: usize) -> usize {
        (query / self.every) % self.views.len()
    }

    /// Every sketch key of view `v` a query may target, sorted.
    fn targets(&self, v: usize) -> Vec<SketchRef> {
        self.views[v]
            .keys()
            .filter(|k| is_sketch_key(k))
            .map(|k| match tero::core::serving::parse_raw_sketch_key(k) {
                Some((anon, game)) => SketchRef::raw(anon, game),
                None => {
                    let (g, game, loc) = tero::core::serving::parse_dist_sketch_key(k)
                        .expect("dist prefix implies a dist key");
                    SketchRef::dist(g, game, loc)
                }
            })
            .collect()
    }

    /// Distinct sketch keys across every view.
    pub fn target_count(&self) -> usize {
        let mut all: Vec<SketchRef> = (0..self.views.len())
            .flat_map(|v| self.targets(v))
            .collect();
        all.sort();
        all.dedup();
        all.len()
    }
}

/// Whether `key` holds a sketch a query can target.
fn is_sketch_key(key: &str) -> bool {
    key.starts_with(DIST_SKETCH_PREFIX) || key.starts_with(RAW_SKETCH_PREFIX)
}

/// A KV store replaying a [`ViewSchedule`].
struct Served {
    kv: KvStore,
    applied: u64,
    current: usize,
}

impl Served {
    fn new(schedule: &ViewSchedule) -> Served {
        let mut served = Served {
            kv: KvStore::new(),
            applied: 0,
            current: usize::MAX,
        };
        served.apply(schedule, 0);
        served
    }

    /// Move to view `v`: write the keys that changed, delete those that
    /// went away, and bump the version.
    fn apply(&mut self, schedule: &ViewSchedule, v: usize) {
        if v == self.current {
            return;
        }
        let next = &schedule.views[v];
        if let Some(prev) = schedule.views.get(self.current) {
            for key in prev.keys().filter(|k| !next.contains_key(*k)) {
                self.kv.del(key);
            }
        }
        for (key, value) in next {
            let unchanged = schedule
                .views
                .get(self.current)
                .is_some_and(|prev| prev.get(key) == Some(value));
            if !unchanged {
                self.kv.set(key, value.clone());
            }
        }
        self.applied += 1;
        self.kv.set(SERVE_VERSION_KEY, self.applied.to_string());
        self.current = v;
    }
}

/// Generate `n` queries: each targets a sketch present in the view that
/// will be served when it runs, so every query must be answered.
pub fn query_stream(seed: u64, schedule: &ViewSchedule, n: usize) -> Vec<(u8, Query)> {
    let mut rng = Rng::new(seed ^ 0x05e7_ea11);
    let mut targets: Vec<Vec<SketchRef>> = vec![Vec::new(); schedule.views.len()];
    (0..n)
        .map(|i| {
            let v = schedule.view_for(i);
            if targets[v].is_empty() {
                targets[v] = schedule.targets(v);
                assert!(!targets[v].is_empty(), "serving view {v} has no sketches");
            }
            let pool = &targets[v];
            let roll = rng.below(100);
            let kind = KIND_WEIGHTS
                .iter()
                .position(|w| roll < *w)
                .expect("weights end at 100");
            let target = pool[rng.below(pool.len() as u64) as usize].clone();
            let query = match kind {
                0 => Query::Percentile {
                    target,
                    p: QUERY_PERCENTILES[rng.below(QUERY_PERCENTILES.len() as u64) as usize],
                },
                1 => Query::Cdf {
                    target,
                    x: rng.unit() * 400.0,
                },
                2 => Query::Histogram { target },
                _ => Query::Wasserstein {
                    a: target,
                    b: pool[rng.below(pool.len() as u64) as usize].clone(),
                },
            };
            (kind as u8, query)
        })
        .collect()
}

/// What one replay produced besides its timings.
struct Replay {
    pass: openloop::Pass,
    answers: Vec<Answer>,
    checksums: Vec<u64>,
    unanswered: u64,
    cache: (u64, u64, u64),
}

/// Replay `queries` open loop at `rate` against a fresh store and engine
/// (`cache` decoded sketches; 0 turns the cache off). Answers are kept
/// whole when `keep_answers`, else only their checksums.
fn replay(
    schedule: &ViewSchedule,
    queries: &[(u8, Query)],
    rate: f64,
    cache: usize,
    keep_answers: bool,
) -> Replay {
    let mut served = Served::new(schedule);
    let engine = QueryEngine::with_cache_capacity(served.kv.clone(), &Registry::new(), cache);
    let mut answers = Vec::with_capacity(if keep_answers { queries.len() } else { 0 });
    let mut checksums = Vec::with_capacity(queries.len());
    let mut unanswered = 0;
    let pass = openloop::run(queries.len(), rate, |i| {
        served.apply(schedule, schedule.view_for(i));
        let answer = engine.query(&queries[i].1);
        unanswered += u64::from(!answer.is_answered());
        checksums.push(answer.checksum());
        if keep_answers {
            answers.push(answer);
        }
    });
    Replay {
        pass,
        answers,
        checksums,
        unanswered,
        cache: engine.cache_stats(),
    }
}

/// Queries per timed segment of a closed-loop replay.
const CLOSED_SEGMENT: usize = 1_000;

/// What the closed-loop replays of a run measured and checked.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClosedResult {
    /// Sum over segments of each one's fastest time, per query, µs.
    pub mean_us: f64,
    /// p99 over queries of each one's fastest service time, µs.
    pub p99_us: f64,
    /// Distinct queries (each replayed once per drive of its world).
    pub queries: u64,
    /// Queries issued over every replay.
    pub attempted: u64,
    /// Unanswered queries.
    pub failed: u64,
    /// Whether every stream answered exactly as its cache-off replay.
    pub answers_match: bool,
    /// `fold_answers` checksums of the checked streams, folded.
    pub checksum: u64,
}

/// The fastest figures of one key's replays.
#[derive(Debug)]
struct Fastest {
    /// Per segment, s.
    segments: Vec<f64>,
    /// Per query, µs.
    queries: Vec<f32>,
    /// The first replay's `fold_answers` checksum.
    checksum: u64,
}

/// The closed-loop serving load of a run: after each drive, its world's
/// seeded query stream is replayed back to back on one thread, against a
/// fresh store and engine, so every replay of one key does the same work.
/// Each query and each [`CLOSED_SEGMENT`]-query segment keeps its fastest
/// time over the replays: load from outside the process only adds time,
/// and rarely hits the same segment in every replay.
#[derive(Debug, Default)]
pub struct ClosedLoad {
    fastest: BTreeMap<usize, Fastest>,
    attempted: u64,
    failed: u64,
    mismatched: bool,
}

impl ClosedLoad {
    /// Replay `n` seeded queries over `schedule`. The first replay of a
    /// `key` is then checked (untimed) against a cache-off replay of the
    /// same interleaving; later replays of it must give the same answers.
    pub fn replay(&mut self, key: usize, seed: u64, schedule: &ViewSchedule, n: usize) {
        let queries = query_stream(seed, schedule, n);
        let mut served = Served::new(schedule);
        let engine = QueryEngine::new(served.kv.clone(), &Registry::new());
        let mut answers = Vec::with_capacity(n);
        let mut times = Vec::with_capacity(n);
        let mut last = Instant::now();
        for (i, (_, query)) in queries.iter().enumerate() {
            served.apply(schedule, schedule.view_for(i));
            answers.push(engine.query(query));
            let now = Instant::now();
            times.push(now - last);
            last = now;
        }
        self.attempted += n as u64;
        self.failed += answers.iter().filter(|a| !a.is_answered()).count() as u64;
        let segments: Vec<f64> = times
            .chunks(CLOSED_SEGMENT)
            .map(|c| c.iter().sum::<Duration>().as_secs_f64())
            .collect();
        let per_query = times.iter().map(|t| (t.as_secs_f64() * 1e6) as f32);
        let checksum = fold_answers(&answers).checksum;
        match self.fastest.get_mut(&key) {
            Some(f) => {
                for (fast, v) in f.segments.iter_mut().zip(segments) {
                    *fast = fast.min(v);
                }
                for (fast, v) in f.queries.iter_mut().zip(per_query) {
                    *fast = fast.min(v);
                }
                self.mismatched |= checksum != f.checksum;
            }
            None => {
                let check = replay(schedule, &queries, f64::INFINITY, 0, true);
                self.mismatched |= checksum != fold_answers(&check.answers).checksum
                    || answers.iter().map(Answer::checksum).ne(check.checksums);
                self.fastest.insert(
                    key,
                    Fastest {
                        segments,
                        queries: per_query.collect(),
                        checksum,
                    },
                );
            }
        }
    }

    /// Combine the replays into the result.
    pub fn finish(self) -> ClosedResult {
        let queries: u64 = self.fastest.values().map(|f| f.queries.len() as u64).sum();
        let total_s: f64 = self.fastest.values().flat_map(|f| &f.segments).sum();
        let each: Vec<f64> = self
            .fastest
            .values()
            .flat_map(|f| f.queries.iter().map(|&q| f64::from(q)))
            .collect();
        ClosedResult {
            mean_us: total_s * 1e6 / queries.max(1) as f64,
            p99_us: quantile(&each, 0.99),
            queries,
            attempted: self.attempted,
            failed: self.failed,
            answers_match: !self.mismatched,
            checksum: self
                .fastest
                .values()
                .fold(0, |acc, f| acc.rotate_left(7) ^ f.checksum),
        }
    }
}

/// Lowest rate of the capacity ladder, per second.
const LADDER_START: f64 = 50_000.0;

/// Highest rate of the capacity ladder, per second (the ladder found
/// 340–720 k/s on one thread of a 2-core box, across views and
/// neighbours' load).
const LADDER_TOP: f64 = 1_600_000.0;

/// Resolution of the ladder's bisection: two neighbouring rates differ
/// by this ratio, finer than `max_qps`'s bound, so a change in serving
/// capacity of that size moves the result.
const LADDER_STEP: f64 = 1.05;

/// Trials per ladder rate; the rate is met when any trial meets it, so
/// one scheduler stall cannot fail a rate the server sustains.
const LADDER_TRIALS: usize = 3;

/// Fewest queries in a ladder trial, so a low rate still spans enough
/// segments for its p99 to survive one stall.
const MIN_TRIAL: usize = 5_000;

/// One ladder rate's best trial.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Scheduled rate, per second.
    pub rate: f64,
    /// Achieved rate, per second.
    pub achieved: f64,
    /// p99 latency from due time (segment median), µs.
    pub p99_us: f64,
    /// Whether the backlog grew.
    pub grew: bool,
    /// Whether the rate was met.
    pub met: bool,
}

/// Everything the query passes of a run measured and checked.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Latency from due time at the reference rate, over every chunk.
    pub latency: Tail,
    /// Median over segments of their fastest median latency, µs (see
    /// [`RefLoad::chunk`]).
    pub p50_us: f64,
    /// Median over segments of their fastest p99 latency, µs.
    pub p99_us: f64,
    /// Generator lag at the reference rate.
    pub lag: Tail,
    /// Median service time per kind of [`KINDS`], µs.
    pub kind_us: [f64; 4],
    /// Cache hits ÷ lookups at the reference rate.
    pub cache_hit_ratio: f64,
    /// Median `load_sketch` decode time over every view's sketches, µs.
    pub decode_us: f64,
    /// Every ladder's rungs, in the order tried.
    pub ladders: Vec<Vec<Rung>>,
    /// Highest over ladders of the achieved rate of the highest rate met
    /// (0 when none was); see [`RefLoad::ladder`].
    pub max_qps: f64,
    /// Queries issued in every pass.
    pub attempted: u64,
    /// Unanswered queries, plus reference-rate queries past
    /// [`DEADLINE_US`].
    pub failed: u64,
    /// Whether every pass answered exactly as its cache-off replay.
    pub answers_match: bool,
    /// `fold_answers` checksums of the reference-rate chunks, folded.
    pub checksum: u64,
}

/// The reference-rate load of a traced run: short open-loop chunks
/// spread over the run, one per drive. The chunks of one key replay the same queries
/// over the same views, so each 1 000-query segment keeps its fastest
/// figures over them: interference from outside the process only adds
/// latency, and it rarely hits the same segment in every replay.
#[derive(Debug)]
pub struct RefLoad {
    rate: f64,
    /// Per key: the fastest median and p99 of each segment so far.
    segments: BTreeMap<usize, (Vec<f64>, Vec<f64>)>,
    latency: Vec<f64>,
    lag: Vec<f64>,
    kind_service: [Vec<f64>; 4],
    hits: u64,
    lookups: u64,
    attempted: u64,
    failed: u64,
    answers_match: bool,
    checksum: u64,
    /// Every ladder's rungs and its highest achieved rate met.
    ladders: Vec<(Vec<Rung>, f64)>,
}

impl RefLoad {
    /// An empty load at `rate` queries per second.
    pub fn new(rate: f64) -> RefLoad {
        RefLoad {
            rate,
            segments: BTreeMap::new(),
            latency: Vec::new(),
            lag: Vec::new(),
            kind_service: Default::default(),
            hits: 0,
            lookups: 0,
            attempted: 0,
            failed: 0,
            answers_match: true,
            checksum: 0,
            ladders: Vec::new(),
        }
    }

    /// Replay `n` seeded queries over `schedule` at the reference rate,
    /// then (untimed) check them against a cache-off replay of the same
    /// interleaving. Chunks under one `key` must replay the same queries.
    pub fn chunk(&mut self, key: usize, seed: u64, schedule: &ViewSchedule, n: usize) {
        let queries = query_stream(seed, schedule, n);
        let r = replay(
            schedule,
            &queries,
            self.rate,
            tero::serve::DEFAULT_CACHE_CAPACITY,
            true,
        );
        let check = replay(schedule, &queries, f64::INFINITY, 0, true);
        let sum = fold_answers(&r.answers).checksum;
        self.answers_match &=
            sum == fold_answers(&check.answers).checksum && r.checksums == check.checksums;
        self.checksum = self.checksum.rotate_left(7) ^ sum;
        let (p50, p99) = (
            r.pass.segment_quantiles(0.5),
            r.pass.segment_quantiles(0.99),
        );
        let fastest = self
            .segments
            .entry(key)
            .or_insert_with(|| (p50.clone(), p99.clone()));
        for (fast, now) in [(&mut fastest.0, &p50), (&mut fastest.1, &p99)] {
            for (f, v) in fast.iter_mut().zip(now) {
                *f = f.min(*v);
            }
        }
        let late = r
            .pass
            .latency_us
            .iter()
            .filter(|&&l| l > DEADLINE_US)
            .count() as u64;
        self.attempted += n as u64;
        self.failed += r.unanswered + late;
        for ((kind, _), service) in queries.iter().zip(&r.pass.service_us) {
            self.kind_service[*kind as usize].push(*service);
        }
        let (hits, misses, _) = r.cache;
        self.hits += hits;
        self.lookups += hits + misses;
        self.latency.extend(r.pass.latency_us);
        self.lag.extend(r.pass.lag_us);
    }

    /// Find the highest rate met over `schedule` (see [`ladder`]). With
    /// several ladders, the highest counts: load from outside the process
    /// only lowers the rate a ladder finds.
    pub fn ladder(&mut self, seed: u64, schedule: &ViewSchedule, rung_secs: f64) {
        let l = ladder(seed, schedule, rung_secs);
        let max_qps = l
            .rungs
            .iter()
            .filter(|r| r.met)
            .max_by(|x, y| x.rate.total_cmp(&y.rate))
            .map_or(0.0, |r| r.achieved);
        self.attempted += l.attempted;
        self.failed += l.failed;
        self.answers_match &= l.ok;
        self.ladders.push((l.rungs, max_qps));
    }

    /// Combine the chunks and ladders into the phase result.
    pub fn finish(self, schedule: &ViewSchedule) -> PhaseResult {
        PhaseResult {
            latency: tail(&self.latency),
            p50_us: median(
                &self
                    .segments
                    .values()
                    .flat_map(|s| s.0.clone())
                    .collect::<Vec<_>>(),
            ),
            p99_us: median(
                &self
                    .segments
                    .values()
                    .flat_map(|s| s.1.clone())
                    .collect::<Vec<_>>(),
            ),
            lag: tail(&self.lag),
            kind_us: self.kind_service.each_ref().map(|v| median(v)),
            cache_hit_ratio: self.hits as f64 / self.lookups.max(1) as f64,
            decode_us: decode_us(schedule),
            max_qps: self.ladders.iter().map(|l| l.1).fold(0.0, f64::max),
            ladders: self.ladders.into_iter().map(|l| l.0).collect(),
            attempted: self.attempted,
            failed: self.failed,
            answers_match: self.answers_match,
            checksum: self.checksum,
        }
    }
}

/// The capacity ladder's state: one seeded stream whose prefixes every
/// trial replays, checked once against a cache-off replay.
struct Ladder<'a> {
    schedule: &'a ViewSchedule,
    seed: u64,
    rung_secs: f64,
    stream: Vec<(u8, Query)>,
    check: Vec<u64>,
    rungs: Vec<Rung>,
    attempted: u64,
    failed: u64,
    ok: bool,
}

impl Ladder<'_> {
    /// Try `rate` up to [`LADDER_TRIALS`] times; whether a trial met it.
    fn meets(&mut self, rate: f64) -> bool {
        let n = ((rate * self.rung_secs) as usize).max(MIN_TRIAL);
        if n > self.stream.len() {
            self.stream = query_stream(self.seed ^ 0x001a_dde7, self.schedule, n);
            self.check = replay(self.schedule, &self.stream, f64::INFINITY, 0, false).checksums;
        }
        let queries = &self.stream[..n];
        let mut best: Option<Rung> = None;
        for _ in 0..LADDER_TRIALS {
            let r = replay(
                self.schedule,
                queries,
                rate,
                tero::serve::DEFAULT_CACHE_CAPACITY,
                false,
            );
            self.ok &= r.checksums == self.check[..n];
            self.attempted += n as u64;
            self.failed += r.unanswered;
            let rung = Rung {
                rate,
                achieved: r.pass.achieved_rate(),
                p99_us: r.pass.latency_quantile(0.99),
                grew: r.pass.backlog_grew(),
                met: r.pass.meets_limit(),
            };
            if best.is_none_or(|b| rung.met || rung.p99_us < b.p99_us) {
                best = Some(rung);
            }
            if rung.met {
                break;
            }
        }
        let best = best.expect("at least one trial per rate");
        self.rungs.push(best);
        best.met
    }
}

/// Find the highest rate met: double from [`LADDER_START`] until a rate
/// is not met, then bisect between the last rate met and that one on a
/// grid of [`LADDER_STEP`]. Queries past the deadline above capacity are
/// what the ladder looks for, so only unanswered ones count as failed.
fn ladder<'a>(seed: u64, schedule: &'a ViewSchedule, rung_secs: f64) -> Ladder<'a> {
    let mut l = Ladder {
        schedule,
        seed,
        rung_secs,
        stream: Vec::new(),
        check: Vec::new(),
        rungs: Vec::new(),
        attempted: 0,
        failed: 0,
        ok: true,
    };
    let mut met = None;
    let mut rate = LADDER_START;
    while rate <= LADDER_TOP {
        if !l.meets(rate) {
            break;
        }
        met = Some(rate);
        rate *= 2.0;
    }
    // Grid point `j` of the bisection is `lo × LADDER_STEP^j`; point 0 was
    // met and the top point, `rate` itself, was not.
    if let Some(lo) = met.filter(|_| rate <= LADDER_TOP) {
        let top = ((rate / lo).ln() / LADDER_STEP.ln()).ceil() as i32;
        let grid = |j: i32| {
            if j == top {
                rate
            } else {
                lo * LADDER_STEP.powi(j)
            }
        };
        let (mut a, mut b) = (0, top);
        while b - a > 1 {
            let m = (a + b) / 2;
            if l.meets(grid(m)) {
                a = m;
            } else {
                b = m;
            }
        }
    }
    l
}

/// Median time of `load_sketch` over every sketch of every view, µs.
fn decode_us(schedule: &ViewSchedule) -> f64 {
    let mut times = Vec::new();
    for (v, view) in schedule.views.iter().enumerate() {
        let kv = KvStore::new();
        for (k, val) in view {
            kv.set(k, val.clone());
        }
        for target in schedule.targets(v) {
            let t = Instant::now();
            let sketch = load_sketch(&kv, target.key());
            times.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(sketch);
        }
    }
    median(&times)
}
