//! The repository benchmark: seeded workloads driven through the public
//! API, end-to-end metrics from untraced runs, per-layer metrics from a
//! separate traced run, and a correctness gate outside every timed
//! region.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload calibrated_windows --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. A
//! failed correctness check still prints it, then exits with code 1.
//! See `perfbench/README.md` for the workloads, metrics and layer map.

mod openloop;
mod probes;
mod serve;
mod stats;
mod workloads;

use serve::{ClosedLoad, ClosedResult, PhaseResult, RefLoad, View, ViewSchedule};
use stats::median;
use std::time::Instant;
use workloads::{max_workers, Rep, Workload, MIN_ROUNDS};

/// A small seeded generator (SplitMix64) for the benchmark's own inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Builds timed one by one for a pipeline drive's set-up and for
/// `world.build_ms`, of which the fastest counts.
const SETUP_BATCH: usize = 50;

/// Seed salt of the query streams.
const QUERY_SALT: u64 = 0xc4a7_c4a7;

/// Queries between two serving-view changes. The pipeline commits one
/// view per window, and `serve_refresh`'s windows took a median 27.5–28.8
/// ms over all drives on a 2-core box (about 35 views/s), which at
/// [`REF_RATE`] is one view change every ~560 queries. A constant, so the
/// query stream does not depend on the machine's speed.
const REFRESH_EVERY: usize = 560;

/// Reference rate of the traced run's open-loop query chunks, per
/// second: well below the
/// single-thread serving capacity the ladder finds on a 2-core box
/// (340–720 k/s), so the reference latency is service time with little
/// queueing. A chosen operating point, not one taken from production
/// traffic.
const REF_RATE: f64 = 20_000.0;

/// Length of each ladder trial, s.
const RUNG_SECS: f64 = 0.05;

/// `BENCHMARK.json`: the one list of the benchmark's metrics and units.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// Metric values by name, reported in the order and with the units
/// `BENCHMARK.json` lists them under one section.
struct Metrics {
    section: &'static str,
    values: std::collections::BTreeMap<String, f64>,
}

impl Metrics {
    /// No metric of `section` (`end_to_end` or `per_layer`) set yet.
    fn new(section: &'static str) -> Metrics {
        Metrics {
            section,
            values: std::collections::BTreeMap::new(),
        }
    }

    /// Every metric of `section`, at 0 until set.
    fn zeroed(section: &'static str) -> Metrics {
        let mut m = Metrics::new(section);
        for (name, _) in listed(section) {
            m.values.insert(name, 0.0);
        }
        m
    }

    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Copy a program counter (summed over `snaps`) under the same name.
    fn counter(&mut self, name: &str, snaps: &[&tero::obs::Snapshot]) {
        self.set(name, count(snaps, name) as f64);
    }

    /// Move every value into `out`, in listed order. Panics on a metric
    /// that is set but not listed, or listed but never set.
    fn report(mut self, out: &mut Out) {
        for (name, unit) in listed(self.section) {
            let value = self
                .values
                .remove(&name)
                .unwrap_or_else(|| panic!("{name} was not measured"));
            out.metrics.push((name, value, unit));
        }
        let unlisted: Vec<&String> = self.values.keys().collect();
        assert!(unlisted.is_empty(), "unlisted metrics {unlisted:?}");
    }
}

/// `(name, unit)` of every metric under `section` of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let spec: serde_json::Value = serde_json::from_str(SPEC).expect("BENCHMARK.json parses");
    spec[section]
        .as_array()
        .expect("a metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m[k].as_str()
                    .expect("metric fields are strings")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// What a run reports: metrics in output order, and the checks made.
#[derive(Default)]
struct Out {
    metrics: Vec<(String, f64, String)>,
    notes: Vec<String>,
    checks: Vec<(&'static str, bool)>,
    attempted: u64,
    failed: u64,
}

impl Out {
    fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.push((name, ok));
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    fn closed(&mut self, c: &ClosedResult) {
        self.attempted += c.attempted;
        self.failed += c.failed;
        self.check("answers_match_cache_off_replay", c.answers_match);
        self.notes.push(format!(
            "closed-loop queries, fastest replay: {} distinct queries, mean {:.3} us, p99 {:.2} us; answer checksum {:016x}",
            c.queries, c.mean_us, c.p99_us, c.checksum
        ));
    }

    fn phase(&mut self, phase: &PhaseResult) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.check("answers_match_cache_off_replay", phase.answers_match);
        let l = phase.latency;
        self.notes.push(format!(
            "query latency from due time at {REF_RATE} q/s: median {:.2} us, p{} {:.2} us, {} samples; generator lag median {:.2} us, p{} {:.2} us; answer checksum {:016x}",
            l.median, phase.lag.pct, l.value, l.samples, phase.lag.median, phase.lag.pct, phase.lag.value, phase.checksum
        ));
        for rungs in &phase.ladders {
            let ladder: Vec<String> = rungs
                .iter()
                .map(|r| {
                    format!(
                        "{:.0}/s→{:.0}/s p99 {:.1} us{}{}",
                        r.rate,
                        r.achieved,
                        r.p99_us,
                        if r.grew { " backlog grew" } else { "" },
                        if r.met { " met" } else { " NOT met" }
                    )
                })
                .collect();
            self.notes.push(format!(
                "ladder (p99 limit {} us): {}",
                openloop::P99_LIMIT_US,
                ladder.join("; ")
            ));
        }
    }
}

/// Peak resident set size of this process so far, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Length of each drive's reference-rate chunk, as a share of
/// `--seconds`.
const CHUNK_SHARE: f64 = 0.01;

/// The seed of world `k` of a run seeded `seed`: every world of a run
/// is different, so the figures are medians over worlds and not over
/// one world's quirks.
fn sub_seed(seed: u64, k: usize) -> u64 {
    Rng::new(seed.wrapping_mul(0x100_0000_01b3) ^ k as u64).next()
}

/// One drive of one world, reduced to what the metrics and checks need.
struct Sample {
    setup_s: f64,
    thumbnails: u64,
    windows_ms: Vec<f64>,
    horizon_ms: f64,
    total_s: f64,
    /// The report digest, which must equal the single-shot reference's.
    digest: String,
    /// Whether the provenance ledger reconciled with the funnel counters.
    reconciled: bool,
    /// The serving views this drive contributes to the query phase.
    views: Vec<View>,
    /// The run's metrics.
    metrics: tero::obs::Snapshot,
    /// The report, for the analysis probe.
    report: tero::core::pipeline::TeroReport,
    /// Traced only: the timed store's `(mean KV op µs, KV ops, mean
    /// object op µs)` and the engine snapshot's `(bytes, ms)`.
    store: Option<(f64, u64, f64)>,
    state: Option<(usize, f64)>,
}

impl Sample {
    fn thumbs_per_s(&self) -> f64 {
        self.thumbnails as f64 / self.total_s.max(1e-9)
    }
}

/// Seeded candidate worlds per world a run drives.
const CANDIDATES: usize = 3;

/// The seeds of the first `n` candidate worlds of a run seeded `seed`
/// for workload `w`, smallest world first.
fn candidates(w: Workload, seed: u64, n: usize) -> Vec<u64> {
    let mut subs: Vec<(usize, u64)> = (0..n)
        .map(|k| sub_seed(seed, k))
        .map(|sub| (workloads::size(w, sub), sub))
        .collect();
    subs.sort_unstable();
    subs.into_iter().map(|(_, sub)| sub).collect()
}

/// The seeds of the `n` worlds of a run seeded `seed` for workload `w`:
/// the middle `n` by size of [`CANDIDATES`] × `n` candidates, smallest
/// first (see [`Measured::peak_rss_mb`]). A run drives few worlds, and
/// worlds of one seed differ in size (coefficient of variation 0.13), so
/// taking typical ones keeps a seed's figures from following one
/// unusually large or small world.
fn world_seeds(w: Workload, seed: u64, n: usize) -> Vec<u64> {
    let all = candidates(w, seed, CANDIDATES * n);
    let skip = (all.len() - n) / 2;
    all[skip..skip + n].to_vec()
}

/// Check each sample's digest against a single-shot `Tero::run` of its
/// world (`(world seed, sample)` pairs). Run after the measured phase,
/// so neither its time nor its memory counts.
fn check_digests<'a>(
    w: Workload,
    out: &mut Out,
    samples: impl IntoIterator<Item = (u64, &'a Sample)>,
) {
    let mut references = std::collections::BTreeMap::new();
    for (sub, s) in samples {
        let reference = references
            .entry(sub)
            .or_insert_with(|| workloads::reference(w, sub));
        out.check("digest_matches_single_shot", s.digest == *reference);
    }
}

/// Drive world `sub` once.
fn sample(w: Workload, sub: u64, workers: usize, traced: bool) -> Sample {
    let r: Rep = workloads::rep(w, sub, workers, traced);
    let views = if w == Workload::ServeRefresh {
        r.views
    } else {
        vec![ViewSchedule::capture(&r.serving)]
    };
    Sample {
        // A pipeline world builds in about a millisecond, so its set-up
        // is the fastest of a batch of builds; `serve_refresh`'s is the
        // whole recording.
        setup_s: if w == Workload::ServeRefresh {
            r.setup_s
        } else {
            workloads::fastest_build_s(w, sub, SETUP_BATCH)
        },
        thumbnails: r.run.report.thumbnails,
        windows_ms: r.run.windows_ms,
        horizon_ms: r.run.horizon_ms,
        total_s: r.run.total_s,
        digest: r.run.report.digest(),
        reconciled: r.reconciled,
        views,
        metrics: r.metrics,
        report: r.run.report,
        store: r.store.map(|s| s.totals()),
        state: r.state,
    }
}

/// Every drive of one world. Each drive does the same work, and load
/// from the machine's other tenants comes and goes in stretches and only
/// ever adds time, so a world's figures are the fastest over its drives,
/// which are spread across the run; the run reports medians over worlds.
struct Drives {
    thumbnails: u64,
    windows_per_drive: usize,
    setups_s: Vec<f64>,
    windows_ms: Vec<f64>,
    horizons_ms: Vec<f64>,
    totals_s: Vec<f64>,
    /// Whether every drive ran the same windows to the same report.
    agree: bool,
    /// The last drive.
    last: Sample,
}

impl Drives {
    fn new(first: Sample) -> Drives {
        let mut d = Drives {
            thumbnails: first.thumbnails,
            windows_per_drive: first.windows_ms.len(),
            setups_s: Vec::new(),
            windows_ms: Vec::new(),
            horizons_ms: Vec::new(),
            totals_s: Vec::new(),
            agree: true,
            last: first,
        };
        d.record();
        d
    }

    fn add(&mut self, s: Sample) {
        self.agree &= s.digest == self.last.digest
            && s.thumbnails == self.thumbnails
            && s.windows_ms.len() == self.windows_per_drive;
        self.last = s;
        self.record();
    }

    fn record(&mut self) {
        let s = &self.last;
        self.setups_s.push(s.setup_s);
        self.windows_ms.extend(&s.windows_ms);
        self.horizons_ms.push(s.horizon_ms);
        self.totals_s.push(s.total_s);
    }

    /// The sum of each window call's fastest time over the drives, s:
    /// the first window, every equal window and the final call.
    fn fastest_total_s(&self) -> f64 {
        let firsts: Vec<f64> = self
            .totals_s
            .iter()
            .zip(&self.horizons_ms)
            .zip(self.windows_ms.chunks(self.windows_per_drive.max(1)))
            .map(|((total, horizon), windows)| total * 1e3 - horizon - windows.iter().sum::<f64>())
            .collect();
        let equal: f64 = self.fastest_windows_ms().iter().sum();
        (fastest(&firsts) + equal + fastest(&self.horizons_ms)) / 1e3
    }

    /// The world's set-up, s: for a pipeline the fastest build; for
    /// `serve_refresh`, whose set-up is the whole recording, the fastest
    /// of its part outside the window calls (build, view captures) plus
    /// [`Drives::fastest_total_s`].
    fn fastest_setup_s(&self, w: Workload) -> f64 {
        if w != Workload::ServeRefresh {
            return fastest(&self.setups_s);
        }
        let outside: Vec<f64> = self
            .setups_s
            .iter()
            .zip(&self.totals_s)
            .map(|(setup, calls)| setup - calls)
            .collect();
        fastest(&outside) + self.fastest_total_s()
    }

    /// Each equal window's fastest time over the drives, ms.
    fn fastest_windows_ms(&self) -> Vec<f64> {
        let mut fastest = vec![f64::INFINITY; self.windows_per_drive];
        for drive in self.windows_ms.chunks(self.windows_per_drive.max(1)) {
            for (f, v) in fastest.iter_mut().zip(drive) {
                *f = f.min(*v);
            }
        }
        fastest
    }
}

/// The smallest of `values` (infinite when empty).
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The query schedule over the views of `samples`, skipping views that
/// hold no sketch.
fn schedule<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> ViewSchedule {
    ViewSchedule {
        views: samples
            .into_iter()
            .flat_map(|s| {
                s.views
                    .iter()
                    .filter(|v| ViewSchedule::has_sketches(v))
                    .cloned()
            })
            .collect(),
        every: REFRESH_EVERY,
    }
}

/// What [`measure`] measured.
struct Measured {
    /// Per world, its drives.
    drives: Vec<Drives>,
    /// The closed-loop query replays (untraced runs).
    closed: ClosedResult,
    /// The open-loop query passes (traced runs).
    phase: Option<PhaseResult>,
    /// The serving views of every world.
    schedule: ViewSchedule,
    /// Peak resident set of the process up to the end of its first
    /// drive, MB: the peak of driving one typical world, before any
    /// drive's results are held. The peak over the whole run would add
    /// what the run holds of every world, and be set by its largest.
    peak_rss_mb: f64,
}

/// Drive each of the worlds seeded `subs` round-robin, so that a world's
/// drives are spread over the run: [`TRACED_ROUNDS`] times when traced,
/// else at least [`MIN_ROUNDS`] times and until `--seconds` have passed. The same
/// worlds and query streams are replayed whatever the number of rounds. Each drive is
/// followed by queries over its own views: an untraced run replays the
/// world's query stream closed loop; a traced run replays it open loop
/// at the reference rate, and climbs one capacity ladder over every
/// world's views at the end. The single-shot references are computed
/// last, outside every timed region and after the peak resident set is
/// read.
fn measure(a: &Args, subs: &[u64], traced: bool, out: &mut Out) -> Measured {
    let w = a.workload;
    let chunk_n = ((REF_RATE * CHUNK_SHARE * a.seconds as f64) as usize).max(1);
    let mut closed = ClosedLoad::default();
    let mut open = traced.then(|| RefLoad::new(REF_RATE));
    let mut drives: Vec<Drives> = Vec::with_capacity(subs.len());
    let mut peak_rss = 0.0;
    let start = Instant::now();
    let mut rounds = 0;
    let min_rounds = if traced { TRACED_ROUNDS } else { MIN_ROUNDS };
    while rounds < min_rounds || (!traced && start.elapsed().as_secs() < a.seconds) {
        rounds += 1;
        for (k, &sub) in subs.iter().enumerate() {
            let s = sample(w, sub, w.workers(), traced);
            if drives.is_empty() {
                peak_rss = peak_rss_mb();
            }
            out.check("ledger_reconciles", s.reconciled);
            let views = schedule([&s]);
            if !views.views.is_empty() {
                let seed = sub_seed(a.seed ^ QUERY_SALT, k);
                match &mut open {
                    Some(load) => load.chunk(k, seed, &views, chunk_n),
                    None => closed.replay(k, seed, &views, w.queries()),
                }
            }
            match drives.get_mut(k) {
                Some(d) => d.add(s),
                None => drives.push(Drives::new(s)),
            }
        }
    }
    let all = schedule(drives.iter().map(|d| &d.last));
    out.check("serving_views_hold_sketches", !all.views.is_empty());
    out.check("drives_of_a_world_agree", drives.iter().all(|d| d.agree));
    let phase = open.map(|mut load| {
        load.ladder(a.seed, &all, RUNG_SECS);
        load.finish(&all)
    });
    check_digests(
        w,
        out,
        subs.iter().copied().zip(drives.iter().map(|d| &d.last)),
    );
    Measured {
        drives,
        closed: closed.finish(),
        phase,
        schedule: all,
        peak_rss_mb: peak_rss,
    }
}

/// The mean over worlds of their final call, ms. Its cost differs between
/// worlds far more than between drives (20–55 ms across the worlds of
/// one seed: the tail after the last thumbnail differs), so a mean, not
/// a median that jumps between worlds.
fn mean_horizon_ms(per_world: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = per_world.len().max(1) as f64;
    per_world.sum::<f64>() / n
}

fn end_to_end(a: &Args) -> Out {
    let w = a.workload;
    let mut out = Out::default();
    let Measured {
        drives: worlds,
        closed,
        schedule,
        peak_rss_mb,
        ..
    } = measure(
        a,
        &world_seeds(w, a.seed, w.worlds(a.seconds)),
        false,
        &mut out,
    );
    let per_world = |f: &dyn Fn(&Drives) -> f64| worlds.iter().map(f).collect::<Vec<_>>();
    let windows: Vec<f64> = worlds.iter().flat_map(Drives::fastest_windows_ms).collect();
    let thumbnails: u64 = worlds.iter().map(|d| d.thumbnails).sum();
    let wall_s: f64 = per_world(&Drives::fastest_total_s).iter().sum();
    let mut e2e = Metrics::new("end_to_end");
    e2e.set("setup_s", median(&per_world(&|d| d.fastest_setup_s(w))));
    e2e.set("thumbs_per_s", thumbnails as f64 / wall_s);
    e2e.set("window_p50_ms", median(&windows));
    e2e.set("query_mean_us", closed.mean_us);
    e2e.set("query_service_p99_us", closed.p99_us);
    e2e.set("peak_rss_mb", peak_rss_mb);
    e2e.report(&mut out);
    out.notes.push(format!(
        "{} worlds driven {} times each: {thumbnails} thumbnails, {} equal windows; final call (horizon_ms) {:.2} ms, mean over worlds of the fastest drive; {} serving views, {} distinct sketch targets",
        worlds.len(),
        worlds.first().map_or(0, |d| d.totals_s.len()),
        windows.len(),
        mean_horizon_ms(worlds.iter().map(|d| fastest(&d.horizons_ms))),
        schedule.views.len(),
        schedule.target_count()
    ));
    out.closed(&closed);
    out
}

/// Counters that must repeat exactly for one world: the traced run's
/// exact-count check compares the untraced and traced run of each.
const EXACT_COUNTERS: [&str; 12] = [
    "pipeline.thumbnails",
    "pipeline.extracted",
    "download.get_attempts",
    "download.get_hits",
    "download.same_content",
    "store.object.put_bytes",
    "stage.ingest.records_out",
    "stage.extract.records_out",
    "stage.clean.records_in",
    "stage.locate.records_out",
    "stage.publish.records_out",
    "stats.sketch.inserts",
];

/// The stages whose `stage.<name>.*` counters and timers exist.
const STAGES: [&str; 5] = ["ingest", "extract", "clean", "locate", "publish"];

fn count(snaps: &[&tero::obs::Snapshot], name: &str) -> u64 {
    snaps.iter().map(|s| s.counter(name).unwrap_or(0)).sum()
}

/// Program-side counters and stage timers shared by every pipeline.
fn pipeline_layers(layers: &mut Metrics, snaps: &[&tero::obs::Snapshot]) {
    for name in [
        "download.get_attempts",
        "download.same_content",
        "pool.tasks",
        "pool.steals",
        "store.object.put_bytes",
    ] {
        layers.counter(name, snaps);
    }
    let attempts = count(snaps, "download.get_attempts");
    layers.set(
        "download.useful_get_ratio",
        count(snaps, "download.get_hits") as f64 / attempts.max(1) as f64,
    );
    let (inp, outp) = (
        count(snaps, "stage.extract.records_in"),
        count(snaps, "stage.extract.records_out"),
    );
    layers.set("extract.yield", outp as f64 / inp.max(1) as f64);
    for stage in STAGES {
        for what in ["records_in", "records_out"] {
            layers.counter(&format!("stage.{stage}.{what}"), snaps);
        }
        let hist = format!("stage.{stage}.us");
        let busy_us: u64 = snaps
            .iter()
            .filter_map(|s| s.histogram(&hist))
            .map(|h| h.sum)
            .sum();
        layers.set(&format!("stage.{stage}.busy_ms"), busy_us as f64 / 1e3);
    }
}

/// Worlds of a traced run.
const TRACED_WORLDS: usize = 3;

/// Untraced drives, and traced drives, of each world of a traced run.
const TRACED_ROUNDS: usize = 2;

/// Small FullOcr worlds of a seed among which the traced run's OCR probe
/// takes the largest.
const OCR_CANDIDATES: usize = 8;

fn traced(a: &Args) -> Out {
    let w = a.workload;
    let mut out = Out::default();
    let mut layers = Metrics::zeroed("per_layer");
    layers.set(
        "world.build_ms",
        workloads::fastest_build_s(w, a.seed, SETUP_BATCH) * 1e3,
    );

    // Untraced drives of each world, then traced ones: the traced ones
    // run on the timed store with the registry's timers on.
    let subs = world_seeds(w, a.seed, TRACED_WORLDS);
    let mut plain: Vec<Drives> = Vec::with_capacity(subs.len());
    for _ in 0..TRACED_ROUNDS {
        for (k, &sub) in subs.iter().enumerate() {
            let s = sample(w, sub, w.workers(), false);
            match plain.get_mut(k) {
                Some(d) => d.add(s),
                None => plain.push(Drives::new(s)),
            }
        }
    }
    let Measured {
        drives,
        phase,
        schedule,
        ..
    } = measure(a, &subs, true, &mut out);
    let phase = phase.expect("a traced run replays open loop");
    // Thumbnails per second over each window call's fastest time, as in
    // `thumbs_per_s`.
    let tps = |v: &[Drives]| {
        v.iter().map(|d| d.thumbnails).sum::<u64>() as f64
            / v.iter().map(Drives::fastest_total_s).sum::<f64>()
    };
    let (plain_tps, traced_tps) = (tps(&plain), tps(&drives));
    out.check("drives_of_a_world_agree", plain.iter().all(|d| d.agree));
    let plain: Vec<Sample> = plain.into_iter().map(|d| d.last).collect();
    let runs: Vec<Sample> = drives.into_iter().map(|d| d.last).collect();
    let largest = subs[TRACED_WORLDS - 1];
    check_digests(w, &mut out, subs.iter().copied().zip(&plain));
    let exact = |s: &Sample| -> Vec<u64> {
        EXACT_COUNTERS
            .iter()
            .map(|n| count(&[&s.metrics], n))
            .collect()
    };
    out.check(
        "counters_repeat_exactly",
        plain.iter().zip(&runs).all(|(p, t)| exact(p) == exact(t)),
    );
    layers.set(
        "trace.overhead_pct",
        100.0 * (plain_tps - traced_tps) / plain_tps,
    );
    layers.set(
        "horizon_ms",
        mean_horizon_ms(plain.iter().map(|s| s.horizon_ms)),
    );

    let last = runs.last().expect("traced drives ran");
    pipeline_layers(&mut layers, &[&last.metrics]);
    if let Some((kv_us, kv_ops, obj_us)) = last.store {
        layers.set("store.kv.op_us", kv_us);
        layers.set("store.kv.ops", kv_ops as f64);
        layers.set("store.object.op_us", obj_us);
    }
    if let Some((bytes, ms)) = last.state {
        layers.set("store.state_bytes", bytes as f64);
        layers.set("store.snapshot_ms", ms);
    }
    layers.set("analysis.series_us", probes::series_us(&last.report));

    // Layer probes on the last traced drive's world.
    let world = tero::world::World::build(w.world(largest));
    let probe = probes::probe_world(&world, 120, 4);
    layers.set("world.cdn_get_us", probe.cdn_get_us);
    layers.set("world.render_us", probe.render_us);
    layers.set("ocr.extract_us", probe.extract_us);
    layers.set("ocr.extract_p90_us", probe.extract_p90_us);
    layers.set("locate.streamer_us", probes::locate_us(&world));
    // Estimated shares of run wall time: probed cost per call times the
    // calls the run made. Every GET that fetched content rendered it
    // (new or unchanged); OCR runs on the workload's worker threads, and
    // Calibrated runs make no OCR calls.
    let wall_us = last.total_s * 1e6;
    let renders = count(&[&last.metrics], "download.get_hits")
        + count(&[&last.metrics], "download.same_content");
    layers.set(
        "world.cdn_share_pct",
        100.0 * renders as f64 * probe.cdn_get_us / wall_us,
    );

    // The OCR engines and the pool: FullOcr at 1 and at 2 workers over
    // the largest of a few small worlds of the seed (a small FullOcr
    // world can be nearly empty), and tero-net: the sharded probe (2
    // engines, 3 store shards), with the Calibrated workload's traced run
    // only.
    if w == Workload::CalibratedWindows {
        let ocr = Workload::FullOcr;
        let ocr_sub = *candidates(ocr, a.seed, OCR_CANDIDATES)
            .last()
            .expect("candidate worlds");
        let one = sample(ocr, ocr_sub, 1, false);
        let two = sample(ocr, ocr_sub, max_workers(), false);
        check_digests(ocr, &mut out, [(ocr_sub, &one), (ocr_sub, &two)]);
        layers.set("pool.speedup_2w", two.thumbs_per_s() / one.thumbs_per_s());
        let ocr_calls = count(&[&two.metrics], "stage.extract.records_in");
        layers.set(
            "ocr.share_pct",
            100.0 * ocr_calls as f64 * probe.extract_us
                / (two.total_s * 1e6 * max_workers() as f64),
        );

        let net = workloads::run_sharded(subs[0]);
        out.check("sharded_digest_matches_single_process", net.digest_ok);
        let bytes = net.net.counter("net.bytes").unwrap_or(0);
        layers.set(
            "net.frames",
            net.net.counter("net.frames").unwrap_or(0) as f64,
        );
        layers.set("net.bytes", bytes as f64);
        layers.set(
            "net.bytes_per_thumb",
            bytes as f64 / net.thumbnails.max(1) as f64,
        );
        layers.set("sharded.window_ms", median(&net.windows_ms));
        layers.set("sharded.merge_ms", net.merge_ms);
    }

    for (kind, us) in serve::KINDS.iter().zip(phase.kind_us) {
        layers.set(&format!("serve.query_us.{kind}"), us);
    }
    layers.set("serve.cache_hit_ratio", phase.cache_hit_ratio);
    layers.set("serve.decode_us", phase.decode_us);
    layers.set("serve.gen_lag_us", phase.lag.median);
    layers.set("serve.gen_lag_tail_us", phase.lag.value);
    layers.set("serve.query_p50_us", phase.p50_us);
    layers.set("serve.query_p99_us", phase.p99_us);
    layers.set("serve.max_qps", phase.max_qps);
    layers.set("serve.query_tail_us", phase.latency.value);
    layers.set("serve.query_tail_pct", phase.latency.pct);
    layers.set("serve.query_samples", phase.latency.samples as f64);
    out.phase(&phase);
    out.notes.push(format!(
        "{} worlds each way: untraced {plain_tps:.1} thumbs/s, traced {traced_tps:.1} thumbs/s; {} serving views, {} sketch targets",
        runs.len(),
        schedule.views.len(),
        schedule.target_count()
    ));
    layers.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    layers.report(&mut out);
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    let mut out = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    if !args.trace {
        let frac = out.failed as f64 / out.attempted.max(1) as f64;
        out.notes.push(format!(
            "failed_frac = {frac} ratio ({} of {})",
            out.failed, out.attempted
        ));
    }
    println!(
        "perfbench {} seed {} trace {} workers {} ({:.1} s)",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.workload.workers(),
        start.elapsed().as_secs_f64()
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for (name, ok) in &out.checks {
        println!("  check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    for (name, value, unit) in &out.metrics {
        println!("{name:<30} {value:>16.4} {unit}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    let correct = out.correct() && out.metrics.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact-count check: the program's own counters repeat exactly
    /// for one seed and move under another, so the seed reaches the
    /// world the program sees.
    #[test]
    fn program_counters_repeat_for_a_seed_and_change_with_it() {
        let counters = |seed: u64, traced: bool| -> Vec<u64> {
            let r = workloads::rep(Workload::CalibratedWindows, seed, 1, traced);
            EXACT_COUNTERS
                .iter()
                .map(|n| count(&[&r.metrics], n))
                .collect()
        };
        let first = counters(11, false);
        assert!(first.iter().all(|&c| c > 0), "{first:?}");
        assert_eq!(first, counters(11, false));
        assert_eq!(
            first,
            counters(11, true),
            "the timed store changes no count"
        );
        assert_ne!(first, counters(12, false));
    }

    /// The query stream is a pure function of the seed and the views.
    #[test]
    fn query_stream_repeats_for_a_seed_and_changes_with_it() {
        let sub = sub_seed(3, 0);
        let s = sample(Workload::ServeRefresh, sub, 1, false);
        assert!(s.reconciled);
        assert_eq!(s.digest, workloads::reference(Workload::ServeRefresh, sub));
        let views = schedule([&s]);
        let stream = |seed| format!("{:?}", serve::query_stream(seed, &views, 5_000));
        assert_eq!(stream(1), stream(1));
        assert_ne!(stream(1), stream(2));
    }

    #[test]
    fn sub_seeds_differ_per_world_and_seed() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_eq!(sub_seed(5, 3), sub_seed(5, 3));
    }
}
