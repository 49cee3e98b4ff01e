//! The download module (App. A).
//!
//! A *coordinator* polls the Twitch API (respecting its rate limit) to
//! detect streamers coming online, and hands their thumbnail URLs to lean
//! *downloaders* through the key-value store. Each downloader races the
//! CDN's 5-minute overwrite: it HEADs the URL to learn when the next
//! thumbnail lands, GETs it in time, stores what it fetched in the object
//! store and pushes a processing task onto the work queue. The stored
//! object is the thumbnail's encoded [`ThumbContent`] descriptor, not its
//! pixels: only the FullOcr extract stage reads pixels, and it renders
//! them from the descriptor ([`tero_world::twitch::TwitchSim::render`]).
//! Offline URLs redirect, at which point the downloader signals the
//! coordinator through the store.
//!
//! Load balancing follows the paper: "a downloader takes on a new streamer
//! whenever it becomes idle" — here, new URLs go to the downloader with
//! the fewest assignments.
//!
//! ## Failure handling
//!
//! The module survives every fault class `tero-chaos` can inject:
//!
//! * **API 5xx** on `Get Streams` → bounded retries with exponential
//!   backoff and deterministic jitter, then skip to the next regular poll;
//! * **CDN timeouts and truncated payloads** (detected via the
//!   content-length the header promises) → per-assignment retry/backoff,
//!   escalating to a circuit breaker that opens after
//!   [`DownloadModule::breaker_threshold`] consecutive faults and
//!   half-opens with a single probe after
//!   [`DownloadModule::breaker_cooldown`];
//! * **Downloader crashes** → the coordinator notices on its next poll and
//!   moves the dead worker's streamers to the least-loaded survivor
//!   (deterministically, in assignment-id order);
//! * **Lost KV writes** → `active:*` registrations are TTL leases,
//!   refreshed on every successful fetch and swept each poll; a lapsed
//!   lease releases the assignment so the coordinator re-acquires it;
//! * **Poison queue entries** → quarantined onto the
//!   `queue:thumbs:dead` dead-letter list instead of silently dropped.

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use tero_obs::Registry;
use tero_store::{KvStore, ObjectStore};
use tero_trace::{Level, Tracer};
use tero_types::{GameId, SimDuration, SimRng, SimTime, StreamerId};
use tero_world::twitch::{ApiError, CdnResponse, ThumbContent};
use tero_world::World;

/// KV list holding tasks that could not be processed (undecodable queue
/// entries, corrupt stored payloads). Never dropped silently; drained via
/// [`DownloadModule::drain_dead_letters`].
pub const DEAD_LETTER_QUEUE: &str = "queue:thumbs:dead";

/// Percent-escape a task field so `|` can never masquerade as the
/// separator (`%` itself is escaped first so decoding is unambiguous).
fn escape_field(s: &str) -> String {
    s.replace('%', "%25").replace('|', "%7C")
}

/// Reverse [`escape_field`]. Returns `None` for malformed escapes — the
/// caller routes such entries to the dead-letter list.
fn unescape_field(s: &str) -> Option<String> {
    if !s.contains('%') {
        return Some(s.to_string());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// A downloaded-thumbnail task pushed onto the processing queue.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ThumbnailTask {
    /// The broadcaster.
    pub streamer: StreamerId,
    /// The game label on the stream at download time.
    pub game_label: GameId,
    /// Content timestamp of the thumbnail.
    pub generated_at: SimTime,
    /// Object-store key of the stored thumbnail descriptor.
    pub object_key: String,
}

impl ThumbnailTask {
    /// Serialise for the KV work queue. The username is percent-escaped so
    /// a `|` in it cannot corrupt the field layout.
    pub fn encode(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            escape_field(self.streamer.as_str()),
            self.game_label.slug(),
            self.generated_at.as_micros(),
            self.object_key
        )
    }

    /// Parse a queue entry. `None` means the entry is malformed and should
    /// be dead-lettered.
    pub fn decode(s: &str) -> Option<ThumbnailTask> {
        let mut parts = s.splitn(4, '|');
        let streamer = StreamerId::new(&unescape_field(parts.next()?)?);
        let slug = parts.next()?;
        let game_label = GameId::ALL.into_iter().find(|g| g.slug() == slug)?;
        let generated_at = SimTime::from_micros(parts.next()?.parse().ok()?);
        let object_key = parts.next()?.to_string();
        Some(ThumbnailTask {
            streamer,
            game_label,
            generated_at,
            object_key,
        })
    }
}

/// Statistics of one download run. With the same world seed and the same
/// fault plan, two runs produce byte-identical stats (fault injection and
/// recovery are fully deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DownloadStats {
    /// API polls issued.
    pub polls: u64,
    /// Polls rejected by the rate limiter.
    pub rate_limited: u64,
    /// Polls failed by transient API 5xx errors.
    pub api_errors: u64,
    /// Thumbnails fetched and stored.
    pub downloaded: u64,
    /// Thumbnails lost to CDN overwrites (a new thumbnail replaced one we
    /// never fetched).
    pub missed: u64,
    /// Offline redirects observed.
    pub offline_signals: u64,
    /// CDN fetches that timed out or arrived truncated.
    pub cdn_faults: u64,
    /// Backoff retries scheduled (poll and fetch paths).
    pub retries: u64,
    /// Circuit-breaker trips (including half-open probes that re-opened).
    pub breaker_trips: u64,
    /// Assignments moved off a crashed downloader.
    pub reassigned: u64,
    /// Expired TTL keys removed by the per-poll sweep.
    pub swept: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Assignment {
    url: String,
    streamer: StreamerId,
    game_label: GameId,
    last_generated: Option<SimTime>,
    downloader: usize,
    /// Consecutive CDN faults since the last clean fetch.
    consecutive_faults: u32,
    /// When the circuit breaker re-closes enough to allow one probe.
    breaker_until: Option<SimTime>,
    /// The next fetch is the breaker's single half-open probe.
    half_open: bool,
    /// The assignment's fetch-event chain died on a crashed downloader and
    /// must be restarted when the assignment is reassigned.
    chain_dead: bool,
}

impl Assignment {
    fn new(url: String, streamer: StreamerId, game_label: GameId, downloader: usize) -> Self {
        Assignment {
            url,
            streamer,
            game_label,
            last_generated: None,
            downloader,
            consecutive_faults: 0,
            breaker_until: None,
            half_open: false,
            chain_dead: false,
        }
    }

    /// Admission decision at fetch time. A closed breaker admits
    /// everything; an open one swallows stray events before the cooldown
    /// elapses and admits the scheduled probe as the single half-open
    /// attempt.
    fn breaker_admits(&mut self, at: SimTime) -> bool {
        if let Some(break_until) = self.breaker_until {
            if at < break_until {
                return false;
            }
            self.half_open = true;
        }
        true
    }

    /// Record a faulted fetch. Returns `Some(reopen_at)` when the
    /// breaker tripped — the fault streak reached `threshold`, or the
    /// half-open probe itself failed and re-opened it — and the caller
    /// should schedule the next probe at `reopen_at`; `None` means stay
    /// closed and back off normally.
    fn breaker_on_fault(
        &mut self,
        at: SimTime,
        threshold: u32,
        cooldown: SimDuration,
    ) -> Option<SimTime> {
        self.consecutive_faults += 1;
        let failed_probe = self.half_open;
        self.half_open = false;
        if failed_probe || self.consecutive_faults >= threshold {
            let reopen_at = at + cooldown;
            self.breaker_until = Some(reopen_at);
            Some(reopen_at)
        } else {
            None
        }
    }

    /// A clean fetch closes the breaker and clears the fault streak —
    /// whether it was the half-open probe or an ordinary fetch.
    fn breaker_on_success(&mut self) {
        self.consecutive_faults = 0;
        self.breaker_until = None;
        self.half_open = false;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Ev {
    Poll,
    Fetch(u32),     // assignment id
    Crash(usize),   // downloader index dies
    Recover(usize), // downloader index comes back
}

#[derive(Debug, PartialEq, Eq)]
struct HeapEv(SimTime, u64, Ev);
impl Ord for HeapEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0, self.1).cmp(&(other.0, other.1))
    }
}
impl PartialOrd for HeapEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Resumable state of a windowed download run.
///
/// A cursor pins the run's global bounds `[from, until]` and carries
/// everything the event loop needs across windows: the pending event
/// heap (with its sequence counter, so replayed pop order is exact), the
/// assignment table, per-downloader load/busy/alive state, the retry-
/// jitter RNG, and the cumulative [`DownloadStats`]. Driving it through
/// [`DownloadModule::run_cursor`] over any increasing window schedule
/// performs exactly the same world calls, in the same order, as a single
/// full-range [`DownloadModule::run`].
///
/// Cursors serialize (`serde`) so the engine can persist one at each
/// window commit and a fresh process can resume from the persisted copy.
#[derive(Debug)]
pub struct DownloadCursor {
    from: SimTime,
    until: SimTime,
    /// Where the next window starts (trace span bookkeeping only).
    window_start: SimTime,
    initialized: bool,
    heap: BinaryHeap<Reverse<HeapEv>>,
    seq: u64,
    assignments: HashMap<u32, Assignment>,
    next_assignment_id: u32,
    downloader_load: Vec<usize>,
    downloader_busy_until: Vec<SimTime>,
    downloader_alive: Vec<bool>,
    retry_rng: SimRng,
    poll_error_streak: u32,
    stats: DownloadStats,
}

impl DownloadCursor {
    /// A fresh cursor covering `[from, until]`. Worker vectors, the retry
    /// RNG and the initial poll/crash events are installed lazily by the
    /// first [`DownloadModule::run_cursor`] call (they depend on module
    /// knobs).
    pub fn new(from: SimTime, until: SimTime) -> DownloadCursor {
        DownloadCursor {
            from,
            until,
            window_start: from,
            initialized: false,
            heap: BinaryHeap::new(),
            seq: 0,
            assignments: HashMap::new(),
            next_assignment_id: 0,
            downloader_load: Vec::new(),
            downloader_busy_until: Vec::new(),
            downloader_alive: Vec::new(),
            retry_rng: SimRng::new(0),
            poll_error_streak: 0,
            stats: DownloadStats::default(),
        }
    }

    /// Cumulative statistics across every window driven so far.
    pub fn stats(&self) -> &DownloadStats {
        &self.stats
    }

    /// The run's global bounds, `(from, until)`.
    pub fn bounds(&self) -> (SimTime, SimTime) {
        (self.from, self.until)
    }

    /// Whether every pending event has been processed (no work remains at
    /// any window end).
    pub fn is_drained(&self) -> bool {
        self.initialized && self.heap.is_empty()
    }
}

/// Serde mirror of [`DownloadCursor`]: the heap flattens to events sorted
/// by `(time, seq)` and the assignment table to id-sorted pairs, so equal
/// cursors serialize byte-identically.
#[derive(Serialize, Deserialize)]
struct CursorRepr {
    from: SimTime,
    until: SimTime,
    window_start: SimTime,
    initialized: bool,
    events: Vec<(SimTime, u64, Ev)>,
    seq: u64,
    assignments: Vec<(u32, Assignment)>,
    next_assignment_id: u32,
    downloader_load: Vec<usize>,
    downloader_busy_until: Vec<SimTime>,
    downloader_alive: Vec<bool>,
    retry_rng: SimRng,
    poll_error_streak: u32,
    stats: DownloadStats,
}

impl Serialize for DownloadCursor {
    fn serialize(&self) -> serde::Value {
        let mut events: Vec<(SimTime, u64, Ev)> = self
            .heap
            .iter()
            .map(|Reverse(HeapEv(at, seq, ev))| (*at, *seq, *ev))
            .collect();
        events.sort_by_key(|&(at, seq, _)| (at, seq));
        let mut assignments: Vec<(u32, Assignment)> = self
            .assignments
            .iter()
            .map(|(id, a)| (*id, a.clone()))
            .collect();
        assignments.sort_by_key(|&(id, _)| id);
        CursorRepr {
            from: self.from,
            until: self.until,
            window_start: self.window_start,
            initialized: self.initialized,
            events,
            seq: self.seq,
            assignments,
            next_assignment_id: self.next_assignment_id,
            downloader_load: self.downloader_load.clone(),
            downloader_busy_until: self.downloader_busy_until.clone(),
            downloader_alive: self.downloader_alive.clone(),
            retry_rng: self.retry_rng.clone(),
            poll_error_streak: self.poll_error_streak,
            stats: self.stats.clone(),
        }
        .serialize()
    }
}

impl Deserialize for DownloadCursor {
    fn deserialize(v: &serde::Value) -> Result<DownloadCursor, serde::Error> {
        let repr = CursorRepr::deserialize(v)?;
        Ok(DownloadCursor {
            from: repr.from,
            until: repr.until,
            window_start: repr.window_start,
            initialized: repr.initialized,
            heap: repr
                .events
                .into_iter()
                .map(|(at, seq, ev)| Reverse(HeapEv(at, seq, ev)))
                .collect(),
            seq: repr.seq,
            assignments: repr.assignments.into_iter().collect(),
            next_assignment_id: repr.next_assignment_id,
            downloader_load: repr.downloader_load,
            downloader_busy_until: repr.downloader_busy_until,
            downloader_alive: repr.downloader_alive,
            retry_rng: repr.retry_rng,
            poll_error_streak: repr.poll_error_streak,
            stats: repr.stats,
        })
    }
}

/// The download module.
pub struct DownloadModule {
    kv: KvStore,
    objects: ObjectStore,
    obs: Registry,
    trace: Tracer,
    /// How often the coordinator polls `Get Streams`.
    pub poll_interval: SimDuration,
    /// Number of downloader workers.
    pub downloaders: usize,
    /// Time a downloader spends fetching one thumbnail (serialised per
    /// worker — the reason the coordinator/downloader split exists).
    pub fetch_cost: SimDuration,
    /// Maximum consecutive backoff retries before giving up on a round
    /// (API polls skip to the next regular poll; fetches defer to the
    /// circuit breaker, which trips first at the default settings).
    pub max_retries: u32,
    /// First-retry backoff; doubles per attempt, plus deterministic jitter.
    pub backoff_base: SimDuration,
    /// Consecutive CDN faults on one assignment that trip its breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before its half-open probe.
    pub breaker_cooldown: SimDuration,
    /// Cooldown after an offline redirect before the streamer may be
    /// re-acquired (must stay below `poll_interval` so a comeback is
    /// picked up on the next poll after expiry).
    pub offline_cooldown: SimDuration,
    /// TTL of the `active:*` lease; refreshed on every successful fetch.
    pub active_ttl: SimDuration,
    /// Seed of the retry-jitter stream (independent of the world seed).
    pub retry_seed: u64,
    /// Advisory starvation signal from the ops layer (a
    /// [`tero_ops::HealthReport::starvation`] verdict, refreshed by the
    /// operator between runs). Strictly read-only and off by default:
    /// when set, each coordinator poll acknowledges the advice by
    /// bumping `download.advisory_polls`, but no scheduling decision
    /// changes — `tests/observability.rs` pins that the off path and
    /// the on path produce byte-identical download results.
    pub starvation_advisory: Option<tero_ops::Starvation>,
}

/// Metric handles resolved once per [`DownloadModule::run`] — bumping them
/// inside the event loop is lock-free.
struct DownloadObs {
    polls: tero_obs::CounterHandle,
    rate_limited: tero_obs::CounterHandle,
    api_errors: tero_obs::CounterHandle,
    get_attempts: tero_obs::CounterHandle,
    get_hits: tero_obs::CounterHandle,
    same_content: tero_obs::CounterHandle,
    fetch_deferred: tero_obs::CounterHandle,
    overwrite_missed: tero_obs::CounterHandle,
    offline_signals: tero_obs::CounterHandle,
    assignments: tero_obs::CounterHandle,
    idle_steals: tero_obs::CounterHandle,
    cdn_timeouts: tero_obs::CounterHandle,
    retries: tero_obs::CounterHandle,
    backoff_us: tero_obs::HistogramHandle,
    breaker_open: tero_obs::CounterHandle,
    reassigned: tero_obs::CounterHandle,
    ttl_swept: tero_obs::CounterHandle,
    queue_depth: tero_obs::HistogramHandle,
    downloader_load: tero_obs::GaugeHandle,
    advisory_polls: tero_obs::CounterHandle,
}

impl DownloadObs {
    fn resolve(obs: &Registry) -> Self {
        // Registered eagerly (at zero) so the metric catalogue stays
        // complete even on fault-free runs.
        let _ = obs.counter("download.dead_letter");
        let _ = obs.counter("download.decode_failures");
        DownloadObs {
            polls: obs.counter("download.polls"),
            rate_limited: obs.counter("download.rate_limited"),
            api_errors: obs.counter("download.api_errors"),
            get_attempts: obs.counter("download.get_attempts"),
            get_hits: obs.counter("download.get_hits"),
            same_content: obs.counter("download.same_content"),
            fetch_deferred: obs.counter("download.fetch_deferred"),
            overwrite_missed: obs.counter("download.overwrite_missed"),
            offline_signals: obs.counter("download.offline_signals"),
            assignments: obs.counter("download.assignments"),
            idle_steals: obs.counter("download.idle_steals"),
            cdn_timeouts: obs.counter("download.cdn_timeouts"),
            retries: obs.counter("download.retries"),
            backoff_us: obs.histogram("download.backoff_us"),
            breaker_open: obs.counter("download.breaker_open"),
            reassigned: obs.counter("download.reassigned"),
            ttl_swept: obs.counter("download.ttl_swept"),
            queue_depth: obs.histogram("download.queue_depth"),
            downloader_load: obs.gauge("download.downloader_load"),
            advisory_polls: obs.counter("download.advisory_polls"),
        }
    }
}

/// `base * 2^(attempt-1)` with the exponent capped, plus deterministic
/// jitter in `[0, base)` drawn from the dedicated retry stream.
fn backoff_delay(base: SimDuration, attempt: u32, rng: &mut SimRng) -> SimDuration {
    let shift = attempt.saturating_sub(1).min(10);
    let scaled = base.as_micros().saturating_mul(1u64 << shift);
    SimDuration::from_micros(scaled + rng.below(base.as_micros().max(1)))
}

impl DownloadModule {
    /// A module writing into the given stores.
    pub fn new(kv: KvStore, objects: ObjectStore) -> Self {
        DownloadModule {
            kv,
            objects,
            obs: Registry::new(),
            trace: Tracer::new(),
            poll_interval: SimDuration::from_mins(2),
            downloaders: 4,
            fetch_cost: SimDuration::from_millis(500),
            max_retries: 4,
            backoff_base: SimDuration::from_millis(500),
            breaker_threshold: 3,
            breaker_cooldown: SimDuration::from_mins(2),
            offline_cooldown: SimDuration::from_secs(90),
            active_ttl: SimDuration::from_hours(2),
            retry_seed: 0x5eed_cafe,
            starvation_advisory: None,
        }
    }

    /// Record this module's metrics (`download.*`) into `registry` instead
    /// of the private default registry.
    pub fn instrument(&mut self, registry: &Registry) {
        self.obs = registry.clone();
    }

    /// Journal this module's spans and recovery events through `tracer`
    /// (the `download.run` span, breaker trips, crash reassignments,
    /// dead-letter quarantines). A no-op unless the tracer is enabled.
    pub fn set_trace(&mut self, tracer: &Tracer) {
        self.trace = tracer.clone();
    }

    /// Run the module against the world from `from` to `until` (logical
    /// time). Thumbnails land in the object store (bucket `thumbs`) and
    /// tasks on the KV list `queue:thumbs`.
    ///
    /// Implemented as one full-range window over a fresh
    /// [`DownloadCursor`]; windowed callers drive
    /// [`DownloadModule::run_cursor`] directly.
    pub fn run(&mut self, world: &mut World, from: SimTime, until: SimTime) -> DownloadStats {
        let mut cursor = DownloadCursor::new(from, until);
        self.run_cursor(world, &mut cursor, until);
        cursor.stats
    }

    /// Advance `cursor` through every pending event at or before
    /// `window_end` (clamped to the cursor's global `until` bound).
    ///
    /// The first call installs the initial poll, the planned crash
    /// windows, and the `active:*` lease recovery exactly as a full run
    /// would; later calls resume from the persisted heap. Driving one
    /// cursor over any increasing schedule of window ends makes exactly
    /// the same world calls in the same order as a single full-range
    /// [`DownloadModule::run`], so stats, stores and metrics stay
    /// byte-identical.
    pub fn run_cursor(
        &mut self,
        world: &mut World,
        cursor: &mut DownloadCursor,
        window_end: SimTime,
    ) {
        let window_end = window_end.min(cursor.until);
        let obs = DownloadObs::resolve(&self.obs);
        let run_us = self.obs.histogram("download.run_us");
        let _run_timer = self.obs.stage_timer(&run_us);
        let sp_run = self.trace.span_at("download.run", cursor.window_start);
        let from = cursor.from;
        let until = cursor.until;
        let chaos = world.chaos().cloned();
        let init = !cursor.initialized;
        if init {
            cursor.initialized = true;
            cursor.retry_rng = SimRng::new(self.retry_seed);
            cursor.downloader_load = vec![0usize; self.downloaders.max(1)];
            cursor.downloader_busy_until = vec![SimTime::EPOCH; self.downloaders.max(1)];
            cursor.downloader_alive = vec![true; self.downloaders.max(1)];
        }
        let mut seq = cursor.seq;
        let mut next_assignment_id = cursor.next_assignment_id;
        let mut poll_error_streak = cursor.poll_error_streak;
        let mut retry_rng = cursor.retry_rng.clone();
        let mut stats = std::mem::take(&mut cursor.stats);
        let heap = &mut cursor.heap;
        let assignments = &mut cursor.assignments;
        let downloader_load = &mut cursor.downloader_load;
        let downloader_busy_until = &mut cursor.downloader_busy_until;
        let downloader_alive = &mut cursor.downloader_alive;
        let push = |heap: &mut BinaryHeap<Reverse<HeapEv>>, seq: &mut u64, at: SimTime, ev: Ev| {
            *seq += 1;
            heap.push(Reverse(HeapEv(at, *seq, ev)));
        };

        if init {
            push(heap, &mut seq, from, Ev::Poll);

            // Planned crash windows come from the world's fault injector.
            if let Some(chaos) = &chaos {
                for w in chaos.crash_windows() {
                    if w.downloader >= downloader_alive.len() || w.until <= from || w.at >= until {
                        continue;
                    }
                    push(heap, &mut seq, w.at.max(from), Ev::Crash(w.downloader));
                    push(heap, &mut seq, w.until, Ev::Recover(w.downloader));
                }
            }

            // Drop leases that expired while the module was down, then
            // rebuild the assignment table from the survivors.
            stats.swept += self.kv.sweep_expired(from) as u64;

            // Crash recovery (App. A/B): after a restart, the coordinator
            // rebuilds its assignment table from the `active:*` keys
            // persisted in the KV store, so streamers being tracked before
            // the crash keep being downloaded without waiting for the next
            // status change.
            for key in self.kv.keys_with_prefix("active:") {
                let Some(url) = self.kv.get(&key) else {
                    continue;
                };
                let username = key.trim_start_matches("active:");
                let streamer = StreamerId::new(username);
                let game_label = self
                    .kv
                    .get(&format!("game:{username}"))
                    .and_then(|slug| GameId::ALL.into_iter().find(|g| g.slug() == slug))
                    .unwrap_or(GameId::LeagueOfLegends);
                let d = (0..downloader_load.len())
                    .min_by_key(|&i| downloader_load[i])
                    .unwrap_or(0);
                obs.assignments.inc();
                if downloader_load[d] == 0 {
                    obs.idle_steals.inc();
                }
                downloader_load[d] += 1;
                obs.queue_depth.record(downloader_load[d] as u64);
                obs.downloader_load.set(downloader_load[d] as i64);
                let id = next_assignment_id;
                next_assignment_id += 1;
                assignments.insert(id, Assignment::new(url, streamer, game_label, d));
                push(heap, &mut seq, from, Ev::Fetch(id));
            }
        }

        loop {
            match heap.peek() {
                Some(Reverse(HeapEv(at, _, _))) if *at <= window_end => {}
                _ => break,
            }
            let Reverse(HeapEv(at, _, ev)) = heap.pop().expect("peeked above");
            match ev {
                Ev::Poll => {
                    // Acknowledge the advisory signal (observability
                    // only: no scheduling decision depends on it).
                    if self.starvation_advisory.is_some() {
                        obs.advisory_polls.inc();
                    }
                    // Expire lapsed TTL keys (`active:*` leases, offline
                    // cooldowns) before reading any of them.
                    let swept = self.kv.sweep_expired(at);
                    stats.swept += swept as u64;
                    obs.ttl_swept.add(swept as u64);

                    // Detect dead downloaders and move their streamers to
                    // the least-loaded survivor. Ids are visited sorted so
                    // the reassignment is deterministic.
                    let mut dead_ids: Vec<u32> = assignments
                        .iter()
                        .filter(|(_, a)| !downloader_alive[a.downloader])
                        .map(|(id, _)| *id)
                        .collect();
                    dead_ids.sort_unstable();
                    for id in dead_ids {
                        let Some(target) = (0..downloader_load.len())
                            .filter(|&i| downloader_alive[i])
                            .min_by_key(|&i| downloader_load[i])
                        else {
                            break; // every downloader is down; wait for a recovery
                        };
                        let a = assignments.get_mut(&id).expect("id collected above");
                        let old = a.downloader;
                        downloader_load[old] = downloader_load[old].saturating_sub(1);
                        a.downloader = target;
                        downloader_load[target] += 1;
                        obs.reassigned.inc();
                        obs.queue_depth.record(downloader_load[target] as u64);
                        obs.downloader_load.set(downloader_load[target] as i64);
                        stats.reassigned += 1;
                        sp_run.event_at(
                            Level::Warn,
                            format!("assignment {id} moved off crashed downloader {old}"),
                            at,
                        );
                        if a.chain_dead {
                            a.chain_dead = false;
                            push(heap, &mut seq, at, Ev::Fetch(id));
                        }
                    }

                    match world.twitch.get_streams(at) {
                        Ok(listings) => {
                            poll_error_streak = 0;
                            stats.polls += 1;
                            obs.polls.inc();
                            for l in &listings {
                                let user = l.streamer.as_str();
                                // Recently went offline: let the cooldown
                                // lapse before re-acquiring.
                                if self.kv.exists(&format!("cooldown:{user}")) {
                                    continue;
                                }
                                let key = format!("active:{user}");
                                if self.kv.exists(&key) {
                                    continue;
                                }
                                self.kv
                                    .set_with_ttl(&key, &l.thumbnail_url, at + self.active_ttl);
                                self.kv.set(&format!("game:{user}"), l.game_label.slug());
                                // Record country tags for the location
                                // module's tag recovery.
                                if let Some(tag) = &l.country_tag {
                                    self.kv.rpush(&format!("tags:{user}"), tag.clone());
                                }
                                // Least-loaded alive downloader takes the URL.
                                let Some(d) = (0..downloader_load.len())
                                    .filter(|&i| downloader_alive[i])
                                    .min_by_key(|&i| downloader_load[i])
                                else {
                                    // Total outage: drop the lease so a later
                                    // poll re-acquires once someone recovers.
                                    self.kv.del(&key);
                                    continue;
                                };
                                obs.assignments.inc();
                                if downloader_load[d] == 0 {
                                    obs.idle_steals.inc();
                                }
                                downloader_load[d] += 1;
                                obs.queue_depth.record(downloader_load[d] as u64);
                                obs.downloader_load.set(downloader_load[d] as i64);
                                let id = next_assignment_id;
                                next_assignment_id += 1;
                                assignments.insert(
                                    id,
                                    Assignment::new(
                                        l.thumbnail_url.clone(),
                                        l.streamer.clone(),
                                        l.game_label,
                                        d,
                                    ),
                                );
                                push(heap, &mut seq, at, Ev::Fetch(id));
                            }
                        }
                        Err(ApiError::RateLimited(limited)) => {
                            stats.rate_limited += 1;
                            obs.rate_limited.inc();
                            push(heap, &mut seq, limited.retry_at, Ev::Poll);
                            continue;
                        }
                        Err(ApiError::ServerError) => {
                            stats.api_errors += 1;
                            obs.api_errors.inc();
                            poll_error_streak += 1;
                            if poll_error_streak <= self.max_retries {
                                let delay = backoff_delay(
                                    self.backoff_base,
                                    poll_error_streak,
                                    &mut retry_rng,
                                );
                                stats.retries += 1;
                                obs.retries.inc();
                                obs.backoff_us.record(delay.as_micros());
                                push(heap, &mut seq, at + delay, Ev::Poll);
                            } else {
                                // Give up on this round; resume the regular
                                // poll cadence.
                                poll_error_streak = 0;
                                push(heap, &mut seq, at + self.poll_interval, Ev::Poll);
                            }
                            continue;
                        }
                    }
                    push(heap, &mut seq, at + self.poll_interval, Ev::Poll);
                }
                Ev::Crash(d) => {
                    downloader_alive[d] = false;
                    if let Some(chaos) = &chaos {
                        chaos.note_crash();
                    }
                }
                Ev::Recover(d) => {
                    downloader_alive[d] = true;
                    downloader_busy_until[d] = at;
                }
                Ev::Fetch(id) => {
                    let Some(assignment) = assignments.get_mut(&id) else {
                        continue;
                    };
                    let d = assignment.downloader;
                    // A dead downloader executes nothing: the event chain
                    // stops here and restarts when the coordinator
                    // reassigns the streamer on its next poll.
                    if !downloader_alive[d] {
                        assignment.chain_dead = true;
                        continue;
                    }
                    // Lease lapsed (TTL expiry or a lost KV write): release
                    // the assignment; the coordinator re-acquires the
                    // streamer if it is still live.
                    if !self
                        .kv
                        .exists(&format!("active:{}", assignment.streamer.as_str()))
                    {
                        downloader_load[d] = downloader_load[d].saturating_sub(1);
                        obs.downloader_load.set(downloader_load[d] as i64);
                        assignments.remove(&id);
                        continue;
                    }
                    // Open breaker: only the scheduled half-open probe may
                    // pass; stray earlier events are swallowed (the probe
                    // event sustains the chain).
                    if !assignment.breaker_admits(at) {
                        continue;
                    }
                    // Serialise fetches per downloader.
                    if downloader_busy_until[d] > at {
                        let retry = downloader_busy_until[d];
                        obs.fetch_deferred.inc();
                        push(heap, &mut seq, retry, Ev::Fetch(id));
                        continue;
                    }
                    downloader_busy_until[d] = at + self.fetch_cost;
                    obs.get_attempts.inc();
                    let response = world.twitch.cdn_get(&assignment.url, at);
                    // Truncated payloads are detectable at fetch time: the
                    // transfer delivered fewer bytes than the content
                    // length promised. Fold them into the timeout path.
                    let fault = match &response {
                        CdnResponse::TimedOut => true,
                        CdnResponse::Thumbnail { content, .. } => !content.is_whole(),
                        CdnResponse::Offline => false,
                    };
                    if fault {
                        if matches!(response, CdnResponse::TimedOut) {
                            obs.cdn_timeouts.inc();
                        }
                        stats.cdn_faults += 1;
                        if let Some(reopen_at) = assignment.breaker_on_fault(
                            at,
                            self.breaker_threshold,
                            self.breaker_cooldown,
                        ) {
                            // Trip (or re-open after a failed probe): stop
                            // hammering the URL; probe again after the
                            // cooldown.
                            stats.breaker_trips += 1;
                            obs.breaker_open.inc();
                            sp_run.event_at(
                                Level::Warn,
                                format!("circuit breaker opened (assignment {id})"),
                                at,
                            );
                            push(heap, &mut seq, reopen_at, Ev::Fetch(id));
                        } else {
                            let delay = backoff_delay(
                                self.backoff_base,
                                assignment.consecutive_faults,
                                &mut retry_rng,
                            );
                            stats.retries += 1;
                            obs.retries.inc();
                            obs.backoff_us.record(delay.as_micros());
                            push(heap, &mut seq, at + delay, Ev::Fetch(id));
                        }
                        continue;
                    }
                    match response {
                        CdnResponse::Thumbnail {
                            content,
                            next_update,
                        } => {
                            let generated_at = content.generated_at;
                            assignment.breaker_on_success();
                            if let Some(last) = assignment.last_generated {
                                if generated_at == last {
                                    // Same content; try again shortly.
                                    obs.same_content.inc();
                                    push(
                                        heap,
                                        &mut seq,
                                        at + SimDuration::from_secs(30),
                                        Ev::Fetch(id),
                                    );
                                    continue;
                                }
                                // Count thumbnails we never saw (gap of
                                // more than one nominal interval).
                                let gap = generated_at.since(last).as_secs();
                                if gap > 400 {
                                    stats.missed += gap / 330 - 1;
                                    obs.overwrite_missed.add(gap / 330 - 1);
                                }
                            }
                            assignment.last_generated = Some(generated_at);
                            let object_key = content.object_key();
                            self.objects.put("thumbs", &object_key, content.encode());
                            let task = ThumbnailTask {
                                streamer: assignment.streamer.clone(),
                                game_label: assignment.game_label,
                                generated_at,
                                object_key,
                            };
                            self.kv.rpush("queue:thumbs", task.encode());
                            // Refresh the activity lease.
                            self.kv.set_with_ttl(
                                &format!("active:{}", assignment.streamer.as_str()),
                                &assignment.url,
                                at + self.active_ttl,
                            );
                            stats.downloaded += 1;
                            obs.get_hits.inc();
                            // Schedule the next fetch right after the next
                            // expected overwrite.
                            let next = next_update
                                .map(|t| t + SimDuration::from_secs(5))
                                .unwrap_or(at + SimDuration::from_mins(5));
                            push(
                                heap,
                                &mut seq,
                                next.max(at + self.fetch_cost),
                                Ev::Fetch(id),
                            );
                        }
                        CdnResponse::Offline => {
                            // Could be "live but first thumbnail pending":
                            // check activity via another short retry, but
                            // only once — the KV active flag with TTL keeps
                            // this bounded. Signal the coordinator and set a
                            // short cooldown so a comeback is re-acquired on
                            // the next poll after it lapses.
                            let user = assignment.streamer.as_str();
                            stats.offline_signals += 1;
                            obs.offline_signals.inc();
                            self.kv.rpush("offline", user.to_string());
                            self.kv.del(&format!("active:{user}"));
                            self.kv.del(&format!("game:{user}"));
                            self.kv.set_with_ttl(
                                &format!("cooldown:{user}"),
                                "1",
                                at + self.offline_cooldown,
                            );
                            downloader_load[d] = downloader_load[d].saturating_sub(1);
                            obs.downloader_load.set(downloader_load[d] as i64);
                            assignments.remove(&id);
                        }
                        CdnResponse::TimedOut => unreachable!("handled by the fault path"),
                    }
                }
            }
        }
        cursor.seq = seq;
        cursor.next_assignment_id = next_assignment_id;
        cursor.poll_error_streak = poll_error_streak;
        cursor.retry_rng = retry_rng;
        cursor.stats = stats;
        cursor.window_start = window_end;
    }

    /// Decode and drain every queued thumbnail task. Undecodable entries
    /// are moved to the dead-letter list (and counted) instead of being
    /// silently dropped.
    pub fn drain_tasks(&self) -> Vec<ThumbnailTask> {
        let decode_failures = self.obs.counter("download.decode_failures");
        let mut out = Vec::new();
        while let Some(raw) = self.kv.lpop("queue:thumbs") {
            match ThumbnailTask::decode(&raw) {
                Some(task) => out.push(task),
                None => {
                    decode_failures.inc();
                    self.dead_letter(raw);
                }
            }
        }
        out
    }

    /// Quarantine a poison entry onto the dead-letter list.
    pub fn dead_letter(&self, entry: impl Into<String>) {
        self.obs.counter("download.dead_letter").inc();
        self.trace
            .event(Level::Error, "entry quarantined to the dead-letter queue");
        self.kv.rpush(DEAD_LETTER_QUEUE, entry.into());
    }

    /// Drain the dead-letter list: every quarantined raw entry, in arrival
    /// order.
    pub fn drain_dead_letters(&self) -> Vec<String> {
        let mut out = Vec::new();
        while let Some(raw) = self.kv.lpop(DEAD_LETTER_QUEUE) {
            out.push(raw);
        }
        out
    }

    /// Current depth of the dead-letter list.
    pub fn dead_letter_depth(&self) -> usize {
        self.kv.llen(DEAD_LETTER_QUEUE)
    }

    /// Reinject quarantined tasks back onto `queue:thumbs` — the
    /// operator's "the fault plan is over, try again" lever. Entries that
    /// decode as [`ThumbnailTask`]s (typically parked because the object
    /// payload was corrupted by a chaos fault, not because the task
    /// itself was malformed) go back to the live queue in arrival order;
    /// entries that still fail to decode are genuine poison and stay
    /// quarantined. Returns `(requeued, still_dead)`.
    pub fn requeue_dead(&self) -> (usize, usize) {
        let mut requeued = 0;
        let mut poison = Vec::new();
        for raw in self.drain_dead_letters() {
            if ThumbnailTask::decode(&raw).is_some() {
                self.kv.rpush("queue:thumbs", raw);
                requeued += 1;
            } else {
                poison.push(raw);
            }
        }
        let still_dead = poison.len();
        for raw in poison {
            // Back onto the dead-letter list *without* re-counting it as
            // a fresh quarantine.
            self.kv.rpush(DEAD_LETTER_QUEUE, raw);
        }
        if requeued > 0 {
            self.trace.event(
                Level::Info,
                "dead-lettered tasks reinjected onto the live queue",
            );
        }
        (requeued, still_dead)
    }

    /// Read a stored thumbnail's content descriptor back from the object
    /// store. `None` means the object is missing or its payload is not a
    /// whole thumbnail: bytes that do not decode, or a descriptor of a
    /// payload that never arrived whole. Those bump
    /// `download.decode_failures`, and the caller should route the task to
    /// [`DownloadModule::dead_letter`].
    pub fn load_content(&self, object_key: &str) -> Option<ThumbContent> {
        let bytes = self.objects.get("thumbs", object_key)?;
        match ThumbContent::decode(object_key, &bytes) {
            Ok(content) if content.is_whole() => Some(content),
            _ => {
                self.obs.counter("download.decode_failures").inc();
                None
            }
        }
    }

    /// Country-tag history collected for a streamer during the run.
    pub fn tag_history(&self, username: &str) -> Vec<String> {
        let mut out = Vec::new();
        let key = format!("tags:{username}");
        while let Some(tag) = self.kv.lpop(&key) {
            out.push(tag);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tero_world::WorldConfig;

    fn small_world() -> World {
        World::build(WorldConfig {
            seed: 21,
            n_streamers: 25,
            days: 2,
            ..WorldConfig::default()
        })
    }

    #[test]
    fn task_roundtrip() {
        let task = ThumbnailTask {
            streamer: StreamerId::new("darkwolf42"),
            game_label: GameId::Dota2,
            generated_at: SimTime::from_mins(1234),
            object_key: "darkwolf42/74040000000".into(),
        };
        assert_eq!(ThumbnailTask::decode(&task.encode()), Some(task));
        assert_eq!(ThumbnailTask::decode("garbage"), None);
        assert_eq!(ThumbnailTask::decode("a|nope|1|k"), None);
    }

    #[test]
    fn task_roundtrip_with_separator_in_username() {
        // A `|` in the username must not shift the field layout.
        let task = ThumbnailTask {
            streamer: StreamerId::new("dark|wolf%42"),
            game_label: GameId::Dota2,
            generated_at: SimTime::from_mins(7),
            object_key: "dark|wolf%42/420000000".into(),
        };
        let encoded = task.encode();
        assert_eq!(ThumbnailTask::decode(&encoded), Some(task));
        // Malformed escapes are rejected, not mis-decoded.
        assert_eq!(ThumbnailTask::decode("bad%zz|dota2|1|k"), None);
        assert_eq!(ThumbnailTask::decode("trail%2|dota2|1|k"), None);
    }

    /// The full download-breaker walk — closed → open → half-open →
    /// closed — on the same `Assignment` transition methods the fetch
    /// loop runs, independent of any chaos e2e.
    #[test]
    fn download_breaker_walks_closed_open_half_open_closed() {
        let threshold = 3;
        let cooldown = SimDuration::from_mins(2);
        let mut a = Assignment::new(
            "cdn://x".into(),
            StreamerId::new("finewolf"),
            GameId::Dota2,
            0,
        );
        let mut at = SimTime::from_mins(10);

        // Closed: faults below the threshold back off but never trip.
        for _ in 0..threshold - 1 {
            assert!(a.breaker_admits(at));
            assert_eq!(a.breaker_on_fault(at, threshold, cooldown), None);
        }
        // The threshold-th consecutive fault opens the breaker.
        assert!(a.breaker_admits(at));
        let reopen_at = a
            .breaker_on_fault(at, threshold, cooldown)
            .expect("threshold fault trips the breaker");
        assert_eq!(reopen_at, at + cooldown);

        // Open: stray events before the cooldown are swallowed.
        assert!(!a.breaker_admits(at + SimDuration::from_secs(1)));
        assert!(!a.breaker_admits(reopen_at - SimDuration::from_micros(1)));

        // Half-open: the scheduled probe is admitted, and its success
        // closes the breaker and clears the fault streak.
        at = reopen_at;
        assert!(a.breaker_admits(at));
        assert!(a.half_open);
        a.breaker_on_success();
        assert_eq!(a.consecutive_faults, 0);
        assert_eq!(a.breaker_until, None);
        assert!(!a.half_open);

        // Closed again: a single fresh fault does not trip.
        assert!(a.breaker_admits(at));
        assert_eq!(a.breaker_on_fault(at, threshold, cooldown), None);
    }

    /// A faulted half-open probe re-opens the breaker immediately — one
    /// fault, not a fresh threshold's worth.
    #[test]
    fn download_breaker_failed_probe_reopens() {
        let threshold = 3;
        let cooldown = SimDuration::from_mins(2);
        let mut a = Assignment::new(
            "cdn://x".into(),
            StreamerId::new("finewolf"),
            GameId::Dota2,
            0,
        );
        let mut at = SimTime::from_mins(5);
        for _ in 0..threshold {
            assert!(a.breaker_admits(at));
            a.breaker_on_fault(at, threshold, cooldown);
        }
        at += cooldown;
        assert!(a.breaker_admits(at), "probe admitted at the cooldown edge");
        let reopen_at = a
            .breaker_on_fault(at, threshold, cooldown)
            .expect("failed probe re-opens");
        assert_eq!(reopen_at, at + cooldown);
        assert!(!a.breaker_admits(at + SimDuration::from_secs(30)));
    }

    #[test]
    fn undecodable_queue_entries_are_dead_lettered() {
        let kv = KvStore::new();
        let module = DownloadModule::new(kv.clone(), ObjectStore::new());
        let good = ThumbnailTask {
            streamer: StreamerId::new("ok"),
            game_label: GameId::Dota2,
            generated_at: SimTime::from_mins(1),
            object_key: "ok/1".into(),
        };
        kv.rpush("queue:thumbs", good.encode());
        kv.rpush("queue:thumbs", "not|a|task");
        kv.rpush("queue:thumbs", "junk");
        let tasks = module.drain_tasks();
        assert_eq!(tasks, vec![good]);
        assert_eq!(module.dead_letter_depth(), 2);
        assert_eq!(
            module.drain_dead_letters(),
            vec!["not|a|task".to_string(), "junk".to_string()]
        );
        assert_eq!(module.dead_letter_depth(), 0);
    }

    #[test]
    fn downloads_track_world_thumbnails() {
        let mut world = small_world();
        let kv = KvStore::new();
        let objects = ObjectStore::new();
        let mut module = DownloadModule::new(kv, objects.clone());
        let horizon = world.horizon;
        let stats = module.run(&mut world, SimTime::EPOCH, horizon);

        let truth = world.total_samples() as u64;
        assert!(truth > 0);
        // With a 2-minute poll and per-streamer scheduling we should catch
        // the overwhelming majority of thumbnails.
        assert!(
            stats.downloaded as f64 > truth as f64 * 0.85,
            "downloaded {} of {truth}",
            stats.downloaded
        );
        assert!(stats.downloaded <= truth);
        assert_eq!(objects.count("thumbs") as u64, stats.downloaded);

        // Tasks decode and reference stored objects, which render.
        let tasks = module.drain_tasks();
        assert_eq!(tasks.len() as u64, stats.downloaded);
        let content = module
            .load_content(&tasks[0].object_key)
            .expect("descriptor");
        assert_eq!(content.streamer, tasks[0].streamer);
        assert_eq!(content.generated_at, tasks[0].generated_at);
        let img = world.twitch.render(&content).expect("image");
        assert_eq!(img.width, tero_vision::scene::THUMB_W);
    }

    #[test]
    fn malformed_stored_payloads_are_counted_decode_failures() {
        let objects = ObjectStore::new();
        let mut module = DownloadModule::new(KvStore::new(), objects.clone());
        let registry = Registry::new();
        module.instrument(&registry);
        let whole = ThumbContent {
            streamer: StreamerId::new("finewolf"),
            generated_at: SimTime::from_mins(5),
            fault: Some(tero_chaos::CdnFault::Corrupted),
        };
        let truncated = ThumbContent {
            fault: Some(tero_chaos::CdnFault::Truncated),
            ..whole.clone()
        };
        // The raw-pixel layout: a width/height header, then pixels.
        let mut raw_pixels = Vec::new();
        raw_pixels.extend(160u32.to_le_bytes());
        raw_pixels.extend(90u32.to_le_bytes());
        raw_pixels.extend([7u8; 32]);
        let key = whole.object_key();
        let bad = [
            (key.clone(), Vec::new()),
            (key.clone(), vec![9]),
            (key.clone(), raw_pixels),
            (key.clone(), truncated.encode()),
            ("no-instant".to_string(), whole.encode()),
        ];
        for (key, payload) in &bad {
            objects.put("thumbs", key, payload.clone());
            assert_eq!(module.load_content(key), None);
        }
        objects.put("thumbs", &key, whole.encode());
        assert_eq!(module.load_content(&key), Some(whole));
        // A missing object is not a decode failure.
        assert_eq!(module.load_content("absent/1"), None);
        assert_eq!(
            registry.snapshot().counter("download.decode_failures"),
            Some(bad.len() as u64)
        );
    }

    #[test]
    fn metrics_mirror_run_stats() {
        let mut world = small_world();
        let mut module = DownloadModule::new(KvStore::new(), ObjectStore::new());
        let registry = Registry::new();
        module.instrument(&registry);
        let horizon = world.horizon;
        let stats = module.run(&mut world, SimTime::EPOCH, horizon);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("download.polls"), Some(stats.polls));
        assert_eq!(snap.counter("download.get_hits"), Some(stats.downloaded));
        assert_eq!(
            snap.counter("download.offline_signals"),
            Some(stats.offline_signals)
        );
        assert_eq!(
            snap.counter("download.overwrite_missed"),
            Some(stats.missed)
        );
        assert!(snap.counter("download.get_attempts") >= snap.counter("download.get_hits"));
        assert!(snap.histogram("download.queue_depth").unwrap().count > 0);
        assert!(
            snap.gauge("download.downloader_load")
                .unwrap()
                .high_watermark
                >= 1
        );
        assert_eq!(
            snap.histogram("download.run_us").unwrap().count,
            0,
            "wall-clock timing stays off by default"
        );
        // Without a fault injector, the recovery machinery stays silent —
        // but all of its metrics are registered.
        assert_eq!(snap.counter("download.api_errors"), Some(0));
        assert_eq!(snap.counter("download.cdn_timeouts"), Some(0));
        assert_eq!(snap.counter("download.breaker_open"), Some(0));
        assert_eq!(snap.counter("download.reassigned"), Some(0));
        assert_eq!(snap.counter("download.dead_letter"), Some(0));
        assert_eq!(snap.counter("download.decode_failures"), Some(0));
    }

    #[test]
    fn offline_streamers_are_released() {
        let mut world = small_world();
        let mut module = DownloadModule::new(KvStore::new(), ObjectStore::new());
        let horizon = world.horizon;
        let stats = module.run(&mut world, SimTime::EPOCH, horizon);
        assert!(stats.offline_signals > 0, "streams end → offline signals");
        assert!(stats.polls > 100);
        assert!(stats.swept > 0, "offline cooldowns expire via the sweep");
    }

    #[test]
    fn offline_comeback_is_reacquired() {
        // Regression test for the Offline release path: a streamer whose
        // stream ends (offline redirect, lease released) and who later
        // starts a new stream must be re-assigned and downloaded again.
        let mut world = small_world();
        let kv = KvStore::new();
        let mut module = DownloadModule::new(kv.clone(), ObjectStore::new());
        let horizon = world.horizon;
        let stats = module.run(&mut world, SimTime::EPOCH, horizon);
        assert!(stats.offline_signals > 0);

        // Find streamers with at least two streams and verify thumbnails
        // were captured from a later stream (i.e. after an offline release).
        let tasks = module.drain_tasks();
        let mut comebacks = 0;
        for (streamer, timeline) in world.streamers().iter().zip(world.timelines()) {
            if timeline.len() < 2 {
                continue;
            }
            let later = &timeline[1];
            let captured_later = tasks.iter().any(|t| {
                t.streamer == streamer.id
                    && t.generated_at >= later.start
                    && t.generated_at < later.end
            });
            if captured_later {
                comebacks += 1;
            }
        }
        assert!(
            comebacks > 0,
            "no streamer was re-acquired after coming back online"
        );
        // The release path ran exactly once per offline signal: no key or
        // load-accounting residue survives beyond the final in-flight set.
        assert_eq!(kv.llen("offline") as u64, stats.offline_signals);
    }

    #[test]
    fn lean_downloaders_beat_one_slow_worker() {
        // DESIGN.md ablation 6: the coordinator/downloader split exists
        // because downloads are time-sensitive. One worker with a heavy
        // per-fetch cost loses thumbnails to CDN overwrites; a pool of
        // lean workers does not.
        let run = |workers: usize, cost_ms: u64| {
            let mut world = World::build(WorldConfig {
                seed: 404,
                n_streamers: 60,
                days: 1,
                ..WorldConfig::default()
            });
            let mut module = DownloadModule::new(KvStore::new(), ObjectStore::new());
            module.downloaders = workers;
            module.fetch_cost = SimDuration::from_millis(cost_ms);
            let horizon = world.horizon;
            module.run(&mut world, SimTime::EPOCH, horizon).downloaded
        };
        let pool = run(4, 500);
        let single_slow = run(1, 45_000); // 45 s per fetch, one worker
        assert!(
            single_slow < pool,
            "a slow single worker must fall behind: {single_slow} vs {pool}"
        );
    }

    #[test]
    fn crash_recovery_resumes_from_kv_state() {
        // Run the first half with one module instance, "crash", and run
        // the second half with a fresh instance sharing the same stores:
        // the union must capture roughly what an uninterrupted run does.
        let kv = KvStore::new();
        let objects = ObjectStore::new();
        let horizon;
        let two_phase = {
            let mut world = small_world();
            horizon = world.horizon;
            let half = SimTime::from_micros(horizon.as_micros() / 2);
            let mut first = DownloadModule::new(kv.clone(), objects.clone());
            let s1 = first.run(&mut world, SimTime::EPOCH, half);
            drop(first); // the crash: all in-memory assignment state is lost
            let mut second = DownloadModule::new(kv.clone(), objects.clone());
            let s2 = second.run(&mut world, half, horizon);
            s1.downloaded + s2.downloaded
        };
        let uninterrupted = {
            let mut world = small_world();
            let mut module = DownloadModule::new(KvStore::new(), ObjectStore::new());
            module.run(&mut world, SimTime::EPOCH, horizon).downloaded
        };
        assert!(
            two_phase as f64 > uninterrupted as f64 * 0.9,
            "recovery lost too much: {two_phase} vs {uninterrupted}"
        );
    }

    #[test]
    fn windowed_cursor_matches_single_shot() {
        // One cursor driven over many windows must make exactly the same
        // world calls as one full-range run(): stats, object store and
        // queue contents all byte-identical.
        let single = {
            let mut world = small_world();
            let kv = KvStore::new();
            let objects = ObjectStore::new();
            let mut module = DownloadModule::new(kv.clone(), objects.clone());
            let horizon = world.horizon;
            let stats = module.run(&mut world, SimTime::EPOCH, horizon);
            (stats, kv.snapshot(), objects.snapshot())
        };
        let windowed = {
            let mut world = small_world();
            let kv = KvStore::new();
            let objects = ObjectStore::new();
            let mut module = DownloadModule::new(kv.clone(), objects.clone());
            let horizon = world.horizon;
            let mut cursor = DownloadCursor::new(SimTime::EPOCH, horizon);
            let step = SimDuration::from_hours(5);
            let mut end = SimTime::EPOCH + step;
            loop {
                module.run_cursor(&mut world, &mut cursor, end);
                if end >= horizon {
                    break;
                }
                end = (end + step).min(horizon);
            }
            (cursor.stats.clone(), kv.snapshot(), objects.snapshot())
        };
        assert_eq!(
            serde_json::to_string(&single.0).unwrap(),
            serde_json::to_string(&windowed.0).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&single.1).unwrap(),
            serde_json::to_string(&windowed.1).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&single.2).unwrap(),
            serde_json::to_string(&windowed.2).unwrap()
        );
    }

    #[test]
    fn cursor_serde_roundtrip_resumes_identically() {
        // Persist the cursor mid-run, resurrect it from JSON, and finish:
        // the result must equal an uninterrupted run over the same stores.
        let horizon = small_world().horizon;
        let half = SimTime::from_micros(horizon.as_micros() / 2);
        let direct = {
            let mut world = small_world();
            let mut module = DownloadModule::new(KvStore::new(), ObjectStore::new());
            module.run(&mut world, SimTime::EPOCH, horizon)
        };
        let resumed = {
            let mut world = small_world();
            let kv = KvStore::new();
            let objects = ObjectStore::new();
            let mut module = DownloadModule::new(kv.clone(), objects.clone());
            let mut cursor = DownloadCursor::new(SimTime::EPOCH, horizon);
            module.run_cursor(&mut world, &mut cursor, half);
            let json = serde_json::to_string(&cursor).unwrap();
            drop(cursor); // the crash: in-memory cursor state is lost
            let mut revived: DownloadCursor = serde_json::from_str(&json).unwrap();
            // The revived cursor serializes back to the same bytes.
            assert_eq!(serde_json::to_string(&revived).unwrap(), json);
            assert_eq!(revived.bounds(), (SimTime::EPOCH, horizon));
            let mut module2 = DownloadModule::new(kv, objects);
            module2.run_cursor(&mut world, &mut revived, horizon);
            revived.stats.clone()
        };
        assert_eq!(
            serde_json::to_string(&direct).unwrap(),
            serde_json::to_string(&resumed).unwrap()
        );
    }

    #[test]
    fn rate_limit_is_respected() {
        let mut world = World::build(WorldConfig {
            seed: 5,
            n_streamers: 10,
            days: 1,
            api_budget_per_min: 1,
            ..WorldConfig::default()
        });
        let mut module = DownloadModule::new(KvStore::new(), ObjectStore::new());
        module.poll_interval = SimDuration::from_secs(10); // over budget
        let horizon = world.horizon;
        let stats = module.run(&mut world, SimTime::EPOCH, horizon);
        assert!(stats.rate_limited > 0, "limiter must have pushed back");
        // The module kept running regardless.
        assert!(stats.polls > 0);
    }
}
