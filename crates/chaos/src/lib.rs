//! # tero-chaos
//!
//! Deterministic fault injection for the Tero ingest pipeline.
//!
//! The paper's download module survives a hostile environment — Helix rate
//! limits, CDN overwrites every ~5 minutes, offline redirects, and machine
//! crashes (App. A/B). The synthetic world is far kinder than the real
//! platform, so this crate supplies the missing hostility *on demand*: a
//! [`FaultPlan`] describes the failure modes and their rates, and a
//! [`ChaosInjector`] built from it hands out per-call fault decisions from
//! seeded [`SimRng`] streams. The same `(seed, plan)` pair always produces
//! the same fault sequence, so every chaos experiment is replayable and
//! every recovery test is deterministic.
//!
//! Fault classes:
//!
//! * **Transient API 5xx** on `get_streams` / `get_profile` — the caller is
//!   expected to retry with backoff;
//! * **CDN faults** on `cdn_get` — request timeouts, truncated payloads
//!   (fewer bytes than the content length promises), and corrupted pixel
//!   bytes (length preserved, content garbage). A payload fault is drawn
//!   at fetch time and applied to the pixels by the pure
//!   [`CdnFault::mangle`] whenever they are rendered;
//! * **Downloader crash windows** — a worker dies at a planned instant and
//!   recovers later; the coordinator must reassign its streamers;
//! * **Write drops** on the KV / object stores — the write is acknowledged
//!   but never lands, as a crashed store node would lose it.
//!
//! Every injected fault is counted under `chaos.injected.*` once the
//! injector is [instrumented](ChaosInjector::instrument), so a recovery
//! test can assert that the fault classes it claims to survive actually
//! fired.
//!
//! ```
//! use tero_chaos::{ChaosInjector, FaultPlan};
//!
//! let plan = FaultPlan { cdn_timeout_rate: 1.0, ..FaultPlan::quiet(7) };
//! let chaos = ChaosInjector::new(plan);
//! assert!(matches!(
//!     chaos.cdn_fault(),
//!     Some(tero_chaos::CdnFault::Timeout)
//! ));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use parking_lot::Mutex;
use serde::Serialize;
use std::sync::{Arc, OnceLock};
use tero_obs::{CounterHandle, Registry};
use tero_trace::{Level, Tracer};
use tero_types::{SimDuration, SimRng, SimTime};

/// One planned downloader crash: the worker is dead over `[at, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CrashWindow {
    /// Index of the downloader that dies.
    pub downloader: usize,
    /// When it dies.
    pub at: SimTime,
    /// When it comes back.
    pub until: SimTime,
}

/// One planned engine kill: the staged pipeline engine aborts the given
/// window mid-flight — after the ingest stage has committed its cursor
/// but before the extract stage runs — exactly once. The caller resumes
/// the window from the persisted stage cursors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct EngineKill {
    /// Zero-based index of the window to abort.
    pub window: u64,
}

/// A planned network partition: frames between hosts `a` and `b` (in
/// either direction) are dropped for every window in
/// `[from_window, until_window)`. Host names follow the sharded
/// topology's convention (`engine{i}`, `shard{s}p`, `shard{s}r`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct NetPartition {
    /// One side of the severed pair.
    pub a: String,
    /// The other side.
    pub b: String,
    /// First window (zero-based) during which the pair is partitioned.
    pub from_window: u64,
    /// First window during which the pair is healed again.
    pub until_window: u64,
}

/// A planned store-host kill: the named host answers no frames for every
/// window in `[from_window, until_window)`, then comes back with whatever
/// state it held when it died (a stale replica until resynced).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HostKill {
    /// Name of the store host that dies (e.g. `shard1p`).
    pub host: String,
    /// First window (zero-based) during which the host is dead.
    pub from_window: u64,
    /// First window during which the host is back.
    pub until_window: u64,
}

/// The network-layer fault schedule consulted by the simnet transport:
/// random frame loss and delay, plus planned partitions and store-host
/// kills. All rates are per-frame Bernoulli draws from the injector's
/// dedicated net stream.
#[derive(Debug, Clone, Serialize)]
pub struct NetFault {
    /// Probability that a frame is dropped in flight (the client sees a
    /// deadline expiry and retries).
    pub frame_drop_rate: f64,
    /// Probability that a frame is delayed by [`NetFault::frame_delay`]
    /// on top of its modelled transfer time.
    pub frame_delay_rate: f64,
    /// Extra logical delay applied to delayed frames.
    pub frame_delay: SimDuration,
    /// Planned host-pair partitions.
    pub partitions: Vec<NetPartition>,
    /// Planned store-host kills.
    pub kills: Vec<HostKill>,
}

impl NetFault {
    /// A net-fault schedule with everything disabled.
    pub fn quiet() -> NetFault {
        NetFault {
            frame_drop_rate: 0.0,
            frame_delay_rate: 0.0,
            frame_delay: SimDuration(0),
            partitions: Vec::new(),
            kills: Vec::new(),
        }
    }

    /// True when no class of network fault can ever fire.
    pub fn is_quiet(&self) -> bool {
        self.frame_drop_rate <= 0.0
            && self.frame_delay_rate <= 0.0
            && self.partitions.is_empty()
            && self.kills.is_empty()
    }
}

/// A random fault drawn for one frame in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFrameFault {
    /// The frame is lost; the sender sees a deadline expiry.
    Drop,
    /// The frame arrives late by the given extra delay.
    Delay(SimDuration),
}

/// A fault a CDN fetch can suffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CdnFault {
    /// The request times out; no payload is returned. Detectable at fetch
    /// time — the caller should retry with backoff.
    Timeout,
    /// The payload arrives shorter than its content length promises. The
    /// fetcher sees the short transfer and treats it like a timeout.
    Truncated,
    /// The payload arrives with corrupted pixel bytes but the right
    /// length. Decodes fine; the OCR stage reads garbage and extracts
    /// nothing.
    Corrupted,
}

impl CdnFault {
    /// Apply this fault to a thumbnail's pixel bytes. A pure function of
    /// the fault, so the pixels can be rendered (and damaged) long after
    /// the fetch that drew the fault: `Truncated` halves the bytes,
    /// `Corrupted` XOR-flips a stride of bytes in place (same length,
    /// garbage content), and `Timeout` leaves them alone (no payload
    /// ever carries it).
    pub fn mangle(self, pixels: &mut Vec<u8>) {
        match self {
            CdnFault::Timeout => {}
            CdnFault::Truncated => {
                let keep = pixels.len() / 2;
                pixels.truncate(keep);
            }
            CdnFault::Corrupted => {
                for byte in pixels.iter_mut().step_by(3) {
                    *byte ^= 0xA5;
                }
            }
        }
    }
}

/// The declarative fault schedule: rates per fault class plus explicit
/// crash windows. All probabilities are per-call Bernoulli draws from the
/// injector's seeded streams.
#[derive(Debug, Clone, Serialize)]
pub struct FaultPlan {
    /// Seed of the injector's RNG streams. The whole fault sequence is a
    /// pure function of `(seed, plan rates, call sequence)`.
    pub seed: u64,
    /// Probability that an API call (`get_streams` / `get_profile`)
    /// returns a transient 5xx after spending its rate-limit budget.
    pub api_5xx_rate: f64,
    /// Probability that a CDN fetch times out.
    pub cdn_timeout_rate: f64,
    /// Probability that a CDN payload is truncated.
    pub cdn_truncate_rate: f64,
    /// Probability that a CDN payload has corrupted pixels.
    pub cdn_corrupt_rate: f64,
    /// Probability that a KV write (set / rpush / hset) is silently lost.
    pub kv_write_drop_rate: f64,
    /// Probability that an object-store put is silently lost.
    pub object_write_drop_rate: f64,
    /// Planned downloader crashes.
    pub crashes: Vec<CrashWindow>,
    /// Planned staged-engine kills (each fires at most once).
    pub engine_kills: Vec<EngineKill>,
    /// Network-layer faults, consulted by the simnet store transport.
    pub net: NetFault,
}

impl FaultPlan {
    /// A plan with every fault class disabled — installing it is a no-op.
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            api_5xx_rate: 0.0,
            cdn_timeout_rate: 0.0,
            cdn_truncate_rate: 0.0,
            cdn_corrupt_rate: 0.0,
            kv_write_drop_rate: 0.0,
            object_write_drop_rate: 0.0,
            crashes: Vec::new(),
            engine_kills: Vec::new(),
            net: NetFault::quiet(),
        }
    }

    /// The default chaos mix used by the recovery suite: transient API
    /// errors, CDN timeouts and payload corruption at modest rates, and
    /// one downloader crash a few hours in. A hardened ingest pipeline
    /// retains ≥ 90 % of its fault-free throughput under this plan.
    pub fn default_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            api_5xx_rate: 0.05,
            cdn_timeout_rate: 0.03,
            cdn_truncate_rate: 0.01,
            cdn_corrupt_rate: 0.01,
            kv_write_drop_rate: 0.0,
            object_write_drop_rate: 0.0,
            crashes: vec![CrashWindow {
                downloader: 1,
                at: SimTime::from_hours(6),
                until: SimTime::from_hours(10),
            }],
            engine_kills: Vec::new(),
            net: NetFault::quiet(),
        }
    }
}

/// Counter handles resolved by [`ChaosInjector::instrument`]. All names
/// are registered eagerly so the catalogue stays complete even for fault
/// classes that never fire.
struct ChaosMetrics {
    api_5xx: CounterHandle,
    cdn_timeout: CounterHandle,
    cdn_truncated: CounterHandle,
    cdn_corrupt: CounterHandle,
    kv_write_drop: CounterHandle,
    object_write_drop: CounterHandle,
    crash: CounterHandle,
    engine_kill: CounterHandle,
    net_partition_drop: CounterHandle,
    net_frame_drop: CounterHandle,
    net_frame_delay: CounterHandle,
    net_shard_kill: CounterHandle,
}

struct Inner {
    plan: FaultPlan,
    /// Independent streams per call site, so (say) KV write volume never
    /// perturbs the CDN fault sequence.
    api_rng: Mutex<SimRng>,
    cdn_rng: Mutex<SimRng>,
    kv_rng: Mutex<SimRng>,
    object_rng: Mutex<SimRng>,
    net_rng: Mutex<SimRng>,
    metrics: OnceLock<ChaosMetrics>,
    trace: OnceLock<Tracer>,
    /// Window indices whose planned engine kill has already fired, so a
    /// resumed window is not killed again.
    fired_engine_kills: Mutex<Vec<u64>>,
}

/// The live injector: consulted by the world's API/CDN, the stores, and
/// the download module. Cloning is cheap (shared handle); all clones draw
/// from the same streams.
#[derive(Clone)]
pub struct ChaosInjector {
    inner: Arc<Inner>,
}

impl ChaosInjector {
    /// Build an injector from a plan. The decision streams are forked
    /// deterministically from `plan.seed`; the net stream is forked last
    /// so pre-existing replay sequences are unchanged by its addition.
    pub fn new(plan: FaultPlan) -> ChaosInjector {
        let mut root = SimRng::new(plan.seed);
        ChaosInjector {
            inner: Arc::new(Inner {
                api_rng: Mutex::new(root.fork()),
                cdn_rng: Mutex::new(root.fork()),
                kv_rng: Mutex::new(root.fork()),
                object_rng: Mutex::new(root.fork()),
                net_rng: Mutex::new(root.fork()),
                plan,
                metrics: OnceLock::new(),
                trace: OnceLock::new(),
                fired_engine_kills: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Register the `chaos.injected.*` counters with a registry. All
    /// counter names are created immediately (at zero), so the metric
    /// catalogue cross-check sees them whether or not they fire. The first
    /// call wins; all clones share the handles.
    pub fn instrument(&self, registry: &Registry) {
        let _ = self.inner.metrics.set(ChaosMetrics {
            api_5xx: registry.counter("chaos.injected.api_5xx"),
            cdn_timeout: registry.counter("chaos.injected.cdn_timeout"),
            cdn_truncated: registry.counter("chaos.injected.cdn_truncated"),
            cdn_corrupt: registry.counter("chaos.injected.cdn_corrupt"),
            kv_write_drop: registry.counter("chaos.injected.kv_write_drop"),
            object_write_drop: registry.counter("chaos.injected.object_write_drop"),
            crash: registry.counter("chaos.injected.crash"),
            engine_kill: registry.counter("chaos.injected.engine_kill"),
            net_partition_drop: registry.counter("chaos.injected.net_partition_drop"),
            net_frame_drop: registry.counter("chaos.injected.net_frame_drop"),
            net_frame_delay: registry.counter("chaos.injected.net_frame_delay"),
            net_shard_kill: registry.counter("chaos.injected.net_shard_kill"),
        });
    }

    /// Attach a tracer: every injected fault is also journaled as a
    /// `chaos:` event, so faults show up inline in span timelines and
    /// flight-recorder dumps. The first call wins, like
    /// [`ChaosInjector::instrument`].
    pub fn set_trace(&self, tracer: &Tracer) {
        let _ = self.inner.trace.set(tracer.clone());
    }

    fn journal(&self, level: Level, message: &str) {
        if let Some(t) = self.inner.trace.get() {
            t.event(level, message);
        }
    }

    /// The plan this injector was built from.
    pub fn plan(&self) -> &FaultPlan {
        &self.inner.plan
    }

    /// The planned downloader crash windows.
    pub fn crash_windows(&self) -> &[CrashWindow] {
        &self.inner.plan.crashes
    }

    /// Should this API call fail with a transient 5xx?
    pub fn api_fault(&self) -> bool {
        let rate = self.inner.plan.api_5xx_rate;
        if rate <= 0.0 {
            return false;
        }
        let hit = self.inner.api_rng.lock().chance(rate);
        if hit {
            if let Some(m) = self.inner.metrics.get() {
                m.api_5xx.inc();
            }
            self.journal(Level::Warn, "chaos: injected transient API 5xx");
        }
        hit
    }

    /// How many consecutive transient 5xx faults does the *profile*
    /// lookup for `key` suffer? Capped at 5 (after five the caller gives
    /// up, matching the download module's retry discipline). Unlike
    /// [`ChaosInjector::api_fault`], the draws come from a stream keyed on
    /// `(plan.seed, key)` rather than the shared sequential API stream:
    /// the location module runs on its own credentials, on its own
    /// schedule, so its fault outcomes are a pure function of the
    /// streamer — independent of call order and of the window schedule
    /// the pipeline happens to be driven with. Each fault is counted
    /// under `chaos.injected.api_5xx` and journaled like any other API
    /// 5xx. Zero rates consume no RNG.
    pub fn profile_faults(&self, key: &str) -> u32 {
        let rate = self.inner.plan.api_5xx_rate;
        if rate <= 0.0 {
            return 0;
        }
        // FNV-1a over the key, folded into the plan seed: a cheap stable
        // per-streamer stream id (same recipe the world uses to derive
        // per-streamer scene seeds).
        let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.bytes() {
            seed = (seed ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut rng = SimRng::new(self.inner.plan.seed ^ seed);
        let mut faults = 0u32;
        while faults < 5 && rng.chance(rate) {
            faults += 1;
            if let Some(m) = self.inner.metrics.get() {
                m.api_5xx.inc();
            }
            self.journal(Level::Warn, "chaos: injected transient API 5xx");
        }
        faults
    }

    /// Should this CDN fetch fault, and how? One draw per call; the three
    /// fault classes partition the unit interval.
    pub fn cdn_fault(&self) -> Option<CdnFault> {
        let p = &self.inner.plan;
        let total = p.cdn_timeout_rate + p.cdn_truncate_rate + p.cdn_corrupt_rate;
        if total <= 0.0 {
            return None;
        }
        let u = self.inner.cdn_rng.lock().f64();
        let fault = if u < p.cdn_timeout_rate {
            CdnFault::Timeout
        } else if u < p.cdn_timeout_rate + p.cdn_truncate_rate {
            CdnFault::Truncated
        } else if u < total {
            CdnFault::Corrupted
        } else {
            return None;
        };
        if let Some(m) = self.inner.metrics.get() {
            match fault {
                CdnFault::Timeout => m.cdn_timeout.inc(),
                CdnFault::Truncated => m.cdn_truncated.inc(),
                CdnFault::Corrupted => m.cdn_corrupt.inc(),
            }
        }
        self.journal(
            Level::Warn,
            match fault {
                CdnFault::Timeout => "chaos: injected CDN timeout",
                CdnFault::Truncated => "chaos: injected CDN truncated payload",
                CdnFault::Corrupted => "chaos: injected CDN corrupted payload",
            },
        );
        Some(fault)
    }

    /// Should this KV write be silently dropped?
    pub fn drop_kv_write(&self) -> bool {
        let rate = self.inner.plan.kv_write_drop_rate;
        if rate <= 0.0 {
            return false;
        }
        let hit = self.inner.kv_rng.lock().chance(rate);
        if hit {
            if let Some(m) = self.inner.metrics.get() {
                m.kv_write_drop.inc();
            }
            self.journal(Level::Error, "chaos: silently dropped KV write");
        }
        hit
    }

    /// Should this object-store put be silently dropped?
    pub fn drop_object_write(&self) -> bool {
        let rate = self.inner.plan.object_write_drop_rate;
        if rate <= 0.0 {
            return false;
        }
        let hit = self.inner.object_rng.lock().chance(rate);
        if hit {
            if let Some(m) = self.inner.metrics.get() {
                m.object_write_drop.inc();
            }
            self.journal(Level::Error, "chaos: silently dropped object-store put");
        }
        hit
    }

    /// Should the engine abort `window` mid-flight? True exactly once per
    /// planned [`EngineKill`]: the first check of a planned window fires
    /// (and is counted under `chaos.injected.engine_kill`); the re-check
    /// after the caller resumes does not, so resumed runs terminate.
    pub fn engine_kill(&self, window: u64) -> bool {
        if !self
            .inner
            .plan
            .engine_kills
            .iter()
            .any(|k| k.window == window)
        {
            return false;
        }
        let mut fired = self.inner.fired_engine_kills.lock();
        if fired.contains(&window) {
            return false;
        }
        fired.push(window);
        drop(fired);
        if let Some(m) = self.inner.metrics.get() {
            m.engine_kill.inc();
        }
        self.journal(Level::Error, "chaos: killed engine mid-window");
        true
    }

    /// Is the host pair `(a, b)` partitioned during `window`? Pure plan
    /// lookup — no RNG is consumed. Counted under
    /// `chaos.injected.net_partition_drop` once per blocked frame.
    pub fn net_partitioned(&self, a: &str, b: &str, window: u64) -> bool {
        let hit = self.net_partitioned_quiet(a, b, window);
        if hit {
            if let Some(m) = self.inner.metrics.get() {
                m.net_partition_drop.inc();
            }
            self.journal(Level::Error, "chaos: frame blocked by network partition");
        }
        hit
    }

    /// [`ChaosInjector::net_partitioned`] without the fault accounting:
    /// same plan lookup, but no counter bump and no journal entry. The
    /// ops plane (health polls) uses this so *monitoring* a partitioned
    /// mesh never inflates the data plane's injected-fault counters or
    /// perturbs replay determinism.
    pub fn net_partitioned_quiet(&self, a: &str, b: &str, window: u64) -> bool {
        self.inner.plan.net.partitions.iter().any(|p| {
            ((p.a == a && p.b == b) || (p.a == b && p.b == a))
                && window >= p.from_window
                && window < p.until_window
        })
    }

    /// Is the named store host dead during `window`? Pure plan lookup — no
    /// RNG is consumed. Counted under `chaos.injected.net_shard_kill` once
    /// per frame the dead host would have answered.
    pub fn net_host_killed(&self, host: &str, window: u64) -> bool {
        let hit = self.net_host_killed_quiet(host, window);
        if hit {
            if let Some(m) = self.inner.metrics.get() {
                m.net_shard_kill.inc();
            }
            self.journal(Level::Error, "chaos: frame addressed to killed store host");
        }
        hit
    }

    /// [`ChaosInjector::net_host_killed`] without the fault accounting
    /// (no counter, no journal) — the ops-plane variant, matching
    /// [`ChaosInjector::net_partitioned_quiet`].
    pub fn net_host_killed_quiet(&self, host: &str, window: u64) -> bool {
        self.inner
            .plan
            .net
            .kills
            .iter()
            .any(|k| k.host == host && window >= k.from_window && window < k.until_window)
    }

    /// Should this frame in flight suffer a random fault, and which? One
    /// draw per call from the dedicated net stream; the drop and delay
    /// rates partition the unit interval. Zero rates consume no RNG.
    pub fn net_frame_fault(&self) -> Option<NetFrameFault> {
        let net = &self.inner.plan.net;
        let total = net.frame_drop_rate + net.frame_delay_rate;
        if total <= 0.0 {
            return None;
        }
        let u = self.inner.net_rng.lock().f64();
        let fault = if u < net.frame_drop_rate {
            NetFrameFault::Drop
        } else if u < total {
            NetFrameFault::Delay(net.frame_delay)
        } else {
            return None;
        };
        if let Some(m) = self.inner.metrics.get() {
            match fault {
                NetFrameFault::Drop => m.net_frame_drop.inc(),
                NetFrameFault::Delay(_) => m.net_frame_delay.inc(),
            }
        }
        self.journal(
            Level::Warn,
            match fault {
                NetFrameFault::Drop => "chaos: dropped store frame in flight",
                NetFrameFault::Delay(_) => "chaos: delayed store frame in flight",
            },
        );
        Some(fault)
    }

    /// Record that a planned crash window activated (called by the
    /// download module when the crash event fires).
    pub fn note_crash(&self) {
        if let Some(m) = self.inner.metrics.get() {
            m.crash.inc();
        }
        self.journal(Level::Error, "chaos: downloader crash window opened");
    }
}

impl std::fmt::Debug for ChaosInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosInjector")
            .field("plan", &self.inner.plan)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(n: usize, mut f: impl FnMut() -> T) -> Vec<T> {
        (0..n).map(|_| f()).collect()
    }

    #[test]
    fn quiet_plan_never_faults() {
        let chaos = ChaosInjector::new(FaultPlan::quiet(1));
        for _ in 0..1000 {
            assert!(!chaos.api_fault());
            assert!(chaos.cdn_fault().is_none());
            assert!(!chaos.drop_kv_write());
            assert!(!chaos.drop_object_write());
        }
    }

    #[test]
    fn fault_sequence_is_deterministic() {
        let seq = |seed| {
            let chaos = ChaosInjector::new(FaultPlan::default_plan(seed));
            (
                drain(500, || chaos.api_fault()),
                drain(500, || chaos.cdn_fault()),
            )
        };
        assert_eq!(seq(42), seq(42));
        assert_ne!(seq(42), seq(43));
    }

    #[test]
    fn streams_are_independent() {
        // Interleaving KV draws must not perturb the CDN fault sequence.
        let plain = {
            let chaos = ChaosInjector::new(FaultPlan {
                kv_write_drop_rate: 0.5,
                ..FaultPlan::default_plan(7)
            });
            drain(200, || chaos.cdn_fault())
        };
        let interleaved = {
            let chaos = ChaosInjector::new(FaultPlan {
                kv_write_drop_rate: 0.5,
                ..FaultPlan::default_plan(7)
            });
            drain(200, || {
                chaos.drop_kv_write();
                chaos.api_fault();
                chaos.cdn_fault()
            })
        };
        assert_eq!(plain, interleaved);
    }

    #[test]
    fn rates_are_respected() {
        let chaos = ChaosInjector::new(FaultPlan {
            api_5xx_rate: 0.3,
            cdn_timeout_rate: 0.2,
            cdn_truncate_rate: 0.1,
            cdn_corrupt_rate: 0.1,
            ..FaultPlan::quiet(11)
        });
        let n = 20_000;
        let api = (0..n).filter(|_| chaos.api_fault()).count();
        assert!((api as f64 / n as f64 - 0.3).abs() < 0.02);
        let faults: Vec<_> = (0..n).filter_map(|_| chaos.cdn_fault()).collect();
        let frac = faults.len() as f64 / n as f64;
        assert!((frac - 0.4).abs() < 0.02, "cdn fault fraction {frac}");
        let timeouts = faults.iter().filter(|f| **f == CdnFault::Timeout).count();
        assert!((timeouts as f64 / n as f64 - 0.2).abs() < 0.02);
    }

    #[test]
    fn metrics_count_injected_faults() {
        let registry = Registry::new();
        let chaos = ChaosInjector::new(FaultPlan {
            cdn_timeout_rate: 1.0,
            ..FaultPlan::quiet(3)
        });
        chaos.instrument(&registry);
        for _ in 0..5 {
            assert_eq!(chaos.cdn_fault(), Some(CdnFault::Timeout));
        }
        chaos.note_crash();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("chaos.injected.cdn_timeout"), Some(5));
        assert_eq!(snap.counter("chaos.injected.crash"), Some(1));
        // Every chaos counter is registered, fired or not.
        assert_eq!(snap.counter("chaos.injected.api_5xx"), Some(0));
        assert_eq!(snap.counter("chaos.injected.kv_write_drop"), Some(0));
    }

    #[test]
    fn injected_faults_are_journaled() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let chaos = ChaosInjector::new(FaultPlan {
            cdn_corrupt_rate: 1.0,
            ..FaultPlan::quiet(3)
        });
        chaos.set_trace(&tracer);
        assert_eq!(chaos.cdn_fault(), Some(CdnFault::Corrupted));
        chaos.note_crash();
        let (_, events) = tracer.records();
        let messages: Vec<&str> = events.iter().map(|e| e.message.as_str()).collect();
        assert_eq!(
            messages,
            vec![
                "chaos: injected CDN corrupted payload",
                "chaos: downloader crash window opened"
            ]
        );
        assert_eq!(events[0].level, Level::Warn);
        assert_eq!(events[1].level, Level::Error);
    }

    #[test]
    fn engine_kill_fires_exactly_once_per_window() {
        let registry = Registry::new();
        let chaos = ChaosInjector::new(FaultPlan {
            engine_kills: vec![EngineKill { window: 2 }],
            ..FaultPlan::quiet(9)
        });
        chaos.instrument(&registry);
        assert!(!chaos.engine_kill(0), "unplanned window is never killed");
        assert!(chaos.engine_kill(2), "planned window is killed");
        assert!(!chaos.engine_kill(2), "resumed window is not re-killed");
        assert_eq!(
            registry.snapshot().counter("chaos.injected.engine_kill"),
            Some(1)
        );
    }

    #[test]
    fn profile_faults_are_keyed_and_capped() {
        let registry = Registry::new();
        let chaos = ChaosInjector::new(FaultPlan::default_plan(7));
        chaos.instrument(&registry);
        // Pure function of (seed, key): same key, same count, regardless
        // of interleaved draws on the sequential API stream.
        let a = chaos.profile_faults("streamer_a");
        chaos.api_fault();
        assert_eq!(chaos.profile_faults("streamer_a"), a);
        // A certain rate hits the give-up cap.
        let certain = ChaosInjector::new(FaultPlan {
            api_5xx_rate: 1.0,
            ..FaultPlan::quiet(3)
        });
        assert_eq!(certain.profile_faults("anyone"), 5);
        // Quiet plans draw nothing and fault nobody.
        let quiet = ChaosInjector::new(FaultPlan::quiet(3));
        assert_eq!(quiet.profile_faults("anyone"), 0);
        // Keyed draws never perturb the sequential streams.
        let baseline = {
            let c = ChaosInjector::new(FaultPlan::default_plan(9));
            drain(200, || c.api_fault())
        };
        let interleaved = {
            let c = ChaosInjector::new(FaultPlan::default_plan(9));
            drain(200, || {
                c.profile_faults("someone");
                c.api_fault()
            })
        };
        assert_eq!(baseline, interleaved);
    }

    #[test]
    fn net_faults_follow_the_plan() {
        let registry = Registry::new();
        let chaos = ChaosInjector::new(FaultPlan {
            net: NetFault {
                frame_drop_rate: 1.0,
                partitions: vec![NetPartition {
                    a: "engine0".into(),
                    b: "shard1p".into(),
                    from_window: 2,
                    until_window: 4,
                }],
                kills: vec![HostKill {
                    host: "shard0p".into(),
                    from_window: 1,
                    until_window: 3,
                }],
                ..NetFault::quiet()
            },
            ..FaultPlan::quiet(21)
        });
        chaos.instrument(&registry);
        // Partition is symmetric and window-bounded.
        assert!(!chaos.net_partitioned("engine0", "shard1p", 1));
        assert!(chaos.net_partitioned("engine0", "shard1p", 2));
        assert!(chaos.net_partitioned("shard1p", "engine0", 3));
        assert!(!chaos.net_partitioned("engine0", "shard1p", 4));
        assert!(!chaos.net_partitioned("engine0", "shard0p", 2));
        // Kill is host- and window-bounded.
        assert!(!chaos.net_host_killed("shard0p", 0));
        assert!(chaos.net_host_killed("shard0p", 1));
        assert!(!chaos.net_host_killed("shard0p", 3));
        assert!(!chaos.net_host_killed("shard0r", 1));
        // Certain drop rate fires every draw.
        assert_eq!(chaos.net_frame_fault(), Some(NetFrameFault::Drop));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("chaos.injected.net_partition_drop"), Some(2));
        assert_eq!(snap.counter("chaos.injected.net_shard_kill"), Some(1));
        assert_eq!(snap.counter("chaos.injected.net_frame_drop"), Some(1));
        assert_eq!(snap.counter("chaos.injected.net_frame_delay"), Some(0));
    }

    #[test]
    fn net_stream_is_forked_last() {
        // Adding the net stream must not have perturbed the pre-existing
        // streams, and quiet net plans must not consume net draws.
        let chaos = ChaosInjector::new(FaultPlan::default_plan(7));
        let baseline = drain(200, || chaos.cdn_fault());
        let noisy = ChaosInjector::new(FaultPlan {
            net: NetFault {
                frame_drop_rate: 0.5,
                frame_delay_rate: 0.3,
                frame_delay: SimDuration::from_millis(5),
                ..NetFault::quiet()
            },
            ..FaultPlan::default_plan(7)
        });
        let interleaved = drain(200, || {
            noisy.net_frame_fault();
            noisy.cdn_fault()
        });
        assert_eq!(baseline, interleaved);
        // And the net stream itself is deterministic per seed.
        let seq = |seed| {
            let c = ChaosInjector::new(FaultPlan {
                net: NetFault {
                    frame_drop_rate: 0.4,
                    frame_delay_rate: 0.2,
                    frame_delay: SimDuration::from_millis(2),
                    ..NetFault::quiet()
                },
                ..FaultPlan::quiet(seed)
            });
            drain(300, || c.net_frame_fault())
        };
        assert_eq!(seq(13), seq(13));
        assert_ne!(seq(13), seq(14));
    }

    #[test]
    fn mangle_truncates_and_corrupts() {
        let original: Vec<u8> = (0..100).map(|i| i as u8).collect();

        let mut truncated = original.clone();
        CdnFault::Truncated.mangle(&mut truncated);
        assert_eq!(truncated, original[..50]);

        let mut corrupted = original.clone();
        CdnFault::Corrupted.mangle(&mut corrupted);
        assert_eq!(corrupted.len(), original.len());
        assert_ne!(corrupted, original);
        // Every third byte flips with 0xA5; the rest are untouched.
        for (i, (&c, &o)) in corrupted.iter().zip(&original).enumerate() {
            assert_eq!(c, if i % 3 == 0 { o ^ 0xA5 } else { o });
        }

        let mut untouched = original.clone();
        CdnFault::Timeout.mangle(&mut untouched);
        assert_eq!(untouched, original);
    }
}
