//! Fault-injection acceptance tests: the ingest pipeline under a
//! `tero-chaos` [`FaultPlan`] must degrade gracefully — bounded throughput
//! loss, zero panics, every injected fault visible in metrics, poison
//! entries quarantined, and bit-for-bit replayability.

use tero::chaos::{ChaosInjector, CrashWindow, FaultPlan};
use tero::core::download::{DownloadModule, DownloadStats, ThumbnailTask};
use tero::core::pipeline::{ExtractionMode, Tero};
use tero::obs::Registry;
use tero::store::{KvStore, ObjectStore};
use tero::types::{GameId, SimTime, StreamerId};
use tero::vision::scene::{THUMB_H, THUMB_W};
use tero::world::twitch::{CdnResponse, ThumbContent};
use tero::world::{World, WorldConfig};

fn chaos_world(seed: u64) -> World {
    World::build(WorldConfig {
        seed,
        n_streamers: 25,
        days: 2,
        ..WorldConfig::default()
    })
}

/// Run the download module alone against a world, optionally under a fault
/// plan, recording into `registry`.
fn run_download(world_seed: u64, plan: Option<FaultPlan>, registry: &Registry) -> DownloadStats {
    let mut world = chaos_world(world_seed);
    let kv = KvStore::new();
    let objects = ObjectStore::new();
    if let Some(plan) = plan {
        let injector = ChaosInjector::new(plan);
        injector.instrument(registry);
        kv.inject_faults(injector.clone());
        objects.inject_faults(injector.clone());
        world.install_chaos(injector);
    }
    let mut module = DownloadModule::new(kv, objects);
    module.instrument(registry);
    let horizon = world.horizon;
    module.run(&mut world, SimTime::EPOCH, horizon)
}

#[test]
fn default_fault_plan_retains_ninety_percent_throughput() {
    let clean = run_download(33, None, &Registry::new());
    let faulty = run_download(33, Some(FaultPlan::default_plan(7)), &Registry::new());
    assert!(clean.downloaded > 0);
    assert!(
        faulty.downloaded as f64 >= clean.downloaded as f64 * 0.9,
        "fault plan cost too much throughput: {} vs {} fault-free",
        faulty.downloaded,
        clean.downloaded
    );
    // The plan's faults actually fired — this was not a quiet run.
    assert!(faulty.api_errors > 0, "no API 5xx injected");
    assert!(faulty.cdn_faults > 0, "no CDN faults injected");
    assert!(faulty.retries > 0, "faults never triggered a retry");
    assert!(faulty.reassigned > 0, "crash window moved no streamers");
}

#[test]
fn every_fault_class_is_visible_in_metrics() {
    let plan = FaultPlan {
        seed: 99,
        api_5xx_rate: 0.05,
        cdn_timeout_rate: 0.05,
        cdn_truncate_rate: 0.03,
        cdn_corrupt_rate: 0.03,
        kv_write_drop_rate: 0.02,
        object_write_drop_rate: 0.02,
        crashes: vec![CrashWindow {
            downloader: 2,
            at: SimTime::from_hours(6),
            until: SimTime::from_hours(9),
        }],
        engine_kills: vec![],
        net: tero::chaos::NetFault::quiet(),
    };
    let registry = Registry::new();
    let stats = run_download(34, Some(plan), &registry);
    let snap = registry.snapshot();
    for metric in [
        "chaos.injected.api_5xx",
        "chaos.injected.cdn_timeout",
        "chaos.injected.cdn_truncated",
        "chaos.injected.cdn_corrupt",
        "chaos.injected.kv_write_drop",
        "chaos.injected.object_write_drop",
        "chaos.injected.crash",
    ] {
        assert!(
            snap.counter(metric).unwrap_or(0) > 0,
            "{metric} never moved under an all-faults plan"
        );
    }
    // Recovery-side metrics mirror the run stats.
    assert_eq!(snap.counter("download.api_errors"), Some(stats.api_errors));
    assert_eq!(snap.counter("download.retries"), Some(stats.retries));
    assert_eq!(snap.counter("download.reassigned"), Some(stats.reassigned));
    assert_eq!(
        snap.counter("download.breaker_open"),
        Some(stats.breaker_trips)
    );
    // And the run still made progress.
    assert!(stats.downloaded > 0, "pipeline collapsed under faults");
}

#[test]
fn dead_letter_depth_matches_poison_injected() {
    let kv = KvStore::new();
    let registry = Registry::new();
    let mut module = DownloadModule::new(kv.clone(), ObjectStore::new());
    module.instrument(&registry);
    let good = ThumbnailTask {
        streamer: StreamerId::new("finewolf"),
        game_label: GameId::Dota2,
        generated_at: SimTime::from_mins(5),
        object_key: "finewolf/300000000".into(),
    };
    let poison = ["", "a|b", "user|nogame|12|key", "u|dota2|notanumber|key"];
    kv.rpush("queue:thumbs", good.encode());
    for p in poison {
        kv.rpush("queue:thumbs", p.to_string());
    }
    let tasks = module.drain_tasks();
    assert_eq!(tasks, vec![good]);
    assert_eq!(module.dead_letter_depth(), poison.len());
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("download.dead_letter"),
        Some(poison.len() as u64)
    );
    assert_eq!(
        snap.counter("download.decode_failures"),
        Some(poison.len() as u64)
    );
    // Draining empties the quarantine in arrival order.
    assert_eq!(module.drain_dead_letters(), poison);
    assert_eq!(module.dead_letter_depth(), 0);
}

/// The operator recovery path: a task quarantined *because of a fault*
/// (its object was unreadable mid-plan) is reinjected by `requeue_dead`
/// once the plan ends, and then completes — it decodes off the live
/// queue and its thumbnail loads. Genuine poison stays quarantined.
#[test]
fn requeued_dead_letter_task_completes() {
    let kv = KvStore::new();
    let objects = ObjectStore::new();
    let mut module = DownloadModule::new(kv.clone(), objects.clone());
    module.instrument(&Registry::new());

    // A real thumbnail of a small world, so its stored descriptor renders.
    let world = World::build(WorldConfig {
        seed: 4,
        n_streamers: 5,
        days: 1,
        ..WorldConfig::default()
    });
    let (streamer, stream) = world
        .streamers()
        .iter()
        .zip(world.timelines())
        .find_map(|(s, tl)| {
            tl.iter()
                .find(|st| !st.samples.is_empty())
                .map(|st| (s, st))
        })
        .expect("a stream with thumbnails");
    let content = ThumbContent {
        streamer: streamer.id.clone(),
        generated_at: stream.samples[0].t,
        fault: None,
    };
    let task = ThumbnailTask {
        streamer: content.streamer.clone(),
        game_label: stream.game,
        generated_at: content.generated_at,
        object_key: content.object_key(),
    };
    // Mid-plan, the extract stage found the object unreadable and parked
    // the (perfectly well-formed) task; a malformed entry is parked too.
    module.dead_letter(task.encode());
    module.dead_letter("not|a|task");
    assert_eq!(module.dead_letter_depth(), 2);

    // The fault plan is over: the object is readable again.
    objects.put("thumbs", &task.object_key, content.encode());

    let (requeued, still_dead) = module.requeue_dead();
    assert_eq!((requeued, still_dead), (1, 1));
    assert_eq!(module.dead_letter_depth(), 1, "poison stays quarantined");

    // The requeued task completes: it drains off the live queue and its
    // thumbnail decodes.
    let tasks = module.drain_tasks();
    assert_eq!(tasks, vec![task.clone()]);
    let loaded = module
        .load_content(&task.object_key)
        .expect("requeued task's object loads");
    assert_eq!(loaded, content);
    let image = world.twitch.render(&loaded).expect("its thumbnail renders");
    assert_eq!((image.width, image.height), (THUMB_W, THUMB_H));
    // Requeueing did not re-count the entries as fresh quarantines, and
    // the decodable entry did not bump decode_failures on the way out.
    assert_eq!(module.dead_letter_depth(), 1);
    // A second sweep finds nothing new to requeue.
    assert_eq!(module.requeue_dead(), (0, 1));
}

#[test]
fn same_seed_and_plan_replay_byte_identical_stats() {
    let run = || run_download(35, Some(FaultPlan::default_plan(11)), &Registry::new());
    let a = serde_json::to_string(&run()).unwrap();
    let b = serde_json::to_string(&run()).unwrap();
    assert_eq!(a, b, "fault injection and recovery must be deterministic");
}

#[test]
fn breaker_trips_under_sustained_cdn_faults() {
    let plan = FaultPlan {
        cdn_timeout_rate: 0.9,
        ..FaultPlan::quiet(3)
    };
    let stats = run_download(36, Some(plan), &Registry::new());
    assert!(
        stats.breaker_trips > 0,
        "90% CDN timeouts must trip circuit breakers"
    );
    assert!(
        stats.downloaded > 0,
        "half-open probes must eventually recover"
    );
}

#[test]
fn full_pipeline_survives_default_faults() {
    let mut world = World::build(WorldConfig {
        seed: 9,
        n_streamers: 12,
        days: 2,
        ..WorldConfig::default()
    });
    world.install_chaos(ChaosInjector::new(FaultPlan::default_plan(5)));
    let tero = Tero {
        mode: ExtractionMode::FullOcr,
        min_streamers: 2,
        ..Tero::default()
    };
    let report = tero.run(&mut world);
    assert!(report.thumbnails > 0);
    assert!(report.extracted > 0, "faults must not sink the whole run");
    let snap = tero.metrics_snapshot();
    assert!(snap.counter("chaos.injected.api_5xx").unwrap_or(0) > 0);
    assert!(snap.counter("download.retries").unwrap_or(0) > 0);
    // Even with faults dead-lettering thumbnails mid-flight, the ledger
    // still conserves samples: everything ingested is either published or
    // carries a typed drop reason, and the totals equal the counters.
    let summary = tero
        .trace
        .ledger()
        .reconcile(&tero.obs)
        .expect("ledger reconciles under the default fault plan");
    assert_eq!(summary.ingested, report.thumbnails);
    assert_eq!(
        summary.published + summary.total_dropped(),
        summary.ingested,
        "every sample is published or carries a typed drop reason"
    );
}

/// The `chaos.injected.cdn_*` counters of a registry.
fn cdn_fault_counters(registry: &Registry) -> [Option<u64>; 3] {
    let snap = registry.snapshot();
    [
        snap.counter("chaos.injected.cdn_timeout"),
        snap.counter("chaos.injected.cdn_truncated"),
        snap.counter("chaos.injected.cdn_corrupt"),
    ]
}

/// HEAD is a pure lookup: it draws nothing from the chaos CDN stream, so
/// interleaving HEADs between GETs leaves the GET fault sequence and the
/// injected-fault counters exactly as they are without them.
#[test]
fn cdn_head_leaves_the_get_fault_sequence_alone() {
    let plan = FaultPlan {
        cdn_timeout_rate: 0.2,
        cdn_truncate_rate: 0.2,
        cdn_corrupt_rate: 0.2,
        ..FaultPlan::quiet(17)
    };
    let run = |with_heads: bool| {
        let mut world = chaos_world(37);
        let registry = Registry::new();
        let injector = ChaosInjector::new(plan.clone());
        injector.instrument(&registry);
        world.install_chaos(injector);
        let mut gets = Vec::new();
        for (streamer, timeline) in world.streamers().iter().zip(world.timelines()) {
            let url = format!("cdn://thumbs/{}", streamer.id.as_str());
            for sample in timeline.iter().flat_map(|st| st.samples.iter().take(4)) {
                if with_heads {
                    let head = world.twitch.cdn_head(&url, sample.t);
                    assert_eq!(head.map(|(at, _)| at), Some(sample.t), "HEAD never faults");
                }
                gets.push(format!("{:?}", world.twitch.cdn_get(&url, sample.t)));
            }
        }
        (gets, cdn_fault_counters(&registry))
    };
    let (plain, plain_counts) = run(false);
    let (interleaved, interleaved_counts) = run(true);
    assert!(plain.len() > 50);
    assert!(
        plain_counts.iter().all(|c| c.unwrap_or(0) > 0),
        "every CDN fault class fired: {plain_counts:?}"
    );
    assert_eq!(plain, interleaved);
    assert_eq!(plain_counts, interleaved_counts);
}

/// Under a plan where every GET times out, HEAD on a live URL still
/// answers: a timeout is a property of a fetch, not of the URL.
#[test]
fn cdn_head_answers_while_every_get_times_out() {
    let mut world = chaos_world(38);
    let registry = Registry::new();
    let injector = ChaosInjector::new(FaultPlan {
        cdn_timeout_rate: 1.0,
        ..FaultPlan::quiet(2)
    });
    injector.instrument(&registry);
    world.install_chaos(injector);
    let (url, samples) = world
        .streamers()
        .iter()
        .zip(world.timelines())
        .find_map(|(s, tl)| {
            tl.iter()
                .find(|st| st.samples.len() >= 2)
                .map(|st| (format!("cdn://thumbs/{}", s.id.as_str()), &st.samples))
        })
        .expect("a stream with two thumbnails");
    let t = samples[0].t;
    assert!(matches!(
        world.twitch.cdn_get(&url, t),
        CdnResponse::TimedOut
    ));
    assert_eq!(
        world.twitch.cdn_head(&url, t),
        Some((t, Some(samples[1].t)))
    );
    // Only the GET drew a fault.
    assert_eq!(cdn_fault_counters(&registry), [Some(1), Some(0), Some(0)]);
}
