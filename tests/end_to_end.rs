//! End-to-end integration tests: the full pipeline against the synthetic
//! platform, with ground-truth verification across crate boundaries.

use tero::core::pipeline::{ExtractionMode, Tero};
use tero::types::{AnonId, GameId};
use tero::world::{World, WorldConfig};

fn small_world(seed: u64) -> World {
    World::build(WorldConfig {
        seed,
        n_streamers: 35,
        days: 3,
        ..WorldConfig::default()
    })
}

/// Calibrated extraction never reads pixels, so none are stored: every
/// object-store write is a thumbnail's content descriptor, a few dozen
/// bytes, and no object is ever read back.
#[test]
fn calibrated_run_stores_no_pixels() {
    let mut world = small_world(72);
    let tero = Tero {
        mode: ExtractionMode::Calibrated,
        min_streamers: 3,
        ..Tero::default()
    };
    let report = tero.run(&mut world);
    let snap = tero.metrics_snapshot();
    let writes = snap.counter("store.object.writes").unwrap_or(0);
    let put_bytes = snap.counter("store.object.put_bytes").unwrap_or(0);
    assert!(report.thumbnails > 0);
    assert!(writes >= report.thumbnails, "{writes} writes");
    assert!(
        put_bytes <= 64 * writes,
        "{put_bytes} bytes over {writes} object writes: pixels were stored"
    );
    assert_eq!(snap.counter("store.object.reads"), Some(0));
}

#[test]
fn full_ocr_pipeline_produces_consistent_report() {
    let mut world = small_world(71);
    let tero = Tero {
        mode: ExtractionMode::FullOcr,
        min_streamers: 3,
        ..Tero::default()
    };
    let report = tero.run(&mut world);

    // The download module cannot invent thumbnails.
    assert!(report.thumbnails as usize <= world.total_samples());
    assert!(report.extracted <= report.thumbnails);
    // Extraction lands in a sane regime.
    let rate = report.extracted as f64 / report.thumbnails.max(1) as f64;
    assert!((0.3..1.0).contains(&rate), "extraction rate {rate}");
    // Streams partition extracted measurements.
    let in_streams: usize = report
        .streams
        .values()
        .flat_map(|s| s.iter())
        .map(|s| s.samples.len())
        .sum();
    assert_eq!(in_streams as u64, report.extracted);
    // Cleaning never grows the data.
    assert!(report.retained_measurements() <= in_streams);
    // TTL housekeeping ran: offline cooldowns (and any lapsed leases) are
    // swept by the coordinator on every poll.
    let snap = tero.metrics_snapshot();
    assert!(
        snap.counter("download.ttl_swept").unwrap_or(0) > 0,
        "expired TTL keys must be swept during the run"
    );
    // The provenance ledger accounts for every ingested sample and its
    // totals match the pipeline.funnel.* counters record-for-record.
    let summary = tero
        .trace
        .ledger()
        .reconcile(&tero.obs)
        .expect("ledger reconciles with the funnel counters");
    assert_eq!(summary.ingested, report.thumbnails);
    assert_eq!(
        summary.published + summary.total_dropped(),
        summary.ingested,
        "every sample is published or carries a typed drop reason"
    );
}

#[test]
fn located_streamers_match_ground_truth() {
    let mut world = small_world(72);
    let tero = Tero {
        mode: ExtractionMode::Calibrated,
        ..Tero::default()
    };
    let report = tero.run(&mut world);

    let mut checked = 0;
    let mut correct = 0;
    for streamer in world.streamers() {
        let anon = AnonId::from_streamer(&streamer.id, tero.salt);
        if let Some((loc, _source)) = report.locations.get(&anon) {
            checked += 1;
            let truth = &streamer.home.location;
            if loc == truth || loc.subsumes(truth) || truth.subsumes(loc) {
                correct += 1;
            }
        }
    }
    assert!(checked >= 5, "only {checked} located");
    let accuracy = correct as f64 / checked as f64;
    assert!(
        accuracy > 0.9,
        "location accuracy {accuracy} ({correct}/{checked})"
    );
}

#[test]
fn extracted_values_track_displayed_truth() {
    let mut world = small_world(73);
    let tero = Tero {
        mode: ExtractionMode::FullOcr,
        ..Tero::default()
    };
    let report = tero.run(&mut world);

    let mut correct = 0u64;
    let mut total = 0u64;
    for ((anon, _), series) in &report.streams {
        let Some(streamer) = world
            .streamers()
            .iter()
            .find(|s| AnonId::from_streamer(&s.id, tero.salt) == *anon)
        else {
            continue;
        };
        for s in series.iter().flat_map(|st| &st.samples) {
            if let Some(truth) = world.twitch.truth_sample(streamer.id.as_str(), s.at) {
                total += 1;
                if truth.displayed_ms == s.latency_ms {
                    correct += 1;
                }
            }
        }
    }
    assert!(total > 50, "joined {total} samples");
    let accuracy = correct as f64 / total as f64;
    assert!(accuracy > 0.85, "value accuracy {accuracy}");
}

#[test]
fn pipeline_is_deterministic() {
    let run = || {
        let mut world = small_world(74);
        let tero = Tero {
            mode: ExtractionMode::Calibrated,
            ..Tero::default()
        };
        let report = tero.run(&mut world);
        (
            report.thumbnails,
            report.extracted,
            report.locations.len(),
            report.retained_measurements(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn anonymisation_hides_usernames() {
    let mut world = small_world(75);
    let tero = Tero {
        mode: ExtractionMode::Calibrated,
        ..Tero::default()
    };
    let report = tero.run(&mut world);
    // No AnonId display ever contains a raw username.
    for anon in report.locations.keys() {
        let shown = anon.to_string();
        for streamer in world.streamers() {
            assert!(
                !shown.contains(streamer.id.as_str()),
                "anon id leaks username"
            );
        }
    }
}

#[test]
fn cluster_rejection_tightens_distributions() {
    // §3.1.2's opt-in: rejecting values outside the location's clusters can
    // only remove mass, never add it, and the summary stays ordered.
    let run = |reject: bool| {
        let mut world = small_world(77);
        let tero = Tero {
            mode: ExtractionMode::Calibrated,
            min_streamers: 2,
            reject_outside_clusters: reject,
            ..Tero::default()
        };
        tero.run(&mut world)
    };
    let plain = run(false);
    let filtered = run(true);
    assert_eq!(plain.distributions.len(), filtered.distributions.len());
    for (a, b) in plain.distributions.iter().zip(&filtered.distributions) {
        assert_eq!(a.location, b.location);
        assert!(
            b.values_ms.len() <= a.values_ms.len(),
            "{}: rejection must not add values",
            a.location
        );
        assert!(b.stats.p5 <= b.stats.p50 && b.stats.p50 <= b.stats.p95);
    }
}

#[test]
fn game_labels_are_among_known_games() {
    let mut world = small_world(76);
    let tero = Tero {
        mode: ExtractionMode::Calibrated,
        ..Tero::default()
    };
    let report = tero.run(&mut world);
    for (_, game) in report.streams.keys() {
        assert!(GameId::ALL.contains(game));
    }
}
