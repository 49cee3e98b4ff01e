//! Per-layer measurement from outside the program: a timed store backend
//! injected through `Tero::stores`, and timed calls into each layer's
//! public functions on the workload's own inputs.

use crate::stats::{median, quantile};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tero::core::analysis::{detect_anomalies, segment_stream};
use tero::core::imageproc::ImageProcessor;
use tero::core::location::LocationModule;
use tero::core::pipeline::TeroReport;
use tero::store::{
    apply_kv, apply_obj, KvRequest, KvResponse, KvStore, ObjRequest, ObjResponse, ObjectStore,
    RemoteStore,
};
use tero::types::TeroParams;
use tero::world::twitch::{render_thumbnail, CdnResponse};
use tero::world::World;

/// A store backend that times every operation it executes against a
/// pair of in-process stores.
#[derive(Default)]
pub struct TimedStore {
    kv: KvStore,
    objects: ObjectStore,
    kv_ns: AtomicU64,
    kv_ops: AtomicU64,
    obj_ns: AtomicU64,
    obj_ops: AtomicU64,
}

impl TimedStore {
    /// Facades over a fresh timed backend, ready for `Tero::stores`.
    pub fn facades(self: &Arc<Self>) -> (KvStore, ObjectStore) {
        let remote: Arc<dyn RemoteStore> = self.clone();
        (KvStore::remote(remote.clone()), ObjectStore::remote(remote))
    }

    /// The backing KV store, for reads that should not be timed.
    pub fn inner_kv(&self) -> KvStore {
        self.kv.clone()
    }

    /// `(mean KV op µs, KV ops, mean object op µs)` so far.
    pub fn totals(&self) -> (f64, u64, f64) {
        let mean = |ns: &AtomicU64, ops: &AtomicU64| {
            ns.load(Ordering::Relaxed) as f64 / 1e3 / ops.load(Ordering::Relaxed).max(1) as f64
        };
        (
            mean(&self.kv_ns, &self.kv_ops),
            self.kv_ops.load(Ordering::Relaxed),
            mean(&self.obj_ns, &self.obj_ops),
        )
    }
}

impl RemoteStore for TimedStore {
    fn kv(&self, req: KvRequest) -> KvResponse {
        let t = Instant::now();
        let resp = apply_kv(&self.kv, req);
        self.kv_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.kv_ops.fetch_add(1, Ordering::Relaxed);
        resp
    }

    fn obj(&self, req: ObjRequest) -> ObjResponse {
        let t = Instant::now();
        let resp = apply_obj(&self.objects, req);
        self.obj_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.obj_ops.fetch_add(1, Ordering::Relaxed);
        resp
    }
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Timed world and OCR calls over the thumbnails the workload's world
/// serves.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorldProbe {
    /// Median `TwitchSim::cdn_get`, µs.
    pub cdn_get_us: f64,
    /// Median `render_thumbnail`, µs.
    pub render_us: f64,
    /// Median `ImageProcessor::extract`, µs.
    pub extract_us: f64,
    /// p90 of the same, µs.
    pub extract_p90_us: f64,
}

/// Probe up to `n` sample instants spread over the world's streams;
/// OCR runs on every `ocr_every`-th rendered thumbnail.
pub fn probe_world(world: &World, n: usize, ocr_every: usize) -> WorldProbe {
    let mut instants = Vec::new();
    for (streamer, streams) in world.streamers().iter().zip(world.timelines()) {
        for stream in streams {
            for sample in &stream.samples {
                instants.push((streamer, stream.game, *sample));
            }
        }
    }
    let stride = (instants.len() / n.max(1)).max(1);
    let processor = ImageProcessor::new();
    let (mut cdn, mut render, mut extract) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (streamer, game, sample)) in instants.iter().step_by(stride).take(n).enumerate() {
        let url = format!("cdn://thumbs/{}", streamer.id.as_str());
        let t = Instant::now();
        let got = world.twitch.cdn_get(&url, sample.t);
        cdn.push(micros(t));
        std::hint::black_box(matches!(got, CdnResponse::Thumbnail { .. }));
        let t = Instant::now();
        let image = render_thumbnail(streamer, *game, sample);
        render.push(micros(t));
        if i % ocr_every.max(1) == 0 {
            let t = Instant::now();
            std::hint::black_box(processor.extract(&image, *game));
            extract.push(micros(t));
        }
    }
    WorldProbe {
        cdn_get_us: median(&cdn),
        render_us: median(&render),
        extract_us: median(&extract),
        extract_p90_us: quantile(&extract, 0.9),
    }
}

/// Median per-streamer `LocationModule::locate` over every streamer of
/// the world, µs.
pub fn locate_us(world: &World) -> f64 {
    let module = LocationModule::new(&world.gaz);
    let times: Vec<f64> = world
        .streamers()
        .iter()
        .map(|s| {
            let name = s.id.as_str();
            let t = Instant::now();
            std::hint::black_box(module.locate(
                name,
                world.twitch.profile_description(name).as_deref(),
                &world.social_directory,
                &[],
            ));
            micros(t)
        })
        .collect();
    median(&times)
}

/// Median per-series `segment_stream` plus `detect_anomalies`, replayed
/// over the report's stitched streams, µs.
pub fn series_us(report: &TeroReport) -> f64 {
    let params = TeroParams::default();
    let mut times = Vec::new();
    for series in report.streams.values() {
        for (i, s) in series.iter().enumerate() {
            let t = Instant::now();
            let segments = segment_stream(i, &s.samples, &params);
            std::hint::black_box(detect_anomalies(segments, &params));
            times.push(micros(t));
        }
    }
    median(&times)
}
