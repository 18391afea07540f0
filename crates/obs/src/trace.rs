//! Trace configuration and the per-system recording buffer.

use crate::chrome::ChromeTrace;
use crate::span::{Ring, Sample, Span, SpanKind};
use std::path::PathBuf;

/// Default span-ring capacity (per simulated system).
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;
/// Default queue-sample ring capacity (per simulated system).
pub const DEFAULT_SAMPLE_CAPACITY: usize = 1 << 16;
/// Default queue-depth sampling stride in cycles.
pub const DEFAULT_SAMPLE_STRIDE: u64 = 64;

/// Opt-in tracing knobs for a simulated `System` (and, through
/// `DeviceConfig`, for every batch system an accelerator spawns).
///
/// Tracing is off by default and costs nothing when off: the engine's
/// always-on stall attribution is event-based (one bookkeeping update per
/// park/unpark, not per cycle), and span/counter recording only happens
/// when [`TraceConfig::enabled`] is set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch for span + queue-depth recording.
    pub enabled: bool,
    /// Capacity of the per-system span ring (oldest spans are dropped
    /// beyond this).
    pub span_capacity: usize,
    /// Capacity of the per-system queue-sample ring.
    pub sample_capacity: usize,
    /// Queue depths are sampled every this many cycles (only changed depths
    /// are recorded).
    pub sample_stride: u64,
    /// Where the merged Chrome trace is written after a run (a sibling
    /// `<path>.stalls.txt` flame table is written next to it).
    pub path: Option<PathBuf>,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig::off()
    }
}

impl TraceConfig {
    /// Tracing disabled (the default).
    #[must_use]
    pub fn off() -> TraceConfig {
        TraceConfig {
            enabled: false,
            span_capacity: DEFAULT_SPAN_CAPACITY,
            sample_capacity: DEFAULT_SAMPLE_CAPACITY,
            sample_stride: DEFAULT_SAMPLE_STRIDE,
            path: None,
        }
    }

    /// Tracing enabled with default capacities and no export path (read the
    /// buffer programmatically).
    #[must_use]
    pub fn on() -> TraceConfig {
        TraceConfig { enabled: true, ..TraceConfig::off() }
    }

    /// Tracing enabled with a Chrome-trace export path.
    #[must_use]
    pub fn to_path(path: impl Into<PathBuf>) -> TraceConfig {
        TraceConfig { enabled: true, path: Some(path.into()), ..TraceConfig::off() }
    }
}

/// The recording target one simulated system fills during a run: a span
/// ring per the module tracks and a sample ring over the queue counter
/// tracks, plus the track/counter name tables needed for export.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    cfg: TraceConfig,
    tracks: Vec<String>,
    counters: Vec<String>,
    spans: Ring<Span>,
    samples: Ring<Sample>,
}

impl TraceBuffer {
    /// Creates an empty buffer with the configured ring capacities.
    #[must_use]
    pub fn new(cfg: TraceConfig) -> TraceBuffer {
        let spans = Ring::new(cfg.span_capacity.max(1));
        let samples = Ring::new(cfg.sample_capacity.max(1));
        TraceBuffer { cfg, tracks: Vec::new(), counters: Vec::new(), spans, samples }
    }

    /// The configuration this buffer was created with.
    #[must_use]
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Installs the module-track name table (module registration order).
    pub fn set_tracks(&mut self, labels: Vec<String>) {
        self.tracks = labels;
    }

    /// Installs the counter-track name table (queue registration order).
    pub fn set_counters(&mut self, names: Vec<String>) {
        self.counters = names;
    }

    /// Module-track names.
    #[must_use]
    pub fn tracks(&self) -> &[String] {
        &self.tracks
    }

    /// Counter-track names.
    #[must_use]
    pub fn counters(&self) -> &[String] {
        &self.counters
    }

    /// Records a completed span; zero-length spans are ignored.
    pub fn record_span(&mut self, track: u32, kind: SpanKind, start: u64, end: u64) {
        if end > start {
            self.spans.push(Span { track, start, end, kind });
        }
    }

    /// Records a queue-depth sample.
    pub fn record_sample(&mut self, counter: u32, cycle: u64, value: u64) {
        self.samples.push(Sample { counter, cycle, value });
    }

    /// Retained spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Spans evicted from the ring (they were older than the retained
    /// window).
    #[must_use]
    pub fn dropped_spans(&self) -> u64 {
        self.spans.dropped()
    }

    /// Samples evicted from the ring.
    #[must_use]
    pub fn dropped_samples(&self) -> u64 {
        self.samples.dropped()
    }

    /// Appends this buffer's contents to a Chrome trace under process id
    /// `pid` (one process per batch system, one thread per module track,
    /// one counter track per queue that was ever sampled).
    pub fn append_chrome(&self, out: &mut ChromeTrace, pid: u32, process_name: &str) {
        out.process_name(pid, process_name);
        for (tid, label) in self.tracks.iter().enumerate() {
            out.thread_name(pid, tid as u32, label);
        }
        for s in self.spans.iter() {
            let cat = match s.kind {
                SpanKind::Active => "active",
                SpanKind::Stall(_) => "stall",
            };
            out.complete(pid, s.track, s.kind.name(), cat, s.start, s.end - s.start);
        }
        let unnamed = String::new();
        for s in self.samples.iter() {
            let qname = self.counters.get(s.counter as usize).unwrap_or(&unnamed);
            out.counter(pid, &format!("queue:{qname}"), "depth", s.cycle, s.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn buffer_to_chrome() {
        let mut buf = TraceBuffer::new(TraceConfig::on());
        buf.set_tracks(vec!["src".into(), "sink".into()]);
        buf.set_counters(vec!["q".into()]);
        buf.record_span(0, SpanKind::Active, 0, 10);
        buf.record_span(1, SpanKind::Stall(crate::StallClass::InputStarved), 0, 4);
        buf.record_span(0, SpanKind::Active, 10, 10); // zero-length: dropped
        buf.record_sample(0, 5, 3);
        let mut ct = ChromeTrace::new();
        buf.append_chrome(&mut ct, 7, "batch 7");
        let parsed = Json::parse(&ct.to_json()).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_array).unwrap();
        // 1 process name + 2 thread names + 2 spans + 1 counter.
        assert_eq!(events.len(), 6);
        assert!(events
            .iter()
            .all(|e| e.get("pid").and_then(Json::as_u64) == Some(7)));
    }
}
