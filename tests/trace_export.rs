//! End-to-end Chrome-trace export: run the real metadata-update
//! accelerator with tracing enabled, then parse the exported trace-event
//! JSON back and check its structure (non-empty module tracks, well-nested
//! spans, counter samples) plus the sibling flame table; and a traced
//! two-device server, whose devices' tracing also writes the server's own
//! trace of where each shard ran.

use genesis::core::accel::metadata::accelerated_metadata_update;
use genesis::core::device::DeviceConfig;
use genesis::core::serve::{GenesisServer, Request, ServerConfig};
use genesis::datagen::{DatagenConfig, Dataset};
use genesis::obs::json::Json;
use genesis::obs::TraceConfig;
use genesis_bench::scenarios::genomics_catalog;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

fn unique_tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("genesis_{}_{}", std::process::id(), name))
}

#[test]
fn metadata_run_exports_parseable_chrome_trace() {
    let trace_path = unique_tmp("trace_export.json");
    let stalls_path = PathBuf::from(format!("{}.stalls.txt", trace_path.display()));

    let dataset =
        Dataset::generate(&DatagenConfig::tiny().with_reads(120).with_chrom_len(8_000));
    let mut reads = dataset.reads.clone();
    let device = DeviceConfig::small().with_trace(TraceConfig::to_path(&trace_path));
    let result = accelerated_metadata_update(&mut reads, &dataset.genome, &device)
        .expect("metadata accel");
    assert!(result.stats.active_cycles > 0, "stall roll-up reaches AccelStats");

    // The exported file is valid trace-event JSON.
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let parsed = Json::parse(&text).expect("valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Module tracks are named and non-empty: thread_name metadata exists,
    // and every span's (pid, tid) belongs to a named track.
    let mut named_tracks = BTreeSet::new();
    let mut spans: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
    let mut counter_samples = 0usize;
    for e in events {
        match e.get("ph").and_then(Json::as_str) {
            Some("M") if e.get("name").and_then(Json::as_str) == Some("thread_name") => {
                named_tracks.insert((
                    e.get("pid").and_then(Json::as_u64).unwrap(),
                    e.get("tid").and_then(Json::as_u64).unwrap(),
                ));
            }
            Some("X") => {
                let key = (
                    e.get("pid").and_then(Json::as_u64).unwrap(),
                    e.get("tid").and_then(Json::as_u64).unwrap(),
                );
                let ts = e.get("ts").and_then(Json::as_u64).unwrap();
                let dur = e.get("dur").and_then(Json::as_u64).unwrap();
                assert!(dur > 0, "zero-length spans are never exported");
                spans.entry(key).or_default().push((ts, ts + dur));
            }
            Some("C") => counter_samples += 1,
            _ => {}
        }
    }
    assert!(!named_tracks.is_empty(), "module tracks are named");
    assert!(!spans.is_empty(), "module tracks carry spans");
    assert!(counter_samples > 0, "queue-depth counter samples exported");
    for key in spans.keys() {
        assert!(named_tracks.contains(key), "span on unnamed track {key:?}");
    }

    // Spans are well-nested per track: ours are flat sequential slices, so
    // sorted by start they must not overlap.
    for ((pid, tid), track) in &mut spans {
        track.sort_unstable();
        for w in track.windows(2) {
            assert!(
                w[1].0 >= w[0].1,
                "overlapping spans on pid {pid} tid {tid}: {w:?}"
            );
        }
    }

    // The sibling flame table rode along.
    let table = std::fs::read_to_string(&stalls_path).expect("flame table written");
    assert!(table.contains("module"));
    assert!(table.contains("active%"));

    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&stalls_path);
}

/// One exported trace event.
struct Event {
    ph: String,
    /// `(pid, tid)`.
    track: (u64, u64),
    /// `[ts, ts + dur)`, for a span.
    span: Option<(u64, u64)>,
}

fn events_of(path: &std::path::Path) -> Vec<Event> {
    let text = std::fs::read_to_string(path).expect("trace file written");
    let parsed = Json::parse(&text).expect("valid JSON");
    let events = parsed.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
    events
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).and_then(Json::as_u64);
            let ph = e.get("ph").and_then(Json::as_str).unwrap().to_owned();
            let span = field("dur").map(|dur| (field("ts").unwrap(), field("ts").unwrap() + dur));
            Event { ph, track: (field("pid").unwrap(), field("tid").unwrap_or(0)), span }
        })
        .collect()
}

#[test]
fn traced_two_device_server_exports_its_schedule() {
    let trace_path = unique_tmp("server_trace.json");
    let sibling = |suffix: &str| PathBuf::from(format!("{}{suffix}", trace_path.display()));
    let device = DeviceConfig::small().with_trace(TraceConfig::to_path(&trace_path));
    let server = GenesisServer::new(ServerConfig::default().with_devices(2, device).with_shards(2));
    server.register_script("coverage", include_str!("../scripts/coverage.sql")).unwrap();
    server.register_script("starts", include_str!("../scripts/read_starts.sql")).unwrap();
    let catalog = genomics_catalog();
    let tickets: Vec<_> = ["coverage", "starts", "coverage", "starts", "starts"]
        .into_iter()
        .map(|script| server.submit(Request::script("t", script), &catalog).unwrap())
        .collect();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    let log = server.schedule_log();
    drop(server);

    // One named track per device, one span per dispatched shard, and the
    // spans on each track disjoint.
    let events = events_of(&sibling(".server.json"));
    let tracks: BTreeSet<_> =
        events.iter().filter(|e| e.ph == "M" && e.track.1 > 0).map(|e| e.track).collect();
    assert_eq!(tracks, BTreeSet::from([(1, 1), (1, 2)]), "one track per device");
    let mut spans: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
    for e in events.iter().filter(|e| e.ph == "X") {
        assert!(tracks.contains(&e.track), "span on unnamed track {:?}", e.track);
        spans.entry(e.track).or_default().push(e.span.unwrap());
    }
    assert_eq!(spans.values().map(Vec::len).sum::<usize>(), log.len(), "one span per record");
    assert!(log.iter().any(|r| r.shards > 1), "the genomics jobs shard");
    for (track, track_spans) in &mut spans {
        track_spans.sort_unstable();
        for w in track_spans.windows(2) {
            assert!(w[1].0 >= w[0].1, "overlapping spans on {track:?}: {w:?}");
        }
    }

    // The devices' own engine trace and flame table rode along.
    assert!(events_of(&trace_path).iter().any(|e| e.ph == "X"), "engine spans exported");
    let table = std::fs::read_to_string(sibling(".stalls.txt")).expect("flame table written");
    assert!(table.contains("module") && table.contains("active%"));

    for suffix in ["", ".server.json", ".stalls.txt"] {
        let _ = std::fs::remove_file(sibling(suffix));
    }
}
