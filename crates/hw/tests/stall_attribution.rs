//! Stall-attribution invariants: for every module of every pipeline, the
//! five accounting buckets (active / input-starved / backpressured /
//! memory-wait / spill-wait) must sum exactly to the total simulated
//! cycles, and the recorded trace spans must tile the same timeline.

mod common;

use common::SlowSink;
use genesis_hw::modules::filter::{CmpOp, Filter, Predicate};
use genesis_hw::modules::mem_reader::{MemReader, MemReaderConfig, RowSpec};
use genesis_hw::modules::mem_writer::{MemWriter, MemWriterConfig};
use genesis_hw::modules::reducer::{ReduceOp, Reducer};
use genesis_hw::modules::sink::StreamSink;
use genesis_hw::modules::source::StreamSource;
use genesis_hw::{EngineMode, StallReport, System, TraceConfig};
use genesis_obs::SpanKind;

/// Asserts the core invariant on a finished system: every module's buckets
/// sum to the report's total cycles.
fn assert_invariant(report: &StallReport) {
    assert!(!report.modules.is_empty());
    for m in &report.modules {
        assert_eq!(
            m.counters.total(),
            report.total_cycles,
            "module {}: active {} + input {} + backpr {} + mem {} != total {}",
            m.label,
            m.counters.active,
            m.counters.input_starved,
            m.counters.backpressured,
            m.counters.memory_wait,
            report.total_cycles,
        );
    }
}

fn build_stream_chain(sys: &mut System) {
    let items: Vec<Vec<u64>> = (0..12).map(|i| (0..6).map(|j| i * 6 + j).collect()).collect();
    let q_src = sys.add_queue_with_capacity("src", 2);
    let q_flt = sys.add_queue_with_capacity("flt", 2);
    let q_out = sys.add_queue_with_capacity("out", 2);
    sys.add_module(Box::new(StreamSource::from_items("src", q_src, &items)));
    sys.add_module(Box::new(Filter::new(
        "flt",
        Predicate::field_const(0, CmpOp::Gt, 10),
        q_src,
        q_flt,
    )));
    sys.add_module(Box::new(Reducer::new("red", ReduceOp::Sum, 0, q_flt, q_out)));
    sys.add_module(Box::new(StreamSink::new("sink", q_out)));
}

fn build_memory_pipeline(sys: &mut System) {
    const ELEMS: u64 = 128;
    let input: Vec<u8> = (0..ELEMS)
        .flat_map(|i| u32::try_from(i % 97).unwrap().to_le_bytes())
        .collect();
    let in_base = sys.alloc_mem(input.len());
    let out_base = sys.alloc_mem((ELEMS / 8) as usize * 8);
    sys.host_write(in_base, &input);
    let rd_port = sys.register_mem_port(0);
    let wr_port = sys.register_mem_port(0);
    let q_rd = sys.add_queue_with_capacity("rd", 4);
    let q_sum = sys.add_queue_with_capacity("sum", 4);
    sys.add_module(Box::new(MemReader::new(
        "rd",
        MemReaderConfig {
            base_addr: in_base,
            elem_bytes: 4,
            total_elems: ELEMS,
            rows: RowSpec::Fixed(8),
        },
        rd_port,
        q_rd,
    )));
    sys.add_module(Box::new(Reducer::new("sum", ReduceOp::Sum, 0, q_rd, q_sum)));
    sys.add_module(Box::new(MemWriter::new(
        "wr",
        MemWriterConfig { base_addr: out_base, elem_bytes: 8 },
        wr_port,
        q_sum,
    )));
}

#[test]
fn stream_chain_buckets_sum_to_total() {
    let mut sys = System::new();
    build_stream_chain(&mut sys);
    sys.run(50_000).expect("pipeline drains");
    let report = sys.stall_report();
    assert_eq!(report.total_cycles, sys.cycle());
    assert_invariant(&report);
    // Tiny queues force at least some park somewhere in the chain.
    assert!(report.totals().parked() > 0, "expected some parked cycles:\n{report}");
}

#[test]
fn memory_pipeline_attributes_memory_waits() {
    let mut sys = System::new();
    build_memory_pipeline(&mut sys);
    sys.run(1_000_000).expect("pipeline drains");
    let report = sys.stall_report();
    assert_invariant(&report);
    let rd = report.modules.iter().find(|m| m.label == "rd").unwrap();
    assert!(
        rd.counters.memory_wait > 0,
        "memory reader should wait out latency windows:\n{report}"
    );
}

#[test]
fn reference_engine_reports_all_cycles_active() {
    let mut sys = System::new();
    sys.set_engine(EngineMode::Reference);
    build_stream_chain(&mut sys);
    sys.run(50_000).expect("pipeline drains");
    let report = sys.stall_report();
    assert_invariant(&report);
    for m in &report.modules {
        assert_eq!(m.counters.parked(), 0, "reference engine never parks ({})", m.label);
        assert_eq!(m.counters.active, report.total_cycles);
    }
}

#[test]
fn deadlock_exit_still_satisfies_invariant() {
    let mut sys = System::new();
    let q = sys.add_queue("never-closed");
    sys.add_module(Box::new(StreamSink::new("sink", q)));
    sys.run(u64::MAX >> 2).expect_err("deadlocks");
    assert_invariant(&sys.stall_report());
}

/// Asserts that, per module, the recorded spans do not overlap and their
/// active / stall durations equal the attribution buckets.
fn assert_spans_tile(sys: &System, report: &StallReport) {
    let trace = sys.trace().expect("tracing enabled");
    assert_eq!(trace.dropped_spans(), 0, "ring large enough for this run");
    assert_eq!(trace.tracks().len(), report.modules.len());
    for (track, m) in report.modules.iter().enumerate() {
        let mut active = 0u64;
        let mut stalled = 0u64;
        let mut spans: Vec<_> =
            trace.spans().filter(|s| s.track == track as u32).collect();
        spans.sort_by_key(|s| s.start);
        let mut prev_end = 0u64;
        for s in &spans {
            assert!(s.start >= prev_end, "overlapping spans on track {track}");
            assert!(s.end <= sys.cycle());
            prev_end = s.end;
            match s.kind {
                SpanKind::Active => active += s.end - s.start,
                SpanKind::Stall(_) => stalled += s.end - s.start,
            }
        }
        assert_eq!(active, m.counters.active, "active spans tile bucket ({})", m.label);
        assert_eq!(stalled, m.counters.parked(), "stall spans tile buckets ({})", m.label);
    }
}

#[test]
fn trace_spans_tile_the_attribution() {
    let mut sys = System::new();
    sys.set_trace(TraceConfig::on());
    build_memory_pipeline(&mut sys);
    sys.run(1_000_000).expect("pipeline drains");
    let report = sys.stall_report();
    assert_invariant(&report);
    assert_spans_tile(&sys, &report);
    // Queue-depth samples were captured for the sampled strides.
    assert!(sys.trace().expect("tracing enabled").samples().count() > 0);
}

/// A module refused by a full output is *backpressured*, not active: the
/// refused pushes of a producer in front of a slow consumer accrue to the
/// backpressure bucket (as one park interval each, credited in closed
/// form), and the buckets and spans still tile.
#[test]
fn refused_pushes_are_attributed_to_backpressure() {
    let mut sys = System::new();
    sys.set_trace(TraceConfig::on());
    let q = sys.add_queue_with_capacity("q", 2);
    let items: Vec<Vec<u64>> = vec![(0..40).collect()];
    sys.add_module(Box::new(StreamSource::from_items("src", q, &items)));
    sys.add_module(Box::new(SlowSink::new("sink", q, 8)));
    let stats = sys.run(50_000).expect("pipeline drains");
    let report = sys.stall_report();
    assert_invariant(&report);
    assert_spans_tile(&sys, &report);
    let src = report.modules.iter().find(|m| m.label == "src").unwrap().counters;
    assert!(src.backpressured > 0, "blocked producer must read as backpressured:\n{report}");
    // Seven of every eight cycles the source spends alive are refusals.
    assert!(src.backpressured > src.active, "{report}");
    assert!(src.backpressured <= stats.backpressure_stalls, "an interval per refusal: {report}");
    assert_eq!(src.input_starved + src.memory_wait + src.spill_wait, 0, "{report}");
}

#[test]
fn tracing_does_not_change_results_or_stats() {
    let run = |trace: bool| {
        let mut sys = System::new();
        if trace {
            sys.set_trace(TraceConfig::on());
        }
        build_stream_chain(&mut sys);
        let stats = sys.run(50_000).expect("pipeline drains");
        (stats, sys.cycle())
    };
    assert_eq!(run(false), run(true), "tracing must be observation-only");
}
