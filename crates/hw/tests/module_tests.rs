//! Behavioral tests for every Genesis hardware library module, driven
//! through the cycle-level engine with sources and sinks.

mod common;

use common::SlowSink;
use genesis_hw::modules::alu::{AluOp, AluRhs, StreamAlu};
use genesis_hw::modules::binidgen::{BinIdGen, BinIdGenConfig};
use genesis_hw::modules::fanout::Fanout;
use genesis_hw::modules::filter::{CmpOp, Filter, Predicate};
use genesis_hw::modules::joiner::{JoinKind, Joiner};
use genesis_hw::modules::mdgen::{MdGen, MdGenConfig};
use genesis_hw::modules::mem_reader::{MemReader, MemReaderConfig, RowSpec};
use genesis_hw::modules::mem_writer::{MemWriter, MemWriterConfig};
use genesis_hw::modules::read_to_bases::{ReadToBases, ReadToBasesInputs};
use genesis_hw::modules::reducer::{ReduceOp, Reducer};
use genesis_hw::modules::sink::StreamSink;
use genesis_hw::modules::source::StreamSource;
use genesis_hw::modules::spm_reader::{SpmAddrReader, SpmReadMode, SpmReader};
use genesis_hw::modules::spm_updater::{RmwOp, SpmUpdateMode, SpmUpdater};
use genesis_hw::word::{Flit, HwWord};
use genesis_hw::System;
use genesis_types::{Base, Cigar, Qual};
use std::sync::Arc;

fn v(x: u64) -> HwWord {
    HwWord::Val(x)
}

/// Builds the per-read input flit streams ReadToBases expects.
fn read_streams(
    pos: u32,
    cigar: &str,
    seq: &str,
    qual: &[u8],
) -> (Vec<Flit>, Vec<Flit>, Vec<Flit>, Vec<Flit>) {
    let cigar: Cigar = cigar.parse().unwrap();
    let mut pos_f = vec![Flit::val(u64::from(pos)), Flit::end_item()];
    let _ = &mut pos_f;
    let mut cigar_f: Vec<Flit> = cigar
        .pack()
        .unwrap()
        .iter()
        .map(|&p| Flit::val(u64::from(p)))
        .collect();
    cigar_f.push(Flit::end_item());
    let mut seq_f: Vec<Flit> = Base::seq_from_str(seq)
        .unwrap()
        .iter()
        .map(|b| Flit::val(u64::from(b.code())))
        .collect();
    seq_f.push(Flit::end_item());
    let mut qual_f: Vec<Flit> = qual.iter().map(|&q| Flit::val(u64::from(q))).collect();
    qual_f.push(Flit::end_item());
    (pos_f, cigar_f, seq_f, qual_f)
}

#[test]
fn joiner_inner_matches_keys() {
    let mut sys = System::new();
    let l = sys.add_queue("l");
    let r = sys.add_queue("r");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_field_items(
        "l",
        l,
        &[vec![vec![v(1), v(10)], vec![v(3), v(30)], vec![v(5), v(50)]]],
    )));
    sys.add_module(Box::new(StreamSource::from_field_items(
        "r",
        r,
        &[vec![vec![v(2), v(200)], vec![v(3), v(300)], vec![v(5), v(500)], vec![v(6), v(600)]]],
    )));
    sys.add_module(Box::new(Joiner::new("j", JoinKind::Inner, l, r, o, 1, 1)));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(1000).unwrap();
    let items = sys.module_as::<StreamSink>(sink).unwrap().items();
    assert_eq!(items.len(), 1);
    assert_eq!(
        items[0],
        vec![
            Flit::data(&[v(3), v(30), v(300)]),
            Flit::data(&[v(5), v(50), v(500)]),
        ]
    );
}

#[test]
fn joiner_left_pads_unmatched() {
    let mut sys = System::new();
    let l = sys.add_queue("l");
    let r = sys.add_queue("r");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_field_items(
        "l",
        l,
        &[vec![vec![v(1), v(10)], vec![v(2), v(20)]]],
    )));
    sys.add_module(Box::new(StreamSource::from_field_items("r", r, &[vec![vec![v(2), v(200)]]])));
    sys.add_module(Box::new(Joiner::new("j", JoinKind::Left, l, r, o, 1, 1)));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(1000).unwrap();
    let items = sys.module_as::<StreamSink>(sink).unwrap().items();
    assert_eq!(
        items[0],
        vec![
            Flit::data(&[v(1), v(10), HwWord::Del]),
            Flit::data(&[v(2), v(20), v(200)]),
        ]
    );
}

#[test]
fn joiner_outer_keeps_both_sides() {
    let mut sys = System::new();
    let l = sys.add_queue("l");
    let r = sys.add_queue("r");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_field_items("l", l, &[vec![vec![v(1), v(10)]]])));
    sys.add_module(Box::new(StreamSource::from_field_items("r", r, &[vec![vec![v(2), v(200)]]])));
    sys.add_module(Box::new(Joiner::new("j", JoinKind::Outer, l, r, o, 1, 1)));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(1000).unwrap();
    let items = sys.module_as::<StreamSink>(sink).unwrap().items();
    assert_eq!(
        items[0],
        vec![
            Flit::data(&[v(1), v(10), HwWord::Del]),
            Flit::data(&[v(2), HwWord::Del, v(200)]),
        ]
    );
}

#[test]
fn joiner_ins_key_passes_left_join_and_drops_inner() {
    for (kind, expect_ins) in [(JoinKind::Left, true), (JoinKind::Inner, false)] {
        let mut sys = System::new();
        let l = sys.add_queue("l");
        let r = sys.add_queue("r");
        let o = sys.add_queue("o");
        sys.add_module(Box::new(StreamSource::from_field_items(
            "l",
            l,
            &[vec![vec![v(1), v(10)], vec![HwWord::Ins, v(99)], vec![v(2), v(20)]]],
        )));
        sys.add_module(Box::new(StreamSource::from_field_items(
            "r",
            r,
            &[vec![vec![v(1), v(100)], vec![v(2), v(200)]]],
        )));
        sys.add_module(Box::new(Joiner::new("j", kind, l, r, o, 1, 1)));
        let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
        sys.run(1000).unwrap();
        let items = sys.module_as::<StreamSink>(sink).unwrap().items();
        let has_ins = items[0].iter().any(|f| f.field(0) == HwWord::Ins);
        assert_eq!(has_ins, expect_ins, "{kind:?}");
        // Matched flits survive in both cases.
        assert!(items[0].contains(&Flit::data(&[v(2), v(20), v(200)])));
    }
}

#[test]
fn joiner_multiple_items_stay_aligned() {
    let mut sys = System::new();
    let l = sys.add_queue("l");
    let r = sys.add_queue("r");
    let o = sys.add_queue("o");
    // Keys restart per item, as reads restart positions per partition row.
    sys.add_module(Box::new(StreamSource::from_field_items(
        "l",
        l,
        &[vec![vec![v(5), v(1)]], vec![vec![v(2), v(2)]]],
    )));
    sys.add_module(Box::new(StreamSource::from_field_items(
        "r",
        r,
        &[vec![vec![v(5), v(11)]], vec![vec![v(2), v(22)]]],
    )));
    sys.add_module(Box::new(Joiner::new("j", JoinKind::Inner, l, r, o, 1, 1)));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(1000).unwrap();
    let items = sys.module_as::<StreamSink>(sink).unwrap().items();
    assert_eq!(items.len(), 2);
    assert_eq!(items[0], vec![Flit::data(&[v(5), v(1), v(11)])]);
    assert_eq!(items[1], vec![Flit::data(&[v(2), v(2), v(22)])]);
}

#[test]
fn filter_const_and_field_predicates() {
    let mut sys = System::new();
    let i = sys.add_queue("i");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_field_items(
        "src",
        i,
        &[vec![vec![v(1), v(1)], vec![v(2), v(3)], vec![v(4), v(4)]]],
    )));
    sys.add_module(Box::new(Filter::new("f", Predicate::fields(0, CmpOp::Eq, 1), i, o)));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(1000).unwrap();
    let items = sys.module_as::<StreamSink>(sink).unwrap().items();
    assert_eq!(items[0].len(), 2);
}

#[test]
fn filter_sentinels_count_as_not_equal() {
    // The metadata pipeline's mismatch filter must pass Ins/Del bases.
    let mut sys = System::new();
    let i = sys.add_queue("i");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_field_items(
        "src",
        i,
        &[vec![
            vec![v(0), v(0)],              // equal: dropped by Ne
            vec![HwWord::Del, v(0)],       // deletion: passes Ne
            vec![v(1), HwWord::Del],       // insertion padding: passes Ne
            vec![v(2), v(3)],              // mismatch: passes Ne
        ]],
    )));
    sys.add_module(Box::new(Filter::new("f", Predicate::fields(0, CmpOp::Ne, 1), i, o)));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(1000).unwrap();
    assert_eq!(sys.module_as::<StreamSink>(sink).unwrap().items()[0].len(), 3);
}

#[test]
fn reducer_sum_min_max_count_per_item() {
    for (op, expect) in [
        (ReduceOp::Sum, vec![6u64, 30]),
        (ReduceOp::Count, vec![3, 2]),
        (ReduceOp::Min, vec![1, 10]),
        (ReduceOp::Max, vec![3, 20]),
    ] {
        let mut sys = System::new();
        let i = sys.add_queue("i");
        let o = sys.add_queue("o");
        sys.add_module(Box::new(StreamSource::from_items(
            "src",
            i,
            &[vec![1, 2, 3], vec![10, 20]],
        )));
        sys.add_module(Box::new(Reducer::new("r", op, 0, i, o)));
        let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
        sys.run(1000).unwrap();
        let values: Vec<u64> = sys
            .sink_values(sink)
            .iter()
            .map(|w| w.as_val().unwrap())
            .collect();
        assert_eq!(values, expect, "{op:?}");
    }
}

#[test]
fn reducer_masked_sum() {
    let mut sys = System::new();
    let i = sys.add_queue("i");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_field_items(
        "src",
        i,
        &[vec![vec![v(5), v(1)], vec![v(7), v(0)], vec![v(9), v(1)]]],
    )));
    sys.add_module(Box::new(Reducer::new("r", ReduceOp::Sum, 0, i, o).with_mask(1)));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(1000).unwrap();
    assert_eq!(sys.sink_values(sink), vec![v(14)]);
}

#[test]
fn reducer_sum_skips_sentinels() {
    let mut sys = System::new();
    let i = sys.add_queue("i");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_field_items(
        "src",
        i,
        &[vec![vec![v(5)], vec![HwWord::Del], vec![v(2)]]],
    )));
    sys.add_module(Box::new(Reducer::new("r", ReduceOp::Sum, 0, i, o)));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(1000).unwrap();
    assert_eq!(sys.sink_values(sink), vec![v(7)]);
}

#[test]
fn alu_const_and_queue_operands() {
    let mut sys = System::new();
    let a = sys.add_queue("a");
    let b = sys.add_queue("b");
    let o1 = sys.add_queue("o1");
    let o2 = sys.add_queue("o2");
    sys.add_module(Box::new(StreamSource::from_items("a", a, &[vec![1, 2, 3]])));
    sys.add_module(Box::new(StreamSource::from_items("b", b, &[vec![10, 20, 30]])));
    sys.add_module(Box::new(StreamAlu::new("add", AluOp::Add, a, AluRhs::Queue(b), o1)));
    sys.add_module(Box::new(StreamAlu::new("x10", AluOp::Add, o1, AluRhs::Const(100), o2)));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o2)));
    sys.run(1000).unwrap();
    assert_eq!(sys.sink_values(sink), vec![v(111), v(122), v(133)]);
}

#[test]
fn alu_cmp_and_marker_propagation() {
    let mut sys = System::new();
    let a = sys.add_queue("a");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_field_items(
        "a",
        a,
        &[vec![vec![v(5)], vec![v(9)], vec![HwWord::Ins]]],
    )));
    sys.add_module(Box::new(StreamAlu::new("cmp", AluOp::CmpEq, a, AluRhs::Const(9), o)));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(1000).unwrap();
    assert_eq!(sys.sink_values(sink), vec![v(0), v(1), HwWord::Ins]);
}

#[test]
fn fanout_duplicates_stream() {
    let mut sys = System::new();
    let i = sys.add_queue("i");
    let o1 = sys.add_queue("o1");
    let o2 = sys.add_queue("o2");
    sys.add_module(Box::new(StreamSource::from_items("src", i, &[vec![1, 2]])));
    sys.add_module(Box::new(Fanout::new("fan", i, vec![o1, o2])));
    let s1 = sys.add_module(Box::new(StreamSink::new("s1", o1)));
    let s2 = sys.add_module(Box::new(StreamSink::new("s2", o2)));
    sys.run(1000).unwrap();
    assert_eq!(sys.sink_values(s1), sys.sink_values(s2));
    assert_eq!(sys.sink_values(s1), vec![v(1), v(2)]);
}

#[test]
fn mem_reader_streams_column_with_rows() {
    let mut sys = System::new();
    let addr = sys.alloc_mem(256);
    let data: Vec<u8> = (0..100u8).collect();
    sys.host_write(addr, &data);
    let port = sys.register_mem_port(0);
    let o = sys.add_queue("o");
    sys.add_module(Box::new(MemReader::new(
        "rd",
        MemReaderConfig {
            base_addr: addr,
            elem_bytes: 1,
            total_elems: 100,
            rows: RowSpec::Lens(Arc::new(vec![10, 0, 90])),
        },
        port,
        o,
    )));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(10_000).unwrap();
    let items = sys.module_as::<StreamSink>(sink).unwrap().items();
    assert_eq!(items.len(), 3);
    assert_eq!(items[0].len(), 10);
    assert_eq!(items[1].len(), 0);
    assert_eq!(items[2].len(), 90);
    assert_eq!(items[2][89], Flit::val(99));
}

#[test]
fn mem_reader_wide_elements() {
    let mut sys = System::new();
    let addr = sys.alloc_mem(64);
    let vals: Vec<u32> = vec![7, 70, 700, 70_000];
    let bytes: Vec<u8> = vals.iter().flat_map(|x| x.to_le_bytes()).collect();
    sys.host_write(addr, &bytes);
    let port = sys.register_mem_port(0);
    let o = sys.add_queue("o");
    sys.add_module(Box::new(MemReader::new(
        "rd",
        MemReaderConfig { base_addr: addr, elem_bytes: 4, total_elems: 4, rows: RowSpec::None },
        port,
        o,
    )));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(10_000).unwrap();
    assert_eq!(sys.sink_values(sink), vec![v(7), v(70), v(700), v(70_000)]);
}

#[test]
fn mem_writer_round_trip() {
    let mut sys = System::new();
    let addr = sys.alloc_mem(256);
    let port = sys.register_mem_port(0);
    let i = sys.add_queue("i");
    sys.add_module(Box::new(StreamSource::from_items(
        "src",
        i,
        &[vec![11, 22], vec![33, 44, 55]],
    )));
    let w = sys.add_module(Box::new(MemWriter::new(
        "wr",
        MemWriterConfig { base_addr: addr, elem_bytes: 2 },
        port,
        i,
    )));
    sys.run(10_000).unwrap();
    let bytes = sys.host_read(addr, 10);
    let vals: Vec<u16> = bytes.chunks(2).map(|c| u16::from_le_bytes([c[0], c[1]])).collect();
    assert_eq!(vals, vec![11, 22, 33, 44, 55]);
    let writer = sys.module_as::<MemWriter>(w).unwrap();
    assert_eq!(writer.elems_written(), 5);
    assert_eq!(writer.row_lens(), &[2, 3]);
}

#[test]
fn spm_updater_modes() {
    // Sequential.
    let mut sys = System::new();
    let spm = sys.add_spm("s", 8, 8);
    let i = sys.add_queue("i");
    sys.add_module(Box::new(StreamSource::from_items("src", i, &[vec![9, 8, 7]])));
    sys.add_module(Box::new(SpmUpdater::new(
        "u",
        spm,
        SpmUpdateMode::Sequential { base: 2 },
        0,
        0,
        i,
    )));
    sys.run(1000).unwrap();
    assert_eq!(&sys.spms().get(spm).contents()[..6], &[0, 0, 9, 8, 7, 0]);

    // Random.
    let mut sys = System::new();
    let spm = sys.add_spm("s", 8, 8);
    let i = sys.add_queue("i");
    sys.add_module(Box::new(StreamSource::from_field_items(
        "src",
        i,
        &[vec![vec![v(5), v(50)], vec![v(1), v(10)]]],
    )));
    sys.add_module(Box::new(SpmUpdater::new("u", spm, SpmUpdateMode::Random, 0, 1, i)));
    sys.run(1000).unwrap();
    assert_eq!(sys.spms().get(spm).contents()[5], 50);
    assert_eq!(sys.spms().get(spm).contents()[1], 10);
}

#[test]
fn spm_updater_rmw_increment_with_hazards() {
    let mut sys = System::new();
    let spm = sys.add_spm("counts", 4, 8);
    let i = sys.add_queue("i");
    // Repeated address 2 back-to-back provokes the RAW interlock.
    sys.add_module(Box::new(StreamSource::from_items("src", i, &[vec![2, 2, 2, 1, 2]])));
    let u = sys.add_module(Box::new(SpmUpdater::new(
        "u",
        spm,
        SpmUpdateMode::Rmw { op: RmwOp::Increment },
        0,
        0,
        i,
    )));
    sys.run(1000).unwrap();
    assert_eq!(sys.spms().get(spm).contents()[2], 4);
    assert_eq!(sys.spms().get(spm).contents()[1], 1);
    let updater = sys.module_as::<SpmUpdater>(u).unwrap();
    assert!(updater.hazard_stalls() > 0, "back-to-back same-address updates must stall");
    assert_eq!(updater.updates(), 5);
}

#[test]
fn spm_updater_skips_marker_addresses_and_forwards() {
    let mut sys = System::new();
    let spm = sys.add_spm("counts", 4, 8);
    let i = sys.add_queue("i");
    let f = sys.add_queue("f");
    sys.add_module(Box::new(StreamSource::from_field_items(
        "src",
        i,
        &[vec![vec![v(1)], vec![HwWord::Del], vec![v(1)]]],
    )));
    sys.add_module(Box::new(
        SpmUpdater::new("u", spm, SpmUpdateMode::Rmw { op: RmwOp::Increment }, 0, 0, i)
            .with_forward(f),
    ));
    let sink = sys.add_module(Box::new(StreamSink::new("s", f)));
    sys.run(1000).unwrap();
    assert_eq!(sys.spms().get(spm).contents()[1], 2);
    // Forwarding keeps the full stream, including the skipped flit.
    assert_eq!(sys.module_as::<StreamSink>(sink).unwrap().items()[0].len(), 3);
}

#[test]
fn spm_range_reader_streams_intervals() {
    let mut sys = System::new();
    let spm = sys.add_spm("ref", 16, 1);
    sys.spms_mut().get_mut(spm).fill_from(&[100, 101, 102, 103, 104, 105, 106, 107]);
    let qs = sys.add_queue("start");
    let qe = sys.add_queue("end");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_items("s", qs, &[vec![1002], vec![1005]])));
    sys.add_module(Box::new(StreamSource::from_items("e", qe, &[vec![1005], vec![1008]])));
    sys.add_module(Box::new(SpmReader::new(
        "rd",
        vec![spm],
        SpmReadMode::Range { start: qs, end: qe },
        1000,
        o,
    )));
    let sink = sys.add_module(Box::new(StreamSink::new("snk", o)));
    sys.run(1000).unwrap();
    let items = sys.module_as::<StreamSink>(sink).unwrap().items();
    assert_eq!(items.len(), 2);
    assert_eq!(items[0], vec![
        Flit::data(&[v(1002), v(102)]),
        Flit::data(&[v(1003), v(103)]),
        Flit::data(&[v(1004), v(104)]),
    ]);
    assert_eq!(items[1].len(), 3);
}

#[test]
fn spm_drain_reader_waits_for_trigger() {
    let mut sys = System::new();
    let spm = sys.add_spm("counts", 4, 8);
    sys.spms_mut().get_mut(spm).fill_from(&[5, 6, 7, 8]);
    let trig = sys.add_queue("trig");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_items("t", trig, &[vec![1, 2, 3]])));
    sys.add_module(Box::new(SpmReader::new(
        "drain",
        vec![spm],
        SpmReadMode::Drain { trigger: trig, len: 4 },
        0,
        o,
    )));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(1000).unwrap();
    let vals: Vec<(u64, u64)> = sys
        .module_as::<StreamSink>(sink)
        .unwrap()
        .items()[0]
        .iter()
        .map(|f| (f.field(0).val_or_zero(), f.field(1).val_or_zero()))
        .collect();
    assert_eq!(vals, vec![(0, 5), (1, 6), (2, 7), (3, 8)]);
}

#[test]
fn spm_addr_reader_multi_spm() {
    let mut sys = System::new();
    let a = sys.add_spm("a", 4, 1);
    let b = sys.add_spm("b", 4, 1);
    sys.spms_mut().get_mut(a).fill_from(&[10, 11, 12, 13]);
    sys.spms_mut().get_mut(b).fill_from(&[0, 1, 0, 1]);
    let i = sys.add_queue("i");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_items("src", i, &[vec![2, 3]])));
    sys.add_module(Box::new(SpmAddrReader::new("rd", vec![a, b], 0, i, o)));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(1000).unwrap();
    let items = sys.module_as::<StreamSink>(sink).unwrap().items();
    assert_eq!(items[0], vec![
        Flit::data(&[v(2), v(12), v(0)]),
        Flit::data(&[v(3), v(13), v(1)]),
    ]);
}

/// A lookup whose output is full reads nothing: behind a capacity-1 queue
/// and a sink popping every fifth cycle the reader is refused four cycles
/// in five, and the scratchpad still counts one read per emitted flit.
#[test]
fn spm_addr_reader_reads_once_per_emitted_flit_under_backpressure() {
    let mut sys = System::new();
    let a = sys.add_spm("a", 16, 1);
    sys.spms_mut().get_mut(a).fill_from(&(100..116).collect::<Vec<u64>>());
    let i = sys.add_queue("i");
    let o = sys.add_queue_with_capacity("o", 1);
    let addrs: Vec<u64> = (0..16).rev().collect();
    sys.add_module(Box::new(StreamSource::from_items("src", i, std::slice::from_ref(&addrs))));
    sys.add_module(Box::new(SpmAddrReader::new("rd", vec![a], 0, i, o)));
    let sink = sys.add_module(Box::new(SlowSink::new("s", o, 5)));
    let stats = sys.run(10_000).unwrap();
    let flits = sys.module_as::<SlowSink>(sink).unwrap().flits();
    let data: Vec<(u64, u64)> = flits
        .iter()
        .filter(|f| !f.is_end_item())
        .map(|f| (f.field(0).val_or_zero(), f.field(1).val_or_zero()))
        .collect();
    assert_eq!(data, addrs.iter().map(|&p| (p, 100 + p)).collect::<Vec<_>>());
    assert!(stats.backpressure_stalls > 2 * data.len() as u64, "the reader must be refused");
    assert_eq!(sys.spms().get(a).total_reads(), data.len() as u64);
}

#[test]
fn read_to_bases_matches_paper_figure3() {
    // Figure 3: POS=104, CIGAR=2S,3M,1I,1M,1D,2M, SEQ=AGGTAAACA,
    // QUAL=##9>>AAB? — output rows (104,G,9), (105,T,>), (106,A,>),
    // (Ins,A,A), (107,A,A), (108,Del,Del), (109,C,B), (110,A,?).
    let (pos_f, cigar_f, seq_f, qual_f) = read_streams(
        104,
        "2S3M1I1M1D2M",
        "AGGTAAACA",
        &Qual::seq_from_str("##9>>AAB?").unwrap().iter().map(|q| q.value()).collect::<Vec<_>>(),
    );
    let mut sys = System::new();
    let qp = sys.add_queue("pos");
    let qc = sys.add_queue("cigar");
    let qs = sys.add_queue("seq");
    let qq = sys.add_queue("qual");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_flits("pos", qp, pos_f)));
    sys.add_module(Box::new(StreamSource::from_flits("cigar", qc, cigar_f)));
    sys.add_module(Box::new(StreamSource::from_flits("seq", qs, seq_f)));
    sys.add_module(Box::new(StreamSource::from_flits("qual", qq, qual_f)));
    sys.add_module(Box::new(ReadToBases::new(
        "rtb",
        ReadToBasesInputs { pos: qp, cigar: qc, seq: qs, qual: Some(qq) },
        o,
    )));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(10_000).unwrap();
    let items = sys.module_as::<StreamSink>(sink).unwrap().items();
    assert_eq!(items.len(), 1);
    let rows: Vec<(HwWord, HwWord, HwWord)> =
        items[0].iter().map(|f| (f.field(0), f.field(1), f.field(2))).collect();
    let g = u64::from(Base::G.code());
    let t = u64::from(Base::T.code());
    let a = u64::from(Base::A.code());
    let c = u64::from(Base::C.code());
    let q = |ch: char| v(u64::from(Qual::from_phred33(ch as u8).unwrap().value()));
    assert_eq!(rows, vec![
        (v(104), v(g), q('9')),
        (v(105), v(t), q('>')),
        (v(106), v(a), q('>')),
        (HwWord::Ins, v(a), q('A')),
        (v(107), v(a), q('A')),
        (v(108), HwWord::Del, HwWord::Del),
        (v(109), v(c), q('B')),
        (v(110), v(a), q('?')),
    ]);
    // The seq-index field counts read bases including soft clips.
    assert_eq!(items[0][0].field(3), v(2));
    assert_eq!(items[0][7].field(3), v(8));
}

#[test]
fn read_to_bases_handles_multiple_reads_and_unmapped() {
    let (p1, c1, s1, q1) = read_streams(10, "2M", "AC", &[30, 31]);
    let (p2, c2, s2, q2) = read_streams(20, "1M1D1M", "GT", &[32, 33]);
    let concat = |a: Vec<Flit>, b: Vec<Flit>| {
        let mut out = a;
        out.extend(b);
        out
    };
    let mut sys = System::new();
    let qp = sys.add_queue("pos");
    let qc = sys.add_queue("cigar");
    let qs = sys.add_queue("seq");
    let qq = sys.add_queue("qual");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_flits("pos", qp, concat(p1, p2))));
    sys.add_module(Box::new(StreamSource::from_flits("cigar", qc, concat(c1, c2))));
    sys.add_module(Box::new(StreamSource::from_flits("seq", qs, concat(s1, s2))));
    sys.add_module(Box::new(StreamSource::from_flits("qual", qq, concat(q1, q2))));
    sys.add_module(Box::new(ReadToBases::new(
        "rtb",
        ReadToBasesInputs { pos: qp, cigar: qc, seq: qs, qual: Some(qq) },
        o,
    )));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(10_000).unwrap();
    let items = sys.module_as::<StreamSink>(sink).unwrap().items();
    assert_eq!(items.len(), 2);
    assert_eq!(items[0].len(), 2);
    assert_eq!(items[1].len(), 3); // M, D, M
    assert_eq!(items[1][1].field(1), HwWord::Del);
}

#[test]
fn mdgen_produces_paper_md_string() {
    // Figure 2 Read 1: MD is 1C6A3.
    // Joined stream: [pos, read_bp, qual, idx, ref_bp].
    let read = Base::seq_from_str("AGGTAACACGGTA").unwrap();
    let reference = Base::seq_from_str("ACGTAACCAGTA").unwrap();
    let mut flits = Vec::new();
    let mut ri = 0;
    for (i, &rb) in read.iter().enumerate() {
        if i == 7 {
            // Inserted base (1I at offset 7): ref side padding.
            flits.push(Flit::data(&[HwWord::Ins, v(u64::from(rb.code())), v(30), v(i as u64), HwWord::Del]));
        } else {
            flits.push(Flit::data(&[
                v(ri as u64),
                v(u64::from(rb.code())),
                v(30),
                v(i as u64),
                v(u64::from(reference[ri].code())),
            ]));
            ri += 1;
        }
    }
    flits.push(Flit::end_item());
    let mut sys = System::new();
    let i = sys.add_queue("i");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_flits("src", i, flits)));
    sys.add_module(Box::new(MdGen::new("md", MdGenConfig { read_field: 1, ref_field: 4 }, i, o)));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(10_000).unwrap();
    let md: String = sys
        .module_as::<StreamSink>(sink)
        .unwrap()
        .items()[0]
        .iter()
        .map(|f| f.field(0).val_or_zero() as u8 as char)
        .collect();
    assert_eq!(md, "1C6A3");
}

#[test]
fn mdgen_deletion_run() {
    // match, del(C), del(G), match  =>  "1^CG1"
    let flits = vec![
        Flit::data(&[v(0), v(0), v(30), v(0), v(0)]),
        Flit::data(&[v(1), HwWord::Del, HwWord::Del, HwWord::Del, v(1)]),
        Flit::data(&[v(2), HwWord::Del, HwWord::Del, HwWord::Del, v(2)]),
        Flit::data(&[v(3), v(3), v(30), v(1), v(3)]),
        Flit::end_item(),
    ];
    let mut sys = System::new();
    let i = sys.add_queue("i");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_flits("src", i, flits)));
    sys.add_module(Box::new(MdGen::new("md", MdGenConfig { read_field: 1, ref_field: 4 }, i, o)));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(10_000).unwrap();
    let md: String = sys
        .module_as::<StreamSink>(sink)
        .unwrap()
        .items()[0]
        .iter()
        .map(|f| f.field(0).val_or_zero() as u8 as char)
        .collect();
    assert_eq!(md, "1^CG1");
}

#[test]
fn binidgen_computes_paper_bin_ids() {
    // b1 = q * num_cycle_values + cycle; b2 = q * 16 + context.
    let read_len = 10u32;
    let flits = vec![
        // First base: no context -> b2 = Del.
        Flit::data(&[v(100), v(0), v(20), v(0)]), // A, q20, idx 0
        Flit::data(&[v(101), v(1), v(25), v(1)]), // C after A: ctx AC=1
        Flit::end_item(),
    ];
    let mut sys = System::new();
    let i = sys.add_queue("i");
    let fq = sys.add_queue("flags");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_flits("src", i, flits)));
    sys.add_module(Box::new(StreamSource::from_items("flags", fq, &[vec![0]])));
    sys.add_module(Box::new(BinIdGen::new(
        "bin",
        BinIdGenConfig::for_read_len(read_len),
        i,
        fq,
        o,
    )));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(10_000).unwrap();
    let items = sys.module_as::<StreamSink>(sink).unwrap().items();
    let rows = &items[0];
    assert_eq!(rows[0].field(3), v(20 * 20)); // q=20, cov=0, cycles=20
    assert_eq!(rows[0].field(4), HwWord::Del);
    assert_eq!(rows[1].field(3), v(25 * 20 + 1));
    assert_eq!(rows[1].field(4), v(25 * 16 + 1));
}

#[test]
fn binidgen_reverse_read_uses_upper_cycle_range() {
    let read_len = 10u32;
    let flits = vec![Flit::data(&[v(100), v(2), v(30), v(0)]), Flit::end_item()];
    let mut sys = System::new();
    let i = sys.add_queue("i");
    let fq = sys.add_queue("flags");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_flits("src", i, flits)));
    sys.add_module(Box::new(StreamSource::from_items("flags", fq, &[vec![1]])));
    sys.add_module(Box::new(BinIdGen::new(
        "bin",
        BinIdGenConfig::for_read_len(read_len),
        i,
        fq,
        o,
    )));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(10_000).unwrap();
    let items = sys.module_as::<StreamSink>(sink).unwrap().items();
    // idx 0 on a reverse read: machine cycle 9, covariate 9 + 10 = 19.
    assert_eq!(items[0][0].field(3), v(30 * 20 + 19));
}

#[test]
fn binidgen_drops_indel_flits() {
    let flits = vec![
        Flit::data(&[HwWord::Ins, v(0), v(20), v(0)]),          // insertion
        Flit::data(&[v(100), HwWord::Del, HwWord::Del, HwWord::Del]), // deletion
        Flit::data(&[v(101), v(1), v(25), v(1)]),
        Flit::end_item(),
    ];
    let mut sys = System::new();
    let i = sys.add_queue("i");
    let fq = sys.add_queue("flags");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_flits("src", i, flits)));
    sys.add_module(Box::new(StreamSource::from_items("flags", fq, &[vec![0]])));
    sys.add_module(Box::new(BinIdGen::new("bin", BinIdGenConfig::for_read_len(10), i, fq, o)));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(10_000).unwrap();
    let items = sys.module_as::<StreamSink>(sink).unwrap().items();
    assert_eq!(items[0].len(), 1);
    // Context after a deletion resets: b2 is Del.
    assert_eq!(items[0][0].field(4), HwWord::Del);
}

#[test]
fn to_dot_renders_wiring() {
    let mut sys = System::new();
    let i = sys.add_queue("in");
    let o = sys.add_queue("out");
    sys.add_module(Box::new(StreamSource::from_items("src", i, &[vec![1]])));
    sys.add_module(Box::new(Reducer::new("sum", ReduceOp::Sum, 0, i, o)));
    sys.add_module(Box::new(StreamSink::new("snk", o)));
    let dot = sys.to_dot("test pipeline");
    assert!(dot.starts_with("digraph"));
    assert!(dot.contains("m0 -> m1 [label=\"in\"]"));
    assert!(dot.contains("m1 -> m2 [label=\"out\"]"));
    assert!(dot.contains("Reducer"));
}

#[test]
fn many_readers_contend_for_channels() {
    // Eight readers across two arbiter groups streaming simultaneously:
    // channel and local-arbiter limits must slow the system down relative
    // to a single reader, and every byte must still arrive intact.
    let elems_per_reader = 512u64;
    let run = |n_readers: u32| -> (u64, Vec<Vec<HwWord>>) {
        let mut sys = System::new();
        let mut sinks = Vec::new();
        for r in 0..n_readers {
            let addr = sys.alloc_mem(elems_per_reader as usize);
            let data: Vec<u8> = (0..elems_per_reader).map(|i| (i % 251) as u8).collect();
            sys.host_write(addr, &data);
            let port = sys.register_mem_port(r / 4);
            let q = sys.add_queue("q");
            sys.add_module(Box::new(MemReader::new(
                "rd",
                MemReaderConfig {
                    base_addr: addr,
                    elem_bytes: 1,
                    total_elems: elems_per_reader,
                    rows: RowSpec::None,
                },
                port,
                q,
            )));
            sinks.push(sys.add_module(Box::new(StreamSink::new("s", q))));
        }
        let stats = sys.run(1_000_000).unwrap();
        let outs = sinks.iter().map(|&s| sys.sink_values(s)).collect();
        (stats.cycles, outs)
    };
    let (c1, outs1) = run(1);
    let (c8, outs8) = run(8);
    let expected: Vec<HwWord> =
        (0..elems_per_reader).map(|i| HwWord::Val(i % 251)).collect();
    for out in outs1.iter().chain(&outs8) {
        assert_eq!(out, &expected, "data corrupted under contention");
    }
    // Eight readers share 4 channels and 2 local arbiters: strictly slower
    // than one reader, but far better than 8x serial.
    assert!(c8 > c1, "contention must cost cycles ({c1} vs {c8})");
    assert!(c8 < 8 * c1, "parallel readers must overlap ({c1} vs {c8})");
}

#[test]
fn backpressure_propagates_from_a_slow_consumer() {
    // MDGen emits several bytes per mismatching base (a rate expansion),
    // so it consumes its input slower than the source produces: the input
    // queue must fill and the producer must record backpressure stalls,
    // with no data lost.
    let n = 200u64;
    let mut sys = System::new();
    let a = sys.add_queue("a");
    let b = sys.add_queue("b");
    // Every base mismatches (read base 0 vs ref base 1) -> "0C0C0C...".
    let mut flits: Vec<Flit> = (0..n)
        .map(|i| Flit::data(&[v(i), v(0), v(30), v(i), v(1)]))
        .collect();
    flits.push(Flit::end_item());
    sys.add_module(Box::new(StreamSource::from_flits("src", a, flits)));
    sys.add_module(Box::new(MdGen::new("md", MdGenConfig { read_field: 1, ref_field: 4 }, a, b)));
    let sink = sys.add_module(Box::new(StreamSink::new("s", b)));
    let stats = sys.run(100_000).unwrap();
    let md: String = sys
        .module_as::<StreamSink>(sink)
        .unwrap()
        .items()[0]
        .iter()
        .map(|f| f.field(0).val_or_zero() as u8 as char)
        .collect();
    // n mismatches with zero-length runs between them, trailing 0.
    assert_eq!(md.len() as u64, 2 * n + 1);
    assert!(md.starts_with("0C0C"));
    assert!(
        stats.backpressure_stalls > 0,
        "rate-expanding module must backpressure its producer"
    );
}
