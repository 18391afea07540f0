//! Behavioral tests for every Genesis hardware library module, driven
//! through the cycle-level engine with sources and sinks.

mod common;

use common::{contract, Contract, Counted, SlowSink, SlowSource};
use genesis_hw::modules::alu::{AluOp, AluRhs, StreamAlu};
use genesis_hw::modules::binidgen::{BinIdGen, BinIdGenConfig};
use genesis_hw::modules::fanout::Fanout;
use genesis_hw::modules::filter::{CmpOp, Filter, Predicate};
use genesis_hw::modules::joiner::{JoinKind, Joiner};
use genesis_hw::modules::mdgen::{MdGen, MdGenConfig};
use genesis_hw::modules::mem_reader::{MemReader, MemReaderConfig, RowSpec};
use genesis_hw::modules::mem_writer::{MemWriter, MemWriterConfig, WriterColumn};
use genesis_hw::modules::read_to_bases::{ReadToBases, ReadToBasesInputs};
use genesis_hw::modules::reducer::{ReduceOp, Reducer};
use genesis_hw::modules::sink::StreamSink;
use genesis_hw::modules::source::StreamSource;
use genesis_hw::modules::spm_reader::{SpmAddrReader, SpmReadMode, SpmReader};
use genesis_hw::modules::spm_updater::{RmwOp, SpmUpdateMode, SpmUpdater};
use genesis_hw::system::ModuleId;
use genesis_hw::word::{Flit, HwWord};
use genesis_hw::{EngineMode, SimStats, System, TierParams, TierStats};
use genesis_types::{Base, Cigar, CigarElem, CigarOp, Qual};
use proptest::prelude::*;
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
fn alu_chains_const_operands() {
    let mut sys = System::new();
    let a = sys.add_queue("a");
    let o1 = sys.add_queue("o1");
    let o2 = sys.add_queue("o2");
    sys.add_module(Box::new(StreamSource::from_items("a", a, &[vec![1, 2, 3]])));
    sys.add_module(Box::new(StreamAlu::new("add", AluOp::Add, a, 0, AluRhs::Const(10), o1)));
    sys.add_module(Box::new(StreamAlu::new("x10", AluOp::Add, o1, 0, AluRhs::Const(100), o2)));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o2)));
    sys.run(1000).unwrap();
    assert_eq!(sys.sink_values(sink), vec![v(111), v(112), v(113)]);
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
    sys.add_module(Box::new(StreamAlu::new("cmp", AluOp::CmpEq, a, 0, AluRhs::Const(9), o)));
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
            rows: RowSpec::Lens(Arc::from([10, 0, 90])),
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
    let vals: [u64; 4] = [7, 70_000, 0x0102_0304_0506_0708, u64::MAX];
    for width in [1usize, 2, 4, 8] {
        let mut sys = System::new();
        let addr = sys.alloc_mem(64);
        let bytes: Vec<u8> = vals.iter().flat_map(|x| x.to_le_bytes()[..width].to_vec()).collect();
        sys.host_write(addr, &bytes);
        let port = sys.register_mem_port(0);
        let o = sys.add_queue("o");
        sys.add_module(Box::new(MemReader::new(
            "rd",
            MemReaderConfig { base_addr: addr, elem_bytes: width, total_elems: 4, rows: RowSpec::None },
            port,
            o,
        )));
        let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
        sys.run(10_000).unwrap();
        // Each element is the little-endian low `width` bytes of its value.
        let mask = u64::MAX >> (64 - 8 * width);
        let want: Vec<HwWord> = vals.iter().map(|&x| v(x & mask)).collect();
        assert_eq!(sys.sink_values(sink), want, "{width}-byte elements");
    }
}

/// A replica range that starts with a million empty list rows (an empty
/// list column under `PosExplode`) is valid input: it streams one
/// delimiter per empty row, then the element and its delimiter.
#[test]
fn mem_reader_streams_a_million_leading_empty_rows() {
    const EMPTY: usize = 1_000_000;
    let mut sys = System::new();
    let addr = sys.alloc_mem(64);
    sys.host_write(addr, &[42]);
    let port = sys.register_mem_port(0);
    let o = sys.add_queue("o");
    let mut lens = vec![0u32; EMPTY];
    lens.push(1);
    sys.add_module(Box::new(MemReader::new(
        "rd",
        MemReaderConfig {
            base_addr: addr,
            elem_bytes: 1,
            total_elems: 1,
            rows: RowSpec::Lens(Arc::from(lens)),
        },
        port,
        o,
    )));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(10 * EMPTY as u64).unwrap();
    let flits = sys.module_as::<StreamSink>(sink).unwrap().flits();
    assert_eq!(flits.len(), EMPTY + 2);
    assert!(flits[..EMPTY].iter().all(Flit::is_end_item));
    assert_eq!(flits[EMPTY..], [Flit::val(42), Flit::end_item()]);
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

/// Writes `items` of rows through one multi-column writer whose columns
/// are `(field, element bytes)`, each in a `region`-byte region of its
/// own; returns the run's stats, the system, the writer and the regions.
fn column_writer(
    items: &[Vec<Vec<HwWord>>],
    cols: &[(usize, usize)],
    region: usize,
) -> (SimStats, System, ModuleId, Vec<u64>) {
    let mut sys = System::new();
    let q = sys.add_queue_with_capacity("rows", 64);
    sys.add_module(Box::new(StreamSource::from_field_items("rows", q, items)));
    let cols: Vec<WriterColumn> = cols
        .iter()
        .map(|&(field, elem_bytes)| {
            let base_addr = sys.alloc_mem(region);
            let port = sys.register_mem_port(0);
            WriterColumn { field, cfg: MemWriterConfig { base_addr, elem_bytes }, port }
        })
        .collect();
    let regions = cols.iter().map(|c| c.cfg.base_addr).collect();
    let w = sys.add_module(Box::new(MemWriter::columns("wr", cols, q)));
    let stats = sys.run(100_000).unwrap();
    (stats, sys, w, regions)
}

#[test]
fn multi_column_writer_flushes_a_partial_line_in_every_column() {
    // 13 rows: 104 bytes at 8 bytes each (a full line and 40 bytes), 52 at
    // 4, 26 at 2 and 13 at 1 — every column ends on a partial line.
    let row = |i: u64| vec![v(i), v(1000 + i), v(7 * i)];
    let items = [(0..11).map(row).collect(), (11..13).map(row).collect()];
    let cols = [(2, 8), (0, 4), (1, 2), (0, 1)];
    let (_, sys, w, regions) = column_writer(&items, &cols, 128);
    for (&(field, width), &at) in cols.iter().zip(&regions) {
        let bytes = sys.host_read(at, 13 * width);
        let got: Vec<u64> = bytes
            .chunks(width)
            .map(|c| c.iter().rev().fold(0u64, |acc, &b| acc << 8 | u64::from(b)))
            .collect();
        let mask = if width == 8 { u64::MAX } else { (1 << (8 * width)) - 1 };
        let want: Vec<u64> = (0..13).map(|i| row(i)[field].val_or_zero() & mask).collect();
        assert_eq!(got, want, "field {field} at {width} bytes");
    }
    let writer = sys.module_as::<MemWriter>(w).unwrap();
    assert_eq!(writer.elems_written(), 13, "rows, shared by every column");
    assert_eq!(writer.row_lens(), &[11, 2]);
}

#[test]
fn multi_column_writer_refused_line_write_does_not_stall_the_row() {
    // Two 8-byte columns 512 bytes apart: the k-th lines of both map to
    // channel k mod 4 and fill on the same cycle, so one write of each
    // pair loses channel arbitration and waits in its pending slot.
    let items = [(0..64u64).map(|i| vec![v(i), v(i + 64)]).collect()];
    let (two, sys, _, regions) = column_writer(&items, &[(0, 8), (1, 8)], 512);
    assert!(two.mem.channel_stalls > 0, "a line write must be refused: {two:?}");
    let (one, ..) = column_writer(&items, &[(0, 8)], 512);
    assert_eq!(two.cycles, one.cycles, "the refused write must not stall the row");
    let words = |at| -> Vec<u64> {
        let bytes = sys.host_read(at, 512);
        bytes.chunks(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect()
    };
    assert_eq!(words(regions[0]), (0..64).collect::<Vec<_>>());
    assert_eq!(words(regions[1]), (64..128).collect::<Vec<_>>());
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

/// Runs `keys` through an RMW `op` updater (value field 1 carries
/// `key + 1`) on a 16-entry scratchpad whose base is `base`, tiered by
/// `tiers` when given. Returns the scratchpad, the hazard stalls, the
/// cycles the run took and the tier counters.
fn rebased_rmw(
    op: RmwOp,
    keys: &[u64],
    base: Option<u64>,
    tiers: Option<TierParams>,
) -> (Vec<u64>, u64, u64, Option<TierStats>) {
    let mut sys = System::new();
    let spm = sys.add_spm("counts", 16, 8);
    let i = sys.add_queue("i");
    let flits: Vec<Vec<HwWord>> = keys.iter().map(|&k| vec![v(k), v(k + 1)]).collect();
    sys.add_module(Box::new(StreamSource::from_field_items("src", i, &[flits])));
    let mut u = SpmUpdater::new("u", spm, SpmUpdateMode::Rmw { op }, 0, 1, i);
    if let Some(b) = base {
        u = u.with_addr_offset(b);
    }
    let u = sys.add_module(Box::new(u));
    if let Some(t) = tiers {
        sys.set_tiers(t).expect("unbounded host");
    }
    let stats = sys.run(10_000).unwrap();
    let stalls = sys.module_as::<SpmUpdater>(u).unwrap().hazard_stalls();
    let spms = sys.spms();
    (spms.get(spm).contents().to_vec(), stalls, stats.cycles, spms.tier_stats())
}

#[test]
fn spm_updater_base_rebases_rmw_and_random_writes() {
    let (inc, ..) = rebased_rmw(RmwOp::Increment, &[1002, 1002, 1001, 1015], Some(1000), None);
    assert_eq!((inc[1], inc[2], inc[15]), (1, 2, 1));
    let (add, ..) = rebased_rmw(RmwOp::Add, &[1002, 1002, 1001], Some(1000), None);
    assert_eq!((add[1], add[2]), (1002, 2006));
    // Random writes land at `spm[key - base]` too.
    let mut sys = System::new();
    let spm = sys.add_spm("s", 8, 8);
    let i = sys.add_queue("i");
    let items = [vec![vec![v(45), v(50)], vec![v(41), v(10)]]];
    sys.add_module(Box::new(StreamSource::from_field_items("src", i, &items)));
    let u = SpmUpdater::new("u", spm, SpmUpdateMode::Random, 0, 1, i).with_addr_offset(40);
    sys.add_module(Box::new(u));
    sys.run(1000).unwrap();
    assert_eq!(&sys.spms().get(spm).contents()[..6], &[0, 10, 0, 0, 0, 50]);
}

#[test]
fn spm_updater_base_keeps_the_raw_interlock() {
    // Keys equal after rebasing stall exactly as the un-rebased stream.
    let (plain, plain_stalls, ..) = rebased_rmw(RmwOp::Increment, &[2, 2, 2, 1, 2], None, None);
    let (moved, moved_stalls, ..) =
        rebased_rmw(RmwOp::Increment, &[702, 702, 702, 701, 702], Some(700), None);
    assert!(plain_stalls > 0, "back-to-back same-address updates must stall");
    assert_eq!(moved_stalls, plain_stalls);
    assert_eq!(moved, plain);
}

#[test]
fn spm_updater_base_gates_the_rebased_page() {
    // 64-byte pages of eight 8-byte entries, one page resident: keys
    // 4..12 rebased by 4 touch page 0 alone; un-rebased they would
    // straddle pages 0 and 1.
    let tiers = TierParams { page_bytes: 64, spm_bytes: 64, ..TierParams::default() };
    let keys: Vec<u64> = (4..12).collect();
    let (spm, _, _, stats) = rebased_rmw(RmwOp::Increment, &keys, Some(4), Some(tiers));
    let stats = stats.expect("tiered");
    assert_eq!((stats.pages_filled, stats.pages_spilled), (1, 0));
    assert_eq!(&spm[..9], &[1, 1, 1, 1, 1, 1, 1, 1, 0]);
    let zero_based: Vec<u64> = (0..8).collect();
    let (_, _, _, plain) = rebased_rmw(RmwOp::Increment, &zero_based, None, Some(tiers));
    assert_eq!(plain, Some(stats));
}

#[test]
fn spm_drain_with_the_updater_base_round_trips_keys() {
    let mut sys = System::new();
    let spm = sys.add_spm("counts", 4, 8);
    let i = sys.add_queue("i");
    let trig = sys.add_queue("trig");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_items("src", i, &[vec![103, 101, 103]])));
    let rmw = SpmUpdateMode::Rmw { op: RmwOp::Increment };
    let u = SpmUpdater::new("u", spm, rmw, 0, 0, i).with_addr_offset(100).with_forward(trig);
    sys.add_module(Box::new(u));
    let mode = SpmReadMode::Drain { trigger: trig, len: 4 };
    sys.add_module(Box::new(SpmReader::new("drain", vec![spm], mode, 100, o)));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(1000).unwrap();
    let vals: Vec<(u64, u64)> = sys.module_as::<StreamSink>(sink).unwrap().items()[0]
        .iter()
        .map(|f| (f.field(0).val_or_zero(), f.field(1).val_or_zero()))
        .collect();
    assert_eq!(vals, vec![(100, 0), (101, 1), (102, 0), (103, 2)]);
}

#[test]
fn spm_drain_on_a_done_signal_skips_empty_entries() {
    let mut sys = System::new();
    let spm = sys.add_spm("counts", 6, 8);
    let (i, done, o) = (sys.add_queue("i"), sys.add_queue("done"), sys.add_queue("o"));
    sys.add_module(Box::new(StreamSource::from_items("src", i, &[vec![104, 101, 104, 105]])));
    let rmw = SpmUpdateMode::Rmw { op: RmwOp::Increment };
    let u = SpmUpdater::new("u", spm, rmw, 0, 0, i).with_addr_offset(100).with_done_signal(done);
    sys.add_module(Box::new(u));
    let mode = SpmReadMode::Drain { trigger: done, len: 6 };
    sys.add_module(Box::new(SpmReader::new("drain", vec![spm], mode, 100, o).with_skip_empty()));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(1000).unwrap();
    let vals: Vec<(u64, u64)> = sys.module_as::<StreamSink>(sink).unwrap().items()[0]
        .iter()
        .map(|f| (f.field(0).val_or_zero(), f.field(1).val_or_zero()))
        .collect();
    assert_eq!(vals, vec![(101, 1), (104, 2), (105, 1)]);
    assert_eq!(sys.queues().get(done).total_pushed(), 0);
    // Every entry is still read, one per cycle.
    assert_eq!(sys.spms().get(spm).total_reads(), 4 + 6);
}

#[test]
fn spm_updater_base_zero_is_the_default() {
    let keys = [3, 3, 7, 3, 9, 9, 9, 0, 15, 3, 3, 12];
    let paged = TierParams { page_bytes: 64, spm_bytes: 64, ..TierParams::default() };
    for op in [RmwOp::Increment, RmwOp::Add, RmwOp::Sub] {
        for tiers in [None, Some(paged)] {
            assert_eq!(
                rebased_rmw(op, &keys, Some(0), tiers),
                rebased_rmw(op, &keys, None, tiers),
                "{op:?} tiers {}",
                tiers.is_some()
            );
        }
    }
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
        ReadToBasesInputs { pos: qp, cigar: qc, seq: Some(qs), qual: Some(qq) },
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
        ReadToBasesInputs { pos: qp, cigar: qc, seq: Some(qs), qual: Some(qq) },
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

/// The flits an ALU on field `field` emits over `items` (end-of-item
/// delimiters included).
fn alu_flits(op: AluOp, field: usize, rhs: AluRhs, items: &[Vec<Vec<HwWord>>]) -> Vec<Flit> {
    let mut sys = System::new();
    let a = sys.add_queue("a");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_field_items("a", a, items)));
    sys.add_module(Box::new(StreamAlu::new("alu", op, a, field, rhs, o)));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(1000).unwrap();
    sys.module_as::<StreamSink>(sink).unwrap().flits().to_vec()
}

#[test]
fn alu_reads_one_field_in_place() {
    let rows = vec![
        vec![vec![v(3), v(10), v(7)], vec![HwWord::Ins, v(1), v(2)], vec![v(5), HwWord::Del, v(4)]],
        vec![vec![v(2), v(6), v(1)]],
    ];
    let one = |w: HwWord| Flit::data(&[w]);
    let end = Flit::end_item();
    // A constant operand: field 1 plus 100, one field out; the `Del` in
    // field 1 propagates and each item's delimiter is forwarded.
    assert_eq!(
        alu_flits(AluOp::Add, 1, AluRhs::Const(100), &rows),
        vec![one(v(110)), one(v(101)), one(HwWord::Del), end, one(v(106)), end]
    );
    // A field operand: field 1 minus field 0 of the same flit; an `Ins`
    // in the right operand propagates as well.
    assert_eq!(
        alu_flits(AluOp::Sub, 1, AluRhs::Field(0), &rows),
        vec![one(v(7)), one(HwWord::Ins), one(HwWord::Del), end, one(v(4)), end]
    );
    assert_eq!(
        alu_flits(AluOp::CmpLt, 0, AluRhs::Field(2), &rows),
        vec![one(v(1)), one(HwWord::Ins), one(v(0)), end, one(v(0)), end]
    );
}

/// The single item a Joiner emits, comparing the left flits' field
/// `left_key` with `left_data` fields besides it.
fn join_item(
    kind: JoinKind,
    left_key: usize,
    left_data: usize,
    left: Vec<Vec<HwWord>>,
    right: Vec<Vec<HwWord>>,
) -> Vec<Flit> {
    let mut sys = System::new();
    let l = sys.add_queue("l");
    let r = sys.add_queue("r");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_field_items("l", l, &[left])));
    sys.add_module(Box::new(StreamSource::from_field_items("r", r, &[right])));
    let joiner = Joiner::new("j", kind, l, r, o, left_data, 1).with_left_key(left_key);
    sys.add_module(Box::new(joiner));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(1000).unwrap();
    let mut items = sys.module_as::<StreamSink>(sink).unwrap().items();
    assert_eq!(items.len(), 1);
    items.remove(0)
}

#[test]
fn joiner_with_left_key_compares_a_field_in_place() {
    let (del, ins) = (HwWord::Del, HwWord::Ins);
    // Left rows [value, key], the key at field 1; right rows [key, data].
    let left = || vec![vec![v(10), v(1)], vec![v(20), v(3)], vec![v(99), ins], vec![v(50), v(5)]];
    let right =
        || vec![vec![v(2), v(200)], vec![v(3), v(300)], vec![v(5), v(500)], vec![v(6), v(600)]];
    let rows = |rows: &[[HwWord; 3]]| rows.iter().map(|r| Flit::data(r)).collect::<Vec<_>>();
    assert_eq!(
        join_item(JoinKind::Inner, 1, 1, left(), right()),
        rows(&[[v(20), v(3), v(300)], [v(50), v(5), v(500)]])
    );
    // The `Ins` key never matches: a left join pads it, an inner join
    // drops it.
    assert_eq!(
        join_item(JoinKind::Left, 1, 1, left(), right()),
        rows(&[
            [v(10), v(1), del],
            [v(20), v(3), v(300)],
            [v(99), ins, del],
            [v(50), v(5), v(500)],
        ])
    );
    // An unmatched right row is padded to the left shape with its key at
    // the left key's field.
    assert_eq!(
        join_item(JoinKind::Outer, 1, 1, left(), right()),
        rows(&[
            [v(10), v(1), del],
            [del, v(2), v(200)],
            [v(20), v(3), v(300)],
            [v(99), ins, del],
            [v(50), v(5), v(500)],
            [del, v(6), v(600)],
        ])
    );
    // A key in the middle of a three-field left row.
    assert_eq!(
        join_item(
            JoinKind::Outer,
            1,
            2,
            vec![vec![v(7), v(3), v(8)]],
            vec![vec![v(1), v(100)], vec![v(3), v(300)]]
        ),
        vec![
            Flit::data(&[del, v(1), del, v(100)]),
            Flit::data(&[v(7), v(3), v(8), v(300)]),
        ]
    );
    // Field 0 is the default key.
    assert_eq!(
        join_item(JoinKind::Outer, 0, 1, vec![vec![v(1), v(10)]], vec![vec![v(2), v(200)]]),
        rows(&[[v(1), v(10), del], [v(2), del, v(200)]])
    );
}

#[test]
fn joiner_with_right_key_keeps_the_right_flit_whole() {
    let del = HwWord::Del;
    // Left rows [key, value]; right rows [data, key], the key at field 1.
    let join = |kind| {
        let mut sys = System::new();
        let (l, r, o) = (sys.add_queue("l"), sys.add_queue("r"), sys.add_queue("o"));
        let left = vec![vec![v(1), v(10)], vec![v(3), v(30)], vec![v(5), v(50)]];
        let right = vec![vec![v(200), v(2)], vec![v(300), v(3)], vec![v(600), v(6)]];
        sys.add_module(Box::new(StreamSource::from_field_items("l", l, &[left])));
        sys.add_module(Box::new(StreamSource::from_field_items("r", r, &[right])));
        let joiner = Joiner::new("j", kind, l, r, o, 1, 1).with_right_key(1);
        sys.add_module(Box::new(joiner));
        let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
        sys.run(1000).unwrap();
        sys.module_as::<StreamSink>(sink).unwrap().items().remove(0)
    };
    let rows = |rows: &[[HwWord; 4]]| rows.iter().map(|r| Flit::data(r)).collect::<Vec<_>>();
    assert_eq!(join(JoinKind::Inner), rows(&[[v(3), v(30), v(300), v(3)]]));
    // An unmatched left row pads every right field, the key included.
    assert_eq!(
        join(JoinKind::Left),
        rows(&[
            [v(1), v(10), del, del],
            [v(3), v(30), v(300), v(3)],
            [v(5), v(50), del, del],
        ])
    );
    // An unmatched right row keeps its flit whole behind the left
    // padding, its key copied to the left key's field.
    assert_eq!(
        join(JoinKind::Outer),
        rows(&[
            [v(1), v(10), del, del],
            [v(2), del, v(200), v(2)],
            [v(3), v(30), v(300), v(3)],
            [v(5), v(50), del, del],
            [v(6), del, v(600), v(6)],
        ])
    );
}

/// The flits a ReadToBases emits over `reads` (`(pos, cigar, seq)`, each
/// base's quality its index + 30), narrowed to `rows` fields when given;
/// without `bases`, from the positions and CIGARs alone.
fn bases_flits(reads: &[(u32, &str, &str)], rows: Option<usize>, bases: bool) -> Vec<Flit> {
    let (mut pos, mut cigar, mut seq, mut qual) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &(p, c, s) in reads {
        let quals: Vec<u8> = (0..s.len() as u8).map(|i| 30 + i).collect();
        let (p, c, s, q) = read_streams(p, c, s, &quals);
        pos.extend(p);
        cigar.extend(c);
        seq.extend(s);
        qual.extend(q);
    }
    let mut sys = System::new();
    let qp = sys.add_queue("pos");
    let qc = sys.add_queue("cigar");
    let qs = sys.add_queue("seq");
    let qq = sys.add_queue("qual");
    let o = sys.add_queue("o");
    sys.add_module(Box::new(StreamSource::from_flits("pos", qp, pos)));
    sys.add_module(Box::new(StreamSource::from_flits("cigar", qc, cigar)));
    if bases {
        sys.add_module(Box::new(StreamSource::from_flits("seq", qs, seq)));
        sys.add_module(Box::new(StreamSource::from_flits("qual", qq, qual)));
    }
    let (seq, qual) = if bases { (Some(qs), Some(qq)) } else { (None, None) };
    let inputs = ReadToBasesInputs { pos: qp, cigar: qc, seq, qual };
    let rtb = ReadToBases::new("rtb", inputs, o);
    sys.add_module(Box::new(match rows {
        Some(width) => rtb.with_rows(width),
        None => rtb,
    }));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(10_000).unwrap();
    sys.module_as::<StreamSink>(sink).unwrap().flits().to_vec()
}

#[test]
fn read_to_bases_with_rows_narrows_and_drops_delimiters() {
    let reads = [(10, "2S2M1I1D1M", "ACGTAC"), (20, "1M1S", "GT")];
    let (del, ins) = (HwWord::Del, HwWord::Ins);
    let code = |ch: char| v(u64::from(Base::seq_from_str(&ch.to_string()).unwrap()[0].code()));
    let (g, t, a, c) = (code('G'), code('T'), code('A'), code('C'));
    let end = Flit::end_item();
    // Soft-clipped bases emit nothing; the `D` row is padded to the width.
    let narrow = vec![
        Flit::data(&[v(10), g]),
        Flit::data(&[v(11), t]),
        Flit::data(&[ins, a]),
        Flit::data(&[v(12), del]),
        Flit::data(&[v(13), c]),
        Flit::data(&[v(20), g]),
    ];
    assert_eq!(bases_flits(&reads, Some(2), true), narrow);
    let wide = vec![
        Flit::data(&[v(10), g, v(32)]),
        Flit::data(&[v(11), t, v(33)]),
        Flit::data(&[ins, a, v(34)]),
        Flit::data(&[v(12), del, del]),
        Flit::data(&[v(13), c, v(35)]),
        Flit::data(&[v(20), g, v(30)]),
    ];
    assert_eq!(bases_flits(&reads, Some(3), true), wide);
    // The default is the full four-field layout with a delimiter after
    // each read's bases.
    let full = bases_flits(&reads, None, true);
    assert_eq!(full.len(), 8);
    assert_eq!(full[3], Flit::data(&[v(12), del, del, del]));
    assert_eq!((full[5], full[7]), (end, end));
}

/// Without `SEQ` and `QUAL` inputs a ReadToBases emits the same positions
/// at every width: every op advances as it does with them, `S` and `H`
/// emit nothing, `I` its marker and `D`/`N` their positions, and no op
/// waits on a sequence head.
#[test]
fn read_to_bases_without_seq_emits_the_same_positions() {
    let reads = [
        (10, "2S2M1I1D1M1S", "ACGTACG"),
        (20, "1H1M1N2M1H", "GTA"),
        (30, "2I1M2D1X1=", "ACGTA"),
        (40, "3S", "ACG"),
    ];
    // One field: the streams are identical.
    let positions = bases_flits(&reads, Some(1), true);
    assert_eq!(positions.len(), 16);
    assert_eq!(bases_flits(&reads, Some(1), false), positions);
    // The full layout: the same positions and delimiters, each base field
    // `Empty` (or `Del` on a `D`/`N` row).
    let (full, bare) = (bases_flits(&reads, None, true), bases_flits(&reads, None, false));
    assert_eq!(full.len(), bare.len());
    for (with, without) in full.iter().zip(&bare) {
        assert_eq!(with.is_end_item(), without.is_end_item());
        if !with.is_end_item() {
            assert_eq!(with.field(0), without.field(0));
            let base = if with.field(1) == HwWord::Del { HwWord::Del } else { HwWord::Empty };
            assert_eq!(without.field(1), base);
        }
    }
}

/// One generated read: its position and its raw CIGAR flits, each an op
/// code in bits 13–15 over a run of 0–3 (empty elements included), some
/// with bits past the 16 a packed element holds.
type RawRead = (u64, Vec<u64>);

fn raw_read() -> impl Strategy<Value = RawRead> {
    let elem = (0u64..8, 0u64..4, 0u64..5)
        .prop_map(|(op, len, wide)| if wide == 0 { 1 << 20 } else { 0 } | (op << 13) | len);
    (0u64..60, proptest::collection::vec(elem, 0..5))
}

/// The element a raw CIGAR flit carries (the module reads its low 16
/// bits).
fn raw_elem(raw: u64) -> CigarElem {
    CigarElem::unpack(raw as u16)
}

const CMP_OPS: [CmpOp; 7] =
    [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::IsVal];

/// A predicate over the four-field layout: a field against a constant
/// or against another field, so `Ins`, `Del` and `Empty` fields meet
/// every test.
fn guard_pred() -> impl Strategy<Value = Predicate> {
    (0usize..4, 0usize..CMP_OPS.len(), 0u64..70, 0usize..6).prop_map(|(f, op, c, other)| {
        if other < 4 {
            Predicate::fields(f, CMP_OPS[op], other)
        } else {
            Predicate::field_const(f, CMP_OPS[op], c)
        }
    })
}

/// A ReadToBases case: the reads, which of `SEQ` and `QUAL` stream, the
/// output width (`None`: per-read items), a guard, and the periods of
/// the four input sources and of the sink, over queues of `cap` flits.
#[derive(Debug, Clone)]
struct RtbCase {
    reads: Vec<RawRead>,
    seq: bool,
    qual: bool,
    rows: Option<usize>,
    guard: Vec<Predicate>,
    periods: [u64; 5],
    cap: usize,
}

impl RtbCase {
    /// The input streams: `POS`, `CIGAR`, `SEQ` and `QUAL`, delimited per
    /// read, the bases as long as the CIGAR consumes.
    fn streams(&self) -> [Vec<Flit>; 4] {
        let mut streams: [Vec<Flit>; 4] = Default::default();
        for (i, (pos, cigar)) in self.reads.iter().enumerate() {
            let query: u64 = cigar
                .iter()
                .map(|&raw| raw_elem(raw))
                .filter(|e| e.op.consumes_read())
                .map(|e| u64::from(e.len))
                .sum();
            streams[0].push(Flit::val(*pos));
            streams[1].extend(cigar.iter().map(|&raw| Flit::val(raw)));
            streams[2].extend((0..query).map(|j| Flit::val((i as u64 + j) % 4)));
            streams[3].extend((0..query).map(|j| Flit::val(20 + (3 * i as u64 + j) % 30)));
            for s in &mut streams {
                s.push(Flit::end_item());
            }
        }
        streams
    }

    /// Adds the case's sources, its ReadToBases (guarded, or unguarded
    /// with one `Filter` per guard predicate after it) and its sink; returns the
    /// ReadToBases and the sink.
    fn build(&self, sys: &mut System, fold: bool) -> (ModuleId, ModuleId) {
        let names = ["pos", "cigar", "seq", "qual"];
        let streamed = [true, true, self.seq, self.qual];
        let mut qs = Vec::new();
        let inputs = names.into_iter().zip(self.streams()).zip(self.periods).zip(streamed);
        for (((name, flits), period), on) in inputs {
            let q = sys.add_queue_with_capacity(name, self.cap);
            if on {
                sys.add_module(Box::new(SlowSource::new(name, q, flits, period)));
            }
            qs.push(on.then_some(q));
        }
        let inputs = ReadToBasesInputs {
            pos: qs[0].unwrap(),
            cigar: qs[1].unwrap(),
            seq: qs[2],
            qual: qs[3],
        };
        let bases = sys.add_queue_with_capacity("bases", self.cap);
        let mut rtb = ReadToBases::new("rtb", inputs, bases);
        if let Some(width) = self.rows {
            rtb = rtb.with_rows(width);
        }
        let out = if fold || self.guard.is_empty() {
            bases
        } else {
            sys.add_queue_with_capacity("kept", self.cap)
        };
        let id = if fold {
            sys.add_module(contract(Counted::new(rtb.with_guard(self.guard.clone()))))
        } else {
            sys.add_module(contract(Counted::new(rtb)))
        };
        // Unfolded, the guard is a chain of one-predicate Filters.
        if out != bases {
            let (last, chain) = self.guard.split_last().expect("a guard to chain");
            let mut q = bases;
            for (i, &pred) in chain.iter().enumerate() {
                let next = sys.add_queue_with_capacity(format!("kept{i}"), self.cap);
                sys.add_module(contract(Filter::new(format!("flt{i}"), pred, q, next)));
                q = next;
            }
            sys.add_module(contract(Filter::new("flt", *last, q, out)));
        }
        let sink = sys.add_module(Box::new(SlowSink::new("sink", out, self.periods[4])));
        (id, sink)
    }

    /// Cycles a ReadToBases takes over the reads with ready inputs and a
    /// ready consumer, its finishing tick included: one per base moved,
    /// one per element skipped whole, and per read one boundary cycle
    /// when `SEQ`, `QUAL` or a delimiter streams, or when the read's last
    /// element took one cycle (an empty read pays a `POS` tick and the
    /// boundary).
    fn ready_cycles(&self) -> u64 {
        let streams_read = self.seq || self.qual;
        let ends = self.rows.is_none();
        let per_read = self.reads.iter().map(|(_, cigar)| {
            let ticks: Vec<u64> = cigar
                .iter()
                .map(|&raw| {
                    let e = raw_elem(raw);
                    let moves = match e.op {
                        CigarOp::HardClip => false,
                        CigarOp::SoftClip => streams_read,
                        _ => true,
                    };
                    if moves { u64::from(e.len).max(1) } else { 1 }
                })
                .collect();
            let boundary = streams_read || ends || ticks.last().is_none_or(|&t| t == 1);
            ticks.iter().sum::<u64>().max(1) + u64::from(boundary)
        });
        1 + per_read.sum::<u64>()
    }
}

/// The sink's flits and the ReadToBases's tick count after a run of the
/// case under `mode`, with every module's stall buckets tiling the run;
/// also the statistics and refused pushes both engines must agree on.
fn run_case(case: &RtbCase, fold: bool, mode: EngineMode) -> (Vec<Flit>, u64, SimStats, Vec<u64>) {
    let mut sys = System::new();
    let (rtb, sink) = case.build(&mut sys, fold);
    sys.set_engine(mode);
    let stats = sys.run(200_000).expect("the case runs to completion");
    for m in &sys.stall_report().modules {
        assert_eq!(m.counters.total(), sys.cycle(), "stall buckets of {} tile the run", m.label);
    }
    let ticks = sys
        .module_as::<Contract<Counted<ReadToBases>>>(rtb)
        .expect("a checked, counted ReadToBases")
        .inner()
        .census()
        .ticks;
    let flits = sys.module_as::<SlowSink>(sink).unwrap().flits().to_vec();
    let refused = sys.queues().iter().map(|q| q.total_full_stalls()).collect();
    (flits, ticks, SimStats { module_ticks: 0, ..stats }, refused)
}

fn rtb_case() -> impl Strategy<Value = RtbCase> {
    (
        proptest::collection::vec(raw_read(), 0..7),
        0u8..4,
        0usize..5,
        (0usize..3, proptest::collection::vec(guard_pred(), 1..3)),
        proptest::collection::vec(1u64..4, 5..6),
        1usize..4,
    )
        .prop_map(|(reads, streams, rows, (guarded, guard), periods, cap)| RtbCase {
            reads,
            seq: streams & 1 != 0,
            qual: streams & 2 != 0,
            rows: (rows > 0).then_some(rows),
            guard: if guarded > 0 { guard } else { Vec::new() },
            periods: periods.try_into().expect("five periods"),
            cap,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// ReadToBases under random CIGARs (every op, empty runs, values past
    /// 16 bits), with or without `SEQ` and `QUAL`, per row or per read,
    /// with or without a guard, behind upstream gaps and a slow sink,
    /// every tick checked against the module contract: the guarded
    /// module emits what the unguarded one and its `Filter`s emit,
    /// both engines agree on everything modeled, and with ready inputs
    /// and a ready sink it takes exactly one cycle a base.
    #[test]
    fn read_to_bases_guard_and_boundary_bound(case in rtb_case()) {
        let fast = run_case(&case, true, EngineMode::Fast);
        let reference = run_case(&case, true, EngineMode::Reference);
        prop_assert_eq!((&fast.0, &fast.2, &fast.3), (&reference.0, &reference.2, &reference.3));
        let filtered = run_case(&case, false, EngineMode::Fast);
        prop_assert_eq!(&filtered.0, &fast.0);
        let ready = RtbCase { periods: [1; 5], cap: 4, ..case };
        let (_, ticks, ..) = run_case(&ready, true, EngineMode::Reference);
        prop_assert_eq!(ticks, ready.ready_cycles());
    }
}

/// No tick that did work parks: each of the modules below once parked in
/// the tick that wrote a line, took a read's flags or started a page
/// fill, so the fast engine filed that working cycle as a stall. Each
/// runs behind a source with gaps (one flit every third cycle), every
/// tick checked against the module contract.
#[test]
fn a_writer_that_wrote_a_line_does_not_park_in_that_tick() {
    let mut sys = System::new();
    let q = sys.add_queue("q");
    let flits: Vec<Flit> = (0..40).map(|i| Flit::val(i * 3)).collect();
    sys.add_module(Box::new(SlowSource::new("src", q, flits, 3)));
    let base_addr = sys.alloc_mem(40 * 8);
    let port = sys.register_mem_port(0);
    let cfg = MemWriterConfig { base_addr, elem_bytes: 8 };
    sys.add_module(contract(MemWriter::new("wr", cfg, port, q)));
    sys.run(10_000).unwrap();
    let written: Vec<u64> = sys
        .host_read(base_addr, 40 * 8)
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(written, (0..40).map(|i| i * 3).collect::<Vec<u64>>());
}

#[test]
fn a_bin_id_gen_that_took_flags_does_not_park_in_that_tick() {
    let mut sys = System::new();
    let (i, fq, o) = (sys.add_queue("i"), sys.add_queue("flags"), sys.add_queue("o"));
    let mut flits = Vec::new();
    for read in 0..3u64 {
        flits.push(Flit::data(&[v(100 + read), v(0), v(20), v(0)]));
        flits.push(Flit::data(&[v(101 + read), v(1), v(25), v(1)]));
        flits.push(Flit::end_item());
    }
    let flags = vec![Flit::val(0), Flit::end_item(), Flit::val(1), Flit::end_item(), Flit::val(0)];
    let cfg = BinIdGenConfig::for_read_len(10);
    sys.add_module(contract(BinIdGen::new("bin", cfg, i, fq, o)));
    sys.add_module(Box::new(SlowSource::new("src", i, flits, 3)));
    sys.add_module(Box::new(SlowSource::new("flags", fq, flags, 3)));
    let sink = sys.add_module(Box::new(StreamSink::new("s", o)));
    sys.run(10_000).unwrap();
    let items = sys.module_as::<StreamSink>(sink).unwrap().items();
    assert_eq!(items.len(), 3);
    assert!(items.iter().all(|rows| rows.len() == 2), "{items:?}");
}

#[test]
fn a_tiered_updater_that_started_a_fill_does_not_park_in_that_tick() {
    let mut sys = System::new();
    let spm = sys.add_spm("counts", 16, 8);
    let i = sys.add_queue("i");
    // Keys alternate between the scratchpad's two 64-byte pages, one of
    // which is resident at a time: every other flit starts a fill.
    let keys: Vec<u64> = (0..24).map(|k| if k % 2 == 0 { k % 8 } else { 8 + k % 8 }).collect();
    let flits = keys.iter().map(|&k| Flit::data(&[v(k), v(1)])).collect();
    sys.add_module(Box::new(SlowSource::new("src", i, flits, 3)));
    let rmw = SpmUpdateMode::Rmw { op: RmwOp::Increment };
    sys.add_module(contract(SpmUpdater::new("u", spm, rmw, 0, 1, i)));
    sys.set_tiers(TierParams { page_bytes: 64, spm_bytes: 64, ..TierParams::default() })
        .expect("unbounded host");
    sys.run(100_000).unwrap();
    let mut expected = [0u64; 16];
    for &k in &keys {
        expected[k as usize] += 1;
    }
    assert_eq!(sys.spms().get(spm).contents(), &expected[..]);
    assert!(sys.spms().tier_stats().expect("tiered").pages_filled > 2);
}
