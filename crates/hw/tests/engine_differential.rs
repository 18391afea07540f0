//! Differential tests: the fast (park/wake) engine must be bit-identical
//! to the naive reference engine — same cycle counts, memory traffic, error
//! cycles, and module outputs — for every pipeline. These tests build the
//! same system once per [`EngineMode`] and compare everything observable,
//! including the stall-attribution invariant that each module's five
//! buckets tile the run exactly.

use genesis_hw::modules::filter::{CmpOp, Filter, Predicate};
use genesis_hw::modules::joiner::{JoinKind, Joiner};
use genesis_hw::modules::mem_reader::{MemReader, MemReaderConfig, RowSpec};
use genesis_hw::modules::mem_writer::{MemWriter, MemWriterConfig};
use genesis_hw::modules::reducer::{ReduceOp, Reducer};
use genesis_hw::modules::sink::StreamSink;
use genesis_hw::modules::source::StreamSource;
use genesis_hw::modules::spm_updater::{RmwOp, SpmUpdateMode, SpmUpdater};
use genesis_hw::system::ModuleId;
use genesis_hw::word::{Flit, HwWord};
use genesis_hw::{EngineMode, System};
use proptest::prelude::*;

/// Builds the same system under both engines, runs each to `budget`, and
/// asserts that the run outcome (stats or error), the final cycle counter,
/// and the caller-observed state all match exactly. Stall attribution is
/// the one designed difference — the reference engine never parks, so its
/// report is all-active — but under either engine every module's buckets
/// must tile the simulated cycle span.
fn assert_engines_agree<H, E>(
    budget: u64,
    build: impl Fn(&mut System) -> H,
    observe: impl Fn(&System, &H) -> E,
) where
    E: PartialEq + std::fmt::Debug,
{
    let run = |mode: EngineMode| {
        let mut sys = System::new();
        let handles = build(&mut sys);
        sys.set_engine(mode);
        let outcome = sys.run(budget);
        let observed = observe(&sys, &handles);
        let report = sys.stall_report();
        // Span-tiling invariant: active + input-starved + backpressured +
        // memory-wait + spill-wait per module is exactly the cycle span.
        for m in &report.modules {
            assert_eq!(
                m.counters.total(),
                sys.cycle(),
                "stall buckets of {} must tile the {mode:?} run",
                m.label
            );
        }
        (outcome, sys.cycle(), sys.stats(), observed, report)
    };
    let reference = run(EngineMode::Reference);
    let fast = run(EngineMode::Fast);
    assert_eq!(
        (&reference.0, reference.1, reference.2, &reference.3),
        (&fast.0, fast.1, fast.2, &fast.3),
        "fast engine diverged from the reference engine"
    );
    for (r, f) in reference.4.modules.iter().zip(&fast.4.modules) {
        assert_eq!(r.label, f.label);
        assert_eq!(r.counters.active, reference.1, "reference engine never parks {}", r.label);
    }
}

fn sink_flits(sys: &System, id: ModuleId) -> Vec<Flit> {
    sys.module_as::<StreamSink>(id)
        .expect("module is a StreamSink")
        .flits()
        .to_vec()
}

fn reduce_op(tag: u32) -> ReduceOp {
    match tag % 4 {
        0 => ReduceOp::Sum,
        1 => ReduceOp::Count,
        2 => ReduceOp::Min,
        _ => ReduceOp::Max,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// source -> filter -> reducer -> sink with randomized items, queue
    /// capacities (to exercise backpressure parks), predicate threshold,
    /// and reduction op.
    #[test]
    fn filter_reduce_chain_bit_identical(
        items in proptest::collection::vec(
            proptest::collection::vec(0u64..50, 0..8),
            1..6,
        ),
        threshold in 0u64..50,
        cap in 1usize..5,
        op_tag in 0u32..4,
    ) {
        assert_engines_agree(
            50_000,
            |sys| {
                let q_src = sys.add_queue_with_capacity("src", cap);
                let q_flt = sys.add_queue_with_capacity("flt", cap);
                let q_out = sys.add_queue_with_capacity("out", cap);
                sys.add_module(Box::new(StreamSource::from_items("src", q_src, &items)));
                sys.add_module(Box::new(Filter::new(
                    "flt",
                    Predicate::field_const(0, CmpOp::Gt, threshold),
                    q_src,
                    q_flt,
                )));
                sys.add_module(Box::new(Reducer::new("red", reduce_op(op_tag), 0, q_flt, q_out)));
                sys.add_module(Box::new(StreamSink::new("sink", q_out)))
            },
            |sys, &sink| sink_flits(sys, sink),
        );
    }

    /// Two sorted sources -> joiner -> filter -> reducer -> sink. Join kind,
    /// key gaps, payloads, and queue capacity are all randomized; left/outer
    /// joins put `Del` sentinels in the filtered field.
    #[test]
    fn join_pipeline_bit_identical(
        left in proptest::collection::vec((1u64..4, 0u64..100), 0..8),
        right in proptest::collection::vec((1u64..4, 0u64..100), 0..8),
        kind_tag in 0u32..3,
        cap in 1usize..4,
        threshold in 0u64..100,
    ) {
        // Strictly ascending keys from the random gaps.
        let rows = |gaps: &[(u64, u64)]| {
            let mut key = 0u64;
            let mut out = Vec::new();
            for &(gap, val) in gaps {
                key += gap;
                out.push(vec![HwWord::Val(key), HwWord::Val(val)]);
            }
            out
        };
        let (left_rows, right_rows) = (rows(&left), rows(&right));
        let kind = match kind_tag {
            0 => JoinKind::Inner,
            1 => JoinKind::Left,
            _ => JoinKind::Outer,
        };
        assert_engines_agree(
            50_000,
            |sys| {
                let q_l = sys.add_queue_with_capacity("l", cap);
                let q_r = sys.add_queue_with_capacity("r", cap);
                let q_j = sys.add_queue_with_capacity("j", cap);
                let q_f = sys.add_queue_with_capacity("f", cap);
                let q_o = sys.add_queue_with_capacity("o", cap);
                sys.add_module(Box::new(StreamSource::from_field_items(
                    "l",
                    q_l,
                    std::slice::from_ref(&left_rows),
                )));
                sys.add_module(Box::new(StreamSource::from_field_items(
                    "r",
                    q_r,
                    std::slice::from_ref(&right_rows),
                )));
                sys.add_module(Box::new(Joiner::new("join", kind, q_l, q_r, q_j, 1, 1)));
                sys.add_module(Box::new(Filter::new(
                    "flt",
                    Predicate::field_const(2, CmpOp::Gt, threshold),
                    q_j,
                    q_f,
                )));
                sys.add_module(Box::new(Reducer::new("red", ReduceOp::Sum, 1, q_f, q_o)));
                sys.add_module(Box::new(StreamSink::new("sink", q_o)))
            },
            |sys, &sink| sink_flits(sys, sink),
        );
    }
}

/// MemReader -> Reducer -> MemWriter: exercises memory-latency timed wakes
/// (`wake_at`), arbitration stalls, and line flush/park interleavings; the
/// written-back bytes must match byte for byte.
#[test]
fn memory_pipeline_bit_identical() {
    const ELEMS: u64 = 256;
    const ROW: u64 = 8;
    let input: Vec<u8> = (0..ELEMS)
        .flat_map(|i| u32::try_from(i * 3 % 251).unwrap().to_le_bytes())
        .collect();
    assert_engines_agree(
        1_000_000,
        |sys| {
            let in_base = sys.alloc_mem(input.len());
            let out_base = sys.alloc_mem((ELEMS / ROW) as usize * 8);
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
                    rows: RowSpec::Fixed(ROW),
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
            out_base
        },
        |sys, &out_base| sys.host_read(out_base, (ELEMS / ROW) as usize * 8),
    );
}

/// Source -> RMW SpmUpdater (with forward) -> sink: exercises the 3-stage
/// RAW interlock (hazard stalls must be re-counted every naive cycle) and
/// the deferred-retire park path; final scratchpad contents must match.
#[test]
fn spm_rmw_pipeline_bit_identical() {
    // Clustered addresses provoke RAW hazards in the 3-deep RMW pipeline.
    let rows: Vec<Vec<HwWord>> = (0..64u64)
        .map(|i| vec![HwWord::Val(i % 5), HwWord::Val(i)])
        .collect();
    assert_engines_agree(
        100_000,
        |sys| {
            let spm = sys.add_spm("counts", 8, 8);
            let q_in = sys.add_queue_with_capacity("in", 2);
            let q_fwd = sys.add_queue_with_capacity("fwd", 2);
            sys.add_module(Box::new(StreamSource::from_field_items(
                "src",
                q_in,
                std::slice::from_ref(&rows),
            )));
            sys.add_module(Box::new(
                SpmUpdater::new(
                    "rmw",
                    spm,
                    SpmUpdateMode::Rmw { op: RmwOp::Add },
                    0,
                    1,
                    q_in,
                )
                .with_forward(q_fwd),
            ));
            let sink = sys.add_module(Box::new(StreamSink::new("sink", q_fwd)));
            (spm, sink)
        },
        |sys, &(spm, sink)| {
            (sys.spms().get(spm).contents().to_vec(), sink_flits(sys, sink))
        },
    );
}

/// Several fully independent chains in one system (no shared queues, no
/// memory modules): wakes in one chain must never disturb another.
#[test]
fn independent_chains_bit_identical() {
    assert_engines_agree(
        200_000,
        |sys| {
            let mut sinks = Vec::new();
            for p in 0..6u64 {
                let q_src = sys.add_queue_with_capacity(&format!("src{p}"), 2 + p as usize);
                let q_out = sys.add_queue_with_capacity(&format!("out{p}"), 2);
                let items: Vec<Vec<u64>> =
                    (0..40).map(|i| vec![(i * 7 + p) % 50, i + p]).collect();
                sys.add_module(Box::new(StreamSource::from_items(
                    &format!("s{p}"),
                    q_src,
                    &items,
                )));
                sys.add_module(Box::new(Filter::new(
                    &format!("f{p}"),
                    Predicate::field_const(0, CmpOp::Gt, 10 + p),
                    q_src,
                    q_out,
                )));
                sinks.push(sys.add_module(Box::new(StreamSink::new(&format!("k{p}"), q_out))));
            }
            sinks
        },
        |sys, sinks| sinks.iter().map(|&s| sink_flits(sys, s)).collect::<Vec<_>>(),
    );
}

/// A memory-bound component next to pure-stream components: timed memory
/// wakes interleave with queue wakes of unrelated chains.
#[test]
fn mixed_memory_and_stream_components_bit_identical() {
    const ELEMS: u64 = 64;
    let input: Vec<u8> = (0..ELEMS * 4).map(|i| (i * 13 % 251) as u8).collect();
    assert_engines_agree(
        500_000,
        |sys| {
            let in_base = sys.alloc_mem(input.len());
            let out_base = sys.alloc_mem(ELEMS as usize * 8);
            sys.host_write(in_base, &input);
            let rd_port = sys.register_mem_port(0);
            let wr_port = sys.register_mem_port(0);
            let q_rd = sys.add_queue_with_capacity("rd", 4);
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
            sys.add_module(Box::new(MemWriter::new(
                "wr",
                MemWriterConfig { base_addr: out_base, elem_bytes: 8 },
                wr_port,
                q_rd,
            )));
            let mut sinks = Vec::new();
            for p in 0..3u64 {
                let q_s = sys.add_queue_with_capacity(&format!("sq{p}"), 3);
                let q_r = sys.add_queue_with_capacity(&format!("rq{p}"), 3);
                let items: Vec<Vec<u64>> = (0..25).map(|i| vec![i * 3 + p, i]).collect();
                sys.add_module(Box::new(StreamSource::from_items(
                    &format!("ss{p}"),
                    q_s,
                    &items,
                )));
                sys.add_module(Box::new(Reducer::new(
                    &format!("sr{p}"),
                    ReduceOp::Sum,
                    0,
                    q_s,
                    q_r,
                )));
                sinks.push(sys.add_module(Box::new(StreamSink::new(&format!("sk{p}"), q_r))));
            }
            (out_base, sinks)
        },
        |sys, (out_base, sinks)| {
            (
                sys.host_read(*out_base, ELEMS as usize * 8),
                sinks.iter().map(|&s| sink_flits(sys, s)).collect::<Vec<_>>(),
            )
        },
    );
}

/// A deadlock in some components of a multi-component graph must fire at
/// the same cycle with the same stuck set, in registration order, while
/// the component that can finish does.
#[test]
fn multi_component_deadlock_bit_identical() {
    assert_engines_agree(
        u64::MAX >> 2,
        |sys| {
            // Component 0 completes; components 1 and 2 starve forever.
            let q_done = sys.add_queue("done");
            sys.add_module(Box::new(StreamSource::from_items("src", q_done, &[vec![1, 2]])));
            sys.add_module(Box::new(StreamSink::new("sink", q_done)));
            for p in 0..2 {
                let q = sys.add_queue(&format!("never{p}"));
                sys.add_module(Box::new(StreamSink::new(&format!("stuck{p}"), q)));
            }
        },
        |_, ()| (),
    );
}

/// Both engines must declare a deadlock at the identical cycle with the
/// identical stuck set — the fast engine reaches it via closed-form idle
/// fast-forward rather than ticking through the deadlock window.
#[test]
fn deadlock_cycle_bit_identical() {
    assert_engines_agree(
        u64::MAX >> 2,
        |sys| {
            let q = sys.add_queue("never-closed");
            sys.add_module(Box::new(StreamSink::new("sink", q)))
        },
        |_, _| (),
    );
}

/// Cycle-limit exhaustion must also fire identically, including when the
/// limit lands inside an all-parked idle stretch.
#[test]
fn cycle_limit_bit_identical() {
    for budget in [100, 511, 512, 513, 10_000] {
        assert_engines_agree(
            budget,
            |sys| {
                let q = sys.add_queue("never-closed");
                sys.add_module(Box::new(StreamSink::new("sink", q)))
            },
            |_, _| (),
        );
    }
}
