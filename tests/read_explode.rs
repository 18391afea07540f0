//! Paper Figure 3's `ReadExplode` example, computed three ways: the
//! table from the figure, the software SQL engine, and the ReadToBases
//! hardware module — all must agree.

use genesis::hw::modules::read_to_bases::{ReadToBases, ReadToBasesInputs};
use genesis::hw::modules::sink::StreamSink;
use genesis::hw::modules::source::StreamSource;
use genesis::hw::word::{Flit, HwWord};
use genesis::hw::System;
use genesis::sql::{Catalog, Script};
use genesis::types::{Base, Cigar, Qual, Value};

const POS: u32 = 104;
const CIGAR: &str = "2S3M1I1M1D2M";
const SEQ: &str = "AGGTAAACA";
const QUAL: &str = "##9>>AAB?";

/// The expected rows of Figure 3 (POS, base char or None=Del, qual char
/// or None=Del; POS None means Ins).
fn expected() -> Vec<(Option<u32>, Option<char>, Option<char>)> {
    vec![
        (Some(104), Some('G'), Some('9')),
        (Some(105), Some('T'), Some('>')),
        (Some(106), Some('A'), Some('>')),
        (None, Some('A'), Some('A')),
        (Some(107), Some('A'), Some('A')),
        (Some(108), None, None),
        (Some(109), Some('C'), Some('B')),
        (Some(110), Some('A'), Some('?')),
    ]
}

#[test]
fn software_engine_matches_figure3() {
    let cigar: Cigar = CIGAR.parse().unwrap();
    let seq = Base::seq_from_str(SEQ).unwrap();
    let quals = Qual::seq_from_str(QUAL).unwrap();
    let mut cat = Catalog::new();
    let table = genesis::types::Table::from_columns(
        genesis::types::Schema::new(vec![
            genesis::types::Field::new("POS", genesis::types::DataType::U32),
            genesis::types::Field::new("CIGAR", genesis::types::DataType::ListU16),
            genesis::types::Field::new("SEQ", genesis::types::DataType::ListU8),
            genesis::types::Field::new("QUAL", genesis::types::DataType::ListU8),
        ]),
        vec![
            genesis::types::Column::U32(vec![POS]),
            genesis::types::Column::ListU16(vec![cigar.pack().unwrap()]),
            genesis::types::Column::ListU8(vec![seq.iter().map(|b| b.code()).collect()]),
            genesis::types::Column::ListU8(vec![quals.iter().map(|q| q.value()).collect()]),
        ],
    )
    .unwrap();
    cat.register("R", table);
    Script::parse("CREATE TABLE X AS ReadExplode(R.POS, R.CIGAR, R.SEQ, R.QUAL) FROM R")
        .unwrap()
        .run(&mut cat)
        .unwrap();
    let x = cat.table("X").unwrap();
    assert_eq!(x.num_rows(), expected().len());
    for (r, (pos, bp, q)) in expected().iter().enumerate() {
        let got_pos = x.get(r, "POS").unwrap();
        match pos {
            Some(p) => assert_eq!(got_pos, Value::U64(u64::from(*p)), "row {r}"),
            None => assert_eq!(got_pos, Value::Ins, "row {r}"),
        }
        let got_bp = x.get(r, "SEQ").unwrap();
        match bp {
            Some(c) => assert_eq!(
                got_bp,
                Value::U64(u64::from(Base::try_from(*c).unwrap().code())),
                "row {r}"
            ),
            None => assert_eq!(got_bp, Value::Del, "row {r}"),
        }
        let got_q = x.get(r, "QUAL").unwrap();
        match q {
            Some(c) => assert_eq!(
                got_q,
                Value::U64(u64::from(Qual::from_phred33(*c as u8).unwrap().value())),
                "row {r}"
            ),
            None => assert_eq!(got_q, Value::Del, "row {r}"),
        }
    }
}

#[test]
fn hardware_module_matches_figure3() {
    let cigar: Cigar = CIGAR.parse().unwrap();
    let seq = Base::seq_from_str(SEQ).unwrap();
    let quals = Qual::seq_from_str(QUAL).unwrap();

    let mut sys = System::new();
    let qp = sys.add_queue("pos");
    let qc = sys.add_queue("cigar");
    let qs = sys.add_queue("seq");
    let qq = sys.add_queue("qual");
    let out = sys.add_queue("out");
    sys.add_module(Box::new(StreamSource::from_flits(
        "pos",
        qp,
        vec![Flit::val(u64::from(POS)), Flit::end_item()],
    )));
    let mut cf: Vec<Flit> =
        cigar.pack().unwrap().iter().map(|&p| Flit::val(u64::from(p))).collect();
    cf.push(Flit::end_item());
    sys.add_module(Box::new(StreamSource::from_flits("cigar", qc, cf)));
    let mut sf: Vec<Flit> = seq.iter().map(|b| Flit::val(u64::from(b.code()))).collect();
    sf.push(Flit::end_item());
    sys.add_module(Box::new(StreamSource::from_flits("seq", qs, sf)));
    let mut qf: Vec<Flit> = quals.iter().map(|q| Flit::val(u64::from(q.value()))).collect();
    qf.push(Flit::end_item());
    sys.add_module(Box::new(StreamSource::from_flits("qual", qq, qf)));
    sys.add_module(Box::new(ReadToBases::new(
        "rtb",
        ReadToBasesInputs { pos: qp, cigar: qc, seq: Some(qs), qual: Some(qq) },
        out,
    )));
    let sink = sys.add_module(Box::new(StreamSink::new("sink", out)));
    sys.run(100_000).unwrap();

    let items = sys.module_as::<StreamSink>(sink).unwrap().items();
    assert_eq!(items.len(), 1);
    assert_eq!(items[0].len(), expected().len());
    for (flit, (pos, bp, q)) in items[0].iter().zip(expected()) {
        match pos {
            Some(p) => assert_eq!(flit.field(0), HwWord::Val(u64::from(p))),
            None => assert_eq!(flit.field(0), HwWord::Ins),
        }
        match bp {
            Some(c) => assert_eq!(
                flit.field(1),
                HwWord::Val(u64::from(Base::try_from(c).unwrap().code()))
            ),
            None => assert_eq!(flit.field(1), HwWord::Del),
        }
        match q {
            Some(c) => assert_eq!(
                flit.field(2),
                HwWord::Val(u64::from(Qual::from_phred33(c as u8).unwrap().value()))
            ),
            None => assert_eq!(flit.field(2), HwWord::Del),
        }
    }
}
