//! ReadToBases: the hardware implementation of the `ReadExplode`
//! operation (paper §III-B/III-C, Figure 3).

use super::filter::Predicate;
use super::{try_push, Ctx, Module, ModuleKind, Tick};
use crate::queue::QueueId;
use crate::resource::{module_cost, ResourceUsage};
use crate::word::{Flit, HwWord};
use std::any::Any;
use genesis_types::{CigarElem, CigarOp};

/// Input queues of the ReadToBases module: `POS`, `CIGAR` and optionally
/// `SEQ` and `QUAL`, each delimited per read.
#[derive(Debug, Clone, Copy)]
pub struct ReadToBasesInputs {
    /// One flit per read: the leftmost aligned position.
    pub pos: QueueId,
    /// Packed 16-bit CIGAR elements per read. The module reads a CIGAR
    /// flit's low 16 bits; the lowering rejects a wider element before it
    /// streams.
    pub cigar: QueueId,
    /// Base codes per read (optional: without them the bases' positions
    /// stream alone, each base field `Empty`).
    pub seq: Option<QueueId>,
    /// Quality scores per read (optional).
    pub qual: Option<QueueId>,
}

/// Per-base output flit layout: `[ref_pos|Ins, base|Del, qual|Del,
/// seq_index|Del]`, one flit per cycle, delimited per read (Figure 3).
/// Soft-clipped bases are consumed but produce no output.
///
/// The fourth field (the index of the base within `SEQ`) feeds the BQSR
/// cycle covariate; Figure 12's BinIDGen needs to know the machine cycle
/// of every base. [`ReadToBases::with_rows`] narrows the flit and drops
/// the delimiters; [`ReadToBases::with_guard`] drops the bases a filter
/// would.
///
/// One base a cycle, across read boundaries: the tick that pops a read's
/// `POS` also loads its first CIGAR element and emits its first base, and
/// the tick that emits its last base also pops the CIGAR and `POS`
/// delimiters. `SEQ`, `QUAL` and the output give up or take an element in
/// that tick, so their delimiters go in one boundary tick after it. A
/// clip that moves no stream the module reads (`H`, and `S` when neither
/// `SEQ` nor `QUAL` streams) is skipped whole in the tick that loads it.
/// With ready inputs and a ready consumer a read takes one cycle per base
/// moved and one per element skipped whole, plus the boundary tick when
/// `SEQ`, `QUAL` or the output delimiter streams, or when its last
/// element was loaded in its last cycle (the CIGAR queue gave up that
/// element then, so its delimiter waits a cycle).
#[derive(Debug)]
pub struct ReadToBases {
    label: String,
    inputs: ReadToBasesInputs,
    out: QueueId,
    /// Fields per output flit: the first `width` of the layout above.
    width: usize,
    /// The delimiters that end each read, as a set of the bits below
    /// ([`OUT`] cleared by [`ReadToBases::with_rows`]).
    ends: u8,
    /// The predicates every emitted base must pass.
    guard: Vec<Predicate>,
    state: State,
    /// The current read's reference position and index within `SEQ`.
    ref_pos: u64,
    seq_idx: u64,
    /// Remaining run of the current CIGAR element, if any.
    elem: Option<(CigarOp, u32)>,
    done: bool,
}

/// Fields of the full per-base flit.
const FIELDS: usize = 4;

/// The queues of a read boundary, as bits of a set: the input delimiters
/// to pop, the output delimiter to push.
const POS: u8 = 1;
const CIGAR: u8 = 1 << 1;
const SEQ: u8 = 1 << 2;
const QUAL: u8 = 1 << 3;
const OUT: u8 = 1 << 4;

#[derive(Debug, Clone, Copy)]
enum State {
    /// Waiting for the next read's POS flit.
    NeedPos,
    /// Moving the read's bases.
    Body,
    /// Ending the read: the delimiters still to pop or push.
    Closing(u8),
}

impl ReadToBases {
    /// Creates the module.
    #[must_use]
    pub fn new(label: impl Into<String>, inputs: ReadToBasesInputs, out: QueueId) -> ReadToBases {
        let streams = |q: Option<QueueId>, bit: u8| if q.is_some() { bit } else { 0 };
        ReadToBases {
            label: label.into(),
            inputs,
            out,
            width: FIELDS,
            ends: POS | CIGAR | streams(inputs.seq, SEQ) | streams(inputs.qual, QUAL) | OUT,
            guard: Vec::new(),
            state: State::NeedPos,
            ref_pos: 0,
            seq_idx: 0,
            elem: None,
            done: false,
        }
    }

    /// Emits the first `width` fields of each base's flit (`D` rows padded
    /// to it with `Del`) and no per-read delimiter: `with_rows(2)` streams
    /// the plain `[REFPOS, BASE]` rows a relational consumer reads, with
    /// no boundary tick for the delimiter.
    ///
    /// # Panics
    ///
    /// Panics when `width` is 0 or exceeds the four-field layout.
    #[must_use]
    pub fn with_rows(mut self, width: usize) -> ReadToBases {
        let valid = (1..=FIELDS).contains(&width);
        assert!(valid, "ReadToBases emits 1..={FIELDS} fields, not {width}");
        self.width = width;
        self.ends &= !OUT;
        self
    }

    /// Emits only the bases whose output flit passes every predicate of
    /// `guard` ([`Predicate::eval`], so a sentinel field compares as in a
    /// `Filter`); a base that fails one is consumed like a soft-clipped
    /// base, with no push. Delimiters are never guarded. The module then
    /// is the explode and the `Filter`s after it in one, in the same cycles
    /// as the explode alone.
    #[must_use]
    pub fn with_guard(mut self, guard: Vec<Predicate>) -> ReadToBases {
        self.guard = guard;
        self
    }

    /// Whether an element of `op` moves a stream this module reads, one
    /// flit a cycle; any other is skipped whole.
    fn moves(&self, op: CigarOp) -> bool {
        match op {
            CigarOp::HardClip => false,
            CigarOp::SoftClip => self.ends & (SEQ | QUAL) != 0,
            _ => true,
        }
    }

    /// Pops the head of `q` if it is a data flit; returns it.
    fn pop_data(ctx: &mut Ctx<'_>, q: QueueId) -> Option<Flit> {
        match ctx.queues.get(q).peek() {
            Some(f) if !f.is_end_item() => ctx.queues.get_mut(q).pop(),
            _ => None,
        }
    }

    /// Pops the head of `q` if it is a delimiter.
    fn pop_end(ctx: &mut Ctx<'_>, q: QueueId) -> bool {
        match ctx.queues.get(q).peek() {
            Some(f) if f.is_end_item() => {
                ctx.queues.get_mut(q).pop();
                true
            }
            _ => false,
        }
    }

    /// The head of the optional stream `q` (`Empty` when it does not
    /// stream), or `q` itself while its next data flit is not there.
    fn head(ctx: &Ctx<'_>, q: Option<QueueId>) -> Result<HwWord, QueueId> {
        let Some(q) = q else { return Ok(HwWord::Empty) };
        match ctx.queues.get(q).peek() {
            Some(f) if !f.is_end_item() => Ok(f.field(0)),
            _ => Err(q),
        }
    }

    /// Ends the read: pushes the output delimiter and pops the input
    /// delimiters in `left`, except on the queues in `busy` (used already
    /// this cycle). A refused output delimiter goes first and alone, so a
    /// tick that did nothing else is one refused push.
    fn close(&mut self, ctx: &mut Ctx<'_>, left: u8, busy: u8) -> Tick {
        let mut rest = left;
        if rest & !busy & OUT != 0 {
            if !try_push(ctx.queues, self.out, Flit::end_item()) {
                self.state = State::Closing(left);
                return if busy == 0 { Tick::full(self.out) } else { Tick::Active };
            }
            rest &= !OUT;
        }
        let ins = [
            (POS, Some(self.inputs.pos)),
            (CIGAR, Some(self.inputs.cigar)),
            (SEQ, self.inputs.seq),
            (QUAL, self.inputs.qual),
        ];
        for (bit, q) in ins {
            if let Some(q) = q.filter(|_| rest & !busy & bit != 0) {
                if Self::pop_end(ctx, q) {
                    rest &= !bit;
                }
            }
        }
        self.state = if rest == 0 { State::NeedPos } else { State::Closing(rest) };
        if busy == 0 && rest == left {
            // Waiting for delimiters still in flight upstream.
            Tick::PARK
        } else {
            Tick::Active
        }
    }
}

impl Module for ReadToBases {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::ReadToBases
    }

    /// Each guard predicate costs one `Filter` comparator, the Filter
    /// the guard replaces.
    fn resources(&self) -> ResourceUsage {
        module_cost(self.kind()) + module_cost(ModuleKind::Filter).times(self.guard.len() as u64)
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        if self.done {
            return Tick::Done;
        }
        // The input queues this tick has popped.
        let mut busy = 0;
        match self.state {
            State::Closing(left) => return self.close(ctx, left, 0),
            State::NeedPos => {
                let Some(flit) = Self::pop_data(ctx, self.inputs.pos) else {
                    if ctx.queues.get(self.inputs.pos).is_finished() {
                        ctx.queues.get_mut(self.out).close();
                        self.done = true;
                        return Tick::Done;
                    }
                    // Waiting for the next read's POS flit.
                    return Tick::park_on(self.inputs.pos);
                };
                self.ref_pos = flit.field(0).val_or_zero();
                self.seq_idx = 0;
                self.state = State::Body;
                busy = POS;
            }
            State::Body => {}
        }
        let (op, run) = match self.elem {
            Some(elem) => elem,
            None => {
                let cigar = self.inputs.cigar;
                let Some(head) = ctx.queues.get(cigar).peek() else {
                    // Stall for CIGAR data.
                    return if busy == 0 { Tick::park_on(cigar) } else { Tick::Active };
                };
                if head.is_end_item() {
                    // No base left: the read ends in this tick.
                    return self.close(ctx, self.ends, busy);
                }
                let packed = head.field(0).val_or_zero() as u16;
                ctx.queues.get_mut(cigar).pop();
                busy |= CIGAR;
                let e = CigarElem::unpack(packed);
                if e.len == 0 || !self.moves(e.op) {
                    // A clip no stream reads, or an empty element.
                    if e.op.consumes_read() {
                        self.seq_idx += u64::from(e.len);
                    }
                    return Tick::Active;
                }
                self.elem = Some((e.op, e.len));
                (e.op, e.len)
            }
        };
        let reads = op.consumes_read();
        let heads = if reads {
            Self::head(ctx, self.inputs.seq)
                .and_then(|base| Ok((base, Self::head(ctx, self.inputs.qual)?)))
        } else {
            Ok((HwWord::Empty, HwWord::Empty))
        };
        let (base, qual) = match heads {
            Ok(heads) => heads,
            // Stall for SEQ or QUAL data; a loaded element is held.
            Err(q) => return if busy == 0 { Tick::park_on(q) } else { Tick::Active },
        };
        let fields = match op {
            CigarOp::Match | CigarOp::SeqMatch | CigarOp::SeqMismatch | CigarOp::Ins => {
                let ref_pos = if op == CigarOp::Ins { HwWord::Ins } else { HwWord::Val(self.ref_pos) };
                Some([ref_pos, base, qual, HwWord::Val(self.seq_idx)])
            }
            CigarOp::Del | CigarOp::RefSkip => {
                Some([HwWord::Val(self.ref_pos), HwWord::Del, HwWord::Del, HwWord::Del])
            }
            CigarOp::SoftClip | CigarOp::HardClip => None,
        };
        if let Some(fields) = fields {
            let mut out = Flit::new();
            for &w in &fields[..self.width] {
                out.push(w);
            }
            // Backpressure: the output must accept before we consume. A
            // tick that popped nothing is one refused push (the element
            // is held, the SEQ/QUAL heads stay put); a base the guard
            // fails is consumed with no push.
            if self.guard.iter().all(|p| p.eval(&out)) && !try_push(ctx.queues, self.out, out) {
                return if busy == 0 { Tick::full(self.out) } else { Tick::Active };
            }
        }
        if reads {
            for q in [self.inputs.seq, self.inputs.qual].into_iter().flatten() {
                ctx.queues.get_mut(q).pop();
            }
            self.seq_idx += 1;
        }
        if op.consumes_ref() {
            self.ref_pos += 1;
        }
        if run > 1 {
            self.elem = Some((op, run - 1));
            return Tick::Active;
        }
        self.elem = None;
        // The read's last base takes the CIGAR and POS delimiters with it
        // unless the CIGAR queue gave up this element in the same cycle.
        let cigar = ctx.queues.get(self.inputs.cigar);
        if busy & CIGAR == 0 && cigar.peek().is_some_and(Flit::is_end_item) {
            return self.close(ctx, self.ends, SEQ | QUAL | OUT);
        }
        Tick::Active
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn input_queues(&self, out: &mut Vec<QueueId>) {
        out.extend([self.inputs.pos, self.inputs.cigar]);
        out.extend(self.inputs.seq);
        out.extend(self.inputs.qual);
    }

    fn output_queues(&self, out: &mut Vec<QueueId>) {
        out.push(self.out);
    }
}
