//! ReadToBases: the hardware implementation of the `ReadExplode`
//! operation (paper §III-B/III-C, Figure 3).

use super::{try_push, Ctx, Module, ModuleKind, Tick};
use crate::queue::QueueId;
use crate::word::{Flit, HwWord};
use std::any::Any;
use genesis_types::{CigarElem, CigarOp};

/// Input queues of the ReadToBases module: `POS`, `CIGAR`, `SEQ` and
/// optionally `QUAL`, each delimited per read.
#[derive(Debug, Clone, Copy)]
pub struct ReadToBasesInputs {
    /// One flit per read: the leftmost aligned position.
    pub pos: QueueId,
    /// Packed 16-bit CIGAR elements per read.
    pub cigar: QueueId,
    /// Base codes per read.
    pub seq: QueueId,
    /// Quality scores per read (optional).
    pub qual: Option<QueueId>,
}

/// Per-base output flit layout: `[ref_pos|Ins, base|Del, qual|Del,
/// seq_index|Del]`, one flit per cycle, delimited per read (Figure 3).
/// Soft-clipped bases are consumed but produce no output.
///
/// The fourth field (the index of the base within `SEQ`) feeds the BQSR
/// cycle covariate; Figure 12's BinIDGen needs to know the machine cycle
/// of every base.
#[derive(Debug)]
pub struct ReadToBases {
    label: String,
    inputs: ReadToBasesInputs,
    out: QueueId,
    state: State,
    done: bool,
}

#[derive(Debug)]
enum State {
    /// Waiting for the next read's POS flit.
    NeedPos,
    /// Processing the read body.
    Body {
        ref_pos: u64,
        seq_idx: u64,
        /// Remaining run of the current CIGAR element, if any.
        elem: Option<(CigarOp, u32)>,
    },
    /// Consuming the per-read delimiters from all inputs.
    Closing {
        pos_done: bool,
        cigar_done: bool,
        seq_done: bool,
        qual_done: bool,
        out_done: bool,
    },
}

impl ReadToBases {
    /// Creates the module.
    #[must_use]
    pub fn new(label: &str, inputs: ReadToBasesInputs, out: QueueId) -> ReadToBases {
        ReadToBases {
            label: label.to_owned(),
            inputs,
            out,
            state: State::NeedPos,
            done: false,
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
}

impl Module for ReadToBases {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::ReadToBases
    }

    #[allow(clippy::too_many_lines)]
    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        if self.done {
            return Tick::Active;
        }
        match &mut self.state {
            State::NeedPos => {
                if let Some(flit) = Self::pop_data(ctx, self.inputs.pos) {
                    self.state = State::Body {
                        ref_pos: flit.field(0).val_or_zero(),
                        seq_idx: 0,
                        elem: None,
                    };
                } else if ctx.queues.get(self.inputs.pos).is_finished() {
                    ctx.queues.get_mut(self.out).close();
                    self.done = true;
                } else {
                    // Waiting for the next read's POS flit.
                    return Tick::park_on(self.inputs.pos);
                }
            }
            State::Body { ref_pos, seq_idx, elem } => {
                // Load the next CIGAR element when none is active.
                let loaded_elem = elem.is_none();
                if loaded_elem {
                    match ctx.queues.get(self.inputs.cigar).peek() {
                        Some(f) if f.is_end_item() => {
                            // Read complete: move to delimiter consumption.
                            self.state = State::Closing {
                                pos_done: false,
                                cigar_done: false,
                                seq_done: false,
                                qual_done: self.inputs.qual.is_none(),
                                out_done: false,
                            };
                            return Tick::Active;
                        }
                        Some(f) => {
                            let packed = f.field(0).val_or_zero() as u16;
                            match CigarElem::unpack(packed) {
                                Ok(e) if e.len > 0 => {
                                    *elem = Some((e.op, e.len));
                                    ctx.queues.get_mut(self.inputs.cigar).pop();
                                }
                                _ => {
                                    // Malformed or empty element: skip it.
                                    ctx.queues.get_mut(self.inputs.cigar).pop();
                                    return Tick::Active;
                                }
                            }
                        }
                        None => return Tick::park_on(self.inputs.cigar), // stall for CIGAR data
                    }
                }
                let (op, remaining) = elem.expect("element loaded above");
                let needs_seq = op.consumes_read();
                // Peek the sequence/quality heads if this op consumes them.
                let seq_head = if needs_seq {
                    match ctx.queues.get(self.inputs.seq).peek() {
                        Some(f) if !f.is_end_item() => Some(f.field(0)),
                        _ => None,
                    }
                } else {
                    None
                };
                if needs_seq && seq_head.is_none() {
                    return Tick::park_on(self.inputs.seq); // stall for SEQ data
                }
                let qual_head = match self.inputs.qual {
                    Some(q) if needs_seq => match ctx.queues.get(q).peek() {
                        Some(f) if !f.is_end_item() => Some(f.field(0)),
                        _ => return Tick::park_on(q), // stall for QUAL data
                    },
                    _ => None,
                };
                // Determine the output flit for this base.
                let mut out = Flit::new();
                let emits = match op {
                    CigarOp::Match | CigarOp::SeqMatch | CigarOp::SeqMismatch | CigarOp::Ins => {
                        if op == CigarOp::Ins {
                            out.push(HwWord::Ins);
                        } else {
                            out.push_val(*ref_pos);
                        }
                        out.push(seq_head.expect("M/I consume read"));
                        out.push(qual_head.unwrap_or(HwWord::Empty));
                        out.push_val(*seq_idx);
                        true
                    }
                    CigarOp::Del | CigarOp::RefSkip => {
                        out.push_val(*ref_pos);
                        for _ in 0..3 {
                            out.push(HwWord::Del);
                        }
                        true
                    }
                    CigarOp::SoftClip | CigarOp::HardClip => false,
                };
                // Backpressure: the output must accept before we consume.
                if emits && !try_push(ctx.queues, self.out, out) {
                    // A tick that also loaded the CIGAR element changed
                    // state; from the next one on the stall is pure (the
                    // element is held, the SEQ/QUAL heads stay put).
                    return if loaded_elem { Tick::Active } else { Tick::full(self.out) };
                }
                // Commit: consume inputs and advance counters.
                if needs_seq {
                    ctx.queues.get_mut(self.inputs.seq).pop();
                    if let Some(q) = self.inputs.qual {
                        ctx.queues.get_mut(q).pop();
                    }
                    *seq_idx += 1;
                }
                if op.consumes_ref() {
                    *ref_pos += 1;
                }
                *elem = if remaining > 1 { Some((op, remaining - 1)) } else { None };
            }
            State::Closing { pos_done, cigar_done, seq_done, qual_done, out_done } => {
                if !*out_done {
                    if !try_push(ctx.queues, self.out, Flit::end_item()) {
                        // Nothing else happens before the delimiter is out.
                        return Tick::full(self.out);
                    }
                    *out_done = true;
                    return Tick::Active;
                }
                let mut popped = false;
                if !*pos_done && Self::pop_end(ctx, self.inputs.pos) {
                    *pos_done = true;
                    popped = true;
                }
                if !*cigar_done && Self::pop_end(ctx, self.inputs.cigar) {
                    *cigar_done = true;
                    popped = true;
                }
                if !*seq_done && Self::pop_end(ctx, self.inputs.seq) {
                    *seq_done = true;
                    popped = true;
                }
                if !*qual_done {
                    if let Some(q) = self.inputs.qual {
                        if Self::pop_end(ctx, q) {
                            *qual_done = true;
                            popped = true;
                        }
                    }
                }
                if *pos_done && *cigar_done && *seq_done && *qual_done {
                    self.state = State::NeedPos;
                } else if !popped {
                    // Waiting for delimiters still in flight upstream.
                    return Tick::PARK;
                }
            }
        }
        Tick::Active
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn input_queues(&self) -> Vec<QueueId> {
        {
            let mut qs = vec![self.inputs.pos, self.inputs.cigar, self.inputs.seq];
            qs.extend(self.inputs.qual);
            qs
        }
    }

    fn output_queues(&self) -> Vec<QueueId> {
        vec![self.out]
    }
}
