//! MDGen: the custom module generating MD tags (paper §IV-C).
//!
//! Consumes the left-joiner output — per-base flits carrying the read base
//! and the reference base — and emits the MD string one ASCII byte per
//! cycle: match-run lengths as decimal digits, the reference base at each
//! mismatch, and `^` + reference bases at deletions (footnote 2).

use super::{try_push, Ctx, Module, ModuleKind, Tick};
use crate::queue::QueueId;
use crate::word::{Flit, HwWord};
use std::any::Any;
use std::collections::VecDeque;
use genesis_types::Base;

/// Field layout of the input stream.
#[derive(Debug, Clone, Copy)]
pub struct MdGenConfig {
    /// Field index of the read base (may be `Del`).
    pub read_field: usize,
    /// Field index of the reference base (may be `Del` padding for
    /// insertions after the left join).
    pub ref_field: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LastEvent {
    None,
    Mismatch,
    Deletion,
}

/// Generates MD tag bytes, one output byte per cycle.
#[derive(Debug)]
pub struct MdGen {
    label: String,
    cfg: MdGenConfig,
    input: QueueId,
    out: QueueId,
    match_run: u64,
    wrote_any_match: bool,
    last_event: LastEvent,
    outbuf: VecDeque<Flit>,
    done: bool,
}

impl MdGen {
    /// Creates the module.
    #[must_use]
    pub fn new(label: &str, cfg: MdGenConfig, input: QueueId, out: QueueId) -> MdGen {
        MdGen {
            label: label.to_owned(),
            cfg,
            input,
            out,
            match_run: 0,
            wrote_any_match: false,
            last_event: LastEvent::None,
            outbuf: VecDeque::new(),
            done: false,
        }
    }

    fn emit_byte(&mut self, b: u8) {
        self.outbuf.push_back(Flit::val(u64::from(b)));
    }

    fn emit_number(&mut self, mut n: u64) {
        // Stack-format the decimal digits (u64 needs at most 20).
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        for &b in &digits[i..] {
            self.outbuf.push_back(Flit::val(u64::from(b)));
        }
        self.wrote_any_match = true;
    }

    /// Flushes the pending match run before a non-match event, matching
    /// `genesis_types::MdTag`'s formatting: a number separates events, with
    /// an explicit 0 between adjacent events and at the start.
    fn flush_before_event(&mut self) {
        if self.match_run > 0 {
            let n = self.match_run;
            self.match_run = 0;
            self.emit_number(n);
        } else if self.last_event != LastEvent::None || !self.wrote_any_match {
            self.emit_number(0);
        }
    }

    fn end_of_item(&mut self) {
        // Trailing number: the pending run, or 0 when an event just ended
        // or the item was empty.
        if self.match_run > 0 || self.last_event != LastEvent::None || !self.wrote_any_match {
            let n = self.match_run;
            self.match_run = 0;
            self.emit_number(n);
        }
        self.match_run = 0;
        self.wrote_any_match = false;
        self.last_event = LastEvent::None;
    }
}

impl Module for MdGen {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::MdGen
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        if self.done {
            return Tick::Active;
        }
        // Drain one buffered output flit per cycle.
        if let Some(f) = self.outbuf.front() {
            if !try_push(ctx.queues, self.out, *f) {
                // Returns before the input is looked at: a pure stall.
                return Tick::full(self.out);
            }
            self.outbuf.pop_front();
            return Tick::Active;
        }
        let Some(flit) = ctx.queues.get(self.input).peek() else {
            if ctx.queues.get(self.input).is_finished() {
                ctx.queues.get_mut(self.out).close();
                self.done = true;
                return Tick::Active;
            }
            return Tick::PARK;
        };
        if flit.is_end_item() {
            // The trailing number flushes, then the delimiter follows.
            self.end_of_item();
            self.outbuf.push_back(Flit::end_item());
            ctx.queues.get_mut(self.input).pop();
            return Tick::Active;
        }
        let read_b = flit.field(self.cfg.read_field);
        let ref_b = flit.field(self.cfg.ref_field);
        match (read_b, ref_b) {
            // Insertion: reference side is padding — MD ignores it, but an
            // insertion does interrupt a deletion run (the next deletion
            // starts a fresh `^` event, as in `MdTag`'s event model).
            (_, HwWord::Del | HwWord::Ins | HwWord::Empty)
                if self.last_event == LastEvent::Deletion && self.match_run == 0 =>
            {
                self.last_event = LastEvent::Mismatch;
            }
            (_, HwWord::Del | HwWord::Ins | HwWord::Empty) => {}
            // Deletion: emit `^` + the reference base (or continue a
            // deletion run without repeating `^`).
            (HwWord::Del, HwWord::Val(r)) => {
                if self.last_event == LastEvent::Deletion && self.match_run == 0 {
                    self.emit_byte(Base::from_code(r as u8).to_char() as u8);
                } else {
                    self.flush_before_event();
                    self.emit_byte(b'^');
                    self.emit_byte(Base::from_code(r as u8).to_char() as u8);
                }
                self.last_event = LastEvent::Deletion;
            }
            (HwWord::Val(q), HwWord::Val(r)) => {
                if q == r {
                    self.match_run += 1;
                } else {
                    self.flush_before_event();
                    self.emit_byte(Base::from_code(r as u8).to_char() as u8);
                    self.last_event = LastEvent::Mismatch;
                }
            }
            // Ins/Empty on the read side with a real reference base should
            // not occur; ignore defensively.
            _ => {}
        }
        ctx.queues.get_mut(self.input).pop();
        Tick::Active
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn input_queues(&self) -> Vec<QueueId> {
        vec![self.input]
    }

    fn output_queues(&self) -> Vec<QueueId> {
        vec![self.out]
    }
}
