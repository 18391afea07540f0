//! Zip: lock-step field concatenation of item-aligned streams.
//!
//! The query compiler (paper §III-D) maps a plan node to one module and a
//! plan edge to one queue, but the *row* of a relational stream is spread
//! across several physical streams: one Memory Reader per column. Zip is
//! the structural glue that recombines them — it pops one flit from every
//! input in the same cycle and emits a single flit whose fields are the
//! selected fields of each input, in input order. With a single input it
//! doubles as a field projector/reorderer (the pure-column `SELECT` case).

use super::{refused, Ctx, Module, ModuleKind, Tick};
use crate::queue::QueueId;
use crate::word::{Flit, MAX_FIELDS};
use std::any::Any;

/// One Zip input: a queue plus which of its flit fields to keep.
#[derive(Debug, Clone)]
pub struct ZipInput {
    /// The input queue.
    pub queue: QueueId,
    /// Field indices of this input's flits copied to the output, in order.
    pub fields: Vec<usize>,
}

impl ZipInput {
    /// Selects `fields` of `queue`'s flits.
    #[must_use]
    pub fn new(queue: QueueId, fields: Vec<usize>) -> ZipInput {
        ZipInput { queue, fields }
    }
}

/// Zips equal-length streams into one stream of concatenated flits.
///
/// All inputs must carry the same number of data flits (the compiler
/// guarantees this by construction: every column stream of one table scan
/// has the table's row count). End-of-item delimiters are forwarded when
/// every head is a delimiter and consumed alone otherwise (resync), the
/// same convention the two-queue [`crate::modules::alu::StreamAlu`] uses.
/// The output closes as soon as any input finishes.
#[derive(Debug)]
pub struct Zip {
    label: String,
    inputs: Vec<ZipInput>,
    out: QueueId,
    drop_ends: bool,
    done: bool,
}

impl Zip {
    /// Creates a zip.
    ///
    /// # Panics
    ///
    /// Panics when `inputs` is empty or the selected fields exceed
    /// [`MAX_FIELDS`].
    #[must_use]
    pub fn new(label: &str, inputs: Vec<ZipInput>, out: QueueId) -> Zip {
        assert!(!inputs.is_empty(), "zip needs at least one input");
        let width: usize = inputs.iter().map(|i| i.fields.len()).sum();
        assert!(width <= MAX_FIELDS, "zip output of {width} fields exceeds {MAX_FIELDS}");
        Zip { label: label.to_owned(), inputs, out, drop_ends: false, done: false }
    }

    /// Consumes aligned end-of-item delimiters without forwarding them,
    /// turning an item-delimited stream (one item per read, as
    /// [`crate::modules::read_to_bases::ReadToBases`] emits) into a plain
    /// row stream the relational modules downstream expect.
    #[must_use]
    pub fn with_drop_ends(mut self) -> Zip {
        self.drop_ends = true;
        self
    }
}

impl Module for Zip {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::Zip
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        if self.done {
            return Tick::Active;
        }
        if self.inputs.iter().any(|i| ctx.queues.get(i.queue).is_finished()) {
            ctx.queues.get_mut(self.out).close();
            self.done = true;
            return Tick::Active;
        }
        let mut ends = 0usize;
        for i in &self.inputs {
            match ctx.queues.get(i.queue).peek() {
                Some(f) => ends += usize::from(f.is_end_item()),
                // Starved on at least one input; nothing moved.
                None => return Tick::PARK,
            }
        }
        if ends > 0 && ends < self.inputs.len() {
            // Misaligned items: consume the delimiter sides alone.
            for i in &self.inputs {
                if ctx.queues.get(i.queue).peek().is_some_and(Flit::is_end_item) {
                    ctx.queues.get_mut(i.queue).pop();
                }
            }
            return Tick::Active;
        }
        if ends == self.inputs.len() && self.drop_ends {
            // Aligned delimiters are consumed silently in drop-ends mode.
            for i in &self.inputs {
                ctx.queues.get_mut(i.queue).pop();
            }
            return Tick::Active;
        }
        if refused(ctx.queues, self.out) {
            // Every head is present and aligned, and only this module pops
            // them: the same row is refused until `out` drains.
            return Tick::full(self.out);
        }
        let flit = if ends == self.inputs.len() {
            Flit::end_item()
        } else {
            // Every head was peeked non-empty above; the constructor bounds
            // the total selected width at MAX_FIELDS.
            let mut row = Flit::new();
            for input in &self.inputs {
                let head = ctx.queues.get(input.queue).peek().expect("peeked above");
                for &i in &input.fields {
                    row.push_from(head, i);
                }
            }
            row
        };
        ctx.queues.get_mut(self.out).push(flit);
        for i in &self.inputs {
            ctx.queues.get_mut(i.queue).pop();
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
        self.inputs.iter().map(|i| i.queue).collect()
    }

    fn output_queues(&self) -> Vec<QueueId> {
        vec![self.out]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modules::sink::StreamSink;
    use crate::word::HwWord;
    use crate::modules::source::StreamSource;
    use crate::System;

    fn run_zip(inputs: Vec<(Vec<Flit>, Vec<usize>)>) -> Vec<Flit> {
        let mut sys = System::new();
        let mut zin = Vec::new();
        for (i, (flits, fields)) in inputs.into_iter().enumerate() {
            let q = sys.add_queue(&format!("in{i}"));
            sys.add_module(Box::new(StreamSource::from_flits(&format!("src{i}"), q, flits)));
            zin.push(ZipInput::new(q, fields));
        }
        let out = sys.add_queue("out");
        sys.add_module(Box::new(Zip::new("z", zin, out)));
        let sink = sys.add_module(Box::new(StreamSink::new("sink", out)));
        sys.run(10_000).unwrap();
        sys.module_as::<StreamSink>(sink).unwrap().flits().to_vec()
    }

    #[test]
    fn zips_two_columns_into_rows() {
        let a = vec![Flit::val(1), Flit::val(2), Flit::val(3)];
        let b = vec![Flit::val(10), Flit::val(20), Flit::val(30)];
        let rows = run_zip(vec![(a, vec![0]), (b, vec![0])]);
        let vals: Vec<Vec<u64>> = rows
            .iter()
            .map(|f| (0..f.len()).map(|i| f.field(i).val_or_zero()).collect())
            .collect();
        assert_eq!(vals, vec![vec![1, 10], vec![2, 20], vec![3, 30]]);
    }

    #[test]
    fn single_input_selects_and_reorders_fields() {
        let row = Flit::data(&[HwWord::Val(7), HwWord::Val(8), HwWord::Val(9)]);
        let rows = run_zip(vec![(vec![row], vec![2, 0])]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].field(0).val_or_zero(), 9);
        assert_eq!(rows[0].field(1).val_or_zero(), 7);
    }

    #[test]
    fn markers_pass_through_selection() {
        let row = Flit::data(&[HwWord::Del, HwWord::Val(5)]);
        let rows = run_zip(vec![(vec![row], vec![0, 1])]);
        assert!(rows[0].field(0).is_marker());
        assert_eq!(rows[0].field(1).val_or_zero(), 5);
    }

    #[test]
    fn drop_ends_strips_aligned_delimiters() {
        let a = vec![Flit::val(1), Flit::end_item(), Flit::val(2), Flit::end_item()];
        let b = vec![Flit::val(9), Flit::end_item(), Flit::val(8), Flit::end_item()];
        let mut sys = System::new();
        let qa = sys.add_queue("a");
        let qb = sys.add_queue("b");
        sys.add_module(Box::new(StreamSource::from_flits("sa", qa, a)));
        sys.add_module(Box::new(StreamSource::from_flits("sb", qb, b)));
        let out = sys.add_queue("out");
        let zin = vec![ZipInput::new(qa, vec![0]), ZipInput::new(qb, vec![0])];
        sys.add_module(Box::new(Zip::new("z", zin, out).with_drop_ends()));
        let sink = sys.add_module(Box::new(StreamSink::new("sink", out)));
        sys.run(10_000).unwrap();
        let rows = sys.module_as::<StreamSink>(sink).unwrap().flits().to_vec();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|f| !f.is_end_item()));
        assert_eq!(rows[0].field(0).val_or_zero(), 1);
        assert_eq!(rows[1].field(1).val_or_zero(), 8);
    }

    #[test]
    fn aligned_delimiters_forward_misaligned_resync() {
        let a = vec![Flit::val(1), Flit::end_item(), Flit::val(2)];
        let b = vec![Flit::val(9), Flit::end_item(), Flit::val(8)];
        let rows = run_zip(vec![(a, vec![0]), (b, vec![0])]);
        assert!(rows[1].is_end_item());
        assert_eq!(rows.len(), 3);
    }
}
