//! Spans recorded by the benchmark around its calls into each layer.
//! Everything stays in memory until the run ends; the Chrome-trace file
//! is written once, at exit.

use crate::host;
use genesis_obs::chrome::ChromeTrace;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call: `parent` indexes the span that caused it, spans of one
/// operation share `op_id`, and `block` selects the calibration bracket
/// its duration is normalised by.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u32,
    pub block: u32,
    /// Bytes requested from the allocator while the span was open.
    pub alloc_bytes: u64,
}

/// Modeled cost of one accelerator stage in one traced operation.
#[derive(Debug, Clone, Copy)]
pub struct StageNote {
    pub stage: &'static str,
    pub cycles: u64,
    /// DMA + accelerator time on the device clock.
    pub modeled: Duration,
    /// Host software time the stage timed inside itself (host clock).
    pub host: Duration,
    pub block: u32,
}

pub struct Recorder {
    /// When false every call runs its closure and records nothing, so one
    /// code path serves the measured and the traced pass.
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Replication factor of every plan compiled in the traced pass.
    pub replication_factors: Vec<f64>,
    pub stages: Vec<StageNote>,
    op_id: u32,
    block: u32,
    /// Index of the open `op` span, parent of every layer span.
    root: Option<u32>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            replication_factors: Vec::new(),
            stages: Vec::new(),
            op_id: 0,
            block: 0,
            root: None,
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::new()
        }
    }

    pub fn note_replication(&mut self, factor: usize) {
        if self.enabled {
            self.replication_factors.push(factor as f64);
        }
    }

    pub fn note_stage(
        &mut self,
        stage: &'static str,
        cycles: u64,
        modeled: Duration,
        host: Duration,
    ) {
        if self.enabled {
            self.stages.push(StageNote {
                stage,
                cycles,
                modeled,
                host,
                block: self.block,
            });
        }
    }

    pub fn set_block(&mut self, block: u32) {
        self.block = block;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of operation `op_id`.
    pub fn begin_op(&mut self, op_id: u32) {
        self.op_id = op_id;
        self.root = Some(self.spans.len() as u32);
        let now = self.now_ns();
        self.spans.push(Span {
            name: "op",
            start_ns: now,
            end_ns: now,
            parent: None,
            op_id,
            block: self.block,
            alloc_bytes: 0,
        });
    }

    pub fn end_op(&mut self) {
        if let Some(root) = self.root.take() {
            self.spans[root as usize].end_ns = self.now_ns();
        }
    }

    /// Times `f` as a child span of the open operation.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let alloc0 = host::alloc_bytes();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.root,
            op_id: self.op_id,
            block: self.block,
            alloc_bytes: host::alloc_bytes() - alloc0,
        });
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per operation, the normalised duration (µs) of each named child
    /// span; `speed[block]` is that block's host speed.
    pub fn per_op_us(&self, speed: &[f64]) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
        let mut ops: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent.is_some()) {
            let us = (s.end_ns - s.start_ns) as f64 / 1e3 * speed[s.block as usize];
            *ops.entry(s.op_id).or_default().entry(s.name).or_default() += us;
        }
        ops
    }

    /// Median bytes requested per span of `name`, in KiB.
    pub fn alloc_kb(&self, name: &str) -> f64 {
        let kb: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.alloc_bytes as f64 / 1024.0)
            .collect();
        crate::calib::median(&kb)
    }

    /// Writes the spans as Chrome trace events: one thread track per span
    /// name, the causal chain in the category field.
    pub fn write_chrome(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut chrome = ChromeTrace::new();
        chrome.process_name(0, &format!("genesis_e2e {workload}"));
        let mut tracks: BTreeMap<&'static str, u32> = BTreeMap::new();
        for s in &self.spans {
            let next = tracks.len() as u32;
            let tid = *tracks.entry(s.name).or_insert(next);
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            chrome.complete(
                0,
                tid,
                s.name,
                &format!("op={} parent={parent} block={}", s.op_id, s.block),
                s.start_ns / 1_000,
                (s.end_ns - s.start_ns) / 1_000,
            );
        }
        for (name, tid) in tracks {
            chrome.thread_name(0, tid, name);
        }
        chrome.write_to(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_op_and_normalise_per_block() {
        let mut rec = Recorder::new();
        rec.set_block(1);
        rec.begin_op(7);
        let got = rec.span("layer.call", || 41 + 1);
        rec.end_op();
        assert_eq!(got, 42);
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        rec.spans[1].start_ns = 0;
        rec.spans[1].end_ns = 10_000;
        let ops = rec.per_op_us(&[1.0, 0.5]);
        assert!((ops[&7]["layer.call"] - 5.0).abs() < 1e-9);
    }
}
