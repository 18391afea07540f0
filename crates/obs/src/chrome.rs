//! Chrome trace-event JSON export.
//!
//! Produces the JSON-object flavor of the [trace-event format] that both
//! `chrome://tracing` and Perfetto load directly: `"X"` complete events for
//! spans, `"C"` counter events for queue depths, and `"M"` metadata events
//! naming processes and threads. Timestamps are *simulated cycles* reported
//! in the format's microsecond field — one tick of the viewer's clock is
//! one accelerator cycle (document in the UI via `displayTimeUnit`).
//!
//! The builder renders events to strings immediately, so merging traces
//! from many batch systems is cheap and the final write is one
//! concatenation.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON string literal.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// An in-progress Chrome trace: accumulate events, then serialize once.
#[derive(Debug, Default, Clone)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Number of accumulated events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Names a process (one per batch `System` in merged exports).
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(name)
        ));
    }

    /// Names a thread (one per module track).
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(name)
        ));
    }

    /// Adds a complete (`"X"`) span: `[ts, ts + dur)` on track `(pid, tid)`.
    pub fn complete(&mut self, pid: u32, tid: u32, name: &str, cat: &str, ts: u64, dur: u64) {
        self.events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
             \"pid\":{pid},\"tid\":{tid}}}",
            escape_json(name),
            escape_json(cat)
        ));
    }

    /// Adds a counter (`"C"`) sample: one series named `series` under the
    /// counter track `name`.
    pub fn counter(&mut self, pid: u32, name: &str, series: &str, ts: u64, value: u64) {
        self.events.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"{}\":{value}}}}}",
            escape_json(name),
            escape_json(series)
        ));
    }

    /// Serializes to a complete trace-event JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 + self.events.iter().map(String::len).sum::<usize>());
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(e);
            out.push_str(if i + 1 < self.events.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }

    /// Writes the serialized trace to `path`, whole ([`crate::write_whole`]).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        crate::write_whole(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn trace_round_trips_through_parser() {
        let mut t = ChromeTrace::new();
        t.process_name(0, "batch 0");
        t.thread_name(0, 1, "joiner \"left\"");
        t.complete(0, 1, "active", "module", 10, 5);
        t.counter(0, "queue:in", "depth", 12, 3);
        let parsed = Json::parse(&t.to_json()).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 4);
        let x = &events[2];
        assert_eq!(x.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(x.get("ts").and_then(Json::as_u64), Some(10));
        assert_eq!(x.get("dur").and_then(Json::as_u64), Some(5));
        let name = events[1].get("args").and_then(|a| a.get("name")).and_then(Json::as_str);
        assert_eq!(name, Some("joiner \"left\""));
    }

    #[test]
    fn empty_trace_is_valid() {
        let parsed = Json::parse(&ChromeTrace::new().to_json()).unwrap();
        assert!(parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty());
    }
}
