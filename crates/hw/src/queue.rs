//! Bounded hardware queues with backpressure.

use crate::word::Flit;
use std::collections::VecDeque;

/// Identifier of a queue within a [`QueuePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueId(pub(crate) u32);

impl QueueId {
    /// Raw index (stable for the lifetime of the pool).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Default queue capacity in flits.
pub const DEFAULT_CAPACITY: usize = 16;

/// One bounded hardware queue.
#[derive(Debug)]
pub struct Queue {
    name: String,
    buf: VecDeque<Flit>,
    capacity: usize,
    closed: bool,
    /// Total flits ever enqueued (for utilization stats).
    pushed: u64,
    /// Cycles on which a push was refused for lack of space.
    full_stalls: u64,
}

impl Queue {
    fn new(name: &str, capacity: usize) -> Queue {
        Queue {
            name: name.to_owned(),
            buf: VecDeque::with_capacity(capacity),
            capacity,
            closed: false,
            pushed: 0,
            full_stalls: 0,
        }
    }

    /// Queue name (for diagnostics).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Configured capacity in flits.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when a flit can be pushed this cycle.
    #[must_use]
    pub fn can_push(&self) -> bool {
        self.buf.len() < self.capacity
    }

    /// Pushes a flit.
    ///
    /// # Panics
    ///
    /// Panics when full or closed — callers must check [`Queue::can_push`]
    /// first (that is the backpressure contract).
    pub fn push(&mut self, flit: Flit) {
        assert!(!self.closed, "push to closed queue {}", self.name);
        assert!(self.can_push(), "push to full queue {}", self.name);
        self.buf.push_back(flit);
        self.pushed += 1;
    }

    /// Records that a producer wanted to push but could not.
    pub fn note_full_stall(&mut self) {
        self.full_stalls += 1;
    }

    /// Peeks at the head flit.
    #[must_use]
    pub fn peek(&self) -> Option<&Flit> {
        self.buf.front()
    }

    /// Pops the head flit.
    pub fn pop(&mut self) -> Option<Flit> {
        self.buf.pop_front()
    }

    /// Number of buffered flits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no flits are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Marks the stream complete: no further flits will arrive.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// True once the producer closed the stream.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// True when the stream is closed *and* fully drained — the consumer's
    /// end-of-stream condition.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.closed && self.buf.is_empty()
    }

    /// Total flits ever pushed.
    #[must_use]
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total refused pushes.
    #[must_use]
    pub fn total_full_stalls(&self) -> u64 {
        self.full_stalls
    }

}

/// All queues of a simulated system, addressed by [`QueueId`].
///
/// When touch tracking is enabled (an engine-internal
/// switch),
/// the pool records which queues have been handed out mutably since the
/// engine last drained the touch list. The fast engine uses
/// this as a conservative change signal: any `get_mut` (a push, pop,
/// close, or even a refused push) marks the queue touched, and parked
/// modules watching a touched queue are re-ticked. Spurious wakes are
/// harmless; missed wakes would break the engine, so the tracking errs on
/// the side of touching. Tracking is off by default so the reference
/// engine — and the fast engine whenever nothing is parked — pays nothing
/// on the queue-access hot path.
#[derive(Debug, Default)]
pub struct QueuePool {
    queues: Vec<Queue>,
    /// Queue indices touched since the last drain (each at most once).
    touched: Vec<u32>,
    /// Dedup flags parallel to `queues`.
    touch_flag: Vec<bool>,
    /// Number of currently-parked modules watching each queue. Touches are
    /// only recorded for queues someone is actually waiting on, so active
    /// modules' routine queue traffic costs one predictable branch.
    watch_count: Vec<u16>,
    /// Whether `get_mut` records touches at all.
    tracking: bool,
}

impl QueuePool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> QueuePool {
        QueuePool::default()
    }

    /// Adds a queue with [`DEFAULT_CAPACITY`].
    pub fn add(&mut self, name: &str) -> QueueId {
        self.add_with_capacity(name, DEFAULT_CAPACITY)
    }

    /// Adds a queue with an explicit capacity.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    pub fn add_with_capacity(&mut self, name: &str, capacity: usize) -> QueueId {
        assert!(capacity > 0, "queue capacity must be positive");
        self.queues.push(Queue::new(name, capacity));
        self.touch_flag.push(false);
        self.watch_count.push(0);
        QueueId(self.queues.len() as u32 - 1)
    }

    /// Borrows a queue.
    #[must_use]
    pub fn get(&self, id: QueueId) -> &Queue {
        &self.queues[id.index()]
    }

    /// Mutably borrows a queue, marking it touched for the fast
    /// engine's wake tracking when tracking is enabled.
    #[must_use]
    pub fn get_mut(&mut self, id: QueueId) -> &mut Queue {
        let i = id.index();
        if self.tracking && self.watch_count[i] != 0 && !self.touch_flag[i] {
            self.touch_flag[i] = true;
            self.touched.push(id.0);
        }
        &mut self.queues[i]
    }

    /// Adds `n` refused pushes to `q`'s counter without marking the queue
    /// touched: the fast engine's closed-form credit for the ticks a
    /// [`crate::modules::Watch::Full`] park skipped is bookkeeping, not a
    /// queue event, and must wake nobody.
    pub(crate) fn credit_full_stalls(&mut self, q: QueueId, n: u64) {
        self.queues[q.index()].full_stalls += n;
    }

    /// Registers a parked watcher on `q`: `get_mut` touches of `q` will be
    /// recorded until the matching [`QueuePool::remove_watch`].
    pub(crate) fn add_watch(&mut self, q: QueueId) {
        self.watch_count[q.index()] += 1;
    }

    /// Unregisters one parked watcher of `q`.
    pub(crate) fn remove_watch(&mut self, q: QueueId) {
        self.watch_count[q.index()] -= 1;
    }

    /// True when any touches are pending — a cheap pre-check so the engine
    /// can skip the drain on the (overwhelmingly common) quiet ticks.
    #[inline]
    pub(crate) fn has_touched(&self) -> bool {
        !self.touched.is_empty()
    }

    /// Clears all watch registrations (engine run boundaries and error
    /// exits, where parked bookkeeping is abandoned wholesale).
    pub(crate) fn clear_watches(&mut self) {
        self.watch_count.fill(0);
    }

    /// Turns touch recording on or off, discarding any pending touches.
    /// The fast engine enables tracking only while at least one module is
    /// parked — with nothing parked there is nobody to wake, so the
    /// hot-path bookkeeping can be skipped entirely.
    pub(crate) fn set_touch_tracking(&mut self, on: bool) {
        if self.tracking != on {
            for &i in &self.touched {
                self.touch_flag[i as usize] = false;
            }
            self.touched.clear();
            self.tracking = on;
        }
    }

    /// Drains the indices of queues touched since the last call into
    /// `out`, clearing the tracking state.
    pub(crate) fn take_touched(&mut self, out: &mut Vec<u32>) {
        for &i in &self.touched {
            self.touch_flag[i as usize] = false;
        }
        out.append(&mut self.touched);
    }

    /// Number of queues.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// True when the pool has no queues.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// Iterates over all queues.
    pub fn iter(&self) -> std::slice::Iter<'_, Queue> {
        self.queues.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut pool = QueuePool::new();
        let q = pool.add("q");
        pool.get_mut(q).push(Flit::val(1));
        pool.get_mut(q).push(Flit::val(2));
        assert_eq!(pool.get_mut(q).pop(), Some(Flit::val(1)));
        assert_eq!(pool.get_mut(q).pop(), Some(Flit::val(2)));
        assert_eq!(pool.get_mut(q).pop(), None);
    }

    #[test]
    fn capacity_backpressure() {
        let mut pool = QueuePool::new();
        let q = pool.add_with_capacity("q", 2);
        let queue = pool.get_mut(q);
        queue.push(Flit::val(1));
        queue.push(Flit::val(2));
        assert!(!queue.can_push());
        queue.pop();
        assert!(queue.can_push());
    }

    #[test]
    #[should_panic(expected = "full queue")]
    fn push_full_panics() {
        let mut pool = QueuePool::new();
        let q = pool.add_with_capacity("q", 1);
        pool.get_mut(q).push(Flit::val(1));
        pool.get_mut(q).push(Flit::val(2));
    }

    #[test]
    fn close_semantics() {
        let mut pool = QueuePool::new();
        let q = pool.add("q");
        pool.get_mut(q).push(Flit::val(1));
        pool.get_mut(q).close();
        assert!(pool.get(q).is_closed());
        assert!(!pool.get(q).is_finished());
        pool.get_mut(q).pop();
        assert!(pool.get(q).is_finished());
    }

    #[test]
    fn stats_count() {
        let mut pool = QueuePool::new();
        let q = pool.add("q");
        pool.get_mut(q).push(Flit::val(1));
        pool.get_mut(q).note_full_stall();
        assert_eq!(pool.get(q).total_pushed(), 1);
        assert_eq!(pool.get(q).total_full_stalls(), 1);
    }

    #[test]
    fn per_queue_stats_survive_push_pop() {
        let mut pool = QueuePool::new();
        let q = pool.add("q");
        pool.get_mut(q).push(Flit::val(1));
        pool.get_mut(q).push(Flit::val(2));
        pool.get_mut(q).pop();
        pool.get_mut(q).push(Flit::val(3));
        assert_eq!(pool.get(q).total_pushed(), 3);
        assert_eq!(pool.get(q).total_full_stalls(), 0);
    }
}
