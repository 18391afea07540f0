//! Bounded hardware queues with backpressure.

use crate::word::Flit;

/// Identifier of a queue within a [`QueuePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueId(pub(crate) u32);

impl QueueId {
    /// Raw index (stable for the lifetime of the pool).
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Default queue capacity in flits.
pub const DEFAULT_CAPACITY: usize = 16;

/// One bounded hardware queue: a fixed ring of
/// `capacity.next_power_of_two()` flit slots, at most `capacity` of them
/// occupied, plus the fast engine's wake state for the queue.
#[derive(Debug)]
pub struct Queue {
    slots: Box<[Flit]>,
    /// Slot of the head flit.
    head: usize,
    /// Buffered flits.
    len: usize,
    capacity: usize,
    closed: bool,
    /// Parked modules watching this queue (see [`QueuePool`]).
    watchers: u16,
    /// Listed in the pool's touch list since its last drain.
    touched: bool,
    /// Total flits ever enqueued (for utilization stats).
    pushed: u64,
    /// Cycles on which a push was refused for lack of space.
    full_stalls: u64,
    name: String,
}

impl Queue {
    /// A queue on `slots`, a ring of `capacity.next_power_of_two()` slots
    /// whose contents do not matter: a slot is read only after a push
    /// wrote it.
    fn new(name: String, capacity: usize, slots: Box<[Flit]>) -> Queue {
        debug_assert_eq!(slots.len(), capacity.next_power_of_two());
        Queue {
            slots,
            head: 0,
            len: 0,
            capacity,
            closed: false,
            watchers: 0,
            touched: false,
            pushed: 0,
            full_stalls: 0,
            name,
        }
    }

    /// Ring slot `n` places after the head.
    #[inline]
    fn slot(&self, n: usize) -> usize {
        (self.head + n) & (self.slots.len() - 1)
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
    #[inline]
    pub fn can_push(&self) -> bool {
        self.len < self.capacity
    }

    /// Pushes a flit.
    ///
    /// # Panics
    ///
    /// Panics when full or closed — callers must check [`Queue::can_push`]
    /// first (that is the backpressure contract).
    #[inline]
    pub fn push(&mut self, flit: Flit) {
        assert!(!self.closed, "push to closed queue {}", self.name);
        assert!(self.can_push(), "push to full queue {}", self.name);
        let tail = self.slot(self.len);
        self.slots[tail] = flit;
        self.len += 1;
        self.pushed += 1;
    }

    /// Records that a producer wanted to push but could not.
    #[inline]
    pub fn note_full_stall(&mut self) {
        self.full_stalls += 1;
    }

    /// Peeks at the head flit.
    #[must_use]
    #[inline]
    pub fn peek(&self) -> Option<&Flit> {
        (self.len != 0).then(|| &self.slots[self.head])
    }

    /// Pops the head flit.
    #[inline]
    pub fn pop(&mut self) -> Option<Flit> {
        if self.len == 0 {
            return None;
        }
        let flit = self.slots[self.head];
        self.head = self.slot(1);
        self.len -= 1;
        Some(flit)
    }

    /// Number of buffered flits.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no flits are buffered.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks the stream complete: no further flits will arrive.
    #[inline]
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
    #[inline]
    pub fn is_finished(&self) -> bool {
        self.closed && self.len == 0
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
/// the side of touching. Touches are only recorded for queues some parked
/// module is watching, so active modules' routine queue traffic costs one
/// predictable branch. Tracking is off by default so the reference
/// engine — and the fast engine whenever nothing is parked — pays nothing
/// on the queue-access hot path.
#[derive(Debug, Default)]
pub struct QueuePool {
    queues: Vec<Queue>,
    /// Queue indices touched since the last drain (each at most once).
    touched: Vec<u32>,
    /// Whether `get_mut` records touches at all.
    tracking: bool,
    /// Rings of a reset system's queues ([`QueuePool::recycle`]), the
    /// next queue's ring last.
    spare: Vec<Box<[Flit]>>,
}

impl QueuePool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> QueuePool {
        QueuePool::default()
    }

    /// Adds a queue with [`DEFAULT_CAPACITY`].
    pub fn add(&mut self, name: impl Into<String>) -> QueueId {
        self.add_with_capacity(name, DEFAULT_CAPACITY)
    }

    /// Adds a queue with an explicit capacity.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    pub fn add_with_capacity(&mut self, name: impl Into<String>, capacity: usize) -> QueueId {
        assert!(capacity > 0, "queue capacity must be positive");
        let slots = capacity.next_power_of_two();
        let ring = match self.spare.iter().rposition(|r| r.len() == slots) {
            Some(i) => self.spare.swap_remove(i),
            None => {
                // A ring of another size makes way, so the spares never
                // outnumber the queues one system had.
                self.spare.pop();
                vec![Flit::new(); slots].into_boxed_slice()
            }
        };
        self.queues.push(Queue::new(name.into(), capacity, ring));
        QueueId(self.queues.len() as u32 - 1)
    }

    /// Keeps `old`'s buffers for the queues this empty pool adds next:
    /// its rings, in the order `old` added their queues, and its lists'
    /// capacity. Nothing else of `old` survives.
    pub(crate) fn recycle(&mut self, old: QueuePool) {
        debug_assert!(self.queues.is_empty(), "recycle into an empty pool");
        let QueuePool { mut queues, mut touched, mut spare, .. } = old;
        spare.extend(queues.drain(..).rev().map(|q| q.slots));
        touched.clear();
        (self.queues, self.touched, self.spare) = (queues, touched, spare);
    }

    /// Borrows a queue.
    #[must_use]
    #[inline]
    pub fn get(&self, id: QueueId) -> &Queue {
        &self.queues[id.index()]
    }

    /// Mutably borrows a queue, marking it touched for the fast
    /// engine's wake tracking when tracking is enabled.
    #[must_use]
    #[inline]
    pub fn get_mut(&mut self, id: QueueId) -> &mut Queue {
        let q = &mut self.queues[id.index()];
        if self.tracking && q.watchers != 0 && !q.touched {
            q.touched = true;
            self.touched.push(id.0);
        }
        q
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
        self.queues[q.index()].watchers += 1;
    }

    /// Unregisters one parked watcher of `q`.
    pub(crate) fn remove_watch(&mut self, q: QueueId) {
        self.queues[q.index()].watchers -= 1;
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
        for q in &mut self.queues {
            q.watchers = 0;
        }
    }

    /// Turns touch recording on or off, discarding any pending touches.
    /// The fast engine enables tracking only while at least one module is
    /// parked — with nothing parked there is nobody to wake, so the
    /// hot-path bookkeeping can be skipped entirely.
    pub(crate) fn set_touch_tracking(&mut self, on: bool) {
        if self.tracking != on {
            for &i in &self.touched {
                self.queues[i as usize].touched = false;
            }
            self.touched.clear();
            self.tracking = on;
        }
    }

    /// Drains the indices of queues touched since the last call into
    /// `out`, clearing the tracking state.
    pub(crate) fn take_touched(&mut self, out: &mut Vec<u32>) {
        for &i in &self.touched {
            self.queues[i as usize].touched = false;
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

    /// Fills and drains each ring in uneven bursts until its head has gone
    /// round at least three times: order, length and `peek` must follow a
    /// plain FIFO throughout.
    #[test]
    fn fifo_order_holds_across_wraps() {
        for capacity in [1, 3, 16] {
            let mut pool = QueuePool::new();
            let q = pool.add_with_capacity("q", capacity);
            let slots = capacity.next_power_of_two() as u64;
            let (mut next_in, mut next_out) = (0u64, 0u64);
            let mut burst = 1;
            while next_out < 3 * slots + 1 {
                let queue = pool.get_mut(q);
                for _ in 0..burst {
                    if !queue.can_push() {
                        break;
                    }
                    queue.push(Flit::val(next_in));
                    next_in += 1;
                }
                assert_eq!(queue.len() as u64, next_in - next_out, "capacity {capacity}");
                // Leave a flit behind on odd bursts, so the head and the
                // tail wrap at different times.
                let keep = (burst % 2).min(capacity - 1);
                while queue.len() > keep {
                    assert_eq!(queue.peek(), Some(&Flit::val(next_out)));
                    assert_eq!(queue.pop(), Some(Flit::val(next_out)), "capacity {capacity}");
                    next_out += 1;
                }
                burst = burst % capacity + 1;
            }
            assert_eq!(pool.get(q).total_pushed(), next_in);
        }
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

    /// The ring has a spare slot at capacity 3; the logical bound holds.
    #[test]
    fn capacity_three_refuses_the_fourth_push() {
        let mut pool = QueuePool::new();
        let q = pool.add_with_capacity("q", 3);
        let queue = pool.get_mut(q);
        for v in 0..3 {
            assert!(queue.can_push());
            queue.push(Flit::val(v));
        }
        assert!(!queue.can_push(), "4 slots, capacity 3");
        assert_eq!(queue.capacity(), 3);
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
    #[should_panic(expected = "closed queue")]
    fn push_closed_panics() {
        let mut pool = QueuePool::new();
        let q = pool.add("q");
        pool.get_mut(q).close();
        pool.get_mut(q).push(Flit::val(1));
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

    /// Touches are recorded only while tracking is on and only for watched
    /// queues, each listed once per drain; both ways of ending a drain
    /// period clear the in-queue flags so the next touch is seen again.
    #[test]
    fn touch_tracking_lists_watched_queues_once() {
        let mut pool = QueuePool::new();
        let (a, b) = (pool.add("a"), pool.add("b"));
        pool.add_watch(a);
        let _ = pool.get_mut(a);
        assert!(!pool.has_touched(), "tracking is off by default");

        pool.set_touch_tracking(true);
        let _ = pool.get_mut(b);
        assert!(!pool.has_touched(), "nobody watches b");
        pool.get_mut(a).push(Flit::val(1));
        let _ = pool.get_mut(a).pop();
        let mut out = Vec::new();
        pool.take_touched(&mut out);
        assert_eq!(out, vec![a.0], "touched twice, listed once");
        assert!(!pool.get(a).touched, "take_touched clears the flag");

        let _ = pool.get_mut(a);
        assert!(pool.get(a).touched);
        pool.set_touch_tracking(false);
        assert!(!pool.has_touched() && !pool.get(a).touched, "switching off discards");
        pool.set_touch_tracking(true);
        let _ = pool.get_mut(a);
        out.clear();
        pool.take_touched(&mut out);
        assert_eq!(out, vec![a.0], "a discarded touch does not hide the next one");

        pool.remove_watch(a);
        let _ = pool.get_mut(a);
        assert!(!pool.has_touched(), "an unwatched queue is not recorded");
    }
}
