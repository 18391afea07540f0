//! Deterministic multi-tenant scheduling primitives for the serving layer.
//!
//! The [`FairQueue`] implements per-tenant round-robin fair queuing: each
//! tenant gets a FIFO lane, and lanes are drained in a rotation that is a
//! pure function of the submission sequence — no clocks, no randomness —
//! so the dispatch order produced by [`crate::serve::GenesisServer`] is
//! identical at any device-pool size or host thread count (the property
//! `tests/serve.rs` proptests, mirroring `engine_determinism`). The
//! [`DispatchRecord`] log is the evidence: one entry per dispatched job in
//! dispatch order.

use std::collections::{HashMap, VecDeque};

/// Per-tenant round-robin fair queue.
///
/// Jobs from the same tenant run in submission order; across tenants the
/// queue rotates, so a tenant that floods the server cannot starve the
/// others. A tenant enters the rotation when its lane first becomes
/// non-empty and leaves it — lane and all, so the queue holds nothing for
/// a tenant with nothing queued — when the lane drains, which makes the
/// pop sequence deterministic for a fixed push sequence.
#[derive(Debug, Default)]
pub struct FairQueue<T> {
    lanes: HashMap<String, VecDeque<T>>,
    rotation: VecDeque<String>,
    len: usize,
}

impl<T> FairQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> FairQueue<T> {
        FairQueue { lanes: HashMap::new(), rotation: VecDeque::new(), len: 0 }
    }

    /// Appends a job to `tenant`'s lane; the tenant joins the rotation if
    /// its lane was empty.
    pub fn push(&mut self, tenant: &str, job: T) {
        match self.lanes.get_mut(tenant) {
            Some(lane) => lane.push_back(job),
            None => {
                self.lanes.insert(tenant.to_owned(), VecDeque::from([job]));
                self.rotation.push_back(tenant.to_owned());
            }
        }
        self.len += 1;
    }

    /// Removes and returns the next job in fair order, with its tenant.
    pub fn pop(&mut self) -> Option<(String, T)> {
        let tenant = self.rotation.pop_front()?;
        let lane = self.lanes.get_mut(&tenant).expect("rotation names a live lane");
        let job = lane.pop_front().expect("rotation only holds non-empty lanes");
        if lane.is_empty() {
            self.lanes.remove(&tenant);
        } else {
            self.rotation.push_back(tenant.clone());
        }
        self.len -= 1;
        Some((tenant, job))
    }

    /// Total queued jobs across all tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no jobs are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued jobs for one tenant.
    #[must_use]
    pub fn depth(&self, tenant: &str) -> usize {
        self.lanes.get(tenant).map_or(0, VecDeque::len)
    }
}

/// One dispatched job in the server's schedule log.
///
/// `seq` numbers dispatches globally (0, 1, 2, …). The `(tenant, job_id)`
/// sequence is deterministic for a fixed submission order; the `device`
/// assignment depends on which pool worker was free and is *not* part of
/// the determinism contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchRecord {
    /// Global dispatch sequence number.
    pub seq: u64,
    /// Tenant whose job was dispatched.
    pub tenant: String,
    /// The server-assigned job id.
    pub job_id: u64,
    /// Index of the pool device the job ran on.
    pub device: usize,
    /// Microseconds from server start to submission.
    pub queued_us: u64,
    /// Microseconds from server start to dispatch.
    pub start_us: u64,
    /// Microseconds from server start to completion (0 while in flight).
    pub end_us: u64,
    /// Shard ordinal of this dispatch within its job (0 when unsharded).
    pub shard: usize,
    /// Total shards the job was split into (1 when unsharded).
    pub shards: usize,
}

/// Reference model of the fair-queue dispatch order: given `(tenant,
/// job_id)` submissions in order, returns the `(tenant, job_id)` sequence
/// a [`FairQueue`] drained all at once would produce. Tests compare the
/// server's actual schedule log against this.
#[must_use]
pub fn fair_order(submissions: &[(String, u64)]) -> Vec<(String, u64)> {
    let mut queue = FairQueue::new();
    for (tenant, id) in submissions {
        queue.push(tenant, *id);
    }
    let mut out = Vec::with_capacity(submissions.len());
    while let Some((tenant, id)) = queue.pop() {
        out.push((tenant, id));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut FairQueue<u32>) -> Vec<(String, u32)> {
        let mut out = Vec::new();
        while let Some(x) = q.pop() {
            out.push(x);
        }
        out
    }

    #[test]
    fn round_robin_across_tenants_fifo_within() {
        let mut q = FairQueue::new();
        for (t, j) in
            [("a", 1), ("a", 2), ("a", 3), ("b", 10), ("b", 11), ("c", 20)]
        {
            q.push(t, j);
        }
        assert_eq!(q.len(), 6);
        assert_eq!(q.depth("a"), 3);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, j)| j).collect();
        // a b c a b a — no tenant starved, FIFO inside each lane.
        assert_eq!(order, vec![1, 10, 20, 2, 11, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn tenant_rejoins_rotation_at_the_back() {
        let mut q = FairQueue::new();
        q.push("a", 1);
        q.push("b", 2);
        assert_eq!(q.pop(), Some(("a".to_owned(), 1)));
        // `a` drained; pushing again puts it behind `b`.
        q.push("a", 3);
        assert_eq!(q.pop(), Some(("b".to_owned(), 2)));
        assert_eq!(q.pop(), Some(("a".to_owned(), 3)));
        assert_eq!(q.pop(), None);
    }

    /// Regression: a drained tenant's lane used to stay in `lanes` for
    /// the queue's lifetime, one `(String, VecDeque)` per name ever seen.
    #[test]
    fn drained_tenants_leave_nothing_behind() {
        let mut q = FairQueue::new();
        for t in 0..10_000u32 {
            q.push(&format!("tenant-{t}"), t);
        }
        assert_eq!(drain(&mut q).len(), 10_000);
        assert!(q.lanes.is_empty(), "{} lanes outlived their jobs", q.lanes.len());
        assert!(q.rotation.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn fair_order_matches_manual_drain() {
        let subs: Vec<(String, u64)> = [("x", 0), ("y", 1), ("x", 2), ("z", 3), ("x", 4)]
            .into_iter()
            .map(|(t, j)| (t.to_owned(), j))
            .collect();
        let order = fair_order(&subs);
        let ids: Vec<u64> = order.iter().map(|(_, j)| *j).collect();
        assert_eq!(ids, vec![0, 1, 3, 2, 4]);
    }
}
