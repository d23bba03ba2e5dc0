//! Admission control: bounded queueing, per-tenant quotas, and fair
//! round-robin dispatch.
//!
//! [`Admission`] is deliberately free of any networking or threading —
//! it is a plain data structure the server's scheduler drives under
//! one lock, which makes the robustness headline properties (typed
//! load-shedding, fairness, quota isolation) unit-testable without a
//! socket in sight.
//!
//! The shape mirrors the paper's theme at the resource-management
//! level: just as virtual snooping partitions coherence traffic by VM
//! so one guest's misses don't storm every core, admission partitions
//! the job queue by tenant so one greedy client can neither starve the
//! others (round-robin dispatch across tenants) nor exhaust shared
//! memory (per-tenant queue-depth and queued-bytes caps inside a
//! global cap).

use std::collections::BTreeMap;

use super::protocol::ShedReason;

/// Per-tenant admission limits.
#[derive(Clone, Copy, Debug)]
pub struct TenantQuota {
    /// Max jobs a tenant may have dispatched-but-unfinished.
    pub max_inflight: usize,
    /// Max jobs a tenant may have waiting in the queue.
    pub max_queued: usize,
    /// Max total request-payload bytes a tenant may have queued.
    pub max_queued_bytes: usize,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_inflight: 4,
            max_queued: 64,
            max_queued_bytes: 1 << 20,
        }
    }
}

/// One queued unit of work. `T` is the server's job payload; the
/// admission logic only needs its accounted byte size.
#[derive(Debug)]
struct Queued<T> {
    job: T,
    bytes: usize,
}

/// Per-tenant bookkeeping.
#[derive(Debug)]
struct TenantState<T> {
    queue: Vec<Queued<T>>,
    /// Slots taken by [`Admission::reserve`] and not yet filled by
    /// [`Admission::publish`]. They count against every queue cap but
    /// hold no job, so neither dispatch nor eviction can see them.
    reserved: usize,
    queued_bytes: usize,
    inflight: usize,
    done: u64,
    shed: u64,
}

// Manual impl: `derive(Default)` would wrongly require `T: Default`.
impl<T> Default for TenantState<T> {
    fn default() -> Self {
        TenantState {
            queue: Vec::new(),
            reserved: 0,
            queued_bytes: 0,
            inflight: 0,
            done: 0,
            shed: 0,
        }
    }
}

/// The admission controller: a global bounded queue partitioned per
/// tenant, with round-robin dispatch across tenants.
///
/// Not thread-safe by itself — the server wraps it in a `Mutex`.
#[derive(Debug)]
pub struct Admission<T> {
    quota: TenantQuota,
    /// Global cap on total queued jobs across all tenants.
    queue_cap: usize,
    tenants: BTreeMap<String, TenantState<T>>,
    /// Round-robin cursor: the tenant *after* this name gets the next
    /// dispatch. `None` restarts from the first tenant.
    cursor: Option<String>,
    queued_total: usize,
    draining: bool,
}

impl<T> Admission<T> {
    /// Creates an admission controller with a global queue cap and a
    /// per-tenant quota applied uniformly.
    pub fn new(queue_cap: usize, quota: TenantQuota) -> Self {
        Admission {
            quota,
            queue_cap,
            tenants: BTreeMap::new(),
            cursor: None,
            queued_total: 0,
            draining: false,
        }
    }

    /// Switches to draining: every future [`offer`](Self::offer) sheds
    /// with [`ShedReason::Draining`].
    pub fn set_draining(&mut self) {
        self.draining = true;
    }

    /// Whether the controller is draining.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Total queued jobs across all tenants, reservations included.
    pub fn queued_total(&self) -> usize {
        self.queued_total
    }

    /// Total in-flight (dispatched, unfinished) jobs across tenants.
    pub fn inflight_total(&self) -> usize {
        self.tenants.values().map(|t| t.inflight).sum()
    }

    /// The shed checks and capacity accounting shared by
    /// [`reserve`](Self::reserve) and [`offer`](Self::offer): on `Ok`
    /// one queue slot and `bytes` are charged to `tenant`.
    fn admit(&mut self, tenant: &str, bytes: usize) -> Result<&mut TenantState<T>, ShedReason> {
        // Every shed path creates the tenant entry: a tenant that only
        // ever gets shed still shows up (with its shed count) in
        // status output.
        let state = self.tenants.entry(tenant.to_string()).or_default();
        if self.draining {
            state.shed += 1;
            return Err(ShedReason::Draining);
        }
        if self.queued_total >= self.queue_cap {
            state.shed += 1;
            return Err(ShedReason::QueueFull);
        }
        if state.queue.len() + state.reserved >= self.quota.max_queued {
            state.shed += 1;
            return Err(ShedReason::TenantQueueFull);
        }
        if state.queued_bytes + bytes > self.quota.max_queued_bytes {
            state.shed += 1;
            return Err(ShedReason::TenantBytes);
        }
        state.queued_bytes += bytes;
        self.queued_total += 1;
        Ok(state)
    }

    /// Offers a job for `tenant`, accounting `bytes` of request
    /// payload against the tenant's byte quota. Rejections are typed
    /// and cheap; acceptance enqueues at the tenant's tail.
    pub fn offer(&mut self, tenant: &str, job: T, bytes: usize) -> Result<(), ShedReason> {
        self.admit(tenant, bytes)?.queue.push(Queued { job, bytes });
        Ok(())
    }

    /// [`offer`](Self::offer) in two steps: takes the queue slot now
    /// and leaves the job out of the queue until
    /// [`publish`](Self::publish). The server makes the acceptance
    /// durable and acknowledges it in between, so the scheduler can
    /// never finish a job whose client has not been told about it. The
    /// caller owes exactly one `publish` for every `Ok`.
    pub fn reserve(&mut self, tenant: &str, bytes: usize) -> Result<(), ShedReason> {
        self.admit(tenant, bytes)?.reserved += 1;
        Ok(())
    }

    /// Fills a slot taken by [`reserve`](Self::reserve) (same `tenant`
    /// and `bytes`): the job joins the tenant's tail and becomes
    /// visible to dispatch and eviction. Allowed while draining — the
    /// reservation predates the drain, and the scheduler waits for it.
    pub fn publish(&mut self, tenant: &str, job: T, bytes: usize) {
        let state = self.tenants.entry(tenant.to_string()).or_default();
        state.reserved = state.reserved.saturating_sub(1);
        state.queue.push(Queued { job, bytes });
    }

    /// Re-enqueues a job recovered from the write-ahead log under its
    /// original tenant accounting, **bypassing the shed checks**: the
    /// job was already admitted (and its acceptance acknowledged to
    /// the client) before the crash, so refusing it now would break
    /// the no-loss contract. Quota caps still bind for *new* work; the
    /// restored backlog simply counts against them.
    pub fn restore(&mut self, tenant: &str, job: T, bytes: usize) {
        let state = self.tenants.entry(tenant.to_string()).or_default();
        state.queue.push(Queued { job, bytes });
        state.queued_bytes += bytes;
        self.queued_total += 1;
    }

    /// Picks the next job to dispatch, or `None` if every tenant with
    /// queued work is at its in-flight quota (or nothing is queued).
    ///
    /// Fairness: tenants are visited round-robin in name order,
    /// resuming after the tenant that got the previous dispatch, so a
    /// tenant that queues 100 jobs cannot starve one that queues 2.
    pub fn next_dispatch(&mut self) -> Option<(String, T)> {
        if self.tenants.is_empty() {
            return None;
        }
        // Candidate order: names after the cursor, then wrap to the
        // start. BTreeMap iteration is sorted, so this is a stable
        // rotation regardless of insertion order.
        let names: Vec<String> = {
            let after: Vec<&String> = match &self.cursor {
                Some(c) => self
                    .tenants
                    .range::<String, _>((
                        std::ops::Bound::Excluded(c.clone()),
                        std::ops::Bound::Unbounded,
                    ))
                    .map(|(k, _)| k)
                    .collect(),
                None => self.tenants.keys().collect(),
            };
            let wrapped: Vec<&String> = match &self.cursor {
                Some(c) => self
                    .tenants
                    .range::<String, _>((
                        std::ops::Bound::Unbounded,
                        std::ops::Bound::Included(c.clone()),
                    ))
                    .map(|(k, _)| k)
                    .collect(),
                None => Vec::new(),
            };
            after.into_iter().chain(wrapped).cloned().collect()
        };
        for name in names {
            let state = self.tenants.get_mut(&name).expect("tenant vanished");
            if state.queue.is_empty() || state.inflight >= self.quota.max_inflight {
                continue;
            }
            let queued = state.queue.remove(0);
            state.queued_bytes -= queued.bytes;
            state.inflight += 1;
            self.queued_total -= 1;
            self.cursor = Some(name.clone());
            return Some((name, queued.job));
        }
        None
    }

    /// Records a dispatched job finishing (any outcome), releasing the
    /// tenant's in-flight slot.
    pub fn finish(&mut self, tenant: &str) {
        if let Some(state) = self.tenants.get_mut(tenant) {
            state.inflight = state.inflight.saturating_sub(1);
            state.done += 1;
        }
    }

    /// Records a terminal outcome for a job that was still *queued*
    /// (a drain eviction): bumps the tenant's done count without
    /// touching its in-flight slot accounting.
    pub fn finish_queued(&mut self, tenant: &str) {
        if let Some(state) = self.tenants.get_mut(tenant) {
            state.done += 1;
        }
    }

    /// Empties every tenant's queue, returning the evicted jobs in
    /// (tenant-name, job) pairs. Used by the drain: queued work is
    /// journaled as cancelled rather than silently dropped. Unfilled
    /// reservations stay counted, so the drain can tell it must wait
    /// for their `publish`.
    pub fn evict_queued(&mut self) -> Vec<(String, T)> {
        let mut out = Vec::new();
        for (name, state) in &mut self.tenants {
            for queued in state.queue.drain(..) {
                state.queued_bytes -= queued.bytes;
                self.queued_total -= 1;
                out.push((name.clone(), queued.job));
            }
        }
        out
    }

    /// Per-tenant counters for status responses, in name order:
    /// `(tenant, queued, running, done, shed)`.
    pub fn tenant_counters(&self) -> Vec<(String, u64, u64, u64, u64)> {
        self.tenants
            .iter()
            .map(|(name, s)| {
                (
                    name.clone(),
                    (s.queue.len() + s.reserved) as u64,
                    s.inflight as u64,
                    s.done,
                    s.shed,
                )
            })
            .collect()
    }

    /// Total sheds across all tenants.
    pub fn shed_total(&self) -> u64 {
        self.tenants.values().map(|t| t.shed).sum()
    }

    /// Total terminal jobs across all tenants.
    pub fn done_total(&self) -> u64 {
        self.tenants.values().map(|t| t.done).sum()
    }
}

/// Per-connection pipelining cap: how many submits one socket may have
/// in flight (accepted, not yet answered with their terminal `done`).
///
/// This is the connection-level sibling of the per-tenant quotas above:
/// quotas stop one *tenant* from monopolizing the queue, the gate stops
/// one *socket* from turning unbounded pipelining into unbounded
/// server-side reply buffering. Excess submits shed with the retryable
/// [`ShedReason::PipelineFull`].
///
/// Thread model: `try_acquire` is only called from the reactor thread
/// (requests on one connection are processed in order), while `release`
/// races in from the scheduler as jobs finish — so a relaxed
/// check-then-increment cannot overshoot the limit. [`acquire`]
/// (unconditional) exists for idempotent-duplicate waiters: answering
/// an already-made promise must never shed.
///
/// [`acquire`]: PipelineGate::acquire
#[derive(Debug)]
pub struct PipelineGate {
    limit: usize,
    inflight: std::sync::atomic::AtomicUsize,
}

impl PipelineGate {
    /// Creates a gate admitting at most `limit` in-flight submits
    /// (clamped to at least 1 — a gate that sheds everything would
    /// make the connection useless).
    pub fn new(limit: usize) -> Self {
        PipelineGate {
            limit: limit.max(1),
            inflight: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Takes a slot if one is free. Only the connection's owning
    /// (reactor) thread may call this.
    pub fn try_acquire(&self) -> bool {
        use std::sync::atomic::Ordering;
        if self.inflight.load(Ordering::Relaxed) >= self.limit {
            return false;
        }
        self.inflight.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Takes a slot unconditionally (may exceed the limit): used when
    /// the reply is already owed, e.g. a duplicate submit attaching to
    /// an in-flight idempotency key.
    pub fn acquire(&self) {
        self.inflight
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Returns a slot (saturating; called once per terminal reply).
    pub fn release(&self) {
        use std::sync::atomic::Ordering;
        let _ = self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
    }

    /// Current in-flight submits on this connection.
    pub fn inflight(&self) -> usize {
        self.inflight.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quota(max_inflight: usize, max_queued: usize, max_queued_bytes: usize) -> TenantQuota {
        TenantQuota {
            max_inflight,
            max_queued,
            max_queued_bytes,
        }
    }

    #[test]
    fn global_queue_cap_sheds_typed() {
        let mut a = Admission::new(2, quota(8, 8, 1 << 20));
        assert!(a.offer("t1", 1, 10).is_ok());
        assert!(a.offer("t2", 2, 10).is_ok());
        assert_eq!(a.offer("t3", 3, 10), Err(ShedReason::QueueFull));
        assert_eq!(a.queued_total(), 2);
    }

    #[test]
    fn tenant_queue_and_byte_quotas_shed_typed() {
        let mut a = Admission::new(100, quota(8, 2, 25));
        assert!(a.offer("t", 1, 10).is_ok());
        assert!(a.offer("t", 2, 10).is_ok());
        assert_eq!(a.offer("t", 3, 1), Err(ShedReason::TenantQueueFull));
        // A different tenant is unaffected by t's full queue.
        assert!(a.offer("u", 4, 10).is_ok());
        // Byte quota binds before queue depth when payloads are fat.
        assert_eq!(a.offer("u", 5, 20), Err(ShedReason::TenantBytes));
        assert_eq!(a.shed_total(), 2);
    }

    #[test]
    fn dispatch_is_round_robin_across_tenants() {
        let mut a = Admission::new(100, quota(8, 8, 1 << 20));
        // "a" floods the queue before "b" submits two jobs.
        for i in 0..4 {
            a.offer("a", ("a", i), 1).unwrap();
        }
        a.offer("b", ("b", 0), 1).unwrap();
        a.offer("b", ("b", 1), 1).unwrap();
        let order: Vec<(&str, i32)> = std::iter::from_fn(|| a.next_dispatch())
            .map(|(_, job)| job)
            .collect();
        assert_eq!(
            order,
            vec![("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("a", 3)],
            "tenants alternate; within a tenant, FIFO"
        );
    }

    #[test]
    fn inflight_quota_holds_back_a_tenant_without_blocking_others() {
        let mut a = Admission::new(100, quota(1, 8, 1 << 20));
        a.offer("a", "a1", 1).unwrap();
        a.offer("a", "a2", 1).unwrap();
        a.offer("b", "b1", 1).unwrap();
        assert_eq!(a.next_dispatch(), Some(("a".into(), "a1")));
        // "a" is at max_inflight=1, so "a2" must wait; "b" proceeds.
        assert_eq!(a.next_dispatch(), Some(("b".into(), "b1")));
        assert_eq!(a.next_dispatch(), None, "everyone at quota");
        a.finish("a");
        assert_eq!(a.next_dispatch(), Some(("a".into(), "a2")));
    }

    #[test]
    fn draining_sheds_everything_and_evicts_queued() {
        let mut a = Admission::new(100, quota(8, 8, 1 << 20));
        a.offer("a", 1, 1).unwrap();
        a.offer("b", 2, 1).unwrap();
        a.set_draining();
        assert_eq!(a.offer("a", 3, 1), Err(ShedReason::Draining));
        let evicted = a.evict_queued();
        assert_eq!(evicted, vec![("a".into(), 1), ("b".into(), 2)]);
        assert_eq!(a.queued_total(), 0);
        assert_eq!(a.next_dispatch(), None);
    }

    #[test]
    fn reserved_slots_count_against_caps_but_hide_from_dispatch_and_eviction() {
        let mut a = Admission::new(100, quota(8, 2, 1 << 20));
        a.reserve("t", 10).unwrap();
        assert_eq!(a.queued_total(), 1);
        assert_eq!(a.next_dispatch(), None, "nothing published yet");
        a.offer("t", 1, 10).unwrap();
        assert_eq!(a.offer("t", 2, 10), Err(ShedReason::TenantQueueFull));
        // A drain evicts what is queued and keeps waiting for the slot.
        a.set_draining();
        assert_eq!(a.evict_queued(), vec![("t".into(), 1)]);
        assert_eq!(a.queued_total(), 1);
        assert_eq!(a.tenant_counters()[0].1, 1, "status counts the slot");
        // The reservation predates the drain: its publish still lands,
        // after every job queued before it.
        a.publish("t", 0, 10);
        assert_eq!(a.evict_queued(), vec![("t".into(), 0)]);
        assert_eq!(a.queued_total(), 0);
    }

    #[test]
    fn restore_bypasses_caps_but_counts_against_them() {
        let mut a = Admission::new(1, quota(8, 1, 5));
        a.offer("t", 1, 5).unwrap();
        // Recovery ignores the global cap, the tenant depth cap and
        // the byte cap — this work was admitted before the crash.
        a.restore("t", 2, 10);
        a.restore("u", 3, 1);
        assert_eq!(a.queued_total(), 3);
        // New offers now see the restored backlog in every counter.
        assert_eq!(a.offer("t", 4, 1), Err(ShedReason::QueueFull));
        let order: Vec<i32> = std::iter::from_fn(|| a.next_dispatch())
            .map(|(_, job)| job)
            .collect();
        assert_eq!(order, vec![1, 3, 2], "restored jobs dispatch normally");
    }

    #[test]
    fn byte_accounting_releases_on_dispatch() {
        let mut a = Admission::new(100, quota(8, 8, 10));
        a.offer("t", 1, 10).unwrap();
        assert_eq!(a.offer("t", 2, 1), Err(ShedReason::TenantBytes));
        let _ = a.next_dispatch().unwrap();
        // Dispatch freed the queued bytes; new work fits again.
        assert!(a.offer("t", 3, 10).is_ok());
    }

    #[test]
    fn counters_track_lifecycle() {
        let mut a = Admission::new(2, quota(8, 8, 1 << 20));
        a.offer("t", 1, 1).unwrap();
        a.offer("t", 2, 1).unwrap();
        let _ = a.offer("t", 3, 1); // global cap shed
        let (tenant, _) = a.next_dispatch().unwrap();
        a.finish(&tenant);
        let counters = a.tenant_counters();
        assert_eq!(counters.len(), 1);
        let (name, queued, running, done, shed) = counters[0].clone();
        assert_eq!(name, "t");
        assert_eq!((queued, running, done, shed), (1, 0, 1, 1));
        assert_eq!(a.done_total(), 1);
        assert_eq!(a.shed_total(), 1);
    }

    #[test]
    fn pipeline_gate_bounds_inflight_and_releases() {
        let g = PipelineGate::new(2);
        assert!(g.try_acquire());
        assert!(g.try_acquire());
        assert!(!g.try_acquire(), "limit reached");
        assert_eq!(g.inflight(), 2);
        g.release();
        assert!(g.try_acquire(), "slot freed by a terminal reply");
        assert!(!g.try_acquire());
    }

    #[test]
    fn pipeline_gate_unconditional_acquire_overshoots_for_owed_replies() {
        let g = PipelineGate::new(1);
        assert!(g.try_acquire());
        g.acquire(); // idempotent duplicate: the reply is already owed
        assert_eq!(g.inflight(), 2);
        assert!(!g.try_acquire());
        g.release();
        g.release();
        assert_eq!(g.inflight(), 0);
    }

    #[test]
    fn pipeline_gate_release_saturates_and_limit_clamps() {
        let g = PipelineGate::new(0); // clamped to 1
        g.release(); // stray release must not underflow
        assert_eq!(g.inflight(), 0);
        assert!(g.try_acquire());
        assert!(!g.try_acquire(), "clamped limit is 1, not 0");
    }
}
