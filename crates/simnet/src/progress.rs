//! Deterministic admission ordering for shared virtual-time resources.
//!
//! Virtual arrival times in this simulator are deterministic, but shared
//! *stateful* resources (an OST's serial queue, a serialized NIC) used to
//! admit requests in whatever order the OS happened to run the rank
//! threads. Two requests with different virtual arrivals could therefore
//! mutate the resource in either order, permuting queue depths, jitter
//! draws and completion times run-to-run.
//!
//! The [`ProgressRegistry`] closes that hole: every cluster run carries
//! one registry, each rank installs a thread-local handle (carried with
//! its fiber across switches), and a resource calls [`admit`] before
//! mutating its state. Admission blocks
//! (in *host* time only — no virtual time is charged) until the request's
//! key `(virtual arrival, rank, seq)` is provably the smallest the
//! cluster can still produce, which makes the admission order — and hence
//! every queue-dependent quantity — a pure function of virtual time.
//!
//! # How "provably smallest" is decided
//!
//! The registry tracks, per rank, a *floor*: a lower bound on the virtual
//! arrival of any resource request the rank may still issue, plus what
//! the rank is currently blocked on:
//!
//! * `Running` — the rank is executing; its next request arrives no
//!   earlier than its floor (raised each time it releases a request).
//! * `Recv` — blocked on a point-to-point receive **with no matching
//!   packet delivered**; its wake, and all later requests, happen no
//!   earlier than the sender's floor (the send is still in the sender's
//!   future; virtual clocks are monotone along happens-before chains).
//! * `Rdv` — parked in a rendezvous; completion is `max` over all
//!   participants' entry clocks, so every participant's floor bounds it.
//! * `Pending` — waiting in this gate; its key bounds all its later
//!   requests (requests within one I/O call share an arrival, so only
//!   the per-rank `seq` grows).
//! * `Finished` — will never request again.
//!
//! A blocked chain that reaches the *requester itself* is unconstrained:
//! the dependee's wake requires the requester's own future progress,
//! which happens only after the pending request completes, so everything
//! downstream necessarily carries a later key. This rule is what makes
//! the gate deadlock-free: when every other rank is parked waiting for
//! the requester (the steady state of a bulk-synchronous collective),
//! admission is immediate.
//!
//! Soundness of the `Recv` bound depends on one invariant, maintained
//! jointly with [`crate::mailbox::Mailbox`]: a rank is registered as
//! `Recv` **only while no matching packet exists in its mailbox**
//! (registration happens under the mailbox lock after a failed match,
//! and delivery of a matching packet downgrades the mode under the same
//! lock). Likewise a rank stays `Rdv` only until the meeting completes:
//! the last arrival downgrades every parked participant when it
//! publishes the result, before any of them observably wakes.
//!
//! Threads without an installed context (plain unit tests driving an
//! `Ost` or `Mailbox` directly) bypass the gate entirely: [`admit`] is a
//! no-op and behavior is byte-identical to the ungated code.

use crate::fiber::{park, Waker};
use crate::rendezvous::PoisonFlag;
use crate::time::SimTime;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::Arc;

/// Admission key of one resource request. Ordered lexicographically by
/// `(arrival, rank, seq)`; unique because `seq` is globally monotone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReqKey {
    /// Virtual arrival of the request at the resource.
    pub arrival: SimTime,
    /// Requesting global rank.
    pub rank: usize,
    /// Global issue number (tie-break among same-arrival requests).
    pub seq: u64,
}

impl ReqKey {
    fn lt(&self, other: &ReqKey) -> bool {
        self.cmp_key(other) == std::cmp::Ordering::Less
    }

    fn cmp_key(&self, other: &ReqKey) -> std::cmp::Ordering {
        self.arrival
            .0
            .total_cmp(&other.arrival.0)
            .then(self.rank.cmp(&other.rank))
            .then(self.seq.cmp(&other.seq))
    }
}

#[derive(Debug, Clone)]
enum Mode {
    Running,
    Recv { src: usize, ctx: u32, tag: i32 },
    Rdv { id: u64, members: Arc<Vec<usize>> },
    Pending { key: ReqKey },
    Finished,
}

#[derive(Debug)]
struct RankState {
    /// Lower bound (virtual time) on this rank's future request arrivals.
    floor: SimTime,
    mode: Mode,
    /// Set while the rank is parked in the gate; taken by the wake.
    waiter: Option<Waker>,
}

#[derive(Debug)]
struct Inner {
    ranks: Vec<RankState>,
    next_seq: u64,
}

/// Cluster-wide admission gate; one per [`crate::run_cluster`] run.
///
/// Wakeups are *targeted*: at any instant at most one pending request —
/// the one with the smallest `(arrival, rank, seq)` key — can possibly
/// be admissible (any larger pending key fails against it), so every
/// state change wakes only that request's rank instead of broadcasting
/// to all parked ranks. With 512–1024 ranks this turns each release
/// from a thundering herd of `O(n)` wakeups (each re-running the
/// admissibility scan and parking again) into a single handoff — and
/// since nothing else can make a pending request admissible, a rank
/// parked here is never stranded.
#[derive(Debug)]
pub struct ProgressRegistry {
    inner: Mutex<Inner>,
    poison: Arc<PoisonFlag>,
}

/// Lower bound on a rank's future request arrivals. `strict` means the
/// arrivals are **strictly** greater than `time`: the bound was derived
/// through a blocked edge (Recv/Rdv), and a blocked rank's wake strictly
/// advances virtual time past its dependee's bound (every wake crosses a
/// completed service, a message flight, or a collective — all of which
/// the cost models keep positive). Strictness is what resolves
/// equal-arrival ties against lower-numbered blocked ranks: their next
/// request provably lands *after* the tied arrival, so it cannot precede
/// a pending request at it.
#[derive(Debug, Clone, Copy)]
struct Bound {
    time: SimTime,
    strict: bool,
}

impl Bound {
    /// Tighter of two lower bounds: later time wins; on equal times a
    /// strict bound subsumes a non-strict one.
    fn max(self, other: Bound) -> Bound {
        if other.time > self.time {
            other
        } else if self.time > other.time {
            self
        } else {
            Bound {
                time: self.time,
                strict: self.strict || other.strict,
            }
        }
    }
}

/// Memoized floor analysis for one admissibility check.
enum FloorMemo {
    Unvisited,
    InStack,
    Done(Option<Bound>),
}

impl ProgressRegistry {
    /// Registry for `n` ranks sharing the cluster poison flag.
    pub fn new(n: usize, poison: Arc<PoisonFlag>) -> Self {
        ProgressRegistry {
            inner: Mutex::new(Inner {
                ranks: (0..n)
                    .map(|_| RankState {
                        floor: SimTime::ZERO,
                        mode: Mode::Running,
                        waiter: None,
                    })
                    .collect(),
                next_seq: 0,
            }),
            poison,
        }
    }

    /// Wake the one rank whose pending request could now be admissible:
    /// the holder of the minimum pending key. (If that rank currently
    /// *holds* the admission rather than waiting, it has no waker and
    /// the next wake happens at its release — which re-runs this.)
    fn wake_min(&self, inner: &mut Inner) {
        let mut best: Option<(&ReqKey, usize)> = None;
        for (r, st) in inner.ranks.iter().enumerate() {
            if let Mode::Pending { key } = &st.mode {
                if best.is_none_or(|(bk, _)| key.lt(bk)) {
                    best = Some((key, r));
                }
            }
        }
        if let Some((_, r)) = best {
            if let Some(w) = inner.ranks[r].waiter.take() {
                w.wake();
            }
        }
    }

    /// Lower bound on rank `r`'s future request arrivals, from the
    /// perspective of `requester`'s current pending request. `None`
    /// means unconstrained (every future request of `r` necessarily
    /// carries a key greater than the requester's pending one).
    fn floor_of(
        inner: &Inner,
        r: usize,
        requester: usize,
        memo: &mut [FloorMemo],
    ) -> Option<Bound> {
        if r == requester {
            // Chains through the requester resolve only after its pending
            // request completes — no constraint on the current admission.
            return None;
        }
        match memo[r] {
            FloorMemo::Done(v) => return v,
            // A cycle among blocked ranks: contribute the weakest sound
            // bound and let the enclosing `max` ignore it.
            FloorMemo::InStack => {
                return Some(Bound {
                    time: SimTime::ZERO,
                    strict: false,
                })
            }
            FloorMemo::Unvisited => {}
        }
        memo[r] = FloorMemo::InStack;
        let st = &inner.ranks[r];
        let own = Bound {
            time: st.floor,
            strict: false,
        };
        let out = match &st.mode {
            Mode::Finished => None,
            // The rank's *next* request can share the pending arrival
            // (several requests per I/O call carry one arrival), so the
            // self-bound is non-strict.
            Mode::Pending { key } => Some(own.max(Bound {
                time: key.arrival,
                strict: false,
            })),
            Mode::Running => Some(own),
            Mode::Recv { src, .. } => {
                Self::floor_of(inner, *src, requester, memo).map(|f| {
                    // The wake (message arrival + receive) strictly
                    // follows the sender's bound.
                    own.max(Bound {
                        time: f.time,
                        strict: true,
                    })
                })
            }
            Mode::Rdv { members, .. } => {
                let mut best = Some(own);
                for &p in members.iter() {
                    match Self::floor_of(inner, p, requester, memo) {
                        None => {
                            best = None;
                            break;
                        }
                        // The wake (meeting completion) strictly follows
                        // every participant's bound.
                        Some(f) => {
                            best = best.map(|b| {
                                b.max(Bound {
                                    time: f.time,
                                    strict: true,
                                })
                            })
                        }
                    }
                }
                best
            }
        };
        memo[r] = FloorMemo::Done(out);
        out
    }

    /// True when no other rank can still produce a request key below
    /// `key` — i.e. admitting `key` now preserves global key order.
    fn admissible(inner: &Inner, key: &ReqKey) -> bool {
        // Cheap pass: another pending request with a smaller key wins.
        for (r, st) in inner.ranks.iter().enumerate() {
            if r == key.rank {
                continue;
            }
            if let Mode::Pending { key: other } = &st.mode {
                if other.lt(key) {
                    return false;
                }
            }
        }
        // Full pass: bound every non-pending rank's future requests.
        let n = inner.ranks.len();
        let mut memo: Vec<FloorMemo> = (0..n).map(|_| FloorMemo::Unvisited).collect();
        for r in 0..n {
            if r == key.rank || matches!(inner.ranks[r].mode, Mode::Pending { .. }) {
                continue;
            }
            if let Some(f) = Self::floor_of(inner, r, key.rank, &mut memo) {
                if f.strict {
                    // r's future arrivals are strictly after f.time, so
                    // any pending key at or before it is safely first.
                    if key.arrival.0.total_cmp(&f.time.0) == std::cmp::Ordering::Greater {
                        return false;
                    }
                } else {
                    let bound = ReqKey {
                        arrival: f.time,
                        rank: r,
                        seq: 0,
                    };
                    if !key.lt(&bound) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Block (host time) until a request by `rank` arriving at `arrival`
    /// is the cluster-wide minimum, then hold the admission.
    fn acquire(&self, rank: usize, arrival: SimTime) {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let key = ReqKey { arrival, rank, seq };
        let st = &mut inner.ranks[rank];
        st.floor = st.floor.max(arrival);
        st.mode = Mode::Pending { key };
        // The new pending key raises this rank's bound for everyone
        // else, possibly unblocking the current minimum pending request.
        self.wake_min(&mut inner);
        while !Self::admissible(&inner, &key) {
            inner.ranks[rank].waiter = Some(Waker::current());
            park(&mut inner, &self.poison);
        }
    }

    /// Release a held admission: the rank runs again and its floor
    /// remembers the served arrival.
    fn release(&self, rank: usize) {
        let mut inner = self.inner.lock();
        let st = &mut inner.ranks[rank];
        if let Mode::Pending { key } = &st.mode {
            st.floor = st.floor.max(key.arrival);
        }
        st.mode = Mode::Running;
        self.wake_min(&mut inner);
    }

    /// Register `rank` as blocked on a receive with no matching packet
    /// present. Must be called under the mailbox lock that also guards
    /// [`deliver_downgrade`](Self::deliver_downgrade).
    pub(crate) fn block_recv(&self, rank: usize, src: usize, ctx: u32, tag: i32) {
        let mut inner = self.inner.lock();
        inner.ranks[rank].mode = Mode::Recv { src, ctx, tag };
        self.wake_min(&mut inner);
    }

    /// A packet `(src, ctx, tag)` was just delivered to `dst`'s mailbox:
    /// if `dst` is registered as blocked on exactly that match, it is no
    /// longer "waiting on the sender's future" — downgrade to `Running`
    /// before any gate check can observe the stale mode.
    pub(crate) fn deliver_downgrade(&self, dst: usize, src: usize, ctx: u32, tag: i32) {
        let mut inner = self.inner.lock();
        let st = &mut inner.ranks[dst];
        if matches!(&st.mode, Mode::Recv { src: s, ctx: c, tag: t } if *s == src && *c == ctx && *t == tag)
        {
            st.mode = Mode::Running;
            self.wake_min(&mut inner);
        }
    }

    /// Register `rank` as parked in rendezvous `id`. Must be called under
    /// the rendezvous state lock that also guards
    /// [`complete_rdv`](Self::complete_rdv).
    pub(crate) fn block_rdv(&self, rank: usize, id: u64, members: Arc<Vec<usize>>) {
        let mut inner = self.inner.lock();
        inner.ranks[rank].mode = Mode::Rdv { id, members };
        self.wake_min(&mut inner);
    }

    /// The meeting `id` just completed: downgrade every participant still
    /// registered as parked in it (their floors — last raised at their
    /// entry — remain sound lower bounds).
    pub(crate) fn complete_rdv(&self, id: u64, members: &[usize]) {
        let mut inner = self.inner.lock();
        let mut changed = false;
        for &p in members {
            let st = &mut inner.ranks[p];
            if matches!(&st.mode, Mode::Rdv { id: i, .. } if *i == id) {
                st.mode = Mode::Running;
                changed = true;
            }
        }
        if changed {
            self.wake_min(&mut inner);
        }
    }

    /// Clear `rank`'s own blocked registration (wake paths where the
    /// counterpart had no registry, e.g. mixed gated/ungated callers).
    pub(crate) fn unblock(&self, rank: usize) {
        let mut inner = self.inner.lock();
        let st = &mut inner.ranks[rank];
        if !matches!(st.mode, Mode::Running) {
            st.mode = Mode::Running;
            self.wake_min(&mut inner);
        }
    }

    /// The rank's closure returned: it will never request again.
    fn finish(&self, rank: usize) {
        let mut inner = self.inner.lock();
        inner.ranks[rank].mode = Mode::Finished;
        self.wake_min(&mut inner);
    }

    /// What every unfinished rank waits on: the diagnosis of a deadlock,
    /// read while no rank can run.
    pub(crate) fn deadlock_report(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::from(
            "simnet deadlock: every unfinished rank is parked and none can wake another",
        );
        for (r, st) in inner.ranks.iter().enumerate() {
            let _ = match &st.mode {
                Mode::Finished => continue,
                Mode::Recv { src, ctx, tag } => write!(
                    out,
                    "\n  rank {r}: mailbox receive (src, ctx, tag) = ({src}, {ctx}, {tag})"
                ),
                Mode::Rdv { id, members } => write!(
                    out,
                    "\n  rank {r}: rendezvous {id} of {} ranks",
                    members.len()
                ),
                Mode::Pending { key } => write!(
                    out,
                    "\n  rank {r}: progress gate, request (arrival, rank, seq) = ({}, {}, {})",
                    key.arrival, key.rank, key.seq
                ),
                Mode::Running => write!(out, "\n  rank {r}: a rendezvous drain"),
            };
        }
        out
    }
}

// ---------------------------------------------------------------------
// Thread-local context: which registry/rank the current thread acts as.
// ---------------------------------------------------------------------

#[derive(Clone)]
pub(crate) struct Ctx {
    registry: Arc<ProgressRegistry>,
    rank: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Detach the thread's progress context (fiber scheduler hook: the
/// context is rank-affine state, parked with the suspended fiber).
pub(crate) fn tl_take() -> Option<Ctx> {
    CTX.with(|c| c.borrow_mut().take())
}

/// Install a previously [taken](tl_take) progress context (fiber
/// scheduler hook, run before resuming the owning fiber).
pub(crate) fn tl_set(ctx: Option<Ctx>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

/// RAII installation of a rank's progress context; created by
/// [`crate::run_cluster`] around each rank closure. Dropping marks the
/// rank [finished](ProgressRegistry) and clears the thread-local.
pub(crate) struct CtxGuard {
    registry: Arc<ProgressRegistry>,
    rank: usize,
}

pub(crate) fn install(registry: Arc<ProgressRegistry>, rank: usize) -> CtxGuard {
    CTX.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            registry: Arc::clone(&registry),
            rank,
        });
    });
    CtxGuard { registry, rank }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| *c.borrow_mut() = None);
        self.registry.finish(self.rank);
    }
}

fn with_ctx<T>(f: impl FnOnce(&Ctx) -> T) -> Option<T> {
    CTX.with(|c| c.borrow().as_ref().map(f))
}

/// The current thread's global rank, if it runs inside a cluster.
pub fn current_rank() -> Option<usize> {
    with_ctx(|ctx| ctx.rank)
}

/// A held admission; the resource mutation must complete before this is
/// dropped. Outside a cluster context this is an inert no-op.
pub struct Admission(Option<Ctx>);

impl Drop for Admission {
    fn drop(&mut self) {
        if let Some(ctx) = &self.0 {
            ctx.registry.release(ctx.rank);
        }
    }
}

/// Gate a shared-resource mutation whose request arrives at virtual time
/// `arrival`: blocks (host time) until every request with a smaller
/// `(arrival, rank, seq)` key has been admitted and released.
pub fn admit(arrival: SimTime) -> Admission {
    let ctx = with_ctx(Clone::clone);
    if let Some(ctx) = &ctx {
        ctx.registry.acquire(ctx.rank, arrival);
    }
    Admission(ctx)
}

/// Mailbox hook: the current thread's rank blocks on `(src, ctx, tag)`.
pub(crate) fn tl_block_recv(src: usize, ctx: u32, tag: i32) {
    with_ctx(|c| c.registry.block_recv(c.rank, src, ctx, tag));
}

/// Mailbox hook: a packet was delivered to `dst` (called on the sender's
/// thread; both threads share the run's registry).
pub(crate) fn tl_deliver_downgrade(dst: usize, src: usize, ctx: u32, tag: i32) {
    with_ctx(|c| c.registry.deliver_downgrade(dst, src, ctx, tag));
}

/// Rendezvous hook: the current thread's rank parks in meeting `id`.
pub(crate) fn tl_block_rdv(id: u64, members: Arc<Vec<usize>>) {
    with_ctx(|c| c.registry.block_rdv(c.rank, id, members));
}

/// Rendezvous hook: meeting `id` completed (called on the last arrival's
/// thread, under the rendezvous lock, before waiters wake).
pub(crate) fn tl_complete_rdv(id: u64, members: &[usize]) {
    with_ctx(|c| c.registry.complete_rdv(id, members));
}

/// Self-service unblock after waking from a blocked wait.
pub(crate) fn tl_unblock() {
    with_ctx(|c| c.registry.unblock(c.rank));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn registry(n: usize) -> Arc<ProgressRegistry> {
        Arc::new(ProgressRegistry::new(n, Arc::new(PoisonFlag::default())))
    }

    #[test]
    fn no_context_admits_immediately() {
        // Plain threads (unit tests) bypass the gate.
        let _a = admit(SimTime::secs(5.0));
        let _b = admit(SimTime::ZERO);
    }

    #[test]
    fn pending_requests_admit_in_key_order() {
        let reg = registry(3);
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = [(0usize, 3.0f64), (1, 1.0), (2, 2.0)]
            .into_iter()
            .map(|(rank, t)| {
                let reg = Arc::clone(&reg);
                let order = Arc::clone(&order);
                thread::spawn(move || {
                    let _g = install(Arc::clone(&reg), rank);
                    // Give every rank time to post its request so floors
                    // (from Pending modes) are in place.
                    thread::sleep(Duration::from_millis(20 * rank as u64));
                    let _a = admit(SimTime::secs(t));
                    order.lock().push(rank);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![1, 2, 0]);
    }

    #[test]
    fn equal_arrivals_tie_break_by_rank() {
        let reg = registry(2);
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = [1usize, 0]
            .into_iter()
            .map(|rank| {
                let reg = Arc::clone(&reg);
                let order = Arc::clone(&order);
                thread::spawn(move || {
                    let _g = install(Arc::clone(&reg), rank);
                    // Rank 1 posts first in host time; rank 0 must still
                    // be admitted first.
                    thread::sleep(Duration::from_millis(if rank == 0 { 30 } else { 0 }));
                    let _a = admit(SimTime::secs(1.0));
                    order.lock().push(rank);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![0, 1]);
    }

    #[test]
    fn finished_ranks_do_not_block_admission() {
        let reg = registry(2);
        {
            let _g = install(Arc::clone(&reg), 1);
        } // rank 1 finished immediately
        let h = {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                let _g = install(Arc::clone(&reg), 0);
                let _a = admit(SimTime::secs(10.0));
            })
        };
        h.join().unwrap(); // must not hang on rank 1's zero floor
    }

    #[test]
    fn rank_blocked_on_requester_recv_is_unconstrained() {
        let reg = registry(2);
        // Rank 1 is blocked receiving from rank 0 (the requester): its
        // wake is causally after rank 0's pending request.
        reg.block_recv(1, 0, 0, 7);
        let h = {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                let _g = install(Arc::clone(&reg), 0);
                let _a = admit(SimTime::secs(10.0));
            })
        };
        h.join().unwrap();
    }

    #[test]
    fn rdv_chain_through_requester_is_unconstrained() {
        let reg = registry(3);
        // Ranks 1 and 2 are parked in a rendezvous whose membership
        // includes requester 0 — the classic "everyone is in the barrier
        // except the rank doing I/O" steady state.
        let members = Arc::new(vec![0, 1, 2]);
        reg.block_rdv(1, 42, Arc::clone(&members));
        reg.block_rdv(2, 42, Arc::clone(&members));
        let h = {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                let _g = install(Arc::clone(&reg), 0);
                let _a = admit(SimTime::secs(3.0));
            })
        };
        h.join().unwrap();
    }

    #[test]
    fn running_rank_with_low_floor_blocks_admission_until_it_moves() {
        let reg = registry(2);
        let admitted = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let h = {
            let reg = Arc::clone(&reg);
            let admitted = Arc::clone(&admitted);
            thread::spawn(move || {
                let _g = install(Arc::clone(&reg), 0);
                let _a = admit(SimTime::secs(5.0));
                admitted.store(true, std::sync::atomic::Ordering::SeqCst);
            })
        };
        thread::sleep(Duration::from_millis(50));
        assert!(
            !admitted.load(std::sync::atomic::Ordering::SeqCst),
            "rank 1 (Running, floor 0) could still produce an earlier request"
        );
        // Rank 1 parks in a rendezvous containing rank 0 — unconstrained.
        reg.block_rdv(1, 7, Arc::new(vec![0, 1]));
        h.join().unwrap();
        assert!(admitted.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn deliver_downgrade_restores_constraint() {
        let reg = registry(3);
        // Rank 1 blocked on recv from rank 2 (not the requester): floor
        // chains to rank 2's floor (0) — admission of rank 0 must wait.
        reg.block_recv(1, 2, 0, 1);
        let admitted = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let h = {
            let reg = Arc::clone(&reg);
            let admitted = Arc::clone(&admitted);
            thread::spawn(move || {
                let _g = install(Arc::clone(&reg), 0);
                let _a = admit(SimTime::secs(1.0));
                admitted.store(true, std::sync::atomic::Ordering::SeqCst);
            })
        };
        thread::sleep(Duration::from_millis(50));
        assert!(!admitted.load(std::sync::atomic::Ordering::SeqCst));
        // The matching packet arrives: rank 1 is Running again (stale
        // floor 0) — still blocking. Rank 1 then finishes; rank 2 parks
        // in a rendezvous with the requester.
        reg.deliver_downgrade(1, 2, 0, 1);
        reg.finish(1);
        reg.block_rdv(2, 9, Arc::new(vec![0, 2]));
        h.join().unwrap();
        assert!(admitted.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn complete_rdv_downgrades_all_parked_members() {
        let reg = registry(4);
        let members = Arc::new(vec![1, 2, 3]);
        reg.block_rdv(1, 5, Arc::clone(&members));
        reg.block_rdv(2, 5, Arc::clone(&members));
        reg.complete_rdv(5, &members);
        let inner = reg.inner.lock();
        assert!(matches!(inner.ranks[1].mode, Mode::Running));
        assert!(matches!(inner.ranks[2].mode, Mode::Running));
        assert!(matches!(inner.ranks[3].mode, Mode::Running));
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn poison_unblocks_gate_waiters() {
        let poison = Arc::new(PoisonFlag::default());
        let reg = Arc::new(ProgressRegistry::new(2, Arc::clone(&poison)));
        let p = Arc::clone(&poison);
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            p.poison();
        });
        let _g = install(Arc::clone(&reg), 0);
        // Rank 1 never moves; only the poison releases us.
        let _a = admit(SimTime::secs(1.0));
    }
}
