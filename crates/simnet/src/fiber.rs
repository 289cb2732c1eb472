//! Cooperative fiber executor: the ranks of a cluster as fibers on a
//! small pool of worker threads — by default one, the calling thread.
//!
//! # Why
//!
//! The simulator's unit of concurrency is a *rank*, and ranks spend most
//! of their host life blocked on each other: every rendezvous parks
//! `p - 1` ranks, every receive parks one. With one OS thread per rank,
//! each park/wake pair costs a futex syscall plus a kernel context switch
//! — measured at ~6 µs on a single-CPU host, which multiplied by the
//! hundreds of parks in even a quick figure run dwarfs the actual
//! simulation work. None of that parallelism is real: on one CPU the
//! threads strictly take turns anyway.
//!
//! A *fiber* (stackful coroutine) makes the turn-taking explicit. Every
//! rank gets its own heap-allocated stack, and a worker switches between
//! them in userspace (~tens of nanoseconds: the callee-saved registers
//! and the stack pointer). A rank that must wait *parks* (`park`): it
//! leaves a `Waker` with what it waits for and switches back to its
//! worker, which runs the next runnable fiber. The event that satisfies
//! the wait — a mailbox delivery, a rendezvous completion, a
//! progress-gate state change — fires the waker, which puts the fiber
//! back on its worker's run queue. Nobody polls: a parked fiber costs
//! nothing until it is woken, and a worker with nothing runnable sleeps.
//!
//! # Workers
//!
//! ParColl subgroups are communication-independent by construction, so
//! their fibers can run on *different* worker threads with real
//! parallelism on a multi-core host. `run` partitions the fiber set by
//! a placement map (one worker per ParColl subgroup block, by default
//! contiguous rank blocks) and runs one worker loop per worker. Worker 0
//! is the calling thread, so one worker ([`workers`], env
//! `SIMNET_WORKERS`, default 1) is the same loop with no extra thread.
//! Fibers never migrate; a waker may fire on any worker, and it pushes
//! the fiber onto its home worker's ready queue, waking that worker if
//! it sleeps.
//!
//! # What stays identical
//!
//! Virtual time. The simulation's timestamps are a pure function of
//! configuration — deterministic under *any* host interleaving (the
//! regress gate enforces it at one and at four workers) — and each run
//! merely picks one particular interleaving. The deterministic merge
//! points are the existing primitives: rendezvous completion is `max`
//! over entry clocks (commutative, order-blind), and every
//! shared-resource admission is ordered by the virtual-time key
//! `(arrival, rank, seq)` in the progress registry, not by host arrival
//! order. The executor decides only which runnable fiber goes next,
//! never what a wait returns.
//!
//! Code that drives the primitives from plain OS threads (unit tests
//! spawning `std::thread`) goes through the same wait sites: outside a
//! fiber, `park` parks the thread with `std::thread::park`, and its
//! waker unparks it.
//!
//! # Exact deadlock detection
//!
//! The executor keeps one cross-worker count of fibers that are runnable
//! or running. A park or a completion decrements it; a wake increments it
//! before queueing the fiber, while the waker is itself still running and
//! counted, so the count cannot touch zero while anything can still make
//! progress. When it does reach zero with fibers unfinished, every one of
//! them is parked and nobody is left to wake it: the run is deadlocked.
//! The executor hands that to its caller (which records what each rank
//! waits on) and poisons the cluster; poisoning wakes every fiber, and
//! each one panics out of its wait. No cycle counting, no timeouts.
//!
//! # Safety notes
//!
//! The context switch is a few instructions of inline assembly per
//! architecture: push the callee-saved registers, swap the stack
//! pointer, pop, return. Panics never cross the assembly boundary —
//! each fiber body runs under `catch_unwind` and the payload is carried
//! back to the worker by value, mirroring `JoinHandle::join`. Fiber
//! stacks have no OS guard page; a canary word at the stack base turns
//! silent overflow corruption into a loud panic at fiber completion.
//! Fibers never migrate between workers, so each fiber's stack and
//! progress context are only ever touched by the worker that owns it.

use crate::rendezvous::PoisonFlag;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// 0 = unresolved; otherwise the worker-thread count of the executor.
static WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-default worker count for subsequent
/// [`crate::run_cluster`] calls (clamped to ≥ 1). Virtual time is
/// bitwise identical for every value; workers only change which OS
/// threads host which fibers.
pub fn set_workers(n: usize) {
    WORKERS.store(n.max(1), Ordering::Relaxed);
}

/// The process-default worker count. First use resolves
/// `SIMNET_WORKERS=<n>` if set, else 1 (every rank on the thread that
/// calls [`crate::run_cluster`]).
pub fn workers() -> usize {
    match WORKERS.load(Ordering::Relaxed) {
        0 => {
            let n = std::env::var("SIMNET_WORKERS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(1);
            set_workers(n);
            n
        }
        n => n,
    }
}

// ---------------------------------------------------------------------
// Context switch
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod arch {
    // simnet_fiber_switch(save: *mut usize, restore: *const usize)
    //
    // System V AMD64: saves the suspending context's callee-saved
    // registers on its own stack and stores its rsp through `save`
    // (rdi); loads rsp from `restore` (rsi) and pops the resuming
    // context's registers. The caller-saved half of the register file is
    // handled by the compiler because this is an ordinary `extern "C"`
    // call. `ret` then resumes the target — either past its own
    // `simnet_fiber_switch` call or, for a fresh fiber, into the entry
    // trampoline address planted by `init_frame`.
    std::arch::global_asm!(
        ".globl simnet_fiber_switch",
        ".hidden simnet_fiber_switch",
        "simnet_fiber_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, [rsi]",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    );

    unsafe extern "C" {
        pub(super) fn simnet_fiber_switch(save: *mut usize, restore: *const usize);
    }

    /// Switch away from the current context: store its rsp in `save`,
    /// resume the context whose rsp is in `restore`.
    ///
    /// # Safety
    /// `restore` must hold an rsp produced by this function (or by
    /// `init_frame`), on a stack that is still alive.
    pub(super) unsafe fn switch(save: *mut usize, restore: *const usize) {
        unsafe { simnet_fiber_switch(save, restore) }
    }

    /// Lay out a fresh fiber's initial frame below the 16-aligned stack
    /// `top` so that restoring from the returned rsp pops six zeroed
    /// callee-saved registers and `ret`s into `entry` with the stack
    /// alignment of a freshly `call`ed function. The entry's own return
    /// address is null, so a backtrace taken in the fiber (a panic with
    /// `RUST_BACKTRACE` set) ends there instead of walking stale heap.
    ///
    /// # Safety
    /// `top` must be the 16-aligned top of a live allocation with at
    /// least 64 bytes below it.
    pub(super) unsafe fn init_frame(top: usize, entry: usize) -> usize {
        unsafe {
            ((top - 8) as *mut usize).write(0);
            let ret_slot = top - 16; // 16-aligned => rsp ≡ 8 (mod 16) at entry
            (ret_slot as *mut usize).write(entry);
            let rsp = ret_slot - 6 * 8;
            std::ptr::write_bytes(rsp as *mut u8, 0, 6 * 8);
            rsp
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    // simnet_fiber_switch(save: *mut usize, restore: *const usize)
    //
    // AAPCS64: the callee-saved state is x19–x28, the frame pointer
    // (x29), the link register (x30) and the low halves of v8–v15
    // (d8–d15) — 160 bytes, kept 16-aligned as the ABI requires of sp
    // at all times. The suspending context stores them on its own stack
    // and its sp through `save` (x0); the resuming context's sp is
    // loaded from `restore` (x1) and its registers popped. `ret`
    // branches to the restored x30 — either past the resuming context's
    // own call, or into the entry trampoline planted by `init_frame`
    // for a fresh fiber.
    std::arch::global_asm!(
        ".globl simnet_fiber_switch",
        ".hidden simnet_fiber_switch",
        "simnet_fiber_switch:",
        "sub sp, sp, #160",
        "stp x19, x20, [sp, #0]",
        "stp x21, x22, [sp, #16]",
        "stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]",
        "stp x27, x28, [sp, #64]",
        "stp x29, x30, [sp, #80]",
        "stp d8, d9, [sp, #96]",
        "stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]",
        "stp d14, d15, [sp, #144]",
        "mov x9, sp",
        "str x9, [x0]",
        "ldr x9, [x1]",
        "mov sp, x9",
        "ldp x19, x20, [sp, #0]",
        "ldp x21, x22, [sp, #16]",
        "ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]",
        "ldp x27, x28, [sp, #64]",
        "ldp x29, x30, [sp, #80]",
        "ldp d8, d9, [sp, #96]",
        "ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]",
        "ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "ret",
    );

    unsafe extern "C" {
        pub(super) fn simnet_fiber_switch(save: *mut usize, restore: *const usize);
    }

    /// See the x86_64 twin.
    ///
    /// # Safety
    /// `restore` must hold an sp produced by this function (or by
    /// `init_frame`), on a stack that is still alive.
    pub(super) unsafe fn switch(save: *mut usize, restore: *const usize) {
        unsafe { simnet_fiber_switch(save, restore) }
    }

    /// Lay out a fresh fiber's initial frame: a full 160-byte save area
    /// of zeroed registers with `entry` in the x30 slot, so the restore
    /// path of `simnet_fiber_switch` `ret`s into the trampoline with
    /// sp == `top` (16-aligned, as AAPCS64 demands).
    ///
    /// # Safety
    /// `top` must be the 16-aligned top of a live allocation with at
    /// least 160 bytes below it.
    pub(super) unsafe fn init_frame(top: usize, entry: usize) -> usize {
        unsafe {
            let sp = top - 160;
            std::ptr::write_bytes(sp as *mut u8, 0, 160);
            ((sp + 88) as *mut usize).write(entry); // x30 slot of the frame
            sp
        }
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!("simnet's fiber executor has a context switch for x86_64 and aarch64 only");

// ---------------------------------------------------------------------
// Fiber stacks
// ---------------------------------------------------------------------

/// Magic planted at the low end of every fiber stack; checked when the
/// fiber completes to catch silent overflows (heap stacks have no guard
/// page).
const STACK_CANARY: u64 = 0x5A5A_F1BE_5A5A_F1BE;

struct StackMem {
    base: *mut u8,
    layout: std::alloc::Layout,
}

impl StackMem {
    fn new(size: usize) -> Self {
        // 16-byte alignment satisfies both ABIs; size floor keeps the
        // canary + initial frame sane.
        let size = size.max(16 * 1024) & !15;
        let layout = std::alloc::Layout::from_size_align(size, 16).expect("valid stack layout");
        let base = unsafe { std::alloc::alloc(layout) };
        assert!(!base.is_null(), "fiber stack allocation failed");
        unsafe { (base as *mut u64).write(STACK_CANARY) };
        StackMem { base, layout }
    }

    /// Plant the architecture-specific initial frame; restoring from the
    /// returned stack pointer resumes into `entry`.
    fn prepare(&self, entry: extern "C" fn() -> !) -> usize {
        let top = (self.base as usize + self.layout.size()) & !15;
        unsafe { arch::init_frame(top, entry as usize) }
    }

    fn canary_intact(&self) -> bool {
        unsafe { (self.base as *const u64).read() == STACK_CANARY }
    }
}

impl Drop for StackMem {
    fn drop(&mut self) {
        unsafe { std::alloc::dealloc(self.base, self.layout) };
    }
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

/// Why a fiber switched back to its worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Parked in a wait site; resume it once woken.
    Parked,
    /// The body returned (or unwound); never resume.
    Done,
}

/// Fiber state: runnable — queued, or running on its worker.
const RUNNING: u8 = 0;
/// Running, and woken before it parked: its next park returns at once.
const NOTIFIED: u8 = 1;
/// Parked; the next wake queues it on its worker.
const PARKED: u8 = 2;

/// Cross-worker state of one executor run.
struct Sched {
    /// Per worker: the fibers woken for it since it last looked.
    ready: Box<[Ready]>,
    /// Fibers runnable or running, across all workers.
    active: AtomicUsize,
    /// Fibers not yet completed.
    unfinished: AtomicUsize,
    /// Set when fibers stayed parked even after poisoning: the workers
    /// give them up instead of sleeping forever.
    abandoned: AtomicBool,
}

#[derive(Default)]
struct Ready {
    queue: Mutex<ReadyQueue>,
    cv: Condvar,
}

#[derive(Default)]
struct ReadyQueue {
    /// Worker-local indices of the woken fibers, in wake order.
    fibers: Vec<usize>,
    /// The worker sleeps on `cv`, so a push must notify it.
    sleeping: bool,
}

impl Sched {
    /// Sleep until a fiber of worker `me` is woken, then move the woken
    /// fibers onto `runq`. False when the run was abandoned instead.
    fn wait_ready(&self, me: usize, runq: &mut VecDeque<usize>) -> bool {
        let ready = &self.ready[me];
        let mut q = ready.queue.lock();
        while q.fibers.is_empty() {
            if self.abandoned.load(Ordering::SeqCst) {
                return false;
            }
            q.sleeping = true;
            ready.cv.wait(&mut q);
            q.sleeping = false;
        }
        runq.extend(q.fibers.drain(..));
        true
    }

    /// Run by the worker whose park or completion took `active` to zero.
    fn went_idle(&self, poison: &PoisonFlag, on_deadlock: &(dyn Fn() + Sync)) {
        if self.unfinished.load(Ordering::SeqCst) == 0 {
            return;
        }
        if !poison.is_poisoned() {
            // Every unfinished fiber is parked and nothing can wake one:
            // a deadlock. Report it, then poison, which wakes them all.
            // Hold one count meanwhile, so no worker whose woken fiber
            // finishes early sees zero halfway through the wakes.
            self.active.fetch_add(1, Ordering::SeqCst);
            on_deadlock();
            poison.poison();
            if self.active.fetch_sub(1, Ordering::SeqCst) != 1
                || self.unfinished.load(Ordering::SeqCst) == 0
            {
                return;
            }
        }
        // Nothing runnable although the cluster is poisoned: fibers parked
        // again after poisoning (a wait that ignores the poison flag).
        // Give them up rather than hang.
        self.abandoned.store(true, Ordering::SeqCst);
        for ready in self.ready.iter() {
            let _q = ready.queue.lock();
            ready.cv.notify_all();
        }
    }
}

/// One fiber's wake target, shared by its worker and its wakers.
struct Slot {
    /// [`RUNNING`], [`NOTIFIED`] or [`PARKED`]. It enters and leaves
    /// `PARKED` only by AcqRel compare-exchange: a wake that finds
    /// `PARKED` happens after the worker's `commit_park`, hence after
    /// the fiber switched out, so the fiber is queued only once it can
    /// safely be resumed.
    state: AtomicU8,
    /// Home worker.
    worker: usize,
    /// Index among the home worker's fibers.
    local: usize,
    sched: Arc<Sched>,
}

impl Slot {
    fn wake(&self) {
        let mut cur = self.state.load(Ordering::Acquire);
        loop {
            let next = match cur {
                RUNNING => NOTIFIED,
                PARKED => RUNNING,
                _ => return,
            };
            match self
                .state
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        if cur == PARKED {
            // Counted before it is queued, while the waker (a running
            // fiber) is still counted too: the runnable count never dips
            // to zero across a hand-off.
            self.sched.active.fetch_add(1, Ordering::SeqCst);
            let ready = &self.sched.ready[self.worker];
            let mut q = ready.queue.lock();
            q.fibers.push(self.local);
            let sleeping = q.sleeping;
            drop(q);
            if sleeping {
                ready.cv.notify_one();
            }
        }
    }

    /// Worker side of a park, run once the fiber has switched out: true
    /// if it is now parked, false if a wake already arrived (it stays
    /// runnable).
    fn commit_park(&self) -> bool {
        match self
            .state
            .compare_exchange(RUNNING, PARKED, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => true,
            Err(_) => {
                self.state.store(RUNNING, Ordering::Release);
                false
            }
        }
    }
}

/// Wakes one parked fiber or, outside the executor, one parked OS
/// thread. A wait site captures [`Waker::current`] under its lock and
/// then [`park`]s; the event that satisfies the wait fires the waker. A
/// wake that lands before the park is not lost: the park returns at
/// once. Wakes may be spurious, so wait sites re-check their condition.
#[derive(Clone)]
pub(crate) struct Waker(WakeTarget);

#[derive(Clone)]
enum WakeTarget {
    Fiber(Arc<Slot>),
    Thread(std::thread::Thread),
}

impl Waker {
    /// The waker of the calling fiber, or of the calling OS thread
    /// outside the executor.
    pub(crate) fn current() -> Waker {
        let rt = CURRENT.with(Cell::get);
        if rt.is_null() {
            Waker(WakeTarget::Thread(std::thread::current()))
        } else {
            // SAFETY: a non-null CURRENT is the running fiber's boxed
            // runtime, which its worker keeps alive while the fiber runs.
            Waker(WakeTarget::Fiber(Arc::clone(unsafe { &(*rt).slot })))
        }
    }

    /// Make the target runnable (or, if it has not parked yet, make its
    /// next park return at once).
    pub(crate) fn wake(&self) {
        match &self.0 {
            WakeTarget::Fiber(slot) => slot.wake(),
            WakeTarget::Thread(t) => t.unpark(),
        }
    }

    /// True when both wake the same fiber or thread.
    pub(crate) fn same_target(&self, other: &Waker) -> bool {
        match (&self.0, &other.0) {
            (WakeTarget::Fiber(a), WakeTarget::Fiber(b)) => Arc::ptr_eq(a, b),
            (WakeTarget::Thread(a), WakeTarget::Thread(b)) => a.id() == b.id(),
            _ => false,
        }
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            WakeTarget::Fiber(slot) => write!(f, "Waker(fiber {}/{})", slot.worker, slot.local),
            WakeTarget::Thread(t) => write!(f, "Waker({:?})", t.id()),
        }
    }
}

/// Per-fiber runtime shared between its worker and the fiber itself
/// (via the thread-local [`CURRENT`] pointer). Boxed so its address is
/// stable.
struct FiberRt {
    /// Fiber's stack pointer while suspended.
    fiber_rsp: usize,
    /// Worker's stack pointer while the fiber runs.
    sched_rsp: usize,
    action: Action,
    /// The body; taken by the entry trampoline on first resume.
    entry: Option<Box<dyn FnOnce()>>,
    /// Panic payload captured by the trampoline's `catch_unwind`.
    panic: Option<Box<dyn Any + Send>>,
    /// The rank's progress context, parked here while the fiber is
    /// suspended (thread-locals are per OS thread, not per fiber, so the
    /// worker swaps it in and out around every switch).
    saved_ctx: Option<crate::progress::Ctx>,
    /// Task index in the run.
    index: usize,
    slot: Arc<Slot>,
}

thread_local! {
    /// The fiber currently running on this thread, if any.
    static CURRENT: Cell<*mut FiberRt> = const { Cell::new(std::ptr::null_mut()) };
}

/// True when the calling code runs inside a fiber.
fn in_fiber() -> bool {
    CURRENT.with(|c| !c.get().is_null())
}

/// Park the calling fiber until a [`Waker`] captured from it fires or
/// `poison` is raised, with `guard`'s lock released meanwhile; panics if
/// the cluster is poisoned. The caller registers [`Waker::current`]
/// under `guard` first and re-checks its condition afterwards. Outside
/// the executor the OS thread parks instead, watched by `poison`.
pub(crate) fn park<T>(guard: &mut MutexGuard<'_, T>, poison: &PoisonFlag) {
    poison.check();
    MutexGuard::unlocked(guard, || {
        let rt = CURRENT.with(Cell::get);
        if rt.is_null() {
            poison.watch(Waker::current());
            if !poison.is_poisoned() {
                std::thread::park();
            }
        } else {
            // SAFETY: as in `Waker::current`; `sched_rsp` holds the
            // worker's stack pointer, saved when it resumed this fiber.
            unsafe {
                (*rt).action = Action::Parked;
                arch::switch(&raw mut (*rt).fiber_rsp, &raw const (*rt).sched_rsp);
            }
        }
    });
    poison.check();
}

/// First frame of every fiber: runs the body under `catch_unwind`, then
/// switches back to the worker for good.
extern "C" fn fiber_main() -> ! {
    let rt = CURRENT.with(Cell::get);
    debug_assert!(!rt.is_null(), "fiber_main outside a fiber");
    unsafe {
        let body = (*rt).entry.take().expect("fiber body present on first resume");
        if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
            (*rt).panic = Some(payload);
        }
        (*rt).action = Action::Done;
        let mut discard = 0usize;
        arch::switch(&raw mut discard, &raw const (*rt).sched_rsp);
    }
    unreachable!("completed fiber resumed")
}

/// A task body on its way to its worker.
type Body = (usize, Arc<Slot>, Box<dyn FnOnce() + Send + 'static>);

/// One worker: run its fibers to completion, resuming woken ones from
/// its ready queue and sleeping while there are none. Returns each
/// completed fiber's panic payload keyed by its task index.
fn worker_loop(
    sched: &Sched,
    me: usize,
    bodies: Vec<Body>,
    stack_size: usize,
    poison: &PoisonFlag,
    on_deadlock: &(dyn Fn() + Sync),
) -> Vec<(usize, Option<Box<dyn Any + Send>>)> {
    // Stacks and fiber state are built on the worker that owns them and
    // never leave it.
    let mut fibers: Vec<(StackMem, Box<FiberRt>)> = bodies
        .into_iter()
        .map(|(index, slot, body)| {
            let stack = StackMem::new(stack_size);
            let rt = Box::new(FiberRt {
                fiber_rsp: stack.prepare(fiber_main),
                sched_rsp: 0,
                action: Action::Parked,
                entry: Some(body),
                panic: None,
                saved_ctx: None,
                index,
                slot,
            });
            (stack, rt)
        })
        .collect();
    let mut runq: VecDeque<usize> = (0..fibers.len()).collect();
    let mut out = Vec::with_capacity(fibers.len());
    // hostprof: the whole worker loop is one frame per worker; fiber
    // slices nest inside it, so this frame's self time is scheduling
    // overhead (run-queue churn, context switches) plus, with several
    // workers, time asleep waiting for another worker's wake.
    let _sched_scope = simtrace::host::scope(simtrace::host::Site::FiberSched);
    while out.len() < fibers.len() {
        if runq.is_empty() && !sched.wait_ready(me, &mut runq) {
            break;
        }
        let idx = runq.pop_front().expect("ready queue non-empty");
        let (stack, rt) = &mut fibers[idx];
        let rtp: *mut FiberRt = &mut **rt;
        // hostprof: time one slice (resume -> suspend). The guard is
        // created and dropped on the worker side of the switch, so it
        // never spans a park; probes inside the fiber body nest under
        // this frame because fibers share the worker's thread-local
        // profiler stack.
        let run_scope = simtrace::host::scope(simtrace::host::Site::FiberRun);
        // SAFETY: `rtp` points into this worker's own boxed runtime;
        // `fiber_rsp` is the fiber's initial frame or the stack pointer
        // its last park saved, on a stack `fibers` keeps alive.
        unsafe {
            crate::progress::tl_set((*rtp).saved_ctx.take());
            CURRENT.with(|c| c.set(rtp));
            arch::switch(&raw mut (*rtp).sched_rsp, &raw const (*rtp).fiber_rsp);
            CURRENT.with(|c| c.set(std::ptr::null_mut()));
            (*rtp).saved_ctx = crate::progress::tl_take();
        }
        drop(run_scope);
        match rt.action {
            Action::Parked => {
                if !rt.slot.commit_park() {
                    runq.push_back(idx);
                    continue;
                }
            }
            Action::Done => {
                let mut panic = rt.panic.take();
                if !stack.canary_intact() {
                    // Reported as the rank's own panic; the rest of the
                    // cluster is poisoned as if the body had panicked.
                    panic = Some(Box::new(format!(
                        "fiber {} overflowed its {stack_size}-byte stack \
                         (canary clobbered); raise ClusterConfig::stack_size",
                        rt.index
                    )));
                    poison.poison();
                }
                out.push((rt.index, panic));
                sched.unfinished.fetch_sub(1, Ordering::SeqCst);
            }
        }
        if sched.active.fetch_sub(1, Ordering::SeqCst) == 1 {
            sched.went_idle(poison, on_deadlock);
        }
    }
    out
}

/// Run `tasks` as fibers on `workers` worker threads, task `i` on worker
/// `placement[i]` (clamped into range); worker 0 is the calling thread.
/// Returns each task's panic payload (`None` = clean return),
/// index-aligned with `tasks`. Virtual time is bitwise identical for any
/// worker count or placement.
///
/// `poison` watches every fiber. If the run deadlocks — every unfinished
/// fiber parked — `on_deadlock` runs once, on the worker that noticed and
/// with every fiber still parked, and then the executor poisons the
/// cluster, so the parked fibers panic out of their waits.
pub(crate) fn run<'a>(
    tasks: Vec<Box<dyn FnOnce() + Send + 'a>>,
    placement: &[usize],
    workers: usize,
    stack_size: usize,
    poison: &PoisonFlag,
    on_deadlock: impl Fn() + Sync,
) -> Vec<Option<Box<dyn Any + Send>>> {
    assert!(
        !in_fiber(),
        "nested fiber executors are not supported: a rank cannot start a cluster"
    );
    assert!(workers >= 1, "the fiber executor needs at least one worker");
    assert_eq!(
        placement.len(),
        tasks.len(),
        "placement must cover every task"
    );
    let n = tasks.len();
    let sched = Arc::new(Sched {
        ready: (0..workers).map(|_| Ready::default()).collect(),
        active: AtomicUsize::new(n),
        unfinished: AtomicUsize::new(n),
        abandoned: AtomicBool::new(false),
    });
    let mut shards: Vec<Vec<Body>> = (0..workers).map(|_| Vec::new()).collect();
    let mut wakers = Vec::with_capacity(n);
    for (index, task) in tasks.into_iter().enumerate() {
        // SAFETY: the scope join below guarantees every worker loop (and
        // thus every fiber) completes — or, abandoned, is never resumed —
        // before the borrowed data can go away, so parking the body
        // behind a 'static trait object is sound.
        let body: Box<dyn FnOnce() + Send + 'static> =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, _>(task) };
        let worker = placement[index].min(workers - 1);
        let slot = Arc::new(Slot {
            state: AtomicU8::new(RUNNING),
            worker,
            local: shards[worker].len(),
            sched: Arc::clone(&sched),
        });
        wakers.push(Waker(WakeTarget::Fiber(Arc::clone(&slot))));
        shards[worker].push((index, slot, body));
    }
    poison.watch_all(wakers);
    let on_deadlock: &(dyn Fn() + Sync) = &on_deadlock;
    let mut panics: Vec<Option<Box<dyn Any + Send>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let mut shards = shards.into_iter();
        let own = shards.next().expect("at least one worker");
        let handles: Vec<_> = shards
            .enumerate()
            .map(|(k, bodies)| {
                let sched = &*sched;
                std::thread::Builder::new()
                    .name(format!("simnet-worker-{}", k + 1))
                    .spawn_scoped(s, move || {
                        worker_loop(sched, k + 1, bodies, stack_size, poison, on_deadlock)
                    })
                    .expect("failed to spawn fiber worker thread")
            })
            .collect();
        let mut done = worker_loop(&sched, 0, own, stack_size, poison, on_deadlock);
        for h in handles {
            done.extend(h.join().expect("fiber worker thread panicked"));
        }
        for (index, payload) in done {
            panics[index] = payload;
        }
    });
    assert!(
        !sched.abandoned.load(Ordering::SeqCst),
        "fiber deadlock: {} fibers still parked after poisoning",
        sched.unfinished.load(Ordering::SeqCst)
    );
    panics
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter fibers park on until it satisfies a predicate — the
    /// pattern every blocking primitive reduces to.
    #[derive(Default)]
    struct Counter(Mutex<(u32, Vec<Waker>)>);

    impl Counter {
        fn wait_until(&self, poison: &PoisonFlag, ok: impl Fn(u32) -> bool) {
            let mut g = self.0.lock();
            while !ok(g.0) {
                g.1.push(Waker::current());
                park(&mut g, poison);
            }
        }

        fn add(&self, d: u32) {
            let mut g = self.0.lock();
            g.0 += d;
            for w in g.1.drain(..) {
                w.wake();
            }
        }

        fn get(&self) -> u32 {
            self.0.lock().0
        }
    }

    type Task<'a> = Box<dyn FnOnce() + Send + 'a>;
    type Panics = Vec<Option<Box<dyn Any + Send>>>;

    /// Run `tasks` on `workers` workers (task `i` on worker `i % W`),
    /// failing the test if the executor reports a deadlock.
    fn run_on(workers: usize, poison: &PoisonFlag, tasks: Vec<Task<'_>>) -> Panics {
        let placement: Vec<usize> = (0..tasks.len()).map(|i| i % workers).collect();
        let deadlocked = AtomicBool::new(false);
        let panics = run(tasks, &placement, workers, 64 * 1024, poison, || {
            deadlocked.store(true, Ordering::SeqCst)
        });
        assert!(!deadlocked.load(Ordering::SeqCst), "unexpected deadlock");
        panics
    }

    fn payload_str(p: &Option<Box<dyn Any + Send>>) -> String {
        let p = p.as_ref().expect("panic payload present");
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .expect("string payload")
    }

    #[test]
    fn fibers_run_to_completion_in_order() {
        let log = Mutex::new(Vec::new());
        let poison = PoisonFlag::default();
        let tasks: Vec<Task> = (0..4)
            .map(|i| {
                let log = &log;
                Box::new(move || log.lock().push(i)) as Task
            })
            .collect();
        let panics = run_on(1, &poison, tasks);
        assert!(panics.iter().all(Option::is_none));
        assert_eq!(*log.lock(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn parking_passes_a_baton_round_robin() {
        // Three fibers take turns by parking until the baton is theirs:
        // steps proceed in lockstep, on one worker or spread over three.
        for workers in [1, 2, 3] {
            let log = Mutex::new(Vec::new());
            let baton = Counter::default();
            let poison = PoisonFlag::default();
            let tasks: Vec<Task> = (0..3u32)
                .map(|i| {
                    let (log, baton, poison) = (&log, &baton, &poison);
                    Box::new(move || {
                        for step in 0..3u32 {
                            baton.wait_until(poison, |b| b % 3 == i);
                            log.lock().push((i, step));
                            baton.add(1);
                        }
                    }) as Task
                })
                .collect();
            let panics = run_on(workers, &poison, tasks);
            assert!(panics.iter().all(Option::is_none));
            let expect: Vec<(u32, u32)> =
                (0..3).flat_map(|s| (0..3).map(move |i| (i, s))).collect();
            assert_eq!(*log.lock(), expect, "{workers} workers");
        }
    }

    #[test]
    fn woken_fibers_resume_in_wake_order() {
        // Fibers 0-2 park on one counter in start order; fiber 3 wakes
        // them all, and one worker resumes them in that order.
        let log = Mutex::new(Vec::new());
        let gate = Counter::default();
        let poison = PoisonFlag::default();
        let mut tasks: Vec<Task> = (0..3)
            .map(|i| {
                let (log, gate, poison) = (&log, &gate, &poison);
                Box::new(move || {
                    gate.wait_until(poison, |g| g > 0);
                    log.lock().push(i);
                }) as Task
            })
            .collect();
        tasks.push(Box::new(|| gate.add(1)));
        run_on(1, &poison, tasks);
        assert_eq!(*log.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn panic_is_captured_not_propagated() {
        let gate = Counter::default();
        let poison = PoisonFlag::default();
        let tasks: Vec<Task> = vec![
            Box::new(|| {}),
            Box::new(|| panic!("fiber boom")),
            Box::new(|| gate.wait_until(&poison, |g| g > 0)),
            Box::new(|| gate.add(1)),
        ];
        let panics = run_on(1, &poison, tasks);
        assert!(panics[0].is_none());
        assert_eq!(payload_str(&panics[1]), "fiber boom");
        assert!(panics[2].is_none() && panics[3].is_none());
    }

    #[test]
    fn ping_pong_by_park_and_wake() {
        // Two fibers alternate turns, each parked while it is the
        // other's — on one worker, and on two (every wake crosses).
        for workers in [1, 2] {
            let turn = Counter::default();
            let poison = PoisonFlag::default();
            let tasks: Vec<Task> = (0..2u32)
                .map(|me| {
                    let (turn, poison) = (&turn, &poison);
                    Box::new(move || {
                        for _ in 0..25 {
                            turn.wait_until(poison, |t| t % 2 == me);
                            turn.add(1);
                        }
                    }) as Task
                })
                .collect();
            let panics = run_on(workers, &poison, tasks);
            assert!(panics.iter().all(Option::is_none));
            assert_eq!(turn.get(), 50);
        }
    }

    #[test]
    fn deep_stack_use_within_bounds_is_fine() {
        fn burn(depth: usize) -> usize {
            let pad = [depth as u8; 64];
            if depth == 0 {
                pad[0] as usize
            } else {
                burn(depth - 1) + pad.len()
            }
        }
        let tasks: Vec<Task> = vec![Box::new(|| {
            assert_eq!(burn(100), 6400);
        })];
        let poison = PoisonFlag::default();
        let panics = run(tasks, &[0], 1, 256 * 1024, &poison, || {});
        assert!(panics[0].is_none());
    }

    #[test]
    fn worker_count_round_trips_and_clamps() {
        let before = workers();
        set_workers(4);
        assert_eq!(workers(), 4);
        set_workers(0);
        assert_eq!(workers(), 1, "worker count clamps to at least one");
        set_workers(before);
    }

    #[test]
    fn barrier_across_workers_keeps_results_indexed() {
        // Every task parks until all have arrived, whatever the worker
        // count — including more workers than tasks.
        for workers in [1, 2, 4, 16] {
            let arrived = Counter::default();
            let done: Vec<AtomicUsize> = (0..10).map(|_| AtomicUsize::new(0)).collect();
            let poison = PoisonFlag::default();
            let tasks: Vec<Task> = (0..10)
                .map(|i| {
                    let (arrived, done, poison) = (&arrived, &done, &poison);
                    Box::new(move || {
                        arrived.add(1);
                        arrived.wait_until(poison, |a| a == 10);
                        done[i].store(i + 1, Ordering::Relaxed);
                    }) as Task
                })
                .collect();
            let panics = run_on(workers, &poison, tasks);
            assert!(panics.iter().all(Option::is_none));
            for (i, d) in done.iter().enumerate() {
                assert_eq!(d.load(Ordering::Relaxed), i + 1, "{workers} workers");
            }
        }
    }

    #[test]
    fn sharded_panic_is_captured_on_the_right_index() {
        let poison = PoisonFlag::default();
        let tasks: Vec<Task> = vec![
            Box::new(|| {}),
            Box::new(|| panic!("worker fiber boom")),
            Box::new(|| {}),
        ];
        let panics = run_on(3, &poison, tasks);
        assert!(panics[0].is_none());
        assert_eq!(payload_str(&panics[1]), "worker fiber boom");
        assert!(panics[2].is_none());
    }

    #[test]
    fn busy_worker_is_not_a_deadlock() {
        // Worker 1's fiber parks while worker 0's fiber computes without
        // parking for a while, then wakes it: the count of runnable
        // fibers never reaches zero, so no deadlock is reported.
        let gate = Counter::default();
        let poison = PoisonFlag::default();
        let tasks: Vec<Task> = vec![
            Box::new(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                gate.add(1);
            }),
            Box::new(|| gate.wait_until(&poison, |g| g > 0)),
        ];
        let panics = run_on(2, &poison, tasks);
        assert!(panics.iter().all(Option::is_none));
    }

    #[test]
    fn deadlock_is_reported_once_then_poison_releases_every_fiber() {
        // Two fibers park on a counter nobody bumps; a third finishes
        // (draining its worker). The deadlock is reported exactly once,
        // then the poison wakes the parked fibers, on whichever worker,
        // and they panic out of their waits.
        for workers in [1, 2, 3] {
            let gate = Counter::default();
            let poison = PoisonFlag::default();
            let reports = AtomicUsize::new(0);
            let tasks: Vec<Task> = vec![
                Box::new(|| gate.wait_until(&poison, |g| g > 0)),
                Box::new(|| gate.wait_until(&poison, |g| g > 0)),
                Box::new(|| {}),
            ];
            let placement: Vec<usize> = (0..3).map(|i| i % workers).collect();
            let panics = run(tasks, &placement, workers, 64 * 1024, &poison, || {
                reports.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(reports.load(Ordering::SeqCst), 1, "{workers} workers");
            assert!(payload_str(&panics[0]).contains("poisoned"));
            assert!(payload_str(&panics[1]).contains("poisoned"));
            assert!(panics[2].is_none());
        }
    }

    #[test]
    #[should_panic(expected = "still parked after poisoning")]
    fn fibers_that_ignore_the_poison_are_given_up_not_hung() {
        // A wait that checks a flag other than the run's poison: after
        // the deadlock report and the poison, the fiber parks again and
        // the executor gives it up instead of sleeping forever.
        let poison = PoisonFlag::default();
        let gate = Counter::default();
        let unwatched = PoisonFlag::default();
        let tasks: Vec<Task> = vec![Box::new(|| gate.wait_until(&unwatched, |g| g > 0))];
        run(tasks, &[0], 1, 64 * 1024, &poison, || {});
    }
}
