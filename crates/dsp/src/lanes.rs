//! One persistent lane budget for the whole process.
//!
//! The paper folds the DSCF rows onto `Q` cores that work at the same
//! time (Step 1, eqs. 8/9). On the host, that fold is [`fan_out`]: the
//! caller is lane 0, and one helper thread per spare core
//! (`available_parallelism − 1`, read once) joins it. Every lane pulls
//! task indices from one atomic counter until none is left, so uneven
//! tasks balance themselves.
//!
//! The helpers are started on the first fan-out that could use them.
//! After each job a helper polls for the next one for a short, bounded
//! time and then parks ([`Signal`], the process's one poll-then-park
//! wait, which the sensing scheduler's ingress queues use too). The DSCF
//! row bands, the fusion members and the sweep cells all use this one
//! budget; three rules keep it from being oversubscribed:
//!
//! * a fan-out claims only helpers that are idle, so concurrent callers
//!   split the helpers between them instead of queueing on them;
//! * a fan-out issued from inside a lane (a task that itself fans out)
//!   runs serially on that lane;
//! * a fan-out issued from a worker of another pool (a thread that called
//!   [`enter_pool_worker`]) runs serially on that worker.
//!
//! Which lane runs which task is not deterministic. Callers that need
//! bit-identical results at any lane count give every task its own output
//! and merge the outputs in task order, or merge them with an operation
//! whose result does not depend on the order.
//!
//! Two counters are always live: `dsp.lanes.fan_outs` counts the
//! fan-outs that obtained at least one helper, and `dsp.lanes.helper_tasks`
//! counts the tasks that ran on helpers.

use std::any::Any;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// How long a polling [`Signal::wait`] polls before parking on its
/// condition variable. Measured on a 2-core Xeon (AVX-512, rustc 1.95.0):
///
/// * lanes — an empty two-task fan-out costs about 1 µs while the helper
///   is still polling, but 40–50 µs when it has to be woken. In a traced
///   wideband roster the fan-outs of a trial (the CFD fold, then the
///   fusion members) are 17–55 µs apart, plus about 180 µs of FFTs before
///   the next trial's fold;
/// * the scheduler's ingress queue — at 25 000 hops/s hops reach a lone
///   worker 40 µs apart, and a parked worker paid a futex wake-up on
///   nearly every one: in five traced 20 s `service-dense` pairs, polling
///   cut the worker's queue wait p50 from a median of 20.9 to 14.0 µs
///   and the producer's push p99 from 3.7 to 2.1 µs.
///
/// So 500 µs keeps a waiter warm across both gaps while an idle process
/// parks it within a millisecond.
const SPIN: Duration = Duration::from_micros(500);

/// A job as a helper sees it: run lane `lane` of the current fan-out.
type Job = dyn Fn(usize) + Sync;

/// Always-live lane counters (see the module docs).
struct LaneInstruments {
    fan_outs: cfd_telemetry::Counter,
    helper_tasks: cfd_telemetry::Counter,
}

fn instruments() -> &'static LaneInstruments {
    static INSTRUMENTS: OnceLock<LaneInstruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| LaneInstruments {
        fan_outs: cfd_telemetry::counter("dsp.lanes.fan_outs"),
        helper_tasks: cfd_telemetry::counter("dsp.lanes.helper_tasks"),
    })
}

thread_local! {
    /// Set while this thread runs a lane, and for good on helper threads
    /// and on workers of other pools: fan-outs issued here run serially.
    static SERIAL: Cell<bool> = const { Cell::new(false) };
}

/// The host's core count, read once per process: uncached,
/// `available_parallelism` reads cgroup files on every call (~28 µs).
/// The lane budget is this many lanes, the caller included.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Marks the calling thread as a worker of another pool for the rest of
/// its life: every fan-out issued from it runs serially on it, in task
/// order. The sensing scheduler's pinned workers (the only other pool)
/// call this first thing: they already keep the host's cores busy. A
/// scenario sweep is one fan-out, so on a marked thread it runs one lane.
pub fn enter_pool_worker() {
    SERIAL.with(|serial| serial.set(true));
}

/// Runs `work(lane, task)` once for every `task` in `0..tasks` and returns
/// how many lanes took part (1 when the fan-out ran serially).
///
/// The caller is lane 0; helpers that were idle when the call began join
/// as lanes `1..host_cores()`, and no two lanes of one call share an
/// index, so `lane` can select per-lane scratch. The call returns only
/// after every lane has finished. A panic in any task is resumed on the
/// caller after that, and the helper that raised it stays usable.
///
/// Runs serially on the caller — every task on lane 0, in task order —
/// when there are fewer than two tasks, on a single-core host, inside a
/// lane, on a worker of another pool ([`enter_pool_worker`]), or when no
/// helper is idle.
pub fn fan_out(tasks: usize, work: impl Fn(usize, usize) + Sync) -> usize {
    let helpers = if tasks < 2 || SERIAL.with(Cell::get) {
        &[][..]
    } else {
        pool()
    };
    let claimed: Vec<&'static Helper> = helpers
        .iter()
        .filter(|helper| helper.try_claim())
        .take(tasks.saturating_sub(1))
        .collect();
    if claimed.is_empty() {
        let _lane = LaneGuard::enter();
        for task in 0..tasks {
            work(0, task);
        }
        return 1;
    }
    let next = AtomicUsize::new(0);
    let lane = |lane: usize| {
        let mut ran = 0u64;
        loop {
            // The counter hands out indices and publishes nothing: results
            // travel through the tasks' own synchronisation and the slots.
            let task = next.fetch_add(1, Ordering::Relaxed);
            if task >= tasks {
                break;
            }
            work(lane, task);
            ran += 1;
        }
        if lane > 0 {
            instruments().helper_tasks.add(ran);
        }
    };
    let job: &(dyn Fn(usize) + Sync) = &lane;
    // SAFETY: the helpers read `job` — and through it `work`, `next` and
    // `tasks` on this stack frame — only between taking it from their
    // slot and raising `job_done` under the slot lock; that raise is the
    // job's last touch of borrowed state. From here on this function
    // cannot return or unwind before it has seen `job_done` from every
    // claimed helper: posting and waiting never panic (poisoned locks are
    // recovered, and nothing panics while a slot lock is held), the
    // caller's own lane runs under `catch_unwind`, and a panic from any
    // lane is resumed only after the wait loop below.
    let job: &'static Job =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static Job>(job) };
    for helper in &claimed {
        helper.post(job);
    }
    let own = {
        let _lane = LaneGuard::enter();
        panic::catch_unwind(AssertUnwindSafe(|| job(0)))
    };
    let mut helper_panic = None;
    for helper in &claimed {
        if let Some(payload) = helper.wait() {
            helper_panic.get_or_insert(payload);
        }
    }
    instruments().fan_outs.increment();
    if let Err(payload) = own {
        panic::resume_unwind(payload);
    }
    if let Some(payload) = helper_panic {
        panic::resume_unwind(payload);
    }
    1 + claimed.len()
}

/// Marks the current thread as running a lane until dropped (restoring
/// the previous mark, so a worker of another pool stays marked).
struct LaneGuard(bool);

impl LaneGuard {
    fn enter() -> Self {
        LaneGuard(SERIAL.with(|serial| serial.replace(true)))
    }
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        SERIAL.with(|serial| serial.set(self.0));
    }
}

/// The helpers, started on first use. They live for the rest of the
/// process, parked when there is no work.
fn pool() -> &'static [Helper] {
    static POOL: OnceLock<&'static [Helper]> = OnceLock::new();
    POOL.get_or_init(|| {
        let helpers: &'static [Helper] = Vec::leak(
            (1..host_cores())
                .map(|lane| Helper {
                    lane,
                    idle: AtomicBool::new(true),
                    slot: Mutex::new(Slot::default()),
                    // Helpers exist only on a host with a spare core.
                    job_ready: Signal::new(true),
                    job_done: Signal::new(true),
                })
                .collect(),
        );
        for helper in helpers {
            let spawned = std::thread::Builder::new()
                .name(format!("cfd-lane-{}", helper.lane))
                .spawn(move || helper.serve());
            if spawned.is_err() {
                // Never claimable: fan-outs simply get one lane fewer.
                helper.idle.store(false, Ordering::Relaxed);
            }
        }
        helpers
    })
}

/// One helper thread's mailbox: the slot carries the job and its
/// outcome, `job_ready` and `job_done` hand them across.
struct Helper {
    /// This helper's lane index in every fan-out it joins.
    lane: usize,
    /// Claimed by a fan-out with a compare-exchange and released by that
    /// same fan-out once it has seen the job finish, so a fan-out that
    /// returns always leaves its helpers claimable. The claim's `Acquire`
    /// pairs with the release's `Release`.
    idle: AtomicBool,
    slot: Mutex<Slot>,
    /// Raised when a job is posted; the helper waits on it.
    job_ready: Signal,
    /// Raised when the job has finished; the fan-out waits on it.
    job_done: Signal,
}

#[derive(Default)]
struct Slot {
    job: Option<&'static Job>,
    panic: Option<Box<dyn Any + Send>>,
}

impl Helper {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        // No code panics while holding a slot lock, so a poisoned slot
        // still holds consistent state.
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn try_claim(&self) -> bool {
        self.idle
            .compare_exchange(true, false, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Hands a claimed helper its job.
    fn post(&self, job: &'static Job) {
        let mut slot = self.lock();
        slot.job = Some(job);
        self.job_ready.raise(slot);
    }

    /// Waits until the posted job has finished, releases the claim and
    /// returns the job's panic payload, if any.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let (mut slot, _) = self.job_done.wait(&self.slot);
        self.job_done.lower();
        let payload = slot.panic.take();
        drop(slot);
        self.idle.store(true, Ordering::Release);
        payload
    }

    /// The helper thread: run each posted job as lane `self.lane`, forever.
    fn serve(&self) {
        SERIAL.with(|serial| serial.set(true));
        loop {
            let job = {
                let (mut slot, _) = self.job_ready.wait(&self.slot);
                self.job_ready.lower();
                slot.job.take()
            };
            // A raised `job_ready` always carries a job.
            if let Some(job) = job {
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| job(self.lane)));
                let mut slot = self.lock();
                slot.panic = outcome.err();
                self.job_done.raise(slot);
            }
        }
    }
}

/// A one-waiter handoff flag with a bounded poll-then-park wait: the one
/// wait primitive of the process's thread pools (the lane helpers and
/// their callers here, the sensing scheduler's workers on their ingress
/// queues).
///
/// The signal guards nothing itself: it pairs with a mutex the waiter and
/// the raisers share, and [`raise`](Signal::raise), the lock-taking part
/// of [`wait`](Signal::wait) and [`lower`](Signal::lower) all run under
/// that one mutex. The flag is also read without the lock — the poll —
/// which only decides when to take the lock, so every flag access is
/// `Relaxed` and the mutex publishes the data it guards.
///
/// Two rules keep a handoff cheap:
///
/// * a waiter built with `poll = true` polls the flag for up to a fixed
///   500 µs bound before it parks, so a handoff that arrives while it
///   polls costs no wake-up;
/// * a raiser notifies the condition variable only when the waiter is
///   actually parked.
///
/// Build a polling signal only where the waiter does not take a core
/// another thread needs: a polling waiter burns its core for the bound.
#[derive(Debug)]
pub struct Signal {
    poll: bool,
    raised: AtomicBool,
    /// Written by the waiter and read by raisers, only under the mutex.
    parked: AtomicBool,
    wake: Condvar,
}

impl Signal {
    /// A lowered signal whose waiter polls before parking when `poll`
    /// holds and parks at once otherwise.
    pub fn new(poll: bool) -> Self {
        Signal {
            poll,
            raised: AtomicBool::new(false),
            parked: AtomicBool::new(false),
            wake: Condvar::new(),
        }
    }

    /// Raises the signal under `guard` (the shared mutex's lock), releases
    /// the lock and wakes the waiter if it is parked. The signal stays
    /// raised until the waiter lowers it.
    pub fn raise<T>(&self, guard: MutexGuard<'_, T>) {
        self.raised.store(true, Ordering::Relaxed);
        let parked = self.parked.load(Ordering::Relaxed);
        drop(guard);
        if parked {
            self.wake.notify_one();
        }
    }

    /// Waits until the signal is raised and returns the lock of `mutex`
    /// with the signal still raised, plus whether the wait parked. Polls
    /// first if the signal was built to, so a raise in the meantime costs
    /// no wake-up. A poisoned `mutex` is recovered: the users of a signal
    /// never panic while holding its mutex.
    ///
    /// Only one thread may wait on a signal.
    pub fn wait<'a, T>(&self, mutex: &'a Mutex<T>) -> (MutexGuard<'a, T>, bool) {
        if self.poll {
            let start = Instant::now();
            let mut spins = 0u32;
            while !self.raised.load(Ordering::Relaxed) {
                std::hint::spin_loop();
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(64) && start.elapsed() >= SPIN {
                    break;
                }
            }
        }
        let mut guard = mutex.lock().unwrap_or_else(PoisonError::into_inner);
        let mut parked = false;
        while !self.raised.load(Ordering::Relaxed) {
            parked = true;
            self.parked.store(true, Ordering::Relaxed);
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if parked {
            self.parked.store(false, Ordering::Relaxed);
        }
        (guard, parked)
    }

    /// Lowers the signal. Call it under the shared mutex's lock, once the
    /// waiter has taken what the raise handed over.
    pub fn lower(&self) {
        self.raised.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Ping-pong over two signals sharing one mutex, with the pings sent
    /// after sleeps spread around the poll bound: each lands while the
    /// waiter polls, as it stops polling, or once it has parked. A lost
    /// wake-up would hang the test.
    #[test]
    fn every_raise_reaches_the_waiter_around_the_poll_bound() {
        let gaps = [Duration::ZERO, SPIN / 2, SPIN, SPIN * 2, SPIN / 2, SPIN * 2];
        for poll in [true, false] {
            let shared = Arc::new((Mutex::new(0u32), Signal::new(poll), Signal::new(poll)));
            let echo = Arc::clone(&shared);
            let waiter = std::thread::spawn(move || {
                let (count, ping, pong) = &*echo;
                for _ in 0..gaps.len() {
                    let (mut count_guard, _) = ping.wait(count);
                    ping.lower();
                    *count_guard += 1;
                    pong.raise(count_guard);
                }
            });
            let (count, ping, pong) = &*shared;
            for (round, gap) in gaps.iter().enumerate() {
                std::thread::sleep(*gap);
                ping.raise(count.lock().unwrap());
                let (count_guard, _) = pong.wait(count);
                pong.lower();
                assert_eq!(*count_guard, round as u32 + 1, "poll {poll}");
            }
            waiter.join().unwrap();
        }
    }
}
