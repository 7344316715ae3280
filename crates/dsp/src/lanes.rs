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
//! time and then parks. The DSCF row bands, the fusion members and the
//! sweep cells all use this one budget; three rules keep it from being
//! oversubscribed:
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

/// How long a helper polls for its next job, and a caller for its
/// helpers' completion, before parking on a condition variable. Measured
/// on a 2-core Xeon (AVX-512, rustc 1.95.0): an empty two-task fan-out
/// costs about 1 µs while the helper is still polling, but 40–50 µs when
/// it has to be woken. In a traced wideband roster the fan-outs of a
/// trial (the CFD fold, then the fusion members) are 17–55 µs apart, plus
/// about 180 µs of FFTs before the next trial's fold, so a 500 µs bound
/// keeps the helper warm from one fan-out to the next while an idle
/// process parks it within a millisecond.
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
    // slot and signalling `done` under the slot lock; that signal is the
    // job's last touch of borrowed state. From here on this function
    // cannot return or unwind before it has seen `done` from every
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
                    posted: AtomicBool::new(false),
                    finished: AtomicBool::new(false),
                    slot: Mutex::new(Slot::default()),
                    job_ready: Condvar::new(),
                    job_done: Condvar::new(),
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

/// One helper thread's mailbox. The slot mutex carries the job and its
/// outcome; the `posted` / `finished` flags only let either side poll
/// without taking the lock, so they publish nothing and are `Relaxed`.
struct Helper {
    /// This helper's lane index in every fan-out it joins.
    lane: usize,
    /// Claimed by a fan-out with a compare-exchange and released by that
    /// same fan-out once it has seen the job finish, so a fan-out that
    /// returns always leaves its helpers claimable. The claim's `Acquire`
    /// pairs with the release's `Release`.
    idle: AtomicBool,
    posted: AtomicBool,
    finished: AtomicBool,
    slot: Mutex<Slot>,
    job_ready: Condvar,
    job_done: Condvar,
}

#[derive(Default)]
struct Slot {
    job: Option<&'static Job>,
    done: bool,
    panic: Option<Box<dyn Any + Send>>,
    helper_parked: bool,
    caller_parked: bool,
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
        self.posted.store(true, Ordering::Relaxed);
        let parked = slot.helper_parked;
        drop(slot);
        if parked {
            self.job_ready.notify_one();
        }
    }

    /// Waits until the posted job has finished, releases the claim and
    /// returns the job's panic payload, if any.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        poll(&self.finished);
        let mut slot = self.lock();
        while !slot.done {
            slot.caller_parked = true;
            slot = self
                .job_done
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
        slot.caller_parked = false;
        slot.done = false;
        self.finished.store(false, Ordering::Relaxed);
        let payload = slot.panic.take();
        drop(slot);
        self.idle.store(true, Ordering::Release);
        payload
    }

    /// The helper thread: run each posted job as lane `self.lane`, forever.
    fn serve(&self) {
        SERIAL.with(|serial| serial.set(true));
        loop {
            poll(&self.posted);
            let job = {
                let mut slot = self.lock();
                let job = loop {
                    if let Some(job) = slot.job.take() {
                        break job;
                    }
                    slot.helper_parked = true;
                    slot = self
                        .job_ready
                        .wait(slot)
                        .unwrap_or_else(PoisonError::into_inner);
                };
                slot.helper_parked = false;
                self.posted.store(false, Ordering::Relaxed);
                job
            };
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| job(self.lane)));
            let mut slot = self.lock();
            slot.panic = outcome.err();
            slot.done = true;
            self.finished.store(true, Ordering::Relaxed);
            if slot.caller_parked {
                self.job_done.notify_one();
            }
        }
    }
}

/// Polls `flag` for up to [`SPIN`]; the caller then takes the lock and
/// parks if the flag was not seen.
fn poll(flag: &AtomicBool) {
    let start = Instant::now();
    let mut spins = 0u32;
    while !flag.load(Ordering::Relaxed) {
        std::hint::spin_loop();
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(64) && start.elapsed() >= SPIN {
            return;
        }
    }
}
