//! Helpers shared by the integration suites.

/// Runs `f` on a fresh thread marked as a worker of another pool, where
/// every fan-out — a sweep's cells included — runs in order on one lane.
pub fn on_one_lane<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    let one_lane = || {
        cfd_dsp::lanes::enter_pool_worker();
        f()
    };
    std::thread::scope(|scope| scope.spawn(one_lane).join().unwrap())
}
