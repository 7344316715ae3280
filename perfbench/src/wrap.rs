//! Benchmark-side wrappers around the program's extension points: a
//! traced [`SensingBackend`], and [`BackendRecipe`]s that count replica
//! builds or record fusion member verdicts. They time calls from outside
//! and change nothing about what the wrapped backend decides.

use crate::trace;
use cfd_core::error::CfdError;
use cfd_core::{BackendRecipe, Decision, Observation, SensingBackend};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// `scf_for` requests made and spectra sets computed by traced decides
/// (see [`scf_compute_ratio`]).
static SCF_REQUESTS: AtomicU64 = AtomicU64::new(0);
static SCF_COMPUTED: AtomicU64 = AtomicU64::new(0);

/// Share of `Observation::scf_for` requests that computed spectra, over
/// every traced decide that made a request, since the last call.
pub fn take_scf_compute_ratio() -> Option<f64> {
    let requests = SCF_REQUESTS.swap(0, Ordering::Relaxed);
    let computed = SCF_COMPUTED.swap(0, Ordering::Relaxed);
    (requests > 0).then(|| computed as f64 / requests as f64)
}

/// A backend whose every decide runs inside a span named `name`.
pub struct Traced<B> {
    pub name: &'static str,
    pub inner: B,
    /// Duration of the latest decide, for callers that split a hop.
    pub last_ns: u64,
}

impl<B> Traced<B> {
    pub fn new(name: &'static str, inner: B) -> Self {
        Traced {
            name,
            inner,
            last_ns: 0,
        }
    }
}

impl<B: SensingBackend> SensingBackend for Traced<B> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
        if !trace::enabled() {
            return self.inner.decide(observation);
        }
        let requests = observation.scf_requests();
        let start = trace::now_ns();
        let decision = {
            let _span = trace::span(self.name, 0);
            self.inner.decide(observation)
        };
        self.last_ns = trace::now_ns() - start;
        let made = observation.scf_requests() - requests;
        if made > 0 {
            SCF_REQUESTS.fetch_add(made, Ordering::Relaxed);
            SCF_COMPUTED.fetch_add(observation.computed() as u64, Ordering::Relaxed);
        }
        decision
    }
}

/// Per-channel record of a service subscription, written by the channel's
/// worker and read after `join`: when each decision entered the backend
/// (traced runs only) and when the sink saw it, plus its statistic bits
/// and verdict for the serial-replay check.
#[derive(Default)]
pub struct ChannelLog {
    inner: Mutex<LogEntries>,
}

#[derive(Default, Clone)]
pub struct LogEntries {
    pub entered_ns: Vec<u64>,
    pub seen_ns: Vec<u64>,
    pub statistic_bits: Vec<u64>,
    pub verdict: Vec<bool>,
}

impl ChannelLog {
    pub fn with_capacity(decisions: usize) -> Self {
        ChannelLog {
            inner: Mutex::new(LogEntries {
                entered_ns: Vec::new(),
                seen_ns: Vec::with_capacity(decisions),
                statistic_bits: Vec::with_capacity(decisions),
                verdict: Vec::with_capacity(decisions),
            }),
        }
    }

    pub fn snapshot(&self) -> LogEntries {
        self.inner.lock().expect("channel log poisoned").clone()
    }
}

/// The benchmark's `DecisionSink`: stamps each decision on arrival.
pub struct TimingSink {
    pub log: Arc<ChannelLog>,
    pub seen: Arc<AtomicU64>,
    pub delay: std::time::Duration,
}

impl cfd_core::service::DecisionSink for TimingSink {
    fn on_decision(&mut self, _channel: u64, decision: &Decision) {
        let now = trace::now_ns();
        let mut log = self.log.inner.lock().expect("channel log poisoned");
        log.seen_ns.push(now);
        log.statistic_bits.push(decision.statistic.to_bits());
        log.verdict.push(decision.is_signal());
        drop(log);
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        self.seen.fetch_add(1, Ordering::Relaxed);
    }
}

/// A service channel's recipe: counts replica builds (so set-up can wait
/// until every worker has built its shard) and, in traced runs, wraps the
/// replica to stamp decide entry and time the decide.
pub struct ChannelRecipe<R> {
    pub inner: R,
    pub built: Arc<AtomicUsize>,
    pub log: Option<Arc<ChannelLog>>,
}

impl<R: BackendRecipe + Send> BackendRecipe for ChannelRecipe<R> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn build(&self) -> Result<Box<dyn SensingBackend + Send>, CfdError> {
        let replica = self.inner.build()?;
        self.built.fetch_add(1, Ordering::Release);
        Ok(match &self.log {
            Some(log) => Box::new(StampedBackend {
                inner: replica,
                log: Arc::clone(log),
            }),
            None => replica,
        })
    }
}

struct StampedBackend {
    inner: Box<dyn SensingBackend + Send>,
    log: Arc<ChannelLog>,
}

impl SensingBackend for StampedBackend {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
        let now = trace::now_ns();
        self.log
            .inner
            .lock()
            .expect("channel log poisoned")
            .entered_ns
            .push(now);
        let _span = trace::span("detector.cfd_decide", 0);
        self.inner.decide(observation)
    }
}

/// A fusion member's recipe: every replica appends its verdicts to a
/// shared log, so the fused vote count can be checked against them.
pub struct MemberRecipe<R> {
    pub inner: R,
    pub verdicts: Arc<Mutex<Vec<bool>>>,
}

impl<R: BackendRecipe + Send> BackendRecipe for MemberRecipe<R> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn build(&self) -> Result<Box<dyn SensingBackend + Send>, CfdError> {
        Ok(Box::new(MemberBackend {
            inner: Traced::new("fusion.member_decide", self.inner.build()?),
            verdicts: Arc::clone(&self.verdicts),
        }))
    }
}

struct MemberBackend {
    inner: Traced<Box<dyn SensingBackend + Send>>,
    verdicts: Arc<Mutex<Vec<bool>>>,
}

impl SensingBackend for MemberBackend {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
        let decision = self.inner.decide(observation)?;
        self.verdicts
            .lock()
            .expect("verdict log poisoned")
            .push(decision.is_signal());
        Ok(decision)
    }
}
