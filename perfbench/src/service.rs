//! The open-loop service workloads: one `SensingScheduler` worker fed by a
//! paced generator, then a saturation phase.
//!
//! Traffic is synthesised once per seed and replayed cyclically, so a run
//! of any length needs only one cycle of samples in memory. Every channel
//! still sees one continuous event stream, and every check below replays
//! exactly the events that were pushed.

use crate::stats;
use crate::trace;
use crate::wrap::{ChannelLog, ChannelRecipe, LogEntries, TimingSink, Traced};
use cfd_core::service::{Backpressure, ServiceReport};
use cfd_core::{
    ChannelSubscription, SensingScheduler, ServiceConfig, StreamingConfig, StreamingSensor,
};
use cfd_dsp::complex::Cplx;
use cfd_dsp::detector::CyclostationaryDetector;
use cfd_dsp::scf::ScfParams;
use cfd_scenario::service_traffic::{ActivityModel, ServiceTraffic, TrafficEvent};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One service workload's fixed shape.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    pub channels: usize,
    pub params: ScfParams,
    /// `None` keeps the streaming default (planes cached when they fit).
    pub plane_budget: Option<usize>,
    pub activity: ActivityModel,
    pub snr_db: f64,
    /// Slots synthesised per traffic cycle.
    pub cycle_slots: usize,
    /// Offered load of the open-loop phase.
    pub rate_hops_per_s: f64,
    /// Extra time each sink spends per decision (zero in every workload;
    /// lets a test slow the consumer down).
    pub sink_delay: Duration,
}

/// Offered load of `service-dense` (see `perfbench/README.md` for how it
/// was chosen).
pub const DENSE_RATE_HOPS_PER_S: f64 = 25_000.0;

/// Offered load of `service-bursty` (see `perfbench/README.md`).
pub const BURSTY_RATE_HOPS_PER_S: f64 = 4_000.0;

impl ServiceSpec {
    /// 1 024 always-active channels at the 31×31 service geometry.
    pub fn dense() -> Self {
        ServiceSpec {
            channels: 1024,
            params: ScfParams::new(64, 15, 32).expect("fixed geometry"),
            plane_budget: Some(0),
            activity: ActivityModel::always_active(),
            snr_db: 5.0,
            cycle_slots: 48,
            rate_hops_per_s: DENSE_RATE_HOPS_PER_S,
            sink_delay: Duration::ZERO,
        }
    }

    /// 64 bursty channels at the paper's 127×127 grid, planes cached.
    pub fn bursty() -> Self {
        ServiceSpec {
            channels: 64,
            params: ScfParams::new(256, 63, 8).expect("fixed geometry"),
            plane_budget: None,
            activity: ActivityModel::bursty(0.95, 0.8).expect("fixed probabilities"),
            snr_db: 5.0,
            cycle_slots: 256,
            rate_hops_per_s: BURSTY_RATE_HOPS_PER_S,
            sink_delay: Duration::ZERO,
        }
    }

    /// The small dense service run that stands in for the service layers
    /// on a workload that does not drive them.
    pub fn probe() -> Self {
        ServiceSpec {
            channels: 64,
            cycle_slots: 48,
            rate_hops_per_s: 10_000.0,
            ..ServiceSpec::dense()
        }
    }

    pub fn streaming_config(&self) -> StreamingConfig {
        let config = StreamingConfig::new(self.params.clone());
        match self.plane_budget {
            Some(bytes) => config.with_plane_budget(bytes),
            None => config,
        }
    }

    pub fn detector(&self) -> CyclostationaryDetector {
        CyclostationaryDetector::new(self.params.clone(), 0.35, 1).expect("fixed detector")
    }

    /// One traffic cycle for `seed`.
    pub fn traffic(&self, seed: u64) -> Result<Vec<TrafficEvent>, String> {
        ServiceTraffic::new(
            "bpsk-awgn",
            self.channels,
            self.cycle_slots,
            self.params.block_stride,
        )
        .and_then(|traffic| {
            traffic
                .with_seed(seed)
                .at_snr(self.snr_db)
                .with_activity(self.activity)
                .synthesize()
        })
        .map_err(|error| format!("traffic synthesis failed: {error}"))
    }
}

/// The event stream a service pass pushes: a staggered warm-up prefix,
/// then one synthesised traffic cycle repeated for as long as the pass
/// runs.
///
/// The prefix gives channel `c` its first `window + c mod refresh` hops of
/// the cycle, so every channel is warm when timing starts and the
/// channels' exact refreshes fall on different slots instead of all on the
/// same one, as they would for channels subscribed at different times.
pub struct Schedule {
    /// Indices into `cycle` of the prefix hops, in push order.
    pub prefix: Vec<usize>,
    pub cycle: Vec<TrafficEvent>,
}

impl Schedule {
    /// A schedule with no prefix (all channels start cold together).
    #[cfg(test)]
    pub fn cyclic(cycle: Vec<TrafficEvent>) -> Self {
        Schedule {
            prefix: Vec::new(),
            cycle,
        }
    }

    /// `cycle` behind the staggered warm-up prefix for `spec`.
    pub fn staggered(spec: &ServiceSpec, cycle: Vec<TrafficEvent>) -> Self {
        let window = spec.params.num_blocks;
        let refresh = spec.streaming_config().refresh_interval;
        let lengths: Vec<usize> = (0..spec.channels).map(|c| window + c % refresh).collect();
        let mut per_channel: Vec<Vec<usize>> = vec![Vec::new(); spec.channels];
        for (index, event) in cycle.iter().enumerate() {
            if let TrafficEvent::Hop { channel, .. } = event {
                per_channel[*channel as usize].push(index);
            }
        }
        let mut prefix = Vec::new();
        let longest = lengths.iter().copied().max().unwrap_or(0);
        for slot in 0..longest {
            for (channel, hops) in per_channel.iter().enumerate() {
                if slot < lengths[channel] {
                    prefix.push(hops[slot % hops.len()]);
                }
            }
        }
        Schedule { prefix, cycle }
    }

    /// The `index`-th event pushed.
    pub fn event(&self, index: usize) -> &TrafficEvent {
        match index.checked_sub(self.prefix.len()) {
            None => &self.cycle[self.prefix[index]],
            Some(offset) => &self.cycle[offset % self.cycle.len()],
        }
    }
}

/// For the first `pushed` events of `schedule`, the global hop index
/// (counting hops only, from 0) that completes each of a channel's
/// decisions, in decision order. A channel decides on every hop once
/// `window` one-block hops have arrived since its last park.
pub fn decision_hops(
    schedule: &Schedule,
    channels: usize,
    window: usize,
    pushed: usize,
) -> Vec<Vec<u64>> {
    let mut run = vec![0usize; channels];
    let mut out = vec![Vec::new(); channels];
    let mut hop = 0u64;
    for index in 0..pushed {
        match schedule.event(index) {
            TrafficEvent::Hop { channel, .. } => {
                let c = *channel as usize;
                run[c] += 1;
                if run[c] >= window {
                    out[c].push(hop);
                }
                hop += 1;
            }
            TrafficEvent::Park { channel } => run[*channel as usize] = 0,
        }
    }
    out
}

/// Maps each open-loop decision to its latency: stamp minus the due time
/// of the hop that completed it. `deciding[c]` lists channel `c`'s
/// deciding hops and `stamps[c]` its per-decision times, both in decision
/// order; only hops from `first_hop` on were paced, and `due_ns(hop)` is
/// their due time on the trace clock.
pub fn due_latencies_us(
    deciding: &[Vec<u64>],
    stamps: &[&[u64]],
    first_hop: u64,
    due_ns: impl Fn(u64) -> u64,
) -> Vec<f64> {
    let mut out = Vec::new();
    for (hops, times) in deciding.iter().zip(stamps) {
        for (hop, &at) in hops.iter().zip(times.iter()) {
            if *hop >= first_hop {
                out.push((at as f64 - due_ns(*hop) as f64) / 1e3);
            }
        }
    }
    out
}

/// Everything one service pass measured.
pub struct ServiceRun {
    pub setup_s: Vec<f64>,
    pub join_s: f64,
    pub latencies_us: Vec<f64>,
    pub due_to_decide_us: Vec<f64>,
    pub lag_us: Vec<f64>,
    pub saturation_decisions: u64,
    pub saturation_hops: u64,
    pub saturation_s: f64,
    pub report: ServiceReport,
    pub hops_pushed: u64,
    pub parks_pushed: u64,
    pub refused: u64,
    pub events_pushed: usize,
    pub predicted_decisions: u64,
    pub logs: Vec<LogEntries>,
}

struct Fleet {
    scheduler: SensingScheduler,
    logs: Vec<Arc<ChannelLog>>,
    seen: Arc<AtomicU64>,
}

fn spawn_fleet(spec: &ServiceSpec, traced: bool, capacity: usize) -> Result<(Fleet, f64), String> {
    let start = Instant::now();
    let built = Arc::new(AtomicUsize::new(0));
    let seen = Arc::new(AtomicU64::new(0));
    let mut logs = Vec::with_capacity(spec.channels);
    let config = ServiceConfig::new(1)
        .with_queue_capacity(8 * spec.channels)
        .with_backpressure(Backpressure::Block);
    let mut builder = SensingScheduler::builder(config);
    for channel in 0..spec.channels {
        let log = Arc::new(ChannelLog::with_capacity(capacity));
        builder = builder.subscribe(ChannelSubscription::new(
            channel as u64,
            spec.streaming_config(),
            ChannelRecipe {
                inner: spec.detector(),
                built: Arc::clone(&built),
                log: traced.then(|| Arc::clone(&log)),
            },
            TimingSink {
                log: Arc::clone(&log),
                seen: Arc::clone(&seen),
                delay: spec.sink_delay,
            },
        ));
        logs.push(log);
    }
    let scheduler = builder
        .spawn()
        .map_err(|error| format!("spawn failed: {error}"))?;
    // The worker builds its replicas in-thread; set-up ends when all exist.
    let deadline = Instant::now() + Duration::from_secs(60);
    while built.load(Ordering::Acquire) < spec.channels {
        if Instant::now() > deadline {
            return Err("workers did not build every replica within 60 s".into());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok((
        Fleet {
            scheduler,
            logs,
            seen,
        },
        start.elapsed().as_secs_f64(),
    ))
}

/// Pushes nothing until every decision `map` predicts has reached a sink.
fn drain(seen: &AtomicU64, map: &[Vec<u64>], phase: &str) -> Result<u64, String> {
    let expected: u64 = map.iter().map(|hops| hops.len() as u64).sum();
    let deadline = Instant::now() + Duration::from_secs(60);
    while seen.load(Ordering::Relaxed) < expected {
        if Instant::now() > deadline {
            return Err(format!(
                "{phase}: {} of {expected} decisions after 60 s",
                seen.load(Ordering::Relaxed)
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(expected)
}

/// Runs one service pass: `setups` set-ups (all but the last joined at
/// once), the untimed warm-up prefix, an open-loop phase of `open` at the
/// spec's rate, a drain, and a saturation phase of `saturation`.
pub fn run(
    spec: &ServiceSpec,
    schedule: &Schedule,
    open: Duration,
    saturation: Duration,
    setups: usize,
) -> Result<ServiceRun, String> {
    let traced = trace::enabled();
    let window = spec.params.num_blocks;
    // Size each channel's log so the sink does not reallocate while timed:
    // saturation has run at up to about four times the offered rate.
    let expected_hops = spec.rate_hops_per_s * (open + saturation * 4).as_secs_f64();
    let capacity = (expected_hops / spec.channels as f64) as usize + 64;
    let mut setup_s = Vec::with_capacity(setups);
    let mut fleet = None;
    for round in 0..setups {
        let (spawned, seconds) = {
            let _span = trace::span("service.spawn", round as u64);
            spawn_fleet(spec, traced, capacity)?
        };
        setup_s.push(seconds);
        if round + 1 < setups {
            spawned
                .scheduler
                .join()
                .map_err(|error| format!("idle join failed: {error}"))?;
        } else {
            fleet = Some(spawned);
        }
    }
    let Fleet {
        scheduler,
        logs,
        seen,
    } = fleet.ok_or("at least one set-up is required")?;

    let mut refused = 0u64;
    let mut parks = 0u64;
    let mut push = |index: usize, hop: u64| -> bool {
        match schedule.event(index) {
            TrafficEvent::Hop {
                channel, samples, ..
            } => {
                let _span = trace::span("service.push", hop);
                refused += u64::from(scheduler.push(*channel, samples).is_err());
                true
            }
            TrafficEvent::Park { channel } => {
                refused += u64::from(scheduler.park(*channel).is_err());
                parks += 1;
                false
            }
        }
    };

    let mut index = 0usize;
    let mut hop = 0u64;
    while index < schedule.prefix.len() {
        if push(index, hop) {
            hop += 1;
        }
        index += 1;
    }
    let warm = decision_hops(schedule, spec.channels, window, index);
    drain(&seen, &warm, "warm-up prefix")?;

    // Open loop: hop h is due at t0 + h / rate, whether or not the worker
    // kept up; the generator yields until each due time and records how
    // late it actually pushed.
    let first_hop = hop;
    let period_ns = 1e9 / spec.rate_hops_per_s;
    let open_end = first_hop + (open.as_secs_f64() * spec.rate_hops_per_s) as u64;
    let mut lag_us = Vec::with_capacity((open_end - first_hop) as usize);
    let t0 = trace::now_ns() + 1_000_000;
    let due_ns = |hop: u64| t0 + ((hop - first_hop) as f64 * period_ns) as u64;
    while hop < open_end {
        if matches!(schedule.event(index), TrafficEvent::Hop { .. }) {
            let due = due_ns(hop);
            let mut now = trace::now_ns();
            while now < due {
                std::thread::yield_now();
                now = trace::now_ns();
            }
            lag_us.push((now - due) as f64 / 1e3);
        }
        if push(index, hop) {
            hop += 1;
        }
        index += 1;
    }
    let open_map = decision_hops(schedule, spec.channels, window, index);
    let open_decisions = drain(&seen, &open_map, "open-loop phase")?;

    // Saturation: replay on as fast as Block backpressure allows.
    let start = Instant::now();
    while start.elapsed() < saturation {
        if push(index, hop) {
            hop += 1;
        }
        index += 1;
    }
    let join_start = Instant::now();
    let report = {
        let _span = trace::span("service.join", 0);
        scheduler.join()
    }
    .map_err(|error| format!("join failed: {error}"))?;
    let join_s = join_start.elapsed().as_secs_f64();
    let saturation_s = start.elapsed().as_secs_f64();

    let logs: Vec<LogEntries> = logs.iter().map(|log| log.snapshot()).collect();
    let predicted_decisions: u64 = decision_hops(schedule, spec.channels, window, index)
        .iter()
        .map(|hops| hops.len() as u64)
        .sum();
    let seen_stamps: Vec<&[u64]> = logs.iter().map(|log| log.seen_ns.as_slice()).collect();
    let latencies_us = due_latencies_us(&open_map, &seen_stamps, first_hop, due_ns);
    let entered: Vec<&[u64]> = logs.iter().map(|log| log.entered_ns.as_slice()).collect();
    let due_to_decide_us = if traced {
        due_latencies_us(&open_map, &entered, first_hop, due_ns)
    } else {
        Vec::new()
    };
    Ok(ServiceRun {
        setup_s,
        join_s,
        latencies_us,
        due_to_decide_us,
        lag_us,
        saturation_decisions: report.decisions.saturating_sub(open_decisions),
        saturation_hops: hop - open_end,
        saturation_s,
        report,
        hops_pushed: hop,
        parks_pushed: parks,
        refused,
        events_pushed: index,
        predicted_decisions,
        logs,
    })
}

/// What a serial replay of one channel measured.
#[derive(Default)]
pub struct Replay {
    pub statistic_bits: Vec<u64>,
    pub verdict: Vec<bool>,
    pub warmup_hop_us: Vec<f64>,
    pub decision_hop_us: Vec<f64>,
    /// Decision hop time minus the backend decide inside it.
    pub pre_decide_us: Vec<f64>,
    pub exact_refreshes: u64,
    pub incremental_hops: u64,
    pub decisions: u64,
}

/// Replays the events the scheduler received for `channel` (the first
/// `pushed` events of `schedule`) through one serial `StreamingSensor`.
pub fn replay_channel(
    spec: &ServiceSpec,
    schedule: &Schedule,
    channel: u64,
    pushed: usize,
) -> Result<Replay, String> {
    let fail = |error: cfd_core::CfdError| format!("serial replay of channel {channel}: {error}");
    let backend = Traced::new("replay.cfd_decide", spec.detector());
    let mut sensor = StreamingSensor::new(spec.streaming_config(), backend).map_err(fail)?;
    let mut out = Replay::default();
    let mut decisions = Vec::with_capacity(1);
    let bank = |sensor: &StreamingSensor<Traced<CyclostationaryDetector>>, out: &mut Replay| {
        out.exact_refreshes += sensor.exact_refreshes();
        out.incremental_hops += sensor.incremental_hops();
        out.decisions += sensor.decisions_emitted();
    };
    for index in 0..pushed {
        match schedule.event(index) {
            TrafficEvent::Hop {
                channel: c,
                samples,
                ..
            } if *c == channel => {
                decisions.clear();
                let start = trace::now_ns();
                sensor.push_into(samples, &mut decisions).map_err(fail)?;
                let hop_us = (trace::now_ns() - start) as f64 / 1e3;
                if decisions.is_empty() {
                    out.warmup_hop_us.push(hop_us);
                } else {
                    let decide_us = sensor.backend().last_ns as f64 / 1e3;
                    out.decision_hop_us.push(hop_us);
                    out.pre_decide_us.push(hop_us - decide_us);
                }
                for decision in &decisions {
                    out.statistic_bits.push(decision.statistic.to_bits());
                    out.verdict.push(decision.is_signal());
                }
            }
            TrafficEvent::Park { channel: c } if *c == channel => {
                bank(&sensor, &mut out);
                sensor.park();
            }
            _ => {}
        }
    }
    bank(&sensor, &mut out);
    Ok(out)
}

/// The channels whose decisions are replayed serially: 16 spread over the
/// fleet, placed by the seed.
pub fn sample_channels(channels: usize, seed: u64) -> Vec<u64> {
    let count = channels.min(16);
    let offset = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % channels;
    (0..count)
        .map(|j| ((offset + j * channels / count) % channels) as u64)
        .collect()
}

/// Checks a finished pass: decision count as scheduled, no drops, nothing
/// refused, and the sample channels bit-identical to serial replay.
/// Returns the replays for the stream-layer metrics.
pub fn check(
    spec: &ServiceSpec,
    schedule: &Schedule,
    run: &ServiceRun,
    seed: u64,
) -> Result<Vec<Replay>, String> {
    if run.report.decisions != run.predicted_decisions {
        return Err(format!(
            "scheduler emitted {} decisions, the schedule predicts {}",
            run.report.decisions, run.predicted_decisions
        ));
    }
    if run.report.drops != 0 || run.refused != 0 {
        return Err(format!(
            "{} hops dropped, {} pushes or parks refused",
            run.report.drops, run.refused
        ));
    }
    if run.report.hops != run.hops_pushed {
        return Err(format!(
            "{} hops processed of {} pushed",
            run.report.hops, run.hops_pushed
        ));
    }
    let mut replays = Vec::new();
    for channel in sample_channels(spec.channels, seed) {
        let replay = replay_channel(spec, schedule, channel, run.events_pushed)?;
        let log = &run.logs[channel as usize];
        if replay.statistic_bits != log.statistic_bits || replay.verdict != log.verdict {
            return Err(format!(
                "channel {channel}: scheduler decisions differ from serial replay \
                 ({} vs {} decisions)",
                log.statistic_bits.len(),
                replay.statistic_bits.len()
            ));
        }
        replays.push(replay);
    }
    Ok(replays)
}

/// The hop samples of `events` concatenated in arrival order, cycled until
/// `len` samples: the service workloads' own input for kernel probes.
pub fn hop_stream(events: &[TrafficEvent], len: usize) -> Vec<Cplx> {
    let mut out = Vec::with_capacity(len);
    for event in events.iter().cycle() {
        if let TrafficEvent::Hop { samples, .. } = event {
            let take = samples.len().min(len - out.len());
            out.extend_from_slice(&samples[..take]);
            if out.len() == len {
                break;
            }
        }
    }
    out
}

/// Median of the serial replays' decision-hop split, for the derived
/// queue wait.
pub fn median_of(replays: &[Replay], pick: impl Fn(&Replay) -> &[f64]) -> Result<f64, String> {
    let all: Vec<f64> = replays
        .iter()
        .flat_map(|r| pick(r).iter().copied())
        .collect();
    stats::median(&all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_bench::service_driver::{run_naive, service_params, service_workload};

    fn bursty_events(channels: usize) -> Vec<TrafficEvent> {
        ServiceTraffic::new("bpsk-awgn", channels, 96, service_params().block_stride)
            .unwrap()
            .with_seed(23)
            .with_activity(ActivityModel::bursty(0.9, 0.6).unwrap())
            .synthesize()
            .unwrap()
    }

    /// Pushes every event of `schedule` through a one-worker scheduler and
    /// returns its report and the decisions each channel's sink saw.
    fn scheduler_counts(
        spec: &ServiceSpec,
        schedule: &Schedule,
        pushed: usize,
    ) -> (ServiceReport, Vec<usize>) {
        let (fleet, _) = spawn_fleet(spec, false, 0).unwrap();
        for index in 0..pushed {
            match schedule.event(index) {
                TrafficEvent::Hop {
                    channel, samples, ..
                } => fleet.scheduler.push(*channel, samples).unwrap(),
                TrafficEvent::Park { channel } => fleet.scheduler.park(*channel).unwrap(),
            }
        }
        let report = fleet.scheduler.join().unwrap();
        let seen = fleet
            .logs
            .iter()
            .map(|log| log.snapshot().seen_ns.len())
            .collect();
        (report, seen)
    }

    #[test]
    fn decision_mapping_agrees_with_the_scheduler_and_the_naive_driver() {
        let channels = 6;
        let spec = ServiceSpec {
            channels,
            ..ServiceSpec::dense()
        };
        let window = spec.params.num_blocks;
        for events in [service_workload(channels), bursty_events(channels)] {
            let naive = run_naive(channels, &events);
            let schedule = Schedule::cyclic(events);
            let pushed = schedule.cycle.len();
            let map = decision_hops(&schedule, channels, window, pushed);
            let (report, seen) = scheduler_counts(&spec, &schedule, pushed);
            let mapped: Vec<usize> = map.iter().map(Vec::len).collect();
            assert_eq!(mapped.iter().sum::<usize>() as u64, naive);
            assert_eq!(report.decisions, naive);
            assert_eq!(seen, mapped);
        }
    }

    #[test]
    fn staggered_schedule_warms_every_channel_and_keeps_the_mapping() {
        let channels = 5;
        let spec = ServiceSpec {
            channels,
            ..ServiceSpec::dense()
        };
        let window = spec.params.num_blocks;
        let schedule = Schedule::staggered(&spec, bursty_events(channels));
        for channel in 0..channels as u64 {
            let hops = schedule
                .prefix
                .iter()
                .filter(|&&index| schedule.cycle[index].channel() == channel)
                .count();
            assert_eq!(hops, window + channel as usize);
        }
        // Past the prefix, one and a half cycles of replay.
        let pushed = schedule.prefix.len() + schedule.cycle.len() * 3 / 2;
        let map = decision_hops(&schedule, channels, window, pushed);
        let (report, seen) = scheduler_counts(&spec, &schedule, pushed);
        assert_eq!(
            report.decisions,
            map.iter().map(|h| h.len() as u64).sum::<u64>()
        );
        assert_eq!(seen, map.iter().map(Vec::len).collect::<Vec<_>>());
        // Every channel's first decision completes its prefix.
        for (channel, hops) in map.iter().enumerate() {
            assert!(!hops.is_empty(), "channel {channel} never decided");
        }
    }

    #[test]
    fn due_latency_pairs_each_decision_with_its_completing_hop() {
        // Channel 0 decided on hops 3 and 5, channel 1 on hop 4; hops
        // before 4 were not paced.
        let deciding = vec![vec![3, 5], vec![4]];
        let stamps: Vec<&[u64]> = vec![&[9_000, 12_000], &[10_500]];
        let due = |hop: u64| hop * 2_000;
        assert_eq!(due_latencies_us(&deciding, &stamps, 4, due), vec![2.0, 2.5]);
    }

    #[test]
    fn generator_lag_shows_when_the_sink_is_slowed() {
        let spec = ServiceSpec {
            channels: 4,
            rate_hops_per_s: 5_000.0,
            ..ServiceSpec::probe()
        };
        let schedule = Schedule::staggered(&spec, spec.traffic(3).unwrap());
        let open = Duration::from_millis(100);
        let fast = run(&spec, &schedule, open, Duration::ZERO, 1).unwrap();
        let slowed = ServiceSpec {
            sink_delay: Duration::from_millis(2),
            ..spec.clone()
        };
        let slow = run(&slowed, &schedule, open, Duration::ZERO, 1).unwrap();
        check(&slowed, &schedule, &slow, 3).unwrap();
        // 500 hops offered in 100 ms against a sink that takes 2 ms per
        // decision behind a 32-hop queue: the generator blocks, and the
        // last hops go out hundreds of milliseconds late.
        let worst = |lag: &[f64]| lag.iter().copied().fold(0.0, f64::max);
        assert!(
            worst(&slow.lag_us) > 100_000.0,
            "lag {}",
            worst(&slow.lag_us)
        );
        assert!(worst(&slow.lag_us) > 10.0 * worst(&fast.lag_us));
        assert!(stats::percentile(&slow.lag_us, 0.9).unwrap() > 10_000.0);
    }
}
