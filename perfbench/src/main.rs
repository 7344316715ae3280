//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <service-dense|service-bursty|roster-wideband>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds every input from the seed before timing, runs the workload,
//! checks its outputs and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! workload runs once untraced and once with the benchmark's spans on, and
//! the metrics are the per-layer ones. A failed check exits non-zero and
//! prints no result. See `perfbench/README.md`.

mod host;
mod probe;
mod roster;
mod service;
mod stats;
mod trace;
mod wrap;

use cfd_dsp::complex::Cplx;
use cfd_dsp::scf::ScfParams;
use probe::{push, Metrics};
use service::{Replay, Schedule, ServiceRun, ServiceSpec};
use stats::{median, percentile};
use std::time::{Duration, Instant};

/// Set-ups per run; the reported set-up time is their median.
const SETUPS: usize = 21;

/// Trials of the short roster pass that stands in for the roster layers
/// on the service workloads.
const ROSTER_PROBE_TRIALS: usize = 24;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What a run prints as its result.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn secs(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds)
}

/// The metrics every workload reports with `--trace 0`.
fn end_to_end(
    setup_s: &[f64],
    latency_us: &[f64],
    sim_step_us: f64,
    attempted: u64,
    failed: u64,
) -> Result<Outcome, String> {
    let mut metrics = Metrics::new();
    push(&mut metrics, "setup_s", median(setup_s)?, "s");
    push(&mut metrics, "latency_p50_us", median(latency_us)?, "us");
    push(&mut metrics, "sim_step_us", sim_step_us, "sim_us");
    push(
        &mut metrics,
        "ok_ratio",
        1.0 - failed as f64 / attempted as f64,
        "ratio",
    );
    let peak_kb = host::status_kb("VmHWM").ok_or("VmHWM unavailable")?;
    push(&mut metrics, "peak_rss_mb", peak_kb as f64 / 1024.0, "MB");
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// One checked service pass: the run and its serial replays.
fn service_pass(
    spec: &ServiceSpec,
    schedule: &Schedule,
    seed: u64,
    open: f64,
    saturation: f64,
    setups: usize,
) -> Result<(ServiceRun, Vec<Replay>), String> {
    let run = service::run(spec, schedule, secs(open), secs(saturation), setups)?;
    let replays = service::check(spec, schedule, &run, seed)?;
    println!(
        "service: {} channels, open loop {} decisions at {} hops/s, saturation {} hops in {:.3} s",
        spec.channels,
        run.latencies_us.len(),
        spec.rate_hops_per_s,
        run.saturation_hops,
        run.saturation_s
    );
    Ok((run, replays))
}

/// Builds `SETUPS` rosters and keeps the last; returns it with the set-up
/// and `SessionRecipe::build` times.
fn build_rosters() -> Result<(roster::Roster, Vec<f64>, Vec<f64>), String> {
    let (mut setup_s, mut build_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let (roster, build) = roster::build()?;
        setup_s.push(start.elapsed().as_secs_f64());
        build_s.push(build);
        last = Some(roster);
    }
    Ok((last.expect("SETUPS > 0"), setup_s, build_s))
}

/// One checked roster pass after a warm-up trial (which builds the fusion
/// members' replicas).
fn roster_pass(
    pool: &[Vec<Cplx>],
    seconds: f64,
    min_trials: usize,
) -> Result<(roster::RosterRun, Vec<f64>, Vec<f64>), String> {
    let (mut roster, setup_s, build_s) = build_rosters()?;
    roster::run(&mut roster, pool, Duration::ZERO, 1, 0)?;
    trace::take();
    wrap::take_scf_compute_ratio();
    let run = roster::run(&mut roster, pool, secs(seconds), min_trials, 1)?;
    println!(
        "roster: {} trials in {:.3} s, modelled step {} us",
        run.trial_ms.len(),
        run.wall_s,
        run.sim_step_us
    );
    Ok((run, setup_s, build_s))
}

fn trial_us(run: &roster::RosterRun) -> Vec<f64> {
    run.trial_ms.iter().map(|ms| ms * 1e3).collect()
}

fn service_end_to_end(spec: &ServiceSpec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let sim_step_us = probe::paper_checks(seed)?;
    let schedule = Schedule::staggered(spec, spec.traffic(seed)?);
    let (run, _) = service_pass(spec, &schedule, seed, 0.6 * seconds, 0.4 * seconds, SETUPS)?;
    end_to_end(
        &run.setup_s,
        &run.latencies_us,
        sim_step_us,
        run.hops_pushed + run.parks_pushed,
        run.report.drops + run.refused,
    )
}

fn roster_end_to_end(seed: u64, seconds: f64) -> Result<Outcome, String> {
    probe::paper_checks(seed)?;
    let pool = roster::pool(seed)?;
    let (run, setup_s, _) = roster_pass(&pool, seconds, 200)?;
    end_to_end(&setup_s, &trial_us(&run), run.sim_step_us, run.decisions, 0)
}

/// The service-layer, stream-layer and load-generator metrics of a traced
/// service pass.
fn service_layers(
    rss_kb_per_channel: f64,
    run: &ServiceRun,
    replays: &[Replay],
    spans: &[trace::Span],
    metrics: &mut Metrics,
) -> Result<(), String> {
    let due_to_decide_p50 = median(&run.due_to_decide_us)?;
    let pre_decide = service::median_of(replays, |r| &r.pre_decide_us)?;
    let pushes = trace::durations(spans, "service.push");
    let spawn_s = *run.setup_s.last().ok_or("the pass ran no set-up")?;
    push(metrics, "service.spawn_s", spawn_s, "s");
    push(
        metrics,
        "service.push_us_p99",
        percentile(&pushes, 0.99)?,
        "us",
    );
    push(
        metrics,
        "service.due_to_decide_us_p50",
        due_to_decide_p50,
        "us",
    );
    let due_to_decide_p99 = percentile(&run.due_to_decide_us, 0.99)?;
    push(
        metrics,
        "service.due_to_decide_us_p99",
        due_to_decide_p99,
        "us",
    );
    push(
        metrics,
        "service.queue_wait_us_p50",
        due_to_decide_p50 - pre_decide,
        "us",
    );
    push(metrics, "service.join_s", run.join_s, "s");
    push(metrics, "service.hops", run.report.hops as f64, "count");
    push(
        metrics,
        "service.decisions",
        run.report.decisions as f64,
        "count",
    );

    let decision_hops: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.decision_hop_us.iter().copied())
        .collect();
    let refreshes: u64 = replays.iter().map(|r| r.exact_refreshes).sum();
    let emitted: u64 = replays.iter().map(|r| r.decisions).sum();
    let incremental: u64 = replays.iter().map(|r| r.incremental_hops).sum();
    let warmup = service::median_of(replays, |r| &r.warmup_hop_us)?;
    push(metrics, "stream.warmup_hop_us_p50", warmup, "us");
    push(
        metrics,
        "stream.decision_hop_us_p50",
        median(&decision_hops)?,
        "us",
    );
    push(
        metrics,
        "stream.decision_hop_us_p99",
        percentile(&decision_hops, 0.99)?,
        "us",
    );
    push(
        metrics,
        "stream.exact_refresh_ratio",
        refreshes as f64 / emitted as f64,
        "ratio",
    );
    push(
        metrics,
        "stream.incremental_hops",
        incremental as f64,
        "count",
    );
    push(
        metrics,
        "stream.rss_kb_per_channel",
        rss_kb_per_channel,
        "kB",
    );
    push(
        metrics,
        "loadgen.lag_p99_us",
        percentile(&run.lag_us, 0.99)?,
        "us",
    );
    Ok(())
}

/// Resident memory per warm streaming channel: `VmRSS` growth while 32
/// sensors are built and driven to their first decision. It runs before
/// any other pass of the invocation, on a fresh thread, so the sensors'
/// allocations come from fresh pages rather than memory a finished pass
/// freed.
fn rss_kb_per_channel(
    spec: &ServiceSpec,
    events: &[cfd_scenario::TrafficEvent],
) -> Result<f64, String> {
    const SENSORS: usize = 32;
    let window = spec.params.num_blocks;
    let hops: Vec<&[Cplx]> = events
        .iter()
        .filter_map(|event| match event {
            cfd_scenario::TrafficEvent::Hop { samples, .. } => Some(samples.as_slice()),
            cfd_scenario::TrafficEvent::Park { .. } => None,
        })
        .take(window)
        .collect();
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let before = host::status_kb("VmRSS").ok_or("VmRSS unavailable")?;
                let mut sensors = Vec::with_capacity(SENSORS);
                for _ in 0..SENSORS {
                    let mut sensor =
                        cfd_core::StreamingSensor::new(spec.streaming_config(), spec.detector())
                            .map_err(|error| error.to_string())?;
                    for samples in &hops {
                        sensor.push(samples).map_err(|error| error.to_string())?;
                    }
                    sensors.push(sensor);
                }
                let after = host::status_kb("VmRSS").ok_or("VmRSS unavailable")?;
                Ok(after.saturating_sub(before) as f64 / SENSORS as f64)
            })
            .join()
            .map_err(|_| "RSS probe panicked".to_string())?
    })
}

/// The roster-layer metrics of a traced roster pass.
fn roster_layers(
    spans: &[trace::Span],
    build_s: &[f64],
    metrics: &mut Metrics,
) -> Result<(), String> {
    let p50 = |name: &str| median(&trace::durations(spans, name));
    push(
        metrics,
        "detector.energy_decide_us_p50",
        p50("detector.energy_decide")?,
        "us",
    );
    push(metrics, "soc.decide_us_p50", p50("soc.decide")?, "us");
    push(metrics, "sensing.build_s", median(build_s)?, "s");
    push(metrics, "fusion.decide_us_p50", p50("fusion.decide")?, "us");
    push(
        metrics,
        "fusion.member_decide_us_p50",
        p50("fusion.member_decide")?,
        "us",
    );
    let fusion_self = median(&trace::self_times(spans, "fusion.decide"))?;
    push(metrics, "fusion.self_us_p50", fusion_self, "us");
    push(
        metrics,
        "channel.impair_us_p50",
        p50("channel.impair")?,
        "us",
    );
    let ratio = wrap::take_scf_compute_ratio().ok_or("no scf_for request was traced")?;
    push(metrics, "backend.scf_compute_ratio", ratio, "ratio");
    Ok(())
}

/// Direct kernel calls on the workload's own samples.
fn kernel_layers(
    samples: &[Cplx],
    params: &ScfParams,
    metrics: &mut Metrics,
) -> Result<(), String> {
    probe::fft(samples, metrics)?;
    probe::scf(samples, metrics)?;
    probe::backend(samples, params, metrics)?;
    probe::soc(samples, metrics)
}

/// Runs `f` with the benchmark's spans on and returns its result with the
/// spans it recorded.
fn traced<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, Vec<trace::Span>), String> {
    trace::take();
    trace::set_enabled(true);
    let result = f();
    trace::set_enabled(false);
    let spans = trace::take();
    Ok((result?, spans))
}

fn overhead_pct(traced: &[f64], untraced: &[f64]) -> Result<f64, String> {
    Ok((median(traced)? / median(untraced)? - 1.0) * 100.0)
}

fn service_per_layer(
    spec: &ServiceSpec,
    seed: u64,
    seconds: f64,
    all_spans: &mut Vec<trace::Span>,
) -> Result<Outcome, String> {
    probe::paper_checks(seed)?;
    let schedule = Schedule::staggered(spec, spec.traffic(seed)?);
    let rss = rss_kb_per_channel(spec, &schedule.cycle)?;
    let mut metrics = Metrics::new();
    let (open, saturation) = (0.3 * seconds, 0.1 * seconds);
    let (plain, _) = service_pass(spec, &schedule, seed, open, saturation, 1)?;
    let ((run, replays), spans) =
        traced(|| service_pass(spec, &schedule, seed, open, saturation, 1))?;
    service_layers(rss, &run, &replays, &spans, &mut metrics)?;
    let cfd = median(&trace::durations(&spans, "detector.cfd_decide"))?;
    push(&mut metrics, "detector.cfd_decide_us_p50", cfd, "us");
    let tail = percentile(&plain.latencies_us, 0.99)?;
    push(&mut metrics, "e2e.latency_tail_us", tail, "us");
    let throughput = plain.saturation_decisions as f64 / plain.saturation_s;
    push(&mut metrics, "e2e.throughput_per_s", throughput, "1/s");
    let overhead = overhead_pct(&run.latencies_us, &plain.latencies_us)?;
    all_spans.extend(spans);

    // The roster layers, from a short roster pass on this seed.
    let pool = roster::pool(seed)?;
    let ((_, _, build_s), spans) = traced(|| roster_pass(&pool, 0.0, ROSTER_PROBE_TRIALS))?;
    roster_layers(&spans, &build_s, &mut metrics)?;
    all_spans.extend(spans);

    let samples = service::hop_stream(&schedule.cycle, 2 * roster::params().samples_needed());
    kernel_layers(&samples, &spec.params, &mut metrics)?;
    push(&mut metrics, "trace.overhead_pct", overhead, "%");
    Ok(Outcome {
        attempted: plain.hops_pushed + plain.parks_pushed + run.hops_pushed + run.parks_pushed,
        failed: 0,
        metrics,
    })
}

fn roster_per_layer(
    seed: u64,
    seconds: f64,
    all_spans: &mut Vec<trace::Span>,
) -> Result<Outcome, String> {
    probe::paper_checks(seed)?;
    let pool = roster::pool(seed)?;
    let spec = ServiceSpec::probe();
    let schedule = Schedule::staggered(&spec, spec.traffic(seed)?);
    let rss = rss_kb_per_channel(&spec, &schedule.cycle)?;
    let mut metrics = Metrics::new();
    let (plain, _, _) = roster_pass(&pool, 0.3 * seconds, 200)?;
    let ((run, _, build_s), spans) = traced(|| roster_pass(&pool, 0.3 * seconds, 20))?;
    roster_layers(&spans, &build_s, &mut metrics)?;
    let cfd = median(&trace::durations(&spans, "detector.cfd_decide"))?;
    push(&mut metrics, "detector.cfd_decide_us_p50", cfd, "us");
    let tail = percentile(&trial_us(&plain), 0.95)?;
    push(&mut metrics, "e2e.latency_tail_us", tail, "us");
    let throughput = plain.trial_ms.len() as f64 / plain.wall_s;
    push(&mut metrics, "e2e.throughput_per_s", throughput, "1/s");
    let overhead = overhead_pct(&run.trial_ms, &plain.trial_ms)?;
    all_spans.extend(spans);

    // The service layers, from the small dense probe fleet on this seed.
    let ((service_run, replays), spans) =
        traced(|| service_pass(&spec, &schedule, seed, 1.0, 0.5, 1))?;
    service_layers(rss, &service_run, &replays, &spans, &mut metrics)?;
    all_spans.extend(spans);

    kernel_layers(
        &roster::sample_stream(&pool),
        &roster::params(),
        &mut metrics,
    )?;
    push(&mut metrics, "trace.overhead_pct", overhead, "%");
    Ok(Outcome {
        attempted: plain.decisions + run.decisions + service_run.hops_pushed,
        failed: 0,
        metrics,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut spans = Vec::new();
    let (seed, seconds) = (args.seed, args.seconds);
    let outcome = match (args.workload.as_str(), args.trace) {
        ("service-dense", false) => service_end_to_end(&ServiceSpec::dense(), seed, seconds),
        ("service-bursty", false) => service_end_to_end(&ServiceSpec::bursty(), seed, seconds),
        ("roster-wideband", false) => roster_end_to_end(seed, seconds),
        ("service-dense", true) => {
            service_per_layer(&ServiceSpec::dense(), seed, seconds, &mut spans)
        }
        ("service-bursty", true) => {
            service_per_layer(&ServiceSpec::bursty(), seed, seconds, &mut spans)
        }
        ("roster-wideband", true) => roster_per_layer(seed, seconds, &mut spans),
        (other, _) => Err(format!(
            "unknown workload {other:?} (service-dense, service-bursty, roster-wideband)"
        )),
    }?;
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            "perfbench/traces/{}-seed{}.csv",
            args.workload, args.seed
        ));
        trace::write_csv(&path, &spans).map_err(|error| format!("writing {path:?}: {error}"))?;
        println!("spans: {} written to {}", spans.len(), path.display());
    }
    Ok(outcome)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(2);
        }
    };
    println!("host: {}", host::Host::detect().to_json());
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("perfbench: {} seed {}: {error}", args.workload, args.seed);
            std::process::exit(1);
        }
    };
    let mut fields = Vec::new();
    for (name, value, unit) in &outcome.metrics {
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite");
            std::process::exit(1);
        }
        println!("{name:<36} {value:>16.4} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
}
