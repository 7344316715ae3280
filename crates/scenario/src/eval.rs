//! Detector evaluation over SNR sweeps: Monte-Carlo Pd/Pfa estimation and
//! ROC tables, executed by a parallel batched sweep engine over the open
//! [`SensingBackend`] surface.
//!
//! The harness runs any roster of [`BackendRecipe`]s — the built-in
//! [`EnergyDetector`](cfd_dsp::detector::EnergyDetector) baseline, the
//! golden-model
//! [`CyclostationaryDetector`](cfd_dsp::detector::CyclostationaryDetector),
//! the full tiled-SoC sensing path (a
//! [`SessionRecipe`](cfd_core::backend::SessionRecipe) building a
//! [`SpectrumSensor`](cfd_core::sensing::SpectrumSensor) per lane), or any
//! user-defined backend — over a [`RadioScenario`] at each SNR of a sweep,
//! and tabulates the detection probability `Pd` (decide "occupied" under
//! H1) and false-alarm probability `Pfa` (decide "occupied" under H0) per
//! backend and SNR. Sweeps are described and launched by [`SweepBuilder`].
//!
//! ## Execution model
//!
//! Backends are stateful (the SoC path owns a whole simulated platform),
//! so the sweep is described by recipes rather than backend instances. The
//! `(snr_point, trial-chunk)` cells of a sweep are the tasks of one
//! [`lanes::fan_out`]: each lane of the process-wide lane budget builds
//! its own replica of each backend on its first cell and keeps it for the
//! rest of the sweep.
//!
//! Determinism is preserved under any scheduling: observations are seeded
//! by trial index (common random numbers), decisions are independent
//! booleans, and every cell writes its detection counts into its own slot,
//! merged in cell order — so the table is bit-identical for every lane
//! count, one lane (cells in order on the caller) included. When cells
//! fail, a replica-build error wins, then the lowest-ordered failing
//! cell's error: a cell is skipped only when a lower one already failed.
//!
//! ## Shared block spectra
//!
//! The dominant cost of a CFD trial is the windowed FFT + DSCF pipeline,
//! and the block spectra (eq. 2) depend only on the observation and the
//! [`ScfParams`] — not on a backend's threshold or guard zone. Each lane
//! therefore owns one reusable [`Observation`] and lets every backend
//! decide through it: the spectra **and** the integrated DSCF are computed
//! **once per trial** per distinct `ScfParams` and cached inside the
//! observation, where every golden-model CFD replica — and every analytic
//! full-precision SoC replica, which decides from the shared DSCF and
//! books its closed-form cost — reuses them. The energy detector's
//! statistic is time-domain power (it never ran an FFT), and a `Lockstep`
//! or Q15 SoC replica computes its own on-tile spectra by design — those
//! read the raw samples. The global `core.observation.spectra_computations` counter in
//! [`cfd_telemetry::registry`] lets tests pin the once-per-trial contract.

use crate::channel::mix_seed;
use crate::error::ScenarioError;
use crate::scenario::{Hypothesis, RadioScenario};
use cfd_core::backend::{BackendRecipe, Observation, SensingBackend};
use cfd_dsp::detector::feature_statistic_from_profile;
use cfd_dsp::lanes;
use cfd_dsp::scf::{ScfEngine, ScfParams};
use cfd_dsp::signal::awgn;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Cached handles to the sweep-engine instruments: whole-run and per-cell
/// stage histograms and throughput counters.
struct SweepInstruments {
    run_ns: cfd_telemetry::Histogram,
    cell_ns: cfd_telemetry::Histogram,
    cells: cfd_telemetry::Counter,
    trials: cfd_telemetry::Counter,
}

fn sweep_instruments() -> &'static SweepInstruments {
    static INSTRUMENTS: OnceLock<SweepInstruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| SweepInstruments {
        run_ns: cfd_telemetry::histogram("scenario.sweep.run_ns"),
        cell_ns: cfd_telemetry::histogram("scenario.sweep.cell_ns"),
        cells: cfd_telemetry::counter("scenario.sweep.cells"),
        trials: cfd_telemetry::counter("scenario.sweep.trials"),
    })
}

/// The SNR sweep a scenario is evaluated over.
#[derive(Debug, Clone, PartialEq)]
pub struct SnrSweep {
    /// The SNR points in dB.
    pub snr_points_db: Vec<f64>,
    /// Monte-Carlo trials per SNR point and hypothesis.
    pub trials: usize,
}

impl SnrSweep {
    /// Creates a sweep.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidParameter`] for an empty point list
    /// or zero trials.
    pub fn new(snr_points_db: Vec<f64>, trials: usize) -> Result<Self, ScenarioError> {
        if snr_points_db.is_empty() {
            return Err(ScenarioError::InvalidParameter {
                name: "snr_points_db",
                message: "sweep needs at least one SNR point".into(),
            });
        }
        if trials == 0 {
            return Err(ScenarioError::InvalidParameter {
                name: "trials",
                message: "sweep needs at least one trial".into(),
            });
        }
        Ok(SnrSweep {
            snr_points_db,
            trials,
        })
    }

    /// An evenly spaced sweep from `from_db` to `to_db` (inclusive).
    ///
    /// # Errors
    ///
    /// Propagates [`SnrSweep::new`] validation.
    pub fn linspace(
        from_db: f64,
        to_db: f64,
        points: usize,
        trials: usize,
    ) -> Result<Self, ScenarioError> {
        if points < 2 {
            return Err(ScenarioError::InvalidParameter {
                name: "points",
                message: "linspace needs at least 2 points".into(),
            });
        }
        let step = (to_db - from_db) / (points - 1) as f64;
        SnrSweep::new(
            (0..points).map(|i| from_db + step * i as f64).collect(),
            trials,
        )
    }
}

/// One `(SNR, detector)` operating point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RocRow {
    /// SNR of the H1 trials in dB.
    pub snr_db: f64,
    /// Backend label ([`BackendRecipe::label`], disambiguated with
    /// `#index` when duplicated).
    pub detector: String,
    /// Estimated probability of detection.
    pub pd: f64,
    /// Estimated probability of false alarm.
    pub pfa: f64,
    /// Trials per hypothesis behind the estimates.
    pub trials: usize,
}

impl RocRow {
    /// Balanced accuracy `(Pd + (1 - Pfa)) / 2`: 1.0 is a perfect
    /// detector, 0.5 is a coin flip — and, importantly, a detector whose
    /// false alarms explode scores 0.5 *even if its Pd is 1*, which is
    /// exactly how an uncalibrated energy detector fails.
    pub fn balanced_accuracy(&self) -> f64 {
        (self.pd + 1.0 - self.pfa) / 2.0
    }
}

/// The Pd/Pfa table produced by [`SweepBuilder::run`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RocTable {
    /// One row per `(SNR point, detector)`.
    pub rows: Vec<RocRow>,
}

impl RocTable {
    /// The distinct detector labels, in first-appearance order.
    pub fn detectors(&self) -> Vec<String> {
        let mut labels: Vec<String> = Vec::new();
        for row in &self.rows {
            if !labels.contains(&row.detector) {
                labels.push(row.detector.clone());
            }
        }
        labels
    }

    /// `(snr_db, pd)` pairs of one detector, sorted by SNR.
    pub fn pd_series(&self, detector: &str) -> Vec<(f64, f64)> {
        let mut series: Vec<(f64, f64)> = self
            .rows
            .iter()
            .filter(|r| r.detector == detector)
            .map(|r| (r.snr_db, r.pd))
            .collect();
        series.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite SNR"));
        series
    }

    /// The row of one detector at one SNR point, if present.
    ///
    /// `snr_db` is matched by exact `f64` equality: pass a value taken
    /// from the sweep's `snr_points_db` (or a row), not one recomputed
    /// with different floating-point arithmetic.
    pub fn row(&self, detector: &str, snr_db: f64) -> Option<&RocRow> {
        self.rows
            .iter()
            .find(|r| r.detector == detector && r.snr_db == snr_db)
    }

    /// Renders an aligned text table, grouped by SNR.
    pub fn render(&self) -> String {
        let mut out = String::from("snr [dB]  detector     Pd     Pfa   balanced accuracy\n");
        let mut snrs: Vec<f64> = Vec::new();
        for row in &self.rows {
            if !snrs.contains(&row.snr_db) {
                snrs.push(row.snr_db);
            }
        }
        snrs.sort_by(|a, b| a.partial_cmp(b).expect("finite SNR"));
        for &snr in &snrs {
            for row in self.rows.iter().filter(|r| r.snr_db == snr) {
                out.push_str(&format!(
                    "{snr:>8.1}  {:<9} {:>5.2}  {:>6.2}  {:>8.2}\n",
                    row.detector,
                    row.pd,
                    row.pfa,
                    row.balanced_accuracy()
                ));
            }
        }
        out
    }

    /// Renders the table as a JSON document
    /// (`{"schema":2,"rows":[{"snr_db":…,"detector":…,"pd":…,"pfa":…,"trials":…},…]}`),
    /// for machine-readable sweep results (e.g. `BENCH_*.json` trajectory
    /// tracking). The `schema` field versions the document so trajectory
    /// tooling can detect format changes — schema 2 marks the gated era
    /// (documents CI's `bench_gate` compares against the previous run's
    /// artifact); detector labels — which are arbitrary strings now that
    /// third-party backends name themselves — are escaped per RFC 8259
    /// (quotes, backslashes, control characters) via
    /// [`cfd_telemetry::json`].
    pub fn to_json(&self) -> String {
        use cfd_telemetry::json::{escape, number};
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                format!(
                    "{{\"snr_db\":{},\"detector\":\"{}\",\"pd\":{},\"pfa\":{},\"trials\":{}}}",
                    number(row.snr_db),
                    escape(&row.detector),
                    number(row.pd),
                    number(row.pfa),
                    row.trials
                )
            })
            .collect();
        format!(
            "{{\"schema\":{ROC_JSON_SCHEMA},\"rows\":[{}]}}",
            rows.join(",")
        )
    }
}

/// Schema version of [`RocTable::to_json`] documents. Version 2 marks the
/// gated era: `BENCH_sweeps.json` artifacts are compared against the
/// previous CI run by `bench_gate`, and the gate skips (passes with a note)
/// when the schema of the previous document differs.
pub const ROC_JSON_SCHEMA: u64 = 2;

/// Builds and runs an SNR sweep over any roster of [`SensingBackend`]s.
///
/// The scenario, the sweep and the backend roster are named, and the
/// roster is *open* — any type implementing [`BackendRecipe`] joins the
/// engine, so a detector defined
/// outside this workspace participates in ROC sweeps without touching any
/// crate here. Calibrated `Clone + Sync` backends (e.g.
/// [`EnergyDetector`](cfd_dsp::detector::EnergyDetector),
/// [`CyclostationaryDetector`](cfd_dsp::detector::CyclostationaryDetector))
/// are their own recipes and can be passed directly; the tiled-SoC path is
/// described by a [`SessionRecipe`](cfd_core::backend::SessionRecipe).
///
/// # Examples
///
/// ```
/// use cfd_dsp::detector::{CyclostationaryDetector, EnergyDetector};
/// use cfd_dsp::scf::ScfParams;
/// use cfd_scenario::prelude::*;
///
/// # fn main() -> Result<(), ScenarioError> {
/// let params = ScfParams::new(32, 7, 16)?;
/// let scenario =
///     RadioScenario::preset("bpsk-awgn", params.samples_needed()).expect("built-in preset");
/// let table = SweepBuilder::new(&scenario)
///     .sweep(SnrSweep::new(vec![-5.0, 5.0], 4)?)
///     .backend(EnergyDetector::new(1.0, 0.1, params.samples_needed())?)
///     .backend(CyclostationaryDetector::new(params, 0.35, 1)?)
///     .run()?;
/// assert_eq!(table.detectors(), vec!["energy".to_string(), "cfd".into()]);
/// # Ok(())
/// # }
/// ```
pub struct SweepBuilder<'a> {
    scenario: &'a RadioScenario,
    sweep: Option<SnrSweep>,
    recipes: Vec<Box<dyn BackendRecipe + 'a>>,
}

impl fmt::Debug for SweepBuilder<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepBuilder")
            .field("scenario", &self.scenario.name)
            .field("sweep", &self.sweep)
            .field(
                "backends",
                &self.recipes.iter().map(|r| r.label()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl<'a> SweepBuilder<'a> {
    /// Starts a sweep description over `scenario`.
    pub fn new(scenario: &'a RadioScenario) -> Self {
        SweepBuilder {
            scenario,
            sweep: None,
            recipes: Vec::new(),
        }
    }

    /// The SNR points and trial count to evaluate (required).
    pub fn sweep(mut self, sweep: SnrSweep) -> Self {
        self.sweep = Some(sweep);
        self
    }

    /// Adds one backend to the roster (at least one is required). Every
    /// lane builds its own replica from the recipe; row order in the
    /// resulting [`RocTable`] follows insertion order.
    pub fn backend(mut self, recipe: impl BackendRecipe + 'a) -> Self {
        self.recipes.push(Box::new(recipe));
        self
    }

    /// Runs the sweep: every backend over every SNR point, `trials`
    /// H1 observations per point (common random numbers across points)
    /// plus one shared H0 pass (vacant observations do not depend on the
    /// SNR target — [`RadioScenario::at_snr`] only rescales the
    /// licensed-user signal — so each backend's false-alarm count is
    /// measured once and shared by every SNR row).
    ///
    /// The cells run on every idle lane of the process-wide budget, or in
    /// order on the calling thread when it is itself a lane or a worker of
    /// another pool ([`lanes::enter_pool_worker`]); the table is the same.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidParameter`] when no sweep or no
    /// backends were given; propagates observation, replica-construction
    /// and decision errors. When several fail, a replica-construction error
    /// wins, then the error of the lowest-ordered failing cell (the shared
    /// H0 pass first, then the SNR points in order, trials ascending).
    pub fn run(&self) -> Result<RocTable, ScenarioError> {
        let sweep = self.sweep.as_ref().ok_or(ScenarioError::InvalidParameter {
            name: "sweep",
            message: "SweepBuilder needs an SnrSweep (SweepBuilder::sweep)".into(),
        })?;
        if self.recipes.is_empty() {
            return Err(ScenarioError::InvalidParameter {
                name: "backends",
                message: "SweepBuilder needs at least one backend (SweepBuilder::backend)".into(),
            });
        }
        let instruments = sweep_instruments();
        let _run_span = instruments.run_ns.start_timer();
        let points = sweep.snr_points_db.len();
        // Several cells per lane, so lanes that draw slower cells still finish
        // together, while each cell streams a batch through its replicas.
        let chunk = sweep.trials.div_ceil(lanes::host_cores() * 4).max(1);
        let mut cells = Vec::new();
        for point in std::iter::once(None).chain((0..points).map(Some)) {
            for first in (0..sweep.trials).step_by(chunk) {
                let trials = first..sweep.trials.min(first + chunk);
                cells.push(SweepCell { point, trials });
            }
        }
        let scenarios_at: Vec<RadioScenario> = sweep
            .snr_points_db
            .iter()
            .map(|&snr| self.scenario.at_snr(snr))
            .collect();
        // Each cell writes its positives, or its error, into its own slot;
        // the slots are merged in cell order, so the lane count never shows.
        type Slot<T> = Mutex<Option<Result<T, ScenarioError>>>;
        let lane_replicas: Vec<Slot<LaneReplicas>> =
            (0..lanes::host_cores()).map(|_| Mutex::new(None)).collect();
        let slots: Vec<Slot<Vec<usize>>> = cells.iter().map(|_| Mutex::new(None)).collect();
        // The order of the lowest failure so far: 0 for a replica build,
        // `index + 1` for cell `index`. Only cells ordered after it are
        // skipped, so the lowest failing cell always runs. `Relaxed`: it
        // publishes nothing, the slots carry the outcomes.
        let lowest_failure = AtomicUsize::new(usize::MAX);
        lanes::fan_out(cells.len(), |lane, index| {
            if lowest_failure.load(Ordering::Relaxed) <= index {
                return;
            }
            let mut own = lane_replicas[lane]
                .lock()
                .expect("a lane that panicked runs no further cell");
            let Ok(replicas) = own.get_or_insert_with(|| LaneReplicas::build(&self.recipes)) else {
                lowest_failure.fetch_min(0, Ordering::Relaxed);
                return;
            };
            let cell = &cells[index];
            let (source, hypothesis) = match cell.point {
                None => (self.scenario, Hypothesis::Vacant),
                Some(p) => (&scenarios_at[p], Hypothesis::Occupied),
            };
            let cell_span = instruments.cell_ns.start_timer();
            let outcome = replicas.positives(source, hypothesis, cell.trials.clone());
            drop(cell_span);
            if outcome.is_err() {
                lowest_failure.fetch_min(index + 1, Ordering::Relaxed);
            }
            instruments.cells.increment();
            instruments.trials.add(cell.trials.len() as u64);
            *slots[index].lock().expect("locked by its cell only") = Some(outcome);
        });
        for lane in lane_replicas {
            if let Some(Err(error)) = lane.into_inner().expect("a lane's panic resumed above") {
                return Err(error);
            }
        }
        let mut false_alarms = vec![0usize; self.recipes.len()];
        let mut detections = vec![vec![0usize; self.recipes.len()]; points];
        // Every cell below the lowest failure ran, so the first error met in
        // cell order is the lowest failing cell's; later cells may be empty.
        for (cell, slot) in cells.iter().zip(slots) {
            let Some(outcome) = slot.into_inner().expect("a cell's panic resumed above") else {
                continue;
            };
            let counts = cell.point.map_or(&mut false_alarms, |p| &mut detections[p]);
            for (count, positive) in counts.iter_mut().zip(outcome?) {
                *count += positive;
            }
        }
        let labels = recipe_labels(&self.recipes);
        let rate = |count: usize| count as f64 / sweep.trials as f64;
        let mut rows = Vec::with_capacity(points * labels.len());
        for (&snr_db, detected) in sweep.snr_points_db.iter().zip(&detections) {
            for (index, label) in labels.iter().enumerate() {
                rows.push(RocRow {
                    snr_db,
                    detector: label.clone(),
                    pd: rate(detected[index]),
                    pfa: rate(false_alarms[index]),
                    trials: sweep.trials,
                });
            }
        }
        Ok(RocTable { rows })
    }
}

/// One unit of sweep work: a chunk of consecutive trials under one
/// hypothesis. `point: None` is the shared H0 (vacant-band) pass,
/// `point: Some(i)` the H1 pass at `sweep.snr_points_db[i]`.
struct SweepCell {
    point: Option<usize>,
    trials: Range<usize>,
}

/// A lane's replica of each backend, in roster order, and its reusable
/// [`Observation`]: built on the lane's first cell and kept for the sweep.
struct LaneReplicas {
    replicas: Vec<Box<dyn SensingBackend + Send>>,
    observation: Observation,
}

impl LaneReplicas {
    fn build(recipes: &[Box<dyn BackendRecipe + '_>]) -> Result<Self, ScenarioError> {
        let replicas = recipes
            .iter()
            .map(|recipe| recipe.build().map_err(ScenarioError::from))
            .collect::<Result<_, _>>()?;
        Ok(LaneReplicas {
            replicas,
            observation: Observation::new(),
        })
    }

    /// The positive decisions per backend over `trials` of `source`: each
    /// observation is loaded into the lane's [`Observation`] and every
    /// backend decides through it — so the block spectra (and the DSCF)
    /// are computed once per observation, not once per replica, into
    /// buffers reused across the whole sweep.
    fn positives(
        &mut self,
        source: &RadioScenario,
        hypothesis: Hypothesis,
        trials: Range<usize>,
    ) -> Result<Vec<usize>, ScenarioError> {
        let mut positives = vec![0usize; self.replicas.len()];
        for trial in trials {
            let trial_observation = source.observe(hypothesis, trial)?;
            self.observation.set_samples(trial_observation.samples);
            for (count, backend) in positives.iter_mut().zip(&mut self.replicas) {
                if backend.decide(&mut self.observation)?.is_signal() {
                    *count += 1;
                }
            }
        }
        Ok(positives)
    }
}

/// Row labels for a backend roster: the plain [`BackendRecipe::label`]
/// when unique, `label#index` when several backends of the same kind run
/// in one sweep — otherwise [`RocTable::row`] and [`RocTable::pd_series`]
/// would silently merge their rows.
fn recipe_labels(recipes: &[Box<dyn BackendRecipe + '_>]) -> Vec<String> {
    let mut counts: HashMap<String, usize> = HashMap::new();
    for recipe in recipes {
        *counts.entry(recipe.label()).or_insert(0) += 1;
    }
    recipes
        .iter()
        .enumerate()
        .map(|(index, recipe)| {
            let base = recipe.label();
            if counts[&base] > 1 {
                format!("{base}#{index}")
            } else {
                base
            }
        })
        .collect()
}

/// Calibrates a threshold for the cyclostationary feature statistic at a
/// target false-alarm rate, by Monte-Carlo under nominal (unit-power)
/// noise.
///
/// Because the CFD statistic is scale invariant, a threshold calibrated at
/// the nominal noise floor stays valid when the actual floor differs —
/// the property that breaks the energy detector's analytic threshold.
///
/// # Errors
///
/// Propagates DSCF errors; rejects a target Pfa outside `(0, 1)`, zero
/// trials, or a target below the Monte-Carlo resolution `1/trials` (which
/// could only be "met" by silently over-shooting the false-alarm budget).
pub fn calibrate_cfd_threshold(
    params: &ScfParams,
    guard_offsets: usize,
    target_pfa: f64,
    trials: usize,
    seed: u64,
) -> Result<f64, ScenarioError> {
    if !(target_pfa > 0.0 && target_pfa < 1.0) {
        return Err(ScenarioError::InvalidParameter {
            name: "target_pfa",
            message: format!("must be in (0, 1), got {target_pfa}"),
        });
    }
    if trials > 0 && target_pfa < 1.0 / trials as f64 {
        return Err(ScenarioError::InvalidParameter {
            name: "target_pfa",
            message: format!(
                "{target_pfa} is below the Monte-Carlo resolution 1/{trials}; \
                 increase `trials` to calibrate this false-alarm rate"
            ),
        });
    }
    if trials == 0 {
        return Err(ScenarioError::InvalidParameter {
            name: "trials",
            message: "calibration needs at least one trial".into(),
        });
    }
    // The engine's profile is bit-identical to a scan of `dscf_reference`,
    // so thresholds calibrated here are exactly the thresholds the golden
    // model implies; the spectra and profile allocations are reused across
    // all trials.
    let engine = ScfEngine::new(params.clone())?;
    let mut spectra = Vec::new();
    let mut profile = Vec::new();
    let mut statistics = Vec::with_capacity(trials);
    for trial in 0..trials {
        let noise = awgn(
            params.samples_needed(),
            1.0,
            mix_seed(seed, 0xCA11_B8A7 ^ trial as u64),
        );
        engine.compute_spectra_into(&noise, &mut spectra)?;
        engine.cyclic_profile_from_spectra_into(&spectra, &mut profile);
        statistics.push(feature_statistic_from_profile(&profile, guard_offsets));
    }
    statistics.sort_by(|a, b| a.partial_cmp(b).expect("finite statistic"));
    // The (1 - Pfa) empirical quantile of the H0 statistic: pick the order
    // statistic that leaves `round(Pfa * trials)` values strictly above it
    // (detectors decide on `statistic > threshold`). The `- 1` cannot
    // underflow: `(1 - Pfa) * trials` is strictly positive (Pfa < 1,
    // trials >= 1), so its ceil is >= 1.
    let index = ((((1.0 - target_pfa) * trials as f64).ceil() as usize) - 1).min(trials - 1);
    Ok(statistics[index])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_core::app::{CfdApplication, Platform};
    use cfd_core::backend::{Decision, SessionRecipe};
    use cfd_core::error::CfdError;
    use cfd_dsp::detector::{CyclostationaryDetector, EnergyDetector};

    fn small_scenario() -> RadioScenario {
        RadioScenario::preset(
            "bpsk-awgn",
            ScfParams::new(32, 7, 32).unwrap().samples_needed(),
        )
        .unwrap()
        .with_seed(5)
    }

    fn cfd(threshold: f64) -> CyclostationaryDetector {
        CyclostationaryDetector::new(ScfParams::new(32, 7, 32).unwrap(), threshold, 1).unwrap()
    }

    /// Runs `f` on a fresh thread marked as a worker of another pool, where
    /// a sweep's fan-out runs its cells in order on one lane.
    fn on_one_lane<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        let one_lane = || {
            lanes::enter_pool_worker();
            f()
        };
        std::thread::scope(|scope| scope.spawn(one_lane).join().unwrap())
    }

    fn soc_recipe(threshold: f64) -> SessionRecipe {
        SessionRecipe::new(
            CfdApplication::new(32, 7, 32).unwrap(),
            &Platform::paper(),
            threshold,
            1,
        )
    }

    #[test]
    fn sweep_validation() {
        assert!(SnrSweep::new(vec![], 10).is_err());
        assert!(SnrSweep::new(vec![0.0], 0).is_err());
        assert!(SnrSweep::linspace(0.0, 10.0, 1, 5).is_err());
        let sweep = SnrSweep::linspace(-6.0, 6.0, 5, 3).unwrap();
        assert_eq!(sweep.snr_points_db.len(), 5);
        assert!((sweep.snr_points_db[1] + 3.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_builder_validates_its_inputs() {
        let scenario = small_scenario();
        let len = scenario.observation_len;
        // No sweep.
        assert!(SweepBuilder::new(&scenario)
            .backend(EnergyDetector::new(1.0, 0.1, len).unwrap())
            .run()
            .is_err());
        // No backends.
        assert!(SweepBuilder::new(&scenario)
            .sweep(SnrSweep::new(vec![0.0], 2).unwrap())
            .run()
            .is_err());
    }

    #[test]
    fn energy_detector_pd_rises_with_snr() {
        let scenario = small_scenario();
        let len = scenario.observation_len;
        let table = SweepBuilder::new(&scenario)
            .sweep(SnrSweep::new(vec![-15.0, 0.0, 10.0], 20).unwrap())
            .backend(EnergyDetector::new(1.0, 0.05, len).unwrap())
            .run()
            .unwrap();
        let series = table.pd_series("energy");
        assert_eq!(series.len(), 3);
        assert!(series[0].1 <= series[1].1 && series[1].1 <= series[2].1);
        assert!(series[2].1 > 0.95, "Pd at 10 dB = {}", series[2].1);
        let row = table.row("energy", -15.0).unwrap();
        assert!(row.pfa < 0.3, "Pfa = {}", row.pfa);
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let scenario = small_scenario();
        let sweep = SnrSweep::new(vec![-10.0, 0.0, 10.0], 9).unwrap();
        let energy = EnergyDetector::new(1.0, 0.1, scenario.observation_len).unwrap();
        let run = || {
            SweepBuilder::new(&scenario)
                .sweep(sweep.clone())
                .backend(energy.clone())
                .backend(cfd(0.35))
                .run()
                .unwrap()
        };
        let every_lane = run();
        assert_eq!(on_one_lane(run), every_lane);
        // The independent reference: one backend pair deciding trial after
        // trial on fresh observations.
        let mut backends: [Box<dyn SensingBackend>; 2] = [Box::new(energy), Box::new(cfd(0.35))];
        let mut positives = |source: &RadioScenario, hypothesis| {
            let mut counts = [0usize; 2];
            for trial in 0..sweep.trials {
                let samples = source.observe(hypothesis, trial).unwrap().samples;
                let mut observation = Observation::from_samples(samples);
                for (count, backend) in counts.iter_mut().zip(&mut backends) {
                    *count += usize::from(backend.decide(&mut observation).unwrap().is_signal());
                }
            }
            counts.map(|count| count as f64 / sweep.trials as f64)
        };
        let pfa = positives(&scenario, Hypothesis::Vacant);
        for &snr in &sweep.snr_points_db {
            let pd = positives(&scenario.at_snr(snr), Hypothesis::Occupied);
            for (index, label) in ["energy", "cfd"].into_iter().enumerate() {
                let (row, want) = (every_lane.row(label, snr).unwrap(), [pd[index], pfa[index]]);
                assert_eq!([row.pd, row.pfa], want, "{label} at {snr} dB");
            }
        }
    }

    #[test]
    fn observations_share_spectra_across_backends_per_params() {
        let scenario = small_scenario();
        let trial_observation = scenario.observe(Hypothesis::Occupied, 0).unwrap();
        let mut observation = Observation::new();
        observation.load(&trial_observation.samples);
        assert_eq!(observation.computed(), 0);
        assert_eq!(observation.samples().len(), trial_observation.samples.len());

        // Two CFD backends with the same params but different thresholds
        // share one spectra set; a third with different params adds one.
        let mut same_a = cfd(0.2);
        let mut same_b = cfd(0.8);
        let mut other =
            CyclostationaryDetector::new(ScfParams::new(32, 7, 16).unwrap(), 0.35, 1).unwrap();
        SensingBackend::decide(&mut same_a, &mut observation).unwrap();
        assert_eq!(observation.computed(), 1);
        SensingBackend::decide(&mut same_b, &mut observation).unwrap();
        assert_eq!(observation.computed(), 1);
        SensingBackend::decide(&mut other, &mut observation).unwrap();
        assert_eq!(observation.computed(), 2);
        // Same-params requests return the cached spectra without a
        // recomputation.
        assert_eq!(observation.spectra_for(same_a.engine()).unwrap().len(), 32);
        assert_eq!(observation.computed(), 2);
        // The energy detector reads the samples, not the spectra.
        let mut energy = EnergyDetector::new(1.0, 0.05, trial_observation.samples.len()).unwrap();
        SensingBackend::decide(&mut energy, &mut observation).unwrap();
        assert_eq!(observation.computed(), 2);

        // A new observation keeps the buffers but invalidates the caches.
        let next = scenario.observe(Hypothesis::Vacant, 1).unwrap();
        observation.set_samples(next.samples);
        assert_eq!(observation.computed(), 0);
        SensingBackend::decide(&mut same_a, &mut observation).unwrap();
        assert_eq!(observation.computed(), 1);
    }

    #[test]
    fn session_backend_reports_platform_metrics() {
        let scenario = small_scenario();
        let trial_observation = scenario.observe(Hypothesis::Occupied, 0).unwrap();
        let mut observation = Observation::new();
        observation.load(&trial_observation.samples);
        let mut session = soc_recipe(0.35).build().unwrap();
        let decision = session.decide(&mut observation).unwrap();
        let metrics = decision.metrics.expect("platform path carries metrics");
        assert!(metrics.time_per_block_us > 0.0);
        // Software backends carry none.
        let mut golden = cfd(0.35);
        let decision = SensingBackend::decide(&mut golden, &mut observation).unwrap();
        assert!(decision.metrics.is_none());
    }

    #[test]
    fn calibrated_cfd_threshold_controls_false_alarms() {
        let params = ScfParams::new(32, 7, 32).unwrap();
        let threshold = calibrate_cfd_threshold(&params, 1, 0.1, 40, 3).unwrap();
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "threshold = {threshold}"
        );
        let scenario = small_scenario();
        let table = SweepBuilder::new(&scenario)
            .sweep(SnrSweep::new(vec![10.0], 20).unwrap())
            .backend(cfd(threshold))
            .run()
            .unwrap();
        let row = table.row("cfd", 10.0).unwrap();
        assert!(row.pfa <= 0.3, "Pfa = {}", row.pfa);
        // The normalised feature statistic saturates with SNR, so a short
        // 32-block DSCF does not reach Pd = 1 even at 10 dB; the point of
        // this test is the Pfa control above.
        assert!(row.pd > 0.5, "Pd = {}", row.pd);
    }

    #[test]
    fn calibration_rejects_bad_parameters() {
        let params = ScfParams::new(32, 7, 8).unwrap();
        assert!(calibrate_cfd_threshold(&params, 1, 0.0, 10, 0).is_err());
        assert!(calibrate_cfd_threshold(&params, 1, 1.0, 10, 0).is_err());
        assert!(calibrate_cfd_threshold(&params, 1, 0.1, 0, 0).is_err());
        // Below the Monte-Carlo resolution 1/trials.
        assert!(calibrate_cfd_threshold(&params, 1, 0.01, 10, 0).is_err());
    }

    #[test]
    fn duplicate_backend_kinds_get_distinct_labels() {
        let len = 512;
        let scenario = RadioScenario::preset("bpsk-awgn", len).unwrap();
        let table = SweepBuilder::new(&scenario)
            .sweep(SnrSweep::new(vec![0.0], 3).unwrap())
            .backend(EnergyDetector::new(1.0, 0.05, len).unwrap())
            .backend(EnergyDetector::with_threshold(1.0, 2.0).unwrap())
            .run()
            .unwrap();
        assert_eq!(
            table.detectors(),
            vec!["energy#0".to_string(), "energy#1".into()]
        );
        assert!(table.row("energy#0", 0.0).is_some());
        assert!(table.row("energy", 0.0).is_none());
    }

    #[test]
    fn roc_table_accessors_and_render() {
        let table = RocTable {
            rows: vec![
                RocRow {
                    snr_db: 0.0,
                    detector: "energy".into(),
                    pd: 0.9,
                    pfa: 0.8,
                    trials: 10,
                },
                RocRow {
                    snr_db: -5.0,
                    detector: "cfd".into(),
                    pd: 0.6,
                    pfa: 0.1,
                    trials: 10,
                },
            ],
        };
        assert_eq!(table.detectors(), vec!["energy".to_string(), "cfd".into()]);
        assert_eq!(table.pd_series("cfd"), vec![(-5.0, 0.6)]);
        assert!(table.row("energy", 0.0).is_some());
        assert!(table.row("energy", 1.0).is_none());
        // Balanced accuracy punishes the false-alarming detector.
        assert!((table.rows[0].balanced_accuracy() - 0.55).abs() < 1e-12);
        assert!((table.rows[1].balanced_accuracy() - 0.75).abs() < 1e-12);
        let rendered = table.render();
        assert!(rendered.contains("energy"));
        assert!(rendered.contains("-5.0"));
    }

    #[test]
    fn roc_table_to_json_is_machine_readable_and_versioned() {
        let table = RocTable {
            rows: vec![RocRow {
                snr_db: -5.0,
                detector: "cfd\"#1\n\\x".into(),
                pd: 0.6,
                pfa: 0.125,
                trials: 8,
            }],
        };
        let json = table.to_json();
        assert_eq!(
            json,
            "{\"schema\":2,\"rows\":[{\"snr_db\":-5,\"detector\":\"cfd\\\"#1\\u000a\\\\x\",\
             \"pd\":0.6,\"pfa\":0.125,\"trials\":8}]}"
        );
        assert_eq!(RocTable::default().to_json(), "{\"schema\":2,\"rows\":[]}");
    }

    #[test]
    fn tiled_soc_backend_agrees_with_golden_model() {
        let scenario = small_scenario();
        let sweep = SnrSweep::new(vec![5.0], 5).unwrap();
        let soc_table = SweepBuilder::new(&scenario)
            .sweep(sweep.clone())
            .backend(soc_recipe(0.35))
            .run()
            .unwrap();
        let golden_table = SweepBuilder::new(&scenario)
            .sweep(sweep)
            .backend(cfd(0.35))
            .run()
            .unwrap();
        // The platform computes the same DSCF, so decisions must agree.
        assert_eq!(soc_table.rows[0].pd, golden_table.rows[0].pd);
        assert_eq!(soc_table.rows[0].pfa, golden_table.rows[0].pfa);
    }

    /// A sweep-local custom backend: decides from the observation's cached
    /// DSCF like the built-in CFD, but on the *mean* cyclic-profile value
    /// outside the ridge instead of the maximum.
    #[derive(Debug, Clone)]
    struct MeanFeature {
        engine: ScfEngine,
        threshold: f64,
    }

    impl SensingBackend for MeanFeature {
        fn label(&self) -> String {
            "mean-feature".into()
        }

        fn decide(
            &mut self,
            observation: &mut Observation,
        ) -> Result<Decision, cfd_core::error::CfdError> {
            let scf = observation.scf_for(&self.engine)?;
            let profile = scf.cyclic_profile();
            let ridge = profile[scf.max_offset()].max(f64::MIN_POSITIVE);
            let sum: f64 = profile.iter().sum::<f64>() - profile[scf.max_offset()];
            let statistic = sum / (profile.len() - 1) as f64 / ridge;
            Ok(Decision::new(statistic, self.threshold))
        }
    }

    #[test]
    fn custom_backends_participate_in_sweeps() {
        let scenario = small_scenario();
        let params = ScfParams::new(32, 7, 32).unwrap();
        let custom = MeanFeature {
            engine: ScfEngine::new(params).unwrap(),
            threshold: 0.2,
        };
        let table = SweepBuilder::new(&scenario)
            .sweep(SnrSweep::new(vec![0.0], 4).unwrap())
            .backend(cfd(0.35))
            .backend(custom)
            .run()
            .unwrap();
        assert_eq!(
            table.detectors(),
            vec!["cfd".to_string(), "mean-feature".into()]
        );
        assert!(table.row("mean-feature", 0.0).is_some());
    }

    /// A third-party backend that fails on the trials whose first sample it
    /// holds, naming the trial, and reads "vacant" on every other one.
    #[derive(Debug, Clone)]
    struct FailsOnTrials(Vec<(usize, cfd_dsp::Cplx)>);

    impl SensingBackend for FailsOnTrials {
        fn label(&self) -> String {
            "fails-on-trials".into()
        }

        fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
            let first = observation.samples()[0];
            match self.0.iter().find(|(_, sample)| *sample == first) {
                Some((trial, _)) => Err(CfdError::InvalidParameter {
                    name: "trial",
                    message: format!("trial {trial} fails"),
                }),
                None => Ok(Decision::new(0.0, 1.0)),
            }
        }
    }

    #[test]
    fn sweep_errors_are_deterministic() {
        let scenario = small_scenario();
        let first_sample = |trial| scenario.observe(Hypothesis::Vacant, trial).unwrap().samples[0];
        // Eight trials make cells of at most two trials on any host, so
        // the H0 trials 3 and 4 always fall into different cells.
        let failing = FailsOnTrials(vec![(4, first_sample(4)), (3, first_sample(3))]);
        let sweep =
            || SweepBuilder::new(&scenario).sweep(SnrSweep::new(vec![0.0, 5.0], 8).unwrap());
        // The analytic platform refuses a Q15 datapath when a replica opens.
        let mut q15 = Platform::paper();
        q15.tile = q15.tile.with_q15();
        let unbuildable =
            SessionRecipe::new(CfdApplication::new(32, 7, 32).unwrap(), &q15, 0.35, 1);
        for repeat in 0..20 {
            let error = sweep().backend(failing.clone()).run().unwrap_err();
            assert!(
                error.to_string().contains("trial 3 fails"),
                "{repeat}: {error}"
            );
            // A replica-build error wins over every cell's.
            let roster = sweep()
                .backend(failing.clone())
                .backend(unbuildable.clone());
            let error = roster.run().unwrap_err().to_string();
            assert!(
                error.contains("full-precision datapath"),
                "{repeat}: {error}"
            );
        }
    }
}
