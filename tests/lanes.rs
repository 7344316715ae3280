//! The lane suite: the process-wide lane budget (`cfd_dsp::lanes`) that
//! the batch DSCF engine and the fusion center share.
//!
//! * **lanes never show in the bits** — both batch sinks (the matrix and
//!   the profile folded off the band accumulators) give the same bits on
//!   one lane and on every lane, just below the grid floor, at it, and at
//!   the wideband grids;
//! * **nested fan-outs stay on their lane** — a task that fans out again
//!   runs that fan-out serially, and nothing deadlocks;
//! * **panics wait for every lane** — a task's panic resumes on the caller
//!   only after every lane has finished, and the helper stays usable;
//! * **a sweep is one fan-out** — a scenario sweep at 511×511 adds at most
//!   one fan-out, its own: the DSCF folds nested in its cells stay on their
//!   lanes and run no helper task.
//!
//! The lane counters and helpers are process-global, so the tests in this
//! file run one at a time.

mod common;

use cfd_dsp::detector::CyclostationaryDetector;
use cfd_dsp::lanes::{self, host_cores};
use cfd_dsp::scf::{ScfEngine, ScfMatrix, ScfParams};
use cfd_dsp::signal::awgn;
use cfd_scenario::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

static LANES: Mutex<()> = Mutex::new(());

fn serialised() -> MutexGuard<'static, ()> {
    LANES.lock().unwrap_or_else(PoisonError::into_inner)
}

fn fan_outs() -> u64 {
    cfd_telemetry::counter("dsp.lanes.fan_outs").value()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn matrix_bits(matrix: &ScfMatrix) -> Vec<(u64, u64)> {
    matrix
        .as_slice()
        .iter()
        .map(|c| (c.re.to_bits(), c.im.to_bits()))
        .collect()
}

/// Both batch sinks over the same spectra.
fn both_sinks(engine: &ScfEngine, spectra: &[Vec<cfd_dsp::Cplx>]) -> (Vec<f64>, ScfMatrix) {
    let mut profile = Vec::new();
    engine.cyclic_profile_from_spectra_into(spectra, &mut profile);
    let mut matrix = ScfMatrix::zeros(0);
    engine.dscf_from_spectra_into(spectra, &mut matrix);
    (profile, matrix)
}

#[test]
fn one_lane_and_every_lane_give_the_same_bits() {
    let _serial = serialised();
    // 253×253 is just below the grid floor, 255×255 at it. Seven blocks
    // run every block chain of the band kernel (4, 2 and 1).
    for (fft_len, max_offset) in [(512, 126), (512, 127), (1024, 255), (2048, 511)] {
        let params = ScfParams::new(fft_len, max_offset, 7).unwrap();
        let engine = ScfEngine::new(params.clone()).unwrap();
        let spectra = engine
            .compute_spectra(&awgn(params.samples_needed(), 1.0, 17))
            .unwrap();
        let before = fan_outs();
        let (profile, matrix) = both_sinks(&engine, &spectra);
        let fanned = fan_outs() - before;
        // One lane: a worker of another pool folds on its own thread.
        let (solo_profile, solo_matrix) = common::on_one_lane(|| both_sinks(&engine, &spectra));
        let grid = params.grid_size();
        assert_eq!(bits(&profile), bits(&solo_profile), "{grid}x{grid} profile");
        assert_eq!(
            matrix_bits(&matrix),
            matrix_bits(&solo_matrix),
            "{grid}x{grid} matrix"
        );
        assert_eq!(bits(&profile), bits(&matrix.cyclic_profile()), "{grid}");
        // Both sinks fan out from the floor up, and only there.
        let expected = if grid >= 255 && host_cores() > 1 {
            2
        } else {
            0
        };
        assert_eq!(fanned, expected, "{grid}x{grid} fan-outs");
    }
}

#[test]
fn nested_fan_outs_run_serially_on_their_lane() {
    let _serial = serialised();
    let inner_tasks = AtomicUsize::new(0);
    let outer = lanes::fan_out(4, |_, _| {
        let thread = std::thread::current().id();
        let lanes = lanes::fan_out(3, |lane, _| {
            assert_eq!(lane, 0, "a nested fan-out runs on its own lane");
            assert_eq!(std::thread::current().id(), thread);
            inner_tasks.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(lanes, 1);
    });
    assert_eq!(inner_tasks.load(Ordering::Relaxed), 12);
    assert_eq!(outer, host_cores().min(4));
    // A worker of another pool fans out serially as well.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            lanes::enter_pool_worker();
            assert_eq!(lanes::fan_out(4, |lane, _| assert_eq!(lane, 0)), 1);
        });
    });
}

#[test]
fn a_panicking_task_resumes_after_every_lane_finished() {
    let _serial = serialised();
    if host_cores() < 2 {
        // One lane: the panic still reaches the caller.
        let result = std::panic::catch_unwind(|| lanes::fan_out(2, |_, _| panic!("boom")));
        assert!(result.is_err());
        return;
    }
    // The barrier holds both tasks until both lanes run one, so the
    // panicking lane and the finishing lane overlap.
    for panicking_lane in [0, 1] {
        let barrier = Barrier::new(2);
        let finished = AtomicBool::new(false);
        let result = std::panic::catch_unwind(|| {
            lanes::fan_out(2, |lane, _| {
                barrier.wait();
                if lane == panicking_lane {
                    panic!("lane {lane} fails");
                }
                // Busy work the panic must wait for.
                let mut x = 0u64;
                for i in 0..2_000_000u64 {
                    x = std::hint::black_box(x.wrapping_add(i));
                }
                finished.store(x > 0, Ordering::SeqCst);
            })
        });
        let payload = result.expect_err("the task's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some(format!("lane {panicking_lane} fails").as_str())
        );
        assert!(
            finished.load(Ordering::SeqCst),
            "the panic resumed before the other lane finished"
        );
        // The helper survived: the next two tasks again meet at the
        // barrier on two lanes (one lane would block forever).
        let barrier = Barrier::new(2);
        let lanes = lanes::fan_out(2, |_, _| {
            barrier.wait();
        });
        assert_eq!(lanes, 2);
    }
}

#[test]
fn a_dscf_fold_nested_in_a_sweep_cell_runs_no_helper_task() {
    let _serial = serialised();
    let params = ScfParams::new(1024, 255, 8).unwrap();
    let scenario = RadioScenario::preset("bpsk-awgn", params.samples_needed()).unwrap();
    let sweep = || {
        SweepBuilder::new(&scenario)
            .sweep(SnrSweep::new(vec![0.0], 4).unwrap())
            .backend(CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap())
            .run()
            .unwrap()
    };
    // Every fold of the 511×511 DSCF runs inside a sweep cell, so the only
    // fan-out that can obtain a helper (and run tasks on it) is the
    // sweep's own.
    let before = fan_outs();
    let table = sweep();
    assert!(fan_outs() - before <= 1, "{} fan-outs", fan_outs() - before);
    // On one lane the cells run in order on the caller, obtain no helper,
    // and give the same table.
    let before = fan_outs();
    assert_eq!(common::on_one_lane(sweep), table);
    assert_eq!(fan_outs(), before);
}
