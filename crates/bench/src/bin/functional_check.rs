//! Functional cross-check of every implementation layer of the DSCF: golden
//! model (eq. 3), systolic array, folded array, single-tile kernel, tiled
//! SoC (the lockstep simulation and the analytic model). All must agree on
//! the same input.
//!
//! Run with: `cargo run --release -p cfd-bench --bin functional_check`

use cfd_bench::{header, licensed_user};
use cfd_dsp::scf::{block_spectra, dscf_reference, ScfParams};
use cfd_mapping::folding::FoldedArray;
use cfd_mapping::systolic::SystolicArray;
use tiled_soc::config::{ExecutionMode, SocConfig};
use tiled_soc::soc::TiledSoc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header("Functional cross-check of all implementation layers");
    let params = ScfParams::new(64, 15, 6)?;
    let signal = licensed_user(&params, 3.0, 2024);
    let reference = dscf_reference(&signal, &params)?;
    let spectra = block_spectra(&signal, &params)?;
    println!(
        "scenario: BPSK licensed user, {}-point spectra, {}x{} DSCF, {} blocks\n",
        params.fft_len,
        params.grid_size(),
        params.grid_size(),
        params.num_blocks
    );

    let mut systolic = SystolicArray::new(params.max_offset, params.fft_len);
    let (systolic_result, _) = systolic.run(&spectra);
    println!(
        "systolic array (127-PE style)   : max |diff| = {:.3e}",
        systolic_result.max_abs_difference(&reference)
    );

    for cores in [1usize, 2, 4] {
        let mut folded = FoldedArray::new(params.max_offset, params.fft_len, cores)?;
        let (result, _) = folded.run(&spectra);
        println!(
            "folded array, Q = {cores}             : max |diff| = {:.3e}",
            result.max_abs_difference(&reference)
        );
    }

    for (label, mode) in [
        ("lockstep", ExecutionMode::Lockstep),
        ("analytic", ExecutionMode::Analytic),
    ] {
        let mut soc = TiledSoc::new(
            SocConfig::paper().with_mode(mode),
            params.max_offset,
            params.fft_len,
        )?;
        let run = soc.run(&signal, params.num_blocks)?;
        println!(
            "tiled SoC, 4 tiles, {label:<9}  : max |diff| = {:.3e} ({} inter-tile transfers)",
            run.scf.max_abs_difference(&reference),
            run.inter_tile_transfers
        );
    }
    println!("\nAll layers agree with the golden model of eq. 3.");
    Ok(())
}
