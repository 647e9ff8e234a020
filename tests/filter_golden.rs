//! Last-bit goldens for the filtered model: a drift in any filtered value
//! is a tier-1 failure here, not a `"correct": false` in the benchmark.
//!
//! * `run_model` at the paper's 144×90×9 for 20 steps reproduces the
//!   benchmark's golden pair (`benchmark/src/model.rs`: global maximum
//!   wind and physics-load sum) on 1×1 and 1×2;
//! * an FNV-1a digest over the bits of every prognostic field of the
//!   assembled global state repeats on 1×1, 1×2 and 2×3, and for the
//!   row-local FFT filter in the one-variable-at-a-time organization on a
//!   small grid.
//!
//! The digests were captured on the commit *before* the lane-batched
//! filter executor and the redistribution pass plan went in; the filter's
//! arithmetic is specified to the bit (pairs of consecutive same-latitude
//! lines in canonical order, odd tail through the half-size real
//! transform), so any regrouping or reassociation shows up here.

use std::path::PathBuf;
use ucla_agcm_repro::agcm::{run_model, run_model_resilient, AgcmConfig, ResilienceOpts};
use ucla_agcm_repro::filtering::driver::{FilterOrganization, FilterVariant};
use ucla_agcm_repro::filtering::reference::global_from_locals;
use ucla_agcm_repro::grid::decomp::Decomp;
use ucla_agcm_repro::grid::halo::HaloField;
use ucla_agcm_repro::grid::latlon::GridSpec;

const STEPS: usize = 20;
const GOLDEN_MAX_WIND: f64 = 3.902925773077102e1;
const GOLDEN_LOAD_SUM: f64 = 3.344642e9;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run `cfg` with one checkpoint at the last step and digest the global
/// prognostic state that checkpoint holds.
fn state_digest(cfg: AgcmConfig, tag: &str) -> u64 {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("agcm-filter-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ResilienceOpts::new(&dir);
    let store = opts.store.clone().expect("a directory store");
    let run = run_model_resilient(cfg.with_checkpointing(cfg.steps), opts).expect("clean run");
    assert_eq!(run.attempts, 1);
    let per_rank: Vec<Vec<HaloField>> = (0..cfg.size())
        .map(|rank| {
            store
                .load_shard(cfg.steps as u64, rank as u32)
                .expect("final checkpoint is committed")
                .fields
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let decomp = Decomp::new(cfg.grid, cfg.mesh_lat, cfg.mesh_lon);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for var in 0..per_rank[0].len() {
        let locals: Vec<HaloField> = per_rank.iter().map(|f| f[var].clone()).collect();
        for v in global_from_locals(&locals, &decomp).as_slice() {
            h = fnv1a(h, &v.to_bits().to_le_bytes());
        }
    }
    h
}

fn paper(mesh_lat: usize, mesh_lon: usize) -> AgcmConfig {
    AgcmConfig::paper(mesh_lat, mesh_lon, FilterVariant::LbFft).with_steps(STEPS)
}

#[test]
fn paper_grid_reproduces_the_benchmark_goldens() {
    for mesh_lon in [1, 2] {
        let run = run_model(paper(1, mesh_lon));
        assert!(run.stable());
        let max_wind = run.ranks.iter().map(|r| r.max_wind).fold(0.0, f64::max);
        let load_sum: f64 = run
            .ranks
            .iter()
            .map(|r| r.physics_loads.iter().sum::<f64>())
            .sum();
        assert_eq!(
            max_wind.to_bits(),
            GOLDEN_MAX_WIND.to_bits(),
            "1x{mesh_lon}: max_wind {max_wind:e}"
        );
        assert_eq!(
            load_sum.to_bits(),
            GOLDEN_LOAD_SUM.to_bits(),
            "1x{mesh_lon}: load sum {load_sum:e}"
        );
    }
}

#[test]
fn paper_grid_state_digests_repeat() {
    let got: Vec<u64> = [(1, 1), (1, 2), (2, 3)]
        .iter()
        .map(|&(r, c)| state_digest(paper(r, c), &format!("{r}x{c}")))
        .collect();
    let hex: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
    let golden = [
        0x35bd_fa7b_dd26_7bfc_u64,
        0xbc90_d017_28bc_4769,
        0xf94a_b3ca_2b72_bbd9,
    ];
    assert_eq!(got, golden, "1x1, 1x2, 2x3 state digests: {hex:?}");
}

#[test]
fn row_local_per_variable_state_digest_repeats() {
    let cfg = AgcmConfig {
        filter_organization: FilterOrganization::PerVariable,
        ..AgcmConfig::for_grid(GridSpec::new(48, 24, 3), 2, 2, FilterVariant::FftNoLb).with_steps(6)
    };
    let got = state_digest(cfg, "nolb-pervar");
    assert_eq!(got, 0x5a53_1c6e_dd12_c277, "state digest {got:#018x}");
}
