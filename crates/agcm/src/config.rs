//! Run configuration.

use agcm_dynamics::timestep::{max_stable_dt, signal_speed};
use agcm_filtering::driver::{FilterOrganization, FilterVariant};
use agcm_grid::latlon::GridSpec;
use std::fmt;

/// Why a configuration cannot be run. Produced by
/// [`AgcmConfig::validate`]; degenerate configs surface here as typed
/// errors instead of assertion panics deep inside `mps::run` or the grid
/// decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The processor mesh has zero extent (no ranks to run on).
    ZeroRanks {
        /// Processors along latitude.
        mesh_lat: usize,
        /// Processors along longitude.
        mesh_lon: usize,
    },
    /// The run would take no steps.
    ZeroSteps,
    /// The processor mesh is larger than the grid it decomposes: some
    /// rank would own an empty subdomain.
    MeshExceedsGrid {
        /// Processors along latitude.
        mesh_lat: usize,
        /// Processors along longitude.
        mesh_lon: usize,
        /// Grid rows (latitudes).
        n_lat: usize,
        /// Grid columns (longitudes).
        n_lon: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroRanks { mesh_lat, mesh_lon } => {
                write!(f, "mesh {mesh_lat}x{mesh_lon} has zero ranks")
            }
            ConfigError::ZeroSteps => write!(f, "run has zero steps"),
            ConfigError::MeshExceedsGrid {
                mesh_lat,
                mesh_lon,
                n_lat,
                n_lon,
            } => write!(
                f,
                "mesh {mesh_lat}x{mesh_lon} exceeds grid {n_lat}x{n_lon}: \
                 some rank would own an empty subdomain"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of one AGCM run.
#[derive(Debug, Clone, Copy)]
pub struct AgcmConfig {
    /// The global grid.
    pub grid: GridSpec,
    /// Processors along latitude.
    pub mesh_lat: usize,
    /// Processors along longitude.
    pub mesh_lon: usize,
    /// Timestep (seconds).
    pub dt: f64,
    /// Polar filter implementation.
    pub filter: FilterVariant,
    /// Variable organization of the FFT filter variants: aggregated
    /// (production and Tables 8–11) or per-variable (the pre-§3.3
    /// organization, kept for the message-count comparison).
    pub filter_organization: FilterOrganization,
    /// Whether the Physics component load-balances (scheme 3).
    pub balance_physics: bool,
    /// Physics balancing: target imbalance fraction.
    pub balance_target: f64,
    /// Physics balancing: maximum pairwise rounds per step.
    pub balance_rounds: usize,
    /// Steps to run.
    pub steps: usize,
    /// Checkpoint every this many steps in resilient runs (0 = never).
    pub checkpoint_every: usize,
}

impl AgcmConfig {
    /// The paper's standard configuration on a given mesh: 2°×2.5°×9 grid,
    /// timestep at 35% of the filtered CFL bound, chosen filter variant,
    /// physics balancing off (the original organization).
    pub fn paper(mesh_lat: usize, mesh_lon: usize, filter: FilterVariant) -> AgcmConfig {
        let grid = GridSpec::paper_9_layer();
        AgcmConfig::for_grid(grid, mesh_lat, mesh_lon, filter)
    }

    /// Same, with an explicit grid (e.g. the 15-layer variant or a reduced
    /// test grid).
    pub fn for_grid(
        grid: GridSpec,
        mesh_lat: usize,
        mesh_lon: usize,
        filter: FilterVariant,
    ) -> AgcmConfig {
        let dt = max_stable_dt(&grid, signal_speed(), 0.35, Some(45.0));
        AgcmConfig {
            grid,
            mesh_lat,
            mesh_lon,
            dt,
            filter,
            filter_organization: FilterOrganization::default(),
            balance_physics: false,
            balance_target: 0.06,
            balance_rounds: 2,
            steps: 2,
            checkpoint_every: 0,
        }
    }

    /// Builder-style: enable physics load balancing.
    pub fn with_physics_balancing(mut self) -> AgcmConfig {
        self.balance_physics = true;
        self
    }

    /// Builder-style: set the number of steps.
    pub fn with_steps(mut self, steps: usize) -> AgcmConfig {
        self.steps = steps;
        self
    }

    /// Builder-style: checkpoint every `every` steps in resilient runs.
    pub fn with_checkpointing(mut self, every: usize) -> AgcmConfig {
        self.checkpoint_every = every;
        self
    }

    /// Check the configuration is runnable: a non-empty mesh, at least
    /// one step, and a mesh no larger than the grid (mirroring the
    /// invariants `Decomp::new` and `mps::run` would otherwise assert
    /// deep inside a spawned world).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.mesh_lat == 0 || self.mesh_lon == 0 {
            return Err(ConfigError::ZeroRanks {
                mesh_lat: self.mesh_lat,
                mesh_lon: self.mesh_lon,
            });
        }
        if self.steps == 0 {
            return Err(ConfigError::ZeroSteps);
        }
        if self.mesh_lat > self.grid.n_lat || self.mesh_lon > self.grid.n_lon {
            return Err(ConfigError::MeshExceedsGrid {
                mesh_lat: self.mesh_lat,
                mesh_lon: self.mesh_lon,
                n_lat: self.grid.n_lat,
                n_lon: self.grid.n_lon,
            });
        }
        Ok(())
    }

    /// Total processors.
    pub fn size(&self) -> usize {
        self.mesh_lat * self.mesh_lon
    }

    /// Canonical lineage hash: [`agcm_resilience::fnv1a`] over the
    /// little-endian words of every field that determines the
    /// trajectory — grid, mesh, exact timestep bits, filter variant and
    /// organization, and the physics-balancing knobs. The model is
    /// a deterministic function of these, so two configs with equal
    /// lineage walk bit-identical state through every step they share.
    ///
    /// `steps` and `checkpoint_every` are deliberately **excluded**:
    /// they bound how far a run goes and how often it snapshots, not
    /// where it goes. That exclusion is what lets an extended-horizon
    /// resubmission resume from a shorter run's committed prefix in the
    /// fleet checkpoint store.
    pub fn lineage(&self) -> u64 {
        let words = [
            self.grid.n_lon as u64,
            self.grid.n_lat as u64,
            self.grid.n_lev as u64,
            self.mesh_lat as u64,
            self.mesh_lon as u64,
            self.dt.to_bits(),
            match self.filter {
                FilterVariant::ConvolutionRing => 0,
                FilterVariant::ConvolutionTree => 1,
                FilterVariant::FftNoLb => 2,
                FilterVariant::LbFft => 3,
            },
            match self.filter_organization {
                FilterOrganization::Aggregated => 0,
                FilterOrganization::PerVariable => 1,
            },
            self.balance_physics as u64,
            self.balance_target.to_bits(),
            self.balance_rounds as u64,
        ];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        agcm_resilience::fnv1a(&bytes)
    }

    /// Number of timesteps in one simulated day (for converting measured
    /// per-step times into the paper's seconds/simulated-day).
    pub fn steps_per_day(&self) -> f64 {
        86_400.0 / self.dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_shape() {
        let cfg = AgcmConfig::paper(8, 30, FilterVariant::LbFft);
        assert_eq!(cfg.size(), 240);
        assert_eq!(cfg.grid.points(), 144 * 90 * 9);
        assert!(
            cfg.dt > 60.0 && cfg.dt < 1200.0,
            "plausible AGCM timestep: {}",
            cfg.dt
        );
        assert!(cfg.steps_per_day() > 50.0);
        assert!(!cfg.balance_physics);
    }

    #[test]
    fn builders() {
        let cfg = AgcmConfig::paper(4, 4, FilterVariant::ConvolutionRing)
            .with_physics_balancing()
            .with_steps(5)
            .with_checkpointing(2);
        assert!(cfg.balance_physics);
        assert_eq!(cfg.steps, 5);
        assert_eq!(cfg.checkpoint_every, 2);
    }

    #[test]
    fn valid_config_validates() {
        assert_eq!(
            AgcmConfig::paper(8, 30, FilterVariant::LbFft).validate(),
            Ok(())
        );
    }

    #[test]
    fn zero_mesh_dimension_is_zero_ranks() {
        let mut cfg = AgcmConfig::paper(2, 2, FilterVariant::LbFft);
        cfg.mesh_lon = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroRanks {
                mesh_lat: 2,
                mesh_lon: 0,
            })
        );
        cfg.mesh_lon = 2;
        cfg.mesh_lat = 0;
        assert!(matches!(cfg.validate(), Err(ConfigError::ZeroRanks { .. })));
    }

    #[test]
    fn zero_steps_rejected() {
        let cfg = AgcmConfig::paper(2, 2, FilterVariant::LbFft).with_steps(0);
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroSteps));
    }

    #[test]
    fn mesh_larger_than_grid_rejected() {
        // 48x24 grid (n_lon x n_lat): 25 mesh rows exceed 24 latitudes.
        let cfg = AgcmConfig::for_grid(GridSpec::new(48, 24, 3), 25, 2, FilterVariant::LbFft);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::MeshExceedsGrid {
                mesh_lat: 25,
                mesh_lon: 2,
                n_lat: 24,
                n_lon: 48,
            })
        );
    }

    #[test]
    fn lineage_ignores_horizon_but_tracks_trajectory_knobs() {
        let base = AgcmConfig::paper(2, 2, FilterVariant::LbFft).with_steps(10);
        // Horizon and checkpoint cadence do not change the trajectory.
        assert_eq!(base.lineage(), base.with_steps(50).lineage());
        assert_eq!(base.lineage(), base.with_checkpointing(5).lineage());
        // Everything that does change the trajectory changes the hash.
        assert_ne!(
            base.lineage(),
            AgcmConfig::paper(2, 2, FilterVariant::FftNoLb)
                .with_steps(10)
                .lineage()
        );
        assert_ne!(base.lineage(), base.with_physics_balancing().lineage());
        let per_variable = AgcmConfig {
            filter_organization: FilterOrganization::PerVariable,
            ..base
        };
        assert_ne!(base.lineage(), per_variable.lineage());
        assert_ne!(
            base.lineage(),
            AgcmConfig::paper(2, 4, FilterVariant::LbFft)
                .with_steps(10)
                .lineage()
        );
        let mut jitter = base;
        jitter.dt *= 1.0 + 1e-12;
        assert_ne!(
            base.lineage(),
            jitter.lineage(),
            "dt compared by exact bits"
        );
    }

    #[test]
    fn lineage_known_answers() {
        // Store keys and committed prefixes on disk are named by these
        // values; a different hash would orphan every stored lineage.
        assert_eq!(
            AgcmConfig::paper(1, 1, FilterVariant::LbFft).lineage(),
            0xfc65_d9bb_658c_192a
        );
        assert_eq!(
            AgcmConfig::paper(1, 2, FilterVariant::LbFft)
                .with_physics_balancing()
                .lineage(),
            0x3a0b_7ecf_fbf1_4840
        );
    }

    #[test]
    fn fifteen_layer_variant() {
        let cfg = AgcmConfig::for_grid(GridSpec::paper_15_layer(), 4, 8, FilterVariant::FftNoLb);
        assert_eq!(cfg.grid.n_lev, 15);
        assert_eq!(cfg.size(), 32);
    }
}
