//! Uniform dispatch over the three filter implementations.
//!
//! The AGCM driver and the benchmark harness select a variant by value —
//! the comparison across variants is the paper's Tables 8–11.

use crate::convolution::{ConvMode, ConvolutionFilter};
use crate::engine::{self, Assignment, FilterScratch};
use crate::lines::FilterSetup;
use agcm_grid::field::Field3D;
use agcm_mps::topology::CartComm;
use std::cell::RefCell;

/// How the FFT variants move variables through the redistribute engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterOrganization {
    /// One redistribute pass per filter class moves **all** its variables
    /// — at most one forward + one backward message per rank pair per
    /// class. The production organization (§3.3: "all weakly filtered
    /// variables are filtered concurrently…").
    #[default]
    Aggregated,
    /// One redistribute pass per variable, as the original code was
    /// organized — kept for paper-faithful Tables 8–11 comparison runs.
    PerVariable,
}

/// Which polar-filter implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterVariant {
    /// Original physical-space convolution, ring assembly.
    ConvolutionRing,
    /// Original physical-space convolution, tree assembly.
    ConvolutionTree,
    /// Transpose + local FFT, no load balancing.
    FftNoLb,
    /// Load-balanced FFT (the paper's final design).
    LbFft,
}

impl FilterVariant {
    /// All variants, in the order of the paper's table columns.
    pub const ALL: [FilterVariant; 4] = [
        FilterVariant::ConvolutionRing,
        FilterVariant::ConvolutionTree,
        FilterVariant::FftNoLb,
        FilterVariant::LbFft,
    ];

    /// Column label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FilterVariant::ConvolutionRing => "Convolution (ring)",
            FilterVariant::ConvolutionTree => "Convolution (tree)",
            FilterVariant::FftNoLb => "FFT without load balance",
            FilterVariant::LbFft => "FFT with load balance",
        }
    }
}

/// A ready-to-apply filter: variant plus any precomputed state.
pub struct PolarFilter {
    variant: FilterVariant,
    organization: FilterOrganization,
    conv: Option<ConvolutionFilter>,
    /// Reusable engine buffers, kept across timesteps so the filter stops
    /// allocating on its hot path. `RefCell`: `apply` takes `&self` (the
    /// filter is logically immutable) and each rank owns its own filter.
    scratch: RefCell<FilterScratch>,
}

impl PolarFilter {
    /// Prepare the chosen variant (kernel precomputation for the
    /// convolution forms — the "setup" cost paid once per run) with the
    /// default aggregated organization.
    pub fn new(setup: &FilterSetup, variant: FilterVariant) -> PolarFilter {
        PolarFilter::with_organization(setup, variant, FilterOrganization::default())
    }

    /// Prepare the chosen variant with an explicit organization (only the
    /// FFT variants distinguish them; the convolution forms ignore it).
    pub fn with_organization(
        setup: &FilterSetup,
        variant: FilterVariant,
        organization: FilterOrganization,
    ) -> PolarFilter {
        let conv = match variant {
            FilterVariant::ConvolutionRing => Some(ConvolutionFilter::new(setup, ConvMode::Ring)),
            FilterVariant::ConvolutionTree => Some(ConvolutionFilter::new(setup, ConvMode::Tree)),
            _ => None,
        };
        PolarFilter {
            variant,
            organization,
            conv,
            scratch: RefCell::new(FilterScratch::new()),
        }
    }

    /// The variant this filter runs.
    pub fn variant(&self) -> FilterVariant {
        self.variant
    }

    /// The variable organization of the FFT variants.
    pub fn organization(&self) -> FilterOrganization {
        self.organization
    }

    /// Apply the full filtering step (both classes) to the local fields.
    pub fn apply(&self, setup: &FilterSetup, cart: &CartComm, fields: &mut [Field3D]) {
        let assignment = match self.variant {
            FilterVariant::ConvolutionRing | FilterVariant::ConvolutionTree => {
                return self
                    .conv
                    .as_ref()
                    .expect("prepared in new")
                    .apply(setup, cart, fields);
            }
            FilterVariant::FftNoLb => Assignment::RowLocal,
            FilterVariant::LbFft => Assignment::Balanced,
        };
        engine::apply(
            setup,
            cart,
            fields,
            assignment,
            self.organization,
            &mut self.scratch.borrow_mut(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{filter_global, global_from_locals, local_from_global, synthetic_field};
    use agcm_grid::decomp::Decomp;
    use agcm_grid::latlon::GridSpec;
    use agcm_mps::runtime::run;

    #[test]
    fn all_variants_agree_with_reference() {
        let grid = GridSpec::new(36, 16, 2);
        let mesh = (2usize, 3usize);
        let decomp = Decomp::new(grid, mesh.0, mesh.1);
        let globals: Vec<Field3D> = (0..6).map(|v| synthetic_field(&grid, v)).collect();

        let setup0 = FilterSetup::new(grid, decomp);
        let mut expect = globals.clone();
        filter_global(&setup0, &mut expect);

        for variant in FilterVariant::ALL {
            let locals = run(decomp.size(), |c| {
                let cart = CartComm::new(c, mesh.0, mesh.1, (false, true));
                let setup = FilterSetup::new(grid, decomp);
                let filter = PolarFilter::new(&setup, variant);
                let sub = decomp.subdomain_of_rank(c.rank());
                let mut fields: Vec<Field3D> =
                    globals.iter().map(|g| local_from_global(g, &sub)).collect();
                filter.apply(&setup, &cart, &mut fields);
                fields
            });
            for v in 0..6 {
                let got = global_from_locals(
                    &locals.iter().map(|l| l[v].clone()).collect::<Vec<_>>(),
                    &decomp,
                );
                let err = got.max_abs_diff(&expect[v]);
                assert!(err < 1e-8, "{variant:?} variable {v}: err {err}");
            }
        }
    }

    #[test]
    fn labels_distinct() {
        let mut labels: Vec<&str> = FilterVariant::ALL.iter().map(|v| v.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }
}
