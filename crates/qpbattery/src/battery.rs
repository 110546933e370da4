//! The vendored problem battery: small standard QPs/LPs with committed
//! reference objectives, embedded at compile time so the suite runs
//! fully offline.
//!
//! Reference values come from two independent sources: the literature
//! optimum where one is published (Hock–Schittkowski, CUTE), and a
//! solver bootstrap certified by [`ev_optim::verify_kkt`] at `1e-9`
//! (for a convex problem a KKT point is a global optimum, so the
//! certification is sound, not circular). The `regen_reference_values`
//! helper below re-derives every value; see `EXPERIMENTS.md`.

use crate::mps::{parse_mps, LoadedQp, MpsError, MpsFormat};

/// What the solver is expected to produce for a battery case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expected {
    /// Solves to this optimal objective value (original problem sense,
    /// constant included), matched to `1e-6` relative tolerance.
    Objective(f64),
    /// Must return a routable infeasibility (or max-iterations) error.
    Infeasible,
    /// Must return a routable unboundedness (or max-iterations) error.
    Unbounded,
}

/// One vendored problem: embedded MPS text plus its expectation.
#[derive(Debug, Clone, Copy)]
pub struct BatteryCase {
    /// Stable case name (matches the fixture file stem).
    pub name: &'static str,
    /// Embedded MPS source text.
    pub mps: &'static str,
    /// Physical layout of `mps`.
    pub format: MpsFormat,
    /// Expected solver outcome.
    pub expected: Expected,
    /// What the case exercises.
    pub notes: &'static str,
}

impl BatteryCase {
    /// Parses the embedded MPS text.
    ///
    /// # Errors
    ///
    /// Propagates [`MpsError`]; the battery's own tests guarantee every
    /// vendored case loads cleanly.
    pub fn load(&self) -> Result<LoadedQp, MpsError> {
        parse_mps(self.mps, self.format)
    }
}

macro_rules! case {
    ($name:literal, $format:expr, $expected:expr, $notes:literal) => {
        BatteryCase {
            name: $name,
            mps: include_str!(concat!("../problems/", $name, ".mps")),
            format: $format,
            expected: $expected,
            notes: $notes,
        }
    };
}

/// The full vendored battery, in alphabetical-ish curriculum order.
pub const CASES: &[BatteryCase] = &[
    case!(
        "hs21",
        MpsFormat::Free,
        Expected::Objective(-99.96),
        "classic QP with an objective constant from the RHS section"
    ),
    case!(
        "hs35",
        MpsFormat::Free,
        Expected::Objective(0.111_111_111_111_111_1),
        "Beale's problem; dense coupled Hessian, one active inequality"
    ),
    case!(
        "hs35mod",
        MpsFormat::Free,
        Expected::Objective(0.25),
        "HS35 with an FX (fixed-variable) bound"
    ),
    case!(
        "hs51",
        MpsFormat::Free,
        Expected::Objective(0.0),
        "semidefinite Hessian, equality-constrained, FR bounds"
    ),
    case!(
        "hs52",
        MpsFormat::Free,
        Expected::Objective(5.326_647_564_469_912),
        "equality-constrained least squares; f* = 1859/349"
    ),
    case!(
        "hs53",
        MpsFormat::Free,
        Expected::Objective(4.093_023_255_813_954),
        "HS51 objective on HS52 equalities inside an inactive box; f* = 176/43"
    ),
    case!(
        "hs76",
        MpsFormat::Free,
        Expected::Objective(-4.681_818_181_818_182),
        "indefinite-looking but convex cross terms, mixed L/G rows"
    ),
    case!(
        "tame",
        MpsFormat::Free,
        Expected::Objective(0.0),
        "Maros-Meszaros TAME; rank-1 semidefinite Hessian"
    ),
    case!(
        "genhs28",
        MpsFormat::Free,
        Expected::Objective(0.927_173_693_766_391),
        "CUTE GENHS28; tridiagonal semidefinite Hessian, 8 equalities"
    ),
    case!(
        "qp-kms-dense",
        MpsFormat::Free,
        Expected::Objective(-4.933_940_905_136_996),
        "fully dense Kac-Murdock-Szego Hessian with box and two rows"
    ),
    case!(
        "lp-vertex",
        MpsFormat::Fixed,
        Expected::Objective(-6.0),
        "pure LP in fixed-column format; optimum at a bound vertex"
    ),
    case!(
        "lp-ranges-g",
        MpsFormat::Free,
        Expected::Objective(2.0),
        "RANGES on a G row (interval constraint from below)"
    ),
    case!(
        "lp-ranges-l",
        MpsFormat::Free,
        Expected::Objective(-8.0),
        "RANGES on an L row plus an objective constant"
    ),
    case!(
        "qp-ranges-eq",
        MpsFormat::Free,
        Expected::Objective(2.0),
        "RANGES on an E row (equality widened to an interval)"
    ),
    case!(
        "qp-free-bounds",
        MpsFormat::Free,
        Expected::Objective(-0.5),
        "MI/LO/PL bound kinds; interior unconstrained optimum"
    ),
    case!(
        "qp-degenerate-vertex",
        MpsFormat::Free,
        Expected::Objective(0.0),
        "LP with three constraints active at a 2-D vertex (degenerate)"
    ),
    case!(
        "qp-rank-deficient-eq",
        MpsFormat::Free,
        Expected::Objective(0.0),
        "duplicated (rank-deficient but consistent) equality rows"
    ),
    case!(
        "qp-redundant-ineq",
        MpsFormat::Free,
        Expected::Objective(2.0),
        "active constraint repeated at three scalings; non-unique duals"
    ),
    case!(
        "qp-illcond-diag",
        MpsFormat::Free,
        Expected::Objective(9.900_000_000_99e-5),
        "diagonal Hessian with condition number 1e8; analytic f* = 1e4/101010101"
    ),
    case!(
        "qp-banded-chain",
        MpsFormat::Free,
        Expected::Objective(0.3575),
        "12-stage slope-limited tracking chain; analytic f* = 0.0025*2*71.5"
    ),
    case!(
        "qp-eq-chain",
        MpsFormat::Free,
        Expected::Objective(0.75),
        "equality-only QP (pure-equality KKT path, no inequalities)"
    ),
    case!(
        "qp-fixed-quad",
        MpsFormat::Fixed,
        Expected::Objective(0.25),
        "fixed-column format with a QUADOBJ section"
    ),
    case!(
        "qp-maxobj",
        MpsFormat::Free,
        Expected::Objective(2.5),
        "OBJSENSE MAXIMIZE with a concave quadratic (loader negates)"
    ),
    case!(
        "lp-infeasible",
        MpsFormat::Free,
        Expected::Infeasible,
        "row and bound contradict; solver must error, not hang"
    ),
    case!(
        "qp-infeasible-eq",
        MpsFormat::Free,
        Expected::Infeasible,
        "inconsistent equality rows"
    ),
    case!(
        "lp-unbounded",
        MpsFormat::Free,
        Expected::Unbounded,
        "objective decreases along a feasible ray"
    ),
];

/// Looks a case up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static BatteryCase> {
    CASES.iter().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_optim::{kkt_report, QpSolver, QpSolverOptions};

    #[test]
    fn battery_is_large_and_loads() {
        assert!(CASES.len() >= 20, "battery shrank below 20 cases");
        let solvable = CASES
            .iter()
            .filter(|c| matches!(c.expected, Expected::Objective(_)))
            .count();
        assert!(
            solvable >= 20,
            "need at least 20 solvable cases, have {solvable}"
        );
        let mut names: Vec<&str> = CASES.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CASES.len(), "duplicate case names");
        for case in CASES {
            let qp = case
                .load()
                .unwrap_or_else(|e| panic!("{} failed to load: {e}", case.name));
            assert!(qp.num_vars() > 0, "{} has no variables", case.name);
        }
    }

    #[test]
    fn both_formats_and_all_sections_are_covered() {
        assert!(CASES.iter().any(|c| c.format == MpsFormat::Fixed));
        assert!(CASES.iter().any(|c| c.format == MpsFormat::Free));
        let has = |s: &str| CASES.iter().any(|c| c.mps.contains(s));
        assert!(has("RANGES"), "no case exercises RANGES");
        assert!(has("BOUNDS"), "no case exercises BOUNDS");
        assert!(has("QUADOBJ"), "no case exercises QUADOBJ");
        assert!(has("OBJSENSE"), "no case exercises OBJSENSE");
        for kind in ["FX", "FR", "MI", "UP", "LO"] {
            assert!(
                CASES
                    .iter()
                    .any(|c| c.mps.lines().any(|l| l.trim_start().starts_with(kind))),
                "no case exercises {kind} bounds"
            );
        }
    }

    /// Re-derives every committed reference objective with the solver at
    /// tight tolerance and certifies each via the KKT conditions. Run
    /// with `--ignored --nocapture` after adding or editing a fixture
    /// and copy the printed values into [`CASES`].
    #[test]
    #[ignore = "regeneration helper, prints reference values"]
    fn regen_reference_values() {
        let solver = QpSolver::new(QpSolverOptions {
            tolerance: 1e-10,
            max_iterations: 200,
            ..QpSolverOptions::default()
        });
        for case in CASES {
            let qp = case.load().expect("load");
            let problem = qp.problem().expect("build");
            match solver.solve(&problem.as_view(), None, None) {
                Ok(sol) => {
                    let report = kkt_report(&problem.as_view(), &sol.z, &sol.y_eq, &sol.lambda_in)
                        .expect("kkt report");
                    println!(
                        "{:<22} objective {:+.15e}  kkt {:.2e} (scale {:.2e}) iters {}",
                        case.name,
                        qp.objective_value(&sol.z),
                        report.max_residual(),
                        report.scale,
                        sol.iterations,
                    );
                }
                Err(e) => println!("{:<22} error: {e}", case.name),
            }
        }
    }
}
