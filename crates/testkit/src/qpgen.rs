//! Seeded property-based QP/NLP instance generator.
//!
//! The SQP/interior-point stack was born solving exactly one NLP family —
//! the paper's Eq. 13–21 power split — which means every solver test the
//! authors wrote shares that family's conditioning, sparsity, and active
//! set. This module manufactures convex QPs the solver's authors did *not*
//! design: random instances drawn from families chosen to stress different
//! failure modes (ill conditioning, redundant constraints, banded horizon
//! structure, infeasibility, unboundedness), each reproducible from a
//! `u64` seed so a failing instance is a two-number bug report.
//!
//! Feasible instances are built *backwards from a certificate*: an
//! interior point `x*` is sampled first and every constraint right-hand
//! side is derived from it with positive slack, so feasibility is a
//! construction invariant rather than a hope. Infeasible and unbounded
//! instances embed an explicit contradiction / uncapped ray the same way.
//!
//! The differential fuzz harness in `ev-qpbattery` consumes these
//! instances, solving each with every KKT backend and cross-checking the
//! answers (see `DESIGN.md`, "Differential oracle methodology").

use ev_linalg::{Matrix, SparseMatrix};
use ev_optim::{NlpProblem, OptimError, QpProblem, QpStructure, QpView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which stress family a generated instance belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpFamily {
    /// SPD Hessian with O(1) spectrum, constraints in general position.
    WellConditioned,
    /// Diagonal spread of ~1e6 in the Hessian plus skewed row scalings.
    IllConditioned,
    /// Duplicated and rescaled constraint rows (rank-deficient Jacobians,
    /// non-unique multipliers — the primal optimum stays unique).
    RedundantConstraints,
    /// Block-banded horizon structure with a declared [`QpStructure`],
    /// exercising the stage-interleaved banded KKT backend.
    Banded,
    /// Contains an explicit contradiction; solvers must report an error,
    /// never panic or spin.
    Infeasible,
    /// The objective decreases along an uncapped feasible ray.
    Unbounded,
    /// Zero decision variables (degenerate shape handling).
    ZeroVariable,
}

impl QpFamily {
    /// All families, in generation round-robin order.
    pub const ALL: [Self; 7] = [
        Self::WellConditioned,
        Self::IllConditioned,
        Self::RedundantConstraints,
        Self::Banded,
        Self::Infeasible,
        Self::Unbounded,
        Self::ZeroVariable,
    ];

    /// Whether instances of this family have an optimal solution (as
    /// opposed to being designed to fail).
    #[must_use]
    pub fn is_solvable(self) -> bool {
        !matches!(
            self,
            Self::Infeasible | Self::Unbounded | Self::ZeroVariable
        )
    }

    /// The tightest primal cross-backend agreement this family supports.
    ///
    /// Well-conditioned and banded instances agree to 1e-8; families with
    /// deliberately poor conditioning or non-unique multipliers get an
    /// order of magnitude of slack (their *primal* optimum is still
    /// unique, but finite-precision backends legitimately land farther
    /// apart).
    #[must_use]
    pub fn primal_agreement_tol(self) -> f64 {
        match self {
            Self::WellConditioned | Self::Banded => 1e-8,
            _ => 1e-6,
        }
    }
}

/// One generated convex QP, stored as the raw parts every consumer needs:
/// dense Hessian, CSR Jacobians, and (for feasible families) the interior
/// point the right-hand sides were derived from.
#[derive(Debug, Clone)]
pub struct GeneratedQp {
    /// `"<family>-s<seed>"`, unique per (seed, family).
    pub name: String,
    /// Stress family this instance was drawn from.
    pub family: QpFamily,
    /// Symmetric PSD Hessian.
    pub h: Matrix,
    /// Linear objective term.
    pub g: Vec<f64>,
    /// Equality Jacobian in CSR form (zero rows when unconstrained).
    pub a_eq: SparseMatrix,
    /// Equality right-hand side.
    pub b_eq: Vec<f64>,
    /// Inequality Jacobian in CSR form.
    pub a_in: SparseMatrix,
    /// Inequality right-hand side.
    pub b_in: Vec<f64>,
    /// Declared horizon structure ([`QpFamily::Banded`] only).
    pub structure: Option<QpStructure>,
    /// Interior feasibility certificate (feasible families only).
    pub interior_point: Option<Vec<f64>>,
}

impl GeneratedQp {
    /// Number of decision variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.g.len()
    }

    /// Borrows the instance as a [`QpView`] with its declared structure
    /// (the banded backend's entry point).
    ///
    /// # Errors
    ///
    /// Propagates [`QpView`] construction errors (they indicate a
    /// generator bug, not a caller mistake).
    pub fn view(&self) -> Result<QpView<'_>, OptimError> {
        let mut view = QpView::new(&self.h, &self.g)?;
        if !self.b_eq.is_empty() {
            view = view.with_equalities(&self.a_eq, &self.b_eq)?;
        }
        if !self.b_in.is_empty() {
            view = view.with_inequalities(&self.a_in, &self.b_in)?;
        }
        if let Some(st) = self.structure {
            view = view.with_structure(st);
        }
        Ok(view)
    }

    /// Clones the instance into an owned [`QpProblem`] without its
    /// structure (the dense-LU oracle's entry point).
    ///
    /// # Errors
    ///
    /// Propagates [`QpProblem`] construction errors.
    pub fn to_problem(&self) -> Result<QpProblem, OptimError> {
        let mut p = QpProblem::new(self.h.clone(), self.g.clone())?;
        if !self.b_eq.is_empty() {
            p = p.with_equalities(self.a_eq.to_dense(), self.b_eq.clone())?;
        }
        if !self.b_in.is_empty() {
            p = p.with_inequalities(self.a_in.to_dense(), self.b_in.clone())?;
        }
        Ok(p)
    }
}

/// Generates instance `index` of the deterministic stream rooted at
/// `seed`, cycling through every family in [`QpFamily::ALL`].
///
/// The (seed, index) pair fully determines the instance, so a fuzz
/// failure reproduces from two numbers.
#[must_use]
pub fn generate(seed: u64, index: usize) -> GeneratedQp {
    let family = QpFamily::ALL[index % QpFamily::ALL.len()];
    generate_family(seed.wrapping_add(index as u64), family)
}

/// Generates one instance of the given family from the given seed.
#[must_use]
pub fn generate_family(seed: u64, family: QpFamily) -> GeneratedQp {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let name = format!("{family:?}-s{seed}").to_lowercase();
    match family {
        QpFamily::WellConditioned => well_conditioned(&mut rng, name),
        QpFamily::IllConditioned => ill_conditioned(&mut rng, name),
        QpFamily::RedundantConstraints => redundant(&mut rng, name),
        QpFamily::Banded => banded(&mut rng, name),
        QpFamily::Infeasible => infeasible(&mut rng, name),
        QpFamily::Unbounded => unbounded(&mut rng, name),
        QpFamily::ZeroVariable => zero_variable(name),
    }
}

/// SPD Hessian `L·Lᵀ + c·I` from a random unit-scale lower factor.
fn random_spd(rng: &mut StdRng, n: usize, diag_boost: f64) -> Matrix {
    let mut l = Matrix::zeros(n, n);
    for r in 0..n {
        for c in 0..=r {
            l.set(r, c, rng.gen_range(-1.0..1.0));
        }
    }
    let mut h = Matrix::zeros(n, n);
    for r in 0..n {
        for c in 0..=r {
            let mut acc = 0.0;
            for k in 0..n {
                acc += l.get(r, k) * l.get(c, k);
            }
            h.set(r, c, acc);
            h.set(c, r, acc);
        }
        h.add_at(r, r, diag_boost);
    }
    h
}

/// Appends `rows` random sparse inequality rows that hold strictly at
/// `x_star` (slack drawn from `[0.1, 2)`).
fn push_feasible_ineqs(
    rng: &mut StdRng,
    a_in: &mut SparseMatrix,
    b_in: &mut Vec<f64>,
    x_star: &[f64],
    rows: usize,
) {
    let n = x_star.len();
    for _ in 0..rows {
        let nnz = rng.gen_range(1..=3.min(n));
        let mut cols: Vec<usize> = (0..nnz).map(|_| rng.gen_range(0..n)).collect();
        cols.sort_unstable();
        cols.dedup();
        let mut ax = 0.0;
        for &c in &cols {
            let v = rng.gen_range(-2.0..2.0);
            a_in.push(c, v);
            ax += v * x_star[c];
        }
        a_in.finish_row();
        b_in.push(ax + rng.gen_range(0.1..2.0));
    }
    // Box everything so no family is accidentally unbounded.
    for (i, &xi) in x_star.iter().enumerate() {
        a_in.push(i, 1.0);
        a_in.finish_row();
        b_in.push(xi.abs() + rng.gen_range(0.5..3.0));
        a_in.push(i, -1.0);
        a_in.finish_row();
        b_in.push(xi.abs() + rng.gen_range(0.5..3.0));
    }
}

fn well_conditioned(rng: &mut StdRng, name: String) -> GeneratedQp {
    let n = rng.gen_range(2..=12);
    let h = random_spd(rng, n, 0.5);
    let g: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
    let x_star: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();

    let mut a_in = SparseMatrix::new();
    a_in.reset(n);
    let mut b_in = Vec::new();
    let extra_rows = rng.gen_range(1..=n);
    push_feasible_ineqs(rng, &mut a_in, &mut b_in, &x_star, extra_rows);

    let mut a_eq = SparseMatrix::new();
    a_eq.reset(n);
    let mut b_eq = Vec::new();
    if n >= 4 && rng.gen_bool(0.5) {
        let me = rng.gen_range(1..=n / 2);
        for _ in 0..me {
            let mut bx = 0.0;
            for (c, &xc) in x_star.iter().enumerate() {
                let v = rng.gen_range(-1.5..1.5);
                a_eq.push(c, v);
                bx += v * xc;
            }
            a_eq.finish_row();
            b_eq.push(bx);
        }
    }
    GeneratedQp {
        name,
        family: QpFamily::WellConditioned,
        h,
        g,
        a_eq,
        b_eq,
        a_in,
        b_in,
        structure: None,
        interior_point: Some(x_star),
    }
}

fn ill_conditioned(rng: &mut StdRng, name: String) -> GeneratedQp {
    let n = rng.gen_range(3..=10);
    // Diagonal spanning six orders of magnitude with mild off-diagonal
    // coupling that keeps the matrix diagonally dominant (and thus PD).
    let mut h = Matrix::zeros(n, n);
    for i in 0..n {
        let exp = -3.0 + 6.0 * (i as f64) / ((n - 1) as f64);
        h.set(i, i, 10f64.powf(exp));
    }
    for i in 1..n {
        let couple = 0.1 * h.get(i, i).min(h.get(i - 1, i - 1));
        h.set(i, i - 1, couple);
        h.set(i - 1, i, couple);
    }
    let x_star: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let g: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut a_in = SparseMatrix::new();
    a_in.reset(n);
    let mut b_in = Vec::new();
    push_feasible_ineqs(rng, &mut a_in, &mut b_in, &x_star, 2);
    GeneratedQp {
        name,
        family: QpFamily::IllConditioned,
        h,
        g,
        a_eq: empty_csr(n),
        b_eq: Vec::new(),
        a_in,
        b_in,
        structure: None,
        interior_point: Some(x_star),
    }
}

fn redundant(rng: &mut StdRng, name: String) -> GeneratedQp {
    let mut base = well_conditioned(rng, name);
    base.family = QpFamily::RedundantConstraints;
    // Duplicate and rescale a prefix of the inequality rows: the feasible
    // set is unchanged, the Jacobian loses row rank, and the multipliers
    // become non-unique.
    let dup = base.b_in.len().min(3);
    let mut extra: Vec<(Vec<usize>, Vec<f64>, f64)> = Vec::new();
    for r in 0..dup {
        let (cols, vals) = base.a_in.row(r);
        let scale = rng.gen_range(0.5..2.0);
        extra.push((
            cols.to_vec(),
            vals.iter().map(|v| v * scale).collect(),
            base.b_in[r] * scale,
        ));
    }
    for (cols, vals, b) in extra {
        for (c, v) in cols.iter().zip(&vals) {
            base.a_in.push(*c, *v);
        }
        base.a_in.finish_row();
        base.b_in.push(b);
    }
    base
}

fn banded(rng: &mut StdRng, name: String) -> GeneratedQp {
    let nb = rng.gen_range(3..=8);
    let vb = rng.gen_range(2..=4);
    let n = nb * vb;
    // Strictly block-diagonal SPD Hessian — the structure declaration the
    // SQP's partitioned BFGS maintains, and the shape the banded KKT
    // assembly is specified against.
    let mut h = Matrix::zeros(n, n);
    for k in 0..nb {
        let block = random_spd(rng, vb, 0.8);
        for r in 0..vb {
            for c in 0..vb {
                h.set(k * vb + r, k * vb + c, block.get(r, c));
            }
        }
    }
    let x_star: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.5..1.5)).collect();
    let g: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();

    // Per-variable bounds plus one within-block coupling row per stage —
    // all local, so the measured bandwidth stays within the declaration.
    let mut a_in = SparseMatrix::new();
    a_in.reset(n);
    let mut b_in = Vec::new();
    for (i, &xi) in x_star.iter().enumerate() {
        a_in.push(i, 1.0);
        a_in.finish_row();
        b_in.push(xi + rng.gen_range(0.2..1.5));
        a_in.push(i, -1.0);
        a_in.finish_row();
        b_in.push(-xi + rng.gen_range(0.2..1.5));
    }
    for k in 0..nb {
        let mut ax = 0.0;
        for j in 0..vb {
            let v = rng.gen_range(-1.0..1.0);
            a_in.push(k * vb + j, v);
            ax += v * x_star[k * vb + j];
        }
        a_in.finish_row();
        b_in.push(ax + rng.gen_range(0.1..1.0));
    }

    // One equality per stage with a one-stage lookback coupling — the
    // multiple-shooting defect-constraint shape.
    let mut a_eq = SparseMatrix::new();
    a_eq.reset(n);
    let mut b_eq = Vec::new();
    for k in 0..nb {
        let mut bx = 0.0;
        if k > 0 {
            let v = rng.gen_range(0.2..0.8);
            a_eq.push((k - 1) * vb, v);
            bx += v * x_star[(k - 1) * vb];
        }
        for j in 0..vb {
            let v = rng.gen_range(0.5..1.5);
            a_eq.push(k * vb + j, v);
            bx += v * x_star[k * vb + j];
        }
        a_eq.finish_row();
        b_eq.push(bx);
    }

    GeneratedQp {
        name,
        family: QpFamily::Banded,
        h,
        g,
        a_eq,
        b_eq,
        a_in,
        b_in,
        structure: Some(QpStructure {
            vars_per_block: vb,
            eq_per_block: 1,
            lookback: 1,
        }),
        interior_point: Some(x_star),
    }
}

fn infeasible(rng: &mut StdRng, name: String) -> GeneratedQp {
    let n = rng.gen_range(1..=6);
    let h = random_spd(rng, n, 0.5);
    let g: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let mut a_in = SparseMatrix::new();
    a_in.reset(n);
    let mut b_in = Vec::new();
    // a·x ≤ b and a·x ≥ b + gap on the same random direction.
    let dir: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0) + 0.1).collect();
    let b = rng.gen_range(-1.0..1.0);
    let gap = rng.gen_range(0.5..3.0);
    for (c, &v) in dir.iter().enumerate() {
        a_in.push(c, v);
    }
    a_in.finish_row();
    b_in.push(b);
    for (c, &v) in dir.iter().enumerate() {
        a_in.push(c, -v);
    }
    a_in.finish_row();
    b_in.push(-(b + gap));
    GeneratedQp {
        name,
        family: QpFamily::Infeasible,
        h,
        g,
        a_eq: empty_csr(n),
        b_eq: Vec::new(),
        a_in,
        b_in,
        structure: None,
        interior_point: None,
    }
}

fn unbounded(rng: &mut StdRng, name: String) -> GeneratedQp {
    let n = rng.gen_range(2..=5);
    // Zero curvature along the last variable, a linear pull on it, and a
    // one-sided bound that leaves the descent ray open.
    let mut h = random_spd(rng, n - 1, 0.5);
    let mut full = Matrix::zeros(n, n);
    for r in 0..n - 1 {
        for c in 0..n - 1 {
            full.set(r, c, h.get(r, c));
        }
    }
    h = full;
    let mut g: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    g[n - 1] = rng.gen_range(0.5..2.0); // pulls z[n-1] toward −∞
    let mut a_in = SparseMatrix::new();
    a_in.reset(n);
    let mut b_in = Vec::new();
    // Cap z[n-1] from above only; the objective escapes below.
    a_in.push(n - 1, 1.0);
    a_in.finish_row();
    b_in.push(rng.gen_range(0.0..2.0));
    GeneratedQp {
        name,
        family: QpFamily::Unbounded,
        h,
        g,
        a_eq: empty_csr(n),
        b_eq: Vec::new(),
        a_in,
        b_in,
        structure: None,
        interior_point: None,
    }
}

fn zero_variable(name: String) -> GeneratedQp {
    GeneratedQp {
        name,
        family: QpFamily::ZeroVariable,
        h: Matrix::zeros(0, 0),
        g: Vec::new(),
        a_eq: empty_csr(0),
        b_eq: Vec::new(),
        a_in: empty_csr(0),
        b_in: Vec::new(),
        structure: None,
        interior_point: None,
    }
}

fn empty_csr(cols: usize) -> SparseMatrix {
    let mut m = SparseMatrix::new();
    m.reset(cols);
    m
}

/// Adapter exposing a [`GeneratedQp`] through the [`NlpProblem`] trait so
/// the same instances also exercise the SQP layer (exact derivatives,
/// sparse Jacobians, declared structure — every fast path the MPC uses).
#[derive(Debug, Clone)]
pub struct QpAsNlp {
    qp: GeneratedQp,
}

impl QpAsNlp {
    /// Wraps a generated QP as an NLP.
    #[must_use]
    pub fn new(qp: GeneratedQp) -> Self {
        Self { qp }
    }

    /// Borrows the wrapped instance.
    #[must_use]
    pub fn qp(&self) -> &GeneratedQp {
        &self.qp
    }
}

impl NlpProblem for QpAsNlp {
    fn num_vars(&self) -> usize {
        self.qp.num_vars()
    }

    fn objective(&self, z: &[f64]) -> f64 {
        let hz = self.qp.h.matvec(z).expect("dimension fixed at generation");
        0.5 * dot(z, &hz) + dot(&self.qp.g, z)
    }

    fn has_exact_derivatives(&self) -> bool {
        true
    }

    fn gradient(&self, z: &[f64], grad: &mut [f64]) {
        let hz = self.qp.h.matvec(z).expect("dimension fixed at generation");
        for (gi, (hzi, gc)) in grad.iter_mut().zip(hz.iter().zip(&self.qp.g)) {
            *gi = hzi + gc;
        }
    }

    fn num_eq(&self) -> usize {
        self.qp.b_eq.len()
    }

    fn eq_constraints(&self, z: &[f64], out: &mut [f64]) {
        self.qp
            .a_eq
            .matvec(z, out)
            .expect("dimension fixed at generation");
        for (o, b) in out.iter_mut().zip(&self.qp.b_eq) {
            *o -= b;
        }
    }

    fn num_ineq(&self) -> usize {
        self.qp.b_in.len()
    }

    fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
        self.qp
            .a_in
            .matvec(z, out)
            .expect("dimension fixed at generation");
        for (o, b) in out.iter_mut().zip(&self.qp.b_in) {
            *o -= b;
        }
    }

    fn eq_jacobian_into(&self, _z: &[f64], out: &mut SparseMatrix) {
        out.clone_from(&self.qp.a_eq);
    }

    fn ineq_jacobian_into(&self, _z: &[f64], out: &mut SparseMatrix) {
        out.clone_from(&self.qp.a_in);
    }

    fn qp_structure(&self) -> Option<QpStructure> {
        self.qp.structure
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_optim::QpSolver;

    #[test]
    fn generation_is_deterministic() {
        for index in 0..QpFamily::ALL.len() {
            let a = generate(42, index);
            let b = generate(42, index);
            assert_eq!(a.name, b.name);
            assert_eq!(a.g, b.g);
            assert_eq!(a.b_in, b.b_in);
            assert_eq!(a.h.as_slice(), b.h.as_slice());
        }
        // Different seeds give different instances.
        let a = generate(1, 0);
        let b = generate(2, 0);
        assert_ne!(a.g, b.g);
    }

    #[test]
    fn feasible_families_hold_at_certificate() {
        for family in [
            QpFamily::WellConditioned,
            QpFamily::IllConditioned,
            QpFamily::RedundantConstraints,
            QpFamily::Banded,
        ] {
            for seed in 0..20 {
                let qp = generate_family(seed, family);
                let x = qp.interior_point.clone().expect("feasible family");
                let mut cz = vec![0.0; qp.b_in.len()];
                qp.a_in.matvec(&x, &mut cz).unwrap();
                for (i, (c, b)) in cz.iter().zip(&qp.b_in).enumerate() {
                    assert!(c < b, "{}: ineq {i} violated at certificate", qp.name);
                }
                let mut ez = vec![0.0; qp.b_eq.len()];
                qp.a_eq.matvec(&x, &mut ez).unwrap();
                for (e, b) in ez.iter().zip(&qp.b_eq) {
                    assert!((e - b).abs() < 1e-12, "{}: equality broken", qp.name);
                }
            }
        }
    }

    #[test]
    fn hessians_are_symmetric_and_solvable() {
        for seed in 0..10 {
            for family in QpFamily::ALL {
                let qp = generate_family(seed, family);
                assert!(qp.h.is_symmetric(1e-12), "{}", qp.name);
                if family.is_solvable() {
                    let sol = QpSolver::default()
                        .solve(&qp.to_problem().unwrap().as_view(), None, None)
                        .unwrap_or_else(|e| panic!("{} failed: {e}", qp.name));
                    assert!(sol.objective.is_finite());
                }
            }
        }
    }

    #[test]
    fn banded_instances_take_the_banded_backend() {
        for seed in 0..10 {
            let qp = generate_family(seed, QpFamily::Banded);
            let view = qp.view().unwrap();
            let w = view
                .planned_bandwidth()
                .expect("banded instance must produce a plan");
            assert!(w <= qp.structure.unwrap().bandwidth(), "{}", qp.name);
            let sol = QpSolver::default().solve(&view, None, None).unwrap();
            assert_eq!(sol.kkt_backend, ev_optim::QpKktBackend::Banded);
        }
    }

    #[test]
    fn nlp_adapter_matches_qp_solution() {
        let qp = generate_family(7, QpFamily::WellConditioned);
        let direct = QpSolver::default()
            .solve(&qp.to_problem().unwrap().as_view(), None, None)
            .unwrap();
        let nlp = QpAsNlp::new(qp);
        let z0 = vec![0.0; nlp.num_vars()];
        let result = ev_optim::SqpSolver::default()
            .solve(&nlp, &z0, None, ev_optim::NoopSqpObserver)
            .unwrap();
        assert!(result.is_converged());
        for (a, b) in result.z.iter().zip(&direct.z) {
            assert!((a - b).abs() < 1e-4, "sqp {a} vs qp {b}");
        }
    }
}
