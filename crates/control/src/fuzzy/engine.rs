//! A small Mamdani fuzzy-inference engine.
//!
//! The paper's second baseline (its ref [10]) is a fuzzy temperature
//! controller; this module provides the inference machinery it needs:
//! triangular/trapezoidal membership functions, min–max Mamdani
//! composition and centroid defuzzification.

/// A membership function over a real universe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MembershipFunction {
    /// Triangle with feet at `a` and `c` and peak at `b`.
    Triangle {
        /// Left foot.
        a: f64,
        /// Peak.
        b: f64,
        /// Right foot.
        c: f64,
    },
    /// Trapezoid with feet at `a`/`d` and plateau `b..c`.
    Trapezoid {
        /// Left foot.
        a: f64,
        /// Plateau start.
        b: f64,
        /// Plateau end.
        c: f64,
        /// Right foot.
        d: f64,
    },
}

impl MembershipFunction {
    /// Degree of membership of `x`, in `[0, 1]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ev_control::fuzzy::MembershipFunction;
    ///
    /// let tri = MembershipFunction::Triangle { a: 0.0, b: 1.0, c: 2.0 };
    /// assert_eq!(tri.degree(1.0), 1.0);
    /// assert_eq!(tri.degree(0.5), 0.5);
    /// assert_eq!(tri.degree(3.0), 0.0);
    /// ```
    #[must_use]
    pub fn degree(&self, x: f64) -> f64 {
        match *self {
            Self::Triangle { a, b, c } => {
                if x <= a || x >= c {
                    // A foot shared with the peak means a shoulder.
                    if (x <= a && a == b) || (x >= c && c == b) {
                        1.0
                    } else {
                        0.0
                    }
                } else if x <= b {
                    if b == a {
                        1.0
                    } else {
                        (x - a) / (b - a)
                    }
                } else if c == b {
                    1.0
                } else {
                    (c - x) / (c - b)
                }
            }
            Self::Trapezoid { a, b, c, d } => {
                if x < a || x > d {
                    0.0
                } else if x < b {
                    if b == a {
                        1.0
                    } else {
                        (x - a) / (b - a)
                    }
                } else if x <= c || d == c {
                    1.0
                } else {
                    (d - x) / (d - c)
                }
            }
        }
    }

    /// An interval outside which [`degree`](Self::degree) is exactly 0:
    /// unbounded on a shoulder side, and unbounded on both sides for a
    /// malformed (unordered or NaN) shape, whose degree is not confined.
    fn support(&self) -> (f64, f64) {
        match *self {
            Self::Triangle { a, b, c } if a <= b && b <= c => (
                if a == b { f64::NEG_INFINITY } else { a },
                if c == b { f64::INFINITY } else { c },
            ),
            Self::Trapezoid { a, d, .. } if a <= d => (a, d),
            _ => (f64::NEG_INFINITY, f64::INFINITY),
        }
    }
}

/// A named linguistic term: a label plus its membership function.
#[derive(Debug, Clone, PartialEq)]
pub struct Term {
    /// The label (e.g. `"negative-large"`).
    pub label: &'static str,
    /// The membership function.
    pub mf: MembershipFunction,
}

/// A fuzzy rule: IF input₀ is term(i₀) AND input₁ is term(i₁) … THEN
/// output is term(o). Antecedent indices refer to each input variable's
/// term list; `None` means "don't care".
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// One optional term index per input variable.
    pub antecedents: Vec<Option<usize>>,
    /// Output term index.
    pub consequent: usize,
}

/// A Mamdani fuzzy system with any number of inputs and one output.
///
/// Inference aggregates per firing consequent: the rules fold into one
/// strength per output term before defuzzification, so the centroid
/// costs one membership evaluation per firing output term and sample,
/// however many rules share that term.
///
/// # Examples
///
/// ```
/// use ev_control::fuzzy::{FuzzyEngine, MembershipFunction, Rule, Term};
///
/// // One input (error in [−1, 1]) with two terms, one output (duty).
/// let neg = Term { label: "neg", mf: MembershipFunction::Triangle { a: -1.0, b: -1.0, c: 0.0 } };
/// let pos = Term { label: "pos", mf: MembershipFunction::Triangle { a: 0.0, b: 1.0, c: 1.0 } };
/// let engine = FuzzyEngine::new(
///     vec![vec![neg.clone(), pos.clone()]],
///     vec![neg, pos],
///     (-1.0, 1.0),
///     vec![
///         Rule { antecedents: vec![Some(0)], consequent: 0 },
///         Rule { antecedents: vec![Some(1)], consequent: 1 },
///     ],
/// );
/// assert!(engine.infer(&[0.8]) > 0.3);
/// assert!(engine.infer(&[-0.8]) < -0.3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzyEngine {
    inputs: Vec<Vec<Term>>,
    output_terms: Vec<Term>,
    output_universe: (f64, f64),
    rules: Vec<Rule>,
}

impl FuzzyEngine {
    /// Resolution of the centroid integration.
    const SAMPLES: usize = 101;

    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if there are no inputs, output terms or rules, if the
    /// output universe is empty, or if any rule index is out of range.
    #[must_use]
    pub fn new(
        inputs: Vec<Vec<Term>>,
        output_terms: Vec<Term>,
        output_universe: (f64, f64),
        rules: Vec<Rule>,
    ) -> Self {
        assert!(!inputs.is_empty(), "fuzzy engine needs at least one input");
        assert!(!output_terms.is_empty(), "fuzzy engine needs output terms");
        assert!(!rules.is_empty(), "fuzzy engine needs rules");
        assert!(
            output_universe.1 > output_universe.0,
            "output universe must be a non-empty interval"
        );
        for rule in &rules {
            assert_eq!(
                rule.antecedents.len(),
                inputs.len(),
                "rule antecedent count must match input count"
            );
            for (var, term) in rule.antecedents.iter().enumerate() {
                if let Some(t) = term {
                    assert!(*t < inputs[var].len(), "rule antecedent index out of range");
                }
            }
            assert!(
                rule.consequent < output_terms.len(),
                "rule consequent index out of range"
            );
        }
        Self {
            inputs,
            output_terms,
            output_universe,
            rules,
        }
    }

    /// Runs Mamdani inference (min AND, max aggregation, centroid
    /// defuzzification) for crisp input values.
    ///
    /// Each input term's membership is evaluated once. The rules then
    /// fold into one strength per output term, the max over the rules
    /// with that consequent, and the centroid samples only the
    /// consequents that fire, each only over its support. Clipping
    /// commutes with the max over rules sharing a consequent
    /// (max_r min(s_r, μ(y)) = min(max_r s_r, μ(y))), so the result is
    /// bit-identical to clipping and aggregating rule by rule.
    ///
    /// Returns the centroid of the aggregated output set, or the universe
    /// midpoint when no rule fires.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` does not match the number of inputs.
    #[must_use]
    pub fn infer(&self, values: &[f64]) -> f64 {
        assert_eq!(
            values.len(),
            self.inputs.len(),
            "fuzzy input count mismatch"
        );
        // One buffer: every input term's degree, variable by variable,
        // then one aggregated strength per output term.
        let n_in: usize = self.inputs.iter().map(Vec::len).sum();
        let mut buf = Vec::with_capacity(n_in + self.output_terms.len());
        for (terms, &x) in self.inputs.iter().zip(values) {
            buf.extend(terms.iter().map(|term| term.mf.degree(x)));
        }
        buf.resize(n_in + self.output_terms.len(), 0.0);
        let (degrees, strengths) = buf.split_at_mut(n_in);
        for rule in &self.rules {
            let mut s: f64 = 1.0;
            let mut base = 0;
            for (terms, term) in self.inputs.iter().zip(&rule.antecedents) {
                if let Some(t) = term {
                    s = s.min(degrees[base + t]);
                }
                base += terms.len();
            }
            if s > 0.0 {
                let agg = &mut strengths[rule.consequent];
                *agg = agg.max(s);
            }
        }

        // Aggregate (max of clipped consequents) and take the centroid
        // over evenly spaced samples of the output universe.
        let (lo, hi) = self.output_universe;
        let mut ys = [0.0_f64; Self::SAMPLES];
        for (k, y) in ys.iter_mut().enumerate() {
            *y = lo + (hi - lo) * (k as f64) / ((Self::SAMPLES - 1) as f64);
        }
        // Aggregated membership per sample. Outside a term's support its
        // clipped degree is 0 and cannot raise the max, so it is skipped;
        // the negated test still evaluates a NaN sample.
        let mut mu = [0.0_f64; Self::SAMPLES];
        for (term, &s) in self.output_terms.iter().zip(&*strengths) {
            if s > 0.0 {
                let (from, to) = term.mf.support();
                for (m, &y) in mu.iter_mut().zip(&ys) {
                    if !(y < from || y > to) {
                        *m = m.max(s.min(term.mf.degree(y)));
                    }
                }
            }
        }
        let mut num = 0.0;
        let mut den = 0.0;
        for (&m, &y) in mu.iter().zip(&ys) {
            num += m * y;
            den += m;
        }
        if den == 0.0 {
            0.5 * (lo + hi)
        } else {
            num / den
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri(a: f64, b: f64, c: f64) -> MembershipFunction {
        MembershipFunction::Triangle { a, b, c }
    }

    #[test]
    fn triangle_degrees() {
        let m = tri(-1.0, 0.0, 2.0);
        assert_eq!(m.degree(-1.0), 0.0);
        assert_eq!(m.degree(0.0), 1.0);
        assert_eq!(m.degree(1.0), 0.5);
        assert_eq!(m.degree(2.0), 0.0);
        assert_eq!(m.degree(5.0), 0.0);
    }

    #[test]
    fn shoulder_triangles_saturate() {
        // Left shoulder: a == b.
        let left = tri(-1.0, -1.0, 0.0);
        assert_eq!(left.degree(-1.0), 1.0);
        assert_eq!(left.degree(-2.0), 1.0);
        assert_eq!(left.degree(-0.5), 0.5);
        // Right shoulder: b == c.
        let right = tri(0.0, 1.0, 1.0);
        assert_eq!(right.degree(1.0), 1.0);
        assert_eq!(right.degree(2.0), 1.0);
    }

    #[test]
    fn trapezoid_degrees() {
        let m = MembershipFunction::Trapezoid {
            a: 0.0,
            b: 1.0,
            c: 2.0,
            d: 4.0,
        };
        assert_eq!(m.degree(0.5), 0.5);
        assert_eq!(m.degree(1.5), 1.0);
        assert_eq!(m.degree(3.0), 0.5);
        assert_eq!(m.degree(5.0), 0.0);
    }

    fn two_term_engine() -> FuzzyEngine {
        let neg = Term {
            label: "neg",
            mf: tri(-1.0, -1.0, 0.0),
        };
        let pos = Term {
            label: "pos",
            mf: tri(0.0, 1.0, 1.0),
        };
        FuzzyEngine::new(
            vec![vec![neg.clone(), pos.clone()]],
            vec![neg, pos],
            (-1.0, 1.0),
            vec![
                Rule {
                    antecedents: vec![Some(0)],
                    consequent: 0,
                },
                Rule {
                    antecedents: vec![Some(1)],
                    consequent: 1,
                },
            ],
        )
    }

    #[test]
    fn inference_tracks_input_sign() {
        let e = two_term_engine();
        assert!(e.infer(&[0.9]) > 0.3);
        assert!(e.infer(&[-0.9]) < -0.3);
        // Balanced input fires both rules equally: centroid near zero.
        assert!(e.infer(&[0.0]).abs() < 0.05);
    }

    #[test]
    fn inference_is_monotone_for_monotone_rules() {
        let e = two_term_engine();
        let mut prev = f64::NEG_INFINITY;
        for k in 0..=20 {
            let x = -1.0 + 0.1 * f64::from(k);
            let y = e.infer(&[x]);
            assert!(y >= prev - 1e-9, "non-monotone at {x}");
            prev = y;
        }
    }

    #[test]
    fn dont_care_antecedents() {
        let any = Term {
            label: "any",
            mf: MembershipFunction::Trapezoid {
                a: -2.0,
                b: -1.0,
                c: 1.0,
                d: 2.0,
            },
        };
        let e = FuzzyEngine::new(
            vec![vec![any.clone()], vec![any.clone()]],
            vec![any],
            (0.0, 2.0),
            vec![Rule {
                antecedents: vec![None, Some(0)],
                consequent: 0,
            }],
        );
        // First input ignored entirely.
        assert_eq!(e.infer(&[99.0, 0.0]), e.infer(&[-99.0, 0.0]));
    }

    #[test]
    fn no_firing_returns_midpoint() {
        let narrow = Term {
            label: "narrow",
            mf: tri(0.4, 0.5, 0.6),
        };
        let e = FuzzyEngine::new(
            vec![vec![narrow.clone()]],
            vec![narrow],
            (0.0, 1.0),
            vec![Rule {
                antecedents: vec![Some(0)],
                consequent: 0,
            }],
        );
        assert_eq!(e.infer(&[-5.0]), 0.5);
    }

    #[test]
    #[should_panic(expected = "antecedent count")]
    fn rejects_malformed_rule() {
        let t = Term {
            label: "t",
            mf: tri(0.0, 0.5, 1.0),
        };
        let _ = FuzzyEngine::new(
            vec![vec![t.clone()], vec![t.clone()]],
            vec![t],
            (0.0, 1.0),
            vec![Rule {
                antecedents: vec![Some(0)],
                consequent: 0,
            }],
        );
    }

    /// The rule-by-rule Mamdani loop [`FuzzyEngine::infer`] replaced:
    /// one firing strength per rule, each rule's consequent clipped and
    /// max-aggregated at every centroid sample. Kept as the reference the
    /// per-consequent inference must match bit for bit.
    fn rule_by_rule(e: &FuzzyEngine, values: &[f64]) -> f64 {
        let strengths: Vec<f64> = e
            .rules
            .iter()
            .map(|rule| {
                rule.antecedents
                    .iter()
                    .enumerate()
                    .filter_map(|(var, term)| term.map(|t| e.inputs[var][t].mf.degree(values[var])))
                    .fold(1.0, f64::min)
            })
            .collect();
        let (lo, hi) = e.output_universe;
        let mut num = 0.0;
        let mut den = 0.0;
        for k in 0..FuzzyEngine::SAMPLES {
            let y = lo + (hi - lo) * (k as f64) / ((FuzzyEngine::SAMPLES - 1) as f64);
            let mut mu: f64 = 0.0;
            for (rule, &s) in e.rules.iter().zip(&strengths) {
                if s > 0.0 {
                    let clipped = s.min(e.output_terms[rule.consequent].mf.degree(y));
                    mu = mu.max(clipped);
                }
            }
            num += mu * y;
            den += mu;
        }
        if den == 0.0 {
            0.5 * (lo + hi)
        } else {
            num / den
        }
    }

    /// `n + 1` evenly spaced points over `[lo, hi]` plus the exact
    /// values `extra`.
    fn grid(lo: f64, hi: f64, n: u32, extra: &[f64]) -> Vec<f64> {
        (0..=n)
            .map(|k| lo + (hi - lo) * f64::from(k) / f64::from(n))
            .chain(extra.iter().copied())
            .collect()
    }

    fn assert_bit_identical(e: &FuzzyEngine, values: &[f64]) {
        let got = e.infer(values);
        let want = rule_by_rule(e, values);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "inputs {values:?}: per-consequent {got} vs rule-by-rule {want}"
        );
    }

    #[test]
    fn paper_rule_base_matches_rule_by_rule_bit_for_bit() {
        // The 5×3 base the fuzzy baseline controller runs, over the
        // clamped input square, its edges and centre, and beyond it.
        let e = super::super::FuzzyController::build_engine();
        let edges = [-1.0, -f64::EPSILON, 0.0, f64::EPSILON, 1.0, -7.5, 7.5];
        let error = grid(-1.2, 1.2, 240, &edges);
        let rate = grid(-1.2, 1.2, 120, &edges);
        for &x in &error {
            for &r in &rate {
                assert_bit_identical(&e, &[x, r]);
            }
        }
    }

    #[test]
    fn generic_rule_base_matches_rule_by_rule_bit_for_bit() {
        let term = |mf| Term { label: "t", mf };
        let trap = |a, b, c, d| MembershipFunction::Trapezoid { a, b, c, d };
        // Shoulders, a trapezoid and gaps where no input term holds.
        let in0 = vec![
            term(tri(-1.0, -1.0, 0.0)),
            term(tri(-0.5, 0.0, 0.5)),
            term(trap(0.2, 0.4, 0.6, 0.9)),
        ];
        let in1 = vec![term(tri(0.0, 0.5, 1.0)), term(tri(0.5, 1.0, 1.0))];
        let in2 = vec![term(trap(-3.0, -2.0, 2.0, 3.0))];
        // Output terms on (−2, 3): shoulders that saturate inside the
        // universe, a trapezoid, and an unordered triangle (a > b = c)
        // whose degree is 1 from c = 0 upward, below its left foot a = 1
        // too.
        let out = vec![
            term(tri(-1.5, -1.5, 0.0)),
            term(tri(-1.0, 0.5, 2.0)),
            term(trap(1.0, 1.5, 2.0, 3.0)),
            term(tri(2.0, 2.5, 2.5)),
            term(tri(1.0, 0.0, 0.0)),
        ];
        let rule = |antecedents: [Option<usize>; 3], consequent| Rule {
            antecedents: antecedents.to_vec(),
            consequent,
        };
        // Consequent 1 is shared by three rules; `None` is don't-care.
        let rules = vec![
            rule([Some(0), None, None], 0),
            rule([Some(1), Some(0), None], 1),
            rule([Some(2), Some(1), Some(0)], 1),
            rule([Some(0), Some(1), None], 1),
            rule([None, Some(1), None], 2),
            rule([Some(2), None, Some(0)], 3),
            rule([None, Some(0), Some(0)], 4),
        ];
        let e = FuzzyEngine::new(vec![in0, in1, in2], out, (-2.0, 3.0), rules);
        // No input term holds at (1.2, −1, 5): no rule fires.
        assert_eq!(e.infer(&[1.2, -1.0, 5.0]), 0.5);
        let edges = [-1.0, 0.0, 1.0, 1.2];
        let in0 = grid(-1.5, 1.5, 60, &edges);
        let in1 = grid(-1.5, 1.5, 60, &edges);
        for &x0 in &in0 {
            for &x1 in &in1 {
                for x2 in [-4.0, -2.5, 0.0, 2.999, 5.0] {
                    assert_bit_identical(&e, &[x0, x1, x2]);
                }
            }
        }
    }
}
