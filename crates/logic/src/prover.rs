//! A given-clause resolution prover in the style of SNARK/Otter.
//!
//! The thesis discharges its three global-property theorems with SNARK
//! behind Specware's `prove <thm> in <spec> using <axioms…>` form. The
//! `using` list is a *support set*: only the listed axioms participate.
//! [`Prover::prove`] mirrors that interface: the negated conjecture seeds
//! the set of support, axioms are usable side premises, and binary
//! resolution + factoring search for the empty clause.

use crate::clause::{Clause, Literal};
use crate::cnf::{clausify, Clausified};
use crate::formula::Formula;
use crate::model::{checked_model_of, Model};
use crate::subst::{FreshVars, Subst};
use crate::unify::unify;
use mcv_obs::{MetricsRegistry, MetricsSnapshot, Span};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Given-clause selection strategy (ablation target).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Selection {
    /// Pick the lightest clause first (best-first on symbol weight).
    #[default]
    LightestFirst,
    /// First in, first out (breadth-first).
    Fifo,
}

/// Resource limits and strategy for a proof attempt.
#[derive(Debug, Clone)]
pub struct ProverConfig {
    /// Maximum number of clauses generated before giving up.
    pub max_clauses: usize,
    /// Maximum symbol weight of a retained clause.
    pub max_weight: usize,
    /// Wall-clock budget.
    pub timeout: Duration,
    /// Forward subsumption on/off (ablation target).
    pub use_subsumption: bool,
    /// Given-clause selection strategy (ablation target).
    pub selection: Selection,
}

impl Default for ProverConfig {
    fn default() -> Self {
        ProverConfig {
            max_clauses: 200_000,
            max_weight: 80,
            timeout: Duration::from_secs(20),
            use_subsumption: true,
            selection: Selection::LightestFirst,
        }
    }
}

/// How a derived clause came to be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rule {
    /// Input axiom (with its name if known).
    Axiom(String),
    /// Clause of the negated conjecture.
    NegatedConjecture,
    /// Binary resolvent of the two parent indices.
    Resolve(usize, usize),
    /// Factor of the parent index.
    Factor(usize),
}

/// One step in a derivation.
#[derive(Debug, Clone)]
pub struct Step {
    /// The derived clause.
    pub clause: Clause,
    /// How it was derived.
    pub rule: Rule,
}

/// A successful refutation.
#[derive(Debug, Clone)]
pub struct Proof {
    /// All retained steps; the last is the empty clause.
    pub steps: Vec<Step>,
    /// Indices (into `steps`) of the steps actually used, in order.
    pub used: Vec<usize>,
    /// Search statistics: deterministic counters under `prover.*`
    /// (`generated`, `iterations`, `kept`, `subsumed`,
    /// `unify_attempts`) and wall-clock under the `wall.prover_ns`
    /// gauge. The same snapshot is emitted to the ambient
    /// [`mcv_obs::collect`] collector, if one is installed.
    pub stats: MetricsSnapshot,
}

impl Proof {
    /// Number of clauses generated during search.
    pub fn generated(&self) -> usize {
        self.stats.counter("prover.generated") as usize
    }

    /// Search time.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.stats.gauge("wall.prover_ns").unwrap_or(0.0) as u64)
    }

    /// The axiom names that contributed to the refutation.
    pub fn axioms_used(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .used
            .iter()
            .filter_map(|&i| match &self.steps[i].rule {
                Rule::Axiom(n) => Some(n.clone()),
                _ => None,
            })
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Length of the used derivation (number of inference steps).
    pub fn length(&self) -> usize {
        self.used.len()
    }
}

impl fmt::Display for Proof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "refutation in {} steps ({} clauses generated, {:?}):",
            self.used.len(),
            self.generated(),
            self.elapsed()
        )?;
        for &i in &self.used {
            let s = &self.steps[i];
            let rule = match &s.rule {
                Rule::Axiom(n) => format!("axiom {n}"),
                Rule::NegatedConjecture => "negated conjecture".to_owned(),
                Rule::Resolve(a, b) => format!("resolve({a}, {b})"),
                Rule::Factor(a) => format!("factor({a})"),
            };
            writeln!(f, "  [{i}] {}   <- {rule}", s.clause)?;
        }
        Ok(())
    }
}

/// Outcome of a proof attempt.
#[derive(Debug, Clone)]
pub enum ProofResult {
    /// A refutation of axioms ∧ ¬goal was found: the goal is a theorem.
    Proved(Proof),
    /// The search space was exhausted without refutation: the goal is
    /// *not* entailed (for a complete strategy on this fragment).
    Saturated {
        /// Number of clauses generated.
        generated: usize,
    },
    /// A resource limit was hit first.
    ResourceOut {
        /// Number of clauses generated before giving up.
        generated: usize,
    },
}

impl ProofResult {
    /// Whether the goal was proved.
    pub fn is_proved(&self) -> bool {
        matches!(self, ProofResult::Proved(_))
    }

    /// The proof, if any.
    pub fn proof(&self) -> Option<&Proof> {
        match self {
            ProofResult::Proved(p) => Some(p),
            _ => None,
        }
    }
}

/// Outcome of [`Prover::prove_using`]: a proof attempt plus its vacuity
/// verdict and, when there is one, the model that settled it.
#[derive(Debug, Clone)]
pub struct VettedProof {
    /// The direct proof attempt, or the refutation of the support set
    /// alone when `vacuous`.
    pub result: ProofResult,
    /// The support set alone is contradictory, so the goal follows from
    /// ⊥ whatever it says.
    pub vacuous: bool,
    /// A checked finite model of the support set: the witness that the
    /// proof is not vacuous.
    pub model: Option<Model>,
}

/// A named axiom for proof attempts. The formula is shared, so a
/// support set drawn from a spec's properties copies no tree.
#[derive(Debug, Clone)]
pub struct NamedFormula {
    /// Axiom name (as in the spec text).
    pub name: String,
    /// The formula.
    pub formula: Arc<Formula>,
}

impl NamedFormula {
    /// A named formula.
    pub fn new(name: impl Into<String>, formula: impl Into<Arc<Formula>>) -> Self {
        NamedFormula { name: name.into(), formula: formula.into() }
    }
}

/// The resolution prover.
///
/// # Examples
///
/// ```
/// use mcv_logic::{Prover, NamedFormula, parse_formula};
/// let axioms = vec![
///     NamedFormula::new("mortal", parse_formula("fa(x) (Man(x) => Mortal(x))").unwrap()),
///     NamedFormula::new("socrates", parse_formula("Man(socrates())").unwrap()),
/// ];
/// let goal = parse_formula("Mortal(socrates())").unwrap();
/// let result = Prover::new().prove(&axioms, &goal);
/// assert!(result.is_proved());
/// ```
#[derive(Debug, Default)]
pub struct Prover {
    config: ProverConfig,
}

impl Prover {
    /// A prover with default limits.
    pub fn new() -> Self {
        Prover { config: ProverConfig::default() }
    }

    /// A prover with explicit limits.
    pub fn with_config(config: ProverConfig) -> Self {
        Prover { config }
    }

    /// Attempts to prove `goal` from `axioms` by refutation.
    pub fn prove(&self, axioms: &[NamedFormula], goal: &Formula) -> ProofResult {
        self.search(axioms, Clausified::of(axioms), goal)
    }

    /// The given-clause search for a refutation of the clausified
    /// `support` (the clauses of `axioms`) and the negated `goal`.
    fn search(&self, axioms: &[NamedFormula], support: Clausified, goal: &Formula) -> ProofResult {
        let _span = Span::enter("prover.prove");
        let start = Instant::now();
        let mut stats = SearchStats::default();
        let Clausified { clauses, origin, mut fresh } = support;
        // Usable set: axiom clauses.
        let mut steps: Vec<Step> = clauses
            .into_iter()
            .zip(origin)
            .map(|(clause, i)| Step { clause, rule: Rule::Axiom(axioms[i].name.clone()) })
            .collect();
        let usable_end = steps.len();
        // Set of support: negated conjecture.
        let negated = Formula::not(goal.clone().close_universally());
        let mut sos_idx = Vec::new();
        for c in clausify(&negated, &mut fresh) {
            sos_idx.push(steps.len());
            steps.push(Step { clause: c, rule: Rule::NegatedConjecture });
        }
        // A trivially-true negated goal (e.g. goal = false) contributes no
        // support clauses; fall back to whole-set saturation so the prover
        // doubles as a consistency checker.
        let mut consistency_mode = false;
        if sos_idx.is_empty() {
            sos_idx = (0..usable_end).collect();
            consistency_mode = true;
        }
        stats.generated = steps.len() as u64;
        // One signature per step, pushed beside it.
        let mut sigs: Vec<Signature> = steps.iter().map(|s| Signature::of(&s.clause)).collect();
        // Trivial cases.
        for (i, s) in steps.iter().enumerate() {
            if s.clause.is_empty() {
                return ProofResult::Proved(finish(steps.clone(), i, stats.flush(start)));
            }
        }

        // Priority queue of unprocessed clause indices, lightest first;
        // ties broken by index for determinism.
        let key = |c: &Clause, cfg: &ProverConfig| -> usize {
            match cfg.selection {
                Selection::LightestFirst => c.weight(),
                Selection::Fifo => 0,
            }
        };
        let mut queue: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::new();
        for &i in &sos_idx {
            queue.push(Reverse((key(&steps[i].clause, &self.config), i)));
        }
        // Processed set: indices resolved so far (axioms are always usable).
        let mut processed: Vec<usize> =
            if consistency_mode { Vec::new() } else { (0..usable_end).collect() };
        // If any clause is discarded for weight, saturation no longer
        // implies non-entailment; report ResourceOut instead.
        let mut lossy = false;

        while let Some(Reverse((_, given_idx))) = queue.pop() {
            if start.elapsed() > self.config.timeout
                || stats.generated as usize > self.config.max_clauses
            {
                let generated = stats.flush(start).counter("prover.generated") as usize;
                return ProofResult::ResourceOut { generated };
            }
            stats.iterations += 1;
            let given = &steps[given_idx].clause;
            let given_sig = sigs[given_idx];
            // If something already processed subsumes the given clause, skip.
            if self.config.use_subsumption
                && processed
                    .iter()
                    .any(|&i| sigs[i].may_subsume(&given_sig) && steps[i].clause.subsumes(given))
            {
                stats.subsumed += 1;
                continue;
            }

            let mut new_clauses: Vec<(Clause, Rule)> = Vec::new();
            // Factoring.
            for c in factors(given, &mut fresh, &mut stats.unify_attempts) {
                new_clauses.push((c, Rule::Factor(given_idx)));
            }
            // Binary resolution against all processed clauses.
            for &other_idx in &processed {
                let other = &steps[other_idx].clause;
                if !have_complements(given, other) {
                    // No complementary pair: renaming both apart would
                    // only burn names. Burn them without the renaming, so
                    // every later fresh name stays what it would have been.
                    fresh.skip(given_sig.vars + sigs[other_idx].vars);
                    continue;
                }
                for c in resolvents(given, other, &mut fresh, &mut stats.unify_attempts) {
                    new_clauses.push((c, Rule::Resolve(given_idx, other_idx)));
                }
            }
            processed.push(given_idx);

            for (c, rule) in new_clauses {
                stats.generated += 1;
                if c.is_empty() {
                    let idx = steps.len();
                    steps.push(Step { clause: c, rule });
                    return ProofResult::Proved(finish(steps, idx, stats.flush(start)));
                }
                if c.is_tautology() {
                    continue;
                }
                if c.weight() > self.config.max_weight {
                    lossy = true;
                    continue;
                }
                // Forward subsumption against processed + queued.
                let sig = Signature::of(&c);
                if self.config.use_subsumption {
                    let subsumes =
                        |i: usize| sigs[i].may_subsume(&sig) && steps[i].clause.subsumes(&c);
                    if processed.iter().any(|&i| subsumes(i)) {
                        stats.subsumed += 1;
                        continue;
                    }
                    if queue.iter().any(|Reverse((_, i))| subsumes(*i)) {
                        stats.subsumed += 1;
                        continue;
                    }
                } else {
                    // Cheap duplicate check only.
                    let same = |i: usize| sigs[i] == sig && steps[i].clause == c;
                    if processed.iter().any(|&i| same(i))
                        || queue.iter().any(|Reverse((_, i))| same(*i))
                    {
                        continue;
                    }
                }
                stats.kept += 1;
                let idx = steps.len();
                queue.push(Reverse((key(&c, &self.config), idx)));
                steps.push(Step { clause: c, rule });
                sigs.push(sig);
            }
        }
        let generated = stats.flush(start).counter("prover.generated") as usize;
        if lossy {
            ProofResult::ResourceOut { generated }
        } else {
            ProofResult::Saturated { generated }
        }
    }

    /// Proves `goal` from a support set, Specware's `prove T in S using
    /// A1 A2 …`, and says whether the proof is vacuous. A finite model of
    /// the support set that passes [`Model::check`] shows it consistent,
    /// and only the direct proof runs. Without one, the support set is
    /// first saturated on its own: if that refutes it, the refutation is
    /// returned as the proof and `vacuous` is set (SNARK behind Specware
    /// accepts such proofs silently).
    ///
    /// The support set is clausified once: the finder, the pre-check and
    /// the direct search all start from the same clauses and the same
    /// fresh-name state, as each would from clausifying it anew.
    pub fn prove_using(&self, support: &[NamedFormula], goal: &Formula) -> VettedProof {
        let clausified = Clausified::of(support);
        let model = checked_model_of(support, &clausified.clauses);
        if model.is_none() {
            let consistency = self.search(support, clausified.clone(), &Formula::False);
            if consistency.is_proved() {
                return VettedProof { result: consistency, vacuous: true, model };
            }
        }
        VettedProof { result: self.search(support, clausified, goal), vacuous: false, model }
    }
}

/// Plain local counters for the given-clause loop: the hot path pays a
/// register increment, and the totals flush to the ambient collector
/// (and the returned snapshot) once, at the end of the search.
#[derive(Debug, Default)]
struct SearchStats {
    iterations: u64,
    generated: u64,
    kept: u64,
    subsumed: u64,
    unify_attempts: u64,
}

impl SearchStats {
    /// Freezes the counters (plus wall-clock under `wall.prover_ns`)
    /// and emits them to the installed collector, if any.
    fn flush(&self, start: Instant) -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.add("prover.iterations", self.iterations);
        reg.add("prover.generated", self.generated);
        reg.add("prover.kept", self.kept);
        reg.add("prover.subsumed", self.subsumed);
        reg.add("prover.unify_attempts", self.unify_attempts);
        reg.set_gauge("wall.prover_ns", start.elapsed().as_nanos() as f64);
        let snap = reg.snapshot();
        mcv_obs::absorb(&snap);
        snap
    }
}

/// What a clause's literals can match, folded into a few words: a
/// pre-test that only ever skips work whose outcome it already knows.
/// `a` θ-subsumes `b` only if `a` has no more literals than `b` (the
/// same length test [`Clause::subsumes`] starts with) and every
/// (predicate, polarity, arity) of `a` occurs in `b`. Bits are a fixed
/// FNV-1a hash of that key, so a collision costs a full test, never a
/// missed one, and nothing here depends on the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Signature {
    /// Literal count.
    len: usize,
    /// One bit per (predicate, polarity, arity) present.
    keys: u64,
    /// Distinct variables: the names renaming the clause apart mints.
    vars: usize,
}

impl Signature {
    fn of(c: &Clause) -> Signature {
        let bit = |l: &Literal| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let key = l.pred.as_str().bytes().chain([l.args.len() as u8, l.positive as u8]);
            for b in key {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            1u64 << (h >> 58)
        };
        let keys = c.literals.iter().fold(0, |keys, l| keys | bit(l));
        Signature { len: c.literals.len(), keys, vars: c.var_count() }
    }

    fn may_subsume(&self, other: &Signature) -> bool {
        self.len <= other.len && self.keys & !other.keys == 0
    }
}

fn finish(steps: Vec<Step>, empty_idx: usize, stats: MetricsSnapshot) -> Proof {
    // Walk parents back from the empty clause.
    let mut used = Vec::new();
    let mut stack = vec![empty_idx];
    let mut seen = vec![false; steps.len()];
    while let Some(i) = stack.pop() {
        if seen[i] {
            continue;
        }
        seen[i] = true;
        used.push(i);
        match &steps[i].rule {
            Rule::Resolve(a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
            Rule::Factor(a) => stack.push(*a),
            _ => {}
        }
    }
    used.sort_unstable();
    Proof { steps, used, stats }
}

/// Whether `la` and `lb` could resolve: same predicate and arity,
/// opposite polarity.
fn complementary(la: &Literal, lb: &Literal) -> bool {
    la.positive != lb.positive && la.pred == lb.pred && la.args.len() == lb.args.len()
}

/// Whether some literal pair of `a` × `b` is [`complementary`]: without
/// one, [`resolvents`] finds nothing.
fn have_complements(a: &Clause, b: &Clause) -> bool {
    a.literals.iter().any(|la| b.literals.iter().any(|lb| complementary(la, lb)))
}

/// All binary resolvents of two clauses (variables renamed apart).
fn resolvents(a: &Clause, b: &Clause, fresh: &mut FreshVars, attempts: &mut u64) -> Vec<Clause> {
    let a = a.rename_apart(fresh);
    let b = b.rename_apart(fresh);
    let mut out = Vec::new();
    for (i, la) in a.literals.iter().enumerate() {
        for (j, lb) in b.literals.iter().enumerate() {
            if !complementary(la, lb) {
                continue;
            }
            *attempts += 1;
            let mut s = Subst::new();
            let ok = la.args.iter().zip(lb.args.iter()).all(|(x, y)| unify(x, y, &mut s));
            if !ok {
                continue;
            }
            let mut lits: Vec<Literal> = Vec::new();
            for (k, l) in a.literals.iter().enumerate() {
                if k != i {
                    lits.push(l.apply(&s));
                }
            }
            for (k, l) in b.literals.iter().enumerate() {
                if k != j {
                    lits.push(l.apply(&s));
                }
            }
            out.push(Clause::new(lits));
        }
    }
    out
}

/// All binary factors of a clause.
fn factors(c: &Clause, fresh: &mut FreshVars, attempts: &mut u64) -> Vec<Clause> {
    let c = c.rename_apart(fresh);
    let mut out = Vec::new();
    for i in 0..c.literals.len() {
        for j in (i + 1)..c.literals.len() {
            let (li, lj) = (&c.literals[i], &c.literals[j]);
            if li.positive != lj.positive || li.pred != lj.pred || li.args.len() != lj.args.len() {
                continue;
            }
            *attempts += 1;
            let mut s = Subst::new();
            let ok = li.args.iter().zip(lj.args.iter()).all(|(x, y)| unify(x, y, &mut s));
            if !ok {
                continue;
            }
            let lits: Vec<Literal> = c
                .literals
                .iter()
                .enumerate()
                .filter(|(k, _)| *k != j)
                .map(|(_, l)| l.apply(&s))
                .collect();
            out.push(Clause::new(lits));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::formula;

    fn ax(name: &str, src: &str) -> NamedFormula {
        NamedFormula::new(name, formula(src))
    }

    #[test]
    fn modus_ponens_chain() {
        let axioms = vec![
            ax("a1", "fa(x) (P(x) => Q(x))"),
            ax("a2", "fa(x) (Q(x) => R(x))"),
            ax("a3", "P(c())"),
        ];
        let res = Prover::new().prove(&axioms, &formula("R(c())"));
        assert!(res.is_proved());
        let proof = res.proof().unwrap();
        assert!(proof.axioms_used().contains(&"a1".to_owned()));
    }

    #[test]
    fn unprovable_goal_saturates() {
        let axioms = vec![ax("a1", "fa(x) (P(x) => Q(x))")];
        let res = Prover::new().prove(&axioms, &formula("Q(c())"));
        assert!(matches!(res, ProofResult::Saturated { .. }), "{res:?}");
    }

    #[test]
    fn proof_by_case_split() {
        // (A or B), (A => C), (B => C) |- C
        let axioms = vec![ax("cases", "A or B"), ax("l", "A => C"), ax("r", "B => C")];
        assert!(Prover::new().prove(&axioms, &formula("C")).is_proved());
    }

    #[test]
    fn proves_exactly_the_entailed_goals_of_a_problem_battery() {
        let battery: Vec<(Vec<NamedFormula>, Formula, bool)> = vec![
            (vec![ax("a", "fa(x) (P(x) => Q(x))"), ax("b", "P(c())")], formula("Q(c())"), true),
            (vec![ax("a", "A or B"), ax("l", "A => C"), ax("r", "B => C")], formula("C"), true),
            (vec![ax("a", "fa(x) (P(x) => Q(x))")], formula("Q(c())"), false),
            (
                vec![ax("a", "fa(x, y) (R(x, y) => R(y, x))"), ax("b", "R(a(), b())")],
                formula("R(b(), a())"),
                true,
            ),
        ];
        for (axioms, goal, expected) in battery {
            assert_eq!(Prover::new().prove(&axioms, &goal).is_proved(), expected, "{goal}");
        }
    }

    #[test]
    fn quantifier_instantiation_via_unification() {
        let axioms = vec![
            ax("agree", "fa(p, q, m, T) (Deliver(p, m, T) => Deliver(q, m, T))"),
            ax("fact", "Deliver(a(), msg(), t0())"),
        ];
        assert!(Prover::new().prove(&axioms, &formula("Deliver(b(), msg(), t0())")).is_proved());
    }

    #[test]
    fn needs_factoring() {
        // P(x) | P(y) and ~P(u) | ~P(v) require factoring to refute.
        let axioms = vec![ax("a", "fa(x, y) P(x) or P(y)")];
        let res = Prover::new().prove(&axioms, &formula("ex(u) P(u)"));
        assert!(res.is_proved());
    }

    #[test]
    fn existential_goal() {
        let axioms = vec![ax("f", "Q(d())")];
        assert!(Prover::new().prove(&axioms, &formula("ex(x) Q(x)")).is_proved());
    }

    #[test]
    fn inconsistent_axioms_prove_false() {
        // The thesis' axiom pairs like `Broadcast`/`Deliver` are jointly
        // inconsistent; the prover can certify that by proving `false`.
        let axioms = vec![
            ax("broadcast", "fa(p, m, T) ~(Deliver(p, m, T)) & Broadcast(p, m, T)"),
            ax("deliver", "fa(p, m, T) ~(Broadcast(p, m, T)) & Deliver(p, m, T)"),
        ];
        let res = Prover::new().prove(&axioms, &Formula::False);
        assert!(res.is_proved());
    }

    #[test]
    fn prove_using_settles_vacuity_by_a_model_or_a_refutation() {
        let consistent = vec![ax("a1", "fa(x) (P(x) => Q(x))"), ax("a2", "P(c())")];
        let v = Prover::new().prove_using(&consistent, &formula("Q(c())"));
        assert!(v.result.is_proved() && !v.vacuous, "{v:?}");
        assert_eq!(v.model.expect("a witness").check(&consistent), Ok(()));
        let contradictory = vec![ax("p", "P(c())"), ax("np", "~(P(c()))")];
        let v = Prover::new().prove_using(&contradictory, &formula("Q(c())"));
        assert!(v.result.is_proved() && v.vacuous && v.model.is_none(), "{v:?}");
        assert_eq!(v.result.proof().expect("refuted").axioms_used(), ["np", "p"]);
    }

    #[test]
    fn resource_limits_are_respected() {
        let cfg = ProverConfig {
            max_clauses: 10,
            timeout: Duration::from_secs(5),
            ..ProverConfig::default()
        };
        // A goal needing more than 10 clauses of search on growing terms.
        let axioms = vec![ax("succ", "fa(x) (N(x) => N(s(x)))"), ax("zero", "N(z())")];
        let res = Prover::with_config(cfg).prove(&axioms, &formula("M(z())"));
        assert!(matches!(res, ProofResult::ResourceOut { .. } | ProofResult::Saturated { .. }));
    }

    #[test]
    fn ablations_still_prove_but_search_differently() {
        let axioms = vec![
            ax("a1", "fa(x) (P(x) => Q(x))"),
            ax("a2", "fa(x) (Q(x) => R(x))"),
            ax("a3", "fa(x) (R(x) => S(x))"),
            ax("base", "P(c())"),
        ];
        let goal = formula("S(c())");
        let default = Prover::new().prove(&axioms, &goal);
        let no_subsumption =
            Prover::with_config(ProverConfig { use_subsumption: false, ..ProverConfig::default() })
                .prove(&axioms, &goal);
        let fifo = Prover::with_config(ProverConfig {
            selection: Selection::Fifo,
            ..ProverConfig::default()
        })
        .prove(&axioms, &goal);
        for r in [&default, &no_subsumption, &fifo] {
            assert!(r.is_proved(), "{r:?}");
        }
    }

    #[test]
    fn subsumption_prunes_the_search() {
        // A redundant, more specific axiom inflates the no-subsumption
        // search but is absorbed when subsumption is on.
        let axioms = vec![
            ax("gen", "fa(x, y) P(x, y)"),
            ax("spec1", "fa(x) P(x, c())"),
            ax("spec2", "fa(y) P(c(), y)"),
            ax("imp", "fa(x, y) (P(x, y) => Q(x, y))"),
        ];
        let goal = formula("Q(c(), c())");
        let with = Prover::new().prove(&axioms, &goal);
        let without =
            Prover::with_config(ProverConfig { use_subsumption: false, ..ProverConfig::default() })
                .prove(&axioms, &goal);
        let gw = with.proof().expect("proved").generated();
        let gwo = without.proof().expect("proved").generated();
        assert!(gw <= gwo, "subsumption generated {gw} vs {gwo} without");
    }

    #[test]
    fn proof_stats_are_populated_and_reach_the_collector() {
        let axioms = vec![ax("a1", "fa(x) (P(x) => Q(x))"), ax("a2", "P(c())")];
        let (res, data) = mcv_obs::collect(|| Prover::new().prove(&axioms, &formula("Q(c())")));
        let proof = res.proof().expect("proved");
        assert!(proof.generated() > 0);
        assert!(proof.stats.counter("prover.iterations") > 0);
        assert!(proof.stats.counter("prover.unify_attempts") > 0);
        // The same totals were emitted to the ambient collector.
        assert_eq!(
            data.metrics.counter("prover.generated"),
            proof.stats.counter("prover.generated")
        );
        assert_eq!(data.spans[0].name, "prover.prove");
        assert_eq!(data.spans[0].calls, 1);
    }

    #[test]
    fn proof_display_is_nonempty() {
        let axioms = vec![ax("a3", "P(c())")];
        let res = Prover::new().prove(&axioms, &formula("P(c())"));
        let text = res.proof().unwrap().to_string();
        assert!(text.contains("refutation"));
    }
}
