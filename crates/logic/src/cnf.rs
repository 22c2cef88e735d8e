//! Clausification: formula → conjunctive normal form.
//!
//! Pipeline (standard, see e.g. Chang & Lee): universal closure →
//! connective elimination (`<=>`, `=>`, `if/then/else`) → negation
//! normal form → standardize binders apart → Skolemize existentials →
//! drop universals → clause set, built bottom-up over `&` / `or`.

use crate::clause::{Clause, Literal};
use crate::formula::Formula;
use crate::prover::NamedFormula;
use crate::subst::{FreshVars, Subst};
use crate::term::{Term, Var};

/// Converts a formula to an equisatisfiable set of clauses.
///
/// `fresh` supplies Skolem symbols and renamed variables; pass the same
/// generator for all formulas of one proof problem so names never clash.
///
/// # Examples
///
/// ```
/// use mcv_logic::{clausify, parse_formula, FreshVars};
/// let f = parse_formula("fa(x) (P(x) => Q(x))").unwrap();
/// let mut gen = FreshVars::new();
/// let clauses = clausify(&f, &mut gen);
/// assert_eq!(clauses.len(), 1);
/// assert_eq!(clauses[0].literals.len(), 2); // ~P(x) | Q(x)
/// ```
pub fn clausify(f: &Formula, fresh: &mut FreshVars) -> Vec<Clause> {
    let closed = f.clone().close_universally();
    let no_sugar = eliminate(&closed);
    let nnf = to_nnf(&no_sugar, true);
    let apart = standardize(&nnf, &mut Subst::new(), fresh);
    let sk = skolemize(&apart, &mut Vec::new(), fresh);
    let matrix = drop_universals(&sk);
    // Every literal of the matrix once, sorted: a literal's id is its
    // rank, so ids sort like literals and `Cnf` never clones one.
    let mut leaves = Vec::new();
    collect_literals(&matrix, &mut leaves);
    let mut table = leaves.clone();
    table.sort();
    table.dedup();
    let cnf = Cnf::new(&table);
    let mut leaf_ids = leaves.iter().map(|l| table.binary_search(l).expect("in the table"));
    let set = cnf.of(&matrix, &mut leaf_ids);
    cnf.clauses(set, &table)
}

/// A set of named formulas in clausal form, clausified in order from
/// one fresh generator.
#[derive(Clone)]
pub(crate) struct Clausified {
    /// The clauses of every formula, in order.
    pub clauses: Vec<Clause>,
    /// Per clause, the index of the formula it came from.
    pub origin: Vec<usize>,
    /// The generator after clausifying them.
    pub fresh: FreshVars,
}

impl Clausified {
    pub fn of(formulas: &[NamedFormula]) -> Clausified {
        let mut fresh = FreshVars::new();
        let (mut clauses, mut origin) = (Vec::new(), Vec::new());
        for (i, f) in formulas.iter().enumerate() {
            for c in clausify(&f.formula, &mut fresh) {
                clauses.push(c);
                origin.push(i);
            }
        }
        Clausified { clauses, origin, fresh }
    }
}

/// Removes `<=>`, `=>` and `if/then/else`.
fn eliminate(f: &Formula) -> Formula {
    match f {
        Formula::Implies(a, b) => Formula::or(Formula::not(eliminate(a)), eliminate(b)),
        Formula::Iff(a, b) => {
            let (a, b) = (eliminate(a), eliminate(b));
            Formula::and(
                Formula::or(Formula::not(a.clone()), b.clone()),
                Formula::or(Formula::not(b), a),
            )
        }
        Formula::Ite(c, t, e) => {
            let (c, t, e) = (eliminate(c), eliminate(t), eliminate(e));
            Formula::and(Formula::or(Formula::not(c.clone()), t), Formula::or(c, e))
        }
        Formula::Not(g) => Formula::not(eliminate(g)),
        Formula::And(fs) => Formula::And(fs.iter().map(eliminate).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(eliminate).collect()),
        Formula::Forall(vs, g) => Formula::Forall(vs.clone(), Box::new(eliminate(g))),
        Formula::Exists(vs, g) => Formula::Exists(vs.clone(), Box::new(eliminate(g))),
        other => other.clone(),
    }
}

/// Pushes negations to atoms. `positive` is the current polarity.
fn to_nnf(f: &Formula, positive: bool) -> Formula {
    match f {
        Formula::True => {
            if positive {
                Formula::True
            } else {
                Formula::False
            }
        }
        Formula::False => {
            if positive {
                Formula::False
            } else {
                Formula::True
            }
        }
        Formula::Pred(..) | Formula::Eq(..) => {
            if positive {
                f.clone()
            } else {
                Formula::not(f.clone())
            }
        }
        Formula::Not(g) => to_nnf(g, !positive),
        Formula::And(fs) => {
            let parts: Vec<Formula> = fs.iter().map(|g| to_nnf(g, positive)).collect();
            if positive {
                Formula::And(parts)
            } else {
                Formula::Or(parts)
            }
        }
        Formula::Or(fs) => {
            let parts: Vec<Formula> = fs.iter().map(|g| to_nnf(g, positive)).collect();
            if positive {
                Formula::Or(parts)
            } else {
                Formula::And(parts)
            }
        }
        Formula::Forall(vs, g) => {
            let body = Box::new(to_nnf(g, positive));
            if positive {
                Formula::Forall(vs.clone(), body)
            } else {
                Formula::Exists(vs.clone(), body)
            }
        }
        Formula::Exists(vs, g) => {
            let body = Box::new(to_nnf(g, positive));
            if positive {
                Formula::Exists(vs.clone(), body)
            } else {
                Formula::Forall(vs.clone(), body)
            }
        }
        Formula::Implies(..) | Formula::Iff(..) | Formula::Ite(..) => {
            unreachable!("eliminate() must run before to_nnf")
        }
    }
}

/// Renames bound variables so every binder introduces a unique name.
fn standardize(f: &Formula, renaming: &mut Subst, fresh: &mut FreshVars) -> Formula {
    match f {
        Formula::Pred(p, args) => {
            Formula::Pred(p.clone(), args.iter().map(|t| renaming.apply(t)).collect())
        }
        Formula::Eq(l, r) => Formula::Eq(renaming.apply(l), renaming.apply(r)),
        Formula::Not(g) => Formula::not(standardize(g, renaming, fresh)),
        Formula::And(fs) => {
            Formula::And(fs.iter().map(|g| standardize(g, renaming, fresh)).collect())
        }
        Formula::Or(fs) => {
            Formula::Or(fs.iter().map(|g| standardize(g, renaming, fresh)).collect())
        }
        Formula::Forall(vs, g) | Formula::Exists(vs, g) => {
            let mut inner = renaming.clone();
            let mut new_vs = Vec::with_capacity(vs.len());
            for v in vs {
                let nv = fresh.fresh(v);
                inner.bind(v.clone(), Term::var(nv.clone()));
                new_vs.push(nv);
            }
            let body = Box::new(standardize(g, &mut inner, fresh));
            if matches!(f, Formula::Forall(..)) {
                Formula::Forall(new_vs, body)
            } else {
                Formula::Exists(new_vs, body)
            }
        }
        other => other.clone(),
    }
}

/// Replaces existential variables with Skolem functions of the enclosing
/// universal variables.
fn skolemize(f: &Formula, universals: &mut Vec<Var>, fresh: &mut FreshVars) -> Formula {
    match f {
        Formula::Exists(vs, g) => {
            let mut s = Subst::new();
            for v in vs {
                let sk = fresh.fresh_sym(&format!("sk_{}", v.name()));
                let args: Vec<Term> = universals.iter().cloned().map(Term::var).collect();
                s.bind(v.clone(), Term::App(sk, args));
            }
            let body = apply_formula(g, &s);
            skolemize(&body, universals, fresh)
        }
        Formula::Forall(vs, g) => {
            universals.extend(vs.iter().cloned());
            let body = skolemize(g, universals, fresh);
            universals.truncate(universals.len() - vs.len());
            Formula::Forall(vs.clone(), Box::new(body))
        }
        Formula::Not(g) => Formula::not(skolemize(g, universals, fresh)),
        Formula::And(fs) => {
            Formula::And(fs.iter().map(|g| skolemize(g, universals, fresh)).collect())
        }
        Formula::Or(fs) => {
            Formula::Or(fs.iter().map(|g| skolemize(g, universals, fresh)).collect())
        }
        other => other.clone(),
    }
}

/// Applies a substitution to the terms of a quantifier-free-or-not formula.
fn apply_formula(f: &Formula, s: &Subst) -> Formula {
    match f {
        Formula::Pred(p, args) => {
            Formula::Pred(p.clone(), args.iter().map(|t| s.apply(t)).collect())
        }
        Formula::Eq(l, r) => Formula::Eq(s.apply(l), s.apply(r)),
        Formula::Not(g) => Formula::not(apply_formula(g, s)),
        Formula::And(fs) => Formula::And(fs.iter().map(|g| apply_formula(g, s)).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(|g| apply_formula(g, s)).collect()),
        Formula::Forall(vs, g) => Formula::Forall(vs.clone(), Box::new(apply_formula(g, s))),
        Formula::Exists(vs, g) => Formula::Exists(vs.clone(), Box::new(apply_formula(g, s))),
        other => other.clone(),
    }
}

fn drop_universals(f: &Formula) -> Formula {
    match f {
        Formula::Forall(_, g) => drop_universals(g),
        Formula::Not(g) => Formula::not(drop_universals(g)),
        Formula::And(fs) => Formula::And(fs.iter().map(drop_universals).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(drop_universals).collect()),
        other => other.clone(),
    }
}

/// The literals of an NNF matrix, one per leaf, left to right.
fn collect_literals(f: &Formula, out: &mut Vec<Literal>) {
    match f {
        Formula::True | Formula::False => {}
        Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| collect_literals(g, out)),
        _ => out.push(formula_to_literal(f)),
    }
}

/// Clause algebra over literal ids: a clause is a bitset of ids with
/// as many `u64` words as the literal table needs, stored beside the
/// bitset of its literals' complements. A union is an OR of both
/// halves, and a union holds a complementary pair exactly when its
/// literals meet its complements — the parts being tautology-free.
struct Cnf {
    /// Words per bitset.
    words: usize,
    /// `complement[id]`: the id of the literal's negation, if present.
    complement: Vec<Option<usize>>,
}

/// A clause set: clause `i` is `flat[i * 2w..][..2w]`, its literal
/// bitset then its complement bitset (`w` = [`Cnf::words`]).
type ClauseSet = Vec<u64>;

impl Cnf {
    fn new(table: &[Literal]) -> Cnf {
        let complement = table.iter().map(|l| table.binary_search(&l.negated()).ok()).collect();
        Cnf { words: table.len().div_ceil(64).max(1), complement }
    }

    /// The clause set of an NNF matrix, built bottom-up: a conjunction
    /// is the union of its conjuncts' clauses, a disjunction every union
    /// of one clause per disjunct. A clause holding a complementary pair
    /// is dropped the moment it forms — adding literals never un-makes a
    /// tautology. `leaf_ids` yields the ids of the matrix's leaves in
    /// [`collect_literals`] order. The set is the one distributing `or`
    /// over `&` top-down and then dropping tautologies yields.
    fn of(&self, f: &Formula, leaf_ids: &mut impl Iterator<Item = usize>) -> ClauseSet {
        let stride = 2 * self.words;
        let mut set = match f {
            Formula::True => Vec::new(),
            Formula::False => vec![0; stride],
            Formula::And(fs) => {
                let mut set = Vec::new();
                for g in fs {
                    set.extend(self.of(g, leaf_ids));
                }
                set
            }
            Formula::Or(fs) => {
                let mut acc = vec![0; stride];
                for (i, g) in fs.iter().enumerate() {
                    if acc.is_empty() {
                        // Nothing left to extend: skip the rest's leaves.
                        let rest = fs[i..].iter().map(leaf_count).sum();
                        leaf_ids.by_ref().take(rest).for_each(drop);
                        break;
                    }
                    let part = self.of(g, leaf_ids);
                    let mut next = Vec::with_capacity(acc.len() / stride * part.len());
                    for c in acc.chunks_exact(stride) {
                        for d in part.chunks_exact(stride) {
                            let start = next.len();
                            next.extend(c.iter().zip(d).map(|(x, y)| x | y));
                            let (lits, comps) = next[start..].split_at(self.words);
                            if lits.iter().zip(comps).any(|(l, n)| l & n != 0) {
                                next.truncate(start);
                            }
                        }
                    }
                    acc = next;
                }
                acc
            }
            _ => {
                let id = leaf_ids.next().expect("one id per leaf");
                let mut clause = vec![0; stride];
                clause[id / 64] |= 1 << (id % 64);
                if let Some(n) = self.complement[id] {
                    clause[self.words + n / 64] |= 1 << (n % 64);
                }
                clause
            }
        };
        self.dedup(&mut set);
        set
    }

    /// Sorts a clause set (in any fixed order) and drops repeats.
    fn dedup(&self, set: &mut ClauseSet) {
        let stride = 2 * self.words;
        if set.len() <= stride {
            return;
        }
        let mut order: Vec<&[u64]> = set.chunks_exact(stride).collect();
        order.sort_unstable();
        order.dedup();
        *set = order.concat();
    }

    /// The clauses, once: literals in id order (which is literal
    /// order) and the clause list sorted by its id sequences, the order
    /// sorting the sorted id vectors gives.
    fn clauses(&self, set: ClauseSet, table: &[Literal]) -> Vec<Clause> {
        let stride = 2 * self.words;
        let mut bits: Vec<&[u64]> = set.chunks_exact(stride).map(|c| &c[..self.words]).collect();
        bits.sort_unstable_by(|a, b| id_order(a, b));
        bits.into_iter()
            .map(|c| Clause { literals: ones(c).map(|id| table[id].clone()).collect() })
            .collect()
    }
}

/// The ids set in a bitset, ascending.
fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// Compares two bitsets as their ascending id sequences compare,
/// lexicographically. Below the lowest id in which they differ the two
/// sequences agree; the one holding that id is smaller unless the other
/// has no id above it (and is then a prefix of it).
fn id_order(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    for (w, (&x, &y)) in a.iter().zip(b).enumerate() {
        let diff = x ^ y;
        if diff == 0 {
            continue;
        }
        let bit = diff & diff.wrapping_neg();
        let a_has = x & bit != 0;
        let (word, rest) = if a_has { (y, &b[w + 1..]) } else { (x, &a[w + 1..]) };
        let other_goes_on = word & !(bit | (bit - 1)) != 0 || rest.iter().any(|&r| r != 0);
        return if a_has == other_goes_on {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        };
    }
    std::cmp::Ordering::Equal
}

/// The number of leaves [`collect_literals`] finds in `f`.
fn leaf_count(f: &Formula) -> usize {
    match f {
        Formula::True | Formula::False => 0,
        Formula::And(fs) | Formula::Or(fs) => fs.iter().map(leaf_count).sum(),
        _ => 1,
    }
}

fn formula_to_literal(f: &Formula) -> Literal {
    match f {
        Formula::Pred(p, args) => Literal::new(true, p.clone(), args.as_slice()),
        Formula::Eq(l, r) => Literal::new(true, "=", [l.clone(), r.clone()]),
        Formula::Not(g) => formula_to_literal(g).negated(),
        other => panic!("not a literal after NNF: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;
    use proptest::prelude::*;

    fn clauses(src: &str) -> Vec<Clause> {
        let f = parse_formula(src).expect("parse");
        clausify(&f, &mut FreshVars::new())
    }

    #[test]
    fn implication_becomes_one_clause() {
        let cs = clauses("fa(x) (P(x) => Q(x))");
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].literals.len(), 2);
    }

    #[test]
    fn conjunction_splits_into_clauses() {
        let cs = clauses("P & Q");
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn iff_becomes_two_clauses() {
        let cs = clauses("(P <=> Q)");
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn ite_becomes_two_clauses() {
        let cs = clauses("if C then T else E");
        assert_eq!(cs.len(), 2);
        // (~C | T) and (C | E)
        let rendered: Vec<String> = cs.iter().map(|c| c.to_string()).collect();
        assert!(rendered.iter().any(|s| s.contains("~C") && s.contains('T')), "{rendered:?}");
        assert!(rendered.iter().any(|s| s.contains('C') && s.contains('E')), "{rendered:?}");
    }

    #[test]
    fn existential_is_skolemized_to_function_of_universals() {
        let cs = clauses("fa(x) ex(y) R(x, y)");
        assert_eq!(cs.len(), 1);
        let lit = &cs[0].literals[0];
        // Second argument must be sk(x'), a function of the universal var.
        match &lit.args[1] {
            Term::App(f, args) => {
                assert!(f.as_str().starts_with("sk_"));
                assert_eq!(args.len(), 1);
            }
            other => panic!("expected skolem term, got {other}"),
        }
    }

    #[test]
    fn top_level_existential_becomes_constant() {
        let cs = clauses("ex(y) P(y)");
        match &cs[0].literals[0].args[0] {
            Term::App(f, args) => {
                assert!(f.as_str().starts_with("sk_"));
                assert!(args.is_empty());
            }
            other => panic!("expected skolem constant, got {other}"),
        }
    }

    #[test]
    fn distribution_is_correct_for_or_of_ands() {
        // (A & B) or (C & D) => 4 clauses.
        let cs = clauses("(A & B) or (C & D)");
        assert_eq!(cs.len(), 4);
    }

    #[test]
    fn tautologies_are_dropped() {
        let cs = clauses("P or ~(P)");
        assert!(cs.is_empty());
    }

    #[test]
    fn negated_quantifier_flips() {
        // ~(fa(x) P(x)) == ex(x) ~P(x): one unit clause with skolem constant.
        let cs = clauses("~(fa(x) P(x))");
        assert_eq!(cs.len(), 1);
        assert!(!cs[0].literals[0].positive);
    }

    #[test]
    fn a_table_of_more_than_128_literals_clausifies() {
        // 100 atoms in both polarities: 200 literals, four words, the
        // negative ones first. The two tautologies pair literals whose
        // ids sit in the second and the fourth word.
        let atom = |i: usize| Formula::prop(format!("A{i:02}"));
        let f = Formula::And(
            (0..50)
                .map(|k| Formula::iff(atom(2 * k), Formula::not(atom(2 * k + 1))))
                .chain([
                    Formula::Or((0..100).map(atom).collect()),
                    Formula::Or(vec![atom(98), atom(3), Formula::not(atom(98))]),
                    Formula::Or(vec![Formula::not(atom(70)), atom(70)]),
                ])
                .collect(),
        );
        let cs = clausify(&f, &mut FreshVars::new());
        assert_eq!(cs.len(), 101);
        assert_eq!(cs, reference(&f));
    }

    /// A formula in negation normal form, over literals.
    enum Nnf {
        Lit(Literal),
        And(Vec<Nnf>),
        Or(Vec<Nnf>),
    }

    fn nnf(f: &Formula, positive: bool) -> Nnf {
        let both = |fs: &[Formula], positive: bool| fs.iter().map(|g| nnf(g, positive)).collect();
        match (f, positive) {
            (Formula::True, true) | (Formula::False, false) => Nnf::And(Vec::new()),
            (Formula::True, false) | (Formula::False, true) => Nnf::Or(Vec::new()),
            (Formula::Pred(..) | Formula::Eq(..), _) => {
                let l = formula_to_literal(f);
                Nnf::Lit(if positive { l } else { l.negated() })
            }
            (Formula::Not(g), _) => nnf(g, !positive),
            (Formula::And(fs), true) | (Formula::Or(fs), false) => Nnf::And(both(fs, positive)),
            (Formula::Or(fs), true) | (Formula::And(fs), false) => Nnf::Or(both(fs, positive)),
            (Formula::Implies(a, b), _) => {
                nnf(&Formula::Or(vec![Formula::not((**a).clone()), (**b).clone()]), positive)
            }
            (Formula::Iff(a, b), _) => {
                let (a, b) = ((**a).clone(), (**b).clone());
                let there = Formula::Or(vec![Formula::not(a.clone()), b.clone()]);
                let back = Formula::Or(vec![Formula::not(b), a]);
                nnf(&Formula::And(vec![there, back]), positive)
            }
            (other, _) => panic!("not quantifier-free: {other}"),
        }
    }

    /// Distributes `or` over `&` top-down.
    fn distribute(n: &Nnf) -> Vec<Vec<Literal>> {
        match n {
            Nnf::Lit(l) => vec![vec![l.clone()]],
            Nnf::And(ns) => ns.iter().flat_map(distribute).collect(),
            Nnf::Or(ns) => ns.iter().fold(vec![Vec::new()], |acc, m| {
                let part = distribute(m);
                acc.iter().flat_map(|c| part.iter().map(move |d| [&c[..], d].concat())).collect()
            }),
        }
    }

    /// Clausification the textbook way: distribute top-down, drop
    /// tautologies, sort and dedup each clause, sort and dedup the list.
    fn reference(f: &Formula) -> Vec<Clause> {
        let mut clauses: Vec<Clause> = distribute(&nnf(f, true))
            .into_iter()
            .map(Clause::new)
            .filter(|c| !c.is_tautology())
            .collect();
        clauses.sort();
        clauses.dedup();
        clauses
    }

    /// Quantifier-free formulas of a few leaves over 70 atoms, so a
    /// conjunction of them fills a literal table past 64 and 128 ids.
    fn small_formula() -> impl Strategy<Value = Formula> {
        let leaf = prop_oneof![
            (0..70usize).prop_map(|i| Formula::prop(format!("A{i:02}"))),
            (0..70usize).prop_map(|i| Formula::not(Formula::prop(format!("A{i:02}")))),
            (0..70usize).prop_map(|i| Formula::pred("E", vec![Term::constant(format!("c{i}"))])),
            Just(Formula::True),
            Just(Formula::False),
        ];
        leaf.prop_recursive(2, 16, 4, |inner| {
            prop_oneof![
                inner.clone().prop_map(Formula::not),
                prop::collection::vec(inner.clone(), 2..5).prop_map(Formula::And),
                prop::collection::vec(inner.clone(), 2..5).prop_map(Formula::Or),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
                (inner.clone(), inner).prop_map(|(a, b)| Formula::iff(a, b)),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn clausify_is_the_textbook_clause_list(
            parts in prop::collection::vec(small_formula(), 4..96),
        ) {
            let f = Formula::And(parts);
            prop_assert_eq!(clausify(&f, &mut FreshVars::new()), reference(&f));
        }
    }
}
