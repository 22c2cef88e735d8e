//! Finite model finding (MACE-style, for small domains): the positive
//! counterpart to refutation. Where the prover certifies *entailment*
//! and the consistency audit certifies *contradiction*, a finite model
//! certifies *satisfiability* — e.g. that a proof's support set is
//! consistent, so the proof cannot be vacuous.
//!
//! Method: clausify, fix a domain `{0, …, n-1}`, enumerate function
//! interpretations (bounded), ground all clauses, and decide the
//! resulting propositional problem with DPLL (unit propagation +
//! backtracking). Domain sizes are tried in increasing order.
//!
//! [`Model::check`] is the independent half: it evaluates the *original*
//! formulas on the structure, with no clausification and no Skolem
//! functions involved, the way [`Proof::check`](crate::Proof::check)
//! replays a refutation without the prover.

use crate::clause::Clause;
use crate::cnf::Clausified;
use crate::formula::Formula;
use crate::prover::NamedFormula;
use crate::sym::Sym;
use crate::term::{Term, Var};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// A finite structure: a domain `{0, …, domain_size-1}`, a table per
/// function symbol and the set of true ground atoms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    /// Domain size.
    pub domain_size: usize,
    /// Function tables: `(f, arguments) ↦ value`. A cell not listed
    /// reads 0.
    pub functions: BTreeMap<(Sym, Vec<usize>), usize>,
    /// Ground atoms assigned true; every other atom is false. Equality
    /// is identity and never listed.
    pub true_atoms: BTreeSet<(Sym, Vec<usize>)>,
}

/// `f` or `f(0, 1)`.
fn write_app(f: &mut fmt::Formatter<'_>, sym: &Sym, args: &[usize]) -> fmt::Result {
    write!(f, "{sym}")?;
    if let Some((first, rest)) = args.split_first() {
        write!(f, "({first}")?;
        for a in rest {
            write!(f, ", {a}")?;
        }
        write!(f, ")")?;
    }
    Ok(())
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "model over domain {{0..{}}}:", self.domain_size.saturating_sub(1))?;
        for ((fun, args), val) in &self.functions {
            write!(f, "  ")?;
            write_app(f, fun, args)?;
            writeln!(f, " = {val}")?;
        }
        for (pred, args) in &self.true_atoms {
            write!(f, "  ")?;
            write_app(f, pred, args)?;
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Why [`Model::check`] rejected a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelError {
    /// The formula that fails.
    pub axiom: String,
    /// What is wrong with it.
    pub reason: &'static str,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "axiom {}: {}", self.axiom, self.reason)
    }
}

impl std::error::Error for ModelError {}

/// Largest table [`Model::check`] builds for one symbol.
const MAX_TABLE: usize = 1 << 24;

impl Model {
    /// Checks that every formula is true in this structure: quantifiers
    /// range over the domain, free variables are read universally,
    /// `if/then/else` and `<=>` are evaluated as written, and `=` is
    /// identity. The prover reads `=` as an uninterpreted predicate, of
    /// which identity is one interpretation, so a model that passes is
    /// also a model under the prover's reading: no refutation of
    /// `formulas` exists.
    ///
    /// # Errors
    ///
    /// The first formula that fails, with the reason. Defects of the
    /// structure itself (an empty domain, a table too large to build)
    /// are reported against the first formula.
    pub fn check(&self, formulas: &[NamedFormula]) -> Result<(), ModelError> {
        let Some(first) = formulas.first() else { return Ok(()) };
        let structure = Structure::of(self)
            .map_err(|reason| ModelError { axiom: first.name.clone(), reason })?;
        for f in formulas {
            let fail = |reason| ModelError { axiom: f.name.clone(), reason };
            match structure.quantified(&f.formula.free_vars(), true, &f.formula, &mut Vec::new()) {
                Ok(true) => {}
                Ok(false) => return Err(fail("is false in the model")),
                Err(reason) => return Err(fail(reason)),
            }
        }
        Ok(())
    }
}

/// A [`Model`]'s tables laid out for evaluation: one dense array per
/// `(symbol, arity)`, indexed by the arguments read as a base-`n`
/// number. Entries with an argument outside the domain can never be
/// read and are left out; a symbol without a table reads 0 or false,
/// whatever its arguments.
struct Structure<'m> {
    n: usize,
    funs: HashMap<(&'m str, usize), Vec<usize>>,
    preds: HashMap<(&'m str, usize), Vec<bool>>,
}

/// The dense index of `args` in a base-`n` table.
fn cell(args: &[usize], n: usize) -> usize {
    args.iter().fold(0, |i, a| i * n + a)
}

impl<'m> Structure<'m> {
    fn of(m: &'m Model) -> Result<Structure<'m>, &'static str> {
        let n = m.domain_size;
        if n == 0 {
            return Err("the domain is empty");
        }
        let size = |k: usize| n.checked_pow(k as u32).filter(|&s| s <= MAX_TABLE);
        let mut s = Structure { n, funs: HashMap::new(), preds: HashMap::new() };
        for ((f, args), &v) in &m.functions {
            if args.iter().all(|&a| a < n) {
                let len = size(args.len()).ok_or("a function table is too large to check")?;
                s.funs.entry((f.as_str(), args.len())).or_insert_with(|| vec![0; len])
                    [cell(args, n)] = v;
            }
        }
        for (p, args) in &m.true_atoms {
            if args.iter().all(|&a| a < n) {
                let len = size(args.len()).ok_or("a predicate table is too large to check")?;
                s.preds.entry((p.as_str(), args.len())).or_insert_with(|| vec![false; len])
                    [cell(args, n)] = true;
            }
        }
        Ok(s)
    }

    fn term(&self, t: &Term, env: &[(&Sym, usize)]) -> Result<usize, &'static str> {
        match t {
            Term::Var(v) => env
                .iter()
                .rev()
                .find(|(name, _)| *name == v.name())
                .map(|&(_, d)| d)
                .ok_or("has a variable no quantifier binds"),
            Term::App(f, args) => {
                let v = match self.funs.get(&(f.as_str(), args.len())) {
                    Some(t) => t[self.cell_of(args, env)?],
                    None => 0,
                };
                if v < self.n {
                    Ok(v)
                } else {
                    Err("reads a function value outside the domain")
                }
            }
        }
    }

    fn cell_of(&self, args: &[Term], env: &[(&Sym, usize)]) -> Result<usize, &'static str> {
        args.iter().try_fold(0, |i, a| Ok(i * self.n + self.term(a, env)?))
    }

    fn holds<'f>(
        &self,
        f: &'f Formula,
        env: &mut Vec<(&'f Sym, usize)>,
    ) -> Result<bool, &'static str> {
        Ok(match f {
            Formula::True => true,
            Formula::False => false,
            Formula::Pred(p, args) => match self.preds.get(&(p.as_str(), args.len())) {
                Some(t) => t[self.cell_of(args, env)?],
                None => false,
            },
            Formula::Eq(l, r) => self.term(l, env)? == self.term(r, env)?,
            Formula::Not(g) => !self.holds(g, env)?,
            Formula::And(fs) => {
                for g in fs {
                    if !self.holds(g, env)? {
                        return Ok(false);
                    }
                }
                true
            }
            Formula::Or(fs) => {
                for g in fs {
                    if self.holds(g, env)? {
                        return Ok(true);
                    }
                }
                false
            }
            Formula::Implies(a, b) => !self.holds(a, env)? || self.holds(b, env)?,
            Formula::Iff(a, b) => self.holds(a, env)? == self.holds(b, env)?,
            Formula::Ite(c, t, e) => {
                if self.holds(c, env)? {
                    self.holds(t, env)?
                } else {
                    self.holds(e, env)?
                }
            }
            Formula::Forall(vs, g) => self.quantified(vs, true, g, env)?,
            Formula::Exists(vs, g) => self.quantified(vs, false, g, env)?,
        })
    }

    /// `fa(vs) body` (`universal`) or `ex(vs) body`, over every
    /// assignment of the domain to `vs`.
    fn quantified<'f>(
        &self,
        vs: &'f [Var],
        universal: bool,
        body: &'f Formula,
        env: &mut Vec<(&'f Sym, usize)>,
    ) -> Result<bool, &'static str> {
        let base = env.len();
        env.extend(vs.iter().map(|v| (v.name(), 0)));
        loop {
            if self.holds(body, env)? != universal {
                env.truncate(base);
                return Ok(!universal);
            }
            if !advance(env[base..].iter_mut().rev().map(|(_, d)| d), self.n) {
                env.truncate(base);
                return Ok(universal);
            }
        }
    }
}

/// Steps `digits`, least significant first, to the next number in base
/// `n`; `false` once every digit has wrapped back to 0.
fn advance<'a>(digits: impl Iterator<Item = &'a mut usize>, n: usize) -> bool {
    for d in digits {
        *d += 1;
        if *d < n {
            return true;
        }
        *d = 0;
    }
    false
}

/// Limits for the search.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Largest domain size to try.
    pub max_domain: usize,
    /// Upper bound on total function-table choice bits per domain size
    /// (the enumeration is `domain^(cells)`; sizes above the budget are
    /// skipped).
    pub max_choice_bits: u32,
    /// Upper bound on estimated work per domain size (table
    /// combinations × (ground clause instances + ground atoms)); sizes
    /// above it are skipped.
    pub max_work: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig { max_domain: 2, max_choice_bits: 16, max_work: 500_000 }
    }
}

/// Searches for a finite model of `formulas` with domains `1..=max`.
///
/// Returns `None` when no model exists within the configured bounds
/// (which does **not** prove unsatisfiability — pair with the prover's
/// refutation for that direction). The model interprets the formulas'
/// own symbols: the tables of the Skolem functions the search needed
/// are dropped.
///
/// # Examples
///
/// ```
/// use mcv_logic::{find_model, ModelConfig, NamedFormula, parse_formula};
/// let axioms = vec![
///     NamedFormula::new("some_p", parse_formula("ex(x) P(x)").unwrap()),
///     NamedFormula::new("p_implies_q", parse_formula("fa(x) (P(x) => Q(x))").unwrap()),
/// ];
/// let model = find_model(&axioms, &ModelConfig::default()).expect("satisfiable");
/// assert_eq!(model.domain_size, 1);
/// assert_eq!(model.check(&axioms), Ok(()));
/// ```
pub fn find_model(formulas: &[NamedFormula], config: &ModelConfig) -> Option<Model> {
    find_model_of(formulas, &Clausified::of(formulas).clauses, config)
}

/// [`find_model`] on `clauses`, the clausal form of `formulas`.
fn find_model_of(
    formulas: &[NamedFormula],
    clauses: &[Clause],
    config: &ModelConfig,
) -> Option<Model> {
    if clauses.iter().any(Clause::is_empty) {
        return None;
    }
    let problem = Problem::compile(clauses);
    for n in 1..=config.max_domain {
        let pow = |k: usize| (n as u64).saturating_pow(k.min(u32::MAX as usize) as u32);
        let cells =
            |syms: &[(Sym, usize)]| syms.iter().map(|(_, k)| pow(*k)).fold(0, u64::saturating_add);
        // Choice bits: function table cells * log2(n).
        let fun_cells = cells(&problem.funs);
        let bits = fun_cells.saturating_mul((n as f64).log2().ceil() as u64);
        if n > 1 && bits > config.max_choice_bits as u64 {
            continue;
        }
        // Work estimate: table combinations × (ground instances + the
        // ground atom table each combination fills).
        let combos = pow(fun_cells.min(u32::MAX as u64) as usize);
        let instances = problem.clauses.iter().map(|c| pow(c.vars)).fold(0, u64::saturating_add);
        let per_combo = instances.saturating_add(cells(&problem.preds));
        if n > 1 && combos.saturating_mul(per_combo) > config.max_work {
            continue;
        }
        if let Some(mut m) = problem.try_domain(n) {
            let mut signature = BTreeSet::new();
            formulas.iter().for_each(|f| formula_funs(&f.formula, &mut signature));
            m.functions.retain(|(f, args), _| signature.contains(&(f.clone(), args.len())));
            return Some(m);
        }
    }
    None
}

/// The function symbols (anything in term position) of `t`, with arities.
fn collect_funs(t: &Term, out: &mut BTreeSet<(Sym, usize)>) {
    if let Term::App(f, args) = t {
        out.insert((f.clone(), args.len()));
        args.iter().for_each(|a| collect_funs(a, out));
    }
}

/// The function symbols of `f`, with arities.
fn formula_funs(f: &Formula, out: &mut BTreeSet<(Sym, usize)>) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Pred(_, args) => args.iter().for_each(|t| collect_funs(t, out)),
        Formula::Eq(l, r) => [l, r].into_iter().for_each(|t| collect_funs(t, out)),
        Formula::Not(g) | Formula::Forall(_, g) | Formula::Exists(_, g) => formula_funs(g, out),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| formula_funs(g, out)),
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            [a, b].into_iter().for_each(|g| formula_funs(g, out))
        }
        Formula::Ite(c, t, e) => [c, t, e].into_iter().for_each(|g| formula_funs(g, out)),
    }
}

/// A checked certificate of consistency: a model of `formulas` within
/// the default bounds that passes [`Model::check`].
pub fn checked_model(formulas: &[NamedFormula]) -> Option<Model> {
    checked_model_of(formulas, &Clausified::of(formulas).clauses)
}

/// [`checked_model`] on `clauses`, the clausal form of `formulas` (from
/// one fresh generator), without clausifying them again.
pub(crate) fn checked_model_of(formulas: &[NamedFormula], clauses: &[Clause]) -> Option<Model> {
    find_model_of(formulas, clauses, &ModelConfig::default()).filter(|m| m.check(formulas).is_ok())
}

/// A term over symbol numbers: a variable by its slot in the clause, a
/// function by its index in [`Problem::funs`].
enum Cterm {
    Var(usize),
    App(usize, Vec<Cterm>),
}

/// A literal over symbol numbers; `pred` is `None` for equality.
struct Clit {
    positive: bool,
    pred: Option<usize>,
    args: Vec<Cterm>,
}

/// A clause over symbol numbers, with its variable count.
struct Cclause {
    vars: usize,
    lits: Vec<Clit>,
}

/// A clause set with every symbol numbered once, so grounding is array
/// indexing: a function table is a run of cells, a ground atom a
/// predicate's base plus its arguments read in base `n`.
struct Problem {
    /// Function symbols (anything in term position), with arities, sorted.
    funs: Vec<(Sym, usize)>,
    /// Predicate symbols other than equality, with arities, sorted.
    preds: Vec<(Sym, usize)>,
    clauses: Vec<Cclause>,
}

/// Whether a literal is an equality, evaluated as identity.
fn is_equality(pred: &Sym, arity: usize) -> bool {
    arity == 2 && pred.as_str() == "="
}

impl Problem {
    fn compile(clauses: &[Clause]) -> Problem {
        fn term(t: &Term, funs: &[(Sym, usize)], vars: &mut Vec<Sym>) -> Cterm {
            match t {
                Term::Var(v) => {
                    Cterm::Var(vars.iter().position(|x| x == v.name()).unwrap_or_else(|| {
                        vars.push(v.name().clone());
                        vars.len() - 1
                    }))
                }
                Term::App(f, args) => Cterm::App(
                    funs.binary_search(&(f.clone(), args.len())).expect("collected"),
                    args.iter().map(|a| term(a, funs, vars)).collect(),
                ),
            }
        }
        let (mut funs, mut preds) = (BTreeSet::new(), BTreeSet::new());
        for l in clauses.iter().flat_map(|c| &c.literals) {
            if !is_equality(&l.pred, l.args.len()) {
                preds.insert((l.pred.clone(), l.args.len()));
            }
            l.args.iter().for_each(|t| collect_funs(t, &mut funs));
        }
        let funs: Vec<(Sym, usize)> = funs.into_iter().collect();
        let preds: Vec<(Sym, usize)> = preds.into_iter().collect();
        let clauses = clauses
            .iter()
            .map(|c| {
                let mut vars = Vec::new();
                let lits = c
                    .literals
                    .iter()
                    .map(|l| Clit {
                        positive: l.positive,
                        pred: (!is_equality(&l.pred, l.args.len())).then(|| {
                            preds.binary_search(&(l.pred.clone(), l.args.len())).expect("collected")
                        }),
                        args: l.args.iter().map(|t| term(t, &funs, &mut vars)).collect(),
                    })
                    .collect();
                Cclause { vars: vars.len(), lits }
            })
            .collect();
        Problem { funs, preds, clauses }
    }

    /// Enumerates function tables by odometer, first cell fastest.
    fn try_domain(&self, n: usize) -> Option<Model> {
        let fun_base = bases(&self.funs, n);
        let pred_base = bases(&self.preds, n);
        let mut cells = vec![0usize; fun_base[self.funs.len()]];
        loop {
            if let Some(model) = self.try_tables(n, &cells, &fun_base, &pred_base) {
                return Some(model);
            }
            if !advance(cells.iter_mut(), n) {
                return None;
            }
        }
    }

    /// Grounds the clauses under fixed tables and runs DPLL.
    fn try_tables(
        &self,
        n: usize,
        cells: &[usize],
        fun_base: &[usize],
        pred_base: &[usize],
    ) -> Option<Model> {
        let eval = |t: &Cterm, env: &[usize]| eval_term(t, env, cells, fun_base, n);
        // Ground atom (its index) ↦ DPLL variable, numbered on first sight.
        let mut ids = vec![usize::MAX; pred_base[self.preds.len()]];
        let mut atoms: Vec<usize> = Vec::new();
        let mut ground: Vec<Vec<(bool, usize)>> = Vec::new();
        let mut env = Vec::new();
        for c in &self.clauses {
            env.clear();
            env.resize(c.vars, 0);
            // Assignments in lexicographic order: last variable fastest.
            loop {
                let mut lits: Vec<(bool, usize)> = Vec::with_capacity(c.lits.len());
                let mut satisfied = false;
                for l in &c.lits {
                    let Some(p) = l.pred else {
                        if (eval(&l.args[0], &env) == eval(&l.args[1], &env)) == l.positive {
                            satisfied = true;
                            break;
                        }
                        continue;
                    };
                    let atom = pred_base[p] + l.args.iter().fold(0, |i, a| i * n + eval(a, &env));
                    if ids[atom] == usize::MAX {
                        ids[atom] = atoms.len();
                        atoms.push(atom);
                    }
                    lits.push((l.positive, ids[atom]));
                }
                if !satisfied {
                    if lits.is_empty() {
                        return None; // ground clause is false outright
                    }
                    lits.sort_unstable();
                    lits.dedup();
                    // p ∨ ¬p within one ground clause is a tautology.
                    if !lits.iter().any(|&(pos, id)| pos && lits.contains(&(false, id))) {
                        ground.push(lits);
                    }
                }
                if !advance(env.iter_mut().rev(), n) {
                    break;
                }
            }
        }
        let assignment = dpll(&ground, atoms.len())?;
        let functions = self
            .funs
            .iter()
            .zip(fun_base)
            .flat_map(|((f, k), &base)| {
                let len = n.pow(*k as u32);
                (0..len).map(move |i| ((f.clone(), digits(i, n, *k)), cells[base + i]))
            })
            .collect();
        let true_atoms = atoms
            .iter()
            .zip(&assignment)
            .filter(|(_, &value)| value)
            .map(|(&atom, _)| {
                let p = pred_base.partition_point(|&b| b <= atom) - 1;
                let (pred, k) = &self.preds[p];
                (pred.clone(), digits(atom - pred_base[p], n, *k))
            })
            .collect();
        Some(Model { domain_size: n, functions, true_atoms })
    }
}

/// Where each symbol's run of `n^arity` cells starts, plus the total.
fn bases(syms: &[(Sym, usize)], n: usize) -> Vec<usize> {
    let mut out = vec![0];
    for (_, k) in syms {
        out.push(out[out.len() - 1] + n.pow(*k as u32));
    }
    out
}

/// The `k` base-`n` digits of `i`, most significant first.
fn digits(mut i: usize, n: usize, k: usize) -> Vec<usize> {
    let mut out = vec![0; k];
    for d in out.iter_mut().rev() {
        *d = i % n;
        i /= n;
    }
    out
}

fn eval_term(t: &Cterm, env: &[usize], cells: &[usize], fun_base: &[usize], n: usize) -> usize {
    match t {
        Cterm::Var(slot) => env[*slot],
        Cterm::App(f, args) => {
            let i = args.iter().fold(0, |i, a| i * n + eval_term(a, env, cells, fun_base, n));
            cells[fun_base[*f] + i]
        }
    }
}

/// Plain DPLL with unit propagation.
fn dpll(clauses: &[Vec<(bool, usize)>], n_atoms: usize) -> Option<Vec<bool>> {
    let mut assignment: Vec<Option<bool>> = vec![None; n_atoms];
    fn solve(clauses: &[Vec<(bool, usize)>], assignment: &mut Vec<Option<bool>>) -> bool {
        // Unit propagation to fixpoint.
        let mut trail: Vec<usize> = Vec::new();
        loop {
            let mut changed = false;
            for c in clauses {
                let mut satisfied = false;
                let mut unassigned: Option<(bool, usize)> = None;
                let mut unassigned_count = 0;
                for &(pos, id) in c {
                    match assignment[id] {
                        Some(v) if v == pos => {
                            satisfied = true;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            unassigned = Some((pos, id));
                            unassigned_count += 1;
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match unassigned_count {
                    0 => {
                        for &t in &trail {
                            assignment[t] = None;
                        }
                        return false;
                    }
                    1 => {
                        let (pos, id) = unassigned.expect("counted");
                        assignment[id] = Some(pos);
                        trail.push(id);
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                break;
            }
        }
        // Pick a branch variable.
        match assignment.iter().position(Option::is_none) {
            None => true,
            Some(id) => {
                for v in [true, false] {
                    assignment[id] = Some(v);
                    if solve(clauses, assignment) {
                        return true;
                    }
                    assignment[id] = None;
                }
                for &t in &trail {
                    assignment[t] = None;
                }
                false
            }
        }
    }
    if solve(clauses, &mut assignment) {
        Some(assignment.into_iter().map(|v| v.unwrap_or(false)).collect())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::formula;

    fn ax(name: &str, src: &str) -> NamedFormula {
        NamedFormula::new(name, formula(src))
    }

    fn atom(p: &str, args: &[usize]) -> (Sym, Vec<usize>) {
        (Sym::new(p), args.to_vec())
    }

    #[test]
    fn satisfiable_set_has_size_1_model() {
        let axioms = vec![ax("a", "fa(x) (P(x) => Q(x))"), ax("b", "ex(x) P(x)")];
        let m = find_model(&axioms, &ModelConfig::default()).expect("model");
        assert_eq!(m.domain_size, 1);
        assert!(m.true_atoms.contains(&atom("P", &[0])));
        assert!(m.true_atoms.contains(&atom("Q", &[0])));
        assert_eq!(m.check(&axioms), Ok(()));
    }

    #[test]
    fn contradictory_set_has_no_model() {
        let axioms = vec![ax("a", "fa(x) ~(P(x)) & Q(x)"), ax("b", "fa(x) ~(Q(x)) & P(x)")];
        assert!(find_model(&axioms, &ModelConfig::default()).is_none());
    }

    #[test]
    fn needs_domain_2() {
        // ∃x∃y x≠y is unsatisfiable at size 1, satisfiable at size 2.
        let axioms = vec![ax("two", "ex(x, y) ~(x = y)")];
        let m = find_model(&axioms, &ModelConfig::default()).expect("model");
        assert_eq!(m.domain_size, 2);
        assert_eq!(m.check(&axioms), Ok(()));
    }

    #[test]
    fn functions_are_interpreted() {
        let axioms = vec![ax("f", "fa(x) P(f(x))"), ax("np", "ex(y) ~(P(y))")];
        // Needs f to avoid the non-P element: domain 2.
        let m = find_model(&axioms, &ModelConfig::default()).expect("model");
        assert_eq!(m.domain_size, 2);
        assert!(m.functions.keys().any(|(f, args)| f.as_str() == "f" && args.len() == 1));
        assert_eq!(m.check(&axioms), Ok(()));
    }

    #[test]
    fn empty_set_is_trivially_satisfiable() {
        let m = find_model(&[], &ModelConfig::default()).expect("model");
        assert_eq!(m.domain_size, 1);
    }

    #[test]
    fn model_display_lists_contents() {
        let axioms = vec![ax("p", "P(c())"), ax("r", "R(c(), c())")];
        let m = find_model(&axioms, &ModelConfig::default()).expect("model");
        assert_eq!(m.to_string(), "model over domain {0..0}:\n  c = 0\n  P(0)\n  R(0, 0)\n");
    }

    #[test]
    fn complements_the_prover() {
        // For a satisfiable set, prover saturates AND a model exists —
        // the two certificates agree.
        let axioms = vec![ax("a", "fa(x) (P(x) => Q(x))")];
        let res = crate::prover::Prover::new().prove(&axioms, &formula("Q(c())"));
        assert!(!res.is_proved());
        assert!(checked_model(&axioms).is_some());
    }

    #[test]
    fn check_evaluates_the_formulas_not_their_clauses() {
        // Iff, if/then/else and an existential under a universal, read
        // directly; the Skolem function the clauses need is not in the
        // structure at all.
        let axioms = vec![
            ax("iff", "fa(x) (P(x) <=> ~(Q(x)))"),
            ax("ite", "fa(x) (if P(x) then R(x) else ~(R(x)))"),
            ax("succ", "fa(x) ex(y) ~(x = y) & P(y)"),
        ];
        let m = Model {
            domain_size: 2,
            functions: BTreeMap::new(),
            true_atoms: [atom("P", &[0]), atom("P", &[1]), atom("R", &[0]), atom("R", &[1])].into(),
        };
        assert_eq!(m.check(&axioms), Ok(()));
        let mut no_r1 = m.clone();
        no_r1.true_atoms.remove(&atom("R", &[1]));
        assert_eq!(no_r1.check(&axioms).map_err(|e| e.axiom), Err("ite".to_owned()));
    }

    #[test]
    fn a_tampered_model_names_the_axiom_it_breaks() {
        let axioms = vec![ax("fc", "fa(x) P(f(x))"), ax("np", "ex(y) ~(P(y))")];
        let m = find_model(&axioms, &ModelConfig::default()).expect("model");
        assert_eq!(m.check(&axioms), Ok(()));
        // A flipped true atom: the element f maps onto is no longer P.
        let mut flipped = m.clone();
        let p = flipped.true_atoms.iter().next().expect("some P").clone();
        flipped.true_atoms.remove(&p);
        assert_eq!(flipped.check(&axioms).map_err(|e| e.axiom), Err("fc".to_owned()));
        // A changed table cell: f now maps onto the non-P element.
        let mut moved = m.clone();
        let non_p = (0..2).find(|&d| !m.true_atoms.contains(&atom("P", &[d]))).expect("a non-P");
        *moved.functions.values_mut().next().expect("a cell") = non_p;
        assert_eq!(moved.check(&axioms).map_err(|e| e.axiom), Err("fc".to_owned()));
        // A cell outside the domain, and an empty domain: errors, not panics.
        let mut outside = m.clone();
        *outside.functions.values_mut().next().expect("a cell") = 7;
        let e = outside.check(&axioms).expect_err("out of domain");
        assert_eq!(
            (e.axiom.as_str(), e.reason),
            ("fc", "reads a function value outside the domain")
        );
        let empty = Model { domain_size: 0, ..m };
        assert_eq!(empty.check(&axioms).map_err(|e| e.reason), Err("the domain is empty"));
    }
}
