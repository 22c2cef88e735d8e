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

use crate::clause::{Clause, Literal};
use crate::cnf::clausify;
use crate::prover::NamedFormula;
use crate::subst::FreshVars;
use crate::sym::Sym;
use crate::term::Term;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A finite interpretation satisfying a formula set.
#[derive(Debug, Clone)]
pub struct Model {
    /// Domain size.
    pub domain_size: usize,
    /// Ground atoms assigned true, rendered as `P(0, 1)`.
    pub true_atoms: BTreeSet<String>,
    /// Function tables, rendered as `f(0, 1) = 0`.
    pub functions: BTreeSet<String>,
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "model over domain {{0..{}}}:", self.domain_size - 1)?;
        for fun in &self.functions {
            writeln!(f, "  {fun}")?;
        }
        for atom in &self.true_atoms {
            writeln!(f, "  {atom}")?;
        }
        Ok(())
    }
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
    /// Upper bound on estimated work per domain size
    /// (table combinations × ground clause instances); sizes above it
    /// are skipped.
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
/// refutation for that direction).
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
/// ```
pub fn find_model(formulas: &[NamedFormula], config: &ModelConfig) -> Option<Model> {
    let mut fresh = FreshVars::new();
    let mut clauses: Vec<Clause> = Vec::new();
    for f in formulas {
        clauses.extend(clausify(&f.formula, &mut fresh));
    }
    if clauses.is_empty() {
        return Some(Model {
            domain_size: 1,
            true_atoms: BTreeSet::new(),
            functions: BTreeSet::new(),
        });
    }
    if clauses.iter().any(Clause::is_empty) {
        return None;
    }
    // Function symbols (anything in term position), with arities.
    let mut funs: BTreeMap<(Sym, usize), ()> = BTreeMap::new();
    for c in &clauses {
        for l in &c.literals {
            for t in &l.args {
                collect_funs(t, &mut funs);
            }
        }
    }
    let funs: Vec<(Sym, usize)> = funs.into_keys().collect();

    for n in 1..=config.max_domain {
        // Choice bits: sum over functions of cells * log2(n).
        let bits: u64 = funs
            .iter()
            .map(|(_, k)| (n as u64).pow(*k as u32) * (n as f64).log2().ceil() as u64)
            .sum();
        if n > 1 && bits > config.max_choice_bits as u64 {
            continue;
        }
        // Work estimate: table combinations × ground instances.
        let combos = (n as u64).saturating_pow(
            funs.iter()
                .map(|(_, k)| (n as u64).saturating_pow(*k as u32))
                .sum::<u64>()
                .min(u32::MAX as u64) as u32,
        );
        let instances: u64 = clauses
            .iter()
            .map(|c| {
                let vars = clause_var_count(c);
                (n as u64).saturating_pow(vars.min(u32::MAX as usize) as u32)
            })
            .sum();
        if n > 1 && combos.saturating_mul(instances) > config.max_work {
            continue;
        }
        if let Some(m) = try_domain(&clauses, &funs, n) {
            return Some(m);
        }
    }
    None
}

fn clause_var_count(c: &Clause) -> usize {
    let mut seen = BTreeSet::new();
    for l in &c.literals {
        for t in &l.args {
            for v in t.vars() {
                seen.insert(v.name().clone());
            }
        }
    }
    seen.len()
}

fn collect_funs(t: &Term, out: &mut BTreeMap<(Sym, usize), ()>) {
    if let Term::App(f, args) = t {
        out.insert((f.clone(), args.len()), ());
        for a in args {
            collect_funs(a, out);
        }
    }
}

/// One function's table: arguments tuple → value.
type Table = BTreeMap<Vec<usize>, usize>;

type CellPlan = Vec<((Sym, usize), Vec<Vec<usize>>)>;

fn try_domain(clauses: &[Clause], funs: &[(Sym, usize)], n: usize) -> Option<Model> {
    // Enumerate function tables by odometer.
    let mut cells: CellPlan = Vec::new();
    for (f, k) in funs {
        cells.push(((f.clone(), *k), tuples(n, *k)));
    }
    let total_cells: usize = cells.iter().map(|(_, t)| t.len()).sum();
    let mut odometer = vec![0usize; total_cells];
    loop {
        // Build tables from the odometer.
        let mut tables: BTreeMap<(Sym, usize), Table> = BTreeMap::new();
        let mut idx = 0;
        for ((f, k), tuple_list) in &cells {
            let mut table = Table::new();
            for tup in tuple_list {
                table.insert(tup.clone(), odometer[idx]);
                idx += 1;
            }
            tables.insert((f.clone(), *k), table);
        }
        if let Some(model) = try_tables(clauses, &tables, n) {
            return Some(model);
        }
        // Advance odometer.
        let mut pos = 0;
        loop {
            if pos == odometer.len() {
                return None;
            }
            odometer[pos] += 1;
            if odometer[pos] < n {
                break;
            }
            odometer[pos] = 0;
            pos += 1;
        }
    }
}

fn tuples(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new()];
    for _ in 0..k {
        let mut next = Vec::new();
        for t in &out {
            for d in 0..n {
                let mut t2 = t.clone();
                t2.push(d);
                next.push(t2);
            }
        }
        out = next;
    }
    out
}

/// Grounds the clauses under fixed tables and runs DPLL.
fn try_tables(
    clauses: &[Clause],
    tables: &BTreeMap<(Sym, usize), Table>,
    n: usize,
) -> Option<Model> {
    let mut atom_ids: BTreeMap<String, usize> = BTreeMap::new();
    let mut ground: Vec<Vec<(bool, usize)>> = Vec::new();
    for c in clauses {
        // Variables of the clause.
        let mut vars: Vec<Sym> = Vec::new();
        let mut seen = BTreeSet::new();
        for l in &c.literals {
            for t in &l.args {
                for v in t.vars() {
                    if seen.insert(v.name().clone()) {
                        vars.push(v.name().clone());
                    }
                }
            }
        }
        for assignment in tuples(n, vars.len()) {
            let env: BTreeMap<&Sym, usize> = vars.iter().zip(assignment.iter().copied()).collect();
            let mut lits: Vec<(bool, usize)> = Vec::new();
            let mut tautology = false;
            for l in &c.literals {
                match eval_literal(l, &env, tables) {
                    GroundLit::True => {
                        tautology = true;
                        break;
                    }
                    GroundLit::False => {}
                    GroundLit::Atom(positive, rendered) => {
                        let next_id = atom_ids.len();
                        let id = *atom_ids.entry(rendered).or_insert(next_id);
                        lits.push((positive, id));
                    }
                }
            }
            if tautology {
                continue;
            }
            if lits.is_empty() {
                return None; // ground clause is false outright
            }
            lits.sort();
            lits.dedup();
            // p ∨ ¬p within one ground clause is a tautology.
            if lits.iter().any(|(pos, id)| *pos && lits.contains(&(false, *id))) {
                continue;
            }
            ground.push(lits);
        }
    }
    let n_atoms = atom_ids.len();
    let assignment = dpll(&ground, n_atoms)?;
    let mut true_atoms = BTreeSet::new();
    for (name, id) in &atom_ids {
        if assignment[*id] {
            true_atoms.insert(name.clone());
        }
    }
    let mut functions = BTreeSet::new();
    for ((f, _), table) in tables {
        for (args, val) in table {
            let rendered: Vec<String> = args.iter().map(usize::to_string).collect();
            if rendered.is_empty() {
                functions.insert(format!("{f} = {val}"));
            } else {
                functions.insert(format!("{f}({}) = {val}", rendered.join(", ")));
            }
        }
    }
    Some(Model { domain_size: n, true_atoms, functions })
}

enum GroundLit {
    True,
    False,
    Atom(bool, String),
}

fn eval_term(
    t: &Term,
    env: &BTreeMap<&Sym, usize>,
    tables: &BTreeMap<(Sym, usize), Table>,
) -> usize {
    match t {
        Term::Var(v) => *env.get(v.name()).unwrap_or(&0),
        Term::App(f, args) => {
            let vals: Vec<usize> = args.iter().map(|a| eval_term(a, env, tables)).collect();
            *tables.get(&(f.clone(), args.len())).and_then(|tab| tab.get(&vals)).unwrap_or(&0)
        }
    }
}

fn eval_literal(
    l: &Literal,
    env: &BTreeMap<&Sym, usize>,
    tables: &BTreeMap<(Sym, usize), Table>,
) -> GroundLit {
    let vals: Vec<usize> = l.args.iter().map(|a| eval_term(a, env, tables)).collect();
    if l.pred.as_str() == "=" {
        let holds = vals[0] == vals[1];
        return if holds == l.positive { GroundLit::True } else { GroundLit::False };
    }
    let rendered = if vals.is_empty() {
        l.pred.to_string()
    } else {
        format!("{}({})", l.pred, vals.iter().map(usize::to_string).collect::<Vec<_>>().join(", "))
    };
    GroundLit::Atom(l.positive, rendered)
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

    #[test]
    fn satisfiable_set_has_size_1_model() {
        let axioms = vec![ax("a", "fa(x) (P(x) => Q(x))"), ax("b", "ex(x) P(x)")];
        let m = find_model(&axioms, &ModelConfig::default()).expect("model");
        assert_eq!(m.domain_size, 1);
        assert!(m.true_atoms.contains("P(0)"));
        assert!(m.true_atoms.contains("Q(0)"));
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
    }

    #[test]
    fn functions_are_interpreted() {
        let axioms = vec![ax("f", "fa(x) P(f(x))"), ax("np", "ex(y) ~(P(y))")];
        // Needs f to avoid the non-P element: domain 2.
        let m = find_model(&axioms, &ModelConfig::default()).expect("model");
        assert_eq!(m.domain_size, 2);
        assert!(m.functions.iter().any(|f| f.starts_with("f(")));
    }

    #[test]
    fn empty_set_is_trivially_satisfiable() {
        let m = find_model(&[], &ModelConfig::default()).expect("model");
        assert_eq!(m.domain_size, 1);
    }

    #[test]
    fn model_display_lists_contents() {
        let axioms = vec![ax("p", "P(c())")];
        let m = find_model(&axioms, &ModelConfig::default()).expect("model");
        let text = m.to_string();
        assert!(text.contains("model over domain"));
        assert!(text.contains("c = 0"));
    }

    #[test]
    fn complements_the_prover() {
        // For a satisfiable set, prover saturates AND a model exists —
        // the two certificates agree.
        let axioms = vec![ax("a", "fa(x) (P(x) => Q(x))")];
        let res = crate::prover::Prover::new().prove(&axioms, &formula("Q(c())"));
        assert!(!res.is_proved());
        assert!(find_model(&axioms, &ModelConfig::default()).is_some());
    }
}
