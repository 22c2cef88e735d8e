//! Syntactic unification (Robinson's algorithm with occurs check) for
//! many-sorted terms. Sorts participate weakly: a binding is rejected
//! only when both sides carry *known*, *different* sorts.

use crate::subst::Subst;
use crate::sym::Sym;
use crate::term::{Term, Var};

/// Attempts to extend `subst` so that `a` and `b` become equal.
///
/// Returns `true` (mutating `subst`) on success; on failure `subst` may
/// contain partial bindings and should be discarded by the caller.
///
/// # Examples
///
/// ```
/// use mcv_logic::{unify, Subst, Term, Var};
/// let mut s = Subst::new();
/// let a = Term::app("f", vec![Term::var(Var::unsorted("x"))]);
/// let b = Term::app("f", vec![Term::constant("c")]);
/// assert!(unify(&a, &b, &mut s));
/// assert_eq!(s.apply(&a), s.apply(&b));
/// ```
pub fn unify(a: &Term, b: &Term, subst: &mut Subst) -> bool {
    let a = subst.apply(a);
    let b = subst.apply(b);
    match (&a, &b) {
        (Term::Var(x), Term::Var(y)) if x.name() == y.name() => true,
        (Term::Var(x), t) => bind(x, t, subst),
        (t, Term::Var(y)) => bind(y, t, subst),
        (Term::App(f, fa), Term::App(g, ga)) => {
            if f != g || fa.len() != ga.len() {
                return false;
            }
            fa.iter().zip(ga).all(|(x, y)| unify(x, y, subst))
        }
    }
}

fn bind(v: &Var, t: &Term, subst: &mut Subst) -> bool {
    if t.contains_var(v.name()) {
        return false; // occurs check
    }
    if let Term::Var(w) = t {
        if !v.sort().compatible(w.sort()) {
            return false;
        }
    }
    subst.bind(v.clone(), t.clone());
    true
}

/// Attempts to extend the matching substitution θ in `binds` so that
/// `pattern`θ = `target` (one-way unification: only variables of
/// `pattern` may be bound). `binds` is a stack of (variable name, term)
/// pairs, so a caller backtracking over alternatives undoes a failed
/// match by truncating it to its earlier length. Used by subsumption
/// checking.
pub fn match_terms<'a>(
    pattern: &'a Term,
    target: &'a Term,
    binds: &mut Vec<(&'a Sym, &'a Term)>,
) -> bool {
    match (pattern, target) {
        (Term::Var(x), t) => match binds.iter().find(|(name, _)| *name == x.name()) {
            Some((_, bound)) => *bound == t,
            None => {
                binds.push((x.name(), t));
                true
            }
        },
        (Term::App(f, fa), Term::App(g, ga)) => {
            f == g
                && fa.len() == ga.len()
                && fa.iter().zip(ga).all(|(p, t)| match_terms(p, t, binds))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    fn v(n: &str) -> Term {
        Term::var(Var::unsorted(n))
    }

    #[test]
    fn unifies_var_with_term() {
        let mut s = Subst::new();
        assert!(unify(&v("x"), &Term::constant("a"), &mut s));
        assert_eq!(s.apply(&v("x")).to_string(), "a");
    }

    #[test]
    fn occurs_check_rejects_cyclic_binding() {
        let mut s = Subst::new();
        let fx = Term::app("f", vec![v("x")]);
        assert!(!unify(&v("x"), &fx, &mut s));
    }

    #[test]
    fn mismatched_heads_fail() {
        let mut s = Subst::new();
        assert!(!unify(&Term::constant("a"), &Term::constant("b"), &mut s));
    }

    #[test]
    fn unification_is_transitive_through_shared_vars() {
        // f(x, x) ~ f(a, y) forces y = a.
        let mut s = Subst::new();
        let l = Term::app("f", vec![v("x"), v("x")]);
        let r = Term::app("f", vec![Term::constant("a"), v("y")]);
        assert!(unify(&l, &r, &mut s));
        assert_eq!(s.apply(&v("y")).to_string(), "a");
    }

    #[test]
    fn incompatible_known_sorts_fail_var_var() {
        let mut s = Subst::new();
        let x = Term::var(Var::new("x", Sort::new("Nat")));
        let y = Term::var(Var::new("y", Sort::new("Bool")));
        assert!(!unify(&x, &y, &mut s));
    }

    #[test]
    fn matching_is_one_way() {
        let (x, a) = (v("x"), Term::constant("a"));
        let mut binds = Vec::new();
        assert!(match_terms(&x, &a, &mut binds));
        assert_eq!(binds.iter().map(|(x, t)| (x.as_str(), *t)).collect::<Vec<_>>(), [("x", &a)]);
        assert!(!match_terms(&a, &x, &mut Vec::new()));
    }

    #[test]
    fn matching_keeps_bindings_consistent() {
        // f(x, x) matches f(a, a) but not f(a, b).
        let (a, b) = (Term::constant("a"), Term::constant("b"));
        let pat = Term::app("f", vec![v("x"), v("x")]);
        assert!(match_terms(&pat, &Term::app("f", vec![a.clone(), a.clone()]), &mut Vec::new()));
        assert!(!match_terms(&pat, &Term::app("f", vec![a, b]), &mut Vec::new()));
    }
}
