//! Specifications: a signature plus axioms (and proved theorems).
//!
//! Chapter 2: *a specification `SPEC = (SIG, AX)` consists of the
//! signature `SIG` and a set of axioms `AX` which describes the behavior
//! of the system as well as constraints on the environment.*

use crate::signature::Signature;
use mcv_logic::{Formula, NamedFormula, Sym, Term};
use std::fmt;
use std::sync::Arc;

/// Whether a property is assumed or must be proved.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum PropertyKind {
    /// Assumed without proof.
    Axiom,
    /// A proof obligation / claim.
    Theorem,
}

impl fmt::Display for PropertyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyKind::Axiom => write!(f, "axiom"),
            PropertyKind::Theorem => write!(f, "theorem"),
        }
    }
}

/// A named axiom or theorem of a specification.
///
/// The formula is shared: an import, a colimit and a translation that
/// moves none of its symbols all hand on the same tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Property {
    /// Property name, unique within the spec.
    pub name: Sym,
    /// Axiom or theorem.
    pub kind: PropertyKind,
    /// The formula.
    pub formula: Arc<Formula>,
}

impl Property {
    /// A new axiom.
    pub fn axiom(name: impl Into<Sym>, formula: impl Into<Arc<Formula>>) -> Self {
        Property { name: name.into(), kind: PropertyKind::Axiom, formula: formula.into() }
    }

    /// A new theorem.
    pub fn theorem(name: impl Into<Sym>, formula: impl Into<Arc<Formula>>) -> Self {
        Property { name: name.into(), kind: PropertyKind::Theorem, formula: formula.into() }
    }
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} is {}", self.kind, self.name, self.formula)
    }
}

/// Problems detected by [`Spec::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecIssue {
    /// A formula applies a symbol not declared as an op (and not builtin).
    UndeclaredOp {
        /// The property containing the application.
        property: Sym,
        /// The undeclared symbol.
        op: Sym,
    },
    /// An op is applied with the wrong number of arguments.
    ArityMismatch {
        /// The property containing the application.
        property: Sym,
        /// The symbol applied.
        op: Sym,
        /// Declared arity.
        expected: usize,
        /// Actual argument count.
        actual: usize,
    },
    /// A quantifier binds a variable at an undeclared sort.
    UndeclaredSort {
        /// The property containing the binder.
        property: Sym,
        /// The undeclared sort name.
        sort: Sym,
    },
    /// Two properties share a name.
    DuplicateProperty {
        /// The duplicated name.
        name: Sym,
    },
}

impl fmt::Display for SpecIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecIssue::UndeclaredOp { property, op } => {
                write!(f, "property {property}: op {op} is not declared")
            }
            SpecIssue::ArityMismatch { property, op, expected, actual } => write!(
                f,
                "property {property}: op {op} applied to {actual} args, declared with {expected}"
            ),
            SpecIssue::UndeclaredSort { property, sort } => {
                write!(f, "property {property}: sort {sort} is not declared")
            }
            SpecIssue::DuplicateProperty { name } => {
                write!(f, "duplicate property name {name}")
            }
        }
    }
}

/// Symbols the checker accepts without declaration (parser builtins).
const BUILTIN_OPS: &[&str] = &["lt", "le", "plus", "minus", "neg", "=", "$true"];

/// A specification: name, signature, and named properties.
///
/// Cheap to share via [`SpecRef`]. Construct with [`SpecBuilder`] or
/// parse from Specware-like text with [`crate::parse_spec`].
///
/// # Examples
///
/// ```
/// use mcv_core::{Spec, SpecBuilder};
/// use mcv_logic::Sort;
/// let spec = SpecBuilder::new("TINY")
///     .sort(Sort::new("Elem"))
///     .predicate("P", vec![Sort::new("Elem")])
///     .axiom("total", "fa(x:Elem) P(x)")
///     .build()
///     .unwrap();
/// assert_eq!(spec.axioms().count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// The specification's name.
    pub name: Sym,
    /// The sort/op vocabulary.
    pub signature: Signature,
    /// Axioms and theorems, in declaration order.
    pub properties: Vec<Property>,
}

/// Shared handle to a specification.
pub type SpecRef = Arc<Spec>;

impl Spec {
    /// An empty specification with the given name.
    pub fn empty(name: impl Into<Sym>) -> Self {
        Spec { name: name.into(), signature: Signature::new(), properties: Vec::new() }
    }

    /// Iterates over axioms.
    pub fn axioms(&self) -> impl Iterator<Item = &Property> {
        self.properties.iter().filter(|p| p.kind == PropertyKind::Axiom)
    }

    /// Iterates over theorems.
    pub fn theorems(&self) -> impl Iterator<Item = &Property> {
        self.properties.iter().filter(|p| p.kind == PropertyKind::Theorem)
    }

    /// Looks up a property by name.
    pub fn property(&self, name: &Sym) -> Option<&Property> {
        self.properties.iter().find(|p| &p.name == name)
    }

    /// Axioms as prover input.
    pub fn axioms_as_named(&self) -> Vec<NamedFormula> {
        self.axioms().map(|p| NamedFormula::new(p.name.to_string(), p.formula.clone())).collect()
    }

    /// Validates the spec: every applied symbol is declared with the right
    /// arity, every binder sort is declared, property names are unique.
    pub fn check(&self) -> Vec<SpecIssue> {
        let mut issues = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for p in &self.properties {
            if !seen.insert(p.name.clone()) {
                issues.push(SpecIssue::DuplicateProperty { name: p.name.clone() });
            }
            self.check_formula(&p.name, &p.formula, &mut issues);
        }
        issues
    }

    fn check_formula(&self, prop: &Sym, f: &Formula, issues: &mut Vec<SpecIssue>) {
        match f {
            Formula::Pred(name, args) => {
                self.check_app(prop, name, args.len(), issues);
                for t in args {
                    self.check_term(prop, t, issues);
                }
            }
            Formula::Eq(l, r) => {
                self.check_term(prop, l, issues);
                self.check_term(prop, r, issues);
            }
            Formula::Not(g) => self.check_formula(prop, g, issues),
            Formula::And(fs) | Formula::Or(fs) => {
                for g in fs {
                    self.check_formula(prop, g, issues);
                }
            }
            Formula::Implies(a, b) | Formula::Iff(a, b) => {
                self.check_formula(prop, a, issues);
                self.check_formula(prop, b, issues);
            }
            Formula::Ite(c, t, e) => {
                self.check_formula(prop, c, issues);
                self.check_formula(prop, t, issues);
                self.check_formula(prop, e, issues);
            }
            Formula::Forall(vs, g) | Formula::Exists(vs, g) => {
                for v in vs {
                    if !v.sort().is_unknown() && !self.signature.has_sort(v.sort()) {
                        issues.push(SpecIssue::UndeclaredSort {
                            property: prop.clone(),
                            sort: v.sort().name().clone(),
                        });
                    }
                }
                self.check_formula(prop, g, issues);
            }
            Formula::True | Formula::False => {}
        }
    }

    fn check_term(&self, prop: &Sym, t: &Term, issues: &mut Vec<SpecIssue>) {
        if let Term::App(name, args) = t {
            self.check_app(prop, name, args.len(), issues);
            for a in args {
                self.check_term(prop, a, issues);
            }
        }
    }

    fn check_app(&self, prop: &Sym, name: &Sym, actual: usize, issues: &mut Vec<SpecIssue>) {
        if BUILTIN_OPS.contains(&name.as_str()) || name.as_str().chars().all(|c| c.is_ascii_digit())
        {
            return;
        }
        match self.signature.op(name) {
            None => {
                issues.push(SpecIssue::UndeclaredOp { property: prop.clone(), op: name.clone() })
            }
            Some(decl) if decl.arity() != actual => issues.push(SpecIssue::ArityMismatch {
                property: prop.clone(),
                op: name.clone(),
                expected: decl.arity(),
                actual,
            }),
            Some(_) => {}
        }
    }
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} = spec", self.name)?;
        for line in self.signature.to_string().lines() {
            writeln!(f, "  {line}")?;
        }
        for p in &self.properties {
            writeln!(f, "  {p}")?;
        }
        write!(f, "endspec")
    }
}

/// Builder for [`Spec`].
#[derive(Debug, Clone)]
pub struct SpecBuilder {
    spec: Spec,
    errors: Vec<String>,
}

impl SpecBuilder {
    /// Starts a spec with the given name.
    pub fn new(name: impl Into<Sym>) -> Self {
        SpecBuilder { spec: Spec::empty(name), errors: Vec::new() }
    }

    /// Imports all sorts, ops and properties of `other` (Specware
    /// `import` semantics: textual inclusion).
    pub fn import(mut self, other: &Spec) -> Self {
        if let Err(sym) = self.spec.signature.merge(&other.signature) {
            self.errors.push(format!("import of {}: conflicting decl {sym}", other.name));
        }
        for p in &other.properties {
            if self.spec.property(&p.name).is_none() {
                self.spec.properties.push(p.clone());
            }
        }
        self
    }

    /// Declares an abstract sort.
    pub fn sort(mut self, sort: mcv_logic::Sort) -> Self {
        self.spec.signature.add_sort(sort);
        self
    }

    /// Declares an aliased sort.
    pub fn sort_alias(mut self, sort: mcv_logic::Sort, def: mcv_logic::Sort) -> Self {
        self.spec.signature.add_sort_alias(sort, def);
        self
    }

    /// Declares an operation.
    pub fn op(
        mut self,
        name: impl Into<Sym>,
        args: Vec<mcv_logic::Sort>,
        result: mcv_logic::Sort,
    ) -> Self {
        self.spec.signature.add_op(crate::signature::OpDecl::new(name, args, result));
        self
    }

    /// Declares a predicate.
    pub fn predicate(mut self, name: impl Into<Sym>, args: Vec<mcv_logic::Sort>) -> Self {
        self.spec.signature.add_predicate(name, args);
        self
    }

    /// Adds an axiom given as surface-syntax text.
    pub fn axiom(mut self, name: impl Into<Sym>, src: &str) -> Self {
        match mcv_logic::parse_formula(src) {
            Ok(f) => self.spec.properties.push(Property::axiom(name, f)),
            Err(e) => self.errors.push(format!("axiom parse error: {e}")),
        }
        self
    }

    /// Adds a theorem given as surface-syntax text.
    pub fn theorem(mut self, name: impl Into<Sym>, src: &str) -> Self {
        match mcv_logic::parse_formula(src) {
            Ok(f) => self.spec.properties.push(Property::theorem(name, f)),
            Err(e) => self.errors.push(format!("theorem parse error: {e}")),
        }
        self
    }

    /// Adds an already-parsed property.
    pub fn property(mut self, p: Property) -> Self {
        self.spec.properties.push(p);
        self
    }

    /// Finishes the build.
    ///
    /// # Errors
    ///
    /// Returns accumulated parse/import error messages, if any.
    pub fn build(self) -> Result<Spec, Vec<String>> {
        if self.errors.is_empty() {
            Ok(self.spec)
        } else {
            Err(self.errors)
        }
    }

    /// Finishes the build and wraps in a [`SpecRef`].
    ///
    /// # Errors
    ///
    /// Returns accumulated parse/import error messages, if any.
    pub fn build_ref(self) -> Result<SpecRef, Vec<String>> {
        self.build().map(Arc::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcv_logic::Sort;

    fn broadcast_spec() -> Spec {
        SpecBuilder::new("RELIABLEBROADCAST")
            .sort(Sort::new("Processors"))
            .sort(Sort::new("Messages"))
            .sort_alias(Sort::new("Clockvalues"), Sort::new("Nat"))
            .predicate("Correct", vec![Sort::new("Processors")])
            .predicate(
                "Broadcast",
                vec![Sort::new("Processors"), Sort::new("Messages"), Sort::new("Clockvalues")],
            )
            .predicate(
                "Deliver",
                vec![Sort::new("Processors"), Sort::new("Messages"), Sort::new("Clockvalues")],
            )
            .axiom(
                "Agreebroad",
                "fa(p, q, m, T) (Correct(p) & Deliver(p, m, T) => Deliver(q, m, T))",
            )
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_well_formed_spec() {
        let s = broadcast_spec();
        assert_eq!(s.axioms().count(), 1);
        assert!(s.check().is_empty(), "{:?}", s.check());
    }

    #[test]
    fn check_flags_undeclared_op() {
        let s = SpecBuilder::new("BAD").axiom("a", "Ghost(x)").build().unwrap();
        let issues = s.check();
        assert!(matches!(issues[0], SpecIssue::UndeclaredOp { .. }));
    }

    #[test]
    fn check_flags_arity_mismatch() {
        let s = SpecBuilder::new("BAD")
            .predicate("P", vec![Sort::new("A"), Sort::new("A")])
            .axiom("a", "P(x)")
            .build()
            .unwrap();
        assert!(s.check().iter().any(|i| matches!(i, SpecIssue::ArityMismatch { .. })));
    }

    #[test]
    fn check_flags_undeclared_binder_sort() {
        let s = SpecBuilder::new("BAD")
            .predicate("P", vec![Sort::new("Elem")])
            .axiom("a", "fa(x:Elem) P(x)")
            .build()
            .unwrap();
        assert!(s.check().iter().any(|i| matches!(i, SpecIssue::UndeclaredSort { .. })));
    }

    #[test]
    fn check_flags_duplicate_property_names() {
        let s = SpecBuilder::new("BAD").axiom("a", "X").axiom("a", "Y").build().unwrap();
        assert!(s.check().iter().any(|i| matches!(i, SpecIssue::DuplicateProperty { .. })));
    }

    #[test]
    fn import_merges_signature_and_properties() {
        let base = broadcast_spec();
        let s = SpecBuilder::new("CONSENSUS")
            .import(&base)
            .sort(Sort::new("ProcDeci"))
            .predicate(
                "Decision",
                vec![Sort::new("Processors"), Sort::new("ProcDeci"), Sort::new("Clockvalues")],
            )
            .axiom("Agreeconsensus", "fa(p, q, v, T) (Decision(p, v, T) => Decision(q, v, T))")
            .build()
            .unwrap();
        assert_eq!(s.axioms().count(), 2);
        assert!(s.signature.op(&"Deliver".into()).is_some());
        assert!(s.check().is_empty());
    }

    #[test]
    fn bad_axiom_text_reports_error() {
        let err = SpecBuilder::new("X").axiom("oops", "A &").build().unwrap_err();
        assert!(err[0].contains("parse error"));
    }

    #[test]
    fn display_renders_spec_block() {
        let text = broadcast_spec().to_string();
        assert!(text.starts_with("RELIABLEBROADCAST = spec"));
        assert!(text.ends_with("endspec"));
        assert!(text.contains("axiom Agreebroad is"));
    }
}
