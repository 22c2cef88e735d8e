//! Specification morphisms.
//!
//! Chapter 2: *a specification morphism `m : SPEC1 → SPEC2` is a map
//! from the sorts and operations of one specification to the sorts and
//! operations of another such that (a) axioms are translated to
//! theorems, and (b) source operations are translated compatibly to
//! target operations.*
//!
//! Condition (b) is checked structurally at construction; condition (a)
//! becomes [proof obligations](crate::Obligation) dischargeable with the
//! resolution prover.

use crate::obligation::Obligation;
use crate::spec::{PropertyKind, SpecRef};
use mcv_logic::{Formula, Sort, Sym};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Why a morphism failed to validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MorphismError {
    /// A mapped source sort does not exist in the source signature.
    UnknownSourceSort(Sort),
    /// A mapped source op does not exist in the source signature.
    UnknownSourceOp(Sym),
    /// A target sort referenced by the map is not declared.
    MissingTargetSort(Sort),
    /// A target op referenced by the map is not declared.
    MissingTargetOp(Sym),
    /// A source sort has no mapping and no identically-named target sort.
    UnmappedSort(Sort),
    /// A source op has no mapping and no identically-named target op.
    UnmappedOp(Sym),
    /// The target op's profile differs from the translated source profile.
    IncompatibleProfile {
        /// The source operation.
        op: Sym,
        /// The target operation it maps to.
        target: Sym,
        /// Explanation.
        detail: String,
    },
}

impl fmt::Display for MorphismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MorphismError::UnknownSourceSort(s) => write!(f, "source sort {s} is not declared"),
            MorphismError::UnknownSourceOp(o) => write!(f, "source op {o} is not declared"),
            MorphismError::MissingTargetSort(s) => write!(f, "target sort {s} is not declared"),
            MorphismError::MissingTargetOp(o) => write!(f, "target op {o} is not declared"),
            MorphismError::UnmappedSort(s) => {
                write!(f, "source sort {s} has no image in the target")
            }
            MorphismError::UnmappedOp(o) => write!(f, "source op {o} has no image in the target"),
            MorphismError::IncompatibleProfile { op, target, detail } => {
                write!(f, "op {op} maps to {target} with incompatible profile: {detail}")
            }
        }
    }
}

impl std::error::Error for MorphismError {}

/// Sort and op images (identity where unlisted), and whether any of
/// them moves its symbol — decided once, when the maps are built, so a
/// renaming that moves nothing hands every formula back shared.
#[derive(Debug, Clone)]
pub(crate) struct Renaming {
    sorts: BTreeMap<Sort, Sort>,
    ops: BTreeMap<Sym, Sym>,
    moves: bool,
}

impl Renaming {
    pub(crate) fn new(sorts: BTreeMap<Sort, Sort>, ops: BTreeMap<Sym, Sym>) -> Renaming {
        let moves = sorts.iter().any(|(a, b)| a != b) || ops.iter().any(|(a, b)| a != b);
        Renaming { sorts, ops, moves }
    }

    pub(crate) fn sort(&self, s: &Sort) -> Sort {
        self.sorts.get(s).cloned().unwrap_or_else(|| s.clone())
    }

    pub(crate) fn op(&self, o: &Sym) -> Sym {
        self.ops.get(o).cloned().unwrap_or_else(|| o.clone())
    }

    /// The image of `f`: one rebuild renaming ops and binder sorts
    /// together.
    fn rebuild(&self, f: &Formula) -> Formula {
        f.rename(&|o| self.op(o), &|s| self.sort(s))
    }

    /// The image of a shared formula: `f` itself when nothing moves.
    pub(crate) fn formula(&self, f: &Arc<Formula>) -> Arc<Formula> {
        if self.moves {
            Arc::new(self.rebuild(f))
        } else {
            Arc::clone(f)
        }
    }
}

/// A validated specification morphism.
///
/// Unmapped sorts/ops are sent to the identically named sort/op of the
/// target (the `{A +-> B, …}` partial-map convention of Specware).
///
/// # Examples
///
/// ```
/// use mcv_core::{SpecBuilder, SpecMorphism};
/// use mcv_logic::Sort;
/// use std::sync::Arc;
/// let a = SpecBuilder::new("A")
///     .sort(Sort::new("Elem"))
///     .predicate("P", vec![Sort::new("Elem")])
///     .build_ref().unwrap();
/// let b = SpecBuilder::new("B")
///     .sort(Sort::new("Elem"))
///     .predicate("P", vec![Sort::new("Elem")])
///     .predicate("Q", vec![Sort::new("Elem")])
///     .axiom("p_holds", "fa(x:Elem) P(x)")
///     .build_ref().unwrap();
/// let m = SpecMorphism::new("i", a, b, [], []).unwrap();
/// assert_eq!(m.apply_op(&"P".into()).as_str(), "P");
/// ```
#[derive(Debug, Clone)]
pub struct SpecMorphism {
    /// Morphism name (for diagrams and reports).
    pub name: Sym,
    /// Domain.
    pub source: SpecRef,
    /// Codomain.
    pub target: SpecRef,
    map: Renaming,
}

impl SpecMorphism {
    /// Builds and validates a morphism from explicit sort and op pairs;
    /// everything unmapped defaults to same-name in the target.
    ///
    /// # Errors
    ///
    /// Any [`MorphismError`] structural violation.
    pub fn new(
        name: impl Into<Sym>,
        source: SpecRef,
        target: SpecRef,
        sort_pairs: impl IntoIterator<Item = (Sort, Sort)>,
        op_pairs: impl IntoIterator<Item = (Sym, Sym)>,
    ) -> Result<Self, MorphismError> {
        Self::build(name, source, target, sort_pairs, op_pairs, true)
    }

    /// Like [`SpecMorphism::new`] but skips op-profile compatibility
    /// checking (used for interface morphisms whose endpoints declare
    /// intentionally abstracted profiles, as in the thesis' module
    /// diagrams).
    ///
    /// # Errors
    ///
    /// Any [`MorphismError`] other than `IncompatibleProfile`.
    pub fn new_lenient(
        name: impl Into<Sym>,
        source: SpecRef,
        target: SpecRef,
        sort_pairs: impl IntoIterator<Item = (Sort, Sort)>,
        op_pairs: impl IntoIterator<Item = (Sym, Sym)>,
    ) -> Result<Self, MorphismError> {
        Self::build(name, source, target, sort_pairs, op_pairs, false)
    }

    fn build(
        name: impl Into<Sym>,
        source: SpecRef,
        target: SpecRef,
        sort_pairs: impl IntoIterator<Item = (Sort, Sort)>,
        op_pairs: impl IntoIterator<Item = (Sym, Sym)>,
        check_profiles: bool,
    ) -> Result<Self, MorphismError> {
        let mut sort_map = BTreeMap::new();
        for (s, t) in sort_pairs {
            if !source.signature.has_sort(&s) {
                return Err(MorphismError::UnknownSourceSort(s));
            }
            if !target.signature.has_sort(&t) {
                return Err(MorphismError::MissingTargetSort(t));
            }
            sort_map.insert(s, t);
        }
        // Identity-extend sorts.
        for sd in source.signature.sorts() {
            if !sort_map.contains_key(&sd.sort) {
                if target.signature.has_sort(&sd.sort) {
                    sort_map.insert(sd.sort.clone(), sd.sort.clone());
                } else {
                    return Err(MorphismError::UnmappedSort(sd.sort.clone()));
                }
            }
        }
        let mut op_map = BTreeMap::new();
        for (o, t) in op_pairs {
            if source.signature.op(&o).is_none() {
                return Err(MorphismError::UnknownSourceOp(o));
            }
            if target.signature.op(&t).is_none() {
                return Err(MorphismError::MissingTargetOp(t));
            }
            op_map.insert(o, t);
        }
        for od in source.signature.ops() {
            if !op_map.contains_key(&od.name) {
                if target.signature.op(&od.name).is_some() {
                    op_map.insert(od.name.clone(), od.name.clone());
                } else {
                    return Err(MorphismError::UnmappedOp(od.name.clone()));
                }
            }
        }
        let map = Renaming::new(sort_map, op_map);
        let m = SpecMorphism { name: name.into(), source, target, map };
        if check_profiles {
            m.check_profiles()?;
        }
        Ok(m)
    }

    /// Resolves a sort through alias definitions in a signature.
    fn resolve(sig: &crate::signature::Signature, s: &Sort) -> Sort {
        let mut cur = s.clone();
        let mut hops = 0;
        while let Some(decl) = sig.sort_decl(&cur) {
            match &decl.definition {
                Some(d) if hops < 16 => {
                    cur = d.clone();
                    hops += 1;
                }
                _ => break,
            }
        }
        cur
    }

    fn check_profiles(&self) -> Result<(), MorphismError> {
        for od in self.source.signature.ops() {
            let timg = &self.map.ops[&od.name];
            let tdecl = self.target.signature.op(timg).expect("op image validated at construction");
            if tdecl.arity() != od.arity() {
                return Err(MorphismError::IncompatibleProfile {
                    op: od.name.clone(),
                    target: timg.clone(),
                    detail: format!("arity {} vs {}", od.arity(), tdecl.arity()),
                });
            }
            for (i, (sa, ta)) in od.args.iter().zip(&tdecl.args).enumerate() {
                let mapped = self.apply_sort(sa);
                let lhs = Self::resolve(&self.target.signature, &mapped);
                let rhs = Self::resolve(&self.target.signature, ta);
                if lhs != rhs {
                    return Err(MorphismError::IncompatibleProfile {
                        op: od.name.clone(),
                        target: timg.clone(),
                        detail: format!("arg {i}: {mapped} vs {ta}"),
                    });
                }
            }
            let mres = self.apply_sort(&od.result);
            let lhs = Self::resolve(&self.target.signature, &mres);
            let rhs = Self::resolve(&self.target.signature, &tdecl.result);
            if lhs != rhs {
                return Err(MorphismError::IncompatibleProfile {
                    op: od.name.clone(),
                    target: timg.clone(),
                    detail: format!("result: {mres} vs {}", tdecl.result),
                });
            }
        }
        Ok(())
    }

    /// The identity morphism on `spec`.
    pub fn identity(spec: SpecRef) -> Self {
        SpecMorphism::new("id", spec.clone(), spec, [], [])
            .expect("identity morphism is always valid")
    }

    /// Image of a sort.
    pub fn apply_sort(&self, s: &Sort) -> Sort {
        self.map.sort(s)
    }

    /// Image of an operation symbol.
    pub fn apply_op(&self, o: &Sym) -> Sym {
        self.map.op(o)
    }

    /// Translates a formula along the morphism.
    pub fn apply_formula(&self, f: &Formula) -> Formula {
        self.map.rebuild(f)
    }

    /// The sort map (identity-extended).
    pub fn sort_map(&self) -> &BTreeMap<Sort, Sort> {
        &self.map.sorts
    }

    /// The op map (identity-extended).
    pub fn op_map(&self) -> &BTreeMap<Sym, Sym> {
        &self.map.ops
    }

    /// Non-identity entries, for display.
    pub fn proper_op_renames(&self) -> Vec<(Sym, Sym)> {
        self.map.ops.iter().filter(|(a, b)| a != b).map(|(a, b)| (a.clone(), b.clone())).collect()
    }

    /// Composition `other ∘ self` — first `self: A → B`, then
    /// `other: B → C`.
    ///
    /// # Errors
    ///
    /// Returns an error if the codomain of `self` is not the domain of
    /// `other` (compared by spec name).
    pub fn then(&self, other: &SpecMorphism) -> Result<SpecMorphism, MorphismError> {
        if self.target.name != other.source.name {
            return Err(MorphismError::MissingTargetSort(Sort::new(format!(
                "composition mismatch: {} vs {}",
                self.target.name, other.source.name
            ))));
        }
        let sort_pairs: Vec<(Sort, Sort)> =
            self.map.sorts.iter().map(|(a, b)| (a.clone(), other.apply_sort(b))).collect();
        let op_pairs: Vec<(Sym, Sym)> =
            self.map.ops.iter().map(|(a, b)| (a.clone(), other.apply_op(b))).collect();
        SpecMorphism::new_lenient(
            format!("{}∘{}", other.name, self.name),
            self.source.clone(),
            other.target.clone(),
            sort_pairs,
            op_pairs,
        )
    }

    /// Equality of action: same source/target names and same maps.
    pub fn same_action(&self, other: &SpecMorphism) -> bool {
        self.source.name == other.source.name
            && self.target.name == other.target.name
            && self.map.sorts == other.map.sorts
            && self.map.ops == other.map.ops
    }

    /// Proof obligations for condition (a): every source axiom must
    /// translate to a theorem of the target. Translated axioms that are
    /// syntactically present among the target's properties are already
    /// discharged and omitted.
    pub fn obligations(&self) -> Vec<Obligation> {
        let mut out = Vec::new();
        for ax in self.source.axioms() {
            let translated = self.map.formula(&ax.formula);
            let already = self.target.properties.iter().any(|p| {
                (p.kind == PropertyKind::Axiom || p.kind == PropertyKind::Theorem)
                    && p.formula == translated
            });
            if already {
                // Fast path: discharged syntactically, no prover run.
                mcv_obs::counter("obligations.fast_path", 1);
            } else {
                mcv_obs::counter("obligations.emitted", 1);
                out.push(Obligation::new(
                    format!(
                        "{}: axiom {} of {} must be a theorem of {}",
                        self.name, ax.name, self.source.name, self.target.name
                    ),
                    Formula::clone(&translated),
                    self.target.axioms_as_named(),
                ));
            }
        }
        out
    }
}

impl fmt::Display for SpecMorphism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "morphism {} : {} -> {} {{", self.name, self.source.name, self.target.name)?;
        let renames = self.proper_op_renames();
        for (i, (a, b)) in renames.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a} +-> {b}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecBuilder;

    fn source() -> SpecRef {
        SpecBuilder::new("SRC")
            .sort(Sort::new("Elem"))
            .predicate("P", vec![Sort::new("Elem")])
            .axiom("p_all", "fa(x:Elem) P(x)")
            .build_ref()
            .unwrap()
    }

    fn target() -> SpecRef {
        SpecBuilder::new("TGT")
            .sort(Sort::new("Elem"))
            .predicate("P", vec![Sort::new("Elem")])
            .predicate("Q", vec![Sort::new("Elem")])
            .axiom("p_all", "fa(x:Elem) P(x)")
            .build_ref()
            .unwrap()
    }

    #[test]
    fn identity_extension_fills_same_names() {
        let m = SpecMorphism::new("i", source(), target(), [], []).unwrap();
        assert_eq!(m.apply_op(&"P".into()).as_str(), "P");
        assert_eq!(m.apply_sort(&Sort::new("Elem")), Sort::new("Elem"));
    }

    #[test]
    fn explicit_rename_applies_to_formulas() {
        let tgt = SpecBuilder::new("TGT2")
            .sort(Sort::new("Elem"))
            .predicate("Pp", vec![Sort::new("Elem")])
            .build_ref()
            .unwrap();
        let m =
            SpecMorphism::new("r", source(), tgt, [], [(Sym::new("P"), Sym::new("Pp"))]).unwrap();
        let f = m.apply_formula(&mcv_logic::formula("fa(x:Elem) P(x)"));
        assert_eq!(f.to_string(), "fa(x:Elem) Pp(x)");
    }

    #[test]
    fn unmapped_op_without_same_name_errors() {
        let tgt = SpecBuilder::new("TGT3").sort(Sort::new("Elem")).build_ref().unwrap();
        let err = SpecMorphism::new("m", source(), tgt, [], []).unwrap_err();
        assert_eq!(err, MorphismError::UnmappedOp(Sym::new("P")));
    }

    #[test]
    fn profile_mismatch_is_rejected() {
        let tgt = SpecBuilder::new("TGT4")
            .sort(Sort::new("Elem"))
            .predicate("P", vec![Sort::new("Elem"), Sort::new("Elem")])
            .build_ref()
            .unwrap();
        let err = SpecMorphism::new("m", source(), tgt, [], []).unwrap_err();
        assert!(matches!(err, MorphismError::IncompatibleProfile { .. }));
    }

    #[test]
    fn lenient_skips_profile_check() {
        let tgt = SpecBuilder::new("TGT5")
            .sort(Sort::new("Elem"))
            .predicate("P", vec![Sort::new("Elem"), Sort::new("Elem")])
            .build_ref()
            .unwrap();
        assert!(SpecMorphism::new_lenient("m", source(), tgt, [], []).is_ok());
    }

    #[test]
    fn obligations_empty_when_axiom_is_in_target() {
        let m = SpecMorphism::new("i", source(), target(), [], []).unwrap();
        assert!(m.obligations().is_empty());
    }

    #[test]
    fn obligations_produced_for_missing_axiom() {
        let tgt = SpecBuilder::new("TGT6")
            .sort(Sort::new("Elem"))
            .predicate("P", vec![Sort::new("Elem")])
            .build_ref()
            .unwrap();
        let m = SpecMorphism::new("i", source(), tgt, [], []).unwrap();
        assert_eq!(m.obligations().len(), 1);
    }

    #[test]
    fn composition_chains_maps() {
        let mid = target();
        let last = SpecBuilder::new("LAST")
            .sort(Sort::new("Elem"))
            .predicate("R", vec![Sort::new("Elem")])
            .predicate("Q", vec![Sort::new("Elem")])
            .build_ref()
            .unwrap();
        let m1 = SpecMorphism::new("a", source(), mid.clone(), [], []).unwrap();
        let m2 = SpecMorphism::new_lenient("b", mid, last, [], [(Sym::new("P"), Sym::new("R"))])
            .unwrap();
        let c = m1.then(&m2).unwrap();
        assert_eq!(c.apply_op(&"P".into()).as_str(), "R");
    }

    #[test]
    fn sort_aliases_resolve_in_profile_check() {
        let src = SpecBuilder::new("S")
            .sort(Sort::new("Nat"))
            .sort_alias(Sort::new("Clockvalues"), Sort::new("Nat"))
            .predicate("At", vec![Sort::new("Clockvalues")])
            .build_ref()
            .unwrap();
        let tgt = SpecBuilder::new("T")
            .sort(Sort::new("Nat"))
            .sort_alias(Sort::new("Clockvalues"), Sort::new("Nat"))
            .sort_alias(Sort::new("LocalClockvals"), Sort::new("Clockvalues"))
            .predicate("At", vec![Sort::new("LocalClockvals")])
            .build_ref()
            .unwrap();
        // Clockvalues and LocalClockvals resolve to Nat: compatible.
        assert!(SpecMorphism::new("m", src, tgt, [], []).is_ok());
    }
}
