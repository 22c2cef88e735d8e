//! The `translate` operation: renaming a specification's vocabulary.
//!
//! Mirrors Specware's
//! `NEW = translate(OLD) by {a +-> b, …}` — the thesis uses it after
//! every spec to propagate the accumulated vocabulary to downstream
//! specs.

use crate::morphism::{MorphismError, Renaming, SpecMorphism};
use crate::signature::OpDecl;
use crate::spec::{Property, Spec, SpecRef};
use mcv_logic::{Sort, Sym};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Renames sorts and ops of `spec`; names not mentioned are preserved.
///
/// Returns the renamed spec together with the isomorphism from the
/// original (useful for diagrams).
///
/// # Errors
///
/// A rename of a sort or op the spec does not declare.
///
/// # Examples
///
/// ```
/// use mcv_core::{translate, SpecBuilder};
/// use mcv_logic::{Sort, Sym};
/// let s = SpecBuilder::new("S")
///     .sort(Sort::new("E"))
///     .predicate("P", vec![Sort::new("E")])
///     .axiom("a", "fa(x:E) P(x)")
///     .build_ref().unwrap();
/// let (t, iso) = translate(&s, "T", [], [(Sym::new("P"), Sym::new("Q"))]).unwrap();
/// assert!(t.signature.op(&"Q".into()).is_some());
/// assert_eq!(iso.apply_op(&"P".into()).as_str(), "Q");
/// assert_eq!(t.axioms().next().unwrap().formula.to_string(), "fa(x:E) Q(x)");
/// ```
pub fn translate(
    spec: &SpecRef,
    new_name: impl Into<Sym>,
    sort_renames: impl IntoIterator<Item = (Sort, Sort)>,
    op_renames: impl IntoIterator<Item = (Sym, Sym)>,
) -> Result<(SpecRef, SpecMorphism), MorphismError> {
    let sort_map: BTreeMap<Sort, Sort> = sort_renames.into_iter().collect();
    let op_map: BTreeMap<Sym, Sym> = op_renames.into_iter().collect();
    let renaming = Renaming::new(sort_map.clone(), op_map.clone());
    let ms = |s: &Sort| renaming.sort(s);
    let mo = |o: &Sym| renaming.op(o);

    let mut out = Spec::empty(new_name);
    for sd in spec.signature.sorts() {
        match &sd.definition {
            Some(def) => out.signature.add_sort_alias(ms(&sd.sort), ms(def)),
            None => out.signature.add_sort(ms(&sd.sort)),
        }
    }
    for od in spec.signature.ops() {
        out.signature.add_op(OpDecl::new(
            mo(&od.name),
            od.args.iter().map(&ms).collect(),
            ms(&od.result),
        ));
    }
    for p in &spec.properties {
        out.properties.push(Property {
            name: p.name.clone(),
            kind: p.kind,
            formula: renaming.formula(&p.formula),
        });
    }
    let out = Arc::new(out);
    let iso = SpecMorphism::new_lenient("translate", spec.clone(), out.clone(), sort_map, op_map)?;
    Ok((out, iso))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecBuilder;

    #[test]
    fn identity_translation_copies() {
        let s = SpecBuilder::new("S")
            .sort(Sort::new("E"))
            .predicate("P", vec![Sort::new("E")])
            .axiom("a", "fa(x:E) P(x)")
            .build_ref()
            .unwrap();
        let (t, iso) = translate(&s, "T", [], []).unwrap();
        assert_eq!(t.signature.op_count(), 1);
        assert_eq!(t.axioms().count(), 1);
        assert_eq!(iso.apply_op(&"P".into()).as_str(), "P");
    }

    #[test]
    fn sort_rename_updates_profiles_and_binders() {
        let s = SpecBuilder::new("S")
            .sort(Sort::new("E"))
            .predicate("P", vec![Sort::new("E")])
            .axiom("a", "fa(x:E) P(x)")
            .build_ref()
            .unwrap();
        let (t, _) = translate(&s, "T", [(Sort::new("E"), Sort::new("Elem"))], []).unwrap();
        assert!(t.signature.has_sort(&Sort::new("Elem")));
        assert!(!t.signature.has_sort(&Sort::new("E")));
        assert_eq!(t.signature.op(&"P".into()).unwrap().args[0], Sort::new("Elem"));
        assert!(t.axioms().next().unwrap().formula.to_string().contains("x:Elem"));
    }

    #[test]
    fn alias_definitions_are_renamed_too() {
        let s = SpecBuilder::new("S")
            .sort(Sort::new("Nat"))
            .sort_alias(Sort::new("Clock"), Sort::new("Nat"))
            .build_ref()
            .unwrap();
        let (t, _) = translate(&s, "T", [(Sort::new("Nat"), Sort::new("N"))], []).unwrap();
        let decl = t.signature.sort_decl(&Sort::new("Clock")).unwrap();
        assert_eq!(decl.definition, Some(Sort::new("N")));
    }

    #[test]
    fn renaming_an_undeclared_op_is_an_error() {
        let s = SpecBuilder::new("S").sort(Sort::new("E")).build_ref().unwrap();
        let err = translate(&s, "T", [], [(Sym::new("P"), Sym::new("Q"))]).unwrap_err();
        assert_eq!(err, MorphismError::UnknownSourceOp(Sym::new("P")));
    }
}
