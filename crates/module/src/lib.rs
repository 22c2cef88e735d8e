//! # mcv-module
//!
//! Algebraic module specifications and their category-theoretic
//! composition, after Chapter 2 of the thesis:
//!
//! > *A module specification `MOD = (PAR, EXP, IMP, BOD, f, h, g, k)`
//! > consists of four specifications — parameter, export interface,
//! > import interface, body — and four mapping morphisms such that the
//! > diagram commutes.*
//!
//! [`Module::compose`] implements Figure 2.4: module 1 imports via
//! `B1` what module 2 exports via `A2`; the composed module is
//! `(R1, A1, B2, P12)` where `P12` is the pushout of the bodies `P1`
//! and `P2` over `B1`. The composed square's commutativity — the
//! thesis' correctness criterion for reuse — is checked mechanically.
//!
//! # Examples
//!
//! See [`Module::new`] and [`Module::compose`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use mcv_core::{pushout, ColimitError, MorphismError, Pushout, SpecMorphism, SpecRef};
use mcv_logic::Sym;
use std::fmt;

/// Errors building or composing modules.
#[derive(Debug)]
pub enum ModuleError {
    /// A morphism's endpoints do not match the module's components.
    Endpoint {
        /// Which morphism.
        which: &'static str,
        /// Explanation.
        detail: String,
    },
    /// The interface square `h ∘ f = k ∘ g` does not commute.
    NotCommuting {
        /// The module name.
        module: Sym,
    },
    /// The parameter-compatibility condition of composition fails
    /// (`s ∘ g1 = f2 ∘ t` in our orientation).
    IncompatibleParameters,
    /// Pushout construction failed.
    Colimit(ColimitError),
    /// Morphism construction failed.
    Morphism(MorphismError),
}

impl fmt::Display for ModuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleError::Endpoint { which, detail } => {
                write!(f, "morphism {which} endpoints wrong: {detail}")
            }
            ModuleError::NotCommuting { module } => {
                write!(f, "module {module}: interface square does not commute")
            }
            ModuleError::IncompatibleParameters => {
                write!(f, "composition: parameter compatibility s∘g1 = f2∘t fails")
            }
            ModuleError::Colimit(e) => write!(f, "colimit: {e}"),
            ModuleError::Morphism(e) => write!(f, "morphism: {e}"),
        }
    }
}

impl std::error::Error for ModuleError {}

impl From<ColimitError> for ModuleError {
    fn from(e: ColimitError) -> Self {
        ModuleError::Colimit(e)
    }
}

impl From<MorphismError> for ModuleError {
    fn from(e: MorphismError) -> Self {
        ModuleError::Morphism(e)
    }
}

/// An algebraic module specification (Figure 2.3).
///
/// Components:
/// - `par` (R): resources shared between import and export;
/// - `exp` (A): what the module guarantees to its environment;
/// - `imp` (B): what the module assumes from other modules;
/// - `bod` (P): the construction realizing the exports from the
///   imports (hidden from users of the module).
#[derive(Debug, Clone)]
pub struct Module {
    /// Module name.
    pub name: Sym,
    /// Parameter part `R`.
    pub par: SpecRef,
    /// Export interface `A`.
    pub exp: SpecRef,
    /// Import interface `B`.
    pub imp: SpecRef,
    /// Body `P`.
    pub bod: SpecRef,
    /// `f : R → A`.
    pub par_to_exp: SpecMorphism,
    /// `g : R → B`.
    pub par_to_imp: SpecMorphism,
    /// `h : A → P`.
    pub exp_to_bod: SpecMorphism,
    /// `k : B → P`.
    pub imp_to_bod: SpecMorphism,
}

impl Module {
    /// Builds a module from all four components and morphisms, checking
    /// endpoints and the commutativity `h ∘ f = k ∘ g`.
    ///
    /// # Errors
    ///
    /// [`ModuleError::Endpoint`] on endpoint mismatch,
    /// [`ModuleError::NotCommuting`] if the square fails.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<Sym>,
        par: SpecRef,
        exp: SpecRef,
        imp: SpecRef,
        bod: SpecRef,
        par_to_exp: SpecMorphism,
        par_to_imp: SpecMorphism,
        exp_to_bod: SpecMorphism,
        imp_to_bod: SpecMorphism,
    ) -> Result<Self, ModuleError> {
        let name = name.into();
        check_endpoints("f (par→exp)", &par_to_exp, &par, &exp)?;
        check_endpoints("g (par→imp)", &par_to_imp, &par, &imp)?;
        check_endpoints("h (exp→bod)", &exp_to_bod, &exp, &bod)?;
        check_endpoints("k (imp→bod)", &imp_to_bod, &imp, &bod)?;
        let m = Module {
            name: name.clone(),
            par,
            exp,
            imp,
            bod,
            par_to_exp,
            par_to_imp,
            exp_to_bod,
            imp_to_bod,
        };
        if !m.commutes() {
            return Err(ModuleError::NotCommuting { module: name });
        }
        Ok(m)
    }

    /// Whether the interface square `h ∘ f = k ∘ g` commutes.
    pub fn commutes(&self) -> bool {
        match (self.par_to_exp.then(&self.exp_to_bod), self.par_to_imp.then(&self.imp_to_bod)) {
            (Ok(a), Ok(b)) => a.same_action(&b),
            _ => false,
        }
    }

    /// Composes two modules per Figure 2.4.
    ///
    /// `consumer` (module 1) imports via its `imp` interface what
    /// `provider` (module 2) exports:
    ///
    /// - `s : B1 → A2` maps each required import onto the provided
    ///   export;
    /// - `t : R1 → R2` aligns the parameters.
    ///
    /// The compatibility condition `s ∘ g1 = f2 ∘ t` (both `R1 → A2`)
    /// must hold. The composed module is `(R1, A1, B2, P12)` with
    /// `P12 = pushout(P1 ←k1– B1 –h2∘s→ P2)`; its own square is
    /// re-checked, which is the thesis' machine-checkable witness that
    /// the composition is correct.
    ///
    /// # Errors
    ///
    /// [`ModuleError::IncompatibleParameters`] when the compatibility
    /// square fails; endpoint/colimit errors otherwise.
    pub fn compose(
        name: impl Into<Sym>,
        consumer: &Module,
        provider: &Module,
        s: &SpecMorphism,
        t: &SpecMorphism,
    ) -> Result<(Module, CompositionCertificate), ModuleError> {
        let name = name.into();
        check_endpoints("s (B1→A2)", s, &consumer.imp, &provider.exp)?;
        check_endpoints("t (R1→R2)", t, &consumer.par, &provider.par)?;
        // Compatibility: s ∘ g1 = f2 ∘ t  (R1 → A2).
        let via_import = consumer.par_to_imp.then(s).map_err(ModuleError::Morphism)?;
        let via_params = t.then(&provider.par_to_exp).map_err(ModuleError::Morphism)?;
        if !via_import.same_action(&via_params) {
            return Err(ModuleError::IncompatibleParameters);
        }
        // Body: pushout of P1 and P2 over B1.
        let to_p1 = consumer.imp_to_bod.clone();
        let to_p2 = s.then(&provider.exp_to_bod).map_err(ModuleError::Morphism)?;
        let po = pushout(&to_p1, &to_p2, format!("{name}_BOD"))?;
        let body = po.object().clone();
        // Composed morphisms.
        let exp_to_bod = consumer.exp_to_bod.then(&po.into_left).map_err(ModuleError::Morphism)?;
        let par_to_imp = t.then(&provider.par_to_imp).map_err(ModuleError::Morphism)?;
        let imp_to_bod = provider.imp_to_bod.then(&po.into_right).map_err(ModuleError::Morphism)?;
        let composed = Module::new(
            name,
            consumer.par.clone(),
            consumer.exp.clone(),
            provider.imp.clone(),
            body,
            consumer.par_to_exp.clone(),
            par_to_imp,
            exp_to_bod,
            imp_to_bod,
        )?;
        let cert = CompositionCertificate {
            compatibility_holds: true,
            body_pushout_commutes: po.square_commutes(),
            composed_commutes: composed.commutes(),
            body_pushout: po,
        };
        Ok((composed, cert))
    }

    /// A one-line summary of the module's shape.
    pub fn summary(&self) -> String {
        format!(
            "{}: PAR={} EXP={} IMP={} BOD={} ({} sorts, {} ops, {} axioms in body)",
            self.name,
            self.par.name,
            self.exp.name,
            self.imp.name,
            self.bod.name,
            self.bod.signature.sort_count(),
            self.bod.signature.op_count(),
            self.bod.axioms().count(),
        )
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Evidence produced by [`Module::compose`]: each condition of
/// Figure 2.4 that was machine-checked.
#[derive(Debug, Clone)]
pub struct CompositionCertificate {
    /// `s ∘ g1 = f2 ∘ t` held.
    pub compatibility_holds: bool,
    /// The body pushout square commutes.
    pub body_pushout_commutes: bool,
    /// The composed module's own interface square commutes — the
    /// thesis' criterion that "its specification is proved correct
    /// thereby helping in the reusability of the module".
    pub composed_commutes: bool,
    /// The underlying pushout of the two bodies.
    pub body_pushout: Pushout,
}

impl CompositionCertificate {
    /// All checks passed.
    pub fn all_hold(&self) -> bool {
        self.compatibility_holds && self.body_pushout_commutes && self.composed_commutes
    }
}

fn check_endpoints(
    which: &'static str,
    m: &SpecMorphism,
    from: &SpecRef,
    to: &SpecRef,
) -> Result<(), ModuleError> {
    if m.source.name != from.name || m.target.name != to.name {
        return Err(ModuleError::Endpoint {
            which,
            detail: format!(
                "{} -> {} given, {} -> {} required",
                m.source.name, m.target.name, from.name, to.name
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcv_core::{SpecBuilder, SpecMorphism};
    use mcv_logic::Sort;

    /// Builds a module from its interfaces alone; the body is *computed*
    /// as the pushout of `exp ←f– par –g→ imp` (the thesis: "the pushout
    /// of these three objects giving the Body").
    fn from_interfaces(
        name: impl Into<Sym>,
        par_to_exp: SpecMorphism,
        par_to_imp: SpecMorphism,
    ) -> Result<Module, ModuleError> {
        let name = name.into();
        if par_to_exp.source.name != par_to_imp.source.name {
            return Err(ModuleError::Endpoint {
                which: "f/g",
                detail: format!(
                    "parameter mismatch: {} vs {}",
                    par_to_exp.source.name, par_to_imp.source.name
                ),
            });
        }
        let po = pushout(&par_to_exp, &par_to_imp, format!("{name}_BOD"))?;
        Module::new(
            name,
            par_to_exp.source.clone(),
            par_to_exp.target.clone(),
            par_to_imp.target.clone(),
            po.object().clone(),
            par_to_exp.clone(),
            par_to_imp,
            po.into_left,
            po.into_right,
        )
    }

    /// A provider module exporting `Provided`, importing a primitive.
    fn provider() -> Module {
        let par = SpecBuilder::new("R2").sort(Sort::new("E")).build_ref().unwrap();
        let exp = SpecBuilder::new("A2")
            .sort(Sort::new("E"))
            .predicate("Provided", vec![Sort::new("E")])
            .axiom("provided_total", "fa(x:E) Provided(x)")
            .build_ref()
            .unwrap();
        let imp = SpecBuilder::new("B2")
            .sort(Sort::new("E"))
            .predicate("Primitive", vec![Sort::new("E")])
            .build_ref()
            .unwrap();
        let f = SpecMorphism::new("f2", par.clone(), exp, [], []).unwrap();
        let g = SpecMorphism::new("g2", par, imp, [], []).unwrap();
        from_interfaces("PROVIDER", f, g).unwrap()
    }

    /// A consumer module importing `Required`, exporting `Offered`.
    fn consumer() -> Module {
        let par = SpecBuilder::new("R1").sort(Sort::new("E")).build_ref().unwrap();
        let exp = SpecBuilder::new("A1")
            .sort(Sort::new("E"))
            .predicate("Offered", vec![Sort::new("E")])
            .build_ref()
            .unwrap();
        let imp = SpecBuilder::new("B1")
            .sort(Sort::new("E"))
            .predicate("Required", vec![Sort::new("E")])
            .build_ref()
            .unwrap();
        let f = SpecMorphism::new("f1", par.clone(), exp, [], []).unwrap();
        let g = SpecMorphism::new("g1", par, imp, [], []).unwrap();
        from_interfaces("CONSUMER", f, g).unwrap()
    }

    #[test]
    fn from_interfaces_builds_commuting_module() {
        let m = provider();
        assert!(m.commutes());
        // Body contains both export and import vocabulary.
        assert!(m.bod.signature.op(&"Provided".into()).is_some());
        assert!(m.bod.signature.op(&"Primitive".into()).is_some());
    }

    #[test]
    fn composition_satisfies_figure_2_4() {
        let c = consumer();
        let p = provider();
        // Map the consumer's Required onto the provider's Provided.
        let s = SpecMorphism::new_lenient(
            "s",
            c.imp.clone(),
            p.exp.clone(),
            [],
            [(mcv_logic::Sym::new("Required"), mcv_logic::Sym::new("Provided"))],
        )
        .unwrap();
        let t = SpecMorphism::new("t", c.par.clone(), p.par.clone(), [], []).unwrap();
        let (composed, cert) = Module::compose("PR1", &c, &p, &s, &t).unwrap();
        assert!(cert.all_hold(), "{cert:?}");
        // Composed interfaces: (R1, A1, B2, P12).
        assert_eq!(composed.par.name.as_str(), "R1");
        assert_eq!(composed.exp.name.as_str(), "A1");
        assert_eq!(composed.imp.name.as_str(), "B2");
        // The body inherits the provider's axiom.
        assert!(composed.bod.axioms().any(|a| a.name.as_str() == "provided_total"));
    }

    #[test]
    fn composed_body_identifies_import_with_export() {
        let c = consumer();
        let p = provider();
        let s = SpecMorphism::new_lenient(
            "s",
            c.imp.clone(),
            p.exp.clone(),
            [],
            [(mcv_logic::Sym::new("Required"), mcv_logic::Sym::new("Provided"))],
        )
        .unwrap();
        let t = SpecMorphism::new("t", c.par.clone(), p.par.clone(), [], []).unwrap();
        let (_, cert) = Module::compose("PR1", &c, &p, &s, &t).unwrap();
        // In the composed body, the consumer's Required and the provider's
        // Provided are the same class.
        let left = &cert.body_pushout.into_left; // P1 -> P12
        let right = &cert.body_pushout.into_right; // P2 -> P12
        assert_eq!(left.apply_op(&"Required".into()), right.apply_op(&"Provided".into()));
    }

    #[test]
    fn incompatible_parameters_detected() {
        // Provider whose f2 renames the shared parameter op while s keeps
        // the name: s∘g1 lands on Shared, f2∘t on SharedRenamed.
        let par = SpecBuilder::new("RP")
            .sort(Sort::new("E"))
            .predicate("Shared", vec![Sort::new("E")])
            .build_ref()
            .unwrap();
        let exp = SpecBuilder::new("AP")
            .sort(Sort::new("E"))
            .predicate("SharedRenamed", vec![Sort::new("E")])
            .predicate("Shared", vec![Sort::new("E")])
            .build_ref()
            .unwrap();
        let f2 = SpecMorphism::new(
            "f2",
            par.clone(),
            exp.clone(),
            [],
            [(mcv_logic::Sym::new("Shared"), mcv_logic::Sym::new("SharedRenamed"))],
        )
        .unwrap();
        let imp2 = SpecBuilder::new("BP2")
            .sort(Sort::new("E"))
            .predicate("Shared", vec![Sort::new("E")])
            .build_ref()
            .unwrap();
        let g2 = SpecMorphism::new("g2", par.clone(), imp2, [], []).unwrap();
        let p = from_interfaces("P", f2, g2).unwrap();

        let cpar = SpecBuilder::new("RC")
            .sort(Sort::new("E"))
            .predicate("Shared", vec![Sort::new("E")])
            .build_ref()
            .unwrap();
        let cexp = SpecBuilder::new("AC")
            .sort(Sort::new("E"))
            .predicate("Shared", vec![Sort::new("E")])
            .build_ref()
            .unwrap();
        let cimp = SpecBuilder::new("BC")
            .sort(Sort::new("E"))
            .predicate("Shared", vec![Sort::new("E")])
            .build_ref()
            .unwrap();
        let cf = SpecMorphism::new("f1", cpar.clone(), cexp, [], []).unwrap();
        let cg = SpecMorphism::new("g1", cpar.clone(), cimp, [], []).unwrap();
        let c = from_interfaces("C", cf, cg).unwrap();

        let s = SpecMorphism::new_lenient("s", c.imp.clone(), p.exp.clone(), [], []).unwrap();
        let t = SpecMorphism::new_lenient("t", c.par.clone(), p.par.clone(), [], []).unwrap();
        let err = Module::compose("X", &c, &p, &s, &t).unwrap_err();
        assert!(matches!(err, ModuleError::IncompatibleParameters));
    }

    #[test]
    fn endpoint_mismatch_rejected() {
        let c = consumer();
        let p = provider();
        let bad_s = SpecMorphism::new_lenient(
            "s",
            p.exp.clone(),
            c.imp.clone(),
            [],
            [(mcv_logic::Sym::new("Provided"), mcv_logic::Sym::new("Required"))],
        )
        .unwrap();
        let t = SpecMorphism::new("t", c.par.clone(), p.par.clone(), [], []).unwrap();
        let err = Module::compose("X", &c, &p, &bad_s, &t).unwrap_err();
        assert!(matches!(err, ModuleError::Endpoint { .. }));
    }

    #[test]
    fn summary_mentions_all_components() {
        let m = provider();
        let s = m.summary();
        assert!(s.contains("PAR=R2") && s.contains("BOD="));
    }
}
