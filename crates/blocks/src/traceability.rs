//! Traceability and change-impact analysis — the capability the thesis
//! motivates in Section 1.1.8 ("limit the number of proofs that have to
//! be re-checked when a change is made") and calls *backward
//! propagation* in Chapter 4.
//!
//! Regenerates the dependency diagrams of Figures 4.1, 4.9 and 4.17
//! (global property → sub-property → providing block) and quantifies
//! modular vs monolithic re-verification.

use crate::properties::{chapter5_commands, ProveCommand};
use crate::specs::SpecLibrary;
use mcv_logic::Sym;

/// The block each Chapter 5 axiom belongs to (its defining spec).
pub fn axiom_owner(lib: &SpecLibrary, axiom: &str) -> Option<String> {
    // The first spec in dependency order that carries the axiom is the
    // owner (imports propagate properties downstream).
    for spec in lib.all() {
        if spec.property(&Sym::new(axiom)).is_some() {
            return Some(spec.name.to_string());
        }
    }
    None
}

/// One sub-property dependency of a global property (one arrow of
/// Figure 4.1/4.9/4.17).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Dependency {
    /// Sub-property (support axiom) name.
    axiom: String,
    /// The block (spec) providing it.
    block: String,
}

/// The dependency stack of a global property: which axiom of which
/// block each proof leans on.
fn dependency_stack(lib: &SpecLibrary, cmd: &ProveCommand) -> Vec<Dependency> {
    cmd.using
        .iter()
        .map(|a| Dependency {
            axiom: (*a).to_string(),
            block: axiom_owner(lib, a).unwrap_or_else(|| "?".to_string()),
        })
        .collect()
}

/// Renders one of the Figure 4.1/4.9/4.17 dependency diagrams.
pub fn render_dependencies(lib: &SpecLibrary, cmd: &ProveCommand) -> String {
    let mut out =
        format!("Global property {} (theorem {} in {}):\n", cmd.label, cmd.theorem, cmd.spec);
    for (i, d) in dependency_stack(lib, cmd).iter().enumerate() {
        out.push_str(&format!(
            "  sub-property {}: {:<20} provided by {}\n",
            i + 1,
            d.axiom,
            d.block
        ));
    }
    out
}

/// The effect of changing one block's axioms.
#[derive(Debug, Clone)]
pub struct ImpactReport {
    /// The changed block.
    pub changed_block: String,
    /// Proof commands whose support set touches the block (must be
    /// re-discharged).
    pub must_recheck: Vec<&'static str>,
    /// Proof commands untouched by the change.
    pub unaffected: Vec<&'static str>,
    /// Proofs re-checked under the modular discipline.
    pub modular_recheck: usize,
    /// Proofs re-checked monolithically (everything, always).
    pub monolithic_recheck: usize,
}

/// Computes which Chapter 5 proofs a change to `block` invalidates.
pub fn impact_of_change(lib: &SpecLibrary, block: &str) -> ImpactReport {
    let commands = chapter5_commands();
    let mut must = Vec::new();
    let mut unaffected = Vec::new();
    for cmd in &commands {
        let touches = cmd.using.iter().any(|a| axiom_owner(lib, a).as_deref() == Some(block));
        if touches {
            must.push(cmd.label);
        } else {
            unaffected.push(cmd.label);
        }
    }
    ImpactReport {
        changed_block: block.to_string(),
        modular_recheck: must.len(),
        monolithic_recheck: commands.len(),
        must_recheck: must,
        unaffected,
    }
}

/// Impact matrix over every block: the exp.mod experiment.
pub fn impact_matrix(lib: &SpecLibrary) -> Vec<ImpactReport> {
    lib.all().into_iter().map(|s| impact_of_change(lib, s.name.as_str())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axiom_owners_resolve_to_defining_specs() {
        let lib = SpecLibrary::load();
        assert_eq!(axiom_owner(&lib, "Agreebroad").as_deref(), Some("RELIABLEBROADCAST"));
        assert_eq!(axiom_owner(&lib, "Agreeconsensus").as_deref(), Some("CONSENSUS"));
        assert_eq!(axiom_owner(&lib, "Storevalues").as_deref(), Some("UNDOREDO"));
        assert_eq!(axiom_owner(&lib, "Readlock").as_deref(), Some("TWOPHASELOCK"));
        assert_eq!(axiom_owner(&lib, "Checkpoint").as_deref(), Some("CHECKPOINTING"));
        assert_eq!(axiom_owner(&lib, "Recover").as_deref(), Some("ROLLBACKRECOVERY"));
        assert_eq!(axiom_owner(&lib, "nonexistent"), None);
    }

    #[test]
    fn figure_4_1_dependency_stack() {
        let lib = SpecLibrary::load();
        let p1 = &chapter5_commands()[0];
        let deps = dependency_stack(&lib, p1);
        let blocks: Vec<&str> = deps.iter().map(|d| d.block.as_str()).collect();
        assert!(blocks.contains(&"RELIABLEBROADCAST"));
        assert!(blocks.contains(&"CONSENSUS"));
        assert!(blocks.contains(&"UNDOREDO"));
        assert!(blocks.contains(&"TWOPHASELOCK"));
    }

    #[test]
    fn broadcast_change_invalidates_everything() {
        // Every global property leans on Agreebroad (Figures 4.1/4.9/4.17
        // all bottom out at the broadcast block).
        let lib = SpecLibrary::load();
        let r = impact_of_change(&lib, "RELIABLEBROADCAST");
        assert_eq!(r.modular_recheck, 3);
    }

    #[test]
    fn lock_change_spares_consistent_state() {
        // Changing 2PL must not force re-proving CSM (p2): its support
        // has no TWOPHASELOCK axiom.
        let lib = SpecLibrary::load();
        let r = impact_of_change(&lib, "TWOPHASELOCK");
        assert!(r.must_recheck.contains(&"p1"));
        assert!(r.must_recheck.contains(&"p3"));
        assert!(r.unaffected.contains(&"p2"));
        assert!(r.modular_recheck < r.monolithic_recheck);
    }

    #[test]
    fn snapshot_change_only_hits_csm() {
        let lib = SpecLibrary::load();
        let r = impact_of_change(&lib, "SNAPSHOT");
        assert_eq!(r.must_recheck, vec!["p2"]);
        assert_eq!(r.modular_recheck, 1);
    }

    #[test]
    fn matrix_covers_all_blocks() {
        let lib = SpecLibrary::load();
        let m = impact_matrix(&lib);
        assert_eq!(m.len(), 13);
        // Blocks not referenced by any support set re-check nothing.
        let voting = m.iter().find(|r| r.changed_block == "VOTING").unwrap();
        assert_eq!(voting.modular_recheck, 0);
    }

    #[test]
    fn render_names_sub_properties() {
        let lib = SpecLibrary::load();
        let text = render_dependencies(&lib, &chapter5_commands()[0]);
        assert!(text.contains("Readlock"));
        assert!(text.contains("TWOPHASELOCK"));
    }
}
