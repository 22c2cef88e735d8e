//! Colimits and pushouts of specification diagrams.
//!
//! Chapter 2: *the colimit contains all the elements of the
//! specifications in the diagram, but only elements that are linked by
//! arcs in the diagram are identified in the colimit* — the "shared
//! union". We compute equivalence classes of `(node, sort)` and
//! `(node, op)` elements with a union-find seeded by the diagram's
//! morphisms, then rebuild the apex specification and the cone
//! morphisms.

use crate::diagram::Diagram;
use crate::morphism::{Renaming, SpecMorphism};
use crate::signature::OpDecl;
use crate::spec::{Property, Spec, SpecRef};
use mcv_logic::{Sort, Sym};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors computing a colimit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColimitError {
    /// The diagram has no nodes.
    EmptyDiagram,
    /// Cone morphism construction failed (should not happen for
    /// well-formed diagrams).
    ConeConstruction {
        /// The node whose cone failed.
        node: Sym,
        /// Explanation.
        detail: String,
    },
}

impl fmt::Display for ColimitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColimitError::EmptyDiagram => write!(f, "cannot take the colimit of an empty diagram"),
            ColimitError::ConeConstruction { node, detail } => {
                write!(f, "cone morphism for node {node} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for ColimitError {}

/// The result of a colimit: the apex specification and one cone
/// morphism per node.
#[derive(Debug, Clone)]
pub struct Colimit {
    /// The diagram the colimit was taken over.
    pub diagram: Diagram,
    /// The colimit (apex) specification.
    pub apex: SpecRef,
    /// Cone morphisms, one per node label.
    pub cones: BTreeMap<Sym, SpecMorphism>,
}

impl Colimit {
    /// The cone morphism for a node.
    pub fn cone(&self, node: &Sym) -> Option<&SpecMorphism> {
        self.cones.get(node)
    }

    /// Checks the defining property of the cone: for every arc
    /// `a : i → j`, `cone(j) ∘ a = cone(i)`.
    pub fn verify_commutes(&self) -> bool {
        self.diagram.arcs().all(|arc| {
            let ci = &self.cones[&arc.from];
            let cj = &self.cones[&arc.to];
            match arc.morphism.then(cj) {
                Ok(composed) => composed.same_action(ci),
                Err(_) => false,
            }
        })
    }
}

/// Simple union-find, counting its own operations for the
/// `colimit.uf.*` metrics.
struct UnionFind {
    parent: Vec<usize>,
    finds: u64,
    unions: u64,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect(), finds: 0, unions: 0 }
    }

    fn find(&mut self, x: usize) -> usize {
        self.finds += 1;
        self.find_root(x)
    }

    fn find_root(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find_root(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        self.unions += 1;
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller index becomes the root.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Sort,
    Op,
}

/// Computes the colimit of `diagram`, naming the apex `apex_name`.
///
/// Class naming: each equivalence class is named after its element at a
/// *sink* node (a node without outgoing arcs) when one exists —
/// matching the thesis' convention that composition adopts the
/// downstream spec's vocabulary — and by the lexicographically smallest
/// member name otherwise. Distinct classes that would collide on a name
/// are disambiguated with their node label.
///
/// # Errors
///
/// [`ColimitError::EmptyDiagram`] for an empty diagram;
/// [`ColimitError::ConeConstruction`] if a cone morphism cannot be
/// built (indicates an internal inconsistency).
///
/// # Examples
///
/// ```
/// use mcv_core::{colimit, Diagram, SpecBuilder, SpecMorphism};
/// use mcv_logic::Sort;
/// let shared = SpecBuilder::new("SHARED").sort(Sort::new("E")).build_ref().unwrap();
/// let left = SpecBuilder::new("LEFT").sort(Sort::new("E"))
///     .predicate("L", vec![Sort::new("E")]).build_ref().unwrap();
/// let right = SpecBuilder::new("RIGHT").sort(Sort::new("E"))
///     .predicate("R", vec![Sort::new("E")]).build_ref().unwrap();
/// let f = SpecMorphism::new("f", shared.clone(), left.clone(), [], []).unwrap();
/// let g = SpecMorphism::new("g", shared.clone(), right.clone(), [], []).unwrap();
/// let mut d = Diagram::new();
/// d.add_node("s", shared).unwrap();
/// d.add_node("l", left).unwrap();
/// d.add_node("r", right).unwrap();
/// d.add_arc("f", "s", "l", f).unwrap();
/// d.add_arc("g", "s", "r", g).unwrap();
/// let c = colimit(&d, "PUSHOUT").unwrap();
/// assert!(c.verify_commutes());
/// assert!(c.apex.signature.op(&"L".into()).is_some());
/// assert!(c.apex.signature.op(&"R".into()).is_some());
/// ```
pub fn colimit(diagram: &Diagram, apex_name: impl Into<Sym>) -> Result<Colimit, ColimitError> {
    let _span = mcv_obs::Span::enter("colimit");
    if diagram.node_count() == 0 {
        return Err(ColimitError::EmptyDiagram);
    }
    // Enumerate elements.
    let mut index: BTreeMap<(Kind, Sym, Sym), usize> = BTreeMap::new();
    let mut elements: Vec<(Kind, Sym, Sym)> = Vec::new();
    for (label, spec) in diagram.nodes() {
        for sd in spec.signature.sorts() {
            let key = (Kind::Sort, label.clone(), sd.sort.name().clone());
            index.entry(key.clone()).or_insert_with(|| {
                elements.push(key.clone());
                elements.len() - 1
            });
        }
        for od in spec.signature.ops() {
            let key = (Kind::Op, label.clone(), od.name.clone());
            index.entry(key.clone()).or_insert_with(|| {
                elements.push(key.clone());
                elements.len() - 1
            });
        }
    }
    // Union along arcs.
    let mut uf = UnionFind::new(elements.len());
    for arc in diagram.arcs() {
        let src = diagram.node(&arc.from).expect("validated by Diagram");
        for sd in src.signature.sorts() {
            let img = arc.morphism.apply_sort(&sd.sort);
            let a = index[&(Kind::Sort, arc.from.clone(), sd.sort.name().clone())];
            let b = index[&(Kind::Sort, arc.to.clone(), img.name().clone())];
            uf.union(a, b);
        }
        for od in src.signature.ops() {
            let img = arc.morphism.apply_op(&od.name);
            let a = index[&(Kind::Op, arc.from.clone(), od.name.clone())];
            let b = index[&(Kind::Op, arc.to.clone(), img.clone())];
            uf.union(a, b);
        }
    }
    // Group classes.
    let mut classes: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..elements.len() {
        classes.entry(uf.find(i)).or_default().push(i);
    }
    let sinks = diagram.sink_nodes();
    // Choose canonical names.
    let mut class_name: BTreeMap<usize, Sym> = BTreeMap::new();
    let mut taken: BTreeMap<(Kind, Sym), usize> = BTreeMap::new();
    for (&root, members) in &classes {
        let kind = elements[members[0]].0;
        let mut sink_names: Vec<&Sym> = members
            .iter()
            .filter(|&&m| sinks.contains(&elements[m].1))
            .map(|&m| &elements[m].2)
            .collect();
        sink_names.sort();
        let mut all_names: Vec<&Sym> = members.iter().map(|&m| &elements[m].2).collect();
        all_names.sort();
        let base = sink_names.first().or(all_names.first()).expect("non-empty class");
        let mut name = (*base).clone();
        // Disambiguate collisions between distinct classes.
        if let Some(&other) = taken.get(&(kind, name.clone())) {
            if other != root {
                let node = &elements[members[0]].1;
                name = Sym::new(format!("{name}_{node}"));
            }
        }
        taken.insert((kind, name.clone()), root);
        class_name.insert(root, name);
    }
    // Per-node element → class-name maps.
    let mut node_sort_map: BTreeMap<Sym, Vec<(Sort, Sort)>> = BTreeMap::new();
    let mut node_op_map: BTreeMap<Sym, Vec<(Sym, Sym)>> = BTreeMap::new();
    for (i, (kind, node, name)) in elements.iter().enumerate() {
        let canon = &class_name[&uf.find(i)];
        match kind {
            Kind::Sort => node_sort_map
                .entry(node.clone())
                .or_default()
                .push((Sort::new(name.clone()), Sort::new(canon.clone()))),
            Kind::Op => {
                node_op_map.entry(node.clone()).or_default().push((name.clone(), canon.clone()))
            }
        }
    }
    // Build the apex signature.
    let mut apex = Spec::empty(apex_name);
    // Sorts first (ops reference them).
    for (&root, members) in &classes {
        if elements[members[0]].0 != Kind::Sort {
            continue;
        }
        let canon = Sort::new(class_name[&root].clone());
        // Adopt a definition if any member has one (prefer sink members).
        let mut definition: Option<Sort> = None;
        for &m in members {
            let (_, node, name) = &elements[m];
            let spec = diagram.node(node).expect("node exists");
            if let Some(decl) = spec.signature.sort_decl(&Sort::new(name.clone())) {
                if let Some(def) = &decl.definition {
                    // Translate the definition through this node's class map.
                    let translated = node_sort_map
                        .get(node)
                        .and_then(|m| m.iter().find(|(s, _)| s == def))
                        .map(|(_, c)| c.clone())
                        .unwrap_or_else(|| def.clone());
                    let is_sink = sinks.contains(node);
                    if definition.is_none() || is_sink {
                        definition = Some(translated);
                    }
                }
            }
        }
        match definition {
            Some(def) if def != canon => apex.signature.add_sort_alias(canon, def),
            _ => apex.signature.add_sort(canon),
        }
    }
    for (&root, members) in &classes {
        if elements[members[0]].0 != Kind::Op {
            continue;
        }
        let canon = class_name[&root].clone();
        // Representative decl: prefer a sink member.
        let rep = members
            .iter()
            .find(|&&m| sinks.contains(&elements[m].1))
            .or_else(|| members.first())
            .copied()
            .expect("non-empty class");
        let (_, node, name) = &elements[rep];
        let spec = diagram.node(node).expect("node exists");
        let decl = spec.signature.op(name).expect("op exists");
        let map_sort = |s: &Sort| -> Sort {
            node_sort_map
                .get(node)
                .and_then(|m| m.iter().find(|(src, _)| src == s))
                .map(|(_, c)| c.clone())
                .unwrap_or_else(|| s.clone())
        };
        apex.signature.add_op(OpDecl::new(
            canon,
            decl.args.iter().map(map_sort).collect(),
            map_sort(&decl.result),
        ));
    }
    // Translate properties along each node's maps; dedupe identical,
    // rename clashes.
    for (label, spec) in diagram.nodes() {
        let renaming = Renaming::new(
            node_sort_map.get(label).into_iter().flatten().cloned().collect(),
            node_op_map.get(label).into_iter().flatten().cloned().collect(),
        );
        for p in &spec.properties {
            let translated = renaming.formula(&p.formula);
            if apex.properties.iter().any(|q| q.formula == translated) {
                continue;
            }
            // A clash takes the node label, as often as it takes to
            // find a free name.
            let mut name = p.name.clone();
            while apex.property(&name).is_some() {
                name = Sym::new(format!("{name}_{label}"));
            }
            apex.properties.push(Property { name, kind: p.kind, formula: translated });
        }
    }
    mcv_obs::counter("colimit.runs", 1);
    mcv_obs::counter("colimit.elements", elements.len() as u64);
    mcv_obs::counter("colimit.classes", classes.len() as u64);
    mcv_obs::counter("colimit.uf.finds", uf.finds);
    mcv_obs::counter("colimit.uf.unions", uf.unions);
    let apex = Arc::new(apex);
    // Cone morphisms, into the finished apex.
    let mut cones: BTreeMap<Sym, SpecMorphism> = BTreeMap::new();
    for (label, spec) in diagram.nodes() {
        let cone = SpecMorphism::new_lenient(
            format!("in_{label}"),
            spec.clone(),
            apex.clone(),
            node_sort_map.remove(label).unwrap_or_default(),
            node_op_map.remove(label).unwrap_or_default(),
        )
        .map_err(|e| ColimitError::ConeConstruction {
            node: label.clone(),
            detail: e.to_string(),
        })?;
        cones.insert(label.clone(), cone);
    }
    Ok(Colimit { diagram: diagram.clone(), apex, cones })
}

/// A pushout: the colimit of a span `B ←f– A –g→ C` (Figure 2.1).
#[derive(Debug, Clone)]
pub struct Pushout {
    /// The underlying colimit (3-node diagram).
    pub colimit: Colimit,
    /// Injection `p : B → D`.
    pub into_left: SpecMorphism,
    /// Injection `q : C → D`.
    pub into_right: SpecMorphism,
    /// Diagonal `A → D`.
    pub from_shared: SpecMorphism,
}

impl Pushout {
    /// The pushout object `D`.
    pub fn object(&self) -> &SpecRef {
        &self.colimit.apex
    }

    /// Checks the commuting-square condition `p ∘ f = q ∘ g`.
    pub fn square_commutes(&self) -> bool {
        self.colimit.verify_commutes()
    }
}

/// Computes the pushout of two morphisms with the same source
/// (Figure 2.1: `f : A → B`, `g : A → C`).
///
/// # Errors
///
/// Returns [`ColimitError`] if the sources differ or colimit
/// construction fails.
pub fn pushout(
    f: &SpecMorphism,
    g: &SpecMorphism,
    apex_name: impl Into<Sym>,
) -> Result<Pushout, ColimitError> {
    let _span = mcv_obs::Span::enter("colimit.pushout");
    if f.source.name != g.source.name {
        return Err(ColimitError::ConeConstruction {
            node: f.source.name.clone(),
            detail: format!(
                "pushout requires a common source: {} vs {}",
                f.source.name, g.source.name
            ),
        });
    }
    let mut d = Diagram::new();
    d.add_node("a", f.source.clone()).expect("fresh diagram");
    d.add_node("b", f.target.clone()).expect("fresh diagram");
    d.add_node("c", g.target.clone()).expect("fresh diagram");
    d.add_arc("f", "a", "b", f.clone()).expect("endpoints match");
    d.add_arc("g", "a", "c", g.clone()).expect("endpoints match");
    let colim = colimit(&d, apex_name)?;
    let into_left = colim.cones[&Sym::new("b")].clone();
    let into_right = colim.cones[&Sym::new("c")].clone();
    let from_shared = colim.cones[&Sym::new("a")].clone();
    Ok(Pushout { colimit: colim, into_left, into_right, from_shared })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecBuilder;

    fn shared() -> SpecRef {
        SpecBuilder::new("SHARED")
            .sort(Sort::new("E"))
            .predicate("Base", vec![Sort::new("E")])
            .axiom("base_holds", "fa(x:E) Base(x)")
            .build_ref()
            .unwrap()
    }

    fn left() -> SpecRef {
        SpecBuilder::new("LEFT")
            .sort(Sort::new("E"))
            .predicate("Base", vec![Sort::new("E")])
            .predicate("L", vec![Sort::new("E")])
            .axiom("base_holds", "fa(x:E) Base(x)")
            .axiom("l_from_base", "fa(x:E) (Base(x) => L(x))")
            .build_ref()
            .unwrap()
    }

    fn right() -> SpecRef {
        SpecBuilder::new("RIGHT")
            .sort(Sort::new("E"))
            .predicate("Base", vec![Sort::new("E")])
            .predicate("R", vec![Sort::new("E")])
            .axiom("base_holds", "fa(x:E) Base(x)")
            .axiom("r_from_base", "fa(x:E) (Base(x) => R(x))")
            .build_ref()
            .unwrap()
    }

    fn span() -> (SpecMorphism, SpecMorphism) {
        let s = shared();
        let f = SpecMorphism::new("f", s.clone(), left(), [], []).unwrap();
        let g = SpecMorphism::new("g", s, right(), [], []).unwrap();
        (f, g)
    }

    #[test]
    fn pushout_is_shared_union() {
        let (f, g) = span();
        let po = pushout(&f, &g, "D").unwrap();
        let d = po.object();
        // Shared Base identified once; L and R both present.
        assert_eq!(d.signature.op_count(), 3);
        assert!(d.signature.op(&"L".into()).is_some());
        assert!(d.signature.op(&"R".into()).is_some());
        // Shared axiom appears once.
        assert_eq!(d.axioms().filter(|p| p.name.as_str().starts_with("base_holds")).count(), 1);
    }

    #[test]
    fn pushout_square_commutes() {
        let (f, g) = span();
        let po = pushout(&f, &g, "D").unwrap();
        assert!(po.square_commutes());
    }

    #[test]
    fn cone_morphisms_compose_correctly() {
        let (f, g) = span();
        let po = pushout(&f, &g, "D").unwrap();
        let via_left = f.then(&po.into_left).unwrap();
        assert!(via_left.same_action(&po.from_shared));
        let via_right = g.then(&po.into_right).unwrap();
        assert!(via_right.same_action(&po.from_shared));
    }

    #[test]
    fn renaming_morphism_identifies_elements() {
        // SHARED.Base maps to LEFT.L; colimit must merge Base and L.
        let s = SpecBuilder::new("S2")
            .sort(Sort::new("E"))
            .predicate("Base", vec![Sort::new("E")])
            .build_ref()
            .unwrap();
        let l = left();
        let f =
            SpecMorphism::new("f", s.clone(), l.clone(), [], [(Sym::new("Base"), Sym::new("L"))])
                .unwrap();
        let g = SpecMorphism::new("g", s.clone(), s.clone(), [], []).unwrap();
        let po = pushout(&f, &g, "D2").unwrap();
        // S2.Base and LEFT.L are identified into one class; LEFT.Base
        // stays separate, so the apex has exactly two op classes and the
        // cones agree on the merged class.
        let d = po.object();
        assert_eq!(d.signature.op_count(), 2);
        assert_eq!(po.from_shared.apply_op(&"Base".into()), po.into_left.apply_op(&"L".into()));
        assert_ne!(po.into_left.apply_op(&"Base".into()), po.into_left.apply_op(&"L".into()));
    }

    #[test]
    fn colimit_of_single_node_is_isomorphic_copy() {
        let mut d = Diagram::new();
        d.add_node("a", left()).unwrap();
        let c = colimit(&d, "COPY").unwrap();
        assert_eq!(c.apex.signature.op_count(), 2);
        assert_eq!(c.apex.axioms().count(), 2);
        assert!(c.verify_commutes());
    }

    #[test]
    fn empty_diagram_is_an_error() {
        let d = Diagram::new();
        assert_eq!(colimit(&d, "X").unwrap_err(), ColimitError::EmptyDiagram);
    }

    #[test]
    fn unlinked_same_name_ops_are_disambiguated() {
        // Two disconnected nodes both declare P: classes must not merge.
        let a = SpecBuilder::new("A")
            .sort(Sort::new("E"))
            .predicate("P", vec![Sort::new("E")])
            .build_ref()
            .unwrap();
        let b = SpecBuilder::new("B")
            .sort(Sort::new("E"))
            .predicate("P", vec![Sort::new("E")])
            .build_ref()
            .unwrap();
        let mut d = Diagram::new();
        d.add_node("a", a).unwrap();
        d.add_node("b", b).unwrap();
        let c = colimit(&d, "U").unwrap();
        // Both sorts E are separate classes too, but the op count shows
        // the disambiguation: two P classes.
        assert_eq!(c.apex.signature.op_count(), 2);
    }

    #[test]
    fn a_renamed_property_clash_takes_a_free_name() {
        // Node a already holds `P_b`, the name b's clashing `P` would
        // take: the rename must skip it, not duplicate it.
        let a = SpecBuilder::new("A")
            .sort(Sort::new("E"))
            .predicate("Q", vec![Sort::new("E")])
            .axiom("P", "fa(x:E) Q(x)")
            .axiom("P_b", "fa(x:E) ~(Q(x))")
            .build_ref()
            .unwrap();
        let b = SpecBuilder::new("B")
            .sort(Sort::new("E"))
            .predicate("R", vec![Sort::new("E")])
            .axiom("P", "fa(x:E) R(x)")
            .build_ref()
            .unwrap();
        let mut d = Diagram::new();
        d.add_node("a", a).unwrap();
        d.add_node("b", b).unwrap();
        let c = colimit(&d, "CLASH").unwrap();
        let names: Vec<&str> = c.apex.properties.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["P", "P_b", "P_b_b"]);
        assert_eq!(c.apex.check(), []);
    }

    #[test]
    fn chain_colimit_adopts_downstream_names() {
        // A --(Base +-> L)--> LEFT: colimit of the chain uses L.
        let a = SpecBuilder::new("A")
            .sort(Sort::new("E"))
            .predicate("Base", vec![Sort::new("E")])
            .build_ref()
            .unwrap();
        let l = left();
        let m =
            SpecMorphism::new("m", a.clone(), l.clone(), [], [(Sym::new("Base"), Sym::new("L"))])
                .unwrap();
        let mut d = Diagram::new();
        d.add_node("a", a).unwrap();
        d.add_node("l", l).unwrap();
        d.add_arc("m", "a", "l", m).unwrap();
        let c = colimit(&d, "CHAIN").unwrap();
        assert!(c.apex.signature.op(&"L".into()).is_some());
        assert!(c.verify_commutes());
        // Base is not a separate op in the apex: it merged into L.
        assert_eq!(c.apex.signature.op_count(), 2); // L and LEFT's Base
    }
}
