//! Diagrams of specifications.
//!
//! Chapter 2: *a diagram is a directed multigraph whose nodes are
//! labeled with specifications and whose arcs are labeled with
//! morphisms.* The colimit operation applies to a diagram.

use crate::morphism::SpecMorphism;
use crate::spec::SpecRef;
use mcv_logic::Sym;
use std::collections::BTreeMap;
use std::fmt;

/// An arc of a diagram: a named morphism between two named nodes.
#[derive(Debug, Clone)]
pub struct DiagramArc {
    /// Arc label (e.g. `i`).
    pub name: Sym,
    /// Source node label.
    pub from: Sym,
    /// Target node label.
    pub to: Sym,
    /// The labeling morphism.
    pub morphism: SpecMorphism,
}

/// Errors building a diagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiagramError {
    /// An arc references a node label that was never added.
    UnknownNode(Sym),
    /// The arc's morphism endpoints disagree with the node labels.
    EndpointMismatch {
        /// The offending arc.
        arc: Sym,
        /// Explanation.
        detail: String,
    },
    /// A node label was added twice with different specs.
    DuplicateNode(Sym),
}

impl fmt::Display for DiagramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagramError::UnknownNode(n) => write!(f, "unknown node {n}"),
            DiagramError::EndpointMismatch { arc, detail } => {
                write!(f, "arc {arc} endpoint mismatch: {detail}")
            }
            DiagramError::DuplicateNode(n) => write!(f, "duplicate node {n}"),
        }
    }
}

impl std::error::Error for DiagramError {}

/// A diagram of specifications linked by morphisms.
///
/// # Examples
///
/// ```
/// use mcv_core::{Diagram, SpecBuilder, SpecMorphism};
/// use mcv_logic::Sort;
/// let a = SpecBuilder::new("A").sort(Sort::new("E")).build_ref().unwrap();
/// let b = SpecBuilder::new("B").sort(Sort::new("E")).build_ref().unwrap();
/// let m = SpecMorphism::new("i", a.clone(), b.clone(), [], []).unwrap();
/// let mut d = Diagram::new();
/// d.add_node("a", a).unwrap();
/// d.add_node("b", b).unwrap();
/// d.add_arc("i", "a", "b", m).unwrap();
/// assert_eq!(d.node_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Diagram {
    nodes: BTreeMap<Sym, SpecRef>,
    arcs: Vec<DiagramArc>,
}

impl Diagram {
    /// An empty diagram.
    pub fn new() -> Self {
        Diagram::default()
    }

    /// Adds a labeled node.
    ///
    /// # Errors
    ///
    /// [`DiagramError::DuplicateNode`] if the label is taken by a
    /// different spec.
    pub fn add_node(&mut self, label: impl Into<Sym>, spec: SpecRef) -> Result<(), DiagramError> {
        let label = label.into();
        if let Some(existing) = self.nodes.get(&label) {
            if existing.name != spec.name {
                return Err(DiagramError::DuplicateNode(label));
            }
            return Ok(());
        }
        self.nodes.insert(label, spec);
        Ok(())
    }

    /// Adds a labeled arc between existing nodes.
    ///
    /// # Errors
    ///
    /// [`DiagramError::UnknownNode`] for missing endpoints;
    /// [`DiagramError::EndpointMismatch`] when the morphism's
    /// source/target specs differ from the labeled nodes.
    pub fn add_arc(
        &mut self,
        name: impl Into<Sym>,
        from: impl Into<Sym>,
        to: impl Into<Sym>,
        morphism: SpecMorphism,
    ) -> Result<(), DiagramError> {
        let (name, from, to) = (name.into(), from.into(), to.into());
        let from_spec = self.nodes.get(&from).ok_or(DiagramError::UnknownNode(from.clone()))?;
        let to_spec = self.nodes.get(&to).ok_or(DiagramError::UnknownNode(to.clone()))?;
        if morphism.source.name != from_spec.name || morphism.target.name != to_spec.name {
            return Err(DiagramError::EndpointMismatch {
                arc: name,
                detail: format!(
                    "morphism {} -> {} placed between nodes {} -> {}",
                    morphism.source.name, morphism.target.name, from_spec.name, to_spec.name
                ),
            });
        }
        self.arcs.push(DiagramArc { name, from, to, morphism });
        Ok(())
    }

    /// The spec at a node label.
    pub fn node(&self, label: &Sym) -> Option<&SpecRef> {
        self.nodes.get(label)
    }

    /// Iterates over `(label, spec)` nodes in label order.
    pub fn nodes(&self) -> impl Iterator<Item = (&Sym, &SpecRef)> {
        self.nodes.iter()
    }

    /// Iterates over arcs in insertion order.
    pub fn arcs(&self) -> impl Iterator<Item = &DiagramArc> {
        self.arcs.iter()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Node labels with no outgoing arcs (colimit naming prefers these).
    pub fn sink_nodes(&self) -> Vec<Sym> {
        self.nodes.keys().filter(|n| !self.arcs.iter().any(|a| &a.from == *n)).cloned().collect()
    }

    /// Renders the diagram as Graphviz DOT (for regenerating the
    /// thesis' composition figures graphically).
    pub fn to_dot(&self, title: &str) -> String {
        let mut out = format!(
            "digraph \"{title}\" {{\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n"
        );
        for (label, spec) in &self.nodes {
            out.push_str(&format!(
                "  {label} [label=\"{}\\n{} ops, {} axioms\"];\n",
                spec.name,
                spec.signature.op_count(),
                spec.axioms().count()
            ));
        }
        for arc in &self.arcs {
            let renames = arc.morphism.proper_op_renames();
            let edge_label = if renames.is_empty() {
                arc.name.to_string()
            } else {
                let maps: Vec<String> = renames.iter().map(|(a, b)| format!("{a}→{b}")).collect();
                format!("{} [{}]", arc.name, maps.join(", "))
            };
            out.push_str(&format!("  {} -> {} [label=\"{edge_label}\"];\n", arc.from, arc.to));
        }
        out.push_str("}\n");
        out
    }

    /// Renders the diagram in Specware's `diagram { … }` syntax.
    pub fn render(&self) -> String {
        let mut out = String::from("diagram {\n");
        for (label, spec) in &self.nodes {
            out.push_str(&format!("  {label} +-> {},\n", spec.name));
        }
        for arc in &self.arcs {
            out.push_str(&format!(
                "  {} : {} -> {} +-> {},\n",
                arc.name, arc.from, arc.to, arc.morphism
            ));
        }
        out.push('}');
        out
    }
}

impl fmt::Display for Diagram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecBuilder;
    use mcv_logic::Sort;

    fn spec(name: &str) -> SpecRef {
        SpecBuilder::new(name).sort(Sort::new("E")).build_ref().unwrap()
    }

    fn morph(a: &SpecRef, b: &SpecRef) -> SpecMorphism {
        SpecMorphism::new("m", a.clone(), b.clone(), [], []).unwrap()
    }

    #[test]
    fn build_and_inspect() {
        let (a, b) = (spec("A"), spec("B"));
        let mut d = Diagram::new();
        d.add_node("a", a.clone()).unwrap();
        d.add_node("b", b.clone()).unwrap();
        d.add_arc("i", "a", "b", morph(&a, &b)).unwrap();
        assert_eq!(d.node_count(), 2);
        assert_eq!(d.arcs().count(), 1);
        assert_eq!(d.sink_nodes(), vec![Sym::new("b")]);
    }

    #[test]
    fn arc_to_unknown_node_fails() {
        let (a, b) = (spec("A"), spec("B"));
        let mut d = Diagram::new();
        d.add_node("a", a.clone()).unwrap();
        let err = d.add_arc("i", "a", "b", morph(&a, &b)).unwrap_err();
        assert_eq!(err, DiagramError::UnknownNode(Sym::new("b")));
    }

    #[test]
    fn endpoint_mismatch_detected() {
        let (a, b, c) = (spec("A"), spec("B"), spec("C"));
        let mut d = Diagram::new();
        d.add_node("a", a.clone()).unwrap();
        d.add_node("c", c).unwrap();
        let err = d.add_arc("i", "a", "c", morph(&a, &b)).unwrap_err();
        assert!(matches!(err, DiagramError::EndpointMismatch { .. }));
    }

    #[test]
    fn duplicate_label_with_different_spec_fails() {
        let mut d = Diagram::new();
        d.add_node("a", spec("A")).unwrap();
        assert!(d.add_node("a", spec("B")).is_err());
        // Same spec is idempotent.
        assert!(d.add_node("a", spec("A")).is_ok());
    }

    #[test]
    fn dot_export_lists_nodes_and_edges() {
        let (a, b) = (spec("A"), spec("B"));
        let mut d = Diagram::new();
        d.add_node("a", a.clone()).unwrap();
        d.add_node("b", b.clone()).unwrap();
        d.add_arc("i", "a", "b", morph(&a, &b)).unwrap();
        let dot = d.to_dot("demo");
        assert!(dot.starts_with("digraph \"demo\""));
        assert!(dot.contains("a -> b"));
        assert!(dot.contains("shape=box"));
    }

    #[test]
    fn render_matches_specware_style() {
        let (a, b) = (spec("A"), spec("B"));
        let mut d = Diagram::new();
        d.add_node("a", a.clone()).unwrap();
        d.add_node("b", b.clone()).unwrap();
        d.add_arc("i", "a", "b", morph(&a, &b)).unwrap();
        let text = d.render();
        assert!(text.starts_with("diagram {"));
        assert!(text.contains("a +-> A"));
        assert!(text.contains("i : a -> b"));
    }
}
