//! An interpreter for Specware *processing scripts* — the statement
//! forms the thesis' Chapter 5 uses around its `spec` blocks:
//!
//! ```text
//! NAME = spec … endspec
//! NAME = translate(OTHER) by {a +-> b, …}
//! NAME = morphism SRC -> TGT {a +-> b, …}
//! NAME = diagram { a +-> SPEC, …, i : a->b +-> morphism SRC -> TGT {…}, … }
//! NAME = colimit DIAG
//! NAME = print OTHER
//! NAME = prove THM in SPEC using AX1 AX2 …
//! ```
//!
//! With this, the thesis' scripts run verbatim (see the `.spw` assets in
//! `mcv-blocks`). `%` starts a comment; `+->` and the OCR variant `++>`
//! are both accepted as the maplet arrow.

use crate::colimit::{colimit, Colimit};
use crate::diagram::Diagram;
use crate::morphism::SpecMorphism;
use crate::parse::parse_spec;
use crate::spec::SpecRef;
use crate::translate::translate;
use mcv_logic::{Model, NamedFormula, Prover, ProverConfig, Sort, Sym, VettedProof};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A value bound in the script environment.
#[derive(Debug, Clone)]
pub enum Value {
    /// A specification.
    Spec(SpecRef),
    /// A specification morphism.
    Morphism(SpecMorphism),
    /// A diagram.
    Diagram(Diagram),
    /// A colimit (also usable wherever a spec is expected, via its apex).
    Colimit(Colimit),
    /// Rendered text (result of `print`).
    Text(String),
    /// A proof attempt's outcome.
    Proof {
        /// Theorem name.
        theorem: Sym,
        /// Whether a refutation was found.
        proved: bool,
        /// Whether the support set alone is contradictory.
        vacuous: bool,
        /// A checked model of the support set, the witness that the
        /// proof is not vacuous.
        model: Option<Model>,
    },
}

impl Value {
    /// The value as a spec, if it is one (colimits expose their apex).
    fn as_spec(&self) -> Option<&SpecRef> {
        match self {
            Value::Spec(s) => Some(s),
            Value::Colimit(c) => Some(&c.apex),
            _ => None,
        }
    }
}

/// One observable effect of running a script.
#[derive(Debug, Clone)]
pub enum Event {
    /// A name was bound.
    Defined {
        /// The bound name.
        name: String,
        /// Kind of value (`spec`, `morphism`, `diagram`, `colimit`, …).
        kind: &'static str,
    },
    /// `print` output.
    Printed(String),
    /// A `prove` command ran.
    Proved {
        /// The binding label (`p1`, …).
        label: String,
        /// Theorem name.
        theorem: String,
        /// Whether it was proved.
        proved: bool,
        /// Whether vacuously (contradictory support set).
        vacuous: bool,
        /// A checked model of the support set, when one was found.
        model: Option<Model>,
    },
}

/// Script errors, with the 1-based line the statement started on.
#[derive(Debug)]
pub struct ScriptError {
    /// Line number of the offending statement.
    pub line: usize,
    /// Message.
    pub message: String,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "script error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScriptError {}

/// The interpreter: an environment of named values plus a prover.
#[derive(Debug)]
pub struct ScriptEngine {
    env: BTreeMap<String, Value>,
    prover: Prover,
}

impl Default for ScriptEngine {
    fn default() -> Self {
        ScriptEngine::new()
    }
}

impl ScriptEngine {
    /// A fresh engine with the [`chapter5_prover`] budget.
    pub fn new() -> Self {
        ScriptEngine { env: BTreeMap::new(), prover: chapter5_prover() }
    }

    /// Looks up a bound value.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.env.get(name)
    }

    /// Looks up a bound spec (or colimit apex).
    pub fn spec(&self, name: &str) -> Option<&SpecRef> {
        self.env.get(name).and_then(Value::as_spec)
    }

    /// Pre-binds a value (e.g. shared upstream specs).
    pub fn bind(&mut self, name: impl Into<String>, value: Value) {
        self.env.insert(name.into(), value);
    }

    /// Runs a whole script, returning its events in order.
    ///
    /// # Errors
    ///
    /// [`ScriptError`] with the line of the first failing statement.
    pub fn run(&mut self, source: &str) -> Result<Vec<Event>, ScriptError> {
        let mut events = Vec::new();
        for stmt in split_statements(source) {
            let ev = self.exec(&stmt)?;
            events.push(ev);
        }
        Ok(events)
    }

    fn err(line: usize, message: impl Into<String>) -> ScriptError {
        ScriptError { line, message: message.into() }
    }

    fn exec(&mut self, stmt: &Statement) -> Result<Event, ScriptError> {
        let _span = mcv_obs::Span::enter("script.statement");
        mcv_obs::counter("script.statements", 1);
        let line = stmt.line;
        let name = stmt.name.clone();
        let body = stmt.body.trim();
        if body.starts_with("spec") {
            let imports: Vec<SpecRef> =
                self.env.values().filter_map(Value::as_spec).cloned().collect();
            let spec = parse_spec(name.as_str(), body, &imports)
                .map_err(|e| Self::err(line, format!("{name}: {e:?}")))?;
            self.env.insert(name.clone(), Value::Spec(Arc::new(spec)));
            Ok(Event::Defined { name, kind: "spec" })
        } else if let Some(rest) = body.strip_prefix("translate") {
            let (source_name, maplets) =
                parse_translate(rest).map_err(|m| Self::err(line, format!("{name}: {m}")))?;
            let src = self
                .spec(&source_name)
                .ok_or_else(|| Self::err(line, format!("unknown spec {source_name}")))?
                .clone();
            // Classify each maplet as a sort or an op rename by lookup.
            let mut sort_renames = Vec::new();
            let mut op_renames = Vec::new();
            for (a, b) in maplets {
                if src.signature.has_sort(&Sort::new(a.as_str())) {
                    sort_renames.push((Sort::new(a.as_str()), Sort::new(b.as_str())));
                } else {
                    op_renames.push((Sym::new(a), Sym::new(b)));
                }
            }
            let (out, _) = translate(&src, name.as_str(), sort_renames, op_renames)
                .map_err(|e| Self::err(line, format!("{name}: {e}")))?;
            self.env.insert(name.clone(), Value::Spec(out));
            Ok(Event::Defined { name, kind: "translation" })
        } else if let Some(rest) = body.strip_prefix("morphism") {
            let m = self
                .parse_morphism(rest, &name)
                .map_err(|msg| Self::err(line, format!("{name}: {msg}")))?;
            self.env.insert(name.clone(), Value::Morphism(m));
            Ok(Event::Defined { name, kind: "morphism" })
        } else if let Some(rest) = body.strip_prefix("diagram") {
            let d = self
                .parse_diagram(rest)
                .map_err(|msg| Self::err(line, format!("{name}: {msg}")))?;
            self.env.insert(name.clone(), Value::Diagram(d));
            Ok(Event::Defined { name, kind: "diagram" })
        } else if let Some(rest) = body.strip_prefix("colimit") {
            let dname = rest.trim();
            let d = match self.env.get(dname) {
                Some(Value::Diagram(d)) => d.clone(),
                _ => return Err(Self::err(line, format!("unknown diagram {dname}"))),
            };
            let c = colimit(&d, name.as_str())
                .map_err(|e| Self::err(line, format!("colimit failed: {e}")))?;
            self.env.insert(name.clone(), Value::Colimit(c));
            Ok(Event::Defined { name, kind: "colimit" })
        } else if let Some(rest) = body.strip_prefix("print") {
            let target = rest.trim();
            let text = match self.env.get(target) {
                Some(Value::Spec(s)) => s.to_string(),
                Some(Value::Colimit(c)) => c.apex.to_string(),
                Some(Value::Morphism(m)) => m.to_string(),
                Some(Value::Diagram(d)) => d.render(),
                Some(Value::Text(t)) => t.clone(),
                Some(Value::Proof { theorem, proved, vacuous, model }) => {
                    let text = format!("proof of {theorem}: proved={proved} vacuous={vacuous}");
                    match model {
                        Some(m) => format!("{text}\nnon-vacuous: {m}").trim_end().to_owned(),
                        None => text,
                    }
                }
                None => return Err(Self::err(line, format!("unknown name {target}"))),
            };
            self.env.insert(name, Value::Text(text.clone()));
            Ok(Event::Printed(text))
        } else if let Some(rest) = body.strip_prefix("prove") {
            let (theorem, spec_name, axioms) =
                parse_prove(rest).map_err(|m| Self::err(line, format!("{name}: {m}")))?;
            let spec = self
                .spec(&spec_name)
                .ok_or_else(|| Self::err(line, format!("unknown spec {spec_name}")))?
                .clone();
            let thm = spec
                .property(&Sym::new(theorem.as_str()))
                .ok_or_else(|| Self::err(line, format!("unknown theorem {theorem}")))?
                .formula
                .clone();
            let mut support = Vec::new();
            for a in &axioms {
                let p = spec
                    .property(&Sym::new(a.as_str()))
                    .ok_or_else(|| Self::err(line, format!("unknown axiom {a}")))?;
                support.push(NamedFormula::new(p.name.to_string(), p.formula.clone()));
            }
            let _prove_span = mcv_obs::Span::enter("script.prove");
            let VettedProof { result, vacuous, model } = self.prover.prove_using(&support, &thm);
            let proved = result.is_proved();
            mcv_obs::counter("script.proofs", 1);
            if proved {
                mcv_obs::counter("script.proofs_succeeded", 1);
            }
            if vacuous {
                mcv_obs::counter("script.proofs_vacuous", 1);
            }
            self.env.insert(
                name.clone(),
                Value::Proof {
                    theorem: Sym::new(theorem.as_str()),
                    proved,
                    vacuous,
                    model: model.clone(),
                },
            );
            Ok(Event::Proved { label: name, theorem, proved, vacuous, model })
        } else {
            Err(Self::err(line, format!("unrecognized statement: {body:.40?}")))
        }
    }

    fn parse_morphism(&self, rest: &str, name: &str) -> Result<SpecMorphism, String> {
        // `SRC -> TGT {a +-> b, …}` (also `SRC->TGT`).
        let brace = rest.find('{').ok_or("morphism missing '{'")?;
        let head = &rest[..brace];
        let maplets = parse_maplets(&rest[brace..])?;
        let (src_name, tgt_name) = split_arrow(head).ok_or("morphism missing '->'")?;
        let src = self
            .spec(src_name.trim())
            .ok_or_else(|| format!("unknown spec {}", src_name.trim()))?
            .clone();
        let tgt = self
            .spec(tgt_name.trim())
            .ok_or_else(|| format!("unknown spec {}", tgt_name.trim()))?
            .clone();
        let mut sort_renames = Vec::new();
        let mut op_renames = Vec::new();
        for (a, b) in maplets {
            if src.signature.has_sort(&Sort::new(a.as_str())) {
                sort_renames.push((Sort::new(a.as_str()), Sort::new(b.as_str())));
            } else {
                op_renames.push((Sym::new(a), Sym::new(b)));
            }
        }
        SpecMorphism::new_lenient(name, src, tgt, sort_renames, op_renames)
            .map_err(|e| e.to_string())
    }

    fn parse_diagram(&self, rest: &str) -> Result<Diagram, String> {
        // `{ a +-> SPEC, i : a->b +-> morphism SRC -> TGT {…}, … }`
        let inner = rest.trim();
        let inner = inner
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or("diagram must be wrapped in { }")?;
        let mut d = Diagram::new();
        for item in split_top_level_commas(inner) {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            if let Some((head, tail)) = split_maplet_arrow(item) {
                let head = head.trim();
                if let Some((arc_name, endpoints)) = head.split_once(':') {
                    // Arc: `i : a->b +-> morphism …`
                    let (from, to) = split_arrow(endpoints).ok_or("arc endpoints need '->'")?;
                    let tail = tail.trim();
                    let rest = tail.strip_prefix("morphism").ok_or("arc must map to a morphism")?;
                    let m = self.parse_morphism(rest, arc_name.trim())?;
                    d.add_arc(arc_name.trim(), from.trim(), to.trim(), m)
                        .map_err(|e| e.to_string())?;
                } else {
                    // Node: `a +-> SPEC`
                    let spec_name = tail.trim();
                    let spec = self
                        .spec(spec_name)
                        .ok_or_else(|| format!("unknown spec {spec_name}"))?
                        .clone();
                    d.add_node(head, spec).map_err(|e| e.to_string())?;
                }
            } else {
                return Err(format!("bad diagram item {item:?}"));
            }
        }
        Ok(d)
    }
}

/// A raw statement: `name = body`.
#[derive(Debug)]
struct Statement {
    line: usize,
    name: String,
    body: String,
}

/// The prover budget for the Chapter 5 goals, whose nested
/// `if/then/else` distribute into large clause sets. The three replays
/// generate 1 254 clauses together, RBR alone 1 046; the limits leave
/// over ten times that, so a search regression fails in seconds instead
/// of running on.
pub fn chapter5_prover() -> Prover {
    Prover::with_config(ProverConfig {
        max_clauses: 20_000,
        max_weight: 120,
        timeout: Duration::from_secs(10),
        ..ProverConfig::default()
    })
}

/// Splits a script into `NAME = …` statements, respecting spec blocks
/// (`spec … endspec`) and brace balance.
fn split_statements(source: &str) -> Vec<Statement> {
    let mut out: Vec<Statement> = Vec::new();
    let mut current: Option<Statement> = None;
    let mut in_spec = false;
    for (i, raw) in source.lines().enumerate() {
        let line = match raw.find('%') {
            Some(p) => &raw[..p],
            None => raw,
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        // New statement?  `IDENT = …` at top level (not inside a spec).
        let starts_new = !in_spec && is_binding_line(trimmed);
        if starts_new {
            if let Some(s) = current.take() {
                out.push(s);
            }
            let eq = trimmed.find('=').expect("binding line has =");
            let name = trimmed[..eq].trim().to_owned();
            let body = trimmed[eq + 1..].trim().to_owned();
            if body == "spec" || body.starts_with("spec ") {
                in_spec = true;
            }
            current = Some(Statement { line: i + 1, name, body });
        } else if let Some(s) = current.as_mut() {
            s.body.push('\n');
            s.body.push_str(trimmed);
            if in_spec && trimmed == "endspec" {
                in_spec = false;
            }
        }
    }
    if let Some(s) = current.take() {
        out.push(s);
    }
    out
}

/// Whether a line opens a binding: `IDENT = …` where the `=` is not part
/// of `=>`/`<=`/`+->` and IDENT is a plain identifier.
fn is_binding_line(line: &str) -> bool {
    let Some(eq) = line.find('=') else { return false };
    let (head, tail) = (line[..eq].trim(), &line[eq + 1..]);
    if head.is_empty()
        || !head.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        || !head.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
    {
        return false;
    }
    // Reject `==`, `=>`; and `=` belonging to sort aliases inside specs
    // is excluded because in_spec guards those lines.
    !tail.starts_with('=') && !tail.starts_with('>')
}

/// Splits `A -> B` (tolerating no spaces and the thesis' `-->` form).
/// Returns (A, B).
fn split_arrow(text: &str) -> Option<(&str, &str)> {
    if let Some(idx) = text.find("-->") {
        return Some((&text[..idx], &text[idx + 3..]));
    }
    let idx = text.find("->")?;
    Some((&text[..idx], &text[idx + 2..]))
}

/// Splits an item at the *maplet* arrow `+->` (or OCR `++>`), not at a
/// plain `->`.
fn split_maplet_arrow(text: &str) -> Option<(&str, &str)> {
    if let Some(i) = text.find("+->") {
        return Some((&text[..i], &text[i + 3..]));
    }
    if let Some(i) = text.find("++>") {
        return Some((&text[..i], &text[i + 3..]));
    }
    None
}

/// Parses `{a +-> b, c ++> d, …}` into pairs.
fn parse_maplets(text: &str) -> Result<Vec<(String, String)>, String> {
    let inner = text
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("maplets must be wrapped in { }")?;
    let mut out = Vec::new();
    for item in split_top_level_commas(inner) {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let (a, b) = split_maplet_arrow(item).ok_or_else(|| format!("bad maplet {item:?}"))?;
        out.push((a.trim().to_owned(), b.trim().to_owned()));
    }
    Ok(out)
}

/// Parses `translate(NAME) by {…}`.
fn parse_translate(rest: &str) -> Result<(String, Vec<(String, String)>), String> {
    let rest = rest.trim();
    let open = rest.find('(').ok_or("translate missing '('")?;
    let close = rest.find(')').ok_or("translate missing ')'")?;
    let source = rest[open + 1..close].trim().to_owned();
    let after = rest[close + 1..].trim();
    let after = after.strip_prefix("by").ok_or("translate missing 'by'")?.trim();
    let maplets = parse_maplets(after)?;
    Ok((source, maplets))
}

/// Parses `THM in SPEC using A B C`.
fn parse_prove(rest: &str) -> Result<(String, String, Vec<String>), String> {
    let words: Vec<&str> = rest.split_whitespace().collect();
    let in_pos = words.iter().position(|w| *w == "in").ok_or("prove missing 'in'")?;
    let using_pos = words.iter().position(|w| *w == "using").ok_or("prove missing 'using'")?;
    if in_pos == 0 || using_pos != in_pos + 2 {
        return Err("expected: prove THM in SPEC using AX...".into());
    }
    let theorem = words[..in_pos].join(" ");
    let spec = words[in_pos + 1].to_owned();
    let axioms = words[using_pos + 1..].iter().map(|w| (*w).to_owned()).collect();
    Ok((theorem, spec, axioms))
}

/// Splits on commas outside braces/parens.
fn split_top_level_commas(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for ch in text.chars() {
        match ch {
            '{' | '(' => {
                depth += 1;
                cur.push(ch);
            }
            '}' | ')' => {
                depth -= 1;
                cur.push(ch);
            }
            ',' if depth == 0 => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

/// Convenience: the result of one `prove` event.
pub use Event as ScriptEvent;

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
% a miniature end-to-end script
BASE = spec
sort E
op P : E->Boolean
axiom p_total is
fa(x:E) P(x)
endspec

BASEtoALL = translate(BASE) by {P +-> P}

EXT = spec
import BASEtoALL
op Q : E->Boolean
axiom q_from_p is
fa(x:E) P(x) => Q(x)
theorem q_total is
fa(x:E) Q(x)
endspec

BASEtoEXT = morphism BASE -> EXT {P +-> P}

D = diagram {
a +-> BASE,
b +-> EXT,
i : a->b +-> morphism BASE -> EXT {P +-> P}}

C = colimit D

foo = print C

p1 = prove q_total in EXT using p_total q_from_p
"#;

    #[test]
    fn mini_script_runs_end_to_end() {
        let mut engine = ScriptEngine::new();
        let events = engine.run(MINI).expect("script runs");
        assert_eq!(events.len(), 8);
        let proved = events.iter().any(|e| {
            matches!(
                e,
                Event::Proved { label, proved: true, vacuous: false, .. } if label == "p1"
            )
        });
        assert!(proved, "{events:?}");
        assert!(engine.spec("C").is_some());
        assert!(matches!(engine.get("D"), Some(Value::Diagram(_))));
    }

    #[test]
    fn colimit_of_script_diagram_commutes() {
        let mut engine = ScriptEngine::new();
        engine.run(MINI).expect("script runs");
        match engine.get("C") {
            Some(Value::Colimit(c)) => assert!(c.verify_commutes()),
            other => panic!("expected colimit, got {other:?}"),
        }
    }

    #[test]
    fn print_returns_rendered_spec() {
        let mut engine = ScriptEngine::new();
        let events = engine.run(MINI).expect("script runs");
        let printed = events.iter().find_map(|e| match e {
            Event::Printed(t) => Some(t.clone()),
            _ => None,
        });
        assert!(printed.expect("print ran").contains("= spec"));
    }

    #[test]
    fn unknown_names_error_with_line() {
        let mut engine = ScriptEngine::new();
        let err = engine.run("X = colimit NOPE\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("NOPE"));
    }

    #[test]
    fn ocr_maplet_arrow_accepted() {
        let mut engine = ScriptEngine::new();
        let script = r#"
A = spec
sort E
op P : E->Boolean
endspec
T = translate(A) by {P ++> Q}
"#;
        engine.run(script).expect("script runs");
        let t = engine.spec("T").expect("bound");
        assert!(t.signature.op(&"Q".into()).is_some());
    }

    #[test]
    fn prove_reports_vacuous_support() {
        let script = r#"
S = spec
op A : Boolean
op B : Boolean
axiom both is
A & ~(B)
axiom contra is
B & ~(A)
theorem anything is
A & B
endspec
p = prove anything in S using both contra
"#;
        let mut engine = ScriptEngine::new();
        let events = engine.run(script).expect("script runs");
        let proved = events.iter().find_map(|e| match e {
            Event::Proved { proved, vacuous, .. } => Some((*proved, *vacuous)),
            _ => None,
        });
        assert_eq!(proved, Some((true, true)));
    }

    #[test]
    fn printing_a_proof_shows_its_witness() {
        let mut engine = ScriptEngine::new();
        engine.run(MINI).expect("script runs");
        let events = engine.run("w = print p1\n").expect("prints");
        let [Event::Printed(text)] = &events[..] else { panic!("{events:?}") };
        assert_eq!(
            text,
            "proof of q_total: proved=true vacuous=false\n\
             non-vacuous: model over domain {0..0}:\n  P(0)\n  Q(0)"
        );
    }

    #[test]
    fn statement_splitter_handles_spec_blocks() {
        let stmts = split_statements(MINI);
        let names: Vec<&str> = stmts.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["BASE", "BASEtoALL", "EXT", "BASEtoEXT", "D", "C", "foo", "p1"]);
    }
}
