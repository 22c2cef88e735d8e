//! Parser for Specware-like `spec … endspec` text, so the Chapter 5
//! scripts can be replayed verbatim.

use crate::signature::OpDecl;
use crate::spec::{Spec, SpecBuilder, SpecRef};
use mcv_logic::Sort;

/// Parses a `spec … endspec` body.
///
/// Supported declarations: `import <name>` (resolved against
/// `imports`), `sort S`, `sort S = T`, `op f : A*B->C`, `op c : A`,
/// `axiom n is <formula>`, `theorem n is <formula>`. `%` starts a
/// comment. Formulas may span lines up to the next declaration keyword.
///
/// # Errors
///
/// Returns one message per problem (unknown import, bad declaration,
/// formula parse error).
///
/// # Examples
///
/// ```
/// use mcv_core::parse_spec;
/// let s = parse_spec("TINY", r#"
///     spec
///     sort Elem
///     op P : Elem->Boolean
///     axiom total is
///     fa(x:Elem) P(x)
///     endspec
/// "#, &[]).unwrap();
/// assert_eq!(s.axioms().count(), 1);
/// ```
pub fn parse_spec(
    name: impl Into<mcv_logic::Sym>,
    text: &str,
    imports: &[SpecRef],
) -> Result<Spec, Vec<String>> {
    let mut builder = SpecBuilder::new(name);
    let mut errors: Vec<String> = Vec::new();

    // Strip comments, keep line structure.
    let cleaned: Vec<String> = text
        .lines()
        .map(|l| match l.find('%') {
            Some(i) => l[..i].to_owned(),
            None => l.to_owned(),
        })
        .collect();

    // Group lines into statements: a statement starts at a keyword line.
    #[derive(Debug)]
    enum Stmt {
        Import(String),
        Sort(String),
        Op(String),
        Prop { theorem: bool, text: String },
    }
    let mut stmts: Vec<Stmt> = Vec::new();
    let mut current: Option<Stmt> = None;
    for line in &cleaned {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let first = trimmed.split_whitespace().next().unwrap_or("");
        match first {
            "spec" | "endspec" => {
                if let Some(s) = current.take() {
                    stmts.push(s);
                }
            }
            "import" => {
                if let Some(s) = current.take() {
                    stmts.push(s);
                }
                stmts.push(Stmt::Import(trimmed["import".len()..].trim().to_owned()));
            }
            "sort" => {
                if let Some(s) = current.take() {
                    stmts.push(s);
                }
                stmts.push(Stmt::Sort(trimmed["sort".len()..].trim().to_owned()));
            }
            "op" => {
                if let Some(s) = current.take() {
                    stmts.push(s);
                }
                stmts.push(Stmt::Op(trimmed["op".len()..].trim().to_owned()));
            }
            "axiom" | "theorem" => {
                if let Some(s) = current.take() {
                    stmts.push(s);
                }
                current = Some(Stmt::Prop {
                    theorem: first == "theorem",
                    text: trimmed[first.len()..].trim().to_owned(),
                });
            }
            _ => match &mut current {
                Some(Stmt::Prop { text: t, .. }) => {
                    t.push(' ');
                    t.push_str(trimmed);
                }
                _ => errors.push(format!("stray text outside a declaration: {trimmed:?}")),
            },
        }
    }
    if let Some(s) = current.take() {
        stmts.push(s);
    }

    for stmt in stmts {
        match stmt {
            Stmt::Import(target) => match imports.iter().find(|s| s.name.as_str() == target) {
                Some(spec) => builder = builder.import(spec),
                None => errors.push(format!("unknown import {target}")),
            },
            Stmt::Sort(rest) => {
                let mut parts = rest.splitn(2, '=');
                let lhs = parts.next().unwrap_or("").trim();
                if lhs.is_empty() {
                    errors.push("sort declaration without a name".into());
                    continue;
                }
                match parts.next() {
                    Some(rhs) => {
                        builder = builder.sort_alias(Sort::new(lhs), Sort::new(rhs.trim()));
                    }
                    None => builder = builder.sort(Sort::new(lhs)),
                }
            }
            Stmt::Op(rest) => match parse_op(&rest) {
                Ok(decl) => {
                    builder = builder.op(decl.name.clone(), decl.args.clone(), decl.result.clone())
                }
                Err(e) => errors.push(e),
            },
            Stmt::Prop { theorem, text } => {
                let Some(is_pos) = find_is(&text) else {
                    errors.push(format!("property missing 'is': {text:?}"));
                    continue;
                };
                let pname = text[..is_pos].trim().to_owned();
                let body = text[is_pos + 2..].trim();
                if theorem {
                    builder = builder.theorem(pname, body);
                } else {
                    builder = builder.axiom(pname, body);
                }
            }
        }
    }

    match builder.build() {
        Ok(spec) if errors.is_empty() => Ok(spec),
        Ok(_) => Err(errors),
        Err(mut builder_errors) => {
            errors.append(&mut builder_errors);
            Err(errors)
        }
    }
}

/// Locates the keyword `is` separating a property name from its body.
fn find_is(text: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i + 2 <= bytes.len() {
        if &bytes[i..i + 2] == b"is" {
            let before_ok = i == 0 || bytes[i - 1].is_ascii_whitespace();
            let after_ok = i + 2 == bytes.len() || bytes[i + 2].is_ascii_whitespace();
            if before_ok && after_ok {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// Parses `Name : A*B->C` (or `Name : A` for constants).
fn parse_op(rest: &str) -> Result<OpDecl, String> {
    let mut parts = rest.splitn(2, ':');
    let name = parts.next().unwrap_or("").trim();
    let profile = parts.next().ok_or_else(|| format!("op without ':' : {rest:?}"))?.trim();
    if name.is_empty() {
        return Err(format!("op without a name: {rest:?}"));
    }
    let (args_text, result_text) = match profile.find("->") {
        Some(i) => (&profile[..i], &profile[i + 2..]),
        None => ("", profile),
    };
    let args: Vec<Sort> =
        args_text.split('*').map(str::trim).filter(|s| !s.is_empty()).map(Sort::new).collect();
    let result = Sort::new(result_text.trim());
    Ok(OpDecl::new(name, args, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const BBB: &str = r#"
        spec
        sort Clockvalues = Nat
        sort Processors
        sort Messages
        op Correct : Processors->Boolean
        op Broadcast : Processors*Messages*Clockvalues->Boolean
        op Deliver : Processors*Messages*Clockvalues->Boolean
        endspec
    "#;

    #[test]
    fn parses_signature_declarations() {
        let s = parse_spec("BBB", BBB, &[]).unwrap();
        assert_eq!(s.signature.sort_count(), 3);
        assert_eq!(s.signature.op_count(), 3);
        let b = s.signature.op(&"Broadcast".into()).unwrap();
        assert_eq!(b.arity(), 3);
        assert!(b.is_predicate());
    }

    #[test]
    fn parses_multiline_axiom() {
        let text = r#"
            spec
            sort Processors
            sort Messages
            sort Clockvalues = Nat
            op Correct : Processors->Boolean
            op Broadcast : Processors*Messages*Clockvalues->Boolean
            op Deliver : Processors*Messages*Clockvalues->Boolean
            op Clockdelay : Clockvalues*Clockvalues->Clockvalues
            axiom Termbroad is
            ex(p, m, T) Correct(p) & Broadcast(p, m, T) =>
            (fa (q, i) Correct(q) & Deliver(q, m, (Clockdelay(T, i))))
            endspec
        "#;
        let s = parse_spec("RB", text, &[]).unwrap();
        assert_eq!(s.axioms().count(), 1);
        assert!(s.axioms().next().unwrap().formula.to_string().contains("Clockdelay"));
    }

    #[test]
    fn import_resolves_by_name() {
        let base = Arc::new(parse_spec("BBB", BBB, &[]).unwrap());
        let text = r#"
            spec
            import BBB
            sort ProcDeci = Boolean
            op Decision : Processors*ProcDeci*Clockvalues->Boolean
            axiom Agreeconsensus is
            fa(p, q, v, T) Decision(p, v, T) => Decision(q, v, T)
            endspec
        "#;
        let s = parse_spec("CONSENSUS", text, &[base]).unwrap();
        assert!(s.signature.op(&"Deliver".into()).is_some());
        assert!(s.check().is_empty(), "{:?}", s.check());
    }

    #[test]
    fn unknown_import_errors() {
        let errs = parse_spec("X", "spec\nimport NOPE\nendspec", &[]).unwrap_err();
        assert!(errs[0].contains("unknown import"));
    }

    #[test]
    fn constant_op_has_no_args() {
        let s = parse_spec("C", "spec\nsort E\nop bottom : E\nendspec", &[]).unwrap();
        let d = s.signature.op(&"bottom".into()).unwrap();
        assert_eq!(d.arity(), 0);
        assert_eq!(d.result, Sort::new("E"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "% header\nspec\n% inner\nsort E\nendspec\n";
        let s = parse_spec("C", text, &[]).unwrap();
        assert_eq!(s.signature.sort_count(), 1);
    }

    #[test]
    fn theorem_keyword_sets_kind() {
        let text = r#"
            spec
            op A : Boolean
            theorem trivially is
            A => A
            endspec
        "#;
        let s = parse_spec("T", text, &[]).unwrap();
        assert_eq!(s.theorems().count(), 1);
    }

    #[test]
    fn property_name_containing_is_like_words_parses() {
        // "Globprocstateinfo is ..." — 'is' inside the name must not split.
        let text = "spec\nop X : Boolean\naxiom Globprocstateinfo is\nX\nendspec";
        let s = parse_spec("T", text, &[]).unwrap();
        assert_eq!(s.axioms().next().unwrap().name.as_str(), "Globprocstateinfo");
    }

    #[test]
    fn bad_formula_reports_error() {
        let errs = parse_spec("T", "spec\nop A : Boolean\naxiom broken is\nA &\nendspec", &[])
            .unwrap_err();
        assert!(errs.iter().any(|e| e.contains("parse error")));
    }
}
