//! Interned symbols.
//!
//! Every name in the logic layer — sorts, operation symbols, predicate
//! symbols, variable names — is a [`Sym`]: a cheaply clonable, hashable
//! handle to an interned string. Interning keeps term manipulation (the
//! prover resolves thousands of clauses) allocation-light, and gives
//! deterministic ordering, which the deterministic given-clause loop
//! relies on. The prover's renamed-apart variables are the exception:
//! they are minted by the thousand, so they skip the interner.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// An interned string symbol.
///
/// Two `Sym`s constructed from equal strings compare equal; interned ones
/// ([`Sym::new`]) also share storage. Ordering is lexicographic on the
/// underlying string so that iteration orders derived from `Sym` keys are
/// reproducible across runs.
///
/// # Examples
///
/// ```
/// use mcv_logic::Sym;
/// let a = Sym::new("Broadcast");
/// let b = Sym::new("Broadcast");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "Broadcast");
/// ```
#[derive(Clone)]
pub struct Sym(Arc<str>);

fn interner() -> &'static Mutex<HashMap<&'static str, Arc<str>>> {
    static INTERNER: OnceLock<Mutex<HashMap<&'static str, Arc<str>>>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(HashMap::new()))
}

impl Sym {
    /// Interns `name` and returns its symbol.
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        let mut map = interner().lock().expect("symbol interner poisoned");
        if let Some(existing) = map.get(name) {
            return Sym(Arc::clone(existing));
        }
        let arc: Arc<str> = Arc::from(name);
        // Leak one `&'static str` per distinct symbol as the map key; symbols
        // are a small closed set (spec vocabulary), so this is bounded.
        let key: &'static str = Box::leak(name.to_owned().into_boxed_str());
        map.insert(key, Arc::clone(&arc));
        Sym(arc)
    }

    /// A symbol that bypasses the interner. It equals, orders and hashes
    /// like the interned symbol of the same text, but owns its storage,
    /// which is freed with its last clone. For names minted by the
    /// thousand and mostly discarded — variables renamed apart — where
    /// interning would take the global lock per name and keep every name
    /// for the life of the process.
    pub(crate) fn uninterned(name: String) -> Self {
        Sym(Arc::from(name))
    }

    /// The symbol's text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl PartialEq for Sym {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}
impl Eq for Sym {}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Sym {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl std::hash::Hash for Sym {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`", self.0)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        Sym::new(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Self {
        Sym::new(s)
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl serde::Serialize for Sym {
    fn serialize(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_owned())
    }
}

impl serde::Deserialize for Sym {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        <String as serde::Deserialize>::deserialize(value).map(Sym::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_strings_intern_to_equal_syms() {
        assert_eq!(Sym::new("x"), Sym::new("x"));
        assert_ne!(Sym::new("x"), Sym::new("y"));
    }

    #[test]
    fn interning_shares_storage() {
        let a = Sym::new("shared-storage-test");
        let b = Sym::new("shared-storage-test");
        assert!(Arc::ptr_eq(&a.0, &b.0));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = [Sym::new("b"), Sym::new("a"), Sym::new("c")];
        v.sort();
        let strs: Vec<&str> = v.iter().map(|s| s.as_str()).collect();
        assert_eq!(strs, ["a", "b", "c"]);
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        let s = Sym::new("TermBroad");
        assert_eq!(s.to_string(), "TermBroad");
        assert_eq!(format!("{s:?}"), "`TermBroad`");
    }

    #[test]
    fn sym_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Sym>();
    }
}
