//! Triples: the atomic statements of an RDF graph.

use crate::term::Term;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An RDF triple `(subject, predicate, object)`.
///
/// The crate does not enforce the RDF restriction that predicates must be
/// IRIs or that literals may only appear in object position — the data the
/// paper works with never violates these, and keeping `Term` uniform makes
/// pattern matching simpler — but [`Triple::is_strictly_valid`] lets callers
/// check.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Triple {
    /// The subject of the statement.
    pub subject: Term,
    /// The predicate (property) of the statement.
    pub predicate: Term,
    /// The object (value) of the statement.
    pub object: Term,
}

impl Triple {
    /// Create a new triple.
    pub fn new(subject: Term, predicate: Term, object: Term) -> Self {
        Triple {
            subject,
            predicate,
            object,
        }
    }

    /// Convenience constructor from IRI strings and a plain literal object.
    pub fn literal(
        subject: impl AsRef<str>,
        predicate: impl AsRef<str>,
        value: impl Into<String>,
    ) -> Self {
        Triple::new(
            Term::iri(subject),
            Term::iri(predicate),
            Term::literal(value),
        )
    }

    /// Convenience constructor from three IRI strings.
    pub fn iris(
        subject: impl AsRef<str>,
        predicate: impl AsRef<str>,
        object: impl AsRef<str>,
    ) -> Self {
        Triple::new(Term::iri(subject), Term::iri(predicate), Term::iri(object))
    }

    /// `true` when the triple respects the RDF 1.1 positional constraints:
    /// subject is IRI or blank, predicate is an IRI, object is anything.
    pub fn is_strictly_valid(&self) -> bool {
        (self.subject.is_iri() || self.subject.is_blank()) && self.predicate.is_iri()
    }

    /// Borrow the three components as a tuple.
    pub fn as_tuple(&self) -> (&Term, &Term, &Term) {
        (&self.subject, &self.predicate, &self.object)
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_display_is_ntriples_like() {
        let t = Triple::literal("http://e.org/p1", "http://e.org/vocab#pn", "T83-22uF");
        assert_eq!(
            t.to_string(),
            "<http://e.org/p1> <http://e.org/vocab#pn> \"T83-22uF\" ."
        );
    }

    #[test]
    fn strict_validity() {
        let ok = Triple::iris("http://e.org/a", "http://e.org/p", "http://e.org/b");
        assert!(ok.is_strictly_valid());
        let blank_subject = Triple::new(
            Term::blank("b0"),
            Term::iri("http://e.org/p"),
            Term::literal("x"),
        );
        assert!(blank_subject.is_strictly_valid());
        let literal_subject = Triple::new(
            Term::literal("oops"),
            Term::iri("http://e.org/p"),
            Term::literal("x"),
        );
        assert!(!literal_subject.is_strictly_valid());
        let literal_predicate = Triple::new(
            Term::iri("http://e.org/a"),
            Term::literal("oops"),
            Term::literal("x"),
        );
        assert!(!literal_predicate.is_strictly_valid());
    }

    #[test]
    fn as_tuple_borrows_components() {
        let t = Triple::iris("http://e.org/a", "http://e.org/p", "http://e.org/b");
        let (s, p, o) = t.as_tuple();
        assert_eq!(s.as_iri(), Some("http://e.org/a"));
        assert_eq!(p.as_iri(), Some("http://e.org/p"));
        assert_eq!(o.as_iri(), Some("http://e.org/b"));
    }

    #[test]
    fn triples_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let a = Triple::literal("http://e.org/1", "http://e.org/p", "a");
        let b = Triple::literal("http://e.org/1", "http://e.org/p", "b");
        let mut set = HashSet::new();
        set.insert(a.clone());
        set.insert(b.clone());
        set.insert(a.clone());
        assert_eq!(set.len(), 2);
        assert!(a < b);
    }
}
