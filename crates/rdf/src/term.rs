//! RDF terms: IRIs, blank nodes and literals.
//!
//! Terms are the building blocks of triples. A [`Term`] keeps its payload
//! behind an [`Arc`], so cloning one (a triple's subject, a record id, the
//! two ends of every link) is a reference-count bump, not a string copy.
//! The [`crate::dictionary`] module is responsible for interning terms into
//! compact ids when large graphs are stored.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// A literal value: lexical form plus optional datatype IRI or language tag.
///
/// Following RDF 1.1, a literal has exactly one of:
/// * a plain string value (implicitly `xsd:string`),
/// * a language-tagged string value,
/// * a typed value with an explicit datatype IRI.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Literal {
    /// The lexical form of the literal.
    pub value: String,
    /// Optional language tag (mutually exclusive with `datatype`).
    pub language: Option<String>,
    /// Optional datatype IRI (mutually exclusive with `language`).
    pub datatype: Option<String>,
}

impl Literal {
    /// A plain (untyped, untagged) string literal.
    pub fn plain(value: impl Into<String>) -> Self {
        Literal {
            value: value.into(),
            language: None,
            datatype: None,
        }
    }

    /// A language-tagged string literal, e.g. `"Widerstand"@de`.
    pub fn lang(value: impl Into<String>, language: impl Into<String>) -> Self {
        Literal {
            value: value.into(),
            language: Some(language.into()),
            datatype: None,
        }
    }

    /// A typed literal, e.g. `"42"^^xsd:integer`.
    pub fn typed(value: impl Into<String>, datatype: impl Into<String>) -> Self {
        Literal {
            value: value.into(),
            language: None,
            datatype: Some(datatype.into()),
        }
    }

    /// Attempt to interpret the lexical form as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        self.value.trim().parse::<f64>().ok()
    }

    /// Attempt to interpret the lexical form as an `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        self.value.trim().parse::<i64>().ok()
    }

    /// Attempt to interpret the lexical form as a boolean (`true`/`false`/`1`/`0`).
    pub fn as_bool(&self) -> Option<bool> {
        match self.value.trim() {
            "true" | "1" => Some(true),
            "false" | "0" => Some(false),
            _ => None,
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", escape_literal(&self.value))?;
        if let Some(lang) = &self.language {
            write!(f, "@{lang}")?;
        } else if let Some(dt) = &self.datatype {
            write!(f, "^^<{dt}>")?;
        }
        Ok(())
    }
}

/// Escape a literal's lexical form for N-Triples/Turtle output.
pub fn escape_literal(s: &str) -> Cow<'_, str> {
    if !s
        .chars()
        .any(|c| matches!(c, '"' | '\\' | '\n' | '\r' | '\t'))
    {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    Cow::Owned(out)
}

/// Unescape a literal's lexical form read from N-Triples/Turtle input.
pub fn unescape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Ok(cp) = u32::from_str_radix(&hex, 16) {
                    if let Some(ch) = char::from_u32(cp) {
                        out.push(ch);
                    }
                }
            }
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// An RDF term: IRI, blank node or literal.
///
/// Every payload is shared: `Clone` bumps a reference count and never
/// allocates, and a term is three words (24 bytes on 64-bit targets)
/// whatever its variant. Equality, ordering and hashing go by content,
/// exactly as for owned strings, so two terms built from the same text are
/// equal and sort and hash alike whether or not they share an allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Term {
    /// An IRI reference, stored without surrounding angle brackets.
    Iri(Arc<str>),
    /// A blank node, stored without the leading `_:`.
    Blank(Arc<str>),
    /// A literal value.
    Literal(Arc<Literal>),
}

impl Term {
    /// Construct an IRI term, copying the text once into its shared
    /// payload (build [`Term::Iri`] directly to adopt an existing
    /// `Arc<str>` without a copy).
    pub fn iri(iri: impl AsRef<str>) -> Self {
        Term::Iri(Arc::from(iri.as_ref()))
    }

    /// Construct a blank-node term, copying the label once into its shared
    /// payload.
    pub fn blank(label: impl AsRef<str>) -> Self {
        Term::Blank(Arc::from(label.as_ref()))
    }

    /// Construct a plain literal term.
    pub fn literal(value: impl Into<String>) -> Self {
        Literal::plain(value).into()
    }

    /// Construct a typed literal term.
    pub fn typed_literal(value: impl Into<String>, datatype: impl Into<String>) -> Self {
        Literal::typed(value, datatype).into()
    }

    /// Construct a language-tagged literal term.
    pub fn lang_literal(value: impl Into<String>, lang: impl Into<String>) -> Self {
        Literal::lang(value, lang).into()
    }

    /// `true` if this term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// `true` if this term is a blank node.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// `true` if this term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// The IRI string if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(s) => Some(s),
            _ => None,
        }
    }

    /// The literal if this term is a literal.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// The lexical value for literals, the IRI for IRIs, the label for blanks.
    ///
    /// This is the "value string" used by the segmentation layer: the paper
    /// segments property *values*, and in practice those are literal lexical
    /// forms, but falling back to IRIs keeps the API total.
    pub fn value_str(&self) -> &str {
        match self {
            Term::Iri(s) => s,
            Term::Blank(s) => s,
            Term::Literal(l) => &l.value,
        }
    }

    /// The local name of an IRI (substring after the last `#` or `/`).
    /// Returns the full string for non-IRI terms.
    pub fn local_name(&self) -> &str {
        match self {
            Term::Iri(s) => s
                .rsplit_once('#')
                .map(|(_, l)| l)
                .or_else(|| s.rsplit_once('/').map(|(_, l)| l))
                .unwrap_or(s),
            Term::Blank(s) => s,
            Term::Literal(l) => &l.value,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(iri) => write!(f, "<{iri}>"),
            Term::Blank(label) => write!(f, "_:{label}"),
            Term::Literal(lit) => write!(f, "{lit}"),
        }
    }
}

impl From<Literal> for Term {
    fn from(l: Literal) -> Self {
        Term::Literal(Arc::new(l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_literal_display() {
        let l = Literal::plain("ohm");
        assert_eq!(l.to_string(), "\"ohm\"");
    }

    #[test]
    fn lang_literal_display() {
        let l = Literal::lang("resistance", "en");
        assert_eq!(l.to_string(), "\"resistance\"@en");
    }

    #[test]
    fn typed_literal_display() {
        let l = Literal::typed("42", "http://www.w3.org/2001/XMLSchema#integer");
        assert_eq!(
            l.to_string(),
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
    }

    #[test]
    fn literal_numeric_conversions() {
        assert_eq!(Literal::plain("42").as_i64(), Some(42));
        assert_eq!(Literal::plain(" 3.5 ").as_f64(), Some(3.5));
        assert_eq!(Literal::plain("abc").as_i64(), None);
        assert_eq!(Literal::plain("true").as_bool(), Some(true));
        assert_eq!(Literal::plain("0").as_bool(), Some(false));
        assert_eq!(Literal::plain("maybe").as_bool(), None);
    }

    #[test]
    fn escape_and_unescape_roundtrip() {
        let original = "a \"quoted\"\nvalue with \\ and\ttab";
        let escaped = escape_literal(original);
        assert!(!escaped.contains('\n'));
        let back = unescape_literal(&escaped);
        assert_eq!(back, original);
    }

    #[test]
    fn escape_borrows_when_clean() {
        match escape_literal("nothing special") {
            Cow::Borrowed(_) => {}
            Cow::Owned(_) => panic!("expected borrowed"),
        }
    }

    #[test]
    fn unescape_unicode_escape() {
        assert_eq!(unescape_literal("caf\\u00e9"), "café");
    }

    #[test]
    fn unescape_trailing_backslash_is_kept() {
        assert_eq!(unescape_literal("x\\"), "x\\");
    }

    #[test]
    fn term_constructors_and_predicates() {
        let iri = Term::iri("http://example.org/a");
        let blank = Term::blank("b0");
        let lit = Term::literal("v");
        assert!(iri.is_iri() && !iri.is_blank() && !iri.is_literal());
        assert!(blank.is_blank());
        assert!(lit.is_literal());
        assert_eq!(iri.as_iri(), Some("http://example.org/a"));
        assert_eq!(blank.as_iri(), None);
        assert_eq!(lit.as_literal().unwrap().value, "v");
    }

    #[test]
    fn term_display_forms() {
        assert_eq!(Term::iri("http://e.org/x").to_string(), "<http://e.org/x>");
        assert_eq!(Term::blank("n1").to_string(), "_:n1");
        assert_eq!(Term::literal("v").to_string(), "\"v\"");
    }

    #[test]
    fn local_name_extraction() {
        assert_eq!(
            Term::iri("http://e.org/vocab#partNumber").local_name(),
            "partNumber"
        );
        assert_eq!(Term::iri("http://e.org/prod/42").local_name(), "42");
        assert_eq!(Term::iri("urn:isbn:123").local_name(), "urn:isbn:123");
        assert_eq!(Term::literal("CRCW0805").local_name(), "CRCW0805");
    }

    #[test]
    fn value_str_for_each_variant() {
        assert_eq!(Term::iri("http://e.org/x").value_str(), "http://e.org/x");
        assert_eq!(Term::blank("b").value_str(), "b");
        assert_eq!(Term::literal("63V").value_str(), "63V");
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn term_is_three_words() {
        // A tag plus the widest payload (the `Arc<str>` fat pointer).
        assert_eq!(std::mem::size_of::<Term>(), 24);
    }

    #[test]
    fn clones_share_the_payload_and_compare_by_content() {
        let iri = Term::iri("http://e.org/x");
        let lit = Term::lang_literal("v", "en");
        for term in [&iri, &lit] {
            let copy = term.clone();
            let shared = match (term, &copy) {
                (Term::Iri(a), Term::Iri(b)) => Arc::ptr_eq(a, b),
                (Term::Literal(a), Term::Literal(b)) => Arc::ptr_eq(a, b),
                _ => false,
            };
            assert!(shared, "clone of {term} copied its payload");
        }
        // Separately built terms are distinct allocations, yet equal.
        assert_eq!(iri, Term::iri(String::from("http://e.org/x")));
        assert_eq!(lit, Term::from(Literal::lang("v", "en")));
    }

    #[test]
    fn term_ordering_is_total() {
        let mut terms = vec![
            Term::literal("b"),
            Term::iri("http://a"),
            Term::blank("z"),
            Term::literal("a"),
        ];
        terms.sort();
        // Sorting must not panic and must be stable w.r.t. equality.
        let mut again = terms.clone();
        again.sort();
        assert_eq!(terms, again);
    }
}
