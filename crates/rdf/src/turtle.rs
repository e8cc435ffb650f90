//! A pragmatic Turtle subset: enough to read and write the catalogs, provider
//! documents and ontologies used by the workspace.
//!
//! Supported syntax:
//!
//! * `@prefix p: <iri> .` directives,
//! * full IRIs `<...>`, prefixed names `p:local`, the `a` keyword,
//! * blank node labels `_:b0`,
//! * plain, language-tagged and typed string literals (single-line),
//! * predicate lists with `;` and object lists with `,`.
//!
//! Not supported (not needed by the workspace): multi-line literals, nested
//! blank node property lists `[...]`, RDF collections `(...)`, numeric or
//! boolean literal shorthand, `@base`.

use std::collections::VecDeque;

use crate::error::{RdfError, Result};
use crate::graph::Graph;
use crate::namespace::Namespaces;
use crate::term::{escape_literal, unescape_literal, Literal, Term};
use crate::triple::Triple;

/// Parse a Turtle document (subset, see module docs) into a graph.
///
/// Thin wrapper over [`TurtleStreamer`]: the whole input is fed as one chunk
/// and the emitted triples are collected into a graph.
pub fn parse(input: &str) -> Result<(Graph, Namespaces)> {
    let mut streamer = TurtleStreamer::new();
    streamer.feed(input.as_bytes());
    streamer.finish();
    let mut graph = Graph::new();
    while let Some(triple) = streamer.next_triple() {
        graph.insert(triple?);
    }
    Ok((graph, streamer.into_namespaces()))
}

/// An incremental Turtle reader: push byte chunks in, pull [`Triple`]s out.
///
/// Chunks may split the input anywhere, including inside a multi-byte UTF-8
/// sequence. A byte-level scanner tracks just enough syntax (IRI refs,
/// string literals with escapes, comments) to recognise the statement
/// terminator `.`; each complete statement is then parsed by the same
/// parser the batch path uses, carrying `@prefix` declarations across
/// statements. Every boundary-relevant byte (`<>"\\#.\n`) is ASCII and so
/// never occurs inside a UTF-8 continuation, which is what makes byte-wise
/// boundary scanning safe. Internal buffering is bounded by the longest
/// single statement plus the last fed chunk.
///
/// ```
/// use classilink_rdf::TurtleStreamer;
///
/// let mut streamer = TurtleStreamer::new();
/// streamer.feed(b"@prefix ex: <http://e.org/v#> .\n");
/// streamer.feed(b"<http://e.org/p1> ex:partNumber \"CRCW0805\" ; ex:mfr \"Vi");
/// streamer.feed(b"shay\" .");
/// streamer.finish();
/// let mut n = 0;
/// while let Some(triple) = streamer.next_triple() {
///     triple.unwrap();
///     n += 1;
/// }
/// assert_eq!(n, 2);
/// ```
#[derive(Debug, Default)]
pub struct TurtleStreamer {
    buf: Vec<u8>,
    /// Bytes of `buf` already examined by the boundary scanner.
    scanned: usize,
    scan: Scan,
    /// 1-based line of the first unconsumed byte (for error reporting).
    line: usize,
    namespaces: Namespaces,
    /// The statement parser's prefixed-name scratch, kept between
    /// statements.
    expanded: String,
    pending: VecDeque<Triple>,
    finished: bool,
    drained_tail: bool,
    failed: bool,
}

/// Boundary-scanner state: which syntactic region the scan head is inside.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Scan {
    #[default]
    Default,
    Iri,
    Literal,
    Escape,
    Comment,
}

impl TurtleStreamer {
    /// A streamer with no input yet.
    pub fn new() -> Self {
        Self {
            line: 1,
            ..Self::default()
        }
    }

    /// Append a chunk of input bytes. Call [`next_triple`](Self::next_triple)
    /// between feeds to keep the internal buffer bounded.
    pub fn feed(&mut self, chunk: &[u8]) {
        debug_assert!(!self.finished, "feed after finish");
        self.buf.extend_from_slice(chunk);
    }

    /// Signal end of input: the final statement (terminated or not) becomes
    /// available to [`next_triple`](Self::next_triple).
    pub fn finish(&mut self) {
        self.finished = true;
    }

    /// Bytes currently buffered (at most one incomplete statement once
    /// drained).
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }

    /// The prefix table accumulated from `@prefix` directives seen so far.
    pub fn namespaces(&self) -> &Namespaces {
        &self.namespaces
    }

    /// Consume the streamer, yielding the accumulated prefix table.
    pub fn into_namespaces(self) -> Namespaces {
        self.namespaces
    }

    /// Pull the next parsed triple.
    ///
    /// Returns `None` when every complete statement fed so far has been
    /// consumed (feed more chunks, or [`finish`](Self::finish) to flush the
    /// tail). After the first `Err` the streamer is poisoned and yields
    /// `None`.
    pub fn next_triple(&mut self) -> Option<Result<Triple>> {
        loop {
            if let Some(triple) = self.pending.pop_front() {
                return Some(Ok(triple));
            }
            if self.failed {
                return None;
            }
            let statement: Vec<u8> = if let Some(end) = self.find_boundary() {
                let statement = self.buf.drain(..=end).collect();
                self.scanned = 0;
                self.scan = Scan::Default;
                statement
            } else if self.finished && !self.drained_tail {
                // Leftover without a terminator: whitespace/comments parse
                // to nothing; a truncated statement reports the same
                // "unexpected end of input" the batch path would.
                self.drained_tail = true;
                self.scanned = 0;
                std::mem::take(&mut self.buf)
            } else {
                return None;
            };
            if let Err(error) = self.parse_statement_bytes(&statement) {
                self.failed = true;
                return Some(Err(error));
            }
        }
    }

    /// Scan forward for a statement-terminating `.`: one in default state
    /// whose following byte is whitespace, a comment, or end of input.
    /// Returns its index without consuming it; an undecidable trailing `.`
    /// (no following byte yet) is left unscanned until more input arrives.
    fn find_boundary(&mut self) -> Option<usize> {
        while self.scanned < self.buf.len() {
            let byte = self.buf[self.scanned];
            self.scan = match self.scan {
                Scan::Default => match byte {
                    b'<' => Scan::Iri,
                    b'"' => Scan::Literal,
                    b'#' => Scan::Comment,
                    b'.' => match self.buf.get(self.scanned + 1) {
                        Some(next) if next.is_ascii_whitespace() || *next == b'#' => {
                            return Some(self.scanned);
                        }
                        None if self.finished => return Some(self.scanned),
                        None => return None,
                        // Part of a prefixed name (`ex:a.b`): not a terminator.
                        Some(_) => Scan::Default,
                    },
                    _ => Scan::Default,
                },
                Scan::Iri => {
                    if byte == b'>' {
                        Scan::Default
                    } else {
                        Scan::Iri
                    }
                }
                Scan::Literal => match byte {
                    b'\\' => Scan::Escape,
                    b'"' => Scan::Default,
                    _ => Scan::Literal,
                },
                Scan::Escape => Scan::Literal,
                Scan::Comment => {
                    if byte == b'\n' {
                        Scan::Default
                    } else {
                        Scan::Comment
                    }
                }
            };
            self.scanned += 1;
        }
        None
    }

    /// Run the statement parser over one complete statement, carrying the
    /// prefix table and line counter across statements.
    fn parse_statement_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| RdfError::parse(self.line, "invalid UTF-8 in input"))?;
        let namespaces = std::mem::take(&mut self.namespaces);
        let expanded = std::mem::take(&mut self.expanded);
        let mut parser = Parser::with_state(text, self.line, namespaces, expanded);
        let outcome = parser.parse_single();
        self.line = parser.line;
        self.namespaces = parser.namespaces;
        self.expanded = parser.expanded;
        if outcome.is_ok() {
            self.pending.extend(parser.triples.drain(..));
        }
        outcome
    }
}

/// Serialise a graph as Turtle, grouping triples by subject and shrinking
/// IRIs through the given namespaces. Deterministic output.
pub fn write(graph: &Graph, namespaces: &Namespaces) -> String {
    let mut out = String::new();
    for (prefix, ns) in namespaces.iter() {
        out.push_str(&format!("@prefix {prefix}: <{ns}> .\n"));
    }
    if !namespaces.is_empty() {
        out.push('\n');
    }

    let mut triples: Vec<Triple> = graph.iter().collect();
    triples.sort();
    let mut current_subject: Option<Term> = None;
    for (i, t) in triples.iter().enumerate() {
        let is_new_subject = current_subject.as_ref() != Some(&t.subject);
        if is_new_subject {
            if current_subject.is_some() {
                out.push_str(" .\n");
            }
            out.push_str(&write_term(&t.subject, namespaces));
            out.push_str("\n    ");
            current_subject = Some(t.subject.clone());
        } else {
            out.push_str(" ;\n    ");
        }
        out.push_str(&write_term(&t.predicate, namespaces));
        out.push(' ');
        out.push_str(&write_term(&t.object, namespaces));
        if i == triples.len() - 1 {
            out.push_str(" .\n");
        }
    }
    out
}

/// Serialise one term in Turtle syntax, shrinking IRIs when possible.
pub fn write_term(term: &Term, namespaces: &Namespaces) -> String {
    match term {
        Term::Iri(iri) => {
            if &**iri == crate::namespace::vocab::RDF_TYPE {
                "a".to_string()
            } else {
                match namespaces.shrink(iri) {
                    Some(curie) if is_safe_curie(&curie) => curie,
                    _ => format!("<{iri}>"),
                }
            }
        }
        Term::Blank(b) => format!("_:{b}"),
        Term::Literal(lit) => {
            let mut s = format!("\"{}\"", escape_literal(&lit.value));
            if let Some(lang) = &lit.language {
                s.push('@');
                s.push_str(lang);
            } else if let Some(dt) = &lit.datatype {
                s.push_str("^^");
                s.push_str(&match namespaces.shrink(dt) {
                    Some(curie) if is_safe_curie(&curie) => curie,
                    _ => format!("<{dt}>"),
                });
            }
            s
        }
    }
}

fn is_safe_curie(curie: &str) -> bool {
    curie
        .chars()
        .all(|c| c.is_alphanumeric() || matches!(c, ':' | '_' | '-' | '.'))
        && !curie.ends_with('.')
}

/// The statement-level parser shared by [`TurtleStreamer`] and batch
/// [`parse`]: one instance parses exactly one directive or triple statement,
/// with the prefix table and line counter threaded in and out by the caller.
///
/// The parser walks the statement's `&str` by byte offset, so IRI refs and
/// blank labels are sliced out and copied once, into the term's payload.
struct Parser<'a> {
    input: &'a str,
    pos: usize,
    line: usize,
    namespaces: Namespaces,
    /// Scratch for prefixed-name expansion, reused across statements.
    expanded: String,
    triples: Vec<Triple>,
}

impl<'a> Parser<'a> {
    fn with_state(input: &'a str, line: usize, namespaces: Namespaces, expanded: String) -> Self {
        Parser {
            input,
            pos: 0,
            line,
            namespaces,
            expanded,
            triples: Vec::new(),
        }
    }

    /// Parse at most one statement (or `@prefix` directive) and require the
    /// input to hold nothing else. Whitespace/comment-only input is fine.
    fn parse_single(&mut self) -> Result<()> {
        self.skip_ws_and_comments();
        if self.at_end() {
            return Ok(());
        }
        if self.peek_str("@prefix") {
            self.parse_prefix()?;
        } else {
            self.parse_statement()?;
        }
        self.skip_ws_and_comments();
        if !self.at_end() {
            return Err(self.err("trailing content after '.'"));
        }
        Ok(())
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if let Some(ch) = c {
            if ch == '\n' {
                self.line += 1;
            }
            self.pos += ch.len_utf8();
        }
        c
    }

    fn peek_str(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            while matches!(self.peek(), Some(c) if c.is_whitespace()) {
                self.bump();
            }
            if self.peek() == Some('#') {
                while !matches!(self.peek(), None | Some('\n')) {
                    self.bump();
                }
            } else {
                break;
            }
        }
    }

    fn err(&self, msg: impl Into<String>) -> RdfError {
        RdfError::parse(self.line, msg.into())
    }

    fn expect(&mut self, expected: char) -> Result<()> {
        match self.bump() {
            Some(c) if c == expected => Ok(()),
            Some(c) => Err(self.err(format!("expected '{expected}', found '{c}'"))),
            None => Err(self.err(format!("expected '{expected}', found end of input"))),
        }
    }

    fn parse_prefix(&mut self) -> Result<()> {
        for _ in 0.."@prefix".len() {
            self.bump();
        }
        self.skip_ws_and_comments();
        // EOF mid-token simply ends the scan (and `expect` below reports
        // the truncation as a parse error).
        let prefix = self.take_while(|c| !(c == ':' || c.is_whitespace()));
        self.expect(':')?;
        self.skip_ws_and_comments();
        let iri = self.parse_iri_ref()?;
        self.skip_ws_and_comments();
        self.expect('.')?;
        self.namespaces.declare(prefix, iri);
        Ok(())
    }

    fn parse_statement(&mut self) -> Result<()> {
        let subject = self.parse_term()?;
        loop {
            self.skip_ws_and_comments();
            let predicate = self.parse_verb()?;
            loop {
                self.skip_ws_and_comments();
                let object = self.parse_term()?;
                self.triples
                    .push(Triple::new(subject.clone(), predicate.clone(), object));
                self.skip_ws_and_comments();
                match self.peek() {
                    Some(',') => {
                        self.bump();
                    }
                    _ => break,
                }
            }
            self.skip_ws_and_comments();
            match self.peek() {
                Some(';') => {
                    self.bump();
                    self.skip_ws_and_comments();
                    // A dangling ';' directly before '.' is tolerated.
                    if self.peek() == Some('.') {
                        self.bump();
                        return Ok(());
                    }
                }
                Some('.') => {
                    self.bump();
                    return Ok(());
                }
                Some(c) => return Err(self.err(format!("expected ';' or '.', found '{c}'"))),
                None => return Err(self.err("unexpected end of input inside statement")),
            }
        }
    }

    fn parse_verb(&mut self) -> Result<Term> {
        if self.peek() == Some('a') {
            // `a` is only the rdf:type keyword when followed by whitespace.
            let next = self.rest()[1..].chars().next();
            if next.is_none() || next.is_some_and(|c| c.is_whitespace()) {
                self.bump();
                return Ok(Term::iri(crate::namespace::vocab::RDF_TYPE));
            }
        }
        self.parse_term()
    }

    /// Advance past the longest run of chars satisfying `keep` (counting
    /// lines as it goes) and return that run as a slice of the input.
    fn take_while(&mut self, keep: impl Fn(char) -> bool) -> &'a str {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if keep(c)) {
            self.bump();
        }
        &self.input[start..self.pos]
    }

    fn parse_iri_ref(&mut self) -> Result<&'a str> {
        self.expect('<')?;
        let iri = self.take_while(|c| c != '>');
        if self.bump().is_none() {
            return Err(self.err("unterminated IRI"));
        }
        if iri.is_empty() {
            return Err(RdfError::InvalidIri("<>".to_string()));
        }
        Ok(iri)
    }

    fn parse_term(&mut self) -> Result<Term> {
        match self.peek() {
            Some('<') => Ok(Term::iri(self.parse_iri_ref()?)),
            Some('"') => self.parse_literal(),
            Some('_') => self.parse_blank(),
            Some(c) if c.is_alphanumeric() => Ok(Term::iri(self.parse_prefixed_name()?)),
            Some(c) => Err(self.err(format!("unexpected character '{c}' at start of term"))),
            None => Err(self.err("unexpected end of input, expected a term")),
        }
    }

    fn parse_blank(&mut self) -> Result<Term> {
        self.expect('_')?;
        self.expect(':')?;
        let label = self.take_while(|c| c.is_alphanumeric() || c == '_' || c == '-');
        if label.is_empty() {
            return Err(self.err("empty blank node label"));
        }
        Ok(Term::blank(label))
    }

    /// Read a prefixed name and return its expansion, spelled out in the
    /// parser's reused `expanded` buffer.
    fn parse_prefixed_name(&mut self) -> Result<&str> {
        let scanned =
            self.take_while(|c| c.is_alphanumeric() || matches!(c, ':' | '_' | '-' | '.'));
        // A trailing '.' belongs to the statement terminator, not the name.
        let name = scanned.trim_end_matches('.');
        self.pos -= scanned.len() - name.len();
        let (prefix, local) = name
            .split_once(':')
            .ok_or_else(|| self.err(format!("expected prefixed name, found '{name}'")))?;
        let ns = self
            .namespaces
            .get(prefix)
            .ok_or_else(|| RdfError::UnknownPrefix(prefix.to_string()))?;
        self.expanded.clear();
        self.expanded.push_str(ns);
        self.expanded.push_str(local);
        Ok(&self.expanded)
    }

    fn parse_literal(&mut self) -> Result<Term> {
        self.expect('"')?;
        let start = self.pos;
        loop {
            match self.bump() {
                Some('\\') => {
                    if self.bump().is_none() {
                        return Err(self.err("dangling escape in literal"));
                    }
                }
                Some('"') => break,
                Some(_) => {}
                None => return Err(self.err("unterminated literal")),
            }
        }
        // `pos` is one past the closing quote.
        let value = unescape_literal(&self.input[start..self.pos - 1]);
        match self.peek() {
            Some('@') => {
                self.bump();
                let lang = self.take_while(|c| c.is_alphanumeric() || c == '-');
                if lang.is_empty() {
                    return Err(self.err("empty language tag"));
                }
                Ok(Literal::lang(value, lang).into())
            }
            Some('^') => {
                self.bump();
                self.expect('^')?;
                let datatype = match self.peek() {
                    Some('<') => self.parse_iri_ref()?,
                    _ => self.parse_prefixed_name()?,
                };
                Ok(Literal::typed(value, datatype).into())
            }
            _ => Ok(Literal::plain(value).into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::namespace::vocab;

    const DOC: &str = r#"
@prefix ex: <http://example.org/vocab#> .
@prefix cls: <http://example.org/classes#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

# A fixed film resistor from the catalog
<http://example.org/prod/1>
    a cls:FixedFilmResistor ;
    ex:partNumber "CRCW0805-10K-5%-63V" ;
    ex:manufacturer "Vishay" , "Vishay Intertechnology" ;
    ex:resistance "10000"^^xsd:integer ;
    ex:label "10 k resistor"@en .

<http://example.org/prod/2> a cls:TantalumCapacitor ; ex:partNumber "T83A225K" .
"#;

    #[test]
    fn parse_full_document() {
        let (g, ns) = parse(DOC).unwrap();
        assert_eq!(ns.len(), 3);
        // 6 triples for prod/1 (two manufacturers) + 2 for prod/2
        assert_eq!(g.len(), 8);
        let type_triples: Vec<_> = g
            .triples_matching(
                Some(&Term::iri("http://example.org/prod/1")),
                Some(&Term::iri(vocab::RDF_TYPE)),
                None,
            )
            .collect();
        assert_eq!(type_triples.len(), 1);
        assert_eq!(
            type_triples[0].object.as_iri(),
            Some("http://example.org/classes#FixedFilmResistor")
        );
    }

    #[test]
    fn typed_and_lang_literals_parse() {
        let (g, _) = parse(DOC).unwrap();
        let resistance = g
            .object_of(
                &Term::iri("http://example.org/prod/1"),
                &Term::iri("http://example.org/vocab#resistance"),
            )
            .unwrap();
        let lit = resistance.as_literal().unwrap();
        assert_eq!(lit.value, "10000");
        assert_eq!(lit.datatype.as_deref(), Some(vocab::XSD_INTEGER));
        let label = g
            .object_of(
                &Term::iri("http://example.org/prod/1"),
                &Term::iri("http://example.org/vocab#label"),
            )
            .unwrap();
        assert_eq!(label.as_literal().unwrap().language.as_deref(), Some("en"));
    }

    #[test]
    fn object_lists_expand() {
        let (g, _) = parse(DOC).unwrap();
        let mfrs = g.objects_of(
            &Term::iri("http://example.org/prod/1"),
            &Term::iri("http://example.org/vocab#manufacturer"),
        );
        assert_eq!(mfrs.len(), 2);
    }

    #[test]
    fn unknown_prefix_is_an_error() {
        let doc = "<http://a.org/x> nope:pred \"v\" .";
        assert!(matches!(parse(doc), Err(RdfError::UnknownPrefix(_))));
    }

    #[test]
    fn missing_terminator_is_an_error() {
        let doc = "@prefix ex: <http://e.org/> .\nex:a ex:b \"v\"";
        assert!(parse(doc).is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let doc = "# only a comment\n\n   # another\n";
        let (g, ns) = parse(doc).unwrap();
        assert!(g.is_empty());
        assert!(ns.is_empty());
    }

    #[test]
    fn dangling_semicolon_before_dot_is_tolerated() {
        let doc = "@prefix ex: <http://e.org/> .\nex:a ex:p \"v\" ;\n.";
        let (g, _) = parse(doc).unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn blank_node_subjects_parse() {
        let doc = "@prefix ex: <http://e.org/> .\n_:b0 ex:p \"v\" .";
        let (g, _) = parse(doc).unwrap();
        assert_eq!(g.len(), 1);
        assert!(g.iter().next().unwrap().subject.is_blank());
    }

    #[test]
    fn write_then_parse_roundtrip() {
        let (g, ns) = parse(DOC).unwrap();
        let out = write(&g, &ns);
        let (g2, _) = parse(&out).unwrap();
        assert_eq!(g2.len(), g.len());
        for t in g.iter() {
            assert!(g2.contains(&t), "missing after roundtrip: {t}");
        }
    }

    #[test]
    fn write_uses_a_for_rdf_type_and_curies() {
        let (g, ns) = parse(DOC).unwrap();
        let out = write(&g, &ns);
        assert!(
            out.contains(" a cls:FixedFilmResistor")
                || out.contains("\n    a cls:FixedFilmResistor")
        );
        assert!(out.contains("ex:partNumber"));
        assert!(out.contains("@prefix ex:"));
    }

    #[test]
    fn write_empty_graph() {
        let out = write(&Graph::new(), &Namespaces::new());
        assert!(out.is_empty());
    }

    #[test]
    fn streamed_parse_matches_batch_at_every_byte_split() {
        let bytes = DOC.as_bytes();
        let (batch, batch_ns) = parse(DOC).unwrap();
        let mut batch_triples: Vec<Triple> = batch.iter().collect();
        batch_triples.sort();
        for split in 0..=bytes.len() {
            let mut streamer = TurtleStreamer::new();
            streamer.feed(&bytes[..split]);
            streamer.feed(&bytes[split..]);
            streamer.finish();
            let mut g = Graph::new();
            while let Some(t) = streamer.next_triple() {
                g.insert(t.unwrap());
            }
            let mut triples: Vec<Triple> = g.iter().collect();
            triples.sort();
            assert_eq!(triples, batch_triples, "split at byte {split}");
            assert_eq!(
                streamer.into_namespaces(),
                batch_ns,
                "split at byte {split}"
            );
        }
    }

    #[test]
    fn streamer_drains_statements_as_they_complete() {
        let mut streamer = TurtleStreamer::new();
        streamer.feed(b"@prefix ex: <http://e.org/> .\n");
        // The directive is consumable before any triple statement arrives.
        assert!(streamer.next_triple().is_none());
        assert_eq!(streamer.namespaces().len(), 1);
        assert!(streamer.buffered_bytes() < 2);
        streamer.feed(b"ex:a ex:p \"v1\" , \"v2\" . ex:b");
        assert_eq!(
            streamer.next_triple().unwrap().unwrap().object.value_str(),
            "v1"
        );
        assert_eq!(
            streamer.next_triple().unwrap().unwrap().object.value_str(),
            "v2"
        );
        // "ex:b" is an incomplete statement: buffered, not yet emitted.
        assert!(streamer.next_triple().is_none());
        streamer.feed(b" ex:p \"v3\" .");
        streamer.finish();
        assert_eq!(
            streamer.next_triple().unwrap().unwrap().object.value_str(),
            "v3"
        );
        assert!(streamer.next_triple().is_none());
    }

    #[test]
    fn streamer_dot_inside_literal_iri_and_comment_is_not_a_boundary() {
        let doc = "@prefix ex: <http://e.org/x.y/> . # dot. in comment.\n\
                   <http://e.org/a.b> ex:p \"v. 1.5\" .";
        let mut streamer = TurtleStreamer::new();
        streamer.feed(doc.as_bytes());
        streamer.finish();
        let t = streamer.next_triple().unwrap().unwrap();
        assert_eq!(t.subject.as_iri(), Some("http://e.org/a.b"));
        assert_eq!(t.predicate.as_iri(), Some("http://e.org/x.y/p"));
        assert_eq!(t.object.value_str(), "v. 1.5");
        assert!(streamer.next_triple().is_none());
    }

    #[test]
    fn streamer_unterminated_tail_is_an_error_after_finish() {
        let mut streamer = TurtleStreamer::new();
        streamer.feed(b"@prefix ex: <http://e.org/> .\nex:a ex:p \"v\"");
        streamer.finish();
        assert!(streamer.next_triple().unwrap().is_err());
        assert!(streamer.next_triple().is_none());
    }

    #[test]
    fn curie_with_special_chars_falls_back_to_full_iri() {
        let mut ns = Namespaces::new();
        ns.declare("ex", "http://e.org/");
        let term = Term::iri("http://e.org/path/with/slashes");
        let s = write_term(&term, &ns);
        assert_eq!(s, "<http://e.org/path/with/slashes>");
    }
}
