//! N-Triples parsing and serialisation.
//!
//! N-Triples is the line-oriented RDF exchange syntax: one triple per line,
//! terms written in full. It is the format the synthetic catalog generator
//! emits and the format examples read back, so round-tripping must be exact.
//!
//! Two reading modes share one code path: [`NTriplesStreamer`] consumes the
//! input as byte chunks (a multi-GB feed is parsed with memory bounded by
//! one line plus one chunk), and the batch [`parse`] is a thin wrapper that
//! feeds the whole document through the same streamer.

use crate::error::{RdfError, Result};
use crate::graph::Graph;
use crate::term::{escape_literal, unescape_literal, Literal, Term};
use crate::triple::Triple;

/// Parse a complete N-Triples document into a [`Graph`].
///
/// Thin wrapper over [`NTriplesStreamer`]: the whole input is fed as one
/// chunk and the emitted triples are collected into a graph.
pub fn parse(input: &str) -> Result<Graph> {
    let mut streamer = NTriplesStreamer::new();
    streamer.feed(input.as_bytes());
    streamer.finish();
    let mut graph = Graph::new();
    while let Some(triple) = streamer.next_triple() {
        graph.insert(triple?);
    }
    Ok(graph)
}

/// An incremental N-Triples reader: push byte chunks in, pull [`Triple`]s out.
///
/// Chunks may split the input anywhere — mid-line, mid-token, even inside a
/// multi-byte UTF-8 sequence — because a line is only decoded once its
/// terminating `\n` (a byte that never occurs inside a UTF-8 continuation)
/// has arrived. Internal buffering is bounded by the longest input line plus
/// the last fed chunk; completed lines are drained as soon as they are
/// emitted, so a feed of any size parses in O(line) memory.
///
/// ```
/// use classilink_rdf::NTriplesStreamer;
///
/// let mut streamer = NTriplesStreamer::new();
/// // Chunk boundaries need not align with lines (or even characters).
/// streamer.feed(b"<http://e.org/a> <http://e.org/p> \"v1\" .\n<http://e.org");
/// streamer.feed(b"/b> <http://e.org/p> \"v2\" .");
/// streamer.finish();
/// let mut n = 0;
/// while let Some(triple) = streamer.next_triple() {
///     triple.unwrap();
///     n += 1;
/// }
/// assert_eq!(n, 2);
/// ```
#[derive(Debug, Default)]
pub struct NTriplesStreamer {
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for a newline (avoids rescans when a
    /// long line arrives across many chunks).
    scanned: usize,
    line_no: usize,
    finished: bool,
    failed: bool,
}

impl NTriplesStreamer {
    /// A streamer with no input yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a chunk of input bytes. Call [`next_triple`](Self::next_triple)
    /// between feeds to keep the internal buffer bounded.
    pub fn feed(&mut self, chunk: &[u8]) {
        debug_assert!(!self.finished, "feed after finish");
        self.buf.extend_from_slice(chunk);
    }

    /// Signal end of input: a final line without a trailing newline becomes
    /// available to [`next_triple`](Self::next_triple).
    pub fn finish(&mut self) {
        self.finished = true;
    }

    /// Bytes currently buffered (at most one incomplete line once drained).
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Pull the next parsed triple.
    ///
    /// Returns `None` when every complete line fed so far has been consumed
    /// (feed more chunks, or [`finish`](Self::finish) to flush the tail).
    /// After the first `Err` the streamer is poisoned and yields `None`.
    pub fn next_triple(&mut self) -> Option<Result<Triple>> {
        if self.failed {
            return None;
        }
        loop {
            let newline = self.buf[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|i| self.scanned + i);
            let line_bytes: Vec<u8> = match newline {
                Some(end) => {
                    let mut line: Vec<u8> = self.buf.drain(..=end).collect();
                    line.pop();
                    self.scanned = 0;
                    line
                }
                None if self.finished && !self.buf.is_empty() => {
                    self.scanned = 0;
                    std::mem::take(&mut self.buf)
                }
                None => {
                    self.scanned = self.buf.len();
                    return None;
                }
            };
            self.line_no += 1;
            let line = match std::str::from_utf8(&line_bytes) {
                Ok(line) => line,
                Err(_) => {
                    self.failed = true;
                    return Some(Err(RdfError::parse(self.line_no, "invalid UTF-8 in input")));
                }
            };
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let parsed = parse_line(trimmed, self.line_no);
            if parsed.is_err() {
                self.failed = true;
            }
            return Some(parsed);
        }
    }
}

/// Parse a single N-Triples statement (without the trailing newline).
pub fn parse_line(line: &str, line_no: usize) -> Result<Triple> {
    let mut cursor = Cursor::new(line, line_no);
    cursor.skip_ws();
    let subject = cursor.parse_term()?;
    cursor.skip_ws();
    let predicate = cursor.parse_term()?;
    cursor.skip_ws();
    let object = cursor.parse_term()?;
    cursor.skip_ws();
    cursor.expect('.')?;
    cursor.skip_ws();
    if !cursor.at_end() {
        return Err(RdfError::parse(
            line_no,
            format!("trailing content after '.': {}", cursor.rest()),
        ));
    }
    Ok(Triple::new(subject, predicate, object))
}

/// Serialise a single triple as an N-Triples line (without trailing newline).
pub fn write_triple(triple: &Triple) -> String {
    format!(
        "{} {} {} .",
        write_term(&triple.subject),
        write_term(&triple.predicate),
        write_term(&triple.object)
    )
}

/// Serialise a term in N-Triples syntax.
pub fn write_term(term: &Term) -> String {
    match term {
        Term::Iri(iri) => format!("<{iri}>"),
        Term::Blank(b) => format!("_:{b}"),
        Term::Literal(lit) => {
            let mut out = format!("\"{}\"", escape_literal(&lit.value));
            if let Some(lang) = &lit.language {
                out.push('@');
                out.push_str(lang);
            } else if let Some(dt) = &lit.datatype {
                out.push_str("^^<");
                out.push_str(dt);
                out.push('>');
            }
            out
        }
    }
}

/// Serialise a whole graph as an N-Triples document (sorted, deterministic).
pub fn write(graph: &Graph) -> String {
    let mut lines: Vec<String> = graph.iter().map(|t| write_triple(&t)).collect();
    lines.sort();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// A small cursor over one statement, advancing by byte offset through
/// the already-validated `&str` so tokens can be sliced out without
/// copying them char by char.
struct Cursor<'a> {
    raw: &'a str,
    pos: usize,
    line_no: usize,
}

impl<'a> Cursor<'a> {
    fn new(raw: &'a str, line_no: usize) -> Self {
        Cursor {
            raw,
            pos: 0,
            line_no,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.raw.len()
    }

    fn peek(&self) -> Option<char> {
        self.raw[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if let Some(c) = c {
            self.pos += c.len_utf8();
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn rest(&self) -> &'a str {
        &self.raw[self.pos..]
    }

    fn expect(&mut self, expected: char) -> Result<()> {
        match self.bump() {
            Some(c) if c == expected => Ok(()),
            Some(c) => Err(RdfError::parse(
                self.line_no,
                format!("expected '{expected}' but found '{c}' in: {}", self.raw),
            )),
            None => Err(RdfError::parse(
                self.line_no,
                format!(
                    "expected '{expected}' but reached end of line: {}",
                    self.raw
                ),
            )),
        }
    }

    fn parse_term(&mut self) -> Result<Term> {
        match self.peek() {
            Some('<') => Ok(Term::iri(self.parse_iri()?)),
            Some('_') => self.parse_blank(),
            Some('"') => self.parse_literal(),
            Some(c) => Err(RdfError::parse(
                self.line_no,
                format!(
                    "unexpected character '{c}' at start of term in: {}",
                    self.raw
                ),
            )),
            None => Err(RdfError::parse(
                self.line_no,
                format!("unexpected end of line, expected a term in: {}", self.raw),
            )),
        }
    }

    /// An `<iri>` token, returned as a slice of the statement (the caller
    /// copies it once, into the term's shared payload).
    fn parse_iri(&mut self) -> Result<&'a str> {
        self.expect('<')?;
        let start = self.pos;
        let Some(len) = self.rest().find('>') else {
            return Err(RdfError::parse(
                self.line_no,
                format!("unterminated IRI in: {}", self.raw),
            ));
        };
        self.pos += len + 1;
        if len == 0 {
            return Err(RdfError::InvalidIri("<>".to_string()));
        }
        Ok(&self.raw[start..start + len])
    }

    fn parse_blank(&mut self) -> Result<Term> {
        self.expect('_')?;
        self.expect(':')?;
        let rest = self.rest();
        let len = rest.find(char::is_whitespace).unwrap_or(rest.len());
        self.pos += len;
        if len == 0 {
            return Err(RdfError::parse(
                self.line_no,
                format!("empty blank node label in: {}", self.raw),
            ));
        }
        Ok(Term::blank(&rest[..len]))
    }

    fn parse_literal(&mut self) -> Result<Term> {
        self.expect('"')?;
        let start = self.pos;
        loop {
            match self.bump() {
                Some('\\') => {
                    if self.bump().is_none() {
                        return Err(RdfError::InvalidLiteral(format!(
                            "dangling escape in: {}",
                            self.raw
                        )));
                    }
                }
                Some('"') => break,
                Some(_) => {}
                None => {
                    return Err(RdfError::InvalidLiteral(format!(
                        "unterminated literal in: {}",
                        self.raw
                    )))
                }
            }
        }
        // `pos` is one past the closing quote.
        let value = unescape_literal(&self.raw[start..self.pos - 1]);
        match self.peek() {
            Some('@') => {
                self.bump();
                let rest = self.rest();
                let len = rest
                    .find(|c: char| !(c.is_alphanumeric() || c == '-'))
                    .unwrap_or(rest.len());
                self.pos += len;
                if len == 0 {
                    return Err(RdfError::InvalidLiteral(format!(
                        "empty language tag in: {}",
                        self.raw
                    )));
                }
                Ok(Literal::lang(value, &rest[..len]).into())
            }
            Some('^') => {
                self.bump();
                self.expect('^')?;
                let datatype = self.parse_iri()?;
                Ok(Literal::typed(value, datatype).into())
            }
            _ => Ok(Literal::plain(value).into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_simple_document() {
        let doc = r#"
# a comment
<http://e.org/p1> <http://e.org/v#pn> "CRCW0805-10K" .
<http://e.org/p1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e.org/cls#Resistor> .

<http://e.org/p2> <http://e.org/v#label> "10 kΩ resistor"@en .
<http://e.org/p2> <http://e.org/v#value> "10000"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b0 <http://e.org/v#note> "blank subject" .
"#;
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn parse_literal_with_escapes() {
        let line = r#"<http://e.org/a> <http://e.org/p> "line1\nline2 \"quoted\"" ."#;
        let t = parse_line(line, 1).unwrap();
        assert_eq!(t.object.value_str(), "line1\nline2 \"quoted\"");
    }

    #[test]
    fn parse_errors_are_reported_with_line() {
        let doc = "<http://e.org/a> <http://e.org/p> \"v\" .\nnot a triple";
        let err = parse(doc).unwrap_err();
        match err {
            RdfError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn missing_dot_is_an_error() {
        assert!(parse_line("<http://a> <http://p> \"v\"", 1).is_err());
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        assert!(parse_line("<http://a> <http://p> \"v\" . junk", 1).is_err());
    }

    #[test]
    fn unterminated_iri_and_literal() {
        assert!(parse_line("<http://a <http://p> \"v\" .", 1).is_err());
        assert!(parse_line("<http://a> <http://p> \"v .", 1).is_err());
        assert!(parse_line("<http://a> <http://p> \"v\"@ .", 1).is_err());
        assert!(parse_line("<> <http://p> \"v\" .", 1).is_err());
        assert!(parse_line("_: <http://p> \"v\" .", 1).is_err());
    }

    #[test]
    fn write_then_parse_roundtrip() {
        let mut g = Graph::new();
        g.insert(Triple::literal("http://e.org/a", "http://e.org/p", "plain"));
        g.insert(Triple::new(
            Term::iri("http://e.org/a"),
            Term::iri("http://e.org/q"),
            Term::lang_literal("étiquette", "fr"),
        ));
        g.insert(Triple::new(
            Term::iri("http://e.org/a"),
            Term::iri("http://e.org/r"),
            Term::typed_literal("3.5", crate::namespace::vocab::XSD_DECIMAL),
        ));
        g.insert(Triple::new(
            Term::blank("b1"),
            Term::iri("http://e.org/p"),
            Term::literal("with \"quotes\" and \\slashes\\"),
        ));
        let doc = write(&g);
        let g2 = parse(&doc).unwrap();
        assert_eq!(g2.len(), g.len());
        for t in g.iter() {
            assert!(g2.contains(&t), "missing after roundtrip: {t}");
        }
    }

    #[test]
    fn write_is_deterministic_and_sorted() {
        let mut g = Graph::new();
        g.insert(Triple::literal("http://e.org/b", "http://e.org/p", "2"));
        g.insert(Triple::literal("http://e.org/a", "http://e.org/p", "1"));
        let out = write(&g);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0] < lines[1]);
        assert_eq!(out, write(&g));
    }

    #[test]
    fn empty_graph_writes_empty_string() {
        assert_eq!(write(&Graph::new()), "");
        assert_eq!(parse("").unwrap().len(), 0);
    }

    #[test]
    fn streamer_handles_mid_utf8_chunk_splits() {
        let doc = "<http://e.org/a> <http://e.org/p> \"10 kΩ – résistance\" .\n\
                   <http://e.org/b> <http://e.org/p> \"élément\"@fr .\n";
        let bytes = doc.as_bytes();
        // Split inside the multi-byte 'Ω' and inside 'é'.
        for split in 1..bytes.len() {
            let mut streamer = NTriplesStreamer::new();
            streamer.feed(&bytes[..split]);
            streamer.feed(&bytes[split..]);
            streamer.finish();
            let mut triples = Vec::new();
            while let Some(t) = streamer.next_triple() {
                triples.push(t.unwrap());
            }
            assert_eq!(triples.len(), 2, "split at byte {split}");
            assert_eq!(triples[0].object.value_str(), "10 kΩ – résistance");
        }
    }

    #[test]
    fn streamer_buffer_stays_bounded_when_drained() {
        let line = "<http://e.org/a> <http://e.org/p> \"v\" .\n";
        let mut streamer = NTriplesStreamer::new();
        let mut emitted = 0;
        for _ in 0..1000 {
            streamer.feed(line.as_bytes());
            while let Some(t) = streamer.next_triple() {
                t.unwrap();
                emitted += 1;
            }
            assert!(
                streamer.buffered_bytes() < 2 * line.len(),
                "buffer grew past one line: {}",
                streamer.buffered_bytes()
            );
        }
        streamer.finish();
        assert!(streamer.next_triple().is_none());
        assert_eq!(emitted, 1000);
    }

    #[test]
    fn streamer_reports_errors_with_global_line_numbers_and_poisons() {
        let mut streamer = NTriplesStreamer::new();
        streamer.feed(b"<http://e.org/a> <http://e.org/p> \"v\" .\n");
        streamer.feed(b"not a triple\n<http://e.org/b> <http://e.org/p> \"w\" .\n");
        streamer.finish();
        assert!(streamer.next_triple().unwrap().is_ok());
        match streamer.next_triple().unwrap().unwrap_err() {
            RdfError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error: {other}"),
        }
        // Poisoned after the first error, like batch parse aborting.
        assert!(streamer.next_triple().is_none());
    }

    proptest! {
        /// Any plain-literal triple with printable content must round-trip
        /// through write → parse unchanged.
        #[test]
        fn prop_literal_roundtrip(value in "[ -~]{0,40}", local in "[a-zA-Z][a-zA-Z0-9]{0,10}") {
            let t = Triple::new(
                Term::iri(format!("http://e.org/{local}")),
                Term::iri("http://e.org/p"),
                Term::literal(value.clone()),
            );
            let line = write_triple(&t);
            let back = parse_line(&line, 1).unwrap();
            prop_assert_eq!(back, t);
        }

        /// Escaping never loses information for arbitrary unicode strings.
        #[test]
        fn prop_escape_roundtrip(value in "\\PC{0,60}") {
            let escaped = escape_literal(&value);
            let back = unescape_literal(&escaped);
            prop_assert_eq!(back, value);
        }
    }
}
