//! A small Interface Description Language (paper §2, footnote 1).
//!
//! The paper says Legion class interfaces "can be described in an Interface
//! Description Language", naming the CORBA IDL and MPL as candidates. This
//! module implements a compact CORBA-flavoured subset sufficient for the
//! core model (no MPL front end: nothing in the system speaks it):
//!
//! ```idl
//! // Comments run to end of line (// or #).
//! interface BindingAgent {
//!     binding GetBinding(loid target);
//!     void    InvalidateBinding(loid target);
//!     void    AddBinding(binding b);
//! };
//! ```
//!
//! Types are the [`ParamType`] keywords: `void bool int uint float string
//! bytes loid address binding list`. A file may declare several
//! interfaces. Parse errors carry 1-based line numbers.

use crate::error::{CoreError, CoreResult};
use crate::interface::{Interface, MethodSignature, Param, ParamType};
use crate::loid::Loid;

/// A parsed interface declaration, not yet attributed to a class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdlInterface {
    /// The declared interface name.
    pub name: String,
    /// The method signatures, in declaration order.
    pub methods: Vec<MethodSignature>,
}

impl IdlInterface {
    /// Convert to a run-time [`Interface`] attributed to `provider`.
    pub fn into_interface(self, provider: Loid) -> Interface {
        let mut i = Interface::new();
        for m in self.methods {
            i.define(m, provider);
        }
        i
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Comma,
    Semi,
}

struct Lexer<'a> {
    src: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.chars().peekable(),
            line: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> CoreError {
        CoreError::IdlParse {
            line: self.line,
            message: message.into(),
        }
    }

    /// Next token with the line it started on, or `None` at end of input.
    fn next_tok(&mut self) -> CoreResult<Option<(Tok, usize)>> {
        loop {
            match self.src.peek().copied() {
                None => return Ok(None),
                Some('\n') => {
                    self.line += 1;
                    self.src.next();
                }
                Some(c) if c.is_whitespace() => {
                    self.src.next();
                }
                Some('#') => self.skip_line(),
                Some('/') => {
                    self.src.next();
                    if self.src.peek() == Some(&'/') {
                        self.skip_line();
                    } else {
                        return Err(self.err("stray '/' (comments are // or #)"));
                    }
                }
                Some('{') => return self.one(Tok::LBrace),
                Some('}') => return self.one(Tok::RBrace),
                Some('(') => return self.one(Tok::LParen),
                Some(')') => return self.one(Tok::RParen),
                Some(',') => return self.one(Tok::Comma),
                Some(';') => return self.one(Tok::Semi),
                Some(c) if c.is_ascii_alphanumeric() || c == '_' => {
                    let line = self.line;
                    let mut s = String::new();
                    while let Some(&c) = self.src.peek() {
                        if c.is_ascii_alphanumeric() || c == '_' {
                            s.push(c);
                            self.src.next();
                        } else {
                            break;
                        }
                    }
                    return Ok(Some((Tok::Ident(s), line)));
                }
                Some(c) => return Err(self.err(format!("unexpected character {c:?}"))),
            }
        }
    }

    fn one(&mut self, t: Tok) -> CoreResult<Option<(Tok, usize)>> {
        let line = self.line;
        self.src.next();
        Ok(Some((t, line)))
    }

    fn skip_line(&mut self) {
        for c in self.src.by_ref() {
            if c == '\n' {
                self.line += 1;
                break;
            }
        }
    }
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|(_, l)| *l)
            .unwrap_or(0)
    }

    fn err(&self, message: impl Into<String>) -> CoreError {
        CoreError::IdlParse {
            line: self.line(),
            message: message.into(),
        }
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> CoreResult<()> {
        match self.next() {
            Some(t) if t == *want => Ok(()),
            Some(t) => Err(CoreError::IdlParse {
                line: self.toks[self.pos - 1].1,
                message: format!("expected {what}, found {t:?}"),
            }),
            None => Err(self.err(format!("expected {what}, found end of input"))),
        }
    }

    fn expect_ident(&mut self, what: &str) -> CoreResult<String> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(t) => Err(CoreError::IdlParse {
                line: self.toks[self.pos - 1].1,
                message: format!("expected {what}, found {t:?}"),
            }),
            None => Err(self.err(format!("expected {what}, found end of input"))),
        }
    }

    fn expect_type(&mut self, what: &str) -> CoreResult<ParamType> {
        let line = self.line();
        let name = self.expect_ident(what)?;
        ParamType::from_idl_name(&name).ok_or(CoreError::IdlParse {
            line,
            message: format!("unknown type `{name}` for {what}"),
        })
    }

    fn parse_interface(&mut self) -> CoreResult<IdlInterface> {
        let kw = self.expect_ident("`interface`")?;
        if kw != "interface" {
            return Err(CoreError::IdlParse {
                line: self.toks[self.pos - 1].1,
                message: format!("expected `interface`, found `{kw}`"),
            });
        }
        let name = self.expect_ident("interface name")?;
        self.expect(&Tok::LBrace, "`{`")?;
        let mut methods = Vec::new();
        loop {
            if self.peek() == Some(&Tok::RBrace) {
                self.next();
                break;
            }
            methods.push(self.parse_method()?);
        }
        // Optional trailing semicolon after `}` (CORBA style).
        if self.peek() == Some(&Tok::Semi) {
            self.next();
        }
        Ok(IdlInterface { name, methods })
    }

    fn parse_method(&mut self) -> CoreResult<MethodSignature> {
        let returns = self.expect_type("return type")?;
        let name = self.expect_ident("method name")?;
        self.expect(&Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                let ty = self.expect_type("parameter type")?;
                if ty == ParamType::Void {
                    return Err(self.err("`void` is not a parameter type"));
                }
                let pname = self.expect_ident("parameter name")?;
                params.push(Param { name: pname, ty });
                match self.peek() {
                    Some(Tok::Comma) => {
                        self.next();
                    }
                    Some(Tok::RParen) => break,
                    _ => return Err(self.err("expected `,` or `)` in parameter list")),
                }
            }
        }
        self.expect(&Tok::RParen, "`)`")?;
        self.expect(&Tok::Semi, "`;`")?;
        Ok(MethodSignature {
            name,
            params,
            returns,
        })
    }
}

/// Parse IDL source into its interface declarations.
///
/// ```
/// let src = "interface File { bytes Read(); void Write(bytes data); };";
/// let decl = legion_core::idl::parse_one(src).unwrap();
/// assert_eq!(decl.name, "File");
/// assert_eq!(decl.methods.len(), 2);
/// ```
pub fn parse(src: &str) -> CoreResult<Vec<IdlInterface>> {
    let mut lexer = Lexer::new(src);
    let mut toks = Vec::new();
    while let Some(t) = lexer.next_tok()? {
        toks.push(t);
    }
    let mut p = Parser { toks, pos: 0 };
    let mut out = Vec::new();
    while p.peek().is_some() {
        out.push(p.parse_interface()?);
    }
    Ok(out)
}

/// Parse IDL source that must contain exactly one interface.
pub fn parse_one(src: &str) -> CoreResult<IdlInterface> {
    let mut all = parse(src)?;
    match all.len() {
        1 => Ok(all.pop().expect("len checked")),
        n => Err(CoreError::IdlParse {
            line: 1,
            message: format!("expected exactly one interface, found {n}"),
        }),
    }
}

/// Render an [`Interface`] back to IDL text (stable, name-ordered).
pub fn render(name: &str, interface: &Interface) -> String {
    let mut out = format!("interface {name} {{\n");
    for sig in interface.iter() {
        out.push_str("    ");
        out.push_str(sig.returns.idl_name());
        out.push(' ');
        out.push_str(&sig.name);
        out.push('(');
        for (i, p) in sig.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(p.ty.idl_name());
            out.push(' ');
            out.push_str(&p.name);
        }
        out.push_str(");\n");
    }
    out.push_str("};\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BINDING_AGENT_IDL: &str = r#"
        // LegionBindingAgent, paper section 3.6.
        interface BindingAgent {
            binding GetBinding(loid target);
            binding RefreshBinding(binding stale);
            void InvalidateBinding(loid target);
            void AddBinding(binding b);
        };
    "#;

    #[test]
    fn parses_binding_agent() {
        let i = parse_one(BINDING_AGENT_IDL).unwrap();
        assert_eq!(i.name, "BindingAgent");
        assert_eq!(i.methods.len(), 4);
        assert_eq!(i.methods[0].name, "GetBinding");
        assert_eq!(i.methods[0].returns, ParamType::Binding);
        assert_eq!(i.methods[0].params[0].ty, ParamType::Loid);
    }

    #[test]
    fn parses_empty_interface_and_no_params() {
        let all = parse("interface Empty {}; interface P { void f(); }").unwrap();
        assert_eq!(all.len(), 2);
        assert!(all[0].methods.is_empty());
        assert!(all[1].methods[0].params.is_empty());
    }

    #[test]
    fn parses_multi_param() {
        let i = parse_one("interface M { int Add(int a, int b); };").unwrap();
        assert_eq!(i.methods[0].params.len(), 2);
        assert_eq!(i.methods[0].to_string(), "int Add(int a, int b)");
    }

    #[test]
    fn hash_comments_work() {
        let i = parse_one("# heading\ninterface C { void f(); # tail\n };").unwrap();
        assert_eq!(i.name, "C");
    }

    #[test]
    fn error_reports_line() {
        let src = "interface C {\n    void f()\n};"; // missing `;` on line 2
        match parse(src) {
            Err(CoreError::IdlParse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_type() {
        let e = parse("interface C { wibble f(); };").unwrap_err();
        assert!(e.to_string().contains("wibble"));
    }

    #[test]
    fn rejects_void_parameter() {
        assert!(parse("interface C { void f(void x); };").is_err());
    }

    #[test]
    fn rejects_stray_slash_and_garbage() {
        assert!(parse("interface C { / }").is_err());
        assert!(parse("interface C { void f(); } @").is_err());
        assert!(parse("iface C {}").is_err());
    }

    #[test]
    fn rejects_truncated_input() {
        assert!(parse("interface C {").is_err());
        assert!(parse("interface").is_err());
        assert!(parse("interface C { void f(int").is_err());
    }

    #[test]
    fn parse_one_requires_exactly_one() {
        assert!(parse_one("interface A {}; interface B {};").is_err());
        assert!(parse_one("").is_err());
    }

    #[test]
    fn render_roundtrip() {
        let i = parse_one(BINDING_AGENT_IDL).unwrap();
        let provider = Loid::class_object(42);
        let iface = i.into_interface(provider);
        let text = render("BindingAgent", &iface);
        let again = parse_one(&text).unwrap().into_interface(provider);
        assert_eq!(iface, again);
    }

    #[test]
    fn into_interface_sets_provenance() {
        let provider = Loid::class_object(42);
        let iface = parse_one("interface C { void f(); };")
            .unwrap()
            .into_interface(provider);
        assert_eq!(iface.provider("f"), Some(provider));
    }
}
