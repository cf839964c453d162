//! Offline stand-in for `serde_derive`.
//!
//! Generates impls of the shim `serde::Serialize` / `serde::Deserialize`
//! traits (which are `Value`-based, see `shims/serde`). The input token
//! stream is parsed by hand — no `syn`/`quote` are available offline — so
//! the supported grammar is exactly what this workspace uses:
//!
//! * structs with named fields, each taking any of these field
//!   attributes (real serde's spelling and meaning):
//!   - `#[serde(skip)]`: never written; decodes as `Default::default()`;
//!   - `#[serde(rename = "key")]`: the map key, when not the field name;
//!   - `#[serde(with = "path")]`: `path::to_value(&field)` and
//!     `path::from_value(&value)` instead of the field type's own impls
//!     (`serde::bits` is the one the workspace uses);
//!   - `#[serde(skip_serializing_if = "path")]`: not written when
//!     `path(&field)` holds;
//!   - `#[serde(default = "path")]`: `path()` when the key is absent (or
//!     null);
//! * tuple structs (newtypes serialize transparently as the inner value)
//! * enums whose variants are unit or tuple variants
//! * plain type parameters (`struct S<D, E>`), each bound by the derived
//!   trait; bounds, lifetimes, const parameters and `where` clauses are
//!   not supported.
//!
//! A field's decode error is prefixed with its key, so a nested failure
//! names its path (`advisor: current: entries: expected sequence`). Any
//! other `serde` attribute, or one in an unsupported place, fails the
//! build with a message naming it.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives the shim `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

/// Derives the shim `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------------------
// Input model
// ---------------------------------------------------------------------------

/// A named field's `#[serde(...)]` attributes.
#[derive(Default)]
struct FieldAttrs {
    skip: bool,
    rename: Option<String>,
    with: Option<String>,
    skip_serializing_if: Option<String>,
    default: Option<String>,
}

impl FieldAttrs {
    fn is_empty(&self) -> bool {
        !self.skip
            && self.rename.is_none()
            && self.with.is_none()
            && self.skip_serializing_if.is_none()
            && self.default.is_none()
    }
}

struct NamedField {
    name: String,
    attrs: FieldAttrs,
}

impl NamedField {
    /// The map key the field is written under.
    fn key(&self) -> &str {
        self.attrs.rename.as_deref().unwrap_or(&self.name)
    }
}

enum Fields {
    Named(Vec<NamedField>),
    /// Tuple fields: arity only (types are never needed for codegen).
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Body {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    /// Plain type parameters, in declaration order.
    params: Vec<String>,
    body: Body,
}

impl Item {
    /// `impl<P: bound, ..> trait_ for Name<P, ..>`.
    fn impl_header(&self, trait_: &str) -> String {
        if self.params.is_empty() {
            return format!("impl {trait_} for {}", self.name);
        }
        let bounded: Vec<String> = self
            .params
            .iter()
            .map(|p| format!("{p}: {trait_}"))
            .collect();
        format!(
            "impl<{}> {trait_} for {}<{}>",
            bounded.join(", "),
            self.name,
            self.params.join(", ")
        )
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

/// Reads the items of one `serde(...)` attribute into `attrs`.
fn parse_serde_attr(inner: TokenStream, attrs: &mut FieldAttrs) {
    let mut tokens = inner.into_iter().peekable();
    while let Some(token) = tokens.next() {
        let name = match token {
            TokenTree::Ident(id) => id.to_string(),
            TokenTree::Punct(p) if p.as_char() == ',' => continue,
            other => panic!("serde_derive: unexpected `{other}` in #[serde(...)]"),
        };
        let value = match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                tokens.next();
                match tokens.next() {
                    Some(TokenTree::Literal(lit)) => {
                        let text = lit.to_string();
                        let unquoted = text
                            .strip_prefix('"')
                            .and_then(|t| t.strip_suffix('"'))
                            .unwrap_or_else(|| {
                                panic!("serde_derive: `{name}` takes a string, got {text}")
                            });
                        Some(unquoted.to_string())
                    }
                    other => panic!("serde_derive: `{name} =` needs a string, got {other:?}"),
                }
            }
            _ => None,
        };
        match (name.as_str(), value) {
            ("skip", None) => attrs.skip = true,
            ("rename", Some(v)) => attrs.rename = Some(v),
            ("with", Some(v)) => attrs.with = Some(v),
            ("skip_serializing_if", Some(v)) => attrs.skip_serializing_if = Some(v),
            ("default", Some(v)) => attrs.default = Some(v),
            (name, _) => panic!(
                "serde_derive shim: unsupported attribute `serde({name})`; the shim knows \
                 skip, rename = \"..\", with = \"..\", skip_serializing_if = \"..\" and \
                 default = \"..\""
            ),
        }
    }
}

/// Consumes a run of leading attributes, collecting their `serde(...)`
/// items; other attributes (docs, `cfg`, ...) are ignored.
fn parse_attrs(tokens: &mut Tokens) -> FieldAttrs {
    let mut attrs = FieldAttrs::default();
    while let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() != '#' {
            break;
        }
        tokens.next();
        let group = match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => g,
            other => panic!("serde_derive: malformed attribute near {other:?}"),
        };
        let mut it = group.stream().into_iter();
        if let Some(TokenTree::Ident(id)) = it.next() {
            if id.to_string() == "serde" {
                match it.next() {
                    Some(TokenTree::Group(inner)) => parse_serde_attr(inner.stream(), &mut attrs),
                    other => panic!("serde_derive: malformed #[serde] attribute near {other:?}"),
                }
            }
        }
    }
    attrs
}

/// Consumes attributes where the shim supports no `serde` attribute.
fn no_serde_attrs(tokens: &mut Tokens, place: &str) {
    if !parse_attrs(tokens).is_empty() {
        panic!("serde_derive shim: #[serde(...)] is not supported on {place}");
    }
}

/// Consumes `pub`, `pub(...)` if present.
fn skip_visibility(tokens: &mut Tokens) {
    if let Some(TokenTree::Ident(id)) = tokens.peek() {
        if id.to_string() == "pub" {
            tokens.next();
            if let Some(TokenTree::Group(g)) = tokens.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    tokens.next();
                }
            }
        }
    }
}

/// Consumes `<A, B>` if present: plain type parameters only.
fn parse_params(tokens: &mut Tokens, name: &str) -> Vec<String> {
    match tokens.peek() {
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            tokens.next();
        }
        _ => return Vec::new(),
    }
    let mut params = Vec::new();
    loop {
        match tokens.next() {
            Some(TokenTree::Ident(id)) => params.push(id.to_string()),
            Some(TokenTree::Punct(p)) if p.as_char() == '>' => return params,
            other => panic!(
                "serde_derive shim: `{name}` may only take plain type parameters, got {other:?}"
            ),
        }
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            Some(TokenTree::Punct(p)) if p.as_char() == '>' => return params,
            other => panic!(
                "serde_derive shim: `{name}` may only take plain type parameters, got {other:?}"
            ),
        }
    }
}

fn parse_item(input: TokenStream) -> Item {
    let mut tokens = input.into_iter().peekable();
    no_serde_attrs(&mut tokens, "a container");
    skip_visibility(&mut tokens);

    let kind = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive: expected `struct` or `enum`, got {other:?}"),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive: expected type name, got {other:?}"),
    };
    let params = parse_params(&mut tokens, &name);
    if let Some(TokenTree::Ident(id)) = tokens.peek() {
        if id.to_string() == "where" {
            panic!("serde_derive shim: `where` clauses on `{name}` are not supported");
        }
    }

    let body = match kind.as_str() {
        "struct" => Body::Struct(match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Fields::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Fields::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
            other => panic!("serde_derive: unexpected struct body {other:?}"),
        }),
        "enum" => Body::Enum(match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                parse_variants(g.stream())
            }
            other => panic!("serde_derive: unexpected enum body {other:?}"),
        }),
        other => panic!("serde_derive: cannot derive for `{other}`"),
    };
    Item { name, params, body }
}

fn parse_named_fields(stream: TokenStream) -> Vec<NamedField> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    while tokens.peek().is_some() {
        let attrs = parse_attrs(&mut tokens);
        if tokens.peek().is_none() {
            break;
        }
        skip_visibility(&mut tokens);
        let name = match tokens.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde_derive: expected field name, got {other:?}"),
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive: expected `:` after field `{name}`, got {other:?}"),
        }
        consume_type_until_comma(&mut tokens);
        fields.push(NamedField { name, attrs });
    }
    fields
}

/// Skips type tokens up to (and including) the next top-level comma,
/// tracking `<...>` nesting so commas inside generics don't terminate.
fn consume_type_until_comma(tokens: &mut Tokens) {
    let mut depth = 0i32;
    for t in tokens.by_ref() {
        if let TokenTree::Punct(p) = &t {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => return,
                _ => {}
            }
        }
    }
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut tokens = stream.into_iter().peekable();
    let mut count = 0;
    while tokens.peek().is_some() {
        no_serde_attrs(&mut tokens, "a tuple field");
        if tokens.peek().is_none() {
            break;
        }
        skip_visibility(&mut tokens);
        consume_type_until_comma(&mut tokens);
        count += 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut tokens = stream.into_iter().peekable();
    let mut variants = Vec::new();
    while tokens.peek().is_some() {
        no_serde_attrs(&mut tokens, "an enum variant");
        if tokens.peek().is_none() {
            break;
        }
        let name = match tokens.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde_derive: expected variant name, got {other:?}"),
        };
        let fields = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                tokens.next();
                Fields::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                panic!("serde_derive shim: struct variant `{name}` is not supported")
            }
            _ => Fields::Unit,
        };
        // Eat up to and including the separating comma (covers `= disc` too).
        for t in tokens.by_ref() {
            if matches!(&t, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push(Variant { name, fields });
    }
    variants
}

// ---------------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------------

/// The statements pushing one named field onto the map `m`.
fn serialize_field(f: &NamedField) -> String {
    let value = match &f.attrs.with {
        Some(path) => format!("{path}::to_value(&self.{})", f.name),
        None => format!("::serde::Serialize::to_value(&self.{})", f.name),
    };
    let push = format!("m.push((\"{}\".to_string(), {value}));\n", f.key());
    match &f.attrs.skip_serializing_if {
        Some(path) => format!("if !{path}(&self.{}) {{ {push} }}\n", f.name),
        None => push,
    }
}

/// The expression decoding one named field out of the map `m`.
fn deserialize_field(f: &NamedField) -> String {
    if f.attrs.skip {
        return "::std::default::Default::default()".to_string();
    }
    let key = f.key();
    let decode = match &f.attrs.with {
        Some(path) => format!("{path}::from_value(raw)"),
        None => "::serde::Deserialize::from_value(raw)".to_string(),
    };
    let decoded = format!("{decode}.map_err(|e: ::serde::Error| e.in_field(\"{key}\"))?");
    match &f.attrs.default {
        Some(path) => format!(
            "match ::serde::map_get(m, \"{key}\") {{\n\
             ::serde::Value::Null => {path}(),\n\
             raw => {decoded},\n}}"
        ),
        None => format!("{{ let raw = ::serde::map_get(m, \"{key}\"); {decoded} }}"),
    }
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(fields) => match fields {
            Fields::Named(fs) => {
                let mut s =
                    String::from("let mut m: Vec<(String, ::serde::Value)> = Vec::new();\n");
                for f in fs.iter().filter(|f| !f.attrs.skip) {
                    s.push_str(&serialize_field(f));
                }
                s.push_str("::serde::Value::Map(m)");
                s
            }
            Fields::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
            Fields::Tuple(n) => {
                let items: Vec<String> = (0..*n)
                    .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                    .collect();
                format!("::serde::Value::Seq(vec![{}])", items.join(", "))
            }
            Fields::Unit => "::serde::Value::Null".to_string(),
        },
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                match &v.fields {
                    Fields::Unit => arms.push_str(&format!(
                        "{name}::{v} => ::serde::Value::Str(\"{v}\".to_string()),\n",
                        v = v.name
                    )),
                    Fields::Tuple(1) => arms.push_str(&format!(
                        "{name}::{v}(f0) => ::serde::Value::Map(vec![(\"{v}\".to_string(), ::serde::Serialize::to_value(f0))]),\n",
                        v = v.name
                    )),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        let vals: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{v}({b}) => ::serde::Value::Map(vec![(\"{v}\".to_string(), ::serde::Value::Seq(vec![{vl}]))]),\n",
                            v = v.name,
                            b = binds.join(", "),
                            vl = vals.join(", ")
                        ));
                    }
                    Fields::Named(_) => unreachable!(),
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "{} {{\nfn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n}}",
        item.impl_header("::serde::Serialize")
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(fields) => match fields {
            Fields::Named(fs) => {
                let mut s = format!(
                    "let m = v.as_map().ok_or_else(|| ::serde::Error::msg(\"{name}: expected map\"))?;\n\
                     ::std::result::Result::Ok({name} {{\n"
                );
                for f in fs {
                    s.push_str(&format!("{}: {},\n", f.name, deserialize_field(f)));
                }
                s.push_str("})");
                s
            }
            Fields::Tuple(1) => {
                format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))")
            }
            Fields::Tuple(n) => {
                let mut s = format!(
                    "let seq = v.as_seq().ok_or_else(|| ::serde::Error::msg(\"{name}: expected sequence\"))?;\n\
                     if seq.len() != {n} {{ return ::std::result::Result::Err(::serde::Error::msg(\"{name}: wrong tuple arity\")); }}\n\
                     ::std::result::Result::Ok({name}("
                );
                for i in 0..*n {
                    s.push_str(&format!("::serde::Deserialize::from_value(&seq[{i}])?, "));
                }
                s.push_str("))");
                s
            }
            Fields::Unit => format!("::std::result::Result::Ok({name})"),
        },
        Body::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut map_arms = String::new();
            for v in variants {
                match &v.fields {
                    Fields::Unit => unit_arms.push_str(&format!(
                        "\"{v}\" => ::std::result::Result::Ok({name}::{v}),\n",
                        v = v.name
                    )),
                    Fields::Tuple(1) => map_arms.push_str(&format!(
                        "\"{v}\" => ::std::result::Result::Ok({name}::{v}(::serde::Deserialize::from_value(val)?)),\n",
                        v = v.name
                    )),
                    Fields::Tuple(n) => {
                        let mut arm = format!(
                            "\"{v}\" => {{\n\
                             let seq = val.as_seq().ok_or_else(|| ::serde::Error::msg(\"{name}::{v}: expected sequence\"))?;\n\
                             if seq.len() != {n} {{ return ::std::result::Result::Err(::serde::Error::msg(\"{name}::{v}: wrong arity\")); }}\n\
                             ::std::result::Result::Ok({name}::{v}(",
                            v = v.name
                        );
                        for i in 0..*n {
                            arm.push_str(&format!(
                                "::serde::Deserialize::from_value(&seq[{i}])?, "
                            ));
                        }
                        arm.push_str("))\n},\n");
                        map_arms.push_str(&arm);
                    }
                    Fields::Named(_) => unreachable!(),
                }
            }
            format!(
                "match v {{\n\
                 ::serde::Value::Str(s) => match s.as_str() {{\n{unit_arms}\
                 other => ::std::result::Result::Err(::serde::Error::msg(&format!(\"{name}: unknown variant {{other}}\"))),\n}},\n\
                 ::serde::Value::Map(m) if m.len() == 1 => {{\n\
                 let (k, val) = &m[0];\n\
                 match k.as_str() {{\n{map_arms}\
                 other => ::std::result::Result::Err(::serde::Error::msg(&format!(\"{name}: unknown variant {{other}}\"))),\n}}\n}},\n\
                 _ => ::std::result::Result::Err(::serde::Error::msg(\"{name}: expected variant\")),\n\
                 }}"
            )
        }
    };
    format!(
        "{} {{\n\
         fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n}}",
        item.impl_header("::serde::Deserialize")
    )
}
