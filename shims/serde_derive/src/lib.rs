//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! sibling `serde` shim, without depending on `syn`/`quote` (the build
//! environment has no registry access). A derived `Serialize` emits one
//! `Serializer` call per field, with no intermediate value tree; a derived
//! `Deserialize` reads the parsed `Value` tree. The parser walks the raw
//! `proc_macro::TokenStream` and supports the shapes this workspace actually
//! uses: named/tuple/unit structs (optionally generic), externally tagged
//! enums with unit/newtype/tuple/struct variants, and the field attributes
//! `#[serde(default)]`, `#[serde(default = "path")]`, `#[serde(skip)]` and
//! `#[serde(skip_serializing_if = "path")]`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

type Iter = std::iter::Peekable<std::vec::IntoIter<TokenTree>>;

fn tokens(ts: TokenStream) -> Iter {
    ts.into_iter().collect::<Vec<_>>().into_iter().peekable()
}

#[derive(Clone)]
enum DefaultKind {
    None,
    Std,
    Path(String),
}

#[derive(Clone)]
struct SerdeAttrs {
    skip: bool,
    default: DefaultKind,
    /// A `fn(&T) -> bool` path; the field is left out when it returns true.
    skip_serializing_if: Option<String>,
}

struct Field {
    name: String,
    attrs: SerdeAttrs,
}

enum VariantBody {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    body: VariantBody,
}

enum Body {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    /// Lifetime (with their `'`) and type parameters, in order.
    generics: Vec<String>,
    body: Body,
}

fn take_attrs(it: &mut Iter) -> SerdeAttrs {
    let mut attrs =
        SerdeAttrs { skip: false, default: DefaultKind::None, skip_serializing_if: None };
    loop {
        match it.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                it.next();
                if let Some(TokenTree::Group(g)) = it.next() {
                    parse_attr_group(g.stream(), &mut attrs);
                }
            }
            _ => break,
        }
    }
    attrs
}

fn parse_attr_group(ts: TokenStream, attrs: &mut SerdeAttrs) {
    let mut it = tokens(ts);
    match it.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return,
    }
    let inner = match it.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => g.stream(),
        _ => return,
    };
    let mut it = tokens(inner);
    while let Some(tt) = it.next() {
        if let TokenTree::Ident(id) = tt {
            match id.to_string().as_str() {
                "skip" => attrs.skip = true,
                "default" => {
                    attrs.default = match path_value(&mut it) {
                        Some(path) => DefaultKind::Path(path),
                        None => DefaultKind::Std,
                    }
                }
                "skip_serializing_if" => attrs.skip_serializing_if = path_value(&mut it),
                _ => {}
            }
        }
    }
}

/// Consumes `= "path"` if it follows, returning the path.
fn path_value(it: &mut Iter) -> Option<String> {
    if !matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
        return None;
    }
    it.next();
    match it.next() {
        Some(TokenTree::Literal(lit)) => Some(lit.to_string().trim_matches('"').to_string()),
        _ => None,
    }
}

fn skip_vis(it: &mut Iter) {
    let is_pub = matches!(it.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub");
    if is_pub {
        it.next();
        let has_restriction = matches!(
            it.peek(),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
        );
        if has_restriction {
            it.next();
        }
    }
}

fn parse_generics(it: &mut Iter) -> Vec<String> {
    let mut params = Vec::new();
    let opens = matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<');
    if !opens {
        return params;
    }
    it.next();
    let mut depth = 1usize;
    let mut expecting_name = true;
    let mut lifetime_next = false;
    for tt in it.by_ref() {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokenTree::Punct(p) if p.as_char() == '\'' && depth == 1 => {
                lifetime_next = true;
            }
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 1 => expecting_name = true,
            TokenTree::Ident(id) if depth == 1 => {
                if lifetime_next {
                    lifetime_next = false;
                    if expecting_name {
                        params.push(format!("'{id}"));
                        expecting_name = false;
                    }
                } else if expecting_name {
                    let s = id.to_string();
                    if s != "const" {
                        params.push(s);
                        expecting_name = false;
                    }
                }
            }
            _ => {}
        }
    }
    params
}

fn parse_named_fields(ts: TokenStream) -> Vec<Field> {
    let mut it = tokens(ts);
    let mut fields = Vec::new();
    loop {
        let attrs = take_attrs(&mut it);
        skip_vis(&mut it);
        let name = match it.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            Some(other) => panic!("serde shim derive: unexpected token in fields: {other}"),
        };
        match it.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim derive: expected `:` after field `{name}`, got {other:?}"),
        }
        let mut depth = 0i32;
        loop {
            let action = match it.peek() {
                None => 0u8,
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && depth == 0 => 1,
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => 2,
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => 3,
                Some(_) => 4,
            };
            match action {
                0 => break,
                1 => {
                    it.next();
                    break;
                }
                2 => {
                    depth += 1;
                    it.next();
                }
                3 => {
                    depth -= 1;
                    it.next();
                }
                _ => {
                    it.next();
                }
            }
        }
        fields.push(Field { name, attrs });
    }
    fields
}

fn count_tuple_fields(ts: TokenStream) -> usize {
    let mut count = 0usize;
    let mut depth = 0i32;
    let mut pending = false;
    for tt in ts {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                depth += 1;
                pending = true;
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                depth -= 1;
                pending = true;
            }
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                if pending {
                    count += 1;
                }
                pending = false;
            }
            _ => pending = true,
        }
    }
    if pending {
        count += 1;
    }
    count
}

fn parse_variants(ts: TokenStream) -> Vec<Variant> {
    let mut it = tokens(ts);
    let mut variants = Vec::new();
    loop {
        let _attrs = take_attrs(&mut it);
        let name = match it.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            Some(other) => panic!("serde shim derive: unexpected token in enum: {other}"),
        };
        enum Peeked {
            Brace(TokenStream),
            Paren(TokenStream),
            Other,
        }
        let peeked = match it.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Peeked::Brace(g.stream())
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Peeked::Paren(g.stream())
            }
            _ => Peeked::Other,
        };
        let body = match peeked {
            Peeked::Brace(inner) => {
                it.next();
                VariantBody::Named(parse_named_fields(inner))
            }
            Peeked::Paren(inner) => {
                it.next();
                VariantBody::Tuple(count_tuple_fields(inner))
            }
            Peeked::Other => VariantBody::Unit,
        };
        loop {
            match it.next() {
                None => break,
                Some(TokenTree::Punct(p)) if p.as_char() == ',' => break,
                Some(_) => {}
            }
        }
        variants.push(Variant { name, body });
    }
    variants
}

fn parse_input(ts: TokenStream) -> Input {
    let mut it = tokens(ts);
    let _ = take_attrs(&mut it);
    skip_vis(&mut it);
    let kw = match it.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected `struct`/`enum`, got {other:?}"),
    };
    let name = match it.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other:?}"),
    };
    let generics = parse_generics(&mut it);
    let at_where = matches!(it.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "where");
    if at_where {
        loop {
            let at_body = match it.peek() {
                None => true,
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => true,
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => true,
                Some(_) => false,
            };
            if at_body {
                break;
            }
            it.next();
        }
    }
    let body = if kw == "enum" {
        match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde shim derive: expected enum body, got {other:?}"),
        }
    } else {
        match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Body::TupleStruct(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::UnitStruct,
            other => panic!("serde shim derive: expected struct body, got {other:?}"),
        }
    };
    Input { name, generics, body }
}

fn impl_header(trait_name: &str, input: &Input) -> String {
    if input.generics.is_empty() {
        format!("impl ::serde::{trait_name} for {} ", input.name)
    } else {
        let bounded: Vec<String> = input
            .generics
            .iter()
            .map(|g| {
                if g.starts_with('\'') {
                    g.clone()
                } else {
                    format!("{g}: ::serde::{trait_name}")
                }
            })
            .collect();
        format!(
            "impl<{}> ::serde::{trait_name} for {}<{}> ",
            bounded.join(", "),
            input.name,
            input.generics.join(", ")
        )
    }
}

/// Statements writing `fields` as the entries of an open map; `access`
/// turns a field name into an expression of reference type.
fn serialize_entries(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut out = String::new();
    for f in fields.iter().filter(|f| !f.attrs.skip) {
        let value = access(&f.name);
        let entry = format!("::serde::Serializer::entry(__s, \"{}\", {value})?;\n", f.name);
        match &f.attrs.skip_serializing_if {
            Some(path) => out.push_str(&format!("if !{path}({value}) {{ {entry} }}\n")),
            None => out.push_str(&entry),
        }
    }
    out
}

/// Statements writing `items` as the elements of a new sequence.
fn serialize_seq(items: &[String]) -> String {
    let mut out = String::from("::serde::Serializer::begin_seq(__s)?;\n");
    for item in items {
        out.push_str(&format!("::serde::Serializer::element(__s, {item})?;\n"));
    }
    out.push_str("::serde::Serializer::end_seq(__s)?;\n");
    out
}

/// Wraps `body` (statements writing one value) as the single entry
/// `variant` of a map: the externally tagged enum encoding.
fn tagged(variant: &str, body: &str) -> String {
    format!(
        "::serde::Serializer::begin_map(__s)?;\n\
         ::serde::Serializer::map_key(__s, \"{variant}\")?;\n\
         {body}\
         ::serde::Serializer::end_map(__s)"
    )
}

fn deserialize_named_fields(fields: &[Field], ty_label: &str, source: &str) -> String {
    let mut out = String::from("{\n");
    for f in fields {
        let expr = if f.attrs.skip {
            "::std::default::Default::default()".to_string()
        } else {
            let missing = match &f.attrs.default {
                DefaultKind::None => format!(
                    "return ::std::result::Result::Err(::serde::Error::missing_field(\"{ty_label}\", \"{}\"))",
                    f.name
                ),
                DefaultKind::Std => "::std::default::Default::default()".to_string(),
                DefaultKind::Path(p) => format!("{p}()"),
            };
            format!(
                "match {source}.get(\"{0}\") {{ ::std::option::Option::Some(__f) => ::serde::Deserialize::deserialize(__f)?, ::std::option::Option::None => {missing} }}",
                f.name
            )
        };
        out.push_str(&format!("{}: {expr},\n", f.name));
    }
    out.push('}');
    out
}

fn gen_serialize(input: &Input) -> String {
    let header = impl_header("Serialize", input);
    let body = match &input.body {
        Body::NamedStruct(fields) => format!(
            "::serde::Serializer::begin_map(__s)?;\n{}::serde::Serializer::end_map(__s)",
            serialize_entries(fields, |name| format!("&self.{name}"))
        ),
        Body::TupleStruct(1) => "::serde::Serialize::serialize(&self.0, __s)".to_string(),
        Body::TupleStruct(n) => {
            let items: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
            format!("{}::std::result::Result::Ok(())", serialize_seq(&items))
        }
        Body::UnitStruct => "::serde::Serializer::serialize_null(__s)".to_string(),
        Body::Enum(variants) => {
            let ty = &input.name;
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let arm = match &v.body {
                    VariantBody::Unit => {
                        format!(
                            "{ty}::{vn} => ::serde::Serializer::serialize_str(__s, \"{vn}\"),\n"
                        )
                    }
                    VariantBody::Tuple(1) => format!(
                        "{ty}::{vn}(__f0) => {{ {} }}\n",
                        tagged(vn, "::serde::Serialize::serialize(__f0, __s)?;\n")
                    ),
                    VariantBody::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        format!(
                            "{ty}::{vn}({}) => {{ {} }}\n",
                            binders.join(", "),
                            tagged(vn, &serialize_seq(&binders))
                        )
                    }
                    VariantBody::Named(fields) => {
                        let binders: Vec<&str> = fields
                            .iter()
                            .filter(|f| !f.attrs.skip)
                            .map(|f| f.name.as_str())
                            .collect();
                        let inner = format!(
                            "::serde::Serializer::begin_map(__s)?;\n{}::serde::Serializer::end_map(__s)?;\n",
                            serialize_entries(fields, str::to_string)
                        );
                        format!(
                            "{ty}::{vn} {{ {}, .. }} => {{ {} }}\n",
                            binders.join(", "),
                            tagged(vn, &inner)
                        )
                    }
                };
                arms.push_str(&arm);
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "{header}{{ fn serialize<__S: ::serde::Serializer>(&self, __s: &mut __S) -> ::std::result::Result<(), __S::Error> {{ {body} }} }}"
    )
}

fn gen_deserialize(input: &Input) -> String {
    let header = impl_header("Deserialize", input);
    let ty = &input.name;
    let body = match &input.body {
        Body::NamedStruct(fields) => {
            let ctor = deserialize_named_fields(fields, ty, "__v");
            format!(
                "if !matches!(__v, ::serde::Value::Map(_)) {{ return ::std::result::Result::Err(::serde::Error::expected(\"map for struct {ty}\", __v)); }}\n\
                 ::std::result::Result::Ok({ty} {ctor})"
            )
        }
        Body::TupleStruct(1) => {
            format!("::std::result::Result::Ok({ty}(::serde::Deserialize::deserialize(__v)?))")
        }
        Body::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::deserialize(&__items[{i}])?"))
                .collect();
            format!(
                "match __v {{ ::serde::Value::Seq(__items) if __items.len() == {n} => ::std::result::Result::Ok({ty}({})), __other => ::std::result::Result::Err(::serde::Error::expected(\"sequence of {n} for {ty}\", __other)) }}",
                items.join(", ")
            )
        }
        Body::UnitStruct => format!("::std::result::Result::Ok({ty})"),
        Body::Enum(variants) => {
            let mut str_arms = String::new();
            let mut map_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.body {
                    VariantBody::Unit => {
                        str_arms.push_str(&format!(
                            "\"{vn}\" => ::std::result::Result::Ok({ty}::{vn}),\n"
                        ));
                        map_arms.push_str(&format!(
                            "\"{vn}\" => ::std::result::Result::Ok({ty}::{vn}),\n"
                        ));
                    }
                    VariantBody::Tuple(1) => map_arms.push_str(&format!(
                        "\"{vn}\" => ::std::result::Result::Ok({ty}::{vn}(::serde::Deserialize::deserialize(__inner)?)),\n"
                    )),
                    VariantBody::Tuple(n) => {
                        let items: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::deserialize(&__items[{i}])?"))
                            .collect();
                        map_arms.push_str(&format!(
                            "\"{vn}\" => match __inner {{ ::serde::Value::Seq(__items) if __items.len() == {n} => ::std::result::Result::Ok({ty}::{vn}({})), __other => ::std::result::Result::Err(::serde::Error::expected(\"sequence of {n} for variant {vn}\", __other)) }},\n",
                            items.join(", ")
                        ));
                    }
                    VariantBody::Named(fields) => {
                        let label = format!("{ty}::{vn}");
                        let ctor = deserialize_named_fields(fields, &label, "__inner");
                        map_arms.push_str(&format!(
                            "\"{vn}\" => {{ if !matches!(__inner, ::serde::Value::Map(_)) {{ return ::std::result::Result::Err(::serde::Error::expected(\"map for variant {vn}\", __inner)); }} ::std::result::Result::Ok({ty}::{vn} {ctor}) }},\n"
                        ));
                    }
                }
            }
            format!(
                "match __v {{\n\
                   ::serde::Value::Str(__s) => match __s.as_str() {{\n{str_arms}\
                     __other => ::std::result::Result::Err(::serde::Error::unknown_variant(\"{ty}\", __other)),\n\
                   }},\n\
                   ::serde::Value::Map(__entries) if __entries.len() == 1 => {{\n\
                     let (__key, __inner) = &__entries[0];\n\
                     match __key.as_str() {{\n{map_arms}\
                       __other => ::std::result::Result::Err(::serde::Error::unknown_variant(\"{ty}\", __other)),\n\
                     }}\n\
                   }}\n\
                   __other => ::std::result::Result::Err(::serde::Error::expected(\"string or single-key map for enum {ty}\", __other)),\n\
                 }}"
            )
        }
    };
    format!(
        "{header}{{ fn deserialize(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{ {body} }} }}"
    )
}

/// Derives the serde shim's `Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_serialize(&parsed)
        .parse()
        .expect("serde shim derive: generated Serialize impl failed to parse")
}

/// Derives the serde shim's `Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_deserialize(&parsed)
        .parse()
        .expect("serde shim derive: generated Deserialize impl failed to parse")
}
