//! Workspace-local stand-in for the `serde_derive` proc-macro crate.
//!
//! With no crates.io access there is no `syn`/`quote`, so the macros here
//! parse the item declaration directly from the `proc_macro` token stream
//! and render the generated impl as source text. They support exactly the
//! shapes this workspace derives on:
//!
//! * structs with named fields (optionally with lifetime parameters),
//!   serialized as JSON objects in field-declaration order;
//! * enums whose variants are unit or newtype, serialized externally
//!   tagged like real serde: unit variants as strings, newtype variants as
//!   single-entry objects.
//!
//! A derived `Deserialize` pulls from the `serde` shim's streaming
//! `Reader`: a struct keeps one `Option` slot per field and fills it as
//! its key goes by, so no value tree is built on the way.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Item {
    name: String,
    /// Generic parameter list including angle brackets (e.g. `<'m>`), or
    /// empty.
    generics: String,
    kind: ItemKind,
}

enum ItemKind {
    /// Named fields of a struct, in declaration order.
    Struct(Vec<String>),
    /// Variants of an enum with a flag for a newtype payload.
    Enum(Vec<(String, bool)>),
}

/// Derive the shim `serde::Serialize` trait.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    render_serialize(&item).parse().expect("generated Serialize impl must parse")
}

/// Derive the shim `serde::Deserialize` trait.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    render_deserialize(&item).parse().expect("generated Deserialize impl must parse")
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Skip attributes (`#[...]`) and visibility up to `struct`/`enum`.
    let is_enum = loop {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2,
            TokenTree::Ident(id) => {
                let word = id.to_string();
                i += 1;
                if word == "struct" {
                    break false;
                }
                if word == "enum" {
                    break true;
                }
            }
            _ => i += 1,
        }
    };

    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected item name, found {other}"),
    };
    i += 1;

    let mut generics = String::new();
    if matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == '<') {
        let mut depth = 0usize;
        loop {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                _ => {}
            }
            push_token(&mut generics, &tokens[i]);
            i += 1;
            if depth == 0 {
                break;
            }
        }
    }

    let body = loop {
        match &tokens[i] {
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => break g.stream(),
            _ => i += 1,
        }
    };

    let kind = if is_enum {
        ItemKind::Enum(parse_variants(body))
    } else {
        ItemKind::Struct(parse_fields(body))
    };
    Item { name, generics, kind }
}

/// Append a token's text, spacing tokens apart except after a lifetime
/// tick (`' m` would not re-lex as a lifetime).
fn push_token(out: &mut String, token: &TokenTree) {
    out.push_str(&token.to_string());
    if !matches!(token, TokenTree::Punct(p) if p.as_char() == '\'') {
        out.push(' ');
    }
}

/// Field names of a struct body: for each comma-separated entry (tracking
/// `<...>` depth so generic argument commas don't split fields), the first
/// identifier after attributes and visibility.
fn parse_fields(body: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut angle_depth = 0usize;
    let mut at_field_start = true;
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' && at_field_start => {
                i += 2;
                continue;
            }
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth = angle_depth.saturating_sub(1);
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                at_field_start = true;
                i += 1;
                continue;
            }
            TokenTree::Ident(id) if at_field_start => {
                let word = id.to_string();
                if word != "pub" {
                    fields.push(word);
                    at_field_start = false;
                }
            }
            _ => {}
        }
        i += 1;
    }
    fields
}

/// Variants of an enum body: name plus whether a `( ... )` payload follows.
fn parse_variants(body: TokenStream) -> Vec<(String, bool)> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants: Vec<(String, bool)> = Vec::new();
    let mut at_variant_start = true;
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' && at_variant_start => {
                i += 2;
                continue;
            }
            TokenTree::Punct(p) if p.as_char() == ',' => at_variant_start = true,
            TokenTree::Ident(id) if at_variant_start => {
                variants.push((id.to_string(), false));
                at_variant_start = false;
            }
            TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => {
                if let Some(last) = variants.last_mut() {
                    last.1 = true;
                }
            }
            _ => {}
        }
        i += 1;
    }
    variants
}

fn render_serialize(item: &Item) -> String {
    let Item { name, generics, kind } = item;
    let body = match kind {
        ItemKind::Struct(fields) => {
            let entries: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_value(&self.{f})),"
                    )
                })
                .collect();
            format!("::serde::Value::Object(::std::vec![{entries}])")
        }
        ItemKind::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|(v, has_payload)| {
                    if *has_payload {
                        format!(
                            "{name}::{v}(__field0) => ::serde::Value::Object(::std::vec![\
                             (::std::string::String::from(\"{v}\"), \
                             ::serde::Serialize::to_value(__field0))]),"
                        )
                    } else {
                        format!(
                            "{name}::{v} => \
                             ::serde::Value::String(::std::string::String::from(\"{v}\")),"
                        )
                    }
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl {generics} ::serde::Serialize for {name} {generics} {{\n\
         fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn render_deserialize(item: &Item) -> String {
    let Item { name, generics, kind } = item;
    let body = match kind {
        // One `Option` slot per field. The first occurrence of a key fills
        // its slot; duplicates and unknown keys are read and dropped.
        ItemKind::Struct(fields) => {
            let slots: String = (0..fields.len())
                .map(|i| format!("let mut __f{i} = ::std::option::Option::None;"))
                .collect();
            let arms: String = fields
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    format!(
                        "\"{f}\" if __f{i}.is_none() => __f{i} = \
                         ::std::option::Option::Some(::serde::Deserialize::deserialize(__r)?),"
                    )
                })
                .collect();
            let inits: String = fields
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    format!(
                        "{f}: match __f{i} {{ ::std::option::Option::Some(__v) => __v, \
                         ::std::option::Option::None => \
                         ::serde::Deserialize::missing_field(__r, \"{f}\")?, }},"
                    )
                })
                .collect();
            format!(
                "{slots}\n\
                 __r.object(|__r, __k| {{\n\
                 match __k {{ {arms} _ => __r.skip_value()?, }}\n\
                 ::std::result::Result::Ok(())\n\
                 }})?;\n\
                 ::std::result::Result::Ok(Self {{ {inits} }})"
            )
        }
        // Unit variants are strings; a newtype variant is an object with
        // exactly one entry.
        ItemKind::Enum(variants) => {
            let err = format!("__r.error(\"invalid value for enum {name}\")");
            let unit_arms: String = variants
                .iter()
                .filter(|(_, has_payload)| !has_payload)
                .map(|(v, _)| format!("\"{v}\" => ::std::result::Result::Ok({name}::{v}),"))
                .collect();
            let payload_arms: String = variants
                .iter()
                .filter(|(_, has_payload)| *has_payload)
                .map(|(v, _)| {
                    format!("\"{v}\" => {name}::{v}(::serde::Deserialize::deserialize(__r)?),")
                })
                .collect();
            let unit_block = if unit_arms.is_empty() {
                String::new()
            } else {
                format!(
                    "if __r.peek()? == b'\"' {{\n\
                     return match &*__r.string()? {{ {unit_arms} _ => \
                     ::std::result::Result::Err({err}), }};\n\
                     }}"
                )
            };
            let payload_block = if payload_arms.is_empty() {
                format!("::std::result::Result::Err({err})")
            } else {
                format!(
                    "let mut __out = ::std::option::Option::None;\n\
                     __r.object(|__r, __k| {{\n\
                     if __out.is_some() {{ return ::std::result::Result::Err({err}); }}\n\
                     __out = ::std::option::Option::Some(match __k {{ {payload_arms} \
                     _ => return ::std::result::Result::Err({err}), }});\n\
                     ::std::result::Result::Ok(())\n\
                     }})?;\n\
                     __out.ok_or_else(|| {err})"
                )
            };
            format!("{unit_block}\n{payload_block}")
        }
    };
    format!(
        "impl {generics} ::serde::Deserialize for {name} {generics} {{\n\
         fn deserialize(__r: &mut ::serde::Reader<'_>) -> \
         ::std::result::Result<Self, ::serde::Error> {{ {body} }}\n\
         }}"
    )
}
