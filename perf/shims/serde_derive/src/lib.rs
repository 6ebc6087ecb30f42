//! Offline stand-in for `serde_derive`, built on `proc_macro` alone.
//!
//! The sandbox cannot reach the crate registry, so the benchmark
//! patches the product crates' `serde` dependency to the stand-in next
//! door. This derive covers exactly what the product uses: named,
//! tuple and unit structs; enums with unit, tuple and struct variants,
//! externally tagged (the serde default) or internally tagged
//! (`#[serde(tag = "...")]`); and the attributes `rename_all`
//! (`snake_case` / `camelCase`), `rename`, `default` and
//! `default = "path"`. Anything else (generics, `flatten`, `skip`, …)
//! is a compile error here rather than a silent difference.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Default, Clone)]
struct Attrs {
    rename_all: Option<String>,
    rename: Option<String>,
    tag: Option<String>,
    /// `Some(None)`: `Default::default`; `Some(Some(path))`: that function.
    default: Option<Option<String>>,
}

struct Field {
    ident: String,
    attrs: Attrs,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    ident: String,
    attrs: Attrs,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    ident: String,
    attrs: Attrs,
    body: Body,
}

/// Tokens with invisible (macro-substitution) groups spliced in place.
fn flatten(stream: TokenStream) -> Vec<TokenTree> {
    let mut out = Vec::new();
    for tt in stream {
        match tt {
            TokenTree::Group(g) if g.delimiter() == Delimiter::None => {
                out.extend(flatten(g.stream()));
            }
            other => out.push(other),
        }
    }
    out
}

fn is_punct(tt: Option<&TokenTree>, c: char) -> bool {
    matches!(tt, Some(TokenTree::Punct(p)) if p.as_char() == c)
}

fn unquote(lit: &str) -> String {
    let inner = lit
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or_else(|| panic!("serde stand-in: expected a string literal, found {lit}"));
    assert!(
        !inner.contains('\\'),
        "serde stand-in: escapes in attribute strings are not supported: {lit}"
    );
    inner.to_owned()
}

/// Reads `#[...]` attributes starting at `*i`, keeping the `serde` ones.
fn take_attrs(toks: &[TokenTree], i: &mut usize) -> Attrs {
    let mut attrs = Attrs::default();
    while is_punct(toks.get(*i), '#') {
        let Some(TokenTree::Group(g)) = toks.get(*i + 1) else {
            panic!("serde stand-in: malformed attribute");
        };
        *i += 2;
        let inner = flatten(g.stream());
        if !matches!(inner.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde") {
            continue;
        }
        let Some(TokenTree::Group(args)) = inner.get(1) else {
            panic!("serde stand-in: expected #[serde(...)]");
        };
        let args = flatten(args.stream());
        let mut j = 0;
        while j < args.len() {
            let TokenTree::Ident(key) = &args[j] else {
                panic!("serde stand-in: unexpected token in #[serde(...)]");
            };
            let key = key.to_string();
            j += 1;
            let value = if is_punct(args.get(j), '=') {
                let TokenTree::Literal(lit) = &args[j + 1] else {
                    panic!("serde stand-in: expected a literal after `{key} =`");
                };
                j += 2;
                Some(unquote(&lit.to_string()))
            } else {
                None
            };
            match (key.as_str(), value) {
                ("rename_all", Some(v)) => attrs.rename_all = Some(v),
                ("rename", Some(v)) => attrs.rename = Some(v),
                ("tag", Some(v)) => attrs.tag = Some(v),
                ("default", v) => attrs.default = Some(v),
                (other, _) => panic!(
                    "serde stand-in: unsupported attribute `{other}` — teach \
                     perf/shims/serde_derive about it, or build against crates.io serde"
                ),
            }
            if is_punct(args.get(j), ',') {
                j += 1;
            }
        }
    }
    attrs
}

fn skip_visibility(toks: &[TokenTree], i: &mut usize) {
    if matches!(toks.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(toks.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

/// Advances past one type (or discriminant), stopping at a top-level `,`.
fn skip_to_comma(toks: &[TokenTree], i: &mut usize) {
    let mut depth = 0i32;
    let mut prev_dash = false;
    while let Some(tt) = toks.get(*i) {
        if let TokenTree::Punct(p) = tt {
            match p.as_char() {
                ',' if depth == 0 => return,
                '<' => depth += 1,
                '>' if !prev_dash => depth -= 1,
                _ => {}
            }
            prev_dash = p.as_char() == '-';
        } else {
            prev_dash = false;
        }
        *i += 1;
    }
}

fn named_fields(stream: TokenStream) -> Vec<Field> {
    let toks = flatten(stream);
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let attrs = take_attrs(&toks, &mut i);
        skip_visibility(&toks, &mut i);
        let Some(TokenTree::Ident(name)) = toks.get(i) else {
            panic!("serde stand-in: expected a field name");
        };
        let ident = name.to_string();
        i += 1;
        assert!(is_punct(toks.get(i), ':'), "serde stand-in: expected `:`");
        i += 1;
        skip_to_comma(&toks, &mut i);
        i += 1;
        fields.push(Field { ident, attrs });
    }
    fields
}

fn tuple_arity(stream: TokenStream) -> usize {
    let toks = flatten(stream);
    let mut n = 0;
    let mut i = 0;
    while i < toks.len() {
        let _ = take_attrs(&toks, &mut i);
        skip_visibility(&toks, &mut i);
        let start = i;
        skip_to_comma(&toks, &mut i);
        if i > start {
            n += 1;
        }
        i += 1;
    }
    n
}

fn shape_of(tt: Option<&TokenTree>) -> Option<Shape> {
    match tt {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Some(Shape::Named(named_fields(g.stream())))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Some(Shape::Tuple(tuple_arity(g.stream())))
        }
        _ => None,
    }
}

fn variants(stream: TokenStream) -> Vec<Variant> {
    let toks = flatten(stream);
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let attrs = take_attrs(&toks, &mut i);
        let Some(TokenTree::Ident(name)) = toks.get(i) else {
            panic!("serde stand-in: expected a variant name");
        };
        let ident = name.to_string();
        i += 1;
        let shape = match shape_of(toks.get(i)) {
            Some(shape) => {
                i += 1;
                shape
            }
            None => Shape::Unit,
        };
        skip_to_comma(&toks, &mut i);
        i += 1;
        out.push(Variant {
            ident,
            attrs,
            shape,
        });
    }
    out
}

fn parse_item(input: TokenStream) -> Item {
    let toks = flatten(input);
    let mut i = 0;
    let attrs = take_attrs(&toks, &mut i);
    skip_visibility(&toks, &mut i);
    let Some(TokenTree::Ident(kw)) = toks.get(i) else {
        panic!("serde stand-in: expected `struct` or `enum`");
    };
    let kw = kw.to_string();
    let Some(TokenTree::Ident(name)) = toks.get(i + 1) else {
        panic!("serde stand-in: expected a type name");
    };
    let ident = name.to_string();
    i += 2;
    assert!(
        !is_punct(toks.get(i), '<'),
        "serde stand-in: generic type `{ident}` is not supported — teach \
         perf/shims/serde_derive about it, or build against crates.io serde"
    );
    let body = match kw.as_str() {
        "struct" => Body::Struct(shape_of(toks.get(i)).unwrap_or(Shape::Unit)),
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) => Body::Enum(variants(g.stream())),
            _ => panic!("serde stand-in: expected the enum body"),
        },
        other => panic!("serde stand-in: cannot derive for `{other}`"),
    };
    Item { ident, attrs, body }
}

/// serde's `rename_all` for a PascalCase variant name.
fn rename_variant(ident: &str, rule: Option<&str>) -> String {
    match rule {
        None => ident.to_owned(),
        Some("snake_case") => {
            let mut s = String::new();
            for (i, c) in ident.chars().enumerate() {
                if c.is_uppercase() && i > 0 {
                    s.push('_');
                }
                s.extend(c.to_lowercase());
            }
            s
        }
        Some("camelCase") => {
            let mut chars = ident.chars();
            match chars.next() {
                Some(first) => first.to_lowercase().collect::<String>() + chars.as_str(),
                None => String::new(),
            }
        }
        Some(other) => panic!("serde stand-in: unsupported rename_all = \"{other}\""),
    }
}

/// serde's `rename_all` for a snake_case field name.
fn rename_field(ident: &str, rule: Option<&str>) -> String {
    let ident = ident.strip_prefix("r#").unwrap_or(ident);
    match rule {
        None | Some("snake_case") => ident.to_owned(),
        Some("camelCase") => {
            let mut s = String::new();
            let mut upper = false;
            for c in ident.chars() {
                if c == '_' {
                    upper = true;
                } else if upper {
                    s.extend(c.to_uppercase());
                    upper = false;
                } else {
                    s.push(c);
                }
            }
            s
        }
        Some(other) => panic!("serde stand-in: unsupported rename_all = \"{other}\""),
    }
}

fn field_key(f: &Field, rule: Option<&str>) -> String {
    f.attrs
        .rename
        .clone()
        .unwrap_or_else(|| rename_field(&f.ident, rule))
}

fn variant_key(v: &Variant, rule: Option<&str>) -> String {
    v.attrs
        .rename
        .clone()
        .unwrap_or_else(|| rename_variant(&v.ident, rule))
}

/// `out.push_str(<literal>);` for a fragment of JSON text.
fn push(text: &str) -> String {
    format!("out.push_str({text:?});")
}

fn ser_value(expr: &str) -> String {
    format!("::serde::Serialize::serialize_json({expr}, out);")
}

/// Object members for `fields`; `leading` says a member precedes them.
fn ser_members(
    fields: &[Field],
    rule: Option<&str>,
    access: impl Fn(&str) -> String,
    leading: bool,
) -> String {
    let mut code = String::new();
    for (i, f) in fields.iter().enumerate() {
        let comma = if i > 0 || leading { "," } else { "" };
        code += &push(&format!("{comma}\"{}\":", field_key(f, rule)));
        code += &ser_value(&access(&f.ident));
    }
    code
}

fn ser_tuple(n: usize, access: impl Fn(usize) -> String) -> String {
    if n == 1 {
        return ser_value(&access(0));
    }
    let mut code = push("[");
    for i in 0..n {
        if i > 0 {
            code += &push(",");
        }
        code += &ser_value(&access(i));
    }
    code + &push("]")
}

const DE: &str = "::serde::Deserialize::deserialize_json(r)?";

/// A block that reads the object at the cursor into `ctor {{ … }}`;
/// members that name no field are passed over.
fn de_named(ctor: &str, fields: &[Field], rule: Option<&str>) -> String {
    let slot = |f: &Field| format!("f_{}", f.ident.strip_prefix("r#").unwrap_or(&f.ident));
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    for f in fields {
        let key = field_key(f, rule);
        let absent = match &f.attrs.default {
            None => format!("::serde::Deserialize::missing({key:?})?"),
            Some(None) => "::core::default::Default::default()".to_owned(),
            Some(Some(path)) => format!("{path}()"),
        };
        slots += &format!("let mut {} = ::core::option::Option::None;", slot(f));
        arms += &format!(
            "{key:?} => {} = ::core::option::Option::Some({DE}),",
            slot(f)
        );
        inits += &format!(
            "{}: match {} {{ ::core::option::Option::Some(v) => v, \
             ::core::option::Option::None => {absent} }},",
            f.ident,
            slot(f)
        );
    }
    format!(
        "{{ {slots} let mut more = r.open(\"{{\", \"}}\")?; \
         while more {{ match &*r.key()? {{ {arms} _ => r.skip_value()?, }} \
         more = r.more(\"}}\")?; }} {ctor} {{ {inits} }} }}"
    )
}

/// An expression that reads `ctor(…)`: the value itself for one field,
/// an array of `n` for more.
fn de_tuple(ctor: &str, n: usize) -> String {
    if n == 1 {
        return format!("{ctor}({DE})");
    }
    let mut reads = String::new();
    for i in 0..n {
        let comma = if i > 0 { "r.expect(\",\")?;" } else { "" };
        reads += &format!("{comma} let f{i} = {DE};");
    }
    let binds: Vec<String> = (0..n).map(|i| format!("f{i}")).collect();
    format!(
        "{{ r.expect(\"[\")?; {reads} r.expect(\"]\")?; {ctor}({}) }}",
        binds.join(",")
    )
}

fn bindings(fields: &[Field]) -> String {
    fields
        .iter()
        .map(|f| f.ident.clone())
        .collect::<Vec<_>>()
        .join(",")
}

fn serialize_body(item: &Item) -> String {
    let name = &item.ident;
    let rule = item.attrs.rename_all.as_deref();
    match &item.body {
        Body::Struct(Shape::Unit) => push("null"),
        Body::Struct(Shape::Tuple(n)) => ser_tuple(*n, |i| format!("&self.{i}")),
        Body::Struct(Shape::Named(fields)) => {
            push("{") + &ser_members(fields, rule, |f| format!("&self.{f}"), false) + &push("}")
        }
        Body::Enum(vs) => {
            let mut arms = String::new();
            for v in vs {
                let key = variant_key(v, rule);
                let vrule = v.attrs.rename_all.as_deref();
                let vi = &v.ident;
                let arm = match (&item.attrs.tag, &v.shape) {
                    (None, Shape::Unit) => {
                        format!("{name}::{vi} => {{ {} }}", push(&format!("\"{key}\"")))
                    }
                    (None, Shape::Tuple(n)) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        format!(
                            "{name}::{vi}({}) => {{ {} {} {} }}",
                            binds.join(","),
                            push(&format!("{{\"{key}\":")),
                            ser_tuple(*n, |i| format!("f{i}")),
                            push("}")
                        )
                    }
                    (None, Shape::Named(fields)) => format!(
                        "{name}::{vi}{{ {} }} => {{ {} {} {} }}",
                        bindings(fields),
                        push(&format!("{{\"{key}\":{{")),
                        ser_members(fields, vrule, str::to_owned, false),
                        push("}}")
                    ),
                    (Some(tag), Shape::Unit) => {
                        format!(
                            "{name}::{vi} => {{ {} }}",
                            push(&format!("{{\"{tag}\":\"{key}\"}}"))
                        )
                    }
                    (Some(tag), Shape::Named(fields)) => format!(
                        "{name}::{vi}{{ {} }} => {{ {} {} {} }}",
                        bindings(fields),
                        push(&format!("{{\"{tag}\":\"{key}\"")),
                        ser_members(fields, vrule, str::to_owned, true),
                        push("}")
                    ),
                    (Some(_), Shape::Tuple(_)) => {
                        panic!("serde stand-in: tuple variant `{vi}` in an internally tagged enum")
                    }
                };
                arms += &arm;
                arms.push(',');
            }
            format!("match self {{ {arms} }}")
        }
    }
}

fn deserialize_body(item: &Item) -> String {
    let name = &item.ident;
    let rule = item.attrs.rename_all.as_deref();
    let unknown = format!("::serde::Error::unknown_variant({name:?}, other)");
    match &item.body {
        Body::Struct(Shape::Unit) => format!("r.expect(\"null\")?; Ok({name})"),
        Body::Struct(Shape::Tuple(n)) => format!("Ok({})", de_tuple(name, *n)),
        Body::Struct(Shape::Named(fields)) => format!("Ok({})", de_named(name, fields, rule)),
        Body::Enum(vs) => {
            if let Some(tag) = &item.attrs.tag {
                // The tag may stand anywhere among the members, so it is
                // looked up first; the fields are then read as a struct
                // that passes over the tag.
                let mut arms = String::new();
                for v in vs {
                    let key = variant_key(v, rule);
                    let ctor = format!("{name}::{}", v.ident);
                    arms += &match &v.shape {
                        Shape::Unit => format!("{key:?} => {{ r.skip_value()?; Ok({ctor}) }},"),
                        Shape::Named(fields) => format!(
                            "{key:?} => Ok({}),",
                            de_named(&ctor, fields, v.attrs.rename_all.as_deref())
                        ),
                        Shape::Tuple(_) => unreachable!("rejected while serializing"),
                    };
                }
                return format!(
                    "match ::serde::tag_of(r, {tag:?})?.as_str() {{ {arms} other => Err({unknown}) }}"
                );
            }
            let mut unit_arms = String::new();
            let mut keyed_arms = String::new();
            for v in vs {
                let key = variant_key(v, rule);
                let ctor = format!("{name}::{}", v.ident);
                keyed_arms += &match &v.shape {
                    Shape::Unit => {
                        unit_arms += &format!("{key:?} => Ok({ctor}),");
                        format!("{key:?} => {{ r.skip_value()?; {ctor} }},")
                    }
                    Shape::Tuple(n) => format!("{key:?} => {},", de_tuple(&ctor, *n)),
                    Shape::Named(fields) => format!(
                        "{key:?} => {},",
                        de_named(&ctor, fields, v.attrs.rename_all.as_deref())
                    ),
                };
            }
            format!(
                "match r.peek() {{ \
                 Some(b'\"') => match &*r.string()? {{ {unit_arms} other => Err({unknown}) }}, \
                 Some(b'{{') => {{ r.open(\"{{\", \"}}\")?; \
                 let value = match &*r.key()? {{ {keyed_arms} other => return Err({unknown}) }}; \
                 if r.more(\"}}\")? {{ \
                 return Err(::serde::Error::from(r.error(\"expected one variant\"))); }} \
                 Ok(value) }}, \
                 _ => Err(::serde::Error::invalid_type(r, {name:?})) }}"
            )
        }
    }
}

/// Derives the stand-in `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    format!(
        "#[automatically_derived] #[allow(unused, clippy::all)] \
         impl ::serde::Serialize for {} {{ \
         fn serialize_json(&self, out: &mut ::std::string::String) {{ {} }} }}",
        item.ident,
        serialize_body(&item)
    )
    .parse()
    .expect("serde stand-in: generated Serialize impl parses")
}

/// Derives the stand-in `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    format!(
        "#[automatically_derived] #[allow(unused, clippy::all)] \
         impl<'de> ::serde::Deserialize<'de> for {} {{ \
         fn deserialize_json(r: &mut ::serde::json::Reader<'_>) \
         -> ::core::result::Result<Self, ::serde::Error> {{ {} }} }}",
        item.ident,
        deserialize_body(&item)
    )
    .parse()
    .expect("serde stand-in: generated Deserialize impl parses")
}
