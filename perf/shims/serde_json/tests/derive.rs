//! The stand-in must encode what the product derives the way
//! serde_json does, and read it back.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
struct NodeId(u32);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(u8, String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Marker;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
enum Value {
    #[default]
    Null,
    Int(i64),
    Float(f64),
    Str(String),
    Span(u8, u8),
    Ref {
        class: String,
        key: String,
    },
    List(Vec<Value>),
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Outcome {
    Ok,
    DeadlineMissed,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum Event {
    Started,
    TxCommit {
        node: NodeId,
        outcome: Outcome,
    },
    #[serde(rename = "xshard_prepared")]
    XShardPrepared {
        shards: Vec<u32>,
    },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
#[serde(tag = "kind", rename_all = "camelCase")]
enum Preparation {
    #[default]
    CalledObject,
    #[serde(rename_all = "camelCase")]
    ReferenceField { field_name: String },
}

fn yes() -> bool {
    true
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
struct Config {
    context_class: String,
    #[serde(rename = "type")]
    kind: String,
    #[serde(default)]
    preparation: Preparation,
    #[serde(default = "yes")]
    enabled: bool,
    min_degree: Option<String>,
    weights: BTreeMap<u32, f64>,
    by_node: BTreeMap<NodeId, (u64, bool)>,
}

fn round_trip<T>(value: &T, expected: &str)
where
    T: Serialize + for<'de> Deserialize<'de> + PartialEq + std::fmt::Debug,
{
    let text = serde_json::to_string(value).unwrap();
    assert_eq!(text, expected);
    assert_eq!(&serde_json::from_str::<T>(&text).unwrap(), value);
}

#[test]
fn structs_encode_as_serde_json_does() {
    round_trip(&NodeId(7), "7");
    round_trip(
        &Pair(1, "a\"b\\c\n\u{1}\u{e9}".into()),
        "[1,\"a\\\"b\\\\c\\n\\u0001\u{e9}\"]",
    );
    round_trip(&Marker, "null");
}

#[test]
fn externally_tagged_enums() {
    round_trip(&Value::Null, r#""Null""#);
    round_trip(&Value::Int(-5), r#"{"Int":-5}"#);
    round_trip(&Value::Float(1.0), r#"{"Float":1.0}"#);
    round_trip(&Value::Float(-0.25), r#"{"Float":-0.25}"#);
    round_trip(&Value::Span(1, 2), r#"{"Span":[1,2]}"#);
    round_trip(
        &Value::Ref {
            class: "Flight".into(),
            key: "f1".into(),
        },
        r#"{"Ref":{"class":"Flight","key":"f1"}}"#,
    );
    round_trip(
        &Value::List(vec![Value::Null, Value::Str("x".into())]),
        r#"{"List":["Null",{"Str":"x"}]}"#,
    );
    round_trip(&Outcome::DeadlineMissed, r#""deadline_missed""#);
    assert_eq!(
        serde_json::from_str::<Value>(r#"{"Null":null}"#).unwrap(),
        Value::Null
    );
}

#[test]
fn internally_tagged_enums() {
    round_trip(&Event::Started, r#"{"kind":"started"}"#);
    round_trip(
        &Event::TxCommit {
            node: NodeId(2),
            outcome: Outcome::Ok,
        },
        r#"{"kind":"tx_commit","node":2,"outcome":"ok"}"#,
    );
    round_trip(
        &Event::XShardPrepared { shards: vec![0, 3] },
        r#"{"kind":"xshard_prepared","shards":[0,3]}"#,
    );
    round_trip(
        &Preparation::ReferenceField {
            field_name: "flight".into(),
        },
        r#"{"kind":"referenceField","fieldName":"flight"}"#,
    );
}

#[test]
fn renames_defaults_options_and_map_keys() {
    let config = Config {
        context_class: "Booking".into(),
        kind: "HARD".into(),
        preparation: Preparation::CalledObject,
        enabled: false,
        min_degree: None,
        weights: BTreeMap::from([(1, 0.5), (20, 2.0)]),
        by_node: BTreeMap::from([(NodeId(3), (9, true))]),
    };
    round_trip(
        &config,
        concat!(
            r#"{"contextClass":"Booking","type":"HARD","preparation":{"kind":"calledObject"},"#,
            r#""enabled":false,"minDegree":null,"weights":{"1":0.5,"20":2.0},"#,
            r#""byNode":{"3":[9,true]}}"#
        ),
    );
    // Absent fields: `default`, `default = "path"` and `Option`.
    let sparse: Config = serde_json::from_str(concat!(
        r#" { "type" : "SOFT", "contextClass": "Flight", "weights": {}, "#,
        r#""byNode": {}, "extra": [1, {"x": null}] } "#
    ))
    .unwrap();
    assert_eq!(sparse.preparation, Preparation::CalledObject);
    assert!(sparse.enabled);
    assert_eq!(sparse.min_degree, None);
}

#[test]
fn malformed_or_mistyped_input_is_an_error() {
    for bad in [
        "",
        "{",
        r#"{"Int":"five"}"#,
        r#"{"Int":1,"Float":2.0}"#,
        r#""Nope""#,
        r#"{"Int":1} trailing"#,
        r#"{"Span":[1]}"#,
        r#"{"Int":99999999999999999999999999}"#,
    ] {
        assert!(
            serde_json::from_str::<Value>(bad).is_err(),
            "accepted {bad:?}"
        );
    }
    assert!(serde_json::from_str::<NodeId>("-1").is_err());
    assert!(serde_json::from_str::<Config>(r#"{"type":"x"}"#)
        .unwrap_err()
        .to_string()
        .contains("missing field `contextClass`"));
    assert!(serde_json::from_str::<Event>(r#"{"kind":"nope"}"#).is_err());
    let deep = "[".repeat(10_000);
    assert!(serde_json::from_str::<Vec<u8>>(&deep).is_err());
}

#[test]
fn an_internal_tag_may_stand_anywhere() {
    assert_eq!(
        serde_json::from_str::<Event>(
            r#"{"node":2,"extra":{"kind":"x"},"kind":"tx_commit","outcome":"ok"}"#
        )
        .unwrap(),
        Event::TxCommit {
            node: NodeId(2),
            outcome: Outcome::Ok,
        }
    );
    assert!(serde_json::from_str::<Event>(r#"{"node":2}"#)
        .unwrap_err()
        .to_string()
        .contains("missing field `kind`"));
}

#[test]
fn pretty_printing_keeps_the_compact_text() {
    let pretty = serde_json::to_string_pretty(&Event::XShardPrepared { shards: vec![1] }).unwrap();
    assert_eq!(
        pretty,
        "{\n  \"kind\": \"xshard_prepared\",\n  \"shards\": [\n    1\n  ]\n}"
    );
    let tricky = Config {
        context_class: "a{\"[b\\".into(),
        kind: ",:".into(),
        preparation: Preparation::CalledObject,
        enabled: true,
        min_degree: None,
        weights: BTreeMap::new(),
        by_node: BTreeMap::from([(NodeId(1), (u64::MAX, false))]),
    };
    let pretty = serde_json::to_string_pretty(&tricky).unwrap();
    assert!(pretty.contains("\n  \"weights\": {},\n"));
    assert!(pretty.contains("\n      18446744073709551615,\n"));
    assert_eq!(serde_json::from_str::<Config>(&pretty).unwrap(), tricky);
    let squeezed: String = {
        // Outside strings the pretty text differs from the compact one
        // by white space only.
        let mut in_string = false;
        let mut escaped = false;
        pretty
            .chars()
            .filter(|&c| {
                if in_string {
                    if escaped {
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        in_string = false;
                    }
                    return true;
                }
                in_string = c == '"';
                !c.is_whitespace()
            })
            .collect()
    };
    assert_eq!(squeezed, serde_json::to_string(&tricky).unwrap());
}
