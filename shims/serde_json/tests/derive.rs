//! The derive's field attributes and type parameters, through JSON text:
//! what each attribute writes, what it reads back, and what a decode
//! error says.

use serde::{Deserialize, Serialize, Version};
use serde_json::{from_str, to_string};

fn one() -> u64 {
    1
}

fn is_one(n: &u64) -> bool {
    *n == 1
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Inner {
    #[serde(with = "serde::bits")]
    weights: Vec<f64>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Outer<T> {
    version: Version<1>,
    #[serde(rename = "alpha_bits", with = "serde::bits")]
    alpha: f64,
    #[serde(with = "serde::bits", skip_serializing_if = "Option::is_none")]
    gamma: Option<f64>,
    #[serde(skip_serializing_if = "is_one", default = "one")]
    replicas: u64,
    #[serde(skip)]
    cache: Vec<u8>,
    payload: T,
    inner: Inner,
}

fn sample(gamma: Option<f64>, replicas: u64) -> Outer<String> {
    Outer {
        version: Version,
        alpha: 0.1 + 0.2,
        gamma,
        replicas,
        cache: Vec::new(),
        payload: "p".into(),
        inner: Inner {
            weights: vec![1.0 / 3.0, f64::NAN],
        },
    }
}

#[test]
fn attributes_write_the_keys_they_name() {
    let json = to_string(&sample(Some(2.5), 3)).unwrap();
    assert_eq!(
        json,
        format!(
            "{{\"version\":1,\"alpha_bits\":{},\"gamma\":{},\"replicas\":3,\"payload\":\"p\",\
             \"inner\":{{\"weights\":[{},{}]}}}}",
            (0.1f64 + 0.2).to_bits(),
            2.5f64.to_bits(),
            (1.0f64 / 3.0).to_bits(),
            f64::NAN.to_bits()
        )
    );
    // Skipped when the predicate holds: no `gamma`, no `replicas`.
    let lean = to_string(&sample(None, 1)).unwrap();
    assert!(
        !lean.contains("gamma") && !lean.contains("replicas"),
        "{lean}"
    );
}

#[test]
fn decoding_restores_every_bit_and_the_defaults() {
    for value in [sample(Some(2.5), 3), sample(None, 1)] {
        let back: Outer<String> = from_str(&to_string(&value).unwrap()).unwrap();
        assert_eq!(back.alpha.to_bits(), value.alpha.to_bits());
        assert_eq!(back.gamma, value.gamma);
        assert_eq!(back.replicas, value.replicas);
        assert_eq!(back.inner.weights[0], value.inner.weights[0]);
        assert!(back.inner.weights[1].is_nan());
    }
}

#[test]
fn decode_errors_name_the_key_path() {
    let bad_inner = r#"{"version":1,"alpha_bits":0,"payload":"p","inner":{"weights":[1.5]}}"#;
    let e = from_str::<Outer<String>>(bad_inner).unwrap_err();
    assert_eq!(e.to_string(), "inner: weights: expected u64");
    let bad_version = r#"{"version":2,"alpha_bits":0,"payload":"p","inner":{"weights":[]}}"#;
    let e = from_str::<Outer<String>>(bad_version).unwrap_err();
    assert_eq!(e.to_string(), "version: unsupported version 2");
    let bad_payload = r#"{"version":1,"alpha_bits":0,"payload":7,"inner":{"weights":[]}}"#;
    let e = from_str::<Outer<String>>(bad_payload).unwrap_err();
    assert_eq!(e.to_string(), "payload: expected string");
}
