//! Offline stand-in for the `serde` crate.
//!
//! Real serde is a generic serializer framework; this workspace only ever
//! converts values to and from JSON (via the sibling `serde_json` shim), so
//! the traits here go through one concrete intermediate representation,
//! [`Value`], instead of a generic `Serializer`/`Deserializer` pair:
//!
//! * [`Serialize::to_value`] renders a value into a [`Value`] tree;
//! * [`Deserialize::from_value`] rebuilds a value from a [`Value`] tree.
//!
//! The derive macros (`shims/serde_derive`) target these traits and honor
//! the field attributes `skip`, `rename`, `with`, `skip_serializing_if`
//! and `default`. Maps are kept as ordered `Vec<(String, Value)>` so
//! serialization order is deterministic (declaration order).
//!
//! Two pieces serve the workspace's persisted formats, which promise that
//! a decoded file reproduces the run that wrote it bit for bit: [`bits`],
//! the one exact-float rule (`#[serde(with = "serde::bits")]`), and
//! [`Version`], a format's version key.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

pub use serde_derive::{Deserialize, Serialize};

/// The intermediate data model (a superset of JSON: integers keep their
/// 64-bit width instead of flattening to f64).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent / null.
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed (negative) integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Ordered map with string keys.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The map entries, if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// The sequence elements, if this is a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }
}

/// Looks up `key` in a serialized map, yielding [`Value::Null`] when absent
/// (so `Option` fields deserialize to `None` rather than erroring, matching
/// upstream serde's treatment of missing optional fields).
pub fn map_get<'a>(m: &'a [(String, Value)], key: &str) -> &'a Value {
    static NULL: Value = Value::Null;
    m.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or(&NULL)
}

/// Serialization / deserialization error.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error from a message.
    pub fn msg(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }

    /// Alias matching serde's `Error::custom`.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Self {
            msg: msg.to_string(),
        }
    }

    /// Prefixes the message with the map key whose value failed to
    /// decode (derived impls call this, so a nested error names its path).
    pub fn in_field(self, key: &str) -> Self {
        Self {
            msg: format!("{key}: {}", self.msg),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// A value renderable into the [`Value`] data model.
pub trait Serialize {
    /// Renders `self` as a [`Value`] tree.
    fn to_value(&self) -> Value;
}

/// A value rebuildable from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a [`Value`] tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// --- primitives -----------------------------------------------------------

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::msg("expected bool")),
        }
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::U64(n) => *n,
                    Value::I64(n) if *n >= 0 => *n as u64,
                    _ => return Err(Error::msg(concat!("expected ", stringify!($t)))),
                };
                <$t>::try_from(n).map_err(|_| Error::msg("integer out of range"))
            }
        }
    )*};
}
impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 { Value::U64(n as u64) } else { Value::I64(n) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n: i64 = match v {
                    Value::I64(n) => *n,
                    Value::U64(n) => i64::try_from(*n)
                        .map_err(|_| Error::msg("integer out of range"))?,
                    _ => return Err(Error::msg(concat!("expected ", stringify!($t)))),
                };
                <$t>::try_from(n).map_err(|_| Error::msg("integer out of range"))
            }
        }
    )*};
}
impl_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::F64(x) => Ok(*x),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            Value::Null => Ok(f64::NAN), // non-finite floats serialize as null
            _ => Err(Error::msg("expected number")),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::msg("expected string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            _ => Err(Error::msg("expected single-char string")),
        }
    }
}

// --- containers -----------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error::msg("expected sequence")),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Arc::new)
    }
}

impl<T: Serialize> Serialize for Rc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Rc<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Rc::new)
    }
}

impl<V: Serialize, S> Serialize for HashMap<String, V, S> {
    fn to_value(&self) -> Value {
        // Deterministic output: sort keys.
        #[allow(clippy::disallowed_methods)] // sorts afterwards
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        Value::Map(
            entries
                .into_iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize, S: std::hash::BuildHasher + Default> Deserialize for HashMap<String, V, S> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(m) => m
                .iter()
                .map(|(k, v)| V::from_value(v).map(|v| (k.clone(), v)))
                .collect(),
            _ => Err(Error::msg("expected map")),
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(m) => m
                .iter()
                .map(|(k, v)| V::from_value(v).map(|v| (k.clone(), v)))
                .collect(),
            _ => Err(Error::msg("expected map")),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+)),+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let s = v.as_seq().ok_or_else(|| Error::msg("expected tuple sequence"))?;
                Ok(($($t::from_value(
                    s.get($n).ok_or_else(|| Error::msg("tuple too short"))?
                )?,)+))
            }
        }
    )+};
}
impl_tuple!((0 A), (0 A, 1 B), (0 A, 1 B, 2 C), (0 A, 1 B, 2 C, 3 D));

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

/// The exact-float rule of every persisted format: an `f64` travels as
/// its IEEE-754 bit pattern, a `u64`, so a JSON round trip cannot perturb
/// it (decimal text would round, and NaN would become `null`). Use it as
/// `#[serde(with = "serde::bits")]` on an `f64`, `Option<f64>` or
/// `Vec<f64>` field.
pub mod bits {
    use super::{Deserialize, Error, Value};

    /// A value whose floats travel as bit patterns.
    pub trait Bits: Sized {
        /// Renders `self`, every float as its bit pattern.
        fn to_bits_value(&self) -> Value;
        /// Rebuilds `Self` from bit patterns.
        fn from_bits_value(v: &Value) -> Result<Self, Error>;
    }

    impl Bits for f64 {
        fn to_bits_value(&self) -> Value {
            Value::U64(self.to_bits())
        }
        fn from_bits_value(v: &Value) -> Result<Self, Error> {
            u64::from_value(v).map(f64::from_bits)
        }
    }

    impl<T: Bits> Bits for Option<T> {
        fn to_bits_value(&self) -> Value {
            self.as_ref().map_or(Value::Null, T::to_bits_value)
        }
        fn from_bits_value(v: &Value) -> Result<Self, Error> {
            match v {
                Value::Null => Ok(None),
                v => T::from_bits_value(v).map(Some),
            }
        }
    }

    impl<T: Bits> Bits for Vec<T> {
        fn to_bits_value(&self) -> Value {
            Value::Seq(self.iter().map(T::to_bits_value).collect())
        }
        fn from_bits_value(v: &Value) -> Result<Self, Error> {
            match v {
                Value::Seq(items) => items.iter().map(T::from_bits_value).collect(),
                _ => Err(Error::msg("expected sequence")),
            }
        }
    }

    /// Serializes `x` with its floats as bit patterns.
    pub fn to_value<T: Bits>(x: &T) -> Value {
        x.to_bits_value()
    }

    /// Rebuilds a value serialized by [`to_value`].
    pub fn from_value<T: Bits>(v: &Value) -> Result<T, Error> {
        T::from_bits_value(v)
    }
}

/// A format's version key: serializes as `N` and refuses any other
/// number, so a file written by an incompatible format is an error, not
/// a misread. Make it a format's first field to write `"version"` first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Version<const N: u64>;

impl<const N: u64> Serialize for Version<N> {
    fn to_value(&self) -> Value {
        Value::U64(N)
    }
}

impl<const N: u64> Deserialize for Version<N> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match u64::from_value(v)? {
            n if n == N => Ok(Version),
            n => Err(Error::msg(format!("unsupported version {n}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Vec::<u8>::from_value(&vec![1u8, 2].to_value()).unwrap(),
            vec![1, 2]
        );
    }

    #[test]
    fn map_get_missing_is_null() {
        let m = vec![("a".to_string(), Value::U64(1))];
        assert_eq!(map_get(&m, "a"), &Value::U64(1));
        assert_eq!(map_get(&m, "b"), &Value::Null);
    }

    #[test]
    fn bits_round_trip_every_float_exactly() {
        let xs = vec![0.1 + 0.2, -0.0, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE];
        let back: Vec<f64> = bits::from_value(&bits::to_value(&xs)).unwrap();
        let pattern = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(pattern(&back), pattern(&xs));
        assert_eq!(bits::to_value(&1.5f64), Value::U64(1.5f64.to_bits()));
        assert_eq!(bits::to_value(&None::<f64>), Value::Null);
        assert_eq!(bits::from_value::<Option<f64>>(&Value::Null).unwrap(), None);
        assert!(bits::from_value::<f64>(&Value::F64(1.5)).is_err());
    }

    #[test]
    fn version_refuses_other_numbers() {
        assert_eq!(Version::<1>.to_value(), Value::U64(1));
        assert!(Version::<1>::from_value(&Value::U64(1)).is_ok());
        let e = Version::<1>::from_value(&Value::U64(2)).unwrap_err();
        assert_eq!(e.to_string(), "unsupported version 2");
        assert!(Version::<1>::from_value(&Value::Null).is_err());
    }
}
