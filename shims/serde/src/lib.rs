//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no crates.io access, so this workspace vendors a
//! minimal serde-compatible surface: a streaming [`Serialize`] that drives a
//! format's [`Serializer`] sink in one pass, a [`Deserialize`] that reads the
//! self-describing [`Value`] tree a parser builds, and re-exported derive
//! macros (see the sibling `serde_derive` shim). The supported feature
//! set is exactly what this repository uses: named/tuple/generic structs,
//! externally tagged enums, and the `default`, `default = "path"`, `skip` and
//! `skip_serializing_if = "path"` field attributes.

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing data value: what a parser builds and [`Deserialize`]
/// reads (the `serde_json` shim parses into this tree). Serializing never
/// builds one; a `Value` serializes by walking itself.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    I64(i64),
    /// An unsigned integer too large for `i64`.
    U64(u64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Value>),
    /// An ordered map with string keys (preserves insertion order).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in a `Map` value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::I64(v) => Some(v as f64),
            Value::U64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view as `i64` (floats must be integral).
    fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::I64(v) => Some(v),
            Value::U64(v) => i64::try_from(v).ok(),
            Value::F64(v) if v.fract() == 0.0 && v.abs() < 9.0e18 => Some(v as i64),
            _ => None,
        }
    }

    /// Numeric view as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::I64(v) => u64::try_from(v).ok(),
            Value::U64(v) => Some(v),
            Value::F64(v) if v.fract() == 0.0 && (0.0..1.9e19).contains(&v) => Some(v as u64),
            _ => None,
        }
    }

    /// A short name for the value's shape, used in error messages.
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) => "integer",
            Value::F64(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// An error with a custom message.
    pub fn custom(msg: impl std::fmt::Display) -> Self {
        Error(msg.to_string())
    }

    /// A "missing field" error, mirroring serde's message shape.
    pub fn missing_field(ty: &str, field: &str) -> Self {
        Error(format!("missing field `{field}` for `{ty}`"))
    }

    /// An "unknown variant" error.
    pub fn unknown_variant(ty: &str, variant: &str) -> Self {
        Error(format!("unknown variant `{variant}` for enum `{ty}`"))
    }

    /// A type mismatch error.
    pub fn expected(what: &str, got: &Value) -> Self {
        Error(format!("expected {what}, found {}", got.kind()))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// The sink a [`Serialize`] impl drives: one call per scalar, and
/// bracketing calls around every sequence and map. A data format
/// implements this trait to write its encoding in one pass, without an
/// intermediate [`Value`] tree (the `serde_json` shim writes JSON bytes).
///
/// Elements and entries are announced before their value:
/// `begin_seq`, then `seq_element` + value per element, then `end_seq`;
/// `begin_map`, then `map_key` + value per entry, then `end_map`. The
/// [`Serializer::element`] and [`Serializer::entry`] helpers pair the two.
pub trait Serializer: Sized {
    /// What a failed write reports.
    type Error;

    /// Writes `null` (also `None` and unit structs).
    fn serialize_null(&mut self) -> Result<(), Self::Error>;
    /// Writes a boolean.
    fn serialize_bool(&mut self, v: bool) -> Result<(), Self::Error>;
    /// Writes a signed integer.
    fn serialize_i64(&mut self, v: i64) -> Result<(), Self::Error>;
    /// Writes an unsigned integer.
    fn serialize_u64(&mut self, v: u64) -> Result<(), Self::Error>;
    /// Writes a float.
    fn serialize_f64(&mut self, v: f64) -> Result<(), Self::Error>;
    /// Writes a string.
    fn serialize_str(&mut self, v: &str) -> Result<(), Self::Error>;
    /// Opens a sequence.
    fn begin_seq(&mut self) -> Result<(), Self::Error>;
    /// Announces the next element of the open sequence.
    fn seq_element(&mut self) -> Result<(), Self::Error>;
    /// Closes the open sequence.
    fn end_seq(&mut self) -> Result<(), Self::Error>;
    /// Opens a map.
    fn begin_map(&mut self) -> Result<(), Self::Error>;
    /// Writes the key of the next entry of the open map.
    fn map_key(&mut self, key: &str) -> Result<(), Self::Error>;
    /// Closes the open map.
    fn end_map(&mut self) -> Result<(), Self::Error>;
    /// Splices `json`, one complete compact JSON value this format wrote
    /// earlier, verbatim in value position (`serde_json::RawJson`). A
    /// format or mode that cannot take compact JSON bytes as they stand
    /// fails here.
    fn serialize_raw_json(&mut self, json: &[u8]) -> Result<(), Self::Error>;

    /// Writes one sequence element.
    fn element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error> {
        self.seq_element()?;
        value.serialize(self)
    }

    /// Writes one map entry.
    fn entry<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) -> Result<(), Self::Error> {
        self.map_key(key)?;
        value.serialize(self)
    }
}

/// A type that can write itself into a [`Serializer`].
pub trait Serialize {
    /// Drives `serializer` through `self`'s shape.
    fn serialize<S: Serializer>(&self, serializer: &mut S) -> Result<(), S::Error>;
}

/// A type that can be reconstructed from a parsed [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserializes an instance from a value tree.
    fn deserialize(value: &Value) -> Result<Self, Error>;
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
                s.serialize_i64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let v = value.as_i64().ok_or_else(|| Error::expected(stringify!($t), value))?;
                <$t>::try_from(v).map_err(|_| Error::custom(format!("{v} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
                s.serialize_u64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let v = value.as_u64().ok_or_else(|| Error::expected(stringify!($t), value))?;
                <$t>::try_from(v).map_err(|_| Error::custom(format!("{v} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);
impl_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
        s.serialize_f64(*self)
    }
}
impl Deserialize for f64 {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value.as_f64().ok_or_else(|| Error::expected("f64", value))
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
        s.serialize_f64(*self as f64)
    }
}
impl Deserialize for f32 {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value.as_f64().map(|v| v as f32).ok_or_else(|| Error::expected("f32", value))
    }
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
        s.serialize_bool(*self)
    }
}
impl Deserialize for bool {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::expected("bool", other)),
        }
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
        s.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
        s.serialize_str(self)
    }
}
impl Deserialize for String {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::expected("string", other)),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
        s.begin_seq()?;
        for item in self {
            s.element(item)?;
        }
        s.end_seq()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
        self.as_slice().serialize(s)
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Seq(items) => items.iter().map(T::deserialize).collect(),
            other => Err(Error::expected("sequence", other)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
        match self {
            Some(v) => v.serialize(s),
            None => s.serialize_null(),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
        (**self).serialize(s)
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        T::deserialize(value).map(Box::new)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+);)*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
                s.begin_seq()?;
                $(s.element(&self.$idx)?;)+
                s.end_seq()
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                match value {
                    Value::Seq(items) if items.len() == LEN => {
                        Ok(($($name::deserialize(&items[$idx])?,)+))
                    }
                    other => Err(Error::expected("tuple sequence", other)),
                }
            }
        }
    )*};
}

impl_tuple! {
    (A: 0);
    (A: 0, B: 1);
    (A: 0, B: 1, C: 2);
    (A: 0, B: 1, C: 2, D: 3);
}

/// A parsed tree serializes by walking it.
impl Serialize for Value {
    fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
        match self {
            Value::Null => s.serialize_null(),
            Value::Bool(b) => s.serialize_bool(*b),
            Value::I64(i) => s.serialize_i64(*i),
            Value::U64(u) => s.serialize_u64(*u),
            Value::F64(f) => s.serialize_f64(*f),
            Value::Str(v) => s.serialize_str(v),
            Value::Seq(items) => items.serialize(s),
            Value::Map(entries) => {
                s.begin_map()?;
                for (key, value) in entries {
                    s.entry(key, value)?;
                }
                s.end_map()
            }
        }
    }
}
impl Deserialize for Value {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}
