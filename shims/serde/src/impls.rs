//! `Serialize`/`Deserialize` implementations for the std types the
//! workspace serializes.

use crate::{Deserialize, Error, Reader, Serialize, Value};
use std::collections::BTreeMap;

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.value()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.scalar("a boolean", |v| v.as_bool())
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {
        $(
            impl Serialize for $t {
                fn to_value(&self) -> Value {
                    Value::Int(*self as i64)
                }
            }

            impl Deserialize for $t {
                fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                    let i = r.scalar("an integer", |v| v.as_i64())?;
                    <$t>::try_from(i).map_err(|_| r.error("integer out of range"))
                }
            }
        )*
    };
}
int_impls!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.float()
    }

    fn deserialize_vec(r: &mut Reader<'_>) -> Result<Vec<Self>, Error> {
        r.floats(|f| f)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        f64::deserialize(r).map(|f| f as f32)
    }

    fn deserialize_vec(r: &mut Reader<'_>) -> Result<Vec<Self>, Error> {
        r.floats(|f| f as f32)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.scalar("a string", |v| match v {
            Value::String(s) => Some(s),
            _ => None,
        })
    }
}

impl Deserialize for &'static str {
    /// Deserializing into `&'static str` leaks the decoded string. The
    /// workspace only does this in tests round-tripping small structs with
    /// `&'static str` fields; real serde would borrow from the input.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        String::deserialize(r).map(|s| &*s.leak())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for char {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let s = String::deserialize(r)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(r.error("expected a single character")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.peek()? == b'n' {
            r.value().map(|_| None)
        } else {
            T::deserialize(r).map(Some)
        }
    }

    fn missing_field(_: &Reader<'_>, _: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::deserialize_vec(r)
    }
}

/// Render a map key the way serde_json does: strings stay themselves,
/// other scalars use their JSON text.
fn key_string(v: &Value) -> String {
    match v {
        Value::String(s) => s.clone(),
        other => other.to_json(),
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (key_string(&k.to_value()), v.to_value())).collect())
    }
}

macro_rules! tuple_impls {
    ($(($($name:ident : $idx:tt),+))*) => {
        $(
            impl<$($name: Serialize),+> Serialize for ($($name,)+) {
                fn to_value(&self) -> Value {
                    Value::Array(vec![$(self.$idx.to_value()),+])
                }
            }

            impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
                fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                    let mut slots = ($(None::<$name>,)+);
                    let mut next = 0;
                    r.array(|r| {
                        match next {
                            $($idx => slots.$idx = Some($name::deserialize(r)?),)+
                            _ => return Err(r.error("tuple length mismatch")),
                        }
                        next += 1;
                        Ok(())
                    })?;
                    Ok(($(slots.$idx.ok_or_else(|| r.error("tuple length mismatch"))?,)+))
                }
            }
        )*
    };
}
tuple_impls! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}
