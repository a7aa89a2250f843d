//! Workspace-local stand-in for the `serde` crate.
//!
//! The build environment has no crates.io access, so the workspace pins
//! `serde` to this path shim. Instead of serde's visitor architecture it
//! has two plain halves. `Serialize` converts a type *to* an owned
//! JSON-like [`Value`] tree, which the `serde_json` shim renders as text.
//! `Deserialize` reads a type straight *from* JSON text through the
//! hardened [`Reader`]: a struct decodes field by field into typed slots
//! and a `Vec<f32>` number by number, with no tree in between — a
//! [`Value`] is built only when the target type is `Value` itself.
//! Numbers take one exact pass when they are short decimals
//! (`-?[0-9]+(\.[0-9]+)?`, at most 15 digits, not followed by `. e E + -`):
//! the digits accumulate into an integer mantissa, and a fraction is one
//! correctly rounded division by an exact power of ten. Exponents, longer
//! mantissas and lenient forms fall back to `str::parse`, so every token
//! decodes to the bits, or fails with the error, it always did. The
//! derive macros (from the sibling `serde_derive` shim) emit the same
//! external representation real serde would: structs become objects in
//! field order, unit enum variants become strings, and newtype variants
//! become single-entry objects.

pub use serde_derive::{Deserialize, Serialize};

mod impls;
mod read;
mod value;

pub use read::{Error, Reader, MAX_DEPTH};
pub use value::Value;

/// A type that can render itself as a [`Value`] tree.
pub trait Serialize {
    /// Convert `self` into a value tree.
    fn to_value(&self) -> Value;
}

/// A type that can be read from JSON text.
pub trait Deserialize: Sized {
    /// Read exactly one JSON value from `r` and decode it.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;

    /// Read a JSON array of `Self`, the body of `Vec<Self>`'s impl. The
    /// default hands each element to [`Deserialize::deserialize`]; `f32`
    /// and `f64` override it with the reader's numeric-array loop.
    fn deserialize_vec(r: &mut Reader<'_>) -> Result<Vec<Self>, Error> {
        let mut out = Vec::new();
        r.array(|r| {
            out.push(Self::deserialize(r)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// The value of a struct field whose key is absent from its object: an
    /// error naming the field, except for `Option`, which reads as `None`.
    fn missing_field(r: &Reader<'_>, field: &str) -> Result<Self, Error> {
        Err(r.error(format!("missing field `{field}`")))
    }
}
