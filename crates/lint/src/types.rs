//! Numeric type vocabulary for the semantic pass.
//!
//! The `unsigned-sub` rule needs to know whether an operand of `-` is an
//! unsigned integer. Operand types come from the lightweight per-file
//! model ([`crate::model`]) plus the local inference in
//! [`crate::semantic`]; this module names the primitives.

/// A primitive numeric type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Num {
    /// `u8`
    U8,
    /// `u16`
    U16,
    /// `u32`
    U32,
    /// `u64`
    U64,
    /// `u128`
    U128,
    /// `usize` (modeled as 64-bit; see module docs)
    Usize,
    /// `i8`
    I8,
    /// `i16`
    I16,
    /// `i32`
    I32,
    /// `i64`
    I64,
    /// `i128`
    I128,
    /// `isize` (modeled as 64-bit; see module docs)
    Isize,
    /// `f32`
    F32,
    /// `f64`
    F64,
}

impl Num {
    /// Parses a primitive numeric type name.
    pub fn parse(s: &str) -> Option<Num> {
        Some(match s {
            "u8" => Num::U8,
            "u16" => Num::U16,
            "u32" => Num::U32,
            "u64" => Num::U64,
            "u128" => Num::U128,
            "usize" => Num::Usize,
            "i8" => Num::I8,
            "i16" => Num::I16,
            "i32" => Num::I32,
            "i64" => Num::I64,
            "i128" => Num::I128,
            "isize" => Num::Isize,
            "f32" => Num::F32,
            "f64" => Num::F64,
            _ => return None,
        })
    }

    /// True for `f32`/`f64`.
    pub fn is_float(self) -> bool {
        matches!(self, Num::F32 | Num::F64)
    }

    /// True for the unsigned integer types.
    pub fn is_unsigned(self) -> bool {
        matches!(
            self,
            Num::U8 | Num::U16 | Num::U32 | Num::U64 | Num::U128 | Num::Usize
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for name in [
            "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
            "f32", "f64",
        ] {
            assert!(Num::parse(name).is_some(), "{name}");
        }
        assert_eq!(Num::parse("String"), None);
        assert_eq!(Num::parse("SimTime"), None);
    }
}
