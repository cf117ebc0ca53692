//! Operand precision: the bit widths of a MAC's two operands and its
//! accumulator.
//!
//! The paper's reference configuration is INT8 × INT8 → INT32, but every
//! encoder in this crate is width-generic and the bit-weight
//! transformations pay off *more* at low precision (fewer digit slots per
//! operand → fewer serial cycles; narrower accumulators → cheaper
//! reduction). [`Precision`] is the workspace-wide description of that
//! axis: `a_bits` is the width of the **encoded multiplicand** (weights),
//! `b_bits` the width of the streamed multiplier (activations), and
//! `acc_bits` the accumulator the reduction resolves into.
//!
//! The presets cover the deployment points the low-bit literature studies:
//! symmetric [`Precision::W4`] / [`Precision::W8`] / [`Precision::W16`]
//! plus the asymmetric [`Precision::W8X4`] (8-bit weights × 4-bit
//! activations). [`Precision::W8`] is the default everywhere and
//! reproduces the paper's configuration bit-for-bit.

use std::fmt;

/// Operand/accumulator bit widths of a MAC datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Precision {
    /// Width of the encoded multiplicand operand (the one decomposed into
    /// signed digits — weights in the paper's mapping).
    pub a_bits: u32,
    /// Width of the multiplier operand (streamed into the CPPG —
    /// activations in the paper's mapping).
    pub b_bits: u32,
    /// Accumulator width the reduction resolves into.
    pub acc_bits: u32,
}

impl Precision {
    /// INT4 × INT4 → INT16.
    pub const W4: Precision = Precision {
        a_bits: 4,
        b_bits: 4,
        acc_bits: 16,
    };

    /// INT8 × INT8 → INT32 — the paper's configuration and the workspace
    /// default.
    pub const W8: Precision = Precision {
        a_bits: 8,
        b_bits: 8,
        acc_bits: 32,
    };

    /// INT16 × INT16 → INT64.
    pub const W16: Precision = Precision {
        a_bits: 16,
        b_bits: 16,
        acc_bits: 64,
    };

    /// Asymmetric 8-bit weights × 4-bit activations → INT24.
    pub const W8X4: Precision = Precision {
        a_bits: 8,
        b_bits: 4,
        acc_bits: 24,
    };

    /// The named presets, in ascending multiplicand width.
    pub const PRESETS: [Precision; 4] = [
        Precision::W4,
        Precision::W8X4,
        Precision::W8,
        Precision::W16,
    ];

    /// A validated precision.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ a_bits, b_bits ≤ 16` (1-bit operands have no
    /// signed range, so the quantized-normal digit statistics degenerate),
    /// `acc_bits ≤ 64` and the accumulator holds at least one full
    /// product (`acc_bits ≥ a + b`).
    pub fn new(a_bits: u32, b_bits: u32, acc_bits: u32) -> Self {
        assert!(
            (2..=16).contains(&a_bits) && (2..=16).contains(&b_bits),
            "operand widths {a_bits}x{b_bits} out of the supported 2..=16 range"
        );
        assert!(
            acc_bits >= a_bits + b_bits && acc_bits <= 64,
            "accumulator width {acc_bits} must cover one {a_bits}x{b_bits} product and fit u64"
        );
        Self {
            a_bits,
            b_bits,
            acc_bits,
        }
    }

    /// Whether this is the paper's default [`Precision::W8`] configuration
    /// (labels omit the suffix for it).
    pub fn is_default(self) -> bool {
        self == Precision::W8
    }

    /// Radix-4 digit slots of the encoded multiplicand (⌈a/2⌉) — the
    /// partial-product count of a parallel Booth-family multiplier and the
    /// worst-case serial digit stream of the radix-4 encoders.
    pub fn digits(self) -> u32 {
        self.a_bits.div_ceil(2)
    }

    /// Width of one full product (`a_bits + b_bits`).
    pub fn product_bits(self) -> u32 {
        self.a_bits + self.b_bits
    }

    /// Stable display label: `W4` / `W8` / `W16` for the symmetric
    /// `{n, n, 4n}` family, `W8xW4` for the asymmetric preset, and the
    /// fully-spelled `W{a}xW{b}a{acc}` otherwise. [`Precision::parse`]
    /// round-trips every label this emits.
    pub fn label(self) -> String {
        self.to_string()
    }

    /// Parses a precision label, case-insensitively: `w4`-style symmetric
    /// names (`{n, n, 4n}`), `w8xw4` for the asymmetric preset, and the
    /// generic `w{a}xw{b}a{acc}` form. Returns `None` for anything that is
    /// not a valid precision.
    pub fn parse(s: &str) -> Option<Precision> {
        let s = s.to_ascii_lowercase();
        if s == "w8xw4" {
            return Some(Precision::W8X4);
        }
        let rest = s.strip_prefix('w')?;
        if let Ok(n) = rest.parse::<u32>() {
            if (2..=16).contains(&n) {
                return Some(Precision::new(n, n, 4 * n));
            }
            return None;
        }
        // Generic w{a}xw{b}a{acc}.
        let (a_str, tail) = rest.split_once("xw")?;
        let (b_str, acc_str) = tail.split_once('a')?;
        let (a, b, acc) = (
            a_str.parse().ok()?,
            b_str.parse().ok()?,
            acc_str.parse().ok()?,
        );
        if !(2..=16).contains(&a) || !(2..=16).contains(&b) || acc < a + b || acc > 64 {
            return None;
        }
        Some(Precision::new(a, b, acc))
    }
}

impl Default for Precision {
    fn default() -> Self {
        Precision::W8
    }
}

/// Writes [`Precision::label`] without building a string first.
impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Precision::W8X4 {
            f.write_str("W8xW4")
        } else if self.a_bits == self.b_bits && self.acc_bits == 4 * self.a_bits {
            write!(f, "W{}", self.a_bits)
        } else {
            write!(f, "W{}xW{}a{}", self.a_bits, self.b_bits, self.acc_bits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid_and_default_is_w8() {
        for p in Precision::PRESETS {
            let v = Precision::new(p.a_bits, p.b_bits, p.acc_bits);
            assert_eq!(v, p);
        }
        assert_eq!(Precision::default(), Precision::W8);
        assert!(Precision::W8.is_default());
        assert!(!Precision::W4.is_default());
        assert_eq!(Precision::W8.digits(), 4);
        assert_eq!(Precision::W16.product_bits(), 32);
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for p in Precision::PRESETS {
            assert_eq!(Precision::parse(&p.label()), Some(p), "{}", p.label());
        }
        let odd = Precision::new(6, 10, 28);
        assert_eq!(odd.label(), "W6xW10a28");
        assert_eq!(Precision::parse(&odd.label()), Some(odd));
        // Case-insensitive.
        assert_eq!(Precision::parse("w16"), Some(Precision::W16));
        assert_eq!(Precision::parse("W8XW4"), Some(Precision::W8X4));
    }

    #[test]
    fn parse_rejects_nonsense() {
        for bad in [
            "", "w", "w0", "w1", "w17", "x8", "w8x4", "w4xw4a6", "w1xw4a8", "8", "W4.5",
        ] {
            assert!(Precision::parse(bad).is_none(), "{bad:?} must not parse");
        }
    }

    #[test]
    #[should_panic(expected = "accumulator width")]
    fn accumulator_must_cover_a_product() {
        Precision::new(8, 8, 12);
    }

    #[test]
    fn preset_labels_are_stable() {
        assert_eq!(Precision::W4.label(), "W4");
        assert_eq!(Precision::W8.label(), "W8");
        assert_eq!(Precision::W16.label(), "W16");
        assert_eq!(Precision::W8X4.label(), "W8xW4");
    }
}
