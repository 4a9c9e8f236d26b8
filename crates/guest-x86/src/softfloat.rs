//! Canonical deterministic f64 semantics, shared by every layer that
//! evaluates guest floating-point: the reference interpreter
//! ([`FpOp::apply`](crate::FpOp::apply)), the TCG constant evaluator,
//! the host machine's soft-float helpers, and the MiniArm hardware-FP
//! instruction.
//!
//! Why this module exists: IEEE 754 leaves the *payload* of a NaN
//! result implementation-defined, and `a * b` on two NaN operands
//! returns whichever operand the hardware propagates — which in turn
//! depends on the operand order the compiler happened to emit.
//! LLVM treats `fmul`/`fadd` as commutative, so two textually identical
//! `fa * fb` expressions at different call sites can compile to
//! opposite operand orders and return *different NaN bit patterns*.
//! The differential fuzzer found exactly that: the interpreter and the
//! DBT tiers disagreed on a program whose `fp mul` chain ran through
//! NaN values (the reproducer `fp_nan_chain` in
//! `tests/theorem1/reproducers.rs`).
//!
//! The fix is to never let hardware NaN propagation reach an
//! architectural register. Every operation here applies an explicit,
//! deterministic NaN discipline *before* and *after* the native
//! computation:
//!
//! 1. If the first operand is NaN, return it quietened.
//! 2. Else if the second operand is NaN, return it quietened.
//! 3. Else compute; if the *result* is NaN (`0 * inf`, `inf - inf`,
//!    `0 / 0`, `sqrt(-x)`), return the canonical default NaN.
//!
//! Rule 1/2 mirrors x86 SSE (first-source NaN wins, quietened), which
//! suits a MiniX86 guest; rule 3 matches both x86 and Arm generated
//! NaNs. All three are pure bit-level decisions, so the result is
//! identical regardless of how the compiler schedules the FP ops.

/// The quiet bit of an f64 NaN (mantissa MSB).
pub const QUIET_BIT: u64 = 0x0008_0000_0000_0000;

/// The canonical default NaN both x86 and Arm generate for invalid
/// operations (negative quiet NaN on x86; same payload, sign clear, on
/// Arm — we pick the x86 one, matching the guest ISA).
pub const DEFAULT_NAN: u64 = 0xFFF8_0000_0000_0000;

/// Returns the deterministic NaN propagation for a binary op, if any
/// operand is NaN.
#[inline]
fn propagate2(a: u64, b: u64) -> Option<u64> {
    if f64::from_bits(a).is_nan() {
        Some(a | QUIET_BIT)
    } else if f64::from_bits(b).is_nan() {
        Some(b | QUIET_BIT)
    } else {
        None
    }
}

/// Canonicalizes a freshly computed (non-propagated) result.
#[inline]
fn canon(r: f64) -> u64 {
    if r.is_nan() {
        DEFAULT_NAN
    } else {
        r.to_bits()
    }
}

/// f64 addition on bit patterns.
#[inline]
pub fn add(a: u64, b: u64) -> u64 {
    propagate2(a, b).unwrap_or_else(|| canon(f64::from_bits(a) + f64::from_bits(b)))
}

/// f64 subtraction on bit patterns.
#[inline]
pub fn sub(a: u64, b: u64) -> u64 {
    propagate2(a, b).unwrap_or_else(|| canon(f64::from_bits(a) - f64::from_bits(b)))
}

/// f64 multiplication on bit patterns.
#[inline]
pub fn mul(a: u64, b: u64) -> u64 {
    propagate2(a, b).unwrap_or_else(|| canon(f64::from_bits(a) * f64::from_bits(b)))
}

/// f64 division on bit patterns.
#[inline]
pub fn div(a: u64, b: u64) -> u64 {
    propagate2(a, b).unwrap_or_else(|| canon(f64::from_bits(a) / f64::from_bits(b)))
}

/// f64 square root of `b` (unary; the first operand is ignored, as in
/// the `FpOp::Sqrt` encoding).
#[inline]
pub fn sqrt(b: u64) -> u64 {
    let fb = f64::from_bits(b);
    if fb.is_nan() {
        b | QUIET_BIT
    } else {
        canon(fb.sqrt())
    }
}

/// Signed integer → f64 of `b`.
#[inline]
pub fn cvt_if(b: u64) -> u64 {
    ((b as i64) as f64).to_bits()
}

/// f64 → signed integer of `b`, truncating. Rust's `as` cast is already
/// deterministic (saturating, NaN → 0).
#[inline]
pub fn cvt_fi(b: u64) -> u64 {
    (f64::from_bits(b) as i64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_propagation_is_first_operand_and_quietened() {
        // Two distinct signalling-ish NaN payloads (quiet bit clear).
        let nan_a = 0x7FF0_0000_0000_0001u64;
        let nan_b = 0x7FF0_0000_0000_0002u64;
        assert_eq!(mul(nan_a, nan_b), nan_a | QUIET_BIT);
        assert_eq!(mul(nan_b, nan_a), nan_b | QUIET_BIT);
        assert_eq!(add(1.0f64.to_bits(), nan_b), nan_b | QUIET_BIT);
        // The fuzzer's original shape: small negative integers are NaN
        // bit patterns; the chain must keep the *first* NaN seen.
        let nan1 = (-0xACi64) as u64;
        let nan2 = (-0x158i64) as u64;
        let r = mul(mul(0, nan1), nan2);
        assert_eq!(r, nan1 | QUIET_BIT);
    }

    #[test]
    fn generated_nans_are_canonical() {
        assert_eq!(mul(0, f64::INFINITY.to_bits()), DEFAULT_NAN);
        assert_eq!(div(0, 0), DEFAULT_NAN);
        assert_eq!(sub(f64::INFINITY.to_bits(), f64::INFINITY.to_bits()), DEFAULT_NAN);
        assert_eq!(sqrt((-4.0f64).to_bits()), DEFAULT_NAN);
    }

    #[test]
    fn non_nan_arithmetic_is_plain_ieee() {
        assert_eq!(f64::from_bits(add(1.5f64.to_bits(), 2.0f64.to_bits())), 3.5);
        assert_eq!(f64::from_bits(mul(3.0f64.to_bits(), 7.0f64.to_bits())), 21.0);
        assert_eq!(f64::from_bits(sqrt(16.0f64.to_bits())), 4.0);
        assert_eq!(cvt_fi(3.99f64.to_bits()), 3);
        assert_eq!(f64::from_bits(cvt_if((-2i64) as u64)), -2.0);
        assert_eq!(cvt_fi(f64::NAN.to_bits()), 0);
    }
}
