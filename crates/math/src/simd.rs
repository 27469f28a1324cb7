//! Runtime-dispatched SIMD datapaths for the kernel hot loops.
//!
//! HEAP gets its throughput from wide arrays of modular functional units
//! (paper §IV): butterfly units for the NTT, MAC arrays for key switching and
//! the external product, and decomposition units feeding them. The CPU
//! analogue of that data-level parallelism is explicit vectorization: this
//! module provides AVX2 (x86_64) and NEON (aarch64) implementations of the
//! three hot loops — the Harvey lazy NTT butterflies, the Shoup
//! multiply-accumulate inner loop, and signed gadget decomposition — selected
//! at runtime behind feature detection, with the scalar lazy kernels as the
//! always-available fallback.
//!
//! Like HEAP's MAC arrays, which are sized to the modulus, the x86_64 kernels
//! come in three operand classes chosen per modulus ([`ntt_class`]): 64-bit
//! integer lanes for `q < 2^61`, double-precision FMA lanes for `q < 2^48`,
//! and *narrow* 32-bit products for `q < 2^30`, where every lazy operand
//! fits 32 bits and a modular product costs one `vpmuludq` plus its Shoup
//! correction.
//!
//! Every vector kernel performs the *same* per-element arithmetic as its
//! scalar counterpart (same wrapping multiplies, same conditional subtracts,
//! same canonicalization), so the outputs are bit-identical regardless of
//! which backend runs. The parity proptests in `tests/properties.rs` and the
//! pinned bootstrap digests enforce this.
//!
//! Dispatch can be overridden for testing and benchmarking: set the
//! `HEAP_SIMD` environment variable to `off`/`scalar`/`0` before first use,
//! or call [`force_scalar`] at runtime.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which vector datapath is driving the hot kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Scalar lazy kernels (always available).
    Scalar,
    /// 4×u64 lanes via AVX2 on x86_64.
    Avx2,
    /// 2×u64 lanes via NEON on aarch64.
    Neon,
}

impl Backend {
    /// Human-readable backend name (used in bench output).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }

    fn is_vector(self) -> bool {
        !matches!(self, Backend::Scalar)
    }
}

/// Cached backend selection: 0 = undetected, 1 = scalar, 2 = avx2, 3 = neon.
static BACKEND: AtomicU8 = AtomicU8::new(0);

fn encode(b: Backend) -> u8 {
    match b {
        Backend::Scalar => 1,
        Backend::Avx2 => 2,
        Backend::Neon => 3,
    }
}

fn decode(v: u8) -> Backend {
    match v {
        2 => Backend::Avx2,
        3 => Backend::Neon,
        _ => Backend::Scalar,
    }
}

fn detect() -> Backend {
    if let Ok(v) = std::env::var("HEAP_SIMD") {
        let v = v.to_ascii_lowercase();
        if v == "off" || v == "scalar" || v == "0" {
            return Backend::Scalar;
        }
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Backend::Neon;
        }
    }
    Backend::Scalar
}

/// The backend the dispatched kernels will use.
pub fn active() -> Backend {
    let v = BACKEND.load(Ordering::Relaxed);
    if v != 0 {
        return decode(v);
    }
    let b = detect();
    BACKEND.store(encode(b), Ordering::Relaxed);
    b
}

/// Forces the scalar fallback on (`true`) or re-runs detection (`false`).
///
/// Intended for parity tests and benchmarks that need to exercise both
/// datapaths in one process. Takes effect for all subsequent kernel calls.
pub fn force_scalar(on: bool) {
    let b = if on { Backend::Scalar } else { detect() };
    BACKEND.store(encode(b), Ordering::Relaxed);
}

/// NTT operand bound for the vector path: AVX2's only 64-bit compare is
/// signed, and forward-butterfly operands ride in `[0, 4q)`, so every
/// compared value stays below `2^63` only when `q < 2^61`. NEON has unsigned
/// compares but shares the gate so dispatch behaviour is uniform across
/// hosts. The 36- and 60-bit production primes are far inside the bound.
const NTT_Q_LIMIT: u64 = 1 << 61;

fn ntt_simd_ok(n: usize, q: u64) -> bool {
    n >= 8 && n.is_power_of_two() && q < NTT_Q_LIMIT
}

/// Bound for the double-precision FMA NTT kernels on x86_64: the error-free
/// float Shoup reduction (two-product + one `round`) is provably exact for
/// `q < 2^48` (all intermediates are integers below `2^53`, and the nearest-
/// integer quotient estimate is off by strictly less than one), so for the
/// 30–47-bit working primes the butterfly costs ~9 FMA-port µops instead of
/// the ~30 integer-emulation µops AVX2 needs for a 64-bit `mul_lazy`. Wider
/// moduli (e.g. the 60-bit parity primes) take the integer kernels.
const NTT_F64_Q_LIMIT: u64 = 1 << 48;

#[cfg(target_arch = "x86_64")]
fn f64_kernels_ok(q: u64) -> bool {
    q < NTT_F64_Q_LIMIT && std::arch::is_x86_feature_detected!("fma")
}

/// Bound for the narrow 32-bit NTT kernels: with `q < 2^30` every lazy
/// operand (`[0, 4q)`) fits 32 bits, so a twiddle product is a single
/// `vpmuludq` and its Shoup correction uses the 32-bit quotient
/// `⌊w·2^32/q⌋`. That quotient is the high half of the 64-bit one the
/// table already stores (`⌊⌊w·2^64/q⌋ / 2^32⌋ = ⌊w·2^32/q⌋`), so the class
/// keeps no tables of its own.
pub const NARROW_Q_LIMIT: u64 = 1 << 30;

/// The arithmetic class a dispatched NTT over `(n, q)` runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NttClass {
    /// The scalar lazy kernels: no vector backend, or the ring or modulus
    /// does not qualify.
    Scalar,
    /// 32-bit products in 64-bit lanes, `q < 2^30` (AVX2).
    Narrow,
    /// Error-free double-precision Shoup products, `q < 2^48` (AVX2 + FMA).
    F64,
    /// Emulated 64-bit integer products, `q < 2^61` (AVX2, NEON).
    Integer,
}

/// Which kernel class [`crate::NttTable::forward`] and
/// [`crate::NttTable::inverse`] run for ring dimension `n` and modulus `q`
/// on the active backend. Depends only on the backend, `n` and the width of
/// `q`; every class produces bit-identical canonical outputs.
pub fn ntt_class(n: usize, q: u64) -> NttClass {
    if !ntt_simd_ok(n, q) {
        return NttClass::Scalar;
    }
    match active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            if q < NARROW_Q_LIMIT {
                NttClass::Narrow
            } else if f64_kernels_ok(q) {
                NttClass::F64
            } else {
                NttClass::Integer
            }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => NttClass::Integer,
        _ => NttClass::Scalar,
    }
}

/// Runs the full forward lazy NTT on the active vector backend.
///
/// `ops`/`quots` are the bit-reversed twiddle operands and Shoup quotients
/// (same indexing as the scalar kernel's `psi_br`). Returns `false` when no
/// vector backend applies — the caller must then run the scalar kernel.
#[cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    allow(unused_variables)
)]
pub(crate) fn try_ntt_forward(a: &mut [u64], ops: &[u64], quots: &[u64], q: u64) -> bool {
    match ntt_class(a.len(), q) {
        NttClass::Scalar => false,
        #[cfg(target_arch = "x86_64")]
        NttClass::Narrow => {
            // SAFETY: the Narrow class is only returned on the Avx2
            // backend, which is selected after runtime detection.
            unsafe { avx2::ntt_forward_narrow(a, ops, quots, q) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        NttClass::F64 => {
            // SAFETY: the F64 class requires Avx2 and FMA, both detected
            // at runtime.
            unsafe { avx2::ntt_forward_f64(a, ops, q) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        NttClass::Integer => {
            // SAFETY: Avx2 is only selected after runtime detection.
            unsafe { avx2::ntt_forward(a, ops, quots, q) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        NttClass::Integer => {
            // SAFETY: Neon is only selected after runtime detection.
            unsafe { neon::ntt_forward(a, ops, quots, q) };
            true
        }
        #[allow(unreachable_patterns)]
        _ => false,
    }
}

/// Runs the full inverse lazy NTT (including the final `n^{-1}` scaling and
/// canonicalization) on the active vector backend. Returns `false` when no
/// vector backend applies.
#[cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    allow(unused_variables)
)]
pub(crate) fn try_ntt_inverse(
    a: &mut [u64],
    ops: &[u64],
    quots: &[u64],
    q: u64,
    n_inv_op: u64,
    n_inv_quot: u64,
) -> bool {
    match ntt_class(a.len(), q) {
        NttClass::Scalar => false,
        #[cfg(target_arch = "x86_64")]
        NttClass::Narrow => {
            // SAFETY: the Narrow class is only returned on the Avx2
            // backend, which is selected after runtime detection.
            unsafe { avx2::ntt_inverse_narrow(a, ops, quots, q, n_inv_op, n_inv_quot) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        NttClass::F64 => {
            // SAFETY: the F64 class requires Avx2 and FMA, both detected
            // at runtime.
            unsafe { avx2::ntt_inverse_f64(a, ops, q, n_inv_op) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        NttClass::Integer => {
            // SAFETY: Avx2 is only selected after runtime detection.
            unsafe { avx2::ntt_inverse(a, ops, quots, q, n_inv_op, n_inv_quot) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        NttClass::Integer => {
            // SAFETY: Neon is only selected after runtime detection.
            unsafe { neon::ntt_inverse(a, ops, quots, q, n_inv_op, n_inv_quot) };
            true
        }
        #[allow(unreachable_patterns)]
        _ => false,
    }
}

/// Accumulates `acc[i] += ops[i] * x[i] mod-ish q` (Shoup lazy product in
/// `[0, 2q)`) into `u64` accumulators. Returns `false` when no vector
/// backend applies.
#[cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    allow(unused_variables)
)]
pub(crate) fn try_mac_shoup(
    x: &[u64],
    ops: &[u64],
    quots: &[u64],
    q: u64,
    acc: &mut [u64],
) -> bool {
    match active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: Avx2 (and, for the f64 kernel, FMA) is only selected
            // after runtime detection.
            if f64_kernels_ok(q) {
                unsafe { avx2::mac_shoup_f64(x, ops, q, acc) };
            } else {
                unsafe { avx2::mac_shoup(x, ops, quots, q, acc) };
            }
            true
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => {
            // SAFETY: Neon is only selected after runtime detection.
            unsafe { neon::mac_shoup(x, ops, quots, q, acc) };
            true
        }
        _ => false,
    }
}

/// Accumulates exact products `acc[i] += x[i] * ops[i]` of residues below
/// `2^32` (the narrow MAC: one `vpmuludq` per four products, no reduction).
/// Returns `false` when no vector kernel applies.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_mac_narrow(x: &[u64], ops: &[u64], acc: &mut [u64]) -> bool {
    match active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: Avx2 is only selected after runtime detection.
            unsafe { avx2::mac_narrow(x, ops, acc) };
            true
        }
        _ => false,
    }
}

/// Canonical pointwise product `a[i] = a[i] * b[i] mod q` of canonical
/// residues, on the double-precision FMA path (`q < 2^48`). Returns `false`
/// when no vector kernel applies.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_mul_assign(a: &mut [u64], b: &[u64], q: u64) -> bool {
    match active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if f64_kernels_ok(q) => {
            // SAFETY: Avx2 and FMA are both detected at runtime.
            unsafe { avx2::mul_assign_f64(a, b, q) };
            true
        }
        _ => false,
    }
}

/// Canonical pointwise multiply-add `acc[i] = acc[i] + a[i] * b[i] mod q`
/// of canonical residues, on the double-precision FMA path (`q < 2^48`).
/// Returns `false` when no vector kernel applies.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_mul_add_assign(acc: &mut [u64], a: &[u64], b: &[u64], q: u64) -> bool {
    match active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if f64_kernels_ok(q) => {
            // SAFETY: Avx2 and FMA are both detected at runtime.
            unsafe { avx2::mul_add_assign_f64(acc, a, b, q) };
            true
        }
        _ => false,
    }
}

/// Canonically reduces `u64` accumulators into `out` with a single-word
/// Barrett step (`barrett_hi = floor(2^64 / q)`). Returns `false` when no
/// vector backend applies.
#[cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    allow(unused_variables)
)]
pub(crate) fn try_reduce_barrett(acc: &[u64], out: &mut [u64], q: u64, barrett_hi: u64) -> bool {
    match active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: Avx2 is only selected after runtime detection.
            unsafe { avx2::reduce_barrett(acc, out, q, barrett_hi) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => {
            // SAFETY: Neon is only selected after runtime detection.
            unsafe { neon::reduce_barrett(acc, out, q, barrett_hi) };
            true
        }
        _ => false,
    }
}

/// Signed gadget decomposition of a coefficient slice into digit-major rows.
/// Returns `false` when no vector backend applies.
#[cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    allow(unused_variables)
)]
pub(crate) fn try_decompose_signed(
    coeffs: &[u64],
    q: u64,
    base_bits: u32,
    out: &mut [Vec<i64>],
) -> bool {
    // Digits stay below 2^32 when base_bits <= 32, keeping every compared
    // value signed-compare-safe (q itself is < 2^62 by construction).
    if base_bits > 32 || !active().is_vector() {
        return false;
    }
    match active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: Avx2 is only selected after runtime detection.
            unsafe { avx2::decompose_signed(coeffs, q, base_bits, out) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => {
            // SAFETY: Neon is only selected after runtime detection.
            unsafe { neon::decompose_signed(coeffs, q, base_bits, out) };
            true
        }
        _ => false,
    }
}

/// Lifts balanced signed coefficients to canonical residues (`c + q` for
/// negative lanes): the hot inner conversion between gadget decomposition
/// and the spread-digit forward NTT. Lanes outside `(-q, q)` take a scalar
/// `rem_euclid` (same canonical result as `Modulus::from_i64`). Returns
/// `false` when no vector backend applies.
#[cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    allow(unused_variables)
)]
pub(crate) fn try_from_signed(coeffs: &[i64], q: u64, out: &mut [u64]) -> bool {
    // `-q` and `q` must be signed-compare-safe; every NTT modulus is.
    if q >= (1 << 62) {
        return false;
    }
    match active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: Avx2 is only selected after runtime detection.
            unsafe { avx2::from_signed(coeffs, q, out) };
            true
        }
        _ => false,
    }
}

/// Scalar canonical lift for `try_from_signed`'s out-of-range and tail
/// lanes. `rem_euclid` lands in `[0, q)` — the unique canonical residue, so
/// it bit-matches every other correct lift.
#[inline]
pub(crate) fn from_signed_one_scalar(c: i64, q: u64) -> u64 {
    c.rem_euclid(q as i64) as u64
}

/// Scalar Shoup lazy product, used by the vector kernels' tail loops. Same
/// arithmetic as `ShoupMul::mul_lazy`: result in `[0, 2q)` for any `x`.
#[inline]
pub(crate) fn mul_lazy_scalar(x: u64, op: u64, quot: u64, q: u64) -> u64 {
    let hi = (((quot as u128) * (x as u128)) >> 64) as u64;
    op.wrapping_mul(x).wrapping_sub(hi.wrapping_mul(q))
}

/// Scalar signed decomposition of one coefficient into `out[k][i]`,
/// replicating `Gadget::decompose_slice_signed_into` exactly (used by the
/// vector kernels' tail loops).
#[inline]
pub(crate) fn decompose_one_scalar(c: u64, q: u64, base_bits: u32, out: &mut [Vec<i64>], i: usize) {
    let base = 1u64 << base_bits;
    let half = base >> 1;
    let mask = base - 1;
    // Balanced representative: residues above q/2 are negative (matches
    // `Modulus::to_signed`).
    let neg = c > q / 2;
    let mut mag = if neg { q - c } else { c };
    for row in out.iter_mut() {
        let mut digit = mag & mask;
        mag >>= base_bits;
        if digit > half {
            digit = digit.wrapping_sub(base);
            mag += 1;
        }
        let mut d = digit as i64;
        if neg {
            d = -d;
        }
        row[i] = d;
    }
    debug_assert_eq!(mag, 0, "value exceeded gadget range");
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! 4×u64-lane kernels. 64-bit lane products are assembled from
    //! `_mm256_mul_epu32` 32×32→64 partial products; conditional subtracts
    //! use the signed `_mm256_cmpgt_epi64` (sound because the dispatch gate
    //! keeps every compared value below `2^63`).

    use core::arch::x86_64::*;

    #[inline(always)]
    unsafe fn splat(x: u64) -> __m256i {
        _mm256_set1_epi64x(x as i64)
    }

    #[inline(always)]
    unsafe fn loadu(p: *const u64) -> __m256i {
        _mm256_loadu_si256(p as *const __m256i)
    }

    #[inline(always)]
    unsafe fn storeu(p: *mut u64, v: __m256i) {
        _mm256_storeu_si256(p as *mut __m256i, v)
    }

    /// Low 64 bits of the 64×64 lane product.
    #[inline(always)]
    unsafe fn mul_lo(a: __m256i, b: __m256i) -> __m256i {
        let a_hi = _mm256_srli_epi64(a, 32);
        let b_hi = _mm256_srli_epi64(b, 32);
        let ll = _mm256_mul_epu32(a, b);
        let cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
        _mm256_add_epi64(ll, _mm256_slli_epi64(cross, 32))
    }

    /// High 64 bits of the 64×64 lane product.
    #[inline(always)]
    unsafe fn mul_hi(a: __m256i, b: __m256i) -> __m256i {
        let lo_mask = splat(0xFFFF_FFFF);
        let a_hi = _mm256_srli_epi64(a, 32);
        let b_hi = _mm256_srli_epi64(b, 32);
        let ll = _mm256_mul_epu32(a, b);
        let lh = _mm256_mul_epu32(a, b_hi);
        let hl = _mm256_mul_epu32(a_hi, b);
        let hh = _mm256_mul_epu32(a_hi, b_hi);
        let mid = _mm256_add_epi64(
            _mm256_add_epi64(_mm256_srli_epi64(ll, 32), _mm256_and_si256(lh, lo_mask)),
            _mm256_and_si256(hl, lo_mask),
        );
        _mm256_add_epi64(
            _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
            _mm256_add_epi64(_mm256_srli_epi64(hl, 32), _mm256_srli_epi64(mid, 32)),
        )
    }

    /// Shoup lazy product `op*x - hi(quot*x)*q`, lanes in `[0, 2q)`.
    #[inline(always)]
    unsafe fn mul_lazy(x: __m256i, op: __m256i, quot: __m256i, q: __m256i) -> __m256i {
        let hi = mul_hi(quot, x);
        _mm256_sub_epi64(mul_lo(op, x), mul_lo(hi, q))
    }

    /// `x - bound` where `x >= bound` (i.e. `x > bound - 1`), else `x`.
    #[inline(always)]
    unsafe fn fold(x: __m256i, bound: __m256i, bound_m1: __m256i) -> __m256i {
        let ge = _mm256_cmpgt_epi64(x, bound_m1);
        _mm256_sub_epi64(x, _mm256_and_si256(bound, ge))
    }

    /// Expands a pair of adjacent twiddles `{w0, w1}` to `{w0, w0, w1, w1}`.
    #[inline(always)]
    unsafe fn expand_pair(p: *const u64) -> __m256i {
        let wp = _mm_loadu_si128(p as *const __m128i);
        _mm256_permute4x64_epi64(_mm256_castsi128_si256(wp), 0b0101_0000)
    }

    // ---- double-precision (FMA) kernels for q < 2^48 ----
    //
    // AVX2 has no 64-bit integer multiply, so the integer `mul_lazy` above
    // costs ~30 µops per 4 lanes. For `q < 2^48` the same exact modular
    // product fits the classical error-free double-precision scheme in ~9:
    //
    //   hi = RN(a*b)            — nearest double to the product
    //   lo = fma(a, b, -hi)     — *exact* two-product error: hi + lo = a*b
    //   k  = round(hi * RN(1/q))— nearest integer to a*b/q (error << 1/2,
    //                             see bound below)
    //   r  = fma(-k, q, hi) + lo — exact integer a*b - k*q in (-q, q)
    //
    // plus one conditional add to land in `[0, q)`. Every intermediate is an
    // integer below 2^53, every rounding is round-to-nearest-even, so the
    // result is the *exact* canonical residue on every IEEE-754 host — no
    // approximation anywhere. Error bound for the k estimate with operands
    // a < q, b < 2q < 2^49: |hi - ab| <= 2q^2 * 2^-54 and
    // |RN(1/q) - 1/q| <= 2^-53/q give |k - ab/q| <= 1/2 + q*2^-52 < 1,
    // hence |r| < q after the single correction.
    //
    // These kernels keep every lane *fully reduced* in `[0, q)` instead of
    // the integer path's lazy `[0, 4q)` — the representatives differ
    // mid-transform, but both paths canonicalize on exit, so the output
    // arrays are bit-identical (which is what the parity suites pin).
    const F64_MAGIC: i64 = 0x4330_0000_0000_0000; // 2^52 as an f64 bit pattern

    /// Exact `u64 -> f64` for lanes below 2^52.
    #[inline(always)]
    unsafe fn to_f64(x: __m256i) -> __m256d {
        let magic = _mm256_set1_epi64x(F64_MAGIC);
        _mm256_sub_pd(
            _mm256_castsi256_pd(_mm256_or_si256(x, magic)),
            _mm256_castsi256_pd(magic),
        )
    }

    /// Exact `f64 -> u64` for integer-valued lanes in `[0, 2^52)`.
    #[inline(always)]
    unsafe fn to_u64(x: __m256d) -> __m256i {
        let magic = _mm256_set1_epi64x(F64_MAGIC);
        _mm256_sub_epi64(
            _mm256_castpd_si256(_mm256_add_pd(x, _mm256_castsi256_pd(magic))),
            magic,
        )
    }

    /// `x - b` where `x >= b`, else `x` (float lanes).
    #[inline(always)]
    unsafe fn cond_sub_pd(x: __m256d, b: __m256d) -> __m256d {
        let ge = _mm256_cmp_pd(x, b, _CMP_GE_OQ);
        _mm256_sub_pd(x, _mm256_and_pd(b, ge))
    }

    /// `x + b` where `x < 0`, else `x` (float lanes).
    #[inline(always)]
    unsafe fn cond_add_neg_pd(x: __m256d, b: __m256d) -> __m256d {
        let lt = _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_LT_OQ);
        _mm256_add_pd(x, _mm256_and_pd(b, lt))
    }

    /// Exact `a*b mod q` in `[0, q)` for integer lanes `a < 2q`, `b < q`,
    /// `q < 2^48` (see the scheme above).
    #[inline(always)]
    unsafe fn mulmod_pd(a: __m256d, b: __m256d, qd: __m256d, inv_q: __m256d) -> __m256d {
        let hi = _mm256_mul_pd(a, b);
        let lo = _mm256_fmsub_pd(a, b, hi);
        let k = _mm256_round_pd(
            _mm256_mul_pd(hi, inv_q),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC,
        );
        let r = _mm256_add_pd(_mm256_fnmadd_pd(k, qd, hi), lo);
        cond_add_neg_pd(r, qd)
    }

    /// Forward NTT over doubles: converts in place, runs every butterfly
    /// fully reduced, converts back canonical. Same stage/lane structure as
    /// the integer kernel. Requires `q < 2^48` and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn ntt_forward_f64(a: &mut [u64], ops: &[u64], q: u64) {
        let n = a.len();
        let p = a.as_mut_ptr();
        let pd = p as *mut f64;
        let op_p = ops.as_ptr();
        let qd = _mm256_set1_pd(q as f64);
        let inv_q = _mm256_set1_pd(1.0 / q as f64);
        let two_qd = _mm256_set1_pd(2.0 * q as f64);

        // Entry: exact conversion plus [0, 4q) -> [0, q) canonicalization.
        let mut j = 0;
        while j < n {
            let x = to_f64(loadu(p.add(j)));
            let x = cond_sub_pd(cond_sub_pd(x, two_qd), qd);
            _mm256_storeu_pd(pd.add(j), x);
            j += 4;
        }

        // Stages with t >= 4: one broadcast twiddle per butterfly group.
        let mut t = n;
        let mut m = 1usize;
        while m < n / 4 {
            t >>= 1;
            for i in 0..m {
                let wd = _mm256_set1_pd(*op_p.add(m + i) as f64);
                let j1 = 2 * i * t;
                let mut j = j1;
                while j < j1 + t {
                    let x = _mm256_loadu_pd(pd.add(j));
                    let y = _mm256_loadu_pd(pd.add(j + t));
                    let v = mulmod_pd(y, wd, qd, inv_q);
                    let lo = cond_sub_pd(_mm256_add_pd(x, v), qd);
                    let hi = cond_add_neg_pd(_mm256_sub_pd(x, v), qd);
                    _mm256_storeu_pd(pd.add(j), lo);
                    _mm256_storeu_pd(pd.add(j + t), hi);
                    j += 4;
                }
            }
            m <<= 1;
        }

        // t == 2 stage: same 128-bit half regrouping as the integer kernel.
        {
            let m = n / 4;
            let mut g = 0;
            while g < m {
                let base = pd.add(4 * g);
                let v0 = _mm256_loadu_pd(base);
                let v1 = _mm256_loadu_pd(base.add(4));
                let x = _mm256_permute2f128_pd(v0, v1, 0x20);
                let y = _mm256_permute2f128_pd(v0, v1, 0x31);
                let w0 = *op_p.add(m + g) as f64;
                let w1 = *op_p.add(m + g + 1) as f64;
                let wd = _mm256_set_pd(w1, w1, w0, w0);
                let v = mulmod_pd(y, wd, qd, inv_q);
                let lo = cond_sub_pd(_mm256_add_pd(x, v), qd);
                let hi = cond_add_neg_pd(_mm256_sub_pd(x, v), qd);
                _mm256_storeu_pd(base, _mm256_permute2f128_pd(lo, hi, 0x20));
                _mm256_storeu_pd(base.add(4), _mm256_permute2f128_pd(lo, hi, 0x31));
                g += 2;
            }
        }

        // t == 1 stage with the exit conversion fused into its stores;
        // outputs are already canonical.
        {
            let m = n / 2;
            let mut g = 0;
            while g < m {
                let base = pd.add(2 * g);
                let v0 = _mm256_loadu_pd(base);
                let v1 = _mm256_loadu_pd(base.add(4));
                let x = _mm256_unpacklo_pd(v0, v1);
                let y = _mm256_unpackhi_pd(v0, v1);
                let wd = _mm256_set_pd(
                    *op_p.add(m + g + 3) as f64,
                    *op_p.add(m + g + 1) as f64,
                    *op_p.add(m + g + 2) as f64,
                    *op_p.add(m + g) as f64,
                );
                let v = mulmod_pd(y, wd, qd, inv_q);
                let lo = to_u64(cond_sub_pd(_mm256_add_pd(x, v), qd));
                let hi = to_u64(cond_add_neg_pd(_mm256_sub_pd(x, v), qd));
                storeu(p.add(2 * g), _mm256_unpacklo_epi64(lo, hi));
                storeu(p.add(2 * g + 4), _mm256_unpackhi_epi64(lo, hi));
                g += 4;
            }
        }
    }

    /// Inverse NTT over doubles; the `n^{-1}` scaling is folded into the
    /// final stage's twiddles (`w` lanes take `n^{-1}`, `z` lanes take
    /// `s * n^{-1} mod q`), and the exit conversion is fused into that
    /// stage's stores. Requires `q < 2^48` and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn ntt_inverse_f64(a: &mut [u64], ops: &[u64], q: u64, n_inv_op: u64) {
        let n = a.len();
        let p = a.as_mut_ptr();
        let pd = p as *mut f64;
        let op_p = ops.as_ptr();
        let qd = _mm256_set1_pd(q as f64);
        let inv_q = _mm256_set1_pd(1.0 / q as f64);

        // Entry: exact conversion plus [0, 2q) -> [0, q) canonicalization.
        let mut j = 0;
        while j < n {
            let x = to_f64(loadu(p.add(j)));
            let x = cond_sub_pd(x, qd);
            _mm256_storeu_pd(pd.add(j), x);
            j += 4;
        }

        // t == 1 stage: GS butterfly on unpacked lanes.
        {
            let h = n / 2;
            let mut g = 0;
            while g < h {
                let base = pd.add(2 * g);
                let v0 = _mm256_loadu_pd(base);
                let v1 = _mm256_loadu_pd(base.add(4));
                let u = _mm256_unpacklo_pd(v0, v1);
                let v = _mm256_unpackhi_pd(v0, v1);
                let wd = _mm256_set_pd(
                    *op_p.add(h + g + 3) as f64,
                    *op_p.add(h + g + 1) as f64,
                    *op_p.add(h + g + 2) as f64,
                    *op_p.add(h + g) as f64,
                );
                let w = cond_sub_pd(_mm256_add_pd(u, v), qd);
                let z = mulmod_pd(cond_add_neg_pd(_mm256_sub_pd(u, v), qd), wd, qd, inv_q);
                _mm256_storeu_pd(base, _mm256_unpacklo_pd(w, z));
                _mm256_storeu_pd(base.add(4), _mm256_unpackhi_pd(w, z));
                g += 4;
            }
        }

        // t == 2 stage: 128-bit half regrouping.
        {
            let h = n / 4;
            let mut g = 0;
            while g < h {
                let base = pd.add(4 * g);
                let v0 = _mm256_loadu_pd(base);
                let v1 = _mm256_loadu_pd(base.add(4));
                let u = _mm256_permute2f128_pd(v0, v1, 0x20);
                let v = _mm256_permute2f128_pd(v0, v1, 0x31);
                let w0 = *op_p.add(h + g) as f64;
                let w1 = *op_p.add(h + g + 1) as f64;
                let wd = _mm256_set_pd(w1, w1, w0, w0);
                let w = cond_sub_pd(_mm256_add_pd(u, v), qd);
                let z = mulmod_pd(cond_add_neg_pd(_mm256_sub_pd(u, v), qd), wd, qd, inv_q);
                _mm256_storeu_pd(base, _mm256_permute2f128_pd(w, z, 0x20));
                _mm256_storeu_pd(base.add(4), _mm256_permute2f128_pd(w, z, 0x31));
                g += 2;
            }
        }

        // Stages with t >= 4, h > 1.
        let mut t = 4usize;
        let mut m = n / 4;
        while m > 2 {
            let h = m >> 1;
            for i in 0..h {
                let wd = _mm256_set1_pd(*op_p.add(h + i) as f64);
                let j1 = 2 * i * t;
                let mut j = j1;
                while j < j1 + t {
                    let u = _mm256_loadu_pd(pd.add(j));
                    let v = _mm256_loadu_pd(pd.add(j + t));
                    let w = cond_sub_pd(_mm256_add_pd(u, v), qd);
                    let z = mulmod_pd(cond_add_neg_pd(_mm256_sub_pd(u, v), qd), wd, qd, inv_q);
                    _mm256_storeu_pd(pd.add(j), w);
                    _mm256_storeu_pd(pd.add(j + t), z);
                    j += 4;
                }
            }
            t <<= 1;
            m = h;
        }

        // Final stage (h == 1) with n^{-1} folded into the twiddles and the
        // exit conversion fused into the stores. The `w`-side operand
        // `u + v < 2q` stays inside the mulmod bound.
        {
            let t = n / 2;
            let s = *op_p.add(1);
            let s_ni = ((u128::from(s) * u128::from(n_inv_op)) % u128::from(q)) as u64;
            let ni_d = _mm256_set1_pd(n_inv_op as f64);
            let sni_d = _mm256_set1_pd(s_ni as f64);
            let mut j = 0;
            while j < t {
                let u = _mm256_loadu_pd(pd.add(j));
                let v = _mm256_loadu_pd(pd.add(j + t));
                let w = mulmod_pd(_mm256_add_pd(u, v), ni_d, qd, inv_q);
                let z = mulmod_pd(cond_add_neg_pd(_mm256_sub_pd(u, v), qd), sni_d, qd, inv_q);
                storeu(p.add(j), to_u64(w));
                storeu(p.add(j + t), to_u64(z));
                j += 4;
            }
        }
    }

    // ---- narrow (32-bit product) kernels for q < 2^30 ----
    //
    // With q < 2^30 every lazy operand (`[0, 4q)`) fits the low 32 bits of
    // its u64 lane, so `_mm256_mul_epu32` forms an exact 32×32→64 product in
    // one µop. The Shoup correction uses the 32-bit quotient
    // w' = ⌊w·2^32/q⌋ (the high half of the table's 64-bit quotient): for
    // any y < 2^32, hi = ⌊w'·y/2^32⌋ under-estimates ⌊w·y/q⌋ by at most
    // one, so w·y − hi·q lies in [0, 2q) — exactly the range the 64-bit
    // `mul_lazy` guarantees, so the butterflies keep the integer kernels'
    // lazy invariants and canonicalize to the same outputs. Conditional
    // subtracts use `min_epu32(x, x − b)`: for x, b < 2^32 the wrapped
    // difference exceeds x exactly when x < b.

    /// Moves each lane's high 32 bits (the 32-bit Shoup quotient) down.
    #[inline(always)]
    unsafe fn hi32(x: __m256i) -> __m256i {
        _mm256_srli_epi64(x, 32)
    }

    /// Narrow Shoup product `w·y − ⌊w'·y/2^32⌋·q` in `[0, 2q)` for lanes
    /// `y < 2^32` (`w'` the 32-bit quotient).
    #[inline(always)]
    unsafe fn mul_lazy_narrow(y: __m256i, w: __m256i, w32: __m256i, q: __m256i) -> __m256i {
        let hi = _mm256_srli_epi64(_mm256_mul_epu32(y, w32), 32);
        _mm256_sub_epi64(_mm256_mul_epu32(y, w), _mm256_mul_epu32(hi, q))
    }

    /// `x - b` where `x >= b`, else `x`, for lanes and `b` below `2^32`.
    #[inline(always)]
    unsafe fn fold_narrow(x: __m256i, b: __m256i) -> __m256i {
        _mm256_min_epu32(x, _mm256_sub_epi32(x, b))
    }

    /// Forward lazy NTT for `q < 2^30`: the integer kernel's stage and lane
    /// structure with narrow products. Lanes stay below `4q < 2^32`.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `a.len()` a power of two `>= 8`, `ops` and
    /// `quots` at least `a.len()` long, and every input lane below `4q`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn ntt_forward_narrow(a: &mut [u64], ops: &[u64], quots: &[u64], q: u64) {
        let n = a.len();
        let p = a.as_mut_ptr();
        let op_p = ops.as_ptr();
        let qt_p = quots.as_ptr();
        let qv = splat(q);
        let two_q = splat(2 * q);

        // Stages with t >= 4: one broadcast twiddle per butterfly group.
        let mut t = n;
        let mut m = 1usize;
        while m < n / 4 {
            t >>= 1;
            for i in 0..m {
                let s_op = splat(*op_p.add(m + i));
                let s_qt = splat(*qt_p.add(m + i) >> 32);
                let j1 = 2 * i * t;
                let mut j = j1;
                while j < j1 + t {
                    let x = fold_narrow(loadu(p.add(j)), two_q);
                    let v = mul_lazy_narrow(loadu(p.add(j + t)), s_op, s_qt, qv);
                    storeu(p.add(j), _mm256_add_epi64(x, v));
                    storeu(
                        p.add(j + t),
                        _mm256_sub_epi64(_mm256_add_epi64(x, two_q), v),
                    );
                    j += 4;
                }
            }
            m <<= 1;
        }

        // t == 2 stage: 128-bit half regrouping (see `ntt_forward`).
        {
            let m = n / 4;
            let mut g = 0;
            while g < m {
                let base = p.add(4 * g);
                let v0 = loadu(base);
                let v1 = loadu(base.add(4));
                let x = fold_narrow(_mm256_permute2x128_si256(v0, v1, 0x20), two_q);
                let y = _mm256_permute2x128_si256(v0, v1, 0x31);
                let wo = expand_pair(op_p.add(m + g));
                let wq = hi32(expand_pair(qt_p.add(m + g)));
                let v = mul_lazy_narrow(y, wo, wq, qv);
                let lo = _mm256_add_epi64(x, v);
                let hi = _mm256_sub_epi64(_mm256_add_epi64(x, two_q), v);
                storeu(base, _mm256_permute2x128_si256(lo, hi, 0x20));
                storeu(base.add(4), _mm256_permute2x128_si256(lo, hi, 0x31));
                g += 2;
            }
        }

        // t == 1 stage with the [0, 4q) -> [0, q) canonicalization fused
        // into its stores.
        {
            let m = n / 2;
            let mut g = 0;
            while g < m {
                let base = p.add(2 * g);
                let v0 = loadu(base);
                let v1 = loadu(base.add(4));
                let x = fold_narrow(_mm256_unpacklo_epi64(v0, v1), two_q);
                let y = _mm256_unpackhi_epi64(v0, v1);
                let wo = _mm256_permute4x64_epi64(loadu(op_p.add(m + g)), 0b1101_1000);
                let wq = hi32(_mm256_permute4x64_epi64(
                    loadu(qt_p.add(m + g)),
                    0b1101_1000,
                ));
                let v = mul_lazy_narrow(y, wo, wq, qv);
                let lo = _mm256_add_epi64(x, v);
                let hi = _mm256_sub_epi64(_mm256_add_epi64(x, two_q), v);
                let lo = fold_narrow(fold_narrow(lo, two_q), qv);
                let hi = fold_narrow(fold_narrow(hi, two_q), qv);
                storeu(base, _mm256_unpacklo_epi64(lo, hi));
                storeu(base.add(4), _mm256_unpackhi_epi64(lo, hi));
                g += 4;
            }
        }
    }

    /// Inverse lazy NTT for `q < 2^30` (the integer kernel's structure with
    /// narrow products); the `n^{-1}` scaling is folded into the last
    /// stage's twiddles. Lanes stay below `4q < 2^32`.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `a.len()` a power of two `>= 8`, `ops` and
    /// `quots` at least `a.len()` long, and every input lane below `2q`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn ntt_inverse_narrow(
        a: &mut [u64],
        ops: &[u64],
        quots: &[u64],
        q: u64,
        n_inv_op: u64,
        n_inv_quot: u64,
    ) {
        let n = a.len();
        let p = a.as_mut_ptr();
        let op_p = ops.as_ptr();
        let qt_p = quots.as_ptr();
        let qv = splat(q);
        let two_q = splat(2 * q);

        // t == 1 stage: unpacked lanes, GS butterfly.
        {
            let h = n / 2;
            let mut g = 0;
            while g < h {
                let base = p.add(2 * g);
                let v0 = loadu(base);
                let v1 = loadu(base.add(4));
                let u = _mm256_unpacklo_epi64(v0, v1);
                let v = _mm256_unpackhi_epi64(v0, v1);
                let wo = _mm256_permute4x64_epi64(loadu(op_p.add(h + g)), 0b1101_1000);
                let wq = hi32(_mm256_permute4x64_epi64(
                    loadu(qt_p.add(h + g)),
                    0b1101_1000,
                ));
                let w = fold_narrow(_mm256_add_epi64(u, v), two_q);
                let z =
                    mul_lazy_narrow(_mm256_sub_epi64(_mm256_add_epi64(u, two_q), v), wo, wq, qv);
                storeu(base, _mm256_unpacklo_epi64(w, z));
                storeu(base.add(4), _mm256_unpackhi_epi64(w, z));
                g += 4;
            }
        }

        // t == 2 stage: 128-bit half regrouping.
        {
            let h = n / 4;
            let mut g = 0;
            while g < h {
                let base = p.add(4 * g);
                let v0 = loadu(base);
                let v1 = loadu(base.add(4));
                let u = _mm256_permute2x128_si256(v0, v1, 0x20);
                let v = _mm256_permute2x128_si256(v0, v1, 0x31);
                let wo = expand_pair(op_p.add(h + g));
                let wq = hi32(expand_pair(qt_p.add(h + g)));
                let w = fold_narrow(_mm256_add_epi64(u, v), two_q);
                let z =
                    mul_lazy_narrow(_mm256_sub_epi64(_mm256_add_epi64(u, two_q), v), wo, wq, qv);
                storeu(base, _mm256_permute2x128_si256(w, z, 0x20));
                storeu(base.add(4), _mm256_permute2x128_si256(w, z, 0x31));
                g += 2;
            }
        }

        // Stages with t >= 4 except the last: broadcast twiddle per group.
        let mut t = 4usize;
        let mut m = n / 4;
        while m > 2 {
            let h = m >> 1;
            for i in 0..h {
                let s_op = splat(*op_p.add(h + i));
                let s_qt = splat(*qt_p.add(h + i) >> 32);
                let j1 = 2 * i * t;
                let mut j = j1;
                while j < j1 + t {
                    let u = loadu(p.add(j));
                    let v = loadu(p.add(j + t));
                    let w = fold_narrow(_mm256_add_epi64(u, v), two_q);
                    let z = mul_lazy_narrow(
                        _mm256_sub_epi64(_mm256_add_epi64(u, two_q), v),
                        s_op,
                        s_qt,
                        qv,
                    );
                    storeu(p.add(j), w);
                    storeu(p.add(j + t), z);
                    j += 4;
                }
            }
            t <<= 1;
            m = h;
        }

        // Final stage (h == 1) with n^{-1} folded into the twiddles, as in
        // `ntt_inverse`; both operands `u + v` and `u + 2q - v` are below
        // 4q < 2^32.
        {
            let t = n / 2;
            let s = *op_p.add(1);
            let s_ni = ((u128::from(s) * u128::from(n_inv_op)) % u128::from(q)) as u64;
            let ni_op = splat(n_inv_op);
            let ni_qt = splat(n_inv_quot >> 32);
            let sni_op = splat(s_ni);
            let sni_qt = splat((s_ni << 32) / q);
            let mut j = 0;
            while j < t {
                let u = loadu(p.add(j));
                let v = loadu(p.add(j + t));
                let w = mul_lazy_narrow(_mm256_add_epi64(u, v), ni_op, ni_qt, qv);
                let z = mul_lazy_narrow(
                    _mm256_sub_epi64(_mm256_add_epi64(u, two_q), v),
                    sni_op,
                    sni_qt,
                    qv,
                );
                storeu(p.add(j), fold_narrow(w, qv));
                storeu(p.add(j + t), fold_narrow(z, qv));
                j += 4;
            }
        }
    }

    /// Narrow MAC: `acc[i] += x[i] * ops[i]` as one exact `vpmuludq` per
    /// four products. Operands must be below `2^32` (the caller's term
    /// limit guarantees it); accumulators are not reduced.
    ///
    /// # Safety
    ///
    /// AVX2 must be available and `ops` and `acc` at least `x.len()` long.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mac_narrow(x: &[u64], ops: &[u64], acc: &mut [u64]) {
        let n = x.len();
        let xp = x.as_ptr();
        let op = ops.as_ptr();
        let ap = acc.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let prod = _mm256_mul_epu32(loadu(xp.add(i)), loadu(op.add(i)));
            storeu(ap.add(i), _mm256_add_epi64(loadu(ap.add(i)), prod));
            i += 4;
        }
        while i < n {
            acc[i] += x[i] * ops[i];
            i += 1;
        }
    }

    /// Canonical pointwise product `a[i] = a[i] * b[i] mod q` over
    /// [`mulmod_pd`], for canonical residues and `q < 2^48`.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available and `b` at least `a.len()` long.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn mul_assign_f64(a: &mut [u64], b: &[u64], q: u64) {
        let n = a.len();
        let qd = _mm256_set1_pd(q as f64);
        let inv_q = _mm256_set1_pd(1.0 / q as f64);
        let ap = a.as_mut_ptr();
        let bp = b.as_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let x = to_f64(loadu(ap.add(i)));
            let y = to_f64(loadu(bp.add(i)));
            storeu(ap.add(i), to_u64(mulmod_pd(x, y, qd, inv_q)));
            i += 4;
        }
        while i < n {
            a[i] = ((u128::from(a[i]) * u128::from(b[i])) % u128::from(q)) as u64;
            i += 1;
        }
    }

    /// Canonical pointwise multiply-add `acc[i] = acc[i] + a[i] * b[i] mod
    /// q` over [`mulmod_pd`]: the product is canonical, so the sum is below
    /// `2q` and one conditional subtract canonicalizes it. Canonical
    /// residues, `q < 2^48`.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available and `a` and `b` at least `acc.len()`
    /// long.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn mul_add_assign_f64(acc: &mut [u64], a: &[u64], b: &[u64], q: u64) {
        let n = acc.len();
        let qd = _mm256_set1_pd(q as f64);
        let inv_q = _mm256_set1_pd(1.0 / q as f64);
        let cp = acc.as_mut_ptr();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let prod = mulmod_pd(
                to_f64(loadu(ap.add(i))),
                to_f64(loadu(bp.add(i))),
                qd,
                inv_q,
            );
            let sum = cond_sub_pd(_mm256_add_pd(to_f64(loadu(cp.add(i))), prod), qd);
            storeu(cp.add(i), to_u64(sum));
            i += 4;
        }
        while i < n {
            let prod = (u128::from(a[i]) * u128::from(b[i])) % u128::from(q);
            acc[i] = ((u128::from(acc[i]) + prod) % u128::from(q)) as u64;
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn ntt_forward(a: &mut [u64], ops: &[u64], quots: &[u64], q: u64) {
        let n = a.len();
        let p = a.as_mut_ptr();
        let op_p = ops.as_ptr();
        let qt_p = quots.as_ptr();
        let qv = splat(q);
        let q_m1 = splat(q - 1);
        let two_q = splat(2 * q);
        let two_q_m1 = splat(2 * q - 1);

        // Stages with t >= 4: one broadcast twiddle per butterfly group.
        // The inner loop is unrolled 2x (two independent butterfly vectors
        // per iteration) to keep both vpmuludq ports saturated across the
        // long mul_lazy dependency chain.
        let mut t = n;
        let mut m = 1usize;
        while m < n / 4 {
            t >>= 1;
            for i in 0..m {
                let s_op = splat(*op_p.add(m + i));
                let s_qt = splat(*qt_p.add(m + i));
                let j1 = 2 * i * t;
                let mut j = j1;
                while j + 8 <= j1 + t {
                    let x0 = fold(loadu(p.add(j)), two_q, two_q_m1);
                    let x1 = fold(loadu(p.add(j + 4)), two_q, two_q_m1);
                    let v0 = mul_lazy(loadu(p.add(j + t)), s_op, s_qt, qv);
                    let v1 = mul_lazy(loadu(p.add(j + t + 4)), s_op, s_qt, qv);
                    storeu(p.add(j), _mm256_add_epi64(x0, v0));
                    storeu(p.add(j + 4), _mm256_add_epi64(x1, v1));
                    storeu(
                        p.add(j + t),
                        _mm256_sub_epi64(_mm256_add_epi64(x0, two_q), v0),
                    );
                    storeu(
                        p.add(j + t + 4),
                        _mm256_sub_epi64(_mm256_add_epi64(x1, two_q), v1),
                    );
                    j += 8;
                }
                while j < j1 + t {
                    let x = fold(loadu(p.add(j)), two_q, two_q_m1);
                    let v = mul_lazy(loadu(p.add(j + t)), s_op, s_qt, qv);
                    storeu(p.add(j), _mm256_add_epi64(x, v));
                    storeu(
                        p.add(j + t),
                        _mm256_sub_epi64(_mm256_add_epi64(x, two_q), v),
                    );
                    j += 4;
                }
            }
            m <<= 1;
        }

        // t == 2 stage (m = n/4): two groups per vector. A group is
        // {x0, x1, y0, y1}; 128-bit halves of two adjacent groups regroup
        // into an all-x and an all-y vector.
        {
            let m = n / 4;
            let mut g = 0;
            while g < m {
                let base = p.add(4 * g);
                let v0 = loadu(base);
                let v1 = loadu(base.add(4));
                let x = fold(_mm256_permute2x128_si256(v0, v1, 0x20), two_q, two_q_m1);
                let y = _mm256_permute2x128_si256(v0, v1, 0x31);
                let wo = expand_pair(op_p.add(m + g));
                let wq = expand_pair(qt_p.add(m + g));
                let v = mul_lazy(y, wo, wq, qv);
                let lo = _mm256_add_epi64(x, v);
                let hi = _mm256_sub_epi64(_mm256_add_epi64(x, two_q), v);
                storeu(base, _mm256_permute2x128_si256(lo, hi, 0x20));
                storeu(base.add(4), _mm256_permute2x128_si256(lo, hi, 0x31));
                g += 2;
            }
        }

        // t == 1 stage (m = n/2): four groups per vector. unpacklo/hi of two
        // adjacent vectors yields x/y vectors in group order {g, g+2, g+1,
        // g+3}; the twiddle load is permuted to the same order. The final
        // [0, 4q) -> [0, q) canonicalization is fused into this stage's
        // stores (identical lane-wise folds, one fewer pass over `a`).
        {
            let m = n / 2;
            let mut g = 0;
            while g < m {
                let base = p.add(2 * g);
                let v0 = loadu(base);
                let v1 = loadu(base.add(4));
                let x = fold(_mm256_unpacklo_epi64(v0, v1), two_q, two_q_m1);
                let y = _mm256_unpackhi_epi64(v0, v1);
                let wo = _mm256_permute4x64_epi64(loadu(op_p.add(m + g)), 0b1101_1000);
                let wq = _mm256_permute4x64_epi64(loadu(qt_p.add(m + g)), 0b1101_1000);
                let v = mul_lazy(y, wo, wq, qv);
                let lo = _mm256_add_epi64(x, v);
                let hi = _mm256_sub_epi64(_mm256_add_epi64(x, two_q), v);
                let lo = fold(fold(lo, two_q, two_q_m1), qv, q_m1);
                let hi = fold(fold(hi, two_q, two_q_m1), qv, q_m1);
                storeu(base, _mm256_unpacklo_epi64(lo, hi));
                storeu(base.add(4), _mm256_unpackhi_epi64(lo, hi));
                g += 4;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn ntt_inverse(
        a: &mut [u64],
        ops: &[u64],
        quots: &[u64],
        q: u64,
        n_inv_op: u64,
        n_inv_quot: u64,
    ) {
        let n = a.len();
        let p = a.as_mut_ptr();
        let op_p = ops.as_ptr();
        let qt_p = quots.as_ptr();
        let qv = splat(q);
        let q_m1 = splat(q - 1);
        let two_q = splat(2 * q);
        let two_q_m1 = splat(2 * q - 1);

        // t == 1 stage (h = n/2): same lane regrouping as the forward t == 1
        // stage, GS butterfly.
        {
            let h = n / 2;
            let mut g = 0;
            while g < h {
                let base = p.add(2 * g);
                let v0 = loadu(base);
                let v1 = loadu(base.add(4));
                let u = _mm256_unpacklo_epi64(v0, v1);
                let v = _mm256_unpackhi_epi64(v0, v1);
                let wo = _mm256_permute4x64_epi64(loadu(op_p.add(h + g)), 0b1101_1000);
                let wq = _mm256_permute4x64_epi64(loadu(qt_p.add(h + g)), 0b1101_1000);
                let w = fold(_mm256_add_epi64(u, v), two_q, two_q_m1);
                let z = mul_lazy(_mm256_sub_epi64(_mm256_add_epi64(u, two_q), v), wo, wq, qv);
                storeu(base, _mm256_unpacklo_epi64(w, z));
                storeu(base.add(4), _mm256_unpackhi_epi64(w, z));
                g += 4;
            }
        }

        // t == 2 stage (h = n/4): 128-bit half regrouping, two groups per
        // vector.
        {
            let h = n / 4;
            let mut g = 0;
            while g < h {
                let base = p.add(4 * g);
                let v0 = loadu(base);
                let v1 = loadu(base.add(4));
                let u = _mm256_permute2x128_si256(v0, v1, 0x20);
                let v = _mm256_permute2x128_si256(v0, v1, 0x31);
                let wo = expand_pair(op_p.add(h + g));
                let wq = expand_pair(qt_p.add(h + g));
                let w = fold(_mm256_add_epi64(u, v), two_q, two_q_m1);
                let z = mul_lazy(_mm256_sub_epi64(_mm256_add_epi64(u, two_q), v), wo, wq, qv);
                storeu(base, _mm256_permute2x128_si256(w, z, 0x20));
                storeu(base.add(4), _mm256_permute2x128_si256(w, z, 0x31));
                g += 2;
            }
        }

        // Stages with t >= 4: broadcast twiddle per group. The last stage
        // (h == 1, one group spanning the whole array) runs separately
        // below with the n^{-1} scaling folded into its twiddles.
        let mut t = 4usize;
        let mut m = n / 4;
        while m > 2 {
            let h = m >> 1;
            for i in 0..h {
                let s_op = splat(*op_p.add(h + i));
                let s_qt = splat(*qt_p.add(h + i));
                let j1 = 2 * i * t;
                let mut j = j1;
                while j < j1 + t {
                    let u = loadu(p.add(j));
                    let v = loadu(p.add(j + t));
                    let w = fold(_mm256_add_epi64(u, v), two_q, two_q_m1);
                    let z = mul_lazy(
                        _mm256_sub_epi64(_mm256_add_epi64(u, two_q), v),
                        s_op,
                        s_qt,
                        qv,
                    );
                    storeu(p.add(j), w);
                    storeu(p.add(j + t), z);
                    j += 4;
                }
            }
            t <<= 1;
            m = h;
        }

        // Final stage (h == 1) with the n^{-1} scaling folded into the
        // twiddles: `w` lanes take n^{-1} directly, `z` lanes take
        // `s * n^{-1} mod q` (quotient recomputed once per call). Both ends
        // are fully canonicalized, so the combined single Shoup product
        // yields the same canonical residue as the scalar kernel's
        // two-step chain — one `mul_lazy` per output vector instead of
        // two, and no intermediate `[0, 2q)` fold on the `w` side.
        {
            let t = n / 2;
            let s = *op_p.add(1);
            let s_ni = ((u128::from(s) * u128::from(n_inv_op)) % u128::from(q)) as u64;
            let s_ni_quot = ((u128::from(s_ni) << 64) / u128::from(q)) as u64;
            let ni_op = splat(n_inv_op);
            let ni_qt = splat(n_inv_quot);
            let sni_op = splat(s_ni);
            let sni_qt = splat(s_ni_quot);
            let mut j = 0;
            while j < t {
                let u = loadu(p.add(j));
                let v = loadu(p.add(j + t));
                let w = mul_lazy(_mm256_add_epi64(u, v), ni_op, ni_qt, qv);
                let z = mul_lazy(
                    _mm256_sub_epi64(_mm256_add_epi64(u, two_q), v),
                    sni_op,
                    sni_qt,
                    qv,
                );
                storeu(p.add(j), fold(w, qv, q_m1));
                storeu(p.add(j + t), fold(z, qv, q_m1));
                j += 4;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mac_shoup(x: &[u64], ops: &[u64], quots: &[u64], q: u64, acc: &mut [u64]) {
        let n = x.len();
        let qv = splat(q);
        let xp = x.as_ptr();
        let op = ops.as_ptr();
        let qp = quots.as_ptr();
        let ap = acc.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let prod = mul_lazy(loadu(xp.add(i)), loadu(op.add(i)), loadu(qp.add(i)), qv);
            storeu(ap.add(i), _mm256_add_epi64(loadu(ap.add(i)), prod));
            i += 4;
        }
        while i < n {
            acc[i] += super::mul_lazy_scalar(x[i], ops[i], quots[i], q);
            i += 1;
        }
    }

    /// Float MAC for `q < 2^48`: each term is the *exact canonical*
    /// `x*op mod q` from [`mulmod_pd`] (valid for `x < 2^50`, which covers
    /// the `[0, 4q)` lazy domain every call site stays inside), converted
    /// back and accumulated as a plain integer add. Terms are `[0, q)`
    /// instead of the integer path's lazy `[0, 2q)` — still congruent sums
    /// under the same `u64` accumulator semantics, so any mix of float,
    /// integer, and scalar MAC rounds reduces to identical canonical
    /// residues, and the Shoup term-count bound is only slackened.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn mac_shoup_f64(x: &[u64], ops: &[u64], q: u64, acc: &mut [u64]) {
        let n = x.len();
        let qd = _mm256_set1_pd(q as f64);
        let inv_q = _mm256_set1_pd(1.0 / q as f64);
        let xp = x.as_ptr();
        let op = ops.as_ptr();
        let ap = acc.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let xd = to_f64(loadu(xp.add(i)));
            let wd = to_f64(loadu(op.add(i)));
            let prod = to_u64(mulmod_pd(xd, wd, qd, inv_q));
            storeu(ap.add(i), _mm256_add_epi64(loadu(ap.add(i)), prod));
            i += 4;
        }
        while i < n {
            acc[i] += ((u128::from(x[i]) * u128::from(ops[i])) % u128::from(q)) as u64;
            i += 1;
        }
    }

    /// Branchless canonical lift of balanced signed coefficients:
    /// `out[i] = c + (c < 0 ? q : 0)` for lanes inside `(-q, q)` (the
    /// gadget-digit fast path); any block with an out-of-range lane falls
    /// back to the scalar `rem_euclid` lift. Requires `q < 2^62` for signed
    /// compares.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn from_signed(coeffs: &[i64], q: u64, out: &mut [u64]) {
        let n = coeffs.len();
        let cp = coeffs.as_ptr();
        let op = out.as_mut_ptr();
        let qv = splat(q);
        let neg_q = _mm256_set1_epi64x(-(q as i64));
        let zero = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            let c = loadu(cp.add(i) as *const u64);
            let in_range =
                _mm256_and_si256(_mm256_cmpgt_epi64(c, neg_q), _mm256_cmpgt_epi64(qv, c));
            if _mm256_movemask_pd(_mm256_castsi256_pd(in_range)) == 0xf {
                let lift = _mm256_and_si256(qv, _mm256_cmpgt_epi64(zero, c));
                storeu(op.add(i), _mm256_add_epi64(c, lift));
            } else {
                for k in i..i + 4 {
                    out[k] = super::from_signed_one_scalar(coeffs[k], q);
                }
            }
            i += 4;
        }
        while i < n {
            out[i] = super::from_signed_one_scalar(coeffs[i], q);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn reduce_barrett(acc: &[u64], out: &mut [u64], q: u64, barrett_hi: u64) {
        let n = acc.len();
        let qv = splat(q);
        let q_m1 = splat(q - 1);
        let bh = splat(barrett_hi);
        let ap = acc.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let x = loadu(ap.add(i));
            // est = floor(x / q) or one less, so x - est*q lands in [0, 2q)
            // and one conditional subtract canonicalizes exactly.
            let est = mul_hi(x, bh);
            let r = _mm256_sub_epi64(x, mul_lo(est, qv));
            storeu(op.add(i), fold(r, qv, q_m1));
            i += 4;
        }
        while i < n {
            let x = acc[i];
            let est = (((x as u128) * (barrett_hi as u128)) >> 64) as u64;
            let mut r = x.wrapping_sub(est.wrapping_mul(q));
            if r >= q {
                r -= q;
            }
            out[i] = r;
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn decompose_signed(
        coeffs: &[u64],
        q: u64,
        base_bits: u32,
        out: &mut [Vec<i64>],
    ) {
        let n = coeffs.len();
        let base = 1u64 << base_bits;
        let half = base >> 1;
        let mask = base - 1;
        let half_q = splat(q / 2);
        let qv = splat(q);
        let base_v = splat(base);
        let half_v = splat(half);
        let mask_v = splat(mask);
        let shift = _mm_cvtsi64_si128(base_bits as i64);
        let cp = coeffs.as_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let c = loadu(cp.add(i));
            // Balanced representative: residues above q/2 negate; the digit
            // chain then runs on the magnitude exactly like the scalar path.
            let neg = _mm256_cmpgt_epi64(c, half_q);
            let mut mag = _mm256_blendv_epi8(c, _mm256_sub_epi64(qv, c), neg);
            for row in out.iter_mut() {
                let dig = _mm256_and_si256(mag, mask_v);
                mag = _mm256_srl_epi64(mag, shift);
                let gt = _mm256_cmpgt_epi64(dig, half_v);
                let dig = _mm256_sub_epi64(dig, _mm256_and_si256(base_v, gt));
                // gt lanes are -1 where the carry fires, so this adds 1.
                mag = _mm256_sub_epi64(mag, gt);
                // Conditional two's-complement negate: (d ^ m) - m.
                let d = _mm256_sub_epi64(_mm256_xor_si256(dig, neg), neg);
                _mm256_storeu_si256(row.as_mut_ptr().add(i) as *mut __m256i, d);
            }
            debug_assert!(
                _mm256_testz_si256(mag, mag) == 1,
                "value exceeded gadget range"
            );
            i += 4;
        }
        while i < n {
            super::decompose_one_scalar(coeffs[i], q, base_bits, out, i);
            i += 1;
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! 2×u64-lane kernels. 64-bit lane products are assembled from
    //! `vmull_u32` 32×32→64 partial products; NEON has native unsigned
    //! 64-bit compares, but the dispatch gate is shared with AVX2 so the
    //! two vector backends accept identical operand ranges.

    use core::arch::aarch64::*;

    #[inline(always)]
    unsafe fn splat(x: u64) -> uint64x2_t {
        vdupq_n_u64(x)
    }

    /// Low 64 bits of the 64×64 lane product.
    #[inline(always)]
    unsafe fn mul_lo(a: uint64x2_t, b: uint64x2_t) -> uint64x2_t {
        let a_lo = vmovn_u64(a);
        let a_hi = vshrn_n_u64(a, 32);
        let b_lo = vmovn_u64(b);
        let b_hi = vshrn_n_u64(b, 32);
        let ll = vmull_u32(a_lo, b_lo);
        let cross = vaddq_u64(vmull_u32(a_lo, b_hi), vmull_u32(a_hi, b_lo));
        vaddq_u64(ll, vshlq_n_u64(cross, 32))
    }

    /// High 64 bits of the 64×64 lane product.
    #[inline(always)]
    unsafe fn mul_hi(a: uint64x2_t, b: uint64x2_t) -> uint64x2_t {
        let lo32 = vdupq_n_u64(0xFFFF_FFFF);
        let a_lo = vmovn_u64(a);
        let a_hi = vshrn_n_u64(a, 32);
        let b_lo = vmovn_u64(b);
        let b_hi = vshrn_n_u64(b, 32);
        let ll = vmull_u32(a_lo, b_lo);
        let lh = vmull_u32(a_lo, b_hi);
        let hl = vmull_u32(a_hi, b_lo);
        let hh = vmull_u32(a_hi, b_hi);
        let mid = vaddq_u64(
            vaddq_u64(vshrq_n_u64(ll, 32), vandq_u64(lh, lo32)),
            vandq_u64(hl, lo32),
        );
        vaddq_u64(
            vaddq_u64(hh, vshrq_n_u64(lh, 32)),
            vaddq_u64(vshrq_n_u64(hl, 32), vshrq_n_u64(mid, 32)),
        )
    }

    /// Shoup lazy product `op*x - hi(quot*x)*q`, lanes in `[0, 2q)`.
    #[inline(always)]
    unsafe fn mul_lazy(
        x: uint64x2_t,
        op: uint64x2_t,
        quot: uint64x2_t,
        q: uint64x2_t,
    ) -> uint64x2_t {
        let hi = mul_hi(quot, x);
        vsubq_u64(mul_lo(op, x), mul_lo(hi, q))
    }

    /// `x - bound` where `x >= bound`, else `x`.
    #[inline(always)]
    unsafe fn fold(x: uint64x2_t, bound: uint64x2_t) -> uint64x2_t {
        let ge = vcgeq_u64(x, bound);
        vsubq_u64(x, vandq_u64(bound, ge))
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn ntt_forward(a: &mut [u64], ops: &[u64], quots: &[u64], q: u64) {
        let n = a.len();
        let p = a.as_mut_ptr();
        let op_p = ops.as_ptr();
        let qt_p = quots.as_ptr();
        let qv = splat(q);
        let two_q = splat(2 * q);

        // Stages with t >= 2: one broadcast twiddle per butterfly group.
        let mut t = n;
        let mut m = 1usize;
        while m < n / 2 {
            t >>= 1;
            for i in 0..m {
                let s_op = splat(*op_p.add(m + i));
                let s_qt = splat(*qt_p.add(m + i));
                let j1 = 2 * i * t;
                let mut j = j1;
                while j < j1 + t {
                    let x = fold(vld1q_u64(p.add(j)), two_q);
                    let v = mul_lazy(vld1q_u64(p.add(j + t)), s_op, s_qt, qv);
                    vst1q_u64(p.add(j), vaddq_u64(x, v));
                    vst1q_u64(p.add(j + t), vsubq_u64(vaddq_u64(x, two_q), v));
                    j += 2;
                }
            }
            m <<= 1;
        }

        // t == 1 stage (m = n/2): de-interleaving loads pull two adjacent
        // groups' x and y lanes apart; twiddles are contiguous.
        {
            let m = n / 2;
            let mut g = 0;
            while g < m {
                let base = p.add(2 * g);
                let pair = vld2q_u64(base);
                let x = fold(pair.0, two_q);
                let wo = vld1q_u64(op_p.add(m + g));
                let wq = vld1q_u64(qt_p.add(m + g));
                let v = mul_lazy(pair.1, wo, wq, qv);
                let lo = vaddq_u64(x, v);
                let hi = vsubq_u64(vaddq_u64(x, two_q), v);
                vst2q_u64(base, uint64x2x2_t(lo, hi));
                g += 2;
            }
        }

        // Final canonicalization: [0, 4q) -> [0, q).
        let mut j = 0;
        while j < n {
            let x = fold(vld1q_u64(p.add(j)), two_q);
            vst1q_u64(p.add(j), fold(x, qv));
            j += 2;
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn ntt_inverse(
        a: &mut [u64],
        ops: &[u64],
        quots: &[u64],
        q: u64,
        n_inv_op: u64,
        n_inv_quot: u64,
    ) {
        let n = a.len();
        let p = a.as_mut_ptr();
        let op_p = ops.as_ptr();
        let qt_p = quots.as_ptr();
        let qv = splat(q);
        let two_q = splat(2 * q);

        // t == 1 stage (h = n/2): de-interleaving loads, GS butterfly.
        {
            let h = n / 2;
            let mut g = 0;
            while g < h {
                let base = p.add(2 * g);
                let pair = vld2q_u64(base);
                let u = pair.0;
                let v = pair.1;
                let wo = vld1q_u64(op_p.add(h + g));
                let wq = vld1q_u64(qt_p.add(h + g));
                let w = fold(vaddq_u64(u, v), two_q);
                let z = mul_lazy(vsubq_u64(vaddq_u64(u, two_q), v), wo, wq, qv);
                vst2q_u64(base, uint64x2x2_t(w, z));
                g += 2;
            }
        }

        // Stages with t >= 2: broadcast twiddle per group.
        let mut t = 2usize;
        let mut m = n / 2;
        while m > 1 {
            let h = m >> 1;
            for i in 0..h {
                let s_op = splat(*op_p.add(h + i));
                let s_qt = splat(*qt_p.add(h + i));
                let j1 = 2 * i * t;
                let mut j = j1;
                while j < j1 + t {
                    let u = vld1q_u64(p.add(j));
                    let v = vld1q_u64(p.add(j + t));
                    let w = fold(vaddq_u64(u, v), two_q);
                    let z = mul_lazy(vsubq_u64(vaddq_u64(u, two_q), v), s_op, s_qt, qv);
                    vst1q_u64(p.add(j), w);
                    vst1q_u64(p.add(j + t), z);
                    j += 2;
                }
            }
            t <<= 1;
            m = h;
        }

        // Final n^{-1} scaling + canonicalization.
        let ni_op = splat(n_inv_op);
        let ni_qt = splat(n_inv_quot);
        let mut j = 0;
        while j < n {
            let r = mul_lazy(vld1q_u64(p.add(j)), ni_op, ni_qt, qv);
            vst1q_u64(p.add(j), fold(r, qv));
            j += 2;
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn mac_shoup(x: &[u64], ops: &[u64], quots: &[u64], q: u64, acc: &mut [u64]) {
        let n = x.len();
        let qv = splat(q);
        let xp = x.as_ptr();
        let op = ops.as_ptr();
        let qp = quots.as_ptr();
        let ap = acc.as_mut_ptr();
        let mut i = 0;
        while i + 2 <= n {
            let prod = mul_lazy(
                vld1q_u64(xp.add(i)),
                vld1q_u64(op.add(i)),
                vld1q_u64(qp.add(i)),
                qv,
            );
            vst1q_u64(ap.add(i), vaddq_u64(vld1q_u64(ap.add(i)), prod));
            i += 2;
        }
        while i < n {
            acc[i] += super::mul_lazy_scalar(x[i], ops[i], quots[i], q);
            i += 1;
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn reduce_barrett(acc: &[u64], out: &mut [u64], q: u64, barrett_hi: u64) {
        let n = acc.len();
        let qv = splat(q);
        let bh = splat(barrett_hi);
        let ap = acc.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        while i + 2 <= n {
            let x = vld1q_u64(ap.add(i));
            let est = mul_hi(x, bh);
            let r = vsubq_u64(x, mul_lo(est, qv));
            vst1q_u64(op.add(i), fold(r, qv));
            i += 2;
        }
        while i < n {
            let x = acc[i];
            let est = (((x as u128) * (barrett_hi as u128)) >> 64) as u64;
            let mut r = x.wrapping_sub(est.wrapping_mul(q));
            if r >= q {
                r -= q;
            }
            out[i] = r;
            i += 1;
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn decompose_signed(
        coeffs: &[u64],
        q: u64,
        base_bits: u32,
        out: &mut [Vec<i64>],
    ) {
        let n = coeffs.len();
        let base = 1u64 << base_bits;
        let half = base >> 1;
        let mask = base - 1;
        let half_q = splat(q / 2);
        let qv = splat(q);
        let base_v = splat(base);
        let half_v = splat(half);
        let mask_v = splat(mask);
        let shift = vdupq_n_s64(-(base_bits as i64));
        let cp = coeffs.as_ptr();
        let mut i = 0;
        while i + 2 <= n {
            let c = vld1q_u64(cp.add(i));
            let neg = vcgtq_u64(c, half_q);
            let mut mag = vbslq_u64(neg, vsubq_u64(qv, c), c);
            for row in out.iter_mut() {
                let dig = vandq_u64(mag, mask_v);
                mag = vshlq_u64(mag, shift);
                let gt = vcgtq_u64(dig, half_v);
                let dig = vsubq_u64(dig, vandq_u64(base_v, gt));
                // gt lanes are all-ones where the carry fires, so this adds 1.
                mag = vsubq_u64(mag, gt);
                // Conditional two's-complement negate: (d ^ m) - m.
                let d = vsubq_u64(veorq_u64(dig, neg), neg);
                vst1q_s64(row.as_mut_ptr().add(i), vreinterpretq_s64_u64(d));
            }
            debug_assert!(
                vgetq_lane_u64(mag, 0) | vgetq_lane_u64(mag, 1) == 0,
                "value exceeded gadget range"
            );
            i += 2;
        }
        while i < n {
            super::decompose_one_scalar(coeffs[i], q, base_bits, out, i);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2.name(), "avx2");
        assert_eq!(Backend::Neon.name(), "neon");
    }

    #[test]
    fn force_scalar_round_trips() {
        let detected = active();
        force_scalar(true);
        assert_eq!(active(), Backend::Scalar);
        force_scalar(false);
        assert_eq!(active(), detected);
    }
}
