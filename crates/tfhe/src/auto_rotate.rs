//! Automorphism-based blind rotation — the LMKCY-style second datapath.
//!
//! The CMUX backend ([`crate::blind_rotate`]) spends one *paired* external
//! product per nonzero mask element and ships two RGSW ciphertexts per LWE
//! secret coefficient. This backend restructures the rotation around the
//! Galois group of the ring instead: the accumulator gains `X^{c_i·s_i}`
//! (with `c_i = -a_i mod 2N`) by grouping mask elements by the discrete
//! log of `c_i` over `Z_{2N}^* = ⟨-1⟩ × ⟨5⟩`, running **one** external
//! product by `RGSW(X^{s_i})` per element, and moving between groups with
//! the automorphism `X ↦ X^g` plus a Galois key switch.
//!
//! # Schedule
//!
//! Write each odd `c_i` as `(-1)^σ·5^k` and bucket the index by `(σ, k)`
//! (even `c_i ≠ 0` splits as `X^{c_i s_i} = X^{(c_i-1)s_i}·X^{s_i}`, so
//! the index lands in the class of `c_i - 1` *and* in the class of `1`;
//! `c_i = 0` contributes nothing and is skipped, exactly like the CMUX
//! path's `a_i = 0` shortcut). Process the nonempty classes `v_1 … v_m`
//! in order (negative sign first, `k` descending within each sign),
//! seeding the accumulator with `trivial(σ_{v_1^{-1}}(f·X^{-b}))`; after
//! class `j` apply `σ_{t_j}` with `t_j = v_j·v_{j+1}^{-1}` (`t_m = v_m`).
//! The suffix product telescopes — `Π_{l≥j} t_l = v_j` — so an index in
//! class `j` contributes exactly `X^{s_i·v_j}` and the pre-compensated
//! test polynomial comes out untouched. Transitions factor over the key
//! set `{5^{2^j}} ∪ {2N-1}`: one key switch per set bit of the 5-power
//! jump, and at most one conjugation per rotation (when any negative
//! class exists).
//!
//! # Hoisted key switching
//!
//! [`GaloisSwitchKey::apply_into`] is the `rlwe_auto_shoup` idiom: the
//! accumulator's mask is brought to coefficient domain once, permuted by
//! the *precomputed* index table for the exponent, and gadget-decomposed
//! once; each digit is spread/NTT'd once per target limb and MAC'd into
//! **both** output components from the key row (`limbs·digits` terms —
//! half an external product). The body never leaves evaluation domain:
//! `σ_t` acts on NTT slots as a precomputed gather (slot `j` holds the
//! evaluation at `ψ^{e_j}`, and `σ_t(p)(ψ^e) = p(ψ^{e·t})`), so the whole
//! application costs zero extra NTT round trips. The MACs ride the same
//! narrow / Shoup / lazy-`u128` datapaths as the external product: narrow
//! whenever the `limbs·digits` exact products fit a `u64` (no quotients
//! are then built), Shoup when a SIMD backend is active, `u128` otherwise.
//!
//! # Why it wins
//!
//! Key bytes: the CMUX key is `2·n_t` RGSW ciphertexts; this key is `n_t`
//! RGSW plus `log2(N/2)+1` Galois switch keys (each half an RGSW), a
//! `4n_t / (2n_t + log2(N/2)+1)` wire-size ratio — ≥ 1.68× at `n_t = 16`,
//! 1.83× at the test preset's `n_t = 32`. Sparse masks (few distinct
//! `c_i` classes) additionally amortize the key switches across elements.
//! `kernel_sweep` measures both axes; outputs are *noise-equivalent*, not
//! bit-identical, to the CMUX path (different operation sequence), so
//! parity is asserted on decrypted phases (`tests/auto_parity.rs`).

use rand::Rng;

use heap_math::{poly, Domain, Gadget, Modulus, RnsContext, RnsPoly, ShoupPoly};

use crate::blind_rotate::{bit_reverse, BlindRotateKey, BlindRotateScratch};
use crate::lwe::{LweCiphertext, LweSecretKey};
use crate::rgsw::{
    external_product_prepared_into, mac_u64, narrow_mac_ok, shoup_at, ExternalProductScratch,
    PreparedRgsw, RgswCiphertext, RgswParams,
};
use crate::rlwe::{RingSecretKey, RlweCiphertext};

/// Which blind-rotate datapath a key (or node, or job) drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BrBackend {
    /// Ternary-secret CMUX ladder (paper Algorithm 1).
    Cmux,
    /// Automorphism grouping with Galois key switching (this module).
    Auto,
}

impl BrBackend {
    /// Stable wire byte (key containers, `Hello` advertisement bitmask).
    pub const fn code(self) -> u8 {
        match self {
            BrBackend::Cmux => 0,
            BrBackend::Auto => 1,
        }
    }

    /// Decodes [`BrBackend::code`].
    pub const fn from_code(b: u8) -> Option<Self> {
        match b {
            0 => Some(BrBackend::Cmux),
            1 => Some(BrBackend::Auto),
            _ => None,
        }
    }

    /// Lower-case name, as used in bench rows and diagnostics.
    pub const fn name(self) -> &'static str {
        match self {
            BrBackend::Cmux => "cmux",
            BrBackend::Auto => "auto",
        }
    }
}

impl std::fmt::Display for BrBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BrBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cmux" => Ok(BrBackend::Cmux),
            "auto" => Ok(BrBackend::Auto),
            other => Err(format!("unknown blind-rotate backend '{other}'")),
        }
    }
}

/// Discrete logarithms over `Z_{2N}^* = ⟨-1⟩ × ⟨5⟩` (N a power of two).
///
/// Every odd residue `e mod 2N` is uniquely `(-1)^σ·5^k` with
/// `k ∈ [0, N/2)`; the table maps `e` to its `(σ, k)` class in O(1).
#[derive(Debug, Clone)]
pub struct DlogTable {
    /// `dlog[e]`: `k` for `e = 5^k`, `N/2 + k` for `e = -5^k`,
    /// `u32::MAX` for non-units (even exponents).
    dlog: Vec<u32>,
    /// `5^k mod 2N` for `k ∈ [0, N/2)`.
    pow5: Vec<u32>,
    /// `N/2`, the order of 5 modulo 2N.
    half_order: usize,
}

impl DlogTable {
    /// Builds the table for ring degree `n` (power of two, ≥ 4).
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 4, "ring degree {n} unsupported");
        let two_n = 2 * n;
        let half = n / 2;
        let mut dlog = vec![u32::MAX; two_n];
        let mut pow5 = Vec::with_capacity(half);
        let mut cur = 1usize;
        for k in 0..half {
            pow5.push(cur as u32);
            dlog[cur] = k as u32;
            dlog[two_n - cur] = (half + k) as u32;
            cur = cur * 5 % two_n;
        }
        Self {
            dlog,
            pow5,
            half_order: half,
        }
    }

    /// `(negative?, k)` for an odd exponent `e ∈ (0, 2N)`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a unit modulo 2N (i.e. even).
    pub fn decompose(&self, e: usize) -> (bool, usize) {
        let v = self.dlog[e] as usize;
        assert!(v != u32::MAX as usize, "exponent {e} is not a unit mod 2N");
        if v < self.half_order {
            (false, v)
        } else {
            (true, v - self.half_order)
        }
    }

    /// `5^k mod 2N`.
    #[inline]
    pub fn pow5(&self, k: usize) -> usize {
        self.pow5[k] as usize
    }

    /// `N/2`, the order of 5 modulo 2N.
    #[inline]
    pub fn half_order(&self) -> usize {
        self.half_order
    }
}

/// Negation flag of a packed coefficient-permutation entry.
const NEG_BIT: u32 = 1 << 31;

/// Precomputed index permutations for one automorphism `σ_t: X ↦ X^t`,
/// built once at key load — applying `σ_t` at rotation time is a pure
/// table-driven shuffle in either domain.
#[derive(Debug, Clone)]
struct AutoPerm {
    /// Coefficient-domain scatter: source index `i` lands at
    /// `coeff_tgt[i] & !NEG_BIT`, negated when [`NEG_BIT`] is set
    /// (the negacyclic wrap past `N`).
    coeff_tgt: Vec<u32>,
    /// Evaluation-domain gather: output slot `j` reads input slot
    /// `eval_src[j]` (limb-independent — slot exponents are shared by
    /// every NTT of the basis).
    eval_src: Vec<u32>,
}

impl AutoPerm {
    fn new(n: usize, t: usize) -> Self {
        assert!(t % 2 == 1, "automorphism exponent must be odd");
        let two_n = 2 * n;
        let t = t % two_n;
        let mut coeff_tgt = Vec::with_capacity(n);
        let mut idx = 0usize; // i·t mod 2N, updated incrementally
        for _ in 0..n {
            coeff_tgt.push(if idx < n {
                idx as u32
            } else {
                (idx - n) as u32 | NEG_BIT
            });
            idx += t;
            if idx >= two_n {
                idx -= two_n;
            }
        }
        let log_n = n.trailing_zeros();
        let slot_exp: Vec<usize> = (0..n)
            .map(|j| (2 * bit_reverse(j, log_n) + 1) % two_n)
            .collect();
        let mut pos_of_exp = vec![u32::MAX; two_n];
        for (j, &e) in slot_exp.iter().enumerate() {
            pos_of_exp[e] = j as u32;
        }
        let eval_src = slot_exp
            .iter()
            .map(|&e| pos_of_exp[e * t % two_n])
            .collect();
        Self {
            coeff_tgt,
            eval_src,
        }
    }

    /// `out = σ_t(src)` in coefficient domain (`out` fully overwritten).
    fn apply_coeff(&self, src: &[u64], q: &Modulus, out: &mut [u64]) {
        debug_assert_eq!(src.len(), self.coeff_tgt.len());
        debug_assert_eq!(out.len(), self.coeff_tgt.len());
        for (&c, &e) in src.iter().zip(&self.coeff_tgt) {
            let j = (e & !NEG_BIT) as usize;
            out[j] = if e & NEG_BIT != 0 { q.neg(c) } else { c };
        }
    }

    /// `out = σ_t(src)` in evaluation domain (a pure slot gather).
    fn apply_eval(&self, src: &[u64], out: &mut [u64]) {
        debug_assert_eq!(src.len(), self.eval_src.len());
        debug_assert_eq!(out.len(), self.eval_src.len());
        for (o, &s) in out.iter_mut().zip(&self.eval_src) {
            *o = src[s as usize];
        }
    }
}

/// Whether the Shoup `u64`-accumulator datapath applies to the Galois key
/// switch: same gate as the external product, but a key switch is
/// single-operand, so only `limbs·digits` terms accumulate per output
/// coefficient.
fn ks_shoup_ok(ctx: &RnsContext, params: &RgswParams, limbs: usize) -> bool {
    if heap_math::simd::active() == heap_math::simd::Backend::Scalar {
        return false;
    }
    let terms = (limbs * params.digits) as u64;
    (0..limbs).all(|j| terms <= ctx.ntt(j).shoup_mac_term_limit())
}

/// Shoup quotients `(a, b)` for every row limb of a switch key, indexed
/// `[r·limbs + j]` — empty when the key switch takes the narrow MAC, which
/// reads none.
fn ks_quotients(
    ctx: &RnsContext,
    rows: &[RlweCiphertext],
    params: &RgswParams,
    limbs: usize,
) -> (Vec<ShoupPoly>, Vec<ShoupPoly>) {
    if narrow_mac_ok(ctx, limbs, params.rows(limbs)) {
        return (Vec::new(), Vec::new());
    }
    let mut quot_a = Vec::with_capacity(rows.len() * limbs);
    let mut quot_b = Vec::with_capacity(rows.len() * limbs);
    for row in rows {
        for j in 0..limbs {
            let m = ctx.modulus(j);
            quot_a.push(ShoupPoly::new(row.a.limb(j), m));
            quot_b.push(ShoupPoly::new(row.b.limb(j), m));
        }
    }
    (quot_a, quot_b)
}

/// A key-switching key for one automorphism `σ_t`: rows `(i, k)` are RLWE
/// encryptions with phase `σ_t(s)·g_{i,k}` under `s`, plus the precomputed
/// index permutations and Shoup quotients for the hoisted application.
#[derive(Debug, Clone)]
pub struct GaloisSwitchKey {
    /// The (odd) Galois exponent `t` of `σ_t: X ↦ X^t`.
    exponent: usize,
    /// Rows indexed `limb·digits + digit`.
    rows: Vec<RlweCiphertext>,
    perm: AutoPerm,
    /// Shoup quotients for `rows[r].a` / `rows[r].b`, `[r·limbs + j]`.
    quot_a: Vec<ShoupPoly>,
    quot_b: Vec<ShoupPoly>,
    params: RgswParams,
    limbs: usize,
}

impl GaloisSwitchKey {
    /// Generates the switch key for exponent `t` under `sk` over the first
    /// `limbs` moduli.
    pub fn generate<R: Rng + ?Sized>(
        ctx: &RnsContext,
        sk: &RingSecretKey,
        t: usize,
        limbs: usize,
        params: &RgswParams,
        rng: &mut R,
    ) -> Self {
        let zero = RnsPoly::zero(ctx, limbs, Domain::Coeff);
        // σ_t(s) in evaluation form, per limb.
        let sigma_s: Vec<Vec<u64>> = (0..limbs)
            .map(|j| {
                let m = ctx.modulus(j);
                let mut l = poly::automorphism(&poly::from_signed(sk.coeffs(), m), t, m);
                ctx.ntt(j).forward(&mut l);
                l
            })
            .collect();
        let mut rows = Vec::with_capacity(params.rows(limbs));
        for (i, sig) in sigma_s.iter().enumerate() {
            let mi = ctx.modulus(i);
            let base = 1u64 << params.base_bits;
            let mut bk = 1u64;
            for _ in 0..params.digits {
                // Encryption of zero, then shift σ_t(s)·B^k into the body:
                // the row phase becomes σ_t(s)·g_{i,k} (g ≡ δ_{ij}·B^k).
                let mut row = RlweCiphertext::encrypt(ctx, sk, &zero, rng);
                let c = mi.reduce_u64(bk);
                for (x, &sv) in row.b.limb_mut(i).iter_mut().zip(sig) {
                    *x = mi.add(*x, mi.mul(c, sv));
                }
                rows.push(row);
                bk = mi.mul(mi.reduce_u64(bk), mi.reduce_u64(base));
            }
        }
        Self::from_parts(ctx, t, rows, *params, limbs)
    }

    /// Rebuilds a switch key from decoded rows (wire expansion): the
    /// permutations are pure functions of `(n, t)` and the Shoup
    /// quotients are derived from the rows.
    pub(crate) fn from_parts(
        ctx: &RnsContext,
        t: usize,
        rows: Vec<RlweCiphertext>,
        params: RgswParams,
        limbs: usize,
    ) -> Self {
        assert_eq!(rows.len(), params.rows(limbs), "switch-key row mismatch");
        let (quot_a, quot_b) = ks_quotients(ctx, &rows, &params, limbs);
        Self {
            exponent: t,
            rows,
            perm: AutoPerm::new(ctx.n(), t),
            quot_a,
            quot_b,
            params,
            limbs,
        }
    }

    /// The Galois exponent this key switches.
    pub fn exponent(&self) -> usize {
        self.exponent
    }

    /// The key-switch rows in encoding order (wire encoding / reseed).
    pub(crate) fn rows(&self) -> &[RlweCiphertext] {
        &self.rows
    }

    /// Mutable rows (reseed transform); callers must
    /// [`GaloisSwitchKey::rebuild_prepared`] afterwards.
    pub(crate) fn rows_mut(&mut self) -> &mut [RlweCiphertext] {
        &mut self.rows
    }

    /// Re-derives the Shoup quotients from the current rows.
    pub(crate) fn rebuild_prepared(&mut self, ctx: &RnsContext) {
        (self.quot_a, self.quot_b) = ks_quotients(ctx, &self.rows, &self.params, self.limbs);
    }

    /// `out = σ_t(acc)` under the same secret: the hoisted Galois key
    /// switch described in the module docs. `out` is fully overwritten;
    /// it must not alias `acc`.
    ///
    /// # Panics
    ///
    /// Panics on limb mismatch or if `acc.b` is not in evaluation domain.
    pub fn apply_into(
        &self,
        ctx: &RnsContext,
        acc: &RlweCiphertext,
        scratch: &mut AutoKsScratch,
        out: &mut RlweCiphertext,
    ) {
        let limbs = self.limbs;
        assert_eq!(acc.limbs(), limbs, "input limb count mismatch");
        assert_eq!(out.limbs(), limbs, "output limb count mismatch");
        assert_eq!(acc.b.domain(), Domain::Eval, "body must be Eval");
        let n = ctx.n();
        let narrow = narrow_mac_ok(ctx, limbs, self.params.rows(limbs));
        let use_u64 = narrow || ks_shoup_ok(ctx, &self.params, limbs);
        scratch.prepare(ctx, &self.params, limbs, use_u64);
        match &mut scratch.a_coeff {
            Some(p) => p.copy_from(&acc.a),
            slot => {
                *slot = Some(acc.a.clone());
            }
        }
        let AutoKsScratch {
            digit_signed,
            spread,
            perm_coeff,
            reduced,
            acc128,
            acc64,
            a_coeff,
            gadgets,
            ..
        } = scratch;
        let a_coeff = a_coeff.as_mut().expect("slot filled above");
        a_coeff.to_coeff(ctx);
        // Hoist: permute + decompose the mask once per source limb; every
        // digit row feeds MACs into both output components.
        for (i, gadget) in gadgets.iter().enumerate().take(limbs) {
            let mi = ctx.modulus(i);
            self.perm.apply_coeff(a_coeff.limb(i), mi, perm_coeff);
            gadget.decompose_slice_signed_into(perm_coeff, digit_signed);
            for (k, digits) in digit_signed.iter().enumerate() {
                let r = i * self.params.digits + k;
                let row = &self.rows[r];
                for j in 0..limbs {
                    let m = ctx.modulus(j);
                    let ntt = ctx.ntt(j);
                    poly::from_signed_into(digits, m, spread);
                    ntt.forward(spread);
                    let w = j * n..(j + 1) * n;
                    if use_u64 {
                        let rj = r * limbs + j;
                        let (acc_a, acc_b) = acc64.split_at_mut(limbs * n);
                        let qa = shoup_at(&self.quot_a, rj, narrow);
                        let qb = shoup_at(&self.quot_b, rj, narrow);
                        mac_u64(ntt, spread, row.a.limb(j), qa, &mut acc_a[w.clone()]);
                        mac_u64(ntt, spread, row.b.limb(j), qb, &mut acc_b[w]);
                    } else {
                        let (acc_a, acc_b) = acc128.split_at_mut(limbs * n);
                        ntt.pointwise_mac_lazy(spread, row.a.limb(j), &mut acc_a[w.clone()]);
                        ntt.pointwise_mac_lazy(spread, row.b.limb(j), &mut acc_b[w]);
                    }
                }
            }
        }
        // a' = Σ digits·row.a; b' = σ_t(b) + Σ digits·row.b — the body
        // automorphism is a pure evaluation-domain gather.
        for j in 0..limbs {
            let m = ctx.modulus(j);
            let ntt = ctx.ntt(j);
            let w = j * n..(j + 1) * n;
            self.perm.apply_eval(acc.b.limb(j), out.b.limb_mut(j));
            if use_u64 {
                let (acc_a, acc_b) = acc64.split_at(limbs * n);
                ntt.reduce_shoup_acc_into(&acc_a[w.clone()], out.a.limb_mut(j));
                ntt.reduce_shoup_acc_into(&acc_b[w], reduced);
            } else {
                let (acc_a, acc_b) = acc128.split_at(limbs * n);
                ntt.reduce_acc_into(&acc_a[w.clone()], out.a.limb_mut(j));
                ntt.reduce_acc_into(&acc_b[w], reduced);
            }
            poly::add_assign(out.b.limb_mut(j), reduced, m);
        }
        out.a.set_domain(Domain::Eval);
        out.b.set_domain(Domain::Eval);
    }
}

/// Scratch buffers for [`GaloisSwitchKey::apply_into`] — the key-switch
/// twin of [`ExternalProductScratch`], plus the permuted-mask and reduced
/// buffers the automorphism needs.
#[derive(Debug, Default)]
pub struct AutoKsScratch {
    digit_signed: Vec<Vec<i64>>,
    spread: Vec<u64>,
    /// `σ_t(a)` for the limb currently being decomposed.
    perm_coeff: Vec<u64>,
    /// One reduced MAC limb, added into the permuted body.
    reduced: Vec<u64>,
    /// Lazy `u128` accumulators, `[a limbs | b limbs]`.
    acc128: Vec<u128>,
    /// Shoup `u64` accumulators, same layout.
    acc64: Vec<u64>,
    a_coeff: Option<RnsPoly>,
    gadgets: Vec<Gadget>,
    gadget_key: Option<(u32, usize, usize)>,
}

impl AutoKsScratch {
    fn prepare(&mut self, ctx: &RnsContext, params: &RgswParams, limbs: usize, use_u64: bool) {
        let n = ctx.n();
        self.digit_signed.resize_with(params.digits, Vec::new);
        for d in &mut self.digit_signed {
            d.resize(n, 0);
        }
        self.spread.resize(n, 0);
        self.perm_coeff.resize(n, 0);
        self.reduced.resize(n, 0);
        if use_u64 {
            self.acc64.resize(2 * limbs * n, 0);
            self.acc64.fill(0);
        } else {
            self.acc128.resize(2 * limbs * n, 0);
            self.acc128.fill(0);
        }
        let key = (params.base_bits, params.digits, limbs);
        if self.gadget_key != Some(key) {
            self.gadgets = params.gadgets(ctx, limbs);
            self.gadget_key = Some(key);
        }
    }
}

/// The Galois exponents the automorphism backend ships keys for:
/// `5^{2^j} mod 2N` for `j ∈ [0, log2(N/2))` (the binary jump ladder)
/// plus `2N-1` (conjugation, the sign flip of the dlog group).
pub fn galois_exponents(n: usize) -> Vec<usize> {
    assert!(n.is_power_of_two() && n >= 4, "ring degree {n} unsupported");
    let two_n = 2 * n;
    let half = n / 2;
    let mut exps = Vec::with_capacity(half.trailing_zeros() as usize + 1);
    let mut g = 5usize % two_n;
    for _ in 0..half.trailing_zeros() {
        exps.push(g);
        g = g * g % two_n;
    }
    exps.push(two_n - 1);
    exps
}

/// 2-adic inverse: `v^{-1} mod 2N` for odd `v` (Newton iteration).
fn inv_mod_two_n(v: usize, two_n: usize) -> usize {
    debug_assert!(v % 2 == 1);
    let mut x = 1usize;
    while v.wrapping_mul(x) % two_n != 1 {
        x = x.wrapping_mul(2usize.wrapping_sub(v.wrapping_mul(x))) % two_n;
    }
    x
}

/// Blind-rotation key for the automorphism backend: `RGSW(X^{s_i})` per
/// LWE secret coefficient plus the Galois switch-key ladder.
#[derive(Debug, Clone)]
pub struct AutoBlindRotateKey {
    /// `RGSW(X^{s_i})`, one per mask element.
    elems: Vec<RgswCiphertext>,
    prepared: Vec<PreparedRgsw>,
    /// Switch keys in [`galois_exponents`] order (conjugation last).
    gks: Vec<GaloisSwitchKey>,
    params: RgswParams,
    limbs: usize,
    dlog: DlogTable,
}

impl AutoBlindRotateKey {
    /// Generates the key for `lwe_sk` under `ring_sk` over the first
    /// `limbs` moduli of `ctx`.
    pub fn generate<R: Rng + ?Sized>(
        ctx: &RnsContext,
        lwe_sk: &LweSecretKey,
        ring_sk: &RingSecretKey,
        limbs: usize,
        params: RgswParams,
        rng: &mut R,
    ) -> Self {
        let two_n = 2 * ctx.n();
        let elems = lwe_sk
            .coeffs()
            .iter()
            .map(|&s| {
                // s ∈ {-1, 0, 1} ↦ X^s with negacyclic exponent mod 2N.
                let e = s.rem_euclid(two_n as i64) as usize;
                RgswCiphertext::encrypt_monomial(ctx, ring_sk, e, limbs, &params, rng)
            })
            .collect();
        let gks = galois_exponents(ctx.n())
            .into_iter()
            .map(|t| GaloisSwitchKey::generate(ctx, ring_sk, t, limbs, &params, rng))
            .collect();
        Self::from_parts(ctx, elems, gks, params, limbs)
    }

    /// Rebuilds a key from decoded parts (wire decoding); derived tables
    /// and Shoup precomputes are reconstructed.
    pub(crate) fn from_parts(
        ctx: &RnsContext,
        elems: Vec<RgswCiphertext>,
        gks: Vec<GaloisSwitchKey>,
        params: RgswParams,
        limbs: usize,
    ) -> Self {
        assert_eq!(
            gks.len(),
            galois_exponents(ctx.n()).len(),
            "Galois key count mismatch"
        );
        let prepared = elems.iter().map(|r| PreparedRgsw::new(r, ctx)).collect();
        Self {
            elems,
            prepared,
            gks,
            params,
            limbs,
            dlog: DlogTable::new(ctx.n()),
        }
    }

    /// Rebuilds every Shoup precompute from the current rows (after the
    /// wire reseed transform mutated them in place).
    pub(crate) fn rebuild_prepared(&mut self, ctx: &RnsContext) {
        self.prepared = self
            .elems
            .iter()
            .map(|r| PreparedRgsw::new(r, ctx))
            .collect();
        for gk in &mut self.gks {
            gk.rebuild_prepared(ctx);
        }
    }

    /// The per-element RGSW ladder (wire encoding).
    pub(crate) fn elems(&self) -> &[RgswCiphertext] {
        &self.elems
    }

    /// Mutable per-element RGSW ladder (reseed transform).
    pub(crate) fn elems_mut(&mut self) -> &mut [RgswCiphertext] {
        &mut self.elems
    }

    /// The Galois switch keys in encoding order.
    pub(crate) fn gks(&self) -> &[GaloisSwitchKey] {
        &self.gks
    }

    /// Mutable Galois switch keys (reseed transform).
    pub(crate) fn gks_mut(&mut self) -> &mut [GaloisSwitchKey] {
        &mut self.gks
    }

    /// LWE mask dimension `n_t` this key supports.
    pub fn lwe_dim(&self) -> usize {
        self.elems.len()
    }

    /// Gadget parameters baked into the key.
    pub fn params(&self) -> &RgswParams {
        &self.params
    }

    /// Number of RNS limbs of the accumulator basis.
    pub fn limbs(&self) -> usize {
        self.limbs
    }

    /// Number of Galois switch keys (`log2(N/2) + 1`).
    pub fn galois_key_count(&self) -> usize {
        self.gks.len()
    }

    /// Runs the automorphism blind rotation of `test_poly` by (the
    /// negated phase of) `lwe` — same contract as
    /// [`BlindRotateKey::blind_rotate`], noise-equivalent but not
    /// bit-identical (different operation schedule).
    pub fn blind_rotate(
        &self,
        ctx: &RnsContext,
        test_poly: &RnsPoly,
        lwe: &LweCiphertext,
    ) -> RlweCiphertext {
        let mut scratch = AutoRotateScratch::default();
        self.blind_rotate_with(ctx, test_poly, lwe, &mut scratch)
    }

    /// [`AutoBlindRotateKey::blind_rotate`] with caller-provided scratch.
    pub fn blind_rotate_with(
        &self,
        ctx: &RnsContext,
        test_poly: &RnsPoly,
        lwe: &LweCiphertext,
        scratch: &mut AutoRotateScratch,
    ) -> RlweCiphertext {
        assert_eq!(lwe.dim(), self.lwe_dim(), "LWE dimension mismatch");
        let n = ctx.n();
        let two_n = 2 * n as u64;
        assert_eq!(lwe.modulus, two_n, "blind rotation expects modulus 2N");
        assert_eq!(test_poly.limb_count(), self.limbs, "limb mismatch");
        let two_n = two_n as usize;
        let half = self.dlog.half_order();

        // Bucket mask elements by the dlog class of c_i = -a_i mod 2N;
        // class id: k for +5^k, half + k for -5^k.
        scratch.classes.resize(2 * half, Vec::new());
        for c in &mut scratch.classes {
            c.clear();
        }
        for (i, &ai) in lwe.a.iter().enumerate() {
            let c = (two_n - (ai as usize % two_n)) % two_n;
            if c == 0 {
                continue;
            }
            let odd = if c % 2 == 1 {
                c
            } else {
                // Even split: X^{c·s} = X^{(c-1)·s} · X^{s} — the extra
                // factor rides the exponent-1 class (+, 0).
                scratch.classes[0].push(i as u32);
                c - 1
            };
            let (neg, k) = self.dlog.decompose(odd);
            let id = if neg { half + k } else { k };
            scratch.classes[id].push(i as u32);
        }
        // Schedule: negative classes by descending k, then positive by
        // descending k (see module docs for the telescoping argument).
        let schedule: Vec<(usize, bool, usize)> = (0..half)
            .rev()
            .map(|k| (half + k, true, k))
            .chain((0..half).rev().map(|k| (k, false, k)))
            .filter(|&(id, _, _)| !scratch.classes[id].is_empty())
            .collect();

        // acc0 = trivial(σ_{v1^{-1}}(f·X^{-b})) — the pre-compensation is
        // on a public polynomial, so it is a plain coefficient shuffle,
        // no key switch.
        let f = match &mut scratch.test_coeff {
            Some(p) => {
                p.copy_from(test_poly);
                p
            }
            slot => slot.insert(test_poly.clone()),
        };
        f.to_coeff(ctx);
        let shift = -(lwe.b as i64);
        let mut rotated = RnsPoly::zero(ctx, self.limbs, Domain::Coeff);
        scratch.perm.resize(n, 0);
        for j in 0..self.limbs {
            let q = ctx.modulus(j);
            poly::monomial_mul_into(f.limb(j), shift, q, &mut scratch.perm);
            rotated.limb_mut(j).copy_from_slice(&scratch.perm);
        }
        let Some(&(_, first_neg, first_k)) = schedule.first() else {
            // Every c_i was zero: the accumulator passes through
            // untouched, exactly like the CMUX all-skip path.
            return RlweCiphertext::trivial(ctx, rotated);
        };
        let v1 = if first_neg {
            two_n - self.dlog.pow5(first_k)
        } else {
            self.dlog.pow5(first_k)
        };
        let g0 = inv_mod_two_n(v1, two_n);
        for j in 0..self.limbs {
            let q = ctx.modulus(j);
            poly::automorphism_into(rotated.limb(j), g0, q, &mut scratch.perm);
            rotated.limb_mut(j).copy_from_slice(&scratch.perm);
        }
        let mut acc = RlweCiphertext::trivial(ctx, rotated);

        let out = scratch
            .swap
            .get_or_insert_with(|| RlweCiphertext::zero(ctx, self.limbs));
        for (pos, &(id, neg, k)) in schedule.iter().enumerate() {
            // One external product per member — the product *replaces*
            // the accumulator (phase gains the factor X^{s_i}), unlike
            // the CMUX additive update. Every member costs a product
            // even when s_i = 0 (the evaluator cannot see the secret).
            for &i in &scratch.classes[id] {
                external_product_prepared_into(
                    &acc,
                    &self.elems[i as usize],
                    &self.prepared[i as usize],
                    ctx,
                    &self.params,
                    &mut scratch.ep,
                    out,
                );
                std::mem::swap(&mut acc, out);
            }
            // Transition σ_{t_j}, t_j = v_j·v_{j+1}^{-1} (t_m = v_m):
            // a 5-power jump factored over the binary key ladder, plus
            // one conjugation when the sign flips (or finishes negative).
            let (delta, conj) = match schedule.get(pos + 1) {
                Some(&(_, next_neg, next_k)) => ((k + half - next_k) % half, neg && !next_neg),
                None => (k, neg),
            };
            let mut d = delta;
            let mut j = 0usize;
            while d > 0 {
                if d & 1 == 1 {
                    self.gks[j].apply_into(ctx, &acc, &mut scratch.ks, out);
                    std::mem::swap(&mut acc, out);
                }
                d >>= 1;
                j += 1;
            }
            if conj {
                let conj_key = self.gks.last().expect("conjugation key present");
                conj_key.apply_into(ctx, &acc, &mut scratch.ks, out);
                std::mem::swap(&mut acc, out);
            }
        }
        acc
    }
}

/// Scratch state for [`AutoBlindRotateKey::blind_rotate_with`]: external
/// product and key-switch scratch, the ping-pong output ciphertext, and
/// the per-rotation class buckets.
#[derive(Debug, Default)]
pub struct AutoRotateScratch {
    ep: ExternalProductScratch,
    ks: AutoKsScratch,
    /// Ping-pong buffer: products/switches write here, then swap.
    swap: Option<RlweCiphertext>,
    /// Mask-element indices bucketed by dlog class (`k`, then `half+k`).
    classes: Vec<Vec<u32>>,
    /// One-limb shuffle buffer (monomial shift, pre-compensation).
    perm: Vec<u64>,
    test_coeff: Option<RnsPoly>,
}

/// Per-thread scratch for either backend, matching the key that made it
/// ([`BlindRotateBackend::make_scratch`]).
#[derive(Debug)]
pub enum RotateScratch {
    /// CMUX-path scratch.
    Cmux(BlindRotateScratch),
    /// Automorphism-path scratch.
    Auto(AutoRotateScratch),
}

/// A blind-rotate datapath: both backend keys implement this, so the
/// bootstrapper and benches dispatch per key without caring which
/// datapath is loaded.
pub trait BlindRotateBackend: Send + Sync {
    /// Which datapath this key drives.
    fn backend(&self) -> BrBackend;

    /// LWE mask dimension `n_t` the key supports.
    fn lwe_dim(&self) -> usize;

    /// Fresh scratch of the matching variant.
    fn make_scratch(&self) -> RotateScratch;

    /// Runs one blind rotation with scratch from
    /// [`BlindRotateBackend::make_scratch`].
    ///
    /// # Panics
    ///
    /// Panics if handed the other backend's scratch variant.
    fn rotate_with(
        &self,
        ctx: &RnsContext,
        test_poly: &RnsPoly,
        lwe: &LweCiphertext,
        scratch: &mut RotateScratch,
    ) -> RlweCiphertext;
}

impl BlindRotateBackend for BlindRotateKey {
    fn backend(&self) -> BrBackend {
        BrBackend::Cmux
    }

    fn lwe_dim(&self) -> usize {
        self.lwe_dim()
    }

    fn make_scratch(&self) -> RotateScratch {
        RotateScratch::Cmux(BlindRotateScratch::default())
    }

    fn rotate_with(
        &self,
        ctx: &RnsContext,
        test_poly: &RnsPoly,
        lwe: &LweCiphertext,
        scratch: &mut RotateScratch,
    ) -> RlweCiphertext {
        match scratch {
            RotateScratch::Cmux(s) => self.blind_rotate_with(ctx, test_poly, lwe, s),
            RotateScratch::Auto(_) => panic!("CMUX backend handed automorphism scratch"),
        }
    }
}

impl BlindRotateBackend for AutoBlindRotateKey {
    fn backend(&self) -> BrBackend {
        BrBackend::Auto
    }

    fn lwe_dim(&self) -> usize {
        self.lwe_dim()
    }

    fn make_scratch(&self) -> RotateScratch {
        RotateScratch::Auto(AutoRotateScratch::default())
    }

    fn rotate_with(
        &self,
        ctx: &RnsContext,
        test_poly: &RnsPoly,
        lwe: &LweCiphertext,
        scratch: &mut RotateScratch,
    ) -> RlweCiphertext {
        match scratch {
            RotateScratch::Auto(s) => self.blind_rotate_with(ctx, test_poly, lwe, s),
            RotateScratch::Cmux(_) => panic!("automorphism backend handed CMUX scratch"),
        }
    }
}

/// Blind-rotation key material for either backend — what a bootstrapper
/// carries and what an `EvalKeySet` container ships.
#[derive(Debug, Clone)]
pub enum BrKeys {
    /// CMUX ladder key (`{RGSW(s_i^+), RGSW(s_i^-)}`).
    Cmux(BlindRotateKey),
    /// Automorphism key (`RGSW(X^{s_i})` + Galois switch keys).
    Auto(AutoBlindRotateKey),
}

impl BrKeys {
    /// The backend this key material drives.
    pub fn backend(&self) -> BrBackend {
        match self {
            BrKeys::Cmux(_) => BrBackend::Cmux,
            BrKeys::Auto(_) => BrBackend::Auto,
        }
    }

    /// The key as a backend-dispatching trait object.
    pub fn as_backend(&self) -> &dyn BlindRotateBackend {
        match self {
            BrKeys::Cmux(k) => k,
            BrKeys::Auto(k) => k,
        }
    }

    /// LWE mask dimension `n_t`.
    pub fn lwe_dim(&self) -> usize {
        self.as_backend().lwe_dim()
    }

    /// Gadget parameters baked into the key.
    pub fn params(&self) -> &RgswParams {
        match self {
            BrKeys::Cmux(k) => k.params(),
            BrKeys::Auto(k) => k.params(),
        }
    }

    /// Number of RNS limbs of the accumulator basis.
    pub fn limbs(&self) -> usize {
        match self {
            BrKeys::Cmux(k) => k.limbs(),
            BrKeys::Auto(k) => k.limbs(),
        }
    }

    /// The CMUX key, if that is what is loaded.
    pub fn cmux(&self) -> Option<&BlindRotateKey> {
        match self {
            BrKeys::Cmux(k) => Some(k),
            BrKeys::Auto(_) => None,
        }
    }

    /// The automorphism key, if that is what is loaded.
    pub fn auto(&self) -> Option<&AutoBlindRotateKey> {
        match self {
            BrKeys::Auto(k) => Some(k),
            BrKeys::Cmux(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blind_rotate::test_polynomial_from_fn;
    use heap_math::prime::ntt_primes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> RnsContext {
        RnsContext::new(64, &ntt_primes(64, 30, 2))
    }

    /// Narrow-MAC shapes build no Shoup quotients for either half of the
    /// auto key; 36-bit limbs still do.
    #[test]
    fn quotients_are_built_only_off_the_narrow_path() {
        for (bits, narrow) in [(30u32, true), (36, false)] {
            let c = RnsContext::new(64, &ntt_primes(64, bits, 2));
            let mut rng = StdRng::seed_from_u64(5);
            let ring_sk = RingSecretKey::generate(&c, 2, &mut rng);
            let lwe_sk = LweSecretKey::generate(&mut rng, 4);
            let params = RgswParams {
                base_bits: bits.div_ceil(2),
                digits: 2,
            };
            let abk = AutoBlindRotateKey::generate(&c, &lwe_sk, &ring_sk, 2, params, &mut rng);
            assert!(abk.prepared.iter().all(|p| p.holds_quotients() != narrow));
            assert!(abk.gks.iter().all(|g| g.quot_a.is_empty() == narrow));
            assert!(abk.gks.iter().all(|g| g.quot_b.is_empty() == narrow));
        }
    }

    #[test]
    fn dlog_covers_every_odd_residue_uniquely() {
        for n in [4usize, 8, 64, 256] {
            let t = DlogTable::new(n);
            let two_n = 2 * n;
            let mut seen = std::collections::HashSet::new();
            for e in (1..two_n).step_by(2) {
                let (neg, k) = t.decompose(e);
                assert!(k < n / 2);
                let back = if neg { two_n - t.pow5(k) } else { t.pow5(k) };
                assert_eq!(back, e, "n={n} e={e}");
                assert!(seen.insert((neg, k)), "class collision at e={e}");
            }
            assert_eq!(seen.len(), n, "group order mismatch");
        }
    }

    #[test]
    fn galois_exponent_ladder_generates_all_jumps() {
        let n = 64;
        let exps = galois_exponents(n);
        assert_eq!(exps.len(), 6); // log2(32) + conjugation
        assert_eq!(*exps.last().unwrap(), 2 * n - 1);
        // Composing the ladder keys must reach 5^k for every k.
        let two_n = 2 * n;
        for k in 0..n / 2 {
            let mut g = 1usize;
            let mut d = k;
            let mut j = 0;
            while d > 0 {
                if d & 1 == 1 {
                    g = g * exps[j] % two_n;
                }
                d >>= 1;
                j += 1;
            }
            assert_eq!(g, DlogTable::new(n).pow5(k));
        }
    }

    #[test]
    fn inv_mod_two_n_inverts_units() {
        for two_n in [8usize, 128, 512] {
            for v in (1..two_n).step_by(2) {
                assert_eq!(v * inv_mod_two_n(v, two_n) % two_n, 1, "v={v}");
            }
        }
    }

    #[test]
    fn galois_switch_preserves_automorphed_phase() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(11);
        let sk = RingSecretKey::generate(&c, 2, &mut rng);
        let params = RgswParams {
            base_bits: 15,
            digits: 2,
        };
        let msg: Vec<i64> = (0..64).map(|i| (i as i64 - 32) << 40).collect();
        let ct = RlweCiphertext::encrypt(&c, &sk, &RnsPoly::from_signed(&c, &msg, 2), &mut rng);
        for t in [5usize, 25, 127] {
            let gk = GaloisSwitchKey::generate(&c, &sk, t, 2, &params, &mut rng);
            let mut scratch = AutoKsScratch::default();
            let mut out = RlweCiphertext::zero(&c, 2);
            gk.apply_into(&c, &ct, &mut scratch, &mut out);
            let got = out.phase(&c, &sk).to_centered_f64(&c);
            // Oracle: σ_t applied to the decrypted (centered) phase — the
            // same signed index permutation, on f64 values.
            let phase_in = ct.phase(&c, &sk).to_centered_f64(&c);
            let (n, two_n) = (64usize, 128usize);
            let mut want = vec![0.0f64; n];
            let mut idx = 0usize;
            for &v in &phase_in {
                if idx < n {
                    want[idx] = v;
                } else {
                    want[idx - n] = -v;
                }
                idx += t;
                if idx >= two_n {
                    idx -= two_n;
                }
            }
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < (1u64 << 32) as f64, "t={t}: {g} vs {w}");
            }
        }
    }

    /// Noiseless LWE of `msg` under `lwe_sk` mod 2N with a random mask.
    fn noiseless_lwe<R: rand::Rng + ?Sized>(
        lwe_sk: &LweSecretKey,
        msg: i64,
        two_n: u64,
        rng: &mut R,
    ) -> LweCiphertext {
        let a: Vec<u64> = (0..lwe_sk.coeffs().len())
            .map(|_| rng.gen_range(0..two_n))
            .collect();
        let mut dot: i64 = 0;
        for (x, &s) in a.iter().zip(lwe_sk.coeffs()) {
            dot += *x as i64 * s;
        }
        let b = (msg - dot).rem_euclid(two_n as i64) as u64;
        LweCiphertext {
            a,
            b,
            modulus: two_n,
        }
    }

    #[test]
    fn auto_blind_rotate_evaluates_lut() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(7);
        let ring_sk = RingSecretKey::generate(&c, 2, &mut rng);
        let lwe_sk = LweSecretKey::generate(&mut rng, 16);
        let params = RgswParams {
            base_bits: 15,
            digits: 2,
        };
        let abk = AutoBlindRotateKey::generate(&c, &lwe_sk, &ring_sk, 2, params, &mut rng);
        let two_n = 2 * c.n() as u64;
        let scale = 1i64 << 45;
        let f = test_polynomial_from_fn(&c, 2, |u| scale * u);
        for msg in [0i64, 1, 5, -3, 20, -25] {
            let lwe = noiseless_lwe(&lwe_sk, msg, two_n, &mut rng);
            let out = abk.blind_rotate(&c, &f, &lwe);
            let phase = out.phase(&c, &ring_sk).to_centered_f64(&c);
            let got = phase[0];
            let want = (scale * msg) as f64;
            assert!(
                (got - want).abs() < (1u64 << 36) as f64,
                "msg {msg}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn auto_matches_cmux_on_edge_masks() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(17);
        let ring_sk = RingSecretKey::generate(&c, 2, &mut rng);
        let lwe_sk = LweSecretKey::generate(&mut rng, 8);
        let params = RgswParams {
            base_bits: 15,
            digits: 2,
        };
        let brk = BlindRotateKey::generate(&c, &lwe_sk, &ring_sk, 2, params, &mut rng);
        let abk = AutoBlindRotateKey::generate(&c, &lwe_sk, &ring_sk, 2, params, &mut rng);
        let n = c.n() as u64;
        let two_n = 2 * n;
        let scale = 1i64 << 45;
        let f = test_polynomial_from_fn(&c, 2, |u| scale * u);
        // All-zero mask, a_i = N edges, and mixed even/odd masks.
        let masks: Vec<Vec<u64>> = vec![
            vec![0; 8],
            vec![n; 8],
            vec![0, n, 1, two_n - 1, 2, n - 1, n + 1, 64],
            (0..8).map(|_| rng.gen_range(0..two_n)).collect(),
        ];
        for a in masks {
            let b = rng.gen_range(0..two_n);
            let lwe = LweCiphertext {
                a,
                b,
                modulus: two_n,
            };
            let got_auto = abk.blind_rotate(&c, &f, &lwe);
            let got_cmux = brk.blind_rotate(&c, &f, &lwe);
            let pa = got_auto.phase(&c, &ring_sk).to_centered_f64(&c);
            let pc = got_cmux.phase(&c, &ring_sk).to_centered_f64(&c);
            for (x, y) in pa.iter().zip(&pc) {
                assert!(
                    (x - y).abs() < (1u64 << 37) as f64,
                    "decrypt divergence: {x} vs {y} (mask {:?})",
                    lwe.a
                );
            }
        }
    }

    #[test]
    fn rotate_scratch_variant_mismatch_panics() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let ring_sk = RingSecretKey::generate(&c, 1, &mut rng);
        let lwe_sk = LweSecretKey::generate(&mut rng, 4);
        let params = RgswParams {
            base_bits: 15,
            digits: 2,
        };
        let brk = BlindRotateKey::generate(&c, &lwe_sk, &ring_sk, 1, params, &mut rng);
        let f = test_polynomial_from_fn(&c, 1, |u| u);
        let lwe = LweCiphertext::trivial(0, 4, 2 * c.n() as u64);
        let mut wrong = RotateScratch::Auto(AutoRotateScratch::default());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            brk.rotate_with(&c, &f, &lwe, &mut wrong)
        }));
        assert!(result.is_err(), "variant mismatch must panic");
    }
}
