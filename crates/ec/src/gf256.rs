//! GF(2^8) arithmetic with the primitive polynomial
//! x^8 + x^4 + x^3 + x^2 + 1 (0x11D), generator α = 2.
//!
//! Scalar multiplication goes through log/exp tables — the same
//! structure the paper's RTL encoder implements as BRAM lookups — built
//! once at first use and shared process-wide.
//!
//! The encoder's bulk operation, [`mul_slice_xor`], uses the
//! split-nibble product tables of ISA-L instead: for a coefficient `c`,
//! two 16-entry tables `c·x` and `c·(x << 4)`.  On x86-64 hosts with
//! AVX2 (detected at run time, at each call) each 32-byte block is two
//! `vpshufb` lookups and two XORs.  Otherwise it is one lookup per byte
//! into the 256-entry product row of `c`.  Both give the same bytes.

use std::sync::OnceLock;

/// The field polynomial (reduced modulo x^8).
pub const POLY: u16 = 0x11D;

/// Order of the multiplicative group.
pub const GROUP_ORDER: usize = 255;

struct Tables {
    exp: [u8; 512], // doubled so exp[log a + log b] needs no modulo
    log: [u8; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(GROUP_ORDER) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        for i in GROUP_ORDER..512 {
            exp[i] = exp[i - GROUP_ORDER];
        }
        Tables { exp, log }
    })
}

/// An element of GF(2^8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Gf256(pub u8);

#[allow(clippy::should_implement_trait)] // explicit names make the GF(2^8)
// semantics visible at call sites (add == xor, etc.); operator overloads
// would hide them.
impl Gf256 {
    /// Additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// Multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);
    /// The generator α = 2.
    pub const ALPHA: Gf256 = Gf256(2);

    /// Addition = XOR (characteristic 2).
    #[inline]
    pub fn add(self, other: Gf256) -> Gf256 {
        Gf256(self.0 ^ other.0)
    }

    /// Subtraction is identical to addition.
    #[inline]
    pub fn sub(self, other: Gf256) -> Gf256 {
        self.add(other)
    }

    /// Field multiplication via log/exp tables.
    #[inline]
    pub fn mul(self, other: Gf256) -> Gf256 {
        if self.0 == 0 || other.0 == 0 {
            return Gf256::ZERO;
        }
        let t = tables();
        Gf256(t.exp[t.log[self.0 as usize] as usize + t.log[other.0 as usize] as usize])
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero.
    #[inline]
    pub fn inv(self) -> Gf256 {
        assert_ne!(self.0, 0, "inverse of zero in GF(256)");
        let t = tables();
        Gf256(t.exp[GROUP_ORDER - t.log[self.0 as usize] as usize])
    }

    /// Division: `self / other`.
    #[inline]
    pub fn div(self, other: Gf256) -> Gf256 {
        self.mul(other.inv())
    }

    /// `self` raised to the `n`-th power.
    pub fn pow(self, mut n: u32) -> Gf256 {
        let mut base = self;
        let mut acc = Gf256::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc = acc.mul(base);
            }
            base = base.mul(base);
            n >>= 1;
        }
        acc
    }

    /// α^n — the `n`-th power of the generator.
    pub fn alpha_pow(n: u32) -> Gf256 {
        let t = tables();
        Gf256(t.exp[(n as usize) % GROUP_ORDER])
    }
}

/// Multiply a byte slice by a scalar, XOR-accumulating into `dst`:
/// `dst[i] ^= c · src[i]`.
///
/// This is the inner loop of the encoder; the RTL implementation streams
/// 32 bytes/cycle through the equivalent multiplier array (256-bit
/// datapath, §IV-A).  On x86-64 hosts with AVX2 the host does the same:
/// each 32-byte block is two `vpshufb` lookups into the split-nibble
/// tables of `c`.  Elsewhere, and for the `len % 32` tail, one lookup
/// per byte into the 256-entry product row of `c`.
///
/// # Panics
/// Panics unless `src` and `dst` have the same length.
pub fn mul_slice_xor(c: Gf256, src: &[u8], dst: &mut [u8]) {
    // The AVX2 kernel's block loop relies on this.
    assert_eq!(src.len(), dst.len(), "slice length mismatch");
    if c.0 == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2 (checked just above), and the
        // lengths are equal (asserted above).
        unsafe { mul_slice_xor_avx2(c, src, dst) };
        return;
    }
    mul_slice_xor_portable(c, src, dst);
}

/// The split-nibble product tables of `c`: `lo[x] = c·x` and
/// `hi[x] = c·(x << 4)` for every nibble `x`.  Multiplication
/// distributes over XOR, so `c·s = lo[s & 15] ⊕ hi[s >> 4]`.
fn nibble_tables(c: Gf256) -> ([u8; 16], [u8; 16]) {
    let lo = std::array::from_fn(|x| c.mul(Gf256(x as u8)).0);
    let hi = std::array::from_fn(|x| c.mul(Gf256((x as u8) << 4)).0);
    (lo, hi)
}

/// The portable kernel — the only one on hosts without AVX2, and the
/// AVX2 kernel's tail: the product row `c·x` for all 256 bytes, then
/// one lookup per byte.
fn mul_slice_xor_portable(c: Gf256, src: &[u8], dst: &mut [u8]) {
    let (lo, hi) = nibble_tables(c);
    let row: [u8; 256] = std::array::from_fn(|x| lo[x & 15] ^ hi[x >> 4]);
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= row[s as usize];
    }
}

/// The AVX2 kernel: 32 bytes per step, the portable kernel for the tail.
///
/// # Safety
/// The CPU must support AVX2, and `src.len() == dst.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_slice_xor_avx2(c: Gf256, src: &[u8], dst: &mut [u8]) {
    use std::arch::x86_64::*;
    let (lo, hi) = nibble_tables(c);
    // SAFETY: each table is 16 bytes, the width of an unaligned
    // 128-bit load.
    let (lo, hi) = unsafe {
        (
            _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast())),
            _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast())),
        )
    };
    let nibble = _mm256_set1_epi8(0x0f);
    let body = src.len() - src.len() % 32;
    for i in (0..body).step_by(32) {
        // SAFETY: `i + 32 <= body <= src.len() == dst.len()`, so both
        // 32-byte accesses at offset `i` are in bounds; the unaligned
        // load and store forms have no alignment requirement.
        unsafe {
            let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            let p = _mm256_xor_si256(
                _mm256_shuffle_epi8(lo, _mm256_and_si256(s, nibble)),
                _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), nibble)),
            );
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(d, p));
        }
    }
    mul_slice_xor_portable(c, &src[body..], &mut dst[body..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_xor_and_self_inverse() {
        let a = Gf256(0x53);
        let b = Gf256(0xCA);
        assert_eq!(a.add(b).0, 0x53 ^ 0xCA);
        assert_eq!(a.add(a), Gf256::ZERO);
        assert_eq!(a.sub(b), a.add(b));
    }

    #[test]
    fn mul_identities() {
        for v in 0..=255u8 {
            let x = Gf256(v);
            assert_eq!(x.mul(Gf256::ONE), x);
            assert_eq!(x.mul(Gf256::ZERO), Gf256::ZERO);
        }
    }

    #[test]
    fn known_product() {
        // 2 · 0x80 = 0x100 ≡ 0x100 ⊕ 0x11D = 0x1D in this field —
        // a hand-checkable reduction by the 0x11D polynomial.
        assert_eq!(Gf256(0x02).mul(Gf256(0x80)), Gf256(0x1D));
        // And multiplication by α matches alpha_pow chaining.
        assert_eq!(Gf256::ALPHA.pow(8), Gf256(0x1D).mul(Gf256::ONE));
    }

    #[test]
    fn mul_commutative_associative_distributive() {
        // Spot-check field axioms over a pseudo-random sample.
        let mut x: u32 = 0x12345678;
        let mut next = || {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            Gf256((x >> 24) as u8)
        };
        for _ in 0..2_000 {
            let (a, b, c) = (next(), next(), next());
            assert_eq!(a.mul(b), b.mul(a));
            assert_eq!(a.mul(b).mul(c), a.mul(b.mul(c)));
            assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for v in 1..=255u8 {
            let x = Gf256(v);
            assert_eq!(x.mul(x.inv()), Gf256::ONE, "inv({v})");
        }
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn zero_inverse_panics() {
        Gf256::ZERO.inv();
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = Gf256(7);
        let mut acc = Gf256::ONE;
        for n in 0..20u32 {
            assert_eq!(a.pow(n), acc);
            acc = acc.mul(a);
        }
    }

    #[test]
    fn alpha_generates_group() {
        let mut seen = [false; 256];
        for n in 0..GROUP_ORDER as u32 {
            seen[Gf256::alpha_pow(n).0 as usize] = true;
        }
        let count = seen.iter().filter(|&&s| s).count();
        assert_eq!(count, 255, "α must generate all nonzero elements");
        assert!(!seen[0]);
    }

    /// `dst[i] ^= c · src[i]`, byte by byte through the log/exp tables.
    fn reference(c: Gf256, src: &[u8], dst: &mut [u8]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d ^= c.mul(Gf256(s)).0;
        }
    }

    type Kernel = fn(Gf256, &[u8], &mut [u8]);

    /// The kernel the host selects, and the portable one called
    /// directly so it is checked on AVX2 hosts too.
    const KERNELS: [(&str, Kernel); 2] = [
        ("selected", mul_slice_xor),
        ("portable", mul_slice_xor_portable),
    ];

    #[test]
    fn mul_slice_xor_matches_scalar() {
        let src: Vec<u8> = (0..=255).collect();
        for c in 0..=255u8 {
            for (name, kernel) in KERNELS {
                let mut dst = vec![0u8; 256];
                kernel(Gf256(c), &src, &mut dst);
                for (i, &d) in dst.iter().enumerate() {
                    assert_eq!(d, Gf256(c).mul(Gf256(i as u8)).0, "{name} c={c} x={i}");
                }
                // XOR-accumulate again → zero.
                kernel(Gf256(c), &src, &mut dst);
                assert!(dst.iter().all(|&b| b == 0), "{name} c={c}");
            }
        }
    }

    /// Lengths 0..=97 cover empty input, sub-block input, the 32-byte
    /// body and every tail length; offsets 0..=3 misalign both slices.
    /// Whole buffers are compared, so a write outside `dst` shows too.
    #[test]
    fn kernels_match_reference_at_every_length_and_offset() {
        let mut x: u32 = 0x2545_f491;
        let mut bytes = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                    (x >> 24) as u8
                })
                .collect()
        };
        for c in 0..=255u8 {
            let src_buf = bytes(100);
            let dst_buf = bytes(100);
            for len in 0..=97 {
                for so in 0..=3 {
                    for dof in 0..=3 {
                        let src = &src_buf[so..so + len];
                        let mut want = dst_buf.clone();
                        reference(Gf256(c), src, &mut want[dof..dof + len]);
                        for (name, kernel) in KERNELS {
                            let mut got = dst_buf.clone();
                            kernel(Gf256(c), src, &mut got[dof..dof + len]);
                            assert_eq!(got, want, "{name} c={c} len={len} src+{so} dst+{dof}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "slice length mismatch")]
    fn mismatched_lengths_panic() {
        mul_slice_xor(Gf256(3), &[0u8; 33], &mut [0u8; 32]);
    }
}
