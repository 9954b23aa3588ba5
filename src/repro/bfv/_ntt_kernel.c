/* Compiled kernel tier of the BFV datapath (the lane stages of the paper's
 * Fig 9c: INTT -> Decompose -> NTT -> SIMDmult -> Compose).
 *
 *   ntt_forward / ntt_inverse   batched negacyclic NTT, radix-2 DIT with
 *                               64-bit Shoup lazy reduction
 *   rns_digit_split             Decompose: residues -> Garner mixed-radix
 *                               compose on 64-bit words -> base-2^Adcmp
 *                               digits -> digit residues (optionally after
 *                               the coefficient-domain Galois automorphism)
 *   mac_keyswitch               SIMDmult of key switching: both key halves
 *                               in one walk, digits gathered through the
 *                               Galois eval map inside the loop
 *   mac_weights                 SIMDmult of HE_Mult: c0 and c1 against one
 *                               weight stack, every output channel and
 *                               batch member per tile
 *   rns_scale_round             client Compose: round(t * w / q) mod t
 *
 * Compiled on demand by repro.bfv.native (plain `cc -O3 -shared -fPIC`);
 * the engine in repro.bfv.ntt_batch falls back to its vectorised numpy
 * kernels whenever no C compiler is available.  Both paths compute
 * bit-identical results.  NTT values are kept lazily in [0, 4p) between
 * butterfly stages (Harvey's bound) and fully reduced into [0, p) once at
 * the end, so the final residues match the reference NttContext exactly;
 * the multiply-accumulates add unreduced products (limbs are below 2^31,
 * so at least three fit a 64-bit word) and reduce once per output
 * coefficient.  Every entry point is reentrant: scratch is on the stack or
 * supplied by the caller.
 */
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

static inline uint64_t mulhi64(uint64_t a, uint64_t b) {
    return (uint64_t)(((u128)a * b) >> 64);
}

/* Shoup lazy product: x*w mod p in [0, 2p), with wsh = floor(w * 2^64 / p). */
static inline uint64_t shoup_mul(uint64_t x, uint64_t w, uint64_t wsh, uint64_t p) {
    uint64_t q = mulhi64(x, wsh);
    return x * w - q * p;
}

/* Forward transform of a (k, B, n) residue stack, in place.
 *
 * perm:        bit-reversal permutation, length n
 * psi/psi_sh:  (k, n) psi-power premultiply tables, stored in perm order
 * tw/tw_sh:    (k, n-1) stage twiddles, stage s at offset 2^s - 1
 * p_arr:       (k) moduli (< 2^30 so the lazy bound 4p stays far from 2^64)
 * scratch:     (n) workspace shared across rows
 */
void ntt_forward(uint64_t *data, const int64_t *perm,
                 const uint64_t *psi, const uint64_t *psi_sh,
                 const uint64_t *tw, const uint64_t *tw_sh,
                 const uint64_t *p_arr, long k, long B, long n,
                 uint64_t *scratch) {
    for (long i = 0; i < k; ++i) {
        const uint64_t p = p_arr[i];
        const uint64_t twop = 2 * p;
        const uint64_t *psi_i = psi + i * n;
        const uint64_t *psi_sh_i = psi_sh + i * n;
        const uint64_t *tw_i = tw + i * (n - 1);
        const uint64_t *tw_sh_i = tw_sh + i * (n - 1);
        for (long b = 0; b < B; ++b) {
            uint64_t *row = data + (i * B + b) * n;
            memcpy(scratch, row, n * sizeof(uint64_t));
            /* bit-reverse gather fused with the psi premultiply -> [0, 2p) */
            for (long j = 0; j < n; ++j)
                row[j] = shoup_mul(scratch[perm[j]], psi_i[j], psi_sh_i[j], p);
            /* DIT stages, Harvey lazy: values stay in [0, 4p) */
            for (long half = 1; half < n; half <<= 1) {
                const uint64_t *w = tw_i + (half - 1);
                const uint64_t *wsh = tw_sh_i + (half - 1);
                for (long block = 0; block < n; block += 2 * half) {
                    uint64_t *even = row + block;
                    uint64_t *odd = even + half;
                    for (long j = 0; j < half; ++j) {
                        uint64_t x = even[j];
                        if (x >= twop) x -= twop;
                        uint64_t t = shoup_mul(odd[j], w[j], wsh[j], p);
                        even[j] = x + t;
                        odd[j] = x + twop - t;
                    }
                }
            }
            /* single deferred reduction into [0, p) */
            for (long j = 0; j < n; ++j) {
                uint64_t x = row[j];
                if (x >= twop) x -= twop;
                if (x >= p) x -= p;
                row[j] = x;
            }
        }
    }
}

/* Inverse transform: DIT stages with inverse twiddles, then one fused
 * multiply by n^-1 * psi^-j (iscale tables), natural order output. */
void ntt_inverse(uint64_t *data, const int64_t *perm,
                 const uint64_t *iscale, const uint64_t *iscale_sh,
                 const uint64_t *tw, const uint64_t *tw_sh,
                 const uint64_t *p_arr, long k, long B, long n,
                 uint64_t *scratch) {
    for (long i = 0; i < k; ++i) {
        const uint64_t p = p_arr[i];
        const uint64_t twop = 2 * p;
        const uint64_t *sc_i = iscale + i * n;
        const uint64_t *sc_sh_i = iscale_sh + i * n;
        const uint64_t *tw_i = tw + i * (n - 1);
        const uint64_t *tw_sh_i = tw_sh + i * (n - 1);
        for (long b = 0; b < B; ++b) {
            uint64_t *row = data + (i * B + b) * n;
            memcpy(scratch, row, n * sizeof(uint64_t));
            for (long j = 0; j < n; ++j)
                row[j] = scratch[perm[j]];
            for (long half = 1; half < n; half <<= 1) {
                const uint64_t *w = tw_i + (half - 1);
                const uint64_t *wsh = tw_sh_i + (half - 1);
                for (long block = 0; block < n; block += 2 * half) {
                    uint64_t *even = row + block;
                    uint64_t *odd = even + half;
                    for (long j = 0; j < half; ++j) {
                        uint64_t x = even[j];
                        if (x >= twop) x -= twop;
                        uint64_t t = shoup_mul(odd[j], w[j], wsh[j], p);
                        even[j] = x + t;
                        odd[j] = x + twop - t;
                    }
                }
            }
            for (long j = 0; j < n; ++j) {
                uint64_t x = shoup_mul(row[j] >= twop ? row[j] - twop : row[j],
                                       sc_i[j], sc_sh_i[j], p);
                if (x >= p) x -= p;
                row[j] = x;
            }
        }
    }
}

/* -- multiply-accumulate -------------------------------------------------- */

/* The MAC loops are plain multiply-adds that the compiler vectorises; the
 * baseline x86-64 build only has 2-lane SSE2 with no 64-bit multiply, so on
 * GCC/glibc each MAC is also cloned for AVX2 and AVX-512 and picked by the
 * dynamic loader at load time (the cached object stays portable across
 * hosts, unlike -march=native; integer results are identical). */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__GLIBC__)
#define MAC_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define MAC_CLONES
#endif

/* Residues are below 2^31: a 32x32 -> 64-bit product is exact and is the
 * one multiply every SIMD level has. */
static inline uint64_t mul_residues(uint64_t a, uint64_t b) {
    return (uint64_t)(uint32_t)a * (uint32_t)b;
}

/* Output coefficients accumulated per pass; the accumulators of one tile
 * (and the operand rows feeding it) stay cache-resident. */
#define MAC_TILE 256
/* Batch members whose accumulators share one pass over a weight row. */
#define MAC_GROUP 4

/* Number of products of residues below p that, on top of a carry-in below
 * p, still fit an unsigned 64-bit accumulator. */
static inline long mac_chunk(uint64_t p) {
    uint64_t top = (p - 1) * (p - 1);
    uint64_t fit = top ? (UINT64_MAX - (p - 1)) / top : (uint64_t)1 << 30;
    return fit > ((uint64_t)1 << 30) ? (long)1 << 30 : (long)fit;
}

/* x mod p for any 64-bit x, with ratio = floor(2^64 / p). */
static inline uint64_t barrett(uint64_t x, uint64_t p, uint64_t ratio) {
    uint64_t r = x - mulhi64(x, ratio) * p;
    return r >= p ? r - p : r;
}

static inline uint64_t barrett_ratio(uint64_t p) {
    return (uint64_t)(((u128)1 << 64) / p);
}

/* Key-switch MAC, both key halves in one walk over the digits:
 *
 *   out0[i, j] = sum_t x[i, t, g(j)] * a[i, t, j]  mod p_i
 *   out1[i, j] = sum_t x[i, t, g(j)] * b[i, t, j]  mod p_i
 *
 * g is the Galois eval map (`gather`, length n) or the identity when
 * `gather` is NULL.  x, a and b have contiguous rows of n residues; their
 * limb and term strides are given in elements (a and b share theirs).
 */
MAC_CLONES
void mac_keyswitch(uint64_t *out0, uint64_t *out1,
                   const uint64_t *x, long xs_k, long xs_t,
                   const int64_t *gather,
                   const uint64_t *a, const uint64_t *b, long ws_k, long ws_t,
                   const uint64_t *p_arr, long k, long T, long n) {
    uint64_t acc0[MAC_TILE], acc1[MAC_TILE];
    for (long i = 0; i < k; ++i) {
        const uint64_t p = p_arr[i];
        const uint64_t ratio = barrett_ratio(p);
        const long chunk = mac_chunk(p);
        for (long j0 = 0; j0 < n; j0 += MAC_TILE) {
            const long width = n - j0 < MAC_TILE ? n - j0 : MAC_TILE;
            memset(acc0, 0, sizeof acc0);
            memset(acc1, 0, sizeof acc1);
            for (long t = 0; t < T; ++t) {
                const uint64_t *xr = x + i * xs_k + t * xs_t;
                const uint64_t *ar = a + i * ws_k + t * ws_t + j0;
                const uint64_t *br = b + i * ws_k + t * ws_t + j0;
                if (t && t % chunk == 0) {
                    for (long j = 0; j < width; ++j) {
                        acc0[j] = barrett(acc0[j], p, ratio);
                        acc1[j] = barrett(acc1[j], p, ratio);
                    }
                }
                if (gather) {
                    const int64_t *g = gather + j0;
                    for (long j = 0; j < width; ++j) {
                        const uint64_t s = xr[g[j]];
                        acc0[j] += mul_residues(s, ar[j]);
                        acc1[j] += mul_residues(s, br[j]);
                    }
                } else {
                    xr += j0;
                    for (long j = 0; j < width; ++j) {
                        acc0[j] += mul_residues(xr[j], ar[j]);
                        acc1[j] += mul_residues(xr[j], br[j]);
                    }
                }
            }
            for (long j = 0; j < width; ++j) {
                out0[i * n + j0 + j] = barrett(acc0[j], p, ratio);
                out1[i * n + j0 + j] = barrett(acc1[j], p, ratio);
            }
        }
    }
}

/* Weight MAC of a whole layer call, c0 and c1 against one weight stack:
 *
 *   out0[i, b, o, j] = sum_t x0[i, b, t, j] * w[i, o, t, j]  mod p_i
 *   out1[i, b, o, j] = sum_t x1[i, b, t, j] * w[i, o, t, j]  mod p_i
 *
 * Outputs are contiguous (k, B, O, n).  Per tile of coefficients the
 * ciphertext rows of every term and batch member are read once from memory
 * and then from cache for each of the O output channels, and the batch
 * runs innermost so one weight row serves every member.  x0/x1 share
 * strides; all rows are contiguous runs of n residues.
 */
MAC_CLONES
void mac_weights(uint64_t *out0, uint64_t *out1,
                 const uint64_t *x0, const uint64_t *x1,
                 long xs_k, long xs_b, long xs_t,
                 const uint64_t *w, long ws_k, long ws_o, long ws_t,
                 const uint64_t *p_arr, long k, long B, long O, long T, long n) {
    uint64_t acc0[MAC_GROUP][MAC_TILE], acc1[MAC_GROUP][MAC_TILE];
    for (long i = 0; i < k; ++i) {
        const uint64_t p = p_arr[i];
        const uint64_t ratio = barrett_ratio(p);
        const long chunk = mac_chunk(p);
        for (long j0 = 0; j0 < n; j0 += MAC_TILE) {
            const long width = n - j0 < MAC_TILE ? n - j0 : MAC_TILE;
            for (long b0 = 0; b0 < B; b0 += MAC_GROUP) {
                const long group = B - b0 < MAC_GROUP ? B - b0 : MAC_GROUP;
                for (long o = 0; o < O; ++o) {
                    memset(acc0, 0, sizeof acc0);
                    memset(acc1, 0, sizeof acc1);
                    for (long t = 0; t < T; ++t) {
                        const uint64_t *wr = w + i * ws_k + o * ws_o + t * ws_t + j0;
                        const int reduce = t && t % chunk == 0;
                        for (long g = 0; g < group; ++g) {
                            const long at = i * xs_k + (b0 + g) * xs_b + t * xs_t + j0;
                            const uint64_t *r0 = x0 + at;
                            const uint64_t *r1 = x1 + at;
                            uint64_t *a0 = acc0[g];
                            uint64_t *a1 = acc1[g];
                            if (reduce) {
                                for (long j = 0; j < width; ++j) {
                                    a0[j] = barrett(a0[j], p, ratio);
                                    a1[j] = barrett(a1[j], p, ratio);
                                }
                            }
                            for (long j = 0; j < width; ++j) {
                                a0[j] += mul_residues(r0[j], wr[j]);
                                a1[j] += mul_residues(r1[j], wr[j]);
                            }
                        }
                    }
                    for (long g = 0; g < group; ++g) {
                        const long at = ((i * B + b0 + g) * O + o) * n + j0;
                        for (long j = 0; j < width; ++j) {
                            out0[at + j] = barrett(acc0[g][j], p, ratio);
                            out1[at + j] = barrett(acc1[g][j], p, ratio);
                        }
                    }
                }
            }
        }
    }
}

/* -- CRT compose on machine words ----------------------------------------- */

/* The loader refuses bases beyond these (the numpy path has no limit). */
#define RNS_MAX_LIMBS 8
#define RNS_MAX_WORDS 4

/* Garner mixed-radix compose: residues r[i] in [0, p_i) -> the unique
 * x in [0, q) with x = r[i] mod p_i, little-endian in `words` (W words).
 *
 *   ginv/ginv_sh:  (k, k) row i, column j < i: p_j^-1 mod p_i and its
 *                  Shoup quotient
 *   lift:          (k) a multiple of p_i that is at least 2^31, so that
 *                  u + lift_i - v_j stays non-negative for any v_j < 2^31
 */
static inline void garner_compose(const uint64_t *r, uint64_t *words, long W,
                                  const uint64_t *p_arr, const uint64_t *ginv,
                                  const uint64_t *ginv_sh, const uint64_t *lift,
                                  long k) {
    uint64_t v[RNS_MAX_LIMBS];
    v[0] = r[0];
    for (long i = 1; i < k; ++i) {
        const uint64_t p = p_arr[i];
        uint64_t u = r[i];
        for (long j = 0; j < i; ++j) {
            u = shoup_mul(u + lift[i] - v[j], ginv[i * k + j], ginv_sh[i * k + j], p);
            if (u >= p) u -= p;
        }
        v[i] = u;
    }
    /* Horner: x = v_0 + p_0 (v_1 + p_1 (v_2 + ...)); x < q fits W words. */
    for (long w = 0; w < W; ++w) words[w] = 0;
    words[0] = v[k - 1];
    for (long i = k - 2; i >= 0; --i) {
        u128 carry = v[i];
        for (long w = 0; w < W; ++w) {
            carry += (u128)words[w] * p_arr[i];
            words[w] = (uint64_t)carry;
            carry >>= 64;
        }
    }
}

/* Coefficients composed per pass of rns_digit_split (see there). */
#define SPLIT_BLOCK 64

/* Decompose: coefficient-domain residues (k, B, n) -> residues of the L
 * base-2^base_bits digits of every coefficient, (k, B, L, n).
 *
 * galois_elt g != 1 first applies x -> x^g: coefficient j lands at
 * j*g mod 2n, negated when that exponent wraps past n (x^n = -1).
 * `direct` is set when 2^base_bits <= min(p_i): a digit then is its own
 * residue in every limb.
 *
 * The k*L output rows are a power-of-two stride apart and would all fall
 * into one cache set if written coefficient by coefficient, so digits are
 * staged for a block of coefficients (`scratch`, L * SPLIT_BLOCK words)
 * and written out row by row.
 */
void rns_digit_split(const uint64_t *coeff, uint64_t *out,
                     const uint64_t *p_arr, const uint64_t *ginv,
                     const uint64_t *ginv_sh, const uint64_t *lift,
                     long k, long B, long n, long W, long L, long base_bits,
                     long galois_elt, long direct, uint64_t *scratch) {
    const uint64_t mask = ((uint64_t)1 << base_bits) - 1;
    uint64_t r[RNS_MAX_LIMBS], words[RNS_MAX_WORDS];
    long dst[SPLIT_BLOCK];
    for (long b = 0; b < B; ++b) {
        for (long j0 = 0; j0 < n; j0 += SPLIT_BLOCK) {
            const long width = n - j0 < SPLIT_BLOCK ? n - j0 : SPLIT_BLOCK;
            for (long jj = 0; jj < width; ++jj) {
                const long j = j0 + jj;
                const long e = (long)(((uint64_t)j * (uint64_t)galois_elt) & (uint64_t)(2 * n - 1));
                dst[jj] = e & (n - 1);
                for (long i = 0; i < k; ++i) {
                    const uint64_t x = coeff[(i * B + b) * n + j];
                    r[i] = (e >= n && x) ? p_arr[i] - x : x;
                }
                garner_compose(r, words, W, p_arr, ginv, ginv_sh, lift, k);
                for (long d = 0; d < L; ++d) {
                    const long bit = d * base_bits;
                    const long lo = bit >> 6, sh = bit & 63;
                    uint64_t digit = 0;
                    if (lo < W) {
                        digit = words[lo] >> sh;
                        if (sh + base_bits > 64 && lo + 1 < W)
                            digit |= words[lo + 1] << (64 - sh);
                        digit &= mask;
                    }
                    scratch[d * SPLIT_BLOCK + jj] = digit;
                }
            }
            for (long i = 0; i < k; ++i) {
                const uint64_t p = p_arr[i];
                for (long d = 0; d < L; ++d) {
                    uint64_t *row = out + ((i * B + b) * L + d) * n;
                    const uint64_t *from = scratch + d * SPLIT_BLOCK;
                    for (long jj = 0; jj < width; ++jj)
                        row[dst[jj]] = (direct || from[jj] < p) ? from[jj] : from[jj] % p;
                }
            }
        }
    }
}

/* r = a - b over `len` words; returns the final borrow. */
static inline int sub_words(uint64_t *r, const uint64_t *a, const uint64_t *b, long len) {
    int borrow = 0;
    for (long w = 0; w < len; ++w) {
        const uint64_t d = a[w] - b[w];
        const int next = (a[w] < b[w]) || (d < (uint64_t)borrow);
        r[w] = d - (uint64_t)borrow;
        borrow = next;
    }
    return borrow;
}

/* r = a * m over `len` words (the product must fit). */
static inline void mul_word(uint64_t *r, const uint64_t *a, uint64_t m, long len) {
    u128 carry = 0;
    for (long w = 0; w < len; ++w) {
        carry += (u128)a[w] * m;
        r[w] = (uint64_t)carry;
        carry >>= 64;
    }
}

static inline double words_to_double(const uint64_t *a, long len) {
    double value = 0.0, scale = 1.0;
    for (long w = 0; w < len; ++w) {
        value += (double)a[w] * scale;
        scale *= 18446744073709551616.0; /* 2^64 */
    }
    return value;
}

/* BFV decryption scaling: coefficient-domain residues (k, n) of
 * w = c0 + c1 s  ->  out[j] = floor((2 t w_j + q) / 2q) mod t, i.e.
 * round(t w / q) mod t with the object-integer path's tie rule.
 *
 * q_words: q, little-endian, W + 2 words (zero-padded).  The quotient is
 * at most t < 2^32: a double estimate is within one of it, and the exact
 * multiword remainder settles which.
 */
void rns_scale_round(const uint64_t *coeff, int64_t *out,
                     const uint64_t *p_arr, const uint64_t *ginv,
                     const uint64_t *ginv_sh, const uint64_t *lift,
                     const uint64_t *q_words, long k, long n, long W, uint64_t t) {
    const long len = W + 2;
    uint64_t r[RNS_MAX_LIMBS];
    uint64_t x[RNS_MAX_WORDS + 2], num[RNS_MAX_WORDS + 2], den[RNS_MAX_WORDS + 2];
    uint64_t prod[RNS_MAX_WORDS + 2], rem[RNS_MAX_WORDS + 2];
    mul_word(den, q_words, 2, len);
    const double den_f = words_to_double(den, len);
    for (long j = 0; j < n; ++j) {
        for (long i = 0; i < k; ++i) r[i] = coeff[i * n + j];
        garner_compose(r, x, W, p_arr, ginv, ginv_sh, lift, k);
        x[W] = x[W + 1] = 0;
        /* num = 2 t x + q */
        mul_word(num, x, 2 * t, len);
        u128 carry = 0;
        for (long w = 0; w < len; ++w) {
            carry += (u128)num[w] + q_words[w];
            num[w] = (uint64_t)carry;
            carry >>= 64;
        }
        uint64_t quot = (uint64_t)(words_to_double(num, len) / den_f);
        mul_word(prod, den, quot, len);
        if (sub_words(rem, num, prod, len)) {
            --quot; /* estimate one too high */
        } else if (!sub_words(prod, rem, den, len)) {
            ++quot; /* remainder still holds a whole denominator */
        }
        out[j] = (int64_t)(quot % t);
    }
}
