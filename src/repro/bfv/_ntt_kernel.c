/* Compiled kernel tier of the BFV datapath (the lane stages of the paper's
 * Fig 9c: INTT -> Decompose -> NTT -> SIMDmult -> Compose).
 *
 *   ntt_forward / ntt_inverse   batched negacyclic NTT, radix-2 DIT with
 *                               32-bit Shoup lazy reduction, out of place
 *   ntt_isa_max                 the widest NTT body this CPU runs
 *   rns_digit_split             Decompose: residues -> Garner mixed-radix
 *                               compose on 64-bit words -> base-2^Adcmp
 *                               digits -> digit residues (optionally after
 *                               the coefficient-domain Galois automorphism)
 *   keyswitch_rotate            HE_Rotate after the decomposition, for every
 *                               rotation of a layer call in one call: a
 *                               table of jobs (member x Galois element),
 *                               each the SIMDmult against both key halves
 *                               in one contiguous walk (the keys are stored
 *                               in the digits' slot order) plus the final
 *                               add, then one gather of the two output rows
 *                               through the eval map (the Swap)
 *   mac_weights                 SIMDmult of HE_Mult: c0 and c1 against one
 *                               weight stack, every output channel and
 *                               batch member per tile
 *   rns_scale_round             client Compose: round(t * w / q) mod t
 *
 * Compiled on demand by repro.bfv.native (plain `cc -O3 -shared -fPIC`);
 * whenever no C compiler is available, the engine in repro.bfv.ntt_batch
 * runs the per-limb references these kernels are tested against instead.
 * Both paths compute bit-identical results.  NTT values are kept lazily
 * in [0, 4p) between butterfly stages (Harvey's bound) and fully reduced
 * into [0, p) once at the end, so the final residues match the reference
 * NttContext exactly;
 * the multiply-accumulates add unreduced products (limbs are below 2^31,
 * so at least three fit a 64-bit word) and reduce once per output
 * coefficient.  Every entry point is reentrant: scratch is on the stack or
 * supplied by the caller.
 *
 * Key-switch keys are stored as 32-bit words (repro.bfv.keys).  That is
 * exact, not a truncation: a key residue is reduced below its limb's
 * modulus, and every modulus is below 2^31 (below 2^30 for the NTT), so
 * the upper half of the 64-bit word it used to occupy was always zero.
 * The MAC widens each word as it loads it; the products and accumulators
 * are the same 64-bit values as before, so the outputs are unchanged and
 * the key bytes streamed per rotation halve.
 *
 * NTT arithmetic.  Every NTT modulus is below 2^30 (MAX_NTT_MODULUS_BITS in
 * ntt.py), so the lazy values, below 4p, fit 32 bits and a twiddle product
 * takes a 32-bit Shoup quotient w' = floor(w * 2^32 / p):
 *
 *     q = (x * w') >> 32,    t = x * w - q * p    in [0, 2p)
 *
 * With w * 2^32 = w' p + r (0 <= r < p), x w / p - q = frac(x w' / 2^32)
 * + x r / (p 2^32) < 1 + x / 2^32, which is below 2 for every x < 2^32;
 * that is where p < 2^30 (4p <= 2^32) is needed.  Each product is a
 * 32 x 32 -> 64-bit multiply, one vpmuludq per lane.  Residues keep their
 * int64 storage, so vectors hold 64-bit lanes: 8 per AVX-512 op, 4 per
 * AVX2 op.  The transforms have three bodies -- AVX-512F, AVX2 and scalar
 * -- built side by side with target attributes (the object stays a plain
 * portable build, no -march=native) and chosen per call from the caller's
 * `isa` level, clamped to what the CPU supports.  The vector bodies run
 * every stage in lanes: the bit-reverse gather (fused with the forward
 * psi premultiply), the stages narrower than a vector as lane permutes
 * within a two-register chunk, and the last stage fused with the final
 * reduction (and the inverse n^-1 psi^-j scale); a body needs a ring of
 * at least two vectors (n >= 16 for AVX-512, 8 for AVX2).  The scalar
 * body is the only one on non-x86 or non-GNU compilers and for n < 8.
 * keyswitch_rotate takes the same `isa` level and has two bodies,
 * AVX-512F and scalar.
 */
#include <stdint.h>
#include <string.h>

#if defined(__GNUC__) && defined(__x86_64__)
#define NTT_X86 1
#include <immintrin.h>
#endif

typedef unsigned __int128 u128;

static inline uint64_t mulhi64(uint64_t a, uint64_t b) {
    return (uint64_t)(((u128)a * b) >> 64);
}

/* 64-bit Shoup lazy product for the Garner compose, whose moduli may reach
 * 2^31: x*w mod p in [0, 2p), with wsh = floor(w * 2^64 / p). */
static inline uint64_t shoup_mul(uint64_t x, uint64_t w, uint64_t wsh, uint64_t p) {
    uint64_t q = mulhi64(x, wsh);
    return x * w - q * p;
}

/* -- negacyclic NTT ------------------------------------------------------- */

/* The `isa` levels of ntt_forward / ntt_inverse, one per transform body. */
enum { NTT_SCALAR = 0, NTT_AVX2 = 1, NTT_AVX512 = 2 };

/* The widest level this CPU and compiler support. */
long ntt_isa_max(void) {
#ifdef NTT_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return NTT_AVX512;
    if (__builtin_cpu_supports("avx2"))
        return NTT_AVX2;
#endif
    return NTT_SCALAR;
}

/* One transform call over a (k, B, n) residue stack, src -> dst.
 *
 * perm:          bit-reversal permutation, length n
 * pre/pre_sh:    (k, n) forward psi premultiply, in perm order; NULL on
 *                the inverse
 * tw/tw_sh:      (k, n-1) stage twiddles, stage s at offset 2^s - 1
 * post/post_sh:  (k, n) inverse n^-1 psi^-j scale; NULL on the forward
 * p:             (k) moduli, below 2^30
 * Every *_sh table holds 32-bit Shoup quotients.
 */
typedef struct {
    const uint64_t *src;
    uint64_t *dst;
    const int64_t *perm;
    const uint64_t *pre, *pre_sh, *tw, *tw_sh, *post, *post_sh, *p;
    long k, B, n;
} ntt_call;

/* x*w mod p in [0, 2p) for x < 2^32, with wsh = floor(w * 2^32 / p). */
static inline uint64_t shoup32(uint64_t x, uint64_t w, uint64_t wsh, uint64_t p) {
    return x * w - ((x * wsh) >> 32) * p;
}

/* DIT stages of one row, Harvey lazy: values stay in [0, 4p). */
static void dit_stages(uint64_t *row, const uint64_t *tw, const uint64_t *tw_sh,
                       uint64_t p, long n) {
    const uint64_t twop = 2 * p;
    for (long half = 1; half < n; half <<= 1) {
        const uint64_t *w = tw + (half - 1), *wsh = tw_sh + (half - 1);
        for (long block = 0; block < n; block += 2 * half) {
            uint64_t *even = row + block, *odd = even + half;
            for (long j = 0; j < half; ++j) {
                uint64_t x = even[j];
                if (x >= twop) x -= twop;
                const uint64_t t = shoup32(odd[j], w[j], wsh[j], p);
                even[j] = x + t;
                odd[j] = x + twop - t;
            }
        }
    }
}

static void transform_scalar(const ntt_call *c) {
    const long n = c->n;
    const int64_t *perm = c->perm;
    for (long i = 0; i < c->k; ++i) {
        const uint64_t p = c->p[i], twop = 2 * p;
        const uint64_t *tw = c->tw + i * (n - 1), *tw_sh = c->tw_sh + i * (n - 1);
        for (long b = 0; b < c->B; ++b) {
            const uint64_t *in = c->src + (i * c->B + b) * n;
            uint64_t *row = c->dst + (i * c->B + b) * n;
            /* bit-reverse gather, fused with the psi premultiply -> [0, 2p) */
            if (c->pre) {
                const uint64_t *pre = c->pre + i * n, *pre_sh = c->pre_sh + i * n;
                for (long j = 0; j < n; ++j)
                    row[j] = shoup32(in[perm[j]], pre[j], pre_sh[j], p);
            } else {
                for (long j = 0; j < n; ++j)
                    row[j] = in[perm[j]];
            }
            dit_stages(row, tw, tw_sh, p, n);
            /* single deferred reduction into [0, p), after the inverse scale */
            for (long j = 0; j < n; ++j) {
                uint64_t x = row[j];
                if (x >= twop) x -= twop;
                if (c->post) x = shoup32(x, c->post[i * n + j], c->post_sh[i * n + j], p);
                if (x >= p) x -= p;
                row[j] = x;
            }
        }
    }
}

#ifdef NTT_X86

/* Lane helpers.  Every lane value is below 2^32, so its upper half is 0
 * and 32-bit subtraction and unsigned min act on the value alone. */
#define NTT_AVX512_FN __attribute__((target("avx512f")))
#define NTT_AVX2_FN __attribute__((target("avx2")))

NTT_AVX512_FN static inline __m512i load8(const void *a) {
    return _mm512_loadu_si512(a);
}

NTT_AVX512_FN static inline void store8(uint64_t *a, __m512i v) {
    _mm512_storeu_si512((void *)a, v);
}

NTT_AVX512_FN static inline __m512i shoup8(__m512i x, __m512i w, __m512i wsh, __m512i p) {
    const __m512i q = _mm512_srli_epi64(_mm512_mul_epu32(x, wsh), 32);
    return _mm512_sub_epi64(_mm512_mul_epu32(x, w), _mm512_mul_epu32(q, p));
}

/* x - m where x >= m, else x (0 < m < 2^32): below m the 32-bit difference
 * wraps above x. */
NTT_AVX512_FN static inline __m512i csub8(__m512i x, __m512i m) {
    return _mm512_min_epu32(x, _mm512_sub_epi32(x, m));
}

/* Harvey butterfly: e, o in [0, 4p) -> x + t, x + 2p - t with x = e and
 * t = o * w, each lazily below 2p. */
NTT_AVX512_FN static inline void bfly8(__m512i *e, __m512i *o, __m512i w, __m512i wsh,
                                       __m512i p, __m512i twop) {
    const __m512i x = csub8(*e, twop);
    const __m512i t = shoup8(*o, w, wsh, p);
    *e = _mm512_add_epi64(x, t);
    *o = _mm512_sub_epi64(_mm512_add_epi64(x, twop), t);
}

/* Stages of half-width h = 2^s < 8 (s = 0, 1, 2) run on 16-element chunks
 * held in two registers.  Stage s regroups the previous registers into
 * (E, O): E lane k holds element even_of(s, k), O lane k its partner
 * even_of(s, k) + h.  slot_of(s, m) is where element m then sits in the
 * concatenation E|O -- the index _mm512_permutex2var_epi64 takes. */
static inline int64_t even_of(int s, int64_t k) {
    return ((k >> s) << (s + 1)) | (k & ((1 << s) - 1));
}

static inline int64_t slot_of(int s, int64_t m) {
    const int64_t at = ((m >> (s + 1)) << s) | (m & ((1 << s) - 1));
    return ((m >> s) & 1) ? 8 + at : at;
}

NTT_AVX512_FN static void transform_avx512(const ntt_call *c) {
    const long n = c->n, half_n = n / 2;
    /* take[s]: (E, O) of stage s from the registers of stage s - 1 (the
     * chunk in element order for s = 0); back: element order again. */
    __m512i take_e[3], take_o[3], back_a, back_b;
    for (int s = 0; s < 3; ++s) {
        int64_t e[8], o[8];
        for (int64_t k = 0; k < 8; ++k) {
            const int64_t even = even_of(s, k);
            e[k] = s ? slot_of(s - 1, even) : even;
            o[k] = s ? slot_of(s - 1, even + (1 << s)) : even + 1;
        }
        take_e[s] = load8(e);
        take_o[s] = load8(o);
    }
    {
        int64_t a[16];
        for (int64_t m = 0; m < 16; ++m)
            a[m] = slot_of(2, m);
        back_a = load8(a);
        back_b = load8(a + 8);
    }
    for (long i = 0; i < c->k; ++i) {
        const __m512i p = _mm512_set1_epi64((long long)c->p[i]);
        const __m512i twop = _mm512_add_epi64(p, p);
        const uint64_t *tw = c->tw + i * (n - 1), *tw_sh = c->tw_sh + i * (n - 1);
        const uint64_t *pre = c->pre ? c->pre + i * n : NULL;
        const uint64_t *pre_sh = c->pre ? c->pre_sh + i * n : NULL;
        const uint64_t *post = c->post ? c->post + i * n : NULL;
        const uint64_t *post_sh = c->post ? c->post_sh + i * n : NULL;
        /* twiddles of the in-register stages s = 1, 2 (stage 0's is 1):
         * E lane k holds block position k mod h */
        __m512i sw[3], swsh[3];
        for (int s = 1; s < 3; ++s) {
            const long h = 1L << s;
            uint64_t w[8], wsh[8];
            for (long k = 0; k < 8; ++k) {
                w[k] = tw[h - 1 + (k & (h - 1))];
                wsh[k] = tw_sh[h - 1 + (k & (h - 1))];
            }
            sw[s] = load8(w);
            swsh[s] = load8(wsh);
        }
        for (long b = 0; b < c->B; ++b) {
            const uint64_t *in = c->src + (i * c->B + b) * n;
            uint64_t *row = c->dst + (i * c->B + b) * n;
            for (long j = 0; j < n; j += 16) {
                __m512i ra = _mm512_i64gather_epi64(load8(c->perm + j), (const void *)in, 8);
                __m512i rb = _mm512_i64gather_epi64(load8(c->perm + j + 8), (const void *)in, 8);
                if (pre) {
                    ra = shoup8(ra, load8(pre + j), load8(pre_sh + j), p);
                    rb = shoup8(rb, load8(pre + j + 8), load8(pre_sh + j + 8), p);
                }
                for (int s = 0; s < 3; ++s) {
                    __m512i e = _mm512_permutex2var_epi64(ra, take_e[s], rb);
                    __m512i o = _mm512_permutex2var_epi64(ra, take_o[s], rb);
                    if (s) {
                        bfly8(&e, &o, sw[s], swsh[s], p, twop);
                    } else {
                        /* twiddle 1, operands still below 2p */
                        const __m512i x = e;
                        e = _mm512_add_epi64(x, o);
                        o = _mm512_sub_epi64(_mm512_add_epi64(x, twop), o);
                    }
                    ra = e;
                    rb = o;
                }
                store8(row + j, _mm512_permutex2var_epi64(ra, back_a, rb));
                store8(row + j + 8, _mm512_permutex2var_epi64(ra, back_b, rb));
            }
            for (long half = 8; half < half_n; half <<= 1) {
                const uint64_t *w = tw + (half - 1), *wsh = tw_sh + (half - 1);
                for (long block = 0; block < n; block += 2 * half) {
                    uint64_t *even = row + block, *odd = even + half;
                    for (long j = 0; j < half; j += 8) {
                        __m512i e = load8(even + j), o = load8(odd + j);
                        bfly8(&e, &o, load8(w + j), load8(wsh + j), p, twop);
                        store8(even + j, e);
                        store8(odd + j, o);
                    }
                }
            }
            /* last stage, fused with the inverse scale and the reduction */
            const uint64_t *w = tw + (half_n - 1), *wsh = tw_sh + (half_n - 1);
            for (long j = 0; j < half_n; j += 8) {
                __m512i e = load8(row + j), o = load8(row + half_n + j);
                bfly8(&e, &o, load8(w + j), load8(wsh + j), p, twop);
                e = csub8(e, twop);
                o = csub8(o, twop);
                if (post) {
                    e = shoup8(e, load8(post + j), load8(post_sh + j), p);
                    o = shoup8(o, load8(post + half_n + j), load8(post_sh + half_n + j), p);
                }
                store8(row + j, csub8(e, p));
                store8(row + half_n + j, csub8(o, p));
            }
        }
    }
}

NTT_AVX2_FN static inline __m256i load4(const void *a) {
    return _mm256_loadu_si256((const __m256i *)a);
}

NTT_AVX2_FN static inline void store4(uint64_t *a, __m256i v) {
    _mm256_storeu_si256((__m256i *)a, v);
}

NTT_AVX2_FN static inline __m256i shoup4(__m256i x, __m256i w, __m256i wsh, __m256i p) {
    const __m256i q = _mm256_srli_epi64(_mm256_mul_epu32(x, wsh), 32);
    return _mm256_sub_epi64(_mm256_mul_epu32(x, w), _mm256_mul_epu32(q, p));
}

NTT_AVX2_FN static inline __m256i csub4(__m256i x, __m256i m) {
    return _mm256_min_epu32(x, _mm256_sub_epi32(x, m));
}

NTT_AVX2_FN static inline void bfly4(__m256i *e, __m256i *o, __m256i w, __m256i wsh,
                                     __m256i p, __m256i twop) {
    const __m256i x = csub4(*e, twop);
    const __m256i t = shoup4(*o, w, wsh, p);
    *e = _mm256_add_epi64(x, t);
    *o = _mm256_sub_epi64(_mm256_add_epi64(x, twop), t);
}

/* The AVX-512 body at 4 lanes; its two narrow stages (h = 1, 2) pair lanes
 * of an 8-element chunk a|b with 64-bit unpacks and 128-bit swaps. */
NTT_AVX2_FN static void transform_avx2(const ntt_call *c) {
    const long n = c->n, half_n = n / 2;
    for (long i = 0; i < c->k; ++i) {
        const __m256i p = _mm256_set1_epi64x((long long)c->p[i]);
        const __m256i twop = _mm256_add_epi64(p, p);
        const uint64_t *tw = c->tw + i * (n - 1), *tw_sh = c->tw_sh + i * (n - 1);
        const uint64_t *pre = c->pre ? c->pre + i * n : NULL;
        const uint64_t *pre_sh = c->pre ? c->pre_sh + i * n : NULL;
        const uint64_t *post = c->post ? c->post + i * n : NULL;
        const uint64_t *post_sh = c->post ? c->post_sh + i * n : NULL;
        /* twiddles of h = 2: E holds block positions 0, 1, 0, 1 */
        const __m256i sw = _mm256_set_epi64x((long long)tw[2], (long long)tw[1],
                                             (long long)tw[2], (long long)tw[1]);
        const __m256i swsh = _mm256_set_epi64x((long long)tw_sh[2], (long long)tw_sh[1],
                                               (long long)tw_sh[2], (long long)tw_sh[1]);
        for (long b = 0; b < c->B; ++b) {
            const uint64_t *in = c->src + (i * c->B + b) * n;
            uint64_t *row = c->dst + (i * c->B + b) * n;
            const long long *base = (const long long *)in;
            for (long j = 0; j < n; j += 8) {
                __m256i ra = _mm256_i64gather_epi64(base, load4(c->perm + j), 8);
                __m256i rb = _mm256_i64gather_epi64(base, load4(c->perm + j + 4), 8);
                if (pre) {
                    ra = shoup4(ra, load4(pre + j), load4(pre_sh + j), p);
                    rb = shoup4(rb, load4(pre + j + 4), load4(pre_sh + j + 4), p);
                }
                /* h = 1: twiddle 1, operands still below 2p */
                __m256i e = _mm256_unpacklo_epi64(ra, rb), o = _mm256_unpackhi_epi64(ra, rb);
                const __m256i x = e;
                e = _mm256_add_epi64(x, o);
                o = _mm256_sub_epi64(_mm256_add_epi64(x, twop), o);
                ra = _mm256_unpacklo_epi64(e, o);
                rb = _mm256_unpackhi_epi64(e, o);
                /* h = 2 */
                e = _mm256_permute2x128_si256(ra, rb, 0x20);
                o = _mm256_permute2x128_si256(ra, rb, 0x31);
                bfly4(&e, &o, sw, swsh, p, twop);
                store4(row + j, _mm256_permute2x128_si256(e, o, 0x20));
                store4(row + j + 4, _mm256_permute2x128_si256(e, o, 0x31));
            }
            for (long half = 4; half < half_n; half <<= 1) {
                const uint64_t *w = tw + (half - 1), *wsh = tw_sh + (half - 1);
                for (long block = 0; block < n; block += 2 * half) {
                    uint64_t *even = row + block, *odd = even + half;
                    for (long j = 0; j < half; j += 4) {
                        __m256i e = load4(even + j), o = load4(odd + j);
                        bfly4(&e, &o, load4(w + j), load4(wsh + j), p, twop);
                        store4(even + j, e);
                        store4(odd + j, o);
                    }
                }
            }
            const uint64_t *w = tw + (half_n - 1), *wsh = tw_sh + (half_n - 1);
            for (long j = 0; j < half_n; j += 4) {
                __m256i e = load4(row + j), o = load4(row + half_n + j);
                bfly4(&e, &o, load4(w + j), load4(wsh + j), p, twop);
                e = csub4(e, twop);
                o = csub4(o, twop);
                if (post) {
                    e = shoup4(e, load4(post + j), load4(post_sh + j), p);
                    o = shoup4(o, load4(post + half_n + j), load4(post_sh + half_n + j), p);
                }
                store4(row + j, csub4(e, p));
                store4(row + half_n + j, csub4(o, p));
            }
        }
    }
}

#endif /* NTT_X86 */

/* Runs the widest body at or below `isa` that this CPU supports and that
 * fills two vectors per chunk (n >= 16 lanes for AVX-512, 8 for AVX2). */
static void ntt_dispatch(const ntt_call *c, long isa) {
    const long top = ntt_isa_max();
    if (isa > top)
        isa = top;
#ifdef NTT_X86
    if (isa >= NTT_AVX512 && c->n >= 16) {
        transform_avx512(c);
        return;
    }
    if (isa >= NTT_AVX2 && c->n >= 8) {
        transform_avx2(c);
        return;
    }
#endif
    transform_scalar(c);
}

/* Forward transform of a (k, B, n) residue stack src into dst (see
 * ntt_call; psi/psi_sh are the premultiply tables). */
void ntt_forward(const uint64_t *src, uint64_t *dst, const int64_t *perm,
                 const uint64_t *psi, const uint64_t *psi_sh,
                 const uint64_t *tw, const uint64_t *tw_sh,
                 const uint64_t *p_arr, long k, long B, long n, long isa) {
    const ntt_call c = {src, dst, perm, psi, psi_sh, tw, tw_sh, NULL, NULL, p_arr, k, B, n};
    ntt_dispatch(&c, isa);
}

/* Inverse transform: DIT stages with inverse twiddles, then one fused
 * multiply by n^-1 * psi^-j (iscale tables), natural order output. */
void ntt_inverse(const uint64_t *src, uint64_t *dst, const int64_t *perm,
                 const uint64_t *iscale, const uint64_t *iscale_sh,
                 const uint64_t *tw, const uint64_t *tw_sh,
                 const uint64_t *p_arr, long k, long B, long n, long isa) {
    const ntt_call c = {src, dst, perm, NULL, NULL, tw, tw_sh, iscale, iscale_sh, p_arr, k, B, n};
    ntt_dispatch(&c, isa);
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

/* One rotation of a keyswitch_rotate call: one member's digits and c0
 * under one Galois element and its key.  Residue rows are contiguous runs
 * of n; the digit, c0 and output strides are shared by every job of a
 * call, the key's limb stride is its own (a key may carry more digit
 * pairs than the call uses). */
typedef struct {
    const uint64_t *digits;   /* (k, T, n) digit rows at xs_k / xs_t */
    const uint64_t *c0;       /* (k, n) rows at cs_k */
    const int64_t *gather;    /* Galois eval map g, n indices into [0, n) */
    const uint32_t *key0;     /* key body half in g's slot order, (k, >= T, */
    const uint32_t *key1;     /* n) rows at key_limb / n; key1 is the a half */
    uint64_t *out0, *out1;    /* (k, n) rows at os_k */
    int64_t key_limb;
} ks_job;

/* One limb of one job, with the strides every job of a call shares and
 * the call's scratch: the limb's two sums in slot order, n words each. */
typedef struct {
    const uint64_t *x, *c0;
    const uint32_t *a, *b;
    long xs_t, T, n;
    uint32_t *sum0, *sum1;
} ks_limb;

/* Reduction of a 64-bit accumulator acc = hi 2^32 + lo modulo p < 2^30 with
 * 32 x 32 -> 64-bit products only: hi (2^32 mod p) and lo each by Shoup,
 * both in [0, 2p), then two conditional subtracts -- the canonical residue,
 * as a Barrett reduction would give it. */
typedef struct {
    uint64_t p, r32, r32_sh, one_sh;
    long chunk;
} ks_mod;

static ks_mod ks_mod_of(uint64_t p) {
    const uint64_t r32 = ((uint64_t)1 << 32) % p;
    const ks_mod m = {p, r32, (r32 << 32) / p, ((uint64_t)1 << 32) / p, mac_chunk(p)};
    return m;
}

static inline uint64_t ks_reduce(uint64_t acc, const ks_mod *m) {
    uint64_t r = shoup32(acc >> 32, m->r32, m->r32_sh, m->p)
               + shoup32(acc & 0xffffffffu, 1, m->one_sh, m->p);
    if (r >= 2 * m->p) r -= 2 * m->p;
    return r >= m->p ? r - m->p : r;
}

/* Slots [from, n) of the sums: sum0 = c0 + sum_t x_t key0_t, sum1 =
 * sum_t x_t key1_t, reduced; per tile of slots the terms run outermost. */
static void ks_sums_scalar(const ks_limb *l, const ks_mod *m, long from) {
    uint64_t acc0[MAC_TILE], acc1[MAC_TILE];
    for (long j0 = from; j0 < l->n; j0 += MAC_TILE) {
        const long width = l->n - j0 < MAC_TILE ? l->n - j0 : MAC_TILE;
        memset(acc0, 0, sizeof acc0);
        memset(acc1, 0, sizeof acc1);
        for (long t = 0; t < l->T; ++t) {
            const uint64_t *xr = l->x + t * l->xs_t + j0;
            const uint32_t *ar = l->a + t * l->n + j0, *br = l->b + t * l->n + j0;
            if (t && t % m->chunk == 0) {
                for (long j = 0; j < width; ++j) {
                    acc0[j] = ks_reduce(acc0[j], m);
                    acc1[j] = ks_reduce(acc1[j], m);
                }
            }
            for (long j = 0; j < width; ++j) {
                acc0[j] += mul_residues(xr[j], ar[j]);
                acc1[j] += mul_residues(xr[j], br[j]);
            }
        }
        for (long j = 0; j < width; ++j) {
            const uint64_t s = l->c0[j0 + j] + ks_reduce(acc0[j], m);
            l->sum0[j0 + j] = (uint32_t)(s >= m->p ? s - m->p : s);
            l->sum1[j0 + j] = (uint32_t)ks_reduce(acc1[j], m);
        }
    }
}

/* Outputs [from, n): the Swap, out[j] = sum[g(j)]. */
static void ks_gather_scalar(const ks_limb *l, const int64_t *g,
                             uint64_t *o0, uint64_t *o1, long from) {
    for (long j = from; j < l->n; ++j) {
        o0[j] = l->sum0[g[j]];
        o1[j] = l->sum1[g[j]];
    }
}

#ifdef NTT_X86

NTT_AVX512_FN static inline __m512i ks_reduce8(__m512i acc, __m512i p, __m512i twop,
                                               __m512i r32, __m512i r32_sh, __m512i one_sh) {
    const __m512i lo = _mm512_and_si512(acc, _mm512_set1_epi64(0xffffffff));
    const __m512i q = _mm512_srli_epi64(_mm512_mul_epu32(acc, one_sh), 32);
    __m512i r = shoup8(_mm512_srli_epi64(acc, 32), r32, r32_sh, p);
    r = _mm512_add_epi64(r, _mm512_sub_epi64(lo, _mm512_mul_epu32(q, p)));
    r = _mm512_min_epu64(r, _mm512_sub_epi64(r, twop));
    return _mm512_min_epu64(r, _mm512_sub_epi64(r, p));
}

/* ks_sums_scalar at 8 slots per vector, the accumulators in registers
 * across the terms; returns the slots done (n rounded down to 8). */
NTT_AVX512_FN static long ks_sums_avx512(const ks_limb *l, const ks_mod *m) {
    const __m512i p = _mm512_set1_epi64((long long)m->p), twop = _mm512_add_epi64(p, p);
    const __m512i r32 = _mm512_set1_epi64((long long)m->r32);
    const __m512i r32_sh = _mm512_set1_epi64((long long)m->r32_sh);
    const __m512i one_sh = _mm512_set1_epi64((long long)m->one_sh);
    long j = 0;
    for (; j + 8 <= l->n; j += 8) {
        __m512i acc0 = _mm512_setzero_si512(), acc1 = _mm512_setzero_si512();
        for (long t0 = 0; t0 < l->T; t0 += m->chunk) {
            if (t0) {
                acc0 = ks_reduce8(acc0, p, twop, r32, r32_sh, one_sh);
                acc1 = ks_reduce8(acc1, p, twop, r32, r32_sh, one_sh);
            }
            const long t1 = l->T - t0 < m->chunk ? l->T : t0 + m->chunk;
            for (long t = t0; t < t1; ++t) {
                const __m512i x = load8(l->x + t * l->xs_t + j);
                const __m512i a = _mm512_cvtepu32_epi64(
                    _mm256_loadu_si256((const __m256i *)(l->a + t * l->n + j)));
                const __m512i b = _mm512_cvtepu32_epi64(
                    _mm256_loadu_si256((const __m256i *)(l->b + t * l->n + j)));
                acc0 = _mm512_add_epi64(acc0, _mm512_mul_epu32(x, a));
                acc1 = _mm512_add_epi64(acc1, _mm512_mul_epu32(x, b));
            }
        }
        __m512i s = _mm512_add_epi64(load8(l->c0 + j),
                                     ks_reduce8(acc0, p, twop, r32, r32_sh, one_sh));
        s = _mm512_min_epu64(s, _mm512_sub_epi64(s, p));
        _mm256_storeu_si256((__m256i *)(l->sum0 + j), _mm512_cvtepi64_epi32(s));
        _mm256_storeu_si256((__m256i *)(l->sum1 + j), _mm512_cvtepi64_epi32(
            ks_reduce8(acc1, p, twop, r32, r32_sh, one_sh)));
    }
    return j;
}

NTT_AVX512_FN static long ks_gather_avx512(const ks_limb *l, const int64_t *g,
                                           uint64_t *o0, uint64_t *o1) {
    long j = 0;
    for (; j + 8 <= l->n; j += 8) {
        const __m512i at = load8(g + j);
        store8(o0 + j, _mm512_cvtepu32_epi64(_mm512_i64gather_epi32(at, l->sum0, 4)));
        store8(o1 + j, _mm512_cvtepu32_epi64(_mm512_i64gather_epi32(at, l->sum1, 4)));
    }
    return j;
}

#endif /* NTT_X86 */

/* HE_Rotate's SIMDmult and the Swap of c0, for every job of a layer call.
 * A key is stored in the slot order of the digits it multiplies (key[t,
 * g(j)] is slot j of the key, repro.bfv.keys), so the sums run over
 * contiguous rows and only the outputs are gathered:
 *
 *   A_h[i, m]  = sum_t x[i, t, m] * key_h[i, t, m]           mod p_i
 *   out0[i, j] = c0[i, g(j)] + A_0[i, g(j)]                   mod p_i
 *   out1[i, j] = A_1[i, g(j)]
 *
 * with g the job's eval map.  `scratch` holds 2n words (one limb's sums);
 * `isa` picks the body as for the NTT: AVX-512F, else scalar.  Key
 * residues are 32-bit words (see the file header).
 */
void keyswitch_rotate(const ks_job *jobs, long count,
                      long xs_k, long xs_t, long cs_k, long os_k,
                      const uint64_t *p_arr, long k, long T, long n,
                      uint32_t *scratch, long isa) {
#ifdef NTT_X86
    const int wide = isa >= NTT_AVX512 && ntt_isa_max() >= NTT_AVX512;
#else
    (void)isa;
#endif
    for (long r = 0; r < count; ++r) {
        const ks_job *job = jobs + r;
        for (long i = 0; i < k; ++i) {
            const ks_mod m = ks_mod_of(p_arr[i]);
            const ks_limb l = {
                job->digits + i * xs_k, job->c0 + i * cs_k,
                job->key0 + i * job->key_limb, job->key1 + i * job->key_limb,
                xs_t, T, n, scratch, scratch + n,
            };
            uint64_t *o0 = job->out0 + i * os_k, *o1 = job->out1 + i * os_k;
            long sums = 0, gathered = 0;
#ifdef NTT_X86
            if (wide) sums = ks_sums_avx512(&l, &m);
#endif
            ks_sums_scalar(&l, &m, sums);
#ifdef NTT_X86
            if (wide) gathered = ks_gather_avx512(&l, job->gather, o0, o1);
#endif
            ks_gather_scalar(&l, job->gather, o0, o1, gathered);
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

/* The engine sends bases beyond these to the word-level references, which
 * have no limit. */
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
