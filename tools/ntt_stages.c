/* Per-stage harness for the kernel's transform bodies and rns_hoist
 * (src/repro/bfv/_ntt_kernel.c), included the way tools/lanes_tsan.c
 * includes it.  Two modes:
 *
 *   check   first ntt_forward / ntt_inverse on every NTT body the CPU has
 *           against a direct O(n^2) negacyclic evaluation, on a ring that
 *           reaches every vector pass (n = 64, a 30-bit and a 25-bit limb,
 *           B = 3); mac_weights' AVX-512F body against its cloned loops,
 *           and crc32_bytes and its table loop against a bitwise CRC;
 *           then rns_hoist against ntt_inverse -> the cloned loops'
 *           column-wise Decompose -> ntt_forward run one after another,
 *           byte for byte (so the AVX-512F Decompose is checked against
 *           them): every body, both hoist schedules (one member per item,
 *           and stage at a time on a split team), B in {1, 3, 8}, a
 *           direct and a reduced base, with c1 and out on a cache line
 *           and one element past it.  Prints "ok", or exits 1 on a
 *           difference.
 *   (none)  timings, per body the CPU has: the forward's front pass (plain
 *           loads and the premultiply), each DIT stage and the last; the
 *           Gentleman-Sande inverse's wide stages and its narrow stages
 *           with the scale; the scalar bit-reverse pass of the standalone
 *           calls, and a whole one-row ntt_forward and ntt_inverse (the
 *           pass plus the body); then one hoist member on one lane under
 *           each schedule, with out on a cache line and 16 bytes past it.
 *           A pass is timed on one L1-resident row, the median of RUNS
 *           batches; "tsc/vbf" is time-stamp-counter ticks per vector
 *           butterfly (8 residue pairs on AVX-512, 4 on AVX2, 1 scalar),
 *           equal to core cycles only at the nominal clock.
 *
 * The timed parameters are the served set: k = 4 limbs of 25 bits,
 * n = 2048, l_ct = 7 digits of 16 bits.  The tables are laid out as
 * repro.bfv.ntt_batch.RnsNttEngine._init_native lays them out.  Build and
 * run from the repository root (the kernel-sanitize CI job runs check):
 *
 *   cc -O3 -pthread -Wall -Wextra -Werror tools/ntt_stages.c -o ntt_stages
 *   ./ntt_stages check && taskset -c 0 ./ntt_stages
 */
#include "../src/repro/bfv/_ntt_kernel.c"

#include <stdio.h>
#include <time.h>
#ifdef NTT_X86
#include <x86intrin.h>
#endif

enum { K = 4, N = 2048, W = 4, BMAX = 8, RUNS = 9 };

/* One ring's tables, laid out as the engine's: each (k, n) on a cache
 * line (perm is (n)), every *_sh the 32-bit Shoup quotients; roots[i] is
 * the psi of limb i, a primitive 2n-th root of unity. */
typedef struct {
    long k, n;
    uint64_t moduli[K], roots[K];
    int64_t *perm;
    uint64_t *psi, *psi_sh, *tw, *tw_sh, *itw, *itw_sh, *iscale, *iscale_sh;
} ring;

/* The served ring; the tables below are its. */
static ring served;
static uint64_t *const moduli = served.moduli;
static int64_t *perm;
static uint64_t *psi, *psi_sh, *tw, *tw_sh, *itw, *itw_sh, *iscale, *iscale_sh;
static uint64_t ginv[K * K], ginv_sh[K * K], lift[K];

static uint64_t pow_mod(uint64_t b, uint64_t e, uint64_t p) {
    uint64_t r = 1;
    for (b %= p; e; e >>= 1, b = b * b % p)
        if (e & 1)
            r = r * b % p;
    return r;
}

static int is_prime(uint64_t p) {
    for (uint64_t d = 2; d * d <= p; ++d)
        if (p % d == 0)
            return 0;
    return p > 1;
}

/* Room for a (k, n) table of r and its Shoup quotients. */
static void alloc_table(const ring *r, uint64_t **table, uint64_t **sh) {
    *table = alloc_lines(r->k * r->n * sizeof(uint64_t));
    *sh = alloc_lines(r->k * r->n * sizeof(uint64_t));
}

static void shoup_of(const ring *r, const uint64_t *t, uint64_t *sh) {
    for (long i = 0; i < r->k; ++i)
        for (long j = 0; j < r->n; ++j)
            sh[i * r->n + j] = (t[i * r->n + j] << 32) / r->moduli[i];
}

/* A ring of k limbs of n residues, limb i the largest prime p = 1 mod 2n
 * below 2^bits[i] not taken by an earlier limb. */
static void ring_of(ring *r, long k, long n, const int *bits) {
    const long N2 = 2 * n;
    long log_n = 0;
    while ((1L << log_n) < n)
        ++log_n;
    r->k = k, r->n = n;
    r->perm = alloc_lines(n * sizeof *r->perm);
    for (long j = 0; j < n; ++j) {
        r->perm[j] = 0;
        for (long b = 0; b < log_n; ++b)
            r->perm[j] |= ((j >> b) & 1) << (log_n - 1 - b);
    }
    alloc_table(r, &r->psi, &r->psi_sh), alloc_table(r, &r->tw, &r->tw_sh);
    alloc_table(r, &r->itw, &r->itw_sh), alloc_table(r, &r->iscale, &r->iscale_sh);
    for (long i = 0; i < k; ++i) {
        uint64_t p = ((1u << bits[i]) - 1) / N2 * N2 + 1;
        for (;; p -= N2) {
            int taken = 0;
            for (long t = 0; t < i; ++t)
                taken |= r->moduli[t] == p;
            if (!taken && is_prime(p))
                break;
        }
        r->moduli[i] = p;
        uint64_t root = 0;
        for (uint64_t x = 2; !root; ++x)
            if (pow_mod(pow_mod(x, (p - 1) / N2, p), n, p) == p - 1)
                root = pow_mod(x, (p - 1) / N2, p);
        r->roots[i] = root;
        const uint64_t inv_root = pow_mod(root, p - 2, p), n_inv = pow_mod(n, p - 2, p);
        const uint64_t omega = root * root % p, inv_omega = inv_root * inv_root % p;
        uint64_t *t = r->tw + i * n, *it = r->itw + i * n;
        t[0] = it[0] = 0;
        for (long h = 1; h < n; h <<= 1)
            for (long j = 0; j < h; ++j) {
                t[h + j] = pow_mod(omega, (uint64_t)(j * (n / (2 * h))), p);
                it[h + j] = pow_mod(inv_omega, (uint64_t)(j * (n / (2 * h))), p);
            }
        for (long j = 0; j < n; ++j) {
            r->psi[i * n + j] = pow_mod(root, (uint64_t)r->perm[j], p);
            r->iscale[i * n + j] = n_inv * pow_mod(inv_root, (uint64_t)r->perm[j], p) % p;
        }
    }
    shoup_of(r, r->psi, r->psi_sh), shoup_of(r, r->tw, r->tw_sh);
    shoup_of(r, r->itw, r->itw_sh), shoup_of(r, r->iscale, r->iscale_sh);
}

static void setup(void) {
    static const int bits[K] = {25, 25, 25, 25};
    ring_of(&served, K, N, bits);
    perm = served.perm, psi = served.psi, psi_sh = served.psi_sh, tw = served.tw;
    tw_sh = served.tw_sh, itw = served.itw, itw_sh = served.itw_sh;
    iscale = served.iscale, iscale_sh = served.iscale_sh;
    for (long i = 0; i < K; ++i) {
        for (long j = 0; j < i; ++j) {
            ginv[i * K + j] = pow_mod(moduli[j], moduli[i] - 2, moduli[i]);
            ginv_sh[i * K + j] = (ginv[i * K + j] << 32) / moduli[i];
        }
        lift[i] = (((uint64_t)1 << 30) + moduli[i] - 1) / moduli[i] * moduli[i];
    }
}

static uint64_t state = 0x9e3779b97f4a7c15u;

/* Random residues: `rows` rows of n under each of the first k limbs. */
static void fill(uint64_t *a, long k, long rows) {
    for (long i = 0; i < k; ++i)
        for (long j = 0; j < rows * N; ++j) {
            state ^= state << 13, state ^= state >> 7, state ^= state << 17;
            a[i * rows * N + j] = state % moduli[i];
        }
}

static void hoist(const uint64_t *c1, uint64_t *out, long B, long L, long bits, long isa) {
    rns_hoist(c1, out, psi, psi_sh, tw, tw_sh, iscale, iscale_sh, itw, itw_sh,
              moduli, ginv, ginv_sh, lift, K, B, N, W, L, bits, isa);
}

/* ntt_inverse, Decompose column by column, each limb's reduction, ntt_forward. */
static void reference(const uint64_t *c1, uint64_t *out, long B, long L, long bits, long isa) {
    uint64_t *coeff = alloc_lines(K * B * N * 8), *digits = alloc_lines(L * N * 8);
    uint64_t *rows = alloc_lines(L * N * 8);
    const hoist_call h = {.g = {moduli, ginv, ginv_sh, lift, K, W}, .B = B, .n = N, .L = L,
                          .base_bits = bits};
    ntt_inverse(c1, coeff, perm, iscale, iscale_sh, itw, itw_sh, moduli, K, B, N, isa);
    for (long b = 0; b < B; ++b) {
        for (long j0 = 0; j0 < N; j0 += SPLIT_BLOCK)
            decompose_block_loops(&h, coeff + b * N, B * N, digits, j0);
        for (long i = 0; i < K; ++i) {
            for (long j = 0; j < L * N; ++j)
                rows[j] = digits[j] % moduli[i];
            ntt_forward(rows, out + (i * B + b) * L * N, perm, psi + i * N, psi_sh + i * N,
                        tw + i * N, tw_sh + i * N, moduli + i, 1, L, N, isa);
        }
    }
    free(coeff), free(digits), free(rows);
}

/* sum_i a[i] x^i mod p, by Horner. */
static uint64_t eval_at(const uint64_t *a, long n, uint64_t x, uint64_t p) {
    uint64_t v = 0;
    for (long i = n - 1; i >= 0; --i)
        v = (v * x + a[i]) % p;
    return v;
}

/* ntt_forward and ntt_inverse of every body against the negacyclic
 * transform evaluated directly: forward row j is a(psi^(2j + 1)), and the
 * inverse's coefficient i is n^-1 sum_j A_j psi^-(2j + 1) i. */
static int check_direct(void) {
    enum { RN = 64, RK = 2, RB = 3 };
    static const int bits[RK] = {30, 25};
    ring r;
    ring_of(&r, RK, RN, bits);
    uint64_t *a = alloc_lines(RK * RB * RN * 8), *want = alloc_lines(RK * RB * RN * 8);
    uint64_t *got = alloc_lines(RK * RB * RN * 8);
    int failed = 0;
    for (int forward = 0; forward < 2; ++forward) {
        for (long i = 0; i < RK; ++i) {
            const uint64_t p = r.moduli[i], psi = r.roots[i];
            const uint64_t ipsi = pow_mod(psi, p - 2, p), n_inv = pow_mod(RN, p - 2, p);
            for (long b = 0; b < RB; ++b) {
                const uint64_t *x = a + (i * RB + b) * RN;
                uint64_t *y = want + (i * RB + b) * RN;
                for (long j = 0; j < RN; ++j) {
                    state ^= state << 13, state ^= state >> 7, state ^= state << 17;
                    a[(i * RB + b) * RN + j] = j < 2 ? p - 1 - j : state % p; /* the edges too */
                }
                for (long j = 0; j < RN; ++j) {
                    if (forward) {
                        y[j] = eval_at(x, RN, pow_mod(psi, 2 * j + 1, p), p);
                        continue;
                    }
                    uint64_t sum = 0; /* coefficient j of x read as evaluations */
                    for (long m = 0; m < RN; ++m)
                        sum = (sum + x[m] * pow_mod(ipsi, (2 * m + 1) * j % (2 * RN), p)) % p;
                    y[j] = sum * n_inv % p;
                }
            }
        }
        for (long isa = 0; isa <= ntt_isa_max(); ++isa) {
            memset(got, 0xff, RK * RB * RN * 8);
            if (forward)
                ntt_forward(a, got, r.perm, r.psi, r.psi_sh, r.tw, r.tw_sh, r.moduli, RK, RB, RN,
                            isa);
            else
                ntt_inverse(a, got, r.perm, r.iscale, r.iscale_sh, r.itw, r.itw_sh, r.moduli, RK,
                            RB, RN, isa);
            if (memcmp(got, want, RK * RB * RN * 8)) {
                fprintf(stderr, "isa %ld: %s differs from the direct transform\n", isa,
                        forward ? "ntt_forward" : "ntt_inverse");
                failed = 1;
            }
        }
    }
    free(a), free(want), free(got);
    free(r.perm), free(r.psi), free(r.psi_sh), free(r.tw), free(r.tw_sh);
    free(r.itw), free(r.itw_sh), free(r.iscale), free(r.iscale_sh);
    return failed;
}

/* mac_weights' AVX-512F body against its cloned loops (isa 0), byte for
 * byte: a 30-bit limb (16 products per reduction, so T = 17 and 18 reduce
 * mid-sum) and a 25-bit one, residues at p - 1 and random, every member
 * group size and a partial last one. */
static int check_mac(void) {
    enum { RN = 64, RK = 2, MB = 5, MO = 3, MT = 18 };
    static const int bits[RK] = {30, 25};
    static const long shapes[][3] = {{1, 1, 1}, {1, 3, 9}, {2, 2, 17}, {3, 1, 18}, {5, 3, 18}};
    ring r;
    ring_of(&r, RK, RN, bits);
    const long xs = MB * MT * RN, ws = MO * MT * RN, os = RK * MB * MO * RN;
    uint64_t *x = alloc_lines(2 * RK * xs * 8), *w = alloc_lines(RK * ws * 8);
    uint64_t *want = alloc_lines(2 * os * 8), *got = alloc_lines(2 * os * 8);
    int failed = 0;
    for (long i = 0; i < RK; ++i) {
        for (long j = 0; j < 2 * xs; ++j) {
            state ^= state << 13, state ^= state >> 7, state ^= state << 17;
            x[i * 2 * xs + j] = j % 3 ? state % r.moduli[i] : r.moduli[i] - 1;
        }
        for (long j = 0; j < ws; ++j) {
            state ^= state << 13, state ^= state >> 7, state ^= state << 17;
            w[i * ws + j] = j % 5 ? state % r.moduli[i] : r.moduli[i] - 1;
        }
    }
    for (unsigned c = 0; c < sizeof shapes / sizeof *shapes; ++c) {
        const long B = shapes[c][0], O = shapes[c][1], T = shapes[c][2];
        for (long isa = 0; isa <= ntt_isa_max(); ++isa) {
            uint64_t *out = isa ? got : want;
            memset(out, 0xff, 2 * os * 8);
            mac_weights(out, out + os, x, x + xs, 2 * xs, T * RN, RN, w, ws, T * RN, RN,
                        r.moduli, RK, B, O, T, RN, isa);
            if (isa && memcmp(got, want, 2 * os * 8)) {
                fprintf(stderr, "mac_weights isa %ld, B %ld O %ld T %ld differs\n", isa, B, O, T);
                failed = 1;
            }
        }
    }
    free(x), free(w), free(want), free(got);
    free(r.perm), free(r.psi), free(r.psi_sh), free(r.tw), free(r.tw_sh);
    free(r.itw), free(r.itw_sh), free(r.iscale), free(r.iscale_sh);
    return failed;
}

/* crc32_bytes, and the table loop alone (the path of a host without
 * PCLMULQDQ), against a CRC computed bit by bit: every length to 700 at
 * every offset to 15, one long run, and a chained call. */
static int check_crc(void) {
    enum { LONG_RUN = 70000 };
    uint8_t *buf = malloc(LONG_RUN + 16);
    int failed = 0;
    for (long j = 0; j < LONG_RUN + 16; ++j) {
        state ^= state << 13, state ^= state >> 7, state ^= state << 17;
        buf[j] = (uint8_t)state;
    }
    pthread_once(&crc_once, crc_init);
    for (long off = 0; off < 16; ++off)
        for (long len = 0; len <= 700; len = len < 700 ? len + 1 : LONG_RUN) {
            uint32_t c = ~0u;
            for (long j = 0; j < len; ++j) {
                c ^= buf[off + j];
                for (int bit = 0; bit < 8; ++bit)
                    c = c >> 1 ^ (0xEDB88320u & (0u - (c & 1)));
            }
            const long want = (long)(uint32_t)~c, half = len / 2;
            if (crc32_bytes(buf + off, len, 0) != want
                || (long)(uint32_t)~crc_bytes_table(~0u, buf + off, len) != want
                || crc32_bytes(buf + off + half, len - half, crc32_bytes(buf + off, half, 0))
                       != want) {
                fprintf(stderr, "crc32_bytes differs at offset %ld, length %ld\n", off, len);
                failed = 1;
            }
            if (len == LONG_RUN)
                break;
        }
    free(buf);
    return failed;
}

static int check(void) {
    static const long bases[2][2] = {{16, 7}, {30, 4}}; /* direct; 30 bits > p: reduced */
    static const long members[3] = {1, 3, BMAX};
    uint64_t *c1 = alloc_lines((K * BMAX * N + 8) * 8), *want = alloc_lines(K * BMAX * 7 * N * 8);
    uint64_t *got = alloc_lines((K * BMAX * 7 * N + 8) * 8);
    int failed = check_direct() | check_mac() | check_crc();
    for (long isa = 0; isa <= ntt_isa_max(); ++isa)
        for (int lanes = 1; lanes <= 2; ++lanes) /* one member per item; stage at a time */
            for (int m = 0; m < 3; ++m)
                for (int base = 0; base < 2; ++base)
                    for (int skew = 0; skew < 2; ++skew) {
                        const long B = members[m], bits = bases[base][0], L = bases[base][1];
                        atomic_store(&team.lanes, lanes == 1 ? 1 : LANES_MAX);
                        fill(c1 + skew, K, B);
                        reference(c1 + skew, want, B, L, bits, isa);
                        hoist(c1 + skew, got + skew, B, L, bits, isa);
                        if (memcmp(got + skew, want, K * B * L * N * 8)) {
                            fprintf(stderr, "isa %ld, %s, B %ld, base %ld, skew %d differs\n",
                                    isa, lanes == 1 ? "member" : "stages", B, bits, skew);
                            failed = 1;
                        }
                    }
    free(c1), free(want), free(got);
    printf("%s\n", failed ? "FAILED" : "ok");
    return failed;
}

/* -- timing ------------------------------------------------------------------ */

static double now_ns(void) {
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return t.tv_sec * 1e9 + t.tv_nsec;
}

static double ticks_per_ns;

static int by_value(const void *a, const void *b) {
    const double x = *(const double *)a, y = *(const double *)b;
    return (x > y) - (x < y);
}

/* One pass of a body on one row, as the harness times it. */
typedef struct {
    void (*front)(const ntt_call *c, const uint64_t *in, uint64_t *row);
    void (*dit)(const ntt_call *c, uint64_t *row, long half);
    void (*last)(const ntt_call *c, uint64_t *row);
    void (*gs)(const ntt_call *c, const uint64_t *from, uint64_t *row, long half);
    void (*back)(const ntt_call *c, uint64_t *row);
    void (*prepare)(const ntt_call *c, int forward);
    const char *name;
    long width, narrow; /* residue pairs per vector butterfly; first wide stage */
} body;

static void scalar_prepare(const ntt_call *c, int forward) {
    (void)c, (void)forward;
}

/* The scalar body has no narrow stages: its last DIT stage is a stage
 * like the others, then the reduction; its inverse's last pass is the
 * scale alone. */
static void scalar_last(const ntt_call *c, uint64_t *row) {
    dit_scalar(c, row, c->n / 2);
    last_scalar(c, row);
}

#ifdef NTT_X86
static body8 v8;
static body4 v4;
NTT_AVX512_FN static void prepare8(const ntt_call *c, int forward) { body8_of(&v8, c, forward); }
NTT_AVX512_FN static void front_8(const ntt_call *c, const uint64_t *in, uint64_t *row) {
    front8(&v8, c, in, row);
}
NTT_AVX512_FN static void dit_8(const ntt_call *c, uint64_t *row, long half) {
    dit8(&v8, c, row, half);
}
NTT_AVX512_FN static void last_8(const ntt_call *c, uint64_t *row) { last8(&v8, c, row); }
NTT_AVX512_FN static void gs_8(const ntt_call *c, const uint64_t *from, uint64_t *row, long half) {
    gs8(&v8, c, from, row, half);
}
NTT_AVX512_FN static void back_8(const ntt_call *c, uint64_t *row) { back8(&v8, c, row); }
NTT_AVX2_FN static void prepare4(const ntt_call *c, int forward) {
    (void)forward;
    body4_of(&v4, c);
}
NTT_AVX2_FN static void front_4(const ntt_call *c, const uint64_t *in, uint64_t *row) {
    front4(&v4, c, in, row);
}
NTT_AVX2_FN static void dit_4(const ntt_call *c, uint64_t *row, long half) {
    dit4(&v4, c, row, half);
}
NTT_AVX2_FN static void last_4(const ntt_call *c, uint64_t *row) { last4(&v4, c, row); }
NTT_AVX2_FN static void gs_4(const ntt_call *c, const uint64_t *from, uint64_t *row, long half) {
    gs4(&v4, c, from, row, half);
}
NTT_AVX2_FN static void back_4(const ntt_call *c, uint64_t *row) { back4(&v4, c, row); }
#endif

static const body bodies[] = {
    {front_scalar, dit_scalar, scalar_last, gs_scalar, back_scalar, scalar_prepare, "scalar",
     1, 1},
#ifdef NTT_X86
    {front_4, dit_4, last_4, gs_4, back_4, prepare4, "avx2", 4, 4},
    {front_8, dit_8, last_8, gs_8, back_8, prepare8, "avx512f", 8, 8},
#endif
};

/* The body's passes, then the standalone calls' bit-reverse pass and a
 * whole one-row ntt_forward / ntt_inverse. */
enum { FRONT, DIT, LAST, GS, BACK, BIT_REVERSE, FORWARD, INVERSE };

/* Median ns of one pass over one row under body `isa`. */
static double time_pass(long isa, const ntt_call *c, int pass, long half,
                        const uint64_t *in, uint64_t *row) {
    const body *bd = &bodies[isa];
    const ntt_split whole = {.perm = perm, .n = N};
    double runs[RUNS];
    const long reps = 2000;
    if (pass <= BACK)
        bd->prepare(c, pass < GS);
    for (int r = 0; r < RUNS; ++r) {
        const double t0 = now_ns();
        for (long rep = 0; rep < reps; ++rep) {
            switch (pass) {
            case FRONT: bd->front(c, in, row); break;
            case DIT: bd->dit(c, row, half); break;
            case LAST: bd->last(c, row); break;
            case GS: bd->gs(c, in, row, half); break;
            case BACK: bd->back(c, row); break;
            case BIT_REVERSE: bit_reverse(&whole, in, row); break;
            case FORWARD:
                ntt_forward(in, row, perm, psi, psi_sh, tw, tw_sh, moduli, 1, 1, N, isa);
                break;
            default:
                ntt_inverse(in, row, perm, iscale, iscale_sh, itw, itw_sh, moduli, 1, 1, N, isa);
            }
        }
        runs[r] = (now_ns() - t0) / reps;
    }
    qsort(runs, RUNS, sizeof *runs, by_value);
    return runs[RUNS / 2];
}

static void report(const char *what, long half, double ns, double vbf) {
    char label[48];
    snprintf(label, sizeof label, half ? "%s h=%ld" : "%s", what, half);
    printf("  %-22s %8.0f ns  %6.2f tsc/vbf\n", label, ns, ns * ticks_per_ns / vbf);
}

static void time_body(long isa) {
    const body *bd = &bodies[isa];
    uint64_t *in = alloc_lines(N * 8), *row = alloc_lines(N * 8);
    fill(in, 1, 1);
    memcpy(row, in, N * 8);
    const ntt_call fwd = {in, row, psi, psi_sh, tw, tw_sh, moduli[0], 1, N};
    const ntt_call inv = {in, row, iscale, iscale_sh, itw, itw_sh, moduli[0], 1, N};
    const double stage = (double)N / 2 / bd->width; /* vector butterflies per stage */
    long narrow = 1, log_n = 0; /* passes' vector butterflies per row, in stages */
    for (long h = 2; h < bd->narrow; h <<= 1)
        ++narrow;
    while ((1L << log_n) < N)
        ++log_n;
    printf("%s body (isa %ld)\n", bd->name, isa);
    report("front", 0, time_pass(isa, &fwd, FRONT, 0, in, row), stage * narrow);
    for (long half = bd->narrow; half < N / 2; half <<= 1)
        report("DIT stage", half, time_pass(isa, &fwd, DIT, half, in, row), stage);
    report("DIT last + reduce", 0, time_pass(isa, &fwd, LAST, 0, in, row), stage);
    for (long half = N / 2; half >= bd->narrow; half >>= 1) {
        fill(row, 1, 1);
        report("GS stage", half, time_pass(isa, &inv, GS, half, half == N / 2 ? in : row, row),
               stage);
    }
    fill(row, 1, 1);
    report("GS narrow + scale", 0, time_pass(isa, &inv, BACK, 0, in, row), stage * narrow);
    report("bit-reverse pass", 0, time_pass(isa, &fwd, BIT_REVERSE, 0, in, row), stage);
    report("ntt_forward, 1 row", 0, time_pass(isa, &fwd, FORWARD, 0, in, row), stage * log_n);
    report("ntt_inverse, 1 row", 0, time_pass(isa, &inv, INVERSE, 0, in, row), stage * log_n);
    free(in), free(row);
}

/* One member's hoist on this lane: each schedule, out aligned and 16 B past. */
static void time_member(long isa) {
    uint64_t *c1 = alloc_lines(K * N * 8), *out = alloc_lines((K * 7 * N + 8) * 8);
    fill(c1, K, 1);
    atomic_store(&team.owned, 1); /* every split runs inline */
    for (int lanes = 1; lanes <= 2; ++lanes)
        for (int skew = 0; skew <= 2; skew += 2) {
            atomic_store(&team.lanes, lanes == 1 ? 1 : LANES_MAX);
            double runs[RUNS];
            for (int r = 0; r < RUNS; ++r) {
                const double t0 = now_ns();
                for (int rep = 0; rep < 200; ++rep)
                    hoist(c1, out + skew, 1, 7, 16, isa);
                runs[r] = (now_ns() - t0) / 200;
            }
            qsort(runs, RUNS, sizeof *runs, by_value);
            printf("  hoist member, %-6s out +%2d B  %8.1f us (quartiles %.1f-%.1f)\n",
                   lanes == 1 ? "member" : "stages", skew * 8, runs[RUNS / 2] / 1e3,
                   runs[RUNS / 4] / 1e3, runs[3 * RUNS / 4] / 1e3);
        }
    atomic_store(&team.owned, 0);
    free(c1), free(out);
}

int main(int argc, char **argv) {
    setup();
    if (argc > 1 && !strcmp(argv[1], "check"))
        return check();
#ifdef NTT_X86
    const double t0 = now_ns();
    const uint64_t c0 = __rdtsc();
    for (volatile long spin = 0; spin < 50000000; ++spin) {
    }
    ticks_per_ns = (double)(__rdtsc() - c0) / (now_ns() - t0);
#else
    ticks_per_ns = 1;
#endif
    printf("k = %d, n = %d, l_ct = 7; %.2f tsc ticks per ns\n", K, N, ticks_per_ns);
    for (long isa = 0; isa <= ntt_isa_max(); ++isa) {
        time_body(isa);
        time_member(isa);
    }
    return 0;
}
