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
 *   rns_mul_add                 client crypto: both public-key products and
 *                               the three adds of encryption, or
 *                               decryption's phase c0 + c1 s, in one pass
 *   rns_lift                    signed samples and plaintexts' delta * m
 *                               into one residue stack (encryption,
 *                               add_plain, keygen, the cloud's blind)
 *   rns_scale_round             client Compose: round(t * w / q) mod t in
 *                               fixed point, with the exact multiword
 *                               rounding as its tie branch
 *
 * Compiled on demand by repro.bfv.native (plain `cc -O3 -shared -fPIC
 * -pthread`); whenever no C compiler is available, the engine in
 * repro.bfv.ntt_batch runs the per-limb references these kernels are tested
 * against instead.  Both paths compute bit-identical results.  NTT values
 * are kept lazily in [0, 4p) between butterfly stages (Harvey's bound) and
 * fully reduced into [0, p) once at the end, so the final residues match
 * the reference NttContext exactly;
 * the multiply-accumulates add unreduced products (limbs are below 2^31,
 * so at least three fit a 64-bit word) and reduce once per output
 * coefficient.
 *
 * Lanes.  ntt_forward, ntt_inverse, mac_weights, keyswitch_rotate and
 * rns_digit_split split a large call into items -- rows of one limb, a
 * limb, one limb of one job, a block of coefficient columns -- and run
 * them on the calling thread and a persistent team of helper threads, one
 * lane per CPU of the process's affinity mask (see "lanes" below;
 * kernel_lanes reports the count).  Each item writes its own output rows
 * and nothing is summed across items, so the outputs are the same bytes
 * on any number of lanes.  Every entry point stays reentrant: scratch is
 * on the stack, supplied by the caller (the calling thread's lane) or
 * owned by the team (one slice per helper), and a call that finds the
 * team busy runs on its own thread alone.
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
#if defined(__linux__) && !defined(_GNU_SOURCE)
#define _GNU_SOURCE /* sched_getaffinity */
#endif
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

#if defined(__GNUC__) && defined(__x86_64__)
#define NTT_X86 1
#include <immintrin.h>
#endif

typedef unsigned __int128 u128;

static inline uint64_t mulhi64(uint64_t a, uint64_t b) {
    return (uint64_t)(((u128)a * b) >> 64);
}

/* a * b for a, b < 2^32 (every residue, lazy NTT value and 32-bit Shoup
 * quotient): a 32x32 -> 64-bit product is exact and is the one multiply
 * every SIMD level has, so loops spelled with it vectorize. */
static inline uint64_t mul_residues(uint64_t a, uint64_t b) {
    return (uint64_t)(uint32_t)a * (uint32_t)b;
}

/* 64-bit Shoup lazy product for the Garner compose, whose moduli may reach
 * 2^31: x*w mod p in [0, 2p), with wsh = floor(w * 2^64 / p). */
static inline uint64_t shoup_mul(uint64_t x, uint64_t w, uint64_t wsh, uint64_t p) {
    uint64_t q = mulhi64(x, wsh);
    return x * w - q * p;
}

/* -- lanes: one helper team per process ----------------------------------- */

/* A split call publishes its items and takes them itself, together with the
 * helpers: every lane claims the next item from one atomic counter (`left`,
 * counted down), so a helper that wakes late finds fewer items rather than
 * making the caller wait for a fixed share.  The caller returns once its
 * own items are done and `done` counts the helpers'; it spins WAIT_SPIN
 * pauses on that, then sleeps on `finished`.  A helper reads the job (fn,
 * ctx, its scratch slice) only after it claimed an item of it: the owner
 * wrote them before publishing `left`, and writes the next job's only
 * after every item of this one is done, so the claim always pairs with its
 * own job.  Between jobs a helper spins LANE_SPIN pauses, then sleeps on
 * `wake`.  No wake-up is lost: a sleeper raises its flag (`sleepers`,
 * `waiting`) before it tests its condition under `mu`, and the other side
 * changes the condition (`left`, `done`) before it tests the flag, all
 * sequentially consistent, so at least one of the two sees the other.
 *
 * A call runs inline, item after item on the calling thread, when it is
 * below its entry point's *_SPLIT_MIN, when the process has one lane (no
 * helper is ever started), or when another thread owns the team, so
 * concurrent serving and client threads never wait on each other.
 * Helpers start on the first call that splits.  A forked child has no
 * helpers (threads do not survive fork), so an atfork handler resets the
 * team and the child starts its own on its first split.
 */

/* Lanes at most, whatever the affinity mask holds. */
#define LANES_MAX 8
/* Pauses a helper spins after a job before it sleeps: about 3.4 us on the
 * 2-CPU guest the split minimums below were measured on.  Helpers sleep
 * through the interpreter's work between a request's kernel calls rather
 * than spin CPU time away on it. */
#define LANE_SPIN 200
/* Pauses the caller spins on the helpers' last items before it sleeps,
 * about 200 us there.  On that guest 2-4 % of the waits outlasted it and
 * held 65-85 % of the waiting time: a helper descheduled in the middle of
 * an item, for milliseconds.  Sleeping through those instead of spinning
 * cut serial_pa's cpu_ms_per_inference by 3 % (8 pairs, p50 no worse); a
 * 34 us spin also put a wake-up on the shorter waits and raised p90. */
#define WAIT_SPIN 12000

typedef void (*lane_fn)(const void *ctx, long item, void *scratch);

static struct {
    pthread_mutex_t mu;
    pthread_cond_t wake, finished;
    atomic_int lanes;      /* 0 until sized from the affinity mask */
    atomic_int owned;      /* a call holds the team */
    atomic_int sleepers;   /* helpers blocked on `wake` */
    atomic_int waiting;    /* the owner is blocked on `finished` */
    atomic_long left;      /* items of the current job not yet claimed */
    atomic_long done;      /* items of the current job the helpers finished */
    int helpers;           /* helper threads running (owner only) */
    /* The current job, written by the owner before it publishes `left`. */
    lane_fn fn;
    const void *ctx;
    unsigned char *spare;  /* helper h's scratch at (h - 1) * spare_lane */
    size_t spare_lane, spare_size;
} team = {
    .mu = PTHREAD_MUTEX_INITIALIZER,
    .wake = PTHREAD_COND_INITIALIZER,
    .finished = PTHREAD_COND_INITIALIZER,
};

static inline void lane_pause(void) {
#ifdef NTT_X86
    _mm_pause();
#endif
}

/* Lanes of this process: the CPUs it may run on, at most LANES_MAX. */
static int lanes_of_process(void) {
    int lanes = atomic_load_explicit(&team.lanes, memory_order_relaxed);
    if (!lanes) {
        long cpus = -1;
#ifdef __linux__
        cpu_set_t set;
        if (!sched_getaffinity(0, sizeof set, &set))
            cpus = CPU_COUNT(&set);
#endif
        if (cpus < 1)
            cpus = sysconf(_SC_NPROCESSORS_ONLN);
        lanes = cpus < 1 ? 1 : cpus > LANES_MAX ? LANES_MAX : (int)cpus;
        atomic_store_explicit(&team.lanes, lanes, memory_order_relaxed);
    }
    return lanes;
}

/* The number of lanes a split call runs on in this process (1: every call
 * runs on the calling thread and no helper is started). */
long kernel_lanes(void) {
    return lanes_of_process();
}

static void *lane_main(void *arg) {
    const size_t slice = (size_t)(intptr_t)arg - 1;
    for (;;) {
        for (int spin = 0; atomic_load(&team.left) <= 0; ++spin) {
            if (spin < LANE_SPIN) {
                lane_pause();
                continue;
            }
            pthread_mutex_lock(&team.mu);
            atomic_fetch_add(&team.sleepers, 1);
            while (atomic_load(&team.left) <= 0)
                pthread_cond_wait(&team.wake, &team.mu);
            atomic_fetch_sub(&team.sleepers, 1);
            pthread_mutex_unlock(&team.mu);
        }
        long item;
        while ((item = atomic_fetch_sub(&team.left, 1) - 1) >= 0) {
            team.fn(team.ctx, item, team.spare_lane ? team.spare + slice * team.spare_lane : NULL);
            atomic_fetch_add(&team.done, 1);
            if (atomic_load(&team.waiting)) {
                pthread_mutex_lock(&team.mu);
                pthread_cond_broadcast(&team.finished);
                pthread_mutex_unlock(&team.mu);
            }
        }
    }
    return NULL;
}

/* In a forked child: the helpers are gone, and a lock or a job the parent
 * held at the fork is no one's. */
static void team_after_fork(void) {
    pthread_mutex_init(&team.mu, NULL);
    pthread_cond_init(&team.wake, NULL);
    pthread_cond_init(&team.finished, NULL);
    atomic_store(&team.lanes, 0);
    atomic_store(&team.owned, 0);
    atomic_store(&team.sleepers, 0);
    atomic_store(&team.waiting, 0);
    atomic_store(&team.left, 0);
    team.helpers = 0;
}

/* Owner only: helpers running and `scratch` bytes of scratch for each; 0
 * when neither can be had (the call then runs inline). */
static int team_ready(size_t scratch) {
    static int registered;
    const int lanes = lanes_of_process();
    const size_t lane = (scratch + 63) & ~(size_t)63; /* no shared lines */
    if (lane * (size_t)(lanes - 1) > team.spare_size) {
        unsigned char *spare = malloc(lane * (size_t)(lanes - 1));
        if (!spare)
            return 0;
        free(team.spare);
        team.spare = spare;
        team.spare_size = lane * (size_t)(lanes - 1);
    }
    team.spare_lane = lane;
    if (team.helpers < lanes - 1) {
        if (!registered)
            registered = !pthread_atfork(NULL, NULL, team_after_fork);
        if (!registered)
            return 0;
        /* Helpers take no signals: the interpreter's threads handle them. */
        sigset_t all, old;
        sigfillset(&all);
        pthread_sigmask(SIG_SETMASK, &all, &old);
        pthread_attr_t attr;
        pthread_attr_init(&attr);
        pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
        while (team.helpers < lanes - 1) {
            pthread_t thread;
            if (pthread_create(&thread, &attr, lane_main, (void *)(intptr_t)(team.helpers + 1)))
                break;
            ++team.helpers;
        }
        pthread_attr_destroy(&attr);
        pthread_sigmask(SIG_SETMASK, &old, NULL);
    }
    return team.helpers > 0;
}

/* fn(ctx, item, scratch) for every item in [0, items): on every lane when
 * `split` is set and the team is free, else in order on this thread.
 * `scratch` is the calling thread's; each helper gets its own
 * `scratch_bytes`. */
static void lanes_run(lane_fn fn, const void *ctx, long items, int split,
                      void *scratch, size_t scratch_bytes) {
    int free_team = 0;
    if (split && items > 1 && lanes_of_process() > 1
        && atomic_compare_exchange_strong(&team.owned, &free_team, 1)) {
        if (team_ready(scratch_bytes)) {
            team.fn = fn;
            team.ctx = ctx;
            atomic_store_explicit(&team.done, 0, memory_order_relaxed);
            atomic_store(&team.left, items);
            if (atomic_load(&team.sleepers)) {
                pthread_mutex_lock(&team.mu);
                pthread_cond_broadcast(&team.wake);
                pthread_mutex_unlock(&team.mu);
            }
            long item, mine = 0;
            while ((item = atomic_fetch_sub(&team.left, 1) - 1) >= 0) {
                fn(ctx, item, scratch);
                ++mine;
            }
            for (int spin = 0; atomic_load(&team.done) != items - mine; ++spin) {
                if (spin < WAIT_SPIN) {
                    lane_pause();
                    continue;
                }
                pthread_mutex_lock(&team.mu);
                atomic_store(&team.waiting, 1);
                while (atomic_load(&team.done) != items - mine)
                    pthread_cond_wait(&team.finished, &team.mu);
                atomic_store(&team.waiting, 0);
                pthread_mutex_unlock(&team.mu);
            }
            atomic_store(&team.owned, 0);
            return;
        }
        atomic_store(&team.owned, 0);
    }
    for (long item = 0; item < items; ++item)
        fn(ctx, item, scratch);
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

/* One limb of a transform call: B rows of n residues, src -> dst.
 *
 * perm:          bit-reversal permutation, length n
 * pre/pre_sh:    (n) forward psi premultiply, in perm order; NULL on the
 *                inverse
 * tw/tw_sh:      (n-1) stage twiddles, stage s at offset 2^s - 1
 * post/post_sh:  (n) inverse n^-1 psi^-j scale; NULL on the forward
 * p:             the limb's modulus, below 2^30
 * Every *_sh table holds 32-bit Shoup quotients.
 */
typedef struct {
    const uint64_t *src;
    uint64_t *dst;
    const int64_t *perm;
    const uint64_t *pre, *pre_sh, *tw, *tw_sh, *post, *post_sh;
    uint64_t p;
    long B, n;
} ntt_call;

/* x*w mod p in [0, 2p) for x < 2^32 and w < p < 2^31, with wsh =
 * floor(w * 2^32 / p). */
static inline uint64_t shoup32(uint64_t x, uint64_t w, uint64_t wsh, uint64_t p) {
    return mul_residues(x, w) - mul_residues(mul_residues(x, wsh) >> 32, p);
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
    const uint64_t p = c->p, twop = 2 * p;
    for (long b = 0; b < c->B; ++b) {
        const uint64_t *in = c->src + b * n;
        uint64_t *row = c->dst + b * n;
        /* bit-reverse gather, fused with the psi premultiply -> [0, 2p) */
        if (c->pre) {
            for (long j = 0; j < n; ++j)
                row[j] = shoup32(in[perm[j]], c->pre[j], c->pre_sh[j], p);
        } else {
            for (long j = 0; j < n; ++j)
                row[j] = in[perm[j]];
        }
        dit_stages(row, c->tw, c->tw_sh, p, n);
        /* single deferred reduction into [0, p), after the inverse scale */
        for (long j = 0; j < n; ++j) {
            uint64_t x = row[j];
            if (x >= twop) x -= twop;
            if (c->post) x = shoup32(x, c->post[j], c->post_sh[j], p);
            if (x >= p) x -= p;
            row[j] = x;
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
    const __m512i p = _mm512_set1_epi64((long long)c->p);
    const __m512i twop = _mm512_add_epi64(p, p);
    const uint64_t *tw = c->tw, *tw_sh = c->tw_sh, *pre = c->pre, *pre_sh = c->pre_sh;
    const uint64_t *post = c->post, *post_sh = c->post_sh;
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
        const uint64_t *in = c->src + b * n;
        uint64_t *row = c->dst + b * n;
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
    const __m256i p = _mm256_set1_epi64x((long long)c->p);
    const __m256i twop = _mm256_add_epi64(p, p);
    const uint64_t *tw = c->tw, *tw_sh = c->tw_sh, *pre = c->pre, *pre_sh = c->pre_sh;
    const uint64_t *post = c->post, *post_sh = c->post_sh;
    /* twiddles of h = 2: E holds block positions 0, 1, 0, 1 */
    const __m256i sw = _mm256_set_epi64x((long long)tw[2], (long long)tw[1],
                                         (long long)tw[2], (long long)tw[1]);
    const __m256i swsh = _mm256_set_epi64x((long long)tw_sh[2], (long long)tw_sh[1],
                                           (long long)tw_sh[2], (long long)tw_sh[1]);
    for (long b = 0; b < c->B; ++b) {
        const uint64_t *in = c->src + b * n;
        uint64_t *row = c->dst + b * n;
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

/* Transforms of k * B * n residues at least this many split across the
 * lanes (the minimums of all four entry points were measured on a 2-CPU
 * KVM guest of a Xeon with AVX-512, split against inline, 60 calls back to
 * back and 60 calls 200 us apart).  Below it the wake-up costs more than
 * the second lane saves: a (4, 1, 2048) transform, 8,192 residues and
 * about 45 us inline, took 1.05-1.35x its inline time split; 16,384 took
 * 0.76-0.94x. */
#define NTT_SPLIT_MIN 12000
/* Residues per item at most (whole rows of one limb, at least one row):
 * a helper that wakes late then leaves the caller at most one item of
 * about 40 us to wait for, not a limb of a (4, 56, 2048) call. */
#define NTT_ITEM 16384

/* A whole call over a (k, B, n) residue stack -- the ntt_call tables of
 * all k limbs, limb after limb, and p the k moduli -- and how it splits. */
typedef struct {
    const uint64_t *src;
    uint64_t *dst;
    const int64_t *perm;
    const uint64_t *pre, *pre_sh, *tw, *tw_sh, *post, *post_sh, *p;
    long k, B, n, isa;
    long rows, chunks; /* rows per item, items per limb */
} ntt_split;

/* Item: rows [r0, r0 + rows) of limb item / chunks. */
static void ntt_rows(const void *arg, long item, void *scratch) {
    (void)scratch;
    const ntt_split *s = arg;
    const long n = s->n, i = item / s->chunks, r0 = item % s->chunks * s->rows;
    const long at = (i * s->B + r0) * n;
    const ntt_call part = {
        s->src + at, s->dst + at, s->perm,
        s->pre ? s->pre + i * n : NULL, s->pre ? s->pre_sh + i * n : NULL,
        s->tw + i * (n - 1), s->tw_sh + i * (n - 1),
        s->post ? s->post + i * n : NULL, s->post ? s->post_sh + i * n : NULL,
        s->p[i], s->B - r0 < s->rows ? s->B - r0 : s->rows, n,
    };
    ntt_dispatch(&part, s->isa);
}

static void ntt_run(ntt_split *s) {
    s->rows = s->n < NTT_ITEM ? NTT_ITEM / s->n : 1;
    s->chunks = s->B ? (s->B + s->rows - 1) / s->rows : 1;
    lanes_run(ntt_rows, s, s->k * s->chunks, s->k * s->B * s->n >= NTT_SPLIT_MIN, NULL, 0);
}

/* Forward transform of a (k, B, n) residue stack src into dst (see
 * ntt_split; psi/psi_sh are the premultiply tables). */
void ntt_forward(const uint64_t *src, uint64_t *dst, const int64_t *perm,
                 const uint64_t *psi, const uint64_t *psi_sh,
                 const uint64_t *tw, const uint64_t *tw_sh,
                 const uint64_t *p_arr, long k, long B, long n, long isa) {
    ntt_split s = {src, dst, perm, psi, psi_sh, tw, tw_sh, NULL, NULL, p_arr, k, B, n, isa, 0, 0};
    ntt_run(&s);
}

/* Inverse transform: DIT stages with inverse twiddles, then one fused
 * multiply by n^-1 * psi^-j (iscale tables), natural order output. */
void ntt_inverse(const uint64_t *src, uint64_t *dst, const int64_t *perm,
                 const uint64_t *iscale, const uint64_t *iscale_sh,
                 const uint64_t *tw, const uint64_t *tw_sh,
                 const uint64_t *p_arr, long k, long B, long n, long isa) {
    ntt_split s = {src, dst, perm, NULL, NULL, tw, tw_sh, iscale, iscale_sh, p_arr, k, B, n, isa, 0, 0};
    ntt_run(&s);
}

/* -- multiply-accumulate -------------------------------------------------- */

/* The MAC loops are plain multiply-adds that the compiler vectorises; the
 * baseline x86-64 build only has 2-lane SSE2 with no 64-bit multiply, so on
 * GCC/glibc each MAC is also cloned for AVX2 and AVX-512 and picked by the
 * dynamic loader at load time (the cached object stays portable across
 * hosts, unlike -march=native; integer results are identical).  A
 * ThreadSanitizer build goes without: the loader runs the clones' resolvers
 * before the sanitizer's runtime is up, which crashes at start-up. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__GLIBC__) \
    && !defined(__SANITIZE_THREAD__)
#define MAC_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define MAC_CLONES
#endif

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

/* Reduction of a 64-bit accumulator acc = hi 2^32 + lo modulo p < 2^31 with
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

/* v - m where v >= m, else v (0 < m, v < 2^63): below m the difference
 * wraps above v. */
static inline uint64_t csub(uint64_t v, uint64_t m) {
    const uint64_t d = v - m;
    return d < v ? d : v;
}

static inline uint64_t ks_reduce(uint64_t acc, ks_mod m) {
    const uint64_t r = shoup32(acc >> 32, m.r32, m.r32_sh, m.p)
                     + shoup32(acc & 0xffffffffu, 1, m.one_sh, m.p);
    return csub(csub(r, 2 * m.p), m.p);
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
                    acc0[j] = ks_reduce(acc0[j], *m);
                    acc1[j] = ks_reduce(acc1[j], *m);
                }
            }
            for (long j = 0; j < width; ++j) {
                acc0[j] += mul_residues(xr[j], ar[j]);
                acc1[j] += mul_residues(xr[j], br[j]);
            }
        }
        for (long j = 0; j < width; ++j) {
            const uint64_t s = l->c0[j0 + j] + ks_reduce(acc0[j], *m);
            l->sum0[j0 + j] = (uint32_t)(s >= m->p ? s - m->p : s);
            l->sum1[j0 + j] = (uint32_t)ks_reduce(acc1[j], *m);
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
 * with g the job's eval map.  `scratch` holds 2n words (one limb's sums)
 * for the calling thread's lane; `isa` picks the body as for the NTT:
 * AVX-512F, else scalar.  Key residues are 32-bit words (see the file
 * header).  Calls of at least KS_SPLIT_MIN products split across the
 * lanes, one limb of one job per item.
 */
/* Two jobs at (k, T, n) = (4, 7, 2048), 114,688 products, took
 * 0.62-0.79x their inline time split; one job, 57,344, took 0.87-1.45x. */
#define KS_SPLIT_MIN 100000

typedef struct {
    const ks_job *jobs;
    long xs_k, xs_t, cs_k, os_k;
    const uint64_t *p;
    long k, T, n;
    int wide;
} ks_split;

/* Item: limb item % k of job item / k, with this lane's 2n-word scratch. */
static void ks_item(const void *arg, long item, void *scratch) {
    const ks_split *s = arg;
    const ks_job *job = s->jobs + item / s->k;
    const long i = item % s->k;
    uint32_t *sums = scratch;
    const ks_mod m = ks_mod_of(s->p[i]);
    const ks_limb l = {
        job->digits + i * s->xs_k, job->c0 + i * s->cs_k,
        job->key0 + i * job->key_limb, job->key1 + i * job->key_limb,
        s->xs_t, s->T, s->n, sums, sums + s->n,
    };
    uint64_t *o0 = job->out0 + i * s->os_k, *o1 = job->out1 + i * s->os_k;
    long done = 0, gathered = 0;
#ifdef NTT_X86
    if (s->wide) done = ks_sums_avx512(&l, &m);
#endif
    ks_sums_scalar(&l, &m, done);
#ifdef NTT_X86
    if (s->wide) gathered = ks_gather_avx512(&l, job->gather, o0, o1);
#endif
    ks_gather_scalar(&l, job->gather, o0, o1, gathered);
}

void keyswitch_rotate(const ks_job *jobs, long count,
                      long xs_k, long xs_t, long cs_k, long os_k,
                      const uint64_t *p_arr, long k, long T, long n,
                      uint32_t *scratch, long isa) {
#ifdef NTT_X86
    const int wide = isa >= NTT_AVX512 && ntt_isa_max() >= NTT_AVX512;
#else
    const int wide = 0;
    (void)isa;
#endif
    const ks_split s = {jobs, xs_k, xs_t, cs_k, os_k, p_arr, k, T, n, wide};
    lanes_run(ks_item, &s, count * k, count * k * T * n >= KS_SPLIT_MIN,
              scratch, 2 * (size_t)n * sizeof *scratch);
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
 * strides; all rows are contiguous runs of n residues.  Calls of at least
 * MAC_SPLIT_MIN products split across the lanes, one limb per item.
 */
/* 16,384 products (k O T n, B = 1) took 0.69-0.81x their inline time
 * split, 8,192 took 0.77-1.63x. */
#define MAC_SPLIT_MIN 16384

typedef struct {
    uint64_t *out0, *out1;
    const uint64_t *x0, *x1;
    long xs_k, xs_b, xs_t;
    const uint64_t *w;
    long ws_k, ws_o, ws_t;
    const uint64_t *p;
    long B, O, T, n;
} mac_split;

/* Item i: every output row of limb i.  The call's fields are copied to
 * locals: the output stores could alias them, which would reload each one
 * inside the loops. */
MAC_CLONES
static void mac_limb(const void *arg, long i, void *scratch) {
    (void)scratch;
    const mac_split *s = arg;
    uint64_t *const out0 = s->out0, *const out1 = s->out1;
    const uint64_t *const x0 = s->x0, *const x1 = s->x1, *const w = s->w;
    const long xs_k = s->xs_k, xs_b = s->xs_b, xs_t = s->xs_t;
    const long ws_k = s->ws_k, ws_o = s->ws_o, ws_t = s->ws_t;
    const long B = s->B, O = s->O, T = s->T, n = s->n;
    uint64_t acc0[MAC_GROUP][MAC_TILE], acc1[MAC_GROUP][MAC_TILE];
    const uint64_t p = s->p[i];
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

void mac_weights(uint64_t *out0, uint64_t *out1,
                 const uint64_t *x0, const uint64_t *x1,
                 long xs_k, long xs_b, long xs_t,
                 const uint64_t *w, long ws_k, long ws_o, long ws_t,
                 const uint64_t *p_arr, long k, long B, long O, long T, long n) {
    const mac_split s = {out0, out1, x0, x1, xs_k, xs_b, xs_t, w, ws_k, ws_o, ws_t,
                         p_arr, B, O, T, n};
    lanes_run(mac_limb, &s, k, k * B * O * T * n >= MAC_SPLIT_MIN, NULL, 0);
}

/* -- client crypto -------------------------------------------------------- */

/* The products and adds of BFV encryption or decryption in one pass, for
 * one row (x1 NULL) or two:
 *
 *   out_h[i, j] = x_h[i, j] * y[i, j] + z_h[i, j] (+ w[i, j] for h = 0)  mod p_i
 *
 * Encryption: x = the public key halves, y = u, z = (e0, e1) and w = delta
 * m, all in the evaluation domain; decryption's phase c0 + c1 s: x0 = c1,
 * y = s, z0 = c0, no w.  Every input is reduced, below p_i < 2^31, and (k,
 * n) at its own limb stride (x0 and x1, z0 and z1 share theirs); the sum
 * stays below 2^63 and is reduced once.  Outputs are contiguous (k, n).
 */
MAC_CLONES
void rns_mul_add(uint64_t *out0, uint64_t *out1,
                 const uint64_t *x0, const uint64_t *x1, long xs_k,
                 const uint64_t *y, long ys_k,
                 const uint64_t *z0, const uint64_t *z1, long zs_k,
                 const uint64_t *w, long ws_k,
                 const uint64_t *p_arr, long k, long n) {
    for (long i = 0; i < k; ++i) {
        const ks_mod m = ks_mod_of(p_arr[i]);
        const uint64_t *yr = y + i * ys_k;
        for (long h = 0; h < (x1 ? 2 : 1); ++h) {
            const uint64_t *xr = (h ? x1 : x0) + i * xs_k;
            const uint64_t *zr = (h ? z1 : z0) + i * zs_k;
            uint64_t *o = (h ? out1 : out0) + i * n;
            if (!h && w) {
                const uint64_t *wr = w + i * ws_k;
                for (long j = 0; j < n; ++j)
                    o[j] = ks_reduce(mul_residues(xr[j], yr[j]) + zr[j] + wr[j], m);
            } else {
                for (long j = 0; j < n; ++j)
                    o[j] = ks_reduce(mul_residues(xr[j], yr[j]) + zr[j], m);
            }
        }
    }
}

/* Signed small rows and plaintexts' delta * m into one residue stack, out
 * (k, S + B, n) contiguous:
 *
 *   out[i, s, j]     = x[s, j] + (x[s, j] < 0 ? p_i : 0)        s < S
 *   out[i, S + b, j] = (m[b, j] mod t) * delta_i  mod p_i       b < B
 *
 * The S rows x are secret, error or u samples, every entry below each
 * p_i in magnitude, so the sign add is the reduction.  delta = floor(q /
 * t) and delta_i = delta mod p_i < 2^31: delta * m < q for every m < t, so
 * the product never wraps mod q and the product of the residues is the
 * residue of the product.  When every m already lies in [0, t) and below
 * 2^32 (every encoded plaintext), the products run in lanes; otherwise
 * each m is reduced first.
 */
MAC_CLONES
void rns_lift(uint64_t *out, const int64_t *x, long S, const int64_t *m, long B,
              const uint64_t *delta, const uint64_t *p_arr, uint64_t t, long k, long n) {
    const uint64_t bound = t < ((uint64_t)1 << 32) ? t : (uint64_t)1 << 32;
    uint64_t top = 0;
    for (long j = 0; j < B * n; ++j)
        top = (uint64_t)m[j] > top ? (uint64_t)m[j] : top;
    for (long i = 0; i < k; ++i) {
        const uint64_t p = p_arr[i], d = delta[i], d_sh = (d << 32) / p;
        uint64_t *row = out + i * (S + B) * n;
        for (long j = 0; j < S * n; ++j)
            row[j] = (uint64_t)x[j] + ((uint64_t)(x[j] >> 63) & p);
        row += S * n;
        if (top < bound) {
            for (long j = 0; j < B * n; ++j)
                row[j] = csub(shoup32((uint64_t)m[j], d, d_sh, p), p);
            continue;
        }
        const uint64_t ratio = barrett_ratio(p);
        for (long j = 0; j < B * n; ++j) {
            uint64_t v = (uint64_t)m[j];
            if (v >= t) {
                const int64_t r = m[j] % (int64_t)t;
                v = (uint64_t)(r < 0 ? r + (int64_t)t : r);
            }
            row[j] = barrett(barrett(v, p, ratio) * d, p, ratio);
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
 * staged for a block of coefficients (`scratch`, L * SPLIT_BLOCK words,
 * the calling thread's lane) and written out row by row.  Calls of at
 * least DIGIT_SPLIT_MIN residues split across the lanes, one block of one
 * member per item.
 */
/* The digit split costs about 30 ns a residue: a (4, 1, 2048) call,
 * 8,192 residues and 140-280 us inline, took 0.46-0.64x that split in
 * three of four measurements (1.19x in the fourth); 4,096 took
 * 0.82-1.11x. */
#define DIGIT_SPLIT_MIN 8192

typedef struct {
    const uint64_t *coeff;
    uint64_t *out;
    const uint64_t *p, *ginv, *ginv_sh, *lift;
    long k, B, n, W, L, base_bits, galois_elt, direct;
} digit_split;

/* Item: block item % blocks of member item / blocks, with this lane's
 * L * SPLIT_BLOCK-word scratch.  Fields are copied to locals, as in
 * mac_limb. */
static void digit_block(const void *arg, long item, void *scratch) {
    const digit_split *s = arg;
    const uint64_t *const coeff = s->coeff, *const p_arr = s->p;
    uint64_t *const out = s->out;
    const long k = s->k, B = s->B, n = s->n, W = s->W, L = s->L;
    const long base_bits = s->base_bits, galois_elt = s->galois_elt, direct = s->direct;
    const long blocks = (n + SPLIT_BLOCK - 1) / SPLIT_BLOCK;
    const long b = item / blocks, j0 = item % blocks * SPLIT_BLOCK;
    const long width = n - j0 < SPLIT_BLOCK ? n - j0 : SPLIT_BLOCK;
    const uint64_t mask = ((uint64_t)1 << base_bits) - 1;
    uint64_t *const staged = scratch;
    uint64_t r[RNS_MAX_LIMBS], words[RNS_MAX_WORDS];
    long dst[SPLIT_BLOCK];
    for (long jj = 0; jj < width; ++jj) {
        const long j = j0 + jj;
        const long e = (long)(((uint64_t)j * (uint64_t)galois_elt) & (uint64_t)(2 * n - 1));
        dst[jj] = e & (n - 1);
        for (long i = 0; i < k; ++i) {
            const uint64_t x = coeff[(i * B + b) * n + j];
            r[i] = (e >= n && x) ? p_arr[i] - x : x;
        }
        garner_compose(r, words, W, p_arr, s->ginv, s->ginv_sh, s->lift, k);
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
            staged[d * SPLIT_BLOCK + jj] = digit;
        }
    }
    for (long i = 0; i < k; ++i) {
        const uint64_t p = p_arr[i];
        for (long d = 0; d < L; ++d) {
            uint64_t *row = out + ((i * B + b) * L + d) * n;
            const uint64_t *from = staged + d * SPLIT_BLOCK;
            for (long jj = 0; jj < width; ++jj)
                row[dst[jj]] = (direct || from[jj] < p) ? from[jj] : from[jj] % p;
        }
    }
}

void rns_digit_split(const uint64_t *coeff, uint64_t *out,
                     const uint64_t *p_arr, const uint64_t *ginv,
                     const uint64_t *ginv_sh, const uint64_t *lift,
                     long k, long B, long n, long W, long L, long base_bits,
                     long galois_elt, long direct, uint64_t *scratch) {
    const digit_split s = {coeff, out, p_arr, ginv, ginv_sh, lift,
                           k, B, n, W, L, base_bits, galois_elt, direct};
    const long blocks = (n + SPLIT_BLOCK - 1) / SPLIT_BLOCK;
    lanes_run(digit_block, &s, B * blocks, k * B * n >= DIGIT_SPLIT_MIN,
              scratch, (size_t)L * SPLIT_BLOCK * sizeof *scratch);
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

/* The exact rounding of one coefficient, residues r: Garner compose, then
 * floor((2 t x + q) / 2q) on multiword integers.  q_words and den = 2q are
 * little-endian, W + 2 words (zero-padded); den_f is den as a double.  The
 * quotient is at most t < 2^32: a double estimate is within one of it, and
 * the exact multiword remainder settles which. */
static uint64_t scale_round_exact(const uint64_t *r, const uint64_t *p_arr,
                                  const uint64_t *ginv, const uint64_t *ginv_sh,
                                  const uint64_t *lift, const uint64_t *q_words,
                                  const uint64_t *den, double den_f,
                                  long k, long W, uint64_t t) {
    const long len = W + 2;
    uint64_t x[RNS_MAX_WORDS + 2], num[RNS_MAX_WORDS + 2];
    uint64_t prod[RNS_MAX_WORDS + 2], rem[RNS_MAX_WORDS + 2];
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
    return quot % t;
}

/* BFV decryption scaling, fixed point (Halevi, Polyakov and Shoup 2018):
 * coefficient-domain residues (k, cols) of w = c0 + c1 s -> out[c] =
 * floor((2 t w + q) / 2q) mod t, i.e. round(t w / q) mod t with the
 * object-integer path's tie rule.  A (k, B, n) stack is B * n columns.
 *
 * With theta_i = [(q / p_i)^-1]_{p_i}, w = sum_i r_i theta_i q / p_i - v q
 * for some integer v, so t w / q = sum_i r_i t theta_i / p_i - t v and the
 * v term vanishes mod t.  Each t theta_i / p_i is split into its integer
 * part omega_i < t and its fraction, held as frac_i = floor(2^64 fraction).
 * I = sum r_i omega_i and A = sum r_i frac_i accumulate in 128 bits (below
 * 2^65 and 2^98 for k <= 8 limbs below 2^31 and t < 2^31), and the result
 * is I + floor((A + 2^63) / 2^64) mod t.  Truncated fractions leave A
 * short of the true 2^64-scaled sum by less than sum r_i < band = sum p_i,
 * so the rounding can only differ where the low word of A + 2^63 lies
 * within band of 2^64.  Those coefficients -- ties and near-ties, about
 * band / 2^64 of random ones -- take the exact path instead.  Returns how
 * many did.
 */
long rns_scale_round(const uint64_t *coeff, int64_t *out,
                     const uint64_t *omega, const uint64_t *frac,
                     const uint64_t *p_arr, const uint64_t *ginv,
                     const uint64_t *ginv_sh, const uint64_t *lift,
                     const uint64_t *q_words, long k, long cols, long W, uint64_t t) {
    uint64_t r[RNS_MAX_LIMBS], den[RNS_MAX_WORDS + 2], band = 0;
    mul_word(den, q_words, 2, W + 2);
    const double den_f = words_to_double(den, W + 2);
    for (long i = 0; i < k; ++i) band += p_arr[i];
    const uint64_t t_ratio = barrett_ratio(t), wrap = ((uint64_t)0 - t) % t; /* 2^64 mod t */
    long exact = 0;
    for (long c = 0; c < cols; ++c) {
        u128 whole = 0, part = (u128)1 << 63;
        for (long i = 0; i < k; ++i) {
            r[i] = coeff[i * cols + c];
            whole += (u128)r[i] * omega[i];
            part += (u128)r[i] * frac[i];
        }
        if ((uint64_t)part >= (uint64_t)0 - band) {
            out[c] = (int64_t)scale_round_exact(r, p_arr, ginv, ginv_sh, lift, q_words,
                                                den, den_f, k, W, t);
            ++exact;
            continue;
        }
        whole += part >> 64;
        const uint64_t m = barrett((uint64_t)whole, t, t_ratio) + (uint64_t)(whole >> 64) * wrap;
        out[c] = (int64_t)barrett(m, t, t_ratio);
    }
    return exact;
}
