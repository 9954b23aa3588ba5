/* Compiled kernel tier of the BFV datapath (the lane stages of the paper's
 * Fig 9c: INTT -> Decompose -> NTT -> SIMDmult -> Compose).
 *
 *   ntt_forward / ntt_inverse   batched negacyclic NTT, a radix-2 DIT
 *                               forward and a Gentleman-Sande inverse with
 *                               32-bit Shoup lazy reduction, out of place
 *   ntt_isa_max                 the widest NTT body this CPU runs
 *   rns_hoist                   INTT -> Decompose -> NTT of key switching
 *                               in one call: per member, the INTT of its
 *                               limbs, a Garner mixed-radix compose on
 *                               32-bit words in vector lanes (crt_compose)
 *                               split into base-2^Adcmp digits, each digit
 *                               written once and transformed for every
 *                               limb from cache; the rows stay in
 *                               bit-reversed order between the transforms,
 *                               so neither permutes
 *   keyswitch_rotate            HE_Rotate after the decomposition, for every
 *                               rotation of a layer call in one call: a
 *                               table of jobs (member x Galois element),
 *                               each the SIMDmult against both key halves
 *                               in one contiguous walk (the keys are stored
 *                               in the digits' slot order) plus the final
 *                               add, then one gather of the two output rows
 *                               through the eval map (the Swap); runs of
 *                               consecutive jobs on one output row are
 *                               summed into it (Sched-PA's giant steps)
 *   mac_weights                 SIMDmult of HE_Mult: c0 and c1 against one
 *                               weight stack, every output channel and
 *                               batch member per tile (an AVX-512F body
 *                               with the accumulators in registers, else
 *                               the cloned loops)
 *   rns_layer_run               a whole linear layer call: a program of
 *                               hoists, key switches, weight MACs and
 *                               copies, each op through the entry point
 *                               above that runs it alone
 *   rns_mul_add                 products and adds of the client's crypto
 *                               in one pass: keygen's a s + e, the phase
 *                               c0 + c1 s of a noise measurement
 *   rns_lift                    signed samples and plaintexts' delta * m
 *                               into one residue stack (add_plain, keygen,
 *                               Galois keys)
 *   rns_galois_key              one Galois key-switching key: every digit
 *                               pair's (-(a s + e) + Adcmp^j s(x^g), a)
 *                               written straight into the uint32 stack in
 *                               the digits' slot order, where s(x^g) is s
 *   rns_scale_round             client Compose: round(t * w / q) mod t in
 *                               fixed point; its tie branch composes one
 *                               column through the hoist's crt_compose and
 *                               rounds exactly on 32-bit words
 *   rns_encrypt                 a round's encryption, one call: per row and
 *   rns_blind                   limb, the lift of u, e0, e1 and delta m
 *   rns_decrypt                 bit-reversed, the forward body and both
 *                               public-key products; the cloud's blind: the
 *                               masks' slot scatter, the inverse mod t, the
 *                               delta lift, the forward body and the add to
 *                               c0; the replies' decryption: the phase, the
 *                               Gentleman-Sande inverse and rns_scale_round's
 *                               rounding read through the bit reversal.
 *                               Byte for byte the entry points above run
 *                               one after another, with no stack between
 *   crc32_bytes                 zlib's CRC-32, folded 64 bytes per step
 *                               with PCLMULQDQ where the CPU has it, else
 *                               a slicing-by-8 table (.rpa sections, key
 *                               blobs)
 *   rns_pack / rns_unpack       the ciphertext codec (repro.bfv.serialize):
 *                               int64 residues checked below 2^32 and
 *                               narrowed into a blob's <u4 body, or a body
 *                               checked below p_i and widened (a
 *                               ciphertext) or copied (a Galois key); each
 *                               block's CRC-32 is taken while it is in L1
 *
 * Compiled on demand by repro.bfv.native (plain `cc -O3 -shared -fPIC
 * -pthread`); whenever no C compiler is available, the engine in
 * repro.bfv.ntt_batch runs the per-limb references these kernels are tested
 * against instead.  Both paths compute bit-identical results.  NTT values
 * are kept lazily in [0, 4p) between butterfly stages (Harvey's bound) and
 * fully reduced into [0, p) once at the end, so the final residues match
 * the reference NttContext exactly;
 * the multiply-accumulates add unreduced products (limbs are below 2^30,
 * so at least fifteen fit a 64-bit word) and reduce once per output
 * coefficient, every one through mod32_reduce (32-bit products only).
 *
 * Lanes.  ntt_forward, ntt_inverse, mac_weights, keyswitch_rotate and
 * rns_hoist split a large call into items -- rows of one limb, a limb, one
 * limb of one run, one batch member's whole hoist (or, for fewer members
 * than lanes, one stage at a time: a row, a block of coefficient columns,
 * a digit row of one limb) -- and run them on the calling thread and a
 * persistent team of helper threads, one lane per CPU of the process's
 * affinity mask (see "lanes" below; kernel_lanes reports the count).  Each
 * item writes its own output rows and nothing is summed across items, so
 * the outputs are the same bytes on any number of lanes.  Every entry
 * point stays reentrant: scratch is on the stack, owned by the team (one
 * buffer per helper) or allocated for the call (the calling thread's lane,
 * by lanes_run), and a call that finds the team busy runs on its own
 * thread alone.
 *
 * Key-switch keys are stored as 32-bit words (repro.bfv.keys).  That is
 * exact, not a truncation: a key residue is reduced below its limb's
 * modulus, and every modulus is below 2^30, so the upper half of the
 * 64-bit word it used to occupy was always zero.
 * The MAC widens each word as it loads it; the products and accumulators
 * are the same 64-bit values as before, so the outputs are unchanged and
 * the key bytes streamed per rotation halve.
 *
 * One limb bound.  Every limb modulus is below 2^30 (MAX_NTT_MODULUS_BITS
 * in ntt.py, which RnsBasis enforces for every basis), so the NTT's lazy
 * values, below 4p, and a Garner step (see garner) fit 32 bits, and a
 * twiddle product takes a 32-bit Shoup quotient w' = floor(w * 2^32 / p):
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
 * `isa` level, clamped to what the CPU supports.  Each body has one form
 * per direction, and both keep the coefficient side in bit-reversed order:
 * the forward loads bit-reversed coefficients with plain loads, fused with
 * the psi premultiply, runs DIT stages and fuses the last one with the
 * final reduction; the inverse runs Gentleman-Sande stages (natural-order
 * evaluations in, bit-reversed coefficients out) and fuses the narrow ones
 * with the n^-1 psi^-j scale.  The vector bodies run the stages narrower
 * than a vector as lane permutes within a two-register chunk; a body needs
 * a ring of at least two vectors (n >= 16 for AVX-512, 8 for AVX2).  The
 * scalar body is the only one on non-x86 or non-GNU compilers and for
 * n < 8.  Inside the hoist the rows stay bit-reversed between the
 * transforms, so nothing permutes them; the standalone ntt_forward /
 * ntt_inverse bit-reverse each row in one scalar pass outside the bodies.
 * keyswitch_rotate takes the same `isa` level and has two bodies,
 * AVX-512F and scalar; mac_weights and rns_hoist's Decompose take it too,
 * and run an AVX-512F body at that level, their cloned loops below it.
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

/* The fixed-point sums of rns_scale_round; nothing else needs 128 bits. */
typedef unsigned __int128 u128;

/* a * b for a, b < 2^32 (every residue, lazy NTT value and 32-bit Shoup
 * quotient): a 32x32 -> 64-bit product is exact and is the one multiply
 * every SIMD level has, so loops spelled with it vectorize. */
static inline uint64_t mul_residues(uint64_t a, uint64_t b) {
    return (uint64_t)(uint32_t)a * (uint32_t)b;
}

/* v - m where v >= m, else v (0 < m, v < 2^63): below m the difference
 * wraps above v. */
static inline uint64_t csub(uint64_t v, uint64_t m) {
    const uint64_t d = v - m;
    return d < v ? d : v;
}

/* -- lanes: one helper team per process ----------------------------------- */

/* A split call publishes its items and takes them itself, together with the
 * helpers: every lane claims the next item from one atomic counter (`left`,
 * counted down), so a helper that wakes late finds fewer items rather than
 * making the caller wait for a fixed share.  The caller returns once its
 * own items are done and `done` counts the helpers'; it spins WAIT_SPIN
 * pauses on that, then sleeps on `finished`.  A helper reads the job (fn,
 * ctx, its scratch) only after it claimed an item of it: the owner
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
    /* Helper h's scratch, spare_size bytes: one allocation per helper, so
     * an overrun of one lane's scratch meets a sanitizer's redzone rather
     * than the next lane's. */
    unsigned char *spare[LANES_MAX];
    size_t spare_size;
    int scratch;           /* the current job passes scratch */
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
            team.fn(team.ctx, item, team.scratch ? team.spare[slice] : NULL);
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

/* `bytes` starting on a cache line (64 bytes), so that rows of n >= 8
 * residues in it do too; NULL when it cannot be had. */
static void *alloc_lines(size_t bytes) {
    return aligned_alloc(64, (bytes + 63) & ~(size_t)63);
}

/* Owner only: helpers running and `scratch` bytes of scratch for each; 0
 * when neither can be had (the call then runs inline). */
static int team_ready(size_t scratch) {
    static int registered;
    const int lanes = lanes_of_process();
    if (scratch > team.spare_size) {
        team.spare_size = 0;
        for (int h = 0; h < lanes - 1; ++h) {
            free(team.spare[h]);
            if (!(team.spare[h] = alloc_lines(scratch)))
                return 0;
        }
        team.spare_size = scratch;
    }
    team.scratch = scratch > 0;
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
 * `split` is set and the team is free, else in order on this thread.  Each
 * lane gets its own `scratch_bytes` of scratch (none for 0): a helper the
 * team's, the calling thread a row allocated here.  -1 when that row
 * cannot be had, else 0. */
static long lanes_run(lane_fn fn, const void *ctx, long items, int split,
                      size_t scratch_bytes) {
    void *scratch = scratch_bytes ? alloc_lines(scratch_bytes) : NULL;
    if (scratch_bytes && !scratch)
        return -1;
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
            free(scratch);
            return 0;
        }
        atomic_store(&team.owned, 0);
    }
    for (long item = 0; item < items; ++item)
        fn(ctx, item, scratch);
    free(scratch);
    return 0;
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

/* One limb of a transform call: B rows of n residues, src -> dst, the
 * coefficient side in bit-reversed order.
 *
 * scale/scale_sh: (n) in bit-reversed order: the forward's psi
 *                 premultiply, the inverse's n^-1 psi^-j scale
 * tw/tw_sh:       (n) stage twiddles, stage s (half-width 2^s) at column
 *                 2^s, so a stage's run starts on a cache line whenever the
 *                 table does (column 0 is unused)
 * p:              the limb's modulus, below 2^30
 * Every *_sh table holds 32-bit Shoup quotients.  Each body runs a row in
 * passes: the forward's front (load, premultiply, the narrow stages), its
 * wide DIT stages, its last stage; the Gentleman-Sande inverse's wide
 * stages, then its narrow stages fused with the scale.
 */
typedef struct {
    const uint64_t *src;
    uint64_t *dst;
    const uint64_t *scale, *scale_sh, *tw, *tw_sh;
    uint64_t p;
    long B, n;
} ntt_call;

/* x*w mod p in [0, 2p) for x < 2^32 and w < p < 2^31, with wsh =
 * floor(w * 2^32 / p). */
static inline uint64_t shoup32(uint64_t x, uint64_t w, uint64_t wsh, uint64_t p) {
    return mul_residues(x, w) - mul_residues(mul_residues(x, wsh) >> 32, p);
}

/* Scalar front: the psi premultiply -> [0, 2p).  The scalar passes copy
 * the call's fields to locals: a store to a row could alias them, which
 * would reload each one inside the loop. */
static void front_scalar(const ntt_call *c, const uint64_t *in, uint64_t *row) {
    const uint64_t *scale = c->scale, *scale_sh = c->scale_sh, p = c->p;
    for (long j = 0, n = c->n; j < n; ++j)
        row[j] = shoup32(in[j], scale[j], scale_sh[j], p);
}

/* DIT stage of half-width `half`, Harvey lazy: values stay in [0, 4p). */
static void dit_scalar(const ntt_call *c, uint64_t *row, long half) {
    const uint64_t p = c->p, twop = 2 * p, *w = c->tw + half, *wsh = c->tw_sh + half;
    for (long block = 0; block < c->n; block += 2 * half) {
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

/* Gentleman-Sande stage of half-width `half`, from -> row: x + y and
 * (x + 2p - y) w, values in [0, 2p) staying there. */
static void gs_scalar(const ntt_call *c, const uint64_t *from, uint64_t *row, long half) {
    const uint64_t p = c->p, twop = 2 * p, *w = c->tw + half, *wsh = c->tw_sh + half;
    for (long block = 0; block < c->n; block += 2 * half) {
        for (long j = 0; j < half; ++j) {
            const uint64_t x = from[block + j], y = from[block + half + j];
            row[block + j] = csub(x + y, twop);
            row[block + half + j] = shoup32(x + twop - y, w[j], wsh[j], p);
        }
    }
}

/* The forward's single deferred reduction into [0, p). */
static void last_scalar(const ntt_call *c, uint64_t *row) {
    const uint64_t p = c->p;
    for (long j = 0, n = c->n; j < n; ++j)
        row[j] = csub(csub(row[j], 2 * p), p);
}

/* The inverse's scale, then the reduction into [0, p). */
static void back_scalar(const ntt_call *c, uint64_t *row) {
    const uint64_t *scale = c->scale, *scale_sh = c->scale_sh, p = c->p;
    for (long j = 0, n = c->n; j < n; ++j)
        row[j] = csub(shoup32(row[j], scale[j], scale_sh[j], p), p);
}

static void transform_scalar(const ntt_call *c, int forward) {
    const long n = c->n;
    for (long b = 0; b < c->B; ++b) {
        const uint64_t *in = c->src + b * n;
        uint64_t *row = c->dst + b * n;
        if (forward) {
            front_scalar(c, in, row);
            for (long half = 1; half < n; half <<= 1)
                dit_scalar(c, row, half);
            last_scalar(c, row);
        } else {
            for (long half = n / 2; half >= 1; half >>= 1)
                gs_scalar(c, half == n / 2 ? in : row, row, half);
            back_scalar(c, row);
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
 * concatenation E|O -- the index _mm512_permutex2var_epi64 takes.  The
 * forward runs s = 0, 1, 2 after its load, the Gentleman-Sande inverse
 * s = 2, 1, 0 before its store. */
static inline int64_t even_of(int s, int64_t k) {
    return ((k >> s) << (s + 1)) | (k & ((1 << s) - 1));
}

static inline int64_t slot_of(int s, int64_t m) {
    const int64_t at = ((m >> (s + 1)) << s) | (m & ((1 << s) - 1));
    return ((m >> s) & 1) ? 8 + at : at;
}

/* The AVX-512 body's constants for one limb: take[s], the (E, O) of stage
 * s from the registers it follows (element order for the first); back,
 * element order again after the last; the narrow stages' twiddles, E lane
 * k at block position k mod h (stage 0's twiddle is 1). */
typedef struct {
    __m512i p, twop, take_e[3], take_o[3], back_a, back_b, sw[3], swsh[3];
} body8;

NTT_AVX512_FN static void body8_of(body8 *v, const ntt_call *c, int forward) {
    for (int s = 0; s < 3; ++s) {
        const int from = forward ? s - 1 : s < 2 ? s + 1 : -1; /* -1: element order */
        int64_t e[8], o[8];
        for (int64_t k = 0; k < 8; ++k) {
            const int64_t even = even_of(s, k), odd = even + (1 << s);
            e[k] = from < 0 ? even : slot_of(from, even);
            o[k] = from < 0 ? odd : slot_of(from, odd);
        }
        v->take_e[s] = load8(e);
        v->take_o[s] = load8(o);
    }
    int64_t a[16];
    for (int64_t m = 0; m < 16; ++m)
        a[m] = slot_of(forward ? 2 : 0, m);
    v->back_a = load8(a);
    v->back_b = load8(a + 8);
    v->p = _mm512_set1_epi64((long long)c->p);
    v->twop = _mm512_add_epi64(v->p, v->p);
    v->sw[0] = v->swsh[0] = _mm512_setzero_si512();
    for (int s = 1; s < 3; ++s) {
        const long h = 1L << s;
        uint64_t w[8], wsh[8];
        for (long k = 0; k < 8; ++k) {
            w[k] = c->tw[h + (k & (h - 1))];
            wsh[k] = c->tw_sh[h + (k & (h - 1))];
        }
        v->sw[s] = load8(w);
        v->swsh[s] = load8(wsh);
    }
}

/* Forward front: each 16-element chunk loaded, premultiplied by psi, then
 * stages s = 0, 1, 2. */
NTT_AVX512_FN static void front8(const body8 *vp, const ntt_call *c, const uint64_t *in,
                                 uint64_t *row) {
    const body8 v = *vp;
    const uint64_t *scale = c->scale, *scale_sh = c->scale_sh;
    for (long j = 0; j < c->n; j += 16) {
        __m512i ra = shoup8(load8(in + j), load8(scale + j), load8(scale_sh + j), v.p);
        __m512i rb = shoup8(load8(in + j + 8), load8(scale + j + 8), load8(scale_sh + j + 8), v.p);
        for (int s = 0; s < 3; ++s) {
            __m512i e = _mm512_permutex2var_epi64(ra, v.take_e[s], rb);
            __m512i o = _mm512_permutex2var_epi64(ra, v.take_o[s], rb);
            if (s) {
                bfly8(&e, &o, v.sw[s], v.swsh[s], v.p, v.twop);
            } else {
                /* twiddle 1, operands still below 2p */
                const __m512i x = e;
                e = _mm512_add_epi64(x, o);
                o = _mm512_sub_epi64(_mm512_add_epi64(x, v.twop), o);
            }
            ra = e;
            rb = o;
        }
        store8(row + j, _mm512_permutex2var_epi64(ra, v.back_a, rb));
        store8(row + j + 8, _mm512_permutex2var_epi64(ra, v.back_b, rb));
    }
}

/* DIT stage of half-width `half` >= 8, in place. */
NTT_AVX512_FN static void dit8(const body8 *vp, const ntt_call *c, uint64_t *row, long half) {
    const __m512i p = vp->p, twop = vp->twop;
    const uint64_t *w = c->tw + half, *wsh = c->tw_sh + half;
    for (long block = 0; block < c->n; block += 2 * half) {
        uint64_t *even = row + block, *odd = even + half;
        for (long j = 0; j < half; j += 8) {
            __m512i e = load8(even + j), o = load8(odd + j);
            bfly8(&e, &o, load8(w + j), load8(wsh + j), p, twop);
            store8(even + j, e);
            store8(odd + j, o);
        }
    }
}

/* Last DIT stage, fused with the reduction. */
NTT_AVX512_FN static void last8(const body8 *vp, const ntt_call *c, uint64_t *row) {
    const __m512i p = vp->p, twop = vp->twop;
    const long half_n = c->n / 2;
    const uint64_t *w = c->tw + half_n, *wsh = c->tw_sh + half_n;
    for (long j = 0; j < half_n; j += 8) {
        __m512i e = load8(row + j), o = load8(row + half_n + j);
        bfly8(&e, &o, load8(w + j), load8(wsh + j), p, twop);
        store8(row + j, csub8(csub8(e, twop), p));
        store8(row + half_n + j, csub8(csub8(o, twop), p));
    }
}

/* Gentleman-Sande stage of half-width `half` >= 8, from -> row. */
NTT_AVX512_FN static void gs8(const body8 *vp, const ntt_call *c, const uint64_t *from,
                              uint64_t *row, long half) {
    const __m512i p = vp->p, twop = vp->twop;
    const uint64_t *w = c->tw + half, *wsh = c->tw_sh + half;
    for (long block = 0; block < c->n; block += 2 * half) {
        for (long j = 0; j < half; j += 8) {
            const __m512i x = load8(from + block + j), y = load8(from + block + half + j);
            store8(row + block + j, csub8(_mm512_add_epi64(x, y), twop));
            store8(row + block + half + j, shoup8(_mm512_sub_epi64(_mm512_add_epi64(x, twop), y),
                                                  load8(w + j), load8(wsh + j), p));
        }
    }
}

/* Gentleman-Sande stages s = 2, 1, 0 of each 16-element chunk, fused with
 * the scale and the reduction into [0, p). */
NTT_AVX512_FN static void back8(const body8 *vp, const ntt_call *c, uint64_t *row) {
    const body8 v = *vp;
    const uint64_t *scale = c->scale, *scale_sh = c->scale_sh;
    for (long j = 0; j < c->n; j += 16) {
        __m512i ra = load8(row + j), rb = load8(row + j + 8);
        for (int s = 2; s >= 0; --s) {
            const __m512i x = _mm512_permutex2var_epi64(ra, v.take_e[s], rb);
            const __m512i y = _mm512_permutex2var_epi64(ra, v.take_o[s], rb);
            /* stage 0 leaves both below 4p for the scale */
            ra = _mm512_add_epi64(x, y);
            rb = _mm512_sub_epi64(_mm512_add_epi64(x, v.twop), y);
            if (s) {
                ra = csub8(ra, v.twop);
                rb = shoup8(rb, v.sw[s], v.swsh[s], v.p);
            }
        }
        const __m512i a = _mm512_permutex2var_epi64(ra, v.back_a, rb);
        const __m512i b = _mm512_permutex2var_epi64(ra, v.back_b, rb);
        store8(row + j, csub8(shoup8(a, load8(scale + j), load8(scale_sh + j), v.p), v.p));
        store8(row + j + 8,
               csub8(shoup8(b, load8(scale + j + 8), load8(scale_sh + j + 8), v.p), v.p));
    }
}

NTT_AVX512_FN static void transform_avx512(const ntt_call *c, int forward) {
    const long n = c->n;
    body8 v;
    body8_of(&v, c, forward);
    for (long b = 0; b < c->B; ++b) {
        const uint64_t *in = c->src + b * n;
        uint64_t *row = c->dst + b * n;
        if (forward) {
            front8(&v, c, in, row);
            for (long half = 8; half < n / 2; half <<= 1)
                dit8(&v, c, row, half);
            last8(&v, c, row);
        } else {
            for (long half = n / 2; half >= 8; half >>= 1)
                gs8(&v, c, half == n / 2 ? in : row, row, half);
            back8(&v, c, row);
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
 * of an 8-element chunk a|b with 64-bit unpacks and 128-bit swaps.  The
 * constants: the modulus and the twiddles of h = 2, E at block positions
 * 0, 1, 0, 1. */
typedef struct {
    __m256i p, twop, sw, swsh;
} body4;

NTT_AVX2_FN static void body4_of(body4 *v, const ntt_call *c) {
    const long long *tw = (const long long *)c->tw, *tw_sh = (const long long *)c->tw_sh;
    v->p = _mm256_set1_epi64x((long long)c->p);
    v->twop = _mm256_add_epi64(v->p, v->p);
    v->sw = _mm256_set_epi64x(tw[3], tw[2], tw[3], tw[2]);
    v->swsh = _mm256_set_epi64x(tw_sh[3], tw_sh[2], tw_sh[3], tw_sh[2]);
}

NTT_AVX2_FN static void front4(const body4 *vp, const ntt_call *c, const uint64_t *in,
                               uint64_t *row) {
    const body4 v = *vp;
    const uint64_t *scale = c->scale, *scale_sh = c->scale_sh;
    for (long j = 0; j < c->n; j += 8) {
        __m256i ra = shoup4(load4(in + j), load4(scale + j), load4(scale_sh + j), v.p);
        __m256i rb = shoup4(load4(in + j + 4), load4(scale + j + 4), load4(scale_sh + j + 4), v.p);
        /* h = 1: twiddle 1, operands still below 2p */
        __m256i e = _mm256_unpacklo_epi64(ra, rb), o = _mm256_unpackhi_epi64(ra, rb);
        const __m256i x = e;
        e = _mm256_add_epi64(x, o);
        o = _mm256_sub_epi64(_mm256_add_epi64(x, v.twop), o);
        ra = _mm256_unpacklo_epi64(e, o);
        rb = _mm256_unpackhi_epi64(e, o);
        /* h = 2 */
        e = _mm256_permute2x128_si256(ra, rb, 0x20);
        o = _mm256_permute2x128_si256(ra, rb, 0x31);
        bfly4(&e, &o, v.sw, v.swsh, v.p, v.twop);
        store4(row + j, _mm256_permute2x128_si256(e, o, 0x20));
        store4(row + j + 4, _mm256_permute2x128_si256(e, o, 0x31));
    }
}

NTT_AVX2_FN static void dit4(const body4 *vp, const ntt_call *c, uint64_t *row, long half) {
    const __m256i p = vp->p, twop = vp->twop;
    const uint64_t *w = c->tw + half, *wsh = c->tw_sh + half;
    for (long block = 0; block < c->n; block += 2 * half) {
        uint64_t *even = row + block, *odd = even + half;
        for (long j = 0; j < half; j += 4) {
            __m256i e = load4(even + j), o = load4(odd + j);
            bfly4(&e, &o, load4(w + j), load4(wsh + j), p, twop);
            store4(even + j, e);
            store4(odd + j, o);
        }
    }
}

NTT_AVX2_FN static void last4(const body4 *vp, const ntt_call *c, uint64_t *row) {
    const __m256i p = vp->p, twop = vp->twop;
    const long half_n = c->n / 2;
    const uint64_t *w = c->tw + half_n, *wsh = c->tw_sh + half_n;
    for (long j = 0; j < half_n; j += 4) {
        __m256i e = load4(row + j), o = load4(row + half_n + j);
        bfly4(&e, &o, load4(w + j), load4(wsh + j), p, twop);
        store4(row + j, csub4(csub4(e, twop), p));
        store4(row + half_n + j, csub4(csub4(o, twop), p));
    }
}

NTT_AVX2_FN static void gs4(const body4 *vp, const ntt_call *c, const uint64_t *from,
                            uint64_t *row, long half) {
    const __m256i p = vp->p, twop = vp->twop;
    const uint64_t *w = c->tw + half, *wsh = c->tw_sh + half;
    for (long block = 0; block < c->n; block += 2 * half) {
        for (long j = 0; j < half; j += 4) {
            const __m256i x = load4(from + block + j), y = load4(from + block + half + j);
            store4(row + block + j, csub4(_mm256_add_epi64(x, y), twop));
            store4(row + block + half + j, shoup4(_mm256_sub_epi64(_mm256_add_epi64(x, twop), y),
                                                  load4(w + j), load4(wsh + j), p));
        }
    }
}

/* Gentleman-Sande h = 2, then h = 1 (both below 4p for the scale). */
NTT_AVX2_FN static void back4(const body4 *vp, const ntt_call *c, uint64_t *row) {
    const body4 v = *vp;
    const uint64_t *scale = c->scale, *scale_sh = c->scale_sh;
    for (long j = 0; j < c->n; j += 8) {
        const __m256i ra = load4(row + j), rb = load4(row + j + 4);
        __m256i x = _mm256_permute2x128_si256(ra, rb, 0x20);
        __m256i y = _mm256_permute2x128_si256(ra, rb, 0x31);
        __m256i e = csub4(_mm256_add_epi64(x, y), v.twop);
        __m256i o = shoup4(_mm256_sub_epi64(_mm256_add_epi64(x, v.twop), y), v.sw, v.swsh, v.p);
        x = _mm256_unpacklo_epi64(e, o);
        y = _mm256_unpackhi_epi64(e, o);
        e = _mm256_add_epi64(x, y);
        o = _mm256_sub_epi64(_mm256_add_epi64(x, v.twop), y);
        x = _mm256_unpacklo_epi64(e, o);
        y = _mm256_unpackhi_epi64(e, o);
        e = _mm256_permute2x128_si256(x, y, 0x20);
        o = _mm256_permute2x128_si256(x, y, 0x31);
        store4(row + j, csub4(shoup4(e, load4(scale + j), load4(scale_sh + j), v.p), v.p));
        store4(row + j + 4,
               csub4(shoup4(o, load4(scale + j + 4), load4(scale_sh + j + 4), v.p), v.p));
    }
}

NTT_AVX2_FN static void transform_avx2(const ntt_call *c, int forward) {
    const long n = c->n;
    body4 v;
    body4_of(&v, c);
    for (long b = 0; b < c->B; ++b) {
        const uint64_t *in = c->src + b * n;
        uint64_t *row = c->dst + b * n;
        if (forward) {
            front4(&v, c, in, row);
            for (long half = 4; half < n / 2; half <<= 1)
                dit4(&v, c, row, half);
            last4(&v, c, row);
        } else {
            for (long half = n / 2; half >= 4; half >>= 1)
                gs4(&v, c, half == n / 2 ? in : row, row, half);
            back4(&v, c, row);
        }
    }
}

#endif /* NTT_X86 */

/* Runs the widest body at or below `isa` that this CPU supports and that
 * fills two vectors per chunk (n >= 16 lanes for AVX-512, 8 for AVX2). */
static void ntt_dispatch(const ntt_call *c, int forward, long isa) {
    const long top = ntt_isa_max();
    if (isa > top)
        isa = top;
#ifdef NTT_X86
    if (isa >= NTT_AVX512 && c->n >= 16) {
        transform_avx512(c, forward);
        return;
    }
    if (isa >= NTT_AVX2 && c->n >= 8) {
        transform_avx2(c, forward);
        return;
    }
#endif
    transform_scalar(c, forward);
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
 * all k limbs, limb after limb, p the k moduli and perm the bit-reversal
 * permutation of n -- and how it splits. */
typedef struct {
    const uint64_t *src;
    uint64_t *dst;
    const int64_t *perm;
    const uint64_t *scale, *scale_sh, *tw, *tw_sh, *p;
    long k, B, n, isa;
    int forward;
    long rows, chunks; /* rows per item, items per limb */
} ntt_split;

/* to[j] = from[perm[j]] for one row. */
static void bit_reverse(const ntt_split *s, const uint64_t *from, uint64_t *to) {
    const int64_t *perm = s->perm;
    for (long j = 0, n = s->n; j < n; ++j)
        to[j] = from[perm[j]];
}

/* Item: rows [r0, r0 + rows) of limb item / chunks, through this lane's
 * n-word scratch.  The bodies take and give bit-reversed coefficients and
 * the callers' are in natural order, so the forward copies each row into
 * the scratch bit-reversed and transforms it from there into dst, and the
 * inverse transforms each row into the scratch and copies it out
 * bit-reversed. */
static void ntt_rows(const void *arg, long item, void *scratch) {
    const ntt_split *s = arg;
    const long n = s->n, i = item / s->chunks, r0 = item % s->chunks * s->rows;
    const long rows = s->B - r0 < s->rows ? s->B - r0 : s->rows;
    ntt_call c = {scratch, scratch, s->scale + i * n, s->scale_sh + i * n,
                  s->tw + i * n, s->tw_sh + i * n, s->p[i], 1, n};
    for (long r = 0, at = (i * s->B + r0) * n; r < rows; ++r, at += n) {
        if (s->forward) {
            bit_reverse(s, s->src + at, scratch);
            c.dst = s->dst + at;
        } else {
            c.src = s->src + at;
        }
        ntt_dispatch(&c, s->forward, s->isa);
        if (!s->forward)
            bit_reverse(s, scratch, s->dst + at);
    }
}

/* A (k, B, n) residue stack src into dst (see ntt_split), every lane
 * through an n-word row; -1 when the calling thread's row cannot be had,
 * else 0. */
static long ntt_run(ntt_split *s) {
    s->rows = s->n < NTT_ITEM ? NTT_ITEM / s->n : 1;
    s->chunks = s->B ? (s->B + s->rows - 1) / s->rows : 1;
    return lanes_run(ntt_rows, s, s->k * s->chunks, s->k * s->B * s->n >= NTT_SPLIT_MIN,
                     (size_t)s->n * sizeof(uint64_t));
}

/* Forward transform; psi/psi_sh are the premultiply tables. */
long ntt_forward(const uint64_t *src, uint64_t *dst, const int64_t *perm,
                 const uint64_t *psi, const uint64_t *psi_sh,
                 const uint64_t *tw, const uint64_t *tw_sh,
                 const uint64_t *p_arr, long k, long B, long n, long isa) {
    ntt_split s = {src, dst, perm, psi, psi_sh, tw, tw_sh, p_arr, k, B, n, isa, 1, 0, 0};
    return ntt_run(&s);
}

/* Inverse transform: Gentleman-Sande stages with inverse twiddles, fused
 * with the multiply by n^-1 * psi^-j (iscale tables), natural order
 * output. */
long ntt_inverse(const uint64_t *src, uint64_t *dst, const int64_t *perm,
                 const uint64_t *iscale, const uint64_t *iscale_sh,
                 const uint64_t *tw, const uint64_t *tw_sh,
                 const uint64_t *p_arr, long k, long B, long n, long isa) {
    ntt_split s = {src, dst, perm, iscale, iscale_sh, tw, tw_sh, p_arr, k, B, n, isa, 0, 0, 0};
    return ntt_run(&s);
}

/* One direction's (k, n) transform tables, as ntt_forward / ntt_inverse
 * take them (perm unused inside the fused calls), and `rows` rows of n
 * residues of limb i through them, src -> dst (the same rows or not: every
 * body reads a position before it writes it), the coefficient side
 * bit-reversed. */
typedef struct {
    const int64_t *perm;
    const uint64_t *scale, *scale_sh, *tw, *tw_sh, *p;
} ntt_tables;

static void ntt_limb(const ntt_tables *t, long i, long n, long rows, int forward, long isa,
                     const uint64_t *src, uint64_t *dst) {
    const ntt_call c = {src, dst, t->scale + i * n, t->scale_sh + i * n, t->tw + i * n,
                        t->tw_sh + i * n, t->p[i], rows, n};
    ntt_dispatch(&c, forward, isa);
}

/* -- multiply-accumulate -------------------------------------------------- */

/* The MAC loops are plain multiply-adds that the compiler vectorises; the
 * baseline x86-64 build only has 2-lane SSE2 with no 64-bit multiply, so on
 * GCC/glibc each MAC (and the hoist's Decompose block, whose loops are
 * spelled the same way) is also cloned for AVX2 and AVX-512 and picked by the
 * dynamic loader at load time (the cached object stays portable across
 * hosts, unlike -march=native; integer results are identical).  A
 * ThreadSanitizer build goes without: the loader runs the clones' resolvers
 * before the sanitizer's runtime is up, which crashes at start-up.  The
 * vectorizer cannot see that a residue's upper half is 0, so each 32 x 32
 * -> 64-bit product becomes a full 64-bit multiply (three vpmuludq and
 * shifts); the weight MAC and the Decompose compose therefore also have an
 * AVX-512F body spelled with intrinsics, one vpmuludq per product, chosen
 * at the AVX-512 `isa` level, and the clones are their AVX2 and scalar
 * bodies.  The codec's range and word passes are cloned too. */
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

/* Reduction of any 64-bit accumulator acc = hi 2^32 + lo modulo p < 2^31
 * (a limb, below 2^30, or the plain modulus t) with 32 x 32 -> 64-bit
 * products only, so loops spelled with it vectorize: hi (2^32 mod p) and
 * lo each by Shoup, both in [0, 2p), then two conditional subtracts -- the
 * canonical residue.  Every MAC, the Delta m lift and the mod-t step of
 * decryption reduce through it. */
typedef struct {
    uint64_t p, r32, r32_sh, one_sh;
    long chunk; /* mac_chunk(p) */
} mod32;

static mod32 mod32_of(uint64_t p) {
    const uint64_t r32 = ((uint64_t)1 << 32) % p;
    const mod32 m = {p, r32, (r32 << 32) / p, ((uint64_t)1 << 32) / p, mac_chunk(p)};
    return m;
}

static inline uint64_t mod32_reduce(uint64_t acc, mod32 m) {
    const uint64_t r = shoup32(acc >> 32, m.r32, m.r32_sh, m.p)
                     + shoup32(acc & 0xffffffffu, 1, m.one_sh, m.p);
    return csub(csub(r, 2 * m.p), m.p);
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
 * the lane's scratch: the limb's two sums in slot order, n words each. */
typedef struct {
    const uint64_t *x, *c0;
    const uint32_t *a, *b;
    long xs_t, T, n;
    uint32_t *sum0, *sum1;
} ks_limb;

/* Slots [from, n) of the sums: sum0 = c0 + sum_t x_t key0_t, sum1 =
 * sum_t x_t key1_t, reduced; per tile of slots the terms run outermost. */
static void ks_sums_scalar(const ks_limb *l, const mod32 *m, long from) {
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
                    acc0[j] = mod32_reduce(acc0[j], *m);
                    acc1[j] = mod32_reduce(acc1[j], *m);
                }
            }
            for (long j = 0; j < width; ++j) {
                acc0[j] += mul_residues(xr[j], ar[j]);
                acc1[j] += mul_residues(xr[j], br[j]);
            }
        }
        for (long j = 0; j < width; ++j) {
            const uint64_t s = l->c0[j0 + j] + mod32_reduce(acc0[j], *m);
            l->sum0[j0 + j] = (uint32_t)(s >= m->p ? s - m->p : s);
            l->sum1[j0 + j] = (uint32_t)mod32_reduce(acc1[j], *m);
        }
    }
}

/* Outputs [from, n): the Swap, out[j] = sum[g(j)], or out[j] + sum[g(j)]
 * mod p when `add` (out already reduced). */
static void ks_gather_scalar(const ks_limb *l, const int64_t *g, uint64_t *o0, uint64_t *o1,
                             long from, int add, uint64_t p) {
    for (long j = from; j < l->n; ++j) {
        o0[j] = add ? csub(o0[j] + l->sum0[g[j]], p) : l->sum0[g[j]];
        o1[j] = add ? csub(o1[j] + l->sum1[g[j]], p) : l->sum1[g[j]];
    }
}

#ifdef NTT_X86

NTT_AVX512_FN static inline __m512i mod32_reduce8(__m512i acc, __m512i p, __m512i twop,
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
NTT_AVX512_FN static long ks_sums_avx512(const ks_limb *l, const mod32 *m) {
    const __m512i p = _mm512_set1_epi64((long long)m->p), twop = _mm512_add_epi64(p, p);
    const __m512i r32 = _mm512_set1_epi64((long long)m->r32);
    const __m512i r32_sh = _mm512_set1_epi64((long long)m->r32_sh);
    const __m512i one_sh = _mm512_set1_epi64((long long)m->one_sh);
    long j = 0;
    for (; j + 8 <= l->n; j += 8) {
        __m512i acc0 = _mm512_setzero_si512(), acc1 = _mm512_setzero_si512();
        for (long t0 = 0; t0 < l->T; t0 += m->chunk) {
            if (t0) {
                acc0 = mod32_reduce8(acc0, p, twop, r32, r32_sh, one_sh);
                acc1 = mod32_reduce8(acc1, p, twop, r32, r32_sh, one_sh);
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
                                     mod32_reduce8(acc0, p, twop, r32, r32_sh, one_sh));
        s = _mm512_min_epu64(s, _mm512_sub_epi64(s, p));
        _mm256_storeu_si256((__m256i *)(l->sum0 + j), _mm512_cvtepi64_epi32(s));
        _mm256_storeu_si256((__m256i *)(l->sum1 + j), _mm512_cvtepi64_epi32(
            mod32_reduce8(acc1, p, twop, r32, r32_sh, one_sh)));
    }
    return j;
}

NTT_AVX512_FN static long ks_gather_avx512(const ks_limb *l, const int64_t *g, uint64_t *o0,
                                           uint64_t *o1, int add, uint64_t p) {
    const __m512i pv = _mm512_set1_epi64((long long)p);
    long j = 0;
    for (; j + 8 <= l->n; j += 8) {
        const __m512i at = load8(g + j);
        const __m512i v0 = _mm512_cvtepu32_epi64(_mm512_i64gather_epi32(at, l->sum0, 4));
        const __m512i v1 = _mm512_cvtepu32_epi64(_mm512_i64gather_epi32(at, l->sum1, 4));
        store8(o0 + j, add ? csub8(_mm512_add_epi64(v0, load8(o0 + j)), pv) : v0);
        store8(o1 + j, add ? csub8(_mm512_add_epi64(v1, load8(o1 + j)), pv) : v1);
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
 * with g the job's eval map.  A run is the consecutive jobs that name one
 * output row: its first job writes the row (adds into it when
 * `accumulate`; the row then holds reduced residues), each later one adds
 * mod p_i, so a run is the sum of its rotations -- Sched-PA's giant steps
 * summed into their total.  The caller names no row in two runs.  Each
 * lane sums one limb in 2n words of scratch; -1 when the calling thread's
 * cannot be had, else 0.  `isa` picks the body as for the NTT: AVX-512F,
 * else scalar.  Key residues are 32-bit words (see the file header).
 * Calls of at least KS_SPLIT_MIN products split across the lanes, one
 * limb of one run per item, so no two lanes share a row.
 */
/* On 2 lanes at (k, T, n) = (4, 7, 2048), one or two runs of 114,688 products took 0.44-0.66x
 * their inline time split, one job (57,344) 0.52-0.62x; 0.99-1.16x when inline ran 1.6x faster. */
#define KS_SPLIT_MIN 100000

typedef struct {
    const ks_job *jobs;
    long count, xs_k, xs_t, cs_k, os_k;
    const uint64_t *p;
    long k, T, n;
    int wide, accumulate;
} ks_split;

/* Item: limb item % k of the run job item / k starts, job by job, with
 * this lane's 2n-word scratch; nothing for a job inside a run. */
static void ks_item(const void *arg, long item, void *scratch) {
    const ks_split *s = arg;
    const long first = item / s->k, i = item % s->k;
    if (first && s->jobs[first].out0 == s->jobs[first - 1].out0)
        return;
    uint32_t *sums = scratch;
    const mod32 m = mod32_of(s->p[i]);
    for (long r = first; r < s->count && s->jobs[r].out0 == s->jobs[first].out0; ++r) {
        const ks_job *job = s->jobs + r;
        const ks_limb l = {
            job->digits + i * s->xs_k, job->c0 + i * s->cs_k,
            job->key0 + i * job->key_limb, job->key1 + i * job->key_limb,
            s->xs_t, s->T, s->n, sums, sums + s->n,
        };
        uint64_t *o0 = job->out0 + i * s->os_k, *o1 = job->out1 + i * s->os_k;
        const int add = s->accumulate || r > first;
        long done = 0, gathered = 0;
#ifdef NTT_X86
        if (s->wide) done = ks_sums_avx512(&l, &m);
#endif
        ks_sums_scalar(&l, &m, done);
#ifdef NTT_X86
        if (s->wide) gathered = ks_gather_avx512(&l, job->gather, o0, o1, add, m.p);
#endif
        ks_gather_scalar(&l, job->gather, o0, o1, gathered, add, m.p);
    }
}

long keyswitch_rotate(const ks_job *jobs, long count,
                      long xs_k, long xs_t, long cs_k, long os_k,
                      const uint64_t *p_arr, long k, long T, long n, long accumulate, long isa) {
#ifdef NTT_X86
    const int wide = isa >= NTT_AVX512 && ntt_isa_max() >= NTT_AVX512;
#else
    const int wide = 0;
    (void)isa;
#endif
    const ks_split s = {jobs, count, xs_k, xs_t, cs_k, os_k, p_arr, k, T, n, wide, accumulate != 0};
    return lanes_run(ks_item, &s, count * k, count * k * T * n >= KS_SPLIT_MIN,
                     2 * (size_t)n * sizeof(uint32_t));
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
 * `isa` picks the body as for the key switch: AVX-512F (n a multiple of
 * 32), else the cloned loops.
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
    int wide;
} mac_split;

/* Limb i's output rows, the loops the compiler vectorizes (the AVX2 and
 * scalar bodies).  The call's fields are copied to locals: the output
 * stores could alias them, which would reload each one inside the loops. */
MAC_CLONES
static void mac_limb_loops(const mac_split *s, long i) {
    uint64_t *const out0 = s->out0, *const out1 = s->out1;
    const uint64_t *const x0 = s->x0, *const x1 = s->x1, *const w = s->w;
    const long xs_k = s->xs_k, xs_b = s->xs_b, xs_t = s->xs_t;
    const long ws_k = s->ws_k, ws_o = s->ws_o, ws_t = s->ws_t;
    const long B = s->B, O = s->O, T = s->T, n = s->n;
    uint64_t acc0[MAC_GROUP][MAC_TILE], acc1[MAC_GROUP][MAC_TILE];
    const mod32 m = mod32_of(s->p[i]);
    for (long j0 = 0; j0 < n; j0 += MAC_TILE) {
        const long width = n - j0 < MAC_TILE ? n - j0 : MAC_TILE;
        for (long b0 = 0; b0 < B; b0 += MAC_GROUP) {
            const long group = B - b0 < MAC_GROUP ? B - b0 : MAC_GROUP;
            for (long o = 0; o < O; ++o) {
                memset(acc0, 0, sizeof acc0);
                memset(acc1, 0, sizeof acc1);
                for (long t = 0; t < T; ++t) {
                    const uint64_t *wr = w + i * ws_k + o * ws_o + t * ws_t + j0;
                    const int reduce = t && t % m.chunk == 0;
                    for (long g = 0; g < group; ++g) {
                        const long at = i * xs_k + (b0 + g) * xs_b + t * xs_t + j0;
                        const uint64_t *r0 = x0 + at;
                        const uint64_t *r1 = x1 + at;
                        uint64_t *a0 = acc0[g];
                        uint64_t *a1 = acc1[g];
                        if (reduce) {
                            for (long j = 0; j < width; ++j) {
                                a0[j] = mod32_reduce(a0[j], m);
                                a1[j] = mod32_reduce(a1[j], m);
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
                        out0[at + j] = mod32_reduce(acc0[g][j], m);
                        out1[at + j] = mod32_reduce(acc1[g][j], m);
                    }
                }
            }
        }
    }
}

#ifdef NTT_X86

/* One output channel o of G members (b0 on) at the 8 V coefficients from
 * j of limb i: both halves' accumulators in registers across the terms,
 * one vpmuludq per product (the cloned loops widen each into a 64-bit
 * multiply), reduced every m->chunk terms and at the end.  G V <= 4, so
 * the 2 G V accumulators and the V weight vectors stay in registers. */
NTT_AVX512_FN static inline __attribute__((always_inline)) void
mac_vector_avx512(const mac_split *s, long i, long b0, long o, long j, const mod32 *m,
                  const long G, const long V) {
    const __m512i p = _mm512_set1_epi64((long long)m->p), twop = _mm512_add_epi64(p, p);
    const __m512i r32 = _mm512_set1_epi64((long long)m->r32);
    const __m512i r32_sh = _mm512_set1_epi64((long long)m->r32_sh);
    const __m512i one_sh = _mm512_set1_epi64((long long)m->one_sh);
    const long at = i * s->xs_k + b0 * s->xs_b + j;
    const uint64_t *const x0 = s->x0 + at, *const x1 = s->x1 + at;
    const uint64_t *const w = s->w + i * s->ws_k + o * s->ws_o + j;
    __m512i acc0[MAC_GROUP], acc1[MAC_GROUP], wt[MAC_GROUP];
    for (long a = 0; a < G * V; ++a)
        acc0[a] = acc1[a] = _mm512_setzero_si512();
    for (long t0 = 0; t0 < s->T; t0 += m->chunk) {
        if (t0) {
            for (long a = 0; a < G * V; ++a) {
                acc0[a] = mod32_reduce8(acc0[a], p, twop, r32, r32_sh, one_sh);
                acc1[a] = mod32_reduce8(acc1[a], p, twop, r32, r32_sh, one_sh);
            }
        }
        const long t1 = s->T - t0 < m->chunk ? s->T : t0 + m->chunk;
        for (long t = t0; t < t1; ++t) {
            for (long v = 0; v < V; ++v)
                wt[v] = load8(w + t * s->ws_t + 8 * v);
            for (long g = 0; g < G; ++g)
                for (long v = 0; v < V; ++v) {
                    const long row = g * s->xs_b + t * s->xs_t + 8 * v, a = g * V + v;
                    acc0[a] = _mm512_add_epi64(acc0[a], _mm512_mul_epu32(load8(x0 + row), wt[v]));
                    acc1[a] = _mm512_add_epi64(acc1[a], _mm512_mul_epu32(load8(x1 + row), wt[v]));
                }
        }
    }
    for (long g = 0; g < G; ++g)
        for (long v = 0; v < V; ++v) {
            const long out = ((i * s->B + b0 + g) * s->O + o) * s->n + j + 8 * v;
            store8(s->out0 + out, mod32_reduce8(acc0[g * V + v], p, twop, r32, r32_sh, one_sh));
            store8(s->out1 + out, mod32_reduce8(acc1[g * V + v], p, twop, r32, r32_sh, one_sh));
        }
}

/* mac_limb_loops' tiles and member groups, 8 V coefficients per step (n a
 * multiple of 32). */
NTT_AVX512_FN static void mac_limb_avx512(const mac_split *s, long i) {
    const mod32 m = mod32_of(s->p[i]);
    for (long j0 = 0; j0 < s->n; j0 += MAC_TILE) {
        const long end = s->n - j0 < MAC_TILE ? s->n : j0 + MAC_TILE;
        for (long b0 = 0; b0 < s->B; b0 += MAC_GROUP) {
            const long group = s->B - b0 < MAC_GROUP ? s->B - b0 : MAC_GROUP;
            for (long o = 0; o < s->O; ++o) {
                /* G and V constants in each case, so the accumulators are registers */
                for (long j = j0; j < end; j += 8 * (group > 2 ? 1 : 4 / group)) {
                    switch (group) {
                    case 1: mac_vector_avx512(s, i, b0, o, j, &m, 1, 4); break;
                    case 2: mac_vector_avx512(s, i, b0, o, j, &m, 2, 2); break;
                    case 3: mac_vector_avx512(s, i, b0, o, j, &m, 3, 1); break;
                    default: mac_vector_avx512(s, i, b0, o, j, &m, MAC_GROUP, 1);
                    }
                }
            }
        }
    }
}

#endif /* NTT_X86 */

/* Item i: every output row of limb i. */
static void mac_limb(const void *arg, long i, void *scratch) {
    (void)scratch;
    const mac_split *s = arg;
#ifdef NTT_X86
    if (s->wide) {
        mac_limb_avx512(s, i);
        return;
    }
#endif
    mac_limb_loops(s, i);
}

void mac_weights(uint64_t *out0, uint64_t *out1,
                 const uint64_t *x0, const uint64_t *x1,
                 long xs_k, long xs_b, long xs_t,
                 const uint64_t *w, long ws_k, long ws_o, long ws_t,
                 const uint64_t *p_arr, long k, long B, long O, long T, long n, long isa) {
#ifdef NTT_X86
    const int wide = isa >= NTT_AVX512 && ntt_isa_max() >= NTT_AVX512 && n % 32 == 0;
#else
    const int wide = 0;
    (void)isa;
#endif
    const mac_split s = {out0, out1, x0, x1, xs_k, xs_b, xs_t, w, ws_k, ws_o, ws_t,
                         p_arr, B, O, T, n, wide};
    lanes_run(mac_limb, &s, k, k * B * O * T * n >= MAC_SPLIT_MIN, 0);
}

/* -- client crypto -------------------------------------------------------- */

/* o[j] = x[j] y[j] + z[j] (+ w[j] when w) mod p, one row of the client's
 * products and adds (o may be z). */
MAC_CLONES
static void mul_add_row(uint64_t *o, const uint64_t *x, const uint64_t *y, const uint64_t *z,
                        const uint64_t *w, mod32 m, long n) {
    if (w) {
        for (long j = 0; j < n; ++j)
            o[j] = mod32_reduce(mul_residues(x[j], y[j]) + z[j] + w[j], m);
    } else {
        for (long j = 0; j < n; ++j)
            o[j] = mod32_reduce(mul_residues(x[j], y[j]) + z[j], m);
    }
}

/* The products and adds of the client's crypto in one pass, for one row
 * (x1 NULL) or two:
 *
 *   out_h[i, j] = x_h[i, j] * y[i, j] + z_h[i, j] (+ w[i, j] for h = 0)  mod p_i
 *
 * keygen's a s + e (x0 = a, y = s, z0 = e) and the phase c0 + c1 s of a
 * noise measurement (x0 = c1, y = s, z0 = c0), in the evaluation domain.
 * Every input is reduced, below p_i < 2^30, and (k, n) at its own limb
 * stride (x0 and x1, z0 and z1 share theirs); the sum stays below 2^63 and
 * is reduced once.  Outputs are contiguous (k, n).
 */
void rns_mul_add(uint64_t *out0, uint64_t *out1,
                 const uint64_t *x0, const uint64_t *x1, long xs_k,
                 const uint64_t *y, long ys_k,
                 const uint64_t *z0, const uint64_t *z1, long zs_k,
                 const uint64_t *w, long ws_k,
                 const uint64_t *p_arr, long k, long n) {
    for (long i = 0; i < k; ++i) {
        const mod32 m = mod32_of(p_arr[i]);
        mul_add_row(out0 + i * n, x0 + i * xs_k, y + i * ys_k, z0 + i * zs_k,
                    w ? w + i * ws_k : NULL, m, n);
        if (x1)
            mul_add_row(out1 + i * n, x1 + i * xs_k, y + i * ys_k, z1 + i * zs_k, NULL, m, n);
    }
}

/* Whether every message m[0..count) lies in [0, t) and below 2^32, so that
 * delta_i m is one Shoup product (lift_fast); else each m takes lift_any. */
static int lift_in_lanes(const int64_t *m, long count, uint64_t t) {
    const uint64_t bound = t < ((uint64_t)1 << 32) ? t : (uint64_t)1 << 32;
    uint64_t top = 0;
    for (long j = 0; j < count; ++j)
        top = (uint64_t)m[j] > top ? (uint64_t)m[j] : top;
    return top < bound;
}

static inline uint64_t lift_fast(uint64_t m, uint64_t d, uint64_t d_sh, uint64_t p) {
    return csub(shoup32(m, d, d_sh, p), p);
}

/* (m mod t) * d mod p for any m. */
static inline uint64_t lift_any(int64_t m, uint64_t t, uint64_t d, mod32 pm) {
    uint64_t v = (uint64_t)m;
    if (v >= t) {
        const int64_t r = m % (int64_t)t;
        v = (uint64_t)(r < 0 ? r + (int64_t)t : r);
    }
    return mod32_reduce(mul_residues(mod32_reduce(v, pm), d), pm);
}

/* o[j] = x[j] lifted by a sign add (|x[j]| below p). */
MAC_CLONES
static void lift_signed_row(uint64_t *o, const int64_t *x, uint64_t p, long n) {
    for (long j = 0; j < n; ++j)
        o[j] = (uint64_t)x[j] + ((uint64_t)(x[j] >> 63) & p);
}

/* o[j] = (m[j] mod t) d mod p: lift_fast when `fast` (lift_in_lanes), else lift_any. */
MAC_CLONES
static void lift_delta_row(uint64_t *o, const int64_t *m, uint64_t d, uint64_t p, uint64_t t,
                           int fast, long n) {
    const uint64_t d_sh = (d << 32) / p;
    const mod32 pm = mod32_of(p);
    if (fast) {
        for (long j = 0; j < n; ++j)
            o[j] = lift_fast((uint64_t)m[j], d, d_sh, p);
    } else {
        for (long j = 0; j < n; ++j)
            o[j] = lift_any(m[j], t, d, pm);
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
 * t) and delta_i = delta mod p_i < 2^30: delta * m < q for every m < t, so
 * the product never wraps mod q and the product of the residues is the
 * residue of the product.  When every m already lies in [0, t) and below
 * 2^32 (every encoded plaintext), the products run in lanes; otherwise
 * each m is reduced first.
 */
void rns_lift(uint64_t *out, const int64_t *x, long S, const int64_t *m, long B,
              const uint64_t *delta, const uint64_t *p_arr, uint64_t t, long k, long n) {
    const int fast = lift_in_lanes(m, B * n, t);
    for (long i = 0; i < k; ++i) {
        uint64_t *row = out + i * (S + B) * n;
        lift_signed_row(row, x, p_arr[i], S * n);
        lift_delta_row(row + S * n, m, delta[i], p_arr[i], t, fast, B * n);
    }
}

/* One Galois key-switching key in the digits' slot order (repro.bfv.keys),
 * out (2, k, T, n) uint32 contiguous, for limb i, digit pair j and slot t:
 *
 *   out[0, i, j, t] = a[i, j, o] (p_i - s[i, o]) + ne[i, j, o] + w[i, j] s[i, t]  mod p_i
 *   out[1, i, j, t] = a[i, j, o],        o = order[t]
 *
 * a is pair j's uniform draw and ne its error's negated evaluations, both
 * (k, T, n) contiguous, s the secret's (k, n) evaluations and w[i, j] =
 * Adcmp^j mod p_i: the pair (-(a s + e) + Adcmp^j s(x^g), a) stored with
 * slot o at t = g(o).  In that order s(x^g) is s itself, so no permuted
 * secret is built.  Every input is reduced, so the sum stays below 2^62
 * and is reduced once. */
MAC_CLONES
void rns_galois_key(uint32_t *out, const uint64_t *a, const uint64_t *ne,
                    const uint64_t *s, const int64_t *order, const uint64_t *w,
                    const uint64_t *p_arr, long k, long T, long n) {
    for (long i = 0; i < k; ++i) {
        const mod32 m = mod32_of(p_arr[i]);
        const uint64_t *si = s + i * n;
        for (long j = 0; j < T; ++j) {
            const uint64_t *ar = a + (i * T + j) * n, *er = ne + (i * T + j) * n;
            const uint64_t wij = w[i * T + j];
            uint32_t *body = out + (i * T + j) * n, *ah = body + k * T * n;
            for (long t = 0; t < n; ++t) {
                const int64_t o = order[t];
                body[t] = (uint32_t)mod32_reduce(mul_residues(ar[o], m.p - si[o]) + er[o]
                                                 + mul_residues(wij, si[t]), m);
                ah[t] = (uint32_t)ar[o];
            }
        }
    }
}

/* -- CRT compose on 32-bit words ------------------------------------------ */

/* Garner's mixed-radix compose over one basis.  Every limb modulus is below
 * 2^30 (MAX_NTT_MODULUS_BITS in ntt.py, refused above by RnsBasis), so each
 * Garner step is a 32-bit Shoup product and the Horner sum runs on 32-bit
 * words, one per 64-bit lane (repro.bfv.rns.garner_tables builds the
 * constants):
 *
 *   w/w_sh:  (k, k) row i, column j < i: p_j^-1 mod p_i and its 32-bit
 *            Shoup quotient
 *   lift:    (k) the least multiple of p_i at or above 2^30, so that
 *            u + lift_i - v_j is non-negative for any digit v_j < 2^30 and
 *            below 2^30 + 2 p_i < 2^32, in shoup32's range
 *   W:       32-bit words of a composed coefficient x < q
 */
typedef struct {
    const uint64_t *p, *w, *w_sh, *lift;
    long k, W;
} garner;

/* Residues -> x in [0, q) for `width` columns: residue row i at r + i *
 * rs_k, word m of column jj to acc[m * stride + jj].  Each stage runs across
 * the columns, so its loops vectorize: the hoist composes a block of
 * SPLIT_BLOCK columns, the exact rounding one column. */
static inline void crt_compose(const garner *g, const uint64_t *r, long rs_k, long width,
                               long stride, uint64_t *restrict acc) {
    const long k = g->k, W = g->W;
    if (k < 1)
        __builtin_unreachable(); /* every basis has a limb */
    uint64_t v[k][stride], carry[stride];
    /* mixed-radix digits v_i: x = v_0 + p_0 (v_1 + p_1 (v_2 + ...)) */
    for (long i = 0; i < k; ++i) {
        const uint64_t p = g->p[i], lift = g->lift[i], *row = r + i * rs_k;
        uint64_t *u = v[i];
        for (long jj = 0; jj < width; ++jj)
            u[jj] = row[jj];
        for (long j = 0; j < i; ++j) {
            const uint64_t w = g->w[i * k + j], w_sh = g->w_sh[i * k + j];
            for (long jj = 0; jj < width; ++jj)
                u[jj] = csub(shoup32(u[jj] + lift - v[j][jj], w, w_sh, p), p);
        }
    }
    /* Horner; x < q fits the W words */
    for (long m = 0; m < W; ++m)
        for (long jj = 0; jj < width; ++jj)
            acc[m * stride + jj] = m ? 0 : v[k - 1][jj];
    for (long i = k - 2; i >= 0; --i) {
        const uint64_t p = g->p[i];
        for (long jj = 0; jj < width; ++jj)
            carry[jj] = v[i][jj];
        for (long m = 0; m < W; ++m) {
            uint64_t *word = acc + m * stride;
            for (long jj = 0; jj < width; ++jj) {
                const uint64_t t = mul_residues(word[jj], p) + carry[jj];
                word[jj] = t & 0xffffffffu;
                carry[jj] = t >> 32;
            }
        }
    }
}

/* -- the hoist: INTT -> Decompose -> NTT --------------------------------- */

/* Coefficients composed per pass of the Decompose stage. */
#define SPLIT_BLOCK 64
/* Decompose stages of at least this many coefficient residues split.  A
 * (4, 1, 2048) stack, 8,192 residues, takes about 25 us in vector lanes;
 * a one-member hoist with it split took 235-252 us against 241-261 us
 * with it inline (3 runs of 200 calls). */
#define DIGIT_SPLIT_MIN 8192

/* A whole hoist call: eval-domain c1 (k, B, n) -> eval-domain digits
 * (k, B, L, n) in base 2^base_bits, digit d of member b under limb i at
 * out + ((i * B + b) * L + d) * n.  `direct` is set when 2^base_bits <=
 * min(p_i): a digit is then its own residue in every limb and is
 * transformed straight from its one row; otherwise each limb reduces the
 * row first.  Between the transforms every row is in bit-reversed order:
 * the inverse writes it so, the Decompose and the reduction work column
 * by column, and the forward reads it so, so nothing in the hoist
 * permutes. */
typedef struct {
    const uint64_t *c1;
    uint64_t *out;
    ntt_tables fwd, inv;
    garner g;
    uint64_t *buffer;  /* the stage-at-a-time form's call buffer */
    long B, n, L, base_bits, direct, isa;
} hoist_call;

/* The digit split of a composed block: digit d of column jj, bits [d
 * base_bits, (d + 1) base_bits) of acc[.][jj], from up to three words, to
 * digits + d * n + j0 + jj.  A digit row is written out whole, so the L
 * rows -- a power-of-two stride apart, which would put them all in one
 * cache set -- are not interleaved coefficient by coefficient. */
static inline __attribute__((always_inline)) void
split_digits(const hoist_call *h, const uint64_t *acc, uint64_t *digits, long j0, long width) {
    static const uint64_t zero[SPLIT_BLOCK];
    const long W = h->g.W, base_bits = h->base_bits;
    const uint64_t mask = ((uint64_t)1 << base_bits) - 1;
    for (long d = 0; d < h->L; ++d) {
        const long bit = d * base_bits, lo = bit >> 5, sh = bit & 31;
        const uint64_t *l0 = lo < W ? acc + lo * SPLIT_BLOCK : zero;
        const uint64_t *l1 = lo + 1 < W ? acc + (lo + 1) * SPLIT_BLOCK : zero;
        const uint64_t *l2 = lo + 2 < W ? acc + (lo + 2) * SPLIT_BLOCK : zero;
        uint64_t *row = digits + d * h->n + j0;
        for (long jj = 0; jj < width; ++jj)
            row[jj] = ((l0[jj] | l1[jj] << 32) >> sh | (l2[jj] << 32) << (32 - sh)) & mask;
    }
}

/* Decompose, columns [j0, j0 + SPLIT_BLOCK) of one member, its coefficient
 * row i at coeff + i * cs_k and its raw digit d (not reduced by any limb)
 * at digits + d * n: the compose, then the digit split across the block's
 * columns.  The loops the compiler vectorizes (the AVX2 and scalar
 * bodies). */
MAC_CLONES
static void decompose_block_loops(const hoist_call *h, const uint64_t *coeff, long cs_k,
                                  uint64_t *digits, long j0) {
    const long width = h->n - j0 < SPLIT_BLOCK ? h->n - j0 : SPLIT_BLOCK;
    uint64_t acc[h->g.W][SPLIT_BLOCK];
    crt_compose(&h->g, coeff + j0, cs_k, width, SPLIT_BLOCK, acc[0]);
    split_digits(h, acc[0], digits, j0, width);
}

#ifdef NTT_X86

/* decompose_block_loops with crt_compose at 8 columns per vector, one
 * vpmuludq per product (the cloned loops widen each into a 64-bit
 * multiply): each vector's mixed-radix digits and Horner words stay in
 * registers, and only the words go to the block (SPLIT_BLOCK columns, a
 * multiple of 8, when n is). */
NTT_AVX512_FN static void decompose_block_avx512(const hoist_call *h, const uint64_t *coeff,
                                                 long cs_k, uint64_t *digits, long j0) {
    const garner *g = &h->g;
    const long k = g->k, W = g->W;
    const long width = h->n - j0 < SPLIT_BLOCK ? h->n - j0 : SPLIT_BLOCK;
    const __m512i low = _mm512_set1_epi64(0xffffffff);
    uint64_t acc[W][SPLIT_BLOCK];
    __m512i v[k], word[W];
    for (long jj = 0; jj < width; jj += 8) {
        for (long i = 0; i < k; ++i) {
            const __m512i p = _mm512_set1_epi64((long long)g->p[i]);
            const __m512i lift = _mm512_set1_epi64((long long)g->lift[i]);
            __m512i u = load8(coeff + i * cs_k + j0 + jj);
            for (long j = 0; j < i; ++j) {
                const __m512i w = _mm512_set1_epi64((long long)g->w[i * k + j]);
                const __m512i w_sh = _mm512_set1_epi64((long long)g->w_sh[i * k + j]);
                u = csub8(shoup8(_mm512_sub_epi64(_mm512_add_epi64(u, lift), v[j]), w, w_sh, p), p);
            }
            v[i] = u;
        }
        word[0] = v[k - 1];
        for (long m = 1; m < W; ++m)
            word[m] = _mm512_setzero_si512();
        for (long i = k - 2; i >= 0; --i) {
            const __m512i p = _mm512_set1_epi64((long long)g->p[i]);
            __m512i carry = v[i];
            for (long m = 0; m < W; ++m) {
                const __m512i t = _mm512_add_epi64(_mm512_mul_epu32(word[m], p), carry);
                word[m] = _mm512_and_si512(t, low);
                carry = _mm512_srli_epi64(t, 32);
            }
        }
        for (long m = 0; m < W; ++m)
            store8(acc[m] + jj, word[m]);
    }
    split_digits(h, acc[0], digits, j0, width);
}

#endif /* NTT_X86 */

static void decompose_block(const hoist_call *h, const uint64_t *coeff, long cs_k,
                            uint64_t *digits, long j0) {
#ifdef NTT_X86
    if (h->isa >= NTT_AVX512 && h->n % 8 == 0) {
        decompose_block_avx512(h, coeff, cs_k, digits, j0);
        return;
    }
#endif
    decompose_block_loops(h, coeff, cs_k, digits, j0);
}

/* Forward transforms of `rows` raw digit rows (n apart) into limb i's
 * output rows at dst; a base that is not direct reduces each row into
 * `tmp` (n words) first. */
static void hoist_forward(const hoist_call *h, long i, const uint64_t *digits,
                          uint64_t *dst, long rows, uint64_t *tmp) {
    const long n = h->n;
    if (h->direct) {
        ntt_limb(&h->fwd, i, n, rows, 1, h->isa, digits, dst);
        return;
    }
    const uint64_t p = h->g.p[i];
    for (long r = 0; r < rows; ++r) {
        const uint64_t *from = digits + r * n;
        for (long j = 0; j < n; ++j)
            tmp[j] = from[j] < p ? from[j] : from[j] % p;
        ntt_limb(&h->fwd, i, n, 1, 1, h->isa, tmp, dst + r * n);
    }
}

/* Item: the whole hoist of member b, in this lane's scratch -- k
 * coefficient rows, then L digit rows, (k + L) n words.  The digits are
 * transformed for every limb while they are still in cache; the
 * coefficient rows, dead by then, are the reduction's row. */
static void hoist_member(const void *arg, long b, void *scratch) {
    const hoist_call *h = arg;
    const long k = h->g.k, n = h->n, L = h->L, B = h->B;
    uint64_t *const coeff = scratch, *const digits = coeff + k * n;
    for (long i = 0; i < k; ++i)
        ntt_limb(&h->inv, i, n, 1, 0, h->isa, h->c1 + (i * B + b) * n, coeff + i * n);
    for (long j0 = 0; j0 < n; j0 += SPLIT_BLOCK)
        decompose_block(h, coeff, n, digits, j0);
    for (long i = 0; i < k; ++i)
        hoist_forward(h, i, digits, h->out + (i * B + b) * L * n, L, coeff);
}

/* The stage-at-a-time form, for fewer members than lanes: the call buffer
 * holds the coefficients (k, B, n) and the raw digits (B, L, n). */

/* Item: the INTT of row item % B of limb item / B. */
static void hoist_intt_row(const void *arg, long item, void *scratch) {
    (void)scratch;
    const hoist_call *h = arg;
    ntt_limb(&h->inv, item / h->B, h->n, 1, 0, h->isa, h->c1 + item * h->n,
             h->buffer + item * h->n);
}

/* Item: block item % blocks of member item / blocks. */
static void hoist_digit_block(const void *arg, long item, void *scratch) {
    (void)scratch;
    const hoist_call *h = arg;
    const long n = h->n, B = h->B, blocks = (n + SPLIT_BLOCK - 1) / SPLIT_BLOCK;
    const long b = item / blocks;
    decompose_block(h, h->buffer + b * n, B * n,
                    h->buffer + (h->g.k * B + b * h->L) * n, item % blocks * SPLIT_BLOCK);
}

/* Item: digit row item % (B L) under limb item / (B L), with this lane's
 * n-word row for the reduction. */
static void hoist_digit_row(const void *arg, long item, void *scratch) {
    const hoist_call *h = arg;
    const long n = h->n, rows = h->B * h->L;
    const uint64_t *digits = h->buffer + h->g.k * h->B * n;
    hoist_forward(h, item / rows, digits + item % rows * n, h->out + item * n, 1, scratch);
}

/* Key switching's INTT -> Decompose -> NTT (see hoist_call), bit-identical
 * to ntt_inverse, the Decompose reference and ntt_forward run one after
 * another.  The forward and inverse tables are ntt_forward's and
 * ntt_inverse's; p_arr, ginv, ginv_sh, lift and W (32-bit words) are the
 * basis's compose constants (see garner).  -1 when the calling thread's
 * scratch cannot be had, else 0.  `out` should start on a cache line, as
 * every buffer the call allocates does, so every row the hoist transforms
 * in place does.
 *
 * A call with at least as many members as lanes runs one member per item
 * (hoist_member): its digits never leave the lane's cache.  A call with
 * fewer would leave lanes idle that way, so it runs the three stages one
 * after another, each split across the lanes, through a call buffer.
 */
long rns_hoist(const uint64_t *c1, uint64_t *out,
               const uint64_t *psi, const uint64_t *psi_sh,
               const uint64_t *tw, const uint64_t *tw_sh,
               const uint64_t *iscale, const uint64_t *iscale_sh,
               const uint64_t *itw, const uint64_t *itw_sh,
               const uint64_t *p_arr, const uint64_t *ginv,
               const uint64_t *ginv_sh, const uint64_t *lift,
               long k, long B, long n, long W, long L, long base_bits,
               long isa) {
    hoist_call h = {
        c1, out, {NULL, psi, psi_sh, tw, tw_sh, p_arr},
        {NULL, iscale, iscale_sh, itw, itw_sh, p_arr},
        {p_arr, ginv, ginv_sh, lift, k, W}, NULL, B, n, L, base_bits, 1,
        isa < ntt_isa_max() ? isa : ntt_isa_max(),
    };
    for (long i = 0; i < k; ++i)
        h.direct &= ((uint64_t)1 << base_bits) <= p_arr[i];
    const long work = k * B * (L + 1) * n; /* residues transformed */
    if (B < lanes_of_process() && work >= NTT_SPLIT_MIN)
        h.buffer = alloc_lines((size_t)(k + L) * B * n * sizeof *h.buffer);
    if (!h.buffer)
        return lanes_run(hoist_member, &h, B, work >= NTT_SPLIT_MIN,
                         (size_t)(k + L) * n * sizeof *h.buffer);
    lanes_run(hoist_intt_row, &h, k * B, k * B * n >= NTT_SPLIT_MIN, 0);
    lanes_run(hoist_digit_block, &h, B * ((n + SPLIT_BLOCK - 1) / SPLIT_BLOCK),
              k * B * n >= DIGIT_SPLIT_MIN, 0);
    const long status = lanes_run(hoist_digit_row, &h, k * B * L, 1,
                                  h.direct ? 0 : (size_t)n * sizeof *h.buffer);
    free(h.buffer);
    return status;
}

/* -- layer programs: a linear layer call in one call ---------------------- */

/* A layer program (repro.bfv.ntt_batch.LayerProgram) is a linear layer call
 * lowered once: a flat table of ops of int64 words, run in order, each
 * through the entry point above that runs it alone, so a call writes those
 * entry points' bytes.  An operand is a (base, byte offset) pair into
 * bases[]: the call's input stack, output stack and scratch areas, the
 * weight stack, the eval maps.  keys holds (address, depth) per key slot
 * (Galois element x request).  Strides are in words.  The builder checked
 * every index and extent, the caller every key; t is rns_hoist's twelve
 * tables, t[8] the moduli.  Word 0 of an op is its kind; the enums below
 * place its other fields, an operand taking two words:
 *
 *   HOIST  M, c1 (k, M, n), digits (k, M, L, n), both contiguous
 *   MAC    B, O, T, x0, x1 - x0, x strides (k, B, T), w, w strides (k, O,
 *          T), out0 (k, B, O, n) contiguous with out1 after it
 *   KS     J, accumulate, digits, digit strides (k, member, T), c0, c0
 *          strides (k, member), maps, out0, out1 - out0, out limb stride;
 *          then J jobs (member, map, key slot, out row byte offset)
 *   COPY   accumulate, from, from strides (half, k), to, to strides (half,
 *          k): one member's c0 and c1 rows, written or added mod p_i
 *
 * -1 when a scratch row or a job table cannot be had, else 0. */
enum { OP_HOIST, OP_MAC, OP_KS, OP_COPY };
enum { HOIST_M = 1, HOIST_C1, HOIST_DIGITS = 4, HOIST_WORDS = 6 };
enum { MAC_B = 1, MAC_O, MAC_T, MAC_X, MAC_X1 = 6, MAC_XS_K, MAC_XS_B, MAC_XS_T, MAC_W,
       MAC_WS_K = 12, MAC_WS_O, MAC_WS_T, MAC_OUT, MAC_WORDS = 17 };
enum { KS_J = 1, KS_ACCUMULATE, KS_X, KS_XS_K = 5, KS_XS_B, KS_XS_T, KS_C0, KS_CS_K = 10,
       KS_CS_B, KS_MAPS, KS_OUT = 14, KS_OUT1 = 16, KS_OS_K, KS_WORDS };
enum { JOB_MEMBER, JOB_MAP, JOB_KEY, JOB_ROW, JOB_WORDS };
enum { COPY_ACCUMULATE = 1, COPY_FROM, COPY_FS_H = 4, COPY_FS_K, COPY_TO, COPY_TS_H = 8,
       COPY_TS_K, COPY_WORDS };

static uint64_t *operand(void *const *bases, const int64_t *ref) {
    return (uint64_t *)((char *)bases[ref[0]] + ref[1]);
}

long rns_layer_run(const int64_t *op, long count, void *const *bases, const int64_t *keys,
                   const uint64_t *const *t, long k, long n, long W, long L, long base_bits,
                   long isa) {
    for (long c = 0; c < count; ++c) {
        if (op[0] == OP_HOIST) {
            if (rns_hoist(operand(bases, op + HOIST_C1), operand(bases, op + HOIST_DIGITS), t[0],
                          t[1], t[2], t[3], t[4], t[5], t[6], t[7], t[8], t[9], t[10], t[11], k,
                          op[HOIST_M], n, W, L, base_bits, isa))
                return -1;
            op += HOIST_WORDS;
        } else if (op[0] == OP_MAC) {
            const long B = op[MAC_B], O = op[MAC_O];
            const uint64_t *x = operand(bases, op + MAC_X);
            uint64_t *out = operand(bases, op + MAC_OUT);
            mac_weights(out, out + k * B * O * n, x, x + op[MAC_X1], op[MAC_XS_K], op[MAC_XS_B],
                        op[MAC_XS_T], operand(bases, op + MAC_W), op[MAC_WS_K], op[MAC_WS_O],
                        op[MAC_WS_T], t[8], k, B, O, op[MAC_T], n, isa);
            op += MAC_WORDS;
        } else if (op[0] == OP_KS) {
            const long J = op[KS_J];
            const uint64_t *x = operand(bases, op + KS_X), *c0 = operand(bases, op + KS_C0);
            const int64_t *maps = (const int64_t *)operand(bases, op + KS_MAPS);
            char *o = (char *)operand(bases, op + KS_OUT);
            ks_job *jobs = malloc((size_t)J * sizeof *jobs);
            if (!jobs)
                return -1;
            for (long j = 0; j < J; ++j) {
                const int64_t *e = op + KS_WORDS + JOB_WORDS * j, *key = keys + 2 * e[JOB_KEY];
                const uint32_t *key0 = (const uint32_t *)(intptr_t)key[0];
                uint64_t *out0 = (uint64_t *)(o + e[JOB_ROW]);
                const ks_job job = {x + e[JOB_MEMBER] * op[KS_XS_B],
                                    c0 + e[JOB_MEMBER] * op[KS_CS_B], maps + e[JOB_MAP] * n, key0,
                                    key0 + k * key[1] * n, out0, out0 + op[KS_OUT1], key[1] * n};
                jobs[j] = job;
            }
            const long status = keyswitch_rotate(jobs, J, op[KS_XS_K], op[KS_XS_T], op[KS_CS_K],
                                                 op[KS_OS_K], t[8], k, L, n, op[KS_ACCUMULATE],
                                                 isa);
            free(jobs);
            if (status)
                return -1;
            op += KS_WORDS + JOB_WORDS * J;
        } else { /* OP_COPY */
            const uint64_t *from = operand(bases, op + COPY_FROM);
            uint64_t *to = operand(bases, op + COPY_TO);
            for (long h = 0; h < 2; ++h)
                for (long i = 0; i < k; ++i) {
                    const uint64_t *s = from + h * op[COPY_FS_H] + i * op[COPY_FS_K];
                    uint64_t *d = to + h * op[COPY_TS_H] + i * op[COPY_TS_K];
                    for (long j = 0; j < n; ++j)
                        d[j] = op[COPY_ACCUMULATE] ? csub(d[j] + s[j], t[8][i]) : s[j];
                }
            op += COPY_WORDS;
        }
    }
    return 0;
}

/* -- client Compose: decryption's scale and round ------------------------- */

/* True where num < quot * den, on `count` 32-bit words (rns._borrows). */
static int borrows(const uint64_t *num, uint64_t quot, const uint64_t *den, long count) {
    uint64_t carry = 0;
    int borrow = 0;
    for (long w = 0; w < count; ++w) {
        const uint64_t total = quot * den[w] + carry;
        carry = total >> 32;
        borrow = (int64_t)num[w] - (int64_t)(total & 0xffffffffu) - borrow < 0;
    }
    return borrow;
}

/* The exact rounding of one coefficient, residues r[i]: the compose of one
 * column, then floor((2 t x + q) / 2q) on 32-bit words, line for line
 * rns.scale_round_words (q_words holds q in W + 2 words).  The quotient is
 * at most t < 2^31: a double estimate is within one of it, and the exact
 * multiword remainders settle which. */
static uint64_t scale_round_exact(const uint64_t *r, const garner *g, const uint64_t *q_words,
                                  uint64_t t) {
    const long W = g->W, count = W + 2;
    uint64_t x[W], num[count], den[count], carry = 0;
    double num_f = 0.0, den_f = 0.0, scale = 1.0;
    crt_compose(g, r, 1, 1, 1, x);
    /* num = 2 t x + q, word by word (word * 2t + carry < 2^64); den = 2q */
    for (long w = 0; w < count; ++w) {
        const uint64_t total = carry + q_words[w] + (w < W ? x[w] * (2 * t) : 0);
        num[w] = total & 0xffffffffu;
        carry = total >> 32;
        den[w] = (q_words[w] << 1 | (w ? q_words[w - 1] >> 31 : 0)) & 0xffffffffu;
        num_f += (double)num[w] * scale;
        den_f += (double)den[w] * scale;
        scale *= 4294967296.0; /* 2^32 */
    }
    uint64_t quot = (uint64_t)(num_f / den_f);
    if (borrows(num, quot, den, count))
        --quot; /* estimate one too high */
    else if (!borrows(num, quot + 1, den, count))
        ++quot; /* remainder still holds a whole denominator */
    return quot % t;
}

/* rns_scale_round's constants (see below), for scale_column. */
typedef struct {
    garner g;
    const uint64_t *omega, *frac, *q_words;
    uint64_t t, band, wrap; /* band = sum p_i, wrap = 2^64 mod t */
    mod32 tm;
} scaler;

static scaler scaler_of(const uint64_t *omega, const uint64_t *frac, const uint64_t *p_arr,
                        const uint64_t *ginv, const uint64_t *ginv_sh, const uint64_t *lift,
                        const uint64_t *q_words, long k, long W, uint64_t t) {
    scaler s = {{p_arr, ginv, ginv_sh, lift, k, W}, omega, frac, q_words, t, 0,
                ((uint64_t)0 - t) % t, mod32_of(t)};
    for (long i = 0; i < k; ++i)
        s.band += p_arr[i];
    return s;
}

/* One column's rounding, its residues r[0..k); *exact is set when it took
 * the exact path. */
static inline uint64_t scale_column(const scaler *s, const uint64_t *r, int *exact) {
    u128 whole = 0, part = (u128)1 << 63;
    for (long i = 0; i < s->g.k; ++i) {
        whole += (u128)r[i] * s->omega[i];
        part += (u128)r[i] * s->frac[i];
    }
    *exact = (uint64_t)part >= (uint64_t)0 - s->band;
    if (*exact)
        return scale_round_exact(r, &s->g, s->q_words, s->t);
    whole += part >> 64;
    const uint64_t m = mod32_reduce((uint64_t)whole, s->tm) + (uint64_t)(whole >> 64) * s->wrap;
    return mod32_reduce(m, s->tm);
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
 * I = sum r_i omega_i and A = 2^63 + sum r_i frac_i accumulate in 128 bits
 * (below k 2^61 and 2^63 + k 2^94 for k limbs below 2^30 and t < 2^31),
 * and the result is I + floor(A / 2^64) mod t.  Truncated fractions leave
 * A short of the true 2^64-scaled sum by less than sum r_i < band = sum
 * p_i, so the rounding can only differ where the low word of A lies within
 * band of 2^64.  Those coefficients -- ties and near-ties, about band /
 * 2^64 of random ones -- take the exact path instead.  The compose
 * constants and W are rns_hoist's, q_words is q as W + 2 32-bit words.
 * Returns how many coefficients took the exact path.
 */
long rns_scale_round(const uint64_t *coeff, int64_t *out,
                     const uint64_t *omega, const uint64_t *frac,
                     const uint64_t *p_arr, const uint64_t *ginv,
                     const uint64_t *ginv_sh, const uint64_t *lift,
                     const uint64_t *q_words, long k, long cols, long W, uint64_t t) {
    const scaler s = scaler_of(omega, frac, p_arr, ginv, ginv_sh, lift, q_words, k, W, t);
    uint64_t r[k];
    long exact = 0;
    for (long c = 0; c < cols; ++c) {
        int slow;
        for (long i = 0; i < k; ++i)
            r[i] = coeff[i * cols + c];
        out[c] = (int64_t)scale_column(&s, r, &slow);
        exact += slow;
    }
    return exact;
}

/* -- client steps: a round's encrypt, blind and decrypt, one call each ---- */

/* The steps below lift coefficients into the forward's input bit-reversed
 * and read the inverse's output through the bit reversal, as the hoist
 * does, so no row is permuted on its own pass.  Their items run in order on
 * the calling thread: a served round is 1 to 8 rows, and no split of up to
 * 16 rows ran faster than inline on the 2-CPU guest. */

/* The ciphertexts a blind or a decrypt reads: per ciphertext, four int64
 * words -- the addresses of its c0 and c1 (k, n) rows and their limb
 * strides in words. */
enum { CT_C0, CT_C1, CT_C0_K, CT_C1_K, CT_WORDS };

static const uint64_t *ct_row(const int64_t *cts, long b, int half, long i) {
    const int64_t *ct = cts + b * CT_WORDS;
    return (const uint64_t *)(intptr_t)ct[half ? CT_C1 : CT_C0] + i * ct[half ? CT_C1_K : CT_C0_K];
}

/* Encryption of R plaintexts under the public key (p0, p1), out (R, 2, k,
 * n) contiguous, ciphertext r at out + 2 r k n with c1 after c0:
 *
 *   c0 = p0 u + e0 + delta m,  c1 = p1 u + e1        (evaluations, mod p_i)
 *
 * x holds each row's signed samples u, e0, e1, (R, 3, n), every entry
 * below each p_i in magnitude, and m its messages, (R, n), lifted as
 * rns_lift lifts them.  The call first copies the four rows of each
 * ciphertext into a buffer bit-reversed, once for every limb.  An item is
 * one row under one limb: each of the four polynomials is lifted from there
 * -- e0 and e1 into their output rows, u and delta m into the lane's 2n
 * words of scratch -- and transformed in place by the forward body, then
 * the products and adds run in one pass: rns_lift -> ntt_forward ->
 * rns_mul_add byte for byte.  -1 when the buffer or the calling thread's
 * scratch cannot be had, else 0. */
typedef struct {
    uint64_t *out;
    const int64_t *rows; /* (R, 4, n): u, e0, e1, m of each row, bit-reversed */
    const uint64_t *p0, *p1, *delta;
    uint64_t t;
    ntt_tables fwd;
    long k, n, isa;
    int fast; /* lift_in_lanes of every message */
} encrypt_call;

static void encrypt_item(const void *arg, long item, void *scratch) {
    const encrypt_call *e = arg;
    const long k = e->k, n = e->n, r = item / k, i = item % k;
    const uint64_t p = e->fwd.p[i];
    const int64_t *v = e->rows + 4 * r * n;
    uint64_t *u = scratch, *dm = u + n;
    uint64_t *o0 = e->out + (2 * r * k + i) * n, *o1 = o0 + k * n;
    lift_signed_row(u, v, p, n);
    lift_signed_row(o0, v + n, p, n);
    lift_signed_row(o1, v + 2 * n, p, n);
    lift_delta_row(dm, v + 3 * n, e->delta[i], p, e->t, e->fast, n);
    ntt_limb(&e->fwd, i, n, 1, 1, e->isa, u, u);
    ntt_limb(&e->fwd, i, n, 1, 1, e->isa, o0, o0);
    ntt_limb(&e->fwd, i, n, 1, 1, e->isa, o1, o1);
    ntt_limb(&e->fwd, i, n, 1, 1, e->isa, dm, dm);
    const mod32 pm = mod32_of(p);
    mul_add_row(o0, e->p0 + i * n, u, o0, dm, pm, n);
    mul_add_row(o1, e->p1 + i * n, u, o1, NULL, pm, n);
}

long rns_encrypt(uint64_t *out, const int64_t *x, const int64_t *m,
                 const uint64_t *p0, const uint64_t *p1, const uint64_t *delta, uint64_t t,
                 const int64_t *perm, const uint64_t *psi, const uint64_t *psi_sh,
                 const uint64_t *tw, const uint64_t *tw_sh, const uint64_t *p_arr,
                 long k, long R, long n, long isa) {
    int64_t *rows = alloc_lines((size_t)R * 4 * n * sizeof *rows);
    if (!rows)
        return R ? -1 : 0;
    for (long r = 0; r < R; ++r)
        for (long h = 0; h < 4; ++h) {
            const int64_t *from = h < 3 ? x + (3 * r + h) * n : m + r * n;
            for (long j = 0; j < n; ++j)
                rows[(4 * r + h) * n + j] = from[perm[j]];
        }
    const encrypt_call e = {out, rows, p0, p1, delta, t, {perm, psi, psi_sh, tw, tw_sh, p_arr},
                            k, n, isa < ntt_isa_max() ? isa : ntt_isa_max(),
                            lift_in_lanes(m, R * n, t)};
    const long status = lanes_run(encrypt_item, &e, R * k, 0, 2 * (size_t)n * sizeof(uint64_t));
    free(rows);
    return status;
}

/* The cloud's blind of B ciphertexts, out (B, 2, k, n) contiguous as
 * rns_encrypt's: ciphertext b plus delta m_b on c0, where m_b is the
 * plaintext whose slot s holds mask[b, s] mod t for s < width and whose
 * other slots are 0 (BatchEncoder.encode_rows), c1 copied.  slots[s] is
 * slot s's evaluation index and `plain` the inverse tables of the one-limb
 * ring of t (t = plain.p[0]); `fwd` are the ciphertext ring's forward
 * tables.  First, an item per mask row: the slot scatter and the inverse
 * mod t into the call's (B, n) buffer, its coefficients left bit-reversed;
 * then an item per row and limb: the delta lift of those coefficients
 * into the output row, the forward body in place and the add of c0 --
 * encode_rows -> rns_lift -> ntt_forward -> the add mod p_i, byte for
 * byte.  -1 when the buffer cannot be had, else 0. */
typedef struct {
    uint64_t *out, *buffer;
    const int64_t *cts, *mask, *slots;
    const uint64_t *delta;
    ntt_tables plain, fwd;
    long k, B, n, width, isa;
} blind_call;

static void blind_encode(const void *arg, long b, void *scratch) {
    (void)scratch;
    const blind_call *c = arg;
    const uint64_t t = c->plain.p[0];
    uint64_t *row = c->buffer + b * c->n;
    memset(row, 0, (size_t)c->n * sizeof *row);
    for (long s = 0; s < c->width; ++s) {
        const int64_t v = c->mask[b * c->width + s];
        const int64_t r = (uint64_t)v < t ? v : v % (int64_t)t;
        row[c->slots[s]] = (uint64_t)(r < 0 ? r + (int64_t)t : r);
    }
    ntt_limb(&c->plain, 0, c->n, 1, 0, c->isa, row, row);
}

/* o[j] = o[j] + a[j] mod p, both below p. */
MAC_CLONES
static void add_row(uint64_t *o, const uint64_t *a, uint64_t p, long n) {
    for (long j = 0; j < n; ++j)
        o[j] = csub(o[j] + a[j], p);
}

static void blind_item(const void *arg, long item, void *scratch) {
    (void)scratch;
    const blind_call *c = arg;
    const long k = c->k, n = c->n, b = item / k, i = item % k;
    const uint64_t p = c->fwd.p[i];
    uint64_t *o0 = c->out + (2 * b * k + i) * n;
    /* the coefficients lie below t, under 2^30 */
    lift_delta_row(o0, (const int64_t *)c->buffer + b * n, c->delta[i], p, c->plain.p[0], 1, n);
    ntt_limb(&c->fwd, i, n, 1, 1, c->isa, o0, o0);
    add_row(o0, ct_row(c->cts, b, 0, i), p, n);
    memcpy(o0 + k * n, ct_row(c->cts, b, 1, i), (size_t)n * sizeof *o0);
}

long rns_blind(uint64_t *out, const int64_t *cts, const int64_t *mask, const int64_t *slots,
               const int64_t *t_perm, const uint64_t *t_iscale, const uint64_t *t_iscale_sh,
               const uint64_t *t_itw, const uint64_t *t_itw_sh, const uint64_t *t_arr,
               const uint64_t *delta,
               const int64_t *perm, const uint64_t *psi, const uint64_t *psi_sh,
               const uint64_t *tw, const uint64_t *tw_sh, const uint64_t *p_arr,
               long k, long B, long n, long width, long isa) {
    blind_call c = {out, alloc_lines((size_t)B * n * sizeof *out), cts, mask, slots, delta,
                    {t_perm, t_iscale, t_iscale_sh, t_itw, t_itw_sh, t_arr},
                    {perm, psi, psi_sh, tw, tw_sh, p_arr}, k, B, n, width, isa};
    if (!c.buffer)
        return B ? -1 : 0;
    lanes_run(blind_encode, &c, B, 0, 0);
    lanes_run(blind_item, &c, B * k, 0, 0);
    free(c.buffer);
    return 0;
}

/* Decryption of B ciphertexts, out (B, n): round(t (c0 + c1 s) / q) mod t,
 * column by column as rns_scale_round rounds.  First, an item per limb and
 * ciphertext: the phase c0 + c1 s into the call's (k, B, n) buffer and the
 * Gentleman-Sande inverse in place, its coefficients left bit-reversed;
 * then an item per ciphertext: its columns through scale_column, read in
 * the buffer's order and written through the bit reversal -- rns_mul_add
 * -> ntt_inverse -> rns_scale_round, byte for byte, the exact tie branch
 * included.  s is the secret's (k, n) evaluations; every residue is
 * reduced.  -1 when the buffer cannot be had, else 0. */
typedef struct {
    int64_t *out;
    uint64_t *buffer;
    const int64_t *cts;
    const uint64_t *s;
    ntt_tables inv;
    scaler sc;
    long k, B, n, isa;
} decrypt_call;

static void decrypt_phase(const void *arg, long item, void *scratch) {
    (void)scratch;
    const decrypt_call *c = arg;
    const long n = c->n, i = item / c->B, b = item % c->B;
    uint64_t *row = c->buffer + item * n;
    mul_add_row(row, ct_row(c->cts, b, 1, i), c->s + i * n, ct_row(c->cts, b, 0, i), NULL,
                mod32_of(c->inv.p[i]), n);
    ntt_limb(&c->inv, i, n, 1, 0, c->isa, row, row);
}

static void decrypt_round(const void *arg, long b, void *scratch) {
    (void)scratch;
    const decrypt_call *c = arg;
    uint64_t r[c->k];
    int exact;
    for (long jj = 0; jj < c->n; ++jj) {
        for (long i = 0; i < c->k; ++i)
            r[i] = c->buffer[(i * c->B + b) * c->n + jj];
        c->out[b * c->n + c->inv.perm[jj]] = (int64_t)scale_column(&c->sc, r, &exact);
    }
}

long rns_decrypt(int64_t *out, const int64_t *cts, const uint64_t *s,
                 const int64_t *perm, const uint64_t *iscale, const uint64_t *iscale_sh,
                 const uint64_t *itw, const uint64_t *itw_sh, const uint64_t *p_arr,
                 const uint64_t *omega, const uint64_t *frac, const uint64_t *ginv,
                 const uint64_t *ginv_sh, const uint64_t *lift, const uint64_t *q_words,
                 long k, long B, long n, long W, uint64_t t, long isa) {
    const decrypt_call c = {out, alloc_lines((size_t)k * B * n * sizeof *c.buffer), cts, s,
                            {perm, iscale, iscale_sh, itw, itw_sh, p_arr},
                            scaler_of(omega, frac, p_arr, ginv, ginv_sh, lift, q_words, k, W, t),
                            k, B, n, isa < ntt_isa_max() ? isa : ntt_isa_max()};
    if (!c.buffer)
        return B ? -1 : 0;
    lanes_run(decrypt_phase, &c, k * B, 0, 0);
    lanes_run(decrypt_round, &c, B, 0, 0);
    free(c.buffer);
    return 0;
}

/* -- the ciphertext codec ------------------------------------------------- */

/* zlib's CRC-32 (reflected polynomial 0xEDB88320, inverted before and
 * after).  The running value c below is the inverted one.  Where the CPU
 * has PCLMULQDQ, whole 16-byte blocks of a run of at least 64 bytes are
 * folded four 128-bit lanes (64 bytes) per step with carry-less multiplies
 * (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
 * PCLMULQDQ", Intel 2009); the rest, and every byte on other hosts, goes
 * through a slicing-by-8 table. */
static uint32_t crc_table[8][256];
#ifdef NTT_X86
static int crc_fold; /* the CPU has PCLMULQDQ */
#endif
static pthread_once_t crc_once = PTHREAD_ONCE_INIT;

static void crc_init(void) {
#ifdef NTT_X86
    __builtin_cpu_init();
    crc_fold = __builtin_cpu_supports("pclmul");
#endif
    for (uint32_t b = 0; b < 256; ++b) {
        uint32_t c = b;
        for (int bit = 0; bit < 8; ++bit)
            c = c >> 1 ^ (0xEDB88320u & (0u - (c & 1)));
        crc_table[0][b] = c;
    }
    for (int s = 1; s < 8; ++s)
        for (int b = 0; b < 256; ++b)
            crc_table[s][b] = crc_table[s - 1][b] >> 8 ^ crc_table[0][crc_table[s - 1][b] & 0xff];
}

static uint32_t crc_bytes_table(uint32_t c, const uint8_t *buf, long len) {
    for (; len >= 8; buf += 8, len -= 8) {
        const uint32_t lo = c ^ ((uint32_t)buf[0] | (uint32_t)buf[1] << 8
                                 | (uint32_t)buf[2] << 16 | (uint32_t)buf[3] << 24);
        c = crc_table[7][lo & 0xff] ^ crc_table[6][lo >> 8 & 0xff]
          ^ crc_table[5][lo >> 16 & 0xff] ^ crc_table[4][lo >> 24]
          ^ crc_table[3][buf[4]] ^ crc_table[2][buf[5]] ^ crc_table[1][buf[6]]
          ^ crc_table[0][buf[7]];
    }
    for (; len > 0; ++buf, --len)
        c = c >> 8 ^ crc_table[0][(c ^ *buf) & 0xff];
    return c;
}

#ifdef NTT_X86
#define CRC_FOLD_FN __attribute__((target("pclmul,sse2")))

/* Folds len bytes (len >= 64, a multiple of 16) into c.  Each constant is
 * x^d mod P for the distance d a lane moves (bit-reflected, 33 bits):
 * 4 x 128 + 32 and + 96 bits for the 64-byte step, 128 + 32 and + 96 for
 * one lane into the next, then 64 and Barrett's mu and P for the last
 * 128 -> 32 bits. */
CRC_FOLD_FN static uint32_t crc_bytes_fold(uint32_t c, const uint8_t *buf, long len) {
    const __m128i k4x = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    const __m128i k1x = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    const __m128i k64 = _mm_set_epi64x(0, 0x163cd6124);
    const __m128i mu_p = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
    __m128i x0 = _mm_xor_si128(_mm_loadu_si128((const __m128i *)buf), _mm_cvtsi32_si128((int)c));
    __m128i x1 = _mm_loadu_si128((const __m128i *)(buf + 16));
    __m128i x2 = _mm_loadu_si128((const __m128i *)(buf + 32));
    __m128i x3 = _mm_loadu_si128((const __m128i *)(buf + 48));
#define CRC_FOLD(x, k, next) \
    _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), \
                                _mm_clmulepi64_si128(x, k, 0x11)), next)
    for (buf += 64, len -= 64; len >= 64; buf += 64, len -= 64) {
        x0 = CRC_FOLD(x0, k4x, _mm_loadu_si128((const __m128i *)buf));
        x1 = CRC_FOLD(x1, k4x, _mm_loadu_si128((const __m128i *)(buf + 16)));
        x2 = CRC_FOLD(x2, k4x, _mm_loadu_si128((const __m128i *)(buf + 32)));
        x3 = CRC_FOLD(x3, k4x, _mm_loadu_si128((const __m128i *)(buf + 48)));
    }
    x0 = CRC_FOLD(x0, k1x, x1);
    x0 = CRC_FOLD(x0, k1x, x2);
    x0 = CRC_FOLD(x0, k1x, x3);
    for (; len >= 16; buf += 16, len -= 16)
        x0 = CRC_FOLD(x0, k1x, _mm_loadu_si128((const __m128i *)buf));
#undef CRC_FOLD
    /* 128 -> 64 bits, then 64 -> 32 */
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k1x, 0x10));
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                       _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k64, 0x00));
    /* Barrett reduction by P */
    __m128i t = _mm_and_si128(_mm_clmulepi64_si128(_mm_and_si128(x0, low32), mu_p, 0x10), low32);
    x0 = _mm_xor_si128(x0, _mm_clmulepi64_si128(t, mu_p, 0x00));
    return (uint32_t)_mm_cvtsi128_si32(_mm_srli_si128(x0, 4));
}
#endif /* NTT_X86 */

static uint32_t crc_run(uint32_t c, const uint8_t *buf, long len) {
#ifdef NTT_X86
    if (crc_fold && len >= 64) {
        c = crc_bytes_fold(c, buf, len & ~15L);
        buf += len & ~15L;
        len &= 15;
    }
#endif
    return crc_bytes_table(c, buf, len);
}

/* zlib.crc32(buf[:len], crc). */
long crc32_bytes(const uint8_t *buf, long len, long crc) {
    pthread_once(&crc_once, crc_init);
    return (long)(uint32_t)~crc_run(~(uint32_t)crc, buf, len);
}

/* A blob body is <u4 words (repro.bfv.serialize), read and written a block
 * at a time: each block's range and word pass, then its CRC while it is in
 * L1.  Body words may sit at any byte offset of the blob. */
#define CODEC_BLOCK 1024
typedef uint32_t word_at __attribute__((aligned(1)));

MAC_CLONES
static uint64_t narrow_block(uint32_t *out, const uint64_t *src, long count) {
    uint64_t high = 0;
    for (long j = 0; j < count; ++j) {
        high |= src[j] >> 32;
        out[j] = (uint32_t)src[j];
    }
    return high;
}

/* Narrows count int64 words at src into the body words at out and
 * continues zlib's CRC-32 crc over them; -1 (out partly written) when a
 * word is outside [0, 2^32). */
long rns_pack(uint32_t *out, const int64_t *src, long count, long crc) {
    pthread_once(&crc_once, crc_init);
    uint32_t c = ~(uint32_t)crc;
    for (long j = 0; j < count; j += CODEC_BLOCK) {
        const long width = count - j < CODEC_BLOCK ? count - j : CODEC_BLOCK;
        if (narrow_block(out + j, (const uint64_t *)src + j, width))
            return -1;
        c = crc_run(c, (const uint8_t *)(out + j), width * 4);
    }
    return (long)(uint32_t)~c;
}

MAC_CLONES
static uint32_t widen_block(int64_t *out, const word_at *src, long count, uint32_t p) {
    uint32_t bad = 0;
    for (long j = 0; j < count; ++j) {
        bad |= src[j] >= p;
        out[j] = src[j];
    }
    return bad;
}

MAC_CLONES
static uint32_t copy_block(uint32_t *out, const word_at *src, long count, uint32_t p) {
    uint32_t bad = 0;
    for (long j = 0; j < count; ++j) {
        bad |= src[j] >= p;
        out[j] = src[j];
    }
    return bad;
}

/* A body of halves x k x width words at blob + offset, row i of every half checked
 * against p_i, into out: int64 words when wide (a ciphertext), else the
 * uint32 words themselves (a Galois key).  Returns zlib's CRC-32 of the
 * body bytes, or -1 when a residue is at or above its p_i. */
long rns_unpack(void *out, const uint8_t *blob, long offset, long halves, const uint64_t *p_arr,
                long k, long width, long wide) {
    const uint8_t *const src = blob + offset;
    pthread_once(&crc_once, crc_init);
    uint32_t c = ~0u;
    for (long row = 0; row < halves * k; ++row) {
        const uint32_t p = (uint32_t)p_arr[row % k];
        for (long j = 0; j < width; j += CODEC_BLOCK) {
            const long count = width - j < CODEC_BLOCK ? width - j : CODEC_BLOCK;
            const long at = row * width + j;
            const word_at *words = (const word_at *)(src + 4 * at);
            if (wide ? widen_block((int64_t *)out + at, words, count, p)
                     : copy_block((uint32_t *)out + at, words, count, p))
                return -1;
            c = crc_run(c, src + 4 * at, count * 4);
        }
    }
    return (long)(uint32_t)~c;
}
