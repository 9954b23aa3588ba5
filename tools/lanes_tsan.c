/* ThreadSanitizer test program for the kernel's lanes (src/repro/bfv/_ntt_kernel.c).
 *
 * CPython does not start with libtsan preloaded on every toolchain, so the
 * kernel is built into this standalone binary instead.  It runs every entry
 * point that splits across the helper team -- ntt_forward, ntt_inverse,
 * mac_weights, keyswitch_rotate, rns_hoist -- at sizes above their inline
 * minimums, the key switch also accumulating two runs of two jobs into two
 * rows (one item per run and limb), the hoist on both of its schedules:
 * HB = LANES_MAX members, one per item on any host, and one member, stage
 * by stage (a base wider than the moduli there, so each lane also reduces
 * digit rows in its scratch); and rns_layer_run on a small conv layer's
 * program, whose hoist, key switches and weight MAC each split:
 *
 *   1. once with the team held, so every call runs inline: the reference;
 *   2. once on the team, then from two threads at once, ROUNDS times each
 *      (one owns the team, the other runs inline), every output compared
 *      with the reference byte for byte;
 *   3. in a child forked after the parent used the team, and in children
 *      forked while a parent thread is inside split calls: each must
 *      build its own team and return the reference bytes in time.
 *
 * The operands are random residues below every modulus, with consistent
 * Shoup tables; the outputs are not transforms of anything, only the same
 * bytes on any number of lanes.  Exits 1 on a mismatch or a hung child;
 * ThreadSanitizer exits non-zero on a report.  Build and run from the
 * repository root (the kernel-sanitize CI job does):
 *
 *   cc -O1 -g -fsanitize=thread -pthread -Wall -Wextra -Werror \
 *       tools/lanes_tsan.c -o lanes_tsan
 *   TSAN_OPTIONS="halt_on_error=1 die_after_fork=0" ./lanes_tsan
 *
 * die_after_fork=0: a forked child of this multi-threaded process starts
 * its own helpers, which is the behaviour under test.  Under `taskset -c 0`
 * the process has one lane and every call runs inline (CI runs both).
 */
#include "../src/repro/bfv/_ntt_kernel.c"

#include <stdio.h>
#include <sys/wait.h>
#include <time.h>

enum { K = 4, N = 1024, B = 4, T = 7, O = 4, JOBS = 4, W = 4, L = 8, ROUNDS = 20 };
/* Members of the one-item-per-member hoist; 30-bit digits of the
 * one-member hoist, L30 of them (q < 2^116 fits W 32-bit words). */
enum { HB = LANES_MAX, L30 = 4 };
/* The layer program: LM inputs of one request, each rotated by one step
 * beside an identity copy (LS columns), LO outputs, LL 16-bit digits. */
enum { LM = 4, LS = 2, LO = 2, LL = 8, LT = LM * LS, LAYER_OPS = 8 };

/* Below 2^30 (the one limb bound); every operand is drawn below 2^28. */
static const uint64_t moduli[K] = {
    (1u << 29) - 3, (1u << 29) - 33, (1u << 29) - 43, (1u << 29) - 63,
};

static int64_t perm[N], gather[N];
static uint64_t tw[K * N], tw_sh[K * N], scale[K * N], scale_sh[K * N];
static uint64_t coeff[K * B * N], x0[K * B * T * N], x1[K * B * T * N], w[K * O * T * N];
static uint64_t c1[K * HB * N];
static uint64_t digits[K * T * N], c0[K * N], totals[2 * 2 * K * N];
static uint32_t keys[JOBS][2 * K * T * N], layer_keys[LM][2 * K * LL * N];
static int64_t layer_ops[256], layer_keys_table[2 * LM];
static uint64_t ginv[K * K], ginv_sh[K * K], lift[K];

typedef struct {
    uint64_t forward[K * B * N], inverse[K * B * N];
    uint64_t mac0[K * B * O * N], mac1[K * B * O * N];
    uint64_t ks[JOBS * 2 * K * N], ks_runs[2 * 2 * K * N];
    uint64_t hoist_members[K * HB * L * N], hoist_one[K * L30 * N];
    uint64_t layer_digits[K * LM * LL * N], layer_rot[2 * K * LT * N], layer_out[2 * K * LO * N];
} outputs;

static uint64_t state = 0x9e3779b97f4a7c15u;

static uint64_t draw(void) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state & ((1u << 28) - 1);
}

static void fill(uint64_t *a, size_t count) {
    for (size_t i = 0; i < count; ++i)
        a[i] = draw();
}

static void setup(void) {
    for (long j = 0; j < N; ++j) {
        perm[j] = (j * 5 + 3) % N;
        gather[j] = (j * 3 + 1) % N;
    }
    for (long i = 0; i < K; ++i) {
        for (long j = 0; j < N; ++j) {
            tw[i * N + j] = draw();
            tw_sh[i * N + j] = (tw[i * N + j] << 32) / moduli[i];
            scale[i * N + j] = draw();
            scale_sh[i * N + j] = (scale[i * N + j] << 32) / moduli[i];
        }
        for (long j = 0; j < K; ++j) {
            ginv[i * K + j] = draw() % moduli[i];
            ginv_sh[i * K + j] = (ginv[i * K + j] << 32) / moduli[i];
        }
        /* rns.garner_tables' rule: the least multiple of p_i at or above 2^30 */
        lift[i] = (((uint64_t)1 << 30) + moduli[i] - 1) / moduli[i] * moduli[i];
    }
    fill(coeff, sizeof coeff / 8);
    fill(c1, sizeof c1 / 8);
    fill(x0, sizeof x0 / 8);
    fill(x1, sizeof x1 / 8);
    fill(w, sizeof w / 8);
    fill(digits, sizeof digits / 8);
    fill(c0, sizeof c0 / 8);
    fill(totals, sizeof totals / 8);
    for (long r = 0; r < JOBS; ++r)
        for (long j = 0; j < 2 * K * T * N; ++j)
            keys[r][j] = (uint32_t)draw();
    /* Bases: 0 the input stack (c1, (2, K, LM, N)), 1 the outputs, 2 the
     * digits, 3 the rotated terms (2, K, LM, LS, N), 4 the map, 5 weights
     * (w viewed as (K, LO, LT, N)).  Strides in words, offsets in bytes. */
    const int64_t B8 = 8 * N, in_h = K * LM * N, rot_h = K * LT * N;
    int64_t *op = layer_ops;
    const int64_t hoist[HOIST_WORDS] = {
        [0] = OP_HOIST, [HOIST_M] = LM, [HOIST_C1] = 0, [HOIST_C1 + 1] = in_h * 8,
        [HOIST_DIGITS] = 2, [HOIST_DIGITS + 1] = 0,
    };
    /* Column 1 of each member, into the rotated terms. */
    const int64_t baby[KS_WORDS] = {
        [0] = OP_KS, [KS_J] = LM, [KS_ACCUMULATE] = 0, [KS_X] = 2, [KS_X + 1] = 0,
        [KS_XS_K] = LM * LL * N, [KS_XS_B] = LL * N, [KS_XS_T] = N, [KS_C0] = 0,
        [KS_C0 + 1] = 0, [KS_CS_K] = LM * N, [KS_CS_B] = N, [KS_MAPS] = 4, [KS_MAPS + 1] = 0,
        [KS_OUT] = 3, [KS_OUT + 1] = 0, [KS_OUT1] = rot_h, [KS_OS_K] = LT * N,
    };
    memcpy(op, hoist, sizeof hoist);
    memcpy(op + HOIST_WORDS, baby, sizeof baby);
    op += HOIST_WORDS + KS_WORDS;
    for (long m = 0; m < LM; ++m, op += JOB_WORDS) {
        const int64_t job[JOB_WORDS] = {
            [JOB_MEMBER] = m, [JOB_MAP] = 0, [JOB_KEY] = m, [JOB_ROW] = (m * LS + 1) * B8,
        };
        memcpy(op, job, sizeof job);
    }
    for (long m = 0; m < LM; ++m, op += COPY_WORDS) { /* column 0: the identity */
        const int64_t copy[COPY_WORDS] = {
            [0] = OP_COPY, [COPY_ACCUMULATE] = 0, [COPY_FROM] = 0, [COPY_FROM + 1] = m * B8,
            [COPY_FS_H] = in_h, [COPY_FS_K] = LM * N, [COPY_TO] = 3,
            [COPY_TO + 1] = m * LS * B8, [COPY_TS_H] = rot_h, [COPY_TS_K] = LT * N,
        };
        memcpy(op, copy, sizeof copy);
    }
    const int64_t mac[MAC_WORDS] = {
        [0] = OP_MAC, [MAC_B] = 1, [MAC_O] = LO, [MAC_T] = LT, [MAC_X] = 3, [MAC_X + 1] = 0,
        [MAC_X1] = rot_h, [MAC_XS_K] = LT * N, [MAC_XS_B] = 0, [MAC_XS_T] = N, [MAC_W] = 5,
        [MAC_W + 1] = 0, [MAC_WS_K] = 2 * LO * LT * N, [MAC_WS_O] = LT * N, [MAC_WS_T] = N,
        [MAC_OUT] = 1, [MAC_OUT + 1] = 0,
    };
    /* Every member onto the outputs, added to what the MAC wrote. */
    int64_t giant[KS_WORDS];
    memcpy(giant, baby, sizeof baby);
    giant[KS_ACCUMULATE] = 1;
    giant[KS_OUT] = 1;
    giant[KS_OUT1] = K * LO * N;
    giant[KS_OS_K] = LO * N;
    memcpy(op, mac, sizeof mac);
    memcpy(op + MAC_WORDS, giant, sizeof giant);
    op += MAC_WORDS + KS_WORDS;
    for (long m = 0; m < LM; ++m, op += JOB_WORDS) { /* members 0, 1 onto output 0, 2, 3 onto 1 */
        const int64_t job[JOB_WORDS] = {
            [JOB_MEMBER] = m, [JOB_MAP] = 0, [JOB_KEY] = m, [JOB_ROW] = m / 2 * B8,
        };
        memcpy(op, job, sizeof job);
    }
    for (long s = 0; s < LM; ++s) {
        for (long j = 0; j < 2 * K * LL * N; ++j)
            layer_keys[s][j] = (uint32_t)draw();
        layer_keys_table[2 * s] = (int64_t)(intptr_t)layer_keys[s];
        layer_keys_table[2 * s + 1] = LL;
    }
}

/* One call of every split entry point into `o`. */
static void run_all(outputs *o) {
    const long isa = ntt_isa_max();
    ks_job jobs[JOBS];
    ntt_forward(coeff, o->forward, perm, scale, scale_sh, tw, tw_sh, moduli, K, B, N, isa);
    ntt_inverse(coeff, o->inverse, perm, scale, scale_sh, tw, tw_sh, moduli, K, B, N, isa);
    mac_weights(o->mac0, o->mac1, x0, x1, B * T * N, T * N, N,
                w, O * T * N, T * N, N, moduli, K, B, O, T, N, isa);
    for (long r = 0; r < JOBS; ++r) {
        const ks_job job = {digits, c0, gather, keys[r], keys[r] + K * T * N,
                            o->ks + 2 * r * K * N, o->ks + (2 * r + 1) * K * N, T * N};
        jobs[r] = job;
    }
    keyswitch_rotate(jobs, JOBS, T * N, N, N, N, moduli, K, T, N, 0, isa);
    /* Jobs 0, 1 onto row 0 and 2, 3 onto row 1, added to the totals. */
    memcpy(o->ks_runs, totals, sizeof totals);
    for (long r = 0; r < JOBS; ++r) {
        jobs[r].out0 = o->ks_runs + 2 * (r / 2) * K * N;
        jobs[r].out1 = jobs[r].out0 + K * N;
    }
    keyswitch_rotate(jobs, JOBS, T * N, N, N, N, moduli, K, T, N, 1, isa);
    rns_hoist(c1, o->hoist_members, scale, scale_sh, tw, tw_sh, scale, scale_sh, tw, tw_sh,
              moduli, ginv, ginv_sh, lift, K, HB, N, W, L, 16, isa);
    rns_hoist(c1, o->hoist_one, scale, scale_sh, tw, tw_sh, scale, scale_sh, tw, tw_sh,
              moduli, ginv, ginv_sh, lift, K, 1, N, W, L30, 30, isa);
    void *bases[] = {c1, o->layer_out, o->layer_digits, o->layer_rot, gather, w};
    const uint64_t *tables[] = {scale, scale_sh, tw, tw_sh, scale, scale_sh, tw, tw_sh,
                                moduli, ginv, ginv_sh, lift};
    if (rns_layer_run(layer_ops, LAYER_OPS, bases, layer_keys_table, tables, K, N, W, LL, 16,
                      isa))
        abort(); /* no scratch: the bytes below would be stale */
}

static outputs *reference;

static int matches(const outputs *o) {
    return !memcmp(o, reference, sizeof *o);
}

static atomic_int stop, rounds_done, mismatches;

/* `arg` rounds of every split call, or rounds until `stop` when it is 0. */
static void *hammer(void *arg) {
    const long limit = (long)(intptr_t)arg;
    outputs *o = malloc(sizeof *o);
    for (long r = 0; limit ? r < limit : !atomic_load(&stop); ++r) {
        run_all(o);
        if (!matches(o))
            atomic_fetch_add(&mismatches, 1);
        atomic_fetch_add(&rounds_done, 1);
    }
    free(o);
    return NULL;
}

/* Forks a child that runs every split call once; 1 when it returned the
 * reference bytes within a minute. */
static int forked_child_matches(void) {
    const pid_t pid = fork();
    if (pid == 0) {
        outputs *o = malloc(sizeof *o);
        run_all(o);
        _exit(matches(o) ? 0 : 1);
    }
    if (pid < 0)
        return 0;
    for (int waited = 0; waited < 6000; ++waited) {
        int status;
        if (waitpid(pid, &status, WNOHANG) == pid)
            return WIFEXITED(status) && WEXITSTATUS(status) == 0;
        const struct timespec tick = {0, 10 * 1000 * 1000};
        nanosleep(&tick, NULL);
    }
    kill(pid, SIGKILL);
    waitpid(pid, NULL, 0);
    fprintf(stderr, "forked child hung\n");
    return 0;
}

int main(void) {
    int failed = 0;
    setup();
    printf("lanes %ld\n", kernel_lanes());
    reference = malloc(sizeof *reference);
    outputs *o = malloc(sizeof *o);

    atomic_store(&team.owned, 1); /* every call inline */
    run_all(reference);
    atomic_store(&team.owned, 0);
    run_all(o);
    if (!matches(o)) {
        fprintf(stderr, "split calls differ from inline ones\n");
        failed = 1;
    }

    pthread_t threads[2];
    for (int t = 0; t < 2; ++t)
        pthread_create(&threads[t], NULL, hammer, (void *)(intptr_t)ROUNDS);
    for (int t = 0; t < 2; ++t)
        pthread_join(threads[t], NULL);
    if (atomic_load(&mismatches)) {
        fprintf(stderr, "%d concurrent rounds differ\n", atomic_load(&mismatches));
        failed = 1;
    }

    if (!forked_child_matches()) {
        fprintf(stderr, "child of an idle parent failed\n");
        failed = 1;
    }
    atomic_store(&rounds_done, 0);
    pthread_create(&threads[0], NULL, hammer, NULL);
    while (atomic_load(&rounds_done) < 1)
        sched_yield();
    for (int f = 0; f < 3; ++f) {
        if (!forked_child_matches()) {
            fprintf(stderr, "child forked mid-call failed\n");
            failed = 1;
        }
    }
    atomic_store(&stop, 1);
    pthread_join(threads[0], NULL);
    if (atomic_load(&mismatches))
        failed = 1;

    free(o);
    free(reference);
    printf("%s\n", failed ? "FAILED" : "ok");
    return failed;
}
