/* ThreadSanitizer test program for the kernel's lanes (src/repro/bfv/_ntt_kernel.c).
 *
 * CPython does not start with libtsan preloaded on every toolchain, so the
 * kernel is built into this standalone binary instead.  It runs every entry
 * point that splits across the helper team -- ntt_forward, ntt_inverse,
 * mac_weights, keyswitch_rotate, rns_digit_split -- at sizes above their
 * inline minimums:
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
 * its own helpers, which is the behaviour under test.
 */
#include "../src/repro/bfv/_ntt_kernel.c"

#include <stdio.h>
#include <sys/wait.h>
#include <time.h>

enum { K = 4, N = 1024, B = 4, T = 7, O = 4, JOBS = 4, W = 2, L = 8, ROUNDS = 20 };

/* Below 2^30 (the NTT's bound); every operand is drawn below 2^28. */
static const uint64_t moduli[K] = {
    (1u << 29) - 3, (1u << 29) - 33, (1u << 29) - 43, (1u << 29) - 63,
};

static int64_t perm[N], gather[N];
static uint64_t tw[K * (N - 1)], tw_sh[K * (N - 1)], scale[K * N], scale_sh[K * N];
static uint64_t coeff[K * B * N], x0[K * B * T * N], x1[K * B * T * N], w[K * O * T * N];
static uint64_t digits[K * T * N], c0[K * N];
static uint32_t keys[JOBS][2 * K * T * N];
static uint64_t ginv[K * K], ginv_sh[K * K], lift[K];

typedef struct {
    uint64_t forward[K * B * N], inverse[K * B * N];
    uint64_t mac0[K * B * O * N], mac1[K * B * O * N];
    uint64_t ks[JOBS * 2 * K * N];
    uint64_t split[K * B * L * N];
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
        for (long j = 0; j < N - 1; ++j) {
            tw[i * (N - 1) + j] = draw();
            tw_sh[i * (N - 1) + j] = (tw[i * (N - 1) + j] << 32) / moduli[i];
        }
        for (long j = 0; j < N; ++j) {
            scale[i * N + j] = draw();
            scale_sh[i * N + j] = (scale[i * N + j] << 32) / moduli[i];
        }
        for (long j = 0; j < K; ++j) {
            ginv[i * K + j] = draw();
            ginv_sh[i * K + j] = (uint64_t)(((u128)ginv[i * K + j] << 64) / moduli[i]);
        }
        lift[i] = moduli[i] * 4; /* a multiple of p_i at least 2^31 */
    }
    fill(coeff, sizeof coeff / 8);
    fill(x0, sizeof x0 / 8);
    fill(x1, sizeof x1 / 8);
    fill(w, sizeof w / 8);
    fill(digits, sizeof digits / 8);
    fill(c0, sizeof c0 / 8);
    for (long r = 0; r < JOBS; ++r)
        for (long j = 0; j < 2 * K * T * N; ++j)
            keys[r][j] = (uint32_t)draw();
}

/* One call of every split entry point into `o`. */
static void run_all(outputs *o) {
    const long isa = ntt_isa_max();
    uint32_t ks_scratch[2 * N];
    uint64_t split_scratch[L * SPLIT_BLOCK];
    ks_job jobs[JOBS];
    ntt_forward(coeff, o->forward, perm, scale, scale_sh, tw, tw_sh, moduli, K, B, N, isa);
    ntt_inverse(coeff, o->inverse, perm, scale, scale_sh, tw, tw_sh, moduli, K, B, N, isa);
    mac_weights(o->mac0, o->mac1, x0, x1, B * T * N, T * N, N,
                w, O * T * N, T * N, N, moduli, K, B, O, T, N);
    for (long r = 0; r < JOBS; ++r) {
        const ks_job job = {digits, c0, gather, keys[r], keys[r] + K * T * N,
                            o->ks + 2 * r * K * N, o->ks + (2 * r + 1) * K * N, T * N};
        jobs[r] = job;
    }
    keyswitch_rotate(jobs, JOBS, T * N, N, N, N, moduli, K, T, N, ks_scratch, isa);
    rns_digit_split(coeff, o->split, moduli, ginv, ginv_sh, lift, K, B, N, W, L, 16,
                    3, 0, split_scratch);
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
