/* SIGPROF frame-pointer sampler, preloaded with LD_PRELOAD (the host has no
 * `perf`).
 *
 *   cc -O2 -shared -fPIC -o sampler.so scripts/prof/sampler.c
 *   SAMPLER_OUT=run.samples LD_PRELOAD=./sampler.so <program> ...
 *
 * `setitimer(ITIMER_PROF)` every 4 ms of process CPU time; the handler walks
 * the frame-pointer chain of whichever thread the signal interrupted and
 * stores the return addresses. Every word of the walk is read with
 * `process_vm_readv` on the process itself, which fails instead of faulting
 * when a frameless callee has left something else in the register. At exit
 * the samples are written to $SAMPLER_OUT (default sampler.out):
 *
 *   base <load address of the executable, hex>
 *   1 0 <interrupted pc, then return addresses innermost first, hex> ...
 *
 * — the line format of allocsites.c, so `report.py samples` shares its
 * reader. Needs frames: build the program with `-C force-frame-pointers=yes`
 * (docs/OBSERVABILITY.md has the whole build line).
 */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define DEPTH 48
#define MAX_SAMPLES (1u << 17)
#define PERIOD_US 4000

static uintptr_t (*samples)[DEPTH];
static volatile uint32_t taken;
static pid_t self;

static int peek(uintptr_t at, uintptr_t out[2]) {
    struct iovec local = {out, 2 * sizeof(uintptr_t)};
    struct iovec remote = {(void *)at, 2 * sizeof(uintptr_t)};
    return process_vm_readv(self, &local, 1, &remote, 1, 0) == (ssize_t)local.iov_len;
}

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    uint32_t slot = __sync_fetch_and_add(&taken, 1);
    if (slot >= MAX_SAMPLES)
        return;
    ucontext_t *uc = context;
    uintptr_t *pc = samples[slot];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    int n = 0;
    pc[n++] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t frame[2];
    while (n < DEPTH && fp >= sp && (fp & 7) == 0 && peek(fp, frame)) {
        if (frame[1] < 4096)
            break;
        pc[n++] = frame[1];
        if (frame[0] <= fp)
            break;
        fp = frame[0];
    }
}

__attribute__((constructor)) static void start(void) {
    self = getpid();
    samples = calloc(MAX_SAMPLES, sizeof *samples);
    if (!samples)
        return;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, PERIOD_US}, {0, PERIOD_US}};
    setitimer(ITIMER_PROF, &every, NULL);
}

static int first_object(struct dl_phdr_info *info, size_t size, void *out) {
    (void)size;
    *(uintptr_t *)out = info->dlpi_addr; /* the executable comes first */
    return 1;
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    if (!samples)
        return;
    const char *path = getenv("SAMPLER_OUT");
    FILE *f = fopen(path ? path : "sampler.out", "w");
    if (!f)
        return;
    uintptr_t base = 0;
    dl_iterate_phdr(first_object, &base);
    fprintf(f, "base %lx\n", (unsigned long)base);
    uint32_t n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    if (taken > MAX_SAMPLES)
        fprintf(f, "dropped %u\n", taken - MAX_SAMPLES);
    for (uint32_t i = 0; i < n; i++) {
        fputs("1 0", f);
        for (int d = 0; d < DEPTH && samples[i][d]; d++)
            fprintf(f, " %lx", (unsigned long)samples[i][d]);
        fputc('\n', f);
    }
    fclose(f);
}
