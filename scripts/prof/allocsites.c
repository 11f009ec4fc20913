/* Allocation-site histogram, preloaded with LD_PRELOAD.
 *
 *   cc -O2 -fno-omit-frame-pointer -shared -fPIC -o allocsites.so \
 *      scripts/prof/allocsites.c -ldl
 *   ALLOCSITES_OUT=run.sites LD_PRELOAD=./allocsites.so <program> ...
 *
 * Interposes malloc, calloc, realloc, posix_memalign and aligned_alloc, walks
 * the frame-pointer chain of the calling thread and keeps one (count, bytes)
 * pair per distinct call stack. A realloc is counted when it asks for more
 * than the block can already hold, by the difference — what a counting
 * `GlobalAlloc` that counts growing reallocations sees. At exit the table is
 * written to $ALLOCSITES_OUT (default allocsites.out):
 *
 *   base <load address of the executable, hex>
 *   <count> <bytes> <return address, innermost first, hex> ...
 *
 * — the first address being the allocator's caller (the tool's own frames
 * are left out), so that a reader can tell the program's allocations from
 * the C library's own.
 *
 * Needs frames: build the program with `-C force-frame-pointers=yes`
 * (docs/OBSERVABILITY.md has the whole build line). `report.py allocs` reads
 * two such files from runs of different length and differences them.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <malloc.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/uio.h>
#include <unistd.h>

#define DEPTH 28
#define SLOTS (1u << 18) /* distinct stacks; a power of two */

struct site {
    uint64_t hash; /* 0 = empty */
    uint64_t count, bytes;
    uintptr_t pc[DEPTH];
};

static struct site table[SLOTS];
static uint64_t dropped; /* allocations that found the table full */
static volatile int table_lock;
static __thread int inside; /* the hooks' own calls are not counted */
static __thread uintptr_t readable_end; /* see `readable_up_to` */

static void *(*real_malloc)(size_t);
static void *(*real_calloc)(size_t, size_t);
static void *(*real_realloc)(void *, size_t);
static int (*real_posix_memalign)(void **, size_t, size_t);
static void *(*real_aligned_alloc)(size_t, size_t);

/* dlsym itself calls calloc while the real one is being looked up. */
static char boot[4096];
static size_t boot_used;

/* Where this library is loaded: its own frames are left out of the stacks. */
static uintptr_t self_lo, self_hi;

static int find_self(struct dl_phdr_info *info, size_t size, void *inside_self) {
    (void)size;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        uintptr_t lo = info->dlpi_addr + ph->p_vaddr;
        if (ph->p_type == PT_LOAD && lo <= (uintptr_t)inside_self &&
            (uintptr_t)inside_self < lo + ph->p_memsz) {
            self_lo = info->dlpi_addr;
            for (int j = 0; j < info->dlpi_phnum; j++) {
                const ElfW(Phdr) *q = &info->dlpi_phdr[j];
                uintptr_t end = info->dlpi_addr + q->p_vaddr + q->p_memsz;
                if (q->p_type == PT_LOAD && end > self_hi)
                    self_hi = end;
            }
            return 1;
        }
    }
    return 0;
}

static void resolve(void) {
    inside++;
    real_calloc = dlsym(RTLD_NEXT, "calloc");
    real_malloc = dlsym(RTLD_NEXT, "malloc");
    real_realloc = dlsym(RTLD_NEXT, "realloc");
    real_posix_memalign = dlsym(RTLD_NEXT, "posix_memalign");
    real_aligned_alloc = dlsym(RTLD_NEXT, "aligned_alloc");
    dl_iterate_phdr(find_self, (void *)(uintptr_t)&find_self);
    inside--;
}

/* The walk never reads memory it has not shown to be readable: a caller
 * without a frame leaves whatever it likes in the frame-pointer register.
 * `readable_end` is the end of the highest page of the calling thread's stack
 * a walk has reached so far; going past it is probed page by page with
 * `process_vm_readv` on the process itself, which fails instead of faulting.
 * (`pthread_getattr_np` would give the bound outright, but it allocates while
 * it holds the thread's lock.) */
static int readable_up_to(uintptr_t end) {
    static pid_t self;
    if (!self)
        self = getpid();
    while (readable_end < end) {
        char byte;
        struct iovec local = {&byte, 1};
        struct iovec remote = {(void *)readable_end, 1};
        if (end - readable_end > (1u << 20) ||
            process_vm_readv(self, &local, 1, &remote, 1, 0) != 1)
            return 0;
        readable_end += 4096;
    }
    return 1;
}

static void record(size_t bytes) {
    uintptr_t pc[DEPTH] = {0};
    uintptr_t *fp = __builtin_frame_address(0);
    if (!readable_end)
        readable_end = ((uintptr_t)fp | 4095) + 1;
    int n = 0;
    while (n < DEPTH && ((uintptr_t)fp & 7) == 0 && readable_up_to((uintptr_t)(fp + 2))) {
        uintptr_t ret = fp[1];
        if (ret < 4096)
            break;
        if (ret < self_lo || ret >= self_hi)
            pc[n++] = ret;
        uintptr_t *next = (uintptr_t *)fp[0];
        if (next <= fp)
            break;
        fp = next;
    }
    uint64_t h = 1469598103934665603ull;
    for (int i = 0; i < n; i++)
        h = (h ^ pc[i]) * 1099511628211ull;
    h |= 1;
    while (__sync_lock_test_and_set(&table_lock, 1))
        ;
    uint32_t at = (uint32_t)(h >> 20) & (SLOTS - 1);
    for (uint32_t probes = 0; probes < SLOTS; probes++, at = (at + 1) & (SLOTS - 1)) {
        struct site *s = &table[at];
        if (s->hash == 0) {
            s->hash = h;
            memcpy(s->pc, pc, sizeof pc);
        }
        if (s->hash == h && memcmp(s->pc, pc, sizeof pc) == 0) {
            s->count++;
            s->bytes += bytes;
            __sync_lock_release(&table_lock);
            return;
        }
    }
    dropped++;
    __sync_lock_release(&table_lock);
}

void *malloc(size_t size) {
    if (!real_malloc)
        resolve();
    void *p = real_malloc(size);
    if (!inside && p) {
        inside++;
        record(size);
        inside--;
    }
    return p;
}

void *calloc(size_t n, size_t size) {
    if (!real_calloc) {
        if (inside) { /* dlsym's own request */
            size_t want = (n * size + 15) & ~(size_t)15;
            if (boot_used + want > sizeof boot)
                return NULL;
            void *p = boot + boot_used;
            boot_used += want;
            return p;
        }
        resolve();
    }
    void *p = real_calloc(n, size);
    if (!inside && p) {
        inside++;
        record(n * size);
        inside--;
    }
    return p;
}

void *realloc(void *old, size_t size) {
    if (!real_realloc)
        resolve();
    size_t had = old ? malloc_usable_size(old) : 0;
    void *p = real_realloc(old, size);
    if (!inside && p && size > had) {
        inside++;
        record(size - had);
        inside--;
    }
    return p;
}

int posix_memalign(void **out, size_t align, size_t size) {
    if (!real_posix_memalign)
        resolve();
    int rc = real_posix_memalign(out, align, size);
    if (!inside && rc == 0) {
        inside++;
        record(size);
        inside--;
    }
    return rc;
}

void *aligned_alloc(size_t align, size_t size) {
    if (!real_aligned_alloc)
        resolve();
    void *p = real_aligned_alloc(align, size);
    if (!inside && p) {
        inside++;
        record(size);
        inside--;
    }
    return p;
}

void free(void *p) {
    static void (*real_free)(void *);
    if ((char *)p >= boot && (char *)p < boot + sizeof boot)
        return;
    if (!real_free)
        real_free = dlsym(RTLD_NEXT, "free");
    real_free(p);
}

static int first_object(struct dl_phdr_info *info, size_t size, void *out) {
    (void)size;
    *(uintptr_t *)out = info->dlpi_addr; /* the executable comes first */
    return 1;
}

__attribute__((destructor)) static void dump(void) {
    inside++;
    const char *path = getenv("ALLOCSITES_OUT");
    FILE *f = fopen(path ? path : "allocsites.out", "w");
    if (!f)
        return;
    uintptr_t base = 0;
    dl_iterate_phdr(first_object, &base);
    fprintf(f, "base %lx\n", (unsigned long)base);
    if (dropped)
        fprintf(f, "dropped %lu\n", (unsigned long)dropped);
    for (uint32_t i = 0; i < SLOTS; i++) {
        if (!table[i].hash)
            continue;
        fprintf(f, "%lu %lu", (unsigned long)table[i].count, (unsigned long)table[i].bytes);
        for (int d = 0; d < DEPTH && table[i].pc[d]; d++)
            fprintf(f, " %lx", (unsigned long)table[i].pc[d]);
        fputc('\n', f);
    }
    fclose(f);
}
