/* In-process CPU sampler for scripts/profile.sh.
 *
 * Preloaded into a process (LD_PRELOAD), it samples the process's own CPU
 * time with ITIMER_PROF, one SIGPROF a millisecond of CPU, and walks the
 * frame-pointer chain of the main thread at each. At exit it writes every
 * sample to ./ssdbench.prof, one line a sample, leaf first, as hex
 * addresses relative to the executable's load address (return addresses
 * less one, so they resolve to the call). A frame is followed only while
 * it lies between the interrupted stack pointer and the top of the main
 * thread's stack and each caller's frame is above its callee's, so the walk
 * reads only mapped stack; samples on other threads are counted, not walked.
 *
 * A leaf outside the executable (libc's memcpy, the vDSO) cannot be
 * symbolized against it, so at exit, outside the signal handler, dladdr
 * names it instead: `@object:symbol`, or `@object+0xoffset` where the
 * object exports no symbol at that address. Such a leaf has usually set up
 * no frame of its own (glibc is built without frame pointers), so the walk
 * starts at its caller's frame and would skip the caller itself; the word
 * at the stack pointer is then the return address into that caller. When
 * that word points into the executable's code it is written after the
 * leaf, marked `^`. It is a guess: a leaf that has pushed registers may
 * have left a code address there that is no return address.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_WORDS (1 << 22) /* 32 MB of frames, touched only as filled */
#define MAX_DEPTH 256

static uintptr_t words[MAX_WORDS]; /* per sample: depth, then the frames */
static size_t used, other_threads, full;
static uintptr_t stack_lo, stack_hi, bias, exe_lo = UINTPTR_MAX, exe_hi;
static uintptr_t text_lo = UINTPTR_MAX, text_hi; /* the executable's code */
#define CALLER_MARK ((uintptr_t)1 << 63)    /* a word at the stack pointer */

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    const greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uintptr_t sp = r[REG_RSP], fp = r[REG_RBP];
    if (sp < stack_lo || sp >= stack_hi) { other_threads++; return; }
    if (used + MAX_DEPTH + 2 > MAX_WORDS) { full++; return; }
    size_t head = used++;
    uintptr_t ip = r[REG_RIP];
    words[used++] = ip - bias;
    if (ip < text_lo || ip >= text_hi) {
        uintptr_t ret = *(const uintptr_t *)sp;
        if (ret > text_lo && ret <= text_hi) words[used++] = (ret - 1 - bias) | CALLER_MARK;
    }
    while (fp >= sp && fp + 16 <= stack_hi && fp % 8 == 0 && used - head < MAX_DEPTH) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        if (frame[1] == 0) break;
        words[used++] = frame[1] - 1 - bias;
        if (frame[0] <= fp) break;
        fp = frame[0];
    }
    words[head] = used - head - 1;
}

static int main_program(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size, (void)data;
    bias = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD) continue;
        uintptr_t lo = bias + ph->p_vaddr;
        if (lo < exe_lo) exe_lo = lo;
        if (lo + ph->p_memsz > exe_hi) exe_hi = lo + ph->p_memsz;
        if (!(ph->p_flags & PF_X)) continue;
        if (lo < text_lo) text_lo = lo;
        if (lo + ph->p_memsz > text_hi) text_hi = lo + ph->p_memsz;
    }
    return 1; /* the first object listed is the executable */
}

/* Writes a sample's leaf: its offset in the executable, or its object and
 * symbol when it lies outside. */
static void put_leaf(FILE *out, uintptr_t rel, size_t *named) {
    uintptr_t at = rel + bias;
    Dl_info dl;
    if ((at >= exe_lo && at < exe_hi) || !dladdr((void *)at, &dl) || !dl.dli_fname) {
        fprintf(out, "%lx", (unsigned long)rel);
        return;
    }
    const char *obj = strrchr(dl.dli_fname, '/');
    obj = obj ? obj + 1 : dl.dli_fname;
    if (dl.dli_sname)
        fprintf(out, "@%s:%s", *obj ? obj : "[vdso]", dl.dli_sname);
    else
        fprintf(out, "@%s+0x%lx", *obj ? obj : "[vdso]", (unsigned long)(at - (uintptr_t)dl.dli_fbase));
    (*named)++;
}

__attribute__((constructor)) static void start(void) {
    pthread_attr_t attr;
    void *lo;
    size_t size;
    if (pthread_getattr_np(pthread_self(), &attr) || pthread_attr_getstack(&attr, &lo, &size)) return;
    stack_lo = (uintptr_t)lo, stack_hi = stack_lo + size;
    dl_iterate_phdr(main_program, NULL);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen("ssdbench.prof", "w");
    if (!out) return;
    size_t samples = 0, named = 0;
    for (size_t i = 0; i < used; i += words[i] + 1, samples++) {
        put_leaf(out, words[i + 1], &named);
        for (size_t j = 2; j <= words[i]; j++) {
            uintptr_t w = words[i + j];
            fprintf(out, (w & CALLER_MARK) ? " ^%lx" : " %lx", (unsigned long)(w & ~CALLER_MARK));
        }
        fputc('\n', out);
    }
    fclose(out);
    fprintf(stderr, "profile: %zu samples, %zu on other threads, %zu past the buffer, %zu named by dladdr\n",
            samples, other_threads, full, named);
}
