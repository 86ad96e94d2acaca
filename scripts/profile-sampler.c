/* Instruction-pointer sampler for scripts/profile.sh, loaded with
 * LD_PRELOAD. A CLOCK_MONOTONIC timer sends SIGPROF to the main thread
 * 10,000 times a second; the handler stores the interrupted RIP as an
 * offset into the main executable (0 for code outside it). At exit the
 * offsets are written, one hex number a line, to the file named by
 * PROFILE_SAMPLER_OUT; without it the library does nothing. Child
 * processes are not sampled. */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 23)

static unsigned long *samples;
static volatile unsigned long taken;
static unsigned long base, lo, hi;
static timer_t timer;
static char *out_path;

/* The first object dl_iterate_phdr reports is the executable: its load
 * base and the span of its loaded segments. */
static int find_exe(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size, (void)data;
    base = info->dlpi_addr, lo = -1UL, hi = 0;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD) continue;
        if (base + ph->p_vaddr < lo) lo = base + ph->p_vaddr;
        if (base + ph->p_vaddr + ph->p_memsz > hi) hi = base + ph->p_vaddr + ph->p_memsz;
    }
    return 1;
}

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    unsigned long rip = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
    if (taken < MAX_SAMPLES) samples[taken++] = rip >= lo && rip < hi ? rip - base : 0;
}

__attribute__((constructor)) static void start(void) {
    const char *out = getenv("PROFILE_SAMPLER_OUT");
    if (!out || !(out_path = strdup(out)) || !(samples = malloc(MAX_SAMPLES * sizeof *samples)))
        return;
    unsetenv("PROFILE_SAMPLER_OUT"), unsetenv("LD_PRELOAD");
    dl_iterate_phdr(find_exe, NULL);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {.sigev_notify = SIGEV_THREAD_ID, .sigev_signo = SIGPROF};
    ev._sigev_un._tid = gettid();
    struct itimerspec every = {{0, 100000}, {0, 100000}};
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) == 0) timer_settime(timer, 0, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    if (!samples) return;
    timer_delete(timer);
    FILE *out = fopen(out_path, "w");
    if (!out) return;
    for (unsigned long i = 0; i < taken; i++) fprintf(out, "%lx\n", samples[i]);
    fclose(out);
}
