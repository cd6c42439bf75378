// pcsample — an LD_PRELOAD sampling profiler: the program counter, and
// the return addresses above it, on every ITIMER_PROF tick.
//
//   export PCSAMPLE_DIR=/tmp/samples
//   LD_PRELOAD=build/bench/tools/pcsample/libpcsample.so ./prog args...
//   python3 bench/tools/pcsample/report.py /tmp/samples/pcsample.*.txt
//
// Loading starts a 1 ms process-CPU-time interval timer; the kernel
// rounds it up to its tick, so a 250 Hz kernel delivers one sample per
// ~4 ms of CPU. Each SIGPROF stores the
// interrupted PC and up to kDepth callers in a fixed buffer: the
// handler never allocates or locks. At normal exit the library writes
// pcsample.<pid>.txt into PCSAMPLE_DIR (default "."): a copy of
// /proc/self/maps, then one sample per line as hex addresses, leaf
// first. Children exec'd with the variable set sample themselves, so a
// suite that runs each rep in a fresh process yields one file per rep.
// A process that ends in _exit or a signal writes nothing.
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

constexpr int kDepth = 24;
constexpr unsigned kMaxSamples = 1u << 15;  // ~2 min of CPU at 250 Hz

struct Sample {
  int depth;
  void* frames[kDepth];  // frames[0] is the interrupted PC
};

Sample samples[kMaxSamples];
std::atomic<unsigned> taken{0};

void* interrupted_pc(void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
#error "pcsample: unsupported architecture"
#endif
}

void on_tick(int, siginfo_t*, void* context) {
  const unsigned index = taken.fetch_add(1, std::memory_order_relaxed);
  if (index >= kMaxSamples) return;
  Sample& sample = samples[index];
  void* pc = interrupted_pc(context);
  // The unwinder starts in this handler; the interrupted frame follows
  // the signal trampoline. Keep it and its callers.
  void* raw[kDepth + 8];
  const int n = backtrace(raw, kDepth + 8);
  int first = 0;
  while (first < n && raw[first] != pc) ++first;
  sample.frames[0] = pc;
  sample.depth = 1;
  for (int i = first + 1; i < n && sample.depth < kDepth; ++i) sample.frames[sample.depth++] = raw[i];
}

__attribute__((constructor)) void start() {
  void* warm[1];
  backtrace(warm, 1);  // loads the unwinder now, not inside the handler
  struct sigaction action {};
  action.sa_sigaction = on_tick;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  itimerval timer{{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void dump() {
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  const char* dir = std::getenv("PCSAMPLE_DIR");
  const std::string path = std::string(dir != nullptr ? dir : ".") + "/pcsample." +
                           std::to_string(getpid()) + ".txt";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fputs("# maps\n", out);
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof line, maps) != nullptr) std::fputs(line, out);
    std::fclose(maps);
  }
  std::fputs("# samples\n", out);
  const unsigned count = std::min(taken.load(), kMaxSamples);
  for (unsigned i = 0; i < count; ++i) {
    for (int f = 0; f < samples[i].depth; ++f)
      std::fprintf(out, f == 0 ? "%p" : " %p", samples[i].frames[f]);
    std::fputc('\n', out);
  }
  std::fclose(out);
}

}  // namespace
