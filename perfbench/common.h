// Shared plumbing of the perfbench binary: command-line arguments, the
// result record every workload fills, percentile helpers, CPU clocks, heap
// sampling, and the in-memory span tracer of the traced (--trace 1) run.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Wall clock: only the length of a run's window (--seconds) is wall time.
using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Every time the benchmark reports is CPU time of this process, all its
// threads together. On a virtual host the hypervisor takes vCPUs away
// (steal time) for stretches of minutes, which stretches wall time by up
// to half; CPU time leaves that out.
inline double cpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}
inline double cpuSecondsSince(double t0) { return cpuSeconds() - t0; }
inline double cpuMsSince(double t0) { return 1e3 * (cpuSeconds() - t0); }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;  // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one run reports. `correct` covers the outputs of the operations
// that did not fail; `failed` counts the ones that did.
struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> errors;  // first few correctness failures

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
  }
};

// Nearest-rank quantile (q in [0, 1]).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// Heap in use by this process (glibc mallinfo2: allocated arena chunks
// plus mmapped ones, all arenas), MiB. Unlike the resident set, it does
// not depend on how the threads that submissions run on split allocations
// among malloc arenas.
double heapMb();

// Spans recorded around the benchmark's own calls into the program's
// layers, in CPU ms since the tracer was made. Kept in memory and written
// once, when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    long request = -1;  // spans of one request share this id
    double start_ms = 0;
    double end_ms = 0;
  };

  Tracer() : t0_(cpuSeconds()) {}

  double now() const { return cpuMsSince(t0_); }
  void record(std::string name, long request, double start_ms,
              double end_ms) {
    spans_.push_back({std::move(name), request, start_ms, end_ms});
  }
  // Times fn() as one span; returns its duration in ms.
  template <typename Fn>
  double time(const char* name, long request, Fn&& fn) {
    const double a = now();
    fn();
    const double b = now();
    record(name, request, a, b);
    return b - a;
  }

  // Mean duration of the spans called `name` (0 when none).
  double meanMs(const std::string& name) const;
  // One JSON object per line. Returns false when the file cannot be
  // written.
  bool write(const std::string& path) const;

 private:
  double t0_;
  std::vector<Span> spans_;
};

// The workloads (churn.cc, failover.cc).
Result runChurn(const Args& args);
Result runFailover(const Args& args);

// Calls `once` (which builds the workload's set-up and returns the CPU
// seconds it took) at least 3 times and until 0.5 s have been spent, at most 20000
// times, appending each duration to *seconds: a short set-up is repeated
// until its median is steady. Workloads sample before and after their
// window, so setup_s does not rest on a single moment of the host.
void repeatSetup(std::vector<double>* seconds,
                 const std::function<double()>& once);

// Appends the end-to-end metrics every workload reports: throughput is
// `ops` over `busy_cpu_s`, `op_cpu_ms` holds one CPU-time sample per
// operation of the measured window, `heap_mb` is the heap in use right
// after the restart sample at the 1024th operation (a fixed amount of
// work, so it does not grow with how many more operations a fast host fits
// in the window; and the journal holds just its checkpoint there, so the
// capacity its byte vector happens to have does not count), and restart_s
// the median of `restart_s`.
void addOpMetrics(Result* r, const std::vector<double>& setup_s,
                  double heap_mb, long ops, double busy_cpu_s,
                  const std::vector<double>& op_cpu_ms,
                  const std::vector<double>& restart_s);

}  // namespace perfbench
