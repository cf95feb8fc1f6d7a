// perfbench: one binary, two workloads against the public API of
// core::ClickIncService (README.md).
//
//   perfbench --workload churn|failover --seed N --seconds S
//             --trace 0|1
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) the workload measured. run.py checks them against
// BENCHMARK.json. A traced run writes its spans to
// traces/<workload>-seed<seed>.jsonl next to the binary.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.h"

namespace perfbench {

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "churn|failover --seed N --seconds S --trace 0|1\n",
               msg);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else {
        usage(("unknown argument " + k).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds out of range");
  return a;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Emits the selected metric kind, in the order the workload measured it.
void printResult(const Result& r, bool trace) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : trace ? r.per_layer : r.end_to_end) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + jsonNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double heapMb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

double Tracer::meanMs(const std::string& name) const {
  double sum = 0;
  std::size_t n = 0;
  for (const auto& s : spans_) {
    if (s.name != name) continue;
    sum += s.end_ms - s.start_ms;
    ++n;
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

bool Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  for (const auto& s : spans_) {
    f << "{\"name\": \"" << s.name << "\", \"request\": " << s.request
      << ", \"start_ms\": " << jsonNumber(s.start_ms)
      << ", \"end_ms\": " << jsonNumber(s.end_ms) << "}\n";
  }
  return static_cast<bool>(f);
}

void repeatSetup(std::vector<double>* seconds,
                 const std::function<double()>& once) {
  double total = 0;
  for (int i = 0; i < 20000 && (i < 3 || total < 0.5); ++i) {
    seconds->push_back(once());
    total += seconds->back();
  }
}

void addOpMetrics(Result* r, const std::vector<double>& setup_s,
                  double heap_mb, long ops, double busy_cpu_s,
                  const std::vector<double>& op_cpu_ms,
                  const std::vector<double>& restart_s) {
  r->end_to_end.push_back({"setup_s", median(setup_s), "s"});
  r->end_to_end.push_back({"heap_mb", heap_mb, "MiB"});
  r->end_to_end.push_back(
      {"ops_per_cpu_s",
       busy_cpu_s > 0 ? static_cast<double>(ops) / busy_cpu_s : 0, "1/s"});
  r->end_to_end.push_back(
      {"op_cpu_p50_ms", quantile(op_cpu_ms, 0.50), "ms"});
  r->end_to_end.push_back({"restart_s", median(restart_s), "s"});
  // Every per-operation figure rests on at least 1000 operations.
  r->check(op_cpu_ms.size() >= 1000, "fewer than 1000 operation samples");
  r->check(heap_mb > 0, "no heap sample");
  r->check(restart_s.size() >= 3, "fewer than 3 restart samples");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = parseArgs(argc, argv);
  if (args.trace) {
    const auto dir = std::filesystem::absolute(argv[0]).parent_path() / "traces";
    std::filesystem::create_directories(dir);
    args.trace_file = (dir / (args.workload + "-seed" +
                              std::to_string(args.seed) + ".jsonl"))
                          .string();
  }
  Result r;
  try {
    if (args.workload == "churn") {
      r = runChurn(args);
    } else if (args.workload == "failover") {
      r = runFailover(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const auto& e : r.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  printResult(r, args.trace);
  return 0;
}
