// Shared helpers for the per-table/figure benchmark binaries.
//
// Every bench accepts `--scale=<float>` (default chosen per bench for a
// fast run; `--scale=1.0` reproduces paper-sized inputs where feasible on
// one machine). Output is printed as the same rows/series the paper
// reports; EXPERIMENTS.md records paper-vs-measured shapes.
//
// Two further flags are shared:
//  * `--quick` — a CI-sized smoke run (each bench shrinks its sweep).
//  * `--json`  — additionally write BENCH_<name>.json (config + result
//    rows) so the repo can record perf trajectories over time.

#ifndef FORKBASE_BENCH_BENCH_COMMON_H_
#define FORKBASE_BENCH_BENCH_COMMON_H_

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"
#include "util/timer.h"

namespace fb {
namespace bench {

// Parses --scale=<float> from argv; returns `def` if absent.
inline double ScaleArg(int argc, char** argv, double def) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      return std::atof(argv[i] + 8);
    }
  }
  return def;
}

// True when the exact flag (e.g. "--json", "--quick") is present.
inline bool FlagArg(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

// The machine a result came from: "model name" of /proc/cpuinfo.
inline std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

// How this binary was compiled, from the flags it saw.
inline const char* BuildType() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  return "release";
#elif defined(__OPTIMIZE__)
  return "optimized-with-asserts";
#else
  return "debug";
#endif
}

// Accumulates benchmark results and, when `--json` was passed, writes
// them to BENCH_<name>.json on destruction:
//
//   {
//     "bench": "<name>",
//     "host": {"nproc": 4, "cpu_model": "...", "build_type": "release"},
//     "config": {"scale": 0.25, ...},
//     "results": [{"phase": "put", "threads": 8, "kops": 123.4}, ...]
//   }
//
// Usage:
//   bench::BenchJson json(argc, argv, "fig8_scalability");
//   json.Config("scale", scale);
//   json.Row().Str("phase", "put").Num("threads", 8).Num("kops", v);
class BenchJson {
 public:
  BenchJson(int argc, char** argv, const char* name)
      : name_(name), enabled_(FlagArg(argc, argv, "--json")) {}

  ~BenchJson() {
    if (!enabled_) return;
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchJson: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", name_.c_str());
    std::fprintf(f, "  \"host\": {\"nproc\": %u, \"cpu_model\": %s, "
                 "\"build_type\": \"%s\"},\n  \"config\": {",
                 std::thread::hardware_concurrency(),
                 Quoted(CpuModel().c_str()).c_str(), BuildType());
    for (size_t i = 0; i < config_.size(); ++i) {
      std::fprintf(f, "%s%s", i == 0 ? "" : ", ", config_[i].c_str());
    }
    std::fprintf(f, "},\n  \"results\": [\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "    {%s}%s\n", rows_[i].c_str(),
                   i + 1 == rows_.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu result rows)\n", path.c_str(), rows_.size());
  }

  bool enabled() const { return enabled_; }

  BenchJson& Config(const char* key, double v) {
    config_.push_back(Pair(key, Number(v)));
    return *this;
  }
  BenchJson& Config(const char* key, const char* v) {
    config_.push_back(Pair(key, Quoted(v)));
    return *this;
  }

  // Starts a new result row; Num/Str append fields to it.
  BenchJson& Row() {
    rows_.emplace_back();
    return *this;
  }
  BenchJson& Num(const char* key, double v) { return Field(key, Number(v)); }
  BenchJson& Str(const char* key, const char* v) {
    return Field(key, Quoted(v));
  }

 private:
  static std::string Number(double v) {
    char buf[40];
    // Whole numbers (sizes, counts) print exactly; others to 6 digits.
    const bool whole = v > -1e15 && v < 1e15 &&
                       v == static_cast<double>(static_cast<long long>(v));
    std::snprintf(buf, sizeof(buf), whole ? "%.0f" : "%.6g", v);
    return buf;
  }
  static std::string Quoted(const char* v) {
    std::string out = "\"";
    for (const char* p = v; *p != '\0'; ++p) {
      if (*p == '"' || *p == '\\') out.push_back('\\');
      out.push_back(*p);
    }
    out.push_back('"');
    return out;
  }
  static std::string Pair(const char* key, const std::string& rendered) {
    return Quoted(key) + ": " + rendered;
  }
  BenchJson& Field(const char* key, const std::string& rendered) {
    std::string& row = rows_.back();
    if (!row.empty()) row += ", ";
    row += Pair(key, rendered);
    return *this;
  }

  std::string name_;
  bool enabled_;
  std::vector<std::string> config_;
  std::vector<std::string> rows_;
};

inline void Header(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

inline void Row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

// Dies on a non-OK status with a message.
template <typename StatusLike>
inline void Check(const StatusLike& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
inline T CheckResult(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

}  // namespace bench
}  // namespace fb

#endif  // FORKBASE_BENCH_BENCH_COMMON_H_
