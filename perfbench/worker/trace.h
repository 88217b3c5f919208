// Benchmark-side tracing and output helpers for the perfbench worker.
//
// Spans are recorded by the benchmark's own code around each call into one
// of the program's layers (serve, core, geo, eval, train, tensor, data):
// name, start, end, the enclosing span, and a request id shared by the
// spans of one request. They stay in memory and are written out once, when
// the worker exits; perfbench/stats.py turns them into per-layer self
// times. Only the worker's main thread records spans.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the worker started.
double NowS();

/// Cumulative CPU time of the whole machine from /proc/stat (zeros where
/// it cannot be read). On a VM, `steal` is time the hypervisor ran other
/// guests while this one had work.
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
};
CpuTimes ReadCpuTimes();
/// Share of CPU time stolen between two readings (0 when unknown).
double StealShare(const CpuTimes& from, const CpuTimes& to);

struct Span {
  int64_t id = 0;
  int64_t parent = -1;   // enclosing span, -1 for a root
  int64_t request = -1;  // shared by the spans of one request, -1 if none
  std::string name;      // "<layer>.<entry point>", e.g. "core.incremental_score"
  double start_s = 0.0;
  double end_s = 0.0;
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// Opens a span nested in the innermost open one; -1 when disabled.
  int64_t Begin(const std::string& name, int64_t request);
  void End(int64_t id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes {"spans": [...]} to `path`; false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

Tracer& GlobalTracer();

/// Records one span for the enclosing scope when tracing is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name, int64_t request = -1)
      : id_(GlobalTracer().Begin(name, request)) {}
  ~ScopedSpan() { GlobalTracer().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_;
};

/// Builds one flat JSON object; doubles keep all their digits (%.17g) and
/// non-finite values become null.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Nums(const std::string& key, const std::vector<double>& values);
  JsonObject& Raw(const std::string& key, const std::string& json);
  JsonObject& Map(const std::string& key,
                  const std::map<std::string, double>& values);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonNumber(double value);
std::string JsonString(const std::string& value);

}  // namespace perfbench
