// Span recorder for the host-time benchmark.
//
// A span is one call into a layer of the library, made from the benchmark's
// own code: a name, start and end (steady-clock nanoseconds since the
// process started) and the id of the span that was open when it began.
// Spans stay in memory and are written out as JSON when the run ends. A
// disabled tracer records nothing, so untraced runs pay one branch per call.
#ifndef HOSTBENCH_TRACE_H_
#define HOSTBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

// Nanoseconds elapsed since the process's static initialization.
int64_t NowNs();

class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = -1;  // -1 while open
    int parent = -1;      // index into spans(), -1 at the root
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // Opens a span under the innermost open one; returns its id (-1 when
  // disabled). Spans must close innermost first.
  int Begin(const char* name);
  void End(int id);

  // Durations in milliseconds of every closed span called `name`, in the
  // order they began.
  std::vector<double> DurationsMs(const std::string& name) const;

  // Writes {"spans": [{"id", "name", "start_ns", "end_ns", "parent"}...]}.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span: open for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name) : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace hostbench

#endif  // HOSTBENCH_TRACE_H_
