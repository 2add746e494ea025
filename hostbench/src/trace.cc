#include "trace.h"

#include <cstdio>

namespace hostbench {
namespace {

const Clock::time_point kProcessStart = Clock::now();

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kProcessStart)
      .count();
}

int Tracer::Begin(const char* name) {
  if (!enabled_) {
    return -1;
  }
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, NowNs(), -1, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (!enabled_ || id < 0) {
    return;
  }
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  open_.pop_back();
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                    "\"parent\": %d}",
                 i == 0 ? "" : ",", i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace hostbench
