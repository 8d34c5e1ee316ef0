#include "trace.hpp"

#include <cstdio>

#include "support/check.hpp"

namespace perfbench {

Tracer::Tracer(std::size_t capacity, Clock::time_point epoch)
    : epoch_(epoch), capacity_(capacity) {
  spans_.reserve(capacity);
}

std::uint32_t Tracer::record(const char* name, const char* layer,
                             Clock::time_point begin, Clock::time_point end,
                             std::uint32_t parent, std::uint32_t op) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  Span s;
  s.name = name;
  s.layer = layer;
  s.begin_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(begin - epoch_)
          .count();
  s.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.op = op;
  spans_.push_back(s);
  return s.id;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  PHMSE_CHECK(f != nullptr, "trace: cannot open " + path);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Chrome trace timestamps are microseconds; keep the nanoseconds as
    // fractional digits so sub-microsecond spans survive the round trip.
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %u, \"parent\": %u, \"op\": %u}}%s\n",
                 s.name, s.layer, static_cast<double>(s.begin_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.begin_ns) * 1e-3, s.id,
                 s.parent, s.op, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  const bool ok = std::fclose(f) == 0;
  PHMSE_CHECK(ok, "trace: write failed for " + path);
}

}  // namespace perfbench
