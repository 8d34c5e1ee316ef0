// Span recorder for the traced benchmark run.
//
// The benchmark records spans from its own code, around each call into a
// public entry point of the library (Engine::compile, Plan::solve*,
// Plan::set_observations, Server::submit, ...), plus derived child spans
// built from what those calls return (Result::breakdown categories,
// CompileTimings phases, Response queue/solve seconds).  Spans live in a
// buffer sized once up front, so recording never allocates; the buffer is
// written out as Chrome trace-event JSON when the run ends.
//
// A Tracer is used from one thread only: every workload records its spans
// from its client thread (the server's worker threads are never traced
// from inside).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One complete span.  `name` and `layer` must be string literals (or
/// otherwise outlive the tracer).
struct Span {
  const char* name = "";
  const char* layer = "";
  std::int64_t begin_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;       ///< 1-based; 0 means "no span"
  std::uint32_t parent = 0;   ///< id of the enclosing span, 0 for a root
  std::uint32_t op = 0;       ///< timed operation ordinal, 0 for set-up
};

class Tracer {
 public:
  Tracer(std::size_t capacity, Clock::time_point epoch);

  /// Records [begin, end) and returns its id, or 0 when the buffer is full
  /// (the span is counted as dropped).
  std::uint32_t record(const char* name, const char* layer,
                       Clock::time_point begin, Clock::time_point end,
                       std::uint32_t parent, std::uint32_t op);

  std::size_t size() const { return spans_.size(); }
  std::size_t dropped() const { return dropped_; }

  /// Writes {"traceEvents": [...]} with one "X" event per span; the span
  /// id, parent and operation ordinal go into each event's args.  Throws
  /// phmse::Error if the file cannot be written.
  void write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::size_t capacity_ = 0;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

/// Records a span when tracing is on (`tracer` non-null); returns 0 when
/// it is off, so callers can pass the result on as a parent id.
inline std::uint32_t trace_span(Tracer* tracer, const char* name,
                                const char* layer, Clock::time_point begin,
                                Clock::time_point end,
                                std::uint32_t parent = 0,
                                std::uint32_t op = 0) {
  return tracer == nullptr
             ? 0
             : tracer->record(name, layer, begin, end, parent, op);
}

/// Converts seconds to a steady_clock duration.
inline Clock::duration seconds_to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

}  // namespace perfbench
