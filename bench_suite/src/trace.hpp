// trace.hpp — in-memory spans around the suite's own calls into the
// simulator's modules (nothing inside src/ is instrumented).
//
// A span has a name, host start/end, its parent span and the trace id
// of the workload run it belongs to, plus one optional count (events
// dispatched by a run_until slice, packets replayed, ...). Spans stay
// in memory and are written as Chrome-trace JSON when the run ends.
// With no Tracer installed every ScopedSpan is a null check.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace harmless::suite {

using Clock = std::chrono::steady_clock;

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t count = 0;
};

class Tracer {
 public:
  explicit Tracer(std::uint64_t trace_id) : trace_id_(trace_id) {}

  /// Open a span under the innermost open one; returns its index.
  int open(const char* name);
  void close(int index, std::uint64_t count = 0);
  /// A complete span recorded after the fact (sampled generator calls),
  /// parented to the innermost open span.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  /// Self time per span name, in first-seen order: the sum over the
  /// name's spans of their duration minus the time their direct
  /// children cover.
  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> self_ns() const;

  /// Chrome trace-event JSON ("X" events, microseconds).
  [[nodiscard]] std::string chrome_json(const std::string& process_name) const;

 private:
  std::uint64_t trace_id_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The tracer of the running workload, or null when tracing is off.
Tracer* tracer();
void set_tracer(Tracer* tracer);

/// RAII span; free when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : tracer_(tracer()) {
    if (tracer_ != nullptr) index_ = tracer_->open(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(index_, count_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(std::uint64_t count) { count_ = count; }

 private:
  Tracer* tracer_;
  int index_ = -1;
  std::uint64_t count_ = 0;
};

}  // namespace harmless::suite
