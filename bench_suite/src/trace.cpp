#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace harmless::suite {

namespace {
Tracer* g_tracer = nullptr;
}  // namespace

Tracer* tracer() { return g_tracer; }
void set_tracer(Tracer* tracer) { g_tracer = tracer; }

int Tracer::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = host_ns();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index, std::uint64_t count) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = host_ns();
  span.count = count;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::record(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

std::vector<std::pair<std::string, std::int64_t>> Tracer::self_ns() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_)
    if (span.parent >= 0) child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
  std::vector<std::pair<std::string, std::int64_t>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t self = spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const auto& entry) { return entry.first == spans_[i].name; });
    if (it == out.end())
      out.emplace_back(spans_[i].name, self);
    else
      it->second += self;
  }
  return out;
}

std::string Tracer::chrome_json(const std::string& process_name) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"traceEvents\":[\n";
  char line[512];
  std::snprintf(line, sizeof line,
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                "\"args\":{\"name\":\"%s\"}}",
                process_name.c_str());
  out += line;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof line,
                  ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"trace_id\":\"%016llx\",\"count\":%llu}}",
                  span.name, static_cast<double>(span.start_ns - origin) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3, i, span.parent,
                  static_cast<unsigned long long>(trace_id_),
                  static_cast<unsigned long long>(span.count));
    out += line;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace harmless::suite
