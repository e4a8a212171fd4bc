#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include <unistd.h>

namespace pb {
namespace {

/// Small dense thread numbers for the trace's tid field.
std::uint32_t this_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

/// Innermost open span on this thread (parent of the next one).
thread_local std::uint32_t t_current = 0;

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::record(const SpanRecord& rec) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(rec);
}

bool Tracer::write_chrome_trace(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  const long pid = static_cast<long>(getpid());
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const SpanRecord& s : spans_) t0 = std::min(t0, s.start_ns);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    int n = std::snprintf(
        buf, sizeof(buf),
        "%s{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":%ld,\"tid\":%u,\"args\":{\"layer\":\"%s\","
        "\"id\":%u,\"parent\":%u",
        i ? "," : "", s.name, s.layer,
        static_cast<double>(s.start_ns - t0) / 1e3,
        static_cast<double>(s.dur_ns) / 1e3, pid, s.tid, s.layer, s.id,
        s.parent);
    out.write(buf, n);
    if (s.trace_id != 0) {
      n = std::snprintf(buf, sizeof(buf), ",\"trace_id\":\"%016llx\"",
                        static_cast<unsigned long long>(s.trace_id));
      out.write(buf, n);
    }
    out << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* name, const char* layer, std::uint64_t trace_id)
    : start_ns_(now_ns()), armed_(Tracer::get().enabled()) {
  if (!armed_) return;
  rec_.name = name;
  rec_.layer = layer;
  rec_.trace_id = trace_id;
  rec_.id = Tracer::get().next_id();
  rec_.parent = t_current;
  rec_.tid = this_tid();
  t_current = rec_.id;
}

Span::~Span() {
  if (!armed_) return;
  rec_.start_ns = start_ns_;
  rec_.dur_ns = now_ns() - start_ns_;
  t_current = rec_.parent;
  Tracer::get().record(rec_);
}

}  // namespace pb
