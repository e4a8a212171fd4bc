#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

/// \file trace.h
/// The benchmark's own spans. Each wraps one call into a layer's public
/// function (lc::compress, lc::hash_bytes, server::Client::call,
/// charlab::Sweep::load_or_compute, ...) and records name, layer, start,
/// duration, parent span and an optional request trace ID in memory.
/// Nothing is written until write_chrome_trace() at the end of the run,
/// which emits the Chrome trace-event shape scripts/trace_summary.py reads.
///
/// Recording is off unless enabled; a disabled Span is one relaxed load.
/// lc::telemetry stays disabled throughout (enabling it would switch the
/// codec off its fused path), so these spans are the only tracing.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "report.h"

namespace pb {

struct SpanRecord {
  const char* name = nullptr;   ///< string literal
  const char* layer = nullptr;  ///< module: lc, common, server, charlab, ...
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = top level
  std::uint32_t tid = 0;
  std::uint64_t trace_id = 0;  ///< shared by the spans of one request
};

class Tracer {
 public:
  static Tracer& get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  void record(const SpanRecord& rec);
  [[nodiscard]] std::uint32_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Write every recorded span as Chrome trace-event JSON. False on I/O
  /// failure.
  [[nodiscard]] bool write_chrome_trace(const std::string& path);

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_id_{1};
  std::mutex mutex_;
  std::vector<SpanRecord> spans_;  ///< guarded by mutex_
};

/// Nanoseconds on the steady clock.
[[nodiscard]] std::uint64_t now_ns();

/// RAII span. Seconds() is measured whether or not recording is on, so
/// workloads time a phase and trace it with one object.
class Span {
 public:
  Span(const char* name, const char* layer, std::uint64_t trace_id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Seconds since the span opened.
  [[nodiscard]] double seconds() const {
    return static_cast<double>(now_ns() - start_ns_) * 1e-9;
  }

 private:
  SpanRecord rec_;
  std::uint64_t start_ns_;
  bool armed_;
};

}  // namespace pb

#endif  // PERFBENCH_TRACE_H
