#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

/// \file report.h
/// Shared plumbing for the perfbench workloads: run options, the result
/// record each workload fills, timing and order statistics, and the
/// host/build record written next to every result.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
[[nodiscard]] inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time per run
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  bool smoke = false;     ///< tiny inputs for the self-test
  std::size_t threads = 1;      ///< codec / sweep pool width: always nproc
  std::string work_dir;         ///< caches, sockets, traces
  std::string trace_path;       ///< Chrome trace output (trace runs)
};

/// What one run produced: counts, correctness findings and metrics.
class Report {
 public:
  /// Set (or overwrite) a metric.
  void set(const std::string& name, double value, const std::string& unit);

  /// Drop a metric (no-op when absent).
  void remove(const std::string& name);

  /// Record one attempted operation; `ok` false counts it as failed.
  void attempt(bool ok = true) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A correctness mismatch: counted as a failed operation and makes the
  /// whole run incorrect (non-zero exit).
  void mismatch(const std::string& what);
  /// Record a failure that is not a correctness mismatch (an overloaded
  /// or errored request); it counts against the attempts only.
  void failure(const std::string& what);

  /// Digest of the generated inputs (the self-test checks that another
  /// seed gives other inputs).
  void set_input_digest(std::uint64_t d) { input_digest_ = d; }

  [[nodiscard]] bool correct() const { return mismatches_.empty(); }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// Serialize the full record (host, build, settings, metrics).
  [[nodiscard]] std::string to_json(const Options& opt,
                                    const std::string& host_json) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> mismatches_;
  std::vector<std::string> failures_;  ///< first few, for diagnosis
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t input_digest_ = 0;
};

/// Per-cycle samples of several metrics; flush() reports each median.
class Samples {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  void flush(Report& r) const;

 private:
  struct Series {
    std::string name;
    std::string unit;
    std::vector<double> values;
  };
  std::vector<Series> series_;
};

/// Median of `v` (0 for an empty vector).
[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1] of `v` (0 when empty).
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// Peak resident set size of this process so far, MB (2^20 bytes).
[[nodiscard]] double peak_rss_mb();
/// FNV-1a-64 continuing from `h` (digests of inputs and outputs).
[[nodiscard]] std::uint64_t digest(const void* data, std::size_t size,
                                   std::uint64_t h = 0xCBF29CE484222325ULL);
/// Host and build record as a JSON object: nproc, CPU model, loadavg,
/// compiler id/version/flags, active SIMD level.
[[nodiscard]] std::string host_json(const std::string& loadavg_start);
/// Contents of /proc/loadavg's first three fields ("" if unreadable).
[[nodiscard]] std::string loadavg();

/// Shares of a run's wall time by layer; the residual is what no layer
/// span covers, so the shares always sum to one.
void report_ledger(Report& r, double wall_s, double lc_s, double common_s,
                   double server_s, double charlab_s, double gpusim_s);

/// Per-layer metrics a workload does not exercise, reported as 0 so every
/// traced run emits the same metric set.
struct IdleMetric {
  const char* name;
  const char* unit;
};
void report_idle(Report& r, const std::vector<IdleMetric>& metrics);

}  // namespace pb

#endif  // PERFBENCH_REPORT_H
