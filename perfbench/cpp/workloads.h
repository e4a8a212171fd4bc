#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

/// \file workloads.h
/// The three workloads (README.md says why each exists). Each generates
/// its inputs from Options::seed, sets up, measures for Options::seconds
/// and fills the Report: end-to-end metrics in a plain run, per-layer
/// metrics in a traced run (Options::trace).

#include "report.h"

namespace pb {

/// setup_s comes from timed_setup(); main() adds peak_rss_mb.
void run_codec_bulk(const Options& opt, Report& r);
void run_serve_small(const Options& opt, Report& r);
void run_characterize(const Options& opt, Report& r);

/// Per-layer metrics of layers a workload does not exercise: reported as
/// 0 so every traced run emits the same metric set.
inline const std::vector<IdleMetric> kIdleOutsideCodec = {
    {"lc.ledger.compress.encode_frac", "frac"},
    {"lc.ledger.compress.checksum_frac", "frac"},
    {"lc.ledger.compress.scan_frac", "frac"},
    {"lc.ledger.compress.residual_frac", "frac"},
    {"lc.ledger.decompress.decode_frac", "frac"},
    {"lc.ledger.decompress.checksum_frac", "frac"},
    {"lc.ledger.decompress.scan_frac", "frac"},
    {"lc.ledger.decompress.residual_frac", "frac"},
};
inline const std::vector<IdleMetric> kIdleOutsideServer = {
    {"server.request_us", "us"},       {"server.codec_us", "us"},
    {"server.outside_us", "us"},       {"server.codec_inproc_us", "us"},
    {"server.batched_frac", "frac"},   {"server.overloaded_frac", "frac"},
    {"server.queue_depth_max", "count"}, {"server.send_lag_max_us", "us"},
    {"server.capacity_rps", "1/s"},    {"server.p99_us", "us"},
};
inline const std::vector<IdleMetric> kIdleOutsideCharlab = {
    {"charlab.sweep_s", "s"},
    {"charlab.stage_encodes", "count"},
    {"charlab.stage_encodes_per_s", "1/s"},
    {"charlab.sweep_save_s", "s"},
    {"charlab.sweep_load_s", "s"},
    {"charlab.grid_load_ms", "ms"},
    {"charlab.sweep_cache_bytes", "bytes"},
    {"charlab.grid_cache_bytes", "bytes"},
    {"charlab.reduce_s", "s"},
    {"charlab.grid_eval_s", "s"},
    {"gpusim.cell_evals_per_s", "1/s"},
};

/// Set up `reps` × `batch` times and report setup_s: the median over the
/// `reps` batches of a batch's mean set-up time. Before every set-up but
/// the first, `teardown` (untimed) undoes the previous one; the last
/// set-up stays in place for the run.
///
/// Batches exist for set-ups much shorter than a second: on the VM the
/// benchmark was tuned on, code ran up to ~50% slower for stretches of
/// 0.2–0.4 s at a time, so a median of ms-long set-ups landed wholly in
/// one state or the other, while a batch spanning several stretches
/// averages over them.
template <class Setup, class Teardown>
void timed_setup(Report& r, std::size_t reps, std::size_t batch,
                 Setup&& setup, Teardown&& teardown) {
  std::vector<double> means;
  for (std::size_t i = 0; i < reps; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < batch; ++j) {
      if (i + j > 0) teardown();
      const auto t0 = Clock::now();
      setup();
      sum += since(t0);
    }
    means.push_back(sum / static_cast<double>(batch));
  }
  r.set("setup_s", median(means), "s");
}

}  // namespace pb

#endif  // PERFBENCH_WORKLOADS_H
