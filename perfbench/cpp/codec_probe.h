#ifndef PERFBENCH_CODEC_PROBE_H
#define PERFBENCH_CODEC_PROBE_H

/// \file codec_probe.h
/// Replays of the codec path, one layer at a time, through the layers'
/// public functions (encode_chunk_into, decode_chunk, hash_bytes,
/// hash_bytes32, exclusive_scan_lookback/_blocked, parallel_for,
/// compress), each call under its own span. Every workload runs it on its
/// own inputs, so the lc and common per-layer metrics mean the same thing
/// everywhere; codec_bulk also builds its call ledger from the phases.

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "common/thread_pool.h"
#include "lc/pipeline.h"
#include "report.h"

namespace pb {

struct CodecProbe {
  /// compress() and decompress() phases, run on the pool as those calls
  /// run them: chunk encode, checksums and offset scan; chunk decode,
  /// checksum verification and offset scan.
  double encode_s = 0, checksum_s = 0, lookback_s = 0;
  double decode_s = 0, verify_s = 0, blocked_s = 0;
  /// Single-layer figures.
  double hash64_s = 0, hash32_s = 0, fork_join_s = 0;
  double encode_1t_s = 0, decode_1t_s = 0;    ///< one thread, every chunk
  double compress_1t_s = 0, compress_s = 0;   ///< 1-worker vs given pool
  std::uint64_t calls = 0, bytes = 0, record_bytes = 0, container_bytes = 0;
  std::uint64_t stages_applied = 0, stage_attempts = 0;

  /// Replay one compress()/decompress() pair of `input`. A decoded chunk
  /// that is not byte-exact is a mismatch in `r`.
  void run(const lc::Pipeline& p, lc::ByteSpan input, lc::ThreadPool& pool,
           lc::ThreadPool& one, Report& r);

  /// Adds the lc.* and common.* per-layer metrics to `s`.
  void report(Samples& s) const;
};

/// lc.codec.fused_{encode,decode}_{hits,misses}, cumulative.
using FusedCounts = std::array<std::uint64_t, 4>;
[[nodiscard]] FusedCounts fused_counts();

/// Adds lc.fused_{encode,decode}_hit_frac for the counts between `a` and
/// `b`, and records a mismatch unless the window `b`..`c` (the traced
/// run) hit the fused path in the same proportions — tracing must not
/// change what runs.
void report_fused(Samples& s, Report& r, const FusedCounts& a,
                  const FusedCounts& b, const FusedCounts& c);

}  // namespace pb

#endif  // PERFBENCH_CODEC_PROBE_H
