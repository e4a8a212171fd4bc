#include "codec_probe.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/scan.h"
#include "lc/codec.h"
#include "telemetry/metrics.h"
#include "trace.h"

namespace pb {
namespace {

/// Keeps a computed value alive without a side effect.
template <class T>
void keep(T v) {
  volatile T sink = v;
  (void)sink;
}

double hit_frac(std::uint64_t hits, std::uint64_t misses) {
  return hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

}  // namespace

void CodecProbe::run(const lc::Pipeline& p, lc::ByteSpan data,
                     lc::ThreadPool& pool, lc::ThreadPool& one, Report& r) {
  const std::size_t chunks =
      (data.size() + lc::kChunkSize - 1) / lc::kChunkSize;
  const auto chunk = [&](std::size_t c) {
    const std::size_t lo = c * lc::kChunkSize;
    return data.subspan(lo, std::min(lc::kChunkSize, data.size() - lo));
  };
  std::vector<lc::Bytes> records(chunks), outs(chunks);
  std::vector<std::uint8_t> masks(chunks, 0);
  std::vector<std::uint64_t> sizes(chunks), offsets;
  const auto hash32_records = [&] {
    const Span span("lc.hash_bytes32", "common");
    std::uint32_t acc = 0;
    for (const lc::Bytes& rec : records) {
      acc ^= lc::hash_bytes32(rec.data(), rec.size());
    }
    keep(acc);
    return span.seconds();
  };

  // compress(): chunk encode on the pool, then the serial checksums, then
  // the offset scan over the frame sizes (record + v3 frame header).
  {
    const Span span("lc.encode_chunk_into", "lc");
    lc::parallel_for(pool, 0, chunks, [&](std::size_t c) {
      lc::encode_chunk_into(p, chunk(c), masks[c], records[c]);
    });
    encode_s += span.seconds();
  }
  double h64 = 0.0;
  {
    const Span span("lc.hash_bytes", "common");
    keep(lc::hash_bytes(data.data(), data.size()));
    h64 = span.seconds();
  }
  const double h32 = hash32_records();
  checksum_s += h64 + h32;
  hash64_s += h64;
  hash32_s += h32;
  for (std::size_t c = 0; c < chunks; ++c) sizes[c] = records[c].size() + 10;
  {
    const Span span("lc.exclusive_scan_lookback", "common");
    (void)lc::exclusive_scan_lookback(pool, sizes, offsets);
    lookback_s += span.seconds();
  }

  // decompress(): frame checksums, chunk decode on the pool, the content
  // checksum of the output, and the block-local offset scan.
  const double v32 = hash32_records();
  {
    const Span span("lc.decode_chunk", "lc");
    lc::parallel_for(pool, 0, chunks, [&](std::size_t c) {
      lc::decode_chunk(p, records[c], masks[c], chunk(c).size(), outs[c]);
    });
    decode_s += span.seconds();
  }
  double v64 = 0.0;
  {
    const Span span("lc.hash_bytes", "common");
    std::uint64_t h = 0;
    for (const lc::Bytes& o : outs) h ^= lc::hash_bytes(o.data(), o.size());
    keep(h);
    v64 = span.seconds();
  }
  verify_s += v32 + v64;
  hash64_s += v64;
  hash32_s += v32;
  {
    const Span span("lc.exclusive_scan_blocked", "common");
    (void)lc::exclusive_scan_blocked(pool, sizes, offsets);
    blocked_s += span.seconds();
  }
  for (std::size_t c = 0; c < chunks; ++c) {
    const lc::ByteSpan want = chunk(c);
    if (outs[c].size() != want.size() ||
        std::memcmp(outs[c].data(), want.data(), want.size()) != 0) {
      r.mismatch("replayed decode_chunk of chunk " + std::to_string(c) +
                 " is not byte-exact");
      return;
    }
  }

  // Single layers: pool fork-join, the one-thread chunk loops, and
  // compress() with one worker against the given pool.
  {
    const Span span("lc.parallel_for", "common");
    lc::parallel_for(pool, 0, chunks, [](std::size_t) {});
    fork_join_s += span.seconds();
  }
  lc::Bytes rec, out;
  std::uint8_t mask = 0;
  {
    const Span span("lc.encode_chunk_into", "lc");
    for (std::size_t c = 0; c < chunks; ++c) {
      lc::encode_chunk_into(p, chunk(c), mask, rec);
    }
    encode_1t_s += span.seconds();
  }
  {
    const Span span("lc.decode_chunk", "lc");
    for (std::size_t c = 0; c < chunks; ++c) {
      lc::decode_chunk(p, records[c], masks[c], chunk(c).size(), out);
    }
    decode_1t_s += span.seconds();
  }
  {
    const Span span("lc.compress", "lc");
    container_bytes += lc::compress(p, data, one).size();
    compress_1t_s += span.seconds();
  }
  {
    const Span span("lc.compress", "lc");
    keep(lc::compress(p, data, pool).size());
    compress_s += span.seconds();
  }
  for (std::size_t c = 0; c < chunks; ++c) {
    stages_applied += static_cast<std::uint64_t>(std::popcount(masks[c]));
    record_bytes += records[c].size();
  }
  stage_attempts += chunks * p.size();
  bytes += data.size();
  ++calls;
}

void CodecProbe::report(Samples& s) const {
  const double mb = static_cast<double>(bytes) / 1e6;
  const double n = static_cast<double>(calls);
  s.add("lc.encode_chunk_MBps", mb / encode_1t_s, "MB/s");
  s.add("lc.decode_chunk_MBps", mb / decode_1t_s, "MB/s");
  s.add("lc.stage_applied_frac",
        static_cast<double>(stages_applied) /
            static_cast<double>(stage_attempts),
        "frac");
  s.add("lc.ratio", mb * 1e6 / static_cast<double>(container_bytes), "x");
  s.add("common.hash64_MBps", 2 * mb / hash64_s, "MB/s");
  s.add("common.hash32_MBps",
        2 * static_cast<double>(record_bytes) / 1e6 / hash32_s, "MB/s");
  s.add("common.scan_lookback_us", lookback_s / n * 1e6, "us");
  s.add("common.scan_blocked_us", blocked_s / n * 1e6, "us");
  s.add("common.pool_fork_join_us", fork_join_s / n * 1e6, "us");
  s.add("common.pool_speedup", compress_1t_s / compress_s, "x");
}

FusedCounts fused_counts() {
  namespace t = lc::telemetry;
  return {t::counter("lc.codec.fused_encode_hits").value(),
          t::counter("lc.codec.fused_encode_misses").value(),
          t::counter("lc.codec.fused_decode_hits").value(),
          t::counter("lc.codec.fused_decode_misses").value()};
}

void report_fused(Samples& s, Report& r, const FusedCounts& a,
                  const FusedCounts& b, const FusedCounts& c) {
  const double plain_e = hit_frac(b[0] - a[0], b[1] - a[1]);
  const double plain_d = hit_frac(b[2] - a[2], b[3] - a[3]);
  if (plain_e != hit_frac(c[0] - b[0], c[1] - b[1]) ||
      plain_d != hit_frac(c[2] - b[2], c[3] - b[3])) {
    r.mismatch("fused-path hit fractions differ between plain and traced");
  }
  s.add("lc.fused_encode_hit_frac", plain_e, "frac");
  s.add("lc.fused_decode_hit_frac", plain_d, "frac");
}

}  // namespace pb
