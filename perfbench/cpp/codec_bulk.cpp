// codec_bulk: compress then decompress all 13 SP files at scale 1/16 with
// three fixed pipelines on an nproc-wide pool — the codec product's main
// use. The traced run replays each public call phase by phase (chunk
// encode/decode, checksums, offset scan) to attribute its wall time.

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "codec_probe.h"
#include "common/thread_pool.h"
#include "data/sp_dataset.h"
#include "lc/codec.h"
#include "lc/pipeline.h"
#include "trace.h"
#include "workloads.h"

namespace pb {
namespace {

using lc::Bytes;

/// One fusible pipeline, one that is not fusible and a third mixed one;
/// checked at run time so a registry change cannot silently drop the
/// per-stage path from the workload.
constexpr std::array<const char*, 3> kSpecs = {
    "DIFF_4 TCMS_4 CLOG_4", "BIT_4 RZE_4 RLE_4", "TUPL2_2 DIFFMS_4 RARE_4"};

struct Input {
  std::string name;
  Bytes data;
};

struct Pass {
  double compress_s = 0.0;
  double decompress_s = 0.0;
  std::vector<double> compress_call_s;    ///< per (pipeline, input) call
  std::vector<double> decompress_call_s;  ///< per (pipeline, input) call
};

/// Compress then decompress every input with every pipeline, timing each
/// public call under its own span and checking every output byte-exact.
Pass run_pass(const std::vector<Input>& inputs,
              const std::vector<lc::Pipeline>& pipes, lc::ThreadPool& pool,
              Report& r) {
  Pass pass;
  std::vector<Bytes> containers(inputs.size());
  for (const lc::Pipeline& p : pipes) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      try {
        const Span span("lc.compress", "lc");
        containers[i] = lc::compress(p, inputs[i].data, pool);
        pass.compress_call_s.push_back(span.seconds());
        pass.compress_s += pass.compress_call_s.back();
        r.attempt();
      } catch (const std::exception& e) {
        r.mismatch("compress " + inputs[i].name + ": " + e.what());
        containers[i].clear();
      }
    }
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (containers[i].empty()) continue;
      try {
        const Span span("lc.decompress", "lc");
        const Bytes out = lc::decompress(containers[i], pool);
        pass.decompress_call_s.push_back(span.seconds());
        pass.decompress_s += pass.decompress_call_s.back();
        if (out != inputs[i].data) {
          r.mismatch("decompress " + inputs[i].name + " [" + p.spec() +
                     "] is not byte-exact");
        } else {
          r.attempt();
        }
      } catch (const std::exception& e) {
        r.mismatch("decompress " + inputs[i].name + ": " + e.what());
      }
    }
  }
  return pass;
}

}  // namespace

void run_codec_bulk(const Options& opt, Report& r) {
  const double scale = opt.smoke ? 1.0 / 1024 : 1.0 / 16;
  std::vector<Input> inputs;
  std::vector<lc::Pipeline> pipes;
  std::unique_ptr<lc::ThreadPool> pool;
  double gen_s = 0.0;
  std::uint64_t gen_bytes = 0;
  timed_setup(
      r, 7, 2,
      [&] {
        pool = std::make_unique<lc::ThreadPool>(opt.threads);
        const std::vector<lc::data::SpFileInfo>& files = lc::data::sp_files();
        const auto t0 = Clock::now();
        inputs.resize(files.size());
        lc::parallel_for(*pool, 0, files.size(), [&](std::size_t i) {
          inputs[i] = {files[i].name,
                       lc::data::generate_sp_file(files[i].name, scale,
                                                  opt.seed)};
        });
        gen_s = since(t0);
        for (const char* spec : kSpecs) {
          pipes.push_back(lc::Pipeline::parse(spec));
        }
      },
      [&] {
        inputs.clear();
        pipes.clear();
        pool.reset();
      });
  std::uint64_t input_digest = 0xCBF29CE484222325ULL;
  gen_bytes = 0;
  for (const Input& in : inputs) {
    input_digest = digest(in.data.data(), in.data.size(), input_digest);
    gen_bytes += in.data.size();
  }
  r.set_input_digest(input_digest);
  std::size_t fused = 0;
  for (const lc::Pipeline& p : pipes) fused += lc::fusible(p) ? 1 : 0;
  if (fused == 0 || fused == pipes.size()) {
    r.mismatch("codec_bulk needs fusible and non-fusible pipelines");
  }

  (void)run_pass(inputs, pipes, *pool, r);  // warm-up: arenas, page faults
  const auto t0 = Clock::now();
  Samples s;
  if (!opt.trace) {
    // A pass's time is the sum over its 39 calls of each call's median
    // across passes: a host stall then costs one call's sample, not a
    // whole pass's.
    std::vector<std::vector<double>> comp, decomp;
    do {
      const Pass pass = run_pass(inputs, pipes, *pool, r);
      comp.resize(pass.compress_call_s.size());
      decomp.resize(pass.decompress_call_s.size());
      for (std::size_t i = 0; i < comp.size(); ++i) {
        comp[i].push_back(pass.compress_call_s[i]);
      }
      for (std::size_t i = 0; i < decomp.size(); ++i) {
        decomp[i].push_back(pass.decompress_call_s[i]);
      }
    } while (since(t0) < opt.seconds);
    double write_s = 0.0, read_s = 0.0;
    for (const std::vector<double>& v : comp) write_s += median(v);
    for (const std::vector<double>& v : decomp) read_s += median(v);
    r.set("write_ms", write_s * 1e3, "ms");
    r.set("read_ms", read_s * 1e3, "ms");
    return;
  }

  Tracer& tracer = Tracer::get();
  lc::ThreadPool one(1);
  // Ledger inputs are summed over cycles (not medians) so the shares of
  // each ledger add up to one exactly.
  CodecProbe sum;
  double sum_cw = 0.0, sum_dw = 0.0;
  do {
    const FusedCounts c0 = fused_counts();
    const Pass plain = run_pass(inputs, pipes, *pool, r);
    const FusedCounts c1 = fused_counts();
    tracer.set_enabled(true);
    Pass traced;
    {
      const Span span("pass.traced", "bench");
      traced = run_pass(inputs, pipes, *pool, r);
    }
    const FusedCounts c2 = fused_counts();
    CodecProbe probe;
    {
      const Span span("pass.replay", "bench");
      for (const lc::Pipeline& p : pipes) {
        for (const Input& in : inputs) probe.run(p, in.data, *pool, one, r);
      }
    }
    tracer.set_enabled(false);
    report_fused(s, r, c0, c1, c2);
    probe.report(s);
    const double wall = traced.compress_s + traced.decompress_s;
    const double plain_wall = plain.compress_s + plain.decompress_s;
    s.add("trace_overhead_frac", (wall - plain_wall) / plain_wall, "frac");
    sum.encode_s += probe.encode_s;
    sum.checksum_s += probe.checksum_s;
    sum.lookback_s += probe.lookback_s;
    sum.decode_s += probe.decode_s;
    sum.verify_s += probe.verify_s;
    sum.blocked_s += probe.blocked_s;
    sum_cw += traced.compress_s;
    sum_dw += traced.decompress_s;
  } while (since(t0) < opt.seconds);
  s.flush(r);

  // Each public call's wall time split into its replayed phases; the
  // residual is framing, allocation and assembly that no phase covers.
  const auto frac = [&r](const char* name, double part, double whole) {
    r.set(name, part / whole, "frac");
  };
  frac("lc.ledger.compress.encode_frac", sum.encode_s, sum_cw);
  frac("lc.ledger.compress.checksum_frac", sum.checksum_s, sum_cw);
  frac("lc.ledger.compress.scan_frac", sum.lookback_s, sum_cw);
  frac("lc.ledger.compress.residual_frac",
       sum_cw - sum.encode_s - sum.checksum_s - sum.lookback_s, sum_cw);
  frac("lc.ledger.decompress.decode_frac", sum.decode_s, sum_dw);
  frac("lc.ledger.decompress.checksum_frac", sum.verify_s, sum_dw);
  frac("lc.ledger.decompress.scan_frac", sum.blocked_s, sum_dw);
  frac("lc.ledger.decompress.residual_frac",
       sum_dw - sum.decode_s - sum.verify_s - sum.blocked_s, sum_dw);
  report_ledger(r, sum_cw + sum_dw, sum.encode_s + sum.decode_s,
                sum.checksum_s + sum.verify_s + sum.lookback_s + sum.blocked_s,
                0, 0, 0);
  r.set("data.generate_MBps", static_cast<double>(gen_bytes) / 1e6 / gen_s,
        "MB/s");
  report_idle(r, kIdleOutsideServer);
  report_idle(r, kIdleOutsideCharlab);
}

}  // namespace pb
