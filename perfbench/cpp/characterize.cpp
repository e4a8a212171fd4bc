// characterize: the paper's product. The cold pass sweeps a 4-input SP
// subset covering all three domains (scale 1/512, one chunk per input),
// evaluates the 44-cell timing grid and runs the figure reductions
// (letter values of every cell's 107,632 pipelines), writing both caches.
// The warm pass reloads both caches (the grid mapped) and repeats the
// reductions. Neither touches the container or the server.

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <sched.h>

#include "charlab/letter_values.h"
#include "charlab/sweep.h"
#include "charlab/timing_grid.h"
#include "codec_probe.h"
#include "common/atomic_file.h"
#include "common/thread_pool.h"
#include "data/sp_dataset.h"
#include "lc/pipeline.h"
#include "lc/registry.h"
#include "telemetry/metrics.h"
#include "trace.h"
#include "workloads.h"

namespace pb {
namespace {

namespace fs = std::filesystem;
using lc::Bytes;
using lc::charlab::Sweep;
using lc::charlab::SweepConfig;
using lc::charlab::TimingGrid;

const std::vector<std::string> kInputs = {"msg_bt", "num_brain", "obs_temp",
                                          "msg_sppm"};

/// Figure reductions: the letter-value summary of every grid cell,
/// folded into one digest (cold and warm passes must agree on it).
std::uint64_t reduce(const TimingGrid& grid) {
  const Span span("charlab.letter_values", "charlab");
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const lc::charlab::GridCell& c : TimingGrid::cells()) {
    const lc::charlab::LetterValueSummary lv = lc::charlab::letter_values(
        grid.cell_values(*c.gpu, c.tc, c.opt, c.dir).to_vector());
    h = digest(&lv.count, sizeof lv.count, h);
    h = digest(&lv.median, sizeof lv.median, h);
    h = digest(&lv.min, sizeof lv.min, h);
    h = digest(&lv.max, sizeof lv.max, h);
    for (const lc::charlab::LetterValuePair& b : lv.boxes) {
      h = digest(&b, sizeof b, h);
    }
  }
  return h;
}

std::uint64_t stage_encodes() {
  return lc::telemetry::counter("charlab.sweep.stage_encodes").value();
}

/// Pins the calling thread to the `k`-th CPU (mod their count) of its
/// allowed set while it lives, then restores the set. The warm pass is
/// single-threaded. On a VM a vCPU runs single-threaded code up to ~50%
/// slower while its hyperthread sibling is busy elsewhere on the host, and
/// the scheduler keeps a thread on one vCPU for seconds; so the k-th warm
/// pass is pinned to CPU k, and their median covers every CPU instead of
/// whichever one the scheduler picked. Nothing that starts a thread may
/// run pinned: the thread would inherit the mask.
class PinToCpu {
 public:
  explicit PinToCpu(std::size_t k) {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    std::size_t want = k % static_cast<std::size_t>(CPU_COUNT(&saved_));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || want-- != 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
      return;
    }
  }
  ~PinToCpu() {
    if (pinned_) (void)sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinToCpu(const PinToCpu&) = delete;
  PinToCpu& operator=(const PinToCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Warm passes per cold pass: the warm pass is ~15x shorter, so it is
/// repeated to give its median as many samples as the cold one's.
constexpr int kWarmPasses = 5;

struct Cycle {
  double cold_s = 0;
  std::vector<double> warm_s;
  double sweep_s = 0, grid_s = 0, cold_reduce_s = 0;
  double sweep_load_s = 0, grid_load_s = 0, warm_reduce_s = 0;
};

}  // namespace

void run_characterize(const Options& opt, Report& r) {
  SweepConfig cfg;
  cfg.scale = opt.smoke ? 1.0 / 4096 : 1.0 / 512;
  cfg.chunks_per_input = 1;
  cfg.seed_salt = opt.seed;
  // Smoke runs sweep one input: the sweep costs the same per input at
  // any scale (one sampled chunk), so only fewer inputs make it shorter.
  cfg.inputs = opt.smoke ? std::vector<std::string>{kInputs[0]} : kInputs;
  cfg.cache_path = opt.work_dir + "/characterize_sweep.bin";
  TimingGrid::Config grid_cfg;
  grid_cfg.cache_path = opt.work_dir + "/characterize_grid.bin";
  grid_cfg.mode = TimingGrid::Config::Mode::kMapped;
  const std::size_t n = lc::Registry::instance().all().size();
  const std::size_t reducers = lc::Registry::instance().reducers().size();
  const std::uint64_t expected_encodes =
      cfg.inputs.size() * cfg.chunks_per_input * (n + n * n + n * n * reducers);

  std::unique_ptr<lc::ThreadPool> pool;
  std::vector<Bytes> inputs;
  double gen_s = 0.0;
  std::uint64_t gen_bytes = 0;
  timed_setup(
      r, 7, 128,
      [&] {
        pool = std::make_unique<lc::ThreadPool>(opt.threads);
        const auto t0 = Clock::now();
        inputs.resize(cfg.inputs.size());
        lc::parallel_for(*pool, 0, inputs.size(), [&](std::size_t i) {
          inputs[i] = lc::data::generate_sp_file(cfg.inputs[i], cfg.scale,
                                                 cfg.seed_salt);
        });
        gen_s = since(t0);
        gen_bytes = 0;
        for (const Bytes& in : inputs) gen_bytes += in.size();
        (void)TimingGrid::cells();  // registry and GPU tables built once
      },
      [&] {
        inputs.clear();
        pool.reset();
      });
  std::uint64_t input_digest = 0xCBF29CE484222325ULL;
  for (const Bytes& in : inputs) {
    input_digest = digest(in.data(), in.size(), input_digest);
  }
  r.set_input_digest(input_digest);

  const auto remove_caches = [&] {
    fs::remove(cfg.cache_path);
    fs::remove(grid_cfg.cache_path);
  };
  std::uint64_t reference_digest = 0;
  std::size_t warm_passes = 0;
  const auto one_cycle = [&]() {
    Cycle c;
    remove_caches();
    const std::uint64_t e0 = stage_encodes();
    std::uint64_t cold_digest = 0;
    {
      const Span pass("pass.cold", "bench");
      const Sweep sweep = [&] {
        const Span span("charlab.Sweep::load_or_compute", "charlab");
        Sweep s = Sweep::load_or_compute(cfg, *pool);
        c.sweep_s = span.seconds();
        return s;
      }();
      const TimingGrid grid = [&] {
        const Span span("charlab.TimingGrid::load_or_compute", "gpusim");
        TimingGrid g = TimingGrid::load_or_compute(sweep, grid_cfg, *pool);
        c.grid_s = span.seconds();
        return g;
      }();
      const Span red("charlab.reduce", "charlab");
      cold_digest = reduce(grid);
      c.cold_reduce_s = red.seconds();
      c.cold_s = pass.seconds();
    }
    const std::uint64_t encodes = stage_encodes() - e0;
    if (encodes != expected_encodes) {
      r.mismatch("sweep ran " + std::to_string(encodes) +
                 " stage encodes, expected " + std::to_string(expected_encodes));
    } else {
      r.attempt();
    }
    for (int w = 0; w < kWarmPasses; ++w) {
      std::uint64_t warm_digest = 0;
      const PinToCpu pin(warm_passes++);
      const Span pass("pass.warm", "bench");
      const Sweep sweep = [&] {
        const Span span("charlab.Sweep::load_or_compute", "charlab");
        Sweep s = Sweep::load_or_compute(cfg, *pool);
        c.sweep_load_s = span.seconds();
        return s;
      }();
      const TimingGrid grid = [&] {
        const Span span("charlab.TimingGrid::load_or_compute", "charlab");
        TimingGrid g = TimingGrid::load_or_compute(sweep, grid_cfg, *pool);
        c.grid_load_s = span.seconds();
        return g;
      }();
      if (sweep.resumed_inputs() != cfg.inputs.size() ||
          grid.load_mode() != lc::charlab::GridLoadMode::kMappedCache) {
        r.mismatch("warm pass did not reload both caches");
      }
      {
        const Span red("charlab.reduce", "charlab");
        warm_digest = reduce(grid);
        c.warm_reduce_s = red.seconds();
      }
      c.warm_s.push_back(pass.seconds());
      if (reference_digest == 0) reference_digest = cold_digest;
      if (cold_digest != warm_digest || cold_digest != reference_digest) {
        r.mismatch("figure reductions differ between cold and warm passes");
      } else {
        r.attempt();
      }
    }
    return c;
  };

  (void)one_cycle();  // warm-up: first-touch of the pool, arenas, tables
  const auto t0 = Clock::now();
  Samples s;
  if (!opt.trace) {
    do {
      const Cycle c = one_cycle();
      s.add("write_ms", c.cold_s * 1e3, "ms");
      for (const double w : c.warm_s) s.add("read_ms", w * 1e3, "ms");
    } while (since(t0) < opt.seconds);
    s.flush(r);
    remove_caches();
    return;
  }

  Tracer& tracer = Tracer::get();
  const std::size_t cells = TimingGrid::cells().size();
  double wall = 0, charlab = 0, gpusim = 0;
  do {
    const Cycle plain = one_cycle();
    tracer.set_enabled(true);
    const Cycle c = one_cycle();
    // Replays of single layers on this cycle's data.
    double eval_s = 0.0, save_s = 0.0;
    {
      const Sweep sweep = Sweep::load_or_compute(cfg, *pool);
      const Span span("charlab.TimingGrid::evaluate", "gpusim");
      (void)TimingGrid::evaluate(sweep, *pool);
      eval_s = span.seconds();
    }
    {
      std::ifstream in(cfg.cache_path, std::ios::binary);
      const std::string bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
      const Span span("lc.atomic_write_file", "common");
      const bool ok = lc::atomic_write_file(
          opt.work_dir + "/characterize_save_probe.bin",
          [&](std::ofstream& out) {
            out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
            return static_cast<bool>(out);
          });
      save_s = span.seconds();
      if (!ok) r.mismatch("sweep cache rewrite failed");
    }
    tracer.set_enabled(false);
    const double encodes = static_cast<double>(expected_encodes);
    s.add("charlab.sweep_s", c.sweep_s, "s");
    s.add("charlab.stage_encodes", encodes, "count");
    s.add("charlab.stage_encodes_per_s", encodes / c.sweep_s, "1/s");
    s.add("charlab.sweep_save_s", save_s, "s");
    s.add("charlab.sweep_load_s", c.sweep_load_s, "s");
    s.add("charlab.grid_load_ms", c.grid_load_s * 1e3, "ms");
    s.add("charlab.reduce_s", c.warm_reduce_s, "s");
    s.add("charlab.grid_eval_s", eval_s, "s");
    s.add("gpusim.cell_evals_per_s",
          static_cast<double>(cells * n * n * reducers) / eval_s, "1/s");
    s.add("charlab.sweep_cache_bytes",
          static_cast<double>(fs::file_size(cfg.cache_path)), "bytes");
    s.add("charlab.grid_cache_bytes",
          static_cast<double>(fs::file_size(grid_cfg.cache_path)), "bytes");
    const double plain_wall = plain.cold_s + plain.warm_s.back();
    const double traced_wall = c.cold_s + c.warm_s.back();
    s.add("trace_overhead_frac", (traced_wall - plain_wall) / plain_wall,
          "frac");
    wall += traced_wall;
    charlab += c.sweep_s + c.cold_reduce_s + c.sweep_load_s + c.grid_load_s +
               c.warm_reduce_s;
    gpusim += c.grid_s;
  } while (since(t0) < opt.seconds);
  fs::remove(opt.work_dir + "/characterize_save_probe.bin");
  remove_caches();

  // The codec layers on this workload's inputs, through one of the
  // pipelines codec_bulk uses, so per-layer rates compare across workloads.
  const lc::Pipeline pipe = lc::Pipeline::parse("DIFF_4 TCMS_4 CLOG_4");
  lc::ThreadPool one(1);
  tracer.set_enabled(true);
  CodecProbe probe;
  for (const Bytes& in : inputs) probe.run(pipe, in, *pool, one, r);
  tracer.set_enabled(false);
  probe.report(s);
  s.flush(r);
  report_ledger(r, wall, 0, 0, 0, charlab, gpusim);
  r.set("data.generate_MBps", static_cast<double>(gen_bytes) / 1e6 / gen_s,
        "MB/s");
  report_idle(r, kIdleOutsideCodec);
  report_idle(r, kIdleOutsideServer);
  report_idle(r, {{"lc.fused_encode_hit_frac", "frac"},
                  {"lc.fused_decode_hit_frac", "frac"}});
}

}  // namespace pb
