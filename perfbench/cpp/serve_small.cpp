// serve_small: an lc_server (in this process, on a unix socket) receives
// 4 kB payloads over two connections, half compress and half decompress
// requests. The gated latency is closed-loop: each connection sends its
// next request as soon as the previous one is answered, and a request is
// timed from its send. The traced run adds an open-loop probe at a low
// fixed rate, timed from each request's scheduled send, for the tail.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codec_probe.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "data/sp_dataset.h"
#include "lc/codec.h"
#include "lc/pipeline.h"
#include "server/client.h"
#include "server/server.h"
#include "telemetry/metrics.h"
#include "trace.h"
#include "workloads.h"

namespace pb {
namespace {

using lc::Bytes;
using lc::server::Client;
using lc::server::Op;
using lc::server::Response;
using lc::server::Status;

constexpr const char* kSpec = "DIFF_4 TCMS_4 CLOG_4";
constexpr std::size_t kPayloadBytes = 4096;
constexpr std::size_t kPayloads = 256;
constexpr std::size_t kConnections = 2;
/// Offered load of the open-loop probe, requests/s over both connections.
/// Fixed and far below the closed-loop capacity, so every run and every
/// commit sees the same load and a host stall leaves no lasting backlog
/// (README.md).
constexpr double kProbeRps = 500.0;
/// The probe sleeps until this long before a scheduled send, then yields
/// until it: sleeping alone wakes late by a host-dependent delay, and
/// yielding throughout keeps two vCPUs busy.
constexpr auto kProbeSpin = std::chrono::microseconds(300);

/// One connection's share of a measured window.
struct ConnStats {
  std::vector<double> lat_compress_us;    ///< from (scheduled) send
  std::vector<double> lat_decompress_us;  ///< from (scheduled) send
  double rtt_sum_us = 0.0;                ///< from actual send
  double lag_max_us = 0.0;                ///< open-loop generator lateness
  std::uint64_t ok = 0;
  std::vector<std::string> mismatches;
  std::vector<std::string> failures;
};

/// Server-side view of a window: the server's metrics, read straight
/// from the lc::telemetry registry it shares with this process. They are
/// plain atomics, recorded whether or not telemetry tracing is enabled.
struct ServerStats {
  double request_count = 0, request_sum_ns = 0;
  double requests = 0, batched = 0, overloaded = 0, queue_depth_max = 0;
};

ServerStats server_stats() {
  namespace t = lc::telemetry;
  const t::Histogram& req = t::histogram_pow2("lc.server.request_ns", 10, 34);
  ServerStats s;
  s.request_count = static_cast<double>(req.count());
  s.request_sum_ns = static_cast<double>(req.sum());
  s.requests = static_cast<double>(t::counter("lc.server.requests").value());
  s.batched =
      static_cast<double>(t::counter("lc.server.batched_requests").value());
  s.overloaded =
      static_cast<double>(t::counter("lc.server.rejected_overload").value());
  s.queue_depth_max =
      static_cast<double>(t::gauge("lc.server.queue_depth_max").value());
  return s;
}

struct Fixture {
  std::vector<Bytes> payloads;
  std::vector<Bytes> containers;  ///< prebuilt decompress-request bodies
  std::unique_ptr<lc::server::Server> server;
  std::vector<Client> clients;
};

/// Drive one connection for `seconds`. Closed loop (`rate` 0): each
/// request goes out when the previous one is answered and is timed from
/// its send. Open loop: Poisson arrivals at `rate`/s, each timed from its
/// scheduled send.
void drive(Client& client, const Fixture& fx, std::uint64_t seed,
           std::uint64_t conn, double rate, double seconds,
           lc::ThreadPool& verify_pool, ConnStats& out) {
  lc::SplitMix rng(lc::hash_combine(seed, conn + 1));
  const auto start = Clock::now();
  double t = 0.0;
  std::uint64_t seq = 0;
  Response resp;
  for (;;) {
    Clock::time_point sched;
    if (rate > 0.0) {
      t += -std::log(1.0 - rng.next_unit()) / rate;
      if (t >= seconds) break;
      sched = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(t));
      std::this_thread::sleep_until(sched - kProbeSpin);
      while (Clock::now() < sched) std::this_thread::yield();
    } else {
      sched = Clock::now();
      if (since(start) >= seconds) break;
    }
    const bool compress = rng.next_below(2) == 0;
    const std::size_t idx = rng.next_below(fx.payloads.size());
    const std::uint64_t trace_id = ((conn + 1) << 48) | ++seq;
    const auto sent = Clock::now();
    try {
      const Span span("server.Client::call", "server", trace_id);
      resp = compress ? client.call(Op::kCompress, fx.payloads[idx], kSpec,
                                    0, trace_id)
                      : client.call(Op::kDecompress, fx.containers[idx], {},
                                    0, trace_id);
    } catch (const std::exception& e) {
      out.failures.push_back(std::string("connection: ") + e.what());
      return;
    }
    const auto done = Clock::now();
    const double lat =
        std::chrono::duration<double, std::micro>(done - sched).count();
    (compress ? out.lat_compress_us : out.lat_decompress_us).push_back(lat);
    out.rtt_sum_us +=
        std::chrono::duration<double, std::micro>(done - sent).count();
    out.lag_max_us = std::max(
        out.lag_max_us,
        std::chrono::duration<double, std::micro>(sent - sched).count());
    if (resp.status != Status::kOk) {
      out.failures.push_back(std::string("status ") +
                             lc::server::to_string(resp.status));
      continue;
    }
    bool exact = resp.trace_id == trace_id;
    try {
      exact = exact &&
              (compress ? lc::decompress(resp.payload, verify_pool) ==
                              fx.payloads[idx]
                        : resp.payload == fx.payloads[idx]);
    } catch (const std::exception&) {
      exact = false;
    }
    if (!exact) {
      out.mismatches.push_back(std::string(compress ? "compress" : "decompress") +
                               " response " + std::to_string(trace_id) +
                               " does not decode to its payload");
    } else {
      ++out.ok;
    }
  }
}

struct Window {
  std::vector<double> lat_compress_us, lat_decompress_us;
  double rtt_sum_us = 0.0, lag_max_us = 0.0;
  ServerStats before, after;

  [[nodiscard]] std::size_t n() const {
    return lat_compress_us.size() + lat_decompress_us.size();
  }
  [[nodiscard]] double lat_sum_us() const {
    double s = 0.0;
    for (const double v : lat_compress_us) s += v;
    for (const double v : lat_decompress_us) s += v;
    return s;
  }
  [[nodiscard]] std::vector<double> all() const {
    std::vector<double> v = lat_compress_us;
    v.insert(v.end(), lat_decompress_us.begin(), lat_decompress_us.end());
    return v;
  }
};

/// One window over every connection, closed loop (`rate` 0) or open loop
/// at `rate`/s in total; folds outcomes into `r`.
Window run_window(Fixture& fx, const Options& opt, std::uint64_t salt,
                  double rate, double seconds, lc::ThreadPool& verify_pool,
                  Report& r) {
  Window w;
  w.before = server_stats();
  std::vector<ConnStats> stats(fx.clients.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < fx.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      drive(fx.clients[c], fx, lc::hash_combine(opt.seed, salt), c,
            rate / static_cast<double>(fx.clients.size()), seconds,
            verify_pool, stats[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  w.after = server_stats();
  for (ConnStats& s : stats) {
    for (std::uint64_t i = 0; i < s.ok; ++i) r.attempt();
    for (const std::string& m : s.mismatches) r.mismatch(m);
    for (const std::string& f : s.failures) r.failure(f);
    w.lat_compress_us.insert(w.lat_compress_us.end(),
                             s.lat_compress_us.begin(),
                             s.lat_compress_us.end());
    w.lat_decompress_us.insert(w.lat_decompress_us.end(),
                               s.lat_decompress_us.begin(),
                               s.lat_decompress_us.end());
    w.rtt_sum_us += s.rtt_sum_us;
    w.lag_max_us = std::max(w.lag_max_us, s.lag_max_us);
  }
  return w;
}

double frac(double part, double whole) {
  return whole == 0.0 ? 0.0 : part / whole;
}

/// Mean in-process seconds of one compress of a payload and of one
/// decompress of a prebuilt container, on one thread: the codec work a
/// served request asks for, without the server around it. Each call runs
/// under its own span; a compress that does not reproduce the prebuilt
/// container, or a decompress that is not byte-exact, is a mismatch.
struct InprocCodec {
  double compress_s = 0.0, decompress_s = 0.0;
};

InprocCodec inproc_codec(const Fixture& fx, const lc::Pipeline& pipe,
                         lc::ThreadPool& one, int passes, Report& r) {
  double compress_s = 0.0, decompress_s = 0.0;
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < fx.payloads.size(); ++i) {
      Bytes container;
      {
        const Span span("lc.compress", "lc");
        container = lc::compress(pipe, fx.payloads[i], one);
        compress_s += span.seconds();
      }
      Bytes out;
      {
        const Span span("lc.decompress", "lc");
        out = lc::decompress(fx.containers[i], one);
        decompress_s += span.seconds();
      }
      if (out != fx.payloads[i] || container != fx.containers[i]) {
        r.mismatch("in-process replay of payload " + std::to_string(i) +
                   " does not reproduce its container or its bytes");
      }
    }
  }
  const double n = static_cast<double>(passes) *
                   static_cast<double>(fx.payloads.size());
  return {compress_s / n, decompress_s / n};
}

}  // namespace

void run_serve_small(const Options& opt, Report& r) {
  const std::size_t connections = kConnections;
  const std::size_t workers =
      opt.threads > connections ? opt.threads - connections : 1;
  const std::string sock = opt.work_dir + "/serve.sock";
  Fixture fx;
  double gen_s = 0.0;
  std::uint64_t gen_bytes = 0;
  // One-worker pool: compress()/decompress() run inline on the calling
  // thread, so set-up and the connection threads add no load of their own.
  lc::ThreadPool one(1);
  timed_setup(
      r, 7, 16,
      [&] {
        // Payload sources: every SP file, so all three domains are served,
        // generated on a set-up pool that is gone before the server starts.
        const std::vector<lc::data::SpFileInfo>& info = lc::data::sp_files();
        std::vector<Bytes> files(info.size());
        {
          lc::ThreadPool gen_pool(opt.threads);
          const auto t0 = Clock::now();
          lc::parallel_for(gen_pool, 0, files.size(), [&](std::size_t i) {
            files[i] = lc::data::generate_sp_file(info[i].name, 1.0 / 256,
                                                  opt.seed);
          });
          gen_s = since(t0);
        }
        gen_bytes = 0;
        for (const Bytes& f : files) gen_bytes += f.size();
        lc::SplitMix rng(lc::hash_combine(opt.seed, 0x5e7e));
        const lc::Pipeline pipe = lc::Pipeline::parse(kSpec);
        for (std::size_t i = 0; i < kPayloads; ++i) {
          const Bytes& src = files[rng.next_below(files.size())];
          const std::size_t words = (src.size() - kPayloadBytes) / 4;
          const auto at =
              static_cast<std::ptrdiff_t>(4 * rng.next_below(words + 1));
          fx.payloads.emplace_back(src.begin() + at,
                                   src.begin() + at + kPayloadBytes);
          fx.containers.push_back(lc::compress(pipe, fx.payloads.back(), one));
        }
        lc::server::ServerConfig cfg;
        cfg.unix_path = sock;
        cfg.workers = workers;
        fx.server = std::make_unique<lc::server::Server>(cfg);
        fx.server->start();
        for (std::size_t c = 0; c < connections; ++c) {
          fx.clients.push_back(Client::connect_unix(sock));
        }
      },
      [&] {
        fx.clients.clear();
        fx.server.reset();
        fx.payloads.clear();
        fx.containers.clear();
      });
  std::uint64_t input_digest = 0xCBF29CE484222325ULL;
  for (const Bytes& p : fx.payloads) {
    input_digest = digest(p.data(), p.size(), input_digest);
  }
  r.set_input_digest(input_digest);

  const double warmup = opt.smoke ? 0.1 : 0.5;
  Samples s;
  // Warm-up window: arenas, pipeline cache and page faults settle; its
  // requests are verified but not timed.
  (void)run_window(fx, opt, 0, 0.0, warmup, one, r);
  if (!opt.trace) {
    // One-second windows, each reporting its medians: the run's figure is
    // the median over windows, and memory stays bounded by one window.
    const double window = opt.smoke ? 0.2 : 1.0;
    const auto t0 = Clock::now();
    std::uint64_t salt = 1;
    do {
      const Window w = run_window(fx, opt, salt++, 0.0, window, one, r);
      s.add("write_ms", median(w.lat_compress_us) / 1e3, "ms");
      s.add("read_ms", median(w.lat_decompress_us) / 1e3, "ms");
    } while (since(t0) < opt.seconds);
    s.flush(r);
  } else {
    Tracer& tracer = Tracer::get();
    const double window = opt.smoke ? 0.2 : 0.5;
    double wall_us = 0.0, request_us = 0.0;
    double n_compress = 0.0, n_decompress = 0.0;
    const auto t0 = Clock::now();
    std::uint64_t salt = 1;
    do {
      const FusedCounts c0 = fused_counts();
      const Window plain = run_window(fx, opt, ++salt, 0.0, window, one, r);
      const FusedCounts c1 = fused_counts();
      tracer.set_enabled(true);
      Window traced;
      {
        const Span span("pass.traced", "bench");
        traced = run_window(fx, opt, ++salt, 0.0, window, one, r);
      }
      const FusedCounts c2 = fused_counts();
      tracer.set_enabled(false);
      report_fused(s, r, c0, c1, c2);

      const ServerStats& a = traced.before;
      const ServerStats& b = traced.after;
      const double req_sum_us = (b.request_sum_ns - a.request_sum_ns) / 1e3;
      const double req_us = frac(req_sum_us, b.request_count - a.request_count);
      const double n = static_cast<double>(traced.n());
      s.add("server.request_us", req_us, "us");
      s.add("server.outside_us", traced.rtt_sum_us / n - req_us, "us");
      s.add("server.batched_frac",
            frac(b.batched - a.batched, b.requests - a.requests), "frac");
      s.add("server.overloaded_frac",
            frac(b.overloaded - a.overloaded, b.requests - a.requests), "frac");
      s.add("server.capacity_rps", static_cast<double>(plain.n()) / window,
            "1/s");
      const double plain_mean = plain.lat_sum_us() / static_cast<double>(plain.n());
      const double traced_mean = traced.lat_sum_us() / n;
      s.add("trace_overhead_frac", (traced_mean - plain_mean) / plain_mean,
            "frac");
      wall_us += traced.lat_sum_us();
      request_us += req_sum_us;
      n_compress += static_cast<double>(traced.lat_compress_us.size());
      n_decompress += static_cast<double>(traced.lat_decompress_us.size());
      r.set("server.queue_depth_max", b.queue_depth_max, "count");
    } while (since(t0) < opt.seconds / 4);

    // Open-loop probe for the tail, kept as a layer figure: on a shared VM
    // host it does not repeat closely enough to gate (README.md).
    const Window probe_window = run_window(
        fx, opt, ++salt, kProbeRps, opt.smoke ? 0.3 : opt.seconds / 4, one, r);
    s.add("server.p99_us", quantile(probe_window.all(), 0.99), "us");
    s.add("server.send_lag_max_us", probe_window.lag_max_us, "us");

    // In-process replays of the same payloads, one layer at a time.
    const lc::Pipeline pipe = lc::Pipeline::parse(kSpec);
    lc::ThreadPool pool(opt.threads);
    tracer.set_enabled(true);
    CodecProbe probe;
    for (const Bytes& p : fx.payloads) probe.run(pipe, p, pool, one, r);
    const InprocCodec codec = inproc_codec(fx, pipe, one, 4, r);
    tracer.set_enabled(false);
    probe.report(s);
    s.add("server.codec_inproc_us", codec.compress_s * 1e6, "us");
    // The server times each request once: its op_*_ns histograms hold
    // the same value as request_ns, so they cannot split codec from
    // server time. The codec's share comes from the in-process replay of
    // the served mix instead.
    const double codec_us =
        (n_compress * codec.compress_s + n_decompress * codec.decompress_s) *
        1e6;
    s.add("server.codec_us", codec_us / (n_compress + n_decompress), "us");
    s.flush(r);
    // Ledger over every request of the traced windows: the client-side
    // latencies against the server's request time, of which the codec
    // replay is the lc share and the rest is the server's own.
    report_ledger(r, wall_us, codec_us, 0, request_us - codec_us, 0, 0);
    r.set("data.generate_MBps", static_cast<double>(gen_bytes) / 1e6 / gen_s,
          "MB/s");
    report_idle(r, kIdleOutsideCodec);
    report_idle(r, kIdleOutsideCharlab);
  }
  for (Client& c : fx.clients) c.close();
  fx.server->stop();
}

}  // namespace pb
