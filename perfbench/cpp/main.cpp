// perfbench: runs one workload for a given seed and prints its result
// record (host, build, settings, correctness, metrics) as one JSON line.
// run.py builds this binary, runs it and reduces the record to the
// benchmark's result line; see README.md.
//
//   perfbench --workload codec_bulk|serve_small|characterize --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--smoke]
//
// Exit status: 0 when every output checked correct, 1 on any correctness
// mismatch, 2 on a usage error or an unexpected exception.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--smoke]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  opt.threads = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (arg == "--work-dir") {
        opt.work_dir = value();
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (opt.work_dir.empty()) usage("--work-dir is required");
  std::filesystem::create_directories(opt.work_dir);
  opt.trace_path = opt.work_dir + "/trace-" + opt.workload + "-" +
                   std::to_string(opt.seed) + ".json";

  const std::string load_start = pb::loadavg();
  pb::Report report;
  try {
    if (opt.workload == "codec_bulk") {
      pb::run_codec_bulk(opt, report);
    } else if (opt.workload == "serve_small") {
      pb::run_serve_small(opt, report);
    } else if (opt.workload == "characterize") {
      pb::run_characterize(opt, report);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 2;
  }
  if (opt.trace) {
    report.remove("setup_s");  // an end-to-end metric, measured untraced
    if (!pb::Tracer::get().write_chrome_trace(opt.trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_path.c_str());
      return 2;
    }
  } else {
    report.set("peak_rss_mb", pb::peak_rss_mb(), "MB");
  }
  std::printf("%s\n", report.to_json(opt, pb::host_json(load_start)).c_str());
  return report.correct() ? 0 : 1;
}
