#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#include "common/simd.h"

#ifndef PB_CXX_FLAGS
#define PB_CXX_FLAGS ""
#endif

namespace pb {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

}  // namespace

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::remove(const std::string& name) {
  std::erase_if(metrics_, [&](const Metric& m) { return m.name == name; });
}

void Report::mismatch(const std::string& what) {
  ++attempted_;
  ++failed_;
  if (mismatches_.size() < 16) mismatches_.push_back(what);
}

void Report::failure(const std::string& what) {
  ++attempted_;
  ++failed_;
  if (failures_.size() < 16) failures_.push_back(what);
}

std::string Report::to_json(const Options& opt,
                            const std::string& host) const {
  std::ostringstream os;
  os << "{\"workload\":" << json_string(opt.workload)
     << ",\"seed\":" << opt.seed << ",\"trace\":" << (opt.trace ? 1 : 0)
     << ",\"smoke\":" << (opt.smoke ? "true" : "false")
     << ",\"seconds\":" << json_number(opt.seconds)
     << ",\"threads\":" << opt.threads
     << ",\"host\":" << host << ",\"correct\":"
     << (correct() ? "true" : "false") << ",\"attempted\":" << attempted_
     << ",\"failed\":" << failed_ << ",\"input_digest\":\"";
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(input_digest_));
  os << hex << "\",\"mismatches\":[";
  for (std::size_t i = 0; i < mismatches_.size(); ++i) {
    os << (i ? "," : "") << json_string(mismatches_[i]);
  }
  os << "],\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    os << (i ? "," : "") << json_string(failures_[i]);
  }
  os << "],\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    os << (i ? "," : "") << json_string(metrics_[i].name)
       << ":{\"value\":" << json_number(metrics_[i].value)
       << ",\"unit\":" << json_string(metrics_[i].unit) << "}";
  }
  os << "}}";
  return os.str();
}

void Samples::add(const std::string& name, double value,
                  const std::string& unit) {
  for (Series& s : series_) {
    if (s.name == name) {
      s.values.push_back(value);
      return;
    }
  }
  series_.push_back({name, unit, {value}});
}

void Samples::flush(Report& r) const {
  for (const Series& s : series_) r.set(s.name, median(s.values), s.unit);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t digest(const void* data, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::string loadavg() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  if (!(in >> a >> b >> c)) return "";
  return a + " " + b + " " + c;
}

std::string host_json(const std::string& loadavg_start) {
#if defined(__clang__)
  const std::string id = "clang";
  const std::string version = std::to_string(__clang_major__) + "." +
                              std::to_string(__clang_minor__) + "." +
                              std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  const std::string id = "gcc";
  const std::string version = std::to_string(__GNUC__) + "." +
                              std::to_string(__GNUC_MINOR__) + "." +
                              std::to_string(__GNUC_PATCHLEVEL__);
#else
  const std::string id = "unknown";
  const std::string version;
#endif
  std::ostringstream os;
  os << "{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpu\":" << json_string(cpu_model())
     << ",\"loadavg_start\":" << json_string(loadavg_start)
     << ",\"loadavg_end\":" << json_string(loadavg())
     << ",\"compiler\":{\"id\":" << json_string(id)
     << ",\"version\":" << json_string(version)
     << ",\"flags\":" << json_string(PB_CXX_FLAGS) << "}"
     << ",\"simd\":"
     << json_string(lc::simd::to_string(lc::simd::active_level())) << "}";
  return os.str();
}

void report_ledger(Report& r, double wall_s, double lc_s, double common_s,
                   double server_s, double charlab_s, double gpusim_s) {
  const double w = wall_s > 0.0 ? wall_s : 1.0;
  r.set("ledger.lc_frac", lc_s / w, "frac");
  r.set("ledger.common_frac", common_s / w, "frac");
  r.set("ledger.server_frac", server_s / w, "frac");
  r.set("ledger.charlab_frac", charlab_s / w, "frac");
  r.set("ledger.gpusim_frac", gpusim_s / w, "frac");
  r.set("ledger.residual_frac",
        (wall_s - lc_s - common_s - server_s - charlab_s - gpusim_s) / w,
        "frac");
}

void report_idle(Report& r, const std::vector<IdleMetric>& metrics) {
  for (const IdleMetric& m : metrics) r.set(m.name, 0.0, m.unit);
}

}  // namespace pb
