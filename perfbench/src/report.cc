#include "report.h"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double TailQuantile(int64_t n) {
  if (n <= 0) return 0.5;
  const double q = 1.0 - 10.0 / static_cast<double>(n);
  return std::clamp(q, 0.5, 0.99);
}

std::string QuantileLabel(double q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", std::round(q * 1000.0) / 10.0);
  return buf;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void PrintTable(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("\n-- %s --\n", title.c_str());
  std::printf("%-34s %18s  %-12s %9s  %s\n", "metric", "value", "unit",
              "samples", "note");
  for (const Metric& m : metrics) {
    std::printf("%-34s %18.6f  %-12s %9" PRId64 "  %s\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples, m.note.c_str());
  }
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  return out;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void ResetPeakRss() {
  malloc_trim(0);
  // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux 4.0+).
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double StealSeconds() {
  unsigned long long v[8] = {};
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
    std::fclose(f);
    if (n == 8) {
      return static_cast<double>(v[7]) /
             static_cast<double>(sysconf(_SC_CLK_TCK));
    }
  }
  return 0.0;
}

double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
