#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// One reported figure. `samples` is how many observations stand behind
// it; `note` says how it was taken (e.g. which percentile a tail used).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
  std::string note;
};

// Median of `values` (0 when empty).
double Median(std::vector<double> values);

// The tail quantile reported for `n` samples: 0.99 when at least ten
// samples lie beyond it, otherwise the highest quantile that still has
// ten beyond it (0.5 below twenty samples).
double TailQuantile(int64_t n);

// "p99" for 0.99, "p97.5" for 0.975, ...
std::string QuantileLabel(double q);

// Linearly interpolated q-quantile of `values`.
double Quantile(std::vector<double> values, double q);

// Prints one aligned "name value unit samples note" line per metric.
void PrintTable(const std::string& title, const std::vector<Metric>& metrics);

// The result line: one JSON object with exactly the keys correct,
// attempted, failed and metrics ({"name": {"value": v, "unit": u}}).
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

// Escapes `text` for a JSON string literal (quotes included).
std::string JsonString(const std::string& text);

// Full-precision decimal for a double ("%.17g").
std::string Num(double value);

// Returns freed heap to the OS and restarts the peak-RSS mark, so the
// next PeakRssMb() covers only what runs in between.
void ResetPeakRss();

// CPU time of every thread of this process so far, in seconds.
double ProcessCpuSeconds();

// CPU time the host has withheld from this machine since boot (the
// "steal" column of /proc/stat, summed over CPUs), in seconds; 0 where
// the kernel does not report it.
double StealSeconds();

// Peak resident set size of this process since the last ResetPeakRss(),
// in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
