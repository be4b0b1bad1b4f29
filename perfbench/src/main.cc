// mars_perfbench — wall-clock fleet benchmark.
//
//   mars_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--scene-seed N] [--fleet-seed N] [--scratch DIR]
//                  [--workers N] [--clients N] [--frames N] [--reps N]
//
// --trace 0 repeats System::Create + FleetEngine construction + Run on
// fresh systems for S seconds and prints the end-to-end metrics; --trace 1
// prints the per-layer metrics (one untraced run's counts plus the traced
// replay in replay.h). Both check every fleet run and end with one JSON
// result line; a failed check makes the exit code 1. README.md documents
// every metric. Each workload pins its scene and fleet seeds (see
// workloads.cc); --seed is recorded as the trial number, and --scene-seed
// and --fleet-seed run the workload on another scenario. --workers,
// --clients, --frames and --reps shrink or pin a run for the determinism
// test; --reps N runs exactly N fleet runs instead of filling S seconds.
// Page files go to fresh directories under --scratch, removed after use.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fleet_run.h"
#include "replay.h"
#include "report.h"
#include "workloads.h"

namespace {

using perfbench::Metric;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  int64_t scene_seed = -1;
  int64_t fleet_seed = -1;
  std::string scratch = ".bench_build/scratch";
  int workers = 0;
  int clients = 0;
  int frames = 0;
  int reps = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    const auto integer = [&]() {
      const long long v = std::strtoll(value, &end, 10);
      return *end == '\0' && end != value ? v : -1;
    };
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      const long long v = integer();
      if (v < 0) return false;
      args->seed = static_cast<uint64_t>(v);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(integer());
      if (args->trace != 0 && args->trace != 1) return false;
    } else if (flag == "--scene-seed") {
      if ((args->scene_seed = integer()) < 0) return false;
    } else if (flag == "--fleet-seed") {
      if ((args->fleet_seed = integer()) < 0) return false;
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else if (flag == "--workers") {
      if ((args->workers = static_cast<int>(integer())) < 1) return false;
    } else if (flag == "--clients") {
      if ((args->clients = static_cast<int>(integer())) < 1) return false;
    } else if (flag == "--frames") {
      if ((args->frames = static_cast<int>(integer())) < 1) return false;
    } else if (flag == "--reps") {
      if ((args->reps = static_cast<int>(integer())) < 1) return false;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty();
}

int32_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

// Timing a Debug or sanitizer build measures the instrumentation.
const char* RefusedBuild() {
#ifndef NDEBUG
  return "assertions are on (NDEBUG undefined)";
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) return "Debug build";
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "sanitizer flags";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  return nullptr;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mars_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 (see the top of main.cc)\n");
    return 2;
  }
  if (const char* why = RefusedBuild()) {
    std::fprintf(stderr, "refusing to time this build: %s\n", why);
    return 3;
  }
  perfbench::Workload workload;
  if (!perfbench::MakeWorkload(args.workload, &workload)) {
    std::fprintf(stderr, "unknown workload %s; known:", args.workload.c_str());
    for (const std::string& name : perfbench::WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (args.scene_seed >= 0) {
    workload.system.scene.seed = static_cast<uint64_t>(args.scene_seed);
  }
  if (args.fleet_seed >= 0) {
    workload.fleet_seed = static_cast<uint64_t>(args.fleet_seed);
  }
  if (args.clients > 0) workload.clients = args.clients;
  if (args.frames > 0) workload.frames = args.frames;
  const int32_t nproc = Nproc();
  if (args.workers > 0) {
    workload.fleet.workers = args.workers;
  } else {
    perfbench::ClampToCores(nproc, &workload);
  }
  const std::vector<mars::fleet::ClientSpec> specs =
      perfbench::MakeSpecs(workload);

  const auto& storage = workload.system.storage;
  std::printf(
      "{\"stamp\": {\"workload\": %s, \"trace\": %d, \"seed\": %" PRIu64
      ", \"scene_seed\": %" PRIu64 ", \"fleet_seed\": %" PRIu64
      ", \"clients\": %d, \"frames\": %d, \"nproc\": %d, "
      "\"compiler\": %s, \"build_type\": %s, \"cxx_flags\": %s, "
      "\"threads\": {\"fleet_workers\": %d, \"warm_workers\": %d, "
      "\"fanout_workers\": %d, \"total\": %d}}}\n",
      perfbench::JsonString(workload.name).c_str(), args.trace, args.seed,
      workload.system.scene.seed, workload.fleet_seed, workload.clients,
      workload.frames, nproc,
      perfbench::JsonString(PERFBENCH_COMPILER).c_str(),
      perfbench::JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      perfbench::JsonString(PERFBENCH_CXX_FLAGS).c_str(),
      workload.fleet.workers, storage.warm ? storage.warm_workers : 0,
      workload.system.fanout_workers, perfbench::ThreadBudget(workload));
  std::fflush(stdout);

  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  // --- Untraced fleet runs ----------------------------------------------
  // Every run is checked, and the first fixes the reference digest. Runs
  // that start in the first quarter of --seconds warm the process (heap,
  // code pages, the page cache the page files go through) and are left
  // out of the timed figures; the first run always is, whenever a later
  // one exists.
  const int64_t frames = workload.total_frames();
  int64_t attempted = 0;
  int64_t failed = 0;
  const double warmup_seconds = args.reps > 0 ? 0.0 : args.seconds / 4.0;
  std::vector<double> frames_per_s;
  std::vector<double> setup_s;
  size_t warmup_runs = 0;
  perfbench::FleetRun first_good;
  bool have_good = false;
  double longest_rep = 0.0;
  for (int rep = 0;; ++rep) {
    const double rep_start = elapsed();
    perfbench::FleetRun run =
        perfbench::RunFleet(workload, specs, args.scratch);
    longest_rep = std::max(longest_rep, elapsed() - rep_start);
    attempted += frames;
    if (run.failures.empty() && have_good &&
        run.digest != first_good.digest) {
      run.failures.push_back("output digest " + Hex(run.digest) +
                             " differs from the first run's " +
                             Hex(first_good.digest));
    }
    std::printf("{\"fleet_run\": %d, \"setup_s\": %s, \"setup_cpu_s\": %s, "
                "\"run_s\": %s, \"run_cpu_s\": %s, \"run_steal_s\": %s, "
                "\"peak_rss_mb\": %s, \"digest\": \"%s\", \"ok\": %s}\n",
                rep, perfbench::Num(run.setup_seconds).c_str(),
                perfbench::Num(run.setup_cpu_seconds).c_str(),
                perfbench::Num(run.run_seconds).c_str(),
                perfbench::Num(run.run_cpu_seconds).c_str(),
                perfbench::Num(run.run_steal_seconds).c_str(),
                perfbench::Num(run.peak_rss_mb).c_str(),
                Hex(run.digest).c_str(),
                run.failures.empty() ? "true" : "false");
    for (const std::string& failure : run.failures) {
      std::printf("CHECK FAILED (fleet run %d): %s\n", rep, failure.c_str());
    }
    std::fflush(stdout);
    if (!run.failures.empty()) {
      // A failed run counts every frame as failed and is not timed.
      failed += frames;
    } else {
      if (rep == 0 || rep_start < warmup_seconds) ++warmup_runs;
      frames_per_s.push_back(static_cast<double>(frames) / run.run_seconds);
      setup_s.push_back(run.setup_seconds);
      if (!have_good) {
        have_good = true;
        first_good = std::move(run);
      }
    }
    if (args.trace == 1) break;
    if (args.reps > 0 ? rep + 1 >= args.reps
                      : rep >= 1 && elapsed() + longest_rep > args.seconds) {
      break;
    }
  }
  std::vector<Metric> result;
  bool correct = failed == 0 && have_good;
  if (have_good && workload.disk()) {
    const int64_t pool_pages = storage.pool_pages;
    std::printf("{\"paging\": {\"index_pages\": %" PRId64
                ", \"pool_pages\": %" PRId64 ", \"index_per_pool\": %s}}\n",
                first_good.index_pages, pool_pages,
                perfbench::Num(static_cast<double>(first_good.index_pages) /
                               static_cast<double>(pool_pages))
                    .c_str());
  }
  if (have_good) {
    std::printf("{\"digest\": \"%s\", \"fleet_runs\": %zu}\n",
                Hex(first_good.digest).c_str(), frames_per_s.size());
  }

  if (args.trace == 0 && have_good) {
    warmup_runs = std::min(warmup_runs, frames_per_s.size() - 1);
    frames_per_s.erase(frames_per_s.begin(),
                       frames_per_s.begin() + warmup_runs);
    setup_s.erase(setup_s.begin(), setup_s.begin() + warmup_runs);
    const int64_t reps = static_cast<int64_t>(frames_per_s.size());
    // Set-up is short and noisy: top it up to kMinSetups samples with
    // set-up-only passes (no Run) when the fleet runs gave fewer.
    constexpr size_t kMinSetups = 9;
    while (args.reps == 0 && setup_s.size() < kMinSetups) {
      const perfbench::FleetSetup setup =
          perfbench::SetUpFleet(workload, specs, args.scratch);
      if (!setup.failure.empty()) {
        std::printf("CHECK FAILED (set-up pass): %s\n", setup.failure.c_str());
        correct = false;
        break;
      }
      setup_s.push_back(setup.seconds);
    }
    result = {
        {"frames_per_s", perfbench::Median(frames_per_s), "1/s", reps,
         "median over timed fleet runs; clients x frames / Run wall"},
        {"setup_s", perfbench::Median(setup_s), "s",
         static_cast<int64_t>(setup_s.size()),
         "median; System::Create + FleetEngine construction"},
        // The warm-up run's: later runs start from a heap the earlier ones
        // grew, so their peaks drift upward with the run count.
        {"peak_rss_mb", first_good.peak_rss_mb, "MiB", 1,
         "process peak RSS through its first fleet run"},
    };
    result.insert(result.end(), first_good.simulated.begin(),
                  first_good.simulated.end());
    std::vector<Metric> shown = result;
    shown.insert(shown.end(), first_good.response.begin(),
                 first_good.response.end());
    perfbench::PrintTable("end-to-end (" + workload.name + ")", shown);
    perfbench::PrintTable("per-layer counts (untraced)",
                          first_good.layer_counts);
  } else if (have_good) {
    const perfbench::TraceRun trace = perfbench::RunTrace(
        workload, specs, args.scratch, args.seconds - elapsed());
    attempted += trace.steps;
    for (const std::string& failure : trace.failures) {
      std::printf("CHECK FAILED (trace): %s\n", failure.c_str());
      correct = false;
    }
    result = first_good.layer_counts;
    result.insert(result.end(), trace.metrics.begin(), trace.metrics.end());
    perfbench::PrintTable("per-layer (" + workload.name + ")", result);
  }

  const std::string line =
      perfbench::ResultJson(correct, attempted, failed, result);
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
