// perfbench — the repository benchmark.
//
//   perfbench --workload bulk|serve|cmfd --seed N --seconds S --trace 0|1
//             [--data-dir DIR]
//
// Every run executes the three scenarios (bulk, serve, cmfd), so every run
// reports every end-to-end metric; the workload names the scenario that gets
// half of the measured seconds, the other two a quarter each. The seconds
// are cut into kSlices slices and the scenarios take turns slice by slice
// (whole rounds only, paced by bench.hpp's Pacer), so that every metric
// samples the whole run rather than one stretch of it: on the shared 4-CPU
// VM this was written on, single-thread speed drifts by up to 40% over tens
// of seconds. With --trace 0 the end-to-end metrics are measured with no
// per-layer timing; with --trace 1 the same set-up is followed by the
// per-layer probes instead.
// Output: a host fingerprint line, a per-phase accounting line, and as the
// last line the result object {correct, attempted, failed, metrics}. The
// exit code is non-zero when any output was wrong.
#include <unistd.h>

#include <cstdlib>

#include "bench.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/dispatch.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NATIVE
#define PERFBENCH_NATIVE 0
#endif

namespace perfbench {

std::uint64_t Report::attempted() const {
  std::uint64_t n = 0;
  for (const auto& [name, p] : phases_) n += p.attempted;
  return n;
}

std::uint64_t Report::failed() const {
  std::uint64_t n = 0;
  for (const auto& [name, p] : phases_) n += p.failed;
  return n;
}

void Report::print(const std::string& host_json) const {
  std::printf("{\"host\": %s}\n", host_json.c_str());
  std::printf("{\"phases\": {");
  const char* sep = "";
  for (const auto& [name, p] : phases_) {
    std::printf("%s\"%s\": {\"attempted\": %llu, \"failed\": %llu}", sep, name.c_str(),
                static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.failed));
    sep = ", ";
  }
  std::printf("}}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct_ ? "true" : "false", static_cast<unsigned long long>(attempted()),
              static_cast<unsigned long long>(failed()));
  sep = "";
  for (const Metric& m : metrics_) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name.c_str(), m.value,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

namespace {

std::string host_fingerprint() {
  auto cache = [](int name) {
    const long v = sysconf(name);
    return v > 0 ? v : 0L;
  };
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"cpus\": %u, \"pool_lanes\": %zu, \"simd_detected\": \"%s\", \"simd_active\": \"%s\", "
      "\"l1d_bytes\": %ld, \"l2_bytes\": %ld, \"llc_bytes\": %ld, \"compiler\": \"%s %s\", "
      "\"build_type\": \"%s\", \"mp_enable_native\": %s}",
      cpus(), mp::ThreadPool::global().num_threads(),
      mp::simd::to_string(mp::simd::detected_level()),
      mp::simd::to_string(mp::simd::active_level()), cache(_SC_LEVEL1_DCACHE_SIZE),
      cache(_SC_LEVEL2_CACHE_SIZE), cache(_SC_LEVEL3_CACHE_SIZE),
#if defined(__clang__)
      "clang",
#else
      "gcc",
#endif
      __VERSION__, PERFBENCH_BUILD_TYPE, PERFBENCH_NATIVE ? "true" : "false");
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload bulk|serve|cmfd --seed N --seconds S --trace 0|1 "
               "[--data-dir DIR]\n");
  return 2;
}

constexpr int kSetupReps = 3;
constexpr int kSlices = 16;

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, data_dir = ".";
  double seconds = 0.0;
  long long seed = -1, trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::atoll(val.c_str());
    else if (key == "--seconds") seconds = std::atof(val.c_str());
    else if (key == "--trace") trace = std::atoll(val.c_str());
    else if (key == "--data-dir") data_dir = val;
    else return usage();
  }
  if (argc % 2 != 1 || seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1)) return usage();
  const char* names[3] = {"bulk", "serve", "cmfd"};
  int primary = -1;
  for (int k = 0; k < 3; ++k)
    if (workload == names[k]) primary = k;
  if (primary < 0) return usage();

  Context ctx;
  ctx.seed = static_cast<std::uint64_t>(seed);
  ctx.data_dir = data_dir;
  try {
    std::unique_ptr<Section> sections[3] = {make_bulk(ctx), make_serve(ctx), make_cmfd(ctx)};
    auto setup_all = [&] {
      for (auto& s : sections) s->setup();
    };
    auto teardown_all = [&] {
      for (auto& s : sections) s->teardown();
    };
    if (trace == 0) {
      std::vector<double> setups;
      for (int rep = 0; rep < kSetupReps; ++rep) {
        if (rep > 0) teardown_all();
        setups.push_back(timed(setup_all));
      }
      ctx.report.metric("setup_s", median(setups), "s");
      for (int slice = 0; slice < kSlices; ++slice)
        for (int k = 0; k < 3; ++k)
          sections[k]->slice(seconds / kSlices * (k == primary ? 0.5 : 0.25));
      for (auto& s : sections) s->finish();
    } else {
      setup_all();
      for (auto& s : sections) s->layers();
      library_layers(ctx);
      ctx.report.metric("harness.timer_ns", median_time(10001, [] {
                          const double t = timed([] {});
                          keep(&t);
                        }) * 1e9,
                        "ns");
    }
    teardown_all();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: aborted: %s\n", e.what());
    return 3;
  }
  ctx.report.print(host_fingerprint());
  return ctx.report.correct() ? 0 : 1;
}
