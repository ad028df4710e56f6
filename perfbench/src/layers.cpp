// Per-layer probes that need no scenario state: common (validation), core
// (strategies, phases, the kAuto time budget, dispatch overhead, plan
// build), simd (kernel tables and copy ceilings), parallel (fork/join and
// lane scaling), sparse (SpMV) and obs (tracer cost). Every figure is timed
// from here, around calls into the layer's public functions.
#include <cstring>

#include "bench.hpp"
#include "common/error.hpp"
#include "core/engine.hpp"
#include "core/executor.hpp"
#include "core/serial.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/kernels.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/mp_spmv.hpp"

namespace perfbench {
namespace {

using mp::Engine;
using mp::Strategy;

constexpr std::size_t kLarge = std::size_t{1} << 22;
constexpr std::size_t kLoads[4] = {1, 16, 256, 4096};

struct Data {
  std::size_t n = 0, m = 0;
  std::vector<label_t> labels;
  std::vector<std::int32_t> values, prefix, reduction, ref_prefix;
  std::vector<std::int32_t> ref_reduction;

  Data(std::uint64_t seed, std::uint64_t stream, std::size_t n_, std::size_t load)
      : n(n_), m(std::max<std::size_t>(1, n_ / load)), labels(n_), values(n_), prefix(n_),
        reduction(m), ref_prefix(n_) {
    Rng r(seed, stream);
    fill_labels(labels, m, r);
    fill_values(std::span<std::int32_t>(values), OpKind::kI32Plus, r);
    reference_i32(OpKind::kI32Plus, values, labels, m, ref_prefix, ref_reduction);
  }

  void run(Engine& e, Strategy s) {
    e.multiprefix_into<std::int32_t>(values, labels, std::span<std::int32_t>(prefix),
                                     std::span<std::int32_t>(reduction), mp::Plus{}, s);
  }
  bool ok() const { return prefix == ref_prefix && reduction == ref_reduction; }
};

void common_layer(Context& ctx) {
  Data d(ctx.seed, 100, std::size_t{1} << 15, 16);
  const double s = median_time(201, [&] {
    const mp::Status st = mp::validate_inputs(d.n, d.labels, d.m);
    keep(&st);
  });
  ctx.report.metric("common.validate_ns_per_elem", s * 1e9 / static_cast<double>(d.n), "ns");
}

void core_layer(Context& ctx, mp::ThreadPool& pool) {
  Report& r = ctx.report;
  Engine::Options opts;
  opts.pool = &pool;

  // Every fixed strategy and kAuto on recurring labels (plans warm), int32
  // Plus multiprefix at n = 2^22; serial is the Figure 2 base.
  double auto_over_best = 0.0, auto_over_serial = 0.0;
  for (std::size_t li = 0; li < 4; ++li) {
    const std::size_t load = kLoads[li];
    Data d(ctx.seed, 110 + li, kLarge, load);
    Engine eng(opts);
    const std::string suffix = ".load" + std::to_string(load);
    double best = 1e30, serial = 0.0;
    for (std::size_t s = 0; s < mp::kStrategyCount; ++s) {
      const Strategy st = static_cast<Strategy>(s);
      const double t = median_time(3, [&] { d.run(eng, st); }) * 1e3;
      r.check(d.ok(), std::string("strategy ") + mp::to_string(st) + suffix);
      r.metric(std::string("core.strategy_ms.") + mp::to_string(st) + suffix, t, "ms");
      best = std::min(best, t);
      if (st == Strategy::kSerial) serial = t;
    }
    const double t_auto = median_time(3, [&] { d.run(eng, Strategy::kAuto); }, 2) * 1e3;
    r.check(d.ok(), "kAuto" + suffix);
    r.metric("core.auto_ms" + suffix, t_auto, "ms");
    auto_over_best = std::max(auto_over_best, t_auto / best);
    auto_over_serial = std::max(auto_over_serial, t_auto / serial);
  }
  r.metric("core.auto_over_best", auto_over_best, "ratio");
  r.metric("core.auto_over_serial", auto_over_serial, "ratio");

  // The budget of one recurring kAuto call at n = 2^22, load 256:
  // validation + resolution + plan lookup + the phases + the rest.
  {
    Data d(ctx.seed, 120, kLarge, 256);
    Engine eng(opts);
    const double call = median_time(5, [&] { d.run(eng, Strategy::kAuto); }, 2) * 1e3;
    r.check(d.ok(), "kAuto budget call");
    const double validate = median_time(5, [&] {
      const mp::Status st = mp::validate_inputs(d.n, d.labels, d.m);
      keep(&st);
    }) * 1e3;
    const double resolve = median_time(5, [&] { (void)eng.resolve_for(d.labels, d.m); }) * 1e3;
    std::shared_ptr<const mp::SpinetreePlan> plan;
    const double lookup = median_time(5, [&] { plan = eng.plan(d.labels, d.m); }) * 1e3;
    std::vector<double> init, rows, spine, red, multi, total;
    for (int k = 0; k < 6; ++k) {
      mp::PhaseSeconds ps;
      mp::SpinetreeExecutor<std::int32_t, mp::Plus> exec(*plan, mp::Plus{},
                                                         &Engine::thread_workspace());
      mp::SpinetreeExecutor<std::int32_t, mp::Plus>::Options eo;
      eo.timings = &ps;
      exec.execute(d.values, std::span<std::int32_t>(d.prefix),
                   std::span<std::int32_t>(d.reduction), eo);
      if (k == 0) continue;  // warm
      init.push_back(ps.init * 1e3);
      rows.push_back(ps.rowsums * 1e3);
      spine.push_back(ps.spinesums * 1e3);
      red.push_back(ps.reduction * 1e3);
      multi.push_back(ps.multisums * 1e3);
      total.push_back(ps.total() * 1e3);
    }
    r.check(d.ok(), "executor phases");
    r.metric("core.phase_ms.init", median(init), "ms");
    r.metric("core.phase_ms.rowsums", median(rows), "ms");
    r.metric("core.phase_ms.spinesums", median(spine), "ms");
    r.metric("core.phase_ms.reduction", median(red), "ms");
    r.metric("core.phase_ms.multisums", median(multi), "ms");
    const double phases = median(total);
    r.metric("core.budget.call_ms", call, "ms");
    r.metric("core.budget.validate_ms", validate, "ms");
    r.metric("core.budget.resolve_ms", resolve, "ms");
    r.metric("core.budget.lookup_ms", lookup, "ms");
    r.metric("core.budget.phases_ms", phases, "ms");
    r.metric("core.budget.unattributed_ms", call - validate - resolve - lookup - phases, "ms");

    // SPINETREE: the single-thread build the vectorized strategy pays on a
    // cache miss.
    r.metric("core.plan_build_ms", median_time(3, [&] {
               const mp::SpinetreePlan p(d.labels, d.m);
               keep(&p);
             }, 0) * 1e3,
             "ms");
  }

  // Dispatch overhead: the engine's serial path minus the bare sweep.
  {
    Data d(ctx.seed, 130, std::size_t{1} << 12, 16);
    Engine eng(opts);
    constexpr int kBatch = 64;
    const double via_engine = median_time(51, [&] {
      for (int k = 0; k < kBatch; ++k) d.run(eng, Strategy::kSerial);
    });
    const double bare = median_time(51, [&] {
      for (int k = 0; k < kBatch; ++k) {
        std::fill(d.reduction.begin(), d.reduction.end(), 0);
        mp::multiprefix_serial_into<std::int32_t, mp::Plus>(
            d.values, d.labels, std::span<std::int32_t>(d.prefix),
            std::span<std::int32_t>(d.reduction));
      }
    });
    r.check(d.ok(), "serial sweep");
    r.metric("core.dispatch_overhead_us", (via_engine - bare) / kBatch * 1e6, "us");
  }
}

void simd_layer(Context& ctx) {
  Report& r = ctx.report;
  // Kernels over 2^22 elements (16 MiB per array: past the L2, inside the
  // LLC); bytes are the kernel's minimum algorithmic traffic.
  Data d(ctx.seed, 140, kLarge, 256);
  const double n = static_cast<double>(d.n);
  // The scan runs in place on unsigned copies, which wrap on overflow.
  std::vector<std::uint32_t> work(d.values.begin(), d.values.end());
  const double scan = median_time(5, [&] {
    mp::simd::inclusive_scan<std::uint32_t>(std::span<std::uint32_t>(work));
    keep(work.data());
  });
  r.metric("simd.scan_gbps", 8.0 * n / scan / 1e9, "GB/s");
  std::vector<std::uint32_t> counts(d.m), cursor(d.m), order(d.n);
  const double hist = median_time(5, [&] {
    std::fill(counts.begin(), counts.end(), 0u);
    mp::simd::histogram(d.labels, counts.data(), d.m);
  });
  r.metric("simd.histogram_gbps", 4.0 * n / hist / 1e9, "GB/s");
  std::uint32_t base = 0;
  std::vector<std::uint32_t> starts(d.m);
  for (std::size_t k = 0; k < d.m; ++k) starts[k] = base, base += counts[k];
  const double scatter = median_time(5, [&] {
    std::memcpy(cursor.data(), starts.data(), d.m * sizeof(std::uint32_t));
    mp::simd::rank_scatter(d.labels, cursor.data(), order.data(), d.m);
  });
  r.metric("simd.rank_scatter_gbps", 8.0 * n / scatter / 1e9, "GB/s");
  const std::size_t bounds[2] = {0, d.n};
  const double sweep = median_time(5, [&] {
    std::fill(d.reduction.begin(), d.reduction.end(), 0);
    mp::simd::banded_bucket_sweep<std::int32_t, mp::Plus>(d.values.data(), d.labels.data(),
                                                          bounds, 1, d.reduction.data(), 0,
                                                          d.prefix.data());
  });
  r.check(d.ok(), "banded sweep");
  r.metric("simd.banded_sweep_gbps", 12.0 * n / sweep / 1e9, "GB/s");

  // Copy ceilings: an L2-resident pair of 2 MiB buffers and an LLC-resident
  // pair of 64 MiB buffers (read + write bytes).
  for (const auto& [name, bytes] : {std::pair<const char*, std::size_t>{"l2", 2u << 20},
                                    std::pair<const char*, std::size_t>{"llc", 64u << 20}}) {
    std::vector<char> src(bytes, 1), dst(bytes);
    const double t = median_time(bytes > (8u << 20) ? 5 : 101, [&] {
      std::memcpy(dst.data(), src.data(), bytes);
      keep(dst.data());
    });
    r.metric(std::string("simd.copy_gbps.") + name, 2.0 * static_cast<double>(bytes) / t / 1e9,
             "GB/s");
  }
}

void parallel_layer(Context& ctx) {
  Report& r = ctx.report;
  {
    // One empty item per lane, so every call forks and joins the pool.
    mp::ThreadPool pool(cpus());
    constexpr int kBatch = 100;
    const double t = median_time(31, [&] {
      for (int k = 0; k < kBatch; ++k) mp::parallel_for(pool, 0, cpus(), 0, [](std::size_t) {});
    });
    r.metric("parallel.fork_join_us", t / kBatch * 1e6, "us");
  }
  Data d(ctx.seed, 150, kLarge, 256);
  for (std::size_t l : {1, 2, 4}) {
    mp::ThreadPool pool(l);
    Engine::Options opts;
    opts.pool = &pool;
    Engine eng(opts);
    const std::string key = "parallel.lanes" + std::to_string(l);
    r.metric(key + ".parallel_ms", median_time(3, [&] { d.run(eng, Strategy::kParallel); }) * 1e3,
             "ms");
    r.check(d.ok(), key + " parallel");
    r.metric(key + ".chunked_ms", median_time(5, [&] { d.run(eng, Strategy::kChunked); }) * 1e3,
             "ms");
    r.check(d.ok(), key + " chunked");
  }
}

void sparse_layer(Context& ctx) {
  Report& r = ctx.report;
  // The 64x64 five-point operator (4 on the diagonal, -1 to each neighbour)
  // with seeded perturbations of the diagonal.
  constexpr std::size_t kSide = 64, kRows = kSide * kSide;
  mp::sparse::Coo<double> a;
  a.rows = a.cols = kRows;
  Rng rng(ctx.seed, 160);
  for (std::size_t y = 0; y < kSide; ++y)
    for (std::size_t x = 0; x < kSide; ++x) {
      const auto row = static_cast<std::uint32_t>(y * kSide + x);
      if (y > 0) a.push(row, row - kSide, -1.0);
      if (x > 0) a.push(row, row - 1, -1.0);
      a.push(row, row, 4.0 + rng.below(256) / 256.0);
      if (x + 1 < kSide) a.push(row, row + 1, -1.0);
      if (y + 1 < kSide) a.push(row, row + kSide, -1.0);
    }
  std::vector<double> x(kRows), y_mp(kRows), y_csr(kRows);
  for (auto& v : x) v = static_cast<double>(rng.below(1025)) / 1024.0;
  mp::sparse::MultiprefixSpmv<double> mpv(a);
  const auto csr = mp::sparse::Csr<double>::from_coo(a);
  r.metric("sparse.mp_spmv_ms",
           median_time(201, [&] { mpv.apply(x, std::span<double>(y_mp)); }) * 1e3, "ms");
  r.metric("sparse.csr_spmv_ms", median_time(201, [&] {
             mp::sparse::csr_spmv<double>(csr, x, std::span<double>(y_csr));
           }) * 1e3,
           "ms");
  // Dense product oracle, one dense row at a time (entries were pushed in
  // row order). Entries and x are dyadic with few bits, so every row sum is
  // exact in any order.
  std::vector<double> y_dense(kRows, 0.0), row(kRows);
  std::size_t k = 0;
  for (std::size_t i = 0; i < kRows; ++i) {
    std::fill(row.begin(), row.end(), 0.0);
    for (; k < a.nnz() && a.row[k] == i; ++k) row[a.col[k]] += a.val[k];
    for (std::size_t j = 0; j < kRows; ++j) y_dense[i] += row[j] * x[j];
  }
  r.check(y_mp == y_dense, "multiprefix SpMV against the dense product");
  r.check(y_csr == y_dense, "CSR SpMV against the dense product");
}

void obs_layer(Context& ctx, mp::ThreadPool& pool) {
  Report& r = ctx.report;
  Data d(ctx.seed, 170, kLarge, 256);
  mp::obs::Tracer tracer;
  Engine::Options plain;
  plain.pool = &pool;
  Engine::Options traced = plain;
  traced.tracer = &tracer;
  Engine e_plain(plain), e_traced(traced);
  for (Strategy s : {Strategy::kChunked, Strategy::kVectorized}) {
    const double a = median_time(5, [&] { d.run(e_plain, s); });
    r.check(d.ok(), "untraced run");
    const double b = median_time(5, [&] { d.run(e_traced, s); });
    r.check(d.ok(), "traced run");
    r.metric(std::string("obs.traced_over_untraced.") + mp::to_string(s), b / a, "ratio");
  }
}

}  // namespace

void library_layers(Context& ctx) {
  mp::ThreadPool pool(cpus());
  common_layer(ctx);
  core_layer(ctx, pool);
  simd_layer(ctx);
  parallel_layer(ctx);
  sparse_layer(ctx);
  obs_layer(ctx, pool);
}

}  // namespace perfbench
