// The `cmfd` scenario: MeshTallySolver::solve() to convergence on the
// unperturbed 64x64, repeat-8 mesh with the app's default physics, and
// per-track tally sweeps through a serve::Frontend. Only the solve is an
// end-to-end figure; the frontend sweep is timed in the timed run
// (apps.frontend_tally_ms_p50). A sweep is 1536 tiny requests in windows of
// 128, with about 80 thread hand-offs; on the shared VM this was written on
// its time followed the host's load, 17-42 ms within one run and 19-35 ms
// between the medians of runs minutes apart, where the solve moved 10-20%.
//
// Oracles: k-eff within 1e-6 of analytic_keff(), and every swept tally equal
// to a direct per-label sum of the quantized segment contributions, which the
// harness recomputes from segment_weights() and its own finite-difference
// currents (the app quantizes each contribution to a 2^-30 grid, so the sum
// is exact in any order).
#include <cmath>

#include "apps/mesh_tally.hpp"
#include "bench.hpp"
#include "core/engine.hpp"
#include "serve/frontend.hpp"

namespace perfbench {
namespace {

using mp::apps::MeshTallyConfig;
using mp::apps::MeshTallySolver;

constexpr std::size_t kMesh = 64;
constexpr std::size_t kRepeat = 8;

MeshTallyConfig mesh_config() {
  MeshTallyConfig cfg;
  cfg.nx = kMesh;
  cfg.ny = kMesh;
  cfg.track_repeat = kRepeat;
  return cfg;
}

class Cmfd final : public Section {
 public:
  explicit Cmfd(Context& ctx) : ctx_(ctx) {
    // A seeded smooth, strictly positive flux for the tally sweeps.
    Rng r(ctx.seed, 90);
    const double a = 0.2 + 0.3 * r.below(1000) / 1000.0;
    const double b = 0.2 + 0.3 * r.below(1000) / 1000.0;
    flux_.resize(kMesh * kMesh);
    for (std::size_t iy = 0; iy < kMesh; ++iy)
      for (std::size_t ix = 0; ix < kMesh; ++ix)
        flux_[iy * kMesh + ix] = 1.0 + 0.5 * std::sin(a * static_cast<double>(ix + 1)) *
                                           std::cos(b * static_cast<double>(iy + 1));
  }

  void setup() override {
    engine_ = std::make_unique<mp::Engine>();
    mp::serve::FrontendOptions fo;
    fo.engine = engine_.get();
    frontend_ = std::make_unique<mp::serve::Frontend>(fo);
    MeshTallyConfig cfg = mesh_config();
    cfg.engine = engine_.get();
    solver_ = std::make_unique<MeshTallySolver>(cfg);
    cfg.frontend = frontend_.get();
    swept_ = std::make_unique<MeshTallySolver>(cfg);
    // The cold tally call builds the resident tally plan.
    currents_.assign(solver_->surfaces(), 0.0);
    solver_->tally_currents(flux_, currents_);
  }

  void teardown() override {
    swept_.reset();
    solver_.reset();
    frontend_.reset();
    engine_.reset();
  }

  void slice(double seconds) override {
    pace_solve_.run(seconds, [&] { solves_.push_back(solve_once()); });
  }

  void finish() override { ctx_.report.metric("cmfd_solve_s", median(solves_), "s"); }

  void layers() override {
    Report& r = ctx_.report;
    mp::apps::MeshTallyStats stats;
    solve_once(&stats);
    r.metric("apps.outers", static_cast<double>(stats.outers), "count");
    r.metric("apps.inners", static_cast<double>(stats.inners), "count");
    r.metric("apps.tally_sweeps", static_cast<double>(stats.tally_sweeps), "count");
    r.metric("apps.plan_hit_rate", stats.warm_hit_rate, "ratio");
    expected_ = oracle_tally(*swept_);
    r.metric("apps.tally_ms_p50",
             median_time(21, [&] { solver_->tally_currents(flux_, currents_); }) * 1e3, "ms");
    r.check(currents_ == expected_, "cmfd tally");
    r.metric("apps.tally_serial_ms_p50", median_time(21, [&] {
               solver_->tally_currents(flux_, currents_, mp::Strategy::kSerial);
             }) * 1e3,
             "ms");
    r.check(currents_ == expected_, "cmfd serial tally");
    std::vector<double> sweeps;
    for (int k = 0; k < 21; ++k) {
      try {
        sweeps.push_back(timed([&] { swept_->tally_currents(flux_, currents_); }));
        r.op("cmfd.frontend_sweep");
        r.check(currents_ == expected_, "cmfd frontend tally");
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: frontend sweep failed: %s\n", e.what());
        r.op("cmfd.frontend_sweep", false);
      }
    }
    r.metric("apps.frontend_tally_ms_p50", median(sweeps) * 1e3, "ms");
  }

 private:
  double solve_once(mp::apps::MeshTallyStats* out = nullptr) {
    try {
      mp::apps::MeshTallyStats stats;
      const double t = timed([&] { stats = solver_->solve(); });
      ctx_.report.op("cmfd.solve");
      ctx_.report.check(stats.converged, "cmfd solve converged");
      ctx_.report.check(std::abs(stats.keff - solver_->analytic_keff()) <= 1e-6,
                        "cmfd k-eff against the analytic eigenvalue");
      if (out != nullptr) *out = stats;
      return t;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: solve failed: %s\n", e.what());
      ctx_.report.op("cmfd.solve", false);
      return 0.0;
    }
  }

  /// Independent tally: finite-difference surface currents of flux_ (zero
  /// flux half-cell boundaries), each segment's contribution
  /// weight * current quantized to 2^-30, summed per surface label.
  std::vector<double> oracle_tally(const MeshTallySolver& s) const {
    const MeshTallyConfig& c = s.config();
    const std::size_t nx = c.nx, ny = c.ny;
    const double dt = c.diffusion / c.cell_size, dtb = 2.0 * c.diffusion / c.cell_size;
    auto phi = [&](std::size_t ix, std::size_t iy) { return flux_[iy * nx + ix]; };
    std::vector<double> j(s.surfaces());
    for (std::size_t iy = 0; iy < ny; ++iy)
      for (std::size_t ix = 0; ix <= nx; ++ix)
        j[iy * (nx + 1) + ix] = ix == 0    ? -dtb * phi(0, iy)
                                : ix == nx ? dtb * phi(nx - 1, iy)
                                           : -dt * (phi(ix, iy) - phi(ix - 1, iy));
    for (std::size_t iy = 0; iy <= ny; ++iy)
      for (std::size_t ix = 0; ix < nx; ++ix)
        j[(nx + 1) * ny + iy * nx + ix] = iy == 0    ? -dtb * phi(ix, 0)
                                          : iy == ny ? dtb * phi(ix, ny - 1)
                                                     : -dt * (phi(ix, iy) - phi(ix, iy - 1));
    constexpr double kQuantum = 1024.0 * 1024.0 * 1024.0;
    std::vector<double> tally(s.surfaces(), 0.0);
    const auto labels = s.tally_labels();
    const auto weights = s.segment_weights();
    for (std::size_t k = 0; k < labels.size(); ++k)
      tally[labels[k]] += std::nearbyint(weights[k] * j[labels[k]] * kQuantum) / kQuantum;
    return tally;
  }

  Context& ctx_;
  std::vector<double> flux_, currents_, expected_;
  std::vector<double> solves_;
  Pacer pace_solve_;
  std::unique_ptr<mp::Engine> engine_;
  std::unique_ptr<mp::serve::Frontend> frontend_;
  std::unique_ptr<MeshTallySolver> solver_, swept_;
};

}  // namespace

std::unique_ptr<Section> make_cmfd(Context& ctx) { return std::make_unique<Cmfd>(ctx); }

}  // namespace perfbench
