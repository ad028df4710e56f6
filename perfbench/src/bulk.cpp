// The `bulk` scenario: one caller thread making back-to-back resident calls
// through the default kAuto path, then a file-backed streamed pass and
// NAS-IS-shaped key ranking.
//
// Phases, each run in whole rounds within every slice:
//   recurring  label vectors reused on every call; their plans are built in
//              set-up and stay resident (3 large plans, ~103 MB, fit the
//              default 128 MiB budget; 3 + 16 plans fit its 32 entries)
//   fresh      a new label vector on every call (generation untimed)
//   stream     StreamSession over FileChunkSource, checkpoint every 8 chunks
//   rank       multiprefix_sort_ranks on fresh NAS-IS-shaped keys
// The recurring phase has an engine of its own (default options, sharing
// the pool): slices interleave the phases, and on one shared cache the fresh
// phase's key-only sightings would evict the recurring plans every slice.
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.hpp"
#include "core/engine.hpp"
#include "parallel/thread_pool.hpp"
#include "sort/mp_rank_sort.hpp"
#include "stream/chunk_source.hpp"
#include "stream/session.hpp"

namespace perfbench {
namespace {

using mp::Engine;
using mp::Strategy;

constexpr std::size_t kLarge = std::size_t{1} << 22;
constexpr std::size_t kStreamN = std::size_t{1} << 22;
constexpr std::size_t kStreamM = kStreamN / 256;
constexpr std::size_t kCheckpointEvery = 8;
constexpr std::size_t kRankN = std::size_t{1} << 20;  // NAS IS class W shape
constexpr std::size_t kRankM = std::size_t{1} << 16;
constexpr std::size_t kSmallCopies = 4;

/// One (labels, values, operation) combination and, for recurring cells, its
/// reference output.
struct Cell {
  std::size_t n = 0;
  std::size_t m = 0;
  OpKind op = OpKind::kI32Plus;
  bool multiprefix = true;
  std::vector<label_t> labels;
  std::vector<std::int32_t> vi;
  std::vector<double> vd;
  std::vector<std::int32_t> ref_pi, ref_ri;
  std::vector<double> ref_pd, ref_rd;
  Rng rng{0, 0};  // fresh cells redraw their labels from this stream
  std::vector<double> samples;

  std::string name() const {
    return std::string(op_name(op)) + (multiprefix ? " mp" : " mr") + " n=" +
           std::to_string(n) + " m=" + std::to_string(m);
  }
};

/// Output buffers shared by every call of a phase.
struct Outputs {
  std::vector<std::int32_t> pi, ri;
  std::vector<double> pd, rd;
  void size_for(std::size_t n, std::size_t m) {
    if (pi.size() < n) pi.resize(n), pd.resize(n);
    if (ri.size() < m) ri.resize(m), rd.resize(m);
  }
};

Cell make_cell(std::uint64_t seed, std::uint64_t stream, std::size_t n, std::size_t load,
               OpKind op, bool multiprefix) {
  Cell c;
  c.n = n;
  c.m = std::max<std::size_t>(1, n / load);
  c.op = op;
  c.multiprefix = multiprefix;
  c.rng = Rng(seed, stream);
  c.labels.resize(n);
  fill_labels(c.labels, c.m, c.rng);
  Rng vals(seed, stream + 500);
  if (op == OpKind::kF64Plus) {
    c.vd.resize(n);
    fill_values(std::span<double>(c.vd), vals);
  } else {
    c.vi.resize(n);
    fill_values(std::span<std::int32_t>(c.vi), op, vals);
  }
  return c;
}

void compute_reference(Cell& c) {
  if (c.op == OpKind::kF64Plus) {
    c.ref_pd.assign(c.multiprefix ? c.n : 0, 0.0);
    reference_f64(c.vd, c.labels, c.m, c.ref_pd, c.ref_rd);
  } else {
    c.ref_pi.assign(c.multiprefix ? c.n : 0, 0);
    reference_i32(c.op, c.vi, c.labels, c.m, c.ref_pi, c.ref_ri);
  }
}

/// One library call for the cell through `engine` (kAuto unless told).
void call(Engine& engine, const Cell& c, Outputs& o, Strategy s = Strategy::kAuto) {
  const std::span<const label_t> l(c.labels);
  switch (c.op) {
    case OpKind::kI32Plus:
    case OpKind::kI32Max: {
      std::span<std::int32_t> p(o.pi.data(), c.n), r(o.ri.data(), c.m);
      const std::span<const std::int32_t> v(c.vi);
      if (c.op == OpKind::kI32Plus) {
        if (c.multiprefix)
          engine.multiprefix_into<std::int32_t, mp::Plus>(v, l, p, r, {}, s);
        else
          engine.multireduce_into<std::int32_t, mp::Plus>(v, l, r, {}, s);
      } else {
        if (c.multiprefix)
          engine.multiprefix_into<std::int32_t, mp::Max>(v, l, p, r, {}, s);
        else
          engine.multireduce_into<std::int32_t, mp::Max>(v, l, r, {}, s);
      }
      break;
    }
    case OpKind::kF64Plus: {
      std::span<double> p(o.pd.data(), c.n), r(o.rd.data(), c.m);
      const std::span<const double> v(c.vd);
      if (c.multiprefix)
        engine.multiprefix_into<double, mp::Plus>(v, l, p, r, {}, s);
      else
        engine.multireduce_into<double, mp::Plus>(v, l, r, {}, s);
      break;
    }
  }
}

bool matches(const Cell& c, const Outputs& o) {
  if (c.op == OpKind::kF64Plus) {
    return same_bytes<double>({o.rd.data(), c.m}, c.ref_rd) &&
           (!c.multiprefix || same_bytes<double>({o.pd.data(), c.n}, c.ref_pd));
  }
  return same_bytes<std::int32_t>({o.ri.data(), c.m}, c.ref_ri) &&
         (!c.multiprefix || same_bytes<std::int32_t>({o.pi.data(), c.n}, c.ref_pi));
}

/// Throughput of a mix: the elements of one call per cell over the sum of
/// the cells' median call times.
double mix_melems_per_s(const std::vector<Cell>& cells) {
  double elems = 0.0, secs = 0.0;
  for (const Cell& c : cells) {
    elems += static_cast<double>(c.n);
    secs += median(c.samples);
  }
  return secs > 0.0 ? elems / secs / 1e6 : 0.0;
}

/// NAS IS key distribution: the mean of four uniform draws, scaled to m.
void nas_keys(std::span<std::uint32_t> keys, std::size_t m, Rng& rng) {
  for (auto& k : keys)
    k = static_cast<std::uint32_t>(
        (std::uint64_t{rng.below(m)} + rng.below(m) + rng.below(m) + rng.below(m)) / 4);
}

/// Ranks are a permutation that puts the keys in stable sorted order.
bool ranks_ok(std::span<const std::uint32_t> keys, std::span<const std::uint32_t> ranks) {
  const std::size_t n = keys.size();
  if (ranks.size() != n) return false;
  std::vector<std::uint32_t> at(n, ~std::uint32_t{0});
  for (std::size_t i = 0; i < n; ++i) {
    if (ranks[i] >= n || at[ranks[i]] != ~std::uint32_t{0}) return false;
    at[ranks[i]] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t j = 1; j < n; ++j) {
    const std::uint32_t a = at[j - 1], b = at[j];
    if (keys[a] > keys[b] || (keys[a] == keys[b] && a > b)) return false;
  }
  return true;
}

class Bulk final : public Section {
 public:
  explicit Bulk(Context& ctx) : ctx_(ctx) {
    const std::uint64_t s = ctx.seed;
    // Recurring: three large vectors (every plan fits the default budget)
    // and eight small shapes; the operations rotate so int32 Plus, double
    // Plus and int32 Max, multiprefix and multireduce all occur.
    recurring_large_.push_back(make_cell(s, 10, kLarge, 16, OpKind::kF64Plus, false));
    recurring_large_.push_back(make_cell(s, 11, kLarge, 256, OpKind::kI32Plus, true));
    recurring_large_.push_back(make_cell(s, 12, kLarge, 4096, OpKind::kI32Max, true));
    const OpKind ops[4] = {OpKind::kI32Plus, OpKind::kF64Plus, OpKind::kI32Max,
                           OpKind::kF64Plus};
    const bool kinds[4] = {true, false, true, true};
    std::size_t k = 0;
    // Each small shape, recurring and fresh, comes in kSmallCopies cells
    // with arrays of their own (and, recurring at n = 2^15, plans of their
    // own): an L2-resident call's speed depends on where its arrays land in
    // the physically indexed L2 (run-to-run differences of ~20% with one
    // copy), and the copies average that out.
    for (std::size_t n : {std::size_t{1} << 12, std::size_t{1} << 15})
      for (std::size_t load : {1, 16, 256, 4096}) {
        for (std::size_t c = 0; c < kSmallCopies; ++c) {
          recurring_small_.push_back(
              make_cell(s, 100 + 10 * k + c, n, load, ops[k % 4], kinds[k % 4]));
          fresh_small_.push_back(
              make_cell(s, 200 + 10 * k + c, n, load, ops[(k + 1) % 4], kinds[(k + 1) % 4]));
        }
        ++k;
      }
    fresh_large_.push_back(make_cell(s, 30, kLarge, 1, OpKind::kI32Plus, true));
    fresh_large_.push_back(make_cell(s, 31, kLarge, 16, OpKind::kF64Plus, true));
    fresh_large_.push_back(make_cell(s, 32, kLarge, 256, OpKind::kI32Plus, false));
    fresh_large_.push_back(make_cell(s, 33, kLarge, 4096, OpKind::kI32Max, true));
    for (auto* group : {&recurring_large_, &recurring_small_})
      for (Cell& c : *group) compute_reference(c);
    for (auto* group : {&recurring_large_, &recurring_small_, &fresh_large_, &fresh_small_})
      for (const Cell& c : *group) out_.size_for(c.n, c.m);

    // The streamed input lives in two files, written once per run.
    Cell st = make_cell(s, 60, kStreamN, 256, OpKind::kI32Plus, true);
    compute_reference(st);
    stream_ref_prefix_ = std::move(st.ref_pi);
    stream_ref_reduction_ = std::move(st.ref_ri);
    stream_values_path_ = ctx.data_dir + "/stream_values.bin";
    stream_labels_path_ = ctx.data_dir + "/stream_labels.bin";
    write_file(stream_values_path_, st.vi.data(), st.vi.size() * sizeof(std::int32_t));
    write_file(stream_labels_path_, st.labels.data(), st.labels.size() * sizeof(label_t));
    stream_labels_ = std::move(st.labels);
    stream_values_ = std::move(st.vi);

    // The ranker dispatches through the process-wide engine; start it (and
    // its pool) here, once per process, rather than in a timed set-up.
    (void)Engine::global();
  }

  void setup() override {
    pool_ = std::make_unique<mp::ThreadPool>(cpus());
    Engine::Options opts;
    opts.pool = pool_.get();
    engine_ = std::make_unique<Engine>(opts);
    fresh_engine_ = std::make_unique<Engine>(opts);
    // A recurring vector's plan exists after two kAuto calls: the first
    // records the sighting, the second is promoted to a plan-based strategy
    // and builds the plan.
    for (auto* group : {&recurring_large_, &recurring_small_})
      for (const Cell& c : *group) {
        call(*engine_, c, out_);
        call(*engine_, c, out_);
      }
  }

  void teardown() override {
    fresh_engine_.reset();
    engine_.reset();
    pool_.reset();
  }

  void slice(double seconds) override {
    pace_[0].run(0.25 * seconds,
                 [&] { recurring_round("bulk.recurring_large", recurring_large_); });
    pace_[1].run(0.10 * seconds,
                 [&] { recurring_round("bulk.recurring_small", recurring_small_); });
    pace_[2].run(0.25 * seconds, [&] { fresh_round("bulk.fresh_large", fresh_large_); });
    pace_[3].run(0.10 * seconds, [&] { fresh_round("bulk.fresh_small", fresh_small_); });
    pace_[4].run(0.15 * seconds, [&] { stream_passes_.push_back(stream_pass(nullptr)); });
    pace_[5].run(0.15 * seconds, [&] { rank_times_.push_back(rank_once()); });
  }

  void finish() override {
    check_resume();
    Report& r = ctx_.report;
    r.metric("recurring_large_melems_per_s", mix_melems_per_s(recurring_large_), "Melem/s");
    r.metric("recurring_small_melems_per_s", mix_melems_per_s(recurring_small_), "Melem/s");
    r.metric("fresh_large_melems_per_s", mix_melems_per_s(fresh_large_), "Melem/s");
    r.metric("fresh_small_melems_per_s", mix_melems_per_s(fresh_small_), "Melem/s");
    r.metric("stream_melems_per_s", static_cast<double>(kStreamN) / median(stream_passes_) / 1e6,
             "Melem/s");
    r.metric("rank_mkeys_per_s", static_cast<double>(kRankN) / median(rank_times_) / 1e6,
             "Mkey/s");
  }

  void layers() override;

 private:
  static void write_file(const std::string& path, const void* data, std::size_t bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
    if (!f) throw std::runtime_error("cannot write " + path);
  }

  /// Times one call; a typed error counts as a failed operation.
  bool timed_call(Engine& engine, const std::string& phase, Cell& c) {
    try {
      const double t = timed([&] { call(engine, c, out_); });
      c.samples.push_back(t);
      ctx_.report.op(phase);
      return true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s %s failed: %s\n", phase.c_str(), c.name().c_str(),
                   e.what());
      ctx_.report.op(phase, false);
      return false;
    }
  }

  void recurring_round(const std::string& phase, std::vector<Cell>& cells) {
    for (Cell& c : cells)
      if (timed_call(*engine_, phase, c))
        ctx_.report.check(matches(c, out_), phase + " " + c.name());
  }

  void fresh_round(const std::string& phase, std::vector<Cell>& cells) {
    for (Cell& c : cells) {
      fill_labels(c.labels, c.m, c.rng);
      if (!timed_call(*fresh_engine_, phase, c)) continue;
      compute_reference(c);
      ctx_.report.check(matches(c, out_), phase + " " + c.name());
    }
  }

  using Session = mp::stream::StreamSession<std::int32_t, mp::Plus>;

  /// One streamed multiprefix pass from the files, snapshotting the carry
  /// every kCheckpointEvery chunks; returns seconds. `step_ms`, when set,
  /// receives per-step times and the checkpoint/read figures (timed run).
  double stream_pass(std::vector<double>* step_ms) {
    std::vector<std::int32_t>& out = out_.pi;
    double secs = 0.0;
    try {
      secs = timed([&] {
        mp::stream::FileChunkSource<std::int32_t> src(stream_values_path_, stream_labels_path_,
                                                      kStreamN);
        Session::Options so;
        so.engine = fresh_engine_.get();
        Session session(src, kStreamM, so);
        const Session::Sink sink = [&](std::size_t, std::size_t off,
                                       std::span<const std::int32_t> p) {
          std::memcpy(out.data() + off, p.data(), p.size() * sizeof(std::int32_t));
        };
        const std::size_t mid = src.chunk_count() / 2 / kCheckpointEvery * kCheckpointEvery;
        for (std::size_t k = 1; !session.done(); ++k) {
          const double ts = step_ms != nullptr ? now_s() : 0.0;
          session.step(sink);
          if (step_ms != nullptr) step_ms->push_back((now_s() - ts) * 1e3);
          if (k % kCheckpointEvery == 0) {
            std::vector<std::byte> snap = session.snapshot();
            if (k == mid) mid_snapshot_ = std::move(snap);
          }
        }
        ctx_.report.check(same_bytes<std::int32_t>(session.reduction(), stream_ref_reduction_),
                          "stream reduction");
      });
      ctx_.report.op("bulk.stream");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: stream pass failed: %s\n", e.what());
      ctx_.report.op("bulk.stream", false);
    }
    ctx_.report.check(same_bytes<std::int32_t>({out.data(), kStreamN}, stream_ref_prefix_),
                      "stream prefix");
    return secs;
  }

  /// Resumes a fresh session from the mid-stream checkpoint and checks that
  /// it reproduces the tail of the multiprefix and the final reduction.
  void check_resume() {
    try {
      mp::stream::FileChunkSource<std::int32_t> src(stream_values_path_, stream_labels_path_,
                                                    kStreamN);
      Session::Options so;
      so.engine = fresh_engine_.get();
      Session session(src, kStreamM, so);
      session.restore(mid_snapshot_);
      const std::size_t from = session.elements_done();
      std::vector<std::int32_t> tail(kStreamN - from);
      session.run([&](std::size_t, std::size_t off, std::span<const std::int32_t> p) {
        std::memcpy(tail.data() + (off - from), p.data(), p.size() * sizeof(std::int32_t));
      });
      ctx_.report.op("bulk.stream_resume");
      ctx_.report.check(from > 0 && same_bytes<std::int32_t>(
                                        tail, std::span<const std::int32_t>(
                                                  stream_ref_prefix_.data() + from, tail.size())),
                        "stream resume tail");
      ctx_.report.check(same_bytes<std::int32_t>(session.reduction(), stream_ref_reduction_),
                        "stream resume reduction");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: stream resume failed: %s\n", e.what());
      ctx_.report.op("bulk.stream_resume", false);
    }
  }

  double rank_once() {
    rank_keys_.resize(kRankN);
    nas_keys(rank_keys_, kRankM, rank_rng_);
    std::vector<std::uint32_t> ranks;
    double secs = 0.0;
    try {
      secs = timed([&] { ranks = mp::sort::multiprefix_sort_ranks(rank_keys_, kRankM); });
      ctx_.report.op("bulk.rank");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: rank failed: %s\n", e.what());
      ctx_.report.op("bulk.rank", false);
      return secs;
    }
    ctx_.report.check(ranks_ok(rank_keys_, ranks), "rank permutation / stable order");
    return secs;
  }

  Context& ctx_;
  std::vector<Cell> recurring_large_, recurring_small_, fresh_large_, fresh_small_;
  Outputs out_;
  std::string stream_values_path_, stream_labels_path_;
  std::vector<label_t> stream_labels_;
  std::vector<std::int32_t> stream_values_;
  std::vector<std::int32_t> stream_ref_prefix_, stream_ref_reduction_;
  std::vector<std::byte> mid_snapshot_;
  std::vector<std::uint32_t> rank_keys_;
  std::vector<double> stream_passes_, rank_times_;
  Pacer pace_[6];
  Rng rank_rng_{ctx_.seed, 70};
  std::unique_ptr<mp::ThreadPool> pool_;
  std::unique_ptr<Engine> engine_;        // recurring phase
  std::unique_ptr<Engine> fresh_engine_;  // fresh and stream phases
};

void Bulk::layers() {
  Report& r = ctx_.report;

  // kAuto's picks over a fixed script on a fresh engine: every recurring
  // cell three times (sighting, build, cached), then every fresh cell three
  // times with new labels. Exact counts.
  {
    Engine::Options opts;
    opts.pool = pool_.get();
    Engine eng(opts);
    for (auto* group : {&recurring_large_, &recurring_small_})
      for (const Cell& c : *group)
        for (int k = 0; k < 3; ++k) call(eng, c, out_);
    const auto rec = eng.counters();
    eng.reset_counters();
    for (auto* group : {&fresh_large_, &fresh_small_})
      for (Cell& c : *group)
        for (int k = 0; k < 3; ++k) {
          fill_labels(c.labels, c.m, c.rng);
          call(eng, c, out_);
        }
    const auto fresh = eng.counters();
    for (std::size_t s = 0; s < mp::kStrategyCount; ++s) {
      const std::string name = mp::to_string(static_cast<Strategy>(s));
      r.metric("core.auto_picks.recurring." + name, static_cast<double>(rec.auto_picks[s]),
               "count");
      r.metric("core.auto_picks.fresh." + name, static_cast<double>(fresh.auto_picks[s]),
               "count");
    }
  }

  // The Figure 2 base for every bulk shape: kAuto (warm, as in the recurring
  // phase) against the serial sweep, per shape on standard error and the
  // worst small-shape ratio as a metric.
  {
    double worst_small = 0.0;
    std::fprintf(stderr, "perfbench: recurring shape            kAuto ms   serial ms\n");
    for (auto* group : {&recurring_large_, &recurring_small_})
      for (const Cell& c : *group) {
        const std::size_t reps = c.n >= kLarge ? 3 : 101;
        const double a = median_time(reps, [&] { call(*engine_, c, out_); }) * 1e3;
        const double s =
            median_time(reps, [&] { call(*engine_, c, out_, Strategy::kSerial); }) * 1e3;
        ctx_.report.check(matches(c, out_), "serial " + c.name());
        std::fprintf(stderr, "perfbench: %-30s %9.4f %11.4f\n", c.name().c_str(), a, s);
        if (c.n < kLarge) worst_small = std::max(worst_small, a / s);
      }
    r.metric("core.auto_over_serial.small", worst_small, "ratio");
  }

  // Plan-cache residency over one recurring round after set-up, and the cost
  // of one cached lookup / one kAuto resolution (fingerprint + sighting +
  // regime choice).
  {
    const auto before = engine_->plan_stats();
    for (auto* group : {&recurring_large_, &recurring_small_})
      for (const Cell& c : *group) call(*engine_, c, out_);
    const auto after = engine_->plan_stats();
    const double hits = static_cast<double>(after.hits - before.hits);
    const double misses = static_cast<double>(after.misses - before.misses);
    r.metric("core.plan_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    const Cell& big = recurring_large_[1];
    r.metric("core.plan_lookup_us",
             median_time(21, [&] { keep(engine_->plan(big.labels, big.m).get()); }) * 1e6,
             "us");
    Engine::Options opts;
    opts.pool = pool_.get();
    Engine probe(opts);
    r.metric("core.resolve_us.large",
             median_time(21, [&] { (void)probe.resolve_for(big.labels, big.m); }) * 1e6, "us");
    const Cell& small = recurring_small_[6 * kSmallCopies];  // n = 2^15, load 256
    r.metric("core.resolve_us.small",
             median_time(201, [&] { (void)probe.resolve_for(small.labels, small.m); }) * 1e6,
             "us");
  }

  // Stream: per-step time, raw file reads, checkpoint cost, and the whole
  // pass against the resident kAuto call on the same data.
  {
    std::vector<double> steps;
    std::vector<double> passes;
    for (int k = 0; k < 3; ++k) {
      steps.clear();
      passes.push_back(stream_pass(&steps));
    }
    r.metric("stream.step_ms_p50", median(steps), "ms");
    // The base sees the data once, as the streamed pass does: each timed
    // call goes to a new engine, so kAuto resolves it as a first sighting.
    std::vector<std::int32_t> pi(kStreamN), ri(kStreamM);
    std::vector<double> resident_s;
    for (int k = 0; k < 4; ++k) {
      Engine::Options opts;
      opts.pool = pool_.get();
      Engine once(opts);
      resident_s.push_back(timed([&] {
        once.multiprefix_into<std::int32_t, mp::Plus>(stream_values_, stream_labels_,
                                                      std::span<std::int32_t>(pi),
                                                      std::span<std::int32_t>(ri));
      }));
    }
    const double resident = median(resident_s);
    r.check(same_bytes<std::int32_t>(pi, stream_ref_prefix_), "resident stream data");
    r.metric("stream.resident_ms", resident * 1e3, "ms");
    r.metric("stream.overhead_ratio", median(passes) / resident, "ratio");

    mp::stream::FileChunkSource<std::int32_t> src(stream_values_path_, stream_labels_path_,
                                                  kStreamN);
    std::vector<std::int32_t> v(src.chunk_elements(0));
    std::vector<label_t> l(v.size());
    const double read_s = median_time(3, [&] {
      for (std::size_t c = 0; c < src.chunk_count(); ++c) {
        const std::size_t nc = src.chunk_elements(c);
        src.read(c, std::span<std::int32_t>(v.data(), nc), std::span<label_t>(l.data(), nc));
      }
    });
    r.metric("stream.read_gbps",
             static_cast<double>(kStreamN * (sizeof(std::int32_t) + sizeof(label_t))) / read_s /
                 1e9,
             "GB/s");

    Session::Options so;
    so.engine = fresh_engine_.get();
    Session session(src, kStreamM, so);
    for (int k = 0; k < 16; ++k) session.step({});
    r.metric("stream.checkpoint_us",
             median_time(51, [&] { keep(session.snapshot().data()); }) * 1e6, "us");
  }

  // Sort: the enumerate multiprefix of the ranking (plan built beforehand)
  // against the whole ranking.
  {
    std::vector<double> whole;
    for (int k = 0; k < 5; ++k) whole.push_back(rank_once());
    r.metric("sort.rank_ms", median(whole) * 1e3, "ms");
    const mp::SpinetreePlan plan(rank_keys_, kRankM);
    std::vector<std::uint32_t> prefix(kRankN), counts(kRankM);
    r.metric("sort.enumerate_ms", median_time(5, [&] {
               mp::SpinetreeExecutor<std::uint32_t, mp::Plus> exec(plan, mp::Plus{},
                                                                   &Engine::thread_workspace());
               exec.enumerate(std::span<std::uint32_t>(prefix),
                              std::span<std::uint32_t>(counts));
             }) * 1e3,
             "ms");
  }
}

}  // namespace

std::unique_ptr<Section> make_bulk(Context& ctx) { return std::make_unique<Bulk>(ctx); }

}  // namespace perfbench
