// Shared pieces of the repository benchmark: seeded input generation, the
// independent reference oracles, timing statistics, operation accounting and
// the metric report. Everything here is written against the public headers
// only; the oracles never call into the library.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/labels.hpp"

namespace perfbench {

using mp::label_t;

// ---------------------------------------------------------------------------
// Clock and statistics

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of a copy of `v`.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline unsigned cpus() { return std::max(1u, std::thread::hardware_concurrency()); }

/// Times `fn` once and returns seconds.
template <class Fn>
double timed(Fn&& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

/// Median seconds of `reps` timed calls of `fn` (after `warm` untimed ones).
template <class Fn>
double median_time(std::size_t reps, Fn&& fn, std::size_t warm = 1) {
  for (std::size_t i = 0; i < warm; ++i) fn();
  std::vector<double> t;
  t.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) t.push_back(timed(fn));
  return median(t);
}

/// Spreads a phase's whole rounds over the slices of a run: each slice adds
/// its share of seconds to the phase's credit, and rounds run while the
/// credit is positive. A round that costs more than one slice's share runs
/// every few slices instead; the first slice always runs one.
class Pacer {
 public:
  template <class Round>
  void run(double seconds, Round&& round) {
    credit_ += seconds;
    while (credit_ > 0.0 || rounds_ == 0) {
      credit_ -= timed(round);
      ++rounds_;
    }
  }

 private:
  double credit_ = 0.0;
  std::size_t rounds_ = 0;
};

/// Keeps the optimizer from discarding a computed buffer.
inline void keep(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

// ---------------------------------------------------------------------------
// Seeded inputs. Every input stream is derived from (run seed, stream id), so
// one seed always produces the same inputs whatever order they are drawn in.

class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream)
      : state_(seed * 0x9E3779B97F4A7C15ull ^ (stream + 1) * 0xD1B54A32D192ED03ull) {
    next();
  }
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, k) (k >= 1), by multiply-shift.
  std::uint32_t below(std::uint64_t k) {
    return static_cast<std::uint32_t>(((next() >> 32) * k) >> 32);
  }

 private:
  std::uint64_t state_;
};

inline void fill_labels(std::span<label_t> out, std::size_t m, Rng& rng) {
  for (auto& l : out) l = rng.below(m);
}

/// Operand sets the workloads mix. int32 Plus operands stay in [-64, 64] so
/// no partial sum of 2^22 elements leaves int32 range (signed overflow in
/// Plus is undefined). double Plus operands are multiples of 2^-10 in
/// [-0.5, 0.5]: every partial sum of up to 2^22 of them is exactly
/// representable, so the result is exact under any association and
/// memcmp-comparable with the reference.
enum class OpKind { kI32Plus, kF64Plus, kI32Max };

inline const char* op_name(OpKind k) {
  switch (k) {
    case OpKind::kI32Plus: return "i32+";
    case OpKind::kF64Plus: return "f64+";
    case OpKind::kI32Max: return "i32max";
  }
  return "?";
}

inline void fill_values(std::span<std::int32_t> out, OpKind k, Rng& rng) {
  if (k == OpKind::kI32Max) {
    for (auto& v : out) v = static_cast<std::int32_t>(rng.next() >> 32);
  } else {
    for (auto& v : out) v = static_cast<std::int32_t>(rng.below(129)) - 64;
  }
}

inline void fill_values(std::span<double> out, Rng& rng) {
  for (auto& v : out) v = static_cast<double>(static_cast<int>(rng.below(1025)) - 512) / 1024.0;
}

// ---------------------------------------------------------------------------
// Reference oracle: the plain per-label loop. prefix may be empty
// (multireduce); reduction has m slots, identity where no label occurs.

template <class T, class Combine>
void reference(std::span<const T> values, std::span<const label_t> labels, std::size_t m,
               T identity, Combine combine, std::span<T> prefix, std::vector<T>& reduction) {
  reduction.assign(m, identity);
  const bool want_prefix = !prefix.empty();
  for (std::size_t i = 0; i < values.size(); ++i) {
    T& acc = reduction[labels[i]];
    if (want_prefix) prefix[i] = acc;
    acc = combine(acc, values[i]);
  }
}

inline void reference_i32(OpKind k, std::span<const std::int32_t> v,
                          std::span<const label_t> l, std::size_t m,
                          std::span<std::int32_t> prefix, std::vector<std::int32_t>& red) {
  if (k == OpKind::kI32Max) {
    reference<std::int32_t>(v, l, m, std::numeric_limits<std::int32_t>::min(),
                            [](std::int32_t a, std::int32_t b) { return a < b ? b : a; },
                            prefix, red);
  } else {
    reference<std::int32_t>(v, l, m, 0,
                            [](std::int32_t a, std::int32_t b) { return a + b; }, prefix,
                            red);
  }
}

inline void reference_f64(std::span<const double> v, std::span<const label_t> l, std::size_t m,
                          std::span<double> prefix, std::vector<double>& red) {
  reference<double>(v, l, m, 0.0, [](double a, double b) { return a + b; }, prefix, red);
}

template <class T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// ---------------------------------------------------------------------------
// Run accounting and the report

struct PhaseCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics_)
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    metrics_.push_back({name, value, unit});
  }

  /// One operation of `phase`: attempted, and failed when `ok` is false
  /// (a typed error or a shed request).
  void op(const std::string& phase, bool ok = true) {
    auto& p = phases_[phase];
    ++p.attempted;
    if (!ok) ++p.failed;
  }

  /// A wrong output: the run reports correct=false and exits non-zero.
  void wrong(const std::string& what) {
    if (wrong_count_++ < 20) std::fprintf(stderr, "perfbench: WRONG OUTPUT: %s\n", what.c_str());
    correct_ = false;
  }
  void check(bool ok, const std::string& what) {
    if (!ok) wrong(what);
  }

  bool correct() const { return correct_; }
  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  /// Prints the per-phase accounting line and then the result object as the
  /// last line of standard output.
  void print(const std::string& host_json) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::map<std::string, PhaseCount> phases_;
  bool correct_ = true;
  std::uint64_t wrong_count_ = 0;
};

/// What every section gets: the seed, where it may write files, and the
/// report.
struct Context {
  std::uint64_t seed = 1;
  std::string data_dir;
  Report report;
};

/// One scenario of the benchmark. Inputs are generated by the constructor
/// (never timed); setup() is the program's own set-up and is what setup_s
/// times. slice() measures whole rounds of every phase for about `seconds`
/// and keeps the samples; the run interleaves the slices of all scenarios so
/// that each metric samples the whole run. finish() reports the end-to-end
/// metrics from all slices; layers() reports the per-layer metrics of the
/// timed run.
class Section {
 public:
  virtual ~Section() = default;
  virtual void setup() = 0;
  virtual void teardown() = 0;
  virtual void slice(double seconds) = 0;
  virtual void finish() = 0;
  virtual void layers() = 0;
};

std::unique_ptr<Section> make_bulk(Context& ctx);
std::unique_ptr<Section> make_serve(Context& ctx);
std::unique_ptr<Section> make_cmfd(Context& ctx);
/// Per-layer probes of common, core, simd, parallel, sparse and obs.
void library_layers(Context& ctx);

}  // namespace perfbench
