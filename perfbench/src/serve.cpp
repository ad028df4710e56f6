// The `serve` scenario: one serve::Frontend fed by an open-loop generator at
// kRate requests per second, with a collector that timestamps each future
// when it becomes ready, then a closed window of kWindow outstanding
// requests. Each slice runs both. The host's busy stretches only ever raise
// a slice's latency and lower its throughput: on the shared 4-CPU VM this
// was written on, stolen time stalls a CPU for 1-200 ms at random; in one
// run the slices' p50 stayed within 0.019-0.024 ms while their p99 ranged
// from 0.25 to 22 ms, and in a busier one a slice's p50 went from 0.02 to
// 17 ms and its closed-window throughput from 85k to 20k requests/s. So
// serve_latency_ms_p50 is the lower quartile over slices of each slice's
// p50, serve_capacity_rps the upper quartile over slices of each closed
// window's throughput (the calmer quarter of the run), and the tail is a
// per-layer figure of the timed run (serve.latency_ms_p99) with no bound;
// serve.gen_late_ms_p99 there shows the stalls.
//
// Request i is a pure function of (seed, i): 19 in 20 are tiny (n <= 1024,
// coalesced into the batched tiny-n kernel), 1 in 20 is medium (n in
// (12288, 16384], above coalesce_request_max_n, dispatched alone). They
// alternate between two tenants and mix typed and erased submits, int32 and
// double, multiprefix and multireduce, all on fresh labels. Every result is
// compared with the reference loop after the timed loop ends.
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <variant>

#include "bench.hpp"
#include "core/engine.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/frontend.hpp"

namespace perfbench {
namespace {

using mp::Engine;
using mp::serve::Frontend;

constexpr double kRate = 4000.0;      // open-loop requests per second
constexpr std::size_t kWindow = 64;   // closed-loop outstanding requests
constexpr std::size_t kMediumEvery = 20;

// With four or more CPUs the load generator and the collector each get a
// CPU of their own (the last two) and poll instead of sleeping, and the
// frontend's workers and the engine pool run on the rest, which are kept out
// of the idle state during the open loop. On the 4-CPU VM this was written
// on, sleeping client threads stalled the schedule by 1-28 ms (a woken
// worker preempting the generator, and idle-CPU wake-up latency) and the
// tail measured the host rather than the frontend. Threads inherit the
// affinity of the thread that creates them, which is how the frontend's and
// pool's threads land on the server CPUs.
bool partitioned() { return cpus() >= 4; }
unsigned generator_cpu() { return cpus() - 1; }
unsigned collector_cpu() { return partitioned() ? cpus() - 2 : cpus() - 1; }

/// Restricts the calling thread to CPUs [first, last] until destruction
/// (no-op on hosts too small to partition).
class PinScope {
 public:
  PinScope(unsigned first, unsigned last) {
    active_ = partitioned() &&
              pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_) == 0;
    if (!active_) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (unsigned c = first; c <= last; ++c) CPU_SET(c, &set);
    active_ = pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
  }
  ~PinScope() {
    if (active_) pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
  }
  PinScope(const PinScope&) = delete;
  PinScope& operator=(const PinScope&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

/// Keeps CPUs [0, count) out of the idle state with one lowest-priority
/// (SCHED_IDLE) spinning thread per CPU, for its lifetime.
class AwakeScope {
 public:
  explicit AwakeScope(unsigned count) {
    for (unsigned c = 0; c < count; ++c)
      threads_.emplace_back([this, c] {
        const PinScope pin(c, c);
        sched_param sp{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &sp);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
  }
  ~AwakeScope() {
    stop_ = true;
    for (auto& t : threads_) t.join();
  }
  AwakeScope(const AwakeScope&) = delete;
  AwakeScope& operator=(const AwakeScope&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

unsigned server_cpus() { return partitioned() ? cpus() - 2 : cpus(); }

struct Spec {
  std::size_t n = 0, m = 0;
  bool medium = false, erased = false, dbl = false, multiprefix = true;
  mp::serve::TenantId tenant = 0;
};

Spec spec_of(std::uint64_t seed, std::size_t i) {
  Rng r(seed, 1000000 + i);
  Spec s;
  s.medium = i % kMediumEvery == kMediumEvery / 2;
  s.n = s.medium ? 12289 + r.below(4096) : 16 + r.below(1009);
  const std::size_t loads[3] = {1, 16, 256};
  s.m = std::max<std::size_t>(1, s.n / loads[s.medium ? 1 + r.below(2) : r.below(3)]);
  s.tenant = static_cast<mp::serve::TenantId>(i & 1);
  s.erased = ((i >> 1) & 1) != 0;
  s.dbl = ((i >> 2) & 1) != 0;
  s.multiprefix = r.below(2) == 0;
  return s;
}

struct Inputs {
  std::vector<label_t> labels;
  std::vector<std::int32_t> vi;
  std::vector<double> vd;
};

Inputs inputs_of(std::uint64_t seed, std::size_t i, const Spec& s) {
  Rng r(seed, 2000000 + i);
  Inputs in;
  in.labels.resize(s.n);
  fill_labels(in.labels, s.m, r);
  if (s.dbl) {
    in.vd.resize(s.n);
    fill_values(std::span<double>(in.vd), r);
  } else {
    in.vi.resize(s.n);
    fill_values(std::span<std::int32_t>(in.vi), OpKind::kI32Plus, r);
  }
  return in;
}

using Future = std::variant<std::future<mp::MultiprefixResult<std::int32_t>>,
                            std::future<std::vector<std::int32_t>>,
                            std::future<mp::MultiprefixResult<double>>,
                            std::future<std::vector<double>>,
                            std::future<mp::serve::ErasedResult>>;

struct Pending {
  std::size_t index = 0;
  double due = 0.0;
  Future future;
};

/// A resolved request: its latency sample and the outcome the checker
/// compares with the reference.
struct Done {
  std::size_t index = 0;
  double latency = 0.0;
  bool ok = false;
  std::vector<std::byte> prefix, reduction;
};

template <class T>
std::vector<std::byte> bytes_of(std::span<const T> v) {
  std::vector<std::byte> b(v.size_bytes());
  if (!b.empty()) std::memcpy(b.data(), v.data(), b.size());
  return b;
}

/// Moves a ready future's result (or its typed error) into `d`.
void take(Future& f, Done& d) {
  try {
    std::visit(
        [&](auto& fut) {
          auto res = fut.get();
          using R = decltype(res);
          if constexpr (std::is_same_v<R, mp::serve::ErasedResult>) {
            d.prefix = std::move(res.prefix);
            d.reduction = std::move(res.reduction);
          } else if constexpr (requires { res.prefix; }) {
            using T = typename decltype(res.prefix)::value_type;
            d.prefix = bytes_of<T>(res.prefix);
            d.reduction = bytes_of<T>(res.reduction);
          } else {
            using T = typename R::value_type;
            d.reduction = bytes_of<T>(res);
          }
        },
        f);
    d.ok = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: request %zu failed: %s\n", d.index, e.what());
    d.ok = false;
  }
}

bool ready(Future& f) {
  return std::visit(
      [](auto& fut) { return fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready; },
      f);
}

/// Expected bytes of request i, from the reference loop.
void expected(std::uint64_t seed, std::size_t i, std::vector<std::byte>& prefix,
              std::vector<std::byte>& reduction) {
  const Spec s = spec_of(seed, i);
  const Inputs in = inputs_of(seed, i, s);
  if (s.dbl) {
    std::vector<double> p(s.multiprefix ? s.n : 0), red;
    reference_f64(in.vd, in.labels, s.m, p, red);
    prefix = bytes_of<double>(p);
    reduction = bytes_of<double>(red);
  } else {
    std::vector<std::int32_t> p(s.multiprefix ? s.n : 0), red;
    reference_i32(OpKind::kI32Plus, in.vi, in.labels, s.m, p, red);
    prefix = bytes_of<std::int32_t>(p);
    reduction = bytes_of<std::int32_t>(red);
  }
}

/// Per-request figures of an open-loop phase.
struct OpenLoop {
  std::vector<double> latency_ms, typed_ms, erased_ms, submit_us, late_ms;
};

class Serve final : public Section {
 public:
  explicit Serve(Context& ctx) : ctx_(ctx) {}

  void setup() override {
    const PinScope server(0, server_cpus() - 1);
    pool_ = std::make_unique<mp::ThreadPool>(server_cpus());
    Engine::Options eo;
    eo.pool = pool_.get();
    engine_ = std::make_unique<Engine>(eo);
    mp::serve::FrontendOptions fo;
    fo.engine = engine_.get();
    frontend_ = std::make_unique<Frontend>(fo);
  }

  void teardown() override {
    frontend_.reset();
    engine_.reset();
    pool_.reset();
  }

  void slice(double seconds) override {
    const AwakeScope awake(partitioned() ? server_cpus() : 0);
    const OpenLoop open = open_loop(static_cast<std::size_t>(0.7 * seconds * kRate) + 1);
    p50_ms_.push_back(quantile(open.latency_ms, 0.50));
    capacity_rps_.push_back(closed_window(0.3 * seconds));
  }

  void finish() override {
    Report& r = ctx_.report;
    r.metric("serve_latency_ms_p50", quantile(p50_ms_, 0.25), "ms");
    r.metric("serve_capacity_rps", quantile(capacity_rps_, 0.75), "req/s");
  }

  void layers() override {
    Report& r = ctx_.report;
    const auto before = frontend_->stats();
    OpenLoop open;
    {
      const AwakeScope awake(partitioned() ? server_cpus() : 0);
      open = open_loop(static_cast<std::size_t>(3.0 * kRate));
    }
    frontend_->wait_idle();
    const auto after = frontend_->stats();
    r.metric("serve.submit_us_p50", quantile(open.submit_us, 0.5), "us");
    r.metric("serve.latency_ms_p50.typed", quantile(open.typed_ms, 0.5), "ms");
    r.metric("serve.latency_ms_p50.erased", quantile(open.erased_ms, 0.5), "ms");
    r.metric("serve.latency_ms_p99", quantile(open.latency_ms, 0.99), "ms");
    r.metric("serve.gen_late_ms_p99", quantile(open.late_ms, 0.99), "ms");
    const double batches = static_cast<double>(after.coalesced_batches - before.coalesced_batches);
    const double coalesced =
        static_cast<double>(after.coalesced_requests - before.coalesced_requests);
    const double completed = static_cast<double>(after.completed - before.completed);
    r.metric("serve.batch_size_mean", batches > 0 ? coalesced / batches : 0.0, "req");
    r.metric("serve.coalesced_share", completed > 0 ? coalesced / completed : 0.0, "ratio");
    r.metric("serve.peak_queued", static_cast<double>(after.peak_queued), "req");

    // The service-time base: the same requests straight through the engine.
    std::vector<double> direct_us;
    std::vector<std::int32_t> pi, ri;
    std::vector<double> pd, rd;
    for (std::size_t i = 0; i < 2000; ++i) {
      const Spec s = spec_of(ctx_.seed, i);
      const Inputs in = inputs_of(ctx_.seed, i, s);
      pi.resize(s.n), pd.resize(s.n), ri.resize(s.m), rd.resize(s.m);
      direct_us.push_back(1e6 * timed([&] {
        if (s.dbl) {
          if (s.multiprefix)
            engine_->multiprefix_into<double>(in.vd, in.labels, std::span<double>(pd),
                                              std::span<double>(rd));
          else
            engine_->multireduce_into<double>(in.vd, in.labels, std::span<double>(rd));
        } else {
          if (s.multiprefix)
            engine_->multiprefix_into<std::int32_t>(in.vi, in.labels,
                                                    std::span<std::int32_t>(pi),
                                                    std::span<std::int32_t>(ri));
          else
            engine_->multireduce_into<std::int32_t>(in.vi, in.labels,
                                                    std::span<std::int32_t>(ri));
        }
      }));
    }
    r.metric("serve.direct_us_p50", quantile(direct_us, 0.5), "us");
  }

 private:
  Future submit(const Spec& s, Inputs in) {
    mp::serve::SubmitOptions so;
    so.tenant = s.tenant;
    if (s.erased) {
      mp::RequestDesc desc;
      desc.dtype = s.dbl ? mp::DType::kFloat64 : mp::DType::kInt32;
      desc.op = mp::OpKind::kPlus;
      desc.kind = s.multiprefix ? mp::RequestOp::kMultiprefix : mp::RequestOp::kMultireduce;
      const void* v = s.dbl ? static_cast<const void*>(in.vd.data()) : in.vi.data();
      return frontend_->submit(desc, v, in.labels.data(), s.n, s.m, so);
    }
    if (s.dbl) {
      if (s.multiprefix)
        return frontend_->submit_multiprefix<double>(std::move(in.vd), std::move(in.labels), s.m,
                                                     {}, so);
      return frontend_->submit_multireduce<double>(std::move(in.vd), std::move(in.labels), s.m,
                                                   {}, so);
    }
    if (s.multiprefix)
      return frontend_->submit_multiprefix<std::int32_t>(std::move(in.vi), std::move(in.labels),
                                                         s.m, {}, so);
    return frontend_->submit_multireduce<std::int32_t>(std::move(in.vi), std::move(in.labels),
                                                       s.m, {}, so);
  }

  /// `count` requests at kRate from a generator thread; the calling thread
  /// collects. Latency runs from each request's due time to the moment the
  /// collector saw its future ready.
  OpenLoop open_loop(std::size_t count) {
    OpenLoop out;
    std::mutex mu;
    std::deque<Pending> handoff;  // generator -> collector, guarded by mu
    std::atomic<bool> gen_done{false};
    const std::size_t first = next_index_;
    next_index_ += count;
    const double start = now_s() + 0.005;

    std::thread generator([&] {
      const PinScope pin(generator_cpu(), generator_cpu());
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t i = first + k;
        const double due = start + static_cast<double>(k) / kRate;
        while (now_s() < due) std::this_thread::yield();
        out.late_ms.push_back((now_s() - due) * 1e3);
        const Spec s = spec_of(ctx_.seed, i);
        Inputs in = inputs_of(ctx_.seed, i, s);
        const double ts = now_s();
        Future f = submit(s, std::move(in));
        out.submit_us.push_back((now_s() - ts) * 1e6);
        std::lock_guard<std::mutex> lock(mu);
        handoff.push_back(Pending{i, due, std::move(f)});
      }
      gen_done = true;
    });

    // The collector polls every outstanding future, so each one is stamped
    // within a poll of becoming ready, in whatever order they complete.
    std::vector<Done> done;
    done.reserve(count);
    {
      const PinScope pin(collector_cpu(), collector_cpu());
      std::deque<Pending> pending;
      for (;;) {
        const bool last = gen_done;
        {
          std::lock_guard<std::mutex> lock(mu);
          while (!handoff.empty()) {
            pending.push_back(std::move(handoff.front()));
            handoff.pop_front();
          }
        }
        if (pending.empty() && last) break;
        bool any = false;
        for (auto it = pending.begin(); it != pending.end();) {
          if (!ready(it->future)) {
            ++it;
            continue;
          }
          Done& d = done.emplace_back();
          d.index = it->index;
          d.latency = (now_s() - it->due) * 1e3;
          take(it->future, d);
          it = pending.erase(it);
          any = true;
        }
        if (!any) std::this_thread::yield();
      }
    }
    generator.join();

    for (Done& d : done) {
      ctx_.report.op("serve.open_loop", d.ok);
      if (!d.ok) continue;
      out.latency_ms.push_back(d.latency);
      (spec_of(ctx_.seed, d.index).erased ? out.erased_ms : out.typed_ms).push_back(d.latency);
      std::vector<std::byte> p, r;
      expected(ctx_.seed, d.index, p, r);
      if (p != d.prefix || r != d.reduction)
        ctx_.report.wrong("serve request " + std::to_string(d.index));
    }
    return out;
  }

  /// Capacity: keeps kWindow requests outstanding from this thread for
  /// `seconds` and returns completed requests per second. The requests cycle
  /// through kDistinct prepared ones whose inputs and expected outputs are
  /// computed before the window opens; every result is compared.
  double closed_window(double seconds) {
    constexpr std::size_t kDistinct = 512;
    struct Prepared {
      Spec spec;
      Inputs inputs;
      std::vector<std::byte> prefix, reduction;
    };
    std::vector<Prepared> prepared(kDistinct);
    const std::size_t first = next_index_;
    next_index_ += kDistinct;
    for (std::size_t k = 0; k < kDistinct; ++k) {
      Prepared& p = prepared[k];
      p.spec = spec_of(ctx_.seed, first + k);
      p.inputs = inputs_of(ctx_.seed, first + k, p.spec);
      expected(ctx_.seed, first + k, p.prefix, p.reduction);
    }
    const PinScope pin(collector_cpu(), collector_cpu());
    std::deque<Pending> window;
    std::size_t submitted = 0, completed = 0;
    auto send = [&] {
      const std::size_t k = submitted++ % kDistinct;
      window.push_back(Pending{k, 0.0, submit(prepared[k].spec, prepared[k].inputs)});
    };
    auto collect = [&] {
      // Polls like the open loop's collector: a client CPU that sleeps in
      // get() pays the host's idle wake-up latency on every window turn.
      while (!ready(window.front().future)) std::this_thread::yield();
      Done d;
      d.index = window.front().index;
      take(window.front().future, d);
      window.pop_front();
      ctx_.report.op("serve.closed_window", d.ok);
      const Prepared& p = prepared[d.index];
      if (d.ok && (d.prefix != p.prefix || d.reduction != p.reduction))
        ctx_.report.wrong("serve request " + std::to_string(first + d.index));
      ++completed;
    };
    const double t0 = now_s();
    while (window.size() < kWindow) send();
    double elapsed = 0.0;
    for (;;) {
      collect();
      elapsed = now_s() - t0;
      if (elapsed >= seconds && completed >= kDistinct) break;
      send();
    }
    const double rps = static_cast<double>(completed) / elapsed;
    while (!window.empty()) collect();
    return rps;
  }

  Context& ctx_;
  std::size_t next_index_ = 0;
  std::vector<double> p50_ms_, capacity_rps_;
  std::unique_ptr<mp::ThreadPool> pool_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Frontend> frontend_;
};

}  // namespace

std::unique_ptr<Section> make_serve(Context& ctx) { return std::make_unique<Serve>(ctx); }

}  // namespace perfbench
