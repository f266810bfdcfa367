#pragma once
// Shared pieces of the end-to-end benchmark driver: the command line, the
// clocks, the metric sink that prints the result JSON, and the traced
// run's span recorder with the decorators that feed it.
//
// The decorators wrap the public surfaces of the layers (net::Transport,
// tiers::TierDevice, tiers::NicDevice) from outside the library.  They
// exist only in the traced run and in the content-verified check pass;
// the runs that report end-to-end metrics call the library undecorated.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/transport.hpp"
#include "tiers/device_iface.hpp"

namespace e2e {

// ---------------------------------------------------------------------------
// Command line and clocks.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its span dump (empty = no dump).
  std::string trace_out;
};

/// steady_clock (CLOCK_MONOTONIC on Linux) in nanoseconds.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
[[nodiscard]] inline double ns_to_s(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}

/// User plus system CPU seconds of the whole process (every thread).
[[nodiscard]] double process_cpu_s();
/// Peak resident set of the process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// Nearest-rank percentile (q in [0, 100]) of `xs`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> xs, double q);
[[nodiscard]] inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 50.0);
}

// ---------------------------------------------------------------------------
// What one workload run hands back to main().

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;  ///< failures and failed checks, printed to stderr

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a correctness check; a false `ok` makes the run incorrect.
  bool check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
    return ok;
  }
  /// Records why an operation failed (a rank threw or timed out) without
  /// calling its outputs wrong; the caller counts it in `failed`.
  void note_failure(const std::string& what) { errors.push_back(what); }
};

// ---------------------------------------------------------------------------
// Tracing: one span per wrapped call, kept in memory, dumped at the end.

enum class Op : std::uint16_t {
  kRendezvous = 0,  ///< SocketTransport construction (handshake)
  kAllgather,
  kBarrier,
  kFetch,           ///< Transport::fetch_sample; arg = MB received
  kPfsAdjust,       ///< arg = delta
  kWatermark,
  kStagingWrite,    ///< arg = MB
  kCacheRead,       ///< arg = MB
  kCacheWrite,      ///< arg = MB
  kNicReserve,      ///< arg = returned delay (s)
  kNicTransfer,     ///< arg = MB
  kJobSetup,        ///< runtime: job start to first iteration
  kJobLoop,         ///< runtime: the training loop
  kStream,          ///< core: every rank's access stream
  kPlan,            ///< core: frequency analysis + cache plan, every rank
  kCell,            ///< sim: one simulate() call of the sweep
  kSweep,           ///< sim: the whole sweep
  kRecord,          ///< critpath: the recorded simulate() of one cell
  kWalk,            ///< critpath: one attribute() walk
  kCount
};

struct Span {
  Op op = Op::kCount;
  std::int16_t rank = -1;
  std::uint32_t round = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double arg = 0.0;

  [[nodiscard]] double seconds() const { return ns_to_s(end_ns - start_ns); }
};

class Tracer {
 public:
  void record(Op op, int rank, std::int64_t start_ns, std::int64_t end_ns,
              double arg = 0.0) {
    const Span span{op, static_cast<std::int16_t>(rank),
                    round_.load(std::memory_order_relaxed), start_ns, end_ns,
                    arg};
    const std::scoped_lock lock(mutex_);
    spans_.push_back(span);
  }

  /// Spans recorded from now on carry round `round`.
  void set_round(std::uint32_t round) {
    round_.store(round, std::memory_order_relaxed);
  }

  /// Every span of `round`, in recording order.
  [[nodiscard]] std::vector<Span> spans_of(std::uint32_t round) const;

  /// Writes every span as a binary dump (format in README.md).  Returns
  /// false when the file cannot be written.
  bool write(const std::string& path) const;

  [[nodiscard]] std::size_t size() const {
    const std::scoped_lock lock(mutex_);
    return spans_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::atomic<std::uint32_t> round_{0};
};

/// Per-op view of one round's spans.
struct OpStats {
  std::uint64_t calls = 0;
  double busy_s = 0.0;     ///< summed durations
  double arg_sum = 0.0;    ///< summed span args
  std::vector<double> durations_s;

  [[nodiscard]] double p_us(double q) const {
    return percentile(durations_s, q) * 1e6;
  }
};
[[nodiscard]] std::map<Op, OpStats> op_stats(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Decorators.

/// Transport decorator.  Always counts what the correctness checks need
/// (this rank's pfs_adjust delta sum, bytes received by fetch_sample);
/// records a span per call when given a tracer.
class ProbeTransport final : public nopfs::net::Transport {
 public:
  ProbeTransport(nopfs::net::Transport& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] int rank() const override { return inner_.rank(); }
  [[nodiscard]] int world_size() const override { return inner_.world_size(); }
  std::vector<nopfs::net::Bytes> allgather(nopfs::net::Bytes local) override;
  void barrier() override;
  void set_serve_handler(ServeHandler handler) override {
    inner_.set_serve_handler(std::move(handler));
  }
  std::optional<nopfs::net::Bytes> fetch_sample(int peer, std::uint64_t id) override;
  int pfs_adjust(int delta) override;
  void set_pfs_listener(PfsListener listener) override {
    inner_.set_pfs_listener(std::move(listener));
  }
  void publish_watermark(std::uint64_t position) override;
  [[nodiscard]] std::uint64_t watermark_of(int peer) const override {
    return inner_.watermark_of(peer);
  }
  [[nodiscard]] double transferred_mb() const override {
    return inner_.transferred_mb();
  }
  [[nodiscard]] const char* reactor_backend() const noexcept override {
    return inner_.reactor_backend();
  }

  [[nodiscard]] long long pfs_delta_sum() const {
    return pfs_delta_sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fetched_bytes() const {
    return fetched_bytes_.load(std::memory_order_relaxed);
  }

 private:
  void span(Op op, std::int64_t start, double arg = 0.0) {
    if (tracer_ != nullptr) tracer_->record(op, inner_.rank(), start, now_ns(), arg);
  }

  nopfs::net::Transport& inner_;
  Tracer* tracer_;
  std::atomic<long long> pfs_delta_sum_{0};
  std::atomic<std::uint64_t> fetched_bytes_{0};
};

/// TierDevice decorator: spans around read() and write() (`read_op` ==
/// Op::kCount leaves reads untraced).
class TracedTier final : public nopfs::tiers::TierDevice {
 public:
  TracedTier(std::unique_ptr<nopfs::tiers::TierDevice> inner, Tracer& tracer,
             int rank, Op read_op, Op write_op)
      : inner_(std::move(inner)),
        tracer_(tracer),
        rank_(rank),
        read_op_(read_op),
        write_op_(write_op) {}

  void read(double mb) override {
    const auto start = now_ns();
    inner_->read(mb);
    if (read_op_ != Op::kCount) tracer_.record(read_op_, rank_, start, now_ns(), mb);
  }
  void write(double mb) override {
    const auto start = now_ns();
    inner_->write(mb);
    tracer_.record(write_op_, rank_, start, now_ns(), mb);
  }
  [[nodiscard]] const std::string& name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] double capacity_mb() const noexcept override {
    return inner_->capacity_mb();
  }
  [[nodiscard]] double total_read_mb() const override { return inner_->total_read_mb(); }
  [[nodiscard]] double total_written_mb() const override {
    return inner_->total_written_mb();
  }

 private:
  std::unique_ptr<nopfs::tiers::TierDevice> inner_;
  Tracer& tracer_;
  int rank_;
  Op read_op_;
  Op write_op_;
};

/// NicDevice decorator: spans around the blocking transfer() (requester
/// side) and the non-blocking reserve_transfer() (serve side).
class TracedNic final : public nopfs::tiers::NicDevice {
 public:
  TracedNic(std::unique_ptr<nopfs::tiers::NicDevice> inner, Tracer& tracer, int rank)
      : inner_(std::move(inner)), tracer_(tracer), rank_(rank) {}

  void transfer(double mb) override {
    const auto start = now_ns();
    inner_->transfer(mb);
    tracer_.record(Op::kNicTransfer, rank_, start, now_ns(), mb);
  }
  [[nodiscard]] double reserve_transfer(double mb) override {
    const auto start = now_ns();
    const double delay = inner_->reserve_transfer(mb);
    tracer_.record(Op::kNicReserve, rank_, start, now_ns(), delay);
    return delay;
  }
  [[nodiscard]] double total_transferred_mb() const override {
    return inner_->total_transferred_mb();
  }

 private:
  std::unique_ptr<nopfs::tiers::NicDevice> inner_;
  Tracer& tracer_;
  int rank_;
};

/// Swaps tracing decorators into one rank's node devices.
void trace_devices(nopfs::tiers::WorkerDevices& devices, Tracer& tracer, int rank);

// ---------------------------------------------------------------------------
// Workloads (runtime_workloads.cpp, sim_workload.cpp).

/// Names accepted by --workload.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload for args.seconds and fills every metric of the mode
/// (end-to-end when untraced, per-layer when traced).  `tracer` is non-null
/// exactly in the traced run.
Outcome run_runtime_workload(const Args& args, Tracer* tracer);
Outcome run_sim_workload(const Args& args, Tracer* tracer);

/// Reports every per-layer metric: the median over rounds of each value in
/// `rounds`, and 0 for the layers the workload does not exercise.
void set_per_layer_metrics(Outcome& outcome,
                           const std::vector<std::map<std::string, double>>& rounds);

/// Prints each round's samples/s, in order, to stderr (diagnostics: a
/// slow stretch of the host shows as a run of low rounds).
void log_rounds(const std::vector<double>& rates);

/// CPUs this process may run on (what `nproc` reports).
[[nodiscard]] int allowed_cpus();

}  // namespace e2e
