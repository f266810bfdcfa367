// End-to-end benchmark driver: runs one workload for a fixed time and
// prints its result as one JSON line (see README.md).
//
//   e2e_bench --workload cached-remote|pfs-stream|sim-sweep --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Everything but the final JSON line goes to stderr.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace e2e {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every per-layer metric of the traced run, in report order.  A workload
// overwrites the layers it exercises; the rest read 0.
constexpr MetricSpec kPerLayer[] = {
    {"trace.samples_per_s", "samples/s"},
    {"runtime.setup_s", "s"},
    {"runtime.loop_s", "s"},
    {"runtime.iter_p50_us", "us"},
    {"runtime.iter_p99_us", "us"},
    {"loader.stall_s", "s"},
    {"loader.local_fetches", "count"},
    {"loader.remote_fetches", "count"},
    {"loader.remote_misses", "count"},
    {"loader.pfs_fetches", "count"},
    {"loader.pfs_mb", "MB"},
    {"loader.remote_hit_ratio", "ratio"},
    {"core.stream_s", "s"},
    {"core.plan_s", "s"},
    {"net.rendezvous_s", "s"},
    {"net.allgather.s", "s"},
    {"net.fetch.calls", "count"},
    {"net.fetch.p50_us", "us"},
    {"net.fetch.p99_us", "us"},
    {"net.fetch.mb", "MB"},
    {"net.barrier.calls", "count"},
    {"net.barrier.p50_us", "us"},
    {"net.barrier.p99_us", "us"},
    {"net.pfs_adjust.calls", "count"},
    {"net.pfs_adjust.p50_us", "us"},
    {"net.watermark.calls", "count"},
    {"net.watermark.p50_us", "us"},
    {"tiers.staging.write.calls", "count"},
    {"tiers.staging.write.busy_s", "s"},
    {"tiers.cache.read.calls", "count"},
    {"tiers.cache.read.busy_s", "s"},
    {"tiers.cache.write.calls", "count"},
    {"tiers.cache.write.busy_s", "s"},
    {"tiers.nic.reserve.calls", "count"},
    {"tiers.nic.delay_s", "s"},
    {"sim.cells", "count"},
    {"sim.accesses", "count"},
    {"sim.cell_p50_s", "s"},
    {"sim.cell_max_s", "s"},
    {"sim.sweep_wall_s", "s"},
    {"sim.sweep_busy_s", "s"},
    {"critpath.record_overhead_s", "s"},
    {"critpath.edges", "count"},
    {"critpath.walk_s", "s"},
};

constexpr const char* kOpNames[] = {
    "net.rendezvous", "net.allgather",  "net.barrier",       "net.fetch",
    "net.pfs_adjust", "net.watermark",  "tiers.staging.write", "tiers.cache.read",
    "tiers.cache.write", "tiers.nic.reserve", "tiers.nic.transfer",
    "runtime.setup", "runtime.loop", "core.stream", "core.plan", "sim.cell",
    "sim.sweep", "critpath.record", "critpath.walk",
};
static_assert(std::size(kOpNames) == static_cast<std::size_t>(Op::kCount));

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "e2e_bench: " << error << "\n"
            << "usage: e2e_bench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage("unknown workload " + args.workload);
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

/// Shortest round-trip decimal form, so every digit measured is kept.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string result_json(const Outcome& outcome) {
  std::ostringstream out;
  out << "{\"correct\": " << (outcome.correct ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted
      << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : outcome.metrics) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << name << "\": {\"value\": " << json_number(metric.value)
        << ", \"unit\": \"" << metric.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// bench.hpp helpers.

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(xs.size()));
  const auto index = static_cast<std::size_t>(std::clamp(rank, 1.0,
                                                         static_cast<double>(xs.size())));
  return xs[index - 1];
}

std::vector<Span> Tracer::spans_of(std::uint32_t round) const {
  const std::scoped_lock lock(mutex_);
  std::vector<Span> out;
  for (const Span& span : spans_) {
    if (span.round == round) out.push_back(span);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const auto put = [&out](const auto& value) {
    out.write(reinterpret_cast<const char*>(&value), sizeof value);
  };
  out.write("E2ESPAN1", 8);
  put(static_cast<std::uint32_t>(Op::kCount));
  for (const char* name : kOpNames) {
    out.write(name, static_cast<std::streamsize>(std::strlen(name) + 1));
  }
  const std::scoped_lock lock(mutex_);
  put(static_cast<std::uint64_t>(spans_.size()));
  for (const Span& span : spans_) {
    put(static_cast<std::uint16_t>(span.op));
    put(span.rank);
    put(span.round);
    put(span.start_ns);
    put(span.end_ns);
    put(span.arg);
  }
  return static_cast<bool>(out);
}

std::map<Op, OpStats> op_stats(const std::vector<Span>& spans) {
  std::map<Op, OpStats> stats;
  for (const Span& span : spans) {
    OpStats& s = stats[span.op];
    ++s.calls;
    s.busy_s += span.seconds();
    s.arg_sum += span.arg;
    s.durations_s.push_back(span.seconds());
  }
  return stats;
}

std::vector<nopfs::net::Bytes> ProbeTransport::allgather(nopfs::net::Bytes local) {
  const auto start = now_ns();
  auto all = inner_.allgather(std::move(local));
  span(Op::kAllgather, start);
  return all;
}

void ProbeTransport::barrier() {
  const auto start = now_ns();
  inner_.barrier();
  span(Op::kBarrier, start);
}

std::optional<nopfs::net::Bytes> ProbeTransport::fetch_sample(int peer,
                                                              std::uint64_t id) {
  const auto start = now_ns();
  auto bytes = inner_.fetch_sample(peer, id);
  const std::size_t received = bytes.has_value() ? bytes->size() : 0;
  fetched_bytes_.fetch_add(received, std::memory_order_relaxed);
  span(Op::kFetch, start, static_cast<double>(received) / (1024.0 * 1024.0));
  return bytes;
}

int ProbeTransport::pfs_adjust(int delta) {
  const auto start = now_ns();
  const int gamma = inner_.pfs_adjust(delta);
  pfs_delta_sum_.fetch_add(delta, std::memory_order_relaxed);
  span(Op::kPfsAdjust, start, delta);
  return gamma;
}

void ProbeTransport::publish_watermark(std::uint64_t position) {
  const auto start = now_ns();
  inner_.publish_watermark(position);
  span(Op::kWatermark, start);
}

void trace_devices(nopfs::tiers::WorkerDevices& devices, Tracer& tracer, int rank) {
  // The staging ring is written by the prefetchers and consumed in place,
  // never read through its device.
  devices.staging = std::make_unique<TracedTier>(std::move(devices.staging), tracer,
                                                 rank, Op::kCount, Op::kStagingWrite);
  for (auto& tier : devices.tiers) {
    tier = std::make_unique<TracedTier>(std::move(tier), tracer, rank, Op::kCacheRead,
                                        Op::kCacheWrite);
  }
  devices.nic = std::make_unique<TracedNic>(std::move(devices.nic), tracer, rank);
}

void set_per_layer_metrics(Outcome& outcome,
                           const std::vector<std::map<std::string, double>>& rounds) {
  for (const MetricSpec& spec : kPerLayer) {
    std::vector<double> values;
    for (const auto& round : rounds) {
      const auto it = round.find(spec.name);
      if (it != round.end()) values.push_back(it->second);
    }
    outcome.set(spec.name, median(values), spec.unit);
  }
}

void log_rounds(const std::vector<double>& rates) {
  std::cerr << "e2e_bench: samples/s per round:";
  for (const double rate : rates) std::cerr << " " << static_cast<long long>(rate);
  std::cerr << "\n";
}

int allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) {
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  return std::max(1, CPU_COUNT(&set));
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"cached-remote", "pfs-stream",
                                                 "sim-sweep"};
  return names;
}

}  // namespace e2e

int main(int argc, char** argv) {
  const e2e::Args args = e2e::parse_args(argc, argv);

  std::optional<e2e::Tracer> tracer;
  if (args.trace) tracer.emplace();
  e2e::Tracer* trace = tracer.has_value() ? &*tracer : nullptr;

  std::cerr << "e2e_bench: " << args.workload << " seed " << args.seed << " on "
            << e2e::allowed_cpus() << " allowed CPUs ("
            << std::thread::hardware_concurrency() << " online)\n";
  e2e::Outcome outcome;
  try {
    outcome = args.workload == "sim-sweep" ? e2e::run_sim_workload(args, trace)
                                           : e2e::run_runtime_workload(args, trace);
  } catch (const std::exception& ex) {
    std::cerr << "e2e_bench: " << args.workload << " failed: " << ex.what() << "\n";
    return 1;
  }

  if (trace != nullptr && !args.trace_out.empty()) {
    if (!trace->write(args.trace_out)) {
      std::cerr << "e2e_bench: cannot write span dump " << args.trace_out << "\n";
      return 1;
    }
    std::cerr << "e2e_bench: wrote " << trace->size() << " spans to " << args.trace_out
              << "\n";
  }
  for (const auto& error : outcome.errors) {
    std::cerr << "e2e_bench: FAILED: " << error << "\n";
  }
  std::cout << e2e::result_json(outcome) << std::endl;
  return 0;
}
