// The two real-time workloads: a 2-rank NoPFS training job over
// SocketTransport on loopback, one thread per rank in this process.
//
//   cached-remote  ImageNet-like samples; the dataset fits in the two
//                  ranks' caches together but not in either one alone.
//   pfs-stream     small samples, no cache, no remote fetches: every
//                  access is a PFS read priced under job-wide gamma.
//
// A round is one whole job (rendezvous, setup, every epoch, teardown);
// a run repeats rounds until its time is used up and reports medians.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <iostream>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/access_stream.hpp"
#include "core/cache_policy.hpp"
#include "net/socket_transport.hpp"
#include "runtime/harness.hpp"
#include "tiers/clock.hpp"
#include "tiers/devices.hpp"

namespace e2e {

namespace {

using namespace nopfs;

constexpr int kWorld = 2;

struct RuntimeWorkload {
  data::DatasetSpec dataset;
  runtime::RuntimeConfig config;
};

util::ThroughputCurve linear(double mbps) {
  return util::ThroughputCurve({{0.0, 0.0}, {1.0, mbps}});
}

tiers::StorageClassParams memory_class(const char* name, double capacity_mb,
                                       double mbps) {
  tiers::StorageClassParams cls;
  cls.name = name;  // no ssd_dir is configured, so "ssd" is memory-backed too
  cls.capacity_mb = capacity_mb;
  cls.prefetch_threads = 1;
  cls.read_mbps = linear(mbps);
  cls.write_mbps = linear(mbps);
  return cls;
}

/// A 2-rank node shape whose emulated devices are fast enough that the
/// measured rate is the middleware's: one staging prefetcher and one
/// prefetcher per cache class, no compute or preprocessing, a PFS at
/// 10 GB/s per client and a 24 GB/s NIC (faster than the PFS share, so the
/// cost model prefers a peer's cache).
tiers::SystemParams fast_system(double staging_mb, double ram_mb, double ssd_mb) {
  tiers::SystemParams sys;
  sys.name = "e2e-fast";
  sys.num_workers = kWorld;
  sys.node.staging.capacity_mb = staging_mb;
  sys.node.staging.prefetch_threads = 1;
  sys.node.staging.read_mbps = linear(100'000.0);
  sys.node.staging.write_mbps = linear(100'000.0);
  sys.node.classes = {memory_class("ram", ram_mb, 85'000.0),
                      memory_class("ssd", ssd_mb, 40'000.0)};
  sys.node.network_mbps = 24'000.0;
  sys.node.compute_mbps = 0.0;
  sys.node.preprocess_mbps = 0.0;
  sys.pfs.agg_read_mbps =
      util::ThroughputCurve({{1, 10'000.0}, {2, 20'000.0}, {4, 40'000.0}});
  sys.pfs.op_rate_per_s = 0.0;
  return sys;
}

runtime::RuntimeConfig base_config(std::uint64_t seed) {
  runtime::RuntimeConfig config;
  config.loader = baselines::LoaderKind::kNoPFS;
  config.seed = seed;
  config.time_scale = 1.0;  // virtual time == real time
  config.skip_compute = true;
  config.drop_last = true;
  return config;
}

RuntimeWorkload make_workload(const std::string& name, std::uint64_t seed) {
  RuntimeWorkload w;
  if (name == "cached-remote") {
    // ImageNet-1k-like sizes (mean 0.1077 MB, sigma 0.1 MB).  Each rank
    // caches 60% of the dataset (35% RAM + 25% "ssd"): together they can
    // hold it, alone they cannot.
    w.dataset = data::DatasetSpec{"imagenet-like", 2048, 0.1077, 0.1, 1000};
    const double total_mb = 2048 * 0.1077;
    w.config = base_config(seed);
    w.config.system = fast_system(16.0, 0.35 * total_mb, 0.25 * total_mb);
    w.config.num_epochs = 8;
    w.config.per_worker_batch = 64;
  } else {
    // Small samples (mean 4 KB), per-worker batch 4: the strong-scaling end
    // of the batch-size study, where the per-iteration barrier is a large
    // share of each step.
    w.dataset = data::DatasetSpec{"small", 16384, 0.004, 0.002, 1};
    w.config = base_config(seed);
    w.config.system = fast_system(2.0, 0.0, 0.0);
    w.config.num_epochs = 2;
    w.config.per_worker_batch = 4;
    w.config.router.use_remote = false;
  }
  return w;
}

core::StreamConfig stream_config(const data::Dataset& dataset,
                                 const runtime::RuntimeConfig& config) {
  core::StreamConfig stream;
  stream.seed = config.seed;
  stream.num_samples = dataset.num_samples();
  stream.num_workers = config.system.num_workers;
  stream.num_epochs = config.num_epochs;
  stream.global_batch = config.global_batch();
  stream.drop_last = config.drop_last;
  return stream;
}

// The delivered-digest contract, computed here from the access stream: an
// FNV-1a over each rank's delivered sample ids in order, finalized with a
// rank-keyed splitmix64 and XOR-combined across ranks.
std::uint64_t expected_digest(const core::AccessStreamGenerator& gen) {
  std::uint64_t combined = 0;
  for (int rank = 0; rank < gen.config().num_workers; ++rank) {
    std::uint64_t digest = 1469598103934665603ull;
    for (const data::SampleId id : gen.worker_stream(rank)) {
      for (int shift = 0; shift < 64; shift += 8) {
        digest = (digest ^ ((id >> shift) & 0xff)) * 1099511628211ull;
      }
    }
    std::uint64_t z = digest + 0x9E3779B97F4A7C15ull *
                                   (static_cast<std::uint64_t>(rank) + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    combined ^= z ^ (z >> 31);
  }
  return combined;
}

std::uint64_t distinct_samples(const core::AccessStreamGenerator& gen) {
  std::set<data::SampleId> seen;
  for (int rank = 0; rank < gen.config().num_workers; ++rank) {
    for (const data::SampleId id : gen.worker_stream(rank)) seen.insert(id);
  }
  return seen.size();
}

/// A free loopback port below Linux's default ephemeral range (32768 and
/// up).  The ranks' own serve listeners bind port 0 and their dials take
/// ephemeral ports, so an ephemeral rendezvous port (net::pick_free_port)
/// can be handed to one of them before rank 0 binds it, and the job then
/// hangs until its rendezvous timeout.
std::uint16_t rendezvous_port() {
  constexpr int low = 10000;
  constexpr int span = 32768 - low;
  static std::mt19937 rng(std::random_device{}());
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const auto port = static_cast<std::uint16_t>(low + static_cast<int>(rng() % span));
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    const bool free = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    ::close(fd);
    if (free) return port;
  }
  return net::pick_free_port();
}

struct RankRun {
  runtime::RuntimeResult result;
  std::int64_t end_ns = 0;  ///< run_distributed returned
  long long pfs_delta_sum = 0;
  std::uint64_t fetched_bytes = 0;
  std::string error;
};

struct JobRun {
  std::array<RankRun, kWorld> ranks;
  std::int64_t start_ns = 0;
  double cpu_s = 0.0;

  [[nodiscard]] double loop_s() const { return ranks[0].result.total_s; }
  /// When the first iteration began: the call's return minus the loop.
  /// The difference also holds the end-of-run stats allgather (well
  /// under a millisecond on loopback).
  [[nodiscard]] std::int64_t first_iteration_ns() const {
    return ranks[0].end_ns - static_cast<std::int64_t>(loop_s() * 1e9);
  }
};

/// One whole 2-rank job.  `probe` wraps each rank's transport in a
/// ProbeTransport (counts for the checks); `tracer` adds spans and traced
/// devices.
JobRun run_job(const data::Dataset& dataset, const runtime::RuntimeConfig& config,
               bool probe, Tracer* tracer) {
  JobRun job;
  const std::uint16_t port = rendezvous_port();
  const double cpu0 = process_cpu_s();
  job.start_ns = now_ns();
  std::vector<std::thread> threads;
  for (int rank = 0; rank < kWorld; ++rank) {
    threads.emplace_back([&, rank] {
      RankRun& out = job.ranks[static_cast<std::size_t>(rank)];
      try {
        tiers::RealClock clock;
        tiers::EmulatedCluster cluster(clock, config.system, config.time_scale);
        if (tracer != nullptr) trace_devices(cluster.worker(rank), *tracer, rank);
        net::SocketOptions options;
        options.rank = rank;
        options.world_size = kWorld;
        options.rendezvous_port = port;
        options.timeout_s = 60.0;
        options.nic = cluster.worker(rank).nic.get();
        options.gossip = config.pfs_gossip;
        options.time_scale = config.time_scale;
        const auto rendezvous_start = now_ns();
        net::SocketTransport transport(options);
        if (tracer != nullptr) {
          tracer->record(Op::kRendezvous, rank, rendezvous_start, now_ns());
        }
        if (probe || tracer != nullptr) {
          ProbeTransport wrapped(transport, tracer);
          out.result = runtime::run_distributed(dataset, config, wrapped, &cluster);
          out.end_ns = now_ns();
          out.pfs_delta_sum = wrapped.pfs_delta_sum();
          out.fetched_bytes = wrapped.fetched_bytes();
        } else {
          out.result = runtime::run_distributed(dataset, config, transport, &cluster);
          out.end_ns = now_ns();
        }
      } catch (const std::exception& ex) {
        out.error = ex.what();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  job.cpu_s = process_cpu_s() - cpu0;
  return job;
}

/// Checks every job must pass, timed or not.  Returns false when the job
/// failed: a rank threw or timed out (noted, not a wrong output) or an
/// output check failed (which also makes the run incorrect).
bool check_job(const JobRun& job, const std::string& workload, std::uint64_t delivered,
               std::uint64_t digest, std::uint64_t distinct, Outcome& outcome) {
  bool ok = true;
  for (int rank = 0; rank < kWorld; ++rank) {
    const std::string& error = job.ranks[static_cast<std::size_t>(rank)].error;
    if (!error.empty()) {
      outcome.note_failure("rank " + std::to_string(rank) + " failed: " + error);
      ok = false;
    }
  }
  if (!ok) return false;
  const runtime::RuntimeResult& r = job.ranks[0].result;
  std::ostringstream hex;
  hex << std::hex << r.delivered_digest << " vs " << digest;
  ok &= outcome.check(r.delivered_digest == digest,
                      "delivered digest differs from the access stream's: " + hex.str());
  ok &= outcome.check(job.ranks[1].result.delivered_digest == r.delivered_digest,
                      "ranks report different job-wide digests");
  ok &= outcome.check(r.verification_failures == 0, "content mismatches reported");
  ok &= outcome.check(r.pfs_peak_gamma >= 1 && r.pfs_peak_gamma <= kWorld,
                      "peak gamma " + std::to_string(r.pfs_peak_gamma) +
                          " outside [1, reader weight " + std::to_string(kWorld) + "]");
  if (workload == "pfs-stream") {
    ok &= outcome.check(r.stats.pfs_fetches == delivered,
                        "pfs_fetches " + std::to_string(r.stats.pfs_fetches) +
                            " != delivered " + std::to_string(delivered));
  } else {
    ok &= outcome.check(r.stats.pfs_fetches >= distinct,
                        "pfs_fetches " + std::to_string(r.stats.pfs_fetches) +
                            " < distinct samples " + std::to_string(distinct));
  }
  return ok;
}

/// The content-verified job's extra checks: every delivered byte checked,
/// plus the transport-level counts of the probe decorator.
bool check_verified_job(const JobRun& job, const std::string& workload,
                        std::uint64_t delivered, Outcome& outcome) {
  const runtime::RuntimeResult& r = job.ranks[0].result;
  bool ok = outcome.check(r.verified_samples == delivered,
                          "verified " + std::to_string(r.verified_samples) + " of " +
                              std::to_string(delivered) + " delivered samples");
  std::uint64_t fetched_bytes = 0;
  for (int rank = 0; rank < kWorld; ++rank) {
    const RankRun& rr = job.ranks[static_cast<std::size_t>(rank)];
    ok &= outcome.check(rr.pfs_delta_sum == 0,
                        "rank " + std::to_string(rank) + " pfs_adjust deltas sum to " +
                            std::to_string(rr.pfs_delta_sum) + " at teardown");
    fetched_bytes += rr.fetched_bytes;
  }
  // Each payload is floor(size_mb * 2^20) bytes, so the byte count may
  // fall short of the dataset sizes by under one byte per fetch.
  const double fetched_mb = static_cast<double>(fetched_bytes) / (1024.0 * 1024.0);
  const double slack_mb =
      (static_cast<double>(r.stats.remote_fetches) + 1.0) / (1024.0 * 1024.0);
  ok &= outcome.check(fetched_mb <= r.stats.remote_mb + 1e-9 &&
                          fetched_mb >= r.stats.remote_mb - slack_mb,
                      "bytes received by fetch_sample (" + std::to_string(fetched_mb) +
                          " MB) != loader remote_mb (" +
                          std::to_string(r.stats.remote_mb) + " MB)");
  if (workload == "pfs-stream") {
    ok &= outcome.check(r.stats.remote_fetches == 0 && fetched_bytes == 0,
                        "remote fetches on a workload with remote fetching off");
  } else {
    ok &= outcome.check(r.stats.remote_fetches > 0 && r.stats.local_fetches > 0,
                        "cached-remote served nothing from the caches");
  }
  return ok;
}

/// Per-layer metrics of one traced round.
std::map<std::string, double> layer_metrics(const JobRun& job,
                                            const std::vector<Span>& spans,
                                            std::uint64_t delivered) {
  const runtime::RuntimeResult& r = job.ranks[0].result;
  std::map<std::string, double> m;
  m["trace.samples_per_s"] = static_cast<double>(delivered) / job.loop_s();
  m["runtime.setup_s"] = ns_to_s(job.first_iteration_ns() - job.start_ns);
  m["runtime.loop_s"] = job.loop_s();
  std::vector<double> iters_us;
  for (const double s : r.batch_s_epoch0) iters_us.push_back(s * 1e6);
  for (const double s : r.batch_s_rest) iters_us.push_back(s * 1e6);
  m["runtime.iter_p50_us"] = percentile(iters_us, 50.0);
  m["runtime.iter_p99_us"] = percentile(iters_us, 99.0);

  m["loader.stall_s"] = r.stats.stall_s;
  m["loader.local_fetches"] = static_cast<double>(r.stats.local_fetches);
  m["loader.remote_fetches"] = static_cast<double>(r.stats.remote_fetches);
  m["loader.remote_misses"] = static_cast<double>(r.stats.remote_misses);
  m["loader.pfs_fetches"] = static_cast<double>(r.stats.pfs_fetches);
  m["loader.pfs_mb"] = r.stats.pfs_mb;
  const double remote_tries =
      static_cast<double>(r.stats.remote_fetches + r.stats.remote_misses);
  m["loader.remote_hit_ratio"] =
      remote_tries > 0.0 ? static_cast<double>(r.stats.remote_fetches) / remote_tries
                         : 0.0;

  const auto stats = op_stats(spans);
  const auto get = [&stats](Op op) -> OpStats {
    const auto it = stats.find(op);
    return it == stats.end() ? OpStats{} : it->second;
  };
  // Per-rank maxima for the set-up collectives (the job waits for the
  // slower rank); totals over both ranks for everything else.
  std::array<double, kWorld> rendezvous{};
  std::array<double, kWorld> allgather{};
  for (const Span& span : spans) {
    if (span.rank < 0 || span.rank >= kWorld) continue;
    if (span.op == Op::kRendezvous) rendezvous[span.rank] += span.seconds();
    if (span.op == Op::kAllgather) allgather[span.rank] += span.seconds();
  }
  m["net.rendezvous_s"] = std::max(rendezvous[0], rendezvous[1]);
  m["net.allgather.s"] = std::max(allgather[0], allgather[1]);
  m["core.stream_s"] = get(Op::kStream).busy_s;
  m["core.plan_s"] = get(Op::kPlan).busy_s;

  const OpStats fetch = get(Op::kFetch);
  m["net.fetch.calls"] = static_cast<double>(fetch.calls);
  m["net.fetch.p50_us"] = fetch.p_us(50.0);
  m["net.fetch.p99_us"] = fetch.p_us(99.0);
  m["net.fetch.mb"] = fetch.arg_sum;
  const OpStats barrier = get(Op::kBarrier);
  m["net.barrier.calls"] = static_cast<double>(barrier.calls);
  m["net.barrier.p50_us"] = barrier.p_us(50.0);
  m["net.barrier.p99_us"] = barrier.p_us(99.0);
  const OpStats adjust = get(Op::kPfsAdjust);
  m["net.pfs_adjust.calls"] = static_cast<double>(adjust.calls);
  m["net.pfs_adjust.p50_us"] = adjust.p_us(50.0);
  const OpStats watermark = get(Op::kWatermark);
  m["net.watermark.calls"] = static_cast<double>(watermark.calls);
  m["net.watermark.p50_us"] = watermark.p_us(50.0);

  const OpStats staging = get(Op::kStagingWrite);
  m["tiers.staging.write.calls"] = static_cast<double>(staging.calls);
  m["tiers.staging.write.busy_s"] = staging.busy_s;
  const OpStats cache_read = get(Op::kCacheRead);
  m["tiers.cache.read.calls"] = static_cast<double>(cache_read.calls);
  m["tiers.cache.read.busy_s"] = cache_read.busy_s;
  const OpStats cache_write = get(Op::kCacheWrite);
  m["tiers.cache.write.calls"] = static_cast<double>(cache_write.calls);
  m["tiers.cache.write.busy_s"] = cache_write.busy_s;
  const OpStats reserve = get(Op::kNicReserve);
  m["tiers.nic.reserve.calls"] = static_cast<double>(reserve.calls);
  // Serve-side reservation delays plus the requester's blocking transfers.
  m["tiers.nic.delay_s"] = reserve.arg_sum + get(Op::kNicTransfer).busy_s;
  return m;
}

}  // namespace

Outcome run_runtime_workload(const Args& args, Tracer* tracer) {
  Outcome outcome;
  const RuntimeWorkload workload = make_workload(args.workload, args.seed);
  const data::Dataset dataset = data::Dataset::synthetic(workload.dataset, args.seed);
  const runtime::RuntimeConfig& config = workload.config;
  const core::StreamConfig stream = stream_config(dataset, config);
  const std::uint64_t delivered = stream.iterations_per_epoch() * config.global_batch() *
                                  static_cast<std::uint64_t>(config.num_epochs);

  // Timed phase: whole jobs until the time is used up.
  std::vector<JobRun> jobs;
  std::vector<std::map<std::string, double>> layers;
  double rss_mb = 0.0;
  const std::int64_t measure_start = now_ns();
  do {
    const auto round = static_cast<std::uint32_t>(jobs.size());
    if (tracer != nullptr) {
      tracer->set_round(round);
      // core, called directly with this workload's stream config.
      const core::AccessStreamGenerator gen(stream);
      auto start = now_ns();
      for (int rank = 0; rank < kWorld; ++rank) (void)gen.worker_stream(rank);
      tracer->record(Op::kStream, -1, start, now_ns());
      start = now_ns();
      for (int rank = 0; rank < kWorld; ++rank) {
        (void)core::compute_cache_plan(gen, rank, dataset, config.system.node);
      }
      tracer->record(Op::kPlan, -1, start, now_ns());
    }
    jobs.push_back(run_job(dataset, config, /*probe=*/false, tracer));
    // Peak memory of a process that ran one job: later jobs in the same
    // process only add allocator fragmentation a one-job process never has.
    if (jobs.size() == 1) rss_mb = peak_rss_mb();
    const JobRun& job = jobs.back();
    if (tracer != nullptr && job.ranks[0].error.empty() && job.ranks[1].error.empty()) {
      tracer->record(Op::kJobSetup, 0, job.start_ns, job.first_iteration_ns());
      tracer->record(Op::kJobLoop, 0, job.first_iteration_ns(), job.ranks[0].end_ns);
      layers.push_back(layer_metrics(job, tracer->spans_of(round), delivered));
    }
  } while (ns_to_s(now_ns() - measure_start) < args.seconds);

  // Checks, outside the timed phase.  A failed job counts all its samples
  // as failed and is left out of the medians.
  const core::AccessStreamGenerator gen(stream);
  const std::uint64_t digest = expected_digest(gen);
  const std::uint64_t distinct = distinct_samples(gen);
  std::vector<const JobRun*> passed;
  for (const JobRun& job : jobs) {
    outcome.attempted += delivered;
    if (check_job(job, args.workload, delivered, digest, distinct, outcome)) {
      passed.push_back(&job);
    } else {
      outcome.failed += delivered;
    }
  }
  // One content-verified job per run, counted like the timed ones.
  runtime::RuntimeConfig verify = config;
  verify.verify_content = true;
  const JobRun verified = run_job(dataset, verify, /*probe=*/true, nullptr);
  outcome.attempted += delivered;
  if (!check_job(verified, args.workload, delivered, digest, distinct, outcome) ||
      !check_verified_job(verified, args.workload, delivered, outcome)) {
    outcome.failed += delivered;
  }
  std::cerr << "e2e_bench: " << args.workload << " rounds=" << jobs.size()
            << " failed rounds=" << jobs.size() - passed.size()
            << " reactor=" << verified.ranks[0].result.reactor_backend << "\n";

  if (tracer != nullptr) {
    set_per_layer_metrics(outcome, layers);
    return outcome;
  }

  std::vector<double> rates;
  std::vector<double> cpu;
  std::vector<double> setup;
  for (const JobRun* job : passed) {
    rates.push_back(static_cast<double>(delivered) / job->loop_s());
    cpu.push_back(job->cpu_s);
    // Devices, rendezvous, the plan allgather, the loader's start and cache
    // plan: everything of the job before its first iteration.
    setup.push_back(ns_to_s(job->first_iteration_ns() - job->start_ns));
  }
  log_rounds(rates);
  outcome.set("samples_per_s", median(rates), "samples/s");
  outcome.set("cpu_s", median(cpu), "s");
  outcome.set("peak_rss_mb", rss_mb, "MB");
  outcome.set("setup_s", median(setup), "s");
  return outcome;
}

}  // namespace e2e
