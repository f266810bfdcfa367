// The sim-sweep workload: the fig10-imagenet1k policy grid (staging,
// NoPFS, perfect over 32-256 GPUs) at reduced scale through the in-process
// sweep service, plus one critical-path recording of a NoPFS cell and
// what-if re-walks of it.  No runtime, no sockets.
//
// A round is one whole sweep plus the recording and its walks; a run
// repeats rounds until its time is used up and reports medians.

#include <algorithm>
#include <iostream>
#include <map>
#include <thread>

#include "bench.hpp"
#include "core/access_stream.hpp"
#include "core/cache_policy.hpp"
#include "core/epoch_order_cache.hpp"
#include "critpath/cp_attribution.hpp"
#include "critpath/cp_registry.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/policy.hpp"
#include "sim/sweep_service.hpp"

namespace e2e {

namespace {

using namespace nopfs;

constexpr const char* kScenario = "fig10-imagenet1k";
constexpr double kScale = 1.0 / 8.0;  ///< ~160k samples of ImageNet-1k
constexpr const char* kRecordedPolicy = "nopfs";
/// Set-ups timed per run: one takes a few milliseconds, too short to
/// time alone within a tenth.
constexpr int kSetups = 21;

core::StreamConfig cell_stream(const sim::SweepPoint& point) {
  core::StreamConfig stream;
  stream.seed = point.config.seed;
  stream.num_samples = point.dataset->num_samples();
  stream.num_workers = point.config.system.num_workers;
  stream.num_epochs = point.config.num_epochs;
  stream.global_batch = point.config.global_batch();
  stream.drop_last = point.config.drop_last;
  return stream;
}

std::uint64_t cell_accesses(const sim::SimResult& result) {
  // The staging-write slot counts every staged access.
  return result.location_count[static_cast<int>(sim::Location::kStagingWrite)];
}

struct Round {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t accesses = 0;
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> cell_digests;  ///< empty when the grid was partial
  std::vector<bool> cell_ok;                ///< every cell's own checks passed
  std::map<std::string, double> layers;  ///< traced run only
};

}  // namespace

Outcome run_sim_workload(const Args& args, Tracer* tracer) {
  Outcome outcome;
  const scenario::Scenario& scn = scenario::get(kScenario);
  // Set-up: the dataset and the grid, built kSetups times (the last build
  // is kept); setup_s is the median.
  std::unique_ptr<const data::Dataset> dataset_ptr;
  std::vector<sim::SweepPoint> points;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t start = now_ns();
    auto built = std::make_unique<const data::Dataset>(
        scenario::sim_dataset(scn, kScale, args.seed));
    std::vector<sim::SweepPoint> grid =
        scenario::sweep_points(scn, *built, kScale, args.seed);
    setups.push_back(ns_to_s(now_ns() - start));
    points = std::move(grid);
    dataset_ptr = std::move(built);
  }
  const data::Dataset& dataset = *dataset_ptr;

  sim::SweepServiceOptions options;
  options.num_threads = allowed_cpus();
  const std::uint64_t signature = sim::sweep_grid_signature(points);
  std::size_t recorded = points.size();
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].policy == kRecordedPolicy) {
      recorded = i;  // the first NoPFS cell: the smallest GPU count
      break;
    }
  }
  if (recorded == points.size()) throw std::runtime_error("grid has no NoPFS cell");
  std::vector<std::unique_ptr<critpath::CostModel>> whatifs;
  for (const std::string& name : critpath::Registry::default_whatif()) {
    whatifs.push_back(critpath::Registry::instance().make(name));
  }

  // Traced cells: the same evaluation SweepRunner::run(points) performs,
  // with a span around each simulate() call.
  const auto traced_cell = [&](std::uint64_t i) {
    const sim::SweepPoint& point = points[i];
    auto policy = sim::make_policy(point.policy);
    sim::SimConfig config = point.config;
    config.share_epoch_orders = true;
    const auto start = now_ns();
    sim::SimResult result = sim::simulate(config, *point.dataset, *policy);
    tracer->record(Op::kCell, static_cast<int>(i), start, now_ns());
    return result;
  };

  std::vector<Round> rounds;
  double rss_mb = 0.0;
  const std::int64_t measure_start = now_ns();
  do {
    Round round;
    const auto index = static_cast<std::uint32_t>(rounds.size());
    if (tracer != nullptr) tracer->set_round(index);
    // Every round starts cold, as a fresh sweep process would.
    core::EpochOrderCache::global().clear();
    const double cpu0 = process_cpu_s();
    const std::int64_t start = now_ns();
    const sim::SweepServiceReport report =
        tracer != nullptr
            ? sim::run_sweep_service(nullptr, points.size(), traced_cell, signature,
                                     options)
            : sim::run_sweep_service(nullptr, points, options);
    const std::int64_t sweep_end = now_ns();

    critpath::DepGraphBuilder builder;
    sim::SimConfig config = points[recorded].config;
    config.share_epoch_orders = true;
    config.recorder = &builder;
    const auto policy = sim::make_policy(kRecordedPolicy);
    const sim::SimResult record = sim::simulate(config, dataset, *policy);
    const std::int64_t record_end = now_ns();

    const critpath::Attribution path = critpath::attribute(builder.graph());
    double walk_s = 0.0;
    bool walks_ok = true;
    for (const auto& model : whatifs) {
      const auto walk_start = now_ns();
      const critpath::Attribution whatif =
          critpath::attribute(builder.graph(), model.get());
      const auto walk_end = now_ns();
      walk_s += ns_to_s(walk_end - walk_start);
      if (tracer != nullptr) tracer->record(Op::kWalk, -1, walk_start, walk_end);
      walks_ok &= outcome.check(whatif.end_to_end_s > 0.0,
                                "what-if walk " + model->name() +
                                    " found no critical path");
    }
    const std::int64_t end = now_ns();
    round.cpu_s = process_cpu_s() - cpu0;
    round.wall_s = ns_to_s(end - start);

    // Checks of this round; a cell that fails one counts as failed.
    const std::vector<sim::SimResult>& results = report.results;
    round.cell_ok.assign(points.size(), false);
    if (!outcome.check(results.size() == points.size(), "sweep returned a partial grid")) {
      rounds.push_back(std::move(round));
      continue;
    }
    std::map<int, double> perfect_s;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (points[i].policy == "perfect") {
        perfect_s[points[i].config.system.num_workers] = results[i].total_s;
      }
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      const sim::SimResult& cell = results[i];
      const int gpus = points[i].config.system.num_workers;
      const core::StreamConfig stream = cell_stream(points[i]);
      const std::uint64_t expected = static_cast<std::uint64_t>(stream.num_epochs) *
                                     stream.iterations_per_epoch() *
                                     stream.global_batch;
      const std::string label = points[i].policy + "@" + std::to_string(gpus);
      bool ok = outcome.check(cell.supported,
                              label + " unsupported: " + cell.unsupported_reason);
      ok &= outcome.check(cell_accesses(cell) == expected,
                          label + " accesses " + std::to_string(cell_accesses(cell)) +
                              " != epochs x iterations x global batch " +
                              std::to_string(expected));
      ok &= outcome.check(perfect_s.contains(gpus) &&
                              cell.total_s >= perfect_s[gpus] * (1.0 - 1e-12),
                          label + " total_s below the perfect cell's");
      round.cell_ok[i] = ok;
      round.cell_digests.push_back(sim::sweep_results_digest({cell}));
      round.accesses += cell_accesses(cell);
    }
    round.accesses += cell_accesses(record);
    round.digest = sim::sweep_results_digest(results);
    // The recording and its walks are checked against the recorded cell.
    const double engine_s = builder.engine_total_s();
    bool recorded_ok = outcome.check(
        builder.complete() && std::abs(path.end_to_end_s - engine_s) <= 1e-9 * engine_s,
        "critical path " + std::to_string(path.end_to_end_s) + " s != engine total " +
            std::to_string(engine_s) + " s");
    recorded_ok &= outcome.check(sim::sweep_results_digest({record}) ==
                                     sim::sweep_results_digest({results[recorded]}),
                                 "the recorded run differs from its sweep cell");
    recorded_ok &= walks_ok;
    round.cell_ok[recorded] = round.cell_ok[recorded] && recorded_ok;

    if (tracer != nullptr) {
      const auto spans = tracer->spans_of(index);
      std::vector<double> cells;
      double recorded_cell_s = 0.0;
      for (const Span& span : spans) {
        if (span.op != Op::kCell) continue;
        cells.push_back(span.seconds());
        if (span.rank == static_cast<int>(recorded)) recorded_cell_s = span.seconds();
      }
      double busy = 0.0;
      for (const double s : cells) busy += s;
      auto& m = round.layers;
      m["trace.samples_per_s"] = static_cast<double>(round.accesses) / round.wall_s;
      m["sim.cells"] = static_cast<double>(cells.size());
      m["sim.accesses"] = static_cast<double>(round.accesses - cell_accesses(record));
      m["sim.cell_p50_s"] = percentile(cells, 50.0);
      m["sim.cell_max_s"] = percentile(cells, 100.0);
      m["sim.sweep_wall_s"] = ns_to_s(sweep_end - start);
      m["sim.sweep_busy_s"] = busy;
      m["critpath.record_overhead_s"] = ns_to_s(record_end - sweep_end) - recorded_cell_s;
      m["critpath.edges"] = static_cast<double>(builder.graph().num_edges());
      m["critpath.walk_s"] = walk_s;
      tracer->record(Op::kSweep, -1, start, sweep_end);
      tracer->record(Op::kRecord, -1, sweep_end, record_end);

      // core, called directly with the recorded cell's stream config.
      const core::AccessStreamGenerator gen(cell_stream(points[recorded]));
      const int workers = gen.config().num_workers;
      auto t = now_ns();
      for (int rank = 0; rank < workers; ++rank) (void)gen.worker_stream(rank);
      m["core.stream_s"] = ns_to_s(now_ns() - t);
      tracer->record(Op::kStream, -1, t, now_ns());
      t = now_ns();
      const tiers::NodeParams& node = points[recorded].config.system.node;
      for (int rank = 0; rank < workers; ++rank) {
        (void)core::compute_cache_plan(gen, rank, dataset, node);
      }
      m["core.plan_s"] = ns_to_s(now_ns() - t);
      tracer->record(Op::kPlan, -1, t, now_ns());
    }
    rounds.push_back(std::move(round));
    // Peak memory of a process that ran one sweep (see the runtime
    // workloads: later rounds only add allocator fragmentation).
    if (rounds.size() == 1) rss_mb = peak_rss_mb();
  } while (ns_to_s(now_ns() - measure_start) < args.seconds);

  // The sweep digest against a serial SweepRunner over the same grid, and
  // each cell against the serial run's cell.
  const std::vector<sim::SimResult> serial_results =
      sim::SweepRunner(sim::SweepOptions{1}).run(points);
  const std::uint64_t serial = sim::sweep_results_digest(serial_results);
  std::vector<const Round*> passed;
  for (Round& round : rounds) {
    outcome.check(round.digest == serial, "sweep digest differs from the serial one");
    for (std::size_t i = 0; i < round.cell_digests.size(); ++i) {
      round.cell_ok[i] = outcome.check(
                             round.cell_digests[i] ==
                                 sim::sweep_results_digest({serial_results[i]}),
                             "cell " + std::to_string(i) + " differs from the serial run's") &&
                         round.cell_ok[i];
    }
    const auto failed_cells = static_cast<std::uint64_t>(
        std::count(round.cell_ok.begin(), round.cell_ok.end(), false));
    outcome.attempted += points.size();
    outcome.failed += failed_cells;
    if (failed_cells == 0 && round.digest == serial) passed.push_back(&round);
  }
  std::cerr << "e2e_bench: sim-sweep rounds=" << rounds.size()
            << " cells=" << points.size() << " threads=" << options.num_threads
            << " samples=" << dataset.num_samples() << "\n";

  if (tracer != nullptr) {
    std::vector<std::map<std::string, double>> layers;
    for (const Round& round : rounds) layers.push_back(round.layers);
    set_per_layer_metrics(outcome, layers);
    return outcome;
  }
  std::vector<double> rates;
  std::vector<double> cpu;
  for (const Round* round : passed) {
    rates.push_back(static_cast<double>(round->accesses) / round->wall_s);
    cpu.push_back(round->cpu_s);
  }
  log_rounds(rates);
  outcome.set("samples_per_s", median(rates), "samples/s");
  outcome.set("cpu_s", median(cpu), "s");
  outcome.set("peak_rss_mb", rss_mb, "MB");
  outcome.set("setup_s", median(setups), "s");
  return outcome;
}

}  // namespace e2e
