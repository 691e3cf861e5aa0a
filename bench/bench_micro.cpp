// Micro-benchmarks (google-benchmark) for the substrates: packed logic
// simulation throughput, frontier fault simulation per fault,
// sparse matmul, GCN forward/training epoch, and graph construction.
#include <benchmark/benchmark.h>

#include "src/designs/designs.hpp"
#include "src/fault/collapse.hpp"
#include "src/fault/fault_sim.hpp"
#include "src/sim/scoap.hpp"
#include "src/graphir/features.hpp"
#include "src/graphir/graph.hpp"
#include "src/ml/trainer.hpp"
#include "src/sim/packed_sim.hpp"
#include "src/sim/probability.hpp"

namespace {

using namespace fcrit;

const designs::Design& design_by_index(int idx) {
  static const std::vector<designs::Design> kDesigns = [] {
    std::vector<designs::Design> out;
    for (const auto& name : designs::design_names())
      out.push_back(designs::build_design(name));
    return out;
  }();
  return kDesigns[static_cast<std::size_t>(idx)];
}

void BM_PackedSimCycle(benchmark::State& state) {
  const auto& d = design_by_index(static_cast<int>(state.range(0)));
  sim::PackedSimulator simulator(d.netlist);
  sim::StimulusGenerator stim(d.netlist, d.stimulus, 1);
  std::vector<std::uint64_t> words;
  for (auto _ : state) {
    stim.next_cycle(words);
    simulator.step(words);
    benchmark::DoNotOptimize(simulator.value(0));
  }
  // 64 lanes per step.
  state.SetItemsProcessed(state.iterations() * 64 *
                          static_cast<std::int64_t>(d.netlist.num_gates()));
  state.SetLabel(d.name + " gate-evals/s (x64 lanes)");
}
BENCHMARK(BM_PackedSimCycle)->Arg(0)->Arg(1)->Arg(2);

void BM_FaultSimPerFault(benchmark::State& state) {
  const auto& d = design_by_index(static_cast<int>(state.range(0)));
  fault::CampaignConfig cfg;
  cfg.cycles = 128;
  fault::FaultCampaign campaign(d.netlist, d.stimulus, cfg);
  campaign.run_golden();
  const auto faults = fault::full_fault_list(d.netlist);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(campaign.simulate_fault(faults[next]));
    next = (next + 7) % faults.size();
  }
  state.SetLabel(d.name);
}
BENCHMARK(BM_FaultSimPerFault)->Arg(0)->Arg(1)->Arg(2);

void BM_GraphBuild(benchmark::State& state) {
  const auto& d = design_by_index(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(graphir::build_graph(d.netlist));
  state.SetLabel(d.name);
}
BENCHMARK(BM_GraphBuild)->Arg(0)->Arg(1)->Arg(2);

void BM_SignalStats(benchmark::State& state) {
  const auto& d = design_by_index(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sim::estimate_by_simulation(d.netlist, d.stimulus, 1, 128));
  state.SetLabel(d.name + " (128 cycles x 64 lanes)");
}
BENCHMARK(BM_SignalStats)->Arg(0)->Arg(1)->Arg(2);

struct GcnFixture {
  graphir::CircuitGraph graph;
  ml::Matrix x;
  std::vector<int> labels;
  std::vector<int> train_idx;

  explicit GcnFixture(const designs::Design& d)
      : graph(graphir::build_graph(d.netlist)) {
    const auto stats = sim::estimate_by_simulation(d.netlist, d.stimulus,
                                                   1, 128);
    x = graphir::extract_features(d.netlist, stats);
    labels.assign(d.netlist.num_nodes(), 0);
    for (std::size_t i = 0; i < d.netlist.num_nodes(); ++i) {
      if (i % 2) labels[i] = 1;
      if (i % 5 == 0) train_idx.push_back(static_cast<int>(i));
    }
  }
};

void BM_SpmmForward(benchmark::State& state) {
  const auto& d = design_by_index(static_cast<int>(state.range(0)));
  GcnFixture f(d);
  util::Rng rng(1);
  const ml::Matrix h = ml::Matrix::randn(f.graph.num_nodes, 32, rng, 1.0f);
  for (auto _ : state)
    benchmark::DoNotOptimize(f.graph.normalized_adjacency.spmm(h));
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(f.graph.normalized_adjacency.nnz()) * 32);
  state.SetLabel(d.name + " nnz*32 MACs");
}
BENCHMARK(BM_SpmmForward)->Arg(0)->Arg(1)->Arg(2);

void BM_GcnForward(benchmark::State& state) {
  const auto& d = design_by_index(static_cast<int>(state.range(0)));
  GcnFixture f(d);
  ml::GcnModel model(f.x.cols(), ml::GcnConfig::classifier());
  model.set_adjacency(&f.graph.normalized_adjacency);
  for (auto _ : state) benchmark::DoNotOptimize(model.forward(f.x, false));
  state.SetLabel(d.name);
}
BENCHMARK(BM_GcnForward)->Arg(0)->Arg(1)->Arg(2);

void BM_FaultCampaignThreads(benchmark::State& state) {
  const auto& d = design_by_index(0);  // sdram_ctrl
  fault::CampaignConfig cfg;
  cfg.cycles = 64;
  cfg.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    fault::FaultCampaign campaign(d.netlist, d.stimulus, cfg);
    benchmark::DoNotOptimize(campaign.run_all());
  }
  state.SetLabel(d.name + " x" + std::to_string(state.range(0)) +
                 " threads");
}
BENCHMARK(BM_FaultCampaignThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_Scoap(benchmark::State& state) {
  const auto& d = design_by_index(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::compute_scoap(d.netlist));
  state.SetLabel(d.name);
}
BENCHMARK(BM_Scoap)->Arg(0)->Arg(1)->Arg(2);

void BM_FaultCollapse(benchmark::State& state) {
  const auto& d = design_by_index(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(fault::collapse_faults(d.netlist));
  state.SetLabel(d.name);
}
BENCHMARK(BM_FaultCollapse)->Arg(0)->Arg(1)->Arg(2);

void BM_GcnTrainEpoch(benchmark::State& state) {
  const auto& d = design_by_index(static_cast<int>(state.range(0)));
  GcnFixture f(d);
  ml::GcnModel model(f.x.cols(), ml::GcnConfig::classifier());
  model.set_adjacency(&f.graph.normalized_adjacency);
  for (auto _ : state) {
    const ml::Matrix logp = model.forward(f.x, true);
    ml::Matrix grad;
    benchmark::DoNotOptimize(
        ml::masked_nll(logp, f.labels, f.train_idx, grad));
    model.zero_grad();
    benchmark::DoNotOptimize(model.backward(grad));
  }
  state.SetLabel(d.name);
}
BENCHMARK(BM_GcnTrainEpoch)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
