#include "src/check/differential.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <vector>

#include "src/check/cone_sweep.hpp"
#include "src/fault/fault.hpp"
#include "src/graphir/features.hpp"
#include "src/graphir/graph.hpp"
#include "src/ml/serialize.hpp"
#include "src/netlist/verilog_writer.hpp"
#include "src/serve/bundle.hpp"
#include "src/serve/engine.hpp"
#include "src/sim/packed_sim.hpp"
#include "src/sim/probability.hpp"
#include "src/sim/stimulus.hpp"

namespace fcrit::check {

using netlist::NodeId;

std::string diff_packed_vs_scalar(const designs::Design& design, int cycles,
                                  std::uint64_t seed, ScalarBug bug) {
  const netlist::Netlist& nl = design.netlist;
  const auto num_nodes = nl.num_nodes();

  // One packed pass, recording the stimulus words and every node word per
  // cycle so the 64 scalar replays can compare against them.
  sim::PackedSimulator packed(nl);
  sim::StimulusGenerator stim(nl, design.stimulus, seed);
  std::vector<std::vector<std::uint64_t>> stim_words(
      static_cast<std::size_t>(cycles));
  std::vector<std::uint64_t> trace(
      static_cast<std::size_t>(cycles) * num_nodes);
  for (int t = 0; t < cycles; ++t) {
    stim.next_cycle(stim_words[static_cast<std::size_t>(t)]);
    packed.eval_comb(stim_words[static_cast<std::size_t>(t)]);
    std::uint64_t* row = trace.data() +
                         static_cast<std::size_t>(t) * num_nodes;
    for (NodeId id = 0; id < num_nodes; ++id) row[id] = packed.value(id);
    packed.clock();
  }

  // Scalar replay, one independent sequential simulation per lane.
  std::vector<bool> bits(nl.inputs().size());
  for (int lane = 0; lane < sim::kLanes; ++lane) {
    ScalarSimulator scalar(nl, bug);
    for (int t = 0; t < cycles; ++t) {
      const auto& words = stim_words[static_cast<std::size_t>(t)];
      for (std::size_t i = 0; i < words.size(); ++i)
        bits[i] = (words[i] >> lane) & 1;
      scalar.eval_comb(bits);
      const std::uint64_t* row =
          trace.data() + static_cast<std::size_t>(t) * num_nodes;
      for (NodeId id = 0; id < num_nodes; ++id) {
        const bool packed_bit = (row[id] >> lane) & 1;
        if (packed_bit != scalar.value(id)) {
          std::ostringstream os;
          os << "packed-vs-scalar: node '" << nl.node(id).name << "' ("
             << netlist::spec(nl.kind(id)).name << ") cycle " << t
             << " lane " << lane << ": packed=" << packed_bit
             << " scalar=" << scalar.value(id);
          return os.str();
        }
      }
      scalar.clock();
    }
  }
  return {};
}

namespace {

/// Reference fault verdict: serial re-simulation of the whole netlist with
/// the fault injected through PackedSimulator::inject, compared per cycle
/// against the campaign's golden trace. Independent of simulate_fault's
/// cone machinery and of its counter widths.
fault::FaultResult injected_fault_result(const designs::Design& design,
                                         const fault::CampaignConfig& config,
                                         const fault::FaultCampaign& golden,
                                         const fault::Fault& f) {
  const netlist::Netlist& nl = design.netlist;
  fault::FaultResult r;
  r.fault = f;

  sim::PackedSimulator simr(nl);
  simr.inject(f.node, f.stuck_value);
  sim::StimulusGenerator stim(nl, design.stimulus, config.seed);
  std::vector<std::uint64_t> words;
  std::array<std::uint32_t, sim::kLanes> lane_mismatch_cycles{};

  for (int t = 0; t < config.cycles; ++t) {
    stim.next_cycle(words);
    simr.eval_comb(words);
    std::uint64_t any_mismatch = 0;
    for (const auto& po : nl.outputs())
      any_mismatch |=
          simr.value(po.driver) ^ golden.golden_value(t, po.driver);
    if (any_mismatch) {
      if (r.first_detect_cycle < 0) r.first_detect_cycle = t;
      r.detected_lanes |= any_mismatch;
      r.mismatch_cycles +=
          static_cast<std::uint32_t>(std::popcount(any_mismatch));
      std::uint64_t m = any_mismatch;
      while (m) {
        ++lane_mismatch_cycles[static_cast<std::size_t>(
            std::countr_zero(m))];
        m &= m - 1;
      }
    }
    simr.clock();
  }

  const auto threshold =
      static_cast<std::uint32_t>(config.min_mismatch_cycles());
  for (int lane = 0; lane < sim::kLanes; ++lane) {
    if (lane_mismatch_cycles[static_cast<std::size_t>(lane)] >= threshold)
      r.dangerous_lanes |= (1ULL << lane);
  }
  return r;
}

/// Compare every verdict field of two results for `f`, and their
/// cone_size unless `b` is a full re-simulation, which has no cone.
std::string compare_fault_results(const netlist::Netlist& nl,
                                  const fault::Fault& f,
                                  const fault::FaultResult& a,
                                  const fault::FaultResult& b,
                                  const char* a_name, const char* b_name,
                                  const char* oracle, bool with_cone = true) {
  std::ostringstream os;
  os << std::hex;
  if (a.dangerous_lanes != b.dangerous_lanes)
    os << "dangerous_lanes " << a_name << "=" << a.dangerous_lanes << " "
       << b_name << "=" << b.dangerous_lanes << "; ";
  if (a.detected_lanes != b.detected_lanes)
    os << "detected_lanes " << a_name << "=" << a.detected_lanes << " "
       << b_name << "=" << b.detected_lanes << "; ";
  os << std::dec;
  if (a.mismatch_cycles != b.mismatch_cycles)
    os << "mismatch_cycles " << a_name << "=" << a.mismatch_cycles << " "
       << b_name << "=" << b.mismatch_cycles << "; ";
  if (a.first_detect_cycle != b.first_detect_cycle)
    os << "first_detect_cycle " << a_name << "=" << a.first_detect_cycle
       << " " << b_name << "=" << b.first_detect_cycle << "; ";
  if (with_cone && a.cone_size != b.cone_size)
    os << "cone_size " << a_name << "=" << a.cone_size << " " << b_name
       << "=" << b.cone_size << "; ";
  std::string detail = os.str();
  if (detail.empty()) return {};
  return std::string(oracle) + ": " + fault_name(nl, f) + ": " + detail;
}

}  // namespace

std::string diff_fault_oracles(const designs::Design& design,
                               const fault::CampaignConfig& config,
                               int max_faults) {
  const netlist::Netlist& nl = design.netlist;
  fault::FaultCampaign campaign(nl, design.stimulus, config);
  campaign.run_golden();
  const netlist::Levelization lev = netlist::levelize(nl);

  const auto universe = fault::full_fault_list(nl);
  if (universe.empty()) return {};
  const std::size_t stride =
      max_faults > 0
          ? std::max<std::size_t>(
                1, universe.size() / static_cast<std::size_t>(max_faults))
          : 1;

  NodeId last_site = netlist::kNoNode;
  for (std::size_t i = 0; i < universe.size(); i += stride) {
    const fault::Fault& f = universe[i];
    const fault::FaultResult rf = campaign.simulate_fault(f);
    const fault::FaultResult rs = cone_sweep(campaign, lev, f);
    const fault::FaultResult ri =
        injected_fault_result(design, config, campaign, f);
    if (auto msg = compare_fault_results(nl, f, rf, rs, "frontier", "sweep",
                                         "fault-oracle");
        !msg.empty())
      return msg;
    if (auto msg = compare_fault_results(nl, f, rs, ri, "sweep", "injected",
                                         "fault-oracle", false);
        !msg.empty())
      return msg;

    // The same site as an SEU, flipped at the first, middle and last cycle.
    if (f.node == last_site) continue;
    last_site = f.node;
    for (const int cycle : {0, config.cycles / 2, config.cycles - 1}) {
      const auto rt = campaign.simulate_transient(f.node, cycle);
      const fault::FaultResult ref = cone_sweep(campaign, lev, f, cycle);
      if (rt.affected_lanes != ref.detected_lanes ||
          rt.mismatch_cycles != ref.mismatch_cycles) {
        std::ostringstream os;
        os << "fault-oracle: " << nl.node(f.node).name << " flipped at cycle "
           << cycle << ": affected_lanes frontier=" << std::hex
           << rt.affected_lanes << " sweep=" << ref.detected_lanes << std::dec
           << " mismatch_cycles frontier=" << rt.mismatch_cycles
           << " sweep=" << ref.mismatch_cycles;
        return os.str();
      }
    }
  }
  return {};
}

std::string diff_campaign_equivalence(const designs::Design& design,
                                      const fault::CampaignConfig& config,
                                      int max_faults, CampaignBug bug) {
  const netlist::Netlist& nl = design.netlist;

  // Reference: the cone sweep, one fault at a time over the whole
  // universe. Its campaign object holds the golden trace for the sweep
  // and for the injected replay.
  fault::FaultCampaign golden(nl, design.stimulus, config);
  golden.run_golden();
  const netlist::Levelization lev = netlist::levelize(nl);
  std::vector<fault::FaultResult> ref;
  for (const fault::Fault& f : fault::full_fault_list(nl))
    ref.push_back(cone_sweep(golden, lev, f));
  if (ref.empty()) return {};

  struct Leg {
    std::string name;
    fault::CampaignConfig cfg;
  };
  std::vector<Leg> legs;
  {
    fault::CampaignConfig fc = config;
    fc.collapse_equivalent = false;
    fc.num_threads = 1;
    legs.push_back({"frontier", fc});
    for (const int threads : {1, 2, 4}) {
      fault::CampaignConfig cc = config;
      cc.collapse_equivalent = true;
      cc.num_threads = threads;
      legs.push_back(
          {"frontier+collapse@" + std::to_string(threads) + "t", cc});
    }
  }

  for (const Leg& leg : legs) {
    fault::FaultCampaign campaign(nl, design.stimulus, leg.cfg);
    fault::CampaignResult r = campaign.run_all();

    // Planted defects corrupt exactly one leg (the collapse 2-thread one)
    // so the self-test proves the comparison below has teeth.
    if (leg.name == "frontier+collapse@2t" && bug != CampaignBug::kNone &&
        !r.faults.empty()) {
      if (bug == CampaignBug::kMismatchOffByOne) {
        r.faults.front().mismatch_cycles += 1;
      } else if (bug == CampaignBug::kDropDetection) {
        for (auto& fr : r.faults)
          if (fr.detected_lanes) {
            fr.detected_lanes = 0;
            break;
          }
      }
    }

    if (r.faults.size() != ref.size())
      return "campaign-oracle: leg '" + leg.name + "' returned " +
             std::to_string(r.faults.size()) + " verdicts, reference " +
             std::to_string(ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const fault::FaultResult& a = ref[i];
      const fault::FaultResult& b = r.faults[i];
      if (a.fault.node != b.fault.node ||
          a.fault.stuck_value != b.fault.stuck_value)
        return "campaign-oracle: leg '" + leg.name +
               "' reordered the fault universe at index " +
               std::to_string(i);
      if (auto msg = compare_fault_results(nl, a.fault, a, b, "sweep",
                                           leg.name.c_str(),
                                           "campaign-oracle");
          !msg.empty())
        return msg;
    }
  }

  // Engine-independent replay: serial fault injection through
  // PackedSimulator::inject on a deterministic strided subset.
  const std::size_t stride =
      max_faults > 0
          ? std::max<std::size_t>(
                1, ref.size() / static_cast<std::size_t>(max_faults))
          : 1;
  for (std::size_t i = 0; i < ref.size(); i += stride) {
    const fault::FaultResult& a = ref[i];
    const fault::FaultResult ri =
        injected_fault_result(design, config, golden, a.fault);
    if (auto msg = compare_fault_results(nl, a.fault, a, ri, "sweep",
                                         "injected", "campaign-oracle", false);
        !msg.empty())
      return msg;
  }
  return {};
}

std::string diff_static_prune(const designs::Design& design,
                              const fault::CampaignConfig& config,
                              PruneBug bug) {
  const netlist::Netlist& nl = design.netlist;
  const auto universe = fault::full_fault_list(nl);
  if (universe.empty()) return {};

  // The production pruning decision, recomputed: faults whose site cannot
  // reach an output driver. Counted before any bug is planted, so the
  // campaign's own decision is tied to the one checked below.
  const std::vector<char> observable = netlist::reach_backward_from_outputs(nl);
  std::vector<std::uint8_t> skipped(universe.size(), 0);
  for (std::size_t i = 0; i < universe.size(); ++i)
    skipped[i] = observable[universe[i].node] ? 0 : 1;
  const auto expected_pruned = static_cast<std::uint32_t>(
      std::count(skipped.begin(), skipped.end(), std::uint8_t{1}));

  // The reference: the full universe simulated with pruning off.
  fault::CampaignConfig off_cfg = config;
  off_cfg.static_prune = false;
  fault::FaultCampaign campaign_off(nl, design.stimulus, off_cfg);
  const fault::CampaignResult ref = campaign_off.run_all();
  if (ref.faults.size() != universe.size())
    return "static-prune-oracle: reference campaign returned " +
           std::to_string(ref.faults.size()) + " verdicts for " +
           std::to_string(universe.size()) + " faults";
  auto all_zero = [&](std::size_t i) {
    const fault::FaultResult& r = ref.faults[i];
    return r.dangerous_lanes == 0 && r.detected_lanes == 0 &&
           r.mismatch_cycles == 0 && r.first_detect_cycle < 0;
  };

  if (bug == PruneBug::kPruneObservable) {
    // Mark a detected fault pruned (the first one, falling back to any
    // kept fault) so the simulation check below must flag it.
    std::size_t victim = universe.size();
    for (std::size_t i = 0; i < universe.size(); ++i) {
      if (skipped[i]) continue;
      if (victim == universe.size()) victim = i;
      if (ref.faults[i].detected_lanes != 0) {
        victim = i;
        break;
      }
    }
    if (victim < universe.size()) skipped[victim] = 1;
  }
  if (bug == PruneBug::kPruneReachable) {
    // Mark pruned a kept fault that simulates all-zero: the simulation
    // check passes it, only the structural check below can object.
    for (std::size_t i = 0; i < universe.size(); ++i)
      if (!skipped[i] && all_zero(i)) {
        skipped[i] = 1;
        break;
      }
  }

  // 1. Simulation: run_all with pruning on must prune exactly the faults
  // chosen above and be bit-identical to the unpruned reference,
  // cone_size included; every fault marked pruned must simulate all-zero
  // in the reference (the exact result pruning synthesizes).
  fault::CampaignConfig on_cfg = config;
  on_cfg.static_prune = true;
  fault::FaultCampaign campaign_on(nl, design.stimulus, on_cfg);
  const fault::CampaignResult pruned = campaign_on.run_all();
  if (pruned.faults.size() != ref.faults.size())
    return "static-prune-oracle: pruned campaign returned " +
           std::to_string(pruned.faults.size()) + " verdicts, reference " +
           std::to_string(ref.faults.size());
  if (pruned.pruned_faults != expected_pruned)
    return "static-prune-oracle: pruned campaign skipped " +
           std::to_string(pruned.pruned_faults) + " faults, " +
           std::to_string(expected_pruned) + " cannot reach an output";
  for (std::size_t i = 0; i < ref.faults.size(); ++i) {
    const fault::FaultResult& a = ref.faults[i];
    const fault::FaultResult& b = pruned.faults[i];
    if (a.fault.node != b.fault.node ||
        a.fault.stuck_value != b.fault.stuck_value)
      return "static-prune-oracle: pruned campaign reordered the fault "
             "universe at index " + std::to_string(i);
    if (skipped[i] && !all_zero(i)) {
      std::ostringstream os;
      os << "static-prune-oracle: pruned fault " << fault_name(nl, a.fault)
         << " is observable in simulation: detected_lanes=" << std::hex
         << a.detected_lanes << std::dec
         << " mismatch_cycles=" << a.mismatch_cycles
         << " first_detect_cycle=" << a.first_detect_cycle;
      return os.str();
    }
    if (auto msg = compare_fault_results(nl, a.fault, a, b, "sim", "pruned",
                                         "static-prune-oracle");
        !msg.empty())
      return msg;
  }

  // 2. Structural: a forward BFS over the fanout edges from every pruned
  // site, independent of the backward pass that chose it, must find no
  // primary-output driver.
  std::vector<std::uint8_t> is_po(nl.num_nodes(), 0);
  for (const auto& port : nl.outputs()) is_po[port.driver] = 1;
  std::vector<std::uint8_t> seen(nl.num_nodes(), 0);
  std::vector<NodeId> queue;
  for (std::size_t i = 0; i < universe.size(); ++i) {
    if (!skipped[i]) continue;
    std::fill(seen.begin(), seen.end(), 0);
    queue.assign(1, universe[i].node);
    seen[universe[i].node] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      if (is_po[u])
        return "static-prune-oracle: pruned fault " +
               fault_name(nl, universe[i]) + " reaches output driver " +
               nl.node(u).name;
      for (const NodeId c : nl.fanouts(u))
        if (!seen[c]) {
          seen[c] = 1;
          queue.push_back(c);
        }
    }
  }
  return {};
}

namespace {

/// A deterministic untrained bundle for the design: forward passes through
/// freshly-initialized GCNs are as good as trained ones for a bit-identity
/// oracle, and skip minutes of training per fuzz trial.
serve::ModelBundle make_check_bundle(const designs::Design& design,
                                     std::uint64_t seed) {
  serve::ModelBundle b;
  b.manifest.design_name = design.name;
  b.manifest.netlist_hash = serve::netlist_content_hash(design.netlist);
  b.manifest.feature_width = graphir::kNumBaseFeatures;
  b.manifest.feature_names = graphir::base_feature_names();
  b.manifest.probability_cycles = 24;
  b.manifest.probability_seed = seed ^ 0x9e3779b9ULL;
  b.stimulus = design.stimulus;
  b.standardizer.mean.assign(graphir::kNumBaseFeatures, 0.0);
  b.standardizer.stddev.assign(graphir::kNumBaseFeatures, 1.0);
  ml::GcnConfig cc = ml::GcnConfig::classifier();
  cc.hidden = {8};
  cc.seed = seed;
  b.classifier =
      std::make_unique<ml::GcnModel>(graphir::kNumBaseFeatures, cc);
  ml::GcnConfig rc = ml::GcnConfig::regressor();
  rc.hidden = {8};
  rc.seed = seed + 1;
  b.regressor = std::make_unique<ml::GcnModel>(graphir::kNumBaseFeatures, rc);
  return b;
}

struct DirectScore {
  std::vector<double> proba;
  std::vector<int> predicted;
  std::vector<double> score;
};

/// In-process replay of the scoring pipeline straight from the bundle
/// artifact — no engine, no cache, no worker pool.
DirectScore direct_score(const designs::Design& design,
                         const std::string& bundle_path) {
  const serve::ModelBundle bundle = serve::load_bundle_file(bundle_path);
  const netlist::Netlist& nl = design.netlist;
  const auto stats = sim::estimate_by_simulation(
      nl, bundle.stimulus, bundle.manifest.probability_seed,
      bundle.manifest.probability_cycles);
  const ml::Matrix x =
      bundle.standardizer.transform(graphir::extract_features(nl, stats));
  const graphir::CircuitGraph graph = graphir::build_graph(nl);

  DirectScore d;
  ml::GcnModel classifier = ml::clone_gcn(*bundle.classifier);
  classifier.set_adjacency(&graph.normalized_adjacency);
  const ml::Matrix out = classifier.forward(x, /*training=*/false);
  d.proba = ml::class1_probability(out);
  d.predicted = ml::predict_labels(out);
  ml::GcnModel regressor = ml::clone_gcn(*bundle.regressor);
  regressor.set_adjacency(&graph.normalized_adjacency);
  const ml::Matrix pred = regressor.forward(x, /*training=*/false);
  d.score.resize(static_cast<std::size_t>(pred.rows()));
  for (int i = 0; i < pred.rows(); ++i)
    d.score[static_cast<std::size_t>(i)] = static_cast<double>(pred(i, 0));
  return d;
}

std::string compare_scores(const serve::ScoreResult& r,
                           const DirectScore& ref, const char* leg) {
  if (r.proba != ref.proba)
    return std::string("serve-oracle: ") + leg +
           ": classifier probabilities differ from direct scoring";
  if (r.predicted != ref.predicted)
    return std::string("serve-oracle: ") + leg +
           ": predicted classes differ from direct scoring";
  if (r.score != ref.score)
    return std::string("serve-oracle: ") + leg +
           ": regressor scores differ from direct scoring";
  return {};
}

}  // namespace

std::string diff_serve_vs_pipeline(const designs::Design& design,
                                   const std::string& scratch_dir,
                                   std::uint64_t seed) {
  namespace fs = std::filesystem;
  fs::create_directories(scratch_dir);
  const std::string tag = std::to_string(seed);
  const std::string bundle_path =
      (fs::path(scratch_dir) / ("check_" + tag + ".fcm")).string();
  const std::string netlist_path =
      (fs::path(scratch_dir) / ("check_" + tag + ".v")).string();
  serve::save_bundle_file(make_check_bundle(design, seed), bundle_path);
  {
    std::ofstream os(netlist_path);
    netlist::write_verilog(design.netlist, os);
  }

  const DirectScore ref = direct_score(design, bundle_path);

  serve::ScoringEngine engine(
      {.threads = 2, .queue_capacity = 8, .cache_capacity = 2});
  const serve::ScoreResult r1 = engine.score(bundle_path, design);
  if (!r1.netlist_matched)
    return "serve-oracle: bundle reports netlist hash mismatch against the "
           "very netlist it was packed from";
  if (auto msg = compare_scores(r1, ref, "engine.score"); !msg.empty())
    return msg;

  // Second synchronous request must be served from the LRU cache and stay
  // bit-identical.
  const serve::ScoreResult r2 = engine.score(bundle_path, design);
  if (auto msg = compare_scores(r2, ref, "cached engine.score");
      !msg.empty())
    return msg;
  if (engine.metrics().cache_hits == 0)
    return "serve-oracle: repeated score of one bundle produced no cache "
           "hit";

  // Worker-pool path on the Verilog round-trip of the same netlist: the
  // writer/parser pair is exact, so results must still be bit-identical.
  std::vector<std::future<serve::ScoreResult>> futures;
  for (int i = 0; i < 2; ++i)
    futures.push_back(engine.submit(bundle_path, netlist_path));
  for (auto& fut : futures) {
    const serve::ScoreResult rs = fut.get();
    if (auto msg = compare_scores(rs, ref, "engine.submit on .v round-trip");
        !msg.empty())
      return msg;
  }
  return {};
}

}  // namespace fcrit::check
