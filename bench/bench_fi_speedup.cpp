// Fault-campaign engine trajectory + Section 1 resource-savings claim.
//
// Primary output: BENCH_fi.json, the machine-readable timing trajectory of
// the campaign hot path on every built-in design —
//   frontier-nocollapse@1t  event-driven divergence-frontier resim, one
//                pass per fault, collapse-equivalence sharing off
//   frontier@{1,2,4}t  the production engine: frontier + collapse sharing
// plus a static-prune A/B on the production engine: the same
// frontier@1t campaign with static pruning (dead-cone faults skipped)
// disabled vs enabled, recording the prune rate and both end-to-end wall
// times (the prune-on time includes the reachability pass itself). See
// docs/STATIC_ANALYSIS.md.
// Every leg is verified to produce verdicts bit-identical to the
// frontier-nocollapse leg before its timing is recorded (the `fcrit check`
// oracles prove the engine against the cone-sweep reference on fuzzed
// circuits, and `diff_static_prune` the prune A/B).
//
// Secondary output (full mode only): the paper's Section 1 pitch — run FI
// on a subset, train the GCN, predict the rest — quantified per design.
//
// --quick: trajectory only, largest design only, shorter campaign; the CI
// artifact step runs this mode.
#include <cstring>

#include "bench/bench_common.hpp"
#include "src/util/text.hpp"
#include "src/util/timer.hpp"

namespace {

using namespace fcrit;

struct Leg {
  std::string label;
  fault::CampaignConfig config;
};

/// Verdict fields and cone sizes must agree across every leg.
bool same_verdicts(const fault::CampaignResult& a,
                   const fault::CampaignResult& b) {
  if (a.faults.size() != b.faults.size()) return false;
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    const auto& x = a.faults[i];
    const auto& y = b.faults[i];
    if (x.fault.node != y.fault.node ||
        x.fault.stuck_value != y.fault.stuck_value ||
        x.dangerous_lanes != y.dangerous_lanes ||
        x.detected_lanes != y.detected_lanes ||
        x.mismatch_cycles != y.mismatch_cycles ||
        x.first_detect_cycle != y.first_detect_cycle ||
        x.cone_size != y.cone_size)
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  bench::print_header(quick ? "FI campaign engine trajectory (quick)"
                            : "FI campaign engine trajectory + Section 1 "
                              "resource claim");
  bench::Recorder rec("fi");

  const int cycles = quick ? 128 : 256;

  // Pick the designs: the paper's evaluation set plus the ee_zonal scale
  // design, or just the largest of those (by node count) in quick mode.
  std::vector<designs::Design> targets;
  auto names = designs::design_names();
  names.push_back("ee_zonal");
  for (const auto& name : names)
    targets.push_back(designs::build_design(name));
  if (quick) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < targets.size(); ++i)
      if (targets[i].netlist.num_nodes() > targets[best].netlist.num_nodes())
        best = i;
    targets = {std::move(targets[best])};
  }

  core::TextTable table({"Design", "Nodes", "Faults",
                         "frontier-nocollapse@1t (s)", "frontier@1t (s)",
                         "frontier@2t (s)", "frontier@4t (s)",
                         "early-exit %"});
  core::TextTable prune_table({"Design", "Faults", "Pruned", "Prune %",
                               "triage (ms)", "prune-off (s)", "prune-on (s)",
                               "off vs on"});

  bool all_identical = true;
  for (const auto& design : targets) {
    fault::CampaignConfig base;
    base.cycles = cycles;
    base.seed = 7;
    base.num_threads = 1;

    // The no-collapse leg comes first: every other leg is checked against
    // it.
    std::vector<Leg> legs;
    {
      Leg nocollapse{"frontier-nocollapse@1t", base};
      nocollapse.config.collapse_equivalent = false;
      legs = {nocollapse};
      for (const int threads : {1, 2, 4}) {
        Leg frontier{"frontier@" + std::to_string(threads) + "t", base};
        frontier.config.num_threads = threads;
        legs.push_back(frontier);
      }
    }

    std::vector<fault::CampaignResult> results;
    std::vector<double> seconds;
    for (const Leg& leg : legs) {
      fault::FaultCampaign campaign(design.netlist, design.stimulus,
                                    leg.config);
      const auto r = campaign.run_all();
      seconds.push_back(r.fault_seconds);
      rec.phase(design.name + "/" + leg.label, 1000.0 * r.fault_seconds);
      results.push_back(std::move(r));
    }

    for (std::size_t i = 1; i < results.size(); ++i) {
      if (!same_verdicts(results[0], results[i])) {
        std::fprintf(stderr,
                     "bench_fi_speedup: %s leg '%s' diverged from "
                     "frontier-nocollapse@1t!\n",
                     design.name.c_str(), legs[i].label.c_str());
        all_identical = false;
      }
    }

    const auto& frontier = results[1];  // frontier@1t
    const double total_cycles =
        static_cast<double>(frontier.simulated_faults) * cycles;
    std::vector<std::string> row{design.name,
                                 std::to_string(design.netlist.num_nodes()),
                                 std::to_string(frontier.faults.size())};
    for (std::size_t i = 0; i < seconds.size(); ++i)
      row.push_back(util::format_double(seconds[i], 3));
    row.push_back(util::format_double(
        total_cycles > 0 ? 100.0 *
                               static_cast<double>(frontier.early_exit_cycles) /
                               total_cycles
                         : 0.0,
        1));
    table.add_row(row);

    // Static-prune A/B on the production engine (frontier@1t): the
    // identical campaign with static pruning off vs on. The prune-on wall
    // includes the reachability pass, so "off vs on" is an honest end-to-end
    // comparison; verdicts must stay bit-identical either way.
    {
      fault::CampaignConfig on = base;
      on.static_prune = true;
      fault::CampaignConfig off = on;
      off.static_prune = false;

      fault::FaultCampaign cam_off(design.netlist, design.stimulus, off);
      const auto r_off = cam_off.run_all();
      fault::FaultCampaign cam_on(design.netlist, design.stimulus, on);
      const auto r_on = cam_on.run_all();
      if (!same_verdicts(r_off, r_on)) {
        std::fprintf(stderr,
                     "bench_fi_speedup: %s static-prune A/B diverged!\n",
                     design.name.c_str());
        all_identical = false;
      }

      const double off_s = r_off.fault_seconds;
      const double on_s = r_on.fault_seconds + r_on.triage_seconds;
      const double rate =
          r_on.faults.empty()
              ? 0.0
              : 100.0 * static_cast<double>(r_on.pruned_faults) /
                    static_cast<double>(r_on.faults.size());
      rec.phase(design.name + "/prune_off@1t", 1000.0 * off_s);
      rec.phase(design.name + "/prune_on@1t", 1000.0 * on_s);
      rec.phase(design.name + "/prune_rate_pct", rate);
      prune_table.add_row(
          {design.name, std::to_string(r_on.faults.size()),
           std::to_string(r_on.pruned_faults), util::format_double(rate, 1),
           util::format_double(1000.0 * r_on.triage_seconds, 2),
           util::format_double(off_s, 3), util::format_double(on_s, 3),
           util::format_double(on_s > 0 ? off_s / on_s : 0.0, 2) + "x"});
    }
  }

  std::printf("\ncampaign engine trajectory (fault_seconds, golden excluded)\n%s\n",
              table.to_string().c_str());
  std::printf(
      "\nstatic-prune A/B, frontier@1t (prune-on wall includes triage)\n"
      "%s\n",
      prune_table.to_string().c_str());
  std::printf("verdict equality across all legs: %s\n",
              all_identical ? "bit-identical" : "DIVERGED");

  if (!quick) {
    // Section 1 claim: FI on a subset + GCN inference vs. exhaustive FI.
    core::FaultCriticalityAnalyzer analyzer([] {
      auto cfg = bench::standard_config();
      cfg.train_baselines = false;
      cfg.train_regressor = false;
      return cfg;
    }());
    core::TextTable ml({"Design", "Faults", "Full FI (s)",
                        "FI for 20% val (s)", "GCN inference (s)",
                        "Speedup on val", "GCN val acc (%)"});
    for (const auto& name : designs::design_names()) {
      auto r = rec.analyze(analyzer, name, name + "/pipeline");
      const double full_fi = r.fi_seconds;
      const double val_share =
          full_fi * static_cast<double>(r.split.val.size()) /
          static_cast<double>(r.dataset.size());
      const double speedup =
          r.inference_seconds > 0 ? val_share / r.inference_seconds : 0.0;
      ml.add_row({name, std::to_string(r.campaign.faults.size()),
                  util::format_double(full_fi, 3),
                  util::format_double(val_share, 3),
                  util::format_double(r.inference_seconds, 4),
                  util::format_double(speedup, 1) + "x",
                  util::format_double(100.0 * r.gcn_eval.val_accuracy, 2)});
    }
    std::printf("\n%s\n", ml.to_string().c_str());
    std::printf(
        "reading: once trained, classifying unseen nodes by GCN inference is\n"
        "orders of magnitude cheaper than fault-injecting them, which is the\n"
        "resource/time saving the paper's introduction claims.\n");
  }
  return all_identical ? 0 : 1;
}
