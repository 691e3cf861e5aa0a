// Fault-collapsing effectiveness: universe reduction, runtime saved, and a
// dataset-equality check (collapsing must not change Algorithm-1 labels).
#include "bench/bench_common.hpp"
#include "src/fault/collapse.hpp"
#include "src/util/text.hpp"
#include "src/util/timer.hpp"

int main() {
  using namespace fcrit;
  bench::print_header("Fault collapsing: universe reduction and runtime");
  bench::Recorder rec("fault_collapse");

  core::TextTable table({"Design", "Faults", "Representatives", "Ratio",
                         "Full campaign (s)", "Collapsed (s)",
                         "Dataset identical"});

  for (const auto& name : designs::design_names()) {
    const auto d = designs::build_design(name);
    const auto collapsed = fault::collapse_faults(d.netlist);

    fault::CampaignConfig cfg;
    cfg.cycles = 256;
    cfg.seed = 7;
    cfg.dangerous_cycle_fraction = d.dangerous_cycle_fraction;
    // This bench measures the explicit collapse_faults/expand_collapsed
    // transformation, so turn off the campaign's internal sharing of
    // collapse-equivalent verdicts, which would hide exactly the reduction
    // being measured here.
    cfg.collapse_equivalent = false;

    util::Timer t_full;
    fault::FaultCampaign full_campaign(d.netlist, d.stimulus, cfg);
    const auto full = full_campaign.run_all();
    const double full_s = t_full.seconds();

    util::Timer t_coll;
    fault::FaultCampaign rep_campaign(d.netlist, d.stimulus, cfg);
    const auto reps = rep_campaign.run(collapsed.representatives);
    const auto expanded = fault::expand_collapsed(reps, collapsed);
    const double coll_s = t_coll.seconds();
    rec.phase(name + "/full_campaign", 1000.0 * full_s);
    rec.phase(name + "/collapsed_campaign", 1000.0 * coll_s);

    const auto ds_full = fault::generate_dataset(full, 0.5);
    const auto ds_coll = fault::generate_dataset(expanded, 0.5);
    bool identical = ds_full.size() == ds_coll.size();
    for (std::size_t i = 0; identical && i < ds_full.size(); ++i)
      identical = ds_full.nodes[i] == ds_coll.nodes[i] &&
                  ds_full.label[i] == ds_coll.label[i] &&
                  ds_full.score[i] == ds_coll.score[i];

    table.add_row({name, std::to_string(collapsed.original_count),
                   std::to_string(collapsed.representatives.size()),
                   util::format_double(collapsed.collapse_ratio(), 3),
                   util::format_double(full_s, 3),
                   util::format_double(coll_s, 3),
                   identical ? "yes" : "NO"});
    std::printf("%s done\n", name.c_str());
  }
  std::printf("\n%s\n", table.to_string().c_str());
  std::printf(
      "collapsing merges stuck-at faults through single-fanout BUF/INV\n"
      "chains; the Algorithm-1 dataset is provably unchanged while the\n"
      "campaign simulates proportionally fewer faults.\n");
  return 0;
}
