// Randomized differential-oracle harness.
//
// run_checks() fuzzes the five oracles of src/check/differential.hpp over
// random sequential circuits (designs::build_random_circuit). Every trial
// derives its own seed from CheckConfig::seed via SplitMix64, so a failure
// report pins down a single reproducible (seed, circuit config, cycles)
// triple; the harness then greedily shrinks the failing circuit — fewer
// gates, flops, inputs, outputs, cycles — while the divergence reproduces,
// and attaches a Verilog dump of the minimized netlist.
//
// `fcrit check` is a thin CLI wrapper over this; tests/check_test.cpp runs
// the deterministic tranche and the deliberately-broken-shim self-tests.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/check/differential.hpp"
#include "src/check/scalar_sim.hpp"
#include "src/designs/random_circuit.hpp"

namespace fcrit::check {

struct CheckConfig {
  int trials = 50;
  std::uint64_t seed = 1;

  // Per-trial circuit size and workload length.
  int cycles = 48;
  int gates = 120;
  int flops = 12;
  int inputs = 8;
  int outputs = 6;

  /// Faults cross-checked per fault-oracle trial (strided over the full
  /// stuck-at universe). The fault oracle runs three simulations per fault
  /// and six SEU flips per site, so this is the main knob on harness
  /// runtime.
  int max_faults = 16;

  /// Run the serve-vs-pipeline oracle on every k-th trial (it packs, saves
  /// and re-parses a model bundle, so it is the slowest oracle). 0 disables
  /// it, as does an empty scratch_dir.
  int serve_every = 10;
  std::string scratch_dir;

  bool shrink = true;        // minimize failing circuits before reporting
  bool dump_netlist = true;  // attach a Verilog dump to divergences

  /// Run the campaign-equivalence oracle (five run_all legs per trial, so
  /// the second-slowest oracle) on every k-th trial. 0 disables it.
  int campaign_every = 1;

  /// Run the static-prune oracle (full unpruned reference campaign,
  /// structural check of every pruned site, pruned campaign) on every
  /// k-th trial.
  /// 0 disables it.
  int prune_every = 1;

  /// Plants a deliberate defect in the scalar reference so tests can prove
  /// the harness is able to fail. kNone for real checking.
  ScalarBug scalar_bug = ScalarBug::kNone;

  /// Plants a deliberate verdict corruption in one leg of the campaign
  /// oracle (see CampaignBug). kNone for real checking.
  CampaignBug campaign_bug = CampaignBug::kNone;

  /// Plants a deliberate defect in the static-prune oracle's pruning
  /// decision (see PruneBug). kNone for real checking.
  PruneBug prune_bug = PruneBug::kNone;
};

/// One reproducible failure: re-running the named oracle on
/// build_random_circuit(circuit) with `seed` and `cycles` diverges again.
struct Divergence {
  int trial = -1;
  /// "packed-vs-scalar" | "fault" | "campaign" | "static-prune" | "serve"
  std::string oracle;
  std::string message;
  std::uint64_t seed = 0;
  designs::RandomCircuitConfig circuit;
  int cycles = 0;
  int shrink_steps = 0;          // accepted reductions
  std::string netlist_verilog;   // dump of the (shrunk) failing netlist
  /// Lint findings on the shrunk circuit ("" when clean): a structural
  /// defect here usually explains the divergence faster than the dump.
  std::string lint_report;
};

struct CheckReport {
  int trials_run = 0;
  int packed_checks = 0;
  int fault_checks = 0;
  int campaign_checks = 0;
  int prune_checks = 0;
  int serve_checks = 0;
  std::vector<Divergence> divergences;

  bool ok() const { return divergences.empty(); }
};

/// Run the harness. Stops at the first divergence (after shrinking it).
/// `log`, when non-null, receives one progress line per 10 trials and the
/// full failure report on divergence.
CheckReport run_checks(const CheckConfig& config, std::ostream* log = nullptr);

/// Render a divergence as a multi-line reproduction recipe.
std::string format_divergence(const Divergence& d);

}  // namespace fcrit::check
