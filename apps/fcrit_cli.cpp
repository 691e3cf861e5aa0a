// fcrit — command-line front end of the fault-criticality framework.
//
//   fcrit list
//   fcrit lint    <design|netlist.v|netlist.bench> [--json] [--fail-on S]
//   fcrit stats   <design|netlist.v|netlist.bench>
//   fcrit export  <design> --format verilog|bench|dot [-o FILE]
//   fcrit sweep   <netlist.v> [-o FILE]
//   fcrit campaign <design|file> [--cycles N] [--seed S] [--fraction F]
//   fcrit analyze <design|file> [--top N] [--no-baselines] [--explain K]
//   fcrit pipeline <design|file> [...]            alias of analyze
//   fcrit scoap   <design|file> [--top N]
//   fcrit wave    <design|file> [--cycles N] [--lane L] [-o FILE]
//   fcrit autopsy <design|file> --node NAME [--sa 0|1] [--cycles N]
//   fcrit harden  <design|file> [--top K] [-o FILE]
//   fcrit pack    <design|file> -o bundle.fcm
//   fcrit score   <bundle.fcm> <design|file|@list> [--top N] [--strict]
//   fcrit serve   <bundle-dir> [--port P] [--threads T] [--cache N]
//   fcrit fleet   <bundle-dir> [...]                alias of serve
//   fcrit check   [--trials N] [--seed S] [--self-test] [...]
//
// A "design" argument is a registered name (sdram_ctrl, or1200_if,
// or1200_icfsm); anything ending in .v or .bench is parsed from disk. The
// built-in designs carry protocol-aware stimulus; parsed netlists use a
// generic profile (reset pulse on any input named rst*, uniform elsewhere).
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/check/harness.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/report.hpp"
#include "src/serve/bundle.hpp"
#include "src/serve/engine.hpp"
#include "src/serve/server.hpp"
#include "src/explain/aggregate.hpp"
#include "src/explain/gnn_explainer.hpp"
#include "src/fault/collapse.hpp"
#include "src/netlist/bench_format.hpp"
#include "src/netlist/stats.hpp"
#include "src/netlist/transform.hpp"
#include "src/fault/autopsy.hpp"
#include "src/fault/report.hpp"
#include "src/graphir/graph.hpp"
#include "src/lint/lint.hpp"
#include "src/netlist/dot_export.hpp"
#include "src/netlist/harden.hpp"
#include "src/ml/serialize.hpp"
#include "src/obs/exporter.hpp"
#include "src/obs/log.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/request_trace.hpp"
#include "src/obs/trace.hpp"
#include "src/netlist/verilog_parser.hpp"
#include "src/netlist/verilog_writer.hpp"
#include "src/sim/scoap.hpp"
#include "src/sim/vcd.hpp"
#include "src/util/parallel.hpp"
#include "src/util/text.hpp"

namespace {

using namespace fcrit;

constexpr const char* kVersion = "0.2.0";

constexpr const char* kUsageText =
    "usage: fcrit <command> [args]\n"
    "  list                              registered designs\n"
    "  lint <design|file> [--json] [--fail-on error|warn|note]\n"
    "                                    structural static analysis; exit 1\n"
    "                                    when findings reach the threshold\n"
    "  stats <design|file>               netlist statistics\n"
    "  export <design> --format F [-o FILE]   F: verilog|bench|dot\n"
    "  sweep <file> [-o FILE]            remove dead logic\n"
    "  campaign <design|file> [--cycles N] [--seed S]\n"
    "           [--fraction F] [--threads T] [--report FILE]\n"
    "           [--no-collapse] [--no-static-prune]\n"
    "  analyze <design|file> [--top N] [--no-baselines]\n"
    "           [--explain K] [--save-model FILE] [--csv FILE]\n"
    "           [--cycles N] [--epochs N] [--trace-out FILE]\n"
    "           [--no-static-prune]\n"
    "  pipeline <design|file> [...]      alias of analyze; --trace-out FILE\n"
    "                                    writes a Chrome trace of the phases\n"
    "  scoap <design|file> [--top N]     testability report\n"
    "  wave <design|file> [--cycles N] [--lane L] [-o FILE]\n"
    "                                    dump a VCD waveform\n"
    "  autopsy <design|file> --node NAME [--sa 0|1] [--cycles N]\n"
    "                                    debug one fault\n"
    "  harden <design|file> [--top K] [-o FILE]\n"
    "                                    TMR the predicted top-K\n"
    "  pack <design|file> [-o FILE.fcm] [--cycles N] [--prob-cycles N]\n"
    "           [--epochs N] [--no-static-prune]\n"
    "                                    train + package a model bundle\n"
    "  score <bundle.fcm> <design|file|@list> [--top N] [--strict]\n"
    "           [--threads T]            inference only, no FI campaign\n"
    "  serve <bundle-dir> [--port P] [--threads T] [--cache N]\n"
    "        [--access-log F] [--slow-ms MS] [--telemetry-interval S]\n"
    "        [--telemetry-out F] [--trace-ring N] [--no-trace]\n"
    "                                    scoring daemon on 127.0.0.1; serves\n"
    "                                    bundles added or rewritten on disk\n"
    "                                    from the next request on\n"
    "  fleet <bundle-dir> [...]          alias of serve\n"
    "  check [--trials N] [--seed S] [--cycles N] [--gates N] [--flops N]\n"
    "        [--inputs N] [--outputs N] [--faults N] [--serve-every K]\n"
    "        [--campaign-every K] [--prune-every K]\n"
    "        [--no-shrink] [--no-dump] [--self-test]\n"
    "                                    differential-oracle fuzzing harness\n"
    "  help | --help                     this text\n"
    "  version                           print the fcrit version\n"
    "every command fails on a flag it does not take\n"
    "global flags (before or after the command):\n"
    "              --verbose | --quiet   log level (also FCRIT_LOG=\n"
    "                                    error|warn|info|debug|trace)\n"
    "              --jobs N              ML kernel worker threads (also\n"
    "                                    FCRIT_THREADS; 0 = all cores,\n"
    "                                    1 = serial; results are bitwise-\n"
    "                                    identical for any value)\n";

int usage() {
  std::fputs(kUsageText, stderr);
  return 2;
}

bool is_file_arg(const std::string& arg) {
  return util::ends_with(arg, ".v") || util::ends_with(arg, ".bench");
}

designs::Design load_target(const std::string& arg) {
  if (!is_file_arg(arg)) return designs::build_design(arg);
  std::ifstream in(arg);
  if (!in) throw std::runtime_error("cannot open " + arg);
  designs::Design d;
  d.name = arg;
  d.netlist = util::ends_with(arg, ".bench") ? netlist::parse_bench(in)
                                             : netlist::parse_verilog(in);
  // Generic stimulus: reset pulse on rst-like ports.
  for (const auto in_id : d.netlist.inputs()) {
    const auto& name = d.netlist.node(in_id).name;
    if (util::starts_with(name, "rst") || util::starts_with(name, "reset"))
      d.stimulus.profiles[name] = {.p1 = 0.01, .hold_cycles = 2,
                                   .hold_value = true};
  }
  return d;
}

/// The flags each verb reads (the global flags are taken out before
/// dispatch). Any other `-x`/`--x` fails naming it, so a typo never runs
/// silently with the default.
const std::map<std::string, std::vector<std::string>> kVerbFlags = [] {
  const std::vector<std::string> serve = {
      "--port", "--threads", "--cache", "--access-log", "--slow-ms",
      "--telemetry-interval", "--telemetry-out", "--trace-ring", "--no-trace"};
  const std::vector<std::string> analyze = {
      "--top", "--no-baselines", "--explain", "--save-model", "--csv",
      "--cycles", "--epochs", "--trace-out", "--no-static-prune"};
  return std::map<std::string, std::vector<std::string>>{
      {"list", {}},
      {"lint", {"--json", "--fail-on"}},
      {"stats", {}},
      {"export", {"--format", "-o"}},
      {"sweep", {"-o"}},
      {"campaign",
       {"--cycles", "--seed", "--fraction", "--threads", "--report",
        "--no-collapse", "--no-static-prune"}},
      {"analyze", analyze},
      {"pipeline", analyze},
      {"scoap", {"--top"}},
      {"wave", {"--cycles", "--lane", "-o"}},
      {"autopsy", {"--node", "--sa", "--cycles"}},
      {"harden", {"--top", "-o"}},
      {"pack",
       {"-o", "--cycles", "--prob-cycles", "--epochs", "--no-static-prune"}},
      {"score", {"--top", "--strict", "--threads"}},
      {"serve", serve},
      {"fleet", serve},
      {"check",
       {"--trials", "--seed", "--cycles", "--gates", "--flops", "--inputs",
        "--outputs", "--faults", "--serve-every", "--campaign-every",
        "--prune-every", "--no-shrink", "--no-dump", "--self-test"}},
  };
}();

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int start,
                                               const std::string& verb) {
  const std::vector<std::string>& known = kVerbFlags.at(verb);
  std::map<std::string, std::string> flags;
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (!util::starts_with(arg, "--") && arg[0] != '-') continue;
    std::string key = arg;
    if (std::find(known.begin(), known.end(), key) == known.end())
      throw std::runtime_error(verb + " does not take " + key +
                               " (see fcrit help)");
    std::string value = "1";
    // A value never starts with '-' unless it is a negative number, so a
    // negative count reaches the flag's own check instead of becoming a
    // stray flag.
    if (i + 1 < argc &&
        (argv[i + 1][0] != '-' ||
         std::isdigit(static_cast<unsigned char>(argv[i + 1][1]))))
      value = argv[++i];
    flags[key] = value;
  }
  return flags;
}

/// --threads of campaign, score and serve, in the --jobs grammar: 0 = all
/// cores, N = exactly N (at most 1024); `fallback` when the flag is absent.
int thread_flag(const std::map<std::string, std::string>& flags,
                int fallback) {
  const auto it = flags.find("--threads");
  if (it == flags.end()) return fallback;
  const int n = util::parse_thread_count(it->second);
  if (n < 0)
    throw std::runtime_error("--threads needs a thread count (0 = all "
                             "cores, at most 1024), got '" +
                             it->second + "'");
  return n == 0 ? util::hardware_threads() : n;
}

/// A non-negative integer flag (`fallback` when absent); anything else
/// fails naming the flag instead of dying in a bare std::stoi.
int int_flag(const std::map<std::string, std::string>& flags,
             const std::string& name, int fallback) {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  const std::string& v = it->second;
  if (!v.empty() && v.size() <= 9 &&
      std::all_of(v.begin(), v.end(),
                  [](char c) { return c >= '0' && c <= '9'; }))
    return std::stoi(v);
  throw std::runtime_error(name + " needs a non-negative integer, got '" + v +
                           "'");
}

/// An unsigned decimal flag such as --seed (`fallback` when absent); a
/// sign, any other character or a value above 2^64-1 fails naming the flag
/// instead of wrapping in std::stoull.
std::uint64_t u64_flag(const std::map<std::string, std::string>& flags,
                       const std::string& name, std::uint64_t fallback) {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  const std::string& v = it->second;
  std::uint64_t out = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (!v.empty() && ec == std::errc() && end == v.data() + v.size())
    return out;
  throw std::runtime_error(name + " needs an unsigned decimal integer, got '" +
                           v + "'");
}

/// A finite number flag in [lo, hi] (`fallback` when absent); anything
/// else fails naming the flag and the range.
double number_flag(const std::map<std::string, std::string>& flags,
                   const std::string& name, double fallback, double lo,
                   double hi = std::numeric_limits<double>::infinity()) {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  const std::string& v = it->second;
  double x = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (!v.empty() && ec == std::errc() && end == v.data() + v.size() &&
      std::isfinite(x) && x >= lo && x <= hi)
    return x;
  char range[64];
  if (std::isfinite(hi))
    std::snprintf(range, sizeof range, "in [%g, %g]", lo, hi);
  else
    std::snprintf(range, sizeof range, ">= %g", lo);
  throw std::runtime_error(name + " needs a finite number " + range +
                           ", got '" + v + "'");
}

int cmd_list() {
  for (const auto& name : designs::design_names()) {
    const auto d = designs::build_design(name);
    std::printf("%-14s %s\n", name.c_str(),
                netlist::compute_stats(d.netlist).to_string().c_str());
  }
  return 0;
}

int cmd_lint(const std::string& target,
             const std::map<std::string, std::string>& flags) {
  lint::LintReport report;
  report.target_name = target;
  netlist::Netlist nl;
  bool have_netlist = false;

  if (!is_file_arg(target)) {
    nl = designs::build_design(target).netlist;
    have_netlist = true;
  } else if (util::ends_with(target, ".v")) {
    // Lenient parse: semantic problems become typed findings (with their
    // source lines) and the repaired netlist is still linted structurally.
    // Syntactic failures (the lexer/grammar giving up) still surface as a
    // single parse-error finding so --json always emits a report.
    std::ifstream in(target);
    if (!in) throw std::runtime_error("cannot open " + target);
    try {
      auto parsed = netlist::parse_verilog_collect(in);
      lint::add_parse_issues(parsed.issues, report);
      nl = std::move(parsed.netlist);
      have_netlist = true;
    } catch (const std::exception& e) {
      lint::Diagnostic d;
      d.rule_id = "parse-error";
      d.severity = lint::Severity::kError;
      d.message = e.what();
      report.add(std::move(d));
    }
  } else {
    std::ifstream in(target);
    if (!in) throw std::runtime_error("cannot open " + target);
    try {
      nl = netlist::parse_bench(in);
      have_netlist = true;
    } catch (const std::exception& e) {
      lint::Diagnostic d;
      d.rule_id = "parse-error";
      d.severity = lint::Severity::kError;
      d.message = e.what();
      report.add(std::move(d));
    }
  }

  if (have_netlist) {
    lint::lint_netlist(nl, report);
    try {
      const auto graph = graphir::build_graph(nl);
      lint::lint_graphir(nl, {.graph = &graph}, report);
    } catch (const std::exception& e) {
      lint::Diagnostic d;
      d.rule_id = "graphir-consistency";
      d.severity = lint::Severity::kError;
      d.message = std::string("graph construction failed: ") + e.what();
      report.add(std::move(d));
    }
  }

  obs::registry().counter("lint.findings_total")
      .add(report.diagnostics.size());
  obs::registry().counter("lint.errors_total").add(report.errors());

  if (flags.contains("--json"))
    std::printf("%s\n", report.to_json().c_str());
  else
    std::printf("%s", report.to_string().c_str());

  lint::Severity threshold = lint::Severity::kError;
  if (flags.contains("--fail-on")) {
    const std::string& t = flags.at("--fail-on");
    if (t == "error")
      threshold = lint::Severity::kError;
    else if (t == "warn" || t == "warning")
      threshold = lint::Severity::kWarning;
    else if (t == "note")
      threshold = lint::Severity::kNote;
    else {
      std::fprintf(stderr, "lint: --fail-on must be error|warn|note\n");
      return 2;
    }
  }
  return report.count_at_least(threshold) > 0 ? 1 : 0;
}

int cmd_stats(const std::string& target) {
  const auto d = load_target(target);
  std::printf("%s\n", netlist::compute_stats(d.netlist).to_string().c_str());
  const auto collapsed = fault::collapse_faults(d.netlist);
  std::printf("fault universe: %zu stuck-at faults, %zu after collapsing "
              "(%.1f%%)\n",
              collapsed.original_count, collapsed.representatives.size(),
              100.0 * collapsed.collapse_ratio());
  return 0;
}

int cmd_export(const std::string& target,
               const std::map<std::string, std::string>& flags) {
  const auto d = load_target(target);
  const auto format_it = flags.find("--format");
  const std::string format =
      format_it == flags.end() ? "verilog" : format_it->second;
  std::string text;
  if (format == "verilog")
    text = netlist::to_verilog(d.netlist);
  else if (format == "bench")
    text = netlist::to_bench(d.netlist);
  else if (format == "dot")
    text = netlist::to_dot(d.netlist);
  else {
    std::fprintf(stderr, "unknown format '%s'\n", format.c_str());
    return 2;
  }
  const auto out_it = flags.find("-o");
  if (out_it == flags.end()) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream out(out_it->second);
    out << text;
    std::printf("wrote %s\n", out_it->second.c_str());
  }
  return 0;
}

int cmd_sweep(const std::string& target,
              const std::map<std::string, std::string>& flags) {
  const auto d = load_target(target);
  const auto result = netlist::sweep(d.netlist);
  std::printf("removed %zu dead nodes (%zu -> %zu)\n", result.dropped(),
              d.netlist.num_nodes(), result.netlist.num_nodes());
  const auto out_it = flags.find("-o");
  if (out_it != flags.end()) {
    std::ofstream out(out_it->second);
    netlist::write_verilog(result.netlist, out);
    std::printf("wrote %s\n", out_it->second.c_str());
  }
  return 0;
}

int cmd_campaign(const std::string& target,
                 const std::map<std::string, std::string>& flags) {
  fault::CampaignConfig cfg;
  cfg.num_threads = thread_flag(flags, cfg.num_threads);
  const auto d = load_target(target);
  cfg.dangerous_cycle_fraction = d.dangerous_cycle_fraction;
  cfg.cycles = int_flag(flags, "--cycles", cfg.cycles);
  cfg.seed = u64_flag(flags, "--seed", cfg.seed);
  cfg.dangerous_cycle_fraction =
      number_flag(flags, "--fraction", cfg.dangerous_cycle_fraction, 0, 1);
  if (flags.contains("--no-collapse")) cfg.collapse_equivalent = false;
  if (flags.contains("--no-static-prune")) cfg.static_prune = false;

  fault::FaultCampaign campaign(d.netlist, d.stimulus, cfg);
  const auto result = campaign.run_all();
  const auto ds = fault::generate_dataset(result, 0.5);
  std::printf("%s\n", ds.summary().c_str());
  std::printf("golden %.3fs, %zu faults in %.3fs\n", result.golden_seconds,
              result.faults.size(), result.fault_seconds);
  if (result.simulated_faults > 0)
    std::printf("frontier: %u simulated faults, %llu node evals, %llu "
                "quiesced fault-cycles\n",
                result.simulated_faults,
                static_cast<unsigned long long>(result.frontier_evals),
                static_cast<unsigned long long>(result.early_exit_cycles));
  if (cfg.static_prune)
    std::printf("static prune: %u dead-cone faults skipped in %.4f s\n",
                result.pruned_faults, result.triage_seconds);
  std::printf("%s\n",
              fault::summarize_coverage(result).to_string().c_str());
  if (flags.contains("--report")) {
    std::ofstream out(flags.at("--report"));
    fault::write_fault_report(d.netlist, result, out);
    std::printf("wrote %s\n", flags.at("--report").c_str());
  }
  // Score histogram.
  int buckets[10] = {0};
  for (const double s : ds.score)
    ++buckets[std::min(9, static_cast<int>(s * 10))];
  std::printf("criticality score histogram (0.0 .. 1.0):");
  for (const int b : buckets) std::printf(" %d", b);
  std::printf("\n");
  return 0;
}

int cmd_analyze(const std::string& target,
                const std::map<std::string, std::string>& flags) {
  core::PipelineConfig cfg;
  if (flags.contains("--no-baselines")) cfg.train_baselines = false;
  if (flags.contains("--no-static-prune")) cfg.campaign_static_prune = false;
  cfg.campaign_cycles = int_flag(flags, "--cycles", cfg.campaign_cycles);
  if (flags.contains("--epochs")) {
    cfg.train.epochs = int_flag(flags, "--epochs", 0);
    cfg.regressor_train.epochs = cfg.train.epochs;
  }
  const bool tracing = flags.contains("--trace-out");
  if (tracing) obs::Tracer::instance().start();
  core::FaultCriticalityAnalyzer analyzer(cfg);
  auto r = analyzer.analyze(load_target(target));
  std::printf("%s\n", core::summarize(r).c_str());

  const int top_n = int_flag(flags, "--top", 10);
  struct Entry {
    netlist::NodeId node;
    double score;
  };
  std::vector<Entry> ranking;
  for (const auto node : r.dataset.nodes)
    ranking.push_back({node, r.regression
                                 ? r.regression->predicted_score[node]
                                 : r.gcn_eval.proba[node]});
  std::sort(ranking.begin(), ranking.end(),
            [](const Entry& a, const Entry& b) { return a.score > b.score; });
  core::TextTable table({"Rank", "Node", "Predicted score", "FI truth",
                         "Verdict"});
  for (int i = 0; i < top_n && i < static_cast<int>(ranking.size()); ++i) {
    const auto& e = ranking[static_cast<std::size_t>(i)];
    table.add_row({std::to_string(i + 1), r.design.netlist.node(e.node).name,
                   util::format_double(e.score, 3),
                   util::format_double(r.scores[e.node], 3),
                   r.labels[e.node] ? "Critical" : "Non-critical"});
  }
  std::printf("top %d nodes by predicted criticality\n%s", top_n,
              table.to_string().c_str());

  if (flags.contains("--save-model")) {
    ml::save_gcn_file(*r.gcn, flags.at("--save-model"));
    std::printf("saved GCN to %s\n", flags.at("--save-model").c_str());
  }

  if (flags.contains("--csv")) {
    std::ofstream csv(flags.at("--csv"));
    csv << "node,cell,predicted_class,predicted_score,fi_score,fi_label\n";
    for (const auto node : r.dataset.nodes) {
      csv << r.design.netlist.node(node).name << ","
          << netlist::spec(r.design.netlist.kind(node)).name << ","
          << r.gcn_eval.predicted[node] << ","
          << (r.regression ? r.regression->predicted_score[node]
                           : r.gcn_eval.proba[node])
          << "," << r.scores[node] << "," << r.labels[node] << "\n";
    }
    std::printf("wrote %s (%zu rows)\n", flags.at("--csv").c_str(),
                r.dataset.size());
  }

  if (flags.contains("--explain")) {
    const int k = int_flag(flags, "--explain", 0);
    explain::GnnExplainer explainer(*r.gcn, r.graph, r.features);
    std::vector<explain::Explanation> explanations;
    for (int i = 0; i < k && i < static_cast<int>(ranking.size()); ++i)
      explanations.push_back(explainer.explain(
          static_cast<int>(ranking[static_cast<std::size_t>(i)].node)));
    const auto global = explain::aggregate_explanations(explanations);
    std::printf("\n%s", explain::format_global_importance(
                            global, graphir::base_feature_names())
                            .c_str());
  }

  if (tracing) {
    const std::string& path = flags.at("--trace-out");
    obs::Tracer::instance().stop();
    if (!obs::Tracer::instance().write_chrome_trace_file(path))
      throw std::runtime_error("cannot write trace to " + path);
    std::printf("wrote trace %s (%zu spans; load with chrome://tracing)\n",
                path.c_str(), obs::Tracer::instance().events().size());
  }
  return 0;
}

int cmd_scoap(const std::string& target,
              const std::map<std::string, std::string>& flags) {
  const auto d = load_target(target);
  const auto r = sim::compute_scoap(d.netlist);
  const int top_n = int_flag(flags, "--top", 10);

  // Rank by detection difficulty: min over polarity of (CC of the opposite
  // value + CO) — the classical testability measure.
  struct Entry {
    netlist::NodeId node;
    double difficulty;
  };
  std::vector<Entry> ranking;
  for (const auto node : fault::fault_sites(d.netlist)) {
    const double sa0 = r.cc1[node] + r.co[node];  // detect SA0: drive 1
    const double sa1 = r.cc0[node] + r.co[node];
    ranking.push_back({node, std::max(sa0, sa1)});
  }
  std::sort(ranking.begin(), ranking.end(), [](const Entry& a, const Entry& b) {
    return a.difficulty > b.difficulty;
  });
  core::TextTable table({"Node", "CC0", "CC1", "CO", "Hardest fault cost"});
  for (int i = 0; i < top_n && i < static_cast<int>(ranking.size()); ++i) {
    const auto node = ranking[static_cast<std::size_t>(i)].node;
    table.add_row({d.netlist.node(node).name,
                   util::format_double(r.cc0[node], 1),
                   util::format_double(r.cc1[node], 1),
                   util::format_double(r.co[node], 1),
                   util::format_double(
                       ranking[static_cast<std::size_t>(i)].difficulty, 1)});
  }
  std::printf("hardest-to-test nodes (SCOAP)\n%s", table.to_string().c_str());
  return 0;
}

int cmd_wave(const std::string& target,
             const std::map<std::string, std::string>& flags) {
  const auto d = load_target(target);
  const int cycles = int_flag(flags, "--cycles", 128);
  const int lane = int_flag(flags, "--lane", 0);
  const auto out_it = flags.find("-o");
  if (out_it == flags.end()) {
    sim::dump_vcd(d.netlist, d.stimulus, 1, cycles, lane, std::cout);
  } else {
    std::ofstream out(out_it->second);
    sim::dump_vcd(d.netlist, d.stimulus, 1, cycles, lane, out);
    std::printf("wrote %s (%d cycles, lane %d)\n", out_it->second.c_str(),
                cycles, lane);
  }
  return 0;
}

int cmd_autopsy(const std::string& target,
                const std::map<std::string, std::string>& flags) {
  const auto d = load_target(target);
  if (!flags.contains("--node")) {
    std::fprintf(stderr, "autopsy: --node NAME is required\n");
    return 2;
  }
  const auto node = d.netlist.find(flags.at("--node"));
  if (!node) {
    std::fprintf(stderr, "autopsy: no node named '%s'\n",
                 flags.at("--node").c_str());
    return 2;
  }
  fault::CampaignConfig cfg;
  cfg.dangerous_cycle_fraction = d.dangerous_cycle_fraction;
  cfg.cycles = int_flag(flags, "--cycles", cfg.cycles);
  const bool sa1 = flags.contains("--sa") && flags.at("--sa") == "1";

  fault::FaultCampaign campaign(d.netlist, d.stimulus, cfg);
  campaign.run_golden();
  const auto a = fault::run_autopsy(campaign, d.netlist, {*node, sa1});
  std::printf("%s", a.to_string().c_str());
  return 0;
}

int cmd_harden(const std::string& target,
               const std::map<std::string, std::string>& flags) {
  core::PipelineConfig cfg;
  cfg.train_baselines = false;
  core::FaultCriticalityAnalyzer analyzer(cfg);
  auto r = analyzer.analyze(load_target(target));
  std::printf("%s", core::summarize(r).c_str());

  const auto k = static_cast<std::size_t>(int_flag(flags, "--top", 10));
  std::vector<netlist::NodeId> ranked(r.dataset.nodes);
  std::sort(ranked.begin(), ranked.end(),
            [&](netlist::NodeId a, netlist::NodeId b) {
              return r.regression->predicted_score[a] >
                     r.regression->predicted_score[b];
            });
  if (ranked.size() > k) ranked.resize(k);

  const auto h = netlist::triplicate_nodes(r.design.netlist, ranked);
  std::printf("hardened %zu nodes (+%zu gates, %.1f%% overhead):\n",
              ranked.size(), h.added_gates,
              100.0 * h.overhead(r.design.netlist));
  for (const auto node : ranked)
    std::printf("  %s (predicted %.2f)\n",
                r.design.netlist.node(node).name.c_str(),
                r.regression->predicted_score[node]);
  const auto out_it = flags.find("-o");
  if (out_it != flags.end()) {
    std::ofstream out(out_it->second);
    netlist::write_verilog(h.netlist, out);
    std::printf("wrote %s\n", out_it->second.c_str());
  }
  return 0;
}

int cmd_pack(const std::string& target,
             const std::map<std::string, std::string>& flags) {
  core::PipelineConfig cfg;
  cfg.train_baselines = false;  // the bundle ships only the GCNs
  if (flags.contains("--no-static-prune")) cfg.campaign_static_prune = false;
  cfg.campaign_cycles = int_flag(flags, "--cycles", cfg.campaign_cycles);
  cfg.probability_cycles =
      int_flag(flags, "--prob-cycles", cfg.probability_cycles);
  if (flags.contains("--epochs")) {
    cfg.train.epochs = int_flag(flags, "--epochs", 0);
    cfg.regressor_train.epochs = cfg.train.epochs;
  }
  core::FaultCriticalityAnalyzer analyzer(cfg);
  const auto r = analyzer.analyze(load_target(target));

  const auto bundle = serve::pack_bundle(r);
  const auto out_it = flags.find("-o");
  const std::string path =
      out_it != flags.end() ? out_it->second : r.design.name + ".fcm";
  serve::save_bundle_file(bundle, path);
  std::printf("packed %s -> %s\n", r.design.name.c_str(), path.c_str());
  std::printf("  netlist hash %016llx, %d features, regressor %s\n",
              static_cast<unsigned long long>(bundle.manifest.netlist_hash),
              bundle.manifest.feature_width,
              bundle.regressor ? "yes" : "no");
  std::printf("  classifier val accuracy %.1f%%, val AUC %.3f\n",
              100.0 * r.gcn_eval.val_accuracy, r.gcn_eval.val_auc);
  return 0;
}

void print_score(const serve::ScoreResult& r, int top_n) {
  std::printf("%s scored with bundle '%s' (%zu nodes, netlist %s)\n",
              r.target_name.c_str(), r.bundle_design.c_str(),
              r.node_names.size(),
              r.netlist_matched ? "matched" : "DIFFERS from training");
  const auto ranked = serve::top_sites(r, top_n);
  core::TextTable table({"Rank", "Node", "P(Critical)", "Class", "Score"});
  int rank = 1;
  for (const auto id : ranked)
    table.add_row({std::to_string(rank++), r.node_names[id],
                   util::format_double(r.proba[id], 3),
                   r.predicted[id] ? "Critical" : "Non-critical",
                   util::format_double(r.score[id], 3)});
  std::printf("%s", table.to_string().c_str());
  std::printf("stats %.3fs, forward %.3fs\n", r.stats_seconds,
              r.forward_seconds);
}

int cmd_score(const std::string& bundle_path, const std::string& target,
              const std::map<std::string, std::string>& flags) {
  serve::EngineConfig ec;
  ec.threads = thread_flag(flags, 2);
  serve::ScoringEngine engine(ec);
  serve::ScoreOptions opts;
  opts.strict_hash = flags.contains("--strict");
  const int top_n = int_flag(flags, "--top", 10);

  // @list: one netlist per line, scored concurrently through the pool.
  if (util::starts_with(target, "@")) {
    std::ifstream list(target.substr(1));
    if (!list) throw std::runtime_error("cannot open " + target.substr(1));
    std::vector<std::pair<std::string, std::future<serve::ScoreResult>>>
        futures;
    std::string line;
    while (std::getline(list, line)) {
      const auto path = std::string(util::trim(line));
      if (path.empty() || path[0] == '#') continue;
      futures.emplace_back(path, engine.submit(bundle_path, path, opts));
    }
    int failures = 0;
    for (auto& [path, future] : futures) {
      try {
        print_score(future.get(), top_n);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fcrit score: %s: %s\n", path.c_str(),
                     e.what());
        ++failures;
      }
    }
    const auto m = engine.metrics();
    std::printf("%zu netlists, %llu served, %llu errors, cache %llu/%llu "
                "hits\n",
                futures.size(),
                static_cast<unsigned long long>(m.completed),
                static_cast<unsigned long long>(m.errors),
                static_cast<unsigned long long>(m.cache_hits),
                static_cast<unsigned long long>(m.cache_hits +
                                                m.cache_misses));
    return failures == 0 ? 0 : 1;
  }

  print_score(engine.score_path(bundle_path, target, opts), top_n);
  return 0;
}

// SIGINT/SIGTERM -> one byte down a self-pipe; the serve loop blocks on
// the read end and runs the orderly shutdown outside signal context.
int g_signal_pipe[2] = {-1, -1};

extern "C" void serve_signal_handler(int) {
  const char byte = 1;
  [[maybe_unused]] const auto n = write(g_signal_pipe[1], &byte, 1);
}

int cmd_serve(const std::string& bundle_dir,
              const std::map<std::string, std::string>& flags) {
  // Every flag is parsed before the engine and server exist, so a bad
  // value can never leave a daemon running.
  serve::EngineConfig ec;
  ec.threads = thread_flag(flags, ec.threads);
  ec.cache_capacity = static_cast<std::size_t>(
      int_flag(flags, "--cache", static_cast<int>(ec.cache_capacity)));
  const int trace_ring = int_flag(flags, "--trace-ring", 256);
  serve::ServerConfig sc;
  sc.bundle_dir = bundle_dir;
  const int port = int_flag(flags, "--port", sc.port);
  if (port > 65535)
    throw std::runtime_error("--port needs a TCP port in [0, 65535], got '" +
                             flags.at("--port") + "'");
  sc.port = static_cast<std::uint16_t>(port);
  // -1 (the flag absent) leaves slow-request mirroring off.
  const double slow_ms = number_flag(flags, "--slow-ms", -1, 0);
  // 0 keeps the exporter in manual mode (no background thread).
  const double telemetry_interval =
      number_flag(flags, "--telemetry-interval", 0, 0);

  // Declared before the engine: EngineConfig holds a pointer into it, so
  // it must outlive the workers that record spans.
  obs::RequestTraceCollector traces(static_cast<std::size_t>(trace_ring));
  traces.set_enabled(!flags.contains("--no-trace"));
  traces.set_slow_ms(slow_ms);
  ec.traces = &traces;
  serve::ScoringEngine engine(ec);
  serve::Server server(engine, sc);
  // Opt-in observability (docs/OBSERVABILITY.md): the JSONL wide-event
  // access log, slow-request mirroring and the continuous telemetry
  // exporter.
  if (flags.contains("--access-log") &&
      !traces.open_access_log(flags.at("--access-log")))
    throw std::runtime_error("cannot open access log " +
                             flags.at("--access-log"));
  obs::TelemetryExporter exporter;
  exporter.add_registry("engine", engine.metrics_registry());
  if (flags.contains("--telemetry-interval")) {
    const std::string out = flags.contains("--telemetry-out")
                                ? flags.at("--telemetry-out")
                                : std::string("telemetry.jsonl");
    if (!exporter.start(out, telemetry_interval))
      throw std::runtime_error("cannot open telemetry output " + out);
    server.set_exporter(&exporter);
  }
  server.start();
  std::printf("fcrit serve: 127.0.0.1:%d, %d worker threads, bundles from "
              "%s\n",
              server.port(), ec.threads, bundle_dir.c_str());
  std::printf("protocol: SCORE [<bundle>] <netlist> [<top>] [id=<n>] | "
              "STATS | METRICS [PROM] | TRACE <id>|LAST <n> | QUIT; "
              "Ctrl-C drains and exits\n");

  if (pipe(g_signal_pipe) != 0)
    throw std::runtime_error("cannot create signal pipe");
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  char byte = 0;
  while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }

  std::printf("\nfcrit serve: shutting down (draining in-flight "
              "requests)\n");
  server.stop();
  engine.shutdown();
  const auto m = engine.metrics();
  std::printf("served %llu requests (%llu errors), cache %llu hits / %llu "
              "misses, peak queue %zu\n",
              static_cast<unsigned long long>(m.requests),
              static_cast<unsigned long long>(m.errors),
              static_cast<unsigned long long>(m.cache_hits),
              static_cast<unsigned long long>(m.cache_misses),
              m.queue_high_water);
  // The counters would otherwise die with the process: one last
  // machine-readable snapshot, same payload as the METRICS command.
  std::printf("final metrics: %s\n", engine.metrics_json().c_str());
  return 0;
}

int cmd_check(const std::map<std::string, std::string>& flags) {
  check::CheckConfig cfg;
  cfg.trials = int_flag(flags, "--trials", cfg.trials);
  cfg.seed = u64_flag(flags, "--seed", cfg.seed);
  cfg.cycles = int_flag(flags, "--cycles", cfg.cycles);
  cfg.gates = int_flag(flags, "--gates", cfg.gates);
  cfg.flops = int_flag(flags, "--flops", cfg.flops);
  cfg.inputs = int_flag(flags, "--inputs", cfg.inputs);
  cfg.outputs = int_flag(flags, "--outputs", cfg.outputs);
  cfg.max_faults = int_flag(flags, "--faults", cfg.max_faults);
  cfg.serve_every = int_flag(flags, "--serve-every", cfg.serve_every);
  cfg.campaign_every = int_flag(flags, "--campaign-every", cfg.campaign_every);
  cfg.prune_every = int_flag(flags, "--prune-every", cfg.prune_every);
  if (flags.contains("--no-shrink")) cfg.shrink = false;
  if (flags.contains("--no-dump")) cfg.dump_netlist = false;
  cfg.scratch_dir =
      (std::filesystem::temp_directory_path() / "fcrit_check").string();

  // Self-test: three phases, each planting one deliberate defect that the
  // run must CATCH — a wrong-XOR scalar reference (packed-vs-scalar
  // oracle), a corrupted frontier+collapse verdict (campaign oracle), and
  // an output-reachable fault marked pruned (static-prune oracle).
  if (flags.contains("--self-test")) {
    check::CheckConfig scalar_cfg = cfg;
    scalar_cfg.scalar_bug = check::ScalarBug::kXorAsOr;
    const auto scalar_report = check::run_checks(scalar_cfg, &std::cerr);
    check::CheckConfig campaign_cfg = cfg;
    campaign_cfg.campaign_bug = check::CampaignBug::kMismatchOffByOne;
    const auto campaign_report = check::run_checks(campaign_cfg, &std::cerr);
    check::CheckConfig prune_cfg = cfg;
    prune_cfg.prune_bug = check::PruneBug::kPruneReachable;
    const auto prune_report = check::run_checks(prune_cfg, &std::cerr);
    if (scalar_report.ok() || campaign_report.ok() || prune_report.ok()) {
      std::fprintf(stderr,
                   "check: SELF-TEST FAILED: planted %s defect not caught\n",
                   scalar_report.ok()     ? "scalar"
                   : campaign_report.ok() ? "campaign"
                                          : "static-prune");
      return 1;
    }
    std::printf(
        "check: self-test OK (planted scalar + campaign + static-prune "
        "defects caught)\n");
    return 0;
  }

  const auto report = check::run_checks(cfg, &std::cerr);
  std::printf(
      "check: %d trials (%d packed-vs-scalar, %d fault-oracle, %d campaign, "
      "%d static-prune, %d serve)\n",
      report.trials_run, report.packed_checks, report.fault_checks,
      report.campaign_checks, report.prune_checks, report.serve_checks);
  if (!report.ok()) {
    std::fprintf(stderr, "check: FAILED\n");
    return 1;
  }
  std::printf("check: OK, all oracles bit-identical\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Global flags apply to every command and may stand anywhere, before
  // the command too; they are taken out of argv before dispatch.
  // FCRIT_LOG / FCRIT_THREADS are the environment-side knobs (see
  // src/obs/log.hpp, src/util/parallel.hpp).
  std::vector<char*> args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verbose") {
      obs::set_log_level(obs::LogLevel::kDebug);
    } else if (arg == "--quiet") {
      obs::set_log_level(obs::LogLevel::kWarn);
    } else if (arg == "--jobs") {
      const int n = i + 1 < argc ? util::parse_thread_count(argv[++i]) : -1;
      if (n < 0) {
        std::fprintf(stderr, "fcrit: --jobs needs a thread count "
                             "(0 = all cores, 1 = serial)\n");
        return 2;
      }
      util::set_num_threads(n);
    } else {
      args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    std::fputs(kUsageText, stdout);
    return 0;
  }
  if (command == "version" || command == "--version") {
    std::printf("fcrit %s\n", kVersion);
    return 0;
  }
  if (!kVerbFlags.contains(command)) return usage();
  try {
    // list and check have no positional target, only flags.
    if (command == "list") {
      parse_flags(argc, argv, 2, command);
      return cmd_list();
    }
    if (command == "check")
      return cmd_check(parse_flags(argc, argv, 2, command));
    if (argc < 3) return usage();
    const std::string target = argv[2];
    if (command == "score") {
      // score takes two positionals: <bundle> <target>, then flags.
      if (argc < 4 || argv[3][0] == '-') return usage();
      return cmd_score(target, argv[3], parse_flags(argc, argv, 4, command));
    }
    const auto flags = parse_flags(argc, argv, 3, command);
    if (command == "lint") return cmd_lint(target, flags);
    if (command == "stats") return cmd_stats(target);
    if (command == "export") return cmd_export(target, flags);
    if (command == "sweep") return cmd_sweep(target, flags);
    if (command == "campaign") return cmd_campaign(target, flags);
    if (command == "analyze" || command == "pipeline")
      return cmd_analyze(target, flags);
    if (command == "scoap") return cmd_scoap(target, flags);
    if (command == "wave") return cmd_wave(target, flags);
    if (command == "autopsy") return cmd_autopsy(target, flags);
    if (command == "harden") return cmd_harden(target, flags);
    if (command == "pack") return cmd_pack(target, flags);
    // fleet is the old name of the sharded tier, now one daemon.
    if (command == "serve" || command == "fleet")
      return cmd_serve(target, flags);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fcrit: %s\n", e.what());
    return 1;
  }
}
