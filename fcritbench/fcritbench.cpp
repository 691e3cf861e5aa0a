// fcritbench: the measuring half of the fcrit benchmark. run.py builds this
// binary next to the `fcrit` CLI, runs one mode per process and turns the
// JSON line each mode prints last into the benchmark's result.
//
//   fcritbench reference    --campaigns <design>#<batch>,...
//       Campaign references for the standard campaigns (refs.json): each
//       campaign must first pass check::diff_campaign_equivalence; the digest
//       of its verdicts is then the reference the measured runs are held to.
//   fcritbench analyze_zonal --seed N --seconds T --refs K=D,... [--trace FILE]
//   fcritbench fi_sweep      --seed N --seconds T --refs K=D,... [--trace FILE]
//       The measured workloads; --refs gives the campaign digests to match.
//   fcritbench score_setup   --seed N --dir D --randoms K
//       Builds the score_mix inputs in D: one bundle per design (short
//       training), each design's netlist and K random netlists per design.
//   fcritbench score_expect  --dir D --pairs FILE --top N
//       In-process ScoringEngine::score of every "<bundle> <target>" pair in
//       FILE: the ranked lines each daemon response must equal.
//
// Every mode drives the layers from outside through their public functions
// and changes nothing in them. With --trace, spans are recorded around each
// layer call (name = the src/ module), kept in memory and written to FILE at
// exit; self time per layer is a span's duration minus its child spans.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/check/differential.hpp"
#include "src/designs/random_circuit.hpp"
#include "src/explain/gnn_explainer.hpp"
#include "src/fault/dataset.hpp"
#include "src/graphir/features.hpp"
#include "src/graphir/graph.hpp"
#include "src/graphir/split.hpp"
#include "src/lint/lint.hpp"
#include "src/netlist/verilog_writer.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/serve/bundle.hpp"
#include "src/serve/engine.hpp"
#include "src/serve/server.hpp"
#include "src/sim/probability.hpp"
#include "src/util/parallel.hpp"

#ifndef FCRITBENCH_BUILD_TYPE
#define FCRITBENCH_BUILD_TYPE "unknown"
#endif
#ifndef FCRITBENCH_COMPILER
#define FCRITBENCH_COMPILER "unknown"
#endif

namespace fcrit::benchmark {
namespace {

// The workload seed that reproduces bench::standard_config() exactly; the
// campaign references for it are recorded in refs.json.
constexpr std::uint64_t kDefaultSeed = 7;
// ML kernels and campaign shards run at a fixed thread count: at 4 threads
// on a 4-core host, run-to-run spread is several times larger.
constexpr int kThreads = 2;
constexpr int kExplainNodes = 8;
// Workload batches per design in one fi_sweep pass, seeded as
// PipelineConfig::workload_batches seeds them.
constexpr int kSweepBatches = 2;
// Faults replayed through serial injection by the reference oracle.
constexpr int kOracleInjectFaults = 64;

const std::vector<std::string>& sweep_designs() {
  static const std::vector<std::string> names = {"or1200_icfsm", "sdram_ctrl",
                                                 "or1200_if", "ee_zonal"};
  return names;
}

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

// ---- arguments ---------------------------------------------------------------

struct Args {
  std::string mode;
  std::map<std::string, std::string> flags;

  bool has(const std::string& k) const { return flags.contains(k); }
  std::string str(const std::string& k) const {
    const auto it = flags.find(k);
    if (it == flags.end()) throw std::runtime_error("missing flag " + k);
    return it->second;
  }
  std::uint64_t seed() const {
    return has("--seed") ? std::stoull(str("--seed")) : kDefaultSeed;
  }
  double seconds() const {
    return has("--seconds") ? std::stod(str("--seconds")) : 10.0;
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::runtime_error("usage: fcritbench <mode> [flags]");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0) throw std::runtime_error("bad argument " + k);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
      a.flags[k] = argv[++i];
    else
      a.flags[k] = "";
  }
  return a;
}

// ---- seeds ---------------------------------------------------------------------

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Sub-seed `salt` of a workload seed (kept small so it prints exactly).
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return splitmix(seed * 0x100000001b3ULL + salt) >> 16;
}

/// The pipeline configuration of a workload seed: the default seed is
/// bench::standard_config(); any other seed re-derives every pipeline seed.
core::PipelineConfig pipeline_config(std::uint64_t seed) {
  core::PipelineConfig cfg = bench::standard_config();
  if (seed != kDefaultSeed) {
    cfg.probability_seed = derive(seed, 1);
    cfg.campaign_seed = derive(seed, 2);
    cfg.split_seed = derive(seed, 3);
    cfg.baseline_seed = derive(seed, 4);
    cfg.classifier.seed = derive(seed, 5);
  }
  cfg.jobs = kThreads;
  cfg.campaign_threads = kThreads;
  return cfg;
}

/// analyze_zonal keeps the standard stimulus, split and GCN-init seeds and
/// derives only the baseline and explainer seeds, whose work does not depend
/// on them. The classifier's early stop follows the others: over six
/// derived stimulus seeds it stopped anywhere from epoch 166 to 400, and two
/// of ten derived split/init seeds stopped it at 290 and 226 instead of 400,
/// which spreads analyze time across seeds by about the benchmark's bound.
core::PipelineConfig analyze_config(std::uint64_t seed) {
  core::PipelineConfig cfg = bench::standard_config();
  if (seed != kDefaultSeed) cfg.baseline_seed = derive(seed, 4);
  cfg.jobs = kThreads;
  cfg.campaign_threads = kThreads;
  return cfg;
}

explain::ExplainerConfig explainer_config(std::uint64_t seed) {
  explain::ExplainerConfig ec;
  if (seed != kDefaultSeed) ec.seed = derive(seed, 6);
  return ec;
}

/// The campaign the pipeline runs for batch `b` of `design`.
fault::CampaignConfig campaign_config(const core::PipelineConfig& cfg,
                                      const designs::Design& design, int b) {
  fault::CampaignConfig cc;
  cc.cycles = cfg.campaign_cycles;
  cc.dangerous_cycle_fraction = cfg.dangerous_cycle_fraction >= 0
                                    ? cfg.dangerous_cycle_fraction
                                    : design.dangerous_cycle_fraction;
  cc.engine = cfg.campaign_engine;
  cc.batch_faults = cfg.campaign_batch_faults;
  cc.collapse_equivalent = cfg.campaign_collapse_equivalent;
  cc.static_prune = cfg.campaign_static_prune;
  cc.num_threads = cfg.campaign_threads;
  cc.seed = cfg.campaign_seed + 7919ULL * static_cast<std::uint64_t>(b);
  return cc;
}

std::string campaign_key(const std::string& design, int b) {
  return design + "#" + std::to_string(b);
}

// ---- checks -----------------------------------------------------------------------

/// FNV-1a digest of every verdict field a campaign reports per fault.
std::string campaign_digest(const fault::CampaignResult& r) {
  std::string bytes;
  bytes.reserve(r.faults.size() * 32);
  auto put = [&bytes](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<char>(v >> (8 * i)));
  };
  for (const fault::FaultResult& f : r.faults) {
    put(f.fault.node);
    put(static_cast<std::uint64_t>(f.fault.stuck_value));
    put(f.dangerous_lanes);
    put(f.detected_lanes);
    put(f.mismatch_cycles);
    put(static_cast<std::uint64_t>(static_cast<std::int64_t>(f.first_detect_cycle)));
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(serve::fnv1a64(bytes)));
  return hex;
}

/// Campaign references from --refs "<design>#<batch>=<digest>,...".
std::map<std::string, std::string> parse_refs(const std::string& list) {
  std::map<std::string, std::string> out;
  std::stringstream ss(list);
  for (std::string item; std::getline(ss, item, ',');) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) throw std::runtime_error("bad --refs " + item);
    out[item.substr(0, eq)] = item.substr(eq + 1);
  }
  return out;
}

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void op(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

void check_campaign(Checks& checks,
                    const std::map<std::string, std::string>& refs,
                    const std::string& key, const fault::CampaignResult& r) {
  const auto it = refs.find(key);
  const std::string got = campaign_digest(r);
  checks.op(it != refs.end() && it->second == got,
            "campaign " + key + " digest " + got + " != reference " +
                (it == refs.end() ? std::string("(none)") : it->second));
}

// ---- spans --------------------------------------------------------------------------

/// In-memory span recorder for the traced runs. A span names the layer (the
/// src/ module) whose public function it wraps; `detail` says which call.
class SpanLog {
 public:
  struct Span {
    std::string layer;
    std::string detail;
    double start_ms = 0;
    double end_ms = 0;
    int parent = -1;
    int run = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  void set_run(int run) { run_ = run; }

  int open(const std::string& layer, const std::string& detail) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({layer, detail, now_ms(), 0.0, parent, run_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ms = now_ms();
    stack_.pop_back();
  }

  /// A child span of known duration whose interval the caller cannot see
  /// (the static triage inside FaultCampaign::run_all, timed by the
  /// campaign itself). Placed at the parent's start.
  void derived_child(int parent, const std::string& layer,
                     const std::string& detail, double ms) {
    if (parent < 0) return;
    const Span& p = spans_[static_cast<std::size_t>(parent)];
    spans_.push_back({layer, detail, p.start_ms, p.start_ms + ms, parent, run_});
  }

  /// Per layer: self ms (span minus direct children) and call count, over
  /// every span of run `run` except its root.
  void layer_totals(int run, Metrics& m) const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.run != run || s.parent < 0) continue;
      m[s.layer + ".self_ms"] += s.end_ms - s.start_ms - child_ms[i];
      m[s.layer + ".calls"] += 1;
    }
  }

  /// Share of the root span of `run` covered by its direct children.
  double coverage(int run) const {
    double root = 0, covered = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.run != run) continue;
      if (s.parent < 0) root += s.end_ms - s.start_ms;
      else if (spans_[static_cast<std::size_t>(s.parent)].parent < 0)
        covered += s.end_ms - s.start_ms;
    }
    return root > 0 ? covered / root : 0.0;
  }

  void write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write " + path);
    os << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"id\":" << i
         << ",\"name\":" << obs::json_string(s.layer)
         << ",\"detail\":" << obs::json_string(s.detail)
         << ",\"start_ms\":" << obs::json_number(s.start_ms)
         << ",\"end_ms\":" << obs::json_number(s.end_ms)
         << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}";
    }
    os << "\n]}\n";
  }

 private:
  double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0_)
        .count();
  }

  bool enabled_;
  int run_ = 0;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, const std::string& layer, const std::string& detail)
      : log_(log), id_(log.open(layer, detail)) {}
  ~SpanScope() { log_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Change in the ml.kernel.<k>_ms histograms across one stage.
class KernelDelta {
 public:
  static const std::vector<std::string>& kernels() {
    static const std::vector<std::string> k = {"matmul", "matmul_tn",
                                               "matmul_nt", "spmm", "spmm_t"};
    return k;
  }

  KernelDelta() : before_(take()) {}

  /// Writes ml.<stage>.<kernel>.calls/.ms and ml.<stage>.nonkernel_ms.
  void finish(const std::string& stage, double stage_ms, Metrics& m) const {
    const auto after = take();
    double kernel_ms = 0;
    for (const auto& k : kernels()) {
      const auto calls = after.at(k).first - before_.at(k).first;
      const double ms = after.at(k).second - before_.at(k).second;
      m["ml." + stage + "." + k + ".calls"] = static_cast<double>(calls);
      m["ml." + stage + "." + k + ".ms"] = ms;
      kernel_ms += ms;
    }
    m["ml." + stage + ".nonkernel_ms"] = stage_ms - kernel_ms;
  }

 private:
  using Totals = std::map<std::string, std::pair<std::uint64_t, double>>;
  static Totals take() {
    const auto snap = obs::registry().snapshot();
    Totals t;
    for (const auto& k : kernels()) {
      const auto it = snap.histograms.find("ml.kernel." + k + "_ms");
      t[k] = it == snap.histograms.end()
                 ? std::pair<std::uint64_t, double>{0, 0.0}
                 : std::pair<std::uint64_t, double>{it->second.count,
                                                    it->second.sum};
    }
    return t;
  }

  Totals before_;
};

// ---- output -------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// User + system CPU seconds of this process so far.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

/// The one JSON line a mode prints last: metrics, checks and provenance.
void emit(const Metrics& metrics, const Checks& checks,
          const std::map<std::string, std::string>& info) {
  std::ostringstream os;
  os << "{\"metrics\":{";
  bool first = true;
  for (const auto& [k, v] : metrics) {
    os << (first ? "" : ",") << obs::json_string(k) << ":"
       << obs::json_number(v);
    first = false;
  }
  os << "},\"attempted\":" << checks.attempted
     << ",\"failed\":" << checks.failed << ",\"errors\":[";
  for (std::size_t i = 0; i < checks.errors.size(); ++i)
    os << (i ? "," : "") << obs::json_string(checks.errors[i]);
  os << "],\"info\":{";
  first = true;
  auto all = info;
  all["build_type"] = FCRITBENCH_BUILD_TYPE;
  all["compiler"] = FCRITBENCH_COMPILER;
  all["threads"] = std::to_string(util::num_threads());
  for (const auto& [k, v] : all) {
    os << (first ? "" : ",") << obs::json_string(k) << ":"
       << obs::json_string(v);
    first = false;
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

/// Tracing overhead of a traced pass over an untraced pass of the same
/// work. Measured on CPU time: wall time on a shared host moves by several
/// percent between two passes, far more than the spans cost.
void report_overhead(double plain_ms, double traced_ms, double plain_cpu_ms,
                     double traced_cpu_ms, Metrics& m) {
  m["trace.overhead_pct"] = 100.0 * (traced_cpu_ms - plain_cpu_ms) / plain_cpu_ms;
  m["trace.untraced_ms"] = plain_ms;
  m["trace.traced_ms"] = traced_ms;
  m["trace.untraced_cpu_ms"] = plain_cpu_ms;
  m["trace.traced_cpu_ms"] = traced_cpu_ms;
}

/// Times `setup` in rounds and returns the median round's mean, in seconds
/// per set-up; the last result is the one the workload uses. A round runs
/// `setup` kRepsPerCpu times on each CPU the process may use, pinned to one
/// CPU at a time. On a shared host the vCPUs differ in speed by up to half
/// for a set-up of about a millisecond, so timed on whichever CPU the
/// scheduler picked, set-up time moved by 40% between runs.
template <typename F>
double timed_setup(F&& setup) {
  constexpr int kRepsPerCpu = 5;
  constexpr int kMaxRounds = 25;
  constexpr double kBudgetMs = 500.0;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  if (cpus.empty()) cpus.push_back(-1);  // affinity unknown: do not pin
  std::vector<double> rounds;
  const auto start = Clock::now();
  while (static_cast<int>(rounds.size()) < kMaxRounds &&
         (rounds.size() < 3 || ms_since(start) < kBudgetMs)) {
    double ms = 0.0;
    for (const int c : cpus) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      if (c >= 0) sched_setaffinity(0, sizeof one, &one);
      const auto t = Clock::now();
      for (int i = 0; i < kRepsPerCpu; ++i) setup();
      ms += ms_since(t);
    }
    rounds.push_back(ms / 1e3 / static_cast<double>(kRepsPerCpu * cpus.size()));
  }
  if (cpus.front() >= 0) sched_setaffinity(0, sizeof allowed, &allowed);
  return median(rounds);
}

// ---- reference ---------------------------------------------------------------------

int run_reference(const Args& args) {
  const core::PipelineConfig cfg = pipeline_config(kDefaultSeed);
  std::vector<std::pair<std::string, int>> campaigns;
  std::stringstream list(args.str("--campaigns"));
  for (std::string key; std::getline(list, key, ',');)
    campaigns.emplace_back(key.substr(0, key.find('#')),
                           std::stoi(key.substr(key.find('#') + 1)));
  const auto t = Clock::now();
  Metrics m;
  Checks checks;
  std::map<std::string, std::string> info;
  for (const auto& [name, b] : campaigns) {
    const designs::Design d = designs::build_design(name);
    const fault::CampaignConfig cc = campaign_config(cfg, d, b);
    const std::string msg =
        check::diff_campaign_equivalence(d, cc, kOracleInjectFaults);
    checks.op(msg.empty(), campaign_key(name, b) + ": " + msg);
    if (!msg.empty()) continue;
    fault::FaultCampaign campaign(d.netlist, d.stimulus, cc);
    info["ref." + campaign_key(name, b)] = campaign_digest(campaign.run_all());
  }
  m["check_s"] = ms_since(t) / 1e3;
  emit(m, checks, info);
  return checks.failed == 0 ? 0 : 1;
}

// ---- analyze_zonal ------------------------------------------------------------------

/// The nodes `fcrit analyze --explain K` explains: dataset nodes ranked by
/// the regressor's score (the classifier's probability without one).
std::vector<int> top_ranked(const core::PipelineResult& r, int k) {
  struct Entry {
    netlist::NodeId node;
    double score;
  };
  std::vector<Entry> ranking;
  for (const auto node : r.dataset.nodes)
    ranking.push_back({node, r.regression ? r.regression->predicted_score[node]
                                          : r.gcn_eval.proba[node]});
  std::sort(ranking.begin(), ranking.end(),
            [](const Entry& a, const Entry& b) { return a.score > b.score; });
  std::vector<int> out;
  for (int i = 0; i < k && i < static_cast<int>(ranking.size()); ++i)
    out.push_back(static_cast<int>(ranking[static_cast<std::size_t>(i)].node));
  return out;
}

std::vector<explain::Explanation> explain_top(
    core::PipelineResult& r, const explain::ExplainerConfig& config,
    SpanLog& log) {
  SpanScope span(log, "explain", "gnn_explainer");
  explain::GnnExplainer explainer(*r.gcn, r.graph, r.features, config);
  std::vector<explain::Explanation> out;
  for (const int node : top_ranked(r, kExplainNodes))
    out.push_back(explainer.explain(node));
  return out;
}

core::ModelEval evaluate_model(std::string name, std::vector<double> proba,
                               std::vector<int> predicted,
                               const std::vector<int>& labels,
                               const std::vector<int>& val_idx) {
  core::ModelEval eval;
  eval.name = std::move(name);
  eval.proba = std::move(proba);
  eval.predicted = std::move(predicted);
  eval.val_confusion = ml::confusion(eval.predicted, labels, val_idx);
  eval.val_accuracy = eval.val_confusion.accuracy();
  bool has_pos = false, has_neg = false;
  for (const int i : val_idx)
    (labels[static_cast<std::size_t>(i)] == 1 ? has_pos : has_neg) = true;
  eval.val_auc = (has_pos && has_neg) ? ml::roc_auc(eval.proba, labels, val_idx)
                                      : 0.5;
  return eval;
}

/// FaultCriticalityAnalyzer::analyze, stage by stage in the order of
/// src/core/pipeline.cpp, with a span around each layer call. Fills the
/// per-layer metrics the traced run reports.
core::PipelineResult traced_analyze(const core::PipelineConfig& cfg,
                                    designs::Design design, SpanLog& log,
                                    Metrics& m) {
  util::set_num_threads(cfg.jobs);
  core::PipelineResult r;
  r.config = cfg;
  r.design = std::move(design);
  const netlist::Netlist& nl = r.design.netlist;
  nl.validate();
  const std::string dn = r.design.name;

  {
    SpanScope span(log, "lint", "preflight");
    const auto t = Clock::now();
    const lint::LintReport preflight = lint::lint_netlist(nl);
    if (preflight.errors() > 0) throw std::runtime_error("lint preflight failed");
    m["lint.preflight_ms"] = ms_since(t);
  }
  {
    SpanScope span(log, "sim", "estimate_by_simulation");
    const auto t = Clock::now();
    r.stats = sim::estimate_by_simulation(nl, r.design.stimulus,
                                          cfg.probability_seed,
                                          cfg.probability_cycles);
    m["sim.golden_ms"] = ms_since(t);
  }
  {
    const auto t = Clock::now();
    const int batches = std::max(1, cfg.workload_batches);
    for (int b = 0; b < batches; ++b) {
      SpanScope span(log, "fault", "run_all");
      fault::FaultCampaign campaign(nl, r.design.stimulus,
                                    campaign_config(cfg, r.design, b));
      fault::CampaignResult c = campaign.run_all();
      log.derived_child(span.id(), "sla", "triage", c.triage_seconds * 1e3);
      if (b == 0) r.campaign = std::move(c);
      else r.extra_campaigns.push_back(std::move(c));
    }
    r.fi_seconds = ms_since(t) / 1e3;
  }
  {
    SpanScope span(log, "fault", "generate_dataset");
    std::vector<const fault::CampaignResult*> batches{&r.campaign};
    for (const auto& extra : r.extra_campaigns) batches.push_back(&extra);
    r.dataset = fault::generate_dataset(batches, cfg.criticality_threshold);
  }
  {
    SpanScope span(log, "graphir", "build_graph");
    const auto t = Clock::now();
    r.graph = graphir::build_graph(nl);
    m["graphir.graph_ms"] = ms_since(t);
  }
  {
    SpanScope span(log, "graphir", "extract_features");
    const auto t = Clock::now();
    r.features_raw = graphir::extract_features(nl, r.stats);
    m["graphir.features_ms"] = ms_since(t);
  }
  r.labels.assign(nl.num_nodes(), 0);
  r.scores.assign(nl.num_nodes(), 0.0);
  std::vector<int> candidates;
  candidates.reserve(r.dataset.size());
  for (std::size_t i = 0; i < r.dataset.size(); ++i) {
    const auto id = r.dataset.nodes[i];
    r.labels[id] = r.dataset.label[i];
    r.scores[id] = r.dataset.score[i];
    candidates.push_back(static_cast<int>(id));
  }
  {
    SpanScope span(log, "graphir", "stratified_split");
    r.split = graphir::stratified_split(candidates, r.labels,
                                        cfg.train_fraction, cfg.split_seed);
  }
  {
    SpanScope span(log, "lint", "graphir_gate");
    lint::LintReport gate;
    lint::lint_graphir(nl,
                       {.graph = &r.graph,
                        .features = &r.features_raw,
                        .labels = &r.labels,
                        .split = &r.split},
                       gate);
    if (gate.errors() > 0) throw std::runtime_error("graph-IR gate failed");
  }
  {
    SpanScope span(log, "graphir", "standardize");
    r.standardizer = graphir::Standardizer::fit(r.features_raw, r.split.train);
    r.features = r.standardizer.transform(r.features_raw);
  }
  {
    SpanScope span(log, "ml", "gcn_train");
    const auto t = Clock::now();
    const KernelDelta kernels;
    r.gcn = std::make_unique<ml::GcnModel>(r.features.cols(), cfg.classifier);
    r.gcn_history = ml::train_classifier(*r.gcn, r.graph.normalized_adjacency,
                                         r.features, r.labels, r.split.train,
                                         r.split.val, cfg.train);
    const double ms = ms_since(t);
    kernels.finish("gcn_train", ms, m);
    const auto epochs = static_cast<double>(r.gcn_history.train_loss.size());
    m["ml.gcn_train_ms"] = ms;
    m["ml.gcn_train.epochs"] = epochs;
    m["ml.gcn_train.ms_per_epoch"] = epochs > 0 ? ms / epochs : 0.0;
  }
  {
    SpanScope span(log, "ml", "gcn_inference");
    const ml::Matrix out = r.gcn->forward(r.features, /*training=*/false);
    r.gcn_eval = evaluate_model("GCN", ml::class1_probability(out),
                                ml::predict_labels(out), r.labels, r.split.val);
  }
  if (cfg.train_baselines) {
    for (auto& baseline : ml::make_all_baselines(cfg.baseline_seed)) {
      SpanScope span(log, "ml", "baseline." + baseline->name());
      const auto t = Clock::now();
      baseline->fit(r.features, r.labels, r.split.train);
      auto proba = baseline->predict_proba(r.features);
      auto predicted = ml::labels_from_proba(proba);
      r.baseline_evals.push_back(evaluate_model(baseline->name(),
                                                std::move(proba),
                                                std::move(predicted), r.labels,
                                                r.split.val));
      m["ml.baselines." + baseline->name() + "_ms"] = ms_since(t);
    }
  }
  if (cfg.train_regressor) {
    SpanScope span(log, "ml", "regressor");
    const auto t = Clock::now();
    const KernelDelta kernels;
    ml::GcnConfig rc = ml::GcnConfig::regressor();
    rc.hidden = cfg.classifier.hidden;
    rc.dropout = cfg.classifier.dropout;
    rc.dropout_after = cfg.classifier.dropout_after;
    r.regressor = std::make_unique<ml::GcnModel>(r.features.cols(), rc);
    const ml::TrainHistory h = ml::train_regressor(
        *r.regressor, r.graph.normalized_adjacency, r.features, r.scores,
        r.split.train, r.split.val, cfg.regressor_train);
    const double train_ms = ms_since(t);
    const auto epochs = static_cast<double>(h.train_loss.size());
    m["ml.regressor_ms"] = train_ms;
    m["ml.regressor.epochs"] = epochs;
    m["ml.regressor.ms_per_epoch"] = epochs > 0 ? train_ms / epochs : 0.0;

    core::RegressionEval reg;
    const ml::Matrix pred = r.regressor->forward(r.features, false);
    reg.predicted_score.resize(nl.num_nodes());
    for (std::size_t i = 0; i < reg.predicted_score.size(); ++i)
      reg.predicted_score[i] = static_cast<double>(pred(static_cast<int>(i), 0));
    std::vector<double> val_true, val_pred;
    int agree = 0;
    for (const int i : r.split.val) {
      const auto iu = static_cast<std::size_t>(i);
      val_true.push_back(r.scores[iu]);
      val_pred.push_back(reg.predicted_score[iu]);
      const int score_class =
          reg.predicted_score[iu] >= cfg.criticality_threshold ? 1 : 0;
      if (score_class == r.gcn_eval.predicted[iu]) ++agree;
    }
    double mse = 0.0;
    for (std::size_t i = 0; i < val_true.size(); ++i) {
      const double d = val_true[i] - val_pred[i];
      mse += d * d;
    }
    reg.val_mse = mse / static_cast<double>(val_true.size());
    reg.val_pearson = ml::pearson(val_true, val_pred);
    reg.val_spearman = ml::spearman(val_true, val_pred);
    reg.classifier_conformity =
        static_cast<double>(agree) / static_cast<double>(r.split.val.size());
    r.regression = std::move(reg);
    kernels.finish("regressor", ms_since(t), m);
  }
  return r;
}

/// Checks one analyze pass: campaign verdicts against the reference,
/// classifier probabilities in [0, 1], regression present.
void check_analysis(Checks& checks,
                    const std::map<std::string, std::string>& refs,
                    const core::PipelineResult& r) {
  check_campaign(checks, refs, campaign_key(r.design.name, 0), r.campaign);
  bool proba_ok = !r.gcn_eval.proba.empty();
  for (const double p : r.gcn_eval.proba)
    proba_ok = proba_ok && std::isfinite(p) && p >= 0.0 && p <= 1.0;
  checks.op(proba_ok && r.regression && std::isfinite(r.regression->val_mse),
            "classifier probabilities outside [0,1] or no regression");
}

void check_explanations(Checks& checks,
                        const std::vector<explain::Explanation>& ex) {
  for (const auto& e : ex) {
    bool ok = !e.feature_mask.empty();
    for (const double v : e.feature_mask)
      ok = ok && std::isfinite(v) && v >= 0.0 && v <= 1.0;
    checks.op(ok, "explanation of node " + std::to_string(e.node) +
                      " has a mask outside [0,1]");
  }
}

/// The traced pass must reproduce analyze(): same verdicts, labels, split
/// and validation metrics, bit for bit.
std::string diff_results(const core::PipelineResult& a,
                         const core::PipelineResult& b) {
  if (campaign_digest(a.campaign) != campaign_digest(b.campaign))
    return "FI digest differs";
  if (a.labels != b.labels) return "labels differ";
  if (a.split.train != b.split.train || a.split.val != b.split.val)
    return "split differs";
  if (a.gcn_eval.val_auc != b.gcn_eval.val_auc) return "gcn_val_auc differs";
  if (!a.regression || !b.regression ||
      a.regression->val_mse != b.regression->val_mse)
    return "reg_val_mse differs";
  return {};
}

int run_analyze_zonal(const Args& args) {
  const std::uint64_t seed = args.seed();
  const core::PipelineConfig cfg = analyze_config(seed);
  const explain::ExplainerConfig ec = explainer_config(seed);
  const auto refs = parse_refs(args.str("--refs"));
  util::set_num_threads(kThreads);

  designs::Design design;
  Metrics m;
  m["setup_s"] = timed_setup([&] { design = designs::build_design("ee_zonal"); });

  Checks checks;
  std::map<std::string, std::string> info;
  const core::FaultCriticalityAnalyzer analyzer(cfg);
  SpanLog untraced(false);

  if (!args.has("--trace")) {
    std::vector<double> pass_ms, pass_cpu_ms;
    double work_ms = 0;
    std::size_t nodes = 0;
    do {
      designs::Design input = design;
      const auto t = Clock::now();
      const double cpu0 = cpu_seconds();
      core::PipelineResult r = analyzer.analyze(std::move(input));
      const auto ex = explain_top(r, ec, untraced);
      const double ms = ms_since(t);
      pass_cpu_ms.push_back((cpu_seconds() - cpu0) * 1e3);
      pass_ms.push_back(ms);
      work_ms += ms;
      nodes += r.dataset.size();
      check_analysis(checks, refs, r);
      check_explanations(checks, ex);
      info["gcn_val_auc"] = obs::json_number(r.gcn_eval.val_auc);
      info["reg_val_mse"] = obs::json_number(r.regression->val_mse);
      info["gcn_epochs"] = std::to_string(r.gcn_history.train_loss.size());
    } while (work_ms < args.seconds() * 1e3);
    m["latency_ms"] = median(pass_ms);
    m["cpu_ms"] = median(pass_cpu_ms);
    m["throughput_per_s"] = static_cast<double>(nodes) / (work_ms / 1e3);
    m["passes"] = static_cast<double>(pass_ms.size());
    m["peak_rss_mb"] = peak_rss_mb();
    emit(m, checks, info);
    return 0;
  }

  // Traced run: analyze() once untraced (the reference for equivalence and
  // tracing overhead), then the same pipeline stage by stage under spans.
  designs::Design input = design;
  auto t = Clock::now();
  double cpu0 = cpu_seconds();
  core::PipelineResult plain = analyzer.analyze(std::move(input));
  const auto plain_ex = explain_top(plain, ec, untraced);
  const double plain_ms = ms_since(t);
  const double plain_cpu_ms = (cpu_seconds() - cpu0) * 1e3;
  check_analysis(checks, refs, plain);
  check_explanations(checks, plain_ex);

  SpanLog log(true);
  log.set_run(1);
  Metrics layers;
  double traced_ms = 0, traced_cpu_ms = 0;
  {
    SpanScope root(log, "analyze_zonal", "pipeline");
    t = Clock::now();
    cpu0 = cpu_seconds();
    core::PipelineResult traced =
        traced_analyze(cfg, design, log, layers);
    const double before_explain = ms_since(t);
    const KernelDelta kernels;
    const auto ex = explain_top(traced, ec, log);
    const double explain_ms = ms_since(t) - before_explain;
    traced_ms = ms_since(t);
    traced_cpu_ms = (cpu_seconds() - cpu0) * 1e3;
    kernels.finish("explain", explain_ms, layers);
    layers["explain.ms_per_node"] =
        explain_ms / static_cast<double>(std::max<std::size_t>(1, ex.size()));
    layers["ml.gcn_val_auc"] = traced.gcn_eval.val_auc;
    layers["ml.reg_val_mse"] = traced.regression->val_mse;
    const auto& c = traced.campaign;
    const std::string d = "." + traced.design.name;
    layers["sla.triage_ms" + d] = c.triage_seconds * 1e3;
    layers["sla.pruned_faults" + d] = c.pruned_faults;
    layers["sla.prune_ratio" + d] =
        static_cast<double>(c.pruned_faults) /
        static_cast<double>(std::max<std::size_t>(1, c.faults.size()));
    layers["fault.golden_ms" + d] = c.golden_seconds * 1e3;
    layers["fault.sim_ms" + d] = c.fault_seconds * 1e3;
    layers["fault.simulated_faults" + d] = c.simulated_faults;
    layers["fault.batches" + d] = c.num_batches;
    layers["fault.frontier_evals" + d] = static_cast<double>(c.frontier_evals);
    layers["fault.early_exit_cycles" + d] =
        static_cast<double>(c.early_exit_cycles);
    layers["fault.faults_per_s" + d] =
        static_cast<double>(c.faults.size()) / traced.fi_seconds;
    const std::string diff = diff_results(plain, traced);
    checks.op(diff.empty(), "traced run differs from analyze(): " + diff);
  }
  log.layer_totals(1, layers);
  layers["trace.span_coverage"] = log.coverage(1);
  report_overhead(plain_ms, traced_ms, plain_cpu_ms, traced_cpu_ms, layers);
  log.write(args.str("--trace"));
  emit(layers, checks, info);
  return 0;
}

// ---- fi_sweep ---------------------------------------------------------------------------

/// fi_sweep runs the standard campaigns (bench::standard_config()'s
/// stimulus seed, kSweepBatches batches per design), whose references are
/// recorded; the workload seed shuffles their order. A campaign's cost
/// follows its stimulus: over five derived stimulus seeds the same sweep
/// took from 3.3 s to 4.6 s, a spread across seeds near the benchmark's bound.
int run_fi_sweep(const Args& args) {
  const std::uint64_t seed = args.seed();
  const core::PipelineConfig cfg = pipeline_config(kDefaultSeed);
  const auto refs = parse_refs(args.str("--refs"));
  util::set_num_threads(kThreads);

  std::vector<designs::Design> designs;
  Metrics m;
  m["setup_s"] = timed_setup([&] {
    designs.clear();
    for (const auto& name : sweep_designs())
      designs.push_back(designs::build_design(name));
  });
  std::vector<std::pair<std::size_t, int>> order;  // (design, batch)
  for (std::size_t i = 0; i < designs.size(); ++i)
    for (int b = 0; b < kSweepBatches; ++b) order.emplace_back(i, b);
  if (seed != kDefaultSeed)
    std::shuffle(order.begin(), order.end(), std::mt19937_64(derive(seed, 7)));

  Checks checks;
  const bool traced = args.has("--trace");
  SpanLog log(traced);

  // One pass: every design's full stuck-at campaign for each workload batch.
  struct PerDesign {
    double faults = 0, ms = 0;
  };
  std::map<std::string, PerDesign> per;
  auto sweep = [&](Metrics* layers) {
    const auto t = Clock::now();
    for (const auto& [i, b] : order) {
      const designs::Design& d = designs[i];
      {
        SpanScope span(log, "fault", "run_all " + campaign_key(d.name, b));
        const auto tc = Clock::now();
        fault::FaultCampaign campaign(d.netlist, d.stimulus,
                                      campaign_config(cfg, d, b));
        const fault::CampaignResult r = campaign.run_all();
        const double ms = ms_since(tc);
        log.derived_child(span.id(), "sla", "triage", r.triage_seconds * 1e3);
        check_campaign(checks, refs, campaign_key(d.name, b), r);
        per[d.name].faults += static_cast<double>(r.faults.size());
        per[d.name].ms += ms;
        if (!layers) continue;
        Metrics& l = *layers;
        const std::string k = "." + d.name;
        l["sla.triage_ms" + k] += r.triage_seconds * 1e3;
        l["sla.pruned_faults" + k] += r.pruned_faults;
        l["fault.golden_ms" + k] += r.golden_seconds * 1e3;
        l["fault.sim_ms" + k] += r.fault_seconds * 1e3;
        l["fault.simulated_faults" + k] += r.simulated_faults;
        l["fault.batches" + k] += r.num_batches;
        l["fault.frontier_evals" + k] += static_cast<double>(r.frontier_evals);
        l["fault.early_exit_cycles" + k] +=
            static_cast<double>(r.early_exit_cycles);
        l["fault.universe" + k] += static_cast<double>(r.faults.size());
      }
    }
    return ms_since(t);
  };

  if (!traced) {
    std::vector<double> pass_ms, pass_cpu_ms;
    double work_ms = 0;
    do {
      const double cpu0 = cpu_seconds();
      pass_ms.push_back(sweep(nullptr));
      pass_cpu_ms.push_back((cpu_seconds() - cpu0) * 1e3);
      work_ms += pass_ms.back();
    } while (work_ms < args.seconds() * 1e3);
    m["cpu_ms"] = median(pass_cpu_ms);
    double faults = 0;
    for (const auto& [name, p] : per) {
      faults += p.faults;
      m["fi_faults_per_s." + name] = p.faults / (p.ms / 1e3);
    }
    m["latency_ms"] = median(pass_ms);
    m["throughput_per_s"] = faults / (work_ms / 1e3);
    m["passes"] = static_cast<double>(pass_ms.size());
    m["peak_rss_mb"] = peak_rss_mb();
    emit(m, checks, {});
    return 0;
  }

  // Traced run: one untraced pass for the overhead, then one traced pass.
  double cpu0 = cpu_seconds();
  const double plain_ms = sweep(nullptr);
  const double plain_cpu_ms = (cpu_seconds() - cpu0) * 1e3;
  per.clear();
  Metrics layers;
  log.set_run(1);
  double traced_ms = 0;
  {
    SpanScope root(log, "fi_sweep", "sweep");
    cpu0 = cpu_seconds();
    traced_ms = sweep(&layers);
  }
  const double traced_cpu_ms = (cpu_seconds() - cpu0) * 1e3;
  for (const auto& d : designs) {
    const std::string k = "." + d.name;
    layers["sla.prune_ratio" + k] =
        layers["sla.pruned_faults" + k] / layers["fault.universe" + k];
    layers["fault.faults_per_s" + k] =
        per[d.name].faults / (per[d.name].ms / 1e3);
    layers.erase("fault.universe" + k);
  }
  log.layer_totals(1, layers);
  layers["trace.span_coverage"] = log.coverage(1);
  report_overhead(plain_ms, traced_ms, plain_cpu_ms, traced_cpu_ms, layers);
  log.write(args.str("--trace"));
  emit(layers, checks, {});
  return 0;
}

// ---- score_mix inputs -------------------------------------------------------------------

void write_verilog_file(const netlist::Netlist& nl, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  netlist::write_verilog(nl, os);
}

/// Bundles, netlists and random look-alikes for score_mix, in `dir`:
///   <design>.fcm, <design>.v, rand_<design>_<k>.v for k < randoms.
/// Bundles get short training: the forward pass has the same shape.
int run_score_setup(const Args& args) {
  const std::uint64_t seed = args.seed();
  const std::string dir = args.str("--dir");
  const int randoms = std::stoi(args.str("--randoms"));
  util::set_num_threads(kThreads);

  core::PipelineConfig cfg = pipeline_config(seed);
  cfg.train_baselines = false;
  cfg.campaign_cycles = 32;
  cfg.train.epochs = 20;
  cfg.regressor_train.epochs = 20;
  const core::FaultCriticalityAnalyzer analyzer(cfg);

  Metrics m;
  Checks checks;
  std::map<std::string, std::string> info;
  std::uint64_t salt = 100;
  for (const auto& name : sweep_designs()) {
    designs::Design d = designs::build_design(name);
    write_verilog_file(d.netlist, dir + "/" + name + ".v");
    designs::RandomCircuitConfig rc;
    rc.num_inputs = static_cast<int>(d.netlist.inputs().size());
    rc.num_flops = static_cast<int>(d.netlist.flops().size());
    rc.num_outputs = static_cast<int>(d.netlist.outputs().size());
    rc.num_gates = static_cast<int>(d.netlist.num_gates()) - rc.num_flops;
    for (int k = 0; k < randoms; ++k) {
      rc.seed = derive(seed, salt++);
      const designs::Design rd = designs::build_random_circuit(rc);
      write_verilog_file(rd.netlist, dir + "/rand_" + name + "_" +
                                         std::to_string(k) + ".v");
    }
    const core::PipelineResult r = analyzer.analyze(std::move(d));
    serve::save_bundle_file(serve::pack_bundle(r), dir + "/" + name + ".fcm");
    info["bundle_val_auc." + name] = obs::json_number(r.gcn_eval.val_auc);
  }
  emit(m, checks, info);
  return 0;
}

/// Expected ranked lines for each "<bundle> <target>" line of --pairs:
/// ScoringEngine::score of the same files, spread over the engine's workers.
int run_score_expect(const Args& args) {
  const std::string dir = args.str("--dir");
  const int top = std::stoi(args.str("--top"));
  std::ifstream is(args.str("--pairs"));
  if (!is) throw std::runtime_error("cannot read " + args.str("--pairs"));
  std::vector<std::string> keys;
  for (std::string bundle, target; is >> bundle >> target;)
    keys.push_back(bundle + " " + target);
  serve::EngineConfig ec;
  ec.threads = 4;
  ec.queue_capacity = keys.size() + 1;
  serve::ScoringEngine engine(ec);
  std::vector<std::future<serve::ScoreResult>> results;
  for (const std::string& key : keys) {
    const std::size_t sp = key.find(' ');
    results.push_back(engine.submit(dir + "/" + key.substr(0, sp) + ".fcm",
                                    dir + "/" + key.substr(sp + 1)));
  }
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::string resp =
        serve::format_score_response(results[i].get(), top);
    // The ranked lines: no header, no ".\n" terminator.
    const std::size_t begin = resp.find('\n') + 1;
    os << (i ? "," : "") << obs::json_string(keys[i]) << ":"
       << obs::json_string(resp.substr(begin, resp.size() - begin - 2));
  }
  os << "}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

}  // namespace
}  // namespace fcrit::benchmark

int main(int argc, char** argv) {
  using namespace fcrit::benchmark;
  try {
    const Args args = parse_args(argc, argv);
    if (args.mode == "reference") return run_reference(args);
    if (args.mode == "analyze_zonal") return run_analyze_zonal(args);
    if (args.mode == "fi_sweep") return run_fi_sweep(args);
    if (args.mode == "score_setup") return run_score_setup(args);
    if (args.mode == "score_expect") return run_score_expect(args);
    std::fprintf(stderr, "fcritbench: unknown mode %s\n", args.mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fcritbench: %s\n", e.what());
    return 1;
  }
}
