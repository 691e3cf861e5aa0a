// Closed-loop load generator for the scoring daemon's engine: C clients
// per bundle hammer the four built-in designs and every request's latency
// is recorded. Three configurations run back to back on one
// ScoringEngine with 2 worker threads:
//
//   daemon          no request-trace collector wired at all
//   daemon-trace / daemon-notrace
//                   identical load through a request-trace collector that
//                   is enabled vs disabled, each request begun and
//                   finished exactly as serve::Server does — the
//                   tracing-overhead A/B the observability contract is
//                   judged by (<= 2% p99 delta, docs/OBSERVABILITY.md)
//
//   bench_serve [--clients C] [--requests R]
//
// Each configuration lands in BENCH_serve.json as four phases —
// "<config>.req_per_s", "<config>.p50_ms", "<config>.p90_ms",
// "<config>.p99_ms" (the Recorder schema's wall_ms field carries the
// stat named by the suffix) — so the throughput trajectory is tracked
// across commits like every other bench.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "src/designs/designs.hpp"
#include "src/graphir/features.hpp"
#include "src/ml/gcn.hpp"
#include "src/netlist/verilog_writer.hpp"
#include "src/obs/request_trace.hpp"
#include "src/serve/bundle.hpp"
#include "src/serve/engine.hpp"

namespace {

using namespace fcrit;

struct Workload {
  std::string dir;
  std::vector<std::string> bundles;   // one .fcm per built-in design
  std::vector<std::string> netlists;  // matching .v target files
};

// Random-weight bundles over the real built-in designs: the full serving
// path runs (parse, stats sim, features, forward) without paying for
// training. Wider hidden layers than the tests use, so the forward pass
// is a real fraction of the request.
Workload build_workload() {
  Workload w;
  w.dir = (std::filesystem::temp_directory_path() / "fcrit_bench_serve")
              .string();
  std::filesystem::remove_all(w.dir);
  std::filesystem::create_directories(w.dir);
  std::uint64_t seed = 1;
  for (const auto& name : designs::all_design_names()) {
    const designs::Design d = designs::build_design(name);
    serve::ModelBundle b;
    b.manifest.design_name = d.name;
    b.manifest.netlist_hash = serve::netlist_content_hash(d.netlist);
    b.manifest.feature_width = graphir::kNumBaseFeatures;
    b.manifest.feature_names = graphir::base_feature_names();
    b.manifest.probability_cycles = 32;
    b.manifest.probability_seed = 5;
    b.stimulus = d.stimulus;
    b.standardizer.mean.assign(graphir::kNumBaseFeatures, 0.0);
    b.standardizer.stddev.assign(graphir::kNumBaseFeatures, 1.0);
    ml::GcnConfig cc = ml::GcnConfig::classifier();
    cc.hidden = {32, 32};
    cc.seed = seed++;
    b.classifier =
        std::make_unique<ml::GcnModel>(graphir::kNumBaseFeatures, cc);
    const std::string bundle_path = w.dir + "/" + name + ".fcm";
    serve::save_bundle_file(b, bundle_path);
    w.bundles.push_back(bundle_path);
    const std::string netlist_path = w.dir + "/" + name + ".v";
    std::ofstream(netlist_path) << netlist::to_verilog(d.netlist);
    w.netlists.push_back(netlist_path);
  }
  return w;
}

struct LoadStats {
  double wall_ms = 0.0;
  double req_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t errors = 0;
};

double percentile(const std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted_ms.size())));
  return sorted_ms[std::min(idx == 0 ? 0 : idx - 1, sorted_ms.size() - 1)];
}

/// Closed loop: `clients` threads per bundle, each issuing `requests`
/// back-to-back scores (next request only after the previous response) —
/// so concurrency is fixed and queue depth stays bounded by client count.
LoadStats run_load(const Workload& w, int clients, int requests,
                   const std::function<serve::ScoreResult(
                       const std::string&, const std::string&)>& score) {
  std::mutex mu;
  std::vector<double> latencies_ms;
  std::size_t errors = 0;
  std::vector<std::thread> threads;
  util::Timer wall;
  for (std::size_t b = 0; b < w.bundles.size(); ++b) {
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, b] {
        std::vector<double> mine;
        std::size_t my_errors = 0;
        for (int r = 0; r < requests; ++r) {
          util::Timer t;
          try {
            score(w.bundles[b], w.netlists[b]);
            mine.push_back(t.millis());
          } catch (const std::exception&) {
            ++my_errors;
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        latencies_ms.insert(latencies_ms.end(), mine.begin(), mine.end());
        errors += my_errors;
      });
    }
  }
  for (auto& t : threads) t.join();
  LoadStats s;
  s.wall_ms = wall.millis();
  s.errors = errors;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  s.req_per_s =
      static_cast<double>(latencies_ms.size()) / (s.wall_ms / 1000.0);
  s.p50_ms = percentile(latencies_ms, 0.50);
  s.p90_ms = percentile(latencies_ms, 0.90);
  s.p99_ms = percentile(latencies_ms, 0.99);
  return s;
}

void report(bench::Recorder& rec, const std::string& config,
            const LoadStats& s) {
  std::printf("%-16s %8.1f req/s   p50 %7.2f ms   p90 %7.2f ms   p99 %7.2f ms   (%zu errors)\n",
              config.c_str(), s.req_per_s, s.p50_ms, s.p90_ms, s.p99_ms,
              s.errors);
  rec.phase(config + ".req_per_s", s.req_per_s);
  rec.phase(config + ".p50_ms", s.p50_ms);
  rec.phase(config + ".p90_ms", s.p90_ms);
  rec.phase(config + ".p99_ms", s.p99_ms);
}

}  // namespace

int main(int argc, char** argv) {
  int clients = 4;    // per bundle: 4 bundles x 4 = 16 concurrent clients
  int requests = 12;  // per client
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--clients") == 0) clients = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--requests") == 0) requests = std::atoi(argv[i + 1]);
  }
  clients = std::max(1, clients);
  requests = std::max(1, requests);

  bench::print_header("Serving tier: closed-loop load (" +
                      std::to_string(clients) + " clients/bundle x " +
                      std::to_string(requests) + " requests)");
  const Workload w = build_workload();
  bench::Recorder rec("serve");

  {
    serve::ScoringEngine engine({.threads = 2, .queue_capacity = 256});
    report(rec, "daemon",
           run_load(w, clients, requests,
                    [&](const std::string& bundle, const std::string& target) {
                      return engine.submit(bundle, target).get();
                    }));
  }

  // Tracing overhead A/B: the same load with the request-trace collector
  // on vs off. Every traced request pays begin/spans/finish; disabled
  // tracing must cost one relaxed atomic load per site. The acceptance
  // bar is a <= 2% p99 delta between these two legs.
  for (const bool tracing : {true, false}) {
    obs::RequestTraceCollector traces(512);
    traces.set_enabled(tracing);
    serve::ScoringEngine engine(
        {.threads = 2, .queue_capacity = 256, .traces = &traces});
    report(rec, tracing ? "daemon-trace" : "daemon-notrace",
           run_load(w, clients, requests,
                    [&](const std::string& bundle, const std::string& target) {
                      serve::ScoreOptions opts;
                      opts.trace_id = traces.begin(bundle, target);
                      serve::ScoreResult r =
                          engine.submit(bundle, target, opts).get();
                      traces.finish(opts.trace_id, "ok");
                      return r;
                    }));
  }

  rec.write();
  return 0;
}
