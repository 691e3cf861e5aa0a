// The serve subsystem: bundle round-trips (bit-identical to the training
// pipeline), strict-validation failures, the LRU bundle cache, engine
// concurrency/determinism, and the wire protocol of the daemon.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/designs/random_circuit.hpp"
#include "src/netlist/verilog_writer.hpp"
#include "src/obs/exporter.hpp"
#include "src/obs/json.hpp"
#include "src/obs/request_trace.hpp"
#include "src/serve/bundle.hpp"
#include "src/serve/engine.hpp"
#include "src/serve/server.hpp"

namespace fcrit::serve {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return std::move(os).str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
}

template <typename Fn>
BundleErrorCode error_code_of(Fn&& fn) {
  try {
    fn();
  } catch (const BundleError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a BundleError";
  return BundleErrorCode::kIo;
}

/// A small random design plus a hand-assembled (untrained) bundle for it —
/// the cache/concurrency/protocol tests don't need a real pipeline run.
designs::Design tiny_design(std::uint64_t seed) {
  designs::RandomCircuitConfig cfg;
  cfg.num_inputs = 4;
  cfg.num_gates = 40;
  cfg.num_flops = 6;
  cfg.num_outputs = 4;
  cfg.seed = seed;
  return designs::build_random_circuit(cfg);
}

ModelBundle synthetic_bundle(const designs::Design& d, std::uint64_t seed) {
  ModelBundle b;
  b.manifest.design_name = d.name;
  b.manifest.netlist_hash = netlist_content_hash(d.netlist);
  b.manifest.feature_width = graphir::kNumBaseFeatures;
  b.manifest.feature_names = graphir::base_feature_names();
  b.manifest.probability_cycles = 32;
  b.manifest.probability_seed = 5;
  b.stimulus = d.stimulus;
  b.standardizer.mean.assign(graphir::kNumBaseFeatures, 0.0);
  b.standardizer.stddev.assign(graphir::kNumBaseFeatures, 1.0);
  ml::GcnConfig cc = ml::GcnConfig::classifier();
  cc.hidden = {8};
  cc.seed = seed;
  b.classifier = std::make_unique<ml::GcnModel>(graphir::kNumBaseFeatures, cc);
  ml::GcnConfig rc = ml::GcnConfig::regressor();
  rc.hidden = {8};
  rc.seed = seed + 1;
  b.regressor = std::make_unique<ml::GcnModel>(graphir::kNumBaseFeatures, rc);
  return b;
}

// ---- pipeline-backed round trip -------------------------------------------

/// One shared (fast) pipeline run packed into a bundle file.
class BundleRoundTrip : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::PipelineConfig cfg;
    cfg.campaign_cycles = 64;
    cfg.probability_cycles = 128;
    cfg.train.epochs = 60;
    cfg.regressor_train.epochs = 60;
    cfg.train_baselines = false;
    core::FaultCriticalityAnalyzer analyzer(cfg);
    result_ = new core::PipelineResult(analyzer.analyze_design("or1200_icfsm"));
    bundle_path_ = new std::string(::testing::TempDir() +
                                   "fcrit_serve_icfsm.fcm");
    save_bundle_file(pack_bundle(*result_), *bundle_path_);
  }

  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
    delete bundle_path_;
    bundle_path_ = nullptr;
  }

  static core::PipelineResult* result_;
  static std::string* bundle_path_;
};

core::PipelineResult* BundleRoundTrip::result_ = nullptr;
std::string* BundleRoundTrip::bundle_path_ = nullptr;

TEST_F(BundleRoundTrip, ManifestRecordsProvenance) {
  const ModelBundle b = load_bundle_file(*bundle_path_);
  EXPECT_EQ(b.manifest.design_name, "or1200_icfsm");
  EXPECT_EQ(b.manifest.netlist_hash,
            netlist_content_hash(result_->design.netlist));
  EXPECT_EQ(b.manifest.feature_width, graphir::kNumBaseFeatures);
  EXPECT_EQ(b.manifest.probability_cycles, 128);
  EXPECT_EQ(b.manifest.probability_seed, 99u);
  EXPECT_EQ(b.manifest.feature_names, graphir::base_feature_names());
  ASSERT_TRUE(b.classifier != nullptr);
  ASSERT_TRUE(b.regressor != nullptr);
  EXPECT_EQ(b.standardizer.mean, result_->standardizer.mean);
  EXPECT_EQ(b.standardizer.stddev, result_->standardizer.stddev);
}

TEST_F(BundleRoundTrip, PackScoreIsBitIdenticalToPipeline) {
  ScoringEngine engine({.threads = 1});
  const ScoreResult r =
      engine.score(*bundle_path_, designs::build_design("or1200_icfsm"));
  EXPECT_TRUE(r.netlist_matched);
  EXPECT_TRUE(r.has_regressor);
  ASSERT_EQ(r.proba.size(), result_->gcn_eval.proba.size());
  ASSERT_EQ(r.score.size(), result_->regression->predicted_score.size());
  for (std::size_t i = 0; i < r.proba.size(); ++i) {
    EXPECT_EQ(r.proba[i], result_->gcn_eval.proba[i]) << "node " << i;
    EXPECT_EQ(r.predicted[i], result_->gcn_eval.predicted[i]) << "node " << i;
    EXPECT_EQ(r.score[i], result_->regression->predicted_score[i])
        << "node " << i;
  }
}

TEST_F(BundleRoundTrip, StrictHashRejectsForeignNetlist) {
  ScoringEngine engine({.threads = 1});
  const auto foreign = designs::build_design("or1200_genpc");
  EXPECT_EQ(error_code_of([&] {
              engine.score(*bundle_path_, foreign, {.strict_hash = true});
            }),
            BundleErrorCode::kNetlistHashMismatch);
  // Without strict mode the mismatch is reported, not fatal — that's the
  // train-once/infer-on-new-netlists use case.
  const ScoreResult r = engine.score(*bundle_path_, foreign);
  EXPECT_FALSE(r.netlist_matched);
  EXPECT_EQ(r.proba.size(), foreign.netlist.num_nodes());
}

TEST_F(BundleRoundTrip, TopSitesRanksByDescendingScore) {
  ScoringEngine engine({.threads = 1});
  const ScoreResult r =
      engine.score(*bundle_path_, designs::build_design("or1200_icfsm"));
  const auto top = top_sites(r, 5);
  ASSERT_EQ(top.size(), 5u);
  for (std::size_t i = 1; i < top.size(); ++i)
    EXPECT_GE(r.score[top[i - 1]], r.score[top[i]]);
  const auto all = top_sites(r, 0);
  EXPECT_EQ(all.size(), r.sites.size());
}

// ---- strict validation ----------------------------------------------------

TEST(BundleValidation, RejectsGarbageAndForeignArtifacts) {
  std::istringstream garbage("definitely not a bundle");
  EXPECT_EQ(error_code_of([&] { load_bundle(garbage); }),
            BundleErrorCode::kBadMagic);
  std::istringstream gcn_file("fcrit-gcn-v1\nin_features 5\n");
  EXPECT_EQ(error_code_of([&] { load_bundle(gcn_file); }),
            BundleErrorCode::kBadMagic);
  EXPECT_EQ(error_code_of([&] { load_bundle_file("/nonexistent/x.fcm"); }),
            BundleErrorCode::kIo);
}

TEST(BundleValidation, RejectsWrongFormatVersion) {
  const auto d = tiny_design(11);
  std::ostringstream os;
  save_bundle(synthetic_bundle(d, 1), os);
  std::string text = os.str();
  text.replace(text.find("fcrit-bundle-v1"), 15, "fcrit-bundle-v9");
  std::istringstream is(text);
  EXPECT_EQ(error_code_of([&] { load_bundle(is); }),
            BundleErrorCode::kBadVersion);
}

TEST(BundleValidation, RejectsTruncatedFile) {
  const auto d = tiny_design(12);
  std::ostringstream os;
  save_bundle(synthetic_bundle(d, 2), os);
  std::string text = os.str();
  text.resize(text.size() * 3 / 5);  // cut inside the classifier weights
  std::istringstream is(text);
  EXPECT_EQ(error_code_of([&] { load_bundle(is); }),
            BundleErrorCode::kTruncated);
}

TEST(BundleValidation, RejectsFeatureWidthMismatch) {
  const auto d = tiny_design(13);
  ModelBundle narrow = synthetic_bundle(d, 3);
  narrow.standardizer.mean.pop_back();
  narrow.standardizer.stddev.pop_back();
  std::ostringstream os1;
  save_bundle(narrow, os1);
  std::istringstream is1(os1.str());
  EXPECT_EQ(error_code_of([&] { load_bundle(is1); }),
            BundleErrorCode::kFeatureWidthMismatch);

  ModelBundle wide_model = synthetic_bundle(d, 4);
  ml::GcnConfig cc = wide_model.classifier->config();
  wide_model.classifier = std::make_unique<ml::GcnModel>(
      graphir::kNumBaseFeatures + 2, cc);
  std::ostringstream os2;
  save_bundle(wide_model, os2);
  std::istringstream is2(os2.str());
  EXPECT_EQ(error_code_of([&] { load_bundle(is2); }),
            BundleErrorCode::kFeatureWidthMismatch);
}

// ---- LRU cache ------------------------------------------------------------

TEST(BundleCacheTest, LruEvictsLeastRecentlyUsed) {
  const std::string dir = ::testing::TempDir();
  const auto d1 = tiny_design(21);
  const auto d2 = tiny_design(22);
  const std::string p1 = dir + "fcrit_cache_a.fcm";
  const std::string p2 = dir + "fcrit_cache_b.fcm";
  save_bundle_file(synthetic_bundle(d1, 5), p1);
  save_bundle_file(synthetic_bundle(d2, 6), p2);

  BundleCache cache(1);
  cache.get(p1);                 // miss
  cache.get(p1);                 // hit
  cache.get(p2);                 // miss, evicts p1
  cache.get(p1);                 // miss again
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 1u);

  BundleCache roomy(2);
  roomy.get(p1);
  roomy.get(p2);
  roomy.get(p1);
  roomy.get(p2);
  EXPECT_EQ(roomy.hits(), 2u);
  EXPECT_EQ(roomy.misses(), 2u);
}

TEST(BundleCacheTest, IdenticalBytesShareOneEntry) {
  const std::string dir = ::testing::TempDir();
  const auto d = tiny_design(23);
  const std::string p1 = dir + "fcrit_cache_c1.fcm";
  const std::string p2 = dir + "fcrit_cache_c2.fcm";
  save_bundle_file(synthetic_bundle(d, 7), p1);
  write_file(p2, read_file(p1));  // same content, different path

  BundleCache cache(4);
  cache.get(p1);
  cache.get(p2);  // content hash matches -> hit
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

// ---- engine concurrency ---------------------------------------------------

TEST(ScoringEngineTest, ConcurrentCacheThrashIsDeterministic) {
  const std::string dir = ::testing::TempDir();
  constexpr int kBundles = 3;
  constexpr int kClients = 8;
  constexpr int kPerClient = 6;

  std::vector<std::string> bundle_paths;
  std::vector<designs::Design> targets;
  for (int i = 0; i < kBundles; ++i) {
    const auto d = tiny_design(static_cast<std::uint64_t>(31 + i));
    const std::string path =
        dir + "fcrit_thrash_" + std::to_string(i) + ".fcm";
    save_bundle_file(synthetic_bundle(d, static_cast<std::uint64_t>(i)),
                     path);
    bundle_paths.push_back(path);
    targets.push_back(d);
  }

  // Single-threaded reference results.
  std::vector<ScoreResult> reference;
  {
    ScoringEngine ref_engine({.threads = 1});
    for (int i = 0; i < kBundles; ++i)
      reference.push_back(ref_engine.score(bundle_paths[i], targets[i]));
  }

  // Cache capacity below the bundle count forces continuous eviction.
  ScoringEngine engine(
      {.threads = 8, .queue_capacity = 16, .cache_capacity = 2});
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int k = 0; k < kPerClient; ++k) {
        const int i = (c + k) % kBundles;
        const ScoreResult r = engine.score(bundle_paths[i], targets[i]);
        if (r.proba != reference[i].proba ||
            r.score != reference[i].score ||
            r.predicted != reference[i].predicted)
          mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  const MetricsSnapshot m = engine.metrics();
  EXPECT_EQ(m.requests, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(m.completed, m.requests);
  EXPECT_EQ(m.errors, 0u);
  EXPECT_EQ(m.cache_hits + m.cache_misses, m.requests);
  EXPECT_GT(m.cache_hits, 0u);
  EXPECT_GE(m.cache_misses, static_cast<std::uint64_t>(kBundles));
}

TEST(ScoringEngineTest, HammerOneBundleFromManyThreads) {
  // Regression for the shared-model hazard: every worker scores the SAME
  // bundle concurrently. Workers run on thread-local clones, so under the
  // sanitizer matrix (ASan/TSan CI) this must be race-free, and every
  // result must equal the single-threaded reference exactly.
  const std::string dir = ::testing::TempDir();
  const auto d = tiny_design(151);
  const std::string path = dir + "fcrit_hammer.fcm";
  save_bundle_file(synthetic_bundle(d, 5), path);

  ScoreResult reference;
  {
    ScoringEngine ref_engine({.threads = 1});
    reference = ref_engine.score(path, d);
  }

  constexpr int kClients = 8;
  constexpr int kPerClient = 8;
  ScoringEngine engine({.threads = 8, .queue_capacity = 32});
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int k = 0; k < kPerClient; ++k) {
        try {
          const ScoreResult r = engine.score(path, d);
          if (r.proba != reference.proba || r.score != reference.score ||
              r.predicted != reference.predicted)
            mismatches.fetch_add(1);
        } catch (...) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  const MetricsSnapshot m = engine.metrics();
  EXPECT_EQ(m.completed, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(m.errors, 0u);
  // Per-thread clone caches: each scoring thread clones the bundle's
  // models at most once, every later request is a clone-cache hit.
  const auto& reg = engine.metrics_registry();
  const std::uint64_t clone_misses =
      const_cast<obs::Registry&>(reg).counter("serve.model_clone_misses")
          .value();
  const std::uint64_t clone_hits =
      const_cast<obs::Registry&>(reg).counter("serve.model_clone_hits")
          .value();
  EXPECT_EQ(clone_hits + clone_misses,
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_LE(clone_misses, static_cast<std::uint64_t>(kClients));
  EXPECT_GT(clone_hits, 0u);
}

TEST(ScoringEngineTest, ZeroCacheCapacityIsClampedToOne) {
  // Regression: capacity 0 used to degenerate BundleCache into
  // parse-every-request (misses only) while threads/queue were clamped.
  const std::string dir = ::testing::TempDir();
  const auto d = tiny_design(77);
  const std::string path = dir + "fcrit_capacity0.fcm";
  save_bundle_file(synthetic_bundle(d, 77), path);

  ScoringEngine engine(
      {.threads = 0, .queue_capacity = 0, .cache_capacity = 0});
  EXPECT_EQ(engine.config().cache_capacity, 1u);
  EXPECT_EQ(engine.config().threads, 1);
  EXPECT_EQ(engine.config().queue_capacity, 1u);

  const ScoreResult r1 = engine.score(path, d);
  const ScoreResult r2 = engine.score(path, d);
  EXPECT_EQ(r1.proba, r2.proba);
  const MetricsSnapshot m = engine.metrics();
  EXPECT_EQ(m.cache_misses, 1u);  // second request hits the one-slot cache
  EXPECT_EQ(m.cache_hits, 1u);
}

TEST(ScoringEngineTest, ShutdownDrainsQueuedJobs) {
  const std::string dir = ::testing::TempDir();
  const auto d = tiny_design(41);
  const std::string path = dir + "fcrit_drain.fcm";
  save_bundle_file(synthetic_bundle(d, 9), path);
  const std::string netlist_path = dir + "fcrit_drain.v";
  write_file(netlist_path, netlist::to_verilog(d.netlist));

  auto engine = std::make_unique<ScoringEngine>(
      EngineConfig{.threads = 2, .queue_capacity = 4});
  std::vector<std::future<ScoreResult>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(engine->submit(path, netlist_path));
  engine->shutdown();
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  EXPECT_THROW(engine->submit(path, netlist_path), std::runtime_error);
  const MetricsSnapshot m = engine->metrics();
  EXPECT_EQ(m.completed, 8u);
  EXPECT_GT(m.queue_high_water, 0u);
}

// ---- daemon wire protocol -------------------------------------------------

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

std::string request(int fd, const std::string& line) {
  const std::string out = line + "\n";
  EXPECT_EQ(::send(fd, out.data(), out.size(), 0),
            static_cast<ssize_t>(out.size()));
  std::string acc;
  char ch = 0;
  while (acc != ".\n" &&
         (acc.size() < 3 || acc.compare(acc.size() - 3, 3, "\n.\n") != 0)) {
    if (::recv(fd, &ch, 1, 0) <= 0) break;
    acc.push_back(ch);
  }
  return acc;
}

TEST(ServerTest, ProtocolSessionWithCacheHitsAndGracefulStop) {
  const std::string dir = ::testing::TempDir() + "fcrit_srv_bundles";
  std::filesystem::create_directories(dir);
  const auto d = tiny_design(51);
  save_bundle_file(synthetic_bundle(d, 10), dir + "/tiny.fcm");
  const std::string netlist_path = dir + "/tiny.v";
  write_file(netlist_path, netlist::to_verilog(d.netlist));

  ScoringEngine engine({.threads = 2});
  Server server(engine, {.bundle_dir = dir, .port = 0, .default_top = 5});
  server.start();
  ASSERT_GT(server.port(), 0);

  // Two concurrent clients; the single bundle resolves implicitly.
  const int fd1 = connect_to(server.port());
  const int fd2 = connect_to(server.port());
  const std::string r1 = request(fd1, "SCORE " + netlist_path + " 3");
  const std::string r2 = request(fd2, "SCORE tiny.fcm " + netlist_path);
  EXPECT_EQ(r1.substr(0, 2), "OK");
  EXPECT_EQ(r2.substr(0, 2), "OK");
  EXPECT_NE(r1.find("matched=1"), std::string::npos);
  EXPECT_NE(r1.find("top=3"), std::string::npos);

  const std::string stats = request(fd1, "STATS");
  EXPECT_NE(stats.find("requests=2"), std::string::npos);
  EXPECT_NE(stats.find("cache_hits=1"), std::string::npos);
  EXPECT_NE(stats.find("cache_misses=1"), std::string::npos);

  EXPECT_EQ(request(fd1, "NONSENSE").substr(0, 3), "ERR");
  EXPECT_EQ(request(fd2, "QUIT").substr(0, 3), "BYE");
  ::close(fd2);

  // fd1 is still connected; stop() must drain it gracefully.
  server.stop();
  EXPECT_FALSE(server.running());
  ::close(fd1);
}

TEST(ServerTest, MetricsCommandReturnsWellFormedJson) {
  const std::string dir = ::testing::TempDir() + "fcrit_srv_metrics";
  std::filesystem::create_directories(dir);
  const auto d = tiny_design(61);
  save_bundle_file(synthetic_bundle(d, 11), dir + "/tiny.fcm");

  ScoringEngine engine({.threads = 1});
  Server server(engine, {.bundle_dir = dir, .port = 0});
  (void)engine.score(dir + "/tiny.fcm", d);  // miss
  (void)engine.score(dir + "/tiny.fcm", d);  // hit

  const std::string reply = server.handle_line("METRICS");
  ASSERT_GE(reply.size(), 4u);
  EXPECT_EQ(reply.substr(reply.size() - 3), "\n.\n");
  const std::string body = reply.substr(0, reply.size() - 3);
  EXPECT_EQ(body.front(), '{');
  EXPECT_TRUE(obs::json_valid(body)) << body;
  for (const char* key :
       {"\"uptime_seconds\"", "\"requests\"", "\"request_ms\"", "\"p50\"",
        "\"p99\"", "\"cache_hit_ratio\"", "\"queue_depth\""})
    EXPECT_NE(body.find(key), std::string::npos) << key;

  // The registry-backed snapshot is coherent (the torn-read regression).
  const MetricsSnapshot m = engine.metrics();
  EXPECT_EQ(m.requests, 2u);
  EXPECT_EQ(m.request_ms.count, 2u);
  EXPECT_LE(m.request_ms.mean(), m.request_ms.max + 1e-9);
  EXPECT_DOUBLE_EQ(m.cache_hit_ratio(), 0.5);
  EXPECT_GE(m.uptime_seconds, 0.0);
}

TEST(ServerTest, TraceVerbReturnsSpansForScoredRequests) {
  const std::string dir = ::testing::TempDir() + "fcrit_srv_trace";
  std::filesystem::create_directories(dir);
  const auto d = tiny_design(62);
  save_bundle_file(synthetic_bundle(d, 12), dir + "/tiny.fcm");
  const std::string netlist_path = dir + "/tiny.v";
  write_file(netlist_path, netlist::to_verilog(d.netlist));

  obs::RequestTraceCollector traces(16);
  traces.set_enabled(true);
  EngineConfig ec;
  ec.threads = 1;
  ec.traces = &traces;
  ScoringEngine engine(ec);
  Server server(engine, {.bundle_dir = dir, .port = 0});

  // Client-supplied id: the OK header echoes it back.
  const std::string r1 = server.handle_line("SCORE " + netlist_path + " id=7");
  ASSERT_EQ(r1.substr(0, 2), "OK") << r1;
  EXPECT_NE(r1.find(" trace=7"), std::string::npos) << r1;

  // Server-assigned id: extract it from the header, then look it up.
  const std::string r2 = server.handle_line("SCORE " + netlist_path);
  const std::size_t at = r2.find(" trace=");
  ASSERT_NE(at, std::string::npos) << r2;
  const std::string id = r2.substr(at + 7, r2.find('\n') - at - 7);

  for (const std::string& lookup : {std::string("7"), id}) {
    const std::string reply = server.handle_line("TRACE " + lookup);
    ASSERT_EQ(reply.substr(reply.size() - 3), "\n.\n") << reply;
    const std::string body = reply.substr(0, reply.size() - 3);
    EXPECT_TRUE(obs::json_valid(body)) << body;
    EXPECT_NE(body.find("\"id\":\"" + lookup + "\""), std::string::npos)
        << body;
    EXPECT_NE(body.find("\"verdict\":\"ok\""), std::string::npos);
    // Requests are scored one at a time: the key stays, always empty.
    EXPECT_NE(body.find("\"batched_with\":[]"), std::string::npos) << body;
    // The per-stage story every trace must tell (docs/OBSERVABILITY.md).
    for (const char* span :
         {"\"queue_wait\"", "\"bundle_load\"", "\"golden_sim\"",
          "\"forward\""})
      EXPECT_NE(body.find(span), std::string::npos) << span << " in " << body;
  }
  // The second request hit the bundle cache; the first parsed.
  EXPECT_NE(server.handle_line("TRACE 7").find("\"detail\":\"parse\""),
            std::string::npos);
  EXPECT_NE(server.handle_line("TRACE " + id).find("\"detail\":\"cache-hit\""),
            std::string::npos);

  const std::string last = server.handle_line("TRACE LAST 2");
  const std::string last_body = last.substr(0, last.size() - 3);
  EXPECT_TRUE(obs::json_valid(last_body)) << last_body;
  EXPECT_NE(last_body.find("\"count\":2"), std::string::npos);

  // Failed requests trace too, with the error recorded.
  const std::string bad =
      server.handle_line("SCORE " + dir + "/missing.v id=9");
  EXPECT_EQ(bad.substr(0, 3), "ERR");
  const std::string bad_trace = server.handle_line("TRACE 9");
  EXPECT_NE(bad_trace.find("\"verdict\":\"error\""), std::string::npos)
      << bad_trace;

  EXPECT_EQ(server.handle_line("TRACE 123456").substr(0, 3), "ERR");
  EXPECT_EQ(server.handle_line("TRACE").substr(0, 3), "ERR");
  EXPECT_EQ(server.handle_line("TRACE notanumber").substr(0, 3), "ERR");
  EXPECT_EQ(server.handle_line("SCORE " + netlist_path + " id=0")
                .substr(0, 3),
            "ERR")
      << "id=0 is reserved for untraced requests";
}

TEST(ServerTest, MetricsCarriesSharedServerObjectAndPromExposition) {
  const std::string dir = ::testing::TempDir() + "fcrit_srv_prom";
  std::filesystem::create_directories(dir);
  const auto d = tiny_design(63);
  save_bundle_file(synthetic_bundle(d, 13), dir + "/tiny.fcm");
  const std::string netlist_path = dir + "/tiny.v";
  write_file(netlist_path, netlist::to_verilog(d.netlist));

  obs::RequestTraceCollector traces(16);
  traces.set_enabled(true);
  EngineConfig ec;
  ec.threads = 1;
  ec.traces = &traces;
  ScoringEngine engine(ec);
  Server server(engine, {.bundle_dir = dir, .port = 0});
  EXPECT_EQ(server.handle_line("SCORE " + netlist_path).substr(0, 2), "OK");

  const std::string metrics = server.handle_line("METRICS");
  const std::string body = metrics.substr(0, metrics.size() - 3);
  ASSERT_TRUE(obs::json_valid(body)) << body;
  // The front end's "server" object comes first, ahead of the engine's
  // registry payload.
  EXPECT_EQ(body.find("{\"server\":{\"uptime_seconds\":"), 0u) << body;
  EXPECT_NE(body.find("\"rejected_line_bytes\":0"), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"trace_ring\":{\"enabled\":true"), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"occupancy\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"capacity\":16"), std::string::npos);
  // No exporter attached: the field says so instead of vanishing.
  EXPECT_NE(body.find("\"exporter\":null"), std::string::npos) << body;

  obs::TelemetryExporter exporter;
  exporter.add_registry("engine", engine.metrics_registry());
  const std::string tpath = ::testing::TempDir() + "fcrit_srv_prom_tel.jsonl";
  ASSERT_TRUE(exporter.start(tpath, 0.0));
  exporter.snapshot_now();
  server.set_exporter(&exporter);
  const std::string with_exp = server.handle_line("METRICS");
  EXPECT_NE(with_exp.find("\"exporter\":{\"running\":false,"
                          "\"interval_seconds\":0,\"snapshots\":1"),
            std::string::npos)
      << with_exp;
  exporter.stop();
  std::remove(tpath.c_str());

  const std::string prom = server.handle_line("METRICS PROM");
  ASSERT_EQ(prom.substr(prom.size() - 3), "\n.\n");
  EXPECT_EQ(prom.find("# TYPE "), 0u) << prom;
  EXPECT_NE(prom.find("# TYPE fcrit_serve_requests_total counter\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("fcrit_serve_requests_total 1\n"), std::string::npos);
  EXPECT_NE(prom.find("fcrit_serve_request_ms_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE fcrit_serve_queue_depth gauge\n"),
            std::string::npos);
}

TEST(ServerTest, UntracedEngineStillServesAndTraceVerbExplains) {
  const std::string dir = ::testing::TempDir() + "fcrit_srv_notrace";
  std::filesystem::create_directories(dir);
  const auto d = tiny_design(64);
  save_bundle_file(synthetic_bundle(d, 14), dir + "/tiny.fcm");
  const std::string netlist_path = dir + "/tiny.v";
  write_file(netlist_path, netlist::to_verilog(d.netlist));

  // No collector wired at all: SCORE works, emits no trace= token, and
  // METRICS reports the ring as absent.
  ScoringEngine engine({.threads = 1});
  Server server(engine, {.bundle_dir = dir, .port = 0});
  const std::string r = server.handle_line("SCORE " + netlist_path);
  EXPECT_EQ(r.substr(0, 2), "OK");
  EXPECT_EQ(r.find(" trace="), std::string::npos) << r;
  EXPECT_EQ(server.handle_line("TRACE 1").substr(0, 3), "ERR");
  EXPECT_NE(server.handle_line("METRICS").find("\"trace_ring\":null"),
            std::string::npos);

  // Collector present but disabled: the hot path stays id == 0.
  obs::RequestTraceCollector traces(8);
  EngineConfig ec;
  ec.threads = 1;
  ec.traces = &traces;
  ScoringEngine engine2(ec);
  Server server2(engine2, {.bundle_dir = dir, .port = 0});
  EXPECT_EQ(server2.handle_line("SCORE " + netlist_path).substr(0, 2), "OK");
  EXPECT_EQ(traces.ring_size(), 0u);
  EXPECT_NE(server2.handle_line("METRICS").find("\"enabled\":false"),
            std::string::npos);
}

TEST(ServerTest, OverlongLineIsRefusedAndConnectionClosed) {
  const std::string dir = ::testing::TempDir() + "fcrit_srv_linecap";
  std::filesystem::create_directories(dir);
  const auto d = tiny_design(65);
  save_bundle_file(synthetic_bundle(d, 15), dir + "/tiny.fcm");
  const std::string netlist_path = dir + "/tiny.v";
  write_file(netlist_path, netlist::to_verilog(d.netlist));

  ScoringEngine engine({.threads = 1});
  Server server(engine, {.bundle_dir = dir, .port = 0});
  server.start();

  // 1 MiB without a newline: the daemon must answer ERR and hang up
  // instead of buffering it all. The receive timeout turns a daemon that
  // keeps waiting for the newline into a test failure, not a hang.
  const int fd = connect_to(server.port());
  const timeval timeout{.tv_sec = 10, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  const std::string junk(1 << 20, 'x');
  for (std::size_t sent = 0; sent < junk.size();) {
    const ssize_t n = ::send(fd, junk.data() + sent, junk.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;  // the daemon already closed its side
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buf[256];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    reply.append(buf, static_cast<std::size_t>(n));
  const bool timed_out = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  EXPECT_FALSE(timed_out) << "connection still open after 1 MiB";
  EXPECT_EQ(reply, "ERR line too long\n.\n");
  ::close(fd);

  // The daemon itself is unharmed: the next client is served.
  const int fd2 = connect_to(server.port());
  EXPECT_EQ(request(fd2, "SCORE " + netlist_path).substr(0, 2), "OK");
  EXPECT_NE(request(fd2, "METRICS").find("\"rejected_line_bytes\":1"),
            std::string::npos);
  EXPECT_EQ(request(fd2, "QUIT").substr(0, 3), "BYE");
  ::close(fd2);
  server.stop();
}

TEST(ServerTest, BundlesAddedOrRewrittenOnDiskAreServedOnTheSameConnection) {
  // No reload verb: SCORE resolves the bundle name and re-reads the file
  // on every request, so a bundle copied in or overwritten mid-run is
  // served by the next request on an already-open connection.
  const std::string dir = ::testing::TempDir() + "fcrit_srv_ondisk";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto d = tiny_design(66);
  const std::string netlist_path = dir + "/tiny.v";
  write_file(netlist_path, netlist::to_verilog(d.netlist));
  save_bundle_file(synthetic_bundle(d, 16), dir + "/first.fcm");
  // Staged outside the bundle directory, copied in later.
  const std::string staged_extra = ::testing::TempDir() + "fcrit_extra.fcm";
  const std::string staged_v2 = ::testing::TempDir() + "fcrit_first_v2.fcm";
  save_bundle_file(synthetic_bundle(d, 17), staged_extra);
  save_bundle_file(synthetic_bundle(d, 18), staged_v2);

  ScoringEngine engine({.threads = 1});
  Server server(engine, {.bundle_dir = dir, .port = 0});
  server.start();
  const int fd = connect_to(server.port());
  const std::string v1 = request(fd, "SCORE first " + netlist_path + " 5");
  ASSERT_EQ(v1.substr(0, 2), "OK") << v1;
  EXPECT_EQ(request(fd, "SCORE extra " + netlist_path).substr(0, 3), "ERR");

  std::filesystem::copy_file(staged_extra, dir + "/extra.fcm");
  EXPECT_EQ(request(fd, "SCORE extra " + netlist_path).substr(0, 2), "OK");

  const auto misses = [&] { return engine.metrics().cache_misses; };
  const std::uint64_t before = misses();
  std::filesystem::copy_file(staged_v2, dir + "/first.fcm",
                             std::filesystem::copy_options::overwrite_existing);
  const std::string v2 = request(fd, "SCORE first " + netlist_path + " 5");
  EXPECT_EQ(misses(), before + 1) << "new bytes must miss the cache once";
  // Exactly the new model's scores, as a fresh engine computes them.
  ScoringEngine fresh({.threads = 1});
  EXPECT_EQ(v2, format_score_response(
                    fresh.score_path(dir + "/first.fcm", netlist_path), 5));
  EXPECT_NE(v2, v1);
  EXPECT_EQ(request(fd, "QUIT").substr(0, 3), "BYE");
  ::close(fd);
  server.stop();
}

TEST(ServerTest, HandleLineReportsUsageErrors) {
  const std::string dir = ::testing::TempDir() + "fcrit_srv_empty";
  std::filesystem::create_directories(dir);
  ScoringEngine engine({.threads = 1});
  Server server(engine, {.bundle_dir = dir, .port = 0});
  EXPECT_EQ(server.handle_line("SCORE").substr(0, 3), "ERR");
  EXPECT_EQ(server.handle_line("SCORE missing.fcm x.v").substr(0, 3), "ERR");
  EXPECT_EQ(server.handle_line("SCORE only.v").substr(0, 3), "ERR")
      << "empty bundle dir cannot resolve an implicit bundle";
  EXPECT_EQ(server.handle_line("STATS").substr(0, 2), "OK");
}

}  // namespace
}  // namespace fcrit::serve
