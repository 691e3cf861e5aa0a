// The `fcrit serve` daemon: a line-protocol TCP front end over ONE
// ScoringEngine and a directory of model bundles.
//
// Wire protocol (one request per '\n'-terminated line, a trailing '\r'
// stripped, blank lines ignored; every response ends with a line holding
// a single "."):
//   SCORE [<bundle>] <netlist-path> [<top-n>] [id=<n>]
//       <bundle> is a file name inside the bundle directory (".fcm"
//       appended when missing) or an absolute/relative path; it may be
//       omitted when the directory holds exactly one bundle. id=<n>
//       supplies the client's own trace id (decimal). Replies
//       "OK design=... bundle=... nodes=N matched=0|1 top=K [trace=<id>]"
//       followed by K lines "<node> <proba> <class> <score>". The bundle
//       token is resolved and the file re-read (and hashed) on every
//       request, so bundles added or rewritten on disk are served at once.
//   STATS
//       One "OK requests=... completed=... errors=... cache_hits=...
//       cache_misses=... queue_high_water=... threads=..." line.
//   METRICS
//       One line holding a JSON snapshot: a "server" object (uptime,
//       over-long lines rejected, trace-ring occupancy, exporter lag)
//       merged with the engine's registry snapshot (request counters,
//       cache hit ratio, queue depth, latency histograms with p50/p90/p99;
//       see ScoringEngine::metrics_json and docs/OBSERVABILITY.md).
//   METRICS PROM
//       The engine's registry in Prometheus text exposition format.
//   TRACE <id> | TRACE LAST <n>
//       One completed request trace as JSON / the n most recent ones.
//   QUIT
//       Replies "BYE" and closes the connection.
// Any failure replies "ERR <message>". A line longer than kMaxLineBytes
// gets "ERR line too long" and its connection is closed.
//
// stop() is a graceful shutdown: the listening socket closes first, then
// every connection's read side is shut down — requests already in flight
// still compute and write their responses before the threads are joined.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/serve/engine.hpp"
#include "src/util/thread_annotations.hpp"

namespace fcrit::obs {
class TelemetryExporter;
}  // namespace fcrit::obs

namespace fcrit::serve {

/// The longest request line the daemon buffers. A SCORE line holds two
/// paths (each at most PATH_MAX, 4096 bytes on Linux), a top-n and an id.
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

/// A parsed SCORE request line: SCORE [<bundle>] <netlist-path> [<top-n>]
/// [id=<n>], where a trailing integer is the top-n, a lone path-like
/// argument means "the directory's only bundle" (empty bundle_token), and
/// an id= token anywhere supplies the client's own decimal trace id.
struct ScoreRequest {
  std::string bundle_token;  // empty = sole bundle in the directory
  std::string target;
  int top = 10;
  std::uint64_t trace_id = 0;  // client-supplied id= token; 0 = none
};

/// Parse the tokens after the SCORE verb; throws std::runtime_error with
/// a usage message on malformed input.
ScoreRequest parse_score_request(const std::vector<std::string>& args,
                                 int default_top);

/// Map a SCORE bundle token to a bundle file: a token containing '/' is a
/// path, anything else names a file in `bundle_dir` (".fcm" appended when
/// missing); an empty token selects the directory's only *.fcm. Throws
/// std::runtime_error when nothing (or more than one thing) matches.
std::string resolve_bundle_token(const std::string& bundle_dir,
                                 const std::string& token);

/// The "OK design=... top=K" header plus K ranked site lines and the
/// protocol terminator.
std::string format_score_response(const ScoreResult& result, int top);

/// "ERR <message>" plus the protocol terminator.
std::string error_response(const std::string& message);

struct ServerConfig {
  std::string bundle_dir;
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see port()).
  std::uint16_t port = 7333;
  int default_top = 10;
};

class Server {
 public:
  /// The TRACE verb and the METRICS trace_ring field read the engine's
  /// trace collector (EngineConfig::traces), when one is wired.
  Server(ScoringEngine& engine, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and start the acceptor thread; throws std::runtime_error
  /// on socket failure.
  void start();

  /// The actually-bound port (resolves port 0).
  int port() const { return port_; }

  bool running() const { return running_.load(); }

  /// Graceful shutdown: stop accepting, drain in-flight requests, join.
  /// Idempotent; the destructor calls it.
  void stop();

  /// Process one protocol line (without the newline) into a full response
  /// (terminator included). Public so tests can drive the protocol
  /// without sockets.
  std::string handle_line(const std::string& line);

  /// The telemetry exporter whose status METRICS reports (not owned;
  /// nullptr detaches). Call before start().
  void set_exporter(obs::TelemetryExporter* exporter) { exporter_ = exporter; }

 private:
  std::string metrics_response() const;
  std::string trace_response(const std::vector<std::string>& args) const;
  void accept_loop(int listen_fd);
  void connection_loop(int fd);

  ScoringEngine& engine_;
  ServerConfig config_;
  obs::Counter* rejected_lines_;
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
  obs::TelemetryExporter* exporter_ = nullptr;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  util::Mutex conn_mutex_;
  std::vector<std::thread> conn_threads_ GUARDED_BY(conn_mutex_);
  std::unordered_set<int> conn_fds_ GUARDED_BY(conn_mutex_);
};

}  // namespace fcrit::serve
