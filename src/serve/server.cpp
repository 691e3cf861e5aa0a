#include "src/serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "src/obs/exporter.hpp"
#include "src/obs/json.hpp"
#include "src/obs/prom.hpp"
#include "src/obs/request_trace.hpp"
#include "src/util/text.hpp"

namespace fcrit::serve {

namespace {

void send_all(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n = ::send(fd, text.data() + sent, text.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;  // peer gone; nothing sensible to do
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

std::string error_response(const std::string& message) {
  return "ERR " + message + "\n.\n";
}

ScoreRequest parse_score_request(const std::vector<std::string>& args,
                                 int default_top) {
  // SCORE [<bundle>] <netlist-path> [<top-n>] [id=<n>]: a trailing
  // integer is the top-n; one path-like argument means "the directory's
  // only bundle"; an id= token anywhere is the client's own trace id.
  std::vector<std::string> rest;
  ScoreRequest req;
  req.top = default_top;
  for (const std::string& arg : args) {
    if (arg.rfind("id=", 0) == 0) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(arg.c_str() + 3, &end, 10);
      if (end == nullptr || *end != '\0' || v == 0)
        throw std::runtime_error("bad trace id '" + arg +
                                 "' (want id=<nonzero decimal>)");
      req.trace_id = static_cast<std::uint64_t>(v);
      continue;
    }
    rest.push_back(arg);
  }
  if (rest.size() >= 2) {
    std::size_t parsed = 0;
    try {
      const int n = std::stoi(rest.back(), &parsed);
      if (parsed == rest.back().size()) {
        req.top = n;
        rest.pop_back();
      }
    } catch (const std::exception&) {
    }
  }
  if (rest.empty() || rest.size() > 2)
    throw std::runtime_error("usage: SCORE [<bundle>] <netlist-path> [<top-n>]");
  if (rest.size() == 2) {
    req.bundle_token = rest[0];
    req.target = rest[1];
  } else {
    req.target = rest[0];
  }
  return req;
}

std::string resolve_bundle_token(const std::string& bundle_dir,
                                 const std::string& token) {
  namespace fs = std::filesystem;
  if (token.empty()) {
    std::vector<std::string> bundles;
    for (const auto& entry : fs::directory_iterator(bundle_dir))
      if (entry.is_regular_file() && entry.path().extension() == ".fcm")
        bundles.push_back(entry.path().string());
    if (bundles.size() != 1)
      throw std::runtime_error(
          std::to_string(bundles.size()) +
          " bundles in directory; name one: SCORE <bundle> <path>");
    return bundles[0];
  }
  std::vector<std::string> candidates;
  if (token.find('/') != std::string::npos) {
    candidates = {token};
  } else {
    candidates.push_back(bundle_dir + "/" + token);
    if (!util::ends_with(token, ".fcm"))
      candidates.push_back(bundle_dir + "/" + token + ".fcm");
  }
  for (const auto& path : candidates)
    if (fs::is_regular_file(path)) return path;
  throw std::runtime_error("no bundle '" + token + "' in " + bundle_dir);
}

std::string format_score_response(const ScoreResult& r, int top) {
  const auto ranked = top_sites(r, top);
  std::ostringstream os;
  os.precision(6);
  os << "OK design=" << r.target_name << " bundle=" << r.bundle_design
     << " nodes=" << r.node_names.size()
     << " matched=" << (r.netlist_matched ? 1 : 0)
     << " top=" << ranked.size();
  if (r.trace_id != 0) os << " trace=" << r.trace_id;
  os << "\n";
  for (const auto id : ranked)
    os << r.node_names[id] << " " << r.proba[id] << " "
       << r.predicted[id] << " " << r.score[id] << "\n";
  os << ".\n";
  return os.str();
}

Server::Server(ScoringEngine& engine, ServerConfig config)
    : engine_(engine),
      config_(std::move(config)),
      rejected_lines_(
          &engine_.metrics_registry().counter("serve.rejected_line_bytes")) {}

Server::~Server() {
  // Drain connections before engine_/config_ go away: handle_line runs on
  // connection threads.
  stop();
}

std::string Server::handle_line(const std::string& line) {
  const std::vector<std::string> tokens = util::split_ws(line);
  if (tokens.empty()) return error_response("empty request");
  const std::string& verb = tokens[0];

  if (verb == "QUIT") return "BYE\n.\n";

  if (verb == "METRICS") {
    if (tokens.size() > 1 && tokens[1] == "PROM")
      return obs::to_prometheus(engine_.metrics_registry()) + ".\n";
    return metrics_response();
  }

  if (verb == "TRACE")
    return trace_response({tokens.begin() + 1, tokens.end()});

  if (verb == "STATS") {
    const MetricsSnapshot m = engine_.metrics();
    std::ostringstream os;
    os << "OK requests=" << m.requests << " completed=" << m.completed
       << " errors=" << m.errors << " cache_hits=" << m.cache_hits
       << " cache_misses=" << m.cache_misses
       << " queue_high_water=" << m.queue_high_water
       << " threads=" << engine_.config().threads << "\n.\n";
    return os.str();
  }

  if (verb == "SCORE") {
    obs::RequestTraceCollector* tc = engine_.trace_collector();
    std::uint64_t trace_id = 0;
    try {
      const ScoreRequest req = parse_score_request(
          {tokens.begin() + 1, tokens.end()}, config_.default_top);
      const std::string bundle_path =
          resolve_bundle_token(config_.bundle_dir, req.bundle_token);
      ScoreOptions opts;
      if (tc)
        trace_id = opts.trace_id =
            tc->begin(bundle_path, req.target, req.trace_id);
      const ScoreResult r =
          engine_.submit(bundle_path, req.target, opts).get();
      if (tc) tc->finish(trace_id, "ok");
      return format_score_response(r, req.top);
    } catch (const std::exception& e) {
      if (tc) tc->finish(trace_id, "error", e.what());
      return error_response(e.what());
    }
  }

  return error_response("unknown command '" + verb +
                        "' (SCORE, STATS, METRICS, TRACE, QUIT)");
}

std::string Server::metrics_response() const {
  // The front end's own fields go in a "server" object ahead of the
  // engine's payload.
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  std::string out = "{\"server\":{\"uptime_seconds\":" +
                    obs::json_number(uptime) + ",\"rejected_line_bytes\":" +
                    std::to_string(rejected_lines_->value());
  if (const obs::RequestTraceCollector* traces = engine_.trace_collector()) {
    out += ",\"trace_ring\":{\"enabled\":";
    out += traces->enabled() ? "true" : "false";
    out += ",\"occupancy\":" + std::to_string(traces->ring_size());
    out += ",\"capacity\":" + std::to_string(traces->ring_capacity());
    out += ",\"active\":" + std::to_string(traces->active_size());
    out += ",\"dropped\":" + std::to_string(traces->dropped());
    out += "}";
  } else {
    out += ",\"trace_ring\":null";
  }
  if (exporter_) {
    const obs::TelemetryExporter::Status st = exporter_->status();
    out += ",\"exporter\":{\"running\":";
    out += st.running ? "true" : "false";
    out += ",\"interval_seconds\":" + obs::json_number(st.interval_seconds);
    out += ",\"snapshots\":" + std::to_string(st.snapshots);
    out += ",\"last_lag_ms\":" + obs::json_number(st.last_lag_ms);
    out += "}";
  } else {
    out += ",\"exporter\":null";
  }
  const std::string engine = engine_.metrics_json();  // "{...}"
  out += "}," + engine.substr(1) + "\n.\n";
  return out;
}

std::string Server::trace_response(const std::vector<std::string>& args) const {
  const obs::RequestTraceCollector* traces = engine_.trace_collector();
  if (!traces) return error_response("tracing not available");
  if (args.empty()) return error_response("usage: TRACE <id> | TRACE LAST <n>");
  if (args[0] == "LAST" || args[0] == "last") {
    std::size_t n = 10;
    if (args.size() > 1) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(args[1].c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || v == 0)
        return error_response("TRACE LAST: bad count '" + args[1] + "'");
      n = static_cast<std::size_t>(v);
    }
    const std::vector<obs::RequestTrace> last = traces->last(n);
    std::string out = "{\"count\":" + std::to_string(last.size());
    out += ",\"traces\":[";
    for (std::size_t i = 0; i < last.size(); ++i) {
      if (i != 0) out += ",";
      out += obs::request_trace_json(last[i]);
    }
    out += "]}\n.\n";
    return out;
  }
  char* end = nullptr;
  const unsigned long long id = std::strtoull(args[0].c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || id == 0)
    return error_response("TRACE: bad trace id '" + args[0] + "'");
  const auto trace = traces->find(static_cast<std::uint64_t>(id));
  if (!trace) {
    return error_response(
        traces->enabled()
            ? "trace " + args[0] + " not found (completed and evicted, "
                  "still in flight, or never traced)"
            : "tracing disabled");
  }
  return obs::request_trace_json(*trace) + "\n.\n";
}

void Server::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bind 127.0.0.1:" + std::to_string(config_.port) +
                             ": " + reason);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 16) < 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("listen: " + reason);
  }
  running_.store(true);
  // The acceptor gets its own copy of the fd: stop() resets listen_fd_
  // while accept() may still be running.
  acceptor_ = std::thread([this, fd = listen_fd_] { accept_loop(fd); });
}

void Server::accept_loop(int listen_fd) {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR) continue;
      break;  // listening socket gone
    }
    util::MutexLock lock(conn_mutex_);
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    conn_fds_.insert(fd);
    conn_threads_.emplace_back([this, fd] { connection_loop(fd); });
  }
}

void Server::connection_loop(int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    const std::size_t newline = buffer.find('\n');
    if (std::min(newline, buffer.size()) > kMaxLineBytes) {
      // A client that never ends its line must not grow this buffer
      // without bound: refuse it and hang up.
      rejected_lines_->add();
      send_all(fd, error_response("line too long"));
      break;
    }
    if (newline == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;  // peer closed, or stop() shut our read side down
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (util::trim(line).empty()) continue;
    const std::string verb = util::split_ws(line)[0];
    send_all(fd, handle_line(line));
    if (verb == "QUIT" || stopping_.load()) open = false;
  }
  {
    util::MutexLock lock(conn_mutex_);
    conn_fds_.erase(fd);
  }
  ::close(fd);
}

void Server::stop() {
  if (!running_.load() && listen_fd_ < 0) return;
  stopping_.store(true);
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (acceptor_.joinable()) acceptor_.join();
  {
    // Wake connections parked in recv(); their writes still complete, so
    // in-flight requests are answered before the threads exit.
    util::MutexLock lock(conn_mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
  }
  std::vector<std::thread> threads;
  {
    util::MutexLock lock(conn_mutex_);
    threads.swap(conn_threads_);
  }
  for (auto& t : threads)
    if (t.joinable()) t.join();
  running_.store(false);
}

}  // namespace fcrit::serve
