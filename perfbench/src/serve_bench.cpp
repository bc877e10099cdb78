// The serve-mix workload: a closed loop on serve::serve_loop.
//
// Rank 0 serves; each client rank calls ScheduleClient::query and waits for
// the reply before its next call. Requests come from a seeded pool of
// Table-II instances, half kExactDp and half kSigmaGrid, larger than the
// cache, so cold evaluations, inserts and evictions interleave with hits.
//
// The traced session replaces serve_loop by a replica that calls the same
// public functions in the same order (mailbox receive and drain, request
// codec, ScheduleCache::evaluate_serialized, response codec, send) with a
// span around each; the clients are unchanged, with a span around query.
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "cli/serve_driver.hpp"
#include "common.hpp"
#include "core/schedule_query.hpp"
#include "opt/evaluate.hpp"
#include "runtime/spmd.hpp"
#include "serve/service.hpp"
#include "spans.hpp"
#include "subcommands.hpp"
#include "support/require.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

namespace core = ulba::core;
namespace opt = ulba::opt;
namespace serve = ulba::serve;
namespace runtime = ulba::runtime;
using ulba::support::Rng;

// The service settings every serve-mix session uses.
constexpr std::int64_t kCacheShards = 8;
constexpr std::int64_t kBatchLimit = 32;
constexpr std::int64_t kAlphaGrid = 10;  ///< α-grid steps: 11 points in [0, 1]

/// World start plus pool generation is timed this many times per session
/// (the session's own and fresh probes before it); setup_s is their median.
constexpr int kSetupSamples = 5;

struct TrafficConfig {
  std::uint64_t seed = 0;
  int clients = 0;
  std::int64_t requests = 0;  ///< per client
  std::int64_t distinct = 0;
  std::int64_t cache_capacity = 0;
};

std::int64_t required_int(const ulba::cli::FlagMap& flags,
                          const std::string& name) {
  ULBA_REQUIRE(flags.has(name), "serve-mix needs --" + name);
  return flags.get_int(name, 0);
}

TrafficConfig traffic_config(const ulba::cli::FlagMap& flags) {
  flags.require_known(
      {"seed", "clients", "requests", "distinct", "cache-capacity"});
  ULBA_REQUIRE(flags.has("seed"), "serve-mix needs --seed");
  TrafficConfig c;
  c.seed = flags.get_seed("seed", 0);
  c.clients = static_cast<int>(required_int(flags, "clients"));
  c.requests = required_int(flags, "requests");
  c.distinct = required_int(flags, "distinct");
  c.cache_capacity = required_int(flags, "cache-capacity");
  ULBA_REQUIRE(c.clients >= 1 && c.requests >= 1 && c.distinct >= 2 &&
                   c.cache_capacity >= 1,
               "serve-mix needs clients, requests, a pool and a cache");
  return c;
}

/// The request pool of `ulba_cli serve` for the seed, with every odd entry
/// evaluated on the σ⁺ α-grid instead of by the exact DP.
std::vector<core::ScheduleRequest> make_pool(const TrafficConfig& c) {
  ulba::cli::ServeTrafficOptions options;
  options.seed = c.seed;
  options.distinct = c.distinct;
  options.alpha_grid = kAlphaGrid;
  options.mode = core::EvalMode::kExactDp;
  std::vector<core::ScheduleRequest> pool =
      ulba::cli::serve_traffic_pool(options);
  for (std::size_t i = 1; i < pool.size(); i += 2)
    pool[i].mode = core::EvalMode::kSigmaGrid;
  return pool;
}

std::vector<std::size_t> client_picks(const TrafficConfig& c, int rank) {
  Rng picker = Rng(c.seed).fork(1000 + static_cast<std::uint64_t>(rank));
  std::vector<std::size_t> picks;
  for (std::int64_t k = 0; k < c.requests; ++k)
    picks.push_back(picker.index(static_cast<std::size_t>(c.distinct)));
  return picks;
}

/// FNV-1a of the provenance-masked response bytes — the equality the
/// service's determinism contract is stated in.
std::uint64_t masked_digest(core::ScheduleResponse response) {
  response.provenance = core::ResponseProvenance{};
  std::uint64_t h = 1469598103934665603ull;
  for (const std::byte b : core::serialize_response(response)) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream o;
  o << std::hex << v;
  return o.str();
}

/// Per-client record of one session.
struct ClientLog {
  std::vector<double> latency_s;  ///< by request id
  std::map<std::pair<std::size_t, std::uint64_t>, std::int64_t> answers;
};

/// What the traced server records per request, keyed by (client, id).
struct ServedRequest {
  double cache_s = 0.0;
  double codec_s = 0.0;
  bool hit = false;
};

/// serve_loop with a span around each call (see the file comment).
serve::ServeMetrics traced_serve_loop(
    runtime::Comm& comm, opt::ScheduleCache& cache,
    const serve::ServeOptions& options, Track& t,
    std::map<std::pair<int, std::uint64_t>, ServedRequest>& served) {
  serve::ServeMetrics metrics;
  const int clients = comm.size() - 1;
  while (metrics.clients_finished < clients) {
    std::vector<runtime::Message> batch;
    {
      const auto s = t.open("runtime.recv");
      batch.push_back(comm.recv_message(runtime::kAnySource, runtime::kAnyTag));
      runtime::Message extra;
      while (static_cast<std::int64_t>(batch.size()) < options.batch_limit &&
             comm.try_recv_message(runtime::kAnySource, runtime::kAnyTag,
                                   extra))
        batch.push_back(std::move(extra));
    }
    ++metrics.batches;
    metrics.max_batch =
        std::max(metrics.max_batch, static_cast<std::int64_t>(batch.size()));
    for (const runtime::Message& message : batch) {
      if (message.tag == serve::kTagClientDone) {
        ++metrics.clients_finished;
        continue;
      }
      ULBA_REQUIRE(message.tag == serve::kTagScheduleRequest &&
                       message.payload.size() >= sizeof(std::uint64_t),
                   "unexpected message on the traced server rank");
      ServedRequest record;
      std::uint64_t id = 0;
      std::vector<std::byte> request_bytes;
      core::ScheduleRequest request;
      {
        const auto s = t.open("serve.codec");
        std::memcpy(&id, message.payload.data(), sizeof(id));
        request_bytes.assign(message.payload.begin() + sizeof(id),
                             message.payload.end());
        request = core::deserialize_request(request_bytes);
      }
      record.codec_s = t.back().seconds();
      core::ScheduleResponse response;
      {
        const auto s = t.open("opt.cache");
        response = cache.evaluate_serialized(request_bytes, request);
      }
      record.cache_s = t.back().seconds();
      record.hit = response.provenance.cache_hit != 0;
      response.provenance.server_rank = comm.rank();
      ++metrics.requests;
      ++(record.hit ? metrics.cache_hits : metrics.cache_misses);
      std::vector<std::byte> envelope(sizeof(id));
      {
        const auto s = t.open("serve.codec");
        const std::vector<std::byte> body = core::serialize_response(response);
        std::memcpy(envelope.data(), &id, sizeof(id));
        envelope.insert(envelope.end(), body.begin(), body.end());
      }
      record.codec_s += t.back().seconds();
      {
        const auto s = t.open("runtime.send");
        comm.send_bytes(message.source, serve::kTagScheduleResponse, envelope);
      }
      served[{message.source, id}] = record;
    }
  }
  metrics.cache_evictions = cache.stats().evictions;
  return metrics;
}

struct Session {
  double setup_s = 0.0;  ///< median of kSetupSamples set-ups
  double traffic_s = 0.0;
  serve::ServeMetrics metrics;
  runtime::TrafficCounters traffic;
  std::vector<ClientLog> logs;  ///< by rank (slot 0 unused)
  std::map<std::pair<int, std::uint64_t>, ServedRequest> served;
  std::vector<Track> tracks;
  std::vector<core::ScheduleRequest> pool;
};

/// One set-up as a session pays it, with no traffic: pool generation, then
/// world start up to the point every rank is running.
double setup_probe(const TrafficConfig& c) {
  const std::int64_t t0 = now_ns();
  const auto pool = make_pool(c);
  std::int64_t ready = 0;
  runtime::spmd_run(c.clients + 1, [&](runtime::Comm& comm) {
    comm.barrier();
    if (comm.rank() == 0) ready = now_ns();
  });
  return static_cast<double>(ready - t0) * 1e-9;
}

Session run_session(const TrafficConfig& c, bool trace) {
  Session session;
  std::vector<double> setups;
  for (int k = 1; k < kSetupSamples; ++k) setups.push_back(setup_probe(c));
  const std::int64_t t0 = now_ns();
  session.pool = make_pool(c);
  const int size = c.clients + 1;
  session.logs.resize(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) session.tracks.emplace_back(r);
  serve::ServeOptions options;
  options.batch_limit = kBatchLimit;
  options.cache_capacity = c.cache_capacity;
  options.cache_shards = kCacheShards;
  std::int64_t ready = 0, done = 0;
  runtime::spmd_run(size, [&](runtime::Comm& comm) {
    comm.barrier();  // world started: every rank is up
    Track& t = session.tracks[static_cast<std::size_t>(comm.rank())];
    if (comm.rank() == options.server_rank) {
      ready = now_ns();
      if (trace) {
        opt::ScheduleCache cache(options.cache_capacity, options.cache_shards);
        const auto op = t.open("cli.serve");
        session.metrics =
            traced_serve_loop(comm, cache, options, t, session.served);
      } else {
        session.metrics = serve::serve_loop(comm, options);
      }
      done = now_ns();
      session.traffic = comm.traffic();
      return;
    }
    serve::ScheduleClient client(comm, options.server_rank);
    ClientLog& log = session.logs[static_cast<std::size_t>(comm.rank())];
    const auto picks = client_picks(c, comm.rank());
    log.latency_s.reserve(picks.size());
    for (const std::size_t pick : picks) {
      std::optional<core::ScheduleResponse> response;
      if (trace) {
        const auto s = t.open("serve.query");
        response = client.query(session.pool[pick]);
      } else {
        const std::int64_t q0 = now_ns();
        response = client.query(session.pool[pick]);
        log.latency_s.push_back(static_cast<double>(now_ns() - q0) * 1e-9);
      }
      if (trace) log.latency_s.push_back(t.back().seconds());
      ++log.answers[{pick, masked_digest(*response)}];
    }
    client.finish();
  });
  setups.push_back(static_cast<double>(ready - t0) * 1e-9);
  session.setup_s = median(std::move(setups));
  session.traffic_s = static_cast<double>(done - ready) * 1e-9;
  return session;
}

}  // namespace

int serve_reference(const ulba::cli::FlagMap& flags, std::ostream& out) {
  const TrafficConfig c = traffic_config(flags);
  Result result;
  std::ostringstream digests;
  const auto pool = make_pool(c);
  for (std::size_t i = 0; i < pool.size(); ++i)
    digests << (i ? "," : "") << i << ":"
            << hex(masked_digest(opt::evaluate_schedule_request(pool[i])));
  result.info("digests", digests.str());
  result.print(out);
  return 0;
}

int serve_session(const ulba::cli::FlagMap& flags, bool trace,
                  const std::string& spans_path, std::ostream& out) {
  const TrafficConfig c = traffic_config(flags);
  Result result;
  if (!trace) {
    const Session s = run_session(c, false);
    std::vector<double> latency_ms;
    std::ostringstream answers;
    bool first = true;
    for (const ClientLog& log : s.logs) {
      for (const double l : log.latency_s) latency_ms.push_back(l * 1e3);
      for (const auto& [key, count] : log.answers) {
        answers << (first ? "" : ",") << key.first << ":" << hex(key.second)
                << ":" << count;
        first = false;
      }
    }
    result.metric("setup_s", s.setup_s, "s");
    result.metric("traffic_s", s.traffic_s, "s");
    result.check("requests", s.metrics.requests);
    result.check("cache_hits", s.metrics.cache_hits);
    result.check("cache_evictions", s.metrics.cache_evictions);
    result.info("answers", answers.str());
    result.series("latency_ms", std::move(latency_ms));
    result.print(out);
    return 0;
  }

  // Traced: an untraced warm-up session, the traced one, an untraced one as
  // the overhead baseline, then the cold evaluations the answers must equal.
  (void)run_session(c, false);
  const Session traced = run_session(c, true);
  const Session untraced = run_session(c, false);

  Track cold_track(c.clients + 1);
  std::vector<std::uint64_t> cold_digest(traced.pool.size());
  std::vector<double> dp_s, grid_s;
  for (std::size_t i = 0; i < traced.pool.size(); ++i) {
    core::ScheduleResponse response;
    {
      const auto s = cold_track.open("opt.evaluate");
      response = opt::evaluate_schedule_request(traced.pool[i]);
    }
    (traced.pool[i].mode == core::EvalMode::kExactDp ? dp_s : grid_s)
        .push_back(cold_track.back().seconds());
    cold_digest[i] = masked_digest(response);
  }

  // Every answer of the traced and of the untraced session must equal the
  // cold evaluation, and every request must have been answered.
  const auto wrong_answers = [&](const Session& session) {
    std::int64_t wrong = c.clients * c.requests - session.metrics.requests;
    for (const ClientLog& log : session.logs)
      for (const auto& [key, count] : log.answers)
        if (key.second != cold_digest[key.first]) wrong += count;
    return wrong;
  };
  std::vector<double> queue_ms, hit_s, codec_s;
  for (std::size_t r = 1; r < traced.logs.size(); ++r) {
    const ClientLog& log = traced.logs[r];
    for (std::size_t id = 0; id < log.latency_s.size(); ++id) {
      const ServedRequest& served =
          traced.served.at({static_cast<int>(r), id});
      queue_ms.push_back((log.latency_s[id] - served.cache_s) * 1e3);
    }
  }
  for (const auto& [key, served] : traced.served) {
    if (served.hit) hit_s.push_back(served.cache_s);
    codec_s.push_back(served.codec_s);
  }
  const Track& server = traced.tracks[0];
  const double requests = static_cast<double>(traced.metrics.requests);
  result.check("traced_wrong_answers", wrong_answers(traced));
  result.check("untraced_wrong_answers", wrong_answers(untraced));
  result.metric("runtime.wait_s", server.total("runtime.recv"), "s");
  result.metric("runtime.messages",
                static_cast<double>(traced.traffic.messages), "count");
  result.metric("runtime.bytes",
                static_cast<double>(traced.traffic.payload_bytes), "B");
  result.metric("opt.eval_dp_ms", median(dp_s) * 1e3, "ms");
  result.metric("opt.eval_grid_us", median(grid_s) * 1e6, "us");
  result.metric("opt.hit_us", median(hit_s) * 1e6, "us");
  result.metric("opt.hit_ratio",
                static_cast<double>(traced.metrics.cache_hits) / requests,
                "ratio");
  result.metric("opt.evictions",
                static_cast<double>(traced.metrics.cache_evictions), "count");
  result.metric("serve.batches", static_cast<double>(traced.metrics.batches),
                "count");
  result.metric("serve.max_batch",
                static_cast<double>(traced.metrics.max_batch), "count");
  result.metric("serve.codec_us", median(codec_s) * 1e6, "us");
  result.metric("serve.queue_ms", median(queue_ms), "ms");
  result.metric("trace.overhead", traced.traffic_s / untraced.traffic_s,
                "ratio");
  result.metric("trace.unattributed",
                server.unattributed() / traced.traffic_s, "ratio");
  result.info("traced_s", std::to_string(traced.traffic_s));
  result.info("untraced_s", std::to_string(untraced.traffic_s));

  std::vector<const Track*> all;
  for (const Track& t : traced.tracks) all.push_back(&t);
  all.push_back(&cold_track);
  if (!spans_path.empty()) write_chrome_trace(spans_path, all);
  result.print(out);
  return 0;
}

}  // namespace perfbench
