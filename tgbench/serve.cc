// serve_read and serve_mixed: the policy server under wire load.
//
// The server runs in-process on a unix socket inside the checkout, serving
// the bench_server org shape scaled to 8 levels x 128 clusters x (8
// subjects + 3 objects) = 11,264 vertices plus kOrgBridges planted
// cross-level take edges (so the admission gate has connections to veto),
// loaded from generated .tgg / .lvl text as policy_server loads its
// files.  kReaders closed-loop reader connections each keep one request
// line in flight (a reference monitor asks and waits); serve_mixed adds one
// open-loop writer connection that sends the admit mix at kWriteRate lines
// per second, each write timed from when it was due.  The load generator
// is at most four threads with one connection each.  The op_* figures are
// reads on serve_read; on serve_mixed op_p50_ms is the median write and
// op_p99_ms the reads' p99 (on both, the median of per-slice p99s).  After
// a warm-up the measured window runs in four equal quarters; with tracing
// on, the middle two record bench-side spans and the outer two do not,
// which gives the tracing overhead from one process.
//
// The traced run then replays the same seeded request streams layer by
// layer through the public API: FrameDecoder/SplitRequestLines,
// PolicyEngine (PublishIfAdvanced -> pinned -> ExecuteReadBatch /
// ExecuteWrite), the per-verb predicates on the pinned epoch, EncodeFrame,
// and a shadow AdmissionGate for the writes.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/take_grant.h"
#include "src/util/strings.h"
#include "tgbench/workloads.h"

namespace tgbench {
namespace {

constexpr size_t kReaders = 3;
// Admit lines per second on serve_mixed: bench_server's mixed traffic is
// 90% reads and 10% admissions, and serve_read answers about 140 reads/s on
// a 4-core box (the serve_read ops_per_s baseline), so writes run at one
// ninth of that.
constexpr double kWriteRate = 15.0;
constexpr size_t kOrgBridges = 8;  // planted cross-level take edges
constexpr int kSetupReps = 50;     // one set-up costs about 45 ms
constexpr double kP99Slice = 5.0;  // seconds per slice of the op_p99_ms median
constexpr size_t kSampleEvery = 37;       // keep every 37th timed read for checking
constexpr size_t kSamplesPerReader = 40;  // ... at most this many per reader
constexpr int kFinalChecks = 48;          // post-window reads checked on serve_mixed

enum Verb : uint8_t { kCanKnow, kCanKnowF, kCanShare, kKnowable, kVerbCount };
constexpr const char* kVerbSpan[kVerbCount] = {"analysis.can_know", "analysis.can_knowf",
                                               "analysis.can_share", "analysis.knowable"};
constexpr const char* kVerbMetric[kVerbCount] = {"can_know", "can_knowf", "can_share",
                                                 "knowable"};

Verb VerbOf(std::string_view line) {
  if (line.rfind("can_knowf ", 0) == 0) return kCanKnowF;
  if (line.rfind("can_know ", 0) == 0) return kCanKnow;
  if (line.rfind("can_share ", 0) == 0) return kCanShare;
  return kKnowable;
}

uint64_t ReaderSeed(uint64_t seed, size_t reader) { return seed * 1000003 + 17 * reader + 1; }
uint64_t WriterSeed(uint64_t seed) { return seed * 31 + 7; }

// The deployment's inputs: the org graph and its designer levels as the
// .tgg / .lvl text policy_server loads at start-up, and the names of the
// subjects a planted bridge exposes (the admit mix's exposed actors).
struct OrgText {
  std::string graph, levels;
  std::vector<std::string> exposed;
};

// The bench plants kOrgBridges adjacent-level take edges, as the
// generator's planted_channels does but without its grant edges.  Where
// they go is fixed (bridge i joins levels i % 7 and i % 7 + 1, in cluster
// 64 + 4i of both, upward for even i and downward for odd i), and the seed
// picks only the two subjects inside those clusters, so which clusters a
// bridge merges, and with them the cost of the Zipf-hot reads, is the
// same for every seed.  Every subject holds r/w rights, so each bridge is
// a Theorem 5.2 violation and the graph is insecure.  A bridge a -t-> b
// exposes b's whole cluster (the take ring reaches it) to a's level: there
// a new read of the cluster's own level (a below b) or a new write of it
// (a above b) completes a read-up or write-down connection, which the gate
// vetoes.
OrgText MakeOrgText(uint64_t seed) {
  tg_sim::HierarchicalGraphOptions options;
  options.levels = 8;
  options.clusters_per_level = 128;
  options.subjects_per_cluster = 8;
  options.objects_per_cluster = 3;
  options.planted_channels = 0;
  tg_util::Prng prng(seed);
  tg_sim::GeneratedHierarchy org = tg_sim::HierarchicalGraph(options, prng);
  const size_t spc = options.subjects_per_cluster;
  OrgText text;
  auto add_cluster = [&](size_t level, size_t index) {
    const std::vector<tg::VertexId>& level_subjects = org.level_subjects[level];
    const size_t begin = index / spc * spc;
    for (size_t i = begin; i < begin + spc; ++i) {
      text.exposed.push_back(org.graph.NameOf(level_subjects[i]));
    }
  };
  for (size_t planted = 0; planted < kOrgBridges;) {
    const size_t hi = 1 + planted % (options.levels - 1);
    const size_t cluster = options.clusters_per_level / 2 + 4 * planted;
    const size_t low = cluster * spc + prng.NextBelow(spc);
    const size_t high = cluster * spc + prng.NextBelow(spc);
    const tg::VertexId a = org.level_subjects[hi - 1][low];
    const tg::VertexId b = org.level_subjects[hi][high];
    const bool downward = planted % 2 == 1;
    if ((downward ? org.graph.AddExplicit(b, a, tg::kTake)
                  : org.graph.AddExplicit(a, b, tg::kTake))
            .ok()) {
      downward ? add_cluster(hi - 1, low) : add_cluster(hi, high);
      ++planted;
    }
  }
  text.graph = tg::PrintGraph(org.graph);
  text.levels = tg_hier::PrintLevels(org.levels, org.graph);
  return text;
}

bool IsOk(std::string_view response) {
  return tg_server::ExtractJsonField(response, "ok") == "true";
}

// The answer field a read response carries: the verdict, or the knowable
// count.
std::string ServedAnswer(std::string_view response, Verb verb) {
  return tg_server::ExtractJsonField(response, verb == kKnowable ? "count" : "verdict");
}

// The same answer computed by the analysis library directly on `g`.
std::string LibraryAnswer(const tg::ProtectionGraph& g, tg_analysis::AnalysisCache& cache,
                          std::string_view line) {
  const std::vector<std::string_view> tok = tg_util::SplitWhitespace(line);
  const Verb verb = VerbOf(line);
  const tg::VertexId x = g.FindVertex(verb == kCanShare ? tok[2] : tok[1]);
  switch (verb) {
    case kCanKnow:
      return cache.CanKnow(g, x, g.FindVertex(tok[2])) ? "true" : "false";
    case kCanKnowF:
      return tg_analysis::CanKnowF(g, x, g.FindVertex(tok[2])) ? "true" : "false";
    case kCanShare:
      return tg_analysis::CanShare(g, *tg::RightFromChar(tok[1][0]), x, g.FindVertex(tok[3]))
                 ? "true"
                 : "false";
    default: {
      const std::vector<bool>& row = cache.Knowable(g, x);
      return std::to_string(std::count(row.begin(), row.end(), true));
    }
  }
}

// Outcome name ("accepted" / "vetoed" / "rejected") of an admit response.
std::string OutcomeOf(std::string_view response) {
  const std::string_view key = "\"outcome\":\"";
  const size_t at = response.find(key);
  if (at == std::string_view::npos) {
    return "";
  }
  const size_t begin = at + key.size();
  return std::string(response.substr(begin, response.find('"', begin) - begin));
}

int ConnectRaw(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      return false;
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

// One started server with its connections, and the graph it was loaded
// with (the reference for every check).
struct Live {
  tg::ProtectionGraph graph;
  tg_hier::LevelAssignment levels;
  std::unique_ptr<tg_server::PolicyServer> server;
  std::vector<tg_server::PolicyClient> readers;
  int writer_fd = -1;

  Live() = default;
  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;
  ~Live() {
    if (writer_fd >= 0) {
      ::close(writer_fd);
    }
    if (server != nullptr) {
      server->Stop();
    }
  }
};

// Set-up as a deployment pays it: parse the graph and levels, construct
// and start the server (gate exposure state + epoch-0 publish), connect.
std::unique_ptr<Live> SetUp(const OrgText& text, bool mixed, int rep, std::string* error) {
  auto live = std::make_unique<Live>();
  auto graph = tg::ParseGraph(text.graph);
  if (!graph.ok()) {
    *error = "graph parse: " + graph.status().ToString();
    return nullptr;
  }
  live->graph = std::move(graph).value();
  auto levels = tg_hier::ParseLevels(text.levels, live->graph);
  if (!levels.ok()) {
    *error = "levels parse: " + levels.status().ToString();
    return nullptr;
  }
  live->levels = std::move(levels).value();
  tg_server::PolicyServer::Options options;
  options.unix_path =
      ".tgbench_out/serve-" + std::to_string(::getpid()) + "-" + std::to_string(rep) + ".sock";
  live->server = std::make_unique<tg_server::PolicyServer>(live->graph, live->levels, options);
  if (auto s = live->server->Start(); !s.ok()) {
    *error = "server start: " + s.ToString();
    return nullptr;
  }
  const std::string& path = live->server->unix_path();
  live->readers.resize(kReaders);
  for (tg_server::PolicyClient& client : live->readers) {
    if (auto s = client.ConnectUnix(path); !s.ok()) {
      *error = "reader connect: " + s.ToString();
      return nullptr;
    }
  }
  if (mixed) {
    live->writer_fd = ConnectRaw(path);
    if (live->writer_fd < 0) {
      *error = "writer connect failed";
      return nullptr;
    }
  }
  return live;
}

struct ReadSample {
  uint64_t latency_ns = 0;
  uint64_t done_ns = 0;  // when the answer arrived
  uint8_t phase = 0;     // 1..4 = measured quarter
};

struct ReaderRun {
  std::vector<ReadSample> samples;
  std::vector<std::pair<std::string, std::string>> kept;  // (line, response)
  uint64_t error_responses = 0;
  bool transport_error = false;
  std::string error;
  std::string stats_before;  // reader 0 only: `stats` as the window opened
  SpanLog log{false};
};

struct WriterRun {
  std::vector<std::string> lines;  // the pre-generated admit stream
  std::vector<uint64_t> due_ns, lag_ns, recv_ns;
  std::vector<std::string> responses;
  size_t sent = 0;
  size_t received = 0;
  std::string error;
};

void RunReader(tg_server::PolicyClient& client, const std::vector<std::string>& names,
               uint64_t seed, size_t index, bool trace, const std::atomic<int>& phase,
               ReaderRun& run) {
  Zipf zipf(names.size(), ReaderSeed(seed, index));
  uint64_t request = 0;
  for (;;) {
    const int ph = phase.load(std::memory_order_acquire);
    if (ph > 4) {
      break;
    }
    if (index == 0 && ph > 0 && run.stats_before.empty()) {
      // The window's counter baseline, scraped on this reader's own
      // connection so that the bench holds no connection beyond its four
      // clients.
      auto stats = client.Call("stats");
      run.stats_before = stats.ok() ? *stats : "-";
    }
    const std::string line = MakeReadLine(zipf, names);
    run.log.set_enabled(trace && (ph == 2 || ph == 3));
    ScopedSpan span(run.log, "bench.read_rt", index * (uint64_t{1} << 40) + request++);
    auto response = client.Call(line);
    const uint64_t latency = span.Close();
    if (!response.ok()) {
      run.transport_error = true;
      run.error = response.status().ToString();
      return;
    }
    if (ph == 0) {
      continue;  // warm-up
    }
    run.samples.push_back({latency, NowNs(), static_cast<uint8_t>(ph)});
    if (!IsOk(*response)) {
      ++run.error_responses;
      if (run.error.empty()) {
        run.error = "error response to '" + line + "': " + *response;
      }
    } else if (run.samples.size() % kSampleEvery == 0 &&
               run.kept.size() < kSamplesPerReader) {
      run.kept.push_back({line, *response});
    }
  }
}

// The writer connection, sending and receiving on one thread: it sends
// line i at start + i / kWriteRate and, while waiting for the next due
// time, reads responses, stamping each as it arrives.  After the window it
// drains the responses still in flight.
void RunWriter(int fd, uint64_t start_ns, const std::atomic<int>& phase, WriterRun& w) {
  const double period_ns = 1e9 / kWriteRate;
  tg_server::FrameDecoder decoder;
  std::string payload;
  char buf[1 << 16];
  bool sending = true;
  uint64_t idle_since = NowNs();
  for (;;) {
    if (sending && (w.sent == w.lines.size() || phase.load(std::memory_order_acquire) > 4)) {
      sending = false;
      idle_since = NowNs();
    }
    if (!sending && w.received >= w.sent) {
      return;
    }
    const uint64_t now = NowNs();
    const uint64_t due =
        start_ns + static_cast<uint64_t>(static_cast<double>(w.sent) * period_ns);
    if (sending && now >= due) {
      w.due_ns[w.sent] = due;
      w.lag_ns[w.sent] = now - due;
      if (!SendAll(fd, tg_server::EncodeFrame(w.lines[w.sent]))) {
        w.error = "writer send failed";
        return;
      }
      ++w.sent;
      continue;
    }
    if (!sending && now - idle_since > 30'000'000'000ull) {
      w.error = "writer responses stalled";
      return;
    }
    const uint64_t wait_ns = sending ? due - now : 50'000'000;
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    pollfd p{fd, POLLIN, 0};
    if (::ppoll(&p, 1, &timeout, nullptr) <= 0) {
      continue;
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      w.error = "writer connection closed";
      return;
    }
    const uint64_t arrived = NowNs();
    idle_since = arrived;
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    tg_server::FrameDecoder::Result result;
    while ((result = decoder.Next(&payload)) == tg_server::FrameDecoder::Result::kFrame) {
      if (w.received < w.lines.size()) {
        w.recv_ns[w.received] = arrived;
        w.responses[w.received] = payload;
      }
      ++w.received;
    }
    if (result == tg_server::FrameDecoder::Result::kError) {
      w.error = "writer frame error: " + decoder.error();
      return;
    }
  }
}

std::vector<double> Ms(const std::vector<uint64_t>& ns) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (uint64_t v : ns) {
    out.push_back(static_cast<double>(v) / 1e6);
  }
  return out;
}

// The traced layer-by-layer replay of the same seeded streams.
void ReplayLayers(const tg::ProtectionGraph& graph, const tg_hier::LevelAssignment& levels,
                  const std::vector<std::string>& names,
                  const std::vector<std::string>& writes, double writes_per_batch,
                  uint64_t seed, double budget_s, double read_p50_ms, SpanLog& log,
                  RunResult& r) {
  tg_server::PolicyEngine engine(graph, levels, tg_server::PolicyEngine::Options{});
  auto shadow = tg_hier::AdmissionGate::Create(graph, levels);
  tg_analysis::AnalysisCache cache;
  std::vector<Zipf> zipfs;
  for (size_t t = 0; t < kReaders; ++t) {
    zipfs.emplace_back(names.size(), ReaderSeed(seed, t));
  }
  std::vector<uint64_t> decode_ns, encode_ns, publish_ns, batch_ns, covered_ns, admit_ns;
  std::vector<uint64_t> verb_ns[kVerbCount];
  double line_total = 0.0, capacity_total = 0.0;
  const double workers = static_cast<double>(engine.worker_threads());
  size_t next_write = 0, mismatches = 0;
  double write_credit = 0.0;
  uint64_t ops = 0;
  size_t bytes_out = 0;

  auto decode = [&](const std::string& line, uint64_t request) {
    const std::string frame = tg_server::EncodeFrame(line);  // the client's side
    ScopedSpan span(log, "server.decode", request);
    tg_server::FrameDecoder decoder;
    decoder.Feed(frame);
    std::string payload;
    const bool ok = decoder.Next(&payload) == tg_server::FrameDecoder::Result::kFrame &&
                    tg_server::SplitRequestLines(payload).size() == 1;
    const uint64_t ns = span.Close();
    decode_ns.push_back(ns);
    mismatches += ok ? 0 : 1;
    return ns;
  };

  const uint64_t deadline = NowNs() + static_cast<uint64_t>(budget_s * 1e9);
  for (uint64_t b = 0; NowNs() < deadline; ++b) {
    {
      ScopedSpan root(log, "bench.batch", b);
      std::vector<std::string> lines(kReaders);
      std::vector<uint64_t> line_decode(kReaders);
      for (size_t t = 0; t < kReaders; ++t) {
        lines[t] = MakeReadLine(zipfs[t], names);
        line_decode[t] = decode(lines[t], b);
      }
      ScopedSpan publish(log, "engine.publish", b);
      const bool published = engine.PublishIfAdvanced();
      const uint64_t pub = publish.Close();
      if (published) {
        publish_ns.push_back(pub);
      }
      ScopedSpan pin(log, "engine.pin", b);
      const std::shared_ptr<const tg_server::EpochState> state = engine.pinned();
      const uint64_t pinned = pin.Close();
      ScopedSpan batch(log, "engine.read_batch", b);
      const std::vector<std::string> responses = engine.ExecuteReadBatch(state, lines);
      const uint64_t makespan = batch.Close();
      batch_ns.push_back(makespan);
      double line_sum = 0.0;
      for (size_t t = 0; t < kReaders; ++t) {
        const Verb verb = VerbOf(lines[t]);
        ScopedSpan predicate(log, kVerbSpan[verb], b);
        const std::string answer = LibraryAnswer(state->graph, cache, lines[t]);
        const uint64_t ns = predicate.Close();
        verb_ns[verb].push_back(ns);
        line_sum += static_cast<double>(ns);
        if (!IsOk(responses[t]) || ServedAnswer(responses[t], verb) != answer) {
          ++mismatches;
        }
        ScopedSpan encode(log, "server.encode", b);
        const std::string frame = tg_server::EncodeFrame(responses[t]);
        const uint64_t enc = encode.Close();
        encode_ns.push_back(enc);
        bytes_out += frame.size();
        covered_ns.push_back(line_decode[t] + pub + pinned + ns + enc);
      }
      line_total += line_sum;
      capacity_total += workers * static_cast<double>(makespan);
      ops += kReaders;
    }
    write_credit += writes_per_batch;
    while (write_credit >= 1.0 && next_write < writes.size()) {
      write_credit -= 1.0;
      const uint64_t id = next_write;
      const std::string& line = writes[next_write++];
      std::string response;
      {
        ScopedSpan root(log, "bench.write", id);
        decode(line, id);
        ScopedSpan write(log, "engine.write", id);
        response = engine.ExecuteWrite(line, /*conn_token=*/1);
      }
      const std::vector<std::string_view> tok = tg_util::SplitWhitespace(line);
      auto rule = tg_server::ParseRuleClause(
          std::vector<std::string_view>(tok.begin() + 1, tok.end()), shadow->graph());
      if (!rule.ok()) {
        ++mismatches;
        continue;
      }
      ScopedSpan admit(log, "admission.admit", id);
      const tg_hier::AdmissionDecision d = shadow->Admit(std::move(rule).value());
      admit_ns.push_back(admit.Close());
      if (OutcomeOf(response) != tg_hier::AdmissionOutcomeName(d.outcome)) {
        ++mismatches;
      }
      ++ops;
    }
  }

  r.attempted += ops;
  if (mismatches != 0) {
    r.failed += mismatches;
    r.Fail("layer replay: " + std::to_string(mismatches) +
           " answers differ between ExecuteReadBatch/ExecuteWrite and the library");
  }
  for (int v = 0; v < kVerbCount; ++v) {
    const std::string base = std::string("analysis.") + kVerbMetric[v] + "_us_";
    if (!verb_ns[v].empty()) {
      const std::vector<double> ms = Ms(verb_ns[v]);
      r.values[base + "p50"] = Percentile(ms, 0.5) * 1e3;
      r.values[base + "p99"] = Percentile(ms, 0.99) * 1e3;
    }
    r.Note(std::string("replay_") + kVerbMetric[v] + "_samples",
           static_cast<double>(verb_ns[v].size()));
  }
  if (!publish_ns.empty()) {
    r.values["engine.publish_ms_p50"] = Percentile(Ms(publish_ns), 0.5);
    r.values["engine.publish_ms_p99"] = Percentile(Ms(publish_ns), 0.99);
  }
  r.values["engine.read_batch_ms_p50"] = Percentile(Ms(batch_ns), 0.5);
  r.values["engine.read_batch_ms_p99"] = Percentile(Ms(batch_ns), 0.99);
  r.values["engine.pool_efficiency"] = capacity_total > 0 ? line_total / capacity_total : 0.0;
  if (!admit_ns.empty()) {
    r.values["admission.admit_us_p50"] = Percentile(Ms(admit_ns), 0.5) * 1e3;
    r.values["admission.admit_us_p99"] = Percentile(Ms(admit_ns), 0.99) * 1e3;
  }
  auto mean_us = [](const std::vector<uint64_t>& ns) {
    double sum = 0.0;
    for (uint64_t v : ns) sum += static_cast<double>(v);
    return ns.empty() ? 0.0 : sum / static_cast<double>(ns.size()) / 1e3;
  };
  r.values["server.decode_us_per_frame"] = mean_us(decode_ns);
  r.values["server.encode_us_per_frame"] = mean_us(encode_ns);
  r.values["server.unattributed_ms"] = read_p50_ms - Percentile(Ms(covered_ns), 0.5);
  for (const auto& [layer, ns] : SelfNsByLayer(log.spans())) {
    r.values["self." + layer + "_ms_per_op"] =
        ns / 1e6 / static_cast<double>(std::max<uint64_t>(ops, 1));
  }
  r.Note("replay_batches", static_cast<double>(batch_ns.size()));
  r.Note("replay_response_bytes", static_cast<double>(bytes_out));
  r.Note("replay_publishes", static_cast<double>(publish_ns.size()));
  r.Note("replay_writes", static_cast<double>(admit_ns.size()));
  r.Note("engine_workers", workers);
}

}  // namespace

RunResult RunServe(const RunArgs& args, bool mixed) {
  RunResult r;
  r.Note("readers", static_cast<double>(kReaders));
  r.Note("write_rate_per_s", mixed ? kWriteRate : 0.0);

  // ---- Set-up, several times; the last one serves. ----
  const OrgText text = MakeOrgText(args.seed);
  std::vector<double> setup_s;
  std::unique_ptr<Live> live;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    live.reset();
    std::string error;
    const uint64_t t0 = NowNs();
    live = SetUp(text, mixed, rep, &error);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (live == nullptr) {
      r.Fail(error);
      r.failed = r.attempted = 1;
      return r;
    }
  }
  r.values["setup_s"] = Median(setup_s);
  {
    std::string each;
    char buf[32];
    for (double v : setup_s) {
      std::snprintf(buf, sizeof(buf), "%s%.1f", each.empty() ? "" : " ", v * 1e3);
      each += buf;
    }
    r.Note("setup_ms_each", each);
  }
  const tg::ProtectionGraph& g0 = live->graph;
  r.Note("vertices", static_cast<double>(g0.VertexCount()));
  r.Note("engine_workers",
         static_cast<double>(live->server->engine().worker_threads()));

  AdmitPool pool;
  pool.graph = &g0;
  for (tg::VertexId v = 0; v < static_cast<tg::VertexId>(g0.VertexCount()); ++v) {
    pool.names.push_back(g0.NameOf(v));
    if (g0.IsSubject(v)) {
      pool.subjects.push_back(v);
    }
  }
  for (const std::string& name : text.exposed) {
    pool.exposed.push_back(g0.FindVertex(name));
  }
  const std::vector<std::string>& names = pool.names;

  const double warm_s = std::min(2.0, std::max(0.5, 0.15 * args.seconds));
  WriterRun writer;
  if (mixed) {
    const size_t count =
        static_cast<size_t>(std::ceil(kWriteRate * (warm_s + args.seconds + 1.0)));
    Zipf zipf(names.size(), WriterSeed(args.seed));
    size_t create_seq = 0;
    for (size_t i = 0; i < count; ++i) {
      writer.lines.push_back(MakeAdmitLine(zipf, pool, &create_seq));
    }
    writer.due_ns.assign(count, 0);
    writer.lag_ns.assign(count, 0);
    writer.recv_ns.assign(count, 0);
    writer.responses.assign(count, "");
  }

  // ---- Serve: warm-up, then four measured quarters. ----
  std::atomic<int> phase{0};
  std::vector<ReaderRun> runs(kReaders);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back(RunReader, std::ref(live->readers[t]), std::cref(names), args.seed, t,
                         args.trace, std::cref(phase), std::ref(runs[t]));
  }
  const uint64_t serve_start = NowNs();
  if (mixed) {
    threads.emplace_back(RunWriter, live->writer_fd, serve_start, std::cref(phase),
                         std::ref(writer));
  }
  auto sleep_until_ns = [](uint64_t t) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t)));
  };
  sleep_until_ns(serve_start + static_cast<uint64_t>(warm_s * 1e9));
  uint64_t bounds[5];
  bounds[0] = NowNs();
  const double cpu0 = ProcessCpuSeconds();
  phase.store(1, std::memory_order_release);
  for (int q = 1; q <= 4; ++q) {
    sleep_until_ns(bounds[0] + static_cast<uint64_t>(args.seconds * 1e9 * q / 4));
    bounds[q] = NowNs();
    phase.store(q + 1, std::memory_order_release);
  }
  const double cpu1 = ProcessCpuSeconds();
  for (std::thread& t : threads) {
    t.join();
  }
  // `stats` responses, registry dump included; after the window reader
  // 0's connection also carries the final checks.
  tg_server::PolicyClient& checker = live->readers[0];
  const std::string before = runs[0].stats_before == "-" ? "" : runs[0].stats_before;
  std::string after;
  if (auto s = checker.Call("stats"); s.ok()) {
    after = *s;
  }
  const double window_s = static_cast<double>(bounds[4] - bounds[0]) / 1e9;

  // ---- End-to-end figures. ----
  std::vector<double> read_ms, traced_ms, untraced_ms, write_ms, lag_ms;
  std::vector<double> quarter_ms[4];
  for (const ReaderRun& run : runs) {
    for (const ReadSample& s : run.samples) {
      const double ms = static_cast<double>(s.latency_ns) / 1e6;
      read_ms.push_back(ms);
      quarter_ms[s.phase - 1].push_back(ms);
      (s.phase == 2 || s.phase == 3 ? traced_ms : untraced_ms).push_back(ms);
    }
    r.attempted += run.samples.size() + (run.transport_error ? 1 : 0);
    r.failed += run.error_responses + (run.transport_error ? 1 : 0);
    if (!run.error.empty()) {
      r.Fail("reader: " + run.error);
    }
  }
  const size_t writes_sent = writer.sent;
  size_t writes_in_window = 0;
  for (size_t i = 0; i < std::min(writes_sent, writer.received); ++i) {
    lag_ms.push_back(static_cast<double>(writer.lag_ns[i]) / 1e6);
    if (writer.due_ns[i] >= bounds[0] && writer.due_ns[i] < bounds[4]) {
      const double ms = static_cast<double>(writer.recv_ns[i] - writer.due_ns[i]) / 1e6;
      write_ms.push_back(ms);
      ++writes_in_window;
    }
  }
  // Reads and writes are never pooled.  On serve_read both op percentiles
  // are reads.  On serve_mixed op_p50_ms is the median write, timed from
  // its due time, and op_p99_ms the reads' p99, where publishes after
  // writes show: the write p99 of ~675 writes is bimodal (1-2% of writes
  // take 1-5 ms, so it lands in the body or the tail by chance) and is
  // reported as serve.write_p99_ms.  ops_per_s counts both classes.
  const std::vector<double>& p50_ms = mixed ? write_ms : read_ms;
  r.values["ops_per_s"] = static_cast<double>(read_ms.size() + write_ms.size()) / window_s;
  r.values["op_p50_ms"] = Percentile(p50_ms, 0.5);
  // op_p99_ms is the median over kP99Slice-long slices of the window of
  // each slice's exact read p99: a host stall of a few seconds lifts one
  // slice's tail, not the figure.
  const size_t slices = std::max<size_t>(
      1, static_cast<size_t>(std::lround(args.seconds / kP99Slice)));
  std::vector<std::vector<double>> slice_ms(slices);
  for (const ReaderRun& run : runs) {
    for (const ReadSample& s : run.samples) {
      const double at = static_cast<double>(s.done_ns - bounds[0]) /
                        static_cast<double>(bounds[4] - bounds[0]);
      slice_ms[std::min(slices - 1, static_cast<size_t>(std::max(0.0, at) * slices))]
          .push_back(static_cast<double>(s.latency_ns) / 1e6);
    }
  }
  std::vector<double> slice_p99;
  std::string slice_note;
  for (const std::vector<double>& slice : slice_ms) {
    slice_p99.push_back(Percentile(slice, 0.99));
    char one[48];
    std::snprintf(one, sizeof(one), "%s%zu@%.2f", slice_note.empty() ? "" : " ", slice.size(),
                  slice_p99.back());
    slice_note += one;
  }
  r.values["op_p99_ms"] = Median(slice_p99);
  r.Note("read_p99_slices", slice_note);  // samples@p99 per slice
  r.Note("window_s", window_s);
  r.Note("op_p50_class", mixed ? "write" : "read");
  r.Note("op_p99_class", "read");
  r.Note("read_samples", static_cast<double>(read_ms.size()));
  r.Note("write_samples", static_cast<double>(write_ms.size()));
  // Shape and drift of the read latencies: deciles, and per quarter the
  // sample count and median.
  std::string deciles, quarters;
  char buf[64];
  for (int d = 1; d <= 9; ++d) {
    std::snprintf(buf, sizeof(buf), "%s%.2f", d == 1 ? "" : " ", Percentile(read_ms, d / 10.0));
    deciles += buf;
  }
  for (const std::vector<double>& q : quarter_ms) {
    std::snprintf(buf, sizeof(buf), "%s%zu@p50=%.2f", quarters.empty() ? "" : " ", q.size(),
                  Percentile(q, 0.5));
    quarters += buf;
  }
  r.Note("read_deciles_ms", deciles);
  r.Note("read_quarters", quarters);
  r.Note("read_p50_ms", Percentile(read_ms, 0.5));
  r.Note("read_p99_ms", Percentile(read_ms, 0.99));
  r.values["serve.read_p50_ms"] = Percentile(read_ms, 0.5);
  r.values["serve.read_p99_ms"] = Percentile(read_ms, 0.99);
  if (mixed) {
    std::string tail;
    for (double q : {0.9, 0.95, 0.98, 0.99, 0.995, 1.0}) {
      std::snprintf(buf, sizeof(buf), "%s%.2f", tail.empty() ? "" : " ", Percentile(write_ms, q));
      tail += buf;
    }
    r.Note("write_tail_ms", tail);  // p90 p95 p98 p99 p99.5 max
    r.Note("write_p50_ms", Percentile(write_ms, 0.5));
    r.Note("write_p99_ms", Percentile(write_ms, 0.99));
    r.values["serve.write_p50_ms"] = Percentile(write_ms, 0.5);
    r.values["serve.write_p99_ms"] = Percentile(write_ms, 0.99);
    r.values["bench.writer_lag_ms_p99"] = Percentile(lag_ms, 0.99);
    if (write_ms.empty()) {
      r.Fail("no write answered inside the window");
    }
  } else {
    r.not_applicable.insert({"serve.write_p50_ms", "serve.write_p99_ms",
                             "bench.writer_lag_ms_p99", "engine.publish_ms_p50",
                             "engine.publish_ms_p99", "admission.admit_us_p50",
                             "admission.admit_us_p99", "self.admission_ms_per_op"});
  }
  // Layers that do no work on either serving workload.
  r.not_applicable.insert({"snapshot.build_s", "audit.check_secure_s", "audit.channels_s",
                           "condense.dirty_shard_ratio", "bridge_enum.pivot_scans",
                           "self.snapshot_ms_per_op", "self.audit_ms_per_op"});
  r.values["pool.cpu_util"] =
      (cpu1 - cpu0) / (window_s * static_cast<double>(std::thread::hardware_concurrency()));

  // ---- Counters over the window, through the stats verb. ----
  // A key missing from a scrape fails the run rather than reading as 0.
  auto stat = [&](const std::string& raw, std::string_view key) {
    const std::optional<double> v = JsonNumber(raw, key);
    if (!v.has_value()) {
      r.Fail("stats response lacks \"" + std::string(key) + "\"");
    }
    return v.value_or(0.0);
  };
  auto delta = [&](std::string_view key) { return stat(after, key) - stat(before, key); };
  if (before.empty() || after.empty()) {
    r.Fail("stats scrape failed");
  }
  const double hits = delta("cache.hits"), misses = delta("cache.misses");
  r.values["cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  r.values["cache.evictions"] = delta("cache.evictions");
  r.values["incremental.rows_reused"] = delta("incremental.rows_reused");
  r.values["incremental.slices_repaired"] = delta("incremental.slices_repaired");
  r.values["engine.publishes"] = delta("server.epochs_published");
  const double batches = delta("server.batches_dispatched");
  r.values["server.lines_per_batch"] = batches > 0 ? delta("server.queries") / batches : 0.0;
  r.values["admission.accepted"] = delta("accepted");
  r.values["admission.vetoed"] = delta("vetoed");
  r.values["admission.rejected"] = delta("rejected");
  r.values["admission.state_rebuilds"] = delta("admission.state_rebuilds");
  r.values["snapshot.builds"] = delta("snapshot.builds");

  // ---- Correctness, outside the timed window. ----
  if (!writer.error.empty()) {
    ++r.failed;
    r.Fail(writer.error);
  }
  if (!mixed) {
    // Read-only: every kept answer must match the library on the same graph.
    tg_analysis::AnalysisCache cache;
    for (const ReaderRun& run : runs) {
      for (const auto& [line, response] : run.kept) {
        const std::string expect = LibraryAnswer(g0, cache, line);
        const std::string got = ServedAnswer(response, VerbOf(line));
        if (got != expect ||
            tg_server::ExtractJsonField(response, "epoch") != std::to_string(g0.epoch())) {
          ++r.failed;
          r.Fail("'" + line + "': wire " + got + " vs library " + expect);
        }
      }
    }
  } else {
    // Mixed: replay the writer's stream through a shadow gate.  It must
    // take every decision the server took, land on the server's final
    // epoch, and answer sampled final-graph reads identically.
    auto shadow = tg_hier::AdmissionGate::Create(g0, live->levels);
    r.attempted += writes_sent;
    for (size_t i = 0; i < writes_sent; ++i) {
      const std::vector<std::string_view> tok = tg_util::SplitWhitespace(writer.lines[i]);
      auto rule = tg_server::ParseRuleClause(
          std::vector<std::string_view>(tok.begin() + 1, tok.end()), shadow->graph());
      const std::string& response = writer.responses[i];
      if (!rule.ok() || !IsOk(response)) {
        ++r.failed;
        r.Fail("write '" + writer.lines[i] + "' failed: " + response);
        continue;
      }
      const tg_hier::AdmissionDecision d = shadow->Admit(std::move(rule).value());
      if (OutcomeOf(response) != tg_hier::AdmissionOutcomeName(d.outcome)) {
        ++r.failed;
        r.Fail("write '" + writer.lines[i] + "': server " + OutcomeOf(response) +
               " vs shadow " + tg_hier::AdmissionOutcomeName(d.outcome));
      }
    }
    const tg::ProtectionGraph& fg = shadow->graph();
    if (stat(after, "epoch") != static_cast<double>(fg.epoch()) ||
        stat(after, "accepted") != static_cast<double>(shadow->accepted_count()) ||
        stat(after, "vetoed") != static_cast<double>(shadow->vetoed_count()) ||
        stat(after, "rejected") != static_cast<double>(shadow->rejected_count())) {
      r.Fail("shadow gate diverged: server epoch " + std::to_string(stat(after, "epoch")) +
             " vs shadow " + std::to_string(fg.epoch()));
    }
    // The mix is built to reach every outcome, the Theorem 5.5 veto included.
    if (shadow->accepted_count() == 0 || shadow->vetoed_count() == 0 ||
        shadow->rejected_count() == 0) {
      r.Fail("the admit stream missed an outcome (accepted/vetoed/rejected " +
             std::to_string(shadow->accepted_count()) + "/" +
             std::to_string(shadow->vetoed_count()) + "/" +
             std::to_string(shadow->rejected_count()) + ")");
    }
    r.Note("final_epoch", static_cast<double>(fg.epoch()));
    r.Note("accepted", static_cast<double>(shadow->accepted_count()));
    r.Note("vetoed", static_cast<double>(shadow->vetoed_count()));
    r.Note("rejected", static_cast<double>(shadow->rejected_count()));
    tg_analysis::AnalysisCache cache;
    Zipf zipf(names.size(), args.seed ^ 0x5eedULL);
    for (int i = 0; i < kFinalChecks; ++i) {
      const std::string line = MakeReadLine(zipf, names);
      ++r.attempted;
      auto response = checker.Call(line);
      const std::string expect = LibraryAnswer(fg, cache, line);
      if (!response.ok() || !IsOk(*response) ||
          ServedAnswer(*response, VerbOf(line)) != expect) {
        ++r.failed;
        r.Fail("final-graph '" + line + "' differs from the library (" + expect + ")");
      }
    }
  }
  size_t kept = 0;
  for (const ReaderRun& run : runs) kept += run.kept.size();
  r.Note("checked_reads", static_cast<double>(mixed ? kFinalChecks : kept));
  live.reset();  // stop the server before the replay takes the cores

  // ---- Traced extras: overhead and the layer-by-layer replay. ----
  if (args.trace) {
    const double traced_p50 = Percentile(traced_ms, 0.5);
    r.values["trace.op_p50_ms"] = traced_p50;
    r.values["trace.overhead_ms"] = traced_p50 - Percentile(untraced_ms, 0.5);
    const double reads_per_batch_rounds = static_cast<double>(read_ms.size()) / kReaders;
    const double writes_per_batch =
        reads_per_batch_rounds > 0 ? static_cast<double>(writes_in_window) / reads_per_batch_rounds
                                   : 0.0;
    SpanLog replay_log(true);
    // The replay loads the same text the served run loaded.
    auto graph = tg::ParseGraph(text.graph);
    auto levels = tg_hier::ParseLevels(text.levels, *graph);
    ReplayLayers(*graph, *levels, names, writer.lines, writes_per_batch, args.seed,
                 std::min(8.0, args.seconds / 4), Percentile(read_ms, 0.5), replay_log, r);
    std::vector<std::vector<Span>> logs;
    for (const ReaderRun& run : runs) logs.push_back(run.log.spans());
    logs.push_back(replay_log.spans());
    const std::string path = ".tgbench_out/spans-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    if (!WriteSpans(path, logs)) {
      r.Fail("cannot write " + path);
    }
    r.Note("spans_file", path);
  }
  r.values["peak_rss_mb"] = PeakRssMb();
  return r;
}

}  // namespace tgbench
