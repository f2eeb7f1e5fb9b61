#include "tgbench/common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "src/util/strings.h"

namespace tgbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

void RunResult::Note(const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  notes.push_back({name, buf});
}

void RunResult::Note(const std::string& name, const std::string& text) {
  std::string quoted = "\"";
  quoted.append(tg_util::JsonEscape(text)).append("\"");
  notes.push_back({name, quoted});
}

void RunResult::Fail(const std::string& message) {
  correct = false;
  if (errors.size() < 8) {
    errors.push_back(message);
  }
}

size_t SpanLog::Begin(const char* name, uint64_t request) {
  if (!enabled_) {
    return SIZE_MAX;
  }
  Span s;
  s.name = name;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.request = request;
  s.start_ns = NowNs();
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

uint64_t SpanLog::End(size_t index) {
  if (index == SIZE_MAX) {
    return 0;
  }
  Span& s = spans_[index];
  s.end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
  return s.end_ns - s.start_ns;
}

uint64_t ScopedSpan::Close() {
  if (!closed_) {
    closed_ = true;
    const uint64_t recorded = log_.End(index_);
    elapsed_ = recorded != 0 ? recorded : NowNs() - start_;
  }
  return elapsed_;
}

std::vector<std::pair<std::string, double>> SelfNsByLayer(const std::vector<Span>& spans) {
  std::unordered_map<uint32_t, double> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::vector<std::pair<std::string, double>> out;
  for (const Span& s : spans) {
    const std::string_view name(s.name);
    const std::string layer(name.substr(0, name.find('.')));
    const double self = static_cast<double>(s.end_ns - s.start_ns) - child_ns[s.id];
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const auto& entry) { return entry.first == layer; });
    if (it == out.end()) {
      out.push_back({layer, self});
    } else {
      it->second += self;
    }
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<std::vector<Span>>& logs) {
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t]) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << ",\"thread\":" << t << "}\n";
    }
  }
  return static_cast<bool>(out);
}

Zipf::Zipf(size_t n, uint64_t seed) : prng_(seed), cdf_(n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / static_cast<double>(i + 1);
    cdf_[i] = sum;
  }
}

size_t Zipf::Next() {
  const double u = static_cast<double>(prng_.NextBelow(1u << 30)) /
                   static_cast<double>(1u << 30) * cdf_.back();
  return static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

std::string MakeReadLine(Zipf& zipf, const std::vector<std::string>& names) {
  const std::string& a = names[zipf.Next()];
  const std::string& b = names[zipf.Next()];
  switch (zipf.prng().NextBelow(4)) {
    case 0:
      return "can_know " + a + " " + b;
    case 1:
      return "can_knowf " + a + " " + b;
    case 2:
      return "can_share r " + a + " " + b;
    default:
      return "knowable " + a;
  }
}

namespace {

// A take or grant rule for actor `s` whose preconditions hold on `g`:
// take s y z R with s -t-> y and y -R-> z, or grant s y z R with s -g-> y
// and s -R-> z, R one of r, w.  nullopt when s holds no usable t or g.
std::optional<std::string> HoldingRuleLine(tg_util::Prng& prng, const tg::ProtectionGraph& g,
                                           const std::vector<std::string>& names,
                                           tg::VertexId s) {
  struct Candidate {
    tg::VertexId y, z;
    const char* right;
  };
  const bool take_first = prng.NextBelow(2) == 0;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool take = (attempt == 0) == take_first;
    std::vector<Candidate> candidates;
    g.ForEachOutEdge(s, [&](const tg::Edge& via) {
      if (!via.explicit_rights.Has(take ? tg::Right::kTake : tg::Right::kGrant)) return;
      const tg::VertexId y = via.dst;
      g.ForEachOutEdge(take ? y : s, [&](const tg::Edge& e) {
        if (e.dst == s || e.dst == y) return;
        if (e.explicit_rights.Has(tg::Right::kRead)) candidates.push_back({y, e.dst, "r"});
        if (e.explicit_rights.Has(tg::Right::kWrite)) candidates.push_back({y, e.dst, "w"});
      });
    });
    if (!candidates.empty()) {
      const Candidate& c = prng.Choose(candidates);
      return std::string(take ? "admit take " : "admit grant ") + names[s] + " " + names[c.y] +
             " " + names[c.z] + " " + c.right;
    }
  }
  return std::nullopt;
}

}  // namespace

std::string MakeAdmitLine(Zipf& zipf, const AdmitPool& pool, size_t* create_seq) {
  const tg::VertexId s = pool.subjects[zipf.Next() % pool.subjects.size()];
  const uint64_t kind = zipf.prng().NextBelow(4);
  if (kind < 2) {
    return "admit create " + pool.names[s] + " object rw bx" + std::to_string((*create_seq)++);
  }
  if (kind == 3) {
    const tg::VertexId actor = !pool.exposed.empty() && zipf.prng().NextBelow(2) == 0
                                   ? zipf.prng().Choose(pool.exposed)
                                   : s;
    if (auto line = HoldingRuleLine(zipf.prng(), *pool.graph, pool.names, actor)) {
      return *line;
    }
  }
  const std::string& y = pool.names[zipf.Next()];
  const std::string& z = pool.names[zipf.Next()];
  const char* rights = zipf.prng().NextBelow(2) == 0 ? "r" : "w";
  return (zipf.prng().NextBelow(2) == 0 ? "admit take " : "admit grant ") + pool.names[s] + " " +
         y + " " + z + " " + rights;
}

std::optional<double> JsonNumber(std::string_view json, std::string_view key) {
  std::string needle = "\"";
  needle.append(key).append("\":");
  const size_t at = json.find(needle);
  if (at == std::string_view::npos) {
    return std::nullopt;
  }
  const std::string tail(json.substr(at + needle.size(), 32));
  return std::strtod(tail.c_str(), nullptr);
}

}  // namespace tgbench
