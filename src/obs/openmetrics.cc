#include "obs/openmetrics.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/registry.h"

namespace edr {

namespace {

bool NameStartChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}
bool NameChar(char c) {
  return NameStartChar(c) || std::isdigit(static_cast<unsigned char>(c));
}

std::string FormatLe(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", seconds);
  return buf;
}

}  // namespace

std::string OpenMetricsName(std::string_view registry_name) {
  // The prefix starts with a letter, so the name is always valid.
  std::string out = "edr_";
  out.reserve(out.size() + registry_name.size());
  for (const char c : registry_name) {
    out += NameChar(c) ? c : '_';
  }
  // A family literally named *_total would make the counter sample
  // "..._total_total"; fold the suffix into the sample instead.
  constexpr std::string_view kTotal = "_total";
  if (out.size() > kTotal.size() &&
      out.compare(out.size() - kTotal.size(), kTotal.size(), kTotal) == 0) {
    out.resize(out.size() - kTotal.size());
  }
  return out;
}

std::string OpenMetricsEscapeLabel(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string RenderOpenMetrics(const MetricsSnapshot& snapshot,
                              const OpenMetricsOptions& options) {
  std::string out;
  char buf[256];

  for (const MetricsSnapshot::CounterRow& c : snapshot.counters) {
    const std::string name = OpenMetricsName(c.name);
    out += "# TYPE " + name + " counter\n";
    std::snprintf(buf, sizeof(buf), "%s_total %llu\n", name.c_str(),
                  static_cast<unsigned long long>(c.value));
    out += buf;
  }

  for (const MetricsSnapshot::HistogramRow& h : snapshot.histograms) {
    const std::string name = OpenMetricsName(h.name);
    out += "# TYPE " + name + " histogram\n";
    constexpr std::string_view kSeconds = "_seconds";
    if (name.size() > kSeconds.size() &&
        name.compare(name.size() - kSeconds.size(), kSeconds.size(),
                     kSeconds) == 0) {
      out += "# UNIT " + name + " seconds\n";
    }

    // Exemplars: the retained slowest queries, each attached to the
    // bucket its latency cumulates into — one per bucket, slowest first,
    // so the tail buckets point at resolvable flight-recorder entries.
    std::map<size_t, const FlightRecord*> exemplars;
    std::vector<FlightRecord> top;
    if (options.exemplars != nullptr && h.name == "query.seconds") {
      top = options.exemplars->TopSlowest();
      for (const FlightRecord& r : top) {
        const size_t b = LatencyHistogram::BucketIndex(r.latency_seconds);
        // A latency clamped into the overflow bucket exceeds that
        // bucket's le bound; OpenMetrics requires a bucket exemplar's
        // value to lie within the bucket, so skip it.
        if (r.latency_seconds > LatencyBucketUpperSeconds(b)) continue;
        exemplars.emplace(b, &r);
      }
    }

    // The exposition derives count from the bucket sum (not the racy
    // separately-recorded count atomic) so +Inf == _count holds in every
    // scrape, mid-recording included.
    uint64_t cumulative = 0;
    for (size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
      cumulative += h.buckets[b];
      std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"%s\"} %llu",
                    name.c_str(),
                    FormatLe(LatencyBucketUpperSeconds(b)).c_str(),
                    static_cast<unsigned long long>(cumulative));
      out += buf;
      const auto ex = exemplars.find(b);
      if (ex != exemplars.end()) {
        std::snprintf(buf, sizeof(buf), " # {entry_id=\"%llu\"} %.9g",
                      static_cast<unsigned long long>(ex->second->id),
                      ex->second->latency_seconds);
        out += buf;
      }
      out += "\n";
    }
    std::snprintf(buf, sizeof(buf),
                  "%s_bucket{le=\"+Inf\"} %llu\n%s_count %llu\n"
                  "%s_sum %.9f\n",
                  name.c_str(), static_cast<unsigned long long>(cumulative),
                  name.c_str(), static_cast<unsigned long long>(cumulative),
                  name.c_str(), h.total_seconds);
    out += buf;
  }

  out += "# EOF\n";
  return out;
}

namespace {

/// Line-by-line OpenMetrics checker. Tracks per-family TYPE metadata and
/// the histogram bucket series so it can enforce the two structural
/// invariants the exposition promises: cumulative non-decreasing buckets
/// with strictly increasing `le`, and +Inf == _count.
class OmChecker {
 public:
  explicit OmChecker(std::string* error) : error_(error) {}

  bool Check(std::string_view text) {
    if (text.empty()) return Fail("empty exposition");
    size_t pos = 0;
    bool saw_eof = false;
    while (pos < text.size()) {
      size_t end = text.find('\n', pos);
      if (end == std::string_view::npos) {
        return Fail("missing final newline");
      }
      const std::string_view line = text.substr(pos, end - pos);
      pos = end + 1;
      ++line_;
      if (saw_eof) return Fail("content after # EOF");
      if (line == "# EOF") {
        saw_eof = true;
        continue;
      }
      if (line.empty()) return Fail("blank line");
      if (line[0] == '#') {
        if (!CheckMetadata(line)) return false;
      } else {
        if (!CheckSample(line)) return false;
      }
    }
    if (!saw_eof) return Fail("missing # EOF terminator");
    return Finish();
  }

 private:
  struct HistogramState {
    bool has_bucket = false;
    double last_le = -1.0;
    uint64_t last_cumulative = 0;
    bool saw_inf = false;
    uint64_t inf_value = 0;
    bool saw_count = false;
    uint64_t count_value = 0;
  };

  bool Fail(const std::string& message) {
    if (error_ != nullptr) {
      *error_ = "line " + std::to_string(line_) + ": " + message;
    }
    return false;
  }

  static bool ValidName(std::string_view name) {
    if (name.empty() || !NameStartChar(name[0])) return false;
    for (const char c : name) {
      if (!NameChar(c)) return false;
    }
    return true;
  }

  bool CheckMetadata(std::string_view line) {
    // "# TYPE <name> <type>" | "# HELP <name> <text>" | "# UNIT <name> <u>"
    if (line.size() < 3 || line[1] != ' ') return Fail("malformed comment");
    const std::string_view rest = line.substr(2);
    const size_t kw_end = rest.find(' ');
    if (kw_end == std::string_view::npos) return Fail("malformed metadata");
    const std::string_view keyword = rest.substr(0, kw_end);
    if (keyword != "TYPE" && keyword != "HELP" && keyword != "UNIT") {
      return Fail("unknown metadata keyword");
    }
    const std::string_view tail = rest.substr(kw_end + 1);
    const size_t name_end = tail.find(' ');
    const std::string_view name =
        name_end == std::string_view::npos ? tail : tail.substr(0, name_end);
    if (!ValidName(name)) return Fail("bad metric family name");
    if (keyword == "TYPE") {
      if (name_end == std::string_view::npos) return Fail("TYPE missing type");
      const std::string_view type = tail.substr(name_end + 1);
      static constexpr std::string_view kTypes[] = {
          "counter",   "gauge",    "histogram", "gaugehistogram",
          "summary",   "info",     "stateset",  "unknown"};
      bool known = false;
      for (const std::string_view t : kTypes) known = known || type == t;
      if (!known) return Fail("unknown TYPE");
      if (!types_.emplace(std::string(name), std::string(type)).second) {
        return Fail("duplicate TYPE for family");
      }
    }
    return true;
  }

  /// Parses one `name="value"` label pair list in braces; advances *pos
  /// past the closing brace. Stores le when present.
  bool ParseLabels(std::string_view line, size_t* pos, std::string* le,
                   bool* has_le) {
    ++*pos;  // '{'
    if (*pos < line.size() && line[*pos] == '}') {
      ++*pos;
      return true;
    }
    for (;;) {
      size_t p = *pos;
      const size_t name_start = p;
      while (p < line.size() && NameChar(line[p]) && line[p] != ':') ++p;
      const std::string_view label_name =
          line.substr(name_start, p - name_start);
      if (label_name.empty() ||
          std::isdigit(static_cast<unsigned char>(label_name[0]))) {
        return Fail("bad label name");
      }
      if (p >= line.size() || line[p] != '=') return Fail("label missing =");
      ++p;
      if (p >= line.size() || line[p] != '"') return Fail("label missing \"");
      ++p;
      std::string value;
      while (p < line.size() && line[p] != '"') {
        if (line[p] == '\\') {
          ++p;
          if (p >= line.size()) return Fail("dangling escape");
          if (line[p] != '\\' && line[p] != '"' && line[p] != 'n') {
            return Fail("bad escape in label value");
          }
          value += line[p] == 'n' ? '\n' : line[p];
        } else if (line[p] == '\n') {
          return Fail("raw newline in label value");
        } else {
          value += line[p];
        }
        ++p;
      }
      if (p >= line.size()) return Fail("unterminated label value");
      ++p;  // closing quote
      if (label_name == "le") {
        *le = value;
        *has_le = true;
      }
      if (p < line.size() && line[p] == ',') {
        *pos = p + 1;
        continue;
      }
      if (p < line.size() && line[p] == '}') {
        *pos = p + 1;
        return true;
      }
      return Fail("expected , or } in label set");
    }
  }

  static bool ParseNumber(std::string_view token, double* value) {
    if (token.empty()) return false;
    if (token == "+Inf") {
      *value = std::numeric_limits<double>::infinity();
      return true;
    }
    const std::string copy(token);
    char* end = nullptr;
    *value = std::strtod(copy.c_str(), &end);
    return end != nullptr && *end == '\0' && end != copy.c_str();
  }

  bool CheckSample(std::string_view line) {
    size_t pos = 0;
    while (pos < line.size() && NameChar(line[pos])) ++pos;
    const std::string name(line.substr(0, pos));
    if (!ValidName(name)) return Fail("bad sample metric name");

    std::string le;
    bool has_le = false;
    if (pos < line.size() && line[pos] == '{') {
      if (!ParseLabels(line, &pos, &le, &has_le)) return false;
    }
    if (pos >= line.size() || line[pos] != ' ') {
      return Fail("sample missing value separator");
    }
    ++pos;

    // Value, then optionally a timestamp, then optionally an exemplar.
    std::string_view tail = line.substr(pos);
    const size_t exemplar_at = tail.find(" # ");
    std::string_view value_part =
        exemplar_at == std::string_view::npos ? tail
                                              : tail.substr(0, exemplar_at);
    double value = 0.0;
    const size_t ts_split = value_part.find(' ');
    if (ts_split != std::string_view::npos) {
      double timestamp = 0.0;
      if (!ParseNumber(value_part.substr(ts_split + 1), &timestamp)) {
        return Fail("bad timestamp");
      }
      value_part = value_part.substr(0, ts_split);
    }
    if (!ParseNumber(value_part, &value)) return Fail("bad sample value");
    if (exemplar_at != std::string_view::npos) {
      // A bucket sample's exemplar must lie within the bucket: its value
      // may not exceed the le bound. Samples without a parseable le
      // (counters, malformed le caught later) get an unbounded check.
      double le_bound = std::numeric_limits<double>::infinity();
      double le_value = 0.0;
      if (has_le && ParseNumber(le, &le_value)) le_bound = le_value;
      if (!CheckExemplar(tail.substr(exemplar_at + 3), le_bound)) {
        return false;
      }
    }

    return CheckFamilyRules(name, has_le, le, value);
  }

  bool CheckExemplar(std::string_view exemplar, double le_bound) {
    if (exemplar.empty() || exemplar[0] != '{') {
      return Fail("exemplar missing label set");
    }
    size_t pos = 0;
    std::string le;
    bool has_le = false;
    if (!ParseLabels(exemplar, &pos, &le, &has_le)) return false;
    if (pos >= exemplar.size() || exemplar[pos] != ' ') {
      return Fail("exemplar missing value");
    }
    std::string_view rest = exemplar.substr(pos + 1);
    const size_t split = rest.find(' ');
    double value = 0.0;
    if (split != std::string_view::npos) {
      double timestamp = 0.0;
      if (!ParseNumber(rest.substr(split + 1), &timestamp)) {
        return Fail("bad exemplar timestamp");
      }
      rest = rest.substr(0, split);
    }
    if (!ParseNumber(rest, &value)) return Fail("bad exemplar value");
    if (value > le_bound) return Fail("exemplar value exceeds bucket le");
    return true;
  }

  /// Applies the per-type structural rules once a sample parsed: counters
  /// must use the _total/_created suffixes, histogram buckets must be
  /// cumulative with increasing le, and the histogram state is accumulated
  /// for the end-of-document +Inf == _count check.
  bool CheckFamilyRules(const std::string& name, bool has_le,
                        const std::string& le, double value) {
    static constexpr std::string_view kSuffixes[] = {
        "_bucket", "_total", "_count", "_sum", "_created"};
    std::string family = name;
    std::string suffix;
    for (const std::string_view s : kSuffixes) {
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        const std::string stripped = name.substr(0, name.size() - s.size());
        if (types_.count(stripped) != 0) {
          family = stripped;
          suffix = s;
          break;
        }
      }
    }
    const auto type_it = types_.find(family);
    if (type_it == types_.end()) return true;  // untyped family: no rules
    const std::string& type = type_it->second;

    if (type == "counter") {
      if (suffix != "_total" && suffix != "_created") {
        return Fail("counter sample must end in _total or _created");
      }
      return true;
    }
    if (type != "histogram") return true;

    HistogramState& st = histograms_[family];
    if (suffix == "_bucket") {
      if (!has_le) return Fail("histogram bucket missing le label");
      double le_value = 0.0;
      if (!ParseNumber(le, &le_value)) return Fail("bad le value");
      if (st.has_bucket && le_value <= st.last_le) {
        return Fail("histogram le not increasing");
      }
      if (st.has_bucket &&
          value + 1e-9 < static_cast<double>(st.last_cumulative)) {
        return Fail("histogram buckets not cumulative");
      }
      st.has_bucket = true;
      st.last_le = le_value;
      st.last_cumulative = static_cast<uint64_t>(value);
      if (std::isinf(le_value)) {
        st.saw_inf = true;
        st.inf_value = static_cast<uint64_t>(value);
      }
      return true;
    }
    if (suffix == "_count") {
      st.saw_count = true;
      st.count_value = static_cast<uint64_t>(value);
      return true;
    }
    if (suffix == "_sum" || suffix == "_created") return true;
    return Fail("histogram sample needs _bucket/_count/_sum suffix");
  }

  bool Finish() {
    for (const auto& [family, st] : histograms_) {
      if (st.has_bucket && !st.saw_inf) {
        return Fail("histogram " + family + " missing +Inf bucket");
      }
      if (st.saw_inf && st.saw_count && st.inf_value != st.count_value) {
        return Fail("histogram " + family + " +Inf bucket != _count");
      }
    }
    return true;
  }

  std::string* error_;
  size_t line_ = 0;
  std::map<std::string, std::string> types_;
  std::map<std::string, HistogramState> histograms_;
};

}  // namespace

bool OpenMetricsIsValid(std::string_view text, std::string* error) {
  return OmChecker(error).Check(text);
}

}  // namespace edr
