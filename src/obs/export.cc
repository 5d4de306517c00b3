#include "obs/export.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <utility>
#include <vector>

namespace vaq {
namespace obs {
namespace {

// JSON string escaping (also valid for Prometheus label values, which use
// the same backslash conventions for the characters we emit).
std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string LabelBlock(const Labels& labels) {
  if (labels.empty()) return "";
  return std::string("{").append(CanonicalLabels(labels)).append("}");
}

std::string JsonLabels(const Labels& labels) {
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out.append("\"")
        .append(EscapeJson(labels[i].first))
        .append("\":\"")
        .append(EscapeJson(labels[i].second))
        .append("\"");
  }
  out += "}";
  return out;
}

// JSON number rendering: reuses FormatMetricValue but quotes non-finite
// values ("+Inf"/"-Inf"/"NaN"), which bare JSON numbers cannot express.
std::string JsonNumber(double v) {
  if (std::isinf(v) || std::isnan(v)) {
    return std::string("\"").append(FormatMetricValue(v)).append("\"");
  }
  return FormatMetricValue(v);
}

const char* KindName(Snapshot::Kind kind) {
  switch (kind) {
    case Snapshot::Kind::kCounter:
      return "counter";
    case Snapshot::Kind::kGauge:
      return "gauge";
    case Snapshot::Kind::kHistogram:
      return "histogram";
  }
  return "?";
}

}  // namespace

std::string FormatMetricValue(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::fabs(v) < 1e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string ExportPrometheus(const Snapshot& snapshot) {
  std::string out;
  std::string last_family;
  for (const Snapshot::Entry& e : snapshot.entries) {
    if (e.name != last_family) {
      out += "# TYPE " + e.name + " " + KindName(e.kind) + "\n";
      last_family = e.name;
    }
    switch (e.kind) {
      case Snapshot::Kind::kCounter:
        out += e.name + LabelBlock(e.labels) + " " +
               std::to_string(e.counter_value) + "\n";
        break;
      case Snapshot::Kind::kGauge:
        out += e.name + LabelBlock(e.labels) + " " +
               FormatMetricValue(e.gauge_value) + "\n";
        break;
      case Snapshot::Kind::kHistogram: {
        int64_t cumulative = 0;
        for (size_t i = 0; i <= e.bounds.size(); ++i) {
          cumulative += e.bucket_counts[i];
          const double bound = i < e.bounds.size()
                                   ? e.bounds[i]
                                   : std::numeric_limits<double>::infinity();
          Labels labels = e.labels;
          labels.emplace_back("le", FormatMetricValue(bound));
          out += e.name + "_bucket" + LabelBlock(labels) + " " +
                 std::to_string(cumulative) + "\n";
        }
        out += e.name + "_sum" + LabelBlock(e.labels) + " " +
               FormatMetricValue(e.hist_sum) + "\n";
        out += e.name + "_count" + LabelBlock(e.labels) + " " +
               std::to_string(e.hist_count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string ExportJson(const Snapshot& snapshot) {
  std::string out = "{\"metrics\":[";
  for (size_t i = 0; i < snapshot.entries.size(); ++i) {
    const Snapshot::Entry& e = snapshot.entries[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"" + EscapeJson(e.name) + "\"";
    if (!e.labels.empty()) out += ",\"labels\":" + JsonLabels(e.labels);
    out += ",\"type\":\"" + std::string(KindName(e.kind)) + "\"";
    switch (e.kind) {
      case Snapshot::Kind::kCounter:
        out += ",\"value\":" + std::to_string(e.counter_value);
        break;
      case Snapshot::Kind::kGauge:
        out += ",\"value\":" + JsonNumber(e.gauge_value);
        break;
      case Snapshot::Kind::kHistogram: {
        out += ",\"buckets\":[";
        int64_t cumulative = 0;
        for (size_t b = 0; b <= e.bounds.size(); ++b) {
          if (b > 0) out += ",";
          cumulative += e.bucket_counts[b];
          out += "{\"le\":";
          out += b < e.bounds.size() ? JsonNumber(e.bounds[b]) : "\"+Inf\"";
          out += ",\"count\":" + std::to_string(cumulative) + "}";
        }
        out += "],\"count\":" + std::to_string(e.hist_count) +
               ",\"sum\":" + JsonNumber(e.hist_sum);
        break;
      }
    }
    out += "}";
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// JSON lint
// ---------------------------------------------------------------------------

namespace {

struct JsonCursor {
  const std::string& text;
  size_t pos = 0;
  std::string error;

  bool Fail(const std::string& message) {
    if (error.empty()) {
      error = message + " at offset " + std::to_string(pos);
    }
    return false;
  }
  void SkipSpace() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(
                                    text[pos]))) {
      ++pos;
    }
  }
  bool Consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
};

bool LintValue(JsonCursor* c, int depth);

bool LintString(JsonCursor* c) {
  if (!c->Consume('"')) return c->Fail("expected '\"'");
  while (c->pos < c->text.size()) {
    const char ch = c->text[c->pos];
    if (ch == '"') {
      ++c->pos;
      return true;
    }
    if (ch == '\\') {
      ++c->pos;
      if (c->pos >= c->text.size()) break;
      const char esc = c->text[c->pos];
      if (esc == 'u') {
        for (int i = 0; i < 4; ++i) {
          ++c->pos;
          if (c->pos >= c->text.size() ||
              !std::isxdigit(static_cast<unsigned char>(c->text[c->pos]))) {
            return c->Fail("bad \\u escape");
          }
        }
      } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
        return c->Fail("bad escape");
      }
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      return c->Fail("raw control character in string");
    }
    ++c->pos;
  }
  return c->Fail("unterminated string");
}

bool LintNumber(JsonCursor* c) {
  const size_t start = c->pos;
  c->Consume('-');
  while (c->pos < c->text.size() &&
         std::isdigit(static_cast<unsigned char>(c->text[c->pos]))) {
    ++c->pos;
  }
  if (c->Consume('.')) {
    while (c->pos < c->text.size() &&
           std::isdigit(static_cast<unsigned char>(c->text[c->pos]))) {
      ++c->pos;
    }
  }
  if (c->pos < c->text.size() &&
      (c->text[c->pos] == 'e' || c->text[c->pos] == 'E')) {
    ++c->pos;
    if (c->pos < c->text.size() &&
        (c->text[c->pos] == '+' || c->text[c->pos] == '-')) {
      ++c->pos;
    }
    while (c->pos < c->text.size() &&
           std::isdigit(static_cast<unsigned char>(c->text[c->pos]))) {
      ++c->pos;
    }
  }
  if (c->pos == start || (c->pos == start + 1 && c->text[start] == '-')) {
    return c->Fail("expected number");
  }
  return true;
}

bool LintLiteral(JsonCursor* c, const char* word) {
  for (const char* p = word; *p != '\0'; ++p) {
    if (!c->Consume(*p)) return c->Fail("bad literal");
  }
  return true;
}

bool LintValue(JsonCursor* c, int depth) {
  if (depth > 64) return c->Fail("nesting too deep");
  c->SkipSpace();
  if (c->pos >= c->text.size()) return c->Fail("unexpected end of input");
  const char ch = c->text[c->pos];
  if (ch == '{') {
    ++c->pos;
    c->SkipSpace();
    if (c->Consume('}')) return true;
    while (true) {
      c->SkipSpace();
      if (!LintString(c)) return false;
      c->SkipSpace();
      if (!c->Consume(':')) return c->Fail("expected ':'");
      if (!LintValue(c, depth + 1)) return false;
      c->SkipSpace();
      if (c->Consume(',')) continue;
      if (c->Consume('}')) return true;
      return c->Fail("expected ',' or '}'");
    }
  }
  if (ch == '[') {
    ++c->pos;
    c->SkipSpace();
    if (c->Consume(']')) return true;
    while (true) {
      if (!LintValue(c, depth + 1)) return false;
      c->SkipSpace();
      if (c->Consume(',')) continue;
      if (c->Consume(']')) return true;
      return c->Fail("expected ',' or ']'");
    }
  }
  if (ch == '"') return LintString(c);
  if (ch == 't') return LintLiteral(c, "true");
  if (ch == 'f') return LintLiteral(c, "false");
  if (ch == 'n') return LintLiteral(c, "null");
  return LintNumber(c);
}

}  // namespace

std::string JsonLintError(const std::string& text) {
  JsonCursor cursor{text, 0, ""};
  if (!LintValue(&cursor, 0)) return cursor.error;
  cursor.SkipSpace();
  if (cursor.pos != text.size()) {
    return "trailing content at offset " + std::to_string(cursor.pos);
  }
  return "";
}

// ---------------------------------------------------------------------------
// Prometheus text lint
// ---------------------------------------------------------------------------

namespace {

bool IsMetricNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}
bool IsMetricNameChar(char c) {
  return IsMetricNameStart(c) || std::isdigit(static_cast<unsigned char>(c));
}
bool IsLabelNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsLabelNameChar(char c) {
  return IsLabelNameStart(c) || std::isdigit(static_cast<unsigned char>(c));
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || !IsMetricNameStart(name[0])) return false;
  for (const char c : name) {
    if (!IsMetricNameChar(c)) return false;
  }
  return true;
}

bool ParsePromValue(const std::string& text, double* value) {
  if (text == "+Inf") {
    *value = std::numeric_limits<double>::infinity();
    return true;
  }
  if (text == "-Inf") {
    *value = -std::numeric_limits<double>::infinity();
    return true;
  }
  if (text == "NaN") {
    *value = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  if (text.empty()) return false;
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

// Parses `{k="v",...}` starting at `pos` (which must point at '{').
// Leaves `pos` one past the closing '}'. Returns false with `error` set
// on malformed input; fills sorted (name, value) pairs.
bool ParseLabelBlock(const std::string& line, size_t* pos,
                     std::vector<std::pair<std::string, std::string>>* labels,
                     std::string* error) {
  ++*pos;  // '{'
  while (*pos < line.size() && line[*pos] != '}') {
    size_t start = *pos;
    if (!IsLabelNameStart(line[*pos])) {
      *error = "bad label name";
      return false;
    }
    while (*pos < line.size() && IsLabelNameChar(line[*pos])) ++*pos;
    const std::string name = line.substr(start, *pos - start);
    if (*pos >= line.size() || line[*pos] != '=') {
      *error = "expected '=' after label name";
      return false;
    }
    ++*pos;
    if (*pos >= line.size() || line[*pos] != '"') {
      *error = "label value must be quoted";
      return false;
    }
    ++*pos;
    std::string value;
    while (*pos < line.size() && line[*pos] != '"') {
      if (line[*pos] == '\\') {
        ++*pos;
        if (*pos >= line.size() ||
            (line[*pos] != '\\' && line[*pos] != '"' && line[*pos] != 'n')) {
          *error = "bad escape in label value";
          return false;
        }
      }
      value += line[*pos];
      ++*pos;
    }
    if (*pos >= line.size()) {
      *error = "unterminated label value";
      return false;
    }
    ++*pos;  // '"'
    labels->emplace_back(name, value);
    if (*pos < line.size() && line[*pos] == ',') ++*pos;
  }
  if (*pos >= line.size()) {
    *error = "unterminated label block";
    return false;
  }
  ++*pos;  // '}'
  return true;
}

// Per-histogram-series state, keyed by (family, labels-without-le).
struct HistogramSeries {
  double last_cumulative = -1.0;
  bool saw_inf = false;
  double inf_cumulative = 0.0;
};

}  // namespace

std::string PromLintError(const std::string& text) {
  std::map<std::string, std::string> family_kind;  // name -> kind.
  std::map<std::string, HistogramSeries> histograms;
  int line_no = 0;
  size_t pos = 0;
  std::string pending_error;
  const auto fail = [&](const std::string& message) {
    return "line " + std::to_string(line_no) + ": " + message;
  };
  while (pos < text.size()) {
    ++line_no;
    const size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) return fail("missing trailing newline");
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) return fail("empty line");
    if (line[0] == '#') {
      // Only `# TYPE <name> <kind>` comments are emitted; `# HELP` is
      // tolerated for future-proofing, anything else is an error.
      if (line.rfind("# HELP ", 0) == 0) continue;
      if (line.rfind("# TYPE ", 0) != 0) return fail("unknown comment form");
      const std::string rest = line.substr(7);
      const size_t space = rest.find(' ');
      if (space == std::string::npos) return fail("malformed TYPE line");
      const std::string name = rest.substr(0, space);
      const std::string kind = rest.substr(space + 1);
      if (!ValidMetricName(name)) return fail("bad metric name in TYPE");
      if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
          kind != "summary" && kind != "untyped") {
        return fail("unknown metric kind '" + kind + "'");
      }
      if (family_kind.count(name) != 0) {
        return fail("family '" + name + "' declared twice");
      }
      family_kind[name] = kind;
      continue;
    }
    // Sample line: name[{labels}] value
    size_t cursor = 0;
    if (!IsMetricNameStart(line[0])) return fail("bad sample name");
    while (cursor < line.size() && IsMetricNameChar(line[cursor])) ++cursor;
    const std::string name = line.substr(0, cursor);
    std::vector<std::pair<std::string, std::string>> labels;
    if (cursor < line.size() && line[cursor] == '{') {
      if (!ParseLabelBlock(line, &cursor, &labels, &pending_error)) {
        return fail(pending_error);
      }
    }
    if (cursor >= line.size() || line[cursor] != ' ') {
      return fail("expected ' ' before sample value");
    }
    ++cursor;
    double value = 0.0;
    if (!ParsePromValue(line.substr(cursor), &value)) {
      return fail("unparsable sample value '" + line.substr(cursor) + "'");
    }
    // Resolve the family: exact for counters/gauges, suffixed for
    // histograms. A `_bucket`/`_sum`/`_count` suffix binds to a declared
    // histogram family first, so a counter literally named *_count can
    // still coexist with an unrelated histogram.
    std::string family = name;
    std::string suffix;
    for (const char* candidate : {"_bucket", "_sum", "_count"}) {
      const std::string s(candidate);
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        const std::string base = name.substr(0, name.size() - s.size());
        auto it = family_kind.find(base);
        if (it != family_kind.end() && it->second == "histogram") {
          family = base;
          suffix = s;
          break;
        }
      }
    }
    auto declared = family_kind.find(family);
    if (declared == family_kind.end()) {
      return fail("sample '" + name + "' has no TYPE declaration");
    }
    if (declared->second == "histogram") {
      if (suffix.empty()) {
        return fail("histogram family '" + family +
                    "' sampled without _bucket/_sum/_count");
      }
      // Series key: family + labels minus `le`, in appearance order
      // (the exporter emits labels canonically sorted).
      std::string key = family;
      std::string le_value;
      bool saw_le = false;
      for (const auto& [label_name, label_value] : labels) {
        if (label_name == "le") {
          le_value = label_value;
          saw_le = true;
          continue;
        }
        key += "|" + label_name + "=" + label_value;
      }
      HistogramSeries& series = histograms[key];
      if (suffix == "_bucket") {
        if (!saw_le) return fail("_bucket sample without an le label");
        if (series.saw_inf) {
          return fail("bucket after le=\"+Inf\" in histogram '" + family +
                      "'");
        }
        if (value < series.last_cumulative) {
          return fail("non-cumulative bucket counts in histogram '" +
                      family + "'");
        }
        series.last_cumulative = value;
        if (le_value == "+Inf") {
          series.saw_inf = true;
          series.inf_cumulative = value;
        }
      } else if (suffix == "_count") {
        if (!series.saw_inf) {
          return fail("histogram '" + family +
                      "' has _count before an le=\"+Inf\" bucket");
        }
        if (value != series.inf_cumulative) {
          return fail("histogram '" + family +
                      "' _count disagrees with the +Inf bucket");
        }
      }
    } else if (!suffix.empty()) {
      return fail("suffix sample for non-histogram family '" + family + "'");
    }
  }
  for (const auto& [key, series] : histograms) {
    if (!series.saw_inf) {
      return "histogram series '" + key + "' never reached le=\"+Inf\"";
    }
  }
  return "";
}

}  // namespace obs
}  // namespace vaq
