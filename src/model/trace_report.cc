#include "src/model/trace_report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

namespace monomodel {
namespace {

// A streaming reader for Chrome Trace Event JSON. It walks the document once
// and builds no tree: it keeps the event fields the report needs and checks
// every other value against the JSON grammar as it skips it (tests use it as
// a well-formedness check on the tracer's output).

// One traceEvents element. An absent or mistyped field keeps its default.
struct EventFields {
  std::string ph;
  std::string name;
  std::string cat;
  double pid = -1.0;
  double tid = -1.0;
  double ts = 0.0;
  double dur = 0.0;
  bool has_args = false;
  std::string arg_name;
  std::string arg_stage;
  std::string arg_detail;
  double arg_value = 0.0;
  // Bits of the kEventKeys / kArgKeys entries met: the first duplicate wins.
  unsigned seen = 0;
  unsigned args_seen = 0;
};

// A key the reader keeps, and the string or number field it fills.
struct FieldKey {
  std::string_view key;
  std::string EventFields::*text;
  double EventFields::*number;
};

constexpr FieldKey kEventKeys[] = {
    {"ph", &EventFields::ph, nullptr},   {"name", &EventFields::name, nullptr},
    {"cat", &EventFields::cat, nullptr}, {"pid", nullptr, &EventFields::pid},
    {"tid", nullptr, &EventFields::tid}, {"ts", nullptr, &EventFields::ts},
    {"dur", nullptr, &EventFields::dur},
};
constexpr FieldKey kArgKeys[] = {
    {"name", &EventFields::arg_name, nullptr},     {"stage", &EventFields::arg_stage, nullptr},
    {"detail", &EventFields::arg_detail, nullptr}, {"value", nullptr, &EventFields::arg_value},
};

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsNumberChar(char c) {
  return IsDigit(c) || c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+';
}

void AppendUtf8(std::string& out, unsigned code) {
  // A lead byte, then 6 payload bits per continuation byte.
  const int continuations = code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
  static constexpr unsigned kLeadBits[] = {0, 0xC0, 0xE0, 0xF0};
  out += static_cast<char>(kLeadBits[continuations] | (code >> (6 * continuations)));
  for (int shift = 6 * (continuations - 1); shift >= 0; shift -= 6) {
    out += static_cast<char>(0x80 | ((code >> shift) & 0x3F));
  }
}

class TraceReader {
 public:
  explicit TraceReader(std::string_view text) : text_(text) {}

  ParsedTrace Read() {
    // Only the first "traceEvents" member is read, and only if it is an array.
    auto top_member = [this](std::string_view key) {
      if (key != "traceEvents" || std::exchange(seen_events_, true) || Peek() != '[') {
        return SkipValue();
      }
      has_events_ = true;
      return ReadArray([this] { return ReadEvent(); });
    };
    SkipWhitespace();
    const bool is_object = Peek() == '{';
    bool ok = is_object ? ReadObject(top_member) : SkipValue();
    SkipWhitespace();
    if (ok && pos_ != text_.size()) {
      ok = Fail("trailing characters after the top-level value");
    }
    if (!ok || !is_object || !has_events_) {
      ParsedTrace failed;
      failed.errors.push_back(!ok          ? error_
                              : !is_object ? "top-level value is not an object"
                                           : "missing traceEvents array");
      return failed;
    }
    for (const auto& [track, stack] : open_) {
      if (!stack.empty()) {
        trace_.errors.push_back(std::to_string(stack.size()) + " unclosed 'B' span(s) on pid " +
                                std::to_string(track.first) + " tid " +
                                std::to_string(track.second) + " (innermost: \"" +
                                stack.back().name + "\")");
      }
    }
    return std::move(trace_);
  }

 private:
  bool Fail(const char* what) {
    error_ = "JSON parse error at byte " + std::to_string(pos_) + ": " + what;
    return false;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void SkipWhitespace() {
    while (Peek() == ' ' || Peek() == '\n' || Peek() == '\r' || Peek() == '\t') {
      ++pos_;
    }
  }

  bool Consume(char c) {
    const bool match = pos_ < text_.size() && text_[pos_] == c;
    pos_ += match ? 1 : 0;
    return match;
  }

  // Checks and skips one value of any kind.
  bool SkipValue() {
    std::string_view unused_string;
    double unused_number = 0.0;
    switch (Peek()) {
      case '{':
        return ReadObject([this](std::string_view) { return SkipValue(); });
      case '[':
        return ReadArray([this] { return SkipValue(); });
      case '"':
        return ReadString(&unused_string);
      case 't':
      case 'f':
      case 'n':
        for (std::string_view word : {"true", "false", "null"}) {
          if (text_.substr(pos_, word.size()) == word) {
            pos_ += word.size();
            return true;
          }
        }
        return Fail("invalid literal");
      default:
        return pos_ < text_.size() ? ReadNumber(&unused_number)
                                   : Fail("unexpected end of input");
    }
  }

  // Reads the object or array whose opening bracket is next, calling
  // on_item() to consume each element, or each member's key and value.
  template <typename OnItem>
  bool ReadList(char close, const char* missing_separator, OnItem&& on_item) {
    if (++depth_ > 256) {  // Deeper than any trace: refused, not recursed into.
      return Fail("nesting too deep");
    }
    ++pos_;
    SkipWhitespace();
    for (bool closed = Consume(close); !closed; SkipWhitespace()) {
      if (!on_item()) {
        return false;
      }
      SkipWhitespace();
      closed = Consume(close);
      if (!closed && !Consume(',')) {
        return Fail(missing_separator);
      }
    }
    --depth_;
    return true;
  }

  template <typename OnElement>
  bool ReadArray(OnElement&& on_element) {
    return ReadList(']', "expected ',' or ']' in array", on_element);
  }

  template <typename OnMember>
  bool ReadObject(OnMember&& on_member) {
    return ReadList('}', "expected ',' or '}' in object", [this, &on_member] {
      std::string_view key;
      if (!ReadString(&key)) {
        return false;
      }
      SkipWhitespace();
      if (!Consume(':')) {
        return Fail("expected ':' after object key");
      }
      SkipWhitespace();
      return on_member(key);
    });
  }

  // Reads a string into *out: a view of the input, or of its decoded copy in
  // unescaped_ if it has escapes (so valid until the next string is read).
  bool ReadString(std::string_view* out) {
    if (!Consume('"')) {
      return Fail("expected '\"'");
    }
    unescaped_.clear();        // Stays empty unless the string has escapes.
    std::size_t start = pos_;  // First byte not yet copied to unescaped_.
    for (char c = Peek(); c != '"'; c = Peek()) {
      const std::size_t needed = c == '\\' ? 2 : 1;  // An escape takes its letter too.
      if (text_.size() - pos_ < needed) {
        pos_ = text_.size();
        return Fail("unterminated string");
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      pos_ += needed;
      if (c != '\\') {
        continue;
      }
      unescaped_.append(text_.substr(start, pos_ - 2 - start));
      static constexpr std::string_view kEscape = "\"\\/bfnrt";
      static constexpr std::string_view kEscaped = "\"\\/\b\f\n\r\t";
      const std::size_t simple = kEscape.find(text_[pos_ - 1]);
      if (simple != std::string_view::npos) {
        unescaped_ += kEscaped[simple];
      } else if (text_[pos_ - 1] != 'u') {
        return Fail("invalid escape");
      } else if (!ReadUnicodeEscape()) {
        return false;
      }
      start = pos_;
    }
    const std::string_view tail = text_.substr(start, pos_++ - start);
    *out = unescaped_.empty() ? tail : std::string_view(unescaped_.append(tail));
    return true;
  }

  // Reads the hex digits after "\u" (and a low surrogate's "\uXXXX" after a
  // high one) and appends the code point as UTF-8.
  bool ReadUnicodeEscape() {
    auto hex4 = [this](unsigned* code) {
      if (text_.size() - pos_ < 4) {
        return Fail("truncated \\u escape");
      }
      const char* first = text_.data() + pos_;
      if (std::from_chars(first, first + 4, *code, 16).ptr != first + 4) {
        return Fail("invalid \\u escape");
      }
      pos_ += 4;
      return true;
    };
    unsigned code = 0;
    unsigned low = 0;
    if (!hex4(&code)) {
      return false;
    }
    if (code >= 0xD800 && code <= 0xDFFF) {
      const bool paired = code < 0xDC00 && text_.substr(pos_, 2) == "\\u";
      if (paired && !(pos_ += 2, hex4(&low))) {
        return false;
      }
      if (!paired || low < 0xDC00 || low > 0xDFFF) {
        return Fail("unpaired surrogate in \\u escape");
      }
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    AppendUtf8(unescaped_, code);
    return true;
  }

  // Reads a JSON number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. It
  // takes the whole run of number characters, so "1-2" is one bad number.
  bool ReadNumber(double* out) {
    const std::size_t start = pos_;
    while (IsNumberChar(Peek())) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected a value");
    }
    // from_chars checks the rest but allows ".5", "01" and "1.".
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const char* digits = first + (*first == '-' ? 1 : 0);
    const char* dot = std::find(first, last, '.');
    const bool integer_ok =
        digits != last && IsDigit(*digits) &&
        !(*digits == '0' && digits + 1 != last && IsDigit(digits[1]));
    const bool fraction_ok = dot == last || (dot + 1 != last && IsDigit(dot[1]));
    const std::from_chars_result result = std::from_chars(first, last, *out);
    if (!integer_ok || !fraction_ok || result.ec != std::errc() || result.ptr != last) {
      return Fail("invalid number");
    }
    return true;
  }

  // Reads the member `key` into its field of *e when `keys` lists it, this is
  // its first occurrence and the value has the field's type. Any other value
  // is checked and skipped.
  template <std::size_t N>
  bool ReadField(const FieldKey (&keys)[N], unsigned* seen, std::string_view key,
                 EventFields* e) {
    for (std::size_t i = 0; i < N; ++i) {
      if (keys[i].key != key || (*seen & (1u << i)) != 0) {
        continue;
      }
      *seen |= 1u << i;
      if (keys[i].text != nullptr && Peek() == '"') {
        std::string_view text;
        const bool ok = ReadString(&text);
        (e->*keys[i].text).assign(text);
        return ok;
      }
      if (keys[i].number != nullptr && IsNumberChar(Peek())) {
        return ReadNumber(&(e->*keys[i].number));
      }
      break;
    }
    return SkipValue();
  }

  bool ReadEvent() {
    if (Peek() != '{') {
      trace_.errors.push_back("traceEvents element is not an object");
      return SkipValue();
    }
    EventFields e;
    const bool ok = ReadObject([this, &e](std::string_view key) {
      if (key == "args" && !e.has_args) {
        e.has_args = true;
        if (Peek() == '{') {
          return ReadObject([this, &e](std::string_view arg) {
            return ReadField(kArgKeys, &e.args_seen, arg, &e);
          });
        }
      }
      return ReadField(kEventKeys, &e.seen, key, &e);
    });
    if (ok) {
      AddEvent(e);
    }
    return ok;
  }

  void AddEvent(EventFields& e) {
    // An id outside the int range reads as absent.
    auto id = [](double v) { return std::abs(v) < 2147483648.0 ? static_cast<int>(v) : -1; };
    const int pid = id(e.pid);
    const int tid = id(e.tid);
    if (e.ph == "M") {
      if (e.has_args && e.name == "process_name") {
        process_names_[pid] = std::move(e.arg_name);
      } else if (e.has_args && e.name == "thread_name") {
        track_names_[{pid, tid}] = std::move(e.arg_name);
      }
      return;
    }

    const double ts = e.ts / 1e6;  // micros -> seconds
    if (last_ts_ >= 0.0 && ts < last_ts_ - 1e-12) {
      trace_.timestamps_monotonic = false;
    }
    last_ts_ = std::max(last_ts_, ts);

    const std::string& process = NameOf(process_names_, pid);
    const std::string& track = NameOf(track_names_, {pid, tid});
    if (e.ph == "X") {
      trace_.spans.push_back(TraceSpan{process, track, std::move(e.name), std::move(e.cat),
                                       std::move(e.arg_stage), ts, ts + e.dur / 1e6});
    } else if (e.ph == "B") {
      // Process and track names resolve when the span closes.
      open_[{pid, tid}].push_back(TraceSpan{std::string(), std::string(), std::move(e.name),
                                            std::move(e.cat), std::move(e.arg_stage), ts, ts});
    } else if (e.ph == "E") {
      auto& stack = open_[{pid, tid}];
      if (stack.empty()) {
        trace_.errors.push_back("'E' with no open 'B' on pid " + std::to_string(pid) +
                                " tid " + std::to_string(tid));
        return;
      }
      TraceSpan span = std::move(stack.back());
      stack.pop_back();
      span.process = process;
      span.track = track;
      span.end = ts;
      trace_.spans.push_back(std::move(span));
    } else if (e.ph == "C") {
      trace_.counters.push_back(TraceCounterSample{process, std::move(e.name), ts, e.arg_value});
    } else if (e.ph == "i") {
      trace_.instants.push_back(
          TraceInstant{process, track, std::move(e.name), std::move(e.arg_detail), ts});
    } else {
      trace_.errors.push_back("unknown event phase '" + e.ph + "'");
    }
  }

  template <typename Key>
  static const std::string& NameOf(const std::map<Key, std::string>& names, const Key& key) {
    static const std::string kUnnamed;
    auto it = names.find(key);
    return it != names.end() ? it->second : kUnnamed;
  }

  const std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
  std::string unescaped_;  // Decoded text of the last string that had escapes.

  bool seen_events_ = false;
  bool has_events_ = false;
  ParsedTrace trace_;
  std::map<int, std::string> process_names_;
  std::map<std::pair<int, int>, std::string> track_names_;
  std::map<std::pair<int, int>, std::vector<TraceSpan>> open_;  // B/E stacks per track.
  double last_ts_ = -1.0;
};

// Time-weighted mean of a step-function counter over [start, end]. The counter
// holds 0 before its first sample and holds each sample's value until the next.
double StepMean(const std::vector<std::pair<double, double>>& samples, double start,
                double end) {
  if (end <= start) {
    return 0.0;
  }
  double weighted = 0.0;
  double prev_ts = start;
  double prev_value = 0.0;
  for (const auto& [ts, value] : samples) {
    if (ts <= start) {
      prev_value = value;
      continue;
    }
    if (ts >= end) {
      break;
    }
    weighted += prev_value * (ts - prev_ts);
    prev_ts = ts;
    prev_value = value;
  }
  weighted += prev_value * (end - prev_ts);
  return weighted / (end - start);
}

bool IsResourceCategory(const std::string& category) {
  return category == "cpu" || category == "disk" || category == "network" ||
         category == "cache";
}

}  // namespace
ParsedTrace ParseChromeTrace(const std::string& json) { return TraceReader(json).Read(); }

std::string StageTraceSummary::busiest() const {
  std::string best;
  double best_utilization = -1.0;
  for (const auto& [category, resource] : blame) {
    if (category != "cpu" && category != "disk" && category != "network") {
      continue;  // "cache" writes are memory copies, not a device bottleneck.
    }
    if (resource.utilization > best_utilization) {
      best = category;
      best_utilization = resource.utilization;
    }
  }
  return best;
}

TraceReport TraceReport::Build(const ParsedTrace& trace) {
  TraceReport report;

  // Stage windows: the driver's category-"stage" spans, keyed by their stage
  // label (which is also the label every resource span carries).
  for (const TraceSpan& span : trace.spans) {
    if (span.category != "stage" || span.stage.empty()) {
      continue;
    }
    StageTraceSummary summary;
    summary.label = span.stage;
    const auto colon = span.stage.find(':');
    summary.name = colon == std::string::npos ? span.stage : span.stage.substr(colon + 1);
    summary.start = span.start;
    summary.end = span.end;
    report.stages_.push_back(std::move(summary));
  }

  auto find_stage = [&report](const std::string& label) -> StageTraceSummary* {
    for (StageTraceSummary& stage : report.stages_) {
      if (stage.label == label) {
        return &stage;
      }
    }
    return nullptr;
  };

  // Resource blame: spans fold into their stage by label; lane counts come from
  // the distinct rows each category's spans occupied.
  std::map<std::pair<std::string, std::string>, std::set<std::string>> lanes_used;
  for (const TraceSpan& span : trace.spans) {
    if (!IsResourceCategory(span.category)) {
      continue;
    }
    if (span.stage.empty()) {
      report.untagged_busy_seconds_ += span.end - span.start;
      continue;
    }
    StageTraceSummary* stage = find_stage(span.stage);
    if (stage == nullptr) {
      continue;
    }
    ResourceBlame& blame = stage->blame[span.category];
    blame.busy_seconds += span.end - span.start;
    ++blame.span_count;
    lanes_used[{span.stage, span.category}].insert(span.process + "\t" + span.track);
  }
  for (StageTraceSummary& stage : report.stages_) {
    for (auto& [category, blame] : stage.blame) {
      blame.lanes = static_cast<int>(lanes_used[{stage.label, category}].size());
      const double capacity = blame.lanes * stage.duration();
      blame.utilization = capacity > 0.0 ? blame.busy_seconds / capacity : 0.0;
    }
  }

  // §3.1 queue-length contention signal: per-scheduler counter series emitted
  // by the monotasks executor, averaged over each stage's window and across
  // machines. (The Spark baseline has no per-resource queues to report.) Only
  // those series are grouped; NIC and device counters are never copied.
  std::map<std::pair<std::string, std::string>, std::vector<std::pair<double, double>>>
      queue_samples;
  for (const TraceCounterSample& sample : trace.counters) {
    const std::string& series = sample.series;
    if (sample.process.rfind("mono:m", 0) != 0 ||
        series.size() < 6 || series.compare(series.size() - 6, 6, "-queue") != 0) {
      continue;
    }
    queue_samples[{sample.process, series}].emplace_back(sample.ts, sample.value);
  }
  for (auto& [key, samples] : queue_samples) {
    std::sort(samples.begin(), samples.end());
  }
  for (StageTraceSummary& stage : report.stages_) {
    if (stage.label.rfind("mono:", 0) != 0) {
      continue;
    }
    std::map<std::string, std::pair<double, int>> sums;  // series -> (sum, machines)
    for (const auto& [key, samples] : queue_samples) {
      const std::string& series = key.second;
      auto& [sum, machines] = sums[series];
      sum += StepMean(samples, stage.start, stage.end);
      ++machines;
    }
    for (const auto& [series, sum_and_count] : sums) {
      stage.mean_queue[series] = sum_and_count.first / sum_and_count.second;
    }
  }

  for (const TraceInstant& instant : trace.instants) {
    if (instant.process == "audit") {
      report.audit_violations_.push_back(instant);
    }
  }
  return report;
}

const StageTraceSummary* TraceReport::FindStage(const std::string& label) const {
  for (const StageTraceSummary& stage : stages_) {
    if (stage.label == label) {
      return &stage;
    }
  }
  return nullptr;
}

std::vector<CrossCheckEntry> TraceReport::CrossCheckWithModel(
    const MonotasksModel& model) const {
  std::vector<CrossCheckEntry> entries;
  for (int i = 0; i < model.num_stages(); ++i) {
    const std::string& name = model.stage_input(i).name;
    for (const StageTraceSummary& stage : stages_) {
      if (stage.name != name || stage.blame.empty()) {
        continue;
      }
      CrossCheckEntry entry;
      entry.stage = stage.label;
      entry.trace_verdict = stage.busiest();
      entry.model_verdict = ResourceName(model.IdealTimes(i).bottleneck());
      entry.agree = entry.trace_verdict == entry.model_verdict;
      entries.push_back(std::move(entry));
    }
  }
  return entries;
}

std::string TraceReport::ToString() const {
  std::ostringstream out;
  out << "Trace bottleneck report\n";
  out << "=======================\n";
  for (const StageTraceSummary& stage : stages_) {
    out << "stage " << stage.label << "  [" << stage.start << "s .. " << stage.end
        << "s, " << stage.duration() << "s]\n";
    for (const auto& [category, blame] : stage.blame) {
      out << "  " << category << ": busy " << blame.busy_seconds << "s over "
          << blame.lanes << " lane(s), utilization "
          << static_cast<int>(100.0 * blame.utilization + 0.5) << "% ("
          << blame.span_count << " spans)\n";
    }
    for (const auto& [series, mean] : stage.mean_queue) {
      out << "  queue " << series << ": mean length " << mean << "\n";
    }
    const std::string verdict = stage.busiest();
    if (!verdict.empty()) {
      out << "  => busiest resource: " << verdict << "\n";
    }
  }
  if (untagged_busy_seconds_ > 0.0) {
    out << "unattributed busy time (no stage tag, e.g. OS writeback): "
        << untagged_busy_seconds_ << "s\n";
  }
  if (!audit_violations_.empty()) {
    out << audit_violations_.size() << " audit violation instant(s) in trace\n";
  }
  return out.str();
}

}  // namespace monomodel
