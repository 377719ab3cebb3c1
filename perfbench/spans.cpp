#include "spans.h"

#include <fstream>

#include "json.h"

namespace perfbench {

int SpanRecorder::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<int>(i);
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

int SpanRecorder::open(int name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.step = step_;
  span.begin_us = now_us();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_us = now_us();
  // Scopes nest lexically, so the closing span is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> SpanRecorder::self_times_us() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].duration_us();
  for (const Span& span : spans_)
    if (span.parent >= 0)
      self[static_cast<std::size_t>(span.parent)] -= span.duration_us();
  return self;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().begin_us;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonObject args;
    args.num("id", static_cast<double>(i));
    args.num("parent", s.parent);
    args.num("step", s.step);
    JsonObject event;
    event.str("name", names_[static_cast<std::size_t>(s.name)])
        .str("ph", "X")
        .num("pid", 1)
        .num("tid", 1)
        .num("ts", s.begin_us - origin)
        .num("dur", s.duration_us())
        .raw("args", args.text());
    out << event.text() << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
