// In-memory span recorder for the traced replay. A span is (name, parent,
// start, end, step); spans are kept in a vector while the replay runs and
// written out as Chrome-trace JSON only at the end. With recording off a
// Scope costs one branch, so the replay runs the same calls either way and
// the wall-time difference is the tracing overhead.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    int name = 0;     ///< Index into names().
    int parent = -1;  ///< Index of the enclosing span, -1 at top level.
    std::uint32_t step = 0;  ///< Replay push the span belongs to.
    double begin_us = 0.0;
    double end_us = 0.0;

    [[nodiscard]] double duration_us() const noexcept {
      return end_us - begin_us;
    }
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    spans_.reserve(1 << 16);
  }

  /// Interned id for a span name (stable for the recorder's lifetime).
  int intern(const std::string& name);

  /// Spans opened while disabled record nothing.
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  void set_step(std::uint32_t step) noexcept { step_ = step; }

  /// RAII span: opens on construction, closes at scope exit or stop().
  class Scope {
   public:
    /// A negative `name` records nothing.
    Scope(SpanRecorder& recorder, int name) : recorder_(recorder) {
      if (recorder_.enabled_ && name >= 0) index_ = recorder_.open(name);
    }
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void stop() {
      if (index_ >= 0) recorder_.close(index_);
      index_ = -1;
    }

   private:
    SpanRecorder& recorder_;
    int index_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }

  /// Per-span self time: duration minus the time its direct children cover
  /// (children never overlap one another: the replay is single-threaded).
  [[nodiscard]] std::vector<double> self_times_us() const;

  /// Chrome-trace JSON ("X" complete events, one thread); each event's args
  /// carry its own index, its parent's index and the replay step. Returns
  /// false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

  [[nodiscard]] static double now_us() noexcept {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  int open(int name);
  void close(int index);

  bool enabled_;
  std::uint32_t step_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< Stack of open span indices.
  std::vector<std::string> names_;
};

}  // namespace perfbench
