// Kernel-side counters taken from outside the library (getrusage) and the
// host/noise record printed beside every run. The record is diagnostic
// only: no metric is normalised by it.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// getrusage totals for one RUSAGE_SELF or RUSAGE_CHILDREN query.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t minor_faults = 0;
  std::int64_t vol_ctx_switches = 0;
  /// Largest peak RSS among the queried processes. Not used for SELF: a
  /// process started by fork+exec inherits its parent's pre-exec peak there
  /// (see peak_rss_mib_self).
  std::int64_t max_rss_kib = 0;

  [[nodiscard]] double cpu_s() const noexcept { return user_s + sys_s; }
};

[[nodiscard]] Usage usage_self();
/// Totals of every reaped descendant (forked workers).
[[nodiscard]] Usage usage_children();
/// after - before for the additive fields; max_rss_kib is taken from `after`.
[[nodiscard]] Usage usage_delta(const Usage& before, const Usage& after);

/// This process's own peak resident set (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mib_self();

/// Aggregate jiffies from /proc/stat's "cpu" line.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTimes cpu_times();
/// Steal jiffies over all jiffies between two samples (0 when unknown).
[[nodiscard]] double steal_share(const CpuTimes& before, const CpuTimes& after);

/// 1-minute load average (-1 when unreadable).
[[nodiscard]] double loadavg_1m();

/// Wall milliseconds of a fixed, benchmark-owned integer/float loop. Its
/// drift across runs of unchanged code is host drift, not a regression.
[[nodiscard]] double calibration_ms();

/// CPU model, core count, resolved SIMD ISA, compiler and build type as one
/// JSON object.
[[nodiscard]] std::string host_fingerprint_json();

}  // namespace perfbench
