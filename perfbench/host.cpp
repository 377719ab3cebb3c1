#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>

#include "json.h"
#include "util/simd.h"

namespace perfbench {

namespace {

Usage read_usage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  Usage u;
  u.user_s = seconds(ru.ru_utime);
  u.sys_s = seconds(ru.ru_stime);
  u.minor_faults = ru.ru_minflt;
  u.vol_ctx_switches = ru.ru_nvcsw;
  u.max_rss_kib = ru.ru_maxrss;
  return u;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

}  // namespace

Usage usage_self() { return read_usage(RUSAGE_SELF); }
Usage usage_children() { return read_usage(RUSAGE_CHILDREN); }

Usage usage_delta(const Usage& before, const Usage& after) {
  Usage d;
  d.user_s = after.user_s - before.user_s;
  d.sys_s = after.sys_s - before.sys_s;
  d.minor_faults = after.minor_faults - before.minor_faults;
  d.vol_ctx_switches = after.vol_ctx_switches - before.vol_ctx_switches;
  d.max_rss_kib = after.max_rss_kib;
  return d;
}

double peak_rss_mib_self() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes t;
  if (label != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(in >> value)) return CpuTimes{};
    t.total += value;
    if (field == 7) t.steal = value;
  }
  return t;
}

double steal_share(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double loadavg_1m() {
  std::ifstream in("/proc/loadavg");
  double load = -1.0;
  in >> load;
  return load;
}

double calibration_ms() {
  // A dependent multiply-add chain over a 64 KiB table: L1/L2-resident,
  // branch-free, about 20 ms on a current x86 core. `volatile` keeps the
  // result observable so the loop cannot be folded away.
  static float table[16384];
  for (std::size_t i = 0; i < 16384; ++i)
    table[i] = 1.0f + static_cast<float>(i % 97) * 1e-4f;
  const auto begin = std::chrono::steady_clock::now();
  float acc = 0.5f;
  std::uint32_t index = 1;
  for (int round = 0; round < 1'000'000; ++round) {
    for (int lane = 0; lane < 8; ++lane) {
      index = index * 1664525u + 1013904223u;
      acc = acc * 0.999f + table[index >> 18];
    }
  }
  volatile float sink = acc;
  (void)sink;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - begin)
      .count();
}

std::string host_fingerprint_json() {
  JsonObject o;
  o.str("cpu_model", cpu_model());
  o.num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  o.str("simd_isa", dgs::util::isa_name(dgs::util::active_isa()));
  o.str("compiler", __VERSION__);
  o.str("build_type", PERFBENCH_BUILD_TYPE);
  return o.text();
}

}  // namespace perfbench
