// The benchmark's three workloads: one table-3 SynthCIFAR recipe, varied in
// method, model width, engine and reply codec (see README.md for why each
// was chosen). Everything here is built from the command-line seed only.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/config.h"
#include "core/session.h"
#include "data/synthetic.h"
#include "nn/model.h"

namespace perfbench {

/// A run whose final test accuracy falls below this fails its checks. All
/// three workloads reach 0.85-0.91 at their sample budgets.
inline constexpr double kAccuracyFloor = 0.8;

struct Workload {
  std::string name;
  dgs::core::Method method = dgs::core::Method::kDGS;
  // The UDS workloads' width: the widest res_mlp whose square weight
  // matrices stay below sparse::kRadixCutoff (the nth_element select path),
  // so that a push carries enough compute to dwarf the process wake-ups
  // around it.
  std::size_t width = 176;
  std::size_t workers = 2;
  std::size_t epochs = 6;
  dgs::core::EngineKind engine = dgs::core::EngineKind::kProcess;
  dgs::core::DownCompress down_compress = dgs::core::DownCompress::kAuto;

  [[nodiscard]] bool uds() const noexcept {
    return engine == dgs::core::EngineKind::kProcess;
  }
};

/// The named workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload find_workload(const std::string& name);

/// Everything a TrainingSession needs, derived from (workload, seed).
struct Inputs {
  dgs::data::SyntheticDataset data;
  dgs::nn::ModelSpec spec;
  dgs::core::TrainConfig config;
};

/// `socket_path` is the UDS rendezvous for process workloads (ignored on
/// the simulated engine).
[[nodiscard]] Inputs make_inputs(const Workload& workload, std::uint64_t seed,
                                 const std::string& socket_path);

}  // namespace perfbench
