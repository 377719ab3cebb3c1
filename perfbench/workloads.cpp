#include "workloads.h"

#include <stdexcept>

namespace perfbench {

using dgs::core::DownCompress;
using dgs::core::EngineKind;
using dgs::core::Method;

Workload find_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "dgs-uds") return w;
  if (name == "asgd-uds") {
    w.method = Method::kASGD;
    return w;
  }
  if (name == "dgs-q8-wide-sim") {
    w.width = 256;
    w.workers = 4;
    w.epochs = 3;
    w.engine = EngineKind::kSimulated;
    w.down_compress = DownCompress::kQ8;
    return w;
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (expected dgs-uds|asgd-uds|dgs-q8-wide-sim)");
}

Inputs make_inputs(const Workload& workload, std::uint64_t seed,
                   const std::string& socket_path) {
  // The table-3 SynthCIFAR recipe (bench/bench_common.cpp make_cifar_task),
  // restated here so the benchmark depends on the public API only.
  dgs::data::SyntheticSpec data_spec =
      dgs::data::SyntheticSpec::synth_cifar(seed);
  data_spec.latent_jitter = 1.15f;
  data_spec.feature_noise = 0.32f;

  Inputs in{dgs::data::make_synthetic(data_spec), {}, {}};
  in.spec = dgs::nn::ModelSpec::res_mlp(in.data.train->feature_dim(),
                                        workload.width, /*blocks=*/2,
                                        in.data.train->num_classes());
  in.spec.batch_norm = true;

  dgs::core::TrainConfig& c = in.config;
  c.method = workload.method;
  c.num_workers = workload.workers;
  c.epochs = workload.epochs;
  c.batch_size = 32;
  c.lr = 0.05;
  c.momentum = 0.7;
  c.lr_decay_at = {0.6, 0.8};
  c.lr_decay_factor = 0.1;
  c.compression.ratio_percent = 10.0;
  c.compression.min_sparsify_size = 512;
  c.compression.down_compress = workload.down_compress;
  c.network = dgs::comm::NetworkModel::ten_gbps();
  // Heterogeneous modeled compute (odd workers 2.5x slower, 30% jitter):
  // shapes staleness on the simulated engine, ignored by the process one.
  c.compute.base_seconds = 5e-3;
  c.compute.jitter_frac = 0.3;
  c.compute.worker_speed.assign(workload.workers, 1.0);
  for (std::size_t k = 1; k < workload.workers; k += 2)
    c.compute.worker_speed[k] = 2.5;
  c.seed = seed * 1000003ULL + 7;
  // Final evaluation only: a mid-run evaluation would stall the server.
  c.record_curve = false;
  if (workload.uds()) {
    c.transport = dgs::core::TransportKind::kUds;
    c.uds_path = socket_path;
  }
  return in;
}

}  // namespace perfbench
