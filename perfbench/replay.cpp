// The traced replay: a single-threaded push->reply loop over a workload's
// config and seed, with a span around every public call into a layer.
//
// Worker::compute_and_pack and Worker::apply_model_diff are opaque from
// outside the library, so each replica worker makes the same public calls
// they make, in the same order (batch fill, Module::forward, loss,
// Module::backward, the method's WorkerAlgorithm::step, the up-codec
// encode; payload decode and scatter/axpy on apply). The one difference is
// granularity: the algorithm runs one instance per parameter tensor, so
// selection is timed per tensor. Workers take turns (round-robin), the
// server is a real ParameterServer, and on process workloads every push
// and reply crosses a real UDS pair (comm::Socket*Transport).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/socket_transport.h"
#include "core/engine_context.h"
#include "core/optimizer.h"
#include "core/payload.h"
#include "host.h"
#include "json.h"
#include "nn/loss.h"
#include "perfbench.h"
#include "spans.h"
#include "sparse/codec.h"
#include "sparse/compressor.h"
#include "util/math_kernels.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace core = dgs::core;
namespace nn = dgs::nn;
namespace sparse = dgs::sparse;
namespace comm = dgs::comm;
using Scope = SpanRecorder::Scope;

/// Span name ids, interned once per recorder.
struct SpanNames {
  explicit SpanNames(SpanRecorder& r)
      : compute(r.intern("worker.compute")),
        forward(r.intern("nn.forward")),
        backward(r.intern("nn.backward")),
        select(r.intern("sparse.select")),
        dense_update(r.intern("worker.dense_update")),
        push_encode(r.intern("sparse.push_encode")),
        handle_push(r.intern("server.handle_push")),
        reply_decode(r.intern("sparse.reply_decode")),
        reply_encode(r.intern("sparse.reply_encode")),
        wire_push(r.intern("comm.push")),
        wire_reply(r.intern("comm.reply")),
        apply(r.intern("worker.apply")) {}
  int compute, forward, backward, select, dense_update, push_encode,
      handle_push, reply_decode, reply_encode, wire_push, wire_reply, apply;
};

/// Positional names of the six weight matrices of the 2-block res_mlp
/// (the tensors at or above min_sparsify_size, in parameter order).
constexpr const char* kTensorNames[] = {"input",      "block0.fc1",
                                        "block0.fc2", "block1.fc1",
                                        "block1.fc2", "head"};
constexpr std::size_t kWeightTensors = std::size(kTensorNames);

/// One replica worker: the state a core::Worker holds, driven through the
/// public layer calls.
class Replica {
 public:
  Replica(std::size_t id, const Inputs& in, const std::vector<float>& theta0)
      : id_(id),
        in_(in),
        model_(in.spec.build()),
        params_(model_->parameters()),
        sampler_(in.data.train->size(), id, in.config.num_workers,
                 in.config.batch_size, in.config.seed * 0x9E3779B9ULL + id + 1) {
    nn::param_scatter_values(theta0, params_);
    const auto sizes = nn::param_layer_sizes(params_);
    for (std::size_t j = 0; j < sizes.size(); ++j)
      algorithms_.push_back(core::make_worker_algorithm(
          in.config.method, {sizes[j]}, in.config,
          in.config.seed * 0x2545F491ULL + id * 31 + 17 + j));
    per_tensor_.resize(sizes.size());
    update_.layers.resize(sizes.size());
    features_.resize(in.config.batch_size * in.data.train->feature_dim());
    labels_.resize(in.config.batch_size);
  }

  [[nodiscard]] std::size_t num_tensors() const noexcept {
    return params_.size();
  }
  [[nodiscard]] const std::vector<nn::Parameter*>& params() const noexcept {
    return params_;
  }

  /// Mirrors Worker::compute_and_pack. `tensor_span[j]` is the span name of
  /// tensor j's algorithm step, or -1 for no per-tensor span.
  comm::Message compute(SpanRecorder& rec, const SpanNames& names,
                        const std::vector<int>& tensor_span, float lr,
                        std::size_t epoch) {
    Scope compute(rec, names.compute);
    nn::Tensor logits;
    {
      Scope s(rec, names.forward);
      (void)sampler_.next_batch(indices_);
      in_.data.train->fill_batch(indices_, features_.data(), labels_.data());
      nn::Tensor input =
          nn::Tensor::from(in_.spec.input_shape(indices_.size()), features_);
      nn::param_zero_grads(params_);
      logits = model_->forward(input, /*train=*/true);
    }
    double loss = 0.0;
    {
      Scope s(rec, names.backward);
      nn::LossResult result = nn::softmax_cross_entropy(logits, labels_);
      (void)model_->backward(result.grad);
      loss = result.loss;
    }
    {
      const bool sparsifies =
          algorithms_.front()->up_codec() != sparse::Codec::kDense;
      Scope s(rec, sparsifies ? names.select : names.dense_update);
      for (std::size_t j = 0; j < params_.size(); ++j) {
        Scope t(rec, sparsifies ? tensor_span[j] : -1);
        core::GradViews views{params_[j]->grad.flat()};
        per_tensor_[j] = algorithms_[j]->step(views, lr, epoch);
        // Lend the chunk to the whole-model update under its model index.
        std::swap(update_.layers[j], per_tensor_[j].layers.front());
        update_.layers[j].layer = static_cast<std::uint32_t>(j);
      }
    }
    comm::Message push;
    {
      Scope s(rec, names.push_encode);
      push.kind = comm::MessageKind::kGradientPush;
      push.worker_id = static_cast<std::int32_t>(id_);
      push.worker_step = step_;
      push.server_step = known_server_step_;
      push.seq = step_ + 1;
      push.loss = static_cast<float>(loss);
      push.density = static_cast<float>(update_.density());
      push.payload = sparse::compressor_for(algorithms_.front()->up_codec())
                         .encode(update_);
      for (std::size_t j = 0; j < params_.size(); ++j) {
        std::swap(update_.layers[j], per_tensor_[j].layers.front());
        algorithms_[j]->recycle(std::move(per_tensor_[j]));
      }
    }
    ++step_;
    return push;
  }

  /// Mirrors Worker::apply_model_diff: theta_k += G.
  void apply(const comm::Message& reply) {
    if (reply.kind != comm::MessageKind::kModelDiff)
      throw std::runtime_error("replay: expected a model diff");
    known_server_step_ = reply.server_step;
    if (sparse::is_sparse_payload(reply.payload)) {
      const sparse::SparseUpdate g = sparse::decode(reply.payload);
      for (const auto& chunk : g.layers)
        sparse::scatter_add(chunk, 1.0f, values(chunk.layer, chunk.dense_size));
      return;
    }
    for (const core::DecodedLayer& segment : core::decode_update(reply.payload)) {
      auto target = values(segment.layer(), segment.dense_size());
      if (segment.sparse)
        sparse::scatter_add(segment.chunk, 1.0f, target);
      else
        dgs::util::axpy(1.0f, {segment.dense.data(), segment.dense.size()},
                        target);
    }
  }

 private:
  std::span<float> values(std::uint32_t layer, std::uint32_t dense_size) {
    if (layer >= params_.size() ||
        params_[layer]->value.flat().size() != dense_size)
      throw std::runtime_error("replay: reply layer out of range");
    return params_[layer]->value.flat();
  }

  std::size_t id_;
  const Inputs& in_;
  nn::ModulePtr model_;
  std::vector<nn::Parameter*> params_;
  std::vector<std::unique_ptr<core::WorkerAlgorithm>> algorithms_;
  dgs::data::ShardSampler sampler_;
  std::vector<std::size_t> indices_;
  std::vector<float> features_;
  std::vector<std::int32_t> labels_;
  std::vector<sparse::SparseUpdate> per_tensor_;
  sparse::SparseUpdate update_;
  std::uint64_t step_ = 0;
  std::uint64_t known_server_step_ = 0;
};

/// The reply codec, read back from the payload's wire format.
sparse::Codec reply_codec(const sparse::Bytes& payload) {
  const char* format = sparse::payload_format_name(payload);
  const std::string name = format != nullptr ? format : "";
  if (name == "coo") return sparse::Codec::kCoo;
  if (name == "dense") return sparse::Codec::kDense;
  if (name == "qcoo" && payload.size() > 5)
    return payload[5] == 4 ? sparse::Codec::kQcoo4 : sparse::Codec::kQcoo8;
  if (name == "sbc") return sparse::Codec::kSbc;
  throw std::runtime_error("replay: unexpected reply format '" + name + "'");
}

/// Rebuild the update a reply payload encodes (dense segments as full
/// chunks of their nonzero entries), for re-encoding from outside.
void rebuild_update(const sparse::Bytes& payload, sparse::SparseUpdate& out) {
  const core::DecodedUpdate decoded = core::decode_update(payload);
  out.layers.resize(decoded.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    const core::DecodedLayer& segment = decoded[i];
    sparse::LayerChunk& chunk = out.layers[i];
    if (segment.sparse) {
      chunk = segment.chunk;
      continue;
    }
    chunk.layer = segment.layer();
    chunk.dense_size = segment.dense_size();
    chunk.idx.clear();
    chunk.val.clear();
    for (std::size_t e = 0; e < segment.dense.size(); ++e) {
      if (segment.dense[e] == 0.0f) continue;
      chunk.idx.push_back(static_cast<std::uint32_t>(e));
      chunk.val.push_back(segment.dense[e]);
    }
  }
}

/// The UDS pair a process workload's replay pushes through: one client per
/// replica worker, exactly as the engine connects them.
class Wire {
 public:
  Wire(const std::string& path, std::size_t workers)
      : server_(comm::SocketAddress::uds(path), workers) {
    server_.start();
    for (std::size_t k = 0; k < workers; ++k)
      clients_.push_back(std::make_unique<comm::SocketClientTransport>(
          server_.bound_address(), static_cast<std::int32_t>(k)));
  }
  ~Wire() { server_.shutdown(); }
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  comm::Message push(std::size_t k, const comm::Message& msg) {
    if (!clients_[k]->send_push(msg))
      throw std::runtime_error("replay: push send failed");
    std::optional<comm::Message> received = server_.receive_push();
    if (!received) throw std::runtime_error("replay: push lost on the wire");
    return std::move(*received);
  }

  comm::Message reply(std::size_t k, comm::Message msg) {
    if (!server_.send_reply(k, std::move(msg)))
      throw std::runtime_error("replay: reply send failed");
    comm::Message received;
    if (!clients_[k]->receive_reply(received))
      throw std::runtime_error("replay: reply lost on the wire");
    return received;
  }

  [[nodiscard]] comm::ByteCounter bytes() const { return server_.bytes(); }

 private:
  comm::SocketServerTransport server_;
  std::vector<std::unique_ptr<comm::SocketClientTransport>> clients_;
};

struct ReplayResult {
  double traced_us = 0.0;    ///< Wall time of the steps recorded with spans.
  double untraced_us = 0.0;  ///< Wall time of the other steps.
  std::uint64_t pushes = 0;
  double push_bytes = 0.0;  ///< Framed bytes, summed over pushes.
  double reply_bytes = 0.0;
  double accuracy = 0.0;
  std::vector<std::string> failures;
};

/// One full replay. Spans are recorded on alternate blocks of
/// `num_workers` steps (every worker once per block): the blocks whose
/// parity equals `traced_parity`.
ReplayResult replay_once(const Workload& workload, std::uint64_t seed,
                         const std::string& socket_path, SpanRecorder& rec,
                         std::uint64_t traced_parity) {
  const Inputs in = make_inputs(workload, seed, socket_path);
  const core::TrainConfig& config = in.config;
  core::EngineContext context("perfbench-replay", in.spec, in.data.train,
                              in.data.test, config);
  core::ParameterServer server = context.make_server();
  std::vector<std::unique_ptr<Replica>> replicas;
  for (std::size_t k = 0; k < config.num_workers; ++k)
    replicas.push_back(std::make_unique<Replica>(k, in, context.theta0()));

  const SpanNames names(rec);
  std::vector<int> tensor_span(replicas.front()->num_tensors(), -1);
  std::size_t weights = 0;
  for (std::size_t j = 0; j < tensor_span.size(); ++j) {
    if (replicas.front()->params()[j]->value.flat().size() <
        config.compression.min_sparsify_size)
      continue;
    if (weights == kWeightTensors)
      throw std::runtime_error("replay: more weight tensors than names");
    tensor_span[j] =
        rec.intern(std::string("sparse.select.") + kTensorNames[weights++]);
  }
  if (weights != kWeightTensors)
    throw std::runtime_error("replay: expected six weight tensors");

  std::optional<Wire> wire;
  if (workload.uds()) wire.emplace(socket_path, config.num_workers);

  ReplayResult result;
  const std::uint64_t total =
      static_cast<std::uint64_t>(config.epochs) * in.data.train->size() /
      config.batch_size;
  sparse::SparseUpdate rebuilt;
  sparse::Bytes reencoded;
  for (std::uint64_t t = 0; t < total; ++t) {
    const bool traced = (t / config.num_workers) % 2 == traced_parity;
    rec.set_enabled(traced);
    rec.set_step(static_cast<std::uint32_t>(t));
    const double step_start = SpanRecorder::now_us();
    const std::size_t k = t % config.num_workers;
    const std::size_t epoch = t * config.batch_size / in.data.train->size();
    Replica& replica = *replicas[k];
    comm::Message push = replica.compute(
        rec, names, tensor_span, static_cast<float>(config.lr_at_epoch(epoch)),
        epoch);
    result.push_bytes += static_cast<double>(push.wire_size());

    if (wire) {
      comm::Message received;
      {
        Scope s(rec, names.wire_push);
        received = wire->push(k, push);
      }
      if (received.payload != push.payload)
        result.failures.push_back("push frame differs after the wire");
      push = std::move(received);
    }

    comm::Message reply;
    bool duplicate = false;
    {
      Scope s(rec, names.handle_push);
      reply = server.handle_push(push, nullptr, &duplicate);
    }
    if (duplicate) result.failures.push_back("server saw a duplicate push");
    result.reply_bytes += static_cast<double>(reply.wire_size());

    const sparse::Codec codec = reply_codec(reply.payload);
    {
      Scope s(rec, names.reply_decode);
      rebuild_update(reply.payload, rebuilt);
    }
    {
      Scope s(rec, names.reply_encode);
      sparse::compressor_for(codec).encode_into(rebuilt, reencoded);
    }
    if (reencoded != reply.payload)
      result.failures.push_back("reply codec re-encode differs");

    if (wire) {
      Scope s(rec, names.wire_reply);
      reply = wire->reply(k, std::move(reply));
    }
    if (reply.payload != reencoded)
      result.failures.push_back("reply frame differs after the wire");

    {
      Scope s(rec, names.apply);
      replica.apply(reply);
    }
    ++result.pushes;
    (traced ? result.traced_us : result.untraced_us) +=
        SpanRecorder::now_us() - step_start;
  }
  rec.set_enabled(false);

  if (server.step() != result.pushes)
    result.failures.push_back("server steps disagree with replay pushes");
  if (wire) {
    const comm::ByteCounter bytes = wire->bytes();
    if (bytes.upward_messages != result.pushes ||
        bytes.downward_messages != result.pushes)
      result.failures.push_back("not one reply per push on the wire");
    if (static_cast<double>(bytes.upward_bytes) != result.push_bytes ||
        static_cast<double>(bytes.downward_bytes) != result.reply_bytes)
      result.failures.push_back("wire byte counts disagree with frame sizes");
  }
  result.accuracy =
      context.evaluator().evaluate(server.global_model_flat()).accuracy;
  if (!(result.accuracy >= kAccuracyFloor))
    result.failures.push_back("replay accuracy below the floor");
  // Keep only distinct failure reasons.
  std::sort(result.failures.begin(), result.failures.end());
  result.failures.erase(
      std::unique(result.failures.begin(), result.failures.end()),
      result.failures.end());
  return result;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void put_timing(JsonObject& metrics, const std::string& name,
                const std::vector<double>& samples) {
  metrics.num(name + ".p50", quantile(samples, 0.50))
      .num(name + ".p99", quantile(samples, 0.99))
      .num(name + ".count", static_cast<double>(samples.size()));
}

}  // namespace

int replay_run(const Workload& workload, std::uint64_t seed,
               const std::string& socket_path, const std::string& trace_path) {
  // Two replays of the same deterministic push sequence; each records spans
  // on the blocks of steps the other leaves untraced. Every step is thus
  // traced exactly once (full sample counts), and the traced and untraced
  // wall time of the same steps, interleaved in time, give the tracing
  // overhead without process warm-up or host drift landing on one side.
  SpanRecorder rec(false);
  std::vector<ReplayResult> runs;
  double traced_us = 0.0;
  double untraced_us = 0.0;
  for (std::uint64_t parity = 0; parity < 2; ++parity) {
    runs.push_back(replay_once(workload, seed, socket_path, rec, parity));
    traced_us += runs.back().traced_us;
    untraced_us += runs.back().untraced_us;
  }
  const ReplayResult& last = runs.back();

  const auto& spans = rec.spans();
  const std::vector<double> self = rec.self_times_us();
  const auto id_of = [&](const std::string& name) {
    const auto& all = rec.names();
    const auto it = std::find(all.begin(), all.end(), name);
    return it == all.end() ? -1 : static_cast<int>(it - all.begin());
  };
  const auto durations = [&](const std::string& name) {
    std::vector<double> out;
    const int id = id_of(name);
    for (const auto& s : spans)
      if (s.name == id) out.push_back(s.duration_us());
    return out;
  };
  const auto self_times = [&](const std::string& name) {
    std::vector<double> out;
    const int id = id_of(name);
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (spans[i].name == id) out.push_back(self[i]);
    return out;
  };

  JsonObject metrics;
  put_timing(metrics, "worker.compute_us", durations("worker.compute"));
  metrics.num("worker.compute_us.self_p50",
              quantile(self_times("worker.compute"), 0.5));
  put_timing(metrics, "nn.forward_us", durations("nn.forward"));
  put_timing(metrics, "nn.backward_us", durations("nn.backward"));
  put_timing(metrics, "sparse.select_us", durations("sparse.select"));
  const std::vector<double> select_self = self_times("sparse.select");
  metrics.num("sparse.select_us.self_p50", quantile(select_self, 0.5));
  for (const char* tensor : kTensorNames)
    put_timing(metrics, std::string("sparse.select_us.") + tensor,
               durations(std::string("sparse.select.") + tensor));
  put_timing(metrics, "sparse.push_encode_us", durations("sparse.push_encode"));
  put_timing(metrics, "server.handle_push_us", durations("server.handle_push"));
  put_timing(metrics, "sparse.reply_encode_us",
             durations("sparse.reply_encode"));
  put_timing(metrics, "worker.apply_us", durations("worker.apply"));

  // One push frame up plus one reply frame down per step.
  std::vector<double> roundtrip(last.pushes, 0.0);
  const int push_id = id_of("comm.push");
  const int reply_id = id_of("comm.reply");
  double top_level_us = 0.0;
  for (const auto& s : spans) {
    if (s.parent < 0) top_level_us += s.duration_us();
    if (s.name == push_id || s.name == reply_id)
      roundtrip[s.step] += s.duration_us();
  }
  if (!workload.uds()) roundtrip.clear();
  put_timing(metrics, "comm.roundtrip_us", roundtrip);

  const double pushes = last.pushes > 0 ? static_cast<double>(last.pushes) : 1.0;
  metrics.num("comm.push_bytes", last.push_bytes / pushes)
      .num("comm.reply_bytes", last.reply_bytes / pushes)
      .num("replay.attributed_share", top_level_us / traced_us)
      .num("trace.overhead_share", traced_us / untraced_us - 1.0);

  std::vector<std::string> failures;
  std::uint64_t pushes_attempted = 0;
  for (const ReplayResult& run : runs) {
    failures.insert(failures.end(), run.failures.begin(), run.failures.end());
    pushes_attempted += run.pushes;
    if (run.accuracy != last.accuracy)
      failures.push_back("replay is not deterministic across passes");
  }
  if (!rec.write_chrome_trace(trace_path))
    failures.push_back("cannot write the chrome trace");
  JsonObject out;
  out.str("kind", "replay")
      .num("pushes", static_cast<double>(pushes_attempted))
      .num("replay_accuracy", last.accuracy)
      .num("spans", static_cast<double>(spans.size()))
      .raw("failed_checks", json_array(failures))
      .raw("metrics", metrics.text());
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace perfbench
