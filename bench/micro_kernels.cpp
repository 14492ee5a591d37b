// Google-benchmark micro-benchmarks of the reference kernel library (real
// wall time on the host). These are not paper figures; they document the
// numeric substrate's performance and catch kernel regressions. Kernels that
// fan out over the shared thread pool use UseRealTime(): the default CPU
// time counts only the calling thread, not the workers doing the work.

#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "common/rng.hpp"
#include "models/model_zoo.hpp"
#include "rng_oracle.hpp"
#include "tensor/kernels.hpp"

namespace {

using duet::Rng;
using duet::Shape;
using duet::Tensor;

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn(Shape{n, n}, rng);
  const Tensor b = Tensor::randn(Shape{n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(duet::kernels::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

void BM_Conv2d(benchmark::State& state) {
  const int64_t size = state.range(0);
  Rng rng(2);
  const Tensor x = Tensor::randn(Shape{1, 16, size, size}, rng);
  const Tensor w = Tensor::randn(Shape{32, 16, 3, 3}, rng);
  const Tensor bias = Tensor::zeros(Shape{32});
  for (auto _ : state) {
    benchmark::DoNotOptimize(duet::kernels::conv2d(x, w, bias, 1, 1));
  }
}
BENCHMARK(BM_Conv2d)->Arg(16)->Arg(32)->Arg(64)->UseRealTime();

void BM_LstmCell(benchmark::State& state) {
  const int64_t hidden = state.range(0);
  Rng rng(3);
  const Tensor x = Tensor::randn(Shape{1, hidden}, rng);
  duet::kernels::LstmState s{Tensor::zeros(Shape{1, hidden}),
                             Tensor::zeros(Shape{1, hidden})};
  const Tensor w_ih = Tensor::randn(Shape{hidden, 4 * hidden}, rng, 0.05f);
  const Tensor w_hh = Tensor::randn(Shape{hidden, 4 * hidden}, rng, 0.05f);
  const Tensor bias = Tensor::zeros(Shape{4 * hidden});
  for (auto _ : state) {
    benchmark::DoNotOptimize(duet::kernels::lstm_cell(x, s, w_ih, w_hh, bias));
  }
}
BENCHMARK(BM_LstmCell)->Arg(64)->Arg(128)->Arg(256);

void BM_Conv2dDirect(benchmark::State& state) {
  const int64_t ch = state.range(0);
  Rng rng(6);
  const Tensor x = Tensor::randn(Shape{1, ch, 28, 28}, rng);
  const Tensor w = Tensor::randn(Shape{ch, ch, 3, 3}, rng);
  const Tensor bias = Tensor::zeros(Shape{ch});
  for (auto _ : state) {
    benchmark::DoNotOptimize(duet::kernels::conv2d_direct(x, w, bias, 1, 1));
  }
}
BENCHMARK(BM_Conv2dDirect)->Arg(8)->Arg(32)->UseRealTime();

void BM_Conv2dIm2col(benchmark::State& state) {
  const int64_t ch = state.range(0);
  Rng rng(6);
  const Tensor x = Tensor::randn(Shape{1, ch, 28, 28}, rng);
  const Tensor w = Tensor::randn(Shape{ch, ch, 3, 3}, rng);
  const Tensor bias = Tensor::zeros(Shape{ch});
  for (auto _ : state) {
    benchmark::DoNotOptimize(duet::kernels::conv2d_im2col(x, w, bias, 1, 1));
  }
}
BENCHMARK(BM_Conv2dIm2col)->Arg(8)->Arg(32)->UseRealTime();

void BM_Softmax(benchmark::State& state) {
  Rng rng(4);
  const Tensor x = Tensor::randn(Shape{64, state.range(0)}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(duet::kernels::softmax_lastdim(x));
  }
}
BENCHMARK(BM_Softmax)->Arg(128)->Arg(1024);

void BM_Attention(benchmark::State& state) {
  const int64_t model = 128;
  Rng rng(5);
  const Tensor x = Tensor::randn(Shape{1, state.range(0), model}, rng);
  const Tensor wqkv = Tensor::randn(Shape{model, 3 * model}, rng, 0.05f);
  const Tensor wo = Tensor::randn(Shape{model, model}, rng, 0.05f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(duet::kernels::multi_head_attention(x, wqkv, wo, 4));
  }
}
BENCHMARK(BM_Attention)->Arg(16)->Arg(64)->UseRealTime();

// --- weight generation ---------------------------------------------------------
// Each bulk sampler against the serial std code it reproduces bit for bit
// (tests/rng_oracle.hpp); s_per_float is the time per generated float. Then
// the build of each full-size zoo model, which drawing its weights dominates.

enum class Sampler { kFillNormal, kFillNormalOracle, kPerElement, kPerElementOracle };

void BM_WeightSampler(benchmark::State& state, Sampler sampler) {
  const auto n = static_cast<size_t>(state.range(0));
  std::vector<float> out(n);
  Rng rng(1);
  std::mt19937_64 engine(1);
  for (auto _ : state) {
    switch (sampler) {
      case Sampler::kFillNormal:
        rng.fill_normal(out.data(), n, 0.05f);
        break;
      case Sampler::kFillNormalOracle:
        duet::oracle::fill_normal(engine, out.data(), n, 0.05f);
        break;
      case Sampler::kPerElement:
        rng.fill_normal_per_element(out.data(), n, 0.05);
        break;
      case Sampler::kPerElementOracle:
        duet::oracle::fill_normal_per_element(engine, out.data(), n, 0.05);
        break;
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["s_per_float"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_WeightSampler, fill_normal, Sampler::kFillNormal)
    ->Arg(64)->Arg(4096)->Arg(1'000'000)->Arg(16'000'000);
BENCHMARK_CAPTURE(BM_WeightSampler, fill_normal_oracle, Sampler::kFillNormalOracle)
    ->Arg(64)->Arg(4096)->Arg(1'000'000)->Arg(16'000'000);
BENCHMARK_CAPTURE(BM_WeightSampler, per_element, Sampler::kPerElement)
    ->Arg(64)->Arg(4096)->Arg(1'000'000)->Arg(16'000'000);
BENCHMARK_CAPTURE(BM_WeightSampler, per_element_oracle, Sampler::kPerElementOracle)
    ->Arg(64)->Arg(4096)->Arg(1'000'000)->Arg(16'000'000);

// One full-size zoo model per argument, in zoo_model_names() order.
void BM_ZooBuild(benchmark::State& state) {
  const std::string& name =
      duet::models::zoo_model_names().at(static_cast<size_t>(state.range(0)));
  state.SetLabel(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(duet::models::build_by_name(name));
  }
}
BENCHMARK(BM_ZooBuild)
    ->DenseRange(0, 10)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
