// SpeedLLM -- Experiment E3: cost efficiency (Sec. 3.2.2).
//
// Reproduces the paper's tokens/s/$ argument: the U280 ($8,000) vs the
// V100S ($12,000) and A100 ($17,000). The FPGA throughput is measured on
// the simulated accelerator; the GPU numbers come from the analytic
// decode models in src/baseline (launch-overhead-bound for a model this
// small -- see docs/ARCHITECTURE.md "Substitutions").
#include <cstdio>

#include "baseline/gpu_model.hpp"
#include "bench_util.hpp"

using namespace speedllm;

int main(int argc, char** argv) {
  auto cl_or =
      CommandLine::Parse(argc, argv, {"preset", "decode", "prefill", "csv"});
  if (!cl_or.ok()) {
    std::fprintf(stderr, "%s\n", cl_or.status().ToString().c_str());
    return 1;
  }
  const CommandLine& cl = cl_or.value();
  auto config = bench::PresetFromFlag(cl.GetString("preset", "stories15m"));
  const std::int32_t prefill =
      static_cast<std::int32_t>(cl.GetInt("prefill", 16));
  const std::int32_t decode =
      static_cast<std::int32_t>(cl.GetInt("decode", 48));

  std::printf("== Sec 3.2.2: cost efficiency, tokens/s/$ (model %s) ==\n",
              config.ToString().c_str());
  llama::Weights weights =
      llama::GenerateSyntheticWeights(config, bench::kWeightSeed);

  auto fpga = bench::RunVariant(weights, runtime::Variant::kSpeedLLM, prefill,
                                decode);
  if (!fpga.ok()) {
    std::fprintf(stderr, "%s\n", fpga.status().ToString().c_str());
    return 1;
  }
  const double fpga_tps = fpga->decode_tokens_per_second();

  Table table({"platform", "price_usd", "tokens_per_s", "tok_per_s_per_$",
               "tok_per_s_per_$_norm"});
  struct Row {
    std::string name;
    double price;
    double tps;
  };
  std::vector<Row> rows;
  rows.push_back({"U280 (SpeedLLM)", baseline::kU280PriceUsd, fpga_tps});
  for (const auto& gpu : {baseline::GpuSpec::V100S(), baseline::GpuSpec::A100()}) {
    auto est = baseline::EstimateDecode(gpu, config);
    rows.push_back({gpu.name, gpu.price_usd, est.tokens_per_second});
  }
  const double u280_eff = fpga_tps / baseline::kU280PriceUsd;
  for (const auto& r : rows) {
    double eff = r.tps / r.price;
    table.AddRow();
    table.Cell(r.name);
    table.Cell(r.price, 0);
    table.Cell(r.tps, 1);
    table.Cell(eff, 4);
    table.Cell(eff / u280_eff, 3);
  }
  if (cl.GetBool("csv", false)) {
    std::fputs(table.ToCsv().c_str(), stdout);
  } else {
    table.Print();
  }
  bool wins = true;
  for (const auto& r : rows) {
    if (r.name != rows[0].name && r.tps / r.price > u280_eff) wins = false;
  }
  std::printf(
      "\nU280 best cost efficiency: %s  (paper: \"SpeedLLM on the U280 "
      "demonstrates superior average cost effectiveness\")\n",
      wins ? "yes" : "NO");
  return 0;
}
