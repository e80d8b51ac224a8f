// SpeedLLM -- Experiment E2: Fig. 2(b), effective energy.
//
// Reproduces the paper's energy-efficiency comparison (tokens per joule,
// normalized): SpeedLLM vs the non-parallel ("none parallel tech. one")
// and non-fused ("none fused one") variants and the unoptimized baseline.
// Paper: 1.18x better than unoptimized, 1.01x better than no-fuse.
// `--json PATH` writes both ratios for the CI gate (ci/perf_floor.json,
// bench "fig2b_energy").
#include <cstdio>
#include <map>

#include "bench_util.hpp"

using namespace speedllm;

int main(int argc, char** argv) {
  auto cl_or = CommandLine::Parse(
      argc, argv, {"preset", "decode", "prefill", "csv", "json"});
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

  std::printf(
      "== Fig 2(b): effective energy (model %s, prefill %d, decode %d) ==\n",
      config.ToString().c_str(), prefill, decode);
  llama::Weights weights =
      llama::GenerateSyntheticWeights(config, bench::kWeightSeed);

  std::map<runtime::Variant, runtime::InferenceMetrics> metrics;
  for (runtime::Variant v : runtime::PaperVariants()) {
    auto m = bench::RunVariant(weights, v, prefill, decode);
    if (!m.ok()) {
      std::fprintf(stderr, "%s: %s\n", runtime::VariantName(v).c_str(),
                   m.status().ToString().c_str());
      return 1;
    }
    metrics[v] = *m;
  }

  Table table({"variant", "tok_per_J", "normalized", "avg_power_W",
               "hbm_MB", "launches", "mJ_total"});
  const double base_eff =
      metrics[runtime::Variant::kUnoptimized].tokens_per_joule();
  for (runtime::Variant v : runtime::PaperVariants()) {
    const auto& m = metrics[v];
    table.AddRow();
    table.Cell(runtime::VariantName(v));
    table.Cell(m.tokens_per_joule(), 1);
    table.Cell(m.tokens_per_joule() / base_eff, 3);
    table.Cell(m.average_power_w(), 2);
    table.Cell(static_cast<double>(m.hbm_bytes) / 1e6, 2);
    table.Cell(static_cast<std::int64_t>(m.kernel_launches));
    table.Cell(m.total_joules() * 1e3, 2);
  }
  if (cl.GetBool("csv", false)) {
    std::fputs(table.ToCsv().c_str(), stdout);
  } else {
    table.Print();
  }

  const double ours = metrics[runtime::Variant::kSpeedLLM].tokens_per_joule();
  const double vs_unoptimized =
      ours / metrics[runtime::Variant::kUnoptimized].tokens_per_joule();
  const double vs_nofuse =
      ours / metrics[runtime::Variant::kNoFuse].tokens_per_joule();
  std::printf(
      "\nSpeedLLM vs Unoptimized: %.3fx  (paper: 1.18x)\n"
      "SpeedLLM vs NoFuse:      %.3fx  (paper: 1.01x)\n"
      "SpeedLLM vs NoPipeline:  %.3fx\n",
      vs_unoptimized, vs_nofuse,
      ours / metrics[runtime::Variant::kNoPipeline].tokens_per_joule());
  std::printf("\nenergy breakdown (SpeedLLM): %s\n",
              metrics[runtime::Variant::kSpeedLLM].energy.ToString().c_str());
  std::printf("energy breakdown (Unoptimized): %s\n",
              metrics[runtime::Variant::kUnoptimized].energy.ToString().c_str());
  std::printf("energy breakdown (NoFuse): %s\n",
              metrics[runtime::Variant::kNoFuse].energy.ToString().c_str());
  const std::string json = cl.GetString("json", "");
  if (!json.empty() &&
      !bench::WriteBenchJson(
          json, "fig2b_energy",
          {{"tokens_per_joule_vs_unoptimized", vs_unoptimized},
           {"tokens_per_joule_vs_nofuse", vs_nofuse}})) {
    return 1;
  }
  return 0;
}
