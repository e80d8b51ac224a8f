// SpeedLLM -- Experiment E1: Fig. 2(a), normalized latency.
//
// Reproduces the paper's latency comparison: total inference time of the
// four accelerator variants over a sweep of prompt lengths, normalized to
// the unoptimized accelerator. The paper reports a speedup of up to 4.8x
// for the full SpeedLLM configuration. `--json PATH` writes the max
// speedup for the CI gate (ci/perf_floor.json, bench "fig2a_latency").
#include <cstdio>
#include <map>

#include "bench_util.hpp"
#include "compiler/compiler.hpp"

using namespace speedllm;

int main(int argc, char** argv) {
  auto cl_or = CommandLine::Parse(
      argc, argv, {"preset", "decode", "prefills", "csv", "int8", "json"});
  if (!cl_or.ok()) {
    std::fprintf(stderr, "%s\n", cl_or.status().ToString().c_str());
    return 1;
  }
  const CommandLine& cl = cl_or.value();
  auto config = bench::PresetFromFlag(cl.GetString("preset", "stories15m"));
  const std::int32_t decode =
      static_cast<std::int32_t>(cl.GetInt("decode", 48));
  std::vector<std::int32_t> prefills = {8, 16, 32, 64};

  std::printf("== Fig 2(a): normalized latency (model %s, decode %d) ==\n",
              config.ToString().c_str(), decode);
  llama::Weights weights =
      llama::GenerateSyntheticWeights(config, bench::kWeightSeed);

  Table table({"prefill", "variant", "latency_ms", "normalized", "speedup"});
  double best_speedup = 0.0;
  for (std::int32_t prefill : prefills) {
    std::map<runtime::Variant, double> latency;
    for (runtime::Variant v : runtime::PaperVariants()) {
      auto m = bench::RunVariant(weights, v, prefill, decode);
      if (!m.ok()) {
        std::fprintf(stderr, "%s: %s\n", runtime::VariantName(v).c_str(),
                     m.status().ToString().c_str());
        return 1;
      }
      latency[v] = m->total_seconds();
    }
    const double base = latency[runtime::Variant::kUnoptimized];
    for (runtime::Variant v : runtime::PaperVariants()) {
      double speedup = base / latency[v];
      best_speedup = std::max(best_speedup, speedup);
      table.AddRow();
      table.Cell(std::to_string(prefill));
      table.Cell(runtime::VariantName(v));
      table.Cell(latency[v] * 1e3, 3);
      table.Cell(latency[v] / base, 3);
      table.Cell(speedup, 2);
    }
    // Optional extension row: the int8-weight datapath (not part of the
    // paper's Fig. 2 comparison set).
    if (cl.GetBool("int8", false)) {
      auto opt = compiler::CompilerOptions::SpeedLLM();
      opt.int8_weights = true;
      opt.name = "SpeedLLM-int8";
      auto dev = runtime::AcceleratorDevice::Create(
          weights, opt, hw::U280Config::Default());
      if (dev.ok()) {
        llama::SamplerConfig sc;
        sc.temperature = 0.0f;
        llama::Sampler sampler(sc);
        auto gen = dev->Generate(bench::MakePrompt(config, prefill), decode,
                                 sampler);
        if (gen.ok()) {
          double secs = gen->metrics.total_seconds();
          table.AddRow();
          table.Cell(std::to_string(prefill));
          table.Cell(std::string("SpeedLLM-int8"));
          table.Cell(secs * 1e3, 3);
          table.Cell(secs / base, 3);
          table.Cell(base / secs, 2);
        }
      }
    }
  }
  if (cl.GetBool("csv", false)) {
    std::fputs(table.ToCsv().c_str(), stdout);
  } else {
    table.Print();
  }
  std::printf("\nmax speedup over Unoptimized: %.2fx  (paper: up to 4.8x)\n",
              best_speedup);
  const std::string json = cl.GetString("json", "");
  if (!json.empty() &&
      !bench::WriteBenchJson(json, "fig2a_latency",
                             {{"max_speedup", best_speedup}})) {
    return 1;
  }
  return 0;
}
