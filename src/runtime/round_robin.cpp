#include "runtime/round_robin.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "accel/executor.hpp"

namespace speedllm::runtime {

using serving::RequestOutcome;
using serving::ServingReport;
using serving::ServingRequest;

namespace {

/// Per-sequence decode state of the round-robin loop.
struct Sequence {
  const ServingRequest* request = nullptr;
  std::size_t index = 0;
  std::unique_ptr<accel::Executor> exec;
  llama::Sampler sampler;
  std::int32_t pos = 0;
  std::size_t prompt_cursor = 0;
  std::int32_t pending_token = -1;
  std::vector<float> last_logits;
  RequestOutcome outcome;
  bool done = false;

  explicit Sequence(llama::Sampler s) : sampler(std::move(s)) {}

  bool Arrived(double now) const { return request->arrival_seconds <= now; }
};

}  // namespace

StatusOr<ServingReport> RunRoundRobinBaseline(
    const accel::Program& program, const llama::Weights& weights,
    const hw::U280Config& u280, std::span<const ServingRequest> requests,
    const llama::SamplerConfig& sampler_config) {
  ServingReport report;
  if (requests.empty()) return report;

  std::vector<Sequence> seqs;
  seqs.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& req = requests[i];
    if (req.prompt.empty()) {
      return InvalidArgument("request " + std::to_string(i) +
                             " has an empty prompt");
    }
    if (req.max_new_tokens <= 0) {
      return InvalidArgument("request " + std::to_string(i) +
                             " must generate at least one token (got " +
                             std::to_string(req.max_new_tokens) + ")");
    }
    if (!(req.arrival_seconds >= 0.0) || !std::isfinite(req.arrival_seconds)) {
      // Same check as the scheduler path: a NaN arrival would otherwise
      // pin the idle-jump below and spin this loop forever.
      return InvalidArgument("request " + std::to_string(i) +
                             " has a non-finite or negative arrival");
    }
    if (static_cast<std::int64_t>(req.prompt.size()) + req.max_new_tokens >
        program.model.seq_len) {
      return OutOfRange("request " + std::to_string(i) + " exceeds seq_len");
    }
    llama::SamplerConfig sc = sampler_config;
    sc.seed = sampler_config.seed + i * 7919;  // independent streams
    Sequence seq{llama::Sampler(sc)};
    seq.request = &req;
    seq.index = i;
    seq.exec = std::make_unique<accel::Executor>(program, weights, u280);
    seq.outcome.arrival_seconds = req.arrival_seconds;
    seq.outcome.prompt_tokens = static_cast<std::int32_t>(req.prompt.size());
    seqs.push_back(std::move(seq));
  }

  double now = 0.0;
  std::size_t rr = 0;  // round-robin cursor
  std::size_t remaining = seqs.size();

  while (remaining > 0) {
    // Pick the next arrived, unfinished sequence round-robin.
    Sequence* next = nullptr;
    for (std::size_t probe = 0; probe < seqs.size(); ++probe) {
      Sequence& cand = seqs[(rr + probe) % seqs.size()];
      if (!cand.done && cand.Arrived(now)) {
        next = &cand;
        rr = (rr + probe + 1) % seqs.size();
        break;
      }
    }
    if (next == nullptr) {
      // Device idle: jump to the earliest future arrival.
      double earliest = 1e300;
      for (const Sequence& s : seqs) {
        if (!s.done) earliest = std::min(earliest, s.request->arrival_seconds);
      }
      now = earliest;
      continue;
    }

    Sequence& seq = *next;
    std::int32_t token;
    bool is_prefill = seq.prompt_cursor < seq.request->prompt.size();
    if (is_prefill) {
      token = seq.request->prompt[seq.prompt_cursor++];
      if (seq.prompt_cursor == 1 && seq.outcome.admission_seconds == 0.0) {
        seq.outcome.admission_seconds = now;
      }
    } else {
      token = seq.pending_token;
    }
    SPEEDLLM_ASSIGN_OR_RETURN(std::span<const float> logits,
                              seq.exec->Forward(token, seq.pos));
    seq.pos++;
    now += seq.exec->last_stats().seconds;
    report.total_tokens++;

    if (!is_prefill) {
      seq.outcome.generated.push_back(token);
      seq.outcome.completion_seconds = now;
    }

    bool prompt_finished = seq.prompt_cursor == seq.request->prompt.size();
    bool budget_left =
        static_cast<std::int32_t>(seq.outcome.generated.size()) <
        seq.request->max_new_tokens;
    if (prompt_finished && budget_left) {
      seq.last_logits.assign(logits.begin(), logits.end());
      seq.pending_token = seq.sampler.Sample(seq.last_logits);
      if (seq.outcome.generated.empty()) {
        // The first decoded token materializes now (it is sampled from
        // these logits and committed on the next slot).
        if (seq.outcome.first_token_seconds == 0.0) {
          seq.outcome.first_token_seconds = now;
        }
      }
      if (serving::IsStopToken(*seq.request, sampler_config.eos_token,
                               seq.pending_token)) {
        // Stop token / EOS sampled: finish without committing it, same
        // as the continuous-batching shard.
        seq.done = true;
        seq.outcome.finish_reason = serving::FinishReason::kStop;
        seq.outcome.completion_seconds = now;
        const std::int64_t saved =
            seq.request->max_new_tokens -
            static_cast<std::int64_t>(seq.outcome.generated.size());
        report.stop_saved_tokens += saved;
        ++report.stopped_requests;
        --remaining;
      }
    } else if (prompt_finished) {
      seq.done = true;
      seq.outcome.finish_reason = serving::FinishReason::kLength;
      if (seq.outcome.first_token_seconds == 0.0) {
        seq.outcome.first_token_seconds = now;
      }
      if (seq.outcome.completion_seconds == 0.0) {
        seq.outcome.completion_seconds = now;
      }
      --remaining;
    }
  }

  report.outcomes.resize(seqs.size());
  for (auto& seq : seqs) {
    report.outcomes[seq.index] = std::move(seq.outcome);
  }
  report.makespan_seconds = now;
  report.device_tokens_per_second =
      now > 0.0 ? static_cast<double>(report.total_tokens) / now : 0.0;
  return report;
}

}  // namespace speedllm::runtime
