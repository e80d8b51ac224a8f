#include "serving/shard.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "accel/executor.hpp"

namespace speedllm::serving {

namespace {

/// The amortized shared cost may never swallow a whole forward: even in a
/// perfectly grouped launch each sequence still owns its KV traffic and
/// compute tail.
constexpr double kSharedShareCap = 0.95;

/// Tokens of `fed` a prefix-cache restore may map. The final fed token
/// must still be processed for fresh logits, unless a retained pending
/// token (readmission after preemption) makes the whole prefill a pure
/// recompute -- then a full restore is legal.
std::int64_t RestorableTokens(const std::vector<std::int32_t>& fed,
                              std::int32_t pending_token) {
  return static_cast<std::int64_t>(fed.size()) - (pending_token >= 0 ? 0 : 1);
}

}  // namespace

SchedulerConfig NormalizeSchedulerConfig(SchedulerConfig config) {
  config.max_batch_seqs = std::max(1, config.max_batch_seqs);
  config.max_batch_tokens = std::max(1, config.max_batch_tokens);
  config.prefill_chunk_tokens = std::max(1, config.prefill_chunk_tokens);
  config.block_size_tokens = std::max(1u, config.block_size_tokens);
  // A sequence's verify group is 1 + draft_tokens rows; it must fit the
  // per-tick token budget or no sequence could ever be planned.
  config.speculative.draft_tokens =
      std::clamp(config.speculative.draft_tokens, 0,
                 config.max_batch_tokens - 1);
  config.speculative.acceptance_rate =
      std::clamp(config.speculative.acceptance_rate, 0.0, 1.0);
  config.speculative.draft_cost_ratio =
      std::max(0.0, config.speculative.draft_cost_ratio);
  return config;
}

std::uint64_t DeriveKvPoolBytes(const accel::Program& program,
                                const hw::U280Config& u280,
                                std::uint64_t override_bytes) {
  if (override_bytes > 0) {
    return std::min(override_bytes, u280.hbm.capacity_bytes);
  }
  // Resident weights plus a fixed activation/staging reserve come out of
  // the HBM stack; the KV pool gets the rest.
  const std::uint64_t bytes_per_param =
      program.exec.int8_weights ? 2 : 4;  // int8 codes + grouped scales
  const std::uint64_t weight_bytes =
      static_cast<std::uint64_t>(program.model.num_params()) * bytes_per_param;
  const std::uint64_t reserve = weight_bytes + (256ull << 20);
  return u280.hbm.kv_budget_bytes(reserve);
}

double DeriveSharedStepSeconds(const accel::Program& program,
                               const hw::U280Config& u280) {
  const auto& st = program.stats;
  const auto& ex = program.exec;
  const auto& hbm = u280.hbm;
  const std::uint64_t bytes_per_cycle = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(hbm.num_channels) *
             hbm.bytes_per_cycle_per_channel);
  const sim::Cycles weight_cycles = st.weight_stream_bytes / bytes_per_cycle;
  const sim::Cycles launch_cycles =
      st.num_groups *
      (ex.kernel_launch_cycles + ex.dma_setup_cycles + hbm.latency_cycles);
  return u280.cycles_to_seconds(weight_cycles + launch_cycles);
}

Status ValidateRequest(const ServingRequest& req, const std::string& tag,
                       const llama::ModelConfig& model,
                       std::int64_t pool_blocks, std::int64_t block_size) {
  if (req.prompt.empty()) {
    return InvalidArgument(tag + " has an empty prompt");
  }
  if (req.max_new_tokens <= 0) {
    return InvalidArgument(tag + " must generate at least one token (got " +
                           std::to_string(req.max_new_tokens) + ")");
  }
  if (!(req.arrival_seconds >= 0.0) || !std::isfinite(req.arrival_seconds)) {
    return InvalidArgument(tag + " has a non-finite or negative arrival");
  }
  if (TierIndex(req.tier) < 0 || TierIndex(req.tier) >= kNumTiers) {
    // Tiers index per-tier counters on the shard and the session.
    return InvalidArgument(tag + " has an out-of-range tier (" +
                           std::to_string(TierIndex(req.tier)) + ")");
  }
  const std::int64_t tokens =
      static_cast<std::int64_t>(req.prompt.size()) + req.max_new_tokens;
  if (tokens > model.seq_len) {
    return OutOfRange(tag + " exceeds seq_len");
  }
  if ((tokens + block_size - 1) / block_size > pool_blocks) {
    return ResourceExhausted(tag + " can never fit the KV pool (" +
                             std::to_string(pool_blocks) + " blocks of " +
                             std::to_string(block_size) + " tokens)");
  }
  return Status::Ok();
}

ShardScheduler::ShardScheduler(const accel::Program& program,
                               const llama::Weights& weights,
                               const hw::U280Config& u280,
                               const SchedulerConfig& config,
                               sim::Engine& engine, Interconnect& interconnect,
                               std::int32_t card, ShardRole role)
    : program_(program),
      weights_(weights),
      u280_(u280),
      config_(config),
      shared_seconds_(DeriveSharedStepSeconds(program, u280)),
      engine_(engine),
      pool_(MakeKvPoolConfig(
          program.model, config.kv_cache_dtype,
          DeriveKvPoolBytes(program, u280, config.kv_pool_bytes),
          config.block_size_tokens, config.enable_prefix_cache)),
      interconnect_(interconnect),
      card_id_(card),
      role_(role),
      tick_cost_(shared_seconds_, kSharedShareCap) {}

ShardScheduler::~ShardScheduler() = default;

void ShardScheduler::Submit(const ServingRequest& request,
                            std::size_t stream_index,
                            const llama::SamplerConfig& sampler_config) {
  if (!error_.ok()) return;
  // Per-request sampler overrides (PR 3 absorb) layer over the engine
  // default before the stream seed is derived: the seed offset is never
  // overridable, so overridden streams stay independent of batch
  // composition and placement exactly like default ones.
  llama::SamplerConfig sc = sampler_config;
  if (request.sampler.has_temperature) {
    sc.temperature = request.sampler.temperature;
  }
  if (request.sampler.has_top_p) sc.top_p = request.sampler.top_p;
  if (request.sampler.has_eos_token) sc.eos_token = request.sampler.eos_token;
  sc.seed = sampler_config.seed + stream_index * 7919;  // independent streams
  Sequence seq{llama::Sampler(sc)};
  seq.request = &request;
  seq.stream_index = stream_index;
  seq.fed = request.prompt;
  seq.outcome.arrival_seconds = request.arrival_seconds;
  seq.outcome.prompt_tokens = static_cast<std::int32_t>(request.prompt.size());
  seq.outcome.tier = request.tier;
  seq.wait_since_tick = tick_index_;
  AddOutstanding(request.tier,
                 static_cast<std::int64_t>(request.prompt.size()) +
                     request.max_new_tokens);
  queued_demand_blocks_ += BlocksForRequest(request);
  seqs_.push_back(std::move(seq));
  waiting_.push_back(seqs_.size() - 1);
  if (!tick_pending_) ScheduleTick(engine_.now());
}

void ShardScheduler::AddOutstanding(RequestTier tier, std::int64_t delta) {
  outstanding_tokens_ += delta;
  tier_outstanding_[static_cast<std::size_t>(TierIndex(tier))] += delta;
}

std::int64_t ShardScheduler::outstanding_tokens_at_or_above(
    RequestTier tier) const {
  std::int64_t sum = 0;
  for (int t = 0; t <= TierIndex(tier); ++t) {
    sum += tier_outstanding_[static_cast<std::size_t>(t)];
  }
  return sum;
}

std::int64_t ShardScheduler::BlocksForRequest(
    const ServingRequest& request) const {
  return pool_.BlocksForTokens(
      static_cast<std::int64_t>(request.prompt.size()) +
      request.max_new_tokens);
}

std::optional<std::pair<const ServingRequest*, std::size_t>>
ShardScheduler::PeekNewestQueued(const StreamPredicate& eligible) const {
  for (auto it = waiting_.rbegin(); it != waiting_.rend(); ++it) {
    const Sequence& seq = seqs_[*it];
    if (seq.ever_admitted) continue;
    if (eligible && !eligible(seq.stream_index)) continue;
    return std::pair{seq.request, seq.stream_index};
  }
  return std::nullopt;
}

std::optional<std::pair<const ServingRequest*, std::size_t>>
ShardScheduler::StealNewestQueued(const StreamPredicate& eligible) {
  for (auto it = waiting_.rbegin(); it != waiting_.rend(); ++it) {
    Sequence& seq = seqs_[*it];
    if (seq.ever_admitted) continue;
    if (eligible && !eligible(seq.stream_index)) continue;
    seq.state = SeqState::kMigrated;
    AddOutstanding(seq.request->tier,
                   -(static_cast<std::int64_t>(seq.request->prompt.size()) +
                     seq.request->max_new_tokens));
    queued_demand_blocks_ -= BlocksForRequest(*seq.request);
    waiting_.erase(std::next(it).base());
    return std::pair{seq.request, seq.stream_index};
  }
  return std::nullopt;
}

Status ShardScheduler::Finalize() const {
  if (!error_.ok()) return error_;
  for (const Sequence& seq : seqs_) {
    if (seq.state != SeqState::kDone && seq.state != SeqState::kMigrated &&
        seq.state != SeqState::kCancelled &&
        seq.state != SeqState::kHandedOff) {
      return Internal("scheduler stalled: request " +
                      std::to_string(seq.stream_index) + " never completed");
    }
  }
  return Status::Ok();
}

ServingReport ShardScheduler::TakeReport(
    std::vector<std::size_t>* stream_indices) {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < seqs_.size(); ++i) {
    // Migrated and handed-off sequences report from their final shard
    // (the outcome travels with them), never from here.
    if (seqs_[i].state != SeqState::kMigrated &&
        seqs_[i].state != SeqState::kHandedOff) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return seqs_[a].stream_index < seqs_[b].stream_index;
  });
  report_.outcomes.clear();
  report_.outcomes.reserve(order.size());
  if (stream_indices != nullptr) stream_indices->clear();
  for (std::size_t id : order) {
    if (stream_indices != nullptr) {
      stream_indices->push_back(seqs_[id].stream_index);
    }
    report_.outcomes.push_back(std::move(seqs_[id].outcome));
  }
  report_.makespan_seconds = u280_.cycles_to_seconds(last_tick_end_cycles_);
  report_.device_tokens_per_second =
      report_.makespan_seconds > 0.0
          ? static_cast<double>(report_.total_tokens) /
                report_.makespan_seconds
          : 0.0;
  report_.mean_batch_width =
      report_.ticks > 0 ? static_cast<double>(width_sum_) /
                              static_cast<double>(report_.ticks)
                        : 0.0;
  report_.preemptions = pool_.stats().preemption_releases;
  report_.peak_kv_blocks = pool_.stats().peak_used_blocks;
  report_.kv_block_capacity = pool_.num_blocks();
  report_.kv_block_bytes = pool_.config().block_bytes();
  report_.kv_capacity_bytes = pool_.capacity_bytes();
  const KvPoolStats& ps = pool_.stats();
  report_.prefix_cache_queries = ps.prefix_queries;
  report_.prefix_cache_hits = ps.prefix_hits;
  report_.prefix_cache_hit_tokens = ps.prefix_hit_tokens;
  report_.prefix_cache_lookup_tokens = ps.prefix_lookup_tokens;
  report_.cow_copies = ps.cow_copies;
  report_.cache_evictions = ps.cache_evictions;
  report_.dma_bytes_moved = ps.dma_bytes_moved;
  return std::move(report_);
}

// ---------------------------------------------------------------- events

void ShardScheduler::ScheduleTick(sim::Cycles at) {
  tick_pending_ = true;
  engine_.ScheduleAt(at, [this] { RunTick(); });
}

// -------------------------------------------------------------- planning

/// FCFS and decode-priority only ever look at the head (head-of-line
/// blocking is part of the policy); shortest-prompt-first may skip over
/// requests that do not fit, and ages starved requests back to FCFS.
/// With tiers enabled the policy order is stably re-sorted by tier, so
/// higher tiers admit first and equal-tier requests keep the policy's
/// order exactly (a uniform-tier trace is scheduled identically to
/// tiers-off).
const std::vector<std::size_t>& ShardScheduler::AdmissionCandidates() {
  candidates_.assign(waiting_.begin(), waiting_.end());
  if (config_.policy == BatchPolicy::kShortestPromptFirst) {
    const auto fresh = std::stable_partition(
        candidates_.begin(), candidates_.end(), [this](std::size_t id) {
          return tick_index_ - seqs_[id].wait_since_tick >=
                 config_.starvation_grace_ticks;
        });
    std::stable_sort(fresh, candidates_.end(),
                     [this](std::size_t a, std::size_t b) {
                       return seqs_[a].fed.size() < seqs_[b].fed.size();
                     });
  }
  if (config_.enable_tiers) {
    std::stable_sort(candidates_.begin(), candidates_.end(),
                     [this](std::size_t a, std::size_t b) {
                       return TierIndex(seqs_[a].request->tier) <
                              TierIndex(seqs_[b].request->tier);
                     });
  }
  return candidates_;
}

// ------------------------------------------------------------- execution

/// Accounts one token of KV for `seq`, preempting the most recently
/// admitted resident (swap-by-recompute) until it fits. The requester
/// never preempts an older sequence on its own behalf: when it is itself
/// the newest resident it defers to a later tick instead. Preemption
/// only ever drops the victim's own references: blocks shared with a
/// co-owner stay resident, and the victim's cached blocks stay
/// restorable until the LRU list is actually evicted.
bool ShardScheduler::EnsureKvToken(std::size_t seq_id, std::int32_t token) {
  while (true) {
    Status st = pool_.Append(seq_id, token);
    if (st.ok()) {
      // A copy-on-write may have moved one block.
      const std::int64_t moved = ChargeDma("cow", seq_id);
      if (moved > 0) {
        const double now_s = NowSeconds();
        Trace(obs::RequestEventKind::kCowCopy,
              static_cast<std::int64_t>(seqs_[seq_id].stream_index), now_s,
              now_s, 0, moved);
      }
      return true;
    }
    if (st.code() != StatusCode::kResourceExhausted) return Check(st);
    kv_blocked_ = true;
    if (!config_.allow_preemption) return false;
    // Victim selection: with tiers enabled the lowest-priority resident
    // loses first (numerically-highest tier), newest admission breaking
    // ties within a tier; and a requester never evicts a strictly
    // higher-priority resident on its own behalf -- it defers instead.
    // With tiers off every resident ranks equal and this reduces to
    // "newest admission order" exactly as before.
    std::size_t victim = seqs_.size();
    int victim_tier = -1;
    std::int64_t newest = -1;
    for (std::size_t r : residents_) {
      const int tier =
          config_.enable_tiers ? TierIndex(seqs_[r].request->tier) : 0;
      if (tier > victim_tier ||
          (tier == victim_tier && seqs_[r].admission_order > newest)) {
        victim_tier = tier;
        newest = seqs_[r].admission_order;
        victim = r;
      }
    }
    if (victim == seqs_.size() || victim == seq_id) return false;
    const int my_tier =
        config_.enable_tiers ? TierIndex(seqs_[seq_id].request->tier) : 0;
    if (victim_tier < my_tier) return false;  // never evict a higher tier
    Preempt(victim);
  }
}

void ShardScheduler::Evict(std::size_t seq_id, bool preempted) {
  Check(pool_.Release(seq_id, preempted));
  ReleaseSlot(seqs_[seq_id]);
  residents_.erase(std::find(residents_.begin(), residents_.end(), seq_id));
}

void ShardScheduler::Preempt(std::size_t victim) {
  Sequence& seq = seqs_[victim];
  const double now_s = NowSeconds();
  Trace(obs::RequestEventKind::kPreempt,
        static_cast<std::int64_t>(seq.stream_index), now_s, now_s,
        seq.cursor);  // fed work dropped, owed again as recompute
  Evict(victim, /*preempted=*/true);
  ChargeDma("swap-out", victim);  // the victim's private blocks write back
  seq.state = SeqState::kWaiting;
  // Fed work is owed again (recompute).
  AddOutstanding(seq.request->tier, seq.cursor);
  seq.cursor = 0;  // KV gone: recompute from scratch on readmission
  seq.wait_since_tick = tick_index_;
  // Preempted sequences re-queue at the front: they are the oldest work
  // and must not starve behind fresh arrivals.
  waiting_.push_front(victim);
  ++seq.outcome.preemptions;
}

std::int64_t ShardScheduler::RestoreCachedPrefix(std::size_t seq_id) {
  Sequence& seq = seqs_[seq_id];
  auto match_or = pool_.AcquireCachedPrefix(
      seq_id, seq.fed, RestorableTokens(seq.fed, seq.pending_token));
  if (!Check(match_or.status())) return -1;
  const std::int64_t restored = match_or->matched_tokens;
  ChargeDma("restore", seq_id);  // the restore reads blocks through HBM
  if (restored == 0) return 0;
  const double now_s = NowSeconds();
  Trace(obs::RequestEventKind::kCacheHit,
        static_cast<std::int64_t>(seq.stream_index), now_s, now_s, restored);
  // Rebuild the slot executor's functional KV for the cached prefix. On
  // the device those entries are already resident in HBM, so no forward
  // compute or weight traffic is owed for them -- only the restore DMA
  // charged above.
  accel::Executor& exec = *slots_[static_cast<std::size_t>(seq.slot)];
  for (std::int64_t p = 0; p < restored; ++p) {
    auto logits = exec.Forward(seq.fed[static_cast<std::size_t>(p)],
                               static_cast<std::int32_t>(p));
    if (!Check(logits.status())) return -1;
  }
  seq.cursor = static_cast<std::int32_t>(restored);
  seq.high_water = std::max(seq.high_water, seq.cursor);
  AddOutstanding(seq.request->tier, -restored);
  return restored;
}

void ShardScheduler::ExtractHandoff(std::size_t seq_id, sim::Cycles ready) {
  Sequence& seq = seqs_[seq_id];
  KvHandoff handoff;
  handoff.request = seq.request;
  handoff.stream_index = seq.stream_index;
  handoff.sampler = std::move(seq.sampler);
  handoff.pending_token = seq.pending_token;
  // Whole blocks ship, at this pool's dtype-aware block_bytes (an int8
  // pool hands off roughly half the bytes an fp16 one does).
  handoff.kv_bytes =
      pool_.BlocksForTokens(static_cast<std::int64_t>(seq.fed.size())) *
      static_cast<std::int64_t>(pool_.config().block_bytes());
  ++seq.outcome.handoffs;
  handoff.outcome = std::move(seq.outcome);
  handoff.fed = std::move(seq.fed);
  // Release local references; sealed full blocks stay in this card's
  // prefix cache (the directory keeps advertising them), and the
  // interconnect's source-read leg pays for extracting the pages.
  Evict(seq_id, /*preempted=*/false);
  seq.state = SeqState::kHandedOff;
  seq.pending_token = -1;
  // The decode budget is owed by the destination now.
  AddOutstanding(
      handoff.request->tier,
      -(handoff.request->max_new_tokens -
        static_cast<std::int64_t>(handoff.outcome.generated.size())));
  handoff_hook_(std::move(handoff), ready);
}

void ShardScheduler::AdoptHandoff(KvHandoff handoff) {
  if (!error_.ok()) return;
  Sequence seq{std::move(handoff.sampler)};
  seq.request = handoff.request;
  seq.stream_index = handoff.stream_index;
  seq.fed = std::move(handoff.fed);
  seq.pending_token = handoff.pending_token;
  seq.outcome = std::move(handoff.outcome);
  seq.wait_since_tick = tick_index_;
  // Admitted on the prefill shard: TTFT is stamped, the rebalancer must
  // not steal it, and its first local admission replays shipped KV
  // instead of prefilling.
  seq.ever_admitted = true;
  seq.adopt_pending = true;
  // Every fed token was processed at least once (on the prefill shard):
  // if a later preemption forces recompute here, those tokens count as
  // recomputed work, never as fresh throughput.
  seq.high_water = static_cast<std::int32_t>(seq.fed.size());
  // The replay subtracts per token exactly like a restore/prefill would,
  // so fed tokens enter the backlog alongside the decode budget.
  AddOutstanding(seq.request->tier,
                 static_cast<std::int64_t>(seq.fed.size()) +
                     seq.request->max_new_tokens -
                     static_cast<std::int64_t>(seq.outcome.generated.size()));
  queued_demand_blocks_ += BlocksForRequest(*seq.request);
  seqs_.push_back(std::move(seq));
  waiting_.push_back(seqs_.size() - 1);
  if (!tick_pending_) ScheduleTick(engine_.now());
}

bool ShardScheduler::ReplayAdoptedKv(std::size_t seq_id) {
  Sequence& seq = seqs_[seq_id];
  seq.adopt_pending = false;
  queued_demand_blocks_ -= BlocksForRequest(*seq.request);
  // Blocks this card already caches (a shared prefix) map as shared --
  // the same restore path a local cache hit takes -- and the rest append
  // fresh. All forward replay is zero simulated compute: the shipped
  // pages are already in HBM, paid for by the interconnect transfer.
  if (RestoreCachedPrefix(seq_id) < 0) return false;
  accel::Executor& exec = *slots_[static_cast<std::size_t>(seq.slot)];
  while (seq.cursor < static_cast<std::int32_t>(seq.fed.size())) {
    const std::int32_t token = seq.fed[static_cast<std::size_t>(seq.cursor)];
    if (!EnsureKvToken(seq_id, token)) break;
    if (!Check(exec.Forward(token, seq.cursor).status())) return false;
    ++seq.cursor;
    AddOutstanding(seq.request->tier, -1);
  }
  plan_.restored += seq.cursor;
  if (!error_.ok()) return false;
  if (seq.remaining_prefill() == 0) seq.state = SeqState::kDecode;
  return true;
}

int ShardScheduler::AcquireSlot() {
  if (!free_slots_.empty()) {
    int slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[static_cast<std::size_t>(slot)]->ResetSequence();
    return slot;
  }
  slots_.push_back(
      std::make_unique<accel::Executor>(program_, weights_, u280_));
  return static_cast<int>(slots_.size() - 1);
}

void ShardScheduler::ReleaseSlot(Sequence& seq) {
  assert(seq.slot >= 0);
  free_slots_.push_back(seq.slot);
  seq.slot = -1;
}

std::optional<double> ShardScheduler::ForwardToken(
    Sequence& seq, std::int32_t token, std::int32_t pos,
    std::span<const float>* logits) {
  accel::Executor& exec = *slots_[static_cast<std::size_t>(seq.slot)];
  auto logits_or = exec.Forward(token, pos);
  if (!Check(logits_or.status())) return std::nullopt;
  const double seconds = exec.last_stats().seconds;
  tick_cost_.AddProblem(seconds);
  *logits = *logits_or;
  return seconds;
}

namespace {

/// splitmix64-style avalanche; the acceptance model's mixing primitive.
std::uint64_t SpecMix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

/// Deterministic acceptance: hash (seed, stream, absolute position of
/// the drafted token) to a uniform in [0, 1) and compare against the
/// configured rate. Depends on nothing the cluster layout can change,
/// so the accepted-token schedule -- hence every tick boundary the spec
/// path produces -- is invariant across card count, placement, caching,
/// dtype, and roles.
bool AcceptDraft(const SpeculativeConfig& spec, std::size_t stream,
                 std::int64_t position) {
  if (spec.acceptance_rate >= 1.0) return true;
  if (spec.acceptance_rate <= 0.0) return false;
  std::uint64_t h = SpecMix(spec.acceptance_seed ^
                            SpecMix(static_cast<std::uint64_t>(stream) +
                                    0x9e3779b97f4a7c15ull));
  h = SpecMix(h ^ (static_cast<std::uint64_t>(position) + 1));
  const double u =
      static_cast<double>(h >> 11) / 9007199254740992.0;  // [0, 1)
  return u < spec.acceptance_rate;
}

}  // namespace

std::int32_t ShardScheduler::DraftAndAccept(std::size_t seq_id,
                                            std::int32_t* drafted) {
  *drafted = 0;
  Sequence& seq = seqs_[seq_id];
  const SpeculativeConfig& spec = config_.speculative;
  // Drafting past the request's remaining budget is pure waste: the
  // verify could never commit those rows.
  const std::int64_t remaining =
      seq.request->max_new_tokens -
      static_cast<std::int64_t>(seq.outcome.generated.size());
  const std::int32_t k = static_cast<std::int32_t>(std::min<std::int64_t>(
      spec.draft_tokens, std::max<std::int64_t>(0, remaining - 1)));
  if (k <= 0) return 0;
  // The pending token's KV is already appended (EnsureKvToken ran), so
  // drafts land at positions fed.size()+1 ... fed.size()+k. Their pool
  // appends happen under a speculation phase: sealing into the prefix
  // cache is suppressed and the rollback below restores the sequence
  // byte-identically, so draft content never leaks refcounts or cache
  // entries. A dry pool just cuts the draft short -- drafts never
  // preempt anyone.
  if (!Check(pool_.BeginSpeculation(seq_id))) return 0;
  const std::int64_t base_pos = static_cast<std::int64_t>(seq.fed.size()) + 1;
  for (std::int32_t j = 0; j < k; ++j) {
    // The draft model's guess: an arbitrary deterministic pseudo-token.
    // Its value only passes through rolled-back pool accounting -- the
    // verify commits the target model's own samples, never this.
    const std::int32_t guess = static_cast<std::int32_t>(
        SpecMix(spec.acceptance_seed ^
                static_cast<std::uint64_t>(base_pos + j) * 0x100000001b3ull) %
        static_cast<std::uint64_t>(program_.model.vocab_size));
    const Status ap = pool_.Append(seq_id, guess);
    if (!ap.ok()) {
      if (ap.code() != StatusCode::kResourceExhausted) Check(ap);
      break;
    }
    ++*drafted;
  }
  ChargeDma("spec-draft", seq_id);
  Check(pool_.RollbackSpeculation(seq_id));
  if (!error_.ok()) return 0;
  report_.spec_draft_tokens += *drafted;
  if (*drafted > 0) {
    const double now_s = NowSeconds();
    Trace(obs::RequestEventKind::kDraftPropose,
          static_cast<std::int64_t>(seq.stream_index), now_s, now_s,
          *drafted);
  }
  std::int32_t accepted = 0;
  for (std::int32_t j = 0; j < *drafted; ++j) {
    if (!AcceptDraft(spec, seq.stream_index, base_pos + j)) break;
    ++accepted;
  }
  return accepted;
}

std::int64_t ShardScheduler::ChargeDma(const char* cause,
                                       std::size_t seq_id) {
  const std::int64_t moved = pool_.stats().dma_bytes_moved - dma_bytes_seen_;
  dma_bytes_seen_ = pool_.stats().dma_bytes_moved;
  if (moved <= 0) return 0;
  double seconds = 0.0;
  double base_s = NowSeconds();
  if (config_.charge_dma_cost) {
    // The move queues on this card's shared HBM DMA stations, so it
    // serializes honestly behind concurrent traffic (earlier moves this
    // tick, cross-card KV transfers) instead of being charged
    // additively. The tick is billed only the window past what it
    // already paid (`dma_charged_until_`), which makes back-to-back
    // uncontended moves cost exactly the old per-move sum.
    const sim::Cycles base = std::max(engine_.now(), dma_charged_until_);
    const hw::TransferTiming window = interconnect_.LocalDma(
        engine_.now(), static_cast<std::uint64_t>(moved), card_id_);
    dma_charged_until_ = window.end;
    seconds = u280_.cycles_to_seconds(window.end - base);
    base_s = u280_.cycles_to_seconds(base);
    tick_cost_.AddSerialSeconds(seconds);
    report_.dma_time_seconds += seconds;
  }
  Trace(obs::RequestEventKind::kDmaTransfer,
        static_cast<std::int64_t>(seqs_[seq_id].stream_index), base_s,
        base_s + seconds, 0, moved, cause);
  return moved;
}

/// The amplitude sits far below typical logit gaps, so greedy argmax is
/// unchanged in practice (tests lock this in); temperature sampling may
/// legally diverge from fp16, exactly like a real quantized cache.
void ShardScheduler::PerturbLogitsForQuant(const Sequence& seq,
                                           std::span<float> logits) const {
  constexpr float kAmplitude = 1e-6f;
  const std::uint64_t block_index =
      seq.fed.size() / config_.block_size_tokens;
  std::uint64_t h = (static_cast<std::uint64_t>(seq.stream_index) + 1) *
                    0x9e3779b97f4a7c15ull;
  h ^= (block_index + 1) * 0x100000001b3ull;
  for (float& v : logits) {
    h ^= h >> 12;  // xorshift64* per element
    h ^= h << 25;
    h ^= h >> 27;
    const std::uint64_t r = h * 0x2545f4914f6cdd1dull;
    // Top 53 bits over 2^52, recentered: uniform in [-1, 1).
    const float noise =
        static_cast<float>(static_cast<double>(r >> 11) /
                           4503599627370496.0) -
        1.0f;
    v += kAmplitude * noise;
  }
}

void ShardScheduler::SampleNext(Sequence& seq, std::span<const float> logits) {
  sample_scratch_.assign(logits.begin(), logits.end());
  if (config_.kv_cache_dtype == KvCacheDtype::kInt8) {
    PerturbLogitsForQuant(seq, sample_scratch_);
  }
  seq.pending_token = seq.sampler.Sample(sample_scratch_);
}

/// True when the freshly sampled pending token must end generation early:
/// the request's stop set or the sampler-wide EOS id hit.
bool ShardScheduler::ShouldStop(const Sequence& seq) const {
  return IsStopToken(*seq.request, seq.sampler.config().eos_token,
                     seq.pending_token);
}

void ShardScheduler::FinishSequence(std::size_t seq_id, FinishReason reason) {
  Sequence& seq = seqs_[seq_id];
  seq.state = SeqState::kDone;
  seq.pending_token = -1;
  seq.outcome.finish_reason = reason;
  if (reason == FinishReason::kStop) {
    // The unused decode budget is owed to no one anymore.
    const std::int64_t saved =
        seq.request->max_new_tokens -
        static_cast<std::int64_t>(seq.outcome.generated.size());
    AddOutstanding(seq.request->tier, -saved);
    report_.stop_saved_tokens += saved;
    ++report_.stopped_requests;
  }
  Evict(seq_id, /*preempted=*/false);
  tick_emissions_.push_back(Emission{seq_id, -1, reason});
}

Status ShardScheduler::Abort(std::size_t stream_index) {
  std::size_t seq_id = seqs_.size();
  for (std::size_t i = 0; i < seqs_.size(); ++i) {
    if (seqs_[i].stream_index == stream_index &&
        seqs_[i].state != SeqState::kMigrated &&
        seqs_[i].state != SeqState::kHandedOff) {
      seq_id = i;
      break;
    }
  }
  if (seq_id == seqs_.size()) {
    return NotFound("stream " + std::to_string(stream_index) +
                    " is not live on this shard");
  }
  Sequence& seq = seqs_[seq_id];
  if (seq.state == SeqState::kCancelled) {
    return FailedPrecondition("stream " + std::to_string(stream_index) +
                              " already finished");
  }
  const bool healthy = error_.ok();
  if (seq.state == SeqState::kDone) {
    // Finished internally -- but if the finish emission has not been
    // delivered yet, the client has observed nothing final and the
    // cancel wins the race: go quiet as cancelled instead. Capacity was
    // already released by FinishSequence; only the bookkeeping reverts.
    const auto is_finish = [seq_id](const Emission& e) {
      return e.seq_id == seq_id && e.token < 0;
    };
    if (std::find_if(pending_emissions_.begin(), pending_emissions_.end(),
                     is_finish) == pending_emissions_.end()) {
      return FailedPrecondition("stream " + std::to_string(stream_index) +
                                " already finished");
    }
    if (seq.outcome.finish_reason == FinishReason::kStop) {
      report_.stop_saved_tokens -=
          seq.request->max_new_tokens -
          static_cast<std::int64_t>(seq.outcome.generated.size());
      --report_.stopped_requests;
    }
  } else {
    // Tokens still owed (remaining prefill/recompute plus unused decode
    // budget) leave the backlog; capacity frees immediately.
    AddOutstanding(
        seq.request->tier,
        -(seq.remaining_prefill() +
          (seq.request->max_new_tokens -
           static_cast<std::int64_t>(seq.outcome.generated.size()))));
    if (seq.state == SeqState::kWaiting) {
      waiting_.erase(std::find(waiting_.begin(), waiting_.end(), seq_id));
      if (!seq.ever_admitted) {
        queued_demand_blocks_ -= BlocksForRequest(*seq.request);
      }
    } else {
      Evict(seq_id, /*preempted=*/false);
    }
  }

  // A cancelled stream must never emit again: drop everything committed
  // but not yet delivered, from both the outcome and the event queue.
  const auto scrub = [seq_id](const Emission& e) { return e.seq_id == seq_id; };
  tick_emissions_.erase(
      std::remove_if(tick_emissions_.begin(), tick_emissions_.end(), scrub),
      tick_emissions_.end());
  pending_emissions_.erase(std::remove_if(pending_emissions_.begin(),
                                          pending_emissions_.end(), scrub),
                           pending_emissions_.end());
  seq.outcome.generated.resize(static_cast<std::size_t>(seq.delivered));

  const double now_s = NowSeconds();
  seq.state = SeqState::kCancelled;
  seq.pending_token = -1;
  seq.outcome.finish_reason = FinishReason::kCancelled;
  seq.outcome.completion_seconds = now_s;
  if (seq.outcome.first_token_seconds == 0.0) {
    seq.outcome.first_token_seconds = now_s;
  }
  if (!seq.ever_admitted) seq.outcome.admission_seconds = now_s;
  ++report_.cancelled_requests;
  Trace(obs::RequestEventKind::kCancel,
        static_cast<std::int64_t>(stream_index), now_s, now_s, seq.delivered);
  if (on_finish_) {
    // Copy: the hook may reentrantly Submit and grow seqs_.
    const RequestOutcome outcome = seq.outcome;
    on_finish_(stream_index, FinishReason::kCancelled, outcome, now_s);
  }
  // The cancel completes either way; a pool release that failed during it
  // is also the caller's answer, not only Finalize's.
  return healthy ? error_ : Status::Ok();
}

void ShardScheduler::DeliverEmissions() {
  // Pop one entry at a time: a hook may Abort another stream (scrubbing
  // its not-yet-delivered entries out from under us) or Submit (growing
  // seqs_, so no Sequence reference may be held across a hook call).
  const double t = NowSeconds();
  while (!pending_emissions_.empty()) {
    const Emission e = pending_emissions_.front();
    pending_emissions_.pop_front();
    const std::size_t stream = seqs_[e.seq_id].stream_index;
    if (e.token >= 0) {
      ++seqs_[e.seq_id].delivered;
      if (on_token_) on_token_(stream, e.token, t);
    } else {
      // The finish's delivery time is the request's observable end;
      // telemetry records the terminal event and the latency samples
      // here so exactly one terminal event exists per stream (a cancel
      // that won the race scrubbed this emission and recorded kCancel).
      const RequestOutcome& oc = seqs_[e.seq_id].outcome;
      Trace(obs::RequestEventKind::kFinish, static_cast<std::int64_t>(stream),
            t, t, static_cast<std::int64_t>(oc.generated.size()), 0,
            FinishReasonName(e.finish));
      if (telemetry_.metrics()) {
        const std::int64_t n =
            static_cast<std::int64_t>(oc.generated.size());
        const double decode_span =
            oc.completion_seconds - oc.first_token_seconds;
        telemetry_.ObserveFinish(
            oc.time_to_first_token(),
            n > 1 ? decode_span / static_cast<double>(n - 1) : 0.0, n > 0);
      }
      if (on_finish_) {
        const RequestOutcome outcome = seqs_[e.seq_id].outcome;
        on_finish_(stream, e.finish, outcome, t);
      }
    }
  }
}

void ShardScheduler::RunTick() {
  tick_pending_ = false;
  if (!error_.ok()) return;
  ++tick_index_;
  kv_blocked_ = false;
  tick_cost_.BeginGroup();
  if (!PlanTick()) return;

  work_.committed.clear();
  work_.ttft.clear();
  work_.decode_rows.clear();
  work_.prefill.clear();
  work_.prefill_tokens = 0;
  work_.handoff_ready.clear();
  work_.spec_draft_at_open = report_.spec_draft_tokens;
  work_.spec_accept_at_open = report_.spec_accepted_tokens;
  for (std::size_t seq_id : plan_.decode) {
    if (!DecodeOne(seq_id)) return;
  }
  for (const auto& [seq_id, chunk] : plan_.prefill) {
    if (!PrefillChunk(seq_id, chunk)) return;
  }
  CloseTick();
}

bool ShardScheduler::PlanTick() {
  plan_.start_s = NowSeconds();
  plan_.prefill.clear();
  plan_.restored = 0;
  const std::int32_t budget = FundDecode(config_.max_batch_tokens);
  // Prefill chunks: resident partial prefills continue first, then new
  // admissions per policy.
  std::int32_t prefill_budget =
      config_.policy == BatchPolicy::kDecodePriority
          ? std::min(budget, config_.prefill_chunk_tokens)
          : budget;
  for (std::size_t r : residents_) {
    if (prefill_budget <= 0) break;
    const Sequence& seq = seqs_[r];
    if (seq.state != SeqState::kPrefill) continue;
    const std::int32_t chunk =
        std::min(seq.remaining_prefill(), prefill_budget);
    if (chunk > 0) {
      plan_.prefill.emplace_back(r, chunk);
      prefill_budget -= chunk;
    }
  }
  return prefill_budget <= 0 || AdmitWaiting(prefill_budget);
}

std::int32_t ShardScheduler::FundDecode(std::int32_t budget) {
  plan_.decode.clear();
  decoding_.clear();
  for (std::size_t r : residents_) {
    if (seqs_[r].state == SeqState::kDecode) decoding_.push_back(r);
  }
  const std::int32_t width = 1 + config_.speculative.draft_tokens;
  // Decode runs in admission order. Only a short budget sorts by tier,
  // so a budget that covers everyone never reorders the batch.
  const bool by_tier =
      config_.enable_tiers &&
      static_cast<std::int64_t>(decoding_.size()) * width > budget;
  if (by_tier) {
    std::stable_sort(decoding_.begin(), decoding_.end(),
                     [this](std::size_t a, std::size_t b) {
                       return TierIndex(seqs_[a].request->tier) <
                              TierIndex(seqs_[b].request->tier);
                     });
  }
  const auto tier_of = [this](std::size_t id) {
    return seqs_[id].request->tier;
  };
  std::size_t begin = 0;
  while (begin < decoding_.size() && budget > 0) {
    std::size_t end = by_tier ? begin + 1 : decoding_.size();
    while (end < decoding_.size() &&
           tier_of(decoding_[end]) == tier_of(decoding_[begin])) {
      ++end;
    }
    const std::size_t n = end - begin;
    if (static_cast<std::int64_t>(n) * width <= budget) {
      plan_.decode.insert(plan_.decode.end(), decoding_.begin() + begin,
                          decoding_.begin() + end);
      budget -= static_cast<std::int32_t>(n) * width;
      begin = end;
      continue;
    }
    // The first group the budget cannot cover: a window rotates over it.
    const std::size_t slots = static_cast<std::size_t>(budget / width);
    const std::size_t start = rr_offset_ % n;
    for (std::size_t k = 0; k < slots; ++k) {
      plan_.decode.push_back(decoding_[begin + (start + k) % n]);
    }
    rr_offset_ += slots;
    budget -= static_cast<std::int32_t>(slots) * width;
    break;
  }
  return budget;
}

bool ShardScheduler::AdmitWaiting(std::int32_t prefill_budget) {
  // Admissions within one tick reserve against each other: a block the
  // first admission will consume is not offered to the second.
  std::int64_t planned_blocks = 0;
  for (std::size_t cand : AdmissionCandidates()) {
    if (prefill_budget <= 0 ||
        static_cast<std::int32_t>(residents_.size()) >=
            config_.max_batch_seqs) {
      break;
    }
    Sequence& seq = seqs_[cand];
    const std::int64_t need_blocks = AdmissionBlocks(seq);
    if (need_blocks + planned_blocks > pool_.free_blocks()) {
      kv_blocked_ = true;
      // Head-of-line blocking for FCFS-family policies; SPF (which
      // reorders anyway) may skip past an oversized head.
      if (config_.policy != BatchPolicy::kShortestPromptFirst) break;
      continue;
    }
    planned_blocks += need_blocks;
    if (!Admit(cand)) return false;
    if (seq.adopt_pending) {
      if (!ReplayAdoptedKv(cand)) return false;
      continue;
    }
    const std::int64_t restored = RestoreCachedPrefix(cand);
    if (restored < 0) return false;
    plan_.restored += restored;
    if (seq.remaining_prefill() == 0) {
      // Full cache restore (a readmission whose every fed token was
      // still cached): nothing left to prefill, so it joins the decode
      // set next tick and consumes no prefill budget now.
      seq.state = SeqState::kDecode;
      continue;
    }
    const std::int32_t chunk =
        std::min(seq.remaining_prefill(), prefill_budget);
    plan_.prefill.emplace_back(cand, chunk);
    prefill_budget -= chunk;
  }
  return true;
}

std::int64_t ShardScheduler::AdmissionBlocks(const Sequence& seq) const {
  // Cached blocks already held by a live resident cost no free capacity
  // to map, so prefix-heavy workloads admit more residents than the raw
  // block count suggests (the residency win). A match that ends
  // mid-block is the exception: the write into that shared tail must
  // copy it, so one block stays reserved for the copy-on-write.
  const PrefixMatch match = pool_.MatchCachedPrefix(
      seq.fed, RestorableTokens(seq.fed, seq.pending_token));
  std::int64_t discount = match.live_shared_blocks;
  if (discount > 0 &&
      match.matched_tokens %
              static_cast<std::int64_t>(config_.block_size_tokens) !=
          0) {
    --discount;
  }
  return pool_.BlocksForTokens(static_cast<std::int64_t>(seq.fed.size()) +
                               1) -
         discount;
}

bool ShardScheduler::Admit(std::size_t seq_id) {
  if (!Check(pool_.Register(seq_id))) return false;
  Sequence& seq = seqs_[seq_id];
  waiting_.erase(std::find(waiting_.begin(), waiting_.end(), seq_id));
  seq.slot = AcquireSlot();
  seq.state = SeqState::kPrefill;
  seq.admission_order = next_admission_++;
  residents_.push_back(seq_id);
  if (!seq.ever_admitted) {
    seq.ever_admitted = true;
    seq.outcome.admission_seconds = plan_.start_s;
    // No longer queued demand: its blocks now come out of the pool.
    queued_demand_blocks_ -= BlocksForRequest(*seq.request);
    Trace(obs::RequestEventKind::kQueueWait,
          static_cast<std::int64_t>(seq.stream_index),
          seq.outcome.arrival_seconds, plan_.start_s);
  }
  return true;
}

bool ShardScheduler::DecodeOne(std::size_t seq_id) {
  Sequence& seq = seqs_[seq_id];
  if (seq.state != SeqState::kDecode) return true;  // preempted mid-tick
  // Deferred to a later tick when the pending token's KV does not fit.
  if (!EnsureKvToken(seq_id, seq.pending_token)) return error_.ok();
  // Draft phase: propose k tokens, roll their KV back, and let the
  // deterministic acceptance model decide how long a run this tick's
  // verify group commits (k = 0 is plain decode: one row). Committed
  // tokens are always the target model's own sampled tokens --
  // speculation collapses latency, never changes stream content.
  std::int32_t drafted = 0;
  const std::int32_t accepted = DraftAndAccept(seq_id, &drafted);
  if (!error_.ok()) return false;
  std::int32_t commits = 0;
  double row_seconds = 0.0;  // the newest committed row's cost
  for (std::int32_t step = 0; step <= accepted; ++step) {
    if (step > 0 && !EnsureKvToken(seq_id, seq.pending_token)) {
      if (!error_.ok()) return false;
      break;  // pool dry mid-verify: the rest commits on a later tick
    }
    std::span<const float> logits;
    const std::optional<double> cost = ForwardToken(
        seq, seq.pending_token, static_cast<std::int32_t>(seq.fed.size()),
        &logits);
    if (!cost) return false;
    row_seconds = *cost;
    seq.fed.push_back(seq.pending_token);
    seq.cursor = static_cast<std::int32_t>(seq.fed.size());
    seq.high_water = std::max(seq.high_water, seq.cursor);
    seq.outcome.generated.push_back(seq.pending_token);
    tick_emissions_.push_back(
        Emission{seq_id, seq.pending_token, FinishReason::kNone});
    AddOutstanding(seq.request->tier, -1);  // one less decode token owed
    ++report_.total_tokens;
    work_.decode_rows.push_back(seq_id);
    ++commits;
    if (step > 0) ++report_.spec_accepted_tokens;
    if (!seq.budget_left()) {
      FinishSequence(seq_id, FinishReason::kLength);
      break;
    }
    SampleNext(seq, logits);
    if (ShouldStop(seq)) {
      FinishSequence(seq_id, FinishReason::kStop);
      break;
    }
  }
  if (commits > 0) work_.committed.push_back(seq_id);
  if (drafted > 0) {
    // The verify group launched 1 + drafted rows; rows past the
    // committed run are wasted work the packed launch still priced
    // (each at the last committed row's cost), and the draft model's
    // own k rows ride along at the configured cost ratio.
    const std::int32_t wasted = 1 + drafted - commits;
    for (std::int32_t w = 0; w < wasted; ++w) {
      tick_cost_.AddProblem(row_seconds);
    }
    tick_cost_.AddDraftRows(drafted, row_seconds,
                            config_.speculative.draft_cost_ratio);
    report_.spec_wasted_tokens += wasted;
    // Accepted drafts actually committed.
    Trace(obs::RequestEventKind::kVerifyAccept,
          static_cast<std::int64_t>(seq.stream_index), plan_.start_s,
          plan_.start_s, commits - 1);
  }
  return error_.ok();
}

bool ShardScheduler::PrefillChunk(std::size_t seq_id, std::int32_t chunk) {
  Sequence& seq = seqs_[seq_id];
  if (seq.state != SeqState::kPrefill) return true;  // preempted mid-tick
  std::int32_t done = 0;
  for (std::int32_t k = 0; k < chunk; ++k) {
    const std::int32_t pos = seq.cursor;
    const std::int32_t token = seq.fed[static_cast<std::size_t>(pos)];
    if (!EnsureKvToken(seq_id, token)) {
      if (!error_.ok()) return false;
      break;  // pool dry with no victims: resume next tick
    }
    std::span<const float> logits;
    if (!ForwardToken(seq, token, pos, &logits)) return false;
    ++seq.cursor;
    AddOutstanding(seq.request->tier, -1);  // one less prefill token owed
    if (seq.cursor <= seq.high_water) {
      ++report_.recomputed_tokens;  // swap-in recompute pass
    } else {
      seq.high_water = seq.cursor;
      ++report_.total_tokens;
    }
    ++done;
    if (seq.remaining_prefill() > 0) continue;
    if (seq.pending_token < 0) {
      // Original prefill complete: the first decoded token is sampled
      // from these logits and committed next tick.
      SampleNext(seq, logits);
      if (seq.outcome.first_token_seconds == 0.0) {
        work_.ttft.push_back(seq_id);
      }
      if (ShouldStop(seq)) {
        // The very first sampled token is EOS/stop: finish with an
        // empty generation, never entering decode.
        FinishSequence(seq_id, FinishReason::kStop);
        break;
      }
    }
    seq.state = SeqState::kDecode;
    if (role_ == ShardRole::kPrefill && handoff_hook_) {
      // Prefill-role shard: ship the finished KV to a decode shard at
      // tick close (after TTFT is stamped). A mid-tick preemption
      // revokes the plan -- the KV is gone, so it recomputes and hands
      // off on a later tick.
      work_.handoff_ready.push_back(seq_id);
    }
    break;
  }
  if (done > 0) {
    work_.prefill.emplace_back(seq_id, done);
    work_.prefill_tokens += done;
  }
  return error_.ok();
}

void ShardScheduler::CloseTick() {
  const std::int64_t executed_tokens =
      static_cast<std::int64_t>(work_.decode_rows.size()) +
      work_.prefill_tokens;
  if (executed_tokens == 0 && plan_.restored == 0) {
    // Nothing runnable (e.g. every planned item was deferred). Progress
    // requires an external event; arrivals restart the tick chain.
    if (!residents_.empty() || !waiting_.empty()) {
      error_ = Internal("scheduler tick made no progress with " +
                        std::to_string(residents_.size()) + " residents and " +
                        std::to_string(waiting_.size()) + " waiting");
    }
    return;
  }

  const double tick_seconds = tick_cost_.group_seconds();
  const sim::Cycles end_cycles =
      engine_.now() +
      std::max<sim::Cycles>(1, SecondsToCycles(tick_seconds));
  const double end_s = u280_.cycles_to_seconds(end_cycles);
  last_tick_end_cycles_ = std::max(last_tick_end_cycles_, end_cycles);
  busy_seconds_ += tick_seconds;

  for (std::size_t seq_id : work_.committed) {
    seqs_[seq_id].outcome.completion_seconds = end_s;
  }
  for (std::size_t seq_id : work_.ttft) {
    Sequence& seq = seqs_[seq_id];
    if (seq.outcome.first_token_seconds != 0.0) continue;
    seq.outcome.first_token_seconds = end_s;
    Trace(obs::RequestEventKind::kFirstToken,
          static_cast<std::int64_t>(seq.stream_index), end_s, end_s);
  }
  for (const Emission& e : tick_emissions_) {
    // A stop at the end of prefill finishes with no decode commit; its
    // completion is this tick's end like any other finisher's.
    if (e.token < 0 && seqs_[e.seq_id].outcome.completion_seconds == 0.0) {
      seqs_[e.seq_id].outcome.completion_seconds = end_s;
    }
  }
  // Ship prefill-complete sequences after their TTFT stamps are final;
  // the KV pages are extractable once the tick's work is done.
  for (std::size_t seq_id : work_.handoff_ready) {
    if (seqs_[seq_id].state != SeqState::kDecode) continue;  // preempted
    ExtractHandoff(seq_id, end_cycles);
  }

  ++report_.ticks;
  width_sum_ += static_cast<std::int64_t>(work_.decode_rows.size() +
                                          work_.prefill.size());
  RecordTick(end_s, tick_seconds, end_cycles, executed_tokens);

  // Stream this tick's commits at its end time, ahead of the next tick
  // (the delivery event is scheduled first, so FIFO runs it first):
  // callbacks observe a settled shard and may Submit/Cancel reentrantly.
  if (!tick_emissions_.empty()) {
    pending_emissions_.insert(pending_emissions_.end(),
                              tick_emissions_.begin(), tick_emissions_.end());
    tick_emissions_.clear();
    engine_.ScheduleAt(end_cycles, [this] { DeliverEmissions(); });
  }

  if (!residents_.empty() || !waiting_.empty()) ScheduleTick(end_cycles);

  // The rebalance hook runs last, with this tick's state fully settled:
  // the cluster may steal queued requests from us or submit elsewhere.
  if (kv_blocked_ && kv_pressure_hook_) kv_pressure_hook_();
}

void ShardScheduler::RecordTick(double end_s, double tick_seconds,
                                sim::Cycles end_cycles,
                                std::int64_t executed_tokens) {
  // Tick history lives on the telemetry trace: the tick and its
  // per-sequence work.
  const double start_s = plan_.start_s;
  Trace(obs::RequestEventKind::kTick, -1, start_s, end_s, executed_tokens);
  for (std::size_t id : work_.decode_rows) {
    Trace(obs::RequestEventKind::kDecodeToken,
          static_cast<std::int64_t>(seqs_[id].stream_index), start_s, end_s,
          1);
  }
  for (const auto& [id, n] : work_.prefill) {
    Trace(obs::RequestEventKind::kPrefillChunk,
          static_cast<std::int64_t>(seqs_[id].stream_index), start_s, end_s,
          n);
  }
  if (!telemetry_.metrics()) return;
  obs::ShardTickSample sample;
  sample.end_seconds = end_s;
  sample.tick_seconds = tick_seconds;
  sample.decode_tokens = static_cast<std::int64_t>(work_.decode_rows.size());
  sample.prefill_tokens = work_.prefill_tokens;
  sample.queue_depth = num_waiting();
  sample.running_seqs = num_residents();
  sample.kv_blocks_in_use = pool_.used_blocks();
  sample.kv_blocks_evictable = pool_.evictable_blocks();
  const KvPoolStats& ps = pool_.stats();
  sample.cum_cache_hit_tokens = ps.prefix_hit_tokens;
  sample.cum_cache_lookup_tokens = ps.prefix_lookup_tokens;
  sample.cum_dma_bytes = ps.dma_bytes_moved;
  sample.cum_preemptions = ps.preemption_releases;
  sample.spec_draft_tokens =
      report_.spec_draft_tokens - work_.spec_draft_at_open;
  sample.spec_accepted_tokens =
      report_.spec_accepted_tokens - work_.spec_accept_at_open;
  // The tick event runs at its *start* cycles, so snapshotting the
  // registry here would interleave out of timestamp order with other
  // cards' overlapping ticks. Defer the snapshot to an event at the
  // tick's end: the event queue then serializes samples in time order.
  if (telemetry_.OnTickEnd(sample)) {
    engine_.ScheduleAt(end_cycles,
                       [this, end_s] { telemetry_.SampleNow(end_s); });
  }
}

bool ShardScheduler::Check(const Status& st) {
  if (!st.ok() && error_.ok()) error_ = st;
  return st.ok();
}

void ShardScheduler::Trace(obs::RequestEventKind kind, std::int64_t stream,
                           double start_s, double end_s, std::int64_t tokens,
                           std::int64_t bytes, std::string_view detail) {
  if (!telemetry_.tracing()) return;
  obs::RequestEvent ev;
  ev.kind = kind;
  ev.stream = stream;
  ev.tick = tick_index_;
  ev.start_seconds = start_s;
  ev.end_seconds = end_s;
  ev.tokens = tokens;
  ev.bytes = bytes;
  ev.detail = detail;
  telemetry_.Record(std::move(ev));
}

sim::Cycles ShardScheduler::SecondsToCycles(double seconds) const {
  return static_cast<sim::Cycles>(
      std::llround(seconds * u280_.clock_mhz * 1e6));
}

}  // namespace speedllm::serving
