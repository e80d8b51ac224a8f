// SpeedLLM -- one card's continuous-batching shard, externally driven.
//
// ShardScheduler is the per-card execution core: a paged KvBlockPool
// plus the tick loop that batches decode sequences and prefill chunks
// into grouped forward passes. A shard schedules its ticks on an engine
// *provided by the caller*, so N shards interleave on one shared
// sim::Engine clock. serving::ClusterSession (serving/cluster.hpp) is
// the only owner of shards; a single card is a cluster of one.
//
// Requests enter via Submit() (typically from an arrival event or a
// cluster rebalance); the shard schedules its own tick chain from there.
// Sampler streams are seeded from the request's *global* stream index, so
// token streams are identical no matter which shard serves a request.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "accel/program.hpp"
#include "common/status.hpp"
#include "hw/grouped_cost.hpp"
#include "hw/u280_config.hpp"
#include "llama/sampler.hpp"
#include "llama/weights.hpp"
#include "obs/telemetry.hpp"
#include "serving/interconnect.hpp"
#include "serving/kv_pool.hpp"
#include "serving/request.hpp"
#include "serving/scheduler.hpp"
#include "sim/engine.hpp"

namespace speedllm::accel {
class Executor;
}  // namespace speedllm::accel

namespace speedllm::serving {

/// Clamps scheduler knobs to their sane minima (applied once per session
/// before the per-card fan-out).
SchedulerConfig NormalizeSchedulerConfig(SchedulerConfig config);

/// KV pool budget for one card: the explicit override clamped to HBM, or
/// HBM capacity minus the resident-weight + activation/staging reserve.
std::uint64_t DeriveKvPoolBytes(const accel::Program& program,
                                const hw::U280Config& u280,
                                std::uint64_t override_bytes);

/// Amortized per-tick cost of a grouped launch on one card: the weight
/// stream crosses HBM once per tick regardless of batch width, and
/// launch/DMA-setup control runs once per kernel group.
double DeriveSharedStepSeconds(const accel::Program& program,
                               const hw::U280Config& u280);

/// Validates one request against model limits and a pool of
/// `pool_blocks` blocks of `block_size` tokens, and its tier against
/// [0, kNumTiers). `tag` labels errors ("request 3").
Status ValidateRequest(const ServingRequest& req, const std::string& tag,
                       const llama::ModelConfig& model,
                       std::int64_t pool_blocks, std::int64_t block_size);

/// One card's continuous-batching execution core: a paged KvBlockPool
/// plus the tick loop that batches decode sequences and prefill chunks
/// into grouped forward passes on an engine provided by the caller.
/// N shards interleave on one shared sim::Engine clock under a
/// ClusterSession.
class ShardScheduler {
 public:
  /// `program`, `weights`, `engine`, and `interconnect` must outlive the
  /// shard. `config` must already be normalized. Ticks are scheduled on
  /// `engine`; the caller drives engine.Run(). All COW/restore/swap DMA
  /// queues on `interconnect`'s HBM stations for card `card`,
  /// serializing with concurrent KV transfers. `role` is the shard's
  /// disaggregation role (ClusterConfig::shard_roles).
  ShardScheduler(const accel::Program& program, const llama::Weights& weights,
                 const hw::U280Config& u280, const SchedulerConfig& config,
                 sim::Engine& engine, Interconnect& interconnect,
                 std::int32_t card, ShardRole role = ShardRole::kUnified);
  /// Destroys the shard; unharvested outcomes are discarded.
  ~ShardScheduler();

  /// Non-copyable: the shard owns live executor slots and pool state.
  ShardScheduler(const ShardScheduler&) = delete;
  /// Non-assignable: the shard owns live executor slots and pool state.
  ShardScheduler& operator=(const ShardScheduler&) = delete;

  /// Enqueues `request` on this shard at the current engine time and
  /// schedules a tick if none is pending. `stream_index` is the request's
  /// global index: it seeds the per-request sampler stream
  /// (sampler_config.seed + stream_index * 7919) and keys the outcome in
  /// the harvested report. `request` must outlive the shard.
  void Submit(const ServingRequest& request, std::size_t stream_index,
              const llama::SamplerConfig& sampler_config);

  // ----- online streaming (api::Engine) -----
  /// Streams tokens/finishes out of the tick loop. Tokens committed by a
  /// tick are delivered (in commit order) by an engine event at the
  /// tick's simulated end time, so hook code observes a settled shard and
  /// may Submit/Abort reentrantly. Hooks must be set before the first
  /// tick runs; emission buffering is active regardless so Abort can
  /// guarantee a cancelled stream never emits again.
  void set_emission_hooks(TokenEmissionHook on_token,
                          FinishEmissionHook on_finish) {
    on_token_ = std::move(on_token);
    on_finish_ = std::move(on_finish);
  }

  /// Cancels the live sequence serving global stream `stream_index`:
  /// frees its KV blocks and executor slot immediately, truncates its
  /// outcome to the tokens already delivered, scrubs undelivered
  /// emissions, and fires the finish hook with FinishReason::kCancelled
  /// before returning. A sequence that finished internally but whose
  /// finish emission is still undelivered cancels too -- the client has
  /// observed nothing final, so the cancel wins the race. NotFound when
  /// this shard has no live sequence for the stream; FailedPrecondition
  /// when the finish was already delivered. Must not be called from
  /// inside a tick (hook callbacks are safe).
  Status Abort(std::size_t stream_index);

  // ----- disaggregation (ClusterSession wiring) -----
  /// Fires when this prefill-role shard finishes a sequence's prompt:
  /// the handoff carries everything the decode shard needs, and `ready`
  /// is the engine cycle the KV pages are extractable (the tick's end).
  /// The hook owns routing the transfer and calling AdoptHandoff on the
  /// destination. Without a hook a prefill-role shard falls back to
  /// unified behavior (it decodes its own sequences).
  using HandoffHook = std::function<void(KvHandoff handoff, sim::Cycles ready)>;
  /// Installs the handoff hook. Must be set before the first tick runs.
  void set_handoff_hook(HandoffHook hook) { handoff_hook_ = std::move(hook); }

  /// Adopts a prefill-complete sequence shipped from a prefill shard
  /// (its KV pages have already arrived: call this at the transfer's end
  /// time). The sequence queues for a resident slot and joins the decode
  /// set without re-running prefill -- its KV is mapped at zero forward
  /// cost -- and its token stream continues byte-identically.
  void AdoptHandoff(KvHandoff handoff);

  /// Estimated seconds to recompute `tokens` prefill tokens locally:
  /// the fraction of amortized full-tick shared cost the tokens occupy.
  /// The fetch-vs-recompute admission arbiter compares this against the
  /// interconnect's transfer estimate.
  double EstimateRecomputeSeconds(std::int64_t tokens) const {
    return shared_seconds_ * static_cast<double>(tokens) /
           static_cast<double>(config_.max_batch_tokens);
  }

  /// Installs `tokens`' full-block prefix into this shard's prefix cache
  /// as ownerless evictable blocks (KvBlockPool::InstallCachedPrefix):
  /// the landing pad for a remote prefix fetch or a directory-snapshot
  /// warm start. No DMA is charged here -- the caller accounts the move.
  std::int64_t InstallCachedPrefix(std::span<const std::int32_t> tokens,
                                   std::int64_t max_tokens) {
    return pool_.InstallCachedPrefix(tokens, max_tokens);
  }

  /// Mutable pool access for cluster-level wiring (PrefixDirectory
  /// attachment). Scheduling state stays shard-owned.
  KvBlockPool& mutable_pool() { return pool_; }

  /// This shard's disaggregation role (set at construction).
  ShardRole role() const { return role_; }

  // ----- telemetry -----
  /// Attaches the cluster's telemetry channel (lifecycle trace sink +
  /// per-card metric ids). Must be set before the first tick runs.
  void set_telemetry(obs::ShardChannel channel) {
    telemetry_ = std::move(channel);
  }

  // ----- placement-policy queries -----
  /// This shard's KV block pool (placement policies read its capacity
  /// and occupancy).
  const KvBlockPool& pool() const { return pool_; }
  /// KV pool capacity in bytes.
  std::uint64_t pool_bytes() const { return pool_.capacity_bytes(); }
  /// Amortized per-tick shared cost (weight stream + launch overhead).
  double shared_step_seconds() const { return shared_seconds_; }
  /// Free KV blocks minus the full eventual footprint (prompt + budget)
  /// of every queued, never-admitted request -- the headroom a placement
  /// policy should bid with, since queued demand is already committed.
  /// O(1): maintained incrementally at submit/admit/steal time.
  std::int64_t projected_free_kv_blocks() const {
    return pool_.free_blocks() - queued_demand_blocks_;
  }
  /// Tokens of work still owed: remaining prefill plus remaining decode
  /// budget across every live sequence (waiting or resident). O(1):
  /// maintained incrementally as tokens are submitted/processed.
  std::int64_t outstanding_tokens() const { return outstanding_tokens_; }
  /// Outstanding tokens owed to requests at priority `tier` or higher
  /// (numerically lower-or-equal). Tier-aware placement bids with this:
  /// work a new arrival would outrank does not count against a card.
  std::int64_t outstanding_tokens_at_or_above(RequestTier tier) const;
  /// Requests queued on this shard (arrived, not resident).
  std::int64_t num_waiting() const {
    return static_cast<std::int64_t>(waiting_.size());
  }
  /// Sequences currently resident in the batch.
  std::int64_t num_residents() const {
    return static_cast<std::int64_t>(residents_.size());
  }
  /// Blocks `request` will occupy at its maximum extent.
  std::int64_t BlocksForRequest(const ServingRequest& request) const;

  // ----- cluster rebalancing -----
  /// Filters rebalance candidates by global stream index (e.g. "has this
  /// request exhausted its migration budget?"). Null accepts everything.
  using StreamPredicate = std::function<bool(std::size_t stream_index)>;
  /// Newest queued request that has never been admitted (prefill not
  /// started) and satisfies `eligible`, or nullopt. Does not remove it.
  std::optional<std::pair<const ServingRequest*, std::size_t>>
  PeekNewestQueued(const StreamPredicate& eligible = nullptr) const;
  /// Removes the newest never-admitted, eligible queued request and
  /// returns it for resubmission elsewhere. The local sequence is marked
  /// migrated and excluded from this shard's report.
  std::optional<std::pair<const ServingRequest*, std::size_t>>
  StealNewestQueued(const StreamPredicate& eligible = nullptr);
  /// Invoked at the end of any tick in which admission or decode was
  /// blocked by KV-pool capacity (the cluster's rebalance trigger). Runs
  /// after the tick's own state is settled, so the hook may Steal/Submit.
  void set_kv_pressure_hook(std::function<void()> hook) {
    kv_pressure_hook_ = std::move(hook);
  }

  // ----- harvest (after the engine drains) -----
  /// OK when every submitted (non-migrated) request ran to completion.
  Status Finalize() const;
  /// Aggregate report for this shard. Outcomes are ordered by stream
  /// index; `stream_indices` (optional) receives the global index of each
  /// outcome. Call once, after Finalize().
  ServingReport TakeReport(std::vector<std::size_t>* stream_indices);

  /// Wall-clock end of the shard's last tick, cycles.
  sim::Cycles last_tick_end_cycles() const { return last_tick_end_cycles_; }
  /// Total simulated seconds this shard's ticks occupied (utilization
  /// numerator; the denominator is the cluster makespan).
  double busy_seconds() const { return busy_seconds_; }

 private:
  enum class SeqState {
    kWaiting,
    kPrefill,
    kDecode,
    kDone,
    kMigrated,
    kCancelled,
    kHandedOff,  // shipped to a decode shard; outcome travels with it
  };

  struct Sequence {
    const ServingRequest* request = nullptr;
    std::size_t stream_index = 0;
    llama::Sampler sampler;
    SeqState state = SeqState::kWaiting;

    // Committed tokens fed to the model: prompt followed by generated
    // tokens. `cursor` counts tokens fed since the last (re)admission;
    // `high_water` marks how much of `fed` has been processed at least
    // once, so swap-in recompute work is distinguishable from first-pass
    // prefill.
    std::vector<std::int32_t> fed;
    std::int32_t cursor = 0;
    std::int32_t high_water = 0;
    std::int32_t pending_token = -1;  // sampled but not yet committed
    std::int32_t delivered = 0;       // generated tokens already emitted
    int slot = -1;                    // executor slot while resident
    std::int64_t admission_order = -1;
    std::int64_t wait_since_tick = 0;
    bool ever_admitted = false;
    // One-shot: an adopted handoff's first admission maps its shipped KV
    // at zero forward cost instead of prefilling. Cleared on admission;
    // a later preemption recomputes normally (the shipped KV is gone).
    bool adopt_pending = false;
    RequestOutcome outcome;

    explicit Sequence(llama::Sampler s) : sampler(std::move(s)) {}

    std::int32_t remaining_prefill() const {
      return static_cast<std::int32_t>(fed.size()) - cursor;
    }
    bool budget_left() const {
      return static_cast<std::int32_t>(outcome.generated.size()) <
             request->max_new_tokens;
    }
  };

  /// One undelivered stream event: a committed token (`token` >= 0) or a
  /// finish marker (`token` < 0, `finish` set). Buffered per tick and
  /// delivered by an engine event at the tick's end time.
  struct Emission {
    std::size_t seq_id = 0;
    std::int32_t token = -1;
    FinishReason finish = FinishReason::kNone;
  };

  /// One tick's plan, built by PlanTick: the funded decode set in run
  /// order and the prefill chunks, after admissions (which register,
  /// restore cached prefixes and replay adopted handoffs) have run.
  struct TickPlan {
    double start_s = 0.0;             // tick start, simulated seconds
    std::vector<std::size_t> decode;  // funded decode sequences
    std::vector<std::pair<std::size_t, std::int32_t>> prefill;  // (seq, chunk)
    std::int64_t restored = 0;  // tokens mapped by restores and replays
  };

  /// What executing a TickPlan did; CloseTick prices and commits it.
  /// Capacity a finisher frees is released immediately, so a later chunk
  /// in the same tick may use it; timestamps wait for the tick's length.
  struct TickWork {
    std::vector<std::size_t> committed;    // decode seqs with a commit
    std::vector<std::size_t> ttft;         // first token sampled
    std::vector<std::size_t> decode_rows;  // one entry per committed row
    std::vector<std::pair<std::size_t, std::int32_t>> prefill;  // (seq, n)
    std::int64_t prefill_tokens = 0;
    std::vector<std::size_t> handoff_ready;  // prefill-role ship list
    std::int64_t spec_draft_at_open = 0;
    std::int64_t spec_accept_at_open = 0;
  };

  void ScheduleTick(sim::Cycles at);
  /// One tick: PlanTick, then DecodeOne / PrefillChunk over the plan,
  /// then CloseTick.
  void RunTick();
  /// Funds decode, continues resident prefills, then admits waiting
  /// requests. False on a hard error.
  bool PlanTick();
  /// Fills plan_.decode from `budget` tokens and returns what is left.
  /// Each decode sequence draws 1 + draft_tokens units. When the budget
  /// cannot cover every decoding sequence, a window rotates over them;
  /// with tiers on, whole tiers are funded in priority order first and
  /// the window rotates only inside the first tier that does not fit.
  std::int32_t FundDecode(std::int32_t budget);
  /// Admits waiting requests in policy order while `prefill_budget`,
  /// batch width and pool capacity allow, planning each one's first
  /// prefill chunk. False on a hard error.
  bool AdmitWaiting(std::int32_t prefill_budget);
  /// KV blocks admitting `seq` takes from the free pool, net of cached
  /// blocks a live resident already holds.
  std::int64_t AdmissionBlocks(const Sequence& seq) const;
  /// Makes waiting `seq_id` resident: pool registration, a slot, and the
  /// first-admission stamps. False on a hard error.
  bool Admit(std::size_t seq_id);
  /// Commits one funded decode sequence's verify group: the pending
  /// token plus any accepted drafts (k = 0 is plain decode). False on a
  /// hard error.
  bool DecodeOne(std::size_t seq_id);
  /// Runs up to `chunk` prefill tokens of `seq_id`. False on a hard
  /// error.
  bool PrefillChunk(std::size_t seq_id, std::int32_t chunk);
  /// Prices the tick (tick_cost_.group_seconds()) and commits it:
  /// timestamps, handoffs, trace and metrics, emissions, the next tick
  /// and the KV-pressure hook.
  void CloseTick();
  /// The tick's trace events and metrics sample.
  void RecordTick(double end_s, double tick_seconds, sim::Cycles end_cycles,
                  std::int64_t executed_tokens);
  /// Waiting-queue candidates in admission order for this tick.
  const std::vector<std::size_t>& AdmissionCandidates();
  /// Adjusts the total and per-tier outstanding-token counters together
  /// (every mutation site routes through here so they never diverge).
  void AddOutstanding(RequestTier tier, std::int64_t delta);
  bool EnsureKvToken(std::size_t seq_id, std::int32_t token);
  /// Maps `seq`'s longest cached prefix onto shared pool blocks and
  /// functionally rebuilds the slot executor's KV for it. No forward
  /// compute or weight traffic is owed for the restored tokens (on the
  /// device they are already resident in HBM), but the restore's DMA
  /// read is charged through ChargeDma. Returns the restored token
  /// count, or -1 on a hard error.
  std::int64_t RestoreCachedPrefix(std::size_t seq_id);
  /// Converts pool DMA bytes accrued since the last call (one COW copy,
  /// cache restore, or preemption swap-out per call site) into simulated
  /// time on the current tick when SchedulerConfig::charge_dma_cost is
  /// on: transfer latency + DMA setup + bytes over the HBM aggregate
  /// bandwidth. Byte counters accumulate regardless. `cause` labels the
  /// move ("cow" / "restore" / "swap-out") and `seq_id` attributes it in
  /// the telemetry trace. Returns the bytes moved.
  std::int64_t ChargeDma(const char* cause, std::size_t seq_id);
  /// Deterministic int8 accuracy proxy: perturbs `logits` with tiny
  /// pseudo-noise seeded by (stream index, KV block index) only, so
  /// streams stay reproducible under any batch composition, card count,
  /// or preemption schedule.
  void PerturbLogitsForQuant(const Sequence& seq,
                             std::span<float> logits) const;
  /// Drops resident `seq_id`'s pool references, executor slot and
  /// resident entry (`preempted` counts it as a preemption release).
  void Evict(std::size_t seq_id, bool preempted);
  void Preempt(std::size_t victim);
  /// Ships `seq_id` (prefill complete, first token sampled and TTFT
  /// stamped) to the cluster's handoff hook: releases its KV/slot here,
  /// marks it kHandedOff, and hands the hook a KvHandoff with the moved
  /// sampler so the decode shard's stream continues byte-identically.
  void ExtractHandoff(std::size_t seq_id, sim::Cycles ready);
  /// First local admission of an adopted handoff: maps its shipped KV
  /// onto pool blocks and replays the slot executor at zero simulated
  /// compute (the pages arrived over the interconnect; the transfer
  /// already paid), so it joins the decode set next tick. A pool that
  /// runs dry mid-replay leaves the tail to recompute as ordinary
  /// prefill. False on a hard error.
  bool ReplayAdoptedKv(std::size_t seq_id);
  int AcquireSlot();
  void ReleaseSlot(Sequence& seq);
  /// Runs one forward through `seq`'s slot executor and folds its
  /// simulated cost into the tick. Returns the row's cost in seconds, or
  /// nullopt on a hard error.
  std::optional<double> ForwardToken(Sequence& seq, std::int32_t token,
                                     std::int32_t pos,
                                     std::span<const float>* logits);
  /// Runs one decode sequence's draft phase: proposes up to the
  /// configured k draft tokens as a KvBlockPool speculation phase
  /// (rolled back before any verify commit, so draft content never
  /// reaches the prefix cache), charges any DMA the drafts moved, and
  /// evaluates the deterministic acceptance model. Returns the accepted
  /// run length; `drafted` receives the proposals actually made (the
  /// pool may cut a draft short when blocks run dry). k = 0 returns 0
  /// before any side effect.
  std::int32_t DraftAndAccept(std::size_t seq_id, std::int32_t* drafted);
  void SampleNext(Sequence& seq, std::span<const float> logits);
  bool ShouldStop(const Sequence& seq) const;
  void FinishSequence(std::size_t seq_id, FinishReason reason);
  void DeliverEmissions();
  /// Records a failed call's status in error_ (the first failure wins),
  /// so Finalize reports it in every build type. Returns st.ok().
  bool Check(const Status& st);
  /// Records one telemetry trace event when tracing is on; instants pass
  /// start_s == end_s. `stream` is -1 for shard-level events.
  void Trace(obs::RequestEventKind kind, std::int64_t stream, double start_s,
             double end_s, std::int64_t tokens = 0, std::int64_t bytes = 0,
             std::string_view detail = {});
  double NowSeconds() const { return u280_.cycles_to_seconds(engine_.now()); }
  sim::Cycles SecondsToCycles(double seconds) const;

  const accel::Program& program_;
  const llama::Weights& weights_;
  const hw::U280Config& u280_;
  SchedulerConfig config_;
  double shared_seconds_ = 0.0;

  sim::Engine& engine_;
  KvBlockPool pool_;
  std::vector<Sequence> seqs_;          // one per submitted request
  std::deque<std::size_t> waiting_;     // arrived, not resident (local ids)
  std::vector<std::size_t> residents_;  // admission order (local ids)
  std::vector<std::unique_ptr<accel::Executor>> slots_;
  std::vector<int> free_slots_;
  std::vector<float> sample_scratch_;
  // Per-tick scratch, reused across ticks.
  TickPlan plan_;
  TickWork work_;
  std::vector<std::size_t> decoding_;
  std::vector<std::size_t> candidates_;
  std::function<void()> kv_pressure_hook_;
  HandoffHook handoff_hook_;
  Interconnect& interconnect_;  // cluster-shared stations
  std::int32_t card_id_ = 0;
  ShardRole role_ = ShardRole::kUnified;
  sim::Cycles dma_charged_until_ = 0;  // end of the last time-charged DMA
  obs::ShardChannel telemetry_;
  TokenEmissionHook on_token_;
  FinishEmissionHook on_finish_;
  std::vector<Emission> tick_emissions_;     // current tick, pre-timestamp
  std::deque<Emission> pending_emissions_;   // awaiting the delivery event

  bool tick_pending_ = false;
  bool kv_blocked_ = false;  // this tick hit pool exhaustion
  std::int64_t dma_bytes_seen_ = 0;  // pool DMA bytes already time-charged
  std::int64_t outstanding_tokens_ = 0;    // see outstanding_tokens()
  std::array<std::int64_t, kNumTiers> tier_outstanding_{};  // by TierIndex
  std::int64_t queued_demand_blocks_ = 0;  // never-admitted waiting demand
  std::int64_t tick_index_ = 0;
  std::int64_t next_admission_ = 0;
  std::size_t rr_offset_ = 0;
  sim::Cycles last_tick_end_cycles_ = 0;
  double busy_seconds_ = 0.0;
  // Per-tick grouped-launch cost accumulator: every forward row, wasted
  // verify row, draft row, and serial DMA second of the current tick
  // lands here; the tick's length is tick_cost_.group_seconds().
  hw::GroupedKernelCostModel tick_cost_;
  std::int64_t width_sum_ = 0;
  Status error_;
  ServingReport report_;
};

}  // namespace speedllm::serving
