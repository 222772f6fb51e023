// Self-organizing hierarchical cluster-timestamp engine (§2.3) — the
// primary contribution this repository reproduces.
//
// One pass over the delivery order. For each event the engine first computes
// its Fidge/Mattern timestamp, then:
//  * not a cluster receive → store the projection over its cluster;
//  * mergeable cluster receive (combined size fits maxCS and the strategy
//    agrees) → merge the clusters; the event is no longer a cluster receive
//    and stores the projection over the merged cluster;
//  * non-mergeable cluster receive → store the full Fidge/Mattern vector and
//    note it as the greatest cluster receive of its process so far.
// Fidge/Mattern vectors that are no longer needed are not retained (the
// FmEngine keeps only per-process heads and in-flight sends).
//
// Space accounting follows §4's conventions: full vectors are encoded with a
// fixed width (default 300, the POET/OLT behaviour) and projections with a
// fixed width equal to the maximum cluster size, "since any variation in
// sizing of the vectors is likely to have a detrimental impact on the
// memory-allocation system" (§3.1).
//
// The precedence test (constant-ish time, see DESIGN.md §3):
//   e → f ⟺ p_e covered by TS(f):  index(e) ≤ TS(f)[p_e]          (exact)
//          otherwise:  ∃ q ∈ covered(f) with a cluster receive r_q at
//                      index ≤ TS(f)[q] and index(e) ≤ FM(r_q)[p_e]
// using the fact that FM(e)[p_e] is just e's own index, and that any causal
// path entering covered(f) from outside must pass through a non-merged
// cluster receive (whose full vector the engine retained).
//
// The timestamp store (docs/PERF.md §2): every stored row lives once, in a
// flat TsArena bundled with the indexes a query reads — a per-event RowRef,
// a dense process→position table per interned covered set, and the
// store-time-resolved greatest-cluster-receive probe of every projection
// slot — so the test above runs over contiguous pools with O(1) component
// lookups (core/precedence_kernels.hpp) instead of per-vector heap hops and
// binary searches. timestamp() materializes a ClusterTimestamp from it by
// value; digests, corruption injection and rebuilds read or rewrite it.
//
// Lock-free read publication: that bundle is one ArenaSnapshot behind an
// atomic pointer. Ingestion appends to the current snapshot in place
// (single-writer phase; serving and ingestion are mutually exclusive per
// the TsArena contract), while the mutation hooks that run DURING serving —
// inject_corruption and rebuild_cluster — deep-copy the snapshot, mutate
// the clone, publish it with a single atomic swap, and retire the old
// snapshot to the global epoch domain (util/epoch.hpp). Every reader pins
// util::EpochDomain::global() while it holds a snapshot: the broker pins
// around precedes/precedes_metered/precedes_batch_metered for its callers,
// while timestamp(), cluster_digest() and each PrecedenceCursor (for its
// lifetime) pin themselves. Rebuilds never block queries and the read path
// takes zero locks.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/cluster_set.hpp"
#include "cluster/merge_policy.hpp"
#include "core/cluster_timestamp.hpp"
#include "model/trace.hpp"
#include "timestamp/fm_engine.hpp"
#include "timestamp/query_cost.hpp"
#include "timestamp/ts_arena.hpp"
#include "util/epoch.hpp"

namespace ct {

struct ClusterEngineConfig {
  /// maxCS of paper Fig. 3 / §3.2 — the single tunable parameter.
  std::size_t max_cluster_size = 13;
  /// Fixed encoding width of full (Fidge/Mattern) vectors; §4 default 300.
  std::size_t fm_vector_width = 300;
  /// Fixed encoding width of projections; 0 means max_cluster_size. Set
  /// explicitly for unbounded static partitions (k-means/k-medoid ablation).
  std::size_t encoded_cluster_width = 0;
};

struct ClusterEngineStats {
  std::size_t process_count = 0;
  std::size_t events = 0;
  std::size_t cluster_receives = 0;
  std::size_t merges = 0;
  std::size_t final_clusters = 0;
  std::size_t largest_cluster = 0;
  /// Padded storage per §4's encoding convention, in 32-bit words.
  std::uint64_t encoded_words = 0;
  /// Unpadded storage (actual projection widths), in 32-bit words.
  std::uint64_t exact_words = 0;

  /// Average encoded timestamp size divided by the FM encoding width —
  /// the y axis of the paper's Figures 4 and 5.
  double average_ratio(std::size_t fm_vector_width) const {
    if (events == 0) return 0.0;
    return static_cast<double>(encoded_words) /
           (static_cast<double>(events) *
            static_cast<double>(fm_vector_width));
  }
};

class ClusterTimestampEngine {
 private:
  struct ArenaSnapshot;  // published read-side state, defined below

 public:
  /// Dynamic mode: singleton clusters, self-organizing via `policy`.
  ClusterTimestampEngine(std::size_t process_count, ClusterEngineConfig config,
                         std::unique_ptr<MergePolicy> policy);

  /// Static mode: preset partition, no further merging. Cross-partition
  /// receives are permanent cluster receives.
  ClusterTimestampEngine(std::size_t process_count, ClusterEngineConfig config,
                         const std::vector<std::vector<ProcessId>>& partition);

  /// Hybrid mode (§5 future work, variant 1): preset partition that keeps
  /// self-organizing through `policy` afterwards.
  ClusterTimestampEngine(std::size_t process_count, ClusterEngineConfig config,
                         const std::vector<std::vector<ProcessId>>& partition,
                         std::unique_ptr<MergePolicy> policy);

  /// Consumes the next event in delivery order and appends its row to the
  /// store.
  void observe(const Event& e);

  /// Convenience: observes an entire trace.
  void observe_trace(const Trace& trace);

  /// Timestamp of a previously-observed event, materialized from the
  /// published snapshot by value (the contract FmStore::clock has). Pins
  /// the global epoch domain itself, so it is safe against concurrent
  /// repairs.
  ClusterTimestamp timestamp(EventId e) const;

  /// Precedence: did `e` happen before `f`? Both must have been observed
  /// (a checked error otherwise). `ev_e`/`ev_f` are the event records
  /// (needed for the sync-partner rule). Counts its component comparisons
  /// into comparisons().
  bool precedes(const Event& ev_e, const Event& ev_f) const;

  /// Cost-instrumented precedence for the query broker: charges one tick per
  /// component comparison to `cost` and returns nullopt if the budget runs
  /// out mid-test. Unlike precedes(), touches no engine state, so concurrent
  /// calls with distinct meters are safe on a quiescent engine.
  std::optional<bool> precedes_metered(const Event& ev_e, const Event& ev_f,
                                       QueryCost& cost) const;

  /// Metered batch entry point (the broker's batch path): answers pairs in
  /// order with tick accounting identical to sequential precedes_metered
  /// calls. Returns the number of answered pairs; a return short of
  /// pairs.size() means the budget ran out at that pair (its slot and all
  /// later slots are untouched). For one-sided batches (a shared anchor),
  /// PrecedenceCursor amortizes far more — prefer it where it applies.
  std::size_t precedes_batch_metered(
      std::span<const std::pair<const Event*, const Event*>> pairs,
      QueryCost& cost, std::optional<bool>* out) const;

  /// Amortized one-sided precedence for frontier-style query batches (many
  /// tests against one fixed anchor event). Construction resolves the
  /// anchor's row, covered-set index, and — decisive for the x→anchor
  /// direction — the greatest cluster receive of every covered process
  /// ONCE; each test is then a handful of contiguous component reads.
  /// The cursor borrows the engine (no observe() may interleave with its
  /// use) and pins the epoch domain for its lifetime.
  class PrecedenceCursor {
   public:
    /// anchor → x. `ev_x` must have been observed (a checked error
    /// otherwise, here and in every call below).
    bool anchor_precedes(const Event& ev_x) const;
    /// x → anchor.
    bool precedes_anchor(const Event& ev_x) const;

    /// Batched one-sided tests (out[i] = 0/1, same answers as the scalar
    /// calls above in order): one transpose pass resolves each x's arena
    /// row pointer once and gathers the direct-test operands contiguously,
    /// then one batch_leq sweep compares them; pairs the direct test cannot
    /// decide fall back to the scalar probe walk inline.
    void anchor_precedes_batch(std::span<const Event* const> xs,
                               std::uint8_t* out) const;
    void precedes_anchor_batch(std::span<const Event* const> xs,
                               std::uint8_t* out) const;

   private:
    friend class ClusterTimestampEngine;
    PrecedenceCursor(const ClusterTimestampEngine& engine,
                     const Event& anchor);

    const ClusterTimestampEngine& engine_;
    /// Keeps the snapshot the cursor resolved its pointers from alive even
    /// if a concurrent repair publishes a newer one mid-lifetime.
    util::EpochDomain::Guard guard_;
    const ArenaSnapshot* snap_ = nullptr;
    EventId anchor_;
    EventId anchor_partner_;  // kNoEvent unless the anchor is a sync half
    const EventIndex* row_ = nullptr;     // anchor's component row
    const std::int32_t* pos_ = nullptr;   // dense process→slot, full row: null
    /// Resolved full rows of the greatest cluster receive per covered
    /// process of the anchor (empty for full-row anchors).
    std::vector<const EventIndex*> receive_rows_;
  };

  /// Builds a cursor anchored at `anchor`, which must have been observed.
  PrecedenceCursor cursor(const Event& anchor) const;

  // --- columnar export (src/store/) -------------------------------------

  /// Sentinels of the exported arena layout, shared with the on-disk CTC1
  /// columnar format: a row whose aux is kExportFullRow holds a full
  /// Fidge/Mattern vector; a probe slot of kExportNoProbe means "no cluster
  /// receive at or below the bound".
  static constexpr std::uint32_t kExportFullRow = 0xffff'ffffu;
  static constexpr std::uint32_t kExportNoProbe = 0xffff'ffffu;

  /// Read-only visitor over the published arena snapshot. The columnar
  /// snapshot store persists exactly what precedes() reads — the
  /// component pool, per-event row descriptors, resolved probe rows, and
  /// interned covered sets — so a mapped snapshot can answer precedence
  /// without replaying anything. Callbacks arrive in a fixed order: pool,
  /// covered sets (by ascending id), then per process its rows (ascending
  /// event index) followed by its probe pool.
  class ArenaExportSink {
   public:
    virtual ~ArenaExportSink() = default;
    virtual void pool(const EventIndex* data, std::size_t words) = 0;
    virtual void covered_set(std::uint32_t id,
                             std::span<const ProcessId> procs) = 0;
    /// One event row: pool offset, covered-set id (or kExportFullRow),
    /// probe offset, and stored component width.
    virtual void row(ProcessId p, std::uint32_t offset, std::uint32_t aux,
                     std::uint32_t probe_off, std::uint32_t width) = 0;
    virtual void probes(ProcessId p, const std::uint32_t* offsets,
                        std::size_t count) = 0;
  };

  /// Visits the published snapshot. Single-writer phase only: no observe()
  /// or repair may run concurrently.
  void export_arena(ArenaExportSink& sink) const;

  const ClusterSet& clusters() const { return clusters_; }
  ClusterEngineStats stats() const;

  /// Digest of the engine's observable state: cluster membership, cluster-
  /// receive positions, and the storage accounting. Two engines that
  /// observed the same delivery order have equal digests; snapshot restore
  /// (trace/snapshot.hpp) uses this to detect a divergent replay.
  std::uint64_t state_digest() const;

  /// Component-comparison count across precedes() calls (query-cost probe).
  std::uint64_t comparisons() const {
    return comparisons_.load(std::memory_order_relaxed);
  }

  /// Digest of the timestamp values stored for the processes of cluster `c`
  /// (an *online-auditable* slice of state_digest()). Any in-place mutation
  /// of a stored component or cluster-receive flag in that cluster changes
  /// the digest; the IntegrityAuditor compares against a trusted baseline.
  /// In-memory only (no snapshot format stores it). Reads the published
  /// snapshot under its own epoch pin.
  std::uint64_t cluster_digest(ClusterId c) const;

  /// Fault-injection hook (tests/benches model in-memory state corruption —
  /// a flipped bit in the timestamp store): overwrites component
  /// `slot % width` of e's stored row on a snapshot clone and publishes it.
  /// Never used on a healthy path.
  void inject_corruption(EventId e, std::size_t slot, EventIndex value);

  /// Self-repair hook: recomputes the stored timestamp *values* of every
  /// event of cluster `c`'s processes by replaying `log` (a valid delivery
  /// order covering all observed events; `event_of` resolves the records)
  /// through a scratch Fidge/Mattern engine. Structural state (membership,
  /// covered sets, cluster-receive positions) is re-derived per event from
  /// the retained shape, so a value-corrupted cluster is restored without
  /// rebuilding the other clusters. The rows are rewritten on one snapshot
  /// clone, published once. Returns vector elements written (work ticks of
  /// the repair).
  std::uint64_t rebuild_cluster(
      ClusterId c, std::span<const EventId> log,
      const std::function<const Event&(EventId)>& event_of);

  /// Store footprint in components, reported by the perf harness.
  std::size_t arena_words() const;

  ~ClusterTimestampEngine();
  ClusterTimestampEngine(const ClusterTimestampEngine&) = delete;
  ClusterTimestampEngine& operator=(const ClusterTimestampEngine&) = delete;

 private:
  /// RowRef::aux marker for rows holding a full Fidge/Mattern vector.
  static constexpr std::uint32_t kFullRowAux = 0xffff'ffffu;
  /// probe_pool marker for "no cluster receive at or below the bound".
  static constexpr std::uint32_t kNoProbe = 0xffff'ffffu;

  /// Per-event row descriptor, one 12-byte record instead of three
  /// parallel arrays: a query touches one cache line, not three.
  struct RowRef {
    std::uint32_t offset;     ///< row start in the arena pool
    std::uint32_t aux;        ///< covered-set id, or kFullRowAux
    std::uint32_t probe_off;  ///< start of the row's probes in probe_pool
  };

  /// Dense index of one interned covered set: pos[q] is q's slot in the
  /// projection, or -1. Replaces the per-query binary search.
  struct CoveredSet {
    std::shared_ptr<const std::vector<ProcessId>> procs;
    std::vector<std::int32_t> pos;
  };

  /// The one bounds check of every entry point, live in release builds:
  /// throws CheckFailure unless `f` names an event `snap` stores and `e` a
  /// process it has. (An unobserved `e` of a known process reads in bounds
  /// and precedes nothing, as delivery order is causal.) Single-event entry
  /// points pass their event as both operands.
  static void check_operands(const ArenaSnapshot& snap, EventId e, EventId f);
  /// check_operands' failure path, kept out of line.
  [[noreturn, gnu::cold, gnu::noinline]] static void unobserved(EventId id);

  /// Handles classification + merge decision for a receive-like event whose
  /// partner process is `q`. Returns true if the event is a (non-merged)
  /// cluster receive.
  bool classify_cluster_receive(const Event& e, ProcessId q,
                                std::uint64_t occurrences);

  std::uint32_t covered_set_id(
      ArenaSnapshot& snap,
      const std::shared_ptr<const std::vector<ProcessId>>& covered);

  /// Greatest cluster receive of `q` with index <= bound, as an arena pool
  /// offset (kNoProbe if none). At store time the answer is final: delivery
  /// order respects causality, so every event of q at or below a stored
  /// row's component has already been delivered. Offsets are layout-stable
  /// across snapshot clones, so any snapshot of this engine resolves them.
  std::uint32_t resolve_probe(const ArenaSnapshot& snap, ProcessId q,
                              EventIndex bound) const;

  /// Re-resolves the stored probe rows of a projection row whose component
  /// values were mutated (corruption injection / rebuild): the probes must
  /// follow the mutated bounds, exactly as a per-query search would.
  /// Operates on the given (writer-private) snapshot.
  void refresh_probes(ArenaSnapshot& snap, EventId id);

  /// The currently published snapshot.
  const ArenaSnapshot* snapshot() const {
    return snap_.load(std::memory_order_acquire);
  }

  /// Swaps `next` in as the published snapshot and retires the previous one
  /// to the global epoch domain. Caller holds snap_writer_mu_.
  void publish_snapshot(std::unique_ptr<ArenaSnapshot> next);

  ClusterEngineConfig config_;
  FmEngine fm_;
  ClusterSet clusters_;
  std::unique_ptr<MergePolicy> policy_;

  /// Indices of non-merged cluster receives per process, ascending.
  std::vector<std::vector<EventIndex>> cluster_receives_;
  /// Sync halves whose pair decision was taken at the partner's observation.
  std::unordered_set<EventId> sync_decided_;

  // --- the timestamp store ----------------------------------------------
  /// Everything stored and everything a query reads, bundled for atomic
  /// publication. Ingestion appends in place (single-writer phase);
  /// serving-time repairs clone-mutate-swap (see the header comment).
  /// Deep-copyable by design: handles and pool offsets are layout-stable
  /// across clones.
  struct ArenaSnapshot {
    ArenaSnapshot(std::size_t process_count, TsArena::Options options)
        : arena(process_count, options),
          row_refs(process_count),
          probe_pool(process_count) {}

    TsArena arena;  // interning OFF: repair clones overwrite rows
    /// Per event: its row descriptor (pool offset, covered set, probes).
    std::vector<std::vector<RowRef>> row_refs;
    /// Store-time-resolved probe rows: for each projection row, the pool
    /// offset of the greatest cluster receive per covered slot (kNoProbe
    /// where none) — a per-query binary search paid once at ingestion. A
    /// row's probes start at RowRef::probe_off and span the covered-set
    /// size (full rows own zero entries).
    std::vector<std::vector<std::uint32_t>> probe_pool;
    /// Interned covered sets (dense indices; see covered_ids_).
    std::vector<CoveredSet> covered_sets;
  };

  /// Published snapshot (owned). Readers load it once per query under an
  /// epoch pin; writers swap under snap_writer_mu_ and retire the old
  /// snapshot to the epoch domain.
  std::atomic<ArenaSnapshot*> snap_{nullptr};
  /// Serializes clone-and-swap mutators (the auditor already serializes
  /// repairs, but the engine enforces its own invariant locally).
  std::mutex snap_writer_mu_;
  /// Interned covered sets (by members-pointer identity) → dense index
  /// into ArenaSnapshot::covered_sets (writer-side).
  std::unordered_map<const void*, std::uint32_t> covered_ids_;
  /// observe()'s projection buffer, reused across events.
  std::vector<EventIndex> row_buf_;

  std::size_t events_ = 0;
  std::size_t cluster_receive_count_ = 0;
  std::size_t merges_ = 0;
  std::uint64_t encoded_words_ = 0;
  std::uint64_t exact_words_ = 0;
  /// Relaxed atomic: bumped from concurrent lock-free readers; a plain
  /// counter would be a (benign-looking but undefined) data race.
  mutable std::atomic<std::uint64_t> comparisons_{0};
};

}  // namespace ct
