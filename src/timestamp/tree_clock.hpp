// Tree clocks: the Mathur/Tunç tree-shaped vector clock (ASPLOS'22).
//
// A tree clock stores the same mapping as a Fidge/Mattern vector — process
// id -> last known event index — but arranges the entries in a tree whose
// shape records HOW each entry was learned: a node's children are the
// processes whose current entry arrived through that node, ordered most
// recently attached first. That shape is what makes the join (the
// receive-side clock_max) sublinear: updated subtrees are copied, and the
// *monotone-copy* property — if the receiver already knows a node's entry,
// it already knows everything below it — lets the join prune whole subtrees
// without looking at them. Vector-clock joins are Θ(N) always; tree-clock
// joins touch only the entries that actually changed.
//
// Layout follows the TsArena idiom rather than the paper's pointer graph:
// one flat node pool indexed by process id (tid == slot), sibling lists as
// int32 links inside the pool. A clock for N processes is one contiguous
// allocation, a deep copy is a memcpy, and flatten_into() exports the clk
// column as a plain lane vector for the vector kernels
// (core/precedence_kernels.hpp).
//
// TreeClockStore (tree_clock_store.hpp) drives these through a trace and is
// the registered CausalityBackend; this header is the bare data structure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "model/ids.hpp"
#include "util/check.hpp"

namespace ct {

class TreeClock {
 public:
  /// Join work accounting (the bench's "join cost" column). One vector-clock
  /// join always touches N components; these counters expose how few a tree
  /// clock touched instead.
  struct JoinStats {
    std::uint64_t joins = 0;            ///< join() calls that did any work
    std::uint64_t nodes_examined = 0;   ///< child entries inspected
    std::uint64_t nodes_updated = 0;    ///< entries copied into this clock
    std::uint64_t subtrees_pruned = 0;  ///< monotone-copy early breaks
  };

  /// A clock over `process_count` processes, rooted at (owned by) `root`.
  TreeClock(std::size_t process_count, ProcessId root);

  ProcessId root() const { return root_; }
  std::size_t process_count() const { return nodes_.size(); }

  /// Last known event index of process `t` (0 = nothing known). For the
  /// root this is the owner's own local clock.
  EventIndex get(ProcessId t) const { return nodes_[t].clk; }
  EventIndex root_clk() const { return nodes_[root_].clk; }

  /// Advances the owner's local component by one (local event).
  void tick() { ++nodes_[root_].clk; }

  /// Raises the entry of `t` to `v` in place, attaching a fresh node under
  /// the root when `t` was unknown. `v` must be >= get(t). Used for the
  /// sync-partner fixup, where the new entry is learned directly from the
  /// partner rather than through a subtree.
  void bump(ProcessId t, EventIndex v);

  /// this := pointwise max(this, other), restructuring the tree. Only
  /// entries where `other` is strictly ahead are touched; the monotone-copy
  /// property prunes subtrees whose head entry is already known.
  void join(const TreeClock& other, JoinStats* stats = nullptr);

  /// Deep structural copy (keeps this clock's owner irrelevant: the copy is
  /// an exact snapshot, root and all). Used for in-flight send snapshots.
  void copy_from(const TreeClock& other);

  /// Exports the clk column as a flat lane vector: out[t] = get(t). This is
  /// the flatten-to-lanes adapter feeding kernels::all_leq / max_into.
  void flatten_into(EventIndex* out, std::size_t n) const;

  /// True when every component of this clock is <= the corresponding
  /// component of `other` (kernel-backed over flattened lanes).
  bool dominated_by(const TreeClock& other) const;

  /// Nodes currently attached (root included).
  std::size_t node_count() const { return attached_count_; }

  /// Tree position introspection (tests, digests). `parent_of` returns -1
  /// for the root and for unknown processes.
  bool in_tree(ProcessId t) const {
    return t == root_ || nodes_[t].parent != kNull;
  }
  std::int32_t parent_of(ProcessId t) const { return nodes_[t].parent; }
  EventIndex aclk_of(ProcessId t) const { return nodes_[t].aclk; }

  /// Structural invariant check (property tests): every attached node is
  /// reachable from the root exactly once, child aclk <= parent clk, and
  /// sibling aclk is non-increasing front to back. Returns false and fills
  /// `why` on the first violation.
  bool check_shape(std::string* why) const;

 private:
  static constexpr std::int32_t kNull = -1;

  /// Pool node, indexed by process id. clk == 0 with a kNull parent means
  /// the process is unknown to this clock.
  struct Node {
    EventIndex clk = 0;   ///< last known event index of this process
    EventIndex aclk = 0;  ///< parent's clk when this entry was attached
    std::int32_t parent = kNull;
    std::int32_t head = kNull;  ///< first (most recently attached) child
    std::int32_t next = kNull;  ///< next sibling (older attachment)
    std::int32_t prev = kNull;  ///< previous sibling (kNull if head)
  };

  void detach(std::int32_t t);
  void attach_front(std::int32_t parent, std::int32_t child);
  void collect_updates(const TreeClock& other, std::int32_t u, JoinStats* s);

  ProcessId root_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> scratch_;  ///< join: updated tids, pre-order
  std::size_t attached_count_ = 1;
};

}  // namespace ct
