// Pluggable causality backends: the broker's fallback chain as a registry.
//
// The QueryBroker's chain — answer cache → cluster timestamps →
// differential store → on-demand FM — used to hard-code its three fallback
// links as members. This header extracts the link abstraction so the chain
// is data, not code: each link is a CausalityBackend built by the
// BackendRegistry from a ServingBackend id, carries a capability descriptor
// (frontier support, batch entry, concurrency, rebuild cost class), and the
// broker walks whatever BrokerOptions::chain names. Tree clocks
// (tree_clock_store.hpp) are the first backend added through the registry
// rather than through broker surgery; docs/BACKENDS.md is the contract.
//
// Layering: everything here is timestamp-layer. The one monitor-coupled
// link (kCluster, which serves from the MonitoringEntity's own engine under
// the broker's locking discipline) is reached through a type-erased hook in
// BackendContext, so the registry never sees monitor types and the adapter
// set stays in one translation unit — no static-initializer registration
// that a static-library link could drop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "model/ids.hpp"
#include "model/trace.hpp"
#include "timestamp/query_cost.hpp"

namespace ct {

/// Who produced a query's answer. kCache and kNone are broker-internal
/// (the cache is not a chain link); the rest are registrable chain links.
enum class ServingBackend : std::uint8_t {
  kNone = 0,        ///< no backend answered (unknown / shed / failed)
  kCache = 1,       ///< broker answer cache
  kCluster = 2,     ///< the monitor's own backend (cluster timestamps, or
                    ///< precomputed FM for an FM-backed monitor)
  kDifferential = 3,
  kOnDemandFm = 4,
  kTreeClock = 5,   ///< tree-clock store (Mathur/Tunç)
};

const char* to_string(ServingBackend b);

/// What re-deriving a backend's state costs after corruption or loss.
enum class RebuildCost : std::uint8_t {
  kNone,        ///< nothing materialized worth rebuilding (recompute/cache)
  kIncremental, ///< per-cluster replay from the delivery log
  kFullReplay,  ///< full reconstruction over the delivered trace
};

const char* to_string(RebuildCost c);

/// The descriptor the broker consults instead of a switch on the id.
struct BackendCapabilities {
  /// Answers arbitrary precedence pairs, so frontier queries (which reduce
  /// to precedence tests) can ride on it. Every chain link must.
  bool supports_frontier = true;
  /// Has a bulk batch entry the broker may prefer over per-pair descent.
  bool supports_batch = false;
  /// precedes_metered is safe from concurrent broker workers without
  /// caller-side locking.
  bool concurrent_reads = false;
  RebuildCost rebuild_cost = RebuildCost::kFullReplay;
};

/// One link of the fallback chain. Implementations answer exact precedence
/// or charge-and-abort on deadline; they never return a wrong answer
/// (degradation is the broker's job, correctness is the link's).
class CausalityBackend {
 public:
  virtual ~CausalityBackend() = default;
  virtual ServingBackend id() const = 0;
  virtual const char* name() const = 0;
  virtual BackendCapabilities capabilities() const = 0;
  /// Precedence of delivered events under `cost`'s budget; nullopt means
  /// the budget ran out (deadline), never "unknown".
  virtual std::optional<bool> precedes_metered(EventId e, EventId f,
                                               QueryCost& cost) = 0;
};

/// Everything a factory may need. `trace` is the frozen delivered prefix
/// every fallback backend is built over. `monitor_precedes` is the
/// type-erased kCluster hook: the broker bakes its read discipline (an
/// epoch pin) into it; required by the kCluster factory and ignored by the
/// rest.
struct BackendContext {
  const Trace* trace = nullptr;
  std::size_t differential_interval = 16;
  std::size_t ondemand_cache_capacity = 256;
  std::function<std::optional<bool>(EventId, EventId, QueryCost&)>
      monitor_precedes;
};

/// Process-wide factory registry keyed by ServingBackend id. The built-in
/// links (cluster hook, differential, on-demand FM, tree clock) register in
/// the registry's own constructor; out-of-tree backends call
/// register_backend before constructing brokers (see docs/BACKENDS.md).
class BackendRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<CausalityBackend>(const BackendContext&)>;

  static BackendRegistry& instance();

  /// Registers (or replaces) the factory for `id`.
  void register_backend(ServingBackend id, Factory factory);
  bool registered(ServingBackend id) const;
  /// Registered ids in ascending id order.
  std::vector<ServingBackend> registered_ids() const;

  /// Builds a backend; CT_CHECKs that `id` is registered and that the
  /// context satisfies the factory's needs.
  std::unique_ptr<CausalityBackend> make(ServingBackend id,
                                         const BackendContext& context) const;

 private:
  BackendRegistry();
};

}  // namespace ct
