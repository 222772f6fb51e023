// Per-tenant WAL namespace isolation (docs/FAULT_MODEL.md §8, satellite of
// the shard router): many tenants share one StorageBackend under disjoint
// object-name namespaces, and recovery of one tenant must be byte-identical
// to a solo run no matter how thoroughly a sibling tenant's objects are
// damaged — for every damage shape in the §7 storage-fault taxonomy.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "durability/storage.hpp"
#include "durability/wal.hpp"
#include "monitor/monitor.hpp"
#include "store/recovery_ladder.hpp"
#include "trace/generators.hpp"
#include "util/prng.hpp"

namespace ct {
namespace {

Trace tenant_trace(std::uint64_t seed) {
  return generate_rpc_business({.groups = 2,
                                .clients_per_group = 2,
                                .servers_per_group = 2,
                                .calls = 30,
                                .seed = seed});
}

MonitorOptions tenant_options(const Trace& t) {
  MonitorOptions options;
  options.cluster.max_cluster_size = 4;
  options.cluster.fm_vector_width = t.process_count();
  return options;
}

struct LoggedTenant {
  std::unique_ptr<MonitoringEntity> monitor;
  std::unique_ptr<DurableLog> log;
};

LoggedTenant start_tenant(StorageBackend& storage, const Trace& t,
                          const std::string& ns) {
  LoggedTenant out;
  out.monitor =
      std::make_unique<MonitoringEntity>(t.process_count(), tenant_options(t));
  WalOptions wo;
  wo.ns = ns;
  wo.segment_bytes = 512;  // several segments per tenant
  out.log = std::make_unique<DurableLog>(storage, wo);
  DurableLog* log = out.log.get();
  out.monitor->set_delivery_tap([log](const Event& e) { log->append(e); });
  return out;
}

/// Feeds both tenants' streams interleaved, so their segments interleave in
/// the shared journal too.
void feed_interleaved(LoggedTenant& a, const Trace& ta, LoggedTenant& b,
                      const Trace& tb) {
  const auto oa = ta.delivery_order();
  const auto ob = tb.delivery_order();
  const std::size_t n = oa.size() > ob.size() ? oa.size() : ob.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i < oa.size()) a.monitor->ingest(ta.event(oa[i]));
    if (i < ob.size()) b.monitor->ingest(tb.event(ob[i]));
  }
}

/// The damage shapes of the §7 taxonomy, applied DIRECTLY to one tenant's
/// objects (an adversarial sibling: any byte pattern, any object).
enum class Damage {
  kLostSuffix,    ///< object truncated at a byte chosen by seed
  kShortWrite,    ///< object truncated to a tiny prefix
  kTornWrite,     ///< truncated, then garbage bytes appended
  kBitRot,        ///< one bit flipped mid-object
  kStaleSegment,  ///< object vanishes wholesale
  kGarbageHeader, ///< magic overwritten — structurally unparseable
};

const Damage kAllDamage[] = {Damage::kLostSuffix,   Damage::kShortWrite,
                             Damage::kTornWrite,    Damage::kBitRot,
                             Damage::kStaleSegment, Damage::kGarbageHeader};

const char* to_string(Damage d) {
  switch (d) {
    case Damage::kLostSuffix: return "lost-suffix";
    case Damage::kShortWrite: return "short-write";
    case Damage::kTornWrite: return "torn-write";
    case Damage::kBitRot: return "bit-rot";
    case Damage::kStaleSegment: return "stale-segment";
    case Damage::kGarbageHeader: return "garbage-header";
  }
  return "?";
}

void damage_object(SimulatedStorage& storage, const std::string& name,
                   Damage damage, Prng& prng) {
  if (damage == Damage::kStaleSegment) {
    storage.remove(name);
    storage.sync_dir();
    return;
  }
  std::string bytes = storage.read(name);
  switch (damage) {
    case Damage::kLostSuffix:
      if (!bytes.empty()) bytes.resize(prng.index(bytes.size()) + 1);
      break;
    case Damage::kShortWrite:
      bytes.resize(bytes.size() < 7 ? bytes.size() : 7);
      break;
    case Damage::kTornWrite:
      if (!bytes.empty()) bytes.resize(prng.index(bytes.size()) + 1);
      bytes += "\x01\x7f\xff torn";
      break;
    case Damage::kBitRot:
      if (!bytes.empty()) {
        const std::size_t at = prng.index(bytes.size());
        bytes[at] = static_cast<char>(
            static_cast<unsigned char>(bytes[at]) ^
            (1u << prng.index(8)));
      }
      break;
    case Damage::kGarbageHeader:
      for (std::size_t i = 0; i < bytes.size() && i < 8; ++i) {
        bytes[i] = '\x5a';
      }
      break;
    case Damage::kStaleSegment:
      break;
  }
  storage.remove(name);
  storage.create(name);
  storage.append(name, bytes);
  storage.sync(name);
  storage.sync_dir();
}

/// Names owned by `ns` (segments and snapshots).
std::vector<std::string> tenant_objects(const StorageBackend& storage,
                                        const std::string& ns) {
  std::vector<std::string> out;
  for (const std::string& name : storage.list()) {
    if (wal::parse_segment_name(name, ns) ||
        wal::parse_snapshot_name(name, ns)) {
      out.push_back(name);
    }
  }
  return out;
}

struct Baseline {
  std::vector<EventId> delivery;
  std::uint64_t digest = 0;
};

/// What tenant B's recovery looks like with NO sibling on the storage.
Baseline solo_baseline(const Trace& tb, const std::string& ns) {
  SimulatedStorage storage;
  LoggedTenant b = start_tenant(storage, tb, ns);
  for (const EventId id : tb.delivery_order()) b.monitor->ingest(tb.event(id));
  b.log->checkpoint(*b.monitor);
  b.log->sync();
  const LadderRecovery rec =
      recover_with_ladder(storage, tb.process_count(), tenant_options(tb), ns);
  Baseline out;
  const auto log = rec.monitor->delivery_log();
  out.delivery.assign(log.begin(), log.end());
  out.digest = rec.monitor->state_digest();
  return out;
}

TEST(WalNamespace, GrammarPartitionsSharedStorage) {
  EXPECT_EQ(wal::tenant_namespace(7), "tenant-000007.");
  EXPECT_TRUE(wal::valid_namespace(""));
  EXPECT_TRUE(wal::valid_namespace("tenant-000001."));
  EXPECT_FALSE(wal::valid_namespace("a/b"));

  const std::string ns = wal::tenant_namespace(3);
  const std::string seg = wal::segment_object_name(12, ns);
  EXPECT_EQ(seg, "tenant-000003.wal-00000012.log");
  EXPECT_EQ(wal::parse_segment_name(seg, ns), 12u);
  // Another tenant's parser — and the legacy single-tenant parser — must
  // both refuse the name: that refusal IS the isolation mechanism.
  EXPECT_FALSE(wal::parse_segment_name(seg, wal::tenant_namespace(4)));
  EXPECT_FALSE(wal::parse_segment_name(seg, ""));
  // And a namespaced parser must refuse legacy names.
  EXPECT_FALSE(wal::parse_segment_name("wal-00000012.log", ns));
  EXPECT_EQ(wal::parse_segment_name("wal-00000012.log", ""), 12u);

  const std::string snap = wal::snapshot_object_name(99, ns);
  EXPECT_EQ(wal::parse_snapshot_name(snap, ns), 99u);
  EXPECT_FALSE(wal::parse_snapshot_name(snap, ""));
}

TEST(WalNamespace, SiblingRecoveryIsByteIdenticalUnderEveryDamageShape) {
  const Trace ta = tenant_trace(51);
  const Trace tb = tenant_trace(77);
  const std::string ns_a = wal::tenant_namespace(0);
  const std::string ns_b = wal::tenant_namespace(1);
  const Baseline solo = solo_baseline(tb, ns_b);
  ASSERT_FALSE(solo.delivery.empty());

  for (const Damage damage : kAllDamage) {
    SCOPED_TRACE(to_string(damage));
    SimulatedStorage storage;
    {
      LoggedTenant a = start_tenant(storage, ta, ns_a);
      LoggedTenant b = start_tenant(storage, tb, ns_b);
      feed_interleaved(a, ta, b, tb);
      a.log->checkpoint(*a.monitor);
      b.log->checkpoint(*b.monitor);
      a.log->sync();
      b.log->sync();
    }

    // Damage EVERY object tenant A owns — segments and snapshots alike.
    Prng prng(static_cast<std::uint64_t>(damage) + 1);
    const std::vector<std::string> victims = tenant_objects(storage, ns_a);
    ASSERT_FALSE(victims.empty());
    for (const std::string& name : victims) {
      damage_object(storage, name, damage, prng);
    }

    // Tenant B's recovery must not notice: same delivered log, same state
    // digest, no rejected snapshots, no truncation — byte-identical to the
    // solo run.
    const LadderRecovery rec =
        recover_with_ladder(storage, tb.process_count(), tenant_options(tb),
                            ns_b);
    const auto log = rec.monitor->delivery_log();
    ASSERT_EQ(log.size(), solo.delivery.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log[i], solo.delivery[i]) << "delivery[" << i << "]";
    }
    EXPECT_EQ(rec.monitor->state_digest(), solo.digest);
    EXPECT_EQ(rec.health.total_rejected(), 0u);
    EXPECT_FALSE(rec.report.truncated) << rec.report.truncate_detail;

    // Tenant A's own recovery stays prefix-consistent (damage absorbed,
    // never thrown on): whatever it recovers is a prefix of A's stream.
    const LadderRecovery rec_a =
        recover_with_ladder(storage, ta.process_count(), tenant_options(ta),
                            ns_a);
    const auto order = ta.delivery_order();
    const auto log_a = rec_a.monitor->delivery_log();
    ASSERT_LE(log_a.size(), order.size());
  }
}

TEST(WalNamespace, LegacyNamespaceCoexistsWithTenants) {
  const Trace t = tenant_trace(91);
  SimulatedStorage storage;
  {
    LoggedTenant legacy = start_tenant(storage, t, "");
    LoggedTenant tenant = start_tenant(storage, t, wal::tenant_namespace(5));
    feed_interleaved(legacy, t, tenant, t);
    legacy.log->sync();
    tenant.log->sync();
  }
  for (const std::string& ns : {std::string(), wal::tenant_namespace(5)}) {
    const LadderRecovery rec =
        recover_with_ladder(storage, t.process_count(), tenant_options(t), ns);
    EXPECT_EQ(rec.monitor->delivery_log().size(), t.delivery_order().size())
        << "ns='" << ns << "'";
    EXPECT_FALSE(rec.report.truncated);
  }
}

}  // namespace
}  // namespace ct
