// Storage backends of the durability layer (docs/FAULT_MODEL.md §7).
//
// The write-ahead log (wal.hpp) and recovery (recovery.hpp) speak to storage
// through a deliberately narrow append-only object interface: create, append,
// sync (make one object's bytes durable), sync_dir (make the namespace —
// creations and removals — durable), remove, list, read. Narrow on purpose:
// every operation maps 1:1 to a journal entry of the simulated backend, so a
// crash can be injected *between any two operations* and the resulting disk
// image is a deterministic function of (journal, cut, fault, seed).
//
// Two implementations:
//
//  * FileStorage — real files under a directory, POSIX fsync semantics.
//    What production runs on; also what the durability benchmark measures.
//
//  * SimulatedStorage — an in-memory disk that records every operation in an
//    ordered journal and can `materialize` the disk image a crash would
//    leave behind. The write-back model: appends land in a volatile cache
//    and reach the platter in order; sync(name) forces every prior append of
//    `name` down; sync_dir forces namespace changes down. A crash picks a
//    persistence boundary inside the un-synced suffix (per the injected
//    fault) and discards everything past it. Faults are the storage-fault
//    taxonomy of FAULT_MODEL.md §7: lost suffix, short write, torn write,
//    bit rot, stale segment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ct {

/// Append-only object storage, the WAL's substrate.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Creates (or truncates) an object. Not durable until sync_dir().
  virtual void create(const std::string& name) = 0;
  /// Appends bytes to an existing object. Not durable until sync(name).
  virtual void append(const std::string& name, std::string_view data) = 0;
  /// Makes every byte so far appended to `name` durable.
  virtual void sync(const std::string& name) = 0;
  /// Makes the namespace (creations, removals) durable.
  virtual void sync_dir() = 0;
  /// Removes an object. Not durable until sync_dir().
  virtual void remove(const std::string& name) = 0;
  /// Atomically renames an object, replacing any existing target. The
  /// publication primitive of the columnar snapshot store (write-temp →
  /// sync → rename → sync_dir). Not durable until sync_dir().
  virtual void rename(const std::string& from, const std::string& to) = 0;

  virtual bool exists(const std::string& name) const = 0;
  /// Object names in lexicographic order.
  virtual std::vector<std::string> list() const = 0;
  /// Full contents of an object; throws CheckFailure if it does not exist.
  virtual std::string read(const std::string& name) const = 0;
};

/// Real files under `root` (created if missing). sync() is fsync(2);
/// sync_dir() fsyncs the directory fd. Throws CheckFailure on I/O errors.
class FileStorage final : public StorageBackend {
 public:
  explicit FileStorage(std::string root);

  void create(const std::string& name) override;
  void append(const std::string& name, std::string_view data) override;
  void sync(const std::string& name) override;
  void sync_dir() override;
  void remove(const std::string& name) override;
  void rename(const std::string& from, const std::string& to) override;
  bool exists(const std::string& name) const override;
  std::vector<std::string> list() const override;
  std::string read(const std::string& name) const override;

  const std::string& root() const { return root_; }

 private:
  std::string path(const std::string& name) const;
  std::string root_;
};

/// The storage-fault taxonomy (docs/FAULT_MODEL.md §7). Every fault
/// respects sync barriers — synced bytes survive — except that kBitRot
/// models media corruption of the *un-synced* write-back cache in flight.
enum class CrashFault : std::uint8_t {
  /// Every journalled byte reached the platter (crash after write-back).
  kClean,
  /// The whole un-synced suffix vanishes — the classic power-cut outcome.
  kLostSuffix,
  /// The un-synced suffix persists up to an operation boundary chosen by
  /// `seed`: some whole appends survive, the rest vanish.
  kShortWrite,
  /// Like kShortWrite, but the first lost append is cut mid-bytes — a
  /// partially persisted frame (the "torn write").
  kTornWrite,
  /// Everything persists, but one bit of the un-synced suffix flips.
  kBitRot,
  /// Everything persists except one object created since the last
  /// sync_dir(), whose directory entry never became durable — the file
  /// vanishes wholesale, synced bytes and all.
  kStaleSegment,
  /// Everything persists except one rename() since the last sync_dir(),
  /// which never reached the platter: the object is still there under its
  /// *old* name — a half-published snapshot generation.
  kStaleRename,
  /// Not a crash at all: one bit anywhere in the durable image flips —
  /// media decay of a cold mapped region, discovered only when the page is
  /// next read. The lone fault that may corrupt *synced* bytes; consumers
  /// must detect it by checksum, never by trusting sync barriers.
  kMappedRot,
};

const char* to_string(CrashFault f);

/// One injected crash: ops [0, cut) of the journal happened, then power
/// failed with `fault` deciding what the platter kept. `seed` resolves the
/// fault's free choices (which boundary, which byte, which bit).
struct CrashSpec {
  std::size_t cut = 0;
  CrashFault fault = CrashFault::kLostSuffix;
  std::uint64_t seed = 0;
};

/// In-memory storage with an operation journal and deterministic crash
/// materialization. The live view (read/list/exists) always reflects every
/// operation — that is what the running process sees; materialize() answers
/// what a *recovering* process would see after a crash.
class SimulatedStorage final : public StorageBackend {
 public:
  enum class OpKind : std::uint8_t { kCreate, kAppend, kSync, kSyncDir,
                                     kRemove, kRename };
  struct Op {
    OpKind kind;
    std::string name;   // empty for kSyncDir; kRename source
    std::string data;   // kAppend payload; kRename target name
  };

  SimulatedStorage() = default;

  void create(const std::string& name) override;
  void append(const std::string& name, std::string_view data) override;
  void sync(const std::string& name) override;
  void sync_dir() override;
  void remove(const std::string& name) override;
  void rename(const std::string& from, const std::string& to) override;
  bool exists(const std::string& name) const override;
  std::vector<std::string> list() const override;
  std::string read(const std::string& name) const override;

  const std::vector<Op>& journal() const { return journal_; }
  std::size_t op_count() const { return journal_.size(); }

  /// Journal positions immediately AFTER each kSync — the sync boundaries
  /// of the crash sweep (a cut at such a position loses nothing that the
  /// sync promised).
  std::vector<std::size_t> sync_points() const;

  /// Journal positions immediately AFTER each kAppend — the candidate
  /// short/torn-write cuts.
  std::vector<std::size_t> append_points() const;

  /// Journal positions immediately AFTER each kRename — the candidate
  /// kStaleRename cuts (a half-published snapshot generation).
  std::vector<std::size_t> rename_points() const;

  /// Journal positions immediately AFTER each namespace op (kCreate,
  /// kSyncDir, kRename, kRemove) — the cuts between a name becoming
  /// durable and the bytes or names that follow it.
  std::vector<std::size_t> namespace_points() const;

  /// The disk image a crash at `spec` leaves behind, as a fresh storage
  /// whose contents are fully durable (recovery then runs against it).
  /// Deterministic: equal (journal, spec) gives byte-identical images.
  std::unique_ptr<SimulatedStorage> materialize(const CrashSpec& spec) const;

 private:
  std::vector<Op> journal_;
  // Live view.
  std::vector<std::pair<std::string, std::string>> objects_;  // sorted by name
  std::pair<std::string, std::string>* find_object(const std::string& name);
  const std::pair<std::string, std::string>* find_object(
      const std::string& name) const;
};

}  // namespace ct
