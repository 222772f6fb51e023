// Atomic, generation-numbered publication of CTC1 columnar snapshots.
//
// A publication is the classic atomic-rename protocol, expressed in
// StorageBackend primitives so SimulatedStorage::materialize can crash it at
// every boundary:
//
//   create  <ns>ctc-<gen>.col.tmp
//   append  (chunked — each chunk is a separate journalled op the crash
//            sweep can tear)
//   sync    the tmp object            (bytes durable under the tmp name)
//   rename  tmp -> <ns>ctc-<gen>.col  (the publication point)
//   sync_dir                          (the rename itself durable)
//   prune   older generations + stale tmps, sync_dir
//
// A crash before the rename leaves only a tmp object — quarantined by the
// recovery ladder, never mistaken for a snapshot (format.hpp naming). A
// crash after the rename but before sync_dir is the kStaleRename fault: the
// directory entry may revert to the tmp name, which is exactly the previous
// state. The footer embeds the generation, so even a hand-renamed object
// cannot impersonate another generation (name-mismatch rejection).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "durability/storage.hpp"
#include "monitor/monitor.hpp"

namespace ct {

struct ColumnarPublishOptions {
  std::string ns;                          ///< tenant namespace prefix
  std::size_t block_bytes = 64 * 1024;     ///< CRC block grid
  std::size_t retain_generations = 2;      ///< newest generations kept
};

struct ColumnarPublishResult {
  std::string object;          ///< published name, `<ns>ctc-<gen>.col`
  std::uint64_t generation = 0;
  std::uint64_t wal_position = 0;  ///< delivered records the image covers
  std::uint64_t bytes = 0;         ///< image size
  std::size_t generations_pruned = 0;
  std::size_t tmps_pruned = 0;     ///< leftover `.tmp` objects removed
};

/// Publishes the monitor's delivered state as generation `generation` over
/// the protocol above. The caller owns generation numbering (monotone per
/// namespace); publishing an existing generation replaces it.
ColumnarPublishResult publish_columnar(StorageBackend& storage,
                                       const MonitoringEntity& monitor,
                                       std::uint64_t generation,
                                       const ColumnarPublishOptions& options =
                                           {});

/// Published generations of `ns` in `storage`, ascending by generation.
std::vector<std::pair<std::uint64_t, std::string>> list_columnar(
    const StorageBackend& storage, const std::string& ns = "");

/// Leftover `<ns>ctc-*.col.tmp` objects (publications a crash cut short).
std::vector<std::string> list_columnar_tmps(const StorageBackend& storage,
                                            const std::string& ns = "");

}  // namespace ct
