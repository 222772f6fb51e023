#include "store/snapshot_store.hpp"

#include <algorithm>

#include "store/format.hpp"

namespace ct {
namespace {

/// Largest single append of an image to its temp object.
constexpr std::size_t kAppendChunkBytes = std::size_t{1} << 20;

}  // namespace

ColumnarPublishResult publish_columnar(StorageBackend& storage,
                                       const MonitoringEntity& monitor,
                                       std::uint64_t generation,
                                       const ColumnarPublishOptions& options) {
  ColumnarPublishResult out;
  out.generation = generation;
  out.object = columnar_object_name(generation, options.ns);
  const std::string tmp = columnar_tmp_name(generation, options.ns);

  const std::string image =
      encode_columnar(monitor, generation, options.block_bytes);
  out.wal_position = monitor.delivery_log().size();
  out.bytes = image.size();

  // ---- write-temp → fsync → rename → fsync-dir ----
  storage.create(tmp);
  const std::string_view view(image);
  for (std::size_t at = 0; at < view.size(); at += kAppendChunkBytes) {
    storage.append(tmp, view.substr(at, std::min(kAppendChunkBytes,
                                                 view.size() - at)));
  }
  storage.sync(tmp);
  storage.rename(tmp, out.object);
  storage.sync_dir();

  // ---- prune: older generations beyond the retention window, stale tmps ----
  bool removed = false;
  auto published = list_columnar(storage, options.ns);  // ascending
  const std::size_t keep = std::max<std::size_t>(options.retain_generations, 1);
  while (published.size() > keep) {
    storage.remove(published.front().second);
    published.erase(published.begin());
    ++out.generations_pruned;
    removed = true;
  }
  for (const std::string& stale : list_columnar_tmps(storage, options.ns)) {
    storage.remove(stale);
    ++out.tmps_pruned;
    removed = true;
  }
  if (removed) storage.sync_dir();
  return out;
}

std::vector<std::pair<std::uint64_t, std::string>> list_columnar(
    const StorageBackend& storage, const std::string& ns) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  for (const std::string& name : storage.list()) {
    if (const auto gen = parse_columnar_name(name, ns)) {
      out.emplace_back(*gen, name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> list_columnar_tmps(const StorageBackend& storage,
                                            const std::string& ns) {
  std::vector<std::string> out;
  for (const std::string& name : storage.list()) {
    if (is_columnar_tmp_name(name, ns)) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ct
