#include "durability/storage.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "util/check.hpp"
#include "util/prng.hpp"

namespace ct {

const char* to_string(CrashFault f) {
  switch (f) {
    case CrashFault::kClean: return "clean";
    case CrashFault::kLostSuffix: return "lost-suffix";
    case CrashFault::kShortWrite: return "short-write";
    case CrashFault::kTornWrite: return "torn-write";
    case CrashFault::kBitRot: return "bit-rot";
    case CrashFault::kStaleSegment: return "stale-segment";
    case CrashFault::kStaleRename: return "stale-rename";
    case CrashFault::kMappedRot: return "mapped-rot";
  }
  return "?";
}

// ---------------------------------------------------------------- files ----

namespace fs = std::filesystem;

FileStorage::FileStorage(std::string root) : root_(std::move(root)) {
  std::error_code ec;
  fs::create_directories(root_, ec);
  CT_CHECK_MSG(!ec, "cannot create storage root '" << root_ << "': "
                                                   << ec.message());
}

std::string FileStorage::path(const std::string& name) const {
  CT_CHECK_MSG(!name.empty() && name.find('/') == std::string::npos,
               "bad object name '" << name << "'");
  return root_ + "/" + name;
}

void FileStorage::create(const std::string& name) {
  const int fd = ::open(path(name).c_str(), O_CREAT | O_TRUNC | O_WRONLY,
                        0644);
  CT_CHECK_MSG(fd >= 0, "cannot create '" << path(name) << "'");
  ::close(fd);
}

void FileStorage::append(const std::string& name, std::string_view data) {
  const int fd = ::open(path(name).c_str(), O_WRONLY | O_APPEND);
  CT_CHECK_MSG(fd >= 0, "cannot open '" << path(name) << "' for append");
  std::size_t done = 0;
  while (done < data.size()) {
    const ::ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      ::close(fd);
      CT_CHECK_MSG(false, "short write to '" << path(name) << "'");
    }
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
}

void FileStorage::sync(const std::string& name) {
  const int fd = ::open(path(name).c_str(), O_RDONLY);
  CT_CHECK_MSG(fd >= 0, "cannot open '" << path(name) << "' for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  CT_CHECK_MSG(rc == 0, "fsync failed on '" << path(name) << "'");
}

void FileStorage::sync_dir() {
  const int fd = ::open(root_.c_str(), O_RDONLY | O_DIRECTORY);
  CT_CHECK_MSG(fd >= 0, "cannot open storage root '" << root_ << "'");
  const int rc = ::fsync(fd);
  ::close(fd);
  CT_CHECK_MSG(rc == 0, "fsync failed on storage root '" << root_ << "'");
}

void FileStorage::remove(const std::string& name) {
  CT_CHECK_MSG(::unlink(path(name).c_str()) == 0,
               "cannot remove '" << path(name) << "'");
}

void FileStorage::rename(const std::string& from, const std::string& to) {
  CT_CHECK_MSG(::rename(path(from).c_str(), path(to).c_str()) == 0,
               "cannot rename '" << path(from) << "' to '" << path(to)
                                 << "'");
}

bool FileStorage::exists(const std::string& name) const {
  return fs::exists(root_ + "/" + name);
}

std::vector<std::string> FileStorage::list() const {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(root_)) {
    if (entry.is_regular_file()) names.push_back(entry.path().filename());
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string FileStorage::read(const std::string& name) const {
  std::ifstream in(root_ + "/" + name, std::ios::binary);
  CT_CHECK_MSG(in.good(), "cannot read '" << root_ << "/" << name << "'");
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// ----------------------------------------------------------- simulation ----

std::pair<std::string, std::string>* SimulatedStorage::find_object(
    const std::string& name) {
  for (auto& o : objects_) {
    if (o.first == name) return &o;
  }
  return nullptr;
}

const std::pair<std::string, std::string>* SimulatedStorage::find_object(
    const std::string& name) const {
  return const_cast<SimulatedStorage*>(this)->find_object(name);
}

void SimulatedStorage::create(const std::string& name) {
  CT_CHECK_MSG(!name.empty(), "bad object name");
  journal_.push_back(Op{OpKind::kCreate, name, {}});
  if (auto* o = find_object(name)) {
    o->second.clear();
  } else {
    objects_.emplace_back(name, std::string{});
    std::sort(objects_.begin(), objects_.end());
  }
}

void SimulatedStorage::append(const std::string& name, std::string_view data) {
  auto* o = find_object(name);
  CT_CHECK_MSG(o != nullptr, "append to missing object '" << name << "'");
  journal_.push_back(Op{OpKind::kAppend, name, std::string(data)});
  o->second.append(data);
}

void SimulatedStorage::sync(const std::string& name) {
  CT_CHECK_MSG(find_object(name) != nullptr,
               "sync of missing object '" << name << "'");
  journal_.push_back(Op{OpKind::kSync, name, {}});
}

void SimulatedStorage::sync_dir() {
  journal_.push_back(Op{OpKind::kSyncDir, {}, {}});
}

void SimulatedStorage::remove(const std::string& name) {
  CT_CHECK_MSG(find_object(name) != nullptr,
               "remove of missing object '" << name << "'");
  journal_.push_back(Op{OpKind::kRemove, name, {}});
  objects_.erase(std::remove_if(objects_.begin(), objects_.end(),
                                [&](const auto& o) { return o.first == name; }),
                 objects_.end());
}

void SimulatedStorage::rename(const std::string& from, const std::string& to) {
  auto* o = find_object(from);
  CT_CHECK_MSG(o != nullptr, "rename of missing object '" << from << "'");
  CT_CHECK_MSG(!to.empty() && to != from,
               "bad rename target '" << to << "'");
  journal_.push_back(Op{OpKind::kRename, from, to});
  std::string data = std::move(o->second);
  objects_.erase(std::remove_if(objects_.begin(), objects_.end(),
                                [&](const auto& e) {
                                  return e.first == from || e.first == to;
                                }),
                 objects_.end());
  objects_.emplace_back(to, std::move(data));
  std::sort(objects_.begin(), objects_.end());
}

bool SimulatedStorage::exists(const std::string& name) const {
  return find_object(name) != nullptr;
}

std::vector<std::string> SimulatedStorage::list() const {
  std::vector<std::string> names;
  names.reserve(objects_.size());
  for (const auto& o : objects_) names.push_back(o.first);
  return names;  // objects_ is kept sorted
}

std::string SimulatedStorage::read(const std::string& name) const {
  const auto* o = find_object(name);
  CT_CHECK_MSG(o != nullptr, "read of missing object '" << name << "'");
  return o->second;
}

std::vector<std::size_t> SimulatedStorage::sync_points() const {
  std::vector<std::size_t> points;
  for (std::size_t i = 0; i < journal_.size(); ++i) {
    if (journal_[i].kind == OpKind::kSync) points.push_back(i + 1);
  }
  return points;
}

std::vector<std::size_t> SimulatedStorage::append_points() const {
  std::vector<std::size_t> points;
  for (std::size_t i = 0; i < journal_.size(); ++i) {
    if (journal_[i].kind == OpKind::kAppend) points.push_back(i + 1);
  }
  return points;
}

std::vector<std::size_t> SimulatedStorage::rename_points() const {
  std::vector<std::size_t> points;
  for (std::size_t i = 0; i < journal_.size(); ++i) {
    if (journal_[i].kind == OpKind::kRename) points.push_back(i + 1);
  }
  return points;
}

std::vector<std::size_t> SimulatedStorage::namespace_points() const {
  std::vector<std::size_t> points;
  for (std::size_t i = 0; i < journal_.size(); ++i) {
    const OpKind kind = journal_[i].kind;
    if (kind != OpKind::kAppend && kind != OpKind::kSync) {
      points.push_back(i + 1);
    }
  }
  return points;
}

std::unique_ptr<SimulatedStorage> SimulatedStorage::materialize(
    const CrashSpec& spec) const {
  const std::size_t cut = std::min(spec.cut, journal_.size());
  Prng prng(spec.seed ^ 0xd1a6u);

  // Write-back model bookkeeping over ops [0, cut): the last sync of each
  // object (appends before it are durable no matter what), the last
  // directory sync (creations after it are namespace-volatile), and the
  // un-synced append ops (the fault's playground).
  std::vector<std::size_t> last_sync(cut, 0);  // per-op: is this append synced?
  {
    // Walk backwards remembering, per object, the latest kSync seen.
    std::vector<std::pair<std::string, std::size_t>> latest;
    for (std::size_t i = cut; i-- > 0;) {
      const Op& op = journal_[i];
      if (op.kind == OpKind::kSync) {
        bool found = false;
        for (auto& l : latest) {
          if (l.first == op.name) { l.second = i; found = true; break; }
        }
        if (!found) latest.emplace_back(op.name, i);
      } else if (op.kind == OpKind::kAppend) {
        for (const auto& l : latest) {
          if (l.first == op.name) { last_sync[i] = 1; break; }
        }
      }
    }
  }
  std::size_t last_dir_sync = 0;
  for (std::size_t i = 0; i < cut; ++i) {
    if (journal_[i].kind == OpKind::kSyncDir) last_dir_sync = i + 1;
  }
  std::vector<std::size_t> unsynced;  // append ops not covered by a sync
  for (std::size_t i = 0; i < cut; ++i) {
    if (journal_[i].kind == OpKind::kAppend && last_sync[i] == 0) {
      unsynced.push_back(i);
    }
  }

  // Resolve the fault's free choices: `boundary` is the index into
  // `unsynced` past which appends are lost; `torn_bytes` the prefix of the
  // first lost append that still lands (torn write only).
  std::size_t boundary = unsynced.size();  // default: keep everything
  std::size_t torn_bytes = 0;
  bool torn = false;
  switch (spec.fault) {
    case CrashFault::kClean:
    case CrashFault::kBitRot:
    case CrashFault::kStaleSegment:
    case CrashFault::kStaleRename:
    case CrashFault::kMappedRot:
      break;
    case CrashFault::kLostSuffix:
      boundary = 0;
      break;
    case CrashFault::kShortWrite:
      if (!unsynced.empty()) boundary = prng.index(unsynced.size());
      break;
    case CrashFault::kTornWrite:
      if (!unsynced.empty()) {
        boundary = prng.index(unsynced.size());
        const std::size_t len = journal_[unsynced[boundary]].data.size();
        if (len >= 2) {
          torn = true;
          torn_bytes = static_cast<std::size_t>(prng.uniform(1, len - 1));
        }
      }
      break;
  }

  // Replay [0, cut) into the image. Namespace ops persist (ordered
  // metadata); append persistence follows the boundary.
  auto image = std::make_unique<SimulatedStorage>();
  auto put = [&image](const std::string& name) {
    if (!image->exists(name)) {
      image->objects_.emplace_back(name, std::string{});
      std::sort(image->objects_.begin(), image->objects_.end());
    } else {
      image->find_object(name)->second.clear();
    }
  };
  // Seed the image with the durable base: objects that predate this journal
  // (a materialized storage starts with an empty journal, so after one
  // crash everything it holds is base — double-crash scenarios compose).
  {
    // Objects created by the journal in [0, journal_.size()), tracked
    // through renames so a journal-created tmp renamed to its final name
    // is not mistaken for a pre-journal base object.
    std::vector<std::string> created;
    for (const Op& op : journal_) {
      if (op.kind == OpKind::kCreate) {
        created.push_back(op.name);
      } else if (op.kind == OpKind::kRename) {
        for (auto& c : created) {
          if (c == op.name) { c = op.data; break; }
        }
      }
    }
    for (const auto& o : objects_) {
      if (std::find(created.begin(), created.end(), o.first) ==
          created.end()) {
        // Pre-journal (base) object: durable as-is, minus journalled
        // appends which are re-applied below under the crash rules.
        std::string base = o.second;
        std::size_t appended = 0;
        for (std::size_t i = 0; i < journal_.size(); ++i) {
          const Op& op = journal_[i];
          if (op.kind == OpKind::kAppend && op.name == o.first) {
            appended += op.data.size();
          }
        }
        CT_CHECK_MSG(appended <= base.size(),
                     "journal/live view disagree on '" << o.first << "'");
        base.resize(base.size() - appended);
        image->objects_.emplace_back(o.first, std::move(base));
      }
    }
    std::sort(image->objects_.begin(), image->objects_.end());
  }

  // kStaleRename: one rename since the last sync_dir never became durable —
  // pick the victim now so the replay below can leave the old name in place.
  std::size_t stale_rename = journal_.size();  // sentinel: none
  if (spec.fault == CrashFault::kStaleRename) {
    std::vector<std::size_t> candidates;
    for (std::size_t i = last_dir_sync; i < cut; ++i) {
      if (journal_[i].kind == OpKind::kRename) candidates.push_back(i);
    }
    if (!candidates.empty()) {
      stale_rename = candidates[prng.index(candidates.size())];
    }
  }

  std::size_t next_unsynced = 0;  // index into `unsynced`
  for (std::size_t i = 0; i < cut; ++i) {
    const Op& op = journal_[i];
    switch (op.kind) {
      case OpKind::kCreate:
        put(op.name);
        break;
      case OpKind::kAppend: {
        if (last_sync[i] != 0) {
          if (auto* o = image->find_object(op.name)) o->second += op.data;
          break;
        }
        const std::size_t u = next_unsynced++;
        auto* o = image->find_object(op.name);
        if (o == nullptr) break;  // object itself did not survive
        if (u < boundary) {
          o->second += op.data;
        } else if (torn && u == boundary) {
          o->second += op.data.substr(0, torn_bytes);
        }
        break;
      }
      case OpKind::kSync:
      case OpKind::kSyncDir:
        break;
      case OpKind::kRemove:
        image->objects_.erase(
            std::remove_if(image->objects_.begin(), image->objects_.end(),
                           [&](const auto& o) { return o.first == op.name; }),
            image->objects_.end());
        break;
      case OpKind::kRename: {
        if (i == stale_rename) break;  // never reached the platter
        auto* o = image->find_object(op.name);
        if (o == nullptr) break;  // source itself did not survive
        std::string data = std::move(o->second);
        image->objects_.erase(
            std::remove_if(image->objects_.begin(), image->objects_.end(),
                           [&](const auto& e) {
                             return e.first == op.name || e.first == op.data;
                           }),
            image->objects_.end());
        image->objects_.emplace_back(op.data, std::move(data));
        std::sort(image->objects_.begin(), image->objects_.end());
        break;
      }
    }
  }

  if (spec.fault == CrashFault::kBitRot) {
    // Flip one bit somewhere in the un-synced appended bytes, as they
    // landed in the image.
    struct RotTarget {
      std::string name;
      std::size_t offset;
      std::size_t op;  // journal index of the append, to chase renames
    };
    std::vector<RotTarget> targets;
    std::vector<std::pair<std::string, std::size_t>> written;  // name, bytes
    auto synced_len = [&](const std::string& name) {
      for (auto& w : written) {
        if (w.first == name) return w.second;
      }
      return std::size_t{0};
    };
    auto bump = [&](const std::string& name, std::size_t n) {
      for (auto& w : written) {
        if (w.first == name) { w.second += n; return; }
      }
      written.emplace_back(name, n);
    };
    // Base objects: appended bytes start past the pre-journal length.
    for (const auto& o : objects_) {
      std::size_t appended = 0;
      bool created = false;
      for (const Op& op : journal_) {
        if (op.name != o.first) continue;
        if (op.kind == OpKind::kCreate) created = true;
        if (op.kind == OpKind::kAppend) appended += op.data.size();
      }
      if (!created) written.emplace_back(o.first, o.second.size() - appended);
    }
    // Recompute per-object offsets of un-synced bytes.
    for (std::size_t i = 0; i < cut; ++i) {
      const Op& op = journal_[i];
      if (op.kind == OpKind::kCreate) {
        written.erase(std::remove_if(
                          written.begin(), written.end(),
                          [&](const auto& w) { return w.first == op.name; }),
                      written.end());
      } else if (op.kind == OpKind::kAppend) {
        if (last_sync[i] == 0) {
          const std::size_t at = synced_len(op.name);
          for (std::size_t b = 0; b < op.data.size(); ++b) {
            targets.push_back(RotTarget{op.name, at + b, i});
          }
        }
        bump(op.name, op.data.size());
      }
    }
    if (!targets.empty()) {
      const RotTarget& t = targets[prng.index(targets.size())];
      // The appended-to object may have been renamed after the append (a
      // snapshot tmp published to its final name) — chase renames forward.
      std::string name = t.name;
      for (std::size_t i = t.op + 1; i < cut; ++i) {
        if (journal_[i].kind == OpKind::kRename && journal_[i].name == name) {
          name = journal_[i].data;
        }
      }
      if (auto* o = image->find_object(name)) {
        if (t.offset < o->second.size()) {
          o->second[t.offset] = static_cast<char>(
              static_cast<unsigned char>(o->second[t.offset]) ^
              (1u << prng.index(8)));
        }
      }
    }
  }

  if (spec.fault == CrashFault::kStaleSegment) {
    // One object created since the last sync_dir never got its directory
    // entry to the platter: it vanishes wholesale.
    std::vector<std::string> volatile_names;
    for (std::size_t i = last_dir_sync; i < cut; ++i) {
      if (journal_[i].kind == OpKind::kCreate &&
          image->exists(journal_[i].name)) {
        volatile_names.push_back(journal_[i].name);
      }
    }
    if (!volatile_names.empty()) {
      const std::string victim =
          volatile_names[prng.index(volatile_names.size())];
      image->objects_.erase(
          std::remove_if(image->objects_.begin(), image->objects_.end(),
                         [&](const auto& o) { return o.first == victim; }),
          image->objects_.end());
    }
  }

  if (spec.fault == CrashFault::kMappedRot) {
    // Media decay: one bit anywhere in the durable image — synced bytes
    // included. Sync barriers offer no protection here; only checksums do.
    std::size_t total = 0;
    for (const auto& o : image->objects_) total += o.second.size();
    if (total > 0) {
      std::size_t at = prng.index(total);
      for (auto& o : image->objects_) {
        if (at < o.second.size()) {
          o.second[at] = static_cast<char>(
              static_cast<unsigned char>(o.second[at]) ^
              (1u << prng.index(8)));
          break;
        }
        at -= o.second.size();
      }
    }
  }

  return image;
}

}  // namespace ct
