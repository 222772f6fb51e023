#include "durability/wal.hpp"

#include <algorithm>
#include <sstream>

#include "monitor/monitor.hpp"
#include "trace/snapshot.hpp"
#include "util/check.hpp"
#include "util/crc32c.hpp"
#include "util/varint.hpp"

namespace ct {

const char* to_string(SyncPolicy p) {
  switch (p) {
    case SyncPolicy::kNone: return "none";
    case SyncPolicy::kEveryRecord: return "every-record";
    case SyncPolicy::kEveryN: return "every-n";
    case SyncPolicy::kOnCheckpoint: return "on-checkpoint";
  }
  return "?";
}

namespace wal {

namespace {

std::string pad(std::uint64_t v, int width) {
  std::string s = std::to_string(v);
  while (static_cast<int>(s.size()) < width) s.insert(s.begin(), '0');
  return s;
}

void put_u32_le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (i * 8)) & 0xff));
  }
}

void put_u64_le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (i * 8)) & 0xff));
  }
}

std::uint64_t fnv_extend(std::uint64_t digest, std::string_view data) {
  for (const char c : data) {
    digest ^= static_cast<unsigned char>(c);
    digest *= kFnvPrime;
  }
  return digest;
}

}  // namespace

std::string segment_object_name(std::uint64_t segment_seq,
                                const std::string& ns) {
  return ns + "wal-" + pad(segment_seq, 8) + ".log";
}

std::string snapshot_object_name(std::uint64_t record_seq,
                                 const std::string& ns) {
  return ns + "snap-" + pad(record_seq, 12) + ".cts";
}

std::string tenant_namespace(std::uint32_t tenant) {
  return "tenant-" + pad(tenant, 6) + ".";
}

bool valid_namespace(const std::string& ns) {
  for (const char c : ns) {
    if (c == '/' || c == '\0') return false;
  }
  return true;
}

namespace {

std::optional<std::uint64_t> parse_decimal(const std::string& name,
                                           const std::string& ns,
                                           std::string_view kind_prefix,
                                           std::string_view suffix) {
  const std::string prefix = ns + std::string(kind_prefix);
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  std::uint64_t v = 0;
  for (std::size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return v;
}

}  // namespace

std::optional<std::uint64_t> parse_segment_name(const std::string& name,
                                                const std::string& ns) {
  return parse_decimal(name, ns, "wal-", ".log");
}

std::optional<std::uint64_t> parse_snapshot_name(const std::string& name,
                                                 const std::string& ns) {
  return parse_decimal(name, ns, "snap-", ".cts");
}

std::string encode_migration_intent(const WalMigration& m) {
  std::string payload;
  put_varint(payload, m.position);
  put_varint(payload, m.epoch);
  put_u64_le(payload, m.plan_digest);
  put_varint(payload, m.moves.size());
  for (const MigrationMove& mv : m.moves) {
    put_varint(payload, mv.process);
    put_varint(payload, mv.from);
    put_varint(payload, mv.to);
  }
  put_varint(payload, m.partition.size());
  for (const auto& members : m.partition) {
    put_varint(payload, members.size());
    for (const ProcessId p : members) put_varint(payload, p);
  }
  return payload;
}

bool headerless_segment(std::string_view data, std::uint64_t segment_seq) {
  std::string head(kSegmentMagic, 4);
  put_varint(head, segment_seq);
  if (data.size() <= head.size()) {
    return head.compare(0, data.size(), data) == 0;
  }
  // Magic and segment seq complete: the first-seq varint must be cut short.
  return data.compare(0, head.size(), head) == 0 &&
         try_get_varint(data, head.size()).error == VarintError::kTruncated;
}

std::string encode_record(const Event& e) {
  std::string payload;
  put_varint(payload, e.id.process);
  put_varint(payload, e.id.index);
  payload.push_back(static_cast<char>(e.kind));
  put_varint(payload, e.partner.process);
  put_varint(payload, e.partner.index);
  return payload;
}

void put_frame(std::string& out, std::uint8_t type,
               const std::string& payload) {
  const std::size_t start = out.size();
  out.push_back(static_cast<char>(type));
  put_varint(out, payload.size());
  out.append(payload);
  put_u32_le(out, crc32c(std::string_view(out).substr(start)));
}

WalScan scan_wal(const StorageBackend& storage, std::uint64_t from_seq,
                 const std::string& ns) {
  WalScan scan;
  scan.next_seq = from_seq;

  std::vector<std::pair<std::uint64_t, std::string>> segments;
  for (const std::string& name : storage.list()) {
    if (const auto seq = parse_segment_name(name, ns)) {
      segments.emplace_back(*seq, name);
    }
  }
  std::sort(segments.begin(), segments.end());

  auto stop = [&scan](std::string detail) {
    scan.truncated = true;
    scan.detail = std::move(detail);
  };

  for (const auto& [seg_seq, name] : segments) {
    const std::string data = storage.read(name);
    // No record can follow a header that never reached disk, so the
    // segment is an empty tail. It attests no log position either; a later
    // segment's chaining check below still catches a real gap.
    if (headerless_segment(data, seg_seq)) continue;
    ++scan.segments_scanned;

    // ---- header ----
    if (data.size() < 5 || data.compare(0, 4, kSegmentMagic) != 0) {
      stop(name + ": bad segment magic");
      return scan;
    }
    std::size_t pos = 4;
    const VarintDecode hseq = try_get_varint(data, pos);
    if (!hseq.ok()) {
      stop(name + ": header segment seq " + to_string(hseq.error));
      return scan;
    }
    pos += hseq.length;
    if (hseq.value != seg_seq) {
      stop(name + ": header names segment " + std::to_string(hseq.value));
      return scan;
    }
    const VarintDecode hfirst = try_get_varint(data, pos);
    if (!hfirst.ok()) {
      stop(name + ": header first seq " + to_string(hfirst.error));
      return scan;
    }
    pos += hfirst.length;
    // Chaining: this segment must start exactly at the scan position. A
    // later start is a gap (a lost or pruned-without-cover segment); an
    // earlier start just means a prefix already covered by the snapshot.
    if (hfirst.value > scan.next_seq) {
      stop(name + ": gap — segment starts at record " +
           std::to_string(hfirst.value) + ", expected " +
           std::to_string(scan.next_seq));
      return scan;
    }
    // The header attests the log once reached hfirst (records before it
    // were pruned under checkpoint cover), even if this segment is empty.
    if (hfirst.value > scan.log_end) scan.log_end = hfirst.value;

    // ---- frames ----
    std::uint64_t seq = hfirst.value;
    std::uint64_t digest = kFnvOffset;
    while (pos < data.size()) {
      const std::size_t frame_at = pos;
      const auto type = static_cast<std::uint8_t>(data[pos]);
      const VarintDecode len = try_get_varint(data, pos + 1);
      if (!len.ok()) {
        stop(name + ": frame length " + to_string(len.error) + " at offset " +
             std::to_string(frame_at));
        return scan;
      }
      const std::size_t payload_at = pos + 1 + len.length;
      if (len.value > data.size() || payload_at + len.value + 4 > data.size()) {
        stop(name + ": truncated frame at offset " + std::to_string(frame_at));
        return scan;
      }
      const std::string_view framed(data.data() + frame_at,
                                    payload_at + len.value - frame_at);
      std::uint32_t stored = 0;
      for (std::size_t i = 0; i < 4; ++i) {
        stored |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                      data[payload_at + len.value + i]))
                  << (i * 8);
      }
      if (crc32c(framed) != stored) {
        stop(name + ": CRC mismatch at offset " + std::to_string(frame_at));
        return scan;
      }
      const std::string_view payload(data.data() + payload_at,
                                     static_cast<std::size_t>(len.value));

      if (type == kRecordFrame) {
        Event e;
        std::size_t p = 0;
        const VarintDecode f1 = try_get_varint(payload, p);
        if (!f1.ok()) { stop(name + ": bad record payload"); return scan; }
        p += f1.length;
        const VarintDecode f2 = try_get_varint(payload, p);
        if (!f2.ok()) { stop(name + ": bad record payload"); return scan; }
        p += f2.length;
        if (p >= payload.size()) {
          stop(name + ": bad record payload");
          return scan;
        }
        const auto kind_raw = static_cast<std::uint8_t>(payload[p++]);
        const VarintDecode f3 = try_get_varint(payload, p);
        if (!f3.ok()) { stop(name + ": bad record payload"); return scan; }
        p += f3.length;
        const VarintDecode f4 = try_get_varint(payload, p);
        if (!f4.ok()) { stop(name + ": bad record payload"); return scan; }
        p += f4.length;
        if (p != payload.size() || f1.value > 0xffffffffull ||
            f2.value > 0xffffffffull || f3.value > 0xffffffffull ||
            f4.value > 0xffffffffull ||
            kind_raw > static_cast<std::uint8_t>(EventKind::kSync)) {
          stop(name + ": bad record payload at offset " +
               std::to_string(frame_at));
          return scan;
        }
        e.id = EventId{static_cast<ProcessId>(f1.value),
                       static_cast<EventIndex>(f2.value)};
        e.kind = static_cast<EventKind>(kind_raw);
        e.partner = EventId{static_cast<ProcessId>(f3.value),
                            static_cast<EventIndex>(f4.value)};
        digest = fnv_extend(digest, payload);
        if (seq >= scan.next_seq) {
          scan.records.push_back(wal::WalRecord{seq, e});
          scan.next_seq = seq + 1;
        }
        if (seq + 1 > scan.log_end) scan.log_end = seq + 1;
        ++seq;
      } else if (type == kCommitFrame) {
        std::size_t p = 0;
        const VarintDecode cseq = try_get_varint(payload, p);
        if (!cseq.ok()) { stop(name + ": bad commit payload"); return scan; }
        p += cseq.length;
        if (p + 8 != payload.size()) {
          stop(name + ": bad commit payload");
          return scan;
        }
        std::uint64_t cdigest = 0;
        for (std::size_t i = 0; i < 8; ++i) {
          cdigest |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                         payload[p + i]))
                     << (i * 8);
        }
        if (cseq.value != seq || cdigest != digest) {
          stop(name + ": commit frame disagrees with replay at offset " +
               std::to_string(frame_at) + " (commit seq " +
               std::to_string(cseq.value) + ", replayed to " +
               std::to_string(seq) + ")");
          return scan;
        }
      } else if (type == kMigrationIntentFrame ||
                 type == kMigrationCommitFrame) {
        std::size_t p = 0;
        auto take = [&payload, &p](std::uint64_t* out) {
          const VarintDecode d = try_get_varint(payload, p);
          if (!d.ok()) return false;
          p += d.length;
          *out = d.value;
          return true;
        };
        auto take_u64 = [&payload, &p](std::uint64_t* out) {
          if (p + 8 > payload.size()) return false;
          std::uint64_t v = 0;
          for (std::size_t i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(payload[p + i]))
                 << (i * 8);
          }
          p += 8;
          *out = v;
          return true;
        };
        WalMigration m;
        bool ok = take(&m.position) && take(&m.epoch) && m.epoch > 0 &&
                  take_u64(&m.plan_digest);
        if (ok && type == kMigrationIntentFrame) {
          std::uint64_t moves = 0;
          ok = take(&moves) && moves <= (1u << 20);
          for (std::uint64_t i = 0; ok && i < moves; ++i) {
            std::uint64_t proc = 0, from = 0, to = 0;
            ok = take(&proc) && take(&from) && take(&to) &&
                 proc <= 0xffffffffull && from <= 0xffffffffull &&
                 to <= 0xffffffffull;
            if (ok) {
              m.moves.push_back(
                  MigrationMove{static_cast<ProcessId>(proc),
                                static_cast<ClusterId>(from),
                                static_cast<ClusterId>(to)});
            }
          }
          std::uint64_t clusters = 0;
          ok = ok && take(&clusters) && clusters >= 1 &&
               clusters <= (1u << 20);
          for (std::uint64_t c = 0; ok && c < clusters; ++c) {
            std::uint64_t size = 0;
            ok = take(&size) && size >= 1 && size <= (1u << 20);
            std::vector<ProcessId> members;
            for (std::uint64_t i = 0; ok && i < size; ++i) {
              std::uint64_t proc = 0;
              ok = take(&proc) && proc <= 0xffffffffull;
              if (ok) members.push_back(static_cast<ProcessId>(proc));
            }
            if (ok) m.partition.push_back(std::move(members));
          }
        }
        ok = ok && p == payload.size();
        if (!ok) {
          stop(name + ": bad migration payload at offset " +
               std::to_string(frame_at));
          return scan;
        }
        if (type == kMigrationIntentFrame) {
          scan.migrations.push_back(std::move(m));
        } else {
          // Commit: mark the matching intent; an orphan commit (intent in a
          // pruned segment) is recorded partition-less — recovery's epoch
          // filter proves it already baked into every usable snapshot.
          bool matched = false;
          for (auto it = scan.migrations.rbegin();
               it != scan.migrations.rend(); ++it) {
            if (it->position == m.position && it->epoch == m.epoch &&
                it->plan_digest == m.plan_digest) {
              it->committed = true;
              matched = true;
              break;
            }
          }
          if (!matched) {
            m.committed = true;
            scan.migrations.push_back(std::move(m));
          }
        }
      } else {
        stop(name + ": unknown frame type " + std::to_string(int{type}) +
             " at offset " + std::to_string(frame_at));
        return scan;
      }
      pos = payload_at + len.value + 4;
    }
  }
  return scan;
}

}  // namespace wal

// ------------------------------------------------------------ DurableLog ---

DurableLog::DurableLog(StorageBackend& storage, WalOptions options,
                       std::uint64_t resume_seq)
    : storage_(storage),
      options_(options),
      next_seq_(resume_seq),
      synced_seq_(resume_seq),
      segment_digest_(wal::kFnvOffset) {
  CT_CHECK_MSG(options_.sync_every > 0, "sync_every must be positive");
  CT_CHECK_MSG(options_.segment_bytes >= 64, "segment_bytes too small");
  CT_CHECK_MSG(wal::valid_namespace(options_.ns),
               "invalid WAL namespace: " << options_.ns);
  std::uint64_t max_segment = 0;
  bool any = false;
  for (const std::string& name : storage_.list()) {
    if (const auto seq = wal::parse_segment_name(name, options_.ns)) {
      max_segment = std::max(max_segment, *seq);
      any = true;
    }
  }
  segment_seq_ = any ? max_segment + 1 : 1;
  // A last segment whose header never reached disk is reopened under its
  // own number (create truncates it), so it never ends up mid-log.
  if (any &&
      wal::headerless_segment(
          storage_.read(wal::segment_object_name(max_segment, options_.ns)),
          max_segment)) {
    segment_seq_ = max_segment;
  }
  open_segment(resume_seq);
}

void DurableLog::open_segment(std::uint64_t first_record_seq) {
  segment_name_ = wal::segment_object_name(segment_seq_, options_.ns);
  segment_first_seq_ = first_record_seq;
  segment_digest_ = wal::kFnvOffset;
  std::string header;
  header.append(wal::kSegmentMagic, 4);
  put_varint(header, segment_seq_);
  put_varint(header, first_record_seq);
  storage_.create(segment_name_);
  storage_.sync_dir();
  storage_.append(segment_name_, header);
  segment_size_ = header.size();
  stats_.bytes_appended += header.size();
}

void DurableLog::append(const Event& e) {
  if (segment_size_ >= options_.segment_bytes) {
    sync();  // seal the full segment: its commit frame is its last word
    ++segment_seq_;
    open_segment(next_seq_);
    ++stats_.rotations;
  }
  const std::string payload = wal::encode_record(e);
  std::string frame;
  wal::put_frame(frame, wal::kRecordFrame, payload);
  storage_.append(segment_name_, frame);
  segment_digest_ = [this, &payload] {
    std::uint64_t d = segment_digest_;
    for (const char c : payload) {
      d ^= static_cast<unsigned char>(c);
      d *= wal::kFnvPrime;
    }
    return d;
  }();
  ++next_seq_;
  ++stats_.appends;
  stats_.bytes_appended += frame.size();
  segment_size_ += frame.size();
  ++unsynced_records_;

  switch (options_.policy) {
    case SyncPolicy::kEveryRecord:
      sync();
      break;
    case SyncPolicy::kEveryN:
      if (unsynced_records_ >= options_.sync_every) sync();
      break;
    case SyncPolicy::kNone:
    case SyncPolicy::kOnCheckpoint:
      break;
  }
}

void DurableLog::sync() {
  if (synced_seq_ == next_seq_ && unsynced_records_ == 0) return;
  std::string payload;
  put_varint(payload, next_seq_);
  std::string frame;
  {
    std::string digest_bytes;
    wal::put_u64_le(digest_bytes, segment_digest_);
    payload += digest_bytes;
  }
  wal::put_frame(frame, wal::kCommitFrame, payload);
  storage_.append(segment_name_, frame);
  storage_.sync(segment_name_);
  segment_size_ += frame.size();
  stats_.bytes_appended += frame.size();
  ++stats_.commits;
  ++stats_.syncs;
  synced_seq_ = next_seq_;
  unsynced_records_ = 0;
}

std::uint64_t DurableLog::append_migration_intent(WalMigration& m) {
  if (segment_size_ >= options_.segment_bytes) {
    sync();
    ++segment_seq_;
    open_segment(next_seq_);
    ++stats_.rotations;
  }
  m.position = next_seq_;
  std::string frame;
  wal::put_frame(frame, wal::kMigrationIntentFrame,
                 wal::encode_migration_intent(m));
  storage_.append(segment_name_, frame);
  segment_size_ += frame.size();
  stats_.bytes_appended += frame.size();
  // The intent (and every record the plan covers) must survive a crash
  // during verify. sync() seals the record prefix with a commit frame and
  // reaches disk; when nothing is unsynced it would no-op, so sync the
  // appended intent frame directly.
  if (synced_seq_ == next_seq_ && unsynced_records_ == 0) {
    storage_.sync(segment_name_);
    ++stats_.syncs;
  } else {
    sync();
  }
  return m.position;
}

void DurableLog::append_migration_commit(std::uint64_t position,
                                         std::uint64_t epoch,
                                         std::uint64_t plan_digest) {
  CT_CHECK_MSG(position <= next_seq_,
               "migration commit at future position " << position);
  std::string payload;
  put_varint(payload, position);
  put_varint(payload, epoch);
  wal::put_u64_le(payload, plan_digest);
  std::string frame;
  wal::put_frame(frame, wal::kMigrationCommitFrame, payload);
  storage_.append(segment_name_, frame);
  segment_size_ += frame.size();
  stats_.bytes_appended += frame.size();
  storage_.sync(segment_name_);
  ++stats_.syncs;
}

void DurableLog::checkpoint(const MonitoringEntity& monitor) {
  // Make the covered prefix durable first: the snapshot claims to cover
  // next_seq_ records, so those records must survive any crash after it.
  sync();
  CT_CHECK_MSG(monitor.delivery_log().size() == next_seq_,
               "checkpoint of a monitor this log does not record: "
                   << monitor.delivery_log().size() << " delivered vs "
                   << next_seq_ << " logged");

  std::ostringstream snap;
  save_snapshot(snap, monitor);
  const std::string name = wal::snapshot_object_name(next_seq_, options_.ns);
  if (storage_.exists(name)) storage_.remove(name);
  storage_.create(name);
  storage_.append(name, snap.str());
  storage_.sync(name);
  storage_.sync_dir();
  ++stats_.checkpoints;
  stats_.bytes_appended += snap.str().size();

  // Retain the newest `retain_checkpoints` snapshots; prune WAL segments
  // wholly covered by the OLDEST retained one (so every retained snapshot
  // can still recover with the remaining tail).
  std::vector<std::uint64_t> snap_seqs;
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  for (const std::string& obj : storage_.list()) {
    if (const auto seq = wal::parse_snapshot_name(obj, options_.ns)) {
      snap_seqs.push_back(*seq);
    } else if (const auto seg = wal::parse_segment_name(obj, options_.ns)) {
      segments.emplace_back(*seg, obj);
    }
  }
  std::sort(snap_seqs.begin(), snap_seqs.end());
  std::sort(segments.begin(), segments.end());
  bool removed = false;
  const std::size_t retain = std::max<std::size_t>(1, options_.retain_checkpoints);
  while (snap_seqs.size() > retain) {
    storage_.remove(wal::snapshot_object_name(snap_seqs.front(), options_.ns));
    snap_seqs.erase(snap_seqs.begin());
    ++stats_.snapshots_pruned;
    removed = true;
  }
  const std::uint64_t covered = snap_seqs.front();
  // A segment's records end where the next segment begins; the last (live)
  // segment is never pruned.
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    const std::string next_data = storage_.read(segments[i + 1].second);
    std::uint64_t next_first = 0;
    {
      // Header: magic(4) | varint seg seq | varint first seq. The segment
      // was written by this process or survived a scan; parse defensively.
      if (next_data.size() < 5) break;
      std::size_t pos = 4;
      const VarintDecode s = try_get_varint(next_data, pos);
      if (!s.ok()) break;
      pos += s.length;
      const VarintDecode f = try_get_varint(next_data, pos);
      if (!f.ok()) break;
      next_first = f.value;
    }
    if (next_first <= covered) {
      storage_.remove(segments[i].second);
      ++stats_.segments_pruned;
      removed = true;
    } else {
      break;
    }
  }
  if (removed) storage_.sync_dir();
}

}  // namespace ct
