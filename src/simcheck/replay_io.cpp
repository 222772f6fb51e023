#include "simcheck/replay_io.hpp"

#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>

#include "util/check.hpp"

namespace ct {

namespace {

constexpr const char* kMagic = "# ct-simcheck-replay v1";

}  // namespace

void save_replay(std::ostream& out, const SimSchedule& schedule) {
  out << kMagic << '\n';
  out << "name " << (schedule.name.empty() ? "unnamed" : schedule.name)
      << '\n';
  out << "seed " << schedule.seed << '\n';
  out << "processes " << schedule.process_count << '\n';
  out << "engine maxcs=" << schedule.max_cluster_size << " nth="
      << std::setprecision(std::numeric_limits<double>::max_digits10)
      << schedule.nth_threshold << '\n';
  for (const SimOp& op : schedule.ops) {
    switch (op.kind) {
      case SimOp::Kind::kEmit:
        out << "e " << op.event.id.process << ' ' << op.event.id.index << ' '
            << static_cast<unsigned>(op.event.kind) << ' '
            << op.event.partner.process << ' ' << op.event.partner.index
            << '\n';
        break;
      case SimOp::Kind::kCheckpointRestore:
        out << "k\n";
        break;
      case SimOp::Kind::kRebuild:
        out << "b " << op.a << '\n';
        break;
      case SimOp::Kind::kCorruptRepair:
        out << "x " << op.a << ' ' << op.b << ' ' << op.c << ' ' << op.d
            << '\n';
        break;
      case SimOp::Kind::kProbe:
        out << "q " << op.a << ' ' << op.b << ' ' << op.c << ' ' << op.d
            << '\n';
        break;
      case SimOp::Kind::kMigrate:
        out << "m " << op.a << ' ' << op.b << ' ' << op.c << ' ' << op.d
            << '\n';
        break;
    }
  }
  CT_CHECK_MSG(out.good(), "replay write failed");
}

SimSchedule load_replay(std::istream& in) {
  std::string line;
  CT_CHECK_MSG(std::getline(in, line), "empty replay file");
  CT_CHECK_MSG(line == kMagic, "bad replay header: " << line);

  SimSchedule s;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "name") {
      ls >> s.name;
    } else if (tag == "seed") {
      ls >> s.seed;
    } else if (tag == "processes") {
      ls >> s.process_count;
    } else if (tag == "engine") {
      std::string field;
      while (ls >> field) {
        const auto eq = field.find('=');
        CT_CHECK_MSG(eq != std::string::npos, "bad engine field: " << field);
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        std::istringstream vs(value);
        if (key == "maxcs") {
          vs >> s.max_cluster_size;
        } else if (key == "nth") {
          vs >> s.nth_threshold;
        } else if (key == "arena") {
          // The removed storage-layout switch: older replays still carry
          // it, and every layout now replays on the one store.
          int flag = 0;
          vs >> flag;
          CT_CHECK_MSG(flag == 0 || flag == 1, "bad engine value: " << field);
        } else {
          CT_CHECK_MSG(false, "unknown engine field: " << key);
        }
        CT_CHECK_MSG(!vs.fail(), "bad engine value: " << field);
      }
    } else if (tag == "e") {
      SimOp op;
      op.kind = SimOp::Kind::kEmit;
      unsigned kind = 0;
      ls >> op.event.id.process >> op.event.id.index >> kind >>
          op.event.partner.process >> op.event.partner.index;
      CT_CHECK_MSG(!ls.fail(), "bad emit line: " << line);
      op.event.kind = static_cast<EventKind>(kind);
      s.ops.push_back(op);
    } else if (tag == "k") {
      SimOp op;
      op.kind = SimOp::Kind::kCheckpointRestore;
      s.ops.push_back(op);
    } else if (tag == "b") {
      SimOp op;
      op.kind = SimOp::Kind::kRebuild;
      ls >> op.a;
      CT_CHECK_MSG(!ls.fail(), "bad rebuild line: " << line);
      s.ops.push_back(op);
    } else if (tag == "x" || tag == "q" || tag == "m") {
      SimOp op;
      op.kind = tag == "x"   ? SimOp::Kind::kCorruptRepair
                : tag == "q" ? SimOp::Kind::kProbe
                             : SimOp::Kind::kMigrate;
      ls >> op.a >> op.b >> op.c >> op.d;
      CT_CHECK_MSG(!ls.fail(), "bad op line: " << line);
      s.ops.push_back(op);
    } else {
      CT_CHECK_MSG(false, "unknown replay tag: " << tag);
    }
  }
  CT_CHECK_MSG(s.process_count > 0, "replay names no processes");
  return s;
}

void save_replay(const std::string& path, const SimSchedule& schedule) {
  std::ofstream out(path);
  CT_CHECK_MSG(out.is_open(), "cannot open " << path << " for writing");
  save_replay(out, schedule);
}

SimSchedule load_replay(const std::string& path) {
  std::ifstream in(path);
  CT_CHECK_MSG(in.is_open(), "cannot open " << path);
  return load_replay(in);
}

}  // namespace ct
