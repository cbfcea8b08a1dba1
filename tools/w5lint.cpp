// w5lint — repo-specific static checks for the W5 tree (DESIGN.md §14).
//
// The platform's promise (§3.1) is that the *platform*, not the app,
// enforces the perimeter. Runtime legs (TSan, the telemetry leak test)
// only catch a violation when a test happens to execute it; this tool
// makes the structural rules fail the build instead:
//
//   layering    The include DAG between src/ top-level directories is
//               frozen below; a new back-edge (difc/ including core/,
//               store/ including apps/, ...) is an error.
//   perimeter   Raw socket/file-descriptor writes (::send, ::write and
//               friends) appear only in net/ and os/ — everything else
//               must go through the gateway/declassifier surface. apps/
//               must not include the server headers
//               (net/event_loop_server.h, net/http_session.h): apps
//               never construct externally-bound responses themselves.
//   telemetry   telemetry/debug planes (util/metrics, core/trace,
//               core/flight_recorder, core/statusz, net/tracing) never
//               include store/record.h (§3.5: telemetry carries no user
//               data bytes; previously guarded only by a runtime leak
//               test).
//   banned      strcpy/sprintf/gets/rand(3) and `using namespace` in
//               headers.
//
// Usage: w5lint <src-root> [--allowlist <file>]
//
// Exit 0: clean. Exit 1: violations (one line each). Exit 2: bad usage.
// The allowlist file contains lines "<check> <path-prefix>  # why";
// a violation is suppressed when its check name matches and its path
// (relative to <src-root>) starts with the prefix.
//
// Self-contained: C++20 + <filesystem> only, no third-party deps.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---- The frozen layering DAG ----------------------------------------------
// Derived from the tree at freeze time (PR 5); each directory may include
// itself, plus exactly the directories listed. Adding a legitimate new
// edge is a DESIGN.md §14 decision: update this table in the same PR and
// say why in the design doc.
const std::map<std::string, std::set<std::string>> kAllowedIncludes = {
    {"util", {}},
    {"difc", {"util"}},
    {"net", {"util"}},
    {"rank", {"util"}},
    {"os", {"difc", "util"}},
    {"store", {"difc", "net", "os", "util"}},
    {"core", {"difc", "net", "os", "rank", "store", "util"}},
    // PR 9 (federated metasearch, DESIGN.md §18): fed/ gained rank/ (the
    // tf-idf merge-rank reuses the search tokenizer and weights) and
    // store/ (QueryOptions + the §3.5 quantizer for federated facet
    // counts). apps/ deliberately did NOT gain fed/ — apps reach the
    // scatter/gather plane only through the core-owned FederatedSearchFn
    // seam (AppContext/gateway), pinned by the metasearch_layering lint
    // fixture.
    {"fed", {"core", "net", "rank", "store", "util"}},
    {"apps", {"core", "util"}},
};

// Directories whose code may touch raw socket/fd write primitives.
const std::set<std::string> kRawWriteDirs = {"net", "os"};
const std::vector<std::string> kRawWriteCalls = {"send", "sendto", "sendmsg",
                                                 "write", "writev", "pwrite"};

// Event-plane primitives (DESIGN.md §15): readiness multiplexing and
// accept loops live in the reactor/transport layers only. Anything above
// net/ and os/ that wants to wait on a socket goes through a Connection
// or the serve() surface — a raw poll/epoll/accept elsewhere is a
// second, unaudited event loop.
const std::vector<std::string> kRawEventCalls = {
    "poll", "ppoll", "epoll_wait", "epoll_create1", "epoll_ctl", "accept",
    "accept4", "eventfd"};

// Telemetry planes (§3.5) and the include that would let record bytes in.
// The §16 observability surfaces (flight recorder, statusz, cross-hop
// trace plumbing) are telemetry files too: anything they render is one
// include away from being exfiltrated through /debug or a trace header.
const std::vector<std::string> kTelemetryPrefixes = {
    "util/metrics", "core/trace", "core/flight_recorder", "core/statusz",
    "net/tracing"};
// Both headers expose record bytes: record.h the struct itself,
// labeled_store.h the query surface that returns them. Telemetry reads
// engine health through the record-free QueryEngineStats hand-off
// instead (store/query_stats.h).
const std::vector<std::string> kRecordHeaders = {"store/record.h",
                                                 "store/labeled_store.h"};

// Functions that have no business in this tree (buffer overflows, or a
// global PRNG where util::Rng keeps runs deterministic and seedable).
const std::vector<std::string> kBannedCalls = {"strcpy", "strcat", "sprintf",
                                               "vsprintf", "gets", "rand",
                                               "srand"};

struct Violation {
  std::string check;
  std::string path;  // relative to the scanned root
  std::size_t line;
  std::string message;
};

struct AllowEntry {
  std::string check;
  std::string prefix;
  std::size_t line = 0;  // line in the allowlist file, for diagnostics
  bool used = false;     // an entry that suppresses nothing is itself an error
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Blanks out comments and string/char literals, preserving line structure,
// so the token checks below never trip on documentation or log text.
std::string strip_comments_and_literals(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\') {
          out += "  ";
          ++i;
          if (next == '\n') out.back() = '\n';
        } else if (c == quote) {
          state = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      }
    }
  }
  return out;
}

// First path component of a relative path ("core/trace.h" -> "core").
std::string top_dir(const std::string& rel) {
  const auto slash = rel.find('/');
  return slash == std::string::npos ? std::string{} : rel.substr(0, slash);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) lines.push_back(line);
  return lines;
}

// Extracts `path` from an `#include "path"` line; empty when not one.
std::string quoted_include(const std::string& line) {
  auto pos = line.find_first_not_of(" \t");
  if (pos == std::string::npos || line[pos] != '#') return {};
  pos = line.find_first_not_of(" \t", pos + 1);
  if (pos == std::string::npos || line.compare(pos, 7, "include") != 0)
    return {};
  const auto open = line.find('"', pos + 7);
  if (open == std::string::npos) return {};
  const auto close = line.find('"', open + 1);
  if (close == std::string::npos) return {};
  return line.substr(open + 1, close - open - 1);
}

// True when `token(` appears as a standalone call at `pos`-ish; bans
// `strcpy(...)` but not `w5_strcpy(...)`, `s.rand(...)`, or `x::rand(`.
bool banned_call_at(const std::string& line, std::size_t pos,
                    const std::string& token) {
  if (pos > 0) {
    const char before = line[pos - 1];
    if (ident_char(before) || before == ':' || before == '.' ||
        before == '>') {
      return false;  // method, qualified name, or longer identifier
    }
  }
  std::size_t after = pos + token.size();
  while (after < line.size() &&
         std::isspace(static_cast<unsigned char>(line[after])) != 0)
    ++after;
  return after < line.size() && line[after] == '(';
}

class Linter {
 public:
  explicit Linter(fs::path root) : root_(std::move(root)) {}

  bool load_allowlist(const fs::path& file) {
    std::ifstream in(file);
    if (!in) return false;
    allowlist_file_ = file.generic_string();
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::stringstream ss(line);
      AllowEntry entry;
      entry.line = lineno;
      if (ss >> entry.check >> entry.prefix) allow_.push_back(entry);
    }
    return true;
  }

  void scan_file(const fs::path& path) {
    const std::string rel = fs::relative(path, root_).generic_string();
    const bool is_header = path.extension() == ".h";
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string raw = buffer.str();
    // Includes are parsed from the raw lines (the path sits inside the
    // quotes the stripper blanks); token checks use the stripped lines.
    const std::vector<std::string> raw_lines = split_lines(raw);
    const std::vector<std::string> lines =
        split_lines(strip_comments_and_literals(raw));

    const std::string dir = top_dir(rel);
    const auto layer = kAllowedIncludes.find(dir);
    const bool telemetry_file =
        std::any_of(kTelemetryPrefixes.begin(), kTelemetryPrefixes.end(),
                    [&](const std::string& p) { return rel.rfind(p, 0) == 0; });

    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string& line = lines[i];
      const std::size_t lineno = i + 1;

      if (const std::string inc =
              i < raw_lines.size() ? quoted_include(raw_lines[i]) : "";
          !inc.empty()) {
        const std::string inc_dir = top_dir(inc);
        if (layer != kAllowedIncludes.end() && !inc_dir.empty() &&
            inc_dir != dir && kAllowedIncludes.count(inc_dir) != 0 &&
            layer->second.count(inc_dir) == 0) {
          report("layering", rel, lineno,
                 dir + "/ must not include " + inc_dir + "/ (\"" + inc +
                     "\"): frozen DAG edge missing — see DESIGN.md §14");
        }
        if (dir == "apps" && (inc == "net/event_loop_server.h" ||
                              inc == "net/http_session.h")) {
          report("perimeter", rel, lineno,
                 "apps/ must not include " + inc +
                     " — responses leave only through the "
                     "gateway/declassifier (§3.1)");
        }
        if (telemetry_file &&
            std::find(kRecordHeaders.begin(), kRecordHeaders.end(), inc) !=
                kRecordHeaders.end()) {
          report("telemetry", rel, lineno,
                 rel + " must not include " + inc +
                     " — telemetry carries no user data bytes (§3.5)");
        }
        continue;
      }

      if (kRawWriteDirs.count(dir) == 0) {
        for (const std::string& call : kRawWriteCalls) {
          const std::string needle = "::" + call;
          for (auto pos = line.find(needle); pos != std::string::npos;
               pos = line.find(needle, pos + 1)) {
            // Qualified names like util::write_all are fine; only the
            // global-namespace syscall spelling is the perimeter breach.
            if (pos > 0 && (ident_char(line[pos - 1]) || line[pos - 1] == ':'))
              continue;
            std::size_t after = pos + needle.size();
            while (after < line.size() &&
                   std::isspace(static_cast<unsigned char>(line[after])) != 0)
              ++after;
            if (after < line.size() && line[after] == '(') {
              report("perimeter", rel, lineno,
                     "raw ::" + call +
                         "() outside net/ and os/ — external bytes move "
                         "only through the perimeter layers (§3.1)");
            }
          }
        }
        for (const std::string& call : kRawEventCalls) {
          const std::string needle = "::" + call;
          for (auto pos = line.find(needle); pos != std::string::npos;
               pos = line.find(needle, pos + 1)) {
            if (pos > 0 && (ident_char(line[pos - 1]) || line[pos - 1] == ':'))
              continue;
            std::size_t after = pos + needle.size();
            while (after < line.size() &&
                   std::isspace(static_cast<unsigned char>(line[after])) != 0)
              ++after;
            if (after < line.size() && line[after] == '(') {
              report("event", rel, lineno,
                     "raw ::" + call +
                         "() outside net/ and os/ — readiness multiplexing "
                         "and accept loops belong to the reactor (§15)");
            }
          }
        }
      }

      for (const std::string& call : kBannedCalls) {
        for (auto pos = line.find(call); pos != std::string::npos;
             pos = line.find(call, pos + 1)) {
          if (banned_call_at(line, pos, call)) {
            report("banned", rel, lineno,
                   "banned function " + call +
                       "() — use the util/ replacements (bounded strings, "
                       "util::Rng)");
          }
        }
      }

      if (is_header && line.find("using namespace") != std::string::npos) {
        report("banned", rel, lineno,
               "`using namespace` in a header pollutes every includer");
      }
    }
  }

  int run() {
    if (!fs::exists(root_)) {
      std::cerr << "w5lint: no such directory: " << root_ << "\n";
      return 2;
    }
    std::vector<fs::path> files;
    for (const auto& entry : fs::recursive_directory_iterator(root_)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension();
      if (ext == ".h" || ext == ".cpp" || ext == ".cc" || ext == ".hpp")
        files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& file : files) scan_file(file);

    // An allowlist entry that suppressed nothing is dead weight: either
    // the violation it excused is gone (delete the entry) or the prefix
    // is wrong and the suppression never worked (fix it). Both deserve a
    // failing run, not silence.
    for (const AllowEntry& entry : allow_) {
      if (entry.used) continue;
      violations_.push_back(Violation{
          "stale-allow", allowlist_file_, entry.line,
          "allowlist entry '" + entry.check + " " + entry.prefix +
              "' suppressed nothing — delete it or fix the prefix"});
    }

    for (const Violation& v : violations_) {
      std::cerr << "w5lint: " << v.path << ":" << v.line << ": [" << v.check
                << "] " << v.message << "\n";
    }
    std::cerr << "w5lint: " << files.size() << " files, "
              << violations_.size() << " violation(s), " << suppressed_
              << " suppressed\n";
    return violations_.empty() ? 0 : 1;
  }

 private:
  void report(std::string check, const std::string& rel, std::size_t line,
              std::string message) {
    for (AllowEntry& entry : allow_) {
      if (entry.check == check && rel.rfind(entry.prefix, 0) == 0) {
        entry.used = true;
        ++suppressed_;
        return;
      }
    }
    violations_.push_back(
        Violation{std::move(check), rel, line, std::move(message)});
  }

  fs::path root_;
  std::string allowlist_file_;
  std::vector<AllowEntry> allow_;
  std::vector<Violation> violations_;
  std::size_t suppressed_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string root;
  std::string allowlist;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--allowlist") {
      if (i + 1 >= args.size()) {
        std::cerr << "w5lint: --allowlist needs a file\n";
        return 2;
      }
      allowlist = args[++i];
    } else if (root.empty()) {
      root = args[i];
    } else {
      std::cerr << "w5lint: unexpected argument '" << args[i] << "'\n";
      return 2;
    }
  }
  if (root.empty()) {
    std::cerr << "usage: w5lint <src-root> [--allowlist <file>]\n";
    return 2;
  }
  Linter linter((fs::path(root)));
  if (!allowlist.empty() && !linter.load_allowlist(allowlist)) {
    std::cerr << "w5lint: cannot read allowlist " << allowlist << "\n";
    return 2;
  }
  return linter.run();
}
