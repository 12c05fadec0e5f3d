// lscatter-lint: project-specific static checks that clang-tidy cannot
// express (DESIGN.md §8). Runs from scripts/check.sh and CI; exits
// non-zero if any rule fires. Rules:
//
//   units      a `double`/`float` parameter or member whose name carries a
//              unit suffix (_db, _dbm, _hz) in src/ must use the strong
//              type from dsp/units.hpp — or carry an inline waiver.
//   rng        no rand()/srand()/std::mt19937/std::random_device outside
//              src/dsp/rng.*: every random draw must flow through the
//              seeded PCG32 so runs stay reproducible.
//   float-dsp  no single-precision libm calls (sqrtf, cosf, ...) in src/:
//              accumulate in double, cast to float at the boundary.
//   include    headers start with #pragma once; no <bits/...> includes;
//              a .cpp's first include is its own header.
//   into       a cvec-returning function in a src/dsp or src/lte header
//              must have an allocation-free `<name>_into` counterpart
//              (DESIGN.md §10) — hot-path callers need a way to reuse
//              buffers. One-shot helpers carry an inline waiver.
//   obs-loop   no registry name lookups (`Registry::instance().counter(…)`
//              et al.) inside loop bodies in src/: each lookup takes the
//              registry mutex plus a map walk, so loops must hit a
//              cached handle (function-local static, obs.hpp macro) or a
//              pre-resolved family cell (obs/family.hpp) instead.
//   raw-mutex  no raw std synchronization primitives (std::mutex,
//              std::shared_mutex, std::lock_guard, ...) in src/ outside
//              core/thread_safety.hpp: every lock must go through the
//              annotated lscatter:: wrappers so the clang
//              thread-safety analysis sees it (DESIGN.md §13).
//   guarded-mutex  a lscatter::Mutex / SharedMutex member or field needs
//              at least one sibling LSCATTER_GUARDED_BY(<name>) in the
//              same file — a mutex protecting nothing the analysis can
//              see is usually an annotation gap, not a design choice.
//
// A finding can be waived on its line with: // lint-ok: <rule>
//
// Usage: lscatter-lint <repo-root>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;
  std::size_t line;
  std::string rule;
  std::string message;
};

std::vector<Finding> g_findings;

void report(const fs::path& file, std::size_t line, const std::string& rule,
            const std::string& message) {
  g_findings.push_back({file.string(), line, rule, message});
}

bool waived(const std::string& line, const std::string& rule) {
  const auto pos = line.find("// lint-ok:");
  if (pos == std::string::npos) return false;
  return line.find(rule, pos) != std::string::npos;
}

std::vector<std::string> read_lines(const fs::path& p) {
  std::ifstream in(p);
  std::vector<std::string> lines;
  std::string l;
  while (std::getline(in, l)) lines.push_back(l);
  return lines;
}

// Strip // comments and string literals so rules don't fire on prose.
std::string code_only(const std::string& line) {
  std::string out;
  out.reserve(line.size());
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
        continue;
      }
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') {
      in_string = true;
      continue;
    }
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
    out += c;
  }
  return out;
}

bool is_under(const fs::path& p, const std::string& dir) {
  for (const auto& part : p) {
    if (part == dir) return true;
  }
  return false;
}

// --- rule: units ---------------------------------------------------------
// `double foo_db`, `float bar_hz`, ... in src/ headers and sources. The
// regex keys on the declaration shape so locals named e.g. `snr_db` that
// hold a plain double still get flagged — that is the point: the value
// should be a dsp::Db all the way through.
const std::regex kRawUnitDecl(
    R"((?:\b(?:double|float)\s+)([A-Za-z_][A-Za-z0-9_]*_(?:db|dbm|hz))\b(?!\s*\())");

void check_units(const fs::path& file,
                 const std::vector<std::string>& lines) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (waived(lines[i], "units")) continue;
    const std::string code = code_only(lines[i]);
    std::smatch m;
    if (std::regex_search(code, m, kRawUnitDecl)) {
      report(file, i + 1, "units",
             "'" + m[1].str() +
                 "' carries a unit suffix but is a raw double/float; use "
                 "dsp::Db / dsp::Dbm / dsp::Hz (dsp/units.hpp)");
    }
  }
}

// --- rule: rng -----------------------------------------------------------
const std::regex kBannedRng(
    R"(\b(?:std::)?(rand|srand)\s*\(|\bstd::(mt19937(?:_64)?|minstd_rand0?|random_device)\b)");

void check_rng(const fs::path& file, const std::vector<std::string>& lines) {
  if (file.filename().string().rfind("rng", 0) == 0 &&
      is_under(file, "dsp")) {
    return;  // dsp/rng.* is the one place randomness may originate
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (waived(lines[i], "rng")) continue;
    const std::string code = code_only(lines[i]);
    std::smatch m;
    if (std::regex_search(code, m, kBannedRng)) {
      report(file, i + 1, "rng",
             "unseeded/global RNG; draw through dsp::Rng (PCG32) so runs "
             "stay reproducible");
    }
  }
}

// --- rule: float-dsp -----------------------------------------------------
const std::regex kSinglePrecLibm(
    R"(\b(sqrtf|cosf|sinf|tanf|powf|expf|logf|log10f|log2f|atan2f|fabsf|floorf|ceilf|roundf|hypotf|fmodf)\s*\()");

void check_float_dsp(const fs::path& file,
                     const std::vector<std::string>& lines) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (waived(lines[i], "float-dsp")) continue;
    const std::string code = code_only(lines[i]);
    std::smatch m;
    if (std::regex_search(code, m, kSinglePrecLibm)) {
      report(file, i + 1, "float-dsp",
             "single-precision libm call '" + m[1].str() +
                 "'; compute in double and cast at the boundary");
    }
  }
}

// --- rule: include -------------------------------------------------------
void check_includes(const fs::path& file,
                    const std::vector<std::string>& lines,
                    const fs::path& rel) {
  const bool is_header = file.extension() == ".hpp";
  bool pragma_seen = false;
  std::string first_include;
  std::size_t first_include_line = 0;

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& l = lines[i];
    if (waived(l, "include")) continue;
    if (l.rfind("#pragma once", 0) == 0) pragma_seen = true;
    if (l.rfind("#include", 0) == 0) {
      if (l.find("<bits/") != std::string::npos) {
        report(file, i + 1, "include",
               "never include <bits/...> internals");
      }
      if (first_include.empty()) {
        first_include = l;
        first_include_line = i + 1;
      }
    }
  }

  if (is_header && !pragma_seen) {
    report(file, 1, "include", "header is missing #pragma once");
  }

  // Self-include-first for src/ implementation files: "a/b.cpp" must
  // include "a/b.hpp" before anything else (when that header exists).
  if (!is_header && !first_include.empty()) {
    fs::path hdr = rel;
    hdr.replace_extension(".hpp");
    const std::string expect = "#include \"" + hdr.generic_string() + "\"";
    if (fs::exists(file.parent_path() /
                   hdr.filename()) &&  // header exists beside the .cpp
        first_include.rfind(expect, 0) != 0) {
      report(file, first_include_line, "include",
             "first include must be the file's own header (" +
                 hdr.generic_string() + ")");
    }
  }
}

// --- rule: into ----------------------------------------------------------
// `cvec foo(...)` declared in a src/dsp or src/lte header needs a
// `foo_into` (or `foo_inplace`) counterpart somewhere in the same header
// so hot loops can avoid the per-call allocation. Scoped to declarations,
// not member-initializer lists: the regex keys on the return-type shape.
const std::regex kCvecReturningFn(
    R"(^\s*(?:(?:virtual|static|inline|constexpr|\[\[nodiscard\]\])\s+)*(?:dsp::)?cvec\s+([A-Za-z_][A-Za-z0-9_]*)\s*\()");

void check_into(const fs::path& file,
                const std::vector<std::string>& lines) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    // Declarations often wrap; accept the waiver on the line itself or on
    // a comment line directly above it.
    if (waived(lines[i], "into") ||
        (i > 0 && waived(lines[i - 1], "into"))) {
      continue;
    }
    const std::string code = code_only(lines[i]);
    std::smatch m;
    if (!std::regex_search(code, m, kCvecReturningFn)) continue;
    const std::string name = m[1].str();
    if (name.size() >= 5 && name.rfind("_into") == name.size() - 5) {
      continue;  // already the _into variant itself
    }
    const std::string into = name + "_into";
    const std::string inplace = name + "_inplace";
    bool has_counterpart = false;
    for (const std::string& l : lines) {
      if (l.find(into) != std::string::npos ||
          l.find(inplace) != std::string::npos) {
        has_counterpart = true;
        break;
      }
    }
    if (!has_counterpart) {
      report(file, i + 1, "into",
             "'" + name +
                 "' returns cvec with no '" + into +
                 "' counterpart; add one for buffer reuse (DESIGN.md §10) "
                 "or waive with // lint-ok: into");
    }
  }
}

// --- rule: obs-loop ------------------------------------------------------
// A registry name lookup costs the registry mutex plus a map walk; in a
// loop body that lands per iteration and (worse) serializes concurrent
// workers on the registry lock. The obs.hpp macros and function-local
// `static Metric& m = Registry::instance()...` initializers resolve the
// name exactly once, so any line carrying `static` (or continuing a
// `static` initializer from the previous line) is exempt.
const std::regex kRegistryLookup(
    R"((?:Registry::instance\s*\(\s*\)|\bregistry\s*\(\s*\))\s*\.\s*(counter|gauge|histogram|sharded_counter)\s*\()");
const std::regex kLoopKeyword(R"(\b(?:for|while|do)\b)");

void check_obs_loop(const fs::path& file,
                    const std::vector<std::string>& lines) {
  int depth = 0;
  int parens = 0;
  bool pending_loop = false;       // saw a loop keyword, body not yet open
  std::vector<int> loop_depths;    // brace depths that are loop bodies
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string code = code_only(lines[i]);
    const bool exempt =
        waived(lines[i], "obs-loop") ||
        code.find("static") != std::string::npos ||
        (i > 0 &&
         code_only(lines[i - 1]).find("static") != std::string::npos);
    if (!loop_depths.empty() && !exempt) {
      std::smatch m;
      if (std::regex_search(code, m, kRegistryLookup)) {
        report(file, i + 1, "obs-loop",
               "registry ." + m[1].str() +
                   "() name lookup inside a loop body; resolve once "
                   "before the loop (cached static handle or family "
                   "cell) or waive with // lint-ok: obs-loop");
      }
    }
    if (std::regex_search(code, kLoopKeyword)) pending_loop = true;
    for (const char c : code) {
      if (c == '{') {
        ++depth;
        if (pending_loop) {
          loop_depths.push_back(depth);
          pending_loop = false;
        }
      } else if (c == '}') {
        if (!loop_depths.empty() && loop_depths.back() == depth) {
          loop_depths.pop_back();
        }
        --depth;
      } else if (c == '(') {
        ++parens;
      } else if (c == ')') {
        if (parens > 0) --parens;
      } else if (c == ';' && parens == 0) {
        pending_loop = false;  // brace-less loop body ended
      }
    }
  }
}

// --- rule: raw-mutex -----------------------------------------------------
// Every lock in src/ must be a core/thread_safety.hpp wrapper: raw std
// primitives are invisible to the clang -Wthread-safety lane, so a lock
// they leave unheld is only found the hard way. thread_safety.hpp itself
// is the one legitimate home of the raw types (it wraps them).
const std::regex kRawSyncPrimitive(
    R"(\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|shared_timed_mutex|lock_guard|unique_lock|shared_lock|scoped_lock|condition_variable(?:_any)?)\b)");

void check_raw_mutex(const fs::path& file,
                     const std::vector<std::string>& lines) {
  if (file.filename() == "thread_safety.hpp") return;  // the wrapper home
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (waived(lines[i], "raw-mutex")) continue;
    const std::string code = code_only(lines[i]);
    std::smatch m;
    if (std::regex_search(code, m, kRawSyncPrimitive)) {
      report(file, i + 1, "raw-mutex",
             "raw std::" + m[1].str() +
                 "; use the annotated wrapper from core/thread_safety.hpp "
                 "(lscatter::Mutex / LockGuard / CondVar ...) so the "
                 "thread-safety analysis sees it, or waive with "
                 "// lint-ok: raw-mutex");
    }
  }
}

// --- rule: guarded-mutex -------------------------------------------------
// A declared lscatter::Mutex / lscatter::SharedMutex should guard
// something: require at least one LSCATTER_GUARDED_BY(<that name>) in the
// same file. A mutex that serializes a code path rather than protecting
// data (e.g. an append-file critical section) is legitimate but rare
// enough to deserve an explicit waiver explaining itself.
const std::regex kWrapperMutexDecl(
    R"(\blscatter::(?:Shared)?Mutex\s+([A-Za-z_][A-Za-z0-9_]*)\s*[{;=])");

void check_guarded_mutex(const fs::path& file,
                         const std::vector<std::string>& lines) {
  if (file.filename() == "thread_safety.hpp") return;
  std::string all;
  for (const std::string& l : lines) {
    all += code_only(l);
    all += '\n';
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (waived(lines[i], "guarded-mutex")) continue;
    const std::string code = code_only(lines[i]);
    std::smatch m;
    if (!std::regex_search(code, m, kWrapperMutexDecl)) continue;
    const std::string guarded = "LSCATTER_GUARDED_BY(" + m[1].str() + ")";
    if (all.find(guarded) == std::string::npos) {
      report(file, i + 1, "guarded-mutex",
             "mutex '" + m[1].str() + "' has no sibling " + guarded +
                 " in this file; annotate the data it protects or waive "
                 "with // lint-ok: guarded-mutex (with a comment saying "
                 "what it serializes)");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: lscatter-lint <repo-root>\n");
    return 2;
  }
  const fs::path root = argv[1];
  const fs::path src = root / "src";
  if (!fs::is_directory(src)) {
    std::fprintf(stderr, "lscatter-lint: %s is not a repo root\n", argv[1]);
    return 2;
  }

  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(src)) {
    if (!e.is_regular_file()) continue;
    const auto ext = e.path().extension();
    if (ext == ".cpp" || ext == ".hpp") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());

  for (const auto& f : files) {
    const auto lines = read_lines(f);
    const fs::path rel = fs::relative(f, src);
    check_units(f, lines);
    check_rng(f, lines);
    check_float_dsp(f, lines);
    check_includes(f, lines, rel);
    check_obs_loop(f, lines);
    check_raw_mutex(f, lines);
    check_guarded_mutex(f, lines);
    if (f.extension() == ".hpp" &&
        (is_under(f, "dsp") || is_under(f, "lte"))) {
      check_into(f, lines);
    }
  }

  // RNG discipline also matters in tests/ and bench/ (reproducibility),
  // but unit/float rules stay scoped to src/ where the types live.
  for (const auto& dir : {root / "tests", root / "bench"}) {
    if (!fs::is_directory(dir)) continue;
    std::vector<fs::path> extra;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (e.is_regular_file() && e.path().extension() == ".cpp") {
        extra.push_back(e.path());
      }
    }
    std::sort(extra.begin(), extra.end());
    for (const auto& f : extra) check_rng(f, read_lines(f));
  }

  for (const auto& fnd : g_findings) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", fnd.file.c_str(), fnd.line,
                 fnd.rule.c_str(), fnd.message.c_str());
  }
  if (!g_findings.empty()) {
    std::fprintf(stderr, "lscatter-lint: %zu finding(s)\n",
                 g_findings.size());
    return 1;
  }
  std::printf("lscatter-lint: clean (%zu files)\n", files.size());
  return 0;
}
