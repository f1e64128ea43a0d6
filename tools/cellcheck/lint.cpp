#include "cellcheck/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>

namespace cj2k::cellcheck {

namespace {

/// A parameter list containing one of these reference types marks the
/// function/lambda as SPE-resident (the repo's kernel calling convention).
const std::regex kSpeMarker(R"((SpeContext|Simd|DmaEngine)\s*&)");

/// A template's type-parameter names (`template <class V, typename T>`).
const std::regex kTemplateHead(R"(\btemplate\s*<)");
const std::regex kTypeParam(R"(\b(?:class|typename)\s+(\w+))");

/// True when `line` declares a parameter of exactly type `name&` — a vector
/// policy taken by mutable reference (`(V& s`), the templated form of the
/// `Simd&` convention.  `const V&` and forwarding `V&&` do not count.
bool takes_policy_ref(const std::string& line, const std::string& name) {
  const std::regex param("[(,]\\s*" + name + "\\s*&(?!&)");
  return std::regex_search(line, param);
}

/// DMA transfer calls carrying a size-in-bytes/elements argument.  The
/// asynchronous engine calls and the tagged row helpers take the tag
/// *after* the size, so the checked argument index depends on the name.
const std::regex kDmaCall(
    R"(\bdma\.(get|put|get_large|put_large|get_async|put_async|getf_async|putf_async)\s*\(|\bdma_(get|put|getf|putf)_row(_tagged)?\s*\()");

/// Index of the size argument for a DMA call matched by kDmaCall, or
/// npos for "last argument".
std::size_t dma_size_arg_index(const std::string& call_name) {
  if (call_name.find("_async") != std::string::npos) return 2;
  if (call_name.find("_row_tagged") != std::string::npos) return 3;
  return std::string::npos;
}

struct Rule {
  std::regex pattern;
  const char* name;
  const char* message;
};

const Rule kSpeRules[] = {
    {std::regex(R"(\bnew\b|\bdelete\b|\b(malloc|calloc|realloc|free)\s*\()"),
     "spe-heap-alloc",
     "SPE kernels own no heap; allocate from LocalStore::alloc"},
    {std::regex(
         R"(std::vector\s*<|\.(push_back|emplace_back|resize|reserve)\s*\()"),
     "spe-vector-growth",
     "hidden reallocation breaks the constant-Local-Store property (§2)"},
    {std::regex(
         R"(std::(mutex|lock_guard|unique_lock|scoped_lock|condition_variable)\b|\.lock\s*\(\s*\))"),
     "spe-mutex",
     "SPEs have no coherent locks; synchronize on the PPE side of the work "
     "queue"},
    {std::regex(R"(std::thread\b)"), "spe-thread",
     "SPE kernels do not spawn threads"},
};

}  // namespace

std::string strip_comments_and_strings(const std::string& text) {
  std::string out = text;
  enum class St { kCode, kLine, kBlock, kStr, kChar } st = St::kCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char n = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && n == '/') {
          st = St::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && n == '*') {
          st = St::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          st = St::kStr;
        } else if (c == '\'') {
          st = St::kChar;
        }
        break;
      case St::kLine:
        if (c == '\n') {
          st = St::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case St::kBlock:
        if (c == '*' && n == '/') {
          st = St::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kStr:
        if (c == '\\') {
          out[i] = ' ';
          if (n != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (n != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

}  // namespace

bool split_call_args(const std::string& text, std::size_t open_pos,
                     std::vector<std::string>& args, std::size_t& end_pos) {
  int depth = 1;
  std::string cur;
  for (std::size_t i = open_pos + 1; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(' || c == '[' || c == '{') {
      ++depth;
    } else if (c == ')' || c == ']' || c == '}') {
      --depth;
      if (depth == 0) {
        args.push_back(cur);
        end_pos = i;
        return true;
      }
    } else if (c == ',' && depth == 1) {
      args.push_back(cur);
      cur.clear();
      continue;
    }
    cur += c;
  }
  return false;
}

namespace {

/// True when the DMA size expression is acceptable: no bare integer literal
/// >= 16, or every literal is accompanied by a named constant / sizeof the
/// size is derived from.  The literal matcher accepts integer suffixes
/// (0x80u, 4096UL): a suffix sits between two word characters, so a
/// trailing \b alone never matches the suffixed form — the original
/// false-negative this regex closes.
bool dma_size_expression_ok(const std::string& expr) {
  static const std::regex kDerived(
      R"(\bk[A-Z]\w*|\bsizeof\b|\bDmaEngine\s*::\s*kMaxTransfer\b)");
  if (std::regex_search(expr, kDerived)) return true;
  static const std::regex kLiteral(R"(\b(0[xX][0-9a-fA-F]+|\d+)[uUlL]*\b)");
  for (auto it = std::sregex_iterator(expr.begin(), expr.end(), kLiteral);
       it != std::sregex_iterator(); ++it) {
    const unsigned long long v = std::stoull(it->str(1), nullptr, 0);
    if (v >= 16) return false;
  }
  return true;
}

/// The bodies of classes that store a `DmaEngine&` data member (LsRing):
/// their member functions drive an SPE's DMA engine, so they are SPE code
/// even though no member signature names the engine.  Each body runs from
/// the line after its opening `{` through the line of its closing `}`.
std::vector<SpeRegion> dma_holder_bodies(
    const std::vector<std::string>& lines) {
  static const std::regex kClassHead(R"(^\s*(?:class|struct)\s+\w+[^;]*$)");
  static const std::regex kDmaMember(R"(\bDmaEngine\s*&\s*\w+\s*;)");
  std::vector<SpeRegion> out;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    if (!std::regex_search(lines[li], kClassHead)) continue;
    int depth = 0;
    std::size_t open = 0;
    bool holds_dma = false;
    for (std::size_t l = li; l < lines.size(); ++l) {
      if (open != 0 && std::regex_search(lines[l], kDmaMember)) {
        holds_dma = true;
      }
      for (const char c : lines[l]) {
        if (c == '{' && depth++ == 0) open = l + 1;
        if (c == '}' && --depth == 0 && open != 0) {
          if (holds_dma) out.push_back({open + 1, l + 1});
          l = lines.size();  // done with this class
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace

std::vector<SpeRegion> find_spe_regions(const std::string& stripped_text) {
  const auto lines = split_lines(stripped_text);

  // Region scanner state: brace depth, pending SPE-signature latch, and a
  // stack of depths at which SPE regions opened.  A line belongs to a
  // region when the stack is non-empty at the line's start.
  int depth = 0;
  bool pending = false;
  int pending_paren = 0;
  std::vector<int> region_depths;
  // Type parameters of the template whose declaration is being scanned;
  // cleared at the declaration's first `{` or `;`.
  std::vector<std::string> template_params;

  std::vector<SpeRegion> out;
  bool was_in = false;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& line = lines[li];

    if (std::regex_search(line, kTemplateHead)) {
      template_params.clear();
      for (auto it = std::sregex_iterator(line.begin(), line.end(), kTypeParam);
           it != std::sregex_iterator(); ++it) {
        template_params.push_back(it->str(1));
      }
    }

    // A new SPE-kernel signature?  std::function<...SpeContext&...> is a
    // type naming the convention, not a kernel definition.
    const bool policy_kernel = std::any_of(
        template_params.begin(), template_params.end(),
        [&](const std::string& p) { return takes_policy_ref(line, p); });
    if (!pending &&
        (policy_kernel || std::regex_search(line, kSpeMarker)) &&
        line.find("function<") == std::string::npos) {
      pending = true;
      pending_paren = 0;
    }

    const bool in_spe = !region_depths.empty();
    if (in_spe && !was_in) {
      out.push_back({li + 1, li + 1});
    } else if (in_spe) {
      out.back().last_line = li + 1;
    }
    was_in = in_spe;

    // Advance the brace/paren scanner.
    for (const char c : line) {
      if (c == '{' || c == ';') template_params.clear();
      if (pending) {
        if (c == '(') {
          ++pending_paren;
        } else if (c == ')') {
          --pending_paren;
        } else if (c == ';' && pending_paren <= 0) {
          pending = false;  // it was a declaration
        }
      }
      if (c == '{') {
        // Any `{` while a signature is pending opens the region — the body
        // brace of a plain kernel closes its parens first (paren count 0),
        // but a lambda inline in a call expression opens its body while the
        // outer call's paren is still open.  A `{}` that turns out to be a
        // default-argument initializer closes immediately and so covers no
        // lines.
        if (pending) {
          region_depths.push_back(depth);
          pending = false;
        }
        ++depth;
      } else if (c == '}') {
        --depth;
        if (!region_depths.empty() && depth <= region_depths.back()) {
          region_depths.pop_back();
        }
      }
    }
  }

  // Fold in the DMA-holding class bodies, merging the member regions they
  // contain.
  const auto bodies = dma_holder_bodies(lines);
  out.insert(out.end(), bodies.begin(), bodies.end());
  std::sort(out.begin(), out.end(),
            [](const SpeRegion& a, const SpeRegion& b) {
              return a.first_line < b.first_line;
            });
  std::vector<SpeRegion> merged;
  for (const SpeRegion& r : out) {
    if (merged.empty() || r.first_line > merged.back().last_line) {
      merged.push_back(r);
    } else {
      merged.back().last_line =
          std::max(merged.back().last_line, r.last_line);
    }
  }
  return merged;
}

std::vector<Violation> lint_source(const std::string& path,
                                   const std::string& text,
                                   const LintOptions& opt) {
  std::vector<Violation> out;
  const std::string stripped = strip_comments_and_strings(text);
  const auto lines = split_lines(stripped);
  const auto regions = find_spe_regions(stripped);

  auto in_region = [&](std::size_t lineno) {
    for (const SpeRegion& r : regions) {
      if (lineno >= r.first_line && lineno <= r.last_line) return true;
    }
    return false;
  };

  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& line = lines[li];
    const std::size_t lineno = li + 1;

    if (opt.treat_all_as_spe || in_region(lineno)) {
      for (const Rule& r : kSpeRules) {
        if (std::regex_search(line, r.pattern)) {
          out.push_back({path, lineno, r.name, r.message});
        }
      }
      // Trace emission in an SPE kernel must be conditional: an ungated
      // emit_* call records (and costs) on every iteration whether or not
      // tracing is on.  A same-line `if (` guard is the accepted idiom;
      // the preferred pattern stages into the DmaTraceLog instead.
      static const std::regex kTraceEmit(
          R"((\.|->)\s*emit_(span|instant|flow_begin|flow_end|counter)\s*\()");
      static const std::regex kGuard(R"(\bif\s*\()");
      if (std::regex_search(line, kTraceEmit) &&
          !std::regex_search(line, kGuard)) {
        out.push_back(
            {path, lineno, "spe-trace-in-hot-loop",
             "unconditional trace emission inside an SPE kernel; gate it "
             "(`if (trc) trc->emit_...`) or stage into the per-SPE "
             "DmaTraceLog drained after the stage joins"});
      }
    }

    // DMA size rule (applies everywhere).  Join continuation lines so a
    // call split across lines still yields its full argument list.
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kDmaCall);
         it != std::sregex_iterator(); ++it) {
      std::string call_text = line;
      std::size_t open_pos = static_cast<std::size_t>(it->position()) +
                             it->str().size() - 1;
      std::vector<std::string> args;
      std::size_t end_pos = 0;
      std::size_t extra = 0;
      while (!split_call_args(call_text, open_pos, args, end_pos) &&
             extra < 8 && li + 1 + extra < lines.size()) {
        call_text += ' ';
        call_text += lines[li + 1 + extra];
        ++extra;
        args.clear();
      }
      if (args.empty()) continue;  // unterminated; give up quietly
      const std::size_t size_idx = dma_size_arg_index(it->str());
      const std::string& size_arg =
          size_idx != std::string::npos && size_idx < args.size()
              ? args[size_idx]
              : args.back();
      if (!dma_size_expression_ok(size_arg)) {
        out.push_back(
            {path, lineno, "dma-literal-size",
             "DMA size '" + size_arg +
                 "' uses a bare literal; derive it from kCacheLineBytes / "
                 "kQuadWordBytes or sizeof"});
      }
    }
  }
  return out;
}

std::vector<Violation> lint_file(const std::string& path,
                                 const LintOptions& opt) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cellcheck: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return lint_source(path, ss.str(), opt);
}

std::vector<std::string> list_tree_sources(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (auto it = fs::recursive_directory_iterator(root);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_directory() &&
        it->path().filename().string().rfind("build", 0) == 0) {
      it.disable_recursion_pending();
      continue;
    }
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext == ".cpp" || ext == ".hpp" || ext == ".h") {
      files.push_back(it->path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<Violation> lint_tree(const std::string& root,
                                 const LintOptions& opt) {
  std::vector<Violation> out;
  for (const auto& f : list_tree_sources(root)) {
    auto vs = lint_file(f, opt);
    out.insert(out.end(), vs.begin(), vs.end());
  }
  return out;
}

std::string format_violations(const std::vector<Violation>& vs) {
  std::string out;
  for (const auto& v : vs) {
    out += v.file + ":" + std::to_string(v.line) + ": [" + v.rule + "] " +
           v.message + "\n";
  }
  return out;
}

}  // namespace cj2k::cellcheck
