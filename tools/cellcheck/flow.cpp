// cellcheck tier 4 implementation.  See flow.hpp for the model; the short
// version: lexical events (DMA issues, waits, buffer uses, LS allocations)
// are extracted per SPE region and interpreted against an abstract tag
// state.  Loops unroll twice so parity variables take both values; branch
// bodies execute unconditionally (join = union of paths); anything the
// constant evaluator cannot resolve is symbolic and judged leniently.
#include "cellcheck/flow.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace cj2k::cellcheck {

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

std::string trim(std::string s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.erase(s.begin());
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.pop_back();
  }
  return s;
}

using ConstEnv = std::map<std::string, long long>;

/// Constant-folds an integer expression over literals, known variables and
/// the operators the kernel dialect uses (| ^ & << >> + - * / %), with
/// static_cast<...>(x) looked through.  nullopt = symbolic.
std::optional<long long> eval_int(const std::string& raw, const ConstEnv& env) {
  std::string s = trim(raw);
  if (s.empty()) return std::nullopt;

  // Strip one level of redundant outer parentheses (repeatedly).
  while (s.size() >= 2 && s.front() == '(' && s.back() == ')') {
    int d = 0;
    bool outer = true;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] == '(') {
        ++d;
      } else if (s[i] == ')') {
        if (--d == 0 && i + 1 < s.size()) {
          outer = false;
          break;
        }
      }
    }
    if (!outer) break;
    s = trim(s.substr(1, s.size() - 2));
  }
  if (s.empty()) return std::nullopt;

  static const std::vector<std::vector<std::string>> kGroups = {
      {"|"}, {"^"}, {"&"}, {"<<", ">>"}, {"+", "-"}, {"*", "/", "%"}};
  for (const auto& group : kGroups) {
    int depth = 0;
    for (std::size_t i = s.size(); i-- > 0;) {
      const char c = s[i];
      if (c == ')' || c == ']' || c == '>') ++depth;  // '>' for templates
      if (c == '(' || c == '[' || c == '<') --depth;
      if (depth != 0) continue;
      for (const auto& op : group) {
        if (i + op.size() > s.size() || s.compare(i, op.size(), op) != 0) {
          continue;
        }
        // Two-character operators must not be split at their second char,
        // and `->` must not be mistaken for minus.
        if (op.size() == 1 && i + 1 < s.size() &&
            (s[i + 1] == s[i] || s[i + 1] == '=' || s[i + 1] == '>')) {
          continue;
        }
        if (op.size() == 1 && i > 0 && s[i - 1] == s[i]) continue;
        const std::string lhs = trim(s.substr(0, i));
        const std::string rhs = trim(s.substr(i + op.size()));
        if (lhs.empty()) continue;  // unary operator, not a split point
        const auto a = eval_int(lhs, env);
        const auto b = eval_int(rhs, env);
        if (!a || !b) return std::nullopt;
        if (op == "|") return *a | *b;
        if (op == "^") return *a ^ *b;
        if (op == "&") return *a & *b;
        if (op == "<<") return *a << *b;
        if (op == ">>") return *a >> *b;
        if (op == "+") return *a + *b;
        if (op == "-") return *a - *b;
        if (op == "*") return *a * *b;
        if (op == "/") return *b != 0 ? std::optional<long long>(*a / *b)
                                      : std::nullopt;
        return *b != 0 ? std::optional<long long>(*a % *b) : std::nullopt;
      }
    }
  }

  if (s.front() == '-') {
    const auto v = eval_int(s.substr(1), env);
    return v ? std::optional<long long>(-*v) : std::nullopt;
  }
  if (s.front() == '~') {
    const auto v = eval_int(s.substr(1), env);
    return v ? std::optional<long long>(~*v) : std::nullopt;
  }
  static const std::regex kCast(R"(^static_cast\s*<[^>]*>\s*\((.*)\)$)");
  std::smatch m;
  if (std::regex_match(s, m, kCast)) return eval_int(m[1], env);
  static const std::regex kLiteral(R"(^(0[xX][0-9a-fA-F]+|\d+)[uUlL]*$)");
  if (std::regex_match(s, m, kLiteral)) {
    try {
      return static_cast<long long>(std::stoull(m[1], nullptr, 0));
    } catch (...) {
      return std::nullopt;
    }
  }
  static const std::regex kIdent(R"(^[A-Za-z_]\w*$)");
  if (std::regex_match(s, kIdent)) {
    const auto it = env.find(s);
    if (it != env.end()) return it->second;
  }
  return std::nullopt;
}

/// A Local Store buffer identity: a bare pointer name ("lx") or one element
/// of a buffer array with a resolved index ("lin[0]").
struct BufRef {
  std::string key;
  std::string array;  ///< Array name when is_array.
  long long index = 0;
  bool is_array = false;
};

std::optional<BufRef> resolve_buffer(const std::string& raw,
                                     const ConstEnv& env) {
  const std::string s = trim(raw);
  static const std::regex kArr(R"(^([A-Za-z_]\w*)\s*\[(.+)\]$)");
  static const std::regex kBare(R"(^[A-Za-z_]\w*$)");
  std::smatch m;
  if (std::regex_match(s, m, kArr)) {
    const auto idx = eval_int(m[2], env);
    if (!idx) return std::nullopt;
    BufRef b;
    b.array = m[1];
    b.index = *idx;
    b.is_array = true;
    b.key = b.array + "[" + std::to_string(*idx) + "]";
    return b;
  }
  if (std::regex_match(s, kBare)) {
    BufRef b;
    b.key = b.array = s;
    return b;
  }
  return std::nullopt;
}

/// Element sizes for the LS budget pass (unknown types are skipped —
/// lenient, like every other unresolvable quantity here).
std::optional<std::size_t> elem_size_of(std::string type) {
  type = trim(type);
  if (type.rfind("std::", 0) == 0) type = type.substr(5);
  static const std::map<std::string, std::size_t> kSizes = {
      {"float", 4},         {"Sample", 4},     {"int", 4},
      {"unsigned", 4},      {"unsigned int", 4}, {"int32_t", 4},
      {"uint32_t", 4},      {"double", 8},     {"int64_t", 8},
      {"uint64_t", 8},      {"short", 2},      {"int16_t", 2},
      {"uint16_t", 2},      {"char", 1},       {"unsigned char", 1},
      {"int8_t", 1},        {"uint8_t", 1}};
  const auto it = kSizes.find(type);
  if (it == kSizes.end()) return std::nullopt;
  return it->second;
}

// --- Event syntax -----------------------------------------------------------

// Engine issues (group 1) and row-helper issues (group 2).
const std::regex kIssueCall(
    R"(\bdma_?\s*\.\s*(get|put|getf|putf)_async\s*\(|\b(dma_(?:get|put|getf|putf)_row_tagged)\s*\()");
const std::regex kWaitTagCall(R"(\bdma_?\s*\.\s*wait_tag\s*\()");
const std::regex kWaitMaskCall(R"(\bdma_?\s*\.\s*wait_tag_mask\s*\()");
const std::regex kWaitAllCall(R"(\bdma_?\s*\.\s*wait_all\s*\()");
const std::regex kTouchCall(R"(\bdma_?\s*\.\s*touch\s*\()");
const std::regex kAllocCall(
    R"(\bls\s*\.\s*alloc\s*<\s*([^<>();]+?)\s*>\s*\(|\bls\s*\.\s*alloc_bytes\s*\()");
const std::regex kLsResetCall(R"(\bls\s*\.\s*reset\s*\()");
const std::regex kLoopHead(R"(^\s*(?:for|while)\s*\()");
const std::regex kDeclAssign(
    R"(^\s*(?:const\s+|constexpr\s+)?(?:unsigned(?:\s+int)?|int|long(?:\s+long)?|std::size_t|size_t|std::uint32_t|uint32_t|std::int32_t|int32_t|std::ptrdiff_t|ptrdiff_t|auto)\s+([A-Za-z_]\w*)\s*=\s*([^;]+);)");
const std::regex kReAssign(R"(^\s*([A-Za-z_]\w*)\s*=\s*([^;=][^;]*);)");
const std::regex kCompoundAssign(
    R"(^\s*([A-Za-z_]\w*)\s*(?:\|=|&=|\^=|\+=|-=|\*=|/=|%=|<<=|>>=))");
const std::regex kIncDec(
    R"((?:\+\+|--)\s*([A-Za-z_]\w*)|([A-Za-z_]\w*)\s*(?:\+\+|--))");
const std::regex kCastWrap(R"(^static_cast\s*<[^<>()]*>\s*\((.*)\)$)");
const std::regex kParityAnd(R"(&\s*1[uUlL]*\s*$)");
const std::regex kParityXor(R"(^([A-Za-z_]\w*)\s*\^\s*1[uUlL]*$)");
const std::regex kParityOneMinus(R"(^1\s*-\s*([A-Za-z_]\w*)$)");
const std::regex kForInit(
    R"([A-Za-z_][\w:]*\s+([A-Za-z_]\w*)\s*=\s*([^;,)]+)[;,)])");

constexpr unsigned kNumTags = 32;

/// One SPE region's analysis.  The driver walks the region's lines; loops
/// recurse through run_block.
class RegionAnalyzer {
 public:
  RegionAnalyzer(const std::string& path,
                 const std::vector<std::string>& lines,
                 std::vector<Violation>& out)
      : path_(path), lines_(lines), out_(&out) {}

  RegionTagSummary analyze(std::size_t first_line, std::size_t last_line) {
    sum_ = {};
    sum_.file = path_;
    sum_.first_line = first_line;
    sum_.last_line = last_line;
    run_block(first_line, last_line);
    finish(last_line);
    return sum_;
  }

 private:
  // --- reporting ------------------------------------------------------------

  void violate(std::size_t line, const std::string& rule, std::string msg) {
    // Loop unrolling and branch re-walks revisit lines; report each
    // distinct finding once.
    if (!reported_.insert({line, rule + "\n" + msg}).second) return;
    out_->push_back({path_, line, rule, std::move(msg)});
    ++sum_.violations;
  }

  // --- tag state ------------------------------------------------------------

  std::optional<unsigned> pending_tag_of(const std::string& key) const {
    for (const auto& [tag, bufs] : pending_) {
      if (bufs.count(key)) return tag;
    }
    return std::nullopt;
  }

  void clear_all_pending() {
    pending_.clear();
    symbolic_bufs_.clear();
  }

  int cur_iter() const { return iters_.empty() ? 0 : iters_.back(); }

  // --- events ---------------------------------------------------------------

  void on_issue(std::size_t lineno, const std::string& buf_expr,
                const std::string& tag_expr, bool fenced) {
    ++sum_.issues;
    const auto tag = eval_int(tag_expr, env_);
    const bool tag_ok = tag && *tag >= 0 && *tag < kNumTags;
    const auto buf = resolve_buffer(buf_expr, env_);
    if (buf && !symbolic_bufs_.count(buf->key)) {
      const auto pt = pending_tag_of(buf->key);
      if (pt && !(fenced && tag_ok && *pt == static_cast<unsigned>(*tag))) {
        violate(lineno, "dma-tag-reuse-in-flight",
                "'" + buf->key + "' is re-targeted while its transfer on "
                "tag " + std::to_string(*pt) + " is in flight" +
                (fenced ? " (a fence orders only its own tag group)"
                        : "; wait first or use a same-tag fenced getf/putf"));
      }
    }
    if (buf && buf->is_array) {
      auto& st = arrays_[buf->array];
      if (st.line == 0) st.line = lineno;
      st.indices.insert(buf->index);
      if (tag_ok) {
        st.tags.insert(*tag);
      } else {
        st.symbolic_tag = true;
      }
      use_arrays_.insert(buf->array);
    } else if (buf) {
      use_bares_.insert(buf->key);
    }
    if (tag_ok) {
      ++sum_.resolved_issues;
      issued_.insert(static_cast<unsigned>(*tag));
      pending_[static_cast<unsigned>(*tag)].insert(buf ? buf->key
                                                       : std::string());
    } else {
      symbolic_issued_ = true;
      if (buf) symbolic_bufs_.insert(buf->key);
    }
  }

  void on_wait_tag(std::size_t lineno, const std::string& expr) {
    ++sum_.waits;
    const auto t = eval_int(expr, env_);
    if (t && *t >= 0 && *t < kNumTags) {
      if (!issued_.count(static_cast<unsigned>(*t)) && !symbolic_issued_) {
        violate(lineno, "dma-wait-unissued",
                "wait_tag(" + std::to_string(*t) +
                    ") but no transfer was ever issued on that tag");
      }
      pending_.erase(static_cast<unsigned>(*t));
    } else {
      clear_all_pending();  // symbolic wait: lenient, satisfies everything
    }
  }

  void on_wait_mask(std::size_t lineno, const std::string& expr) {
    ++sum_.waits;
    const auto m = eval_int(expr, env_);
    if (!m) {
      clear_all_pending();
      return;
    }
    if (*m == 0) {
      violate(lineno, "dma-wait-unissued",
              "wait_tag_mask with an empty mask waits on nothing");
      return;
    }
    bool any_issued = symbolic_issued_;
    for (unsigned t = 0; t < kNumTags; ++t) {
      if ((*m >> t) & 1) {
        if (issued_.count(t)) any_issued = true;
        pending_.erase(t);
      }
    }
    if (!any_issued) {
      violate(lineno, "dma-wait-unissued",
              "wait_tag_mask covers no tag a transfer was ever issued on");
    }
  }

  void on_wait_all(std::size_t) {
    ++sum_.waits;
    clear_all_pending();
  }

  void check_use(std::size_t lineno, const std::string& key,
                 const char* verb) {
    if (symbolic_bufs_.count(key)) return;
    const auto pt = pending_tag_of(key);
    if (pt) {
      violate(lineno, "dma-tag-unwaited",
              "'" + key + "' is " + verb + " while its transfer on tag " +
                  std::to_string(*pt) + " is still in flight; wait on the "
                  "tag first");
    }
  }

  void on_touch(std::size_t lineno, const std::string& expr) {
    const auto buf = resolve_buffer(expr, env_);
    if (buf) check_use(lineno, buf->key, "touched");
  }

  void on_alloc(std::size_t lineno, std::optional<std::size_t> elem_size,
                const std::string& count_expr) {
    const auto n = eval_int(count_expr, env_);
    if (!n || *n < 0 || !elem_size) return;  // symbolic: skip
    ls_bytes_ += static_cast<unsigned long long>(*n) * *elem_size;
    if (!ls_reported_ && ls_bytes_ > kStaticLsBudgetBytes) {
      violate(lineno, "ls-static-budget",
              "static LocalStore::alloc total reaches " +
                  std::to_string(ls_bytes_) + " bytes, over the " +
                  std::to_string(kStaticLsBudgetBytes) +
                  "-byte data budget (256 KB Local Store minus the 48 KB "
                  "code/stack reserve)");
      ls_reported_ = true;
    }
  }

  // --- line machinery -------------------------------------------------------

  /// Joins continuation lines until the call opened at (li, open_pos)
  /// closes; marks consumed continuation lines so the use-scan skips them.
  bool call_args_at(std::size_t li, std::size_t open_pos,
                    std::vector<std::string>& args) {
    std::string call_text = lines_[li - 1];
    std::size_t end_pos = 0;
    std::size_t extra = 0;
    while (!split_call_args(call_text, open_pos, args, end_pos) &&
           extra < 12 && li + extra < lines_.size()) {
      call_text += ' ';
      call_text += lines_[li + extra];
      consumed_.insert(li + 1 + extra);
      ++extra;
      args.clear();
    }
    return !args.empty();
  }

  void assign_var(const std::string& var, const std::string& rhs_raw) {
    std::string rhs = trim(rhs_raw);
    std::smatch m;
    // `static_cast<unsigned>(k & 1)`: the cast keeps the value the tag
    // model needs.
    if (std::regex_match(rhs, m, kCastWrap)) rhs = trim(m[1]);
    if (const auto v = eval_int(rhs, env_)) {
      env_[var] = *v;
    } else if (std::regex_search(rhs, kParityAnd)) {
      // `expr & 1`: the canonical ping/pong parity — takes the unroll
      // iteration's value even when `expr` itself is symbolic.
      env_[var] = cur_iter();
    } else if (std::regex_match(rhs, m, kParityXor) && env_.count(m[1])) {
      env_[var] = env_[m[1]] ^ 1;
    } else if (std::regex_match(rhs, m, kParityOneMinus) &&
               env_.count(m[1])) {
      env_[var] = 1 - env_[m[1]];
    } else {
      env_.erase(var);
    }
  }

  /// Processes one line: assignments, then events, then (event-free lines
  /// only) the buffer-identifier use scan.
  void process_line(std::size_t li) {
    if (consumed_.count(li)) return;
    const std::string& line = lines_[li - 1];
    std::smatch m;
    if (std::regex_search(line, m, kDeclAssign)) {
      assign_var(m[1], m[2]);
    } else if (std::regex_search(line, m, kCompoundAssign)) {
      env_.erase(m[1]);  // `mask |= ...` and friends: value now unknown
    } else if (std::regex_search(line, m, kReAssign)) {
      assign_var(m[1], m[2]);
    }
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kIncDec);
         it != std::sregex_iterator(); ++it) {
      env_.erase((*it)[1].matched ? (*it)[1] : (*it)[2]);
    }

    struct Event {
      std::size_t pos;
      int kind;  // 0 issue, 1 wait_tag, 2 wait_mask, 3 wait_all, 4 touch,
                 // 5 alloc, 6 ls reset
      std::smatch match;
    };
    std::vector<Event> events;
    auto collect = [&](const std::regex& re, int kind) {
      for (auto it = std::sregex_iterator(line.begin(), line.end(), re);
           it != std::sregex_iterator(); ++it) {
        events.push_back({static_cast<std::size_t>(it->position()), kind,
                          *it});
      }
    };
    collect(kIssueCall, 0);
    collect(kWaitTagCall, 1);
    collect(kWaitMaskCall, 2);
    collect(kWaitAllCall, 3);
    collect(kTouchCall, 4);
    collect(kAllocCall, 5);
    collect(kLsResetCall, 6);
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.pos < b.pos; });

    for (const Event& ev : events) {
      const std::size_t open_pos = ev.pos + ev.match.str().size() - 1;
      std::vector<std::string> args;
      if (ev.kind == 3) {  // wait_all: no args needed
        on_wait_all(li);
        continue;
      }
      if (ev.kind == 6) {
        ls_bytes_ = 0;
        continue;
      }
      if (!call_args_at(li, open_pos, args)) continue;
      switch (ev.kind) {
        case 0: {
          const bool helper = ev.match[2].matched;
          if (helper && args.size() >= 5) {
            const std::string name = ev.match[2];
            const bool fenced = name.find("getf") != std::string::npos ||
                                name.find("putf") != std::string::npos;
            on_issue(li, args[1], args[4], fenced);
          } else if (!helper && args.size() >= 4) {
            const std::string op = ev.match[1];
            on_issue(li, args[0], args[3], op == "getf" || op == "putf");
          }
          break;
        }
        case 1:
          if (!args.empty()) on_wait_tag(li, args[0]);
          break;
        case 2:
          if (!args.empty()) on_wait_mask(li, args[0]);
          break;
        case 4:
          if (!args.empty()) on_touch(li, args[0]);
          break;
        case 5:
          if (!args.empty()) {
            on_alloc(li,
                     ev.match[1].matched ? elem_size_of(ev.match[1])
                                         : std::optional<std::size_t>(1),
                     args[0]);
          }
          break;
        default:
          break;
      }
    }
    if (!events.empty()) return;

    // Use scan: a known DMA buffer appearing in a plain statement is a use.
    for (const auto& name : use_arrays_) {
      const std::regex pat("\\b" + name + R"(\s*\[([^\][]*)\])");
      for (auto it = std::sregex_iterator(line.begin(), line.end(), pat);
           it != std::sregex_iterator(); ++it) {
        const auto idx = eval_int((*it)[1], env_);
        if (!idx) continue;
        check_use(li, name + "[" + std::to_string(*idx) + "]", "used");
      }
    }
    for (const auto& name : use_bares_) {
      const std::regex pat("\\b" + name + R"(\b(?!\s*\[))");
      if (std::regex_search(line, pat)) check_use(li, name, "used");
    }
  }

  /// Locates the body of the loop whose header starts at line `li`.
  struct LoopShape {
    bool braced = false;
    std::size_t open_line = 0;  ///< Line holding the body `{`.
    std::size_t open_col = 0;
    std::string header;
  };

  std::optional<LoopShape> loop_shape(std::size_t li, std::size_t hi) const {
    int pdepth = 0;
    bool seen_paren = false;
    std::string header;
    for (std::size_t l = li; l <= std::min(hi, li + 16); ++l) {
      const std::string& s = lines_[l - 1];
      for (std::size_t c = 0; c < s.size(); ++c) {
        const char ch = s[c];
        if (seen_paren && pdepth == 0) {
          if (std::isspace(static_cast<unsigned char>(ch))) continue;
          LoopShape shape;
          shape.braced = ch == '{';
          shape.open_line = l;
          shape.open_col = c;
          shape.header = header;
          return shape;
        }
        if (ch == '(') {
          ++pdepth;
          seen_paren = true;
        } else if (ch == ')') {
          --pdepth;
        }
        if (seen_paren) header += ch;
      }
      header += ' ';
    }
    return std::nullopt;
  }

  /// Line of the `}` matching the `{` at (open_line, open_col); 0 on
  /// no-match within the region.
  std::size_t match_brace(std::size_t open_line, std::size_t open_col,
                          std::size_t hi) const {
    int depth = 0;
    for (std::size_t l = open_line; l <= hi; ++l) {
      const std::string& s = lines_[l - 1];
      for (std::size_t c = l == open_line ? open_col : 0; c < s.size(); ++c) {
        if (s[c] == '{') ++depth;
        if (s[c] == '}' && --depth == 0) return l;
      }
    }
    return 0;
  }

  // --- branch forking -------------------------------------------------------
  // `if`/`else if`/`else` chains (`if constexpr` ones too) run each arm
  // from the state at the chain's entry, then union the resulting states: a
  // transfer issued on any path counts as pending (and as issued), a
  // constant variable survives only
  // when every path agrees on its value.  An `if` with no `else` unions
  // with the untouched entry state (the fall-through path).

  struct Snapshot {
    ConstEnv env;
    std::map<unsigned, std::set<std::string>> pending;
    std::set<std::string> symbolic_bufs;
    std::set<unsigned> issued;
    bool symbolic_issued;
    unsigned long long ls_bytes;
  };

  Snapshot snap() const {
    return {env_, pending_, symbolic_bufs_, issued_, symbolic_issued_,
            ls_bytes_};
  }

  void restore(const Snapshot& s) {
    env_ = s.env;
    pending_ = s.pending;
    symbolic_bufs_ = s.symbolic_bufs;
    issued_ = s.issued;
    symbolic_issued_ = s.symbolic_issued;
    ls_bytes_ = s.ls_bytes;
  }

  void merge(const Snapshot& other) {
    for (auto it = env_.begin(); it != env_.end();) {
      const auto o = other.env.find(it->first);
      if (o == other.env.end() || o->second != it->second) {
        it = env_.erase(it);
      } else {
        ++it;
      }
    }
    for (const auto& [tag, bufs] : other.pending) {
      pending_[tag].insert(bufs.begin(), bufs.end());
    }
    symbolic_bufs_.insert(other.symbolic_bufs.begin(),
                          other.symbolic_bufs.end());
    issued_.insert(other.issued.begin(), other.issued.end());
    symbolic_issued_ = symbolic_issued_ || other.symbolic_issued;
    ls_bytes_ = std::max(ls_bytes_, other.ls_bytes);
  }

  /// Walks an if/else-if/else chain whose `if (` sits on line `li`.
  /// Returns the first line after the chain, or 0 when the shape is not
  /// the braced chain this handles (caller falls back to linear walking,
  /// which is itself a union over-approximation).
  std::size_t run_if_chain(std::size_t li, std::size_t hi) {
    const auto shape = loop_shape(li, hi);
    if (!shape || !shape->braced) return 0;
    const std::size_t close =
        match_brace(shape->open_line, shape->open_col, hi);
    if (close <= shape->open_line) return 0;
    for (std::size_t l = li; l <= shape->open_line; ++l) process_line(l);
    const Snapshot entry = snap();
    run_block(shape->open_line + 1, close - 1);
    const Snapshot then_out = snap();

    static const std::regex kElseIf(R"(\}\s*else\s+if\s*(?:constexpr\s*)?\()");
    static const std::regex kElse(R"(\}\s*else\b)");
    const std::string& close_line = lines_[close - 1];
    if (std::regex_search(close_line, kElseIf)) {
      restore(entry);
      const std::size_t next = run_if_chain(close, hi);
      if (next == 0) {
        restore(then_out);
        return close + 1;
      }
      merge(then_out);
      return next;
    }
    if (std::regex_search(close_line, kElse)) {
      const std::size_t brace = close_line.rfind('{');
      if (brace == std::string::npos) {
        merge(entry);
        return close + 1;
      }
      const std::size_t close2 = match_brace(close, brace, hi);
      if (close2 <= close) {
        merge(entry);
        return close + 1;
      }
      restore(entry);
      run_block(close + 1, close2 - 1);
      merge(then_out);
      return close2 + 1;
    }
    merge(entry);  // no else: union with the fall-through path
    return close + 1;
  }

  void apply_loop_init(const std::string& header, int iter) {
    std::smatch m;
    if (!std::regex_search(header, m, kForInit)) return;
    if (iter == 0) {
      assign_var(m[1], m[2]);
    } else {
      env_.erase(m[1]);  // the value changed in an unmodeled way
    }
  }

  void run_block(std::size_t lo, std::size_t hi) {
    static const std::regex kIfHead(R"(^\s*if\s*(?:constexpr\s*)?\()");
    std::size_t li = lo;
    while (li <= hi) {
      const std::string& line = lines_[li - 1];
      if (std::regex_search(line, kIfHead) && !consumed_.count(li)) {
        const std::size_t next = run_if_chain(li, hi);
        if (next != 0) {
          li = next;
          continue;
        }
      }
      if (std::regex_search(line, kLoopHead)) {
        const auto shape = loop_shape(li, hi);
        if (shape && shape->braced) {
          const std::size_t close =
              match_brace(shape->open_line, shape->open_col, hi);
          if (close > shape->open_line) {
            for (std::size_t l = li; l <= shape->open_line; ++l) {
              process_line(l);
            }
            for (int iter = 0; iter < 2; ++iter) {
              iters_.push_back(iter);
              apply_loop_init(shape->header, iter);
              run_block(shape->open_line + 1, close - 1);
              iters_.pop_back();
            }
            li = close + 1;
            continue;
          }
        }
      }
      process_line(li);
      ++li;
    }
  }

  void finish(std::size_t last_line) {
    for (const auto& [tag, bufs] : pending_) {
      std::string names;
      for (const auto& b : bufs) {
        if (!b.empty()) names += (names.empty() ? "" : ", ") + b;
      }
      violate(last_line, "dma-tag-unwaited",
              "tag " + std::to_string(tag) + " still in flight at kernel "
              "exit" + (names.empty() ? "" : " (" + names + ")") +
                  "; issue wait_all() before returning");
    }
    for (const auto& [name, st] : arrays_) {
      if (st.indices.size() >= 2 && !st.symbolic_tag &&
          st.tags.size() == 1) {
        violate(st.line, "dma-double-buffer-imbalance",
                "double buffer '" + name + "': " +
                    std::to_string(st.indices.size()) +
                    " parities are all issued on tag " +
                    std::to_string(*st.tags.begin()) +
                    ", so every wait drains both and the ping/pong "
                    "serializes; give each parity its own tag");
      }
    }
  }

  const std::string& path_;
  const std::vector<std::string>& lines_;
  std::vector<Violation>* out_;
  RegionTagSummary sum_;

  ConstEnv env_;
  std::vector<int> iters_;
  std::set<std::size_t> consumed_;
  std::set<std::pair<std::size_t, std::string>> reported_;

  std::map<unsigned, std::set<std::string>> pending_;
  std::set<std::string> symbolic_bufs_;
  std::set<unsigned> issued_;
  bool symbolic_issued_ = false;

  struct ArrStat {
    std::set<long long> indices;
    std::set<long long> tags;
    bool symbolic_tag = false;
    std::size_t line = 0;
  };
  std::map<std::string, ArrStat> arrays_;
  std::set<std::string> use_arrays_;
  std::set<std::string> use_bares_;

  unsigned long long ls_bytes_ = 0;
  bool ls_reported_ = false;
};

}  // namespace

std::vector<Violation> flow_source(const std::string& path,
                                   const std::string& text,
                                   const FlowOptions& opt,
                                   std::vector<RegionTagSummary>* summaries) {
  std::vector<Violation> out;
  const std::string stripped = strip_comments_and_strings(text);
  const auto lines = split_lines(stripped);

  std::vector<SpeRegion> regions;
  if (opt.treat_all_as_spe) {
    regions.push_back({1, lines.size()});
  } else {
    regions = find_spe_regions(stripped);
  }
  for (const SpeRegion& r : regions) {
    RegionAnalyzer analyzer(path, lines, out);
    const RegionTagSummary sum = analyzer.analyze(r.first_line, r.last_line);
    if (summaries) summaries->push_back(sum);
  }
  return out;
}

std::vector<Violation> flow_file(const std::string& path,
                                 const FlowOptions& opt,
                                 std::vector<RegionTagSummary>* summaries) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cellcheck: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return flow_source(path, ss.str(), opt, summaries);
}

std::vector<Violation> flow_tree(const std::string& root,
                                 const FlowOptions& opt,
                                 std::vector<RegionTagSummary>* summaries) {
  std::vector<Violation> out;
  for (const auto& f : list_tree_sources(root)) {
    auto vs = flow_file(f, opt, summaries);
    out.insert(out.end(), vs.begin(), vs.end());
  }
  return out;
}

}  // namespace cj2k::cellcheck
