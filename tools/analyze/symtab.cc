#include "tools/analyze/symtab.h"

#include <algorithm>
#include <cctype>
#include <set>

namespace renonfs::analyze {
namespace {

std::string Lowered(const std::string& s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

// Keywords and keyword-like identifiers that look like calls but are not.
bool IsCallExcludedWord(const std::string& t) {
  static const std::set<std::string> kExcluded = {
      "if",       "for",      "while",     "switch",   "return",  "co_return",
      "co_await", "co_yield", "sizeof",    "alignof",  "decltype", "new",
      "delete",   "catch",    "constexpr", "noexcept", "static_assert",
      "alignas",  "typeid",   "throw",     "case",     "defined",
  };
  return kExcluded.contains(t);
}

// Words that cannot be the class in a `Type name` declaration pair (either
// side): keywords, builtin types, cv/storage qualifiers.
bool IsTypeExcludedWord(const std::string& t) {
  static const std::set<std::string> kExcluded = {
      "if",        "for",       "while",    "switch",   "return",   "co_return",
      "co_await",  "co_yield",  "sizeof",   "new",      "delete",   "case",
      "else",      "do",        "goto",     "break",    "continue", "const",
      "constexpr", "auto",      "void",     "bool",     "char",     "int",
      "unsigned",  "signed",    "long",     "short",    "float",    "double",
      "static",    "inline",    "extern",   "mutable",  "volatile", "struct",
      "class",     "enum",      "union",    "using",    "namespace","typedef",
      "template",  "typename",  "operator", "public",   "private",  "protected",
      "virtual",   "override",  "final",    "friend",   "explicit", "noexcept",
      "throw",     "try",       "catch",    "this",     "nullptr",  "true",
      "false",     "default",   "uint8_t",  "uint16_t", "uint32_t", "uint64_t",
      "int8_t",    "int16_t",   "int32_t",  "int64_t",  "size_t",   "string",
  };
  return kExcluded.contains(t);
}

}  // namespace

bool IsAdaptiveTimerReceiver(const std::string& receiver) {
  const std::string lowered = Lowered(receiver);
  for (const char* word :
       {"retransmit", "backoff", "renew", "recall", "lease", "rto", "retry"}) {
    if (lowered.find(word) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Structure recovery (moved from checks.cc so summaries and checks agree).
// ---------------------------------------------------------------------------

std::vector<size_t> MatchDelimiters(const std::vector<Token>& toks) {
  std::vector<size_t> match(toks.size(), 0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct || toks[i].text.size() != 1) {
      continue;
    }
    const char c = toks[i].text[0];
    if (c == '(' || c == '{' || c == '[') {
      stack.push_back(i);
    } else if (c == ')' || c == '}' || c == ']') {
      const char open = c == ')' ? '(' : c == '}' ? '{' : '[';
      // Pop until the matching opener kind: tolerates mild imbalance.
      while (!stack.empty() && toks[stack.back()].text[0] != open) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        match[stack.back()] = i;
        stack.pop_back();
      }
    }
  }
  return match;
}

size_t SkipGroup(const std::vector<size_t>& match, size_t i) {
  return match[i] > i ? match[i] + 1 : i + 1;
}

namespace {

bool IsQualifierWord(const std::string& t) {
  return t == "const" || t == "noexcept" || t == "override" || t == "final" ||
         t == "try";
}

}  // namespace

std::vector<Body> FindFunctionBodies(const std::vector<Token>& toks,
                                     const std::vector<size_t>& match) {
  enum class Head { kNone, kAfterParams, kCtorInit };
  std::vector<Body> bodies;
  Head head = Head::kNone;
  size_t last_params = 0;  // '(' of the most recent candidate parameter list
  // Class scope tracking: every '{' the walker descends into (as opposed to
  // the groups it skips) is a namespace/class/enum brace; remember which were
  // opened by a class/struct head so inline method bodies can be qualified.
  std::string pending_class;
  std::vector<std::string> scope_stack;
  const auto innermost_class = [&]() -> std::string {
    for (auto it = scope_stack.rbegin(); it != scope_stack.rend(); ++it) {
      if (!it->empty()) {
        return *it;
      }
    }
    return "";
  };
  size_t i = 0;
  while (i < toks.size()) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kEnd) {
      break;
    }
    if ((IsIdent(t, "class") || IsIdent(t, "struct")) && i + 1 < toks.size() &&
        toks[i + 1].kind == TokKind::kIdentifier) {
      pending_class = toks[i + 1].text;
    }
    if (IsPunct(t, '(')) {
      if (head != Head::kCtorInit) {
        last_params = i;
        head = Head::kAfterParams;
      }
      i = SkipGroup(match, i);
      continue;
    }
    if (IsPunct(t, '[')) {
      i = SkipGroup(match, i);
      continue;
    }
    if (IsPunct(t, '{')) {
      if (head == Head::kCtorInit && i > 0 &&
          toks[i - 1].kind == TokKind::kIdentifier) {
        // Brace-init of a member inside a constructor init list: field_{...}.
        i = SkipGroup(match, i);
        continue;
      }
      if (head == Head::kAfterParams || head == Head::kCtorInit) {
        const size_t close = match[i] > i ? match[i] : toks.size() - 1;
        bodies.push_back({i, close, last_params, false, innermost_class()});
        i = close + 1;
        head = Head::kNone;
        continue;
      }
      // namespace / class / enum / braced initializer at declaration scope:
      // descend and keep walking the contents as declaration scope.
      scope_stack.push_back(pending_class);
      pending_class.clear();
      ++i;
      continue;
    }
    if (IsPunct(t, '}') || IsPunct(t, ';')) {
      if (IsPunct(t, '}') && !scope_stack.empty()) {
        scope_stack.pop_back();
      }
      pending_class.clear();
      head = Head::kNone;
      ++i;
      continue;
    }
    if (IsPunct(t, '=')) {
      // `= default;`, `= delete;`, or a variable initializer: consume up to
      // the terminating ';' at this nesting level.
      ++i;
      while (i < toks.size() && !IsPunct(toks[i], ';')) {
        if (IsPunct(toks[i], '(') || IsPunct(toks[i], '{') || IsPunct(toks[i], '[')) {
          i = SkipGroup(match, i);
        } else {
          ++i;
        }
      }
      head = Head::kNone;
      continue;
    }
    if (IsPunct(t, ':')) {
      if (head == Head::kAfterParams &&
          !(i + 1 < toks.size() && IsPunct(toks[i + 1], ':')) &&
          !(i > 0 && IsPunct(toks[i - 1], ':'))) {
        head = Head::kCtorInit;
      }
      ++i;
      continue;
    }
    if (head == Head::kAfterParams && t.kind == TokKind::kIdentifier &&
        !IsQualifierWord(t.text)) {
      // Identifiers in a trailing return type (-> CoTask<int>) keep the head
      // alive; so do arbitrary macro-ish names, which is harmless: a real
      // declarator always passes another '(' or ';' before its body.
      ++i;
      continue;
    }
    ++i;
  }
  return bodies;
}

size_t StatementEnd(const std::vector<Token>& toks, const std::vector<size_t>& match,
                    size_t i, size_t limit) {
  while (i < limit) {
    if (IsPunct(toks[i], '(') || IsPunct(toks[i], '{') || IsPunct(toks[i], '[')) {
      i = SkipGroup(match, i);
      continue;
    }
    if (IsPunct(toks[i], ';') || IsPunct(toks[i], '}')) {
      return i;
    }
    ++i;
  }
  return limit;
}

size_t ScopeEnd(const std::vector<Token>& toks, size_t i, size_t limit) {
  int depth = 0;
  for (; i < limit; ++i) {
    if (IsPunct(toks[i], '{')) {
      ++depth;
    } else if (IsPunct(toks[i], '}')) {
      if (depth == 0) {
        return i;
      }
      --depth;
    }
  }
  return limit;
}

std::vector<CallSite> CollectCallSites(const std::vector<Token>& toks,
                                       const Body& body) {
  std::vector<CallSite> sites;
  for (size_t i = body.open + 1; i < body.close; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier || IsCallExcludedWord(t.text) ||
        i + 1 >= toks.size() || !IsPunct(toks[i + 1], '(')) {
      continue;
    }
    if (i > 0) {
      const Token& p = toks[i - 1];
      // `SimTime time(...)` is a declaration, `new Foo(...)` a constructor.
      if (p.kind == TokKind::kIdentifier && !IsCallExcludedWord(p.text)) {
        continue;
      }
      if (IsIdent(p, "new")) {
        continue;
      }
    }
    const bool dot = i >= 1 && IsPunct(toks[i - 1], '.');
    const bool arrow =
        i >= 2 && IsPunct(toks[i - 1], '>') && IsPunct(toks[i - 2], '-');
    std::string receiver;
    if (const size_t r = dot ? i - 2 : i - 3; (dot || arrow) && r < toks.size() &&
                                              toks[r].kind == TokKind::kIdentifier) {
      receiver = toks[r].text;
    }
    sites.push_back({i, t.line, t.text, dot || arrow, std::move(receiver)});
  }
  return sites;
}

std::vector<std::pair<size_t, size_t>> LambdaBodyRanges(
    const std::vector<Token>& toks, const std::vector<size_t>& match,
    const Body& body) {
  std::vector<std::pair<size_t, size_t>> ranges;
  for (size_t i = body.open + 1; i < body.close; ++i) {
    if (!IsPunct(toks[i], '[')) {
      continue;
    }
    // `arr[i]` subscripts and `obj[...]` have a value expression on the
    // left; a lambda introducer does not. `[[attr]]` is not a lambda either.
    const Token& p = toks[i - 1];
    if (p.kind == TokKind::kIdentifier || p.kind == TokKind::kNumber ||
        IsPunct(p, ')') || IsPunct(p, ']') || IsPunct(p, '[') ||
        IsPunct(toks[i + 1], '[')) {
      continue;
    }
    size_t j = SkipGroup(match, i);  // past the capture list
    if (j < body.close && IsPunct(toks[j], '(')) {
      j = SkipGroup(match, j);  // past the parameter list
    }
    // Qualifiers / trailing return type up to the body brace.
    size_t steps = 0;
    while (j < body.close && !IsPunct(toks[j], '{') && steps++ < 24) {
      if (IsPunct(toks[j], ';') || IsPunct(toks[j], ',') || IsPunct(toks[j], ')')) {
        break;  // not a lambda after all (e.g. a braced array literal use)
      }
      ++j;
    }
    if (j < body.close && IsPunct(toks[j], '{') && match[j] > j) {
      ranges.emplace_back(j, match[j]);
      i = match[j];  // nested lambdas are covered by the outer range
    }
  }
  return ranges;
}

// ---------------------------------------------------------------------------
// Summary extraction.
// ---------------------------------------------------------------------------

namespace {

// True if an assume-nonsuspending annotation covers `line` (on the line or
// the line above, matching the allow convention).
bool AssumedNonsuspending(const LexedFile& file, int line) {
  return file.assumes.contains(line) || file.assumes.contains(line - 1);
}

// Splits the parameter list [open+1, close) into top-level fragments and
// returns the declared name of each (last identifier before any '=').
std::vector<std::string> ParamNames(const std::vector<Token>& toks,
                                    const std::vector<size_t>& match, size_t open,
                                    size_t close) {
  std::vector<std::string> names;
  std::string current;
  bool saw_default = false;
  for (size_t i = open + 1; i < close;) {
    const Token& t = toks[i];
    if (IsPunct(t, '(') || IsPunct(t, '{') || IsPunct(t, '[')) {
      i = SkipGroup(match, i);
      continue;
    }
    if (IsPunct(t, ',')) {
      names.push_back(current);
      current.clear();
      saw_default = false;
      ++i;
      continue;
    }
    if (IsPunct(t, '=')) {
      saw_default = true;
    } else if (t.kind == TokKind::kIdentifier && !saw_default) {
      current = t.text;
    }
    ++i;
  }
  if (!current.empty() || !names.empty()) {
    names.push_back(current);
  }
  return names;
}

// Recovers the function name and its Class:: qualification given the
// parameter-list '('. Returns false for operators, destructors, and other
// heads the analyzer does not model as call targets.
bool RecoverName(const std::vector<Token>& toks, size_t params_open,
                 std::string* name, std::string* qualified, size_t* decl_start) {
  if (params_open == 0 || params_open >= toks.size()) {
    return false;
  }
  size_t j = params_open - 1;
  if (toks[j].kind != TokKind::kIdentifier || IsCallExcludedWord(toks[j].text)) {
    return false;
  }
  if (j > 0 && IsPunct(toks[j - 1], '~')) {
    return false;  // destructor
  }
  *name = toks[j].text;
  *qualified = toks[j].text;
  size_t k = j;
  while (k >= 3 && IsPunct(toks[k - 1], ':') && IsPunct(toks[k - 2], ':') &&
         toks[k - 3].kind == TokKind::kIdentifier) {
    *qualified = toks[k - 3].text + "::" + *qualified;
    k -= 3;
  }
  *decl_start = k;
  return true;
}

}  // namespace

FileSummary ExtractSummary(const LexedFile& file) {
  FileSummary out;
  out.path = file.path;
  const std::vector<Token>& toks = file.tokens;
  const std::vector<size_t> match = MatchDelimiters(toks);

  // Virtual method declarations: `virtual <ret> Name(` anywhere in the file.
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "virtual")) {
      continue;
    }
    for (size_t j = i + 1; j < std::min(toks.size(), i + 48); ++j) {
      if (IsPunct(toks[j], ';') || IsPunct(toks[j], '{')) {
        break;
      }
      if (IsPunct(toks[j], '(') && j > i + 1 &&
          toks[j - 1].kind == TokKind::kIdentifier &&
          !(j >= 2 && IsPunct(toks[j - 2], '~'))) {
        out.virtual_decls.push_back(toks[j - 1].text);
        break;
      }
    }
  }

  // std::function-typed names: calls through these are indirect.
  for (size_t i = 0; i + 4 < toks.size(); ++i) {
    if (!(IsIdent(toks[i], "std") && IsPunct(toks[i + 1], ':') &&
          IsPunct(toks[i + 2], ':') && IsIdent(toks[i + 3], "function") &&
          IsPunct(toks[i + 4], '<'))) {
      continue;
    }
    int depth = 0;
    size_t j = i + 4;
    for (; j < toks.size(); ++j) {
      if (IsPunct(toks[j], '<')) {
        ++depth;
      } else if (IsPunct(toks[j], '>')) {
        if (--depth == 0) {
          break;
        }
      }
    }
    // The declared name is the next identifier after the template closes,
    // skipping cv-qualifiers and declarator punctuation.
    for (size_t k = j + 1; k < std::min(toks.size(), j + 6); ++k) {
      if (toks[k].kind == TokKind::kIdentifier && !IsIdent(toks[k], "const")) {
        out.indirect_names.push_back(toks[k].text);
        break;
      }
      if (!IsPunct(toks[k], '&') && !IsPunct(toks[k], '*') &&
          !IsIdent(toks[k], "const")) {
        break;  // a cast, return type, or parameter of another declarator
      }
    }
  }

  for (const Body& body : FindFunctionBodies(toks, match)) {
    FunctionSummary fn;
    size_t decl_start = 0;
    if (!RecoverName(toks, body.params_open, &fn.name, &fn.qualified, &decl_start)) {
      continue;
    }
    if (fn.qualified == fn.name && !body.scope.empty()) {
      // Method defined inline in its class: qualify from the scope stack.
      fn.qualified = body.scope + "::" + fn.name;
    }
    fn.line = toks[body.params_open].line;

    // Return-type region: identifiers between the previous declaration
    // boundary and the (possibly qualified) name. Contains-checks only, so
    // over-collection (template heads, storage classes) is harmless.
    for (size_t k = decl_start, steps = 0; k-- > 0 && steps < 40; ++steps) {
      const Token& t = toks[k];
      if (IsPunct(t, ';') || IsPunct(t, '}') || IsPunct(t, '{')) {
        break;
      }
      if (t.kind == TokKind::kIdentifier) {
        fn.return_mentions.push_back(t.text);
      }
    }

    fn.params = ParamNames(toks, match, body.params_open,
                           match[body.params_open] > body.params_open
                               ? match[body.params_open]
                               : body.open);

    const std::vector<std::pair<size_t, size_t>> lambdas =
        LambdaBodyRanges(toks, match, body);
    const auto in_lambda = [&](size_t idx) {
      return std::any_of(lambdas.begin(), lambdas.end(), [&](const auto& r) {
        return idx > r.first && idx < r.second;
      });
    };
    std::set<std::string> callees;
    for (const CallSite& cs : CollectCallSites(toks, body)) {
      if (cs.name == fn.name) {
        continue;  // self-recursion never changes the fixpoint
      }
      if (AssumedNonsuspending(file, cs.line)) {
        continue;  // annotated: known not to suspend (DESIGN §16)
      }
      if (in_lambda(cs.idx)) {
        continue;  // deferred: runs when the callable fires, not here
      }
      callees.insert(cs.receiver.empty() ? cs.name : cs.receiver + "." + cs.name);
    }
    fn.callees.assign(callees.begin(), callees.end());

    for (size_t i = body.open + 1; i < body.close; ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdentifier) {
        continue;
      }
      if (t.text == "co_await") {
        fn.has_co_await = true;
      } else if (IsGuardToken(t.text)) {
        fn.has_guard = true;
      }
    }

    // Which parameters feed an adaptive timer's Start() — callers passing a
    // duration literal at those positions inherit the fixed-timeout check.
    for (const CallSite& cs : CollectCallSites(toks, body)) {
      if (cs.name != "Start" || !cs.member) {
        continue;
      }
      const size_t recv_idx = IsPunct(toks[cs.idx - 1], '.') ? cs.idx - 2 : cs.idx - 3;
      if (recv_idx >= toks.size() || toks[recv_idx].kind != TokKind::kIdentifier ||
          !IsAdaptiveTimerReceiver(toks[recv_idx].text)) {
        continue;
      }
      const size_t args_open = cs.idx + 1;
      const size_t args_close =
          match[args_open] > args_open ? match[args_open] : body.close;
      for (size_t p = 0; p < fn.params.size(); ++p) {
        if (fn.params[p].empty()) {
          continue;
        }
        for (size_t k = args_open + 1; k < args_close; ++k) {
          if (IsIdent(toks[k], fn.params[p].c_str())) {
            if (std::find(fn.timer_params.begin(), fn.timer_params.end(),
                          static_cast<int>(p)) == fn.timer_params.end()) {
              fn.timer_params.push_back(static_cast<int>(p));
            }
            break;
          }
        }
      }
    }

    out.functions.push_back(std::move(fn));
  }

  // Typed names: `Type [*&const]* name` (members, locals, parameters) plus
  // the `smart_ptr<Type> name` shape. Over-collection is harmless — a wrong
  // pair only widens a receiver's candidate class set.
  {
    std::set<std::string> typed;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdentifier || IsTypeExcludedWord(t.text)) {
        continue;
      }
      // `recv->name` / `a.b`: the "type" is really a receiver — skip.
      if (i > 0 && (IsPunct(toks[i - 1], '.') ||
                    (i > 1 && IsPunct(toks[i - 1], '>') && IsPunct(toks[i - 2], '-')))) {
        continue;
      }
      size_t j = i + 1;
      if (IsPunct(toks[j], '>')) {
        ++j;  // template argument: `unique_ptr<TcpConnection> conn`
      }
      while (j < toks.size() && (IsPunct(toks[j], '*') || IsPunct(toks[j], '&') ||
                                 IsIdent(toks[j], "const"))) {
        ++j;
      }
      if (j + 1 < toks.size() && toks[j].kind == TokKind::kIdentifier &&
          !IsTypeExcludedWord(toks[j].text) &&
          (IsPunct(toks[j + 1], ';') || IsPunct(toks[j + 1], '=') ||
           IsPunct(toks[j + 1], ',') || IsPunct(toks[j + 1], ')') ||
           IsPunct(toks[j + 1], '{'))) {
        typed.insert(t.text + "=" + toks[j].text);
      }
    }
    out.typed_names.assign(typed.begin(), typed.end());
  }

  std::sort(out.virtual_decls.begin(), out.virtual_decls.end());
  out.virtual_decls.erase(
      std::unique(out.virtual_decls.begin(), out.virtual_decls.end()),
      out.virtual_decls.end());
  std::sort(out.indirect_names.begin(), out.indirect_names.end());
  out.indirect_names.erase(
      std::unique(out.indirect_names.begin(), out.indirect_names.end()),
      out.indirect_names.end());
  return out;
}

}  // namespace renonfs::analyze
