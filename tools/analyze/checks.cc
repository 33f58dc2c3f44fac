#include "tools/analyze/checks.h"

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "tools/analyze/symtab.h"

namespace renonfs::analyze {
namespace {

// ---------------------------------------------------------------------------
// Repo-specific configuration. These lists are the contract between the
// analyzer and the codebase; extend them when a new crash-clearable type or
// awaitable factory appears.
// ---------------------------------------------------------------------------

// Pointee types whose referents can be freed while a coroutine is suspended
// (crash-time cache_.Clear(), connection teardown, chain rewrites).
bool IsFlaggedPointeeType(const std::string& t) {
  return t == "Buf" || t == "Mbuf" || t == "Cluster" || t == "TcpConnection" ||
         t == "MbufChain" || t == "DupCacheEntry";
}

// Lookup methods that hand out pointers/iterators into crash-clearable
// containers when called on a receiver whose name mentions a cache.
bool IsFlaggedLookup(const std::string& receiver, const std::string& method) {
  std::string lowered(receiver);
  std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lowered.find("cache") == std::string::npos) {
    return false;
  }
  return method == "Find" || method == "Create" || method == "find";
}

// Awaitable factories whose result is inert unless co_awaited.
bool IsAwaitableFactory(const std::string& t) {
  return t == "Use" || t == "Delay" || t == "Io" || t == "Acquire" || t == "Wait";
}

std::string LoweredCopy(const std::string& s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

// ---------------------------------------------------------------------------
// Per-body analysis.
// ---------------------------------------------------------------------------

struct Decl {
  std::string name;
  size_t name_idx;   // token index of the declared name
  size_t stmt_end;   // index of the ';' (or closer) ending the declaration
  size_t scope_end;  // index of the '}' closing the declaring scope
  std::string what;  // description for the finding message
  bool raw_buf;      // Form-1 declaration of a raw Buf*
};

// A suspension point: a literal co_await, or a call to a function the
// whole-tree summaries say may suspend.
struct Susp {
  size_t idx;
  int line;
  bool literal;        // true: co_await token; false: may-suspend call
  std::string callee;  // call form only
  std::string why;     // call form only: the context's reason
};

bool AssumedNonsuspending(const LexedFile& file, int line) {
  return file.assumes.contains(line) || file.assumes.contains(line - 1);
}

// Interprocedural (call-based) suspension points and call-site Status
// enforcement apply to product code and the analyzer's own fixtures. Tests
// drive the simulator synchronously — holding a connection pointer across a
// RunUntil() pump or discarding a setup call's Status there is the normal
// idiom, not a bug.
bool InterprocScope(const std::string& path) {
  return path.find("src/") != std::string::npos ||
         path.find("testdata") != std::string::npos;
}

std::vector<Susp> CollectSuspensions(const LexedFile& file,
                                     const std::vector<size_t>& match,
                                     const Body& body,
                                     const AnalysisContext& ctx) {
  std::vector<Susp> out;
  const std::vector<Token>& toks = file.tokens;
  for (size_t i = body.open + 1; i < body.close; ++i) {
    if (IsIdent(toks[i], "co_await")) {
      out.push_back({i, toks[i].line, true, "", ""});
    }
  }
  if (InterprocScope(file.path)) {
    const std::vector<std::pair<size_t, size_t>> lambdas =
        LambdaBodyRanges(toks, match, body);
    for (const CallSite& cs : CollectCallSites(toks, body)) {
      if (!ctx.CallMaySuspend(cs.receiver, cs.name) ||
          AssumedNonsuspending(file, cs.line)) {
        continue;
      }
      // Calls inside a lambda body run when the callable is invoked (almost
      // always deferred to a scheduled event), not during this function.
      if (std::any_of(lambdas.begin(), lambdas.end(), [&](const auto& r) {
            return cs.idx > r.first && cs.idx < r.second;
          })) {
        continue;
      }
      out.push_back({cs.idx, cs.line, false, cs.name, ctx.SuspendWhy(cs.name)});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Susp& a, const Susp& b) { return a.idx < b.idx; });
  return out;
}

std::string SuspDesc(const std::vector<Token>& toks, const Susp& s) {
  if (s.literal) {
    return "co_await (line " + std::to_string(toks[s.idx].line) + ")";
  }
  return "call to " + s.why + " '" + s.callee + "' (line " +
         std::to_string(toks[s.idx].line) + ")";
}

// Collects await-stale declarations inside one body.
std::vector<Decl> CollectDecls(const std::vector<Token>& toks,
                               const std::vector<size_t>& match, const Body& body) {
  std::vector<Decl> decls;
  for (size_t i = body.open + 1; i < body.close; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) {
      continue;
    }
    // Form 1: `Buf* name`, `const TcpConnection* name`, `Mbuf*& name` — a
    // declaration of a raw pointer/reference to a crash-clearable type.
    if (IsFlaggedPointeeType(t.text)) {
      size_t j = i + 1;
      bool ptr_or_ref = false;
      while (j < body.close &&
             (IsPunct(toks[j], '*') || IsPunct(toks[j], '&') ||
              IsIdent(toks[j], "const"))) {
        ptr_or_ref |= toks[j].kind == TokKind::kPunct;
        ++j;
      }
      const bool range_for_colon =
          ptr_or_ref && j + 2 < body.close && IsPunct(toks[j + 1], ':') &&
          !IsPunct(toks[j + 2], ':');
      if (ptr_or_ref && j < body.close && toks[j].kind == TokKind::kIdentifier &&
          j + 1 < body.close &&
          (IsPunct(toks[j + 1], '=') || IsPunct(toks[j + 1], ';') ||
           IsPunct(toks[j + 1], ')') || range_for_colon)) {
        decls.push_back({toks[j].text, j,
                         StatementEnd(toks, match, j, body.close),
                         ScopeEnd(toks, j, body.close),
                         t.text + "* '" + toks[j].text + "'", t.text == "Buf"});
        i = j;
        continue;
      }
    }
    // Form 2: `auto name = <recv>.Find(...)` / `auto it = dup_cache_.find(..)`
    // — lookup results (pointers, StatusOr<Buf*>, map iterators) into a
    // cache that crash handling clears.
    if (t.text == "auto") {
      size_t j = i + 1;
      while (j < body.close && (IsPunct(toks[j], '*') || IsPunct(toks[j], '&'))) {
        ++j;
      }
      if (j >= body.close || toks[j].kind != TokKind::kIdentifier ||
          j + 1 >= body.close || !IsPunct(toks[j + 1], '=')) {
        continue;
      }
      const size_t name_idx = j;
      const size_t stmt_end = StatementEnd(toks, match, j, body.close);
      for (size_t k = name_idx + 2; k + 2 < stmt_end; ++k) {
        const bool dot = IsPunct(toks[k + 1], '.');
        const bool arrow = k + 3 < stmt_end && IsPunct(toks[k + 1], '-') &&
                           IsPunct(toks[k + 2], '>');
        const size_t m = arrow ? k + 3 : k + 2;
        if (toks[k].kind == TokKind::kIdentifier && (dot || arrow) &&
            m + 1 <= stmt_end && toks[m].kind == TokKind::kIdentifier &&
            m + 1 < toks.size() && IsPunct(toks[m + 1], '(') &&
            IsFlaggedLookup(toks[k].text, toks[m].text)) {
          decls.push_back({toks[name_idx].text, name_idx, stmt_end,
                           ScopeEnd(toks, name_idx, body.close),
                           "lookup result '" + toks[name_idx].text + "' from " +
                               toks[k].text + "." + toks[m].text + "()", false});
          break;
        }
      }
    }
  }
  return decls;
}

void Emit(std::vector<Finding>* out, const LexedFile& file, int line,
          const std::string& check, const std::string& message) {
  out->push_back({file.path, line, check, message});
}

// --- await-stale -----------------------------------------------------------

void CheckAwaitStale(const LexedFile& file, const std::vector<size_t>& match,
                     const Body& body, const std::vector<Susp>& susp,
                     std::vector<Finding>* out) {
  const std::vector<Token>& toks = file.tokens;
  std::vector<size_t> guards;
  for (size_t i = body.open + 1; i < body.close; ++i) {
    if (toks[i].kind == TokKind::kIdentifier && IsGuardToken(toks[i].text)) {
      guards.push_back(i);
    }
  }
  if (susp.empty()) {
    return;
  }

  for (const Decl& decl : CollectDecls(toks, match, body)) {
    // Uses and rebinds of the name after its declaring statement.
    std::vector<size_t> uses;
    std::vector<size_t> rebinds;
    for (size_t i = decl.stmt_end + 1; i < decl.scope_end; ++i) {
      if (toks[i].kind != TokKind::kIdentifier || toks[i].text != decl.name) {
        continue;
      }
      const bool assigned = i + 1 < toks.size() && IsPunct(toks[i + 1], '=') &&
                            !(i + 2 < toks.size() && IsPunct(toks[i + 2], '=')) &&
                            !(i > 0 && (IsPunct(toks[i - 1], '*') ||
                                        IsPunct(toks[i - 1], '!') ||
                                        IsPunct(toks[i - 1], '<') ||
                                        IsPunct(toks[i - 1], '>')));
      (assigned ? rebinds : uses).push_back(i);
    }

    std::set<int> flagged_lines;
    for (const size_t use : uses) {
      // Most recent (re)binding before this use.
      size_t bind = decl.name_idx;
      for (const size_t r : rebinds) {
        if (r < use) {
          bind = std::max(bind, r);
        }
      }
      // Suspensions inside the binding statement itself don't endanger the
      // value — `Buf* b = co_await Create(...)` produces b after the resume.
      const size_t bind_end = bind == decl.name_idx
                                  ? decl.stmt_end
                                  : StatementEnd(toks, match, bind, body.close);
      // Last suspension point between binding and use. A suspension in the
      // same statement as the use (no ';'/'{'/'}' between them) is the use's
      // own awaited/called expression — its operands are evaluated before
      // suspension, so it does not endanger this use.
      const auto boundary_between = [&](size_t a, size_t u) {
        for (size_t k = a; k < u; ++k) {
          if (IsPunct(toks[k], ';') || IsPunct(toks[k], '{') ||
              IsPunct(toks[k], '}')) {
            return true;
          }
        }
        return false;
      };
      const Susp* last_susp = nullptr;
      for (const Susp& s : susp) {
        if (s.idx > bind_end && s.idx < use && boundary_between(s.idx, use)) {
          last_susp = &s;
        }
      }
      if (last_susp == nullptr) {
        continue;
      }
      // A crash-epoch token between resume and use revalidates.
      const bool guarded = std::any_of(guards.begin(), guards.end(), [&](size_t g) {
        return g > last_susp->idx && g < use;
      });
      if (!guarded && flagged_lines.insert(toks[use].line).second) {
        Emit(out, file, toks[use].line, "await-stale",
             decl.what + " held across " + SuspDesc(toks, *last_susp) +
                 " and used without a crash-epoch re-check or re-lookup");
      }
    }

    // Back-edge rule: a loop body that both suspends and uses the name
    // without a guard or rebind is stale on the second iteration even if the
    // first iteration's textual order looks safe (use-before-await).
    for (size_t i = body.open + 1; i < body.close; ++i) {
      if (!IsIdent(toks[i], "while") && !IsIdent(toks[i], "for") &&
          !IsIdent(toks[i], "do")) {
        continue;
      }
      // Find the loop body '{': for do, immediately next; else after the
      // header parens.
      size_t lb = i + 1;
      if (!IsIdent(toks[i], "do")) {
        while (lb < body.close && !IsPunct(toks[lb], '(')) {
          ++lb;
        }
        if (lb >= body.close) {
          continue;
        }
        lb = SkipGroup(match, lb);
      }
      if (lb >= body.close || !IsPunct(toks[lb], '{')) {
        continue;
      }
      const size_t le = match[lb] > lb ? match[lb] : body.close;
      if (decl.name_idx >= lb || decl.scope_end < le) {
        continue;  // declared inside the loop, or loop outside decl's scope
      }
      const Susp* loop_susp = nullptr;
      bool has_guard = false, has_rebind = false;
      size_t first_use = 0;
      for (const Susp& s : susp) {
        if (s.idx > lb && s.idx < le && loop_susp == nullptr) {
          loop_susp = &s;
        }
      }
      for (const size_t g : guards) {
        has_guard |= g > lb && g < le;
      }
      for (const size_t r : rebinds) {
        has_rebind |= r > lb && r < le;
      }
      for (const size_t u : uses) {
        if (u > lb && u < le && first_use == 0) {
          first_use = u;
        }
      }
      if (loop_susp != nullptr && !has_guard && !has_rebind && first_use != 0 &&
          flagged_lines.insert(toks[first_use].line).second) {
        Emit(out, file, toks[first_use].line, "await-stale",
             decl.what + " used in a loop that suspends (" +
                 SuspDesc(toks, *loop_susp) +
                 ") without re-checking the crash epoch on the back edge");
      }
    }
  }
}

// --- cond-await ------------------------------------------------------------

void CheckCondAwait(const LexedFile& file, const std::vector<size_t>& match,
                    const Body& body, const std::vector<Susp>& susp,
                    std::vector<Finding>* out) {
  const std::vector<Token>& toks = file.tokens;
  // Condition parens of if/while/for/switch.
  std::vector<std::pair<size_t, size_t>> cond_ranges;
  for (size_t i = body.open + 1; i < body.close; ++i) {
    if (!IsIdent(toks[i], "if") && !IsIdent(toks[i], "while") &&
        !IsIdent(toks[i], "for") && !IsIdent(toks[i], "switch")) {
      continue;
    }
    size_t p = i + 1;
    if (p < body.close && IsIdent(toks[p], "constexpr")) {
      ++p;
    }
    if (p < body.close && IsPunct(toks[p], '(')) {
      cond_ranges.emplace_back(p, match[p] > p ? match[p] : body.close);
    }
  }
  std::set<int> flagged_lines;
  const auto in_cond = [&](size_t i) {
    return std::any_of(cond_ranges.begin(), cond_ranges.end(),
                       [&](const auto& r) { return i > r.first && i < r.second; });
  };
  // Interprocedural arm: in a coroutine, a call to a may-suspend function
  // inside a condition means simulated time can advance mid-expression.
  if (body.coroutine) {
    for (const Susp& s : susp) {
      if (!s.literal && in_cond(s.idx) && flagged_lines.insert(s.line).second) {
        Emit(out, file, s.line, "cond-await",
             "call to " + s.why + " '" + s.callee +
                 "' inside a control-flow condition — time can advance "
                 "mid-condition; hoist into a named temporary first");
      }
    }
  }
  // Ternary operands: track '?' ... ':' pairs at matching delimiter depth.
  int delim_depth = 0;
  std::vector<int> ternary_depths;
  for (size_t i = body.open + 1; i < body.close; ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct && t.text.size() == 1) {
      const char c = t.text[0];
      if (c == '(' || c == '{' || c == '[') {
        ++delim_depth;
      } else if (c == ')' || c == '}' || c == ']') {
        --delim_depth;
        while (!ternary_depths.empty() && ternary_depths.back() > delim_depth) {
          ternary_depths.pop_back();  // unterminated ?: inside a closed group
        }
      } else if (c == '?') {
        ternary_depths.push_back(delim_depth);
      } else if (c == ';') {
        // A ?: cannot span a statement. The false arm runs to the end of the
        // expression, so markers survive the ':' itself — both arms (and the
        // rest of the expression) count as conditional context.
        ternary_depths.clear();
      }
      continue;
    }
    if (!IsIdent(t, "co_await")) {
      continue;
    }
    const bool cond = in_cond(i);
    const bool in_ternary = !ternary_depths.empty();
    if ((cond || in_ternary) && flagged_lines.insert(t.line).second) {
      Emit(out, file, t.line, "cond-await",
           std::string("co_await inside a ") +
               (cond ? "control-flow condition" : "?: conditional expression") +
               " (GCC 12 coroutine-frame miscompile; hoist into a named "
               "temporary first)");
    }
  }
}

// --- dropped-awaitable -----------------------------------------------------

void CheckDroppedAwaitable(const LexedFile& file, const Body& body,
                           std::vector<Finding>* out) {
  const std::vector<Token>& toks = file.tokens;
  for (size_t i = body.open + 1; i < body.close; ++i) {
    if (toks[i].kind != TokKind::kIdentifier || !IsAwaitableFactory(toks[i].text) ||
        i + 1 >= toks.size() || !IsPunct(toks[i + 1], '(')) {
      continue;
    }
    // Must be a member call: `.Use(`, `->Delay(`. A plain definition or free
    // call of the same name is not an awaitable factory.
    const bool dot = i > 0 && IsPunct(toks[i - 1], '.');
    const bool arrow = i > 1 && IsPunct(toks[i - 1], '>') && IsPunct(toks[i - 2], '-');
    if (!dot && !arrow) {
      continue;
    }
    // Walk back to the start of the statement: if the value is awaited,
    // returned, or bound to a name, it is not dropped.
    bool consumed = false;
    for (size_t j = i; j-- > body.open;) {
      const Token& b = toks[j];
      if (IsPunct(b, ';') || IsPunct(b, '{') || IsPunct(b, '}')) {
        break;
      }
      if (IsIdent(b, "co_await") || IsIdent(b, "co_return") ||
          IsIdent(b, "co_yield") || IsIdent(b, "return")) {
        consumed = true;
        break;
      }
      if (IsPunct(b, '=') && !(j > 0 && (IsPunct(toks[j - 1], '=') ||
                                         IsPunct(toks[j - 1], '!') ||
                                         IsPunct(toks[j - 1], '<') ||
                                         IsPunct(toks[j - 1], '>'))) &&
          !(j + 1 < toks.size() && IsPunct(toks[j + 1], '='))) {
        consumed = true;
        break;
      }
    }
    if (!consumed) {
      Emit(out, file, toks[i].line, "dropped-awaitable",
           "awaitable from ." + toks[i].text +
               "() constructed but never co_awaited — the delay/charge/IO "
               "never happens");
    }
  }
}

// --- fixed-timeout ---------------------------------------------------------

// Scans [open+1, close) for a duration constructor applied to a number
// literal; returns its token index or 0.
size_t FindDurationLiteral(const std::vector<Token>& toks, size_t open, size_t close) {
  for (size_t j = open + 1; j + 2 < close; ++j) {
    if (toks[j].kind == TokKind::kIdentifier && IsDurationCtor(toks[j].text) &&
        IsPunct(toks[j + 1], '(') && toks[j + 2].kind == TokKind::kNumber) {
      return j;
    }
  }
  return 0;
}

void CheckFixedTimeout(const LexedFile& file, const std::vector<size_t>& match,
                       const Body& body, const AnalysisContext& ctx,
                       std::vector<Finding>* out) {
  const std::vector<Token>& toks = file.tokens;
  for (const CallSite& cs : CollectCallSites(toks, body)) {
    const size_t i = cs.idx;
    const size_t args_close = match[i + 1] > i + 1 ? match[i + 1] : body.close;
    // Direct form: `recv.Start(... Seconds(3) ...)` on an adaptive receiver.
    if (cs.name == "Start" && cs.member) {
      const size_t recv_idx = IsPunct(toks[i - 1], '.') ? i - 2 : i - 3;
      if (recv_idx < toks.size() && toks[recv_idx].kind == TokKind::kIdentifier &&
          IsAdaptiveTimerReceiver(toks[recv_idx].text)) {
        // `Start(rto_)`, `Start(options_.lease_term / 4)` and
        // `Start(Backoff(tries))` all pass; `Start(Seconds(3))` does not, nor
        // does `Start(base + Milliseconds(200))` — the literal component is
        // just as fixed inside an expression.
        const size_t lit = FindDurationLiteral(toks, i + 1, args_close);
        if (lit != 0) {
          Emit(out, file, toks[lit].line, "fixed-timeout",
               "timer '" + toks[recv_idx].text + "' armed with hard-coded " +
                   toks[lit].text + "(" + toks[lit + 2].text +
                   ") — retransmit/backoff/renewal periods must come from "
                   "measured RTT or mount/server options, not a literal "
                   "(paper Section 3)");
        }
      }
      continue;
    }
    // Interprocedural form: a wrapper whose summary says parameter k flows
    // into an adaptive timer's Start(), called with a literal at position k.
    const auto tp = ctx.timer_params.find(cs.name);
    if (tp == ctx.timer_params.end()) {
      continue;
    }
    // Split the argument list at top-level commas.
    std::vector<std::pair<size_t, size_t>> args;
    size_t arg_start = i + 2;
    for (size_t k = i + 2; k < args_close;) {
      if (IsPunct(toks[k], '(') || IsPunct(toks[k], '{') || IsPunct(toks[k], '[')) {
        k = SkipGroup(match, k);
        continue;
      }
      if (IsPunct(toks[k], ',')) {
        args.emplace_back(arg_start, k);
        arg_start = k + 1;
      }
      ++k;
    }
    if (arg_start < args_close) {
      args.emplace_back(arg_start, args_close);
    }
    for (const int p : tp->second) {
      if (p < 0 || static_cast<size_t>(p) >= args.size()) {
        continue;
      }
      const size_t lit = FindDurationLiteral(toks, args[p].first - 1,
                                             args[p].second + 1);
      if (lit != 0) {
        Emit(out, file, toks[lit].line, "fixed-timeout",
             "hard-coded " + toks[lit].text + "(" + toks[lit + 2].text +
                 ") passed to '" + cs.name + "' which arms an adaptive timer "
                 "with it (parameter " + std::to_string(p) +
                 ") — derive the period from measured RTT or options "
                 "(paper Section 3)");
      }
    }
  }
}

// --- nondeterministic-source -----------------------------------------------

// One stray wall-clock or hardware-entropy read silently breaks record/
// replay: the run still works, the trace just stops reproducing. All time
// must come from the Scheduler and all randomness from the seeded Rng
// (src/util/rng.h); this check flags the usual escape hatches.
void CheckNondeterministicSource(const LexedFile& file, const Body& body,
                                 std::vector<Finding>* out) {
  const std::vector<Token>& toks = file.tokens;
  for (size_t i = body.open + 1; i < body.close; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) {
      continue;
    }
    if (t.text == "random_device") {
      Emit(out, file, t.line, "nondeterministic-source",
           "std::random_device reads hardware entropy — seed a renonfs::Rng "
           "from the world seed instead, or replay stops reproducing");
      continue;
    }
    if (t.text == "system_clock") {
      // Argless std::chrono::system_clock::now() — the wall clock. A call
      // with arguments is someone else's API and out of scope.
      if (i + 5 < toks.size() && IsPunct(toks[i + 1], ':') &&
          IsPunct(toks[i + 2], ':') && IsIdent(toks[i + 3], "now") &&
          IsPunct(toks[i + 4], '(') && IsPunct(toks[i + 5], ')')) {
        Emit(out, file, t.line, "nondeterministic-source",
             "system_clock::now() is the wall clock — use Scheduler::now() "
             "sim time so runs replay bit-for-bit");
      }
      continue;
    }
    if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], '(')) {
      continue;
    }
    if (t.text == "clock_gettime") {
      Emit(out, file, t.line, "nondeterministic-source",
           "clock_gettime() is the wall clock — use Scheduler::now() sim "
           "time so runs replay bit-for-bit");
      continue;
    }
    if (t.text == "time") {
      // Bare time(...) only: member calls (`sched.time()`, `span->time()`)
      // are simulator accessors, and `SimTime time(...)` shapes are
      // declarations, not libc calls. `std::time(` / `::time(` still match.
      const bool member =
          (i >= 1 && IsPunct(toks[i - 1], '.')) ||
          (i >= 2 && IsPunct(toks[i - 1], '>') && IsPunct(toks[i - 2], '-'));
      const bool declaration = i >= 1 && toks[i - 1].kind == TokKind::kIdentifier;
      if (!member && !declaration) {
        Emit(out, file, t.line, "nondeterministic-source",
             "time() is the wall clock — use Scheduler::now() sim time so "
             "runs replay bit-for-bit");
      }
      continue;
    }
  }
}

// --- span-balance ----------------------------------------------------------

// Begin/end trace-kind pairs: the begin opens a leaf wait segment in the
// span collector (src/obs/span.h) that only the matching end closes. A
// coroutine that records the begin and can co_return before recording the
// end leaves the segment dangling — the op's breakdown then mis-attributes
// everything from the begin to completion.
const char* SpanEndForBegin(const std::string& begin) {
  if (begin == "kDiskQueueEnter") {
    return "kDiskQueueLeave";
  }
  if (begin == "kNfsdSlotWait") {
    return "kNfsdSlotGrant";
  }
  return nullptr;
}

// A TraceEventKind::kX mention at `i` (the index of "TraceEventKind") counts
// only when the kind is a call argument — the preceding token is '(' or ','.
// `case TraceEventKind::kX:` labels and comparisons never record an event.
bool IsTraceKindArg(const std::vector<Token>& toks, size_t i) {
  return i > 0 && (IsPunct(toks[i - 1], '(') || IsPunct(toks[i - 1], ','));
}

void CheckSpanBalance(const LexedFile& file, const Body& body,
                      std::vector<Finding>* out) {
  const std::vector<Token>& toks = file.tokens;
  for (size_t i = body.open + 1; i + 3 < body.close; ++i) {
    if (!IsIdent(toks[i], "TraceEventKind") || !IsPunct(toks[i + 1], ':') ||
        !IsPunct(toks[i + 2], ':') || toks[i + 3].kind != TokKind::kIdentifier ||
        !IsTraceKindArg(toks, i)) {
      continue;
    }
    const std::string begin = toks[i + 3].text;
    const char* end_kind = SpanEndForBegin(begin);
    if (end_kind == nullptr) {
      continue;
    }
    // The matching end recorded later in the same body (first occurrence).
    size_t end_at = body.close;
    for (size_t j = i + 4; j + 3 < body.close; ++j) {
      if (IsIdent(toks[j], "TraceEventKind") && IsPunct(toks[j + 1], ':') &&
          IsPunct(toks[j + 2], ':') && IsIdent(toks[j + 3], end_kind) &&
          IsTraceKindArg(toks, j)) {
        end_at = j;
        break;
      }
    }
    if (end_at == body.close) {
      Emit(out, file, toks[i + 3].line, "span-balance",
           "Trace(" + begin + ") is never closed by " + end_kind +
               " in this function — the wait segment dangles and the span "
               "breakdown mis-attributes everything after it");
      continue;
    }
    for (size_t j = i + 4; j < end_at; ++j) {
      if (IsIdent(toks[j], "co_return")) {
        Emit(out, file, toks[j].line, "span-balance",
             "co_return between Trace(" + begin + ") (line " +
                 std::to_string(toks[i + 3].line) + ") and its matching " +
                 end_kind + " — an early exit leaves the wait segment open");
        break;  // one finding per begin is enough
      }
    }
  }
}

// --- event-alloc (note severity) -------------------------------------------

// std::function anywhere in the sim-core hot-path files (scheduler, cpu,
// disk) costs one heap allocation per scheduled event — the profile the
// timing-wheel overhaul removed. Scans the whole token stream (member
// declarations matter as much as locals) and reports a note per line; the
// deliberate survivor (Timer's stored callable) carries analyze:allow
// annotations.
void CheckEventAlloc(const LexedFile& file, std::vector<Finding>* out) {
  const bool scoped = file.path.find("src/sim/scheduler") != std::string::npos ||
                      file.path.find("src/sim/cpu") != std::string::npos ||
                      file.path.find("src/sim/disk") != std::string::npos ||
                      file.path.find("testdata") != std::string::npos;
  if (!scoped) {
    return;
  }
  const std::vector<Token>& toks = file.tokens;
  int last_line = -1;
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (IsIdent(toks[i], "std") && IsPunct(toks[i + 1], ':') &&
        IsPunct(toks[i + 2], ':') && IsIdent(toks[i + 3], "function") &&
        toks[i].line != last_line) {
      last_line = toks[i].line;
      Finding f{file.path, toks[i].line, "event-alloc",
                "std::function on a per-event path heap-allocates per capture; "
                "forward the callable into Scheduler's pooled storage instead "
                "(src/sim/scheduler.h)", false};
      f.note = true;
      out->push_back(std::move(f));
    }
  }
}

// --- loan-lifecycle --------------------------------------------------------

// Part 1: a cluster obtained from NewCluster()/pool Allocate() bound to a
// local must reach an ownership transfer (argument position, assignment into
// a member, or a return) — an early return before the first transfer leaks
// the loan on that path.
void CheckLoanLeak(const LexedFile& file, const std::vector<size_t>& match,
                   const Body& body, std::vector<Finding>* out) {
  const std::vector<Token>& toks = file.tokens;
  for (const CallSite& cs : CollectCallSites(toks, body)) {
    bool acquire = cs.name == "NewCluster";
    if (!acquire && cs.name == "Allocate" && cs.member) {
      const size_t recv_idx = IsPunct(toks[cs.idx - 1], '.') ? cs.idx - 2 : cs.idx - 3;
      acquire = recv_idx < toks.size() &&
                toks[recv_idx].kind == TokKind::kIdentifier &&
                LoweredCopy(toks[recv_idx].text).find("pool") != std::string::npos;
    }
    if (!acquire) {
      continue;
    }
    // Binding: `auto name = NewCluster(...)` / `std::shared_ptr<Cluster> name
    // = ...`. Walk back to '=': the identifier before it is the bound name —
    // but only for fresh local declarations (a member assignment
    // `x->cluster_ = NewCluster()` is already the transfer).
    size_t eq = cs.idx;
    while (eq > body.open && !IsPunct(toks[eq], '=') && !IsPunct(toks[eq], ';') &&
           !IsPunct(toks[eq], '{') && !IsPunct(toks[eq], '}') &&
           !IsPunct(toks[eq], '(')) {
      --eq;
    }
    if (!IsPunct(toks[eq], '=') || eq == 0 ||
        toks[eq - 1].kind != TokKind::kIdentifier) {
      continue;  // expression use (return NewCluster(), f(NewCluster())): fine
    }
    const size_t name_idx = eq - 1;
    const Token& prev = name_idx > 0 ? toks[name_idx - 1] : toks[name_idx];
    const bool member_assign =
        IsPunct(prev, '.') ||
        (name_idx >= 2 && IsPunct(prev, '>') && IsPunct(toks[name_idx - 2], '-'));
    if (member_assign) {
      continue;  // `foo->cluster_ = NewCluster()` transfers immediately
    }
    const std::string name = toks[name_idx].text;
    const size_t stmt_end = StatementEnd(toks, match, cs.idx, body.close);
    const size_t scope_end = ScopeEnd(toks, cs.idx, body.close);

    // First transfer: the name in argument position, assigned into something,
    // or returned.
    size_t first_transfer = 0;
    for (size_t i = stmt_end + 1; i < scope_end && first_transfer == 0; ++i) {
      if (toks[i].kind != TokKind::kIdentifier || toks[i].text != name) {
        continue;
      }
      const Token& p = toks[i - 1];
      if (IsPunct(p, '(') || IsPunct(p, ',') || IsPunct(p, '=') ||
          IsIdent(p, "return") || IsIdent(p, "co_return") ||
          IsPunct(p, '{')) {
        first_transfer = i;
      }
    }
    const size_t horizon = first_transfer != 0 ? first_transfer : scope_end;
    if (first_transfer == 0) {
      Emit(out, file, toks[name_idx].line, "loan-lifecycle",
           "cluster '" + name + "' from " + cs.name +
               "() is never transferred or released in this scope — the loan "
               "(and its ledger entry) leaks");
    }
    for (size_t i = stmt_end + 1; i < horizon; ++i) {
      if (!IsIdent(toks[i], "return") && !IsIdent(toks[i], "co_return")) {
        continue;
      }
      const size_t rend = StatementEnd(toks, match, i, body.close);
      bool mentions = false;
      for (size_t k = i; k < rend; ++k) {
        mentions |= toks[k].kind == TokKind::kIdentifier && toks[k].text == name;
      }
      if (!mentions) {
        Emit(out, file, toks[i].line, "loan-lifecycle",
             "early return leaks cluster '" + name + "' from " + cs.name +
                 "() before its ownership transfer — release or transfer it "
                 "on this path too");
        break;  // one early-return finding per acquisition is enough
      }
    }
  }
}

// Part 2: a raw Buf* passed into a may-suspend callee that never touches the
// crash-epoch machinery. The callee suspends while holding a pointer it has
// no way to revalidate — pass the (file, block) key and re-look-up after the
// resume, or re-check the epoch inside the callee.
void CheckLoanPassedToSuspender(const LexedFile& file, const std::vector<size_t>& match,
                                const Body& body, const AnalysisContext& ctx,
                                std::vector<Finding>* out) {
  const std::vector<Token>& toks = file.tokens;
  std::vector<Decl> buf_decls;
  for (Decl& d : CollectDecls(toks, match, body)) {
    if (d.raw_buf) {
      buf_decls.push_back(std::move(d));
    }
  }
  if (buf_decls.empty()) {
    return;
  }
  const std::vector<std::pair<size_t, size_t>> lambdas =
      LambdaBodyRanges(toks, match, body);
  for (const CallSite& cs : CollectCallSites(toks, body)) {
    if (!ctx.CallMaySuspend(cs.receiver, cs.name) ||
        !ctx.CallUnguarded(cs.receiver, cs.name) ||
        AssumedNonsuspending(file, cs.line)) {
      continue;
    }
    if (std::any_of(lambdas.begin(), lambdas.end(), [&](const auto& r) {
          return cs.idx > r.first && cs.idx < r.second;
        })) {
      continue;
    }
    const size_t args_close =
        match[cs.idx + 1] > cs.idx + 1 ? match[cs.idx + 1] : body.close;
    for (const Decl& d : buf_decls) {
      if (cs.idx <= d.name_idx || cs.idx >= d.scope_end) {
        continue;
      }
      for (size_t k = cs.idx + 2; k < args_close; ++k) {
        if (toks[k].kind == TokKind::kIdentifier && toks[k].text == d.name) {
          Emit(out, file, cs.line, "loan-lifecycle",
               "raw " + d.what + " passed into " + ctx.SuspendWhy(cs.name) +
                   " '" + cs.name +
                   "' which never re-checks the crash epoch — the callee "
                   "suspends holding a pointer it cannot revalidate");
          k = args_close;
        }
      }
    }
  }
}

// --- discarded-status ------------------------------------------------------

void CheckDiscardedStatus(const LexedFile& file, const std::vector<size_t>& match,
                          const Body& body, const AnalysisContext& ctx,
                          std::vector<Finding>* out) {
  const std::vector<Token>& toks = file.tokens;
  if (!InterprocScope(file.path)) {
    return;
  }
  for (const CallSite& cs : CollectCallSites(toks, body)) {
    if (!ctx.status_enforced.contains(cs.name)) {
      continue;
    }
    // The call must be the whole statement: walk back over the receiver
    // chain (`a.b->c::`) and an optional leading co_await to a statement
    // boundary. Anything else (=, return, a surrounding call) consumes the
    // value.
    size_t j = cs.idx;
    bool statement_head = false;
    bool void_cast = false;
    while (j-- > body.open) {
      const Token& b = toks[j];
      if (IsPunct(b, ';') || IsPunct(b, '{') || IsPunct(b, '}')) {
        statement_head = true;
        break;
      }
      if (b.kind == TokKind::kIdentifier) {
        if (b.text == "co_await") {
          continue;
        }
        // A receiver-chain component is glued to the rest of the chain by
        // '.', '::', or '->' on its right; a bare identifier (return,
        // co_return, a cast) consumes the value.
        const Token& nxt = toks[j + 1];
        if (IsPunct(nxt, '.') || IsPunct(nxt, ':') ||
            (IsPunct(nxt, '-') && j + 2 < toks.size() && IsPunct(toks[j + 2], '>'))) {
          continue;
        }
        break;
      }
      if (IsPunct(b, '.') || IsPunct(b, ':') ||
          (IsPunct(b, '>') && j > 0 && IsPunct(toks[j - 1], '-'))) {
        continue;
      }
      if (IsPunct(b, '-') && j + 1 < toks.size() && IsPunct(toks[j + 1], '>')) {
        continue;
      }
      // `(void) call()` is an explicit, visible discard: allowed.
      if (IsPunct(b, ')') && j >= 2 && IsIdent(toks[j - 1], "void") &&
          IsPunct(toks[j - 2], '(')) {
        void_cast = true;
      }
      break;
    }
    if (!statement_head || void_cast) {
      continue;
    }
    // And the result must not be consumed after the argument list either
    // (`.ok()` chain, `?`, comparison...): the next token must end the
    // statement.
    const size_t args_close = match[cs.idx + 1];
    if (args_close == 0 || args_close + 1 >= toks.size() ||
        !IsPunct(toks[args_close + 1], ';')) {
      continue;
    }
    Emit(out, file, cs.line, "discarded-status",
         "result of '" + cs.name +
             "' (returns Status) is silently discarded — check it, bind it, "
             "or cast to (void) / add the name to "
             "tools/analyze/status_allowlist.txt with a justification");
  }
}

// ---------------------------------------------------------------------------

// An allow annotation suppresses a finding when it sits on the finding's
// line or the line above.
bool AllowMatches(const AllowNote& note, const Finding& f) {
  if (f.check == "bad-allow") {
    return false;  // hygiene findings cannot be suppressed
  }
  const std::string alias =
      f.check == "await-stale" ? std::string("await-stable") : f.check;
  return note.check == f.check || note.check == alias;
}

}  // namespace

bool IsKnownCheck(const std::string& check) {
  static const std::set<std::string> kChecks = {
      "await-stale",   "await-stable",   "cond-await",
      "dropped-awaitable", "fixed-timeout", "nondeterministic-source",
      "span-balance",  "event-alloc",    "loan-lifecycle",
      "discarded-status",
  };
  return kChecks.contains(check);
}

std::vector<Finding> AnalyzeFile(const LexedFile& file, const AnalysisContext& ctx,
                                 std::vector<Finding>* suppressed,
                                 FileStats* stats) {
  const std::vector<size_t> match = MatchDelimiters(file.tokens);
  std::vector<Body> bodies = FindFunctionBodies(file.tokens, match);
  std::vector<Finding> raw;
  for (Body& body : bodies) {
    for (size_t i = body.open + 1; i < body.close; ++i) {
      const Token& t = file.tokens[i];
      if (t.kind == TokKind::kIdentifier &&
          (t.text == "co_await" || t.text == "co_return" || t.text == "co_yield")) {
        body.coroutine = true;
        break;
      }
    }
    if (stats != nullptr) {
      ++stats->functions;
      stats->coroutines += body.coroutine ? 1 : 0;
    }
    // Suspension points: literal co_awaits plus calls to may-suspend
    // functions. await-stale/cond-await now run on every body that can
    // suspend — a synchronous function that calls a scheduler-pumping helper
    // is exactly the shape the intra-function pass missed.
    const std::vector<Susp> susp = CollectSuspensions(file, match, body, ctx);
    if (!susp.empty()) {
      CheckAwaitStale(file, match, body, susp, &raw);
      CheckCondAwait(file, match, body, susp, &raw);
      CheckLoanPassedToSuspender(file, match, body, ctx, &raw);
    }
    if (body.coroutine) {
      CheckSpanBalance(file, body, &raw);
    }
    CheckDroppedAwaitable(file, body, &raw);
    CheckFixedTimeout(file, match, body, ctx, &raw);
    CheckNondeterministicSource(file, body, &raw);
    CheckLoanLeak(file, match, body, &raw);
    CheckDiscardedStatus(file, match, body, ctx, &raw);
  }
  CheckEventAlloc(file, &raw);
  std::sort(raw.begin(), raw.end(), [](const Finding& a, const Finding& b) {
    return a.line != b.line ? a.line < b.line : a.check < b.check;
  });

  // Apply allows, tracking which annotations earned their keep.
  std::set<const AllowNote*> used_allows;
  std::vector<Finding> findings;
  for (Finding& f : raw) {
    bool allowed = false;
    for (int line : {f.line, f.line - 1}) {
      auto [lo, hi] = file.allows.equal_range(line);
      for (auto it = lo; it != hi; ++it) {
        if (AllowMatches(it->second, f)) {
          used_allows.insert(&it->second);
          allowed = true;
        }
      }
    }
    if (allowed) {
      if (suppressed != nullptr) {
        suppressed->push_back(std::move(f));
      }
    } else {
      findings.push_back(std::move(f));
    }
  }

  // Suppression hygiene: every allow must name a real check, carry a reason,
  // and actually suppress something. Stale or malformed allows fail the tree
  // scan — by construction the tree cannot accumulate dead suppressions.
  for (const auto& [line, note] : file.allows) {
    if (!IsKnownCheck(note.check)) {
      Emit(&findings, file, line, "bad-allow",
           "analyze:allow names unknown check '" + note.check +
               "' — stale check id? see tools/analyze/checks.h for the list");
    } else if (!note.has_reason) {
      Emit(&findings, file, line, "bad-allow",
           "analyze:allow(" + note.check +
               ") has no reason — write `analyze:allow(" + note.check +
               ": why this is safe)`");
    } else if (!used_allows.contains(&note)) {
      Emit(&findings, file, line, "bad-allow",
           "analyze:allow(" + note.check +
               ") suppresses nothing — the finding is gone, delete the "
               "annotation");
    }
  }
  for (const auto& [line, has_reason] : file.assumes) {
    if (!has_reason) {
      Emit(&findings, file, line, "bad-allow",
           "analyze:assume-nonsuspending() has no reason — say why this "
           "indirect/virtual call can never suspend");
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return a.line != b.line ? a.line < b.line : a.check < b.check;
            });
  return findings;
}

}  // namespace renonfs::analyze
