// Translation-unit-spanning symbol table for the await-safety analyzer.
//
// Pass 1 of the interprocedural analysis (DESIGN §16): every source file is
// lexed once and distilled into a FileSummary — the list of function
// definitions it contains, each with the facts the call-graph fixpoint and
// the checks need (does the body contain a literal co_await, which names it
// calls, does it touch the crash-epoch machinery, what its return type
// mentions, which of its parameters feed an adaptive timer). Virtual method
// declarations and std::function-typed callable names are collected too:
// calls through either are resolved conservatively (callgraph.h).
//
// The summary is deliberately name-based, not type-based — the analyzer has
// no type information (no libclang in the image), so a call site resolves to
// *every* function sharing its simple name. That union is conservative in
// exactly the direction the checks need: if any same-named function may
// suspend, the call site counts as a suspension point.
//
// Structure-recovery helpers (delimiter matching, function-body discovery,
// statement/scope boundaries) live here so checks.cc and the summary
// extractor agree on what a "function body" is.
#ifndef RENONFS_TOOLS_ANALYZE_SYMTAB_H_
#define RENONFS_TOOLS_ANALYZE_SYMTAB_H_

#include <string>
#include <utility>
#include <vector>

#include "tools/analyze/lexer.h"

namespace renonfs::analyze {

// ---------------------------------------------------------------------------
// Structure recovery (shared with checks.cc).
// ---------------------------------------------------------------------------

struct Body {
  size_t open;             // index of '{'
  size_t close;            // index of matching '}'
  size_t params_open = 0;  // index of the parameter-list '(' (0 if unknown)
  bool coroutine = false;  // contains a literal co_await/co_return/co_yield
  std::string scope;       // innermost enclosing class/struct name, or ""
};

inline bool IsPunct(const Token& t, char c) {
  return t.kind == TokKind::kPunct && t.text.size() == 1 && t.text[0] == c;
}

inline bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}

// Any mention of the crash-epoch machinery counts as a revalidation point:
// epoch snapshots, epoch compares, crashed_ checks.
inline bool IsGuardToken(const std::string& t) {
  return t.find("crash") != std::string::npos || t.find("epoch") != std::string::npos;
}

// Timers that must adapt to observed latency or configured terms.
bool IsAdaptiveTimerReceiver(const std::string& receiver);

// The SimTime duration constructors from src/sim/time.h.
inline bool IsDurationCtor(const std::string& t) {
  return t == "Nanoseconds" || t == "Microseconds" || t == "Milliseconds" ||
         t == "Seconds";
}

// match[i] = index of the closing token for an opening '('/'{'/'[' at i,
// or 0 if unbalanced. Angle brackets are not bracketed (they are operators
// as often as template delimiters).
std::vector<size_t> MatchDelimiters(const std::vector<Token>& toks);

// Skips a balanced delimiter group starting at `i` (an opener); returns the
// index just past its closer.
size_t SkipGroup(const std::vector<size_t>& match, size_t i);

// Finds all function bodies by walking declaration scope with a small state
// machine (see checks.cc history): at namespace/class scope, a '{' following
// a parameter list (plus qualifiers, trailing return type, or a constructor
// init list) opens a function body. Each body records its parameter-list '('.
std::vector<Body> FindFunctionBodies(const std::vector<Token>& toks,
                                     const std::vector<size_t>& match);

// Index of the ';' ending the statement containing `i`, staying at the
// current delimiter level; stops at `limit`.
size_t StatementEnd(const std::vector<Token>& toks, const std::vector<size_t>& match,
                    size_t i, size_t limit);

// Index of the '}' that closes the innermost scope containing `i`.
size_t ScopeEnd(const std::vector<Token>& toks, size_t i, size_t limit);

// A call expression inside a body: `name(...)`, `recv.name(...)`,
// `recv->name(...)`, `Class::name(...)`. Declarations (`SimTime time(...)`)
// and keywords are excluded.
struct CallSite {
  size_t idx;        // token index of the callee name
  int line;
  std::string name;  // simple name
  bool member;       // preceded by '.' or '->'
  // The receiver identifier for a member call (`fs_` in `fs_->Read(...)`),
  // empty for free calls and chained receivers (`a.b().c()`). Used to refine
  // name-union resolution through the receiver's declared class.
  std::string receiver;
};

std::vector<CallSite> CollectCallSites(const std::vector<Token>& toks,
                                       const Body& body);

// Token ranges (open-brace idx, close-brace idx) of lambda bodies inside
// `body`. Calls inside a lambda execute when the lambda is invoked — usually
// deferred (timer callbacks, scheduled events) — so they are not suspension
// points of the enclosing function and are excluded from its callee summary.
std::vector<std::pair<size_t, size_t>> LambdaBodyRanges(
    const std::vector<Token>& toks, const std::vector<size_t>& match,
    const Body& body);

// ---------------------------------------------------------------------------
// Per-function and per-file summaries.
// ---------------------------------------------------------------------------

struct FunctionSummary {
  std::string qualified;  // "NfsServer::CommitWrite" or "FreeFunction"
  std::string name;       // simple name ("CommitWrite")
  int line = 0;
  bool has_co_await = false;  // literal co_await in the body
  bool has_guard = false;     // body mentions a crash/epoch token
  // Identifiers appearing in the declaration's return-type region
  // ("CoTask", "Status", "StatusOr", "void", ...). Contains-checks only.
  std::vector<std::string> return_mentions;
  std::vector<std::string> params;   // parameter names, in order
  std::vector<int> timer_params;     // param indices armed on an adaptive timer
  // Distinct callees, sorted. Encoded "name" for free calls and
  // "receiver.name" for member calls with an identifier receiver, so the
  // call graph can refine resolution through the receiver's declared class.
  std::vector<std::string> callees;
};

struct FileSummary {
  std::string path;
  std::vector<FunctionSummary> functions;
  std::vector<std::string> virtual_decls;   // names declared `virtual` here
  std::vector<std::string> indirect_names;  // std::function-typed variable names
  // Declarations `Type [*&] name` anywhere in the file (members, locals,
  // parameters), encoded "Type=name". The call graph uses the union across
  // all files to map member-call receivers back to their classes.
  std::vector<std::string> typed_names;
};

// Distills one lexed file. Calls annotated `analyze:assume-nonsuspending`
// are omitted from callee lists (the annotation is the documented escape
// hatch for indirect/virtual calls known not to suspend — DESIGN §16).
FileSummary ExtractSummary(const LexedFile& file);

}  // namespace renonfs::analyze

#endif  // RENONFS_TOOLS_ANALYZE_SYMTAB_H_
