// The await-safety checks. The bug classes are all rooted in this repo's
// history (see DESIGN §11/§16 and the PR log in CHANGES.md):
//
//   await-stale      A raw pointer/reference/iterator into crash-clearable
//                    state (Buf*, TcpConnection*, dup-cache entries, mbuf
//                    clusters) obtained before a suspension point and used
//                    after it without a crash_epoch/crashed_ re-check or a
//                    re-lookup. A suspension point is a literal co_await OR
//                    — interprocedurally — a call to a function the
//                    whole-tree summaries say may suspend (transitively
//                    co_awaits, pumps the scheduler, or dispatches through
//                    an unresolvable virtual/indirect target). The helper-
//                    that-awaits shape is exactly the PR 4 BlockThroughCache
//                    UAF one call deeper, which the intra-function check
//                    provably missed.
//   cond-await       co_await inside a conditional expression (if/while/for/
//                    switch condition or a ?: operand) — miscompiled by
//                    GCC 12's coroutine frame layout. In coroutine bodies a
//                    call to a may-suspend function inside a condition is
//                    flagged too (time can advance mid-condition).
//   dropped-awaitable  An awaitable factory result (CpuResource::Use,
//                    Scheduler::Delay, Semaphore::Acquire, ...) constructed
//                    and discarded without being awaited.
//   fixed-timeout    A hard-coded duration literal fed to an adaptive timer
//                    (retransmit/backoff/renew/recall/lease/rto/retry) —
//                    directly, or through a wrapper function whose summary
//                    says the parameter flows into such a timer's Start().
//   nondeterministic-source  Wall-clock / hardware-entropy reads that break
//                    scenario record/replay.
//   span-balance     A begin-side trace event whose matching end can be
//                    skipped by co_return (or never recorded).
//   event-alloc      (note severity) std::function on per-event hot paths.
//   loan-lifecycle   An mbuf cluster obtained via NewCluster()/pool
//                    Allocate() that can leak on an early-return path before
//                    its ownership transfer, or a raw Buf* passed into a
//                    may-suspend callee that never re-checks the crash epoch
//                    — the callee suspends while holding a pointer it cannot
//                    revalidate.
//   discarded-status A Status/StatusOr-returning function from src/nfs,
//                    src/rpc, or src/fs called as a bare statement (even
//                    through co_await) with the result dropped. The class is
//                    [[nodiscard]], but the attribute cannot see through
//                    wrappers or awaited results; the allowlist lives in
//                    tools/analyze/status_allowlist.txt.
//   bad-allow        Suppression hygiene: an `analyze:allow(...)` that names
//                    a check that does not exist, carries no reason, or
//                    suppresses nothing (stale). Also a reasonless
//                    `analyze:assume-nonsuspending()`.
//
// Suppression: `// analyze:allow(<check>: reason)` on the flagged line or
// the line above. `await-stable` is accepted as an alias for `await-stale`
// ("this pointer IS stable across the await, here is why"). A reason is
// mandatory and the allow must actually suppress something, or it is itself
// a bad-allow finding — by construction the tree cannot accumulate stale
// suppressions. `// analyze:assume-nonsuspending(reason)` marks an
// indirect/virtual call on the line (or the line below) as known not to
// suspend.
// Self-test: `// analyze:expect(<check>)` marks lines the golden fixtures
// require the analyzer to flag; see --self-test in main.cc.
#ifndef RENONFS_TOOLS_ANALYZE_CHECKS_H_
#define RENONFS_TOOLS_ANALYZE_CHECKS_H_

#include <string>
#include <vector>

#include "tools/analyze/callgraph.h"
#include "tools/analyze/lexer.h"

namespace renonfs::analyze {

struct Finding {
  std::string path;
  int line = 0;
  std::string check;    // one of the check ids above
  std::string message;  // human-readable, names the variable / construct
  bool note = false;    // advisory: printed but does not fail tree mode
};

// True iff `check` is a check id findings can carry (bad-allow validation).
bool IsKnownCheck(const std::string& check);

// Runs every check over one lexed file under the whole-tree context.
// `suppressed` receives findings that an analyze:allow annotation silenced
// (reported in --verbose mode so audited cases stay visible). Findings are
// returned in line order.
std::vector<Finding> AnalyzeFile(const LexedFile& file, const AnalysisContext& ctx,
                                 std::vector<Finding>* suppressed);

}  // namespace renonfs::analyze

#endif  // RENONFS_TOOLS_ANALYZE_CHECKS_H_
