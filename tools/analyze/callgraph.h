// Whole-tree call graph and transitive may-suspend summaries (DESIGN §16).
//
// Built over every FileSummary in the scan, this is pass 2 of the
// interprocedural analysis: a fixpoint over the (simple-name-resolved) call
// graph computes which functions may suspend — directly (a literal co_await
// in the body, or one of the scheduler pump primitives RunUntil/RunFor that
// advance simulated time synchronously) or transitively (any callee may
// suspend). Virtual methods with no visible definition anywhere in the scan
// and std::function-typed callables are conservatively may-suspend: the
// analyzer cannot see their targets, so it assumes the worst unless the call
// site carries `// analyze:assume-nonsuspending(reason)`.
//
// The resulting AnalysisContext is what the checks consume: a call to a
// may-suspend name is a suspension point exactly like a literal co_await.
// It also carries the [[nodiscard]]-style enforcement set for Status-
// returning functions in src/nfs, src/rpc, src/fs (minus the allowlist) and
// the per-function timer-parameter summaries for the interprocedural
// fixed-timeout check.
#ifndef RENONFS_TOOLS_ANALYZE_CALLGRAPH_H_
#define RENONFS_TOOLS_ANALYZE_CALLGRAPH_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/analyze/symtab.h"

namespace renonfs::analyze {

struct AnalysisContext {
  // Names that may suspend (transitively), by any resolution of the name.
  std::set<std::string> may_suspend;
  // may_suspend names where at least one suspending definition never touches
  // the crash-epoch machinery — passing a raw Buf* into one of these is the
  // loan-lifecycle hazard (the callee cannot revalidate).
  std::set<std::string> unguarded_suspend;
  // Conservatively-suspending names: virtual declarations with no definition
  // visible in the scan, and std::function-typed callables.
  std::set<std::string> conservative_virtual;
  std::set<std::string> conservative_indirect;
  // name -> parameter indices that flow into an adaptive timer's Start().
  std::map<std::string, std::vector<int>> timer_params;
  // Status/StatusOr-returning names defined under src/nfs, src/rpc, src/fs
  // whose results must not be discarded (allowlist already subtracted).
  std::set<std::string> status_enforced;

  // Receiver-type refinement: `fs_->Read(...)` resolves through the classes
  // `fs_` is declared as (LocalFs) instead of the union of every `Read` in
  // the tree. receiver name -> candidate classes; "Class::Name" sets carry
  // the per-definition fixpoint results.
  std::map<std::string, std::set<std::string>> receiver_classes;
  std::set<std::string> defined_qualified;
  std::set<std::string> suspend_qualified;
  std::set<std::string> unguarded_qualified;

  // Call-site-level queries: refine through the receiver's declared class
  // when its qualified definitions are visible, else fall back to the name
  // union. Pump primitives and conservative names always suspend.
  bool CallMaySuspend(const std::string& receiver, const std::string& name) const;
  // Whether a suspending resolution of the call never touches the
  // crash-epoch machinery (only meaningful when CallMaySuspend is true).
  bool CallUnguarded(const std::string& receiver, const std::string& name) const;
  // Human-readable reason a call may suspend, for finding messages.
  std::string SuspendWhy(const std::string& name) const;
};

AnalysisContext BuildContext(const std::vector<FileSummary>& files,
                             const std::set<std::string>& status_allowlist);

}  // namespace renonfs::analyze

#endif  // RENONFS_TOOLS_ANALYZE_CALLGRAPH_H_
