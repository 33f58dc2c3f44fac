#include "tools/analyze/callgraph.h"

#include <algorithm>
#include <functional>

namespace renonfs::analyze {
namespace {

// Scheduler pump primitives: synchronous calls that advance simulated time
// (and therefore can fire crash events, evictions, connection teardowns)
// without any co_await in sight. They are may-suspend roots by name — the
// "helper that suspends internally" in its most deceptive form, because the
// caller's body looks entirely synchronous.
bool IsPumpPrimitive(const std::string& name) {
  return name == "RunUntil" || name == "RunFor" || name == "DrainAndAudit";
}

bool ReturnsStatus(const FunctionSummary& fn) {
  for (const std::string& m : fn.return_mentions) {
    if (m == "Status" || m == "StatusOr") {
      return true;
    }
  }
  return false;
}

bool ReturnsNonStatusValue(const FunctionSummary& fn) {
  // A name is only enforced when every visible definition returns Status-ish;
  // mixed names (one tree-wide `Clear` returning Status, another void) would
  // otherwise flag unrelated discards. "CoTask<Status>" counts as Status: the
  // co_await result is the Status.
  return !ReturnsStatus(fn);
}

bool InEnforcedDir(const std::string& path) {
  return path.find("src/nfs/") != std::string::npos ||
         path.find("src/rpc/") != std::string::npos ||
         path.find("src/fs/") != std::string::npos ||
         path.find("testdata") != std::string::npos;
}

struct DefRef {
  const FileSummary* file;
  const FunctionSummary* fn;
};

// Callee entries are encoded "name" or "receiver.name" (symtab.h).
void SplitCallee(const std::string& encoded, std::string* receiver,
                 std::string* name) {
  const size_t dot = encoded.find('.');
  if (dot == std::string::npos) {
    receiver->clear();
    *name = encoded;
  } else {
    *receiver = encoded.substr(0, dot);
    *name = encoded.substr(dot + 1);
  }
}

}  // namespace

bool AnalysisContext::CallMaySuspend(const std::string& receiver,
                                     const std::string& name) const {
  if (IsPumpPrimitive(name) || conservative_virtual.contains(name) ||
      conservative_indirect.contains(name)) {
    return true;
  }
  if (!receiver.empty()) {
    if (const auto it = receiver_classes.find(receiver);
        it != receiver_classes.end()) {
      bool any_def = false;
      for (const std::string& cls : it->second) {
        const std::string q = cls + "::" + name;
        if (defined_qualified.contains(q)) {
          any_def = true;
          if (suspend_qualified.contains(q)) {
            return true;
          }
        }
      }
      if (any_def) {
        return false;  // resolved: every candidate definition is synchronous
      }
    }
  }
  return may_suspend.contains(name);
}

bool AnalysisContext::CallUnguarded(const std::string& receiver,
                                    const std::string& name) const {
  if (IsPumpPrimitive(name) || conservative_virtual.contains(name) ||
      conservative_indirect.contains(name)) {
    return true;
  }
  if (!receiver.empty()) {
    if (const auto it = receiver_classes.find(receiver);
        it != receiver_classes.end()) {
      bool any_def = false;
      bool any_unguarded = false;
      for (const std::string& cls : it->second) {
        const std::string q = cls + "::" + name;
        if (defined_qualified.contains(q)) {
          any_def = true;
          any_unguarded |= unguarded_qualified.contains(q);
        }
      }
      if (any_def) {
        return any_unguarded;
      }
    }
  }
  return unguarded_suspend.contains(name);
}

std::string AnalysisContext::SuspendWhy(const std::string& name) const {
  if (may_suspend.contains(name)) {
    return "may-suspend";
  }
  if (conservative_virtual.contains(name)) {
    return "virtual (no visible override proves it cannot suspend)";
  }
  return "indirect std::function (target unknown)";
}

AnalysisContext BuildContext(const std::vector<const FileSummary*>& files,
                             const std::set<std::string>& status_allowlist) {
  AnalysisContext ctx;

  std::vector<DefRef> defs;
  std::map<std::string, std::vector<int>> by_name;       // simple name -> def idx
  std::map<std::string, std::vector<int>> by_qualified;  // "C::n" -> def idx
  std::set<std::string> virtual_names;
  std::set<std::string> indirect_names;
  for (const FileSummary* file : files) {
    for (const FunctionSummary& fn : file->functions) {
      by_name[fn.name].push_back(static_cast<int>(defs.size()));
      if (fn.qualified != fn.name) {
        by_qualified[fn.qualified].push_back(static_cast<int>(defs.size()));
        ctx.defined_qualified.insert(fn.qualified);
      }
      defs.push_back({file, &fn});
    }
    virtual_names.insert(file->virtual_decls.begin(), file->virtual_decls.end());
    indirect_names.insert(file->indirect_names.begin(), file->indirect_names.end());
  }

  // Receiver-class map from the tree-wide `Type name` declaration pairs,
  // restricted to types that actually define methods somewhere in the scan.
  {
    std::set<std::string> class_names;
    for (const auto& [q, idx] : by_qualified) {
      class_names.insert(q.substr(0, q.rfind("::")));
    }
    for (const FileSummary* file : files) {
      for (const std::string& pair : file->typed_names) {
        const size_t eq = pair.find('=');
        if (eq == std::string::npos) {
          continue;
        }
        const std::string type = pair.substr(0, eq);
        if (class_names.contains(type)) {
          ctx.receiver_classes[pair.substr(eq + 1)].insert(type);
        }
      }
    }
  }

  // Candidate definitions for an encoded call: refine through the receiver's
  // classes when any of them defines the name, else the whole-name union.
  std::map<std::string, std::vector<int>> resolve_cache;
  const auto resolve = [&](const std::string& encoded) -> const std::vector<int>& {
    if (const auto it = resolve_cache.find(encoded); it != resolve_cache.end()) {
      return it->second;
    }
    std::string receiver, name;
    SplitCallee(encoded, &receiver, &name);
    std::vector<int> out;
    if (!receiver.empty()) {
      if (const auto rc = ctx.receiver_classes.find(receiver);
          rc != ctx.receiver_classes.end()) {
        for (const std::string& cls : rc->second) {
          if (const auto qd = by_qualified.find(cls + "::" + name);
              qd != by_qualified.end()) {
            out.insert(out.end(), qd->second.begin(), qd->second.end());
          }
        }
      }
    }
    if (out.empty()) {
      if (const auto it = by_name.find(name); it != by_name.end()) {
        out = it->second;
      }
    }
    return resolve_cache.emplace(encoded, std::move(out)).first->second;
  };

  // Conservative names: virtual with no definition anywhere in the scan
  // (open-world dispatch), and std::function-typed callables. A virtual
  // whose overrides are all visible is resolved closed-world through
  // by_name like any other call.
  for (const std::string& v : virtual_names) {
    if (!by_name.contains(v)) {
      ctx.conservative_virtual.insert(v);
    }
  }
  for (const std::string& n : indirect_names) {
    ctx.conservative_indirect.insert(n);
  }

  // May-suspend fixpoint over definitions. Monotone (bits only turn on), so
  // iterate until stable; the tree has a few thousand defs and shallow
  // call-chain depth, so this converges in a handful of rounds.
  std::vector<char> suspends(defs.size(), 0);
  for (size_t i = 0; i < defs.size(); ++i) {
    suspends[i] = defs[i].fn->has_co_await ? 1 : 0;
  }
  const auto callee_suspends = [&](const std::string& encoded) {
    std::string receiver, name;
    SplitCallee(encoded, &receiver, &name);
    if (IsPumpPrimitive(name) || ctx.conservative_virtual.contains(name) ||
        ctx.conservative_indirect.contains(name)) {
      return true;
    }
    // Unresolved (library/unknown) calls cannot suspend in this model.
    const std::vector<int>& cand = resolve(encoded);
    return std::any_of(cand.begin(), cand.end(),
                       [&](int d) { return suspends[d] != 0; });
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t i = 0; i < defs.size(); ++i) {
      if (suspends[i]) {
        continue;
      }
      for (const std::string& c : defs[i].fn->callees) {
        if (callee_suspends(c)) {
          suspends[i] = 1;
          changed = true;
          break;
        }
      }
    }
  }

  for (size_t i = 0; i < defs.size(); ++i) {
    if (suspends[i]) {
      ctx.may_suspend.insert(defs[i].fn->name);
      ctx.suspend_qualified.insert(defs[i].fn->qualified);
      if (!defs[i].fn->has_guard) {
        ctx.unguarded_suspend.insert(defs[i].fn->name);
        ctx.unguarded_qualified.insert(defs[i].fn->qualified);
      }
    }
  }
  for (const char* p : {"RunUntil", "RunFor", "DrainAndAudit"}) {
    ctx.may_suspend.insert(p);
    ctx.unguarded_suspend.insert(p);
  }

  // Timer-parameter summaries (union across same-named defs).
  for (const DefRef& d : defs) {
    for (const int p : d.fn->timer_params) {
      auto& v = ctx.timer_params[d.fn->name];
      if (std::find(v.begin(), v.end(), p) == v.end()) {
        v.push_back(p);
      }
    }
  }
  for (auto& [name, v] : ctx.timer_params) {
    std::sort(v.begin(), v.end());
  }

  // Status enforcement: every visible definition of the name returns
  // Status/StatusOr (or CoTask thereof), at least one lives in an enforced
  // directory, and the name is not allowlisted.
  {
    std::set<std::string> candidates;
    std::set<std::string> vetoed;
    for (const DefRef& d : defs) {
      if (ReturnsNonStatusValue(*d.fn)) {
        vetoed.insert(d.fn->name);
      } else if (InEnforcedDir(d.file->path)) {
        candidates.insert(d.fn->name);
      }
    }
    for (const std::string& name : candidates) {
      if (!vetoed.contains(name) && !status_allowlist.contains(name)) {
        ctx.status_enforced.insert(name);
      }
    }
  }

  // Tarjan SCC over the definition graph (edges: def -> every same-named
  // resolution of each callee). Iterative to stay stack-safe on deep chains.
  {
    const int n = static_cast<int>(defs.size());
    std::vector<int> index(n, -1), low(n, 0), on_stack(n, 0);
    std::vector<int> scc(n, -1);
    std::vector<int> stack;
    int next_index = 0;
    int next_scc = 0;
    struct Frame {
      int v;
      size_t callee_i = 0;  // index into defs[v].fn->callees
      size_t cand_i = 0;    // index into the current callee's candidates
    };
    for (int root = 0; root < n; ++root) {
      if (index[root] != -1) {
        continue;
      }
      std::vector<Frame> frames{{root}};
      index[root] = low[root] = next_index++;
      stack.push_back(root);
      on_stack[root] = 1;
      while (!frames.empty()) {
        Frame& f = frames.back();
        const std::vector<std::string>& callees = defs[f.v].fn->callees;
        bool descended = false;
        while (f.callee_i < callees.size()) {
          const std::vector<int>& cand = resolve(callees[f.callee_i]);
          if (f.cand_i >= cand.size()) {
            ++f.callee_i;
            f.cand_i = 0;
            continue;
          }
          const int w = cand[f.cand_i++];
          if (index[w] == -1) {
            index[w] = low[w] = next_index++;
            stack.push_back(w);
            on_stack[w] = 1;
            frames.push_back({w});
            descended = true;
            break;
          }
          if (on_stack[w]) {
            low[f.v] = std::min(low[f.v], index[w]);
          }
        }
        if (descended) {
          continue;
        }
        if (low[f.v] == index[f.v]) {
          for (;;) {
            const int w = stack.back();
            stack.pop_back();
            on_stack[w] = 0;
            scc[w] = next_scc;
            if (w == f.v) {
              break;
            }
          }
          ++next_scc;
        }
        const int v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
      }
    }
    ctx.scc_count = next_scc;
    for (int i = 0; i < n; ++i) {
      ctx.file_sccs[defs[i].file->path].insert(scc[i]);
    }
  }

  ctx.global_salt = Fnv1aMix(Fnv1a("renonfs-analyze"), uint64_t{kAnalyzerVersion});
  for (const std::string& a : status_allowlist) {
    ctx.global_salt = Fnv1aMix(ctx.global_salt, a);
  }
  return ctx;
}

uint64_t DepSignature(const FileSummary& file, const AnalysisContext& ctx) {
  uint64_t h = Fnv1aMix(ctx.global_salt, file.path);
  std::set<std::string> names;
  for (const FunctionSummary& fn : file.functions) {
    names.insert(fn.callees.begin(), fn.callees.end());
  }
  for (const std::string& encoded : names) {
    std::string receiver, name;
    SplitCallee(encoded, &receiver, &name);
    h = Fnv1aMix(h, encoded);
    uint64_t bits = 0;
    bits |= ctx.CallMaySuspend(receiver, name) ? 1u : 0u;
    bits |= ctx.CallUnguarded(receiver, name) ? 2u : 0u;
    bits |= ctx.conservative_virtual.contains(name) ? 4u : 0u;
    bits |= ctx.conservative_indirect.contains(name) ? 8u : 0u;
    bits |= ctx.status_enforced.contains(name) ? 16u : 0u;
    h = Fnv1aMix(h, bits);
    const auto it = ctx.timer_params.find(name);
    if (it != ctx.timer_params.end()) {
      for (const int p : it->second) {
        h = Fnv1aMix(h, uint64_t{1} << (p & 63));
      }
    }
  }
  return h;
}

}  // namespace renonfs::analyze
