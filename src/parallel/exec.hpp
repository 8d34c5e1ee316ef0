// Execution contexts: the seam between numerical kernels and the machinery
// that runs them.
//
// Every parallel kernel in PHMSE is written once against ExecContext and can
// then run three ways:
//   * SerialContext  — plain sequential execution with real wall-clock
//                      category timing (used for the flat baseline and for
//                      the 1-processor rows of the tables);
//   * TeamContext    — fork-join execution on a subset of a ThreadPool's
//                      workers (genuine multicore parallelism);
//   * SimContext     — execution-driven simulation: the numerics run
//                      sequentially, while each lane of a simulated
//                      cache-coherent multiprocessor is charged virtual time
//                      from a cost model (src/simarch).  This reproduces the
//                      paper's DASH/Challenge speedup studies on any host.
//
// A kernel invocation describes (a) an iteration space of `n` independent
// units, (b) a cost function giving flop and memory-traffic estimates for a
// slice of that space, and (c) a body executing a slice.  Real contexts
// ignore the cost function; the simulator ignores wall-clock time.
#pragma once

#include <algorithm>
#include <memory>
#include <type_traits>

#include "perf/category.hpp"
#include "perf/profile.hpp"
#include "support/types.hpp"

namespace phmse::par {

/// Lightweight non-owning callable reference: two words, no heap, no
/// virtual dispatch.  Kernel invocations are fully synchronous — every
/// ExecContext joins its lanes before parallel()/sequential() returns — so
/// binding a call-site lambda temporary is safe, and the steady-state solve
/// loop stays free of the per-call allocation a std::function at this seam
/// would cost (captures beyond two words defeat its small-buffer storage).
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_reference_t<F>;
    if constexpr (std::is_function_v<Fn>) {
      obj_ = reinterpret_cast<void*>(&f);
      call_ = [](void* obj, Args... args) -> R {
        return reinterpret_cast<Fn*>(obj)(std::forward<Args>(args)...);
      };
    } else {
      obj_ = const_cast<void*>(static_cast<const void*>(std::addressof(f)));
      call_ = [](void* obj, Args... args) -> R {
        return (*static_cast<Fn*>(obj))(std::forward<Args>(args)...);
      };
    }
  }

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

/// Work estimate for a slice of a kernel's iteration space, used by the
/// simulated machine's cost model.
struct KernelStats {
  /// Floating-point operations performed.
  double flops = 0.0;
  /// Bytes accessed with streaming/spatial locality (unit-stride sweeps).
  double bytes_stream = 0.0;
  /// Bytes accessed irregularly (gather/scatter through an index structure);
  /// each access is a potential cache miss.
  double bytes_irregular = 0.0;
  /// Working set the kernel re-sweeps and assumes stays cache-resident
  /// (e.g. the m x n gain block the covariance update streams once per
  /// covariance row).  Machines with a finite modeled cache charge extra
  /// traffic when this overflows: see simarch::chunk_time.
  double resident_bytes = 0.0;
  /// How many times the resident working set is swept.
  double resident_sweeps = 1.0;

  KernelStats& operator+=(const KernelStats& o) {
    flops += o.flops;
    bytes_stream += o.bytes_stream;
    bytes_irregular += o.bytes_irregular;
    resident_bytes = std::max(resident_bytes, o.resident_bytes);
    resident_sweeps += o.resident_sweeps - 1.0;
    return *this;
  }
};

/// Cost of the slice [begin, end) of the iteration space.
using CostFn = FunctionRef<KernelStats(Index begin, Index end)>;

/// Executes the slice [begin, end); `lane` identifies the executing lane in
/// [0, width()) for scratch-buffer selection.
using BodyFn = FunctionRef<void(Index begin, Index end, int lane)>;

/// A sequential-section body (see ExecContext::sequential).
using SectionFn = FunctionRef<void()>;

/// Abstract execution context.  See file comment.
///
/// Exception-safety contract (all implementations): parallel() and
/// sequential() are exception-transparent.  If the body throws on any lane,
/// every lane still reaches the implicit barrier (forked lanes are joined —
/// no deadlock, no escaped exception on a worker thread), the elapsed
/// real/virtual time is still charged to `cat`, and then the first recorded
/// exception is rethrown on the calling lane.  A context that reported a
/// body failure this way remains fully usable for subsequent kernels.
/// Kernels written against ExecContext therefore need no try/catch of their
/// own to be exception-transparent.
///
/// A context carries no cancellation state: the plan walk and the batch
/// sweep take the caller's par::CancelToken as an argument and poll it
/// between kernels (DESIGN.md §13).
class ExecContext {
 public:
  virtual ~ExecContext() = default;

  /// Number of lanes (processors) this context runs on.
  virtual int width() const = 0;

  /// Runs `body` over [0, n) split into width() contiguous chunks, one per
  /// lane, with an implicit team barrier afterwards.  Time (real or virtual)
  /// is charged to category `cat`.
  virtual void parallel(perf::Category cat, Index n, const CostFn& cost,
                        const BodyFn& body) = 0;

  /// Runs `body` once on lane 0 while the other lanes wait at the implicit
  /// barrier.  Models inherently sequential sections (e.g. the panel step of
  /// a small Cholesky factorization).
  virtual void sequential(perf::Category cat, const CostFn& cost,
                          const SectionFn& body) = 0;

  /// Per-category time observed by this context so far.  For parallel
  /// contexts this is the critical-path view: each kernel contributes the
  /// largest per-lane time.
  virtual const perf::Profile& profile() const = 0;
};

/// Sequential execution with real wall-clock category timing.
class SerialContext final : public ExecContext {
 public:
  SerialContext() = default;

  int width() const override { return 1; }

  void parallel(perf::Category cat, Index n, const CostFn& cost,
                const BodyFn& body) override;

  void sequential(perf::Category cat, const CostFn& cost,
                  const SectionFn& body) override;

  const perf::Profile& profile() const override { return profile_; }

 private:
  perf::Profile profile_;
};

}  // namespace phmse::par
