// Per-process local clock -- the first level of the temporal-decoupling
// subsystem (paper SII.A).
//
// Every process owns a LocalClock. Its local date is the kernel's global
// date plus a non-negative offset, so a decoupled process always runs at or
// ahead of the global date. The two basic operations are the cheap
// inc(duration), which advances the local date without touching the
// scheduler, and the costly sync(), which suspends the process until the
// global date catches up with its local date (one context switch).
//
// Quantum policy and synchronization bookkeeping live one level up, in the
// kernel-owned SyncDomain; the clock delegates to it so every sync is
// attributed to a cause in KernelStats.
//
// now() and advance_to() are inline: they read the kernel's date through
// the reference the clock holds, without a call. They need the complete
// Kernel, so they are defined at the end of kernel/kernel.h.
#pragma once

#include "kernel/stats.h"
#include "kernel/time.h"

namespace tdsim {

class Kernel;
class Process;
class SyncDomain;

class LocalClock {
 public:
  LocalClock(Process& owner, Kernel& kernel) : owner_(owner), kernel_(kernel) {}
  LocalClock(const LocalClock&) = delete;
  LocalClock& operator=(const LocalClock&) = delete;

  Process& owner() const { return owner_; }

  /// Local-time offset above the global date (zero when synchronized).
  Time offset() const { return offset_; }

  /// The local date: kernel.now() + offset(). The paper's
  /// local_time_stamp() for this process.
  inline Time now() const;

  /// Advances the local date by `duration` without a context switch. This
  /// is the timing-annotation primitive.
  void inc(Time duration) { offset_ += duration; }

  /// Raises the local date to `date` if it is in the future; no-op
  /// otherwise. Used by the Smart FIFO to apply cell time stamps
  /// ("increase the local time up to this date").
  inline void advance_to(Time date);

  /// True when the local date equals the global date.
  bool is_synchronized() const { return offset_.is_zero(); }

  /// True when the owning domain's quantum policy demands a sync (offset
  /// reached the quantum, or the quantum is zero). The quantum is read
  /// from the domain on every query -- under an adaptive policy
  /// (kernel/quantum_controller.h) it may move between synchronization
  /// horizons, and a clock must always answer against the current value.
  bool needs_sync() const;

  /// Synchronizes the owner: suspends it until the global date equals its
  /// local date, then clears the offset. No-op when already synchronized.
  /// Only thread processes may have a non-zero offset when calling this
  /// (methods cannot suspend; see method_rearm()). The cause is recorded
  /// in the domain's per-cause statistics.
  void sync(SyncCause cause = SyncCause::Explicit);

  /// For the owning method process (which cannot suspend): re-arms it to
  /// run again once the global date reaches its current local date, i.e.
  /// the method-process equivalent of sync(). Generation-safe: the re-arm
  /// goes through Kernel::next_trigger(), which bumps the process's wake
  /// generation and so invalidates any stale timed entry for it. The
  /// offset itself is reset automatically at the next activation.
  void method_rearm(SyncCause cause = SyncCause::MethodRearm);

 private:
  friend class Kernel;      // resets method offsets at each activation
  friend class SyncDomain;  // clears the offset when performing a sync

  void set_offset(Time offset) { offset_ = offset; }

  Process& owner_;
  /// The owner's kernel, held so the date reads skip the owner hop.
  Kernel& kernel_;
  Time offset_{};
};

}  // namespace tdsim
