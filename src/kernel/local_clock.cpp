#include "kernel/local_clock.h"

#include "kernel/kernel.h"
#include "kernel/process.h"
#include "kernel/sync_domain.h"

namespace tdsim {

bool LocalClock::needs_sync() const {
  return owner_.domain().quantum_exceeded(*this);
}

void LocalClock::sync(SyncCause cause) {
  owner_.domain().perform_sync(*this, cause);
}

void LocalClock::method_rearm(SyncCause cause) {
  owner_.domain().perform_method_rearm(*this, cause);
}

}  // namespace tdsim
