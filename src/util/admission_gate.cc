#include "src/util/admission_gate.h"

#include "src/util/logging.h"

namespace balsa {

AdmissionGate::AdmissionGate(int slots) : slots_(slots) {
  BALSA_CHECK(slots >= 1, "an admission gate needs at least one slot");
}

AdmissionGate::Slot AdmissionGate::Acquire() {
  MutexLock lock(mu_);
  if (held_ == slots_) {
    ++waiters_;
    while (held_ == slots_) cv_.Wait(mu_);
    --waiters_;
  }
  ++held_;
  return Slot(this);
}

void AdmissionGate::Release() {
  bool wake = false;
  {
    MutexLock lock(mu_);
    --held_;
    wake = waiters_ > 0;
  }
  if (wake) cv_.NotifyOne();
}

int64_t AdmissionGate::waiters() const {
  MutexLock lock(mu_);
  return waiters_;
}

}  // namespace balsa
