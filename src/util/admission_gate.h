// AdmissionGate: a counting semaphore (C++17 has no
// std::counting_semaphore) that bounds how many threads run a section at
// once. Work runs on the thread that asks — there is no queue and no
// hand-off — so a caller that finds a free slot pays one uncontended lock
// and starts at once; callers past the bound block until a holder leaves.
// Slots are RAII: Acquire() returns a movable Slot that frees its slot when
// destroyed.
#pragma once

#include <cstdint>

#include "src/util/thread_annotations.h"

namespace balsa {

class AdmissionGate {
 public:
  /// `slots` >= 1: at most this many Slots are held at any moment.
  explicit AdmissionGate(int slots);

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// One held slot; an empty (default or moved-from) Slot holds none.
  class Slot {
   public:
    Slot() = default;
    Slot(Slot&& other) noexcept : gate_(other.gate_) { other.gate_ = nullptr; }
    Slot& operator=(Slot&& other) noexcept {
      if (this != &other) {
        Reset();
        gate_ = other.gate_;
        other.gate_ = nullptr;
      }
      return *this;
    }
    ~Slot() { Reset(); }

   private:
    friend class AdmissionGate;
    explicit Slot(AdmissionGate* gate) : gate_(gate) {}
    void Reset() {
      if (gate_ != nullptr) gate_->Release();
      gate_ = nullptr;
    }
    AdmissionGate* gate_ = nullptr;
  };

  /// Blocks until a slot is free and takes it. Thread-safe.
  Slot Acquire() EXCLUDES(mu_);

  int slots() const { return slots_; }

  /// Threads blocked in Acquire() right now. Read under the gate's lock,
  /// so it is exact at quiescence; under traffic it is a point sample.
  int64_t waiters() const EXCLUDES(mu_);

 private:
  void Release() EXCLUDES(mu_);

  const int slots_;
  mutable Mutex mu_;
  CondVar cv_;  // waiters for a free slot
  int held_ GUARDED_BY(mu_) = 0;
  int64_t waiters_ GUARDED_BY(mu_) = 0;
};

}  // namespace balsa
