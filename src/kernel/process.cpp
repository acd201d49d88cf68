#include "kernel/process.h"

#include "kernel/fiber_sanitizer.h"
#include "kernel/fiber_switch.h"
#include "kernel/kernel.h"

namespace tdsim {

Process::Process(Kernel& kernel, std::string name, ProcessKind kind,
                 std::function<void()> body, std::size_t stack_size,
                 std::uint64_t id)
    : kernel_(kernel),
      name_(std::move(name)),
      kind_(kind),
      body_(std::move(body)),
      id_(id),
      stack_size_(kind == ProcessKind::Thread ? stack_size : 0) {
  if (kind_ == ProcessKind::Thread) {
    kernel_.acquire_fiber_stack(*this);
  }
}

Process::~Process() {
  // A fiber that survived a kill request may still reference its stack
  // through its saved stack pointer; everything else is safe to recycle.
  release_stack(/*abandoned=*/thread_started_ &&
                state_ != ProcessState::Terminated);
}

void Process::release_stack(bool abandoned) {
  if (!stack_block_ && !heap_stack_) {
    return;
  }
  // Order matters (see the header): the TSan fiber must be gone before
  // the pool can hand the block to a new fiber, which would create its
  // own handle over the same pages.
  fiber::tsan_destroy_fiber(tsan_fiber_);
  tsan_fiber_ = nullptr;
  if (stack_block_) {
    if (abandoned) {
      StackPool::instance().retire(stack_block_);
    } else {
      StackPool::instance().release(stack_block_);
      kernel_.note_fiber_stack_released();
    }
    stack_block_ = StackBlock{};
  } else {
    if (abandoned) {
      // Matches the pooled path: the suspended context still points into
      // the allocation, so leak it deliberately.
      heap_stack_.release();
    } else {
      heap_stack_.reset();
      kernel_.note_fiber_stack_released();
    }
  }
}

void Process::trampoline(void* arg) {
  auto* self = static_cast<Process*>(arg);
  // First time on this fiber stack; we came from the dispatching execution
  // context's scheduler stack, whose bounds it needs for the switches back.
  // The context is resolved through the thread-local: in parallel mode the
  // dispatching worker's, in sequential mode the kernel's main one.
  {
    Kernel::ExecContext* exec = Kernel::thread_exec();
    fiber::finish_switch(nullptr, &exec->scheduler_stack_bottom,
                         &exec->scheduler_stack_size);
  }
  try {
    self->body_();
  } catch (const ProcessKilled&) {
    // Normal teardown path: stack unwound, nothing to report.
  } catch (...) {
    self->pending_exception_ = std::current_exception();
  }
  self->state_ = ProcessState::Terminated;
  // Hand control back to whichever scheduler context is dispatching us
  // *now* -- re-read the thread-local through the noinline accessor, the
  // fiber may have migrated workers since it started. Never returns here
  // again, so the null save lets ASan release this fiber's fake stack.
  Kernel::ExecContext* exec = Kernel::thread_exec();
  fiber::start_switch(nullptr, exec->scheduler_stack_bottom,
                      exec->scheduler_stack_size, exec->tsan_fiber);
  tdsim_fiber_switch(&self->context_, exec->scheduler_context);
}

void Process::start_thread_context() {
  // The trampoline's final switch is the only exit, back to whichever
  // scheduler context is current then (fibers may finish under a different
  // worker than the one that started them).
  context_ = fiber::make_stack(stack_bottom(), stack_usable_size(),
                               &Process::trampoline, this);
  tsan_fiber_ = fiber::tsan_create_fiber();
  thread_started_ = true;
}

}  // namespace tdsim
