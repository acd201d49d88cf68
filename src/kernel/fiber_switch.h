// Register-only stack switch for the stackful processes.
//
// A fiber is nothing but a saved stack pointer. Switching away pushes the
// SysV callee-saved registers (rbp, rbx, r12-r15) plus the MXCSR and x87
// control word onto the departing stack, stores rsp through `save_sp`,
// loads `to_sp` and pops the same frame off the destination stack. The
// caller-saved registers are already dead across a call, so nothing else
// needs saving -- in particular not the signal mask: fibers share their
// OS thread's mask, and a switch makes no system call.
//
// Saved frame, lowest address first (the saved stack pointer points at
// the first word, and is 16-byte aligned):
//
//   +0   MXCSR (4 bytes), x87 control word (2 bytes), 2 bytes unused
//   +8   r15
//   +16  r14
//   +24  r13
//   +32  r12
//   +40  rbx
//   +48  rbp
//   +56  return address
//
// make_stack() lays the same frame out on a fresh stack, with the return
// address pointing at an entry stub that calls entry(arg) with rsp
// 16-byte aligned. The stub is the outermost frame: its CFI marks the
// return address undefined, so unwinders and backtraces stop there. entry
// must never return (Process::trampoline ends with a final switch).
//
// Only x86-64 SysV is implemented; see fiber_switch.cpp for what a port
// must supply.
#pragma once

#include <cstddef>

/// Saves the calling fiber's callee-saved state on its stack, stores the
/// resulting stack pointer in *save_sp and resumes the fiber whose saved
/// stack pointer is to_sp. Returns when some other switch resumes *save_sp.
extern "C" void tdsim_fiber_switch(void** save_sp, void* to_sp);

namespace tdsim::fiber {

/// Prepares the stack [bottom, bottom + size) so that the first
/// tdsim_fiber_switch() to the returned stack pointer calls entry(arg) on
/// it. The new fiber starts with the caller's current MXCSR and x87
/// control word.
void* make_stack(void* bottom, std::size_t size, void (*entry)(void*),
                 void* arg);

}  // namespace tdsim::fiber
