#include "kernel/fiber_switch.h"

#include <cstdint>

#if !defined(__x86_64__) || !defined(__ELF__)
#error "tdsim fibers are implemented for x86-64 SysV (ELF) only; a port must supply tdsim_fiber_switch() and tdsim::fiber::make_stack() (kernel/fiber_switch.h)"
#endif

// Frame layout and register choice: see kernel/fiber_switch.h. The CFI
// directives describe every push and pop, so a debugger stopped inside the
// switch still walks the departing (or arriving) stack correctly.
asm(R"(
  .pushsection .text
  .globl tdsim_fiber_switch
  .type tdsim_fiber_switch, @function
  .p2align 4
tdsim_fiber_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbp, 0
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbx, 0
  pushq %r12
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r12, 0
  pushq %r13
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r13, 0
  pushq %r14
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r14, 0
  pushq %r15
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r15, 0
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r15
  popq %r14
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r14
  popq %r13
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r13
  popq %r12
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r12
  popq %rbx
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbx
  popq %rbp
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbp
  ret
  .cfi_endproc
  .size tdsim_fiber_switch, .-tdsim_fiber_switch

  .globl tdsim_fiber_entry
  .hidden tdsim_fiber_entry
  .type tdsim_fiber_entry, @function
  .p2align 4
tdsim_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size tdsim_fiber_entry, .-tdsim_fiber_entry
  .popsection
)");

/// First code a fresh fiber runs: the switch's final `ret` lands here with
/// entry in r13 and its argument in r12 (see make_stack).
extern "C" void tdsim_fiber_entry();

namespace tdsim::fiber {

void* make_stack(void* bottom, std::size_t size, void (*entry)(void*),
                 void* arg) {
  const std::uintptr_t top =
      (reinterpret_cast<std::uintptr_t>(bottom) + size) & ~std::uintptr_t{15};
  // Eight words, as tdsim_fiber_switch leaves them. After the final `ret`
  // rsp == top, so the stub calls entry with rsp 16-byte aligned.
  auto* frame = reinterpret_cast<std::uint64_t*>(top - 8 * 8);
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  frame[0] = mxcsr | (std::uint64_t{fpu_cw} << 32);
  frame[1] = 0;                                        // r15
  frame[2] = 0;                                        // r14
  frame[3] = reinterpret_cast<std::uintptr_t>(entry);  // r13
  frame[4] = reinterpret_cast<std::uintptr_t>(arg);    // r12
  frame[5] = 0;                                        // rbx
  frame[6] = 0;  // rbp: ends frame-pointer chains at the stub
  frame[7] = reinterpret_cast<std::uintptr_t>(&tdsim_fiber_entry);
  return frame;
}

}  // namespace tdsim::fiber
