/**
 * @file
 * An x86-64 subset assembler.
 *
 * The paper's guest software (a SuSE Linux image plus rsync/ssh) was
 * built with a normal GCC toolchain. This environment has no guest
 * toolchain, so the repository carries its own assembler: guest kernels
 * and workloads are written against this API and assembled into *real
 * x86-64 machine code bytes*, which then flow through the simulator's
 * full decode -> uop -> basic-block-cache path exactly like compiler
 * output would (variable-length instructions, REX prefixes, ModRM/SIB
 * forms, page-crossing instructions, locked RMW ops, rep string ops).
 *
 * The supported subset is the integer + scalar-SSE + minimal-x87 core
 * that real compiled code is made of; the decoder in src/decode mirrors
 * it (and the decoder/assembler pair is round-trip tested).
 */

#ifndef PTLSIM_XASM_ASSEMBLER_H_
#define PTLSIM_XASM_ASSEMBLER_H_

#include <map>
#include <string>
#include <vector>

#include "lib/bitops.h"
#include "lib/logging.h"
#include "uop/uop.h"   // CondCode

namespace ptl {

/** General-purpose registers, in x86 encoding order. */
enum class R : U8 {
    rax, rcx, rdx, rbx, rsp, rbp, rsi, rdi,
    r8, r9, r10, r11, r12, r13, r14, r15,
};

/** XMM registers. */
enum class X : U8 {
    xmm0, xmm1, xmm2, xmm3, xmm4, xmm5, xmm6, xmm7,
    xmm8, xmm9, xmm10, xmm11, xmm12, xmm13, xmm14, xmm15,
};

/** Memory operand: [base + index*scale + disp]. */
struct Mem
{
    R base = R::rax;
    bool has_index = false;
    R index = R::rax;
    U8 scale = 1;        ///< 1, 2, 4 or 8
    S32 disp = 0;

    static Mem
    at(R base, S32 disp = 0)
    {
        Mem m;
        m.base = base;
        m.disp = disp;
        return m;
    }

    static Mem
    idx(R base, R index, U8 scale = 1, S32 disp = 0)
    {
        Mem m;
        m.base = base;
        m.has_index = true;
        m.index = index;
        m.scale = scale;
        m.disp = disp;
        return m;
    }
};

/** Operand width for explicitly sized memory forms. */
enum class W : U8 { b = 1, w = 2, d = 4, q = 8 };

/** Opaque label handle. */
struct Label
{
    int id = -1;
    bool valid() const { return id >= 0; }
};

/**
 * The assembler. Instructions append machine code at the current
 * position; finalize() resolves label fixups and returns the image.
 */
class Assembler
{
  public:
    /** @param base_va guest virtual address the image will be loaded at */
    explicit Assembler(U64 base_va) : base(base_va) {}

    // ---- labels and layout ----
    Label newLabel();
    Label label() { Label l = newLabel(); bind(l); return l; }
    void bind(Label l);
    U64 labelVa(Label l) const;        ///< valid only after bind
    U64 here() const { return base + code.size(); }
    void align(unsigned boundary, U8 fill = 0x90);
    void dbs(const void *data, size_t n);
    void dd(U32 v);
    void dq(U64 v);
    void dq(Label l);                  ///< 64-bit absolute, fixed up later
    void space(size_t n, U8 fill = 0); ///< reserve n bytes

    // ---- moves ----
    void mov(R dst, R src);                 // 64-bit
    void mov32(R dst, R src);
    void mov(R dst, U64 imm);               // movabs or shorter form
    void movImm64(R dst, U64 imm);          // always 10-byte movabs
    void movLabel(R dst, Label l);          // movabs of label address
    void mov(R dst, Mem src);               // 64-bit load
    void mov(Mem dst, R src);               // 64-bit store
    void mov32(R dst, Mem src);             // 32-bit load (zero-extends)
    void mov32(Mem dst, R src);
    void mov8(R dst, Mem src);              // 8-bit load into low byte
    void mov8(Mem dst, R src);
    void mov16(Mem dst, R src);
    void movzx8(R dst, Mem src);
    void movzx16(R dst, Mem src);
    void movsx8(R dst, Mem src);
    void movsx16(R dst, Mem src);
    void movsxd(R dst, R src);              // 32 -> 64 sign extend
    void movStoreImm32(Mem dst, S32 imm);   // mov qword [m], imm32 (sext)
    void lea(R dst, Mem src);
    void xchg(R reg, Mem m);                // implicitly locked

    // ---- integer ALU ----
    void add(R dst, R src);
    void add(R dst, S32 imm);
    void add(R dst, Mem src);
    void add(Mem dst, R src);
    void sub(R dst, R src);
    void sub(R dst, S32 imm);
    void sub(R dst, Mem src);
    void adc(R dst, R src);
    void adc(R dst, S32 imm);
    void sbb(R dst, R src);
    void sbb(R dst, S32 imm);
    void and_(R dst, R src);
    void and_(R dst, S32 imm);
    void or_(R dst, R src);
    void or_(R dst, S32 imm);
    void or_(R dst, Mem src);
    void xor_(R dst, R src);
    void xor_(R dst, S32 imm);
    void cmp(R a, R b);
    void cmp(R a, S32 imm);
    void cmp8(Mem a, S8 imm);
    void cmp(R a, Mem b);
    void test(R a, R b);
    void test(R a, S32 imm);
    void inc(R r);
    void dec(R r);
    void inc(Mem m);
    void neg(R r);
    void not_(R r);
    void imul(R dst, R src);                // 0F AF
    void imul(R dst, R src, S32 imm);       // 69/6B
    void mul(R src);                        // rdx:rax = rax * src
    void div(R src);                        // rax, rdx = rdx:rax / src
    void idiv(R src);
    void shl(R r, U8 count);
    void shr(R r, U8 count);
    void sar(R r, U8 count);
    void shlCl(R r);
    void shrCl(R r);
    void sarCl(R r);
    void rol(R r, U8 count);
    void ror(R r, U8 count);
    void bsf(R dst, R src);
    void bsr(R dst, R src);
    void bswap(R r);

    // ---- control flow ----
    void jmp(Label target);
    void jmp(R target);
    void jcc(CondCode cc, Label target);
    void call(Label target);
    void call(R target);
    void ret();
    void setcc(CondCode cc, R dst8);        // also zeroes upper bits first
    void cmovcc(CondCode cc, R dst, R src);

    // ---- stack ----
    void push(R r);
    void pop(R r);
    void pushfq();
    void popfq();

    // ---- string ops ----
    void repMovsb();                        // F3 A4
    void repStosb();                        // F3 AA
    void cld();

    // ---- atomics ----
    void lockXadd(Mem m, R src);            // F0 0F C1
    void lockCmpxchg(Mem m, R src);         // F0 0F B1 (rax implicit)
    void lockAdd(Mem m, R src);
    void lockInc(Mem m);

    // ---- system ----
    void syscall();                         // 0F 05
    void sysret();                          // 0F 07 (kernel->user return)
    void hypercall();                       // 0F 34 (paravirtual gate)
    void ptlcall();                         // 0F 37 (simulator breakout)
    void hlt();
    void rdtsc();
    void cpuid();
    void iretq();
    void cli();
    void sti();
    void nop();
    void pause();
    void ud2();                             // 0F 0B guaranteed #UD

    // ---- scalar double SSE ----
    void movsd(X dst, Mem src);
    void movsd(Mem dst, X src);
    void movqXR(X dst, R src);
    void movqRX(R dst, X src);
    void addsd(X dst, X src);
    void subsd(X dst, X src);
    void mulsd(X dst, X src);
    void divsd(X dst, X src);
    void sqrtsd(X dst, X src);
    void comisd(X a, X b);
    void cvtsi2sd(X dst, R src);
    void cvttsd2si(R dst, X src);

    // ---- minimal x87 ----
    void fldQ(Mem src);                     // DD /0
    void fstpQ(Mem dst);                    // DD /3
    void faddp();                           // DE C1
    void fmulp();                           // DE C9

    /** Resolve all fixups; fatal() if any label is unbound. */
    std::vector<U8> finalize();

    U64 baseVa() const { return base; }
    size_t size() const { return code.size(); }

  private:
    struct Fixup
    {
        size_t offset;      ///< position of the field in `code`
        int label;
        bool absolute64;    ///< else rel32 relative to end of field
    };

    void emitRex(bool w, int reg, int index, int base_reg, bool force = false);
    void emitModRmMem(int reg, const Mem &m);
    void emitModRmReg(int reg, int rm);
    void emitRel32(Label target);
    void aluRR(U8 opcode, R dst, R src);               // MR form
    void aluRI(unsigned ext, R dst, S32 imm);
    void shiftImm(unsigned ext, R r, U8 count);
    void shiftCl(unsigned ext, R r);

    U64 base;
    std::vector<U8> code;
    std::vector<S64> label_pos;   ///< -1 while unbound
    std::vector<Fixup> fixups;
    bool finalized = false;
};

}  // namespace ptl

#endif  // PTLSIM_XASM_ASSEMBLER_H_
