package iss

import "fmt"

// NumRegs is the number of general-purpose registers.
const NumRegs = 8

// CPU is the processor state. Memory is word-addressed (one int64 per
// address). The stack grows downward from the initial SP. External
// interrupts are delivered between instructions to the IRQHandler hook —
// the para-virtualized kernel entry of the implementation model (see
// DESIGN.md's substitution table); likewise TrapHandler receives TRAP
// instructions.
type CPU struct {
	Regs  [NumRegs]int64
	Acc   int64 // multiply-accumulate register
	PC    int64 // instruction index into Code
	SP    int64 // stack pointer (word address, grows down)
	FlagZ bool
	FlagN bool

	Mem  []int64
	Code []Instr

	Halted    bool
	IntEnable bool
	irqMask   uint64 // pending interrupt lines (bit i = line i)

	Cycles uint64 // total consumed cycles
	Insts  uint64 // retired instruction count

	// TrapHandler services TRAP n; it may mutate the whole CPU state
	// (context switch) and returns additional cycles consumed by the
	// kernel. A nil handler makes TRAP halt with an error.
	TrapHandler func(n int64) uint64
	// IRQHandler services a pending external interrupt (delivered between
	// instructions while IntEnable); lines are vectored, lowest line
	// first. Returns kernel cycles consumed.
	IRQHandler func(line int) uint64

	err error
}

// NewCPU creates a CPU with the given memory size, loads the program's
// code and data image, and points SP at the top of memory.
func NewCPU(p *Program, memWords int) (*CPU, error) {
	if len(p.Data) > memWords {
		return nil, fmt.Errorf("iss: data image (%d words) exceeds memory (%d)", len(p.Data), memWords)
	}
	c := &CPU{
		Mem:       make([]int64, memWords),
		Code:      p.Code,
		SP:        int64(memWords),
		IntEnable: true,
	}
	copy(c.Mem, p.Data)
	return c, nil
}

// Err returns the first execution fault (bad address, stack overflow,
// unhandled trap), or nil.
func (c *CPU) Err() error { return c.err }

// NumIRQLines is the number of vectored interrupt lines.
const NumIRQLines = 64

// RaiseIRQ asserts an external interrupt line (0..NumIRQLines-1). The
// interrupt is taken before the next instruction while interrupts are
// enabled; the line stays asserted until taken. Lower line numbers have
// higher delivery priority.
func (c *CPU) RaiseIRQ(line int) {
	if line < 0 || line >= NumIRQLines {
		panic(fmt.Sprintf("iss: bad interrupt line %d", line))
	}
	c.irqMask |= 1 << uint(line)
}

// IRQPending reports whether any line is asserted and untaken.
func (c *CPU) IRQPending() bool { return c.irqMask != 0 }

// lowestIRQ returns and clears the highest-priority pending line.
func (c *CPU) lowestIRQ() int {
	for i := 0; i < NumIRQLines; i++ {
		if c.irqMask&(1<<uint(i)) != 0 {
			c.irqMask &^= 1 << uint(i)
			return i
		}
	}
	return -1
}

// fail stops execution with an error that reports the given program
// counter and cycle count (the interpreter keeps both in locals, so the
// CPU fields may be stale when a fault is detected).
func (c *CPU) fail(pc int64, cycles uint64, format string, args ...interface{}) {
	c.err = fmt.Errorf("iss: "+format+" (pc=%d cycles=%d)", append(args, pc, cycles)...)
	c.Halted = true
}

// stop says why RunBatch's loop ended before its budget ran out.
type stop uint8

const (
	stopNone  stop = iota // budget used up
	stopFetch             // PC outside the code: nothing retired
	// Every later reason retires the instruction that raised it.
	stopHalt
	stopIllegal // an opcode outside the ISA: not costed
	stopTrap    // costed once the handler returns
	stopLoad    // the memory and stack faults are costed
	stopStore
	stopOverflow
	stopUnderflow
)

// Step executes one instruction (servicing a pending interrupt first) and
// returns the cycles it consumed. On a halted CPU, Step returns 0. It is
// RunBatch with a budget of one instruction.
func (c *CPU) Step() uint64 { return c.RunBatch(1) }

// RunBatch executes up to maxInsts instructions, stopping early on halt,
// fault, or after a trap/interrupt (so the caller can synchronize modeled
// time with the embedding simulation at kernel-visible points). It returns
// the cycles consumed.
//
// A pending interrupt is taken only at batch entry, and then it is the
// whole batch. That loses nothing: the interrupt mask and IntEnable change
// only between batches or inside a trap or interrupt handler, and a trap
// ends the batch too. A line that is asserted and enabled but has no
// handler still ends the batch after one instruction.
//
// The loop keeps PC, the flags, the budget and the cycle counter in
// locals and calls nothing: traps and faults leave it with a stop reason
// and are handled after it, once the CPU fields are written back. A jmp
// to its own address retires the rest of the batch in closed form;
// nothing else can run inside the batch, so the counters advance exactly
// as if the loop were interpreted.
func (c *CPU) RunBatch(maxInsts int) uint64 {
	if c.Halted || maxInsts <= 0 {
		return 0
	}
	if c.irqMask != 0 && c.IntEnable {
		if c.IRQHandler != nil {
			cost := 6 + c.IRQHandler(c.lowestIRQ()) // 6-cycle interrupt entry + kernel time
			c.Cycles += cost
			return cost
		}
		maxInsts = 1
	}
	code := c.Code
	pc, z, neg, cycles := c.PC, c.FlagZ, c.FlagN, c.Cycles
	var (
		why  stop
		arg  int64  // faulting address, opcode or trap number; PC after a stack fault
		cost uint64 // cost of a faulting instruction, already in cycles
	)
	n := maxInsts
loop:
	for ; n > 0; n-- {
		if uint64(pc) >= uint64(len(code)) {
			why = stopFetch
			break
		}
		in := &code[pc]
		pc++
		op := in.Op
		if uint(op) >= uint(opCount) {
			why, arg = stopIllegal, int64(op)
			break
		}
		cycles += cycleCost[op]
		switch op {
		case OpNop:
		case OpHalt:
			why = stopHalt
			break loop
		case OpLdi:
			c.Regs[in.Rd] = in.Imm
		case OpLd, OpLdx:
			a := in.Imm
			if op == OpLdx {
				a += c.Regs[in.Rs]
			}
			if uint64(a) >= uint64(len(c.Mem)) {
				c.Regs[in.Rd] = 0
				why, arg, cost = stopLoad, a, cycleCost[op]
				break loop
			}
			c.Regs[in.Rd] = c.Mem[a]
		case OpSt, OpStx:
			a := in.Imm
			if op == OpStx {
				a += c.Regs[in.Rd]
			}
			if uint64(a) >= uint64(len(c.Mem)) {
				why, arg, cost = stopStore, a, cycleCost[op]
				break loop
			}
			c.Mem[a] = c.Regs[in.Rs]
		case OpMov:
			c.Regs[in.Rd] = c.Regs[in.Rs]
		case OpAdd:
			v := c.Regs[in.Rd] + c.Regs[in.Rs]
			c.Regs[in.Rd], z, neg = v, v == 0, v < 0
		case OpAddi:
			v := c.Regs[in.Rd] + in.Imm
			c.Regs[in.Rd], z, neg = v, v == 0, v < 0
		case OpSub:
			v := c.Regs[in.Rd] - c.Regs[in.Rs]
			c.Regs[in.Rd], z, neg = v, v == 0, v < 0
		case OpMul:
			v := c.Regs[in.Rd] * c.Regs[in.Rs]
			c.Regs[in.Rd], z, neg = v, v == 0, v < 0
		case OpMac:
			c.Acc += c.Regs[in.Rd] * c.Regs[in.Rs]
		case OpClra:
			c.Acc = 0
		case OpRda:
			c.Regs[in.Rd] = c.Acc
		case OpAnd:
			v := c.Regs[in.Rd] & c.Regs[in.Rs]
			c.Regs[in.Rd], z, neg = v, v == 0, v < 0
		case OpOr:
			v := c.Regs[in.Rd] | c.Regs[in.Rs]
			c.Regs[in.Rd], z, neg = v, v == 0, v < 0
		case OpXor:
			v := c.Regs[in.Rd] ^ c.Regs[in.Rs]
			c.Regs[in.Rd], z, neg = v, v == 0, v < 0
		case OpShl:
			v := c.Regs[in.Rd] << uint(in.Imm)
			c.Regs[in.Rd], z, neg = v, v == 0, v < 0
		case OpShr:
			v := c.Regs[in.Rd] >> uint(in.Imm)
			c.Regs[in.Rd], z, neg = v, v == 0, v < 0
		case OpCmp:
			v := c.Regs[in.Rd] - c.Regs[in.Rs]
			z, neg = v == 0, v < 0
		case OpCmpi:
			v := c.Regs[in.Rd] - in.Imm
			z, neg = v == 0, v < 0
		case OpBeq:
			if z {
				pc = in.Imm
			}
		case OpBne:
			if !z {
				pc = in.Imm
			}
		case OpBlt:
			if neg {
				pc = in.Imm
			}
		case OpBge:
			if !neg {
				pc = in.Imm
			}
		case OpJmp:
			if in.Imm == pc-1 {
				// Self-loop: every remaining instruction of the batch
				// is this jmp.
				cycles += uint64(n-1) * cycleCost[op]
				n = 1
			}
			pc = in.Imm
		case OpCall:
			c.SP--
			if c.SP < 0 {
				why, arg, cost = stopOverflow, pc, cycleCost[op]
				pc = in.Imm
				break loop
			}
			c.Mem[c.SP] = pc
			pc = in.Imm
		case OpRet:
			if c.SP >= int64(len(c.Mem)) {
				why, arg, cost = stopUnderflow, pc, cycleCost[op]
				pc = 0
				break loop
			}
			pc = c.Mem[c.SP]
			c.SP++
		case OpPush:
			c.SP--
			if c.SP < 0 {
				why, arg, cost = stopOverflow, pc, cycleCost[op]
				break loop
			}
			c.Mem[c.SP] = c.Regs[in.Rs]
		case OpPop:
			if c.SP >= int64(len(c.Mem)) {
				c.Regs[in.Rd] = 0
				why, arg, cost = stopUnderflow, pc, cycleCost[op]
				break loop
			}
			c.Regs[in.Rd] = c.Mem[c.SP]
			c.SP++
		case OpTrap:
			why, arg = stopTrap, in.Imm
			break loop
		}
	}
	spent := cycles - c.Cycles
	c.PC, c.FlagZ, c.FlagN = pc, z, neg
	c.Insts += uint64(maxInsts - n)
	if why > stopFetch {
		c.Insts++
	}
	switch why {
	case stopHalt:
		c.Halted = true
	case stopFetch:
		c.fail(pc, cycles, "instruction fetch from bad address %d", pc)
		spent++
	case stopIllegal:
		c.fail(pc, cycles, "illegal opcode %d", arg)
		spent++
	case stopTrap:
		// The handler sees the CPU as it was before the trap is costed,
		// and may rewrite all of it (a context switch).
		trap := cycleCost[OpTrap]
		c.Cycles = cycles - trap
		if c.TrapHandler == nil {
			c.fail(pc, c.Cycles, "unhandled trap %d", arg)
			return spent - trap + 1
		}
		kernel := c.TrapHandler(arg)
		c.Cycles += trap + kernel
		return spent + kernel
	case stopLoad:
		c.fail(pc, cycles-cost, "load from bad address %d", arg)
	case stopStore:
		c.fail(pc, cycles-cost, "store to bad address %d", arg)
	case stopOverflow:
		c.fail(arg, cycles-cost, "stack overflow")
	case stopUnderflow:
		c.fail(arg, cycles-cost, "stack underflow")
	}
	c.Cycles = cycles
	return spent
}
