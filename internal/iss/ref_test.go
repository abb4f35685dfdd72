package iss

import "fmt"

// This file keeps the original one-instruction-per-call interpreter as
// the reference oracle for the fused RunBatch loop in cpu.go. It works
// on the same CPU struct and must not be "optimized": its value is that
// it states every instruction's effect, fault and cycle cost in the
// plainest form, one Step at a time.

// refFault stops execution with an error, reporting the CPU's own PC and
// cycle counter, and returns the one cycle an aborted instruction costs.
func refFault(c *CPU, format string, args ...interface{}) uint64 {
	c.err = fmt.Errorf("iss: "+format+" (pc=%d cycles=%d)", append(args, c.PC, c.Cycles)...)
	c.Halted = true
	return 1
}

func refLoad(c *CPU, addr int64) int64 {
	if addr < 0 || addr >= int64(len(c.Mem)) {
		refFault(c, "load from bad address %d", addr)
		return 0
	}
	return c.Mem[addr]
}

func refStore(c *CPU, addr, v int64) {
	if addr < 0 || addr >= int64(len(c.Mem)) {
		refFault(c, "store to bad address %d", addr)
		return
	}
	c.Mem[addr] = v
}

func refPush(c *CPU, v int64) {
	c.SP--
	if c.SP < 0 {
		refFault(c, "stack overflow")
		return
	}
	c.Mem[c.SP] = v
}

func refPop(c *CPU) int64 {
	if c.SP >= int64(len(c.Mem)) {
		refFault(c, "stack underflow")
		return 0
	}
	v := c.Mem[c.SP]
	c.SP++
	return v
}

func refSetFlags(c *CPU, v int64) {
	c.FlagZ = v == 0
	c.FlagN = v < 0
}

// refStep executes one instruction (servicing a pending interrupt first)
// and returns the cycles it consumed; 0 on a halted CPU.
func refStep(c *CPU) uint64 {
	if c.Halted {
		return 0
	}
	if c.irqMask != 0 && c.IntEnable && c.IRQHandler != nil {
		line := c.lowestIRQ()
		cost := 6 + c.IRQHandler(line) // 6-cycle interrupt entry + kernel time
		c.Cycles += cost
		return cost
	}
	if c.PC < 0 || c.PC >= int64(len(c.Code)) {
		return refFault(c, "instruction fetch from bad address %d", c.PC)
	}
	in := c.Code[c.PC]
	c.PC++
	c.Insts++
	if in.Op < 0 || in.Op >= opCount {
		return refFault(c, "illegal opcode %d", int(in.Op))
	}
	cost := cycleCost[in.Op]

	switch in.Op {
	case OpNop:
	case OpHalt:
		c.Halted = true
	case OpLdi:
		c.Regs[in.Rd] = in.Imm
	case OpLd:
		c.Regs[in.Rd] = refLoad(c, in.Imm)
	case OpSt:
		refStore(c, in.Imm, c.Regs[in.Rs])
	case OpLdx:
		c.Regs[in.Rd] = refLoad(c, c.Regs[in.Rs]+in.Imm)
	case OpStx:
		refStore(c, c.Regs[in.Rd]+in.Imm, c.Regs[in.Rs])
	case OpMov:
		c.Regs[in.Rd] = c.Regs[in.Rs]
	case OpAdd:
		c.Regs[in.Rd] += c.Regs[in.Rs]
		refSetFlags(c, c.Regs[in.Rd])
	case OpAddi:
		c.Regs[in.Rd] += in.Imm
		refSetFlags(c, c.Regs[in.Rd])
	case OpSub:
		c.Regs[in.Rd] -= c.Regs[in.Rs]
		refSetFlags(c, c.Regs[in.Rd])
	case OpMul:
		c.Regs[in.Rd] *= c.Regs[in.Rs]
		refSetFlags(c, c.Regs[in.Rd])
	case OpMac:
		c.Acc += c.Regs[in.Rd] * c.Regs[in.Rs]
	case OpClra:
		c.Acc = 0
	case OpRda:
		c.Regs[in.Rd] = c.Acc
	case OpAnd:
		c.Regs[in.Rd] &= c.Regs[in.Rs]
		refSetFlags(c, c.Regs[in.Rd])
	case OpOr:
		c.Regs[in.Rd] |= c.Regs[in.Rs]
		refSetFlags(c, c.Regs[in.Rd])
	case OpXor:
		c.Regs[in.Rd] ^= c.Regs[in.Rs]
		refSetFlags(c, c.Regs[in.Rd])
	case OpShl:
		c.Regs[in.Rd] <<= uint(in.Imm)
		refSetFlags(c, c.Regs[in.Rd])
	case OpShr:
		c.Regs[in.Rd] >>= uint(in.Imm)
		refSetFlags(c, c.Regs[in.Rd])
	case OpCmp:
		refSetFlags(c, c.Regs[in.Rd]-c.Regs[in.Rs])
	case OpCmpi:
		refSetFlags(c, c.Regs[in.Rd]-in.Imm)
	case OpBeq:
		if c.FlagZ {
			c.PC = in.Imm
		}
	case OpBne:
		if !c.FlagZ {
			c.PC = in.Imm
		}
	case OpBlt:
		if c.FlagN {
			c.PC = in.Imm
		}
	case OpBge:
		if !c.FlagN {
			c.PC = in.Imm
		}
	case OpJmp:
		c.PC = in.Imm
	case OpCall:
		refPush(c, c.PC)
		c.PC = in.Imm
	case OpRet:
		c.PC = refPop(c)
	case OpPush:
		refPush(c, c.Regs[in.Rs])
	case OpPop:
		c.Regs[in.Rd] = refPop(c)
	case OpTrap:
		if c.TrapHandler == nil {
			return refFault(c, "unhandled trap %d", in.Imm)
		}
		cost += c.TrapHandler(in.Imm)
	}
	c.Cycles += cost
	return cost
}

// refRunBatch executes up to maxInsts refSteps, stopping early on halt,
// fault, or right after a trap or an interrupt, and returns the cycles
// consumed.
func refRunBatch(c *CPU, maxInsts int) uint64 {
	var cycles uint64
	for i := 0; i < maxInsts && !c.Halted; i++ {
		trapOrIRQ := (c.irqMask != 0 && c.IntEnable) ||
			(c.PC >= 0 && c.PC < int64(len(c.Code)) && c.Code[c.PC].Op == OpTrap)
		cycles += refStep(c)
		if trapOrIRQ {
			break
		}
	}
	return cycles
}
