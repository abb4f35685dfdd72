package iss

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// The fused RunBatch loop is checked against refRunBatch (ref_test.go),
// the original one-Step-per-instruction interpreter, on seeded random
// programs. Both CPUs start from the same image, see the same
// between-batch interrupt and IntEnable events, and run handlers that
// mutate them identically; after every batch the returned cycles, the
// full architectural state, the handler call log and Err() must agree.
// A failing program is shrunk (instructions, then events) before it is
// reported, with its disassembly.

// diffEvent is applied to both CPUs before batch Batch runs.
type diffEvent struct {
	Batch  int
	Line   int  // interrupt line to raise; -1 for none
	Toggle bool // flip IntEnable
}

// diffProg is one generated test case.
type diffProg struct {
	Code      []Instr
	MemWords  int
	SP        int64
	Trap, IRQ bool // install a TrapHandler / IRQHandler
	ISR       int64
	Events    []diffEvent
}

func (p *diffProg) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mem=%d sp=%d trapHandler=%t irqHandler=%t isr=%d\n", p.MemWords, p.SP, p.Trap, p.IRQ, p.ISR)
	for i, in := range p.Code {
		fmt.Fprintf(&b, "%4d  %s\n", i, in)
	}
	for _, e := range p.Events {
		fmt.Fprintf(&b, "before batch %d: raise=%d toggle=%t\n", e.Batch, e.Line, e.Toggle)
	}
	return b.String()
}

const diffMaxBatches = 300

// genDiffProg draws a program that reaches every instruction, every
// fault kind, traps, self-loops and interrupt traffic with useful
// frequency.
func genDiffProg(seed uint64) *diffProg {
	r := rand.New(rand.NewPCG(seed, 0x1551))
	p := &diffProg{
		MemWords: 4 + r.IntN(28),
		Trap:     r.IntN(5) != 0,
		IRQ:      r.IntN(4) != 0,
	}
	p.SP = int64(p.MemWords)
	if r.IntN(6) == 0 {
		p.SP = int64(r.IntN(3)) // near the bottom: pushes overflow
	}
	n := 4 + r.IntN(28)
	p.ISR = int64(r.IntN(n))
	addr := func() int64 {
		if r.IntN(12) == 0 {
			return []int64{-1, int64(p.MemWords), int64(p.MemWords) + 7}[r.IntN(3)]
		}
		return int64(r.IntN(p.MemWords))
	}
	target := func() int64 {
		if r.IntN(15) == 0 {
			return []int64{-2, int64(n), int64(n) + 3}[r.IntN(3)]
		}
		return int64(r.IntN(n))
	}
	for i := 0; i < n; i++ {
		in := Instr{Rd: r.IntN(NumRegs), Rs: r.IntN(NumRegs)}
		switch k := r.IntN(40); {
		case k < int(opCount):
			in.Op = Op(k)
		case k < 34:
			in.Op = OpJmp // extra weight: self-loops and back edges
		case k < 39:
			in.Op = []Op{OpAddi, OpCmpi, OpBne, OpPush, OpPop}[k-34]
		default:
			in.Op = []Op{-1, opCount, opCount + 5}[r.IntN(3)] // illegal
		}
		switch in.Op {
		case OpLd, OpSt:
			in.Imm = addr()
		case OpLdx, OpStx:
			in.Imm = addr() - int64(r.IntN(4))
		case OpBeq, OpBne, OpBlt, OpBge, OpCall:
			in.Imm = target()
		case OpJmp:
			if r.IntN(2) == 0 {
				in.Imm = int64(i)
			} else {
				in.Imm = target()
			}
		case OpShl, OpShr:
			in.Imm = int64(r.IntN(70))
		case OpTrap:
			in.Imm = int64(r.IntN(12))
		case OpHalt:
			if r.IntN(3) != 0 {
				in.Op = OpNop // halts end runs early; keep them rarer
			}
		default:
			in.Imm = int64(r.IntN(41)) - 20
		}
		p.Code = append(p.Code, in)
	}
	for b := 0; b < diffMaxBatches; b++ {
		if r.IntN(8) != 0 {
			continue
		}
		e := diffEvent{Batch: b, Line: -1}
		if r.IntN(3) != 0 {
			e.Line = r.IntN(4)
		}
		e.Toggle = r.IntN(3) == 0
		p.Events = append(p.Events, e)
	}
	return p
}

// newDiffCPU builds one side of the comparison: a fresh CPU from p's
// image, with handlers that log what they observe and then mutate the CPU
// as a kernel would (context switch, interrupt masking, raising lines).
func newDiffCPU(p *diffProg, log *[]string) *CPU {
	code := slices.Clone(p.Code)
	c, err := NewCPU(&Program{Code: code}, p.MemWords)
	if err != nil {
		panic(err)
	}
	for i := range c.Mem {
		c.Mem[i] = int64(i*7 - 3)
	}
	c.SP = p.SP
	seen := func(what string) {
		*log = append(*log, fmt.Sprintf("%s pc=%d sp=%d insts=%d cycles=%d acc=%d z=%t n=%t ie=%t mask=%x regs=%v",
			what, c.PC, c.SP, c.Insts, c.Cycles, c.Acc, c.FlagZ, c.FlagN, c.IntEnable, c.irqMask, c.Regs))
	}
	if p.Trap {
		c.TrapHandler = func(n int64) uint64 {
			seen(fmt.Sprintf("trap %d", n))
			switch n % 4 {
			case 0: // context switch to another point of the program
				c.Regs[0], c.Regs[1] = c.Regs[1], c.Regs[0]
				c.PC = n % int64(len(c.Code)+1)
			case 1:
				c.IntEnable = !c.IntEnable
			case 2:
				c.RaiseIRQ(int(n % 3))
			case 3:
				c.FlagZ = !c.FlagZ
				c.Acc++
				c.Cycles += 3 // a handler may also move the counter itself
			}
			return uint64(n % 5)
		}
	}
	if p.IRQ {
		c.IRQHandler = func(line int) uint64 {
			seen(fmt.Sprintf("irq %d", line))
			c.Regs[7] += int64(line) + 1
			if line == 1 {
				c.PC = p.ISR
			}
			if line == 3 {
				c.IntEnable = false
			}
			return uint64(line) * 3
		}
	}
	return c
}

// diffState renders everything a batch may change, unexported fields
// included.
func diffState(c *CPU) string {
	return fmt.Sprintf("regs=%v acc=%d z=%t n=%t pc=%d sp=%d mem=%v insts=%d cycles=%d halted=%t ie=%t mask=%x err=%v",
		c.Regs, c.Acc, c.FlagZ, c.FlagN, c.PC, c.SP, c.Mem, c.Insts, c.Cycles, c.Halted, c.IntEnable, c.irqMask, c.Err())
}

// diffStats counts which behaviours a corpus exercised.
type diffStats struct {
	faults           map[string]int
	traps, irqs      int
	maskedPending    int // batches entered with a line pending and IntEnable off
	undeliverable    int // batches entered with a line pending, IntEnable on, no handler
	selfLoops        int // batches that started on a jmp-to-self and ran more than one instruction
	selfLoopsPending int // ... of those, with a line pending
}

// runDiff runs p at batch size bs on both interpreters and returns the
// first divergence, or "" if they agree throughout.
func runDiff(p *diffProg, bs int, st *diffStats) string {
	var logF, logR []string
	fused, ref := newDiffCPU(p, &logF), newDiffCPU(p, &logR)
	ev := 0
	for b := 0; b < diffMaxBatches; b++ {
		for ; ev < len(p.Events) && p.Events[ev].Batch == b; ev++ {
			e := p.Events[ev]
			for _, c := range []*CPU{fused, ref} {
				if e.Line >= 0 {
					c.RaiseIRQ(e.Line)
				}
				if e.Toggle {
					c.IntEnable = !c.IntEnable
				}
			}
		}
		if st != nil && !ref.Halted {
			pending := ref.irqMask != 0
			switch {
			case pending && !ref.IntEnable:
				st.maskedPending++
			case pending && ref.IRQHandler == nil:
				st.undeliverable++
			}
			if pc := ref.PC; pc >= 0 && pc < int64(len(ref.Code)) && bs > 1 &&
				ref.Code[pc].Op == OpJmp && ref.Code[pc].Imm == pc && !(pending && ref.IntEnable) {
				st.selfLoops++
				if pending {
					st.selfLoopsPending++
				}
			}
		}
		before := diffState(ref)
		gotF := fused.RunBatch(bs)
		gotR := refRunBatch(ref, bs)
		sf, sr := diffState(fused), diffState(ref)
		switch {
		case gotF != gotR:
			return fmt.Sprintf("batch %d (size %d): RunBatch returned %d cycles, reference %d\nbefore: %s", b, bs, gotF, gotR, before)
		case sf != sr:
			return fmt.Sprintf("batch %d (size %d): state diverges\nbefore: %s\nfused:  %s\nref:    %s", b, bs, before, sf, sr)
		case !slices.Equal(logF, logR):
			return fmt.Sprintf("batch %d (size %d): handlers observed different CPUs\nfused: %q\nref:   %q", b, bs, logF, logR)
		}
		if ref.Halted {
			// A halted CPU must stay inert.
			if fused.RunBatch(bs) != 0 || fused.Step() != 0 || diffState(fused) != sf {
				return "halted CPU was not inert"
			}
			break
		}
	}
	if st != nil {
		if err := ref.Err(); err != nil {
			f := strings.Fields(strings.TrimPrefix(err.Error(), "iss: "))
			st.faults[f[0]+" "+f[1]]++
		}
		for _, l := range logR {
			if strings.HasPrefix(l, "trap") {
				st.traps++
			} else {
				st.irqs++
			}
		}
	}
	return ""
}

var diffBatchSizes = []int{1, 7, 64}

// checkDiff runs p at every batch size.
func checkDiff(p *diffProg, st *diffStats) string {
	for _, bs := range diffBatchSizes {
		if msg := runDiff(p, bs, st); msg != "" {
			return msg
		}
	}
	return ""
}

// shrinkDiff greedily deletes instructions and events while the program
// still diverges.
func shrinkDiff(p *diffProg) *diffProg {
	for progress := true; progress; {
		progress = false
		for i := 0; i < len(p.Code) && len(p.Code) > 1; i++ {
			q := *p
			q.Code = slices.Delete(slices.Clone(p.Code), i, i+1)
			if checkDiff(&q, nil) != "" {
				p, progress = &q, true
				i--
			}
		}
		for i := 0; i < len(p.Events); i++ {
			q := *p
			q.Events = slices.Delete(slices.Clone(p.Events), i, i+1)
			if checkDiff(&q, nil) != "" {
				p, progress = &q, true
				i--
			}
		}
	}
	return p
}

func TestFusedLoopMatchesReference(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 150
	}
	st := &diffStats{faults: map[string]int{}}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		p := genDiffProg(seed)
		if msg := checkDiff(p, st); msg != "" {
			small := shrinkDiff(p)
			t.Fatalf("seed %d: %s\nshrunk program (%s):\n%s", seed, msg, checkDiff(small, nil), small)
		}
	}
	// The corpus must actually reach what the fused loop special-cases.
	for _, kind := range []string{"load from", "store to", "stack overflow", "stack underflow",
		"instruction fetch", "illegal opcode", "unhandled trap"} {
		if st.faults[kind] == 0 {
			t.Errorf("no program faulted with %q; faults seen: %v", kind, st.faults)
		}
	}
	for name, n := range map[string]int{
		"traps": st.traps, "interrupts": st.irqs, "masked pending lines": st.maskedPending,
		"undeliverable lines": st.undeliverable, "self-loop batches": st.selfLoops,
		"self-loop batches with a line pending": st.selfLoopsPending,
	} {
		if n == 0 {
			t.Errorf("corpus exercised no %s", name)
		}
	}
	t.Logf("faults %v traps %d irqs %d masked %d undeliverable %d self-loops %d (pending %d)",
		st.faults, st.traps, st.irqs, st.maskedPending, st.undeliverable, st.selfLoops, st.selfLoopsPending)
}

// TestSelfLoopClosedForm pins the idle-loop case the fused loop
// shortcuts: a jmp to itself retires a whole batch at once, and an
// interrupt raised between batches is still taken at the next batch
// boundary — the same boundary the instruction-by-instruction
// interpreter takes it at.
func TestSelfLoopClosedForm(t *testing.T) {
	p := MustAssemble("idle: jmp idle\nisr: addi r0, 1\njmp idle")
	for _, bs := range diffBatchSizes {
		c, _ := NewCPU(p, 8)
		var lines []int
		c.IRQHandler = func(line int) uint64 {
			lines = append(lines, line)
			c.PC = 1
			return 10
		}
		if got, want := c.RunBatch(bs), uint64(bs)*Cost(OpJmp); got != want {
			t.Fatalf("bs=%d: idle batch = %d cycles, want %d", bs, got, want)
		}
		if c.Insts != uint64(bs) || c.PC != 0 {
			t.Fatalf("bs=%d: insts=%d pc=%d after an idle batch", bs, c.Insts, c.PC)
		}
		c.IntEnable = false
		c.RaiseIRQ(2)
		c.RunBatch(bs) // masked: the line stays pending through the loop
		if c.Insts != uint64(2*bs) || len(lines) != 0 || !c.IRQPending() {
			t.Fatalf("bs=%d: masked line: insts=%d taken=%v", bs, c.Insts, lines)
		}
		c.IntEnable = true
		if got := c.RunBatch(bs); got != 6+10 || len(lines) != 1 || lines[0] != 2 {
			t.Fatalf("bs=%d: interrupt batch = %d cycles, lines %v", bs, got, lines)
		}
		c.RunBatch(bs) // isr body, then back into the loop
		if c.Regs[0] != 1 || c.Insts != uint64(3*bs) {
			t.Fatalf("bs=%d: after isr: r0=%d insts=%d", bs, c.Regs[0], c.Insts)
		}
	}
}
