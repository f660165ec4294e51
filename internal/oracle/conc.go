// The concurrent oracle: generation and judging for multi-threaded
// trace slicing (docs/CONCURRENCY.md). The sequential pillars carry
// over — structural subsequence, solver cross-checks, model replay —
// but two are genuinely new:
//
//   - interleaving closure: a Sat slice is replayed not just under the
//     recorded interleaving but under every legal reordering of it —
//     linearizations preserving each thread's program order, the
//     relative order of every conflicting access pair, and spawn/join
//     synchronization. If some legal reordering fails to replay, the
//     slicer treated two operations as independent that are not: a
//     missed racy edge, the concurrent analogue of a missed data
//     dependence.
//
//   - the commute invariant (CheckConcCommute): swapping two adjacent
//     trace events with no happens-before constraint between them must
//     leave the slice bit-identical (modulo the swapped positions) and
//     the feasibility verdict unchanged. The pair generator refuses —
//     by construction, enforced in its own test — to propose swaps
//     across a racy edge, where commuting is not meaning-preserving.
//
// Generated programs follow one discipline beyond the sequential
// generator's: nondet() appears only in main's prologue, before any
// spawn, so a model's nondet values align with replay in every legal
// reordering (other threads never consume inputs).
package oracle

import (
	"fmt"
	"math/rand"
	"strings"

	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/core"
	"pathslice/internal/instrument"
	"pathslice/internal/interp"
	"pathslice/internal/lang/parser"
	"pathslice/internal/lang/types"
)

// ConcSpec describes one generated concurrent program. The central
// shape: a worker thread writes NPairs globals w0..w{n-1} that main
// snoops into s0..s{n-1} while both threads run, with the error guard
// demanding the worker's values. PreWrite plants conflicting constants
// in main before the spawn — the contradiction anchor that turns a
// dropped cross-thread write into an Unsat slice the solver pillar can
// convict (without it, a lost write is merely an unconstrained initial
// value the model can repair silently).
type ConcSpec struct {
	Seed     int64
	NPairs   int  // worker-written globals main snoops (1..2)
	PreWrite bool // main writes conflicting constants before spawning
	Junk     bool // second spawned thread writing only junk
	UseLock  bool // guard every shared access with lock(l)/unlock(l)
	Nondets  int  // nondet-fed guard variables in main's prologue (0..1)
}

func (s ConcSpec) normalize() ConcSpec {
	if s.NPairs < 1 {
		s.NPairs = 1
	}
	if s.NPairs > 2 {
		s.NPairs = 2
	}
	if s.Nondets < 0 {
		s.Nondets = 0
	}
	if s.Nondets > 1 {
		s.Nondets = 1
	}
	return s
}

// ConcSpecString serializes a spec for violation reports.
func ConcSpecString(s ConcSpec) string {
	return fmt.Sprintf("conc seed=%d npairs=%d prewrite=%d junk=%d lock=%d nondets=%d",
		s.Seed, s.NPairs, b2i(s.PreWrite), b2i(s.Junk), b2i(s.UseLock), s.Nondets)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// RandomConcSpec draws a spec; PreWrite is biased on because it is
// what gives the solver pillars teeth.
func RandomConcSpec(rng *rand.Rand) ConcSpec {
	return ConcSpec{
		Seed:     rng.Int63n(1 << 30),
		NPairs:   1 + rng.Intn(2),
		PreWrite: rng.Intn(4) > 0,
		Junk:     rng.Intn(3) == 0,
		UseLock:  rng.Intn(3) == 0,
		Nondets:  rng.Intn(2),
	}.normalize()
}

// StarterConcSpecs seeds the campaign with the shape families the
// walk over concurrent traces can get wrong: single and double snoop pairs,
// with and without the contradiction anchor, junk threads, locks.
func StarterConcSpecs() []ConcSpec {
	return []ConcSpec{
		{Seed: 101, NPairs: 1, PreWrite: true},
		{Seed: 102, NPairs: 2, PreWrite: true},
		{Seed: 103, NPairs: 2, PreWrite: true, Junk: true},
		{Seed: 104, NPairs: 1, PreWrite: false, Nondets: 1},
		{Seed: 105, NPairs: 2, PreWrite: true, Nondets: 1},
		{Seed: 106, NPairs: 1, PreWrite: true, UseLock: true},
		{Seed: 107, NPairs: 2, PreWrite: true, UseLock: true, Junk: true},
	}
}

// RenderConc emits the MiniC source of a spec.
func RenderConc(s ConcSpec) string {
	s = s.normalize()
	rng := rand.New(rand.NewSource(s.Seed))
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	// Worker constants and main's conflicting pre-write constants.
	wc := make([]int64, s.NPairs)
	pc := make([]int64, s.NPairs)
	for i := range wc {
		wc[i] = 1 + int64(rng.Intn(7))
		pc[i] = wc[i] + 1 + int64(rng.Intn(3)) // provably != wc[i]
	}

	p("// %s\n", ConcSpecString(s))
	for i := 0; i < s.NPairs; i++ {
		p("int w%d;\nint s%d;\n", i, i)
	}
	for i := 0; i < s.Nondets; i++ {
		p("int n%d;\n", i)
	}
	if s.Junk {
		p("int jk;\n")
	}
	if s.UseLock {
		p("int l;\n")
	}
	p("\n")

	locked := func(stmt string) {
		if s.UseLock {
			p("  lock(l);\n%s  unlock(l);\n", stmt)
		} else {
			p("%s", stmt)
		}
	}

	p("void wrk() {\n")
	for i := 0; i < s.NPairs; i++ {
		locked(fmt.Sprintf("  w%d = %d;\n", i, wc[i]))
	}
	p("}\n\n")
	if s.Junk {
		p("void jnk() {\n  jk = jk + 1;\n  jk = jk + 2;\n}\n\n")
	}

	p("void main() {\n")
	for i := 0; i < s.Nondets; i++ {
		p("  n%d = nondet();\n", i)
	}
	if s.PreWrite {
		for i := 0; i < s.NPairs; i++ {
			p("  w%d = %d;\n", i, pc[i])
		}
	}
	p("  spawn wrk();\n")
	if s.Junk {
		p("  spawn jnk();\n")
	}
	for i := 0; i < s.NPairs; i++ {
		locked(fmt.Sprintf("  s%d = w%d;\n", i, i))
	}
	p("  join;\n")
	indent := "  "
	var closes []string
	for i := 0; i < s.Nondets; i++ {
		p("%sif (n%d > 0) {\n", indent, i)
		closes = append(closes, indent+"}\n")
		indent += "  "
	}
	for i := 0; i < s.NPairs; i++ {
		p("%sif (s%d == %d) {\n", indent, i, wc[i])
		closes = append(closes, indent+"}\n")
		indent += "  "
	}
	p("%serror;\n", indent)
	for i := len(closes) - 1; i >= 0; i-- {
		p("%s", closes[i])
	}
	p("}\n")
	return b.String()
}

// CompileConc compiles a spec's source. Lock specs run through the
// lock-discipline instrumentation first, so their happens-before
// structure arrives as ordinary conflicting accesses on the l__lk
// shadow variable.
func CompileConc(s ConcSpec) (*cfa.Program, error) {
	src := RenderConc(s)
	if !s.UseLock {
		return compile.Source(src)
	}
	astProg, err := parser.Parse([]byte(src))
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	ins, err := instrument.InstrumentLocks(astProg)
	if err != nil {
		return nil, fmt.Errorf("instrument: %w", err)
	}
	info, err := types.Check(ins.Prog)
	if err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	return cfa.Build(info)
}

// concInputs returns the concrete nondet feed used to hunt error
// interleavings: ones satisfy every generated `n > 0` guard.
func concInputs() interp.Inputs { return &interp.SliceInputs{Vals: []int64{1, 1, 1, 1}} }

// CollectConcTraces sweeps scheduler seeds and returns up to max
// distinct error interleavings of prog, with the seeds that produced
// them.
func CollectConcTraces(prog *cfa.Program, slicer *core.Slicer, seeds, max int) ([]cfa.ConcTrace, []uint64) {
	var traces []cfa.ConcTrace
	var used []uint64
	seen := map[string]bool{}
	for seed := uint64(0); seed < uint64(seeds) && len(traces) < max; seed++ {
		st := interp.NewState(prog, slicer.Addrs)
		r := interp.ConcRun(prog, st, concInputs(), interp.ConcRunOptions{
			RecordTrace: true, Seed: seed,
		})
		if !r.ReachedError {
			continue
		}
		key := r.Trace.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		traces = append(traces, r.Trace)
		used = append(used, seed)
	}
	return traces, used
}
