package wp_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pathslice/internal/alias"
	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/logic"
	"pathslice/internal/smt"
	"pathslice/internal/wp"
)

// randStraightProgram generates pointer-free programs whose WP
// semantics has no havoc approximations, so the classic backward WP
// (Fig. 3) and the forward SSA encoding must be equisatisfiable.
func randStraightProgram(r *rand.Rand) string {
	var b strings.Builder
	n := 2 + r.Intn(2)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "int g%d;\n", i)
	}
	gv := func() string { return fmt.Sprintf("g%d", r.Intn(n)) }
	fmt.Fprintf(&b, "void main() {\n")
	stmts := 2 + r.Intn(5)
	for i := 0; i < stmts; i++ {
		switch r.Intn(3) {
		case 0:
			fmt.Fprintf(&b, "  %s = %s + %d;\n", gv(), gv(), r.Intn(7)-3)
		case 1:
			fmt.Fprintf(&b, "  %s = %d;\n", gv(), r.Intn(9)-4)
		default:
			fmt.Fprintf(&b, "  if (%s > %d) { %s = %s; } else { %s = %s - 1; }\n",
				gv(), r.Intn(5)-2, gv(), gv(), gv(), gv())
		}
	}
	fmt.Fprintf(&b, "  if (%s == %d) {\n    if (%s <= %d) {\n      error;\n    }\n  }\n",
		gv(), r.Intn(7)-3, gv(), r.Intn(7)-3)
	fmt.Fprintf(&b, "}\n")
	return b.String()
}

// TestWPTraceEquisatisfiableWithEncoder is the DESIGN.md §5 invariant:
// WP.true.(Tr.π) is satisfiable exactly when the SSA trace encoding is.
func TestWPTraceEquisatisfiableWithEncoder(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	checked := 0
	for trial := 0; trial < 80 && checked < 40; trial++ {
		src := randStraightProgram(r)
		prog, err := compile.Source(src)
		if err != nil {
			t.Fatalf("generated program: %v\n%s", err, src)
		}
		locs := prog.ErrorLocs()
		if len(locs) == 0 {
			continue
		}
		path := cfa.FindPath(prog, locs[0], cfa.FindOptions{})
		if path == nil {
			continue
		}
		checked++
		al := alias.Analyze(prog)
		addrs := wp.NewAddrMap(prog)
		enc := wp.NewTraceEncoder(prog, al, addrs)
		forward := smt.SolveCtx(context.Background(), enc.EncodeTrace(path.Ops()), smt.Limits{})
		backward := smt.SolveCtx(context.Background(), wp.WPTrace(logic.True, path.Ops(), al, addrs), smt.Limits{})
		if forward.Status != backward.Status {
			t.Fatalf("encoder %s vs WPTrace %s\n%s\npath:\n%s",
				forward.Status, backward.Status, src, path)
		}
	}
	if checked < 20 {
		t.Fatalf("too few cases: %d", checked)
	}
}
