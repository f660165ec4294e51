package wp_test

import (
	"context"
	"testing"

	"pathslice/internal/alias"
	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/interp"
	"pathslice/internal/logic"
	"pathslice/internal/smt"
	"pathslice/internal/wp"
)

// setup compiles src and returns the program plus the analyses the
// encoder needs.
func setup(t *testing.T, src string) (*cfa.Program, *alias.Info, *wp.AddrMap) {
	t.Helper()
	prog := compile.MustSource(src)
	return prog, alias.Analyze(prog), wp.NewAddrMap(prog)
}

// pathToError finds a path to the first error location.
func pathToError(t *testing.T, prog *cfa.Program, long bool) cfa.Path {
	t.Helper()
	p := cfa.FindPathToError(prog, cfa.FindOptions{PreferLong: long})
	if p == nil {
		t.Fatal("no path to error location")
	}
	return p
}

// encodePath encodes a path's trace and returns encoder + formula.
func encodePath(prog *cfa.Program, al *alias.Info, addrs *wp.AddrMap, p cfa.Path) (*wp.TraceEncoder, logic.Formula) {
	enc := wp.NewTraceEncoder(prog, al, addrs)
	return enc, enc.EncodeTrace(p.Ops())
}

func TestFeasibleStraightTrace(t *testing.T) {
	prog, al, addrs := setup(t, `
		int a;
		void main() {
			a = nondet();
			if (a > 5) { error; }
		}`)
	p := pathToError(t, prog, false)
	enc, f := encodePath(prog, al, addrs, p)
	r := smt.SolveCtx(context.Background(), f, smt.Limits{})
	if r.Status != smt.StatusSat {
		t.Fatalf("trace should be feasible: %s\n%s", r.Status, f)
	}
	// The model's initial state must actually execute the trace.
	st := interp.NewState(prog, addrs)
	init := enc.DecodeInitialState(r.Model, prog)
	for k, v := range init {
		st.Set(k, v)
	}
	// Nondet inputs come from the model's $in variables in order.
	var ins []int64
	for i := 1; i <= 10; i++ {
		ins = append(ins, r.Model[inName(i)])
	}
	if !st.CanExecuteTrace(p.Ops(), &interp.SliceInputs{Vals: ins}) {
		t.Fatal("solver model does not execute the trace in the interpreter")
	}
}

func inName(i int) string {
	if i < 10 {
		return "$in" + string(rune('0'+i))
	}
	return "$in1" + string(rune('0'+i-10))
}

func TestInfeasibleTrace(t *testing.T) {
	prog, al, addrs := setup(t, `
		int a;
		void main() {
			a = 1;
			if (a == 0) { error; }
		}`)
	p := pathToError(t, prog, false)
	_, f := encodePath(prog, al, addrs, p)
	if r := smt.SolveCtx(context.Background(), f, smt.Limits{}); r.Status != smt.StatusUnsat {
		t.Fatalf("trace must be infeasible: %s\n%s", r.Status, f)
	}
}

func TestLoopUnrollingInfeasibility(t *testing.T) {
	// The paper's Ex2 phenomenon: a single unrolling of a 1000-bound
	// loop is infeasible.
	prog, al, addrs := setup(t, `
		void main() {
			int i = 1;
			while (i <= 3) { i = i + 1; }
			if (i == 100) { error; }
		}`)
	p := pathToError(t, prog, false)
	_, f := encodePath(prog, al, addrs, p)
	if r := smt.SolveCtx(context.Background(), f, smt.Limits{}); r.Status != smt.StatusUnsat {
		t.Fatalf("want unsat (i can only be 4 at loop exit): %s", r.Status)
	}
}

func TestSSAVersioning(t *testing.T) {
	prog, al, addrs := setup(t, `
		int x;
		void main() {
			x = 1;
			x = x + 1;
			if (x == 2) { error; }
		}`)
	p := pathToError(t, prog, false)
	_, f := encodePath(prog, al, addrs, p)
	if r := smt.SolveCtx(context.Background(), f, smt.Limits{}); r.Status != smt.StatusSat {
		t.Fatalf("x goes 1 -> 2; trace feasible: %s\n%s", r.Status, f)
	}
	// Target the wrong final value.
	prog2, al2, addrs2 := setup(t, `
		int x;
		void main() {
			x = 1;
			x = x + 1;
			if (x == 3) { error; }
		}`)
	p2 := pathToError(t, prog2, false)
	enc2 := wp.NewTraceEncoder(prog2, al2, addrs2)
	f2 := enc2.EncodeTrace(p2.Ops())
	if r := smt.SolveCtx(context.Background(), f2, smt.Limits{}); r.Status != smt.StatusUnsat {
		t.Fatalf("want unsat: %s", r.Status)
	}
}

func TestPointerStoreSingleTarget(t *testing.T) {
	prog, al, addrs := setup(t, `
		int x; int *p;
		void main() {
			p = &x;
			*p = 7;
			if (x == 7) { error; }
		}`)
	p := pathToError(t, prog, false)
	_, f := encodePath(prog, al, addrs, p)
	if r := smt.SolveCtx(context.Background(), f, smt.Limits{}); r.Status != smt.StatusSat {
		t.Fatalf("store through singleton pointer: %s\n%s", r.Status, f)
	}
}

func TestPointerStoreMultiTarget(t *testing.T) {
	prog, al, addrs := setup(t, `
		int x; int y; int *p;
		void main() {
			x = 0;
			y = 0;
			if (nondet()) { p = &x; } else { p = &y; }
			*p = 7;
			if (x == 7) { error; }
		}`)
	// Path through the then branch (p = &x) must be feasible.
	p := pathToError(t, prog, false)
	_, f := encodePath(prog, al, addrs, p)
	r := smt.SolveCtx(context.Background(), f, smt.Limits{})
	if r.Status == smt.StatusUnsat {
		t.Fatalf("some branch direction must make the trace feasible:\n%s", f)
	}
}

func TestPointerStoreWrongTargetInfeasible(t *testing.T) {
	prog, al, addrs := setup(t, `
		int x; int y; int *p;
		void main() {
			x = 0;
			p = &y;
			*p = 7;
			if (x == 7) { error; }
		}`)
	p := pathToError(t, prog, false)
	_, f := encodePath(prog, al, addrs, p)
	if r := smt.SolveCtx(context.Background(), f, smt.Limits{}); r.Status != smt.StatusUnsat {
		t.Fatalf("store hits y, not x: want unsat, got %s\n%s", r.Status, f)
	}
}

func TestDerefReadGuards(t *testing.T) {
	prog, al, addrs := setup(t, `
		int x; int *p;
		void main() {
			x = 5;
			p = &x;
			int v = *p;
			if (v == 5) { error; }
		}`)
	p := pathToError(t, prog, false)
	_, f := encodePath(prog, al, addrs, p)
	if r := smt.SolveCtx(context.Background(), f, smt.Limits{}); r.Status != smt.StatusSat {
		t.Fatalf("read through pointer: %s\n%s", r.Status, f)
	}
}

func TestNullDerefInfeasible(t *testing.T) {
	prog, al, addrs := setup(t, `
		int x; int *p;
		void main() {
			p = 0;
			if (nondet()) { p = &x; }
			assume(p == 0);
			*p = 1;
			error;
		}`)
	p := pathToError(t, prog, false)
	_, f := encodePath(prog, al, addrs, p)
	if r := smt.SolveCtx(context.Background(), f, smt.Limits{}); r.Status != smt.StatusUnsat {
		t.Fatalf("null deref cannot execute: want unsat, got %s", r.Status)
	}
}

func TestCallsAreIdentity(t *testing.T) {
	prog, al, addrs := setup(t, `
		int g;
		int inc(int k) { return k + 1; }
		void main() {
			g = inc(4);
			if (g == 5) { error; }
		}`)
	p := pathToError(t, prog, false)
	_, f := encodePath(prog, al, addrs, p)
	if r := smt.SolveCtx(context.Background(), f, smt.Limits{}); r.Status != smt.StatusSat {
		t.Fatalf("call protocol feasible: %s\n%s", r.Status, f)
	}
}

func TestBooleanValueEncoding(t *testing.T) {
	// A comparison used as a value: x = (a > 3).
	prog, al, addrs := setup(t, `
		int a; int x;
		void main() {
			a = 10;
			x = a > 3;
			if (x == 1) { error; }
		}`)
	p := pathToError(t, prog, false)
	_, f := encodePath(prog, al, addrs, p)
	if r := smt.SolveCtx(context.Background(), f, smt.Limits{}); r.Status != smt.StatusSat {
		t.Fatalf("boolean value: %s\n%s", r.Status, f)
	}
}

// Property: over many paths of a branching program, the solver verdict
// on the trace encoding must match the interpreter's ability to execute
// the trace from the decoded model (SAT case) and brute-force search
// over small initial states (UNSAT case: no state executes it).
func TestEncoderAgainstInterpreter(t *testing.T) {
	src := `
		int a; int b;
		void main() {
			if (a > 0) { b = a + 1; } else { b = 0 - a; }
			if (b > 2) {
				if (a == 2) { error; }
			}
		}`
	prog, al, addrs := setup(t, src)
	target := prog.ErrorLocs()[0]
	// Enumerate several paths by varying bounds.
	paths := []cfa.Path{
		cfa.FindPath(prog, target, cfa.FindOptions{}),
		cfa.FindPath(prog, target, cfa.FindOptions{PreferLong: true}),
	}
	for pi, p := range paths {
		if p == nil {
			continue
		}
		enc, f := encodePath(prog, al, addrs, p)
		r := smt.SolveCtx(context.Background(), f, smt.Limits{})
		switch r.Status {
		case smt.StatusSat:
			st := interp.NewState(prog, addrs)
			for k, v := range enc.DecodeInitialState(r.Model, prog) {
				st.Set(k, v)
			}
			if !st.CanExecuteTrace(p.Ops(), interp.ZeroInputs{}) {
				t.Errorf("path %d: model does not replay", pi)
			}
		case smt.StatusUnsat:
			// Brute force small initial states.
			for a := int64(-4); a <= 4; a++ {
				st := interp.NewState(prog, addrs)
				st.Set("a", a)
				if st.CanExecuteTrace(p.Ops(), interp.ZeroInputs{}) {
					t.Errorf("path %d: solver says unsat but a=%d executes it", pi, a)
				}
			}
		}
	}
}

// opByString digs the built CFA edge with the given op rendering out of
// a function, so WP tests use exactly what the builder produced.
func opByString(t *testing.T, prog *cfa.Program, fn, opStr string) cfa.Op {
	t.Helper()
	for _, e := range prog.Funcs[fn].Edges {
		if e.Op.String() == opStr {
			return e.Op
		}
	}
	var all string
	for _, e := range prog.Funcs[fn].Edges {
		all += e.Op.String() + "\n"
	}
	t.Fatalf("no op %q in %s; have:\n%s", opStr, fn, all)
	return cfa.Op{}
}

func TestWPOpFig3(t *testing.T) {
	prog, al, addrs := setup(t, `int x; int y; void main() { x = y + 1; assume(x > 0); }`)
	phi := logic.Cmp{Op: logic.CmpEq, X: logic.Var{Name: "x"}, Y: logic.Const{V: 3}}
	fresh := 0
	// WP(x == 3, x := y + 1) == (y + 1 == 3).
	assignOp := opByString(t, prog, "main", "x := (y + 1)")
	got := wp.WPOp(phi, assignOp, al, addrs, &fresh)
	yEq := func(k int64) logic.Formula {
		return logic.Cmp{Op: logic.CmpEq, X: logic.Var{Name: "y"}, Y: logic.Const{V: k}}
	}
	if r := smt.SolveCtx(context.Background(), logic.MkAnd(got, yEq(2)), smt.Limits{}); r.Status != smt.StatusSat {
		t.Fatalf("WP %s: y=2 should satisfy", got)
	}
	if r := smt.SolveCtx(context.Background(), logic.MkAnd(got, yEq(5)), smt.Limits{}); r.Status != smt.StatusUnsat {
		t.Fatalf("WP %s: y=5 must not satisfy", got)
	}
	// WP over assume: conjunction (WP(φ, assume p) = φ ∧ p).
	assumeOp := opByString(t, prog, "main", "assume((x > 0))")
	got2 := wp.WPOp(phi, assumeOp, al, addrs, &fresh)
	r := smt.SolveCtx(context.Background(), got2, smt.Limits{})
	if r.Status != smt.StatusSat || r.Model["x"] != 3 {
		t.Fatalf("WP over assume: %s, model %v", got2, r.Model)
	}
	// WP over call/return: identity.
	callOp := cfa.Op{Kind: cfa.OpCall, Callee: "main"}
	if g := wp.WPOp(phi, callOp, al, addrs, &fresh); !logic.Equal(g, phi) {
		t.Fatalf("WP over call must be identity: %s", g)
	}
	retOp := cfa.Op{Kind: cfa.OpReturn}
	if g := wp.WPOp(phi, retOp, al, addrs, &fresh); !logic.Equal(g, phi) {
		t.Fatalf("WP over return must be identity: %s", g)
	}
}

// WPTrace over a simple trace must be satisfiable exactly when the
// trace is feasible.
func TestWPTraceMatchesEncoder(t *testing.T) {
	src := `
		int x;
		void main() {
			x = 1;
			x = x + 2;
			if (x == 3) { error; }
		}`
	prog, al, addrs := setup(t, src)
	p := pathToError(t, prog, false)
	phi := wp.WPTrace(logic.True, p.Ops(), al, addrs)
	if r := smt.SolveCtx(context.Background(), phi, smt.Limits{}); r.Status != smt.StatusSat {
		t.Fatalf("WP.true over feasible trace must be sat: %s (%s)", r.Status, phi)
	}
	// Make it infeasible.
	src2 := `
		int x;
		void main() {
			x = 1;
			x = x + 2;
			if (x == 4) { error; }
		}`
	prog2, al2, addrs2 := setup(t, src2)
	p2 := pathToError(t, prog2, false)
	phi2 := wp.WPTrace(logic.True, p2.Ops(), al2, addrs2)
	if r := smt.SolveCtx(context.Background(), phi2, smt.Limits{}); r.Status != smt.StatusUnsat {
		t.Fatalf("WP.true over infeasible trace must be unsat: %s (%s)", r.Status, phi2)
	}
}
