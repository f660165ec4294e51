package wp_test

import (
	"context"
	"testing"

	"pathslice/internal/alias"
	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/logic"
	"pathslice/internal/smt"
	"pathslice/internal/wp"
)

func TestAddrMapBasics(t *testing.T) {
	prog := compile.MustSource(`int a; int b; int *p; void main() { p = &a; }`)
	m := wp.NewAddrMap(prog)
	seen := map[int64]string{}
	for name := range prog.Types {
		addr, err := m.Addr(name)
		if err != nil {
			t.Fatalf("Addr(%s): %v", name, err)
		}
		if addr == 0 {
			t.Errorf("%s has the null address", name)
		}
		if prev, dup := seen[addr]; dup {
			t.Errorf("address collision: %s and %s at %d", prev, name, addr)
		}
		seen[addr] = name
		back, ok := m.VarAt(addr)
		if !ok || back != name {
			t.Errorf("VarAt(%d) = %q, want %q", addr, back, name)
		}
	}
	if _, ok := m.VarAt(1 << 40); ok {
		t.Error("phantom variable at unused address")
	}
	if _, err := m.Addr("nonexistent"); err == nil {
		t.Error("Addr of unknown variable must return an error")
	} else if _, ok := err.(*wp.UnknownVarError); !ok {
		t.Errorf("Addr error has type %T, want *wp.UnknownVarError", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddr of unknown variable must panic")
		}
	}()
	m.MustAddr("nonexistent")
}

func TestDecodeInitialStateDefaults(t *testing.T) {
	prog := compile.MustSource(`int a; int b; void main() { if (a == 5) { error; } }`)
	al := alias.Analyze(prog)
	addrs := wp.NewAddrMap(prog)
	enc := wp.NewTraceEncoder(prog, al, addrs)
	path := cfa.FindPathToError(prog, cfa.FindOptions{})
	f := enc.EncodeTrace(path.Ops())
	r := smt.SolveCtx(context.Background(), f, smt.Limits{})
	if r.Status != smt.StatusSat {
		t.Fatalf("status: %s", r.Status)
	}
	init := enc.DecodeInitialState(r.Model, prog)
	if init["a"] != 5 {
		t.Errorf("a must be 5 initially: %v", init)
	}
	// b is unconstrained and must still be present (defaulted).
	if _, ok := init["b"]; !ok {
		t.Error("unconstrained variable missing from decoded state")
	}
}

func TestEncoderNames(t *testing.T) {
	prog := compile.MustSource(`int x; void main() { x = 1; x = 2; }`)
	al := alias.Analyze(prog)
	enc := wp.NewTraceEncoder(prog, al, wp.NewAddrMap(prog))
	if got := enc.InitialName("x"); got != "x@0" {
		t.Errorf("initial name: %s", got)
	}
	if got := enc.CurrentName("x"); got != "x@0" {
		t.Errorf("current before any op: %s", got)
	}
	main := prog.Funcs["main"]
	for _, e := range main.Edges {
		enc.EncodeOp(e.Op)
	}
	if got := enc.CurrentName("x"); got != "x@2" {
		t.Errorf("current after two assignments: %s", got)
	}
}

func TestWPTraceHavocOnAmbiguousStore(t *testing.T) {
	// With a two-target pointer, the backward WP havocs: the result
	// must still be an over-approximation (SAT whenever the precise
	// encoding is SAT).
	prog := compile.MustSource(`
		int x; int y; int *p;
		void main() {
			x = 0;
			if (nondet()) { p = &x; } else { p = &y; }
			*p = 3;
			if (x == 3) { error; }
		}`)
	al := alias.Analyze(prog)
	addrs := wp.NewAddrMap(prog)
	path := cfa.FindPathToError(prog, cfa.FindOptions{})
	enc := wp.NewTraceEncoder(prog, al, addrs)
	precise := smt.SolveCtx(context.Background(), enc.EncodeTrace(path.Ops()), smt.Limits{})
	havoc := smt.SolveCtx(context.Background(), wp.WPTrace(logic.True, path.Ops(), al, addrs), smt.Limits{})
	if precise.Status == smt.StatusSat && havoc.Status == smt.StatusUnsat {
		t.Fatal("havoc WP must over-approximate the precise encoding")
	}
}

func TestNotAsValueEncoding(t *testing.T) {
	// x = !y as a value.
	prog := compile.MustSource(`
		int x; int y;
		void main() {
			y = 0;
			x = !y;
			if (x == 1) { error; }
		}`)
	al := alias.Analyze(prog)
	addrs := wp.NewAddrMap(prog)
	path := cfa.FindPathToError(prog, cfa.FindOptions{})
	enc := wp.NewTraceEncoder(prog, al, addrs)
	if r := smt.SolveCtx(context.Background(), enc.EncodeTrace(path.Ops()), smt.Limits{}); r.Status != smt.StatusSat {
		t.Fatalf("!0 == 1: %s", r.Status)
	}
	prog2 := compile.MustSource(`
		int x; int y;
		void main() {
			y = 7;
			x = !y;
			if (x == 1) { error; }
		}`)
	al2 := alias.Analyze(prog2)
	addrs2 := wp.NewAddrMap(prog2)
	path2 := cfa.FindPathToError(prog2, cfa.FindOptions{})
	enc2 := wp.NewTraceEncoder(prog2, al2, addrs2)
	if r := smt.SolveCtx(context.Background(), enc2.EncodeTrace(path2.Ops()), smt.Limits{}); r.Status != smt.StatusUnsat {
		t.Fatalf("!7 == 0, not 1: %s", r.Status)
	}
}

func TestDivModInTraces(t *testing.T) {
	prog := compile.MustSource(`
		int x;
		void main() {
			x = 17;
			int q = x / 5;
			int m = x % 5;
			if (q == 3) {
				if (m == 2) { error; }
			}
		}`)
	al := alias.Analyze(prog)
	addrs := wp.NewAddrMap(prog)
	path := cfa.FindPathToError(prog, cfa.FindOptions{})
	enc := wp.NewTraceEncoder(prog, al, addrs)
	r := smt.SolveCtx(context.Background(), enc.EncodeTrace(path.Ops()), smt.Limits{})
	if r.Status == smt.StatusUnsat {
		t.Fatalf("17/5 = 3 rem 2; trace must not be unsat")
	}
}
