package smt

import (
	"context"
	"testing"

	"pathslice/internal/logic"
)

func TestUnsatCoreBasic(t *testing.T) {
	s := NewSolver()
	x, y := v("x"), v("y")
	s.Assert(ge(x, c(0)))      // irrelevant
	s.Assert(eq(y, c(5)))      // core
	s.Assert(le(x, c(100)))    // irrelevant
	s.Assert(ne(y, c(5)))      // core
	s.Assert(gt(x, sub(y, y))) // irrelevant
	if r := s.Check(); r.Status != StatusUnsat {
		t.Fatalf("status: %s", r.Status)
	}
	core, idx := s.UnsatCore()
	if len(core) != 2 {
		t.Fatalf("core size %d (want 2): %v", len(core), core)
	}
	if idx[0] != 1 || idx[1] != 3 {
		t.Errorf("core indices: %v", idx)
	}
	// The core itself must be unsat.
	if r := SolveCtx(context.Background(), logic.MkAnd(core...), Limits{}); r.Status != StatusUnsat {
		t.Error("core is not unsat")
	}
}

func TestUnsatCoreOnSatIsNil(t *testing.T) {
	s := NewSolver()
	s.Assert(ge(v("x"), c(0)))
	if r := s.Check(); r.Status != StatusSat {
		t.Fatal("should be sat")
	}
	if core, idx := s.UnsatCore(); core != nil || idx != nil {
		t.Error("core on sat must be nil")
	}
}

func TestUnsatCoreChain(t *testing.T) {
	// A chain x0=0, x1=x0+1, ..., and a contradiction with only the
	// final element: the core must include the whole defining chain but
	// drop unrelated assertions.
	s := NewSolver()
	s.Assert(eq(v("a"), c(42))) // unrelated
	s.Assert(eq(v("x0"), c(0)))
	s.Assert(eq(v("x1"), add(v("x0"), c(1))))
	s.Assert(eq(v("x2"), add(v("x1"), c(1))))
	s.Assert(eq(v("x2"), c(5)))
	if r := s.Check(); r.Status != StatusUnsat {
		t.Fatal("should be unsat")
	}
	core, idx := s.UnsatCore()
	if len(core) != 4 {
		t.Fatalf("core: %v", core)
	}
	for _, i := range idx {
		if i == 0 {
			t.Error("unrelated assertion in core")
		}
	}
}

func TestUnsatCoreSingleton(t *testing.T) {
	s := NewSolver()
	s.Assert(ge(v("x"), c(0)))
	s.Assert(logic.False)
	if r := s.Check(); r.Status != StatusUnsat {
		t.Fatal("should be unsat")
	}
	core, _ := s.UnsatCore()
	if len(core) != 1 || !logic.Equal(core[0], logic.False) {
		t.Errorf("core: %v", core)
	}
}
