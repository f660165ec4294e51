package smt

import (
	"context"
	"sync"
	"testing"
	"time"

	"pathslice/internal/faults"
	"pathslice/internal/logic"
)

// TestMaxLeavesExhaustionIsUnknown drives the MaxLeaves exit: an unsat
// disjunctive formula whose refutation needs several theory leaves must
// answer Unknown — not Unsat — when the leaf budget is too small for
// all branches, and Unsat once the budget suffices.
func TestMaxLeavesExhaustionIsUnknown(t *testing.T) {
	// (x=0 ∨ x=1) ∧ (x=2 ∨ x=3): unsat, 4 leaves to refute.
	f := logic.MkAnd(
		logic.MkOr(eq(v("x"), c(0)), eq(v("x"), c(1))),
		logic.MkOr(eq(v("x"), c(2)), eq(v("x"), c(3))),
	)
	if st := SolveCtx(context.Background(), f, Limits{MaxLeaves: 1}).Status; st != StatusUnknown {
		t.Fatalf("MaxLeaves=1: got %v, want Unknown", st)
	}
	if st := SolveCtx(context.Background(), f, Limits{MaxLeaves: 100}).Status; st != StatusUnsat {
		t.Fatalf("MaxLeaves=100: got %v, want Unsat", st)
	}
}

// TestMaxBBDepthExhaustionIsUnknown drives the branch-and-bound depth
// exit: 2x+4y ≥ 3 ∧ 2x+4y ≤ 3 is rationally feasible on an infinite
// line but has no integer point, and bounding one variable always
// leaves the other fractional — so every finite depth must give up
// with Unknown rather than claim Sat or Unsat.
func TestMaxBBDepthExhaustionIsUnknown(t *testing.T) {
	line := logic.Bin{Op: logic.OpAdd,
		X: logic.Bin{Op: logic.OpMul, X: c(2), Y: v("x")},
		Y: logic.Bin{Op: logic.OpMul, X: c(4), Y: v("y")}}
	f := logic.MkAnd(ge(line, c(3)), le(line, c(3)))
	for _, depth := range []int{1, 2, 5} {
		if st := SolveCtx(context.Background(), f, Limits{MaxBBDepth: depth}).Status; st != StatusUnknown {
			t.Fatalf("MaxBBDepth=%d: got %v, want Unknown", depth, st)
		}
	}
}

// TestMaxModelsExhaustionIsUnknown drives the model-validation exit:
// x*x = 3 has no integer solution, but the linearizer abstracts the
// product, so candidate models keep failing validation. The solver
// must give up with Unknown — Sat would be wrong, and Unsat unprovable
// through the abstraction.
func TestMaxModelsExhaustionIsUnknown(t *testing.T) {
	f := eq(logic.Bin{Op: logic.OpMul, X: v("x"), Y: v("x")}, c(3))
	for _, mm := range []int{1, 4} {
		if st := SolveCtx(context.Background(), f, Limits{MaxModels: mm}).Status; st == StatusSat {
			t.Fatalf("MaxModels=%d: got Sat for unsatisfiable x*x=3", mm)
		}
	}
}

// TestCancelledContextIsUnknown: a context cancelled before the solve
// starts must answer Unknown immediately.
func TestCancelledContextIsUnknown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if st := SolveCtx(ctx, eq(v("x"), c(1)), Limits{}).Status; st != StatusUnknown {
		t.Fatalf("cancelled ctx: got %v, want Unknown", st)
	}
}

// TestStalledSolverReturnsWithinDeadline simulates a hung decision
// procedure: every solve stalls for 30s, the deadline is 50ms, and the
// call must return Unknown well within deadline + slack.
func TestStalledSolverReturnsWithinDeadline(t *testing.T) {
	prev := faults.Install(faults.New(faults.Config{
		Seed:  1,
		Rates: map[faults.Kind]float64{faults.SolverStall: 1},
		Stall: 30 * time.Second,
	}))
	defer faults.Install(prev)

	start := time.Now()
	r := SolveCtx(context.Background(), eq(v("x"), c(1)), Limits{Deadline: 50 * time.Millisecond})
	elapsed := time.Since(start)
	if r.Status != StatusUnknown {
		t.Fatalf("stalled solve: got %v, want Unknown", r.Status)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("stalled solve took %v, want deadline (50ms) + slack", elapsed)
	}
}

// TestInjectedUnknownNeverFlipsVerdicts: with solver-unknown faults at
// 50%, every definitive answer that does come back must still be the
// correct one.
func TestInjectedUnknownNeverFlipsVerdicts(t *testing.T) {
	prev := faults.Install(faults.New(faults.Config{
		Seed:  42,
		Rates: map[faults.Kind]float64{faults.SolverUnknown: 0.5},
	}))
	defer faults.Install(prev)

	sat := eq(v("x"), c(7))
	unsat := logic.MkAnd(eq(v("x"), c(1)), eq(v("x"), c(2)))
	sawInjected := false
	for i := 0; i < 40; i++ {
		if st := SolveCtx(context.Background(), sat, Limits{}).Status; st != StatusSat {
			if st != StatusUnknown {
				t.Fatalf("sat formula answered %v", st)
			}
			sawInjected = true
		}
		if st := SolveCtx(context.Background(), unsat, Limits{}).Status; st != StatusUnsat {
			if st != StatusUnknown {
				t.Fatalf("unsat formula answered %v", st)
			}
			sawInjected = true
		}
	}
	if !sawInjected {
		t.Fatal("0 of 80 solves faulted at a 50% injection rate")
	}
}

// TestCacheConcurrentWithInjectedEvictions hammers one shared cache
// from many goroutines while every second lookup has its entry evicted
// first: all verdicts must stay correct and evictions must actually
// fire. The race detector (make race covers this package) checks the
// locking.
func TestCacheConcurrentWithInjectedEvictions(t *testing.T) {
	prev := faults.Install(faults.New(faults.Config{
		Seed:  3,
		Rates: map[faults.Kind]float64{faults.CacheEvict: 0.5},
	}))
	defer faults.Install(prev)

	type tc struct {
		f    logic.Formula
		want Status
	}
	var cases []tc
	for i := int64(0); i < 8; i++ {
		cases = append(cases,
			tc{eq(v("x"), c(i)), StatusSat},
			tc{logic.MkAnd(eq(v("x"), c(i)), eq(v("x"), c(i+1))), StatusUnsat},
		)
	}
	cache := NewCache(64)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for _, tc := range cases {
					if st := CachedSolveCtx(context.Background(), cache, tc.f, Limits{}).Status; st != tc.want {
						select {
						case errs <- st.String() + " != " + tc.want.String():
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("verdict changed under injected evictions: %s", e)
	}
	if ev := cache.Stats().Evictions; ev == 0 {
		t.Fatal("no evictions fired at a 50% injection rate")
	}
}

// TestUnknownIsNeverCached: an injected Unknown must not poison the
// cache — the next lookup of the same formula re-solves and gets the
// real verdict.
func TestUnknownIsNeverCached(t *testing.T) {
	f := eq(v("x"), c(5))
	cache := NewCache(16)
	prev := faults.Install(faults.New(faults.Config{
		Seed:  9,
		Rates: map[faults.Kind]float64{faults.SolverUnknown: 1},
	}))
	if st := CachedSolveCtx(context.Background(), cache, f, Limits{}).Status; st != StatusUnknown {
		faults.Install(prev)
		t.Fatalf("forced-unknown solve answered %v", st)
	}
	faults.Install(prev)
	if st := CachedSolveCtx(context.Background(), cache, f, Limits{}).Status; st != StatusSat {
		t.Fatalf("post-fault solve answered %v, want Sat (unknown must not be cached)", st)
	}
}
