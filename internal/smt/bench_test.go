package smt

import (
	"context"
	"fmt"
	"testing"

	"pathslice/internal/logic"
)

// chainLink returns the assertion x_i = x_{i-1} + 1 (x_0 = 1), the
// shape a backward trace encoding produces for a chain of assignments.
func chainLink(i int) logic.Formula {
	if i == 0 {
		return logic.Cmp{Op: logic.CmpEq, X: logic.Var{Name: "x0"}, Y: logic.Const{V: 1}}
	}
	return logic.Cmp{Op: logic.CmpEq,
		X: logic.Var{Name: fmt.Sprintf("x%d", i)},
		Y: logic.Bin{Op: logic.OpAdd, X: logic.Var{Name: fmt.Sprintf("x%d", i-1)}, Y: logic.Const{V: 1}}}
}

// BenchmarkSolverIncremental measures the early-stop access pattern of
// the slicer (§4.2): assert one operation, check, repeat — n checks
// over a growing conjunction. The incremental engine pays O(delta) per
// check; the from-scratch comparator re-solves the whole prefix every
// time, which is quadratic in total.
func BenchmarkSolverIncremental(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("incremental/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := NewSolver()
				for j := 0; j < n; j++ {
					s.Assert(chainLink(j))
					if r := s.Check(); r.Status != StatusSat {
						b.Fatalf("link %d: %v", j, r.Status)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("scratch/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var fs []logic.Formula
				for j := 0; j < n; j++ {
					fs = append(fs, chainLink(j))
					if r := SolveCtx(context.Background(), logic.MkAnd(fs...), Limits{}); r.Status != StatusSat {
						b.Fatalf("link %d: %v", j, r.Status)
					}
				}
			}
		})
	}
}

// BenchmarkSolverIncrementalUnsatTail is the payoff case: a long
// satisfiable prefix with a contradiction at the end. The sticky-unsat
// flag then answers every later check for free.
func BenchmarkSolverIncrementalUnsatTail(b *testing.B) {
	const n = 128
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSolver()
		for j := 0; j < n; j++ {
			s.Assert(chainLink(j))
		}
		s.Assert(logic.Cmp{Op: logic.CmpLe, X: logic.Var{Name: fmt.Sprintf("x%d", n-1)}, Y: logic.Const{V: 0}})
		if r := s.Check(); r.Status != StatusUnsat {
			b.Fatalf("tail: %v", r.Status)
		}
		for j := 0; j < 64; j++ {
			s.Assert(chainLink(n + j))
			if r := s.Check(); r.Status != StatusUnsat {
				b.Fatalf("sticky check %d: %v", j, r.Status)
			}
		}
	}
}
