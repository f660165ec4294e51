package wp_test

// Golden tests for the encoding of pointer writes through may-aliased
// pointers — the case Section 3's Tr function handles with the
// case-split over the points-to set. The exact formula text is pinned
// down for both traversal directions: the forward SSA encoding
// (EncodeOp, used by CheckFeasibility) and the backward encoding
// (EncodeOpBackward, used by the incremental early-unsat stop). A
// change to either shape shows up here as a readable string diff, and
// an equisatisfiability check guards against "both changed, both
// wrong".

import (
	"context"
	"testing"

	"pathslice/internal/cfa"
	"pathslice/internal/logic"
	"pathslice/internal/smt"
	"pathslice/internal/wp"
)

func TestAliasedWriteEncodingGolden(t *testing.T) {
	cases := []struct {
		name string
		src  string
		// Expected encoding of the (single) `*p = rhs` op on the path.
		wantFwd string
		wantBwd string
	}{
		{
			// One must-alias target: the case split degenerates to
			// "p points at a, so a gets the value", but the guard
			// disjuncts are still emitted.
			name: "single-target",
			src: `
				int a; int *p;
				void main() {
					a = 3;
					p = &a;
					*p = 5;
					if (a == 5) { error; }
				}`,
			wantFwd: "(((p@1 != 1) || (a@2 == 5)) && ((p@1 == 1) || (a@2 == a@1)) && (p@1 == 1))",
			wantBwd: "(((p@0 != 1) || (a@0 == 5)) && ((p@0 == 1) || (a@0 == a@1)) && (p@0 == 1))",
		},
		{
			// Two may-alias targets: each target x gets the update
			// clause (p==&x => x'=rhs) plus the frame clause
			// (p!=&x => x'=x), and the final disjunct says p must
			// point at one of them (no wild writes).
			name: "two-targets",
			src: `
				int x; int y; int *p;
				void main() {
					x = 1;
					y = 2;
					if (nondet() > 0) { p = &x; } else { p = &y; }
					*p = 5;
					if (x == 5) { error; }
				}`,
			wantFwd: "(((p@1 != 2) || (x@2 == 5)) && ((p@1 == 2) || (x@2 == x@1)) && ((p@1 != 3) || (y@2 == 5)) && ((p@1 == 3) || (y@2 == y@1)) && ((p@1 == 2) || (p@1 == 3)))",
			wantBwd: "(((p@0 != 2) || (x@0 == 5)) && ((p@0 == 2) || (x@0 == x@1)) && ((p@0 != 3) || (y@0 == 5)) && ((p@0 == 3) || (y@0 == y@1)) && ((p@0 == 2) || (p@0 == 3)))",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, al, addrs := setup(t, tc.src)
			path := pathToError(t, prog, false)
			ops := path.Ops()

			derefAt := -1
			for i, op := range ops {
				if op.Kind == cfa.OpAssign && op.LHS.Deref {
					if derefAt >= 0 {
						t.Fatalf("more than one pointer write on the path (%d and %d)", derefAt, i)
					}
					derefAt = i
				}
			}
			if derefAt < 0 {
				t.Fatal("no pointer write on the path")
			}

			// Forward: encode every op in trace order, pin the deref's text.
			fwd := wp.NewTraceEncoder(prog, al, addrs)
			var fwdAll []logic.Formula
			for i, op := range ops {
				f := fwd.EncodeOp(op)
				fwdAll = append(fwdAll, f)
				if i == derefAt && f.String() != tc.wantFwd {
					t.Errorf("forward encoding drifted:\n got  %s\n want %s", f, tc.wantFwd)
				}
			}

			// Backward: a fresh encoder, ops in reverse (how the
			// early-unsat stop asserts them into the solver).
			bwd := wp.NewTraceEncoder(prog, al, addrs)
			var bwdAll []logic.Formula
			for i := len(ops) - 1; i >= 0; i-- {
				f := bwd.EncodeOpBackward(ops[i])
				bwdAll = append(bwdAll, f)
				if i == derefAt && f.String() != tc.wantBwd {
					t.Errorf("backward encoding drifted:\n got  %s\n want %s", f, tc.wantBwd)
				}
			}

			// Both directions must agree on feasibility (here: Sat —
			// every case's trace is concretely executable).
			rf := smt.SolveCtx(context.Background(), logic.MkAnd(fwdAll...), smt.Limits{})
			rb := smt.SolveCtx(context.Background(), logic.MkAnd(bwdAll...), smt.Limits{})
			if rf.Status != smt.StatusSat || rb.Status != smt.StatusSat {
				t.Errorf("feasible trace: forward %v, backward %v, want sat/sat", rf.Status, rb.Status)
			}
		})
	}
}

// TestAliasedWriteInfeasibleBothDirections pins the soundness half: a
// trace made infeasible only by the aliased write (the overwritten
// pre-value survives in the guard) must be Unsat under both encodings.
func TestAliasedWriteInfeasibleBothDirections(t *testing.T) {
	prog, al, addrs := setup(t, `
		int a; int *p;
		void main() {
			a = 3;
			p = &a;
			*p = 5;
			if (a == 3) { error; }
		}`)
	path := pathToError(t, prog, false)
	ops := path.Ops()

	fwd := wp.NewTraceEncoder(prog, al, addrs)
	if r := smt.SolveCtx(context.Background(), fwd.EncodeTrace(ops), smt.Limits{}); r.Status != smt.StatusUnsat {
		t.Errorf("forward: overwritten guard value should be unsat, got %v", r.Status)
	}
	bwd := wp.NewTraceEncoder(prog, al, addrs)
	var fs []logic.Formula
	for i := len(ops) - 1; i >= 0; i-- {
		fs = append(fs, bwd.EncodeOpBackward(ops[i]))
	}
	if r := smt.SolveCtx(context.Background(), logic.MkAnd(fs...), smt.Limits{}); r.Status != smt.StatusUnsat {
		t.Errorf("backward: overwritten guard value should be unsat, got %v", r.Status)
	}
}
