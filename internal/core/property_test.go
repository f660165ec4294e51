package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pathslice/internal/alias"
	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/core"
	"pathslice/internal/interp"
	"pathslice/internal/smt"
	"pathslice/internal/wp"
)

// randProgram emits a random small MiniC program with globals set from
// nondet() up front (so the solver's model fully determines execution),
// bounded loops, branches, helper calls, and one error statement under
// data conditions. All loops terminate.
func randProgram(r *rand.Rand) string {
	var b strings.Builder
	nGlobals := 2 + r.Intn(3)
	for i := 0; i < nGlobals; i++ {
		fmt.Fprintf(&b, "int g%d;\n", i)
	}
	gvar := func() string { return fmt.Sprintf("g%d", r.Intn(nGlobals)) }
	expr := func() string {
		switch r.Intn(4) {
		case 0:
			return fmt.Sprintf("%d", r.Intn(9)-4)
		case 1:
			return gvar()
		case 2:
			return fmt.Sprintf("%s + %d", gvar(), r.Intn(5)-2)
		default:
			return fmt.Sprintf("%s - %s", gvar(), gvar())
		}
	}
	cond := func() string {
		ops := []string{"<", "<=", ">", ">=", "==", "!="}
		return fmt.Sprintf("%s %s %s", gvar(), ops[r.Intn(len(ops))], expr())
	}
	// A helper that may or may not touch a global.
	touches := r.Intn(2) == 0
	fmt.Fprintf(&b, "void helper() {\n")
	fmt.Fprintf(&b, "  int t = 0;\n  for (int i = 0; i < %d; i = i + 1) { t = t + i; }\n", 1+r.Intn(4))
	if touches {
		fmt.Fprintf(&b, "  %s = t;\n", gvar())
	}
	fmt.Fprintf(&b, "}\n")

	// Globals are left uninitialized: their initial values are the
	// unconstrained inputs, so the solver model's version-0 values fully
	// determine a (nondet-free) execution.
	fmt.Fprintf(&b, "void main() {\n")
	var stmt func(depth int)
	stmt = func(depth int) {
		switch r.Intn(6) {
		case 0:
			fmt.Fprintf(&b, "  %s = %s;\n", gvar(), expr())
		case 1:
			fmt.Fprintf(&b, "  if (%s) {\n", cond())
			stmt(depth + 1)
			fmt.Fprintf(&b, "  } else {\n")
			stmt(depth + 1)
			fmt.Fprintf(&b, "  }\n")
		case 2:
			v := fmt.Sprintf("w%d", r.Intn(1000))
			fmt.Fprintf(&b, "  for (int %s = 0; %s < %d; %s = %s + 1) { %s = %s + 1; }\n",
				v, v, 1+r.Intn(4), v, v, gvar(), gvar())
		case 3:
			fmt.Fprintf(&b, "  helper();\n")
		default:
			fmt.Fprintf(&b, "  %s = %s;\n", gvar(), expr())
		}
	}
	n := 3 + r.Intn(4)
	for i := 0; i < n; i++ {
		stmt(0)
	}
	fmt.Fprintf(&b, "  if (%s) {\n    if (%s) {\n      error;\n    }\n  }\n", cond(), cond())
	fmt.Fprintf(&b, "}\n")
	return b.String()
}

// TestTheorem1OnRandomPrograms checks the paper's Theorem 1 on a corpus
// of random programs and candidate paths:
//
//	sound:    UNSAT(slice) => UNSAT(path)
//	complete: SAT(slice)   => the model's initial state concretely
//	          reaches the target (all generated loops terminate, so
//	          the "modulo termination" caveat is vacuous here)
func TestTheorem1OnRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	programs := 0
	pathsChecked := 0
	for i := 0; i < 120 && programs < 60; i++ {
		src := randProgram(r)
		prog, err := compile.Source(src)
		if err != nil {
			t.Fatalf("generated program invalid: %v\n%s", err, src)
		}
		locs := prog.ErrorLocs()
		if len(locs) == 0 {
			continue
		}
		target := locs[0]
		var paths []cfa.Path
		if p := cfa.FindPath(prog, target, cfa.FindOptions{}); p != nil {
			paths = append(paths, p)
		}
		if p := cfa.WalkLongPath(prog, target, 2, 0); p != nil {
			paths = append(paths, p)
		}
		if len(paths) == 0 {
			continue
		}
		programs++
		slicer := core.New(prog)
		for _, path := range paths {
			pathsChecked++
			res, err := slicer.Slice(path)
			if err != nil {
				t.Fatalf("slice: %v\n%s", err, src)
			}
			if !path.Subsequence(res.Slice) {
				t.Fatalf("not a subsequence\n%s", src)
			}
			rs, enc := slicer.CheckFeasibility(res.Slice)
			rp, _ := slicer.CheckFeasibility(path)
			// Soundness.
			if rs.Status == smt.StatusUnsat && rp.Status == smt.StatusSat {
				t.Fatalf("SOUNDNESS violation:\n%s\npath:\n%s\nslice:\n%s", src, path, res.Slice)
			}
			// Monotonicity: a feasible path has a feasible slice.
			if rp.Status == smt.StatusSat && rs.Status == smt.StatusUnsat {
				t.Fatalf("feasible path, infeasible slice:\n%s", src)
			}
			// Completeness, concretely.
			if rs.Status == smt.StatusSat {
				st := interp.NewState(prog, slicer.Addrs)
				for k, v := range enc.DecodeInitialState(rs.Model, prog) {
					st.Set(k, v)
				}
				run := interp.Run(prog, st, interp.ZeroInputs{},
					interp.RunOptions{MaxSteps: 200000})
				if !run.ReachedError {
					t.Fatalf("COMPLETENESS violation: feasible slice but model state does not reach target\n%s\nmodel: %v\nslice:\n%s",
						src, rs.Model, res.Slice)
				}
			}
		}
	}
	if programs < 30 {
		t.Fatalf("too few usable random programs: %d", programs)
	}
	t.Logf("checked %d programs, %d paths", programs, pathsChecked)
}

// TestBackwardEncoderMatchesForward verifies that the backward SSA
// encoding used by the early-stop optimization is equisatisfiable with
// the forward encoding, on slices of random programs.
func TestBackwardEncoderMatchesForward(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	checked := 0
	for i := 0; i < 60 && checked < 25; i++ {
		src := randProgram(r)
		prog, err := compile.Source(src)
		if err != nil {
			t.Fatal(err)
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
		slicer := core.New(prog)
		res, err := slicer.Slice(path)
		if err != nil {
			t.Fatal(err)
		}
		al := alias.Analyze(prog)
		addrs := wp.NewAddrMap(prog)
		fwd := wp.NewTraceEncoder(prog, al, addrs)
		fFwd := fwd.EncodeTrace(res.Slice.Ops())
		bwd := wp.NewTraceEncoder(prog, al, addrs)
		solver := smt.NewSolver()
		ops := res.Slice.Ops()
		for j := len(ops) - 1; j >= 0; j-- {
			solver.Assert(bwd.EncodeOpBackward(ops[j]))
		}
		rf := smt.SolveCtx(context.Background(), fFwd, smt.Limits{})
		rb := solver.Check()
		if rf.Status != rb.Status {
			t.Fatalf("forward %s vs backward %s\n%s\nslice:\n%s",
				rf.Status, rb.Status, src, res.Slice)
		}
	}
	if checked < 10 {
		t.Fatalf("too few cases: %d", checked)
	}
}

// TestSliceNeverGrowsWithSkipFunctions is the §4.2 guarantee: the
// optimization only removes edges.
func TestSliceNeverGrowsWithSkipFunctions(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 30; i++ {
		src := randProgram(r)
		prog, err := compile.Source(src)
		if err != nil {
			t.Fatal(err)
		}
		locs := prog.ErrorLocs()
		if len(locs) == 0 {
			continue
		}
		path := cfa.FindPath(prog, locs[0], cfa.FindOptions{})
		if path == nil {
			continue
		}
		base, err := core.New(prog).Slice(path)
		if err != nil {
			t.Fatal(err)
		}
		skip, err := core.NewWithOptions(prog, core.Options{SkipFunctions: true}).Slice(path)
		if err != nil {
			t.Fatal(err)
		}
		if skip.Stats.SliceEdges > base.Stats.SliceEdges {
			t.Fatalf("SkipFunctions grew the slice (%d > %d)\n%s",
				skip.Stats.SliceEdges, base.Stats.SliceEdges, src)
		}
		// Soundness of the skip slice still holds.
		rs, _ := core.New(prog).CheckFeasibility(skip.Slice)
		rp, _ := core.New(prog).CheckFeasibility(path)
		if rs.Status == smt.StatusUnsat && rp.Status == smt.StatusSat {
			t.Fatalf("skip slice unsound\n%s", src)
		}
	}
}
