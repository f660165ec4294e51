package smt

import (
	"context"
	"errors"
	"testing"

	"pathslice/internal/logic"
)

// fuzzFormula decodes arbitrary bytes into a well-formed logic.Formula
// — a structured-fuzzing front end for the linearizer, which only ever
// sees formulas, not bytes. The grammar deliberately produces the
// shapes linearize.go special-cases: nonlinear products and divisions
// (abstracted to fresh variables), negations, constants on either
// side, and boolean structure for the case-splitter.
type fuzzDecoder struct {
	data []byte
	pos  int
}

func (d *fuzzDecoder) next() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

var fuzzVars = []string{"x", "y", "z", "w"}

func (d *fuzzDecoder) term(depth int) logic.Term {
	b := d.next()
	if depth <= 0 {
		if b%2 == 0 {
			return logic.Const{V: int64(int8(d.next()))}
		}
		return logic.Var{Name: fuzzVars[int(d.next())%len(fuzzVars)]}
	}
	switch b % 8 {
	case 0:
		return logic.Const{V: int64(int8(d.next()))}
	case 1:
		return logic.Var{Name: fuzzVars[int(d.next())%len(fuzzVars)]}
	case 2:
		return logic.Bin{Op: logic.OpAdd, X: d.term(depth - 1), Y: d.term(depth - 1)}
	case 3:
		return logic.Bin{Op: logic.OpSub, X: d.term(depth - 1), Y: d.term(depth - 1)}
	case 4:
		return logic.Bin{Op: logic.OpMul, X: d.term(depth - 1), Y: d.term(depth - 1)}
	case 5:
		return logic.Bin{Op: logic.OpDiv, X: d.term(depth - 1), Y: d.term(depth - 1)}
	case 6:
		return logic.Bin{Op: logic.OpMod, X: d.term(depth - 1), Y: d.term(depth - 1)}
	default:
		return logic.Neg{X: d.term(depth - 1)}
	}
}

func (d *fuzzDecoder) formula(depth int) logic.Formula {
	b := d.next()
	if depth <= 0 || b%5 == 0 {
		return logic.Cmp{Op: logic.CmpOp(d.next() % 6), X: d.term(2), Y: d.term(2)}
	}
	switch b % 5 {
	case 1:
		return logic.MkNot(d.formula(depth - 1))
	case 2:
		return logic.MkAnd(d.formula(depth-1), d.formula(depth-1))
	case 3:
		return logic.MkOr(d.formula(depth-1), d.formula(depth-1))
	default:
		return logic.Bool{V: b%2 == 0}
	}
}

// FuzzLinearize drives the linearizer (and the solver stack behind it)
// with decoded formulas. The contract under fuzzing
// (docs/ROBUSTNESS.md): no panic for any formula, the status is one of
// the three defined values, and a Sat answer comes with a model that
// actually satisfies the original (pre-abstraction) formula.
func FuzzLinearize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte("\x02\x04\x01\x00\x03\x05\x01\x01\x07"))
	f.Add([]byte{2, 2, 4, 1, 0, 1, 1, 0, 3, 0, 5, 1, 2})
	f.Add([]byte{1, 0, 1, 5, 1, 0, 6, 1, 1, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &fuzzDecoder{data: data}
		formula := d.formula(3)
		lim := Limits{MaxLeaves: 200, MaxBBDepth: 12, MaxModels: 8}
		r := SolveCtx(context.Background(), formula, lim)
		// Cross-check the incremental solver: asserting the same formula
		// into a fresh Solver must agree on every decided verdict, and
		// must never answer Unknown where from-scratch solving decides
		// (the fallback guarantees it is at least as strong).
		inc := NewSolverWithLimits(lim)
		inc.Assert(formula)
		ri := inc.Check()
		if r.Status != StatusUnknown {
			if ri.Status == StatusUnknown {
				t.Fatalf("incremental Unknown where scratch decided %v for %s", r.Status, formula)
			}
			if ri.Status != r.Status {
				t.Fatalf("incremental %v vs scratch %v for %s", ri.Status, r.Status, formula)
			}
		}
		switch r.Status {
		case StatusSat:
			// The model may be partial: variables not constrained by
			// the satisfied case-split leaf are free, so any
			// completion works. (When abstraction was used, model
			// validation already bound every variable.)
			model := make(map[string]int64, len(r.Model))
			for k, v := range r.Model {
				model[k] = v
			}
			for _, name := range logic.Vars(formula) {
				if _, ok := model[name]; !ok {
					model[name] = 0
				}
			}
			ok, err := logic.Eval(formula, model)
			if err != nil {
				// Eval is strict: a division by zero anywhere — even
				// in a disjunct the model does not rely on — aborts
				// evaluation, while the solver models division as an
				// abstracted total function. Only that mismatch is
				// tolerated.
				var dz logic.ErrDivByZero
				if errors.As(err, &dz) {
					return
				}
				t.Fatalf("Sat model does not evaluate on %s: %v (model %v)", formula, err, model)
			}
			if !ok {
				t.Fatalf("Sat model falsifies %s (model %v)", formula, model)
			}
		case StatusUnsat, StatusUnknown:
			// Unsat is trusted (abstractions over-approximate); Unknown
			// is always a legal answer under limits.
		default:
			t.Fatalf("undefined status %v for %s", r.Status, formula)
		}
	})
}
