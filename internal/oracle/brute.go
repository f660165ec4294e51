// Brute-force reference slicer: on tiny traces it enumerates subtraces
// in size order and decides, for each, whether it would be a *sufficient*
// slice — sound (its infeasibility implies the full trace's) and
// complete (every probe state that can execute it reaches the target in
// the full program, or diverges). The smallest sufficient subtrace is an
// independent witness the production slicer is compared against: the
// production slice must itself be sufficient (never unsoundly small),
// and agreement between its size and the brute-force minimum is tracked
// as a corpus statistic.
//
// Completeness is approximated over a probe family (the zero state,
// seeded pseudo-random states over the program's literal values, and
// the solver's model states), with reach outcomes cached per probe —
// evaluating a candidate subtrace then costs one solver call plus a few
// cached lookups. Any sub-check that exhausts its budget makes the
// verdict for that subtrace "unknown", which can cost minimality
// precision but can never produce a false violation.
package oracle

import (
	"context"
	"fmt"
	"math/rand"

	"pathslice/internal/cfa"
	"pathslice/internal/core"
	"pathslice/internal/interp"
	"pathslice/internal/lang/ast"
	"pathslice/internal/smt"
	"pathslice/internal/wp"
)

// BruteOptions bounds the enumeration.
type BruteOptions struct {
	// MaxEdges is the longest path the brute slicer accepts (default 12).
	MaxEdges int
	// MaxCandidates caps how many subtraces are evaluated (default 600).
	MaxCandidates int
	// Probes is the number of pseudo-random probe states (default 4).
	Probes int
	Check  CheckOptions
}

func (o BruteOptions) withDefaults() BruteOptions {
	if o.MaxEdges <= 0 {
		o.MaxEdges = 12
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 600
	}
	if o.Probes <= 0 {
		o.Probes = 4
	}
	o.Check = o.Check.withDefaults()
	return o
}

// BruteReport is the outcome of one brute-force comparison.
type BruteReport struct {
	Ran          bool // false when the path was too long or budgets ran dry
	MinSize      int  // size of the smallest sufficient subtrace (-1 unknown)
	ProdSize     int  // size of the production slice
	Agree        bool // MinSize decided and equal to ProdSize
	Violations   []Violation
	Inconclusive []string
}

type verdict int

const (
	vInsufficient verdict = iota
	vSufficient
	vUnknown
)

// bruteChecker holds the per-pair caches.
type bruteChecker struct {
	prog   *cfa.Program
	slicer *core.Slicer
	path   cfa.Path
	opts   BruteOptions
	probes []*interp.State
	reach  []reachOutcome // cached per probe, lazily computed
	values []int64
	spent  int // candidate budget consumed
}

type reachOutcome struct {
	done       bool
	reached    bool
	exhaustive bool
}

// BruteCompare enumerates subtraces of a tiny path and checks the
// production slice against the minimal sufficient one. fullStatus is
// the stateless verdict for the whole path, already computed by the
// replay oracle.
func BruteCompare(prog *cfa.Program, path cfa.Path, res *core.Result, fullStatus smt.Status, seed int64, opts BruteOptions) *BruteReport {
	opts = opts.withDefaults()
	rep := &BruteReport{MinSize: -1, ProdSize: len(res.Slice)}
	if len(path) > opts.MaxEdges {
		return rep
	}
	rep.Ran = true
	bc := &bruteChecker{
		prog:   prog,
		slicer: core.New(prog), // reference runs without optimizations
		path:   path,
		opts:   opts,
		values: candidateValues(prog),
	}
	bc.buildProbes(seed)

	// The production slice must be sufficient on its own.
	prodIdx := make([]int, 0, len(res.Slice))
	for i, t := range res.Taken {
		if t {
			prodIdx = append(prodIdx, i)
		}
	}
	switch v, why := bc.evaluate(prodIdx, fullStatus); v {
	case vInsufficient:
		rep.Violations = append(rep.Violations, Violation{
			Kind:   "brute",
			Detail: fmt.Sprintf("production slice (%d edges) is not a sufficient subtrace: %s", len(prodIdx), why),
		})
	case vUnknown:
		rep.Inconclusive = append(rep.Inconclusive, "production slice sufficiency undecided: "+why)
	}

	// Minimal sufficient subtrace, smallest-first so the first hit is
	// the minimum. Budget exhaustion or an unknown verdict below the
	// found size leaves MinSize undecided.
	decisive := true
	n := len(path)
	idx := make([]int, 0, n)
	var enumerate func(start, size int) verdict
	enumerate = func(start, size int) verdict {
		if len(idx) == size {
			if bc.spent >= opts.MaxCandidates {
				decisive = false
				return vUnknown
			}
			bc.spent++
			v, _ := bc.evaluate(idx, fullStatus)
			if v == vUnknown {
				decisive = false
			}
			return v
		}
		for i := start; i <= n-(size-len(idx)); i++ {
			idx = append(idx, i)
			v := enumerate(i+1, size)
			idx = idx[:len(idx)-1]
			if v == vSufficient {
				return v
			}
			if bc.spent >= opts.MaxCandidates {
				decisive = false
				return vUnknown
			}
		}
		return vInsufficient
	}
	for size := 0; size <= n; size++ {
		if enumerate(0, size) == vSufficient {
			if decisive {
				rep.MinSize = size
			}
			break
		}
		if !decisive {
			break
		}
	}
	if rep.MinSize >= 0 {
		rep.Agree = rep.MinSize == rep.ProdSize
		if rep.MinSize > rep.ProdSize {
			// The production slice is smaller than any sufficient
			// subtrace — yet it passed its own sufficiency check above;
			// the two can only disagree through an oracle bug.
			rep.Violations = append(rep.Violations, Violation{
				Kind:   "brute",
				Detail: fmt.Sprintf("minimal sufficient size %d exceeds production slice size %d", rep.MinSize, rep.ProdSize),
			})
		}
	} else {
		rep.Inconclusive = append(rep.Inconclusive, "minimal sufficient subtrace undecided within budget")
	}
	return rep
}

// buildProbes seeds the probe family: the zero state plus Probes
// pseudo-random states over the candidate values. Probes are strict
// (satellite: interp.UninitReadError) and seed only the variables the
// path mentions, so a read the path cannot justify surfaces as a typed
// error instead of a silent zero. Pointer variables stay null: a probe
// has no way to guess a meaningful address, and a stuck dereference
// simply means that probe cannot execute the candidate.
func (bc *bruteChecker) buildProbes(seed int64) {
	vars := pathVars(bc.path)
	rng := rand.New(rand.NewSource(seed))
	mk := func(fill func(string) int64) *interp.State {
		st := interp.NewStrictState(bc.prog, bc.slicer.Addrs)
		for _, name := range vars {
			if bc.prog.Types[name] == ast.TypeIntPtr {
				st.Set(name, 0)
				continue
			}
			st.Set(name, fill(name))
		}
		return st
	}
	bc.probes = append(bc.probes, mk(func(string) int64 { return 0 }))
	for i := 0; i < bc.opts.Probes; i++ {
		bc.probes = append(bc.probes, mk(func(string) int64 {
			return bc.values[rng.Intn(len(bc.values))]
		}))
	}
	bc.reach = make([]reachOutcome, len(bc.probes))
}

// evaluate decides sufficiency for one candidate subtrace.
func (bc *bruteChecker) evaluate(idx []int, fullStatus smt.Status) (verdict, string) {
	ops := make([]cfa.Op, len(idx))
	sub := make(cfa.Path, len(idx))
	for i, k := range idx {
		ops[i] = bc.path[k].Op
		sub[i] = bc.path[k]
	}
	enc := wp.NewTraceEncoder(bc.prog, bc.slicer.Alias, bc.slicer.Addrs)
	r := smt.SolveCtx(context.Background(), enc.EncodeTrace(ops), bc.slicer.Opts.SolverLimits)
	switch r.Status {
	case smt.StatusUnknown:
		return vUnknown, "subtrace feasibility unknown"
	case smt.StatusUnsat:
		// Sound only if the full trace is infeasible too.
		switch fullStatus {
		case smt.StatusSat:
			return vInsufficient, "subtrace Unsat but the full trace is Sat"
		case smt.StatusUnknown:
			return vUnknown, "full-trace feasibility unknown"
		}
		return vSufficient, ""
	}
	// Sat: the model state must execute the subtrace and reach the
	// target; so must every probe that can execute it.
	model := interp.NewState(bc.prog, bc.slicer.Addrs)
	for name, v := range enc.DecodeInitialState(r.Model, bc.prog) {
		model.Set(name, v)
	}
	nd := enc.NondetInputs()
	vals := make([]int64, len(nd))
	for i, name := range nd {
		vals[i] = r.Model[name]
	}
	if ok, err := model.Clone().ExecTrace(ops, &interp.SliceInputs{Vals: vals}); err != nil || !ok {
		return vUnknown, "subtrace Sat model does not replay"
	}
	searchVals := append([]int64{}, bc.values...)
	for _, v := range vals {
		searchVals = addValue(searchVals, v)
	}
	reached, exhaustive := searchReach(bc.prog, model, bc.path.Target(), searchVals, bc.opts.Check)
	if !reached && exhaustive {
		return vInsufficient, "subtrace Sat model cannot reach the target"
	}
	if !reached {
		return vUnknown, "model reach search inconclusive"
	}
	for pi, probe := range bc.probes {
		ok := bc.probeExecutes(probe, ops)
		if !ok {
			continue
		}
		out := bc.probeReach(pi, probe)
		switch {
		case out.reached:
		case out.exhaustive:
			return vInsufficient, fmt.Sprintf("probe %d executes the subtrace but cannot reach the target", pi)
		default:
			return vUnknown, fmt.Sprintf("probe %d reach search inconclusive", pi)
		}
	}
	return vSufficient, ""
}

// probeExecutes reports whether some small input sequence lets the
// probe state execute the candidate subtrace. Strict-mode uninit reads
// and stuck executions count as cannot-execute.
func (bc *bruteChecker) probeExecutes(probe *interp.State, ops []cfa.Op) bool {
	nondets := 0
	for _, op := range ops {
		nondets += countNondets(op)
	}
	if nondets > 2 {
		nondets = 2 // budget: deeper input spaces fall back to prefixes
	}
	var try func(prefix []int64, depth int) bool
	try = func(prefix []int64, depth int) bool {
		if ok, err := probe.Clone().ExecTrace(ops, &interp.SliceInputs{Vals: prefix}); err == nil && ok {
			return true
		}
		if depth == 0 {
			return false
		}
		for _, v := range bc.values {
			if try(append(prefix, v), depth-1) {
				return true
			}
		}
		return false
	}
	return try(nil, nondets)
}

// probeReach runs (and caches) the reach search for one probe. Reach
// uses a non-strict copy of the probe's values: whole-program execution
// legitimately reads unseeded globals as zero.
func (bc *bruteChecker) probeReach(pi int, probe *interp.State) reachOutcome {
	if bc.reach[pi].done {
		return bc.reach[pi]
	}
	st := interp.NewState(bc.prog, bc.slicer.Addrs)
	for name, v := range probe.Vals {
		st.Set(name, v)
	}
	reached, exhaustive := searchReach(bc.prog, st, bc.path.Target(), bc.values, bc.opts.Check)
	bc.reach[pi] = reachOutcome{done: true, reached: reached, exhaustive: exhaustive}
	return bc.reach[pi]
}

// pathVars collects every variable the path's operations mention.
func pathVars(p cfa.Path) []string {
	set := map[string]bool{}
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Ident:
			set[e.Name] = true
		case *ast.Unary:
			walk(e.X)
		case *ast.Binary:
			walk(e.X)
			walk(e.Y)
		}
	}
	for _, e := range p {
		if e.Op.LHS.Var != "" {
			set[e.Op.LHS.Var] = true
		}
		walk(e.Op.Pred)
		walk(e.Op.RHS)
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	return out
}

func countNondets(op cfa.Op) int {
	n := 0
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Nondet:
			n++
		case *ast.Unary:
			walk(e.X)
		case *ast.Binary:
			walk(e.X)
			walk(e.Y)
		}
	}
	walk(op.Pred)
	walk(op.RHS)
	return n
}
