package smt

import (
	"context"
	"math/big"
	"sort"
	"time"

	"pathslice/internal/faults"
	"pathslice/internal/logic"
	"pathslice/internal/obs"
)

// Incremental interface (for the slicer's early-stop optimization and
// the refiner's feasibility checks, §4.2 of the paper — which assumes
// an *incremental* decision procedure).
//
// Unlike the from-scratch SolveCtx, a Solver keeps its decision state
// alive across Check calls:
//
//   - assertions are linearized exactly once, when asserted;
//   - the simplex tableau is retained between checks and warm-started
//     from the last feasible basis — a check after k new assertions
//     re-pivots the existing tableau with k new rows instead of
//     rebuilding and re-solving all n, with a from-scratch rebuild as
//     fallback when warm re-pivoting exhausts its budget;
//   - interval-propagation facts carry forward monotonically within a
//     Push frame (assertions only accumulate, so bounds only tighten),
//     seeded by the delta instead of recomputed;
//   - Push/Pop are trail-based: Pop undoes the recorded deltas (bound
//     changes in the tableau, interval snapshots, slice truncations)
//     rather than discarding the solver state.
//
// The engine handles pure conjunctions of (in)equalities natively —
// the shape every trace-formula assertion has. Assertions with
// residual boolean structure (Or after NNF; pointer-dereference
// guards) make definitive Sat answers fall back to the case-splitting
// SolveCtx; an Unsat from the conjunctive sub-engine is still final,
// because an unsatisfiable subset refutes the whole conjunction. The
// same fallback runs when the incremental engine answers Unknown for
// any reason other than an expired deadline, so the incremental path
// never *loses* verdicts relative to from-scratch solving (see the
// differential harness in diff_test.go).
//
// Verdict invariants match SolveCtx: Unsat is exact, Sat is validated
// against the original formulas whenever nonlinear abstraction was
// involved, Unknown only on limits, deadlines, or injected faults.

// warmPivotBudget bounds the pivots of a single warm-started simplex
// check (and each branch-and-bound node check). Exhaustion triggers a
// from-scratch tableau rebuild, counted in
// smt_warm_start_rebuilds_total.
const warmPivotBudget = 20000

// Solver is an incremental conjunction of formulas with a persistent
// Unsat state: once the asserted set is unsatisfiable it stays so
// until a Pop removes assertions (Push never clears it — pushing only
// adds assertions, which cannot make an unsatisfiable set satisfiable).
type Solver struct {
	asserted []logic.Formula
	frames   []solverFrame
	lim      Limits
	lastUns  bool
	// Stats
	Checks int

	// Persistent conjunctive engine state.
	lin     *linearizer     // shared across checks: atoms linearized once
	atoms   []LinAtom       // conjunctive atoms of all assertions
	nes     []neAtom        // deferred disequalities
	complex []logic.Formula // assertions with boolean structure (fallback)

	icp      *incICP // monotonic interval propagation state
	icpAtoms int     // atoms already fed to icp

	sx      *simplex
	sxAtoms int  // atoms already realized as tableau rows
	sxGen   int  // bumped on rebuild: frames from older generations drop sx on Pop
	warm    bool // a check has run on the current tableau
}

// solverFrame records the deltas a Pop must undo.
type solverFrame struct {
	nAsserted int
	nAtoms    int
	nNes      int
	nComplex  int
	lastUns   bool
	sxMark    int
	sxAtoms   int
	sxGen     int
	icpAtoms  int
	icpBounds map[string]interval // nil when icp did not exist at Push
}

// NewSolver returns an empty incremental solver.
func NewSolver() *Solver { return &Solver{lin: newLinearizer()} }

// NewSolverWithLimits returns an empty solver with custom limits.
func NewSolverWithLimits(lim Limits) *Solver { return &Solver{lin: newLinearizer(), lim: lim} }

// Assert conjoins f to the asserted set. The formula is interned
// (hash-consed) and decomposed into the persistent conjunctive state
// immediately; the next Check only pays for this delta.
func (s *Solver) Assert(f logic.Formula) {
	f = logic.Intern(f)
	s.asserted = append(s.asserted, f)
	if s.lin == nil {
		s.lin = newLinearizer()
	}
	s.addConjuncts(logic.NNF(logic.Simplify(f)))
}

// addConjuncts splits a normalized assertion into linear atoms,
// deferred disequalities, and residual boolean structure.
func (s *Solver) addConjuncts(f logic.Formula) {
	switch f := f.(type) {
	case logic.Bool:
		if !f.V {
			// An asserted contradiction: the atom 1 ≤ 0.
			s.atoms = append(s.atoms, LinAtom{Kind: AtomLe,
				Expr: LinExpr{Coeffs: map[string]*big.Int{}, Const: big.NewInt(1)}})
		}
	case logic.And:
		for _, g := range f.Fs {
			s.addConjuncts(g)
		}
	case logic.Cmp:
		r := s.lin.cmp(f)
		if len(r.split) == 2 {
			s.nes = append(s.nes, neAtom{lt: r.split[0], gt: r.split[1]})
		} else {
			s.atoms = append(s.atoms, r.atoms...)
		}
	default:
		s.complex = append(s.complex, f)
	}
}

// Push saves the current assertion set. The persistent Unsat flag is
// deliberately retained: a Push only opens the door to *more*
// assertions, which cannot make an unsatisfiable set satisfiable, so
// forgetting the flag would force needless re-solves.
func (s *Solver) Push() {
	fr := solverFrame{
		nAsserted: len(s.asserted),
		nAtoms:    len(s.atoms),
		nNes:      len(s.nes),
		nComplex:  len(s.complex),
		lastUns:   s.lastUns,
		sxAtoms:   s.sxAtoms,
		sxGen:     s.sxGen,
		icpAtoms:  s.icpAtoms,
	}
	if s.sx != nil {
		fr.sxMark = s.sx.mark()
	}
	if s.icp != nil {
		fr.icpBounds = s.icp.snapshotBounds()
	}
	s.frames = append(s.frames, fr)
}

// Pop restores the assertion set to the last Push by undoing the
// recorded deltas; the persistent Unsat flag is restored to its value
// at Push time (the flag described exactly the set Pop restores).
func (s *Solver) Pop() {
	if len(s.frames) == 0 {
		return
	}
	fr := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	s.asserted = s.asserted[:fr.nAsserted]
	s.atoms = s.atoms[:fr.nAtoms]
	s.nes = s.nes[:fr.nNes]
	s.complex = s.complex[:fr.nComplex]
	s.lastUns = fr.lastUns
	if s.sx != nil {
		if s.sxGen != fr.sxGen {
			// The tableau was rebuilt inside the frame: its rows bake in
			// popped assertions, so the trail mark is meaningless. Drop
			// it; the next check rebuilds from the surviving atoms.
			s.sx = nil
			s.sxAtoms = 0
			s.warm = false
		} else {
			s.sx.popTo(fr.sxMark)
			s.sxAtoms = fr.sxAtoms
		}
	}
	if s.icp != nil {
		if fr.icpBounds == nil {
			s.icp = nil
			s.icpAtoms = 0
		} else {
			s.icp.truncate(fr.icpAtoms)
			s.icp.bounds = fr.icpBounds
			s.icpAtoms = fr.icpAtoms
		}
	}
	// The linearizer is kept: abstraction variables for popped nonlinear
	// terms stay bound to the same names, which is consistent (and
	// required — retained atoms may mention them).
}

// Check decides the conjunction of all asserted formulas.
func (s *Solver) Check() Result { return s.CheckCtx(context.Background()) }

// CheckCtx decides the conjunction of all asserted formulas under ctx:
// on cancellation or deadline expiry the verdict is StatusUnknown
// (never recorded as a persistent Unsat).
func (s *Solver) CheckCtx(ctx context.Context) Result {
	if s.lastUns {
		mIncrementalReuse.Inc()
		return Result{Status: StatusUnsat}
	}
	s.Checks++
	if ctx == nil {
		ctx = context.Background()
	}
	lim := s.lim.withDefaults()
	if lim.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lim.Deadline)
		defer cancel()
	}
	r, final := s.checkFast(ctx, lim)
	if !final {
		// Residual boolean structure or an inconclusive incremental
		// answer: decide from scratch with the case-splitting solver.
		r = SolveCtx(ctx, logic.MkAnd(s.asserted...), lim)
	}
	if r.Status == StatusUnsat {
		s.lastUns = true
	}
	return r
}

// checkFast runs the persistent conjunctive engine. final reports
// whether the result is authoritative; when false the caller must
// re-solve from scratch (the span and solve metrics of that path are
// emitted by SolveCtx itself, so this attempt stays silent).
func (s *Solver) checkFast(ctx context.Context, lim Limits) (Result, bool) {
	sp := obs.StartSpan(obs.PhaseSMT)
	defer sp.End()
	start := time.Now()
	// Fault injection, exactly as in SolveCtx (docs/ROBUSTNESS.md).
	if in := faults.Active(); in != nil {
		if in.Should(faults.SolverStall) {
			if d := in.StallDuration(); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-ctx.Done():
					t.Stop()
				case <-t.C:
				}
			}
		}
		if in.Should(faults.SolverUnknown) {
			mSolves.Inc()
			mUnknown.Inc()
			return Result{Status: StatusUnknown}, true
		}
	}
	if s.warm {
		mIncrementalReuse.Inc()
	}
	var st Status
	var model map[string]int64
	if ctx.Err() != nil {
		st = StatusUnknown
	} else {
		st, model = s.solveConj(ctx, lim)
	}
	s.warm = true
	final := st == StatusUnsat ||
		(st == StatusSat && len(s.complex) == 0) ||
		(st == StatusUnknown && ctx.Err() != nil) // re-solving under a dead ctx is pointless
	if !final {
		return Result{Status: StatusUnknown}, false
	}
	mSolves.Inc()
	mSolveNS.ObserveDuration(time.Since(start))
	switch st {
	case StatusSat:
		mSat.Inc()
		return Result{Status: StatusSat, Model: model}, true
	case StatusUnsat:
		mUnsat.Inc()
		return Result{Status: StatusUnsat}, true
	default:
		mUnknown.Inc()
		if ctx.Err() != nil {
			mDeadlineExceeded.Inc()
		}
		return Result{Status: StatusUnknown}, true
	}
}

// solveConj decides the conjunction of the persistent linear atoms and
// deferred disequalities, reusing all state from previous checks.
func (s *Solver) solveConj(ctx context.Context, lim Limits) (Status, map[string]int64) {
	// 1. Delta-seeded interval propagation (sound Unsat pre-filter).
	if s.runICP() == StatusUnsat {
		return StatusUnsat, nil
	}
	// 2. Realize tableau rows for the new atoms (with the per-atom GCD
	// integrality test the from-scratch path also applies).
	if s.ensureRows() == StatusUnsat {
		return StatusUnsat, nil
	}
	// 3. Rational feasibility, warm-started from the retained basis.
	warmAttempt := s.warm
	st := s.sx.checkCtx(ctx, warmPivotBudget)
	if st == StatusUnknown && ctx.Err() == nil {
		mWarmStartRebuilds.Inc()
		if s.rebuild() == StatusUnsat {
			return StatusUnsat, nil
		}
		st = s.sx.checkCtx(ctx, s.sx.maxPivots)
	} else if st != StatusUnknown && warmAttempt {
		mWarmStartHits.Inc()
	}
	switch st {
	case StatusUnsat:
		return StatusUnsat, nil
	case StatusUnknown:
		return StatusUnknown, nil
	}
	// 4. Integrality and lazy disequality splitting, branching by
	// pushing trailed bounds/rows onto the retained tableau.
	leaves := 0
	// The tableau was just decided feasible above; the top-level leaf
	// must not re-check it (preChecked) — on the hot early-stop path
	// that second full-tableau scan would double the cost of a check.
	st, bigModel := s.leafInc(ctx, lim, &leaves, s.nes, true)
	mLeafChecks.Add(int64(leaves))
	if st != StatusSat {
		return st, nil
	}
	model := make(map[string]int64, len(bigModel))
	for name, v := range bigModel {
		if !v.IsInt64() {
			return StatusUnknown, nil
		}
		model[name] = v.Int64()
	}
	if s.lin.used {
		// Nonlinear abstraction was involved: the candidate model must
		// satisfy the original formulas. A failure degrades to Unknown
		// and the caller's from-scratch fallback runs the full
		// multi-model search.
		mModelValid.Inc()
		if !s.validateConj(model) {
			return StatusUnknown, nil
		}
	}
	return StatusSat, projectModel(model)
}

// runICP feeds the new atoms into the persistent propagation state and
// propagates from them.
func (s *Solver) runICP() Status {
	if s.icp == nil {
		s.icp = newIncICP()
	}
	var seed []int
	for ; s.icpAtoms < len(s.atoms); s.icpAtoms++ {
		if ca, ok := convertICPAtom(s.atoms[s.icpAtoms]); ok {
			seed = append(seed, s.icp.add(ca))
		}
	}
	if len(seed) == 0 {
		return StatusUnknown // no delta: prior fixpoint still holds
	}
	return s.icp.propagate(seed)
}

// ensureRows appends tableau rows for atoms not yet realized. It
// returns StatusUnsat when a new atom is integer-infeasible on its own
// (GCD test / contradictory constant).
func (s *Solver) ensureRows() Status {
	if s.sx == nil {
		s.sx = newSimplex()
		s.sx.recording = true
		s.sxAtoms = 0
		s.warm = false
	}
	st := StatusUnknown
	for ; s.sxAtoms < len(s.atoms); s.sxAtoms++ {
		a := s.atoms[s.sxAtoms]
		if gcdInfeasible(a) {
			st = StatusUnsat // keep realizing rows so sxAtoms stays in sync
		}
		addAtomRow(s.sx, a)
	}
	return st
}

// rebuild discards the tableau and realizes every live atom afresh —
// the fallback when warm re-pivoting exhausts its budget.
func (s *Solver) rebuild() Status {
	s.sxGen++
	s.sx = nil
	return s.ensureRows()
}

// addAtomRow adds one normalized atom as a bounded slack row.
func addAtomRow(sx *simplex, a LinAtom) {
	rhs := new(big.Rat).SetInt(new(big.Int).Neg(a.Expr.Const))
	switch a.Kind {
	case AtomLe:
		sx.addConstraint(a.Expr.Coeffs, nil, rhs)
	case AtomEq:
		sx.addConstraint(a.Expr.Coeffs, rhs, rhs)
	}
}

// gcdInfeasible reports whether a single atom is integer-infeasible by
// itself: a contradictory constant atom, or an equality Σ cᵢxᵢ = k
// with gcd(cᵢ) ∤ k.
func gcdInfeasible(a LinAtom) bool {
	if len(a.Expr.Coeffs) == 0 {
		if a.Kind == AtomEq {
			return a.Expr.Const.Sign() != 0
		}
		return a.Expr.Const.Sign() > 0
	}
	if a.Kind != AtomEq {
		return false
	}
	g := new(big.Int)
	first := true
	for _, c := range a.Expr.Coeffs {
		if first {
			g.Abs(c)
			first = false
		} else {
			g.GCD(nil, nil, g, new(big.Int).Abs(c))
		}
	}
	if g.Sign() > 0 {
		rem := new(big.Int).Mod(new(big.Int).Neg(a.Expr.Const), g)
		return rem.Sign() != 0
	}
	return false
}

// leafInc is the incremental counterpart of searcher.leaf: decide the
// tableau, branch-and-bound for integrality, and lazily split on a
// disequality the candidate model violates. All branching is done by
// pushing trailed state onto the retained tableau and popping it on
// the way out.
func (s *Solver) leafInc(ctx context.Context, lim Limits, leaves *int, nes []neAtom, preChecked bool) (Status, map[string]*big.Int) {
	*leaves++
	if *leaves > lim.MaxLeaves {
		return StatusUnknown, nil
	}
	if ctx != nil && ctx.Err() != nil {
		return StatusUnknown, nil
	}
	if !preChecked {
		switch s.sx.checkCtx(ctx, warmPivotBudget) {
		case StatusUnsat:
			return StatusUnsat, nil
		case StatusUnknown:
			return StatusUnknown, nil
		}
	}
	st, model := s.bbInc(ctx, lim.MaxBBDepth)
	if st != StatusSat {
		return st, nil
	}
	var sum, tmp big.Int // scratch: the scan runs per check over every deferred disequality
	for i, ne := range nes {
		if linAtomHoldsScratch(ne.lt, model, &sum, &tmp) || linAtomHoldsScratch(ne.gt, model, &sum, &tmp) {
			continue
		}
		// Violated: the model makes both sides equal. Branch on the two
		// strict alternatives.
		rest := make([]neAtom, 0, len(nes)-1)
		rest = append(rest, nes[:i]...)
		rest = append(rest, nes[i+1:]...)
		sawUnknown := false
		for _, side := range [2]LinAtom{ne.lt, ne.gt} {
			m := s.sx.mark()
			addAtomRow(s.sx, side)
			st2, model2 := s.leafInc(ctx, lim, leaves, rest, false)
			s.sx.popTo(m)
			if st2 == StatusSat {
				return StatusSat, model2
			}
			if st2 == StatusUnknown {
				sawUnknown = true
			}
		}
		if sawUnknown {
			return StatusUnknown, nil
		}
		return StatusUnsat, nil
	}
	return StatusSat, model
}

// bbInc is branch-and-bound on the retained tableau: instead of
// rebuilding a simplex per node (the from-scratch path), each branch
// pushes one trailed bound, re-pivots, recurses, and pops.
func (s *Solver) bbInc(ctx context.Context, depth int) (Status, map[string]*big.Int) {
	if ctx != nil && ctx.Err() != nil {
		return StatusUnknown, nil
	}
	name, frac := s.fractionalVar()
	if name == "" {
		return StatusSat, s.intModel()
	}
	if depth <= 0 {
		return StatusUnknown, nil
	}
	floor := ratFloor(frac)
	hi := new(big.Rat).SetInt(floor)
	lo := new(big.Rat).SetInt(new(big.Int).Add(floor, big.NewInt(1)))
	st1, m1 := s.bbBranch(ctx, name, nil, hi, depth)
	if st1 == StatusSat {
		return st1, m1
	}
	st2, m2 := s.bbBranch(ctx, name, lo, nil, depth)
	if st2 == StatusSat {
		return st2, m2
	}
	if st1 == StatusUnsat && st2 == StatusUnsat {
		return StatusUnsat, nil
	}
	return StatusUnknown, nil
}

func (s *Solver) bbBranch(ctx context.Context, name string, lo, hi *big.Rat, depth int) (Status, map[string]*big.Int) {
	m := s.sx.mark()
	defer s.sx.popTo(m)
	if !s.sx.setBounds(name, lo, hi) {
		return StatusUnsat, nil
	}
	switch s.sx.checkCtx(ctx, warmPivotBudget) {
	case StatusUnsat:
		return StatusUnsat, nil
	case StatusUnknown:
		return StatusUnknown, nil
	}
	return s.bbInc(ctx, depth-1)
}

// fractionalVar returns the lexicographically smallest named variable
// with a fractional value (the same branching order as the
// from-scratch path, for reproducible statuses).
func (s *Solver) fractionalVar() (string, *big.Rat) {
	names := make([]string, 0, len(s.sx.index))
	for name := range s.sx.index {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := s.sx.val[s.sx.index[name]]
		if !v.IsInt() {
			return name, v
		}
	}
	return "", nil
}

// intModel snapshots the (all-integral) named-variable values.
func (s *Solver) intModel() map[string]*big.Int {
	model := make(map[string]*big.Int, len(s.sx.index))
	for name, id := range s.sx.index {
		model[name] = new(big.Int).Set(s.sx.val[id].Num())
	}
	return model
}

// validateConj checks the candidate model against the original
// asserted formulas (0 for variables the model does not mention).
func (s *Solver) validateConj(model map[string]int64) bool {
	env := make(map[string]int64)
	for _, f := range s.asserted {
		for _, v := range logic.Vars(f) {
			if _, ok := env[v]; !ok {
				env[v] = model[v]
			}
		}
	}
	for _, f := range s.asserted {
		ok, err := logic.Eval(f, env)
		if err != nil || !ok {
			return false
		}
	}
	return true
}

// Assertions returns the number of asserted formulas.
func (s *Solver) Assertions() int { return len(s.asserted) }

// UnsatCore returns a deletion-minimized subset of the asserted
// formulas whose conjunction is still unsatisfiable. It must be called
// after Check has returned StatusUnsat; it returns nil otherwise. The
// indices into the assertion list are returned alongside the formulas
// so callers can map core members back to trace operations.
//
// Minimization is the standard deletion filter: drop each member in
// turn and keep the drop when the rest stays unsat — O(n) solver calls,
// so it is skipped (returning the full set) beyond MaxCoreCandidates.
// Because assertions are interned, the per-member triviality test is a
// pointer comparison rather than a serialization.
func (s *Solver) UnsatCore() ([]logic.Formula, []int) {
	if !s.lastUns {
		return nil, nil
	}
	const maxCoreCandidates = 256
	idx := make([]int, 0, len(s.asserted))
	for i, f := range s.asserted {
		if _, isTrue := f.(logic.Bool); isTrue && logic.Equal(f, logic.True) {
			continue // trivially irrelevant
		}
		idx = append(idx, i)
	}
	if len(idx) > maxCoreCandidates {
		fs := make([]logic.Formula, len(idx))
		for k, i := range idx {
			fs[k] = s.asserted[i]
		}
		return fs, idx
	}
	core := idx
	for k := 0; k < len(core); k++ {
		trial := make([]logic.Formula, 0, len(core)-1)
		for j, i := range core {
			if j == k {
				continue
			}
			trial = append(trial, s.asserted[i])
		}
		s.Checks++
		if SolveCtx(context.Background(), logic.MkAnd(trial...), s.lim).Status == StatusUnsat {
			core = append(core[:k], core[k+1:]...)
			k--
		}
	}
	fs := make([]logic.Formula, len(core))
	for k, i := range core {
		fs[k] = s.asserted[i]
	}
	return fs, core
}
