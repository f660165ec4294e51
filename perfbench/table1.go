package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pathslice/internal/cegar"
	"pathslice/internal/cfa"
	"pathslice/internal/instrument"
	"pathslice/internal/lang/parser"
	"pathslice/internal/lang/types"
	"pathslice/internal/logic"
	"pathslice/internal/obs"
	"pathslice/internal/synth"
)

// The table1 workload: the Table 1 CEGAR suite at the artifact scale,
// one client in a closed loop. One op is one cluster check (a fresh
// cegar.Checker, Check on every error location); ops run in whole
// passes over the suite's clusters, in an order drawn from the seed.
// The programs themselves are the fixed synth profiles, so every pass
// does identical work and the planted verdicts are the known answers.

const (
	t1Scale   = 0.12
	t1MaxWork = 30000
	// t1SetupReps is how many times set-up runs; setup_s is the median.
	t1SetupReps = 3
)

// t1WantRows is the safe/error/timeout count per row that the synth
// profiles plant at scale 0.12 (the known answer the op verdicts are
// derived from).
var t1WantRows = map[string][3]int{
	"fcron": {1, 0, 0}, "wuftpd": {3, 1, 0}, "make": {2, 0, 0},
	"privoxy": {1, 1, 0}, "ijpeg": {3, 0, 0}, "openssh": {3, 0, 0},
}

type t1Cluster struct {
	row, fn string
	prog    *cfa.Program
	want    cegar.Verdict
	ref     *t1Counts // exact counts of the warm-up pass
}

// t1Counts are the exact per-op counts the determinism guard compares.
type t1Counts struct {
	calls, work, refinements, memoHits, cacheHits, cacheMisses int64
}

// plantedVerdict is the verdict a check function's planted pattern
// implies. Functions without a planted pattern are safe.
func plantedVerdict(p synth.Profile, fn string) cegar.Verdict {
	idx, err := strconv.Atoi(strings.TrimPrefix(fn, "check"))
	if err != nil || !strings.HasPrefix(fn, "check") {
		return cegar.VerdictSafe
	}
	switch p.Patterns[idx] {
	case synth.PatternNullCheckMissing, synth.PatternDoubleClose, synth.PatternUseAfterClose:
		return cegar.VerdictUnsafe
	case synth.PatternDiverging:
		return cegar.VerdictTimeout
	}
	return cegar.VerdictSafe
}

// compileSuite generates and compiles every cluster of the suite.
func compileSuite() ([]*t1Cluster, frontend, error) {
	var fe frontend
	start := time.Now()
	var out []*t1Cluster
	for _, p := range synth.PaperProfiles(t1Scale) {
		src := synth.Generate(p)
		t0 := time.Now()
		ast, err := parser.Parse([]byte(src))
		fe.parse += time.Since(t0)
		if err != nil {
			return nil, fe, fmt.Errorf("%s: parse: %w", p.Name, err)
		}
		t0 = time.Now()
		ins, err := instrument.Instrument(ast)
		fe.instrument += time.Since(t0)
		if err != nil {
			return nil, fe, fmt.Errorf("%s: instrument: %w", p.Name, err)
		}
		for _, cl := range ins.Clusters {
			t0 = time.Now()
			cast, err := instrument.ForCluster(ins.Prog, cl.Function)
			fe.instrument += time.Since(t0)
			if err != nil {
				return nil, fe, err
			}
			t0 = time.Now()
			info, err := types.Check(cast)
			fe.typecheck += time.Since(t0)
			if err != nil {
				return nil, fe, fmt.Errorf("%s/%s: typecheck: %w", p.Name, cl.Function, err)
			}
			t0 = time.Now()
			prog, err := cfa.Build(info)
			fe.cfa += time.Since(t0)
			if err != nil {
				return nil, fe, fmt.Errorf("%s/%s: cfa: %w", p.Name, cl.Function, err)
			}
			out = append(out, &t1Cluster{row: p.Name, fn: cl.Function, prog: prog, want: plantedVerdict(p, cl.Function)})
		}
	}
	fe.total = time.Since(start)
	return out, fe, nil
}

// checkPlantedRows verifies the expected verdicts add up to the known
// Table 1 rows, so a mislabelled cluster cannot pass silently.
func checkPlantedRows(cs []*t1Cluster) error {
	got := make(map[string][3]int)
	for _, c := range cs {
		r := got[c.row]
		switch c.want {
		case cegar.VerdictSafe:
			r[0]++
		case cegar.VerdictUnsafe:
			r[1]++
		default:
			r[2]++
		}
		got[c.row] = r
	}
	for row, want := range t1WantRows {
		if got[row] != want {
			return fmt.Errorf("table1: row %s plants %v, want %v", row, got[row], want)
		}
	}
	if len(got) != len(t1WantRows) {
		return fmt.Errorf("table1: %d rows, want %d", len(got), len(t1WantRows))
	}
	return nil
}

// checkCluster is one op: a fresh checker over every error location,
// stopping at the first violation like the paper's error rows.
func checkCluster(c *t1Cluster, rec *recorder) (cegar.Verdict, t1Counts) {
	root := rec.beginOp("table1.op")
	sp := rec.begin(root, "cegar.new")
	checker := cegar.New(c.prog, cegar.Options{UseSlicing: true, MaxWork: t1MaxWork})
	rec.end(sp)
	verdict := cegar.VerdictSafe
	var n t1Counts
	for _, loc := range c.prog.ErrorLocs() {
		sp = rec.begin(root, "cegar.check")
		r := checker.Check(loc)
		rec.end(sp)
		n.calls += r.SolverCalls
		n.work += int64(r.Work)
		n.refinements += int64(r.Refinements)
		n.memoHits += r.PostMemoHits
		n.cacheHits += r.CacheHits
		n.cacheMisses += r.CacheMisses
		switch r.Verdict {
		case cegar.VerdictUnsafe:
			verdict = cegar.VerdictUnsafe
		case cegar.VerdictTimeout, cegar.VerdictDiverged, cegar.VerdictUnknown:
			verdict = cegar.VerdictTimeout
		}
		if verdict == cegar.VerdictUnsafe {
			break
		}
	}
	rec.end(root)
	return verdict, n
}

// t1MinPasses gives a run at least one latency window (120 ops) even
// when the host runs slow.
const t1MinPasses = 8

// t1Passes returns the passFunc of the suite: step s checks every
// cluster once, in the s-th order drawn from rng, and installs obs's
// phase tracer while a traced pass runs.
func t1Passes(cs []*t1Cluster, rng *rand.Rand, tracer *obs.Tracer) passFunc {
	var orders [][]int
	return func(step int, w *window, rec *recorder) error {
		for len(orders) <= step {
			orders = append(orders, rng.Perm(len(cs)))
		}
		if rec != nil {
			obs.SetTracer(tracer)
			defer obs.SetTracer(nil)
		}
		for _, i := range orders[step] {
			c := cs[i]
			t0 := time.Now()
			v, n := checkCluster(c, rec)
			w.op(c.row, c.row+"/"+c.fn, ms(time.Since(t0)), v == c.want)
			if n != *c.ref {
				return fmt.Errorf("table1: %s/%s counts changed between passes: %+v, first pass %+v", c.row, c.fn, n, *c.ref)
			}
		}
		return nil
	}
}

// setUpSuite is one set-up as a user of the experiments command waits
// for it: compile the corpus, then one warm-up pass that starts from an
// empty logic interner (the interner is process-global, and the first
// pass over it runs ≈25% slower than later ones). It returns
// the clusters with each one's exact counts, for the determinism guard.
func setUpSuite() ([]*t1Cluster, frontend, error) {
	cs, fe, err := compileSuite()
	if err != nil {
		return nil, fe, err
	}
	if err := checkPlantedRows(cs); err != nil {
		return nil, fe, err
	}
	logic.AdvanceInternEpoch()
	logic.CollectInterned(1)
	for _, c := range cs {
		v, n := checkCluster(c, nil)
		if v != c.want {
			return nil, fe, fmt.Errorf("table1: warm-up: %s/%s verdict %v, planted %v", c.row, c.fn, v, c.want)
		}
		c.ref = &n
	}
	return cs, fe, nil
}

func runTable1(cfg runConfig) (*result, error) {
	// Set-up runs t1SetupReps times; setup_s is the median. Every
	// repetition must give every cluster the same exact counts. The last
	// one leaves the interner warm for the timed window.
	var cs []*t1Cluster
	var fes []frontend
	var setups []float64
	for i := 0; i < t1SetupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		c, fe, err := setUpSuite()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		for j := range cs {
			if *c[j].ref != *cs[j].ref {
				return nil, fmt.Errorf("table1: %s/%s counts changed between set-ups: %+v, first %+v", c[j].row, c[j].fn, *c[j].ref, *cs[j].ref)
			}
		}
		cs, fes = c, append(fes, fe)
	}
	rng := rand.New(rand.NewSource(cfg.seed))

	res := &result{}
	if !cfg.trace {
		w, _, err := runPasses(cfg.window, t1MinPasses, nil, t1Passes(cs, rng, nil))
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = w.ops, w.failed
		printKinds("table1", w.kinds)
		setThroughput(res, len(cs), w.passMS)
		// A run holds only ≈25 passes, three or four windows of whole
		// passes, so the window is built op by op instead.
		var ops [][]float64
		for _, v := range w.byOp {
			ops = append(ops, v)
		}
		if err := setFloorLatency(res, ops, (latWindowOps+len(cs)-1)/len(cs)); err != nil {
			return nil, err
		}
		res.set("setup_s", median(setups), "s")
		res.set("peak_rss_mb", median(w.rssMB), "mb")
		return res, nil
	}

	// Traced run: every pass runs untraced and then traced. The traced
	// passes record spans around every public call and install obs's
	// phase tracer for the phases hidden inside Check.
	rec := newRecorder()
	tracer := obs.NewTracer(nil)
	un, tr, err := runPasses(cfg.window, 2, rec, t1Passes(cs, rng, tracer))
	if err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(cfg.work, "spans.jsonl")); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = un.ops+tr.ops, un.failed+tr.failed

	setFrontend(res, fes)
	ops := float64(tr.ops)
	res.set("cegar.check_ms", rec.totalMS("cegar.check")/ops, "ms")
	// Exact counts per pass: every op repeated its set-up counts, or
	// the run would have stopped.
	var pass t1Counts
	for _, c := range cs {
		pass.calls += c.ref.calls
		pass.work += c.ref.work
		pass.refinements += c.ref.refinements
		pass.memoHits += c.ref.memoHits
		pass.cacheHits += c.ref.cacheHits
		pass.cacheMisses += c.ref.cacheMisses
	}
	res.set("cegar.work", float64(pass.work), "count")
	res.set("cegar.refinements", float64(pass.refinements), "count")
	res.set("cegar.post_memo_hits", float64(pass.memoHits), "count")
	res.set("smt.solver_calls", float64(pass.calls), "count")
	res.set("smt.cache_hit_ratio", ratio(float64(pass.cacheHits), float64(pass.cacheHits+pass.cacheMisses)), "ratio")
	phases := make(map[string]time.Duration)
	for _, ps := range tracer.PhaseStats() {
		phases[ps.Phase] = ps.Total
	}
	for _, ph := range []string{obs.PhaseReach, obs.PhaseSMT, obs.PhaseRefine, obs.PhasePathSlice, obs.PhaseFeasibility, obs.PhaseWP} {
		res.set(ph+".ms", ms(phases[ph])/ops, "ms")
	}
	setRuntime(res, un.mem, un.ops)
	res.set("logic.interned_nodes", float64(logic.InternedCount()), "count")
	res.set("obs.overhead_pct", overheadPct(float64(un.ops)/sumF(un.passMS), float64(tr.ops)/sumF(tr.passMS)), "pct")
	return res, nil
}
