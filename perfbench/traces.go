package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pathslice/internal/bench"
	"pathslice/internal/cfa"
	"pathslice/internal/core"
	"pathslice/internal/interp"
	"pathslice/internal/lang/parser"
	"pathslice/internal/lang/types"
	"pathslice/internal/smt"
	"pathslice/internal/wp"
)

// The traces workload: recorded counterexample traces sliced the way a
// pathslice CLI user pays for it, one client in a closed loop. One op
// reads one trace file, slices it with a fresh core.Slicer (frame
// summaries on) and decides feasibility of the slice. The corpus
// rotates in a fixed order over sequential gcc-class PSTRC01 traces
// (≈10k/20k/40k ops) and threaded PSTRC02 traces of a scaled-up
// concurrency twin; the seed picks the threads' recorded
// interleavings. The known answers hold by construction: the
// call-heavy traces are infeasible (the guard needs a million loop
// iterations) and the twins are feasible (every interleaving reaches
// the error). Each streamed, summarized slice must also keep exactly
// the edges of the plain in-memory walk made once in set-up.

// trUnrolls are the WalkLongPath bounds of the sequential traces
// (≈330 ops per unrolling of bench.DefaultGccConfig).
var trUnrolls = []int{30, 60, 120}

// trTwin is the threaded subject, scaled up from
// bench.DefaultConcTwinConfig so the threaded traces take about half
// of the workload's busy time.
var trTwin = bench.ConcTwinConfig{Workers: 14, BodyOps: 4}

// trInterleavings is how many recorded interleavings of the twin the
// corpus holds. Successive passes cycle through all of them, so a run
// averages over the seed's interleavings.
const trInterleavings = 32

// trSeqOrder lists the sequential traces of one pass, by index into
// trUnrolls: 3 of ≈10k, 3 of ≈20k and 5 of ≈40k ops. A threaded trace
// follows each of the first trConcPerPass of them, so a pass is 20 ops.
// Ordered by op time, the 10k and 20k traces fill the lowest 30% of
// ops, and p50 falls well inside the threaded traces (45% of ops)
// instead of on their edge.
var trSeqOrder = []int{0, 2, 1, 2, 0, 2, 1, 2, 0, 1, 2}

const trConcPerPass = 9

// trSetupReps is how many times set-up builds the corpus.
const trSetupReps = 5

type trItem struct {
	name     string
	threaded bool
	file     string
	prog     *cfa.Program
	// Known answers: the verdict by construction and, for sequential
	// traces, the plain walk's slice size.
	want      smt.Status
	wantSlice int
	ref       *trCounts // exact counts of the set-up op
}

type trCounts struct {
	walked, racy, regions, sliceEdges, summHits, summLookups int
}

func compileTimed(src string, fe *frontend) (*cfa.Program, error) {
	t0 := time.Now()
	ast, err := parser.Parse([]byte(src))
	fe.parse += time.Since(t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	info, err := types.Check(ast)
	fe.typecheck += time.Since(t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	prog, err := cfa.Build(info)
	fe.cfa += time.Since(t0)
	return prog, err
}

// trCorpus is the recorded corpus: the sequential traces and the
// threaded interleavings.
type trCorpus struct {
	seq, con []*trItem
}

// pass returns the items of pass p in rotation order.
func (c *trCorpus) pass(p int) []*trItem {
	items := make([]*trItem, 0, len(trSeqOrder)+trConcPerPass)
	for i, s := range trSeqOrder {
		items = append(items, c.seq[s])
		if i < trConcPerPass {
			items = append(items, c.con[(p*trConcPerPass+i)%len(c.con)])
		}
	}
	return items
}

// buildTraceCorpus compiles both subjects, records every trace to a
// file under dir and computes the sequential reference slices.
func buildTraceCorpus(dir string, seed int64) (*trCorpus, frontend, error) {
	var fe frontend
	start := time.Now()
	seqProg, err := compileTimed(bench.CallHeavySource(bench.DefaultGccConfig()), &fe)
	if err != nil {
		return nil, fe, fmt.Errorf("traces: call-heavy subject: %w", err)
	}
	conProg, err := compileTimed(bench.ConcTwinSource(trTwin, true), &fe)
	if err != nil {
		return nil, fe, fmt.Errorf("traces: threaded twin: %w", err)
	}
	target := seqProg.ErrorLocs()[0]

	var seq, con []*trItem
	for _, k := range trUnrolls {
		path := cfa.WalkLongPath(seqProg, target, k, 0)
		if path == nil {
			return nil, fe, fmt.Errorf("traces: no unroll-%d path", k)
		}
		it := &trItem{
			name: fmt.Sprintf("seq-k%d", k), file: filepath.Join(dir, fmt.Sprintf("seq-k%d.pstrc", k)),
			prog: seqProg, want: smt.StatusUnsat,
		}
		if err := cfa.WriteTraceFile(it.file, seqProg, path); err != nil {
			return nil, fe, err
		}
		plain, err := core.New(seqProg).Slice(path)
		if err != nil {
			return nil, fe, err
		}
		it.wantSlice = plain.Stats.SliceEdges
		seq = append(seq, it)
	}
	// Distinct interleavings drawn from the seed; every one reaches
	// the error, since the guard holds under any schedule.
	sched := uint64(seed) * 1000003
	for len(con) < trInterleavings {
		sched++
		st := interp.NewState(conProg, wp.NewAddrMap(conProg))
		run := interp.ConcRun(conProg, st, &interp.SliceInputs{}, interp.ConcRunOptions{RecordTrace: true, Seed: sched})
		if !run.ReachedError {
			return nil, fe, fmt.Errorf("traces: twin interleaving %d missed the error", sched)
		}
		it := &trItem{
			name: fmt.Sprintf("conc-%d", len(con)), threaded: true,
			file: filepath.Join(dir, fmt.Sprintf("conc-%d.pstrc", len(con))),
			prog: conProg, want: smt.StatusSat,
		}
		if err := cfa.WriteConcTraceFile(it.file, conProg, run.Trace); err != nil {
			return nil, fe, err
		}
		con = append(con, it)
	}
	fe.total = time.Since(start)
	return &trCorpus{seq: seq, con: con}, fe, nil
}

// sliceTrace is one op. It returns the feasibility verdict and the
// exact counts, and records spans when rec is non-nil.
func sliceTrace(it *trItem, rec *recorder) (smt.Status, trCounts, error) {
	root := rec.beginOp("traces.op")
	defer rec.end(root)
	sp := rec.begin(root, "core.new")
	sl := core.NewWithOptions(it.prog, core.Options{Summaries: true})
	rec.end(sp)
	var n trCounts
	if !it.threaded {
		sp = rec.begin(root, "cfa.decode")
		r, err := cfa.OpenTraceFile(it.file, it.prog)
		rec.end(sp)
		if err != nil {
			return 0, n, err
		}
		sp = rec.begin(root, "core.slice")
		res, err := sl.SliceStream(context.Background(), r)
		rec.end(sp)
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, n, err
		}
		n.walked, n.sliceEdges = res.Stats.WalkedEdges, res.Stats.SliceEdges
		n.summHits, n.summLookups = res.Stats.SummaryHits, res.Stats.SummaryHits+res.Stats.SummaryMisses
		sp = rec.begin(root, "core.feasibility")
		fr, _ := sl.CheckFeasibility(res.Slice)
		rec.end(sp)
		return fr.Status, n, nil
	}
	sp = rec.begin(root, "cfa.decode")
	data, err := os.ReadFile(it.file)
	var tr cfa.ConcTrace
	if err == nil {
		tr, err = cfa.DecodeConcTrace(data, it.prog)
	}
	rec.end(sp)
	if err != nil {
		return 0, n, err
	}
	if rec != nil {
		// The racy-edge pass runs inside ConcSlice; the traced run times
		// it once more on its own to attribute it.
		sp = rec.begin(root, "core.racy_edges")
		sl.RacyEdges(tr)
		rec.end(sp)
	}
	sp = rec.begin(root, "core.conc_slice")
	res, err := sl.ConcSlice(tr)
	rec.end(sp)
	if err != nil {
		return 0, n, err
	}
	n.walked, n.sliceEdges = res.Stats.WalkedEdges, res.Stats.SliceEdges
	n.racy, n.regions = res.Stats.RacyEdges, res.Stats.Regions
	sp = rec.begin(root, "core.feasibility")
	fr, _ := sl.CheckConcFeasibility(res.Slice)
	rec.end(sp)
	return fr.Status, n, nil
}

// trMinPasses gives a run at least one latency window.
const trMinPasses = 5

// trPasses returns the passFunc of the corpus: step s runs the items of
// pass s and checks each against its known answer and exact counts.
func trPasses(c *trCorpus) passFunc {
	return func(step int, w *window, rec *recorder) error {
		for _, it := range c.pass(step) {
			t0 := time.Now()
			st, n, err := sliceTrace(it, rec)
			lat := ms(time.Since(t0))
			if err != nil {
				return fmt.Errorf("traces: %s: %w", it.name, err)
			}
			if n != *it.ref {
				return fmt.Errorf("traces: %s counts changed between passes: %+v, set-up %+v", it.name, n, *it.ref)
			}
			kind := it.name
			if it.threaded {
				kind = "conc"
			}
			w.op(kind, it.name, lat, st == it.want && (it.threaded || n.sliceEdges == it.wantSlice))
		}
		return nil
	}
}

func runTraces(cfg runConfig) (*result, error) {
	// Set-up, repeated trSetupReps times: record the corpus and run one
	// untimed op per trace, which records the exact counts every later
	// op must repeat. setup_s is the median repetition.
	var corpus *trCorpus
	var fes []frontend
	var setups []float64
	for i := 0; i < trSetupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		c, fe, err := buildTraceCorpus(cfg.work, cfg.seed)
		if err != nil {
			return nil, err
		}
		for _, it := range append(c.seq, c.con...) {
			st, n, err := sliceTrace(it, nil)
			if err != nil {
				return nil, fmt.Errorf("traces: %s: %w", it.name, err)
			}
			if st != it.want || (!it.threaded && n.sliceEdges != it.wantSlice) {
				return nil, fmt.Errorf("traces: set-up: %s answered %v with %d slice edges, want %v", it.name, st, n.sliceEdges, it.want)
			}
			it.ref = &n
		}
		setups = append(setups, time.Since(t0).Seconds())
		corpus, fes = c, append(fes, fe)
	}

	res := &result{}
	if !cfg.trace {
		w, _, err := runPasses(cfg.window, trMinPasses, nil, trPasses(corpus))
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = w.ops, w.failed
		printKinds("traces", w.kinds)
		setThroughput(res, len(corpus.pass(0)), w.passMS)
		if err := setPassLatency(res, w.lat, len(corpus.pass(0))); err != nil {
			return nil, err
		}
		res.set("setup_s", median(setups), "s")
		res.set("peak_rss_mb", median(w.rssMB), "mb")
		return res, nil
	}

	rec := newRecorder()
	un, tr, err := runPasses(cfg.window, 2, rec, trPasses(corpus))
	if err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(cfg.work, "spans.jsonl")); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = un.ops+tr.ops, un.failed+tr.failed

	setFrontend(res, fes)
	self := rec.selfMS()
	conOps := float64(len(tr.kinds["conc"]))
	ops := float64(tr.ops)
	seqOps := ops - conOps
	res.set("cfa.decode_ms", self["cfa.decode"]/ops, "ms")
	res.set("core.slice_ms", self["core.slice"]/seqOps, "ms")
	res.set("core.racy_edges_ms", self["core.racy_edges"]/conOps, "ms")
	res.set("core.conc_slice_ms", self["core.conc_slice"]/conOps, "ms")
	res.set("core.feasibility_ms", self["core.feasibility"]/ops, "ms")
	// Exact counts, summed over the corpus with each trace once (every
	// op repeated its set-up counts, or the run would have stopped).
	var all trCounts
	for _, it := range append(corpus.seq, corpus.con...) {
		all.walked += it.ref.walked
		all.racy += it.ref.racy
		all.regions += it.ref.regions
		all.summHits += it.ref.summHits
		all.summLookups += it.ref.summLookups
	}
	res.set("core.walked_edges", float64(all.walked), "count")
	res.set("core.racy_edges", float64(all.racy), "count")
	res.set("core.regions", float64(all.regions), "count")
	res.set("summ.hit_ratio", ratio(float64(all.summHits), float64(all.summLookups)), "ratio")
	var seqLat []float64
	for k, v := range un.kinds {
		if k != "conc" {
			seqLat = append(seqLat, v...)
		}
	}
	res.set("traces.seq_ms_p50", median(seqLat), "ms")
	res.set("traces.conc_ms_p50", median(un.kinds["conc"]), "ms")
	setRuntime(res, un.mem, un.ops)
	// The traced passes' extra RacyEdges calls are attribution work,
	// not tracing cost: leave them out of the comparison.
	trBusy := sumF(tr.passMS) - rec.totalMS("core.racy_edges")
	res.set("obs.overhead_pct", overheadPct(float64(un.ops)/sumF(un.passMS), float64(tr.ops)/trBusy), "pct")
	return res, nil
}
