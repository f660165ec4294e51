package bench

import (
	"fmt"
	"strings"
	"time"

	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/core"
	"pathslice/internal/interp"
	"pathslice/internal/wp"
)

// Concurrency twin benchmark: the same workload emitted twice, once
// with the workers spawned as threads and once with them called in
// sequence (spawn f() -> f(), join dropped). Any interleaving of the
// threaded twin executes the same per-worker operations as the
// serialized twin, so the cross-thread walk (docs/CONCURRENCY.md) has
// a like-for-like baseline: the extra cost of slicing over racy edges
// is the walked-edge ratio between the two, and cmd/benchdiff gates
// that ratio at 1.5x.

// ConcTwinConfig shapes the twin workload.
type ConcTwinConfig struct {
	// Workers is the number of spawned (or serially called) worker
	// procedures. Each touches its own global, so the racy edges are
	// the worker->main result reads plus the sync edges.
	Workers int
	// BodyOps is the count of straight-line local ops per worker body,
	// bulking up the per-thread segments the walker must traverse.
	BodyOps int
}

// DefaultConcTwinConfig is the shape `make bench-json` records:
// 3 workers x 40 body ops, ~190 trace events.
func DefaultConcTwinConfig() ConcTwinConfig {
	return ConcTwinConfig{Workers: 3, BodyOps: 40}
}

// ConcTwinSource generates the MiniC subject. Worker i reads global
// g<i> into a local, applies BodyOps increments, and writes it back;
// main initializes every global, runs the workers (spawned or
// serial), folds the results into acc, and guards the error on the
// sum — so every worker's write is demanded by the slice and must
// cross threads in the threaded twin.
func ConcTwinSource(cfg ConcTwinConfig, threaded bool) string {
	var sb strings.Builder
	for w := 0; w < cfg.Workers; w++ {
		fmt.Fprintf(&sb, "int g%d;\n", w)
	}
	sb.WriteString("int acc;\n\n")
	for w := 0; w < cfg.Workers; w++ {
		fmt.Fprintf(&sb, "void w%d() {\n  int t = g%d;\n", w, w)
		for op := 0; op < cfg.BodyOps; op++ {
			sb.WriteString("  t = t + 1;\n")
		}
		fmt.Fprintf(&sb, "  g%d = t;\n}\n\n", w)
	}
	sb.WriteString("void main() {\n")
	for w := 0; w < cfg.Workers; w++ {
		fmt.Fprintf(&sb, "  g%d = 1;\n", w)
	}
	for w := 0; w < cfg.Workers; w++ {
		if threaded {
			fmt.Fprintf(&sb, "  spawn w%d();\n", w)
		} else {
			fmt.Fprintf(&sb, "  w%d();\n", w)
		}
	}
	if threaded {
		sb.WriteString("  join;\n")
	}
	sb.WriteString("  acc = 0;\n")
	for w := 0; w < cfg.Workers; w++ {
		fmt.Fprintf(&sb, "  acc = acc + g%d;\n", w)
	}
	fmt.Fprintf(&sb, "  if (acc >= %d) {\n    error;\n  }\n}\n", cfg.Workers)
	return sb.String()
}

// ConcComparison is the twin comparison `make bench-json` records as
// the `concurrency` section; cmd/benchdiff gates WalkRatio.
type ConcComparison struct {
	Workers int `json:"workers"`
	BodyOps int `json:"body_ops"`
	// SchedSeed is the first scheduler seed whose interleaving reached
	// the error; the comparison is deterministic given the seed.
	SchedSeed uint64 `json:"sched_seed"`
	// ThreadedEvents/SerialEvents are the recorded trace lengths.
	ThreadedEvents int `json:"threaded_events"`
	SerialEvents   int `json:"serial_events"`
	// ThreadedWalked/SerialWalked are the deterministic Take
	// evaluation counts (core.Stats.WalkedEdges) of the cross-thread
	// and sequential walks; WalkRatio is their quotient, the price of
	// slicing over racy edges. cmd/benchdiff fails above 1.5.
	ThreadedWalked int     `json:"threaded_walked"`
	SerialWalked   int     `json:"serial_walked"`
	WalkRatio      float64 `json:"walk_ratio"`
	// The racy-edge pre-pass's shape, sanity-gated nonzero so the
	// comparison cannot silently degenerate to one thread.
	Threads    int `json:"threads"`
	RacyEdges  int `json:"racy_edges"`
	Regions    int `json:"regions"`
	SliceEdges int `json:"slice_edges"`
	// Best-of-reps wall times for the two slicer walks.
	ThreadedMS float64 `json:"threaded_ms"`
	SerialMS   float64 `json:"serial_ms"`
}

// CompareConcTwin records one threaded error interleaving and the
// serialized twin's error path, slices both (best of reps timed
// runs, fresh slicer each), and reports the walked-edge ratio.
func CompareConcTwin(cfg ConcTwinConfig, reps int) (*ConcComparison, error) {
	if cfg.Workers == 0 {
		cfg = DefaultConcTwinConfig()
	}
	if reps <= 0 {
		reps = 3
	}
	tprog, err := compile.Source(ConcTwinSource(cfg, true))
	if err != nil {
		return nil, fmt.Errorf("bench: threaded twin: %w", err)
	}
	sprog, err := compile.Source(ConcTwinSource(cfg, false))
	if err != nil {
		return nil, fmt.Errorf("bench: serialized twin: %w", err)
	}

	cmpRes := &ConcComparison{Workers: cfg.Workers, BodyOps: cfg.BodyOps}

	// Record the threaded interleaving: first scheduler seed that
	// reaches the error (the guard holds under every interleaving, so
	// seed 0 already does; the sweep is belt and braces).
	var tr cfa.ConcTrace
	for seed := uint64(0); seed < 64; seed++ {
		st := interp.NewState(tprog, wp.NewAddrMap(tprog))
		res := interp.ConcRun(tprog, st, &interp.SliceInputs{}, interp.ConcRunOptions{
			RecordTrace: true, Seed: seed,
		})
		if res.ReachedError {
			tr, cmpRes.SchedSeed = res.Trace, seed
			break
		}
	}
	if tr == nil {
		return nil, fmt.Errorf("bench: no error interleaving in 64 scheduler seeds")
	}

	// The serialized twin's error path, concretely executed.
	sst := interp.NewState(sprog, wp.NewAddrMap(sprog))
	sres := interp.Run(sprog, sst, &interp.SliceInputs{}, interp.RunOptions{RecordPath: true})
	if !sres.ReachedError {
		return nil, fmt.Errorf("bench: serialized twin did not reach the error")
	}
	cmpRes.ThreadedEvents, cmpRes.SerialEvents = len(tr), len(sres.Path)

	var tcres *core.ConcResult
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		slicer := core.New(tprog)
		t0 := time.Now()
		r, err := slicer.ConcSlice(tr)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if d < best {
			best = d
		}
		tcres = r
	}
	cmpRes.ThreadedMS = float64(best.Microseconds()) / 1000
	cmpRes.ThreadedWalked = tcres.Stats.WalkedEdges
	cmpRes.Threads = tcres.Stats.Threads
	cmpRes.RacyEdges = tcres.Stats.RacyEdges
	cmpRes.Regions = tcres.Stats.Regions
	cmpRes.SliceEdges = tcres.Stats.SliceEdges

	var scres *core.Result
	cmpRes.SerialMS, scres, err = timeSlice(sprog, sres.Path, core.Options{}, reps)
	if err != nil {
		return nil, err
	}
	cmpRes.SerialWalked = scres.Stats.WalkedEdges
	if cmpRes.SerialWalked > 0 {
		cmpRes.WalkRatio = float64(cmpRes.ThreadedWalked) / float64(cmpRes.SerialWalked)
	}
	return cmpRes, nil
}
