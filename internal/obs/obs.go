// Package obs is the observability layer for the slicer/CEGAR
// pipeline: a zero-dependency metrics registry plus span-based phase
// tracing, with export surfaces for both.
//
// The package has three parts:
//
//   - A concurrency-safe metrics Registry (counters, gauges, latency/
//     value histograms) with atomic fast paths. The registry can be
//     globally disabled, in which case every Add/Set/Observe reduces to
//     one atomic load and a predictable branch — the no-op mode costs
//     nanoseconds, so instrumentation can stay in hot paths
//     unconditionally. The process-wide default registry is reached
//     with Default() and is what the pipeline packages (smt, cegar,
//     core, wp, progslice, bench) register their metrics on.
//
//   - A span Tracer that aggregates per-phase wall time and call
//     counts (parse, typecheck, cfa, instrument, pathslice, wp, smt,
//     refine, cegar-iteration, check) and optionally streams structured
//     JSONL events to a writer — the `-trace-out` flag of the
//     blastlite, pathslice, and experiments binaries. Closing the
//     tracer emits the aggregated per-phase table (the analogue of the
//     paper's per-phase time breakdown, Table 2) both as a JSONL
//     summary event and as human-readable text via WritePhaseTable.
//
//   - Export surfaces: Serve starts an HTTP listener (the
//     `-metrics-addr` flag) with the registry in Prometheus text
//     format at /metrics, expvar at /debug/vars, and net/http/pprof
//     at /debug/pprof/.
//
// Instrumented code obtains spans through the package-level StartSpan/
// StartNamedSpan helpers, which consult a process-global tracer set
// with SetTracer. When no tracer is installed the helpers return a
// zero Span whose End is a no-op, so tracing costs one atomic pointer
// load when disabled. See docs/OBSERVABILITY.md for the full metric,
// span, and JSONL schema catalogue.
package obs

import (
	"sync/atomic"
	"time"
)

// Phase names used by the pipeline's spans. The set mirrors the
// stages of the paper's per-phase breakdown: frontend (parse,
// typecheck, cfa), property instrumentation, and the CEGAR loop's
// inner phases (reach, pathslice, feasibility, refine) with their
// roll-ups (cegar-iteration, check) and nested detail (wp, smt).
const (
	PhaseParse       = "parse"
	PhaseTypecheck   = "typecheck"
	PhaseCFA         = "cfa"
	PhaseInstrument  = "instrument"
	PhaseReach       = "reach"
	PhasePathSlice   = "pathslice"
	PhaseFeasibility = "feasibility"
	PhaseRacy        = "racy"
	PhaseWP          = "wp"
	PhaseSMT         = "smt"
	PhaseRefine      = "refine"
	PhaseCEGARIter   = "cegar-iteration"
	PhaseCheck       = "check"
)

// RollupPhases are the phases whose spans enclose other phases'
// spans (a check contains its iterations; an iteration contains
// reach/pathslice/feasibility/refine work). They are excluded from
// the percent-of-wall accounting in the phase table so the remaining
// leaf phases partition the wall time without double counting.
var RollupPhases = map[string]bool{
	PhaseCEGARIter: true,
	PhaseCheck:     true,
}

// DetailPhases are fine-grained phases whose spans nest INSIDE leaf
// phases (an smt solve runs inside reach, feasibility, refine, or
// pathslice's early-stop; a wp trace encoding runs inside
// feasibility; a concurrent trace's racy-edge pre-pass runs inside
// pathslice). Their time is already counted by the enclosing leaf,
// so the phase table reports them in a separate detail section and
// excludes them from the percent-of-wall sum.
var DetailPhases = map[string]bool{
	PhaseWP:   true,
	PhaseSMT:  true,
	PhaseRacy: true,
}

// global is the process-wide tracer consulted by StartSpan; nil means
// tracing is off.
var global atomic.Pointer[Tracer]

// SetTracer installs t as the process-global tracer (nil turns
// tracing off).
func SetTracer(t *Tracer) {
	if t == nil {
		global.Store(nil)
		return
	}
	global.Store(t)
}

// CurrentTracer returns the installed global tracer, or nil.
func CurrentTracer() *Tracer { return global.Load() }

// StartSpan opens an aggregate-only span on the global tracer. When
// no tracer is installed the returned Span is inert and End is free.
func StartSpan(phase string) Span {
	t := global.Load()
	if t == nil {
		return Span{}
	}
	return t.StartSpan(phase)
}

// StartNamedSpan opens a span that, in addition to the per-phase
// aggregation, emits one JSONL "span" event on End. Use for coarse
// spans (a whole check, one refinement iteration) — not per-solver-
// call work.
func StartNamedSpan(phase, name string) Span {
	t := global.Load()
	if t == nil {
		return Span{}
	}
	return t.StartNamedSpan(phase, name)
}

// Event emits a JSONL event on the global tracer (no-op without one).
func Event(name string, attrs map[string]any) {
	if t := global.Load(); t != nil {
		t.Event(name, attrs)
	}
}

// RecordCounter emits a JSONL counter observation on the global
// tracer (no-op without one).
func RecordCounter(name string, v int64) {
	if t := global.Load(); t != nil {
		t.RecordCounter(name, v)
	}
}

// now is indirected for tests that need deterministic durations.
var now = time.Now
