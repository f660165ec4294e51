// Concurrent path slicing over interleaved multi-threaded traces
// (docs/CONCURRENCY.md): a pre-pass, then the backward walker of
// slicer.go with per-thread live sets, step locations and skip floors.
//
// The pre-pass computes the happens-before "racy edges" of the trace:
// conflicting cross-thread accesses to the same storage (at least one
// a write, linked to the immediately preceding conflicting access per
// location, so lock-induced ordering arrives for free through the lock
// shadow variables of internal/instrument) plus the spawn/join
// synchronization edges. The racy-edge endpoints split the total order
// into instruction regions — maximal runs in which slicing is a purely
// thread-local matter. It also builds each thread's §4 call structure
// and the lookups the walker's cross-thread rules read (threads).
//
// The walk runs over the shared total order, newest event first, and
// every Take decision is the sequential predicate (core.take) against
// the deciding thread's own state. The racy edges are load-bearing: at
// the source of a write→read racy edge the walk asks whether the
// written variable is live in the reading thread, and if so forces the
// write into the slice exactly like a same-thread demand would. The
// transfer is per-variable, not a whole-live-set union: a write's
// cross-thread relevance is precisely "some reader still needs this
// location", and keeping the query that narrow makes every Take
// decision a function of the conflict partial order alone — reordering
// two adjacent events with no racy edge between them provably cannot
// change any decision, which is the commute invariant the oracle
// checks (internal/oracle). Kills stay thread-local (a cross-thread
// kill would be unsound), so concurrent slices are conservative
// supersets.
//
// Frame skipping at untaken returns survives for frames that are
// conflict-free — no write→read racy edge leaves the frame with its
// variable still demanded by the reading thread — and contain no
// spawn/join. The demand test is the same per-variable query the
// merge uses, so it too depends only on the conflict partial order;
// sync and read→write/write→write edges never block a skip, because
// dropping a read or an overwritten write cannot lose a demanded
// value. The same rule, applied to a thread's outermost return, skips
// entire irrelevant threads.
//
// The §4.2 optimizations (EarlyUnsatStop, SkipFunctions), frame
// summaries, RecordTrace and streaming apply only to sequential paths
// and are off for a concurrent trace: an unsat verdict under the
// recorded interleaving would not prove all feasible interleavings
// unsat, and summary contexts are not stable under cross-thread
// merges.

package core

import (
	"context"
	"fmt"

	"pathslice/internal/cfa"
	"pathslice/internal/obs"
	"pathslice/internal/smt"
	"pathslice/internal/wp"
)

// Concurrency metrics (docs/OBSERVABILITY.md).
var (
	mConcSlices = obs.Default().Counter("slicer_conc_slices_total")
	mRacyEdges  = obs.Default().Counter("slicer_racy_edges_total")
	mRegions    = obs.Default().Counter("slicer_regions_total")
)

// RacyKind classifies a racy edge.
type RacyKind int

// The racy-edge kinds. Only write→read edges carry live-set transfer
// during the walk; all kinds constrain reordering and delimit regions.
const (
	// RacyWriteRead: the source writes a location the target reads.
	RacyWriteRead RacyKind = iota
	// RacyReadWrite: the source reads a location the target overwrites.
	RacyReadWrite
	// RacyWriteWrite: both access points write the same location.
	RacyWriteWrite
	// RacySync: spawn→first-child-event and last-child-event→join.
	RacySync
)

// String names the kind.
func (k RacyKind) String() string {
	switch k {
	case RacyWriteRead:
		return "write-read"
	case RacyReadWrite:
		return "read-write"
	case RacyWriteWrite:
		return "write-write"
	case RacySync:
		return "sync"
	}
	return "?"
}

// RacyEdge is a happens-before constraint between two trace positions
// on different threads: the event at From must stay ordered before the
// event at To in any reordering of the trace.
type RacyEdge struct {
	From, To int
	Var      string // conflicting concrete variable ("" for sync edges)
	Kind     RacyKind
}

// ConcStats extends Stats with the pre-pass's measures.
type ConcStats struct {
	Stats
	Threads   int
	RacyEdges int
	Regions   int
	// SkippedThreads counts whole threads dropped at an untaken
	// outermost return.
	SkippedThreads int
}

// ConcResult is the outcome of slicing one concurrent trace.
type ConcResult struct {
	// Slice is the kept sub-trace, in the original total order.
	Slice cfa.ConcTrace
	// Taken[i] reports whether trace event i is in the slice.
	Taken []bool
	// Live is the union of the per-thread live sets where each thread's
	// walk stopped: the lvalues whose initial values the slice depends
	// on.
	Live cfa.LvalSet
	// Racy holds the pre-pass's racy edges of the input trace.
	Racy []RacyEdge
	// Degraded mirrors Result.Degraded: a deadline or unanswerable
	// relevance query forced conservative keeps.
	Degraded bool
	Stats    ConcStats
}

// eventAccess returns the concrete variables op reads and writes, with
// dereferences expanded through the points-to sets, for conflict
// detection. Spawn, join, call, and return events access nothing
// themselves — the callee's operations appear in the trace in person.
func (s *Slicer) eventAccess(op cfa.Op) (reads, writes []string) {
	for l := range op.Rd() {
		if l.Deref {
			reads = append(reads, s.Alias.Pts(l.Var)...)
		} else {
			reads = append(reads, l.Var)
		}
	}
	if op.Kind == cfa.OpAssign {
		writes = s.Alias.WrittenVars(op.LHS)
	}
	return reads, writes
}

// RacyEdges computes the happens-before edges of the trace.
// Conflicting-access edges link each access to the immediately
// preceding cross-thread conflicting access per concrete variable;
// sync edges tie each spawn to its child's first event and each
// child's last event to the spawner's next join.
func (s *Slicer) RacyEdges(tr cfa.ConcTrace) []RacyEdge {
	type access struct {
		pos, tid int
	}
	var edges []RacyEdge
	lastWrite := make(map[string]access)
	readersSince := make(map[string][]access)
	for i, ev := range tr {
		reads, writes := s.eventAccess(ev.Edge.Op)
		for _, v := range reads {
			if w, ok := lastWrite[v]; ok && w.tid != ev.TID {
				edges = append(edges, RacyEdge{From: w.pos, To: i, Var: v, Kind: RacyWriteRead})
			}
			readersSince[v] = append(readersSince[v], access{pos: i, tid: ev.TID})
		}
		for _, v := range writes {
			if w, ok := lastWrite[v]; ok && w.tid != ev.TID {
				edges = append(edges, RacyEdge{From: w.pos, To: i, Var: v, Kind: RacyWriteWrite})
			}
			for _, r := range readersSince[v] {
				if r.tid != ev.TID {
					edges = append(edges, RacyEdge{From: r.pos, To: i, Var: v, Kind: RacyReadWrite})
				}
			}
			lastWrite[v] = access{pos: i, tid: ev.TID}
			delete(readersSince, v)
		}
	}
	// Sync edges. Thread IDs are positional (the k-th spawn creates
	// thread k), so one forward scan recovers the spawn structure.
	tidx := tr.ThreadIndex()
	spawns := 0
	for i, ev := range tr {
		if ev.Edge.Op.Kind != cfa.OpSpawn {
			continue
		}
		spawns++
		child := spawns
		if child >= len(tidx) || len(tidx[child]) == 0 {
			continue // the child never ran
		}
		first, last := tidx[child][0], tidx[child][len(tidx[child])-1]
		edges = append(edges, RacyEdge{From: i, To: first, Kind: RacySync})
		// The spawner's first join after the child's last event.
		for _, j := range tidx[ev.TID] {
			if j > last && tr[j].Edge.Op.Kind == cfa.OpJoin {
				edges = append(edges, RacyEdge{From: last, To: j, Kind: RacySync})
				break
			}
		}
	}
	return edges
}

// concRegions counts the instruction regions the racy edges cut the
// trace into: region boundaries fall immediately after each edge
// source and immediately before each edge target, and a region is a
// maximal boundary-free run of consecutive events.
func concRegions(n int, edges []RacyEdge) int {
	if n == 0 {
		return 0
	}
	breaks := make(map[int]bool)
	for _, e := range edges {
		if e.From < n-1 {
			breaks[e.From] = true
		}
		if e.To > 0 && e.To-1 < n-1 {
			breaks[e.To-1] = true
		}
	}
	return 1 + len(breaks)
}

// ConcSlice slices a validated concurrent trace.
func (s *Slicer) ConcSlice(tr cfa.ConcTrace) (*ConcResult, error) {
	return s.ConcSliceCtx(context.Background(), tr)
}

// ConcSliceCtx is ConcSlice under a context. Expiry mid-walk keeps
// every unexamined event — a sound, degraded superset, as in SliceCtx.
func (s *Slicer) ConcSliceCtx(ctx context.Context, tr cfa.ConcTrace) (*ConcResult, error) {
	if verr := tr.Validate(s.Prog); verr != nil {
		return nil, fmt.Errorf("core: %w", verr)
	}
	th := &threads{tr: tr}
	res, err := s.SliceSource(ctx, th)
	if err != nil {
		return nil, err
	}
	cr := &ConcResult{
		Taken:    res.Taken,
		Live:     res.Live,
		Racy:     th.racy,
		Degraded: res.Degraded,
		Stats: ConcStats{
			Stats:          res.Stats,
			Threads:        th.nt,
			RacyEdges:      len(th.racy),
			Regions:        th.regions,
			SkippedThreads: th.skipped,
		},
	}
	for i, tk := range res.Taken {
		if tk {
			cr.Slice = append(cr.Slice, tr[i])
		}
	}
	mConcSlices.Inc()
	mRacyEdges.Add(int64(cr.Stats.RacyEdges))
	mRegions.Add(int64(cr.Stats.Regions))
	return cr, nil
}

// threads is the pre-pass over a concurrent trace, and the walk's
// PathSource: the total order, with the §4 call structure per thread.
// prepass fills it in; skipped counts the threads the walk dropped.
type threads struct {
	tr cfa.ConcTrace
	nt int // thread count
	// call[i] is the position of the call edge that opens event i's
	// frame in its own thread, or -1 in the thread's outermost frame.
	call []int
	// pins[i] counts the events of i's thread before position i that a
	// frame skip must keep: spawns, joins, and write→read racy-edge
	// sources (another thread reads their write).
	pins []int
	// wrFrom[i] lists the write→read racy edges whose source is i.
	wrFrom map[int][]RacyEdge
	// child[i] is the thread created by the spawn event at i.
	child   map[int]int
	racy    []RacyEdge
	regions int
	skipped int
}

func (th *threads) Len() int             { return len(th.tr) }
func (th *threads) Edge(i int) *cfa.Edge { return th.tr[i].Edge }
func (th *threads) CallIdx(i int) int    { return th.call[i] }
func (th *threads) Err() error           { return nil }

// prepass fills in th for its trace, under its own span.
func (s *Slicer) prepass(th *threads) {
	sp := obs.StartSpan(obs.PhaseRacy)
	defer sp.End()
	tr := th.tr
	tidx := tr.ThreadIndex()
	th.nt = len(tidx)
	th.call, th.pins = make([]int, len(tr)), make([]int, len(tr))
	th.wrFrom, th.child = make(map[int][]RacyEdge), make(map[int]int)
	th.racy = s.RacyEdges(tr)
	th.regions = concRegions(len(tr), th.racy)
	if s.Opts.Unsound != UnsoundDropRacyEdges {
		for _, re := range th.racy {
			if re.Kind == RacyWriteRead {
				th.wrFrom[re.From] = append(th.wrFrom[re.From], re)
			}
		}
	}
	spawns := 0
	for i, ev := range tr {
		if ev.Edge.Op.Kind == cfa.OpSpawn {
			spawns++
			th.child[i] = spawns
		}
	}
	for _, idxs := range tidx {
		p := make(cfa.Path, len(idxs))
		for k, pos := range idxs {
			p[k] = tr[pos].Edge
		}
		pins := 0
		for k, c := range p.CallIdx() {
			pos := idxs[k]
			th.call[pos] = -1
			if c >= 0 {
				th.call[pos] = idxs[c]
			}
			th.pins[pos] = pins
			if kd := p[k].Op.Kind; kd == cfa.OpSpawn || kd == cfa.OpJoin || len(th.wrFrom[pos]) > 0 {
				pins++
			}
		}
	}
}

// thread returns the thread of position i: 0 on a sequential source
// (nil pre-pass).
func (th *threads) thread(i int) int {
	if th == nil {
		return 0
	}
	return th.tr[i].TID
}

// pinned reports whether the frame closed by the return at i (for an
// outermost return, the thread up to i) holds an event a skip must
// keep. The test is existence, not current demand: a reader below the
// return has not been walked yet, and existence depends on the
// conflict structure alone, which keeps the skip commute-invariant. A
// pinned frame is walked event by event, each source answering the
// precise demand query at its own position. The return itself is
// never pinned, so the count before i covers the frame.
func (th *threads) pinned(i int) bool {
	base := 0
	if lo := th.call[i]; lo >= 0 {
		base = th.pins[lo]
	}
	return th.pins[i] > base
}

// crossDemand reports whether the event at trace position i — the
// source of one or more write→read racy edges — writes a variable some
// reading thread still finds live. A positive answer forces the event
// into the slice: a cross-thread demand is as binding as a same-thread
// one. The query is per-variable against the reader's live set, so the
// answer depends only on the conflict partial order of the trace, not
// on where unrelated events happen to sit in the total order. Under
// UnsoundStaleThreadLiveSet the query runs against the snapshot taken
// at the first query of each thread — the planted staleness bug.
func (w *walker) crossDemand(i int) bool {
	for _, re := range w.th.wrFrom[i] {
		u := w.th.tr[re.To].TID
		set := w.live[u]
		if w.opts.Unsound == UnsoundStaleThreadLiveSet {
			snap, ok := w.stale[u]
			if !ok {
				snap = w.live[u].Copy()
				w.stale[u] = snap
			}
			set = snap
		}
		for l := range set {
			if w.s.Alias.MayAlias(cfa.Lvalue{Var: re.Var}, l) {
				return true
			}
		}
	}
	return false
}

// CheckConcFeasibility asks the decision procedure about a concurrent
// trace's recorded linearization. Threads share all memory, so the
// trace's constraint formula is the sequential encoding of its
// total-order operation sequence (spawn and join encode as true). Note
// the verdict speaks only for this interleaving: an Unsat recorded
// order says nothing about other legal reorderings, which is exactly
// why the concurrent walk never early-stops.
func (s *Slicer) CheckConcFeasibility(tr cfa.ConcTrace) (smt.Result, *wp.TraceEncoder) {
	return s.CheckConcFeasibilityCtx(context.Background(), tr)
}

// CheckConcFeasibilityCtx is CheckConcFeasibility under a context: when
// it is cancelled or times out the solve returns StatusUnknown — never
// a wrong Sat or Unsat.
func (s *Slicer) CheckConcFeasibilityCtx(ctx context.Context, tr cfa.ConcTrace) (smt.Result, *wp.TraceEncoder) {
	return s.checkOps(ctx, tr.Ops())
}
