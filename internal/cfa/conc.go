// Concurrent traces: interleaved multi-threaded program paths and
// their on-disk format (docs/CONCURRENCY.md).
//
// A concurrent trace is a totally ordered sequence of events, each an
// edge executed by one thread. Thread IDs are positional: thread 0 is
// the initial thread running main, and the k-th OpSpawn event in the
// trace (counting from 1) creates thread k. Projecting the events of
// one thread yields an ordinary program path for that thread, starting
// at the spawned callee's entry (or wherever main starts for thread 0),
// so all of the §3/§4 per-path machinery applies thread-locally; the
// cross-thread structure (spawn ordering, join barriers, conflicting
// accesses) is what the concurrent slicer's racy-edge pre-pass
// consumes.
//
// On-disk, version 2 of the trace format extends PSTRC01 with a thread
// ID per record:
//
//	offset 0   8 bytes  magic "PSTRC02\n"
//	offset 8   8 bytes  program fingerprint (little-endian uint64)
//	offset 16  8 bytes  per event: thread ID then program edge ID
//	                    (two little-endian uint32s)
//
// Robustness contract (docs/ROBUSTNESS.md): every malformed input —
// bad or version-mismatched magic, program mismatch, truncated record,
// unknown edge ID, out-of-order thread IDs, or a projection that is
// not a well-formed path — surfaces as a typed *TraceFormatError,
// never as a panic. A version-1 file handed to the concurrent decoder
// (or vice versa) is reported as a version mismatch, not bad magic.

package cfa

import (
	"encoding/binary"
	"fmt"
	"os"
)

const (
	concTraceMagic      = "PSTRC02\n"
	concTraceHeaderSize = 16
	concTraceRecordSize = 8

	// maxConcThreads bounds the thread IDs a decoded trace may use, so
	// hostile inputs cannot force huge per-thread allocations.
	maxConcThreads = 1 << 16
)

// ConcEvent is one step of a concurrent trace: thread TID executes Edge.
type ConcEvent struct {
	TID  int
	Edge *Edge
}

// ConcTrace is an interleaved multi-threaded trace: a total order over
// per-thread program paths. The zero value is an empty trace.
type ConcTrace []ConcEvent

// LiftPath wraps a sequential path as a single-threaded concurrent
// trace (every event on thread 0). Slicing the lifted trace must agree
// bit-for-bit with slicing the path directly; the differential test in
// core proves it.
func LiftPath(p Path) ConcTrace {
	tr := make(ConcTrace, len(p))
	for i, e := range p {
		tr[i] = ConcEvent{TID: 0, Edge: e}
	}
	return tr
}

// NumThreads returns 1 + the largest thread ID in the trace (0 for an
// empty trace).
func (tr ConcTrace) NumThreads() int {
	n := 0
	for _, ev := range tr {
		if ev.TID+1 > n {
			n = ev.TID + 1
		}
	}
	return n
}

// Sequential reports whether every event runs on thread 0, and if so
// returns the underlying sequential path.
func (tr ConcTrace) Sequential() (Path, bool) {
	for _, ev := range tr {
		if ev.TID != 0 {
			return nil, false
		}
	}
	p := make(Path, len(tr))
	for i, ev := range tr {
		p[i] = ev.Edge
	}
	return p, true
}

// ThreadIndex returns, per thread, the trace indices of its events in
// order. Projecting tr through one row yields that thread's path.
func (tr ConcTrace) ThreadIndex() [][]int {
	idx := make([][]int, tr.NumThreads())
	for i, ev := range tr {
		idx[ev.TID] = append(idx[ev.TID], i)
	}
	return idx
}

// Ops returns the total-order operation sequence of the trace. Because
// threads share all memory, replaying a concurrent trace is executing
// exactly this sequence (spawn and join are identity on the state).
func (tr ConcTrace) Ops() []Op {
	ops := make([]Op, len(tr))
	for i, ev := range tr {
		ops[i] = ev.Edge.Op
	}
	return ops
}

// ThreadPath returns thread t's projected program path.
func (tr ConcTrace) ThreadPath(t int) Path {
	var p Path
	for _, ev := range tr {
		if ev.TID == t {
			p = append(p, ev.Edge)
		}
	}
	return p
}

// String renders the trace one event per line, for debugging.
func (tr ConcTrace) String() string {
	out := ""
	for i, ev := range tr {
		out += fmt.Sprintf("%4d: T%d %s\n", i, ev.TID, ev.Edge)
	}
	return out
}

// concThreadState tracks one thread's progress during validation.
type concThreadState struct {
	started bool
	done    bool  // executed its outermost return
	prev    *Edge // last edge executed
	// stack carries each open call's resume location, as in the PSTRC01
	// validation pass, so return checking is O(1).
	stack  []*Loc
	parent int
	entry  *Loc // required source of the thread's first edge (nil: any)
}

// Validate checks that tr is a well-formed concurrent trace over prog:
// the first event runs on thread 0; the k-th spawn event creates
// thread k, whose events all follow the spawn and begin at the spawned
// callee's entry; each thread's projection satisfies the §3.1/§4 path
// invariants (frame-wise adjacency, calls entering callee entries,
// returns resuming after the matching call); no thread runs past its
// outermost return; and every join waits for threads that have in fact
// terminated earlier in the total order.
func (tr ConcTrace) Validate(prog *Program) error {
	badf := func(i int, format string, args ...any) error {
		return &TraceFormatError{Offset: -1,
			Msg: fmt.Sprintf("event %d: %s", i, fmt.Sprintf(format, args...))}
	}
	if len(tr) == 0 {
		return &TraceFormatError{Offset: -1, Msg: "empty trace"}
	}
	if tr[0].TID != 0 {
		return badf(0, "trace starts on thread %d, want thread 0", tr[0].TID)
	}
	threads := []*concThreadState{{parent: -1}}
	children := map[int][]int{} // spawner tid -> spawned tids
	for i, ev := range tr {
		if ev.Edge == nil {
			return badf(i, "nil edge")
		}
		if ev.TID < 0 || ev.TID >= len(threads) {
			return badf(i, "thread %d has not been spawned (%d threads so far)", ev.TID, len(threads))
		}
		st := threads[ev.TID]
		if st.done {
			return badf(i, "thread %d runs past its outermost return", ev.TID)
		}
		e := ev.Edge
		if !st.started {
			st.started = true
			if st.entry != nil && e.Src != st.entry {
				return badf(i, "thread %d starts at %s, want spawned entry %s", ev.TID, e.Src, st.entry)
			}
		} else {
			prev := st.prev
			switch prev.Op.Kind {
			case OpCall:
				callee := prog.Funcs[prev.Op.Callee]
				if callee == nil {
					return badf(i, "thread %d calls unknown function %s", ev.TID, prev.Op.Callee)
				}
				if e.Src != callee.Entry {
					return badf(i, "thread %d after call to %s starts at %s, want entry %s",
						ev.TID, prev.Op.Callee, e.Src, callee.Entry)
				}
			case OpReturn:
				resume := st.stack[len(st.stack)-1]
				st.stack = st.stack[:len(st.stack)-1]
				if e.Src != resume {
					return badf(i, "thread %d after return resumes at %s, want %s", ev.TID, e.Src, resume)
				}
			default:
				if e.Src != prev.Dst {
					return badf(i, "thread %d edge source %s does not follow %s", ev.TID, e.Src, prev.Dst)
				}
			}
		}
		switch e.Op.Kind {
		case OpCall:
			st.stack = append(st.stack, e.Dst)
		case OpReturn:
			if len(st.stack) == 0 {
				// Outermost return: the thread terminates. Leave the resume
				// pop to the next event check, which must not exist.
				st.done = true
			}
			// Non-outermost returns pop lazily above, when the next event
			// of this thread is checked against the resume location.
		case OpSpawn:
			callee := prog.Funcs[e.Op.Callee]
			if callee == nil {
				return badf(i, "thread %d spawns unknown function %s", ev.TID, e.Op.Callee)
			}
			child := len(threads)
			if child >= maxConcThreads {
				return badf(i, "too many threads (max %d)", maxConcThreads)
			}
			threads = append(threads, &concThreadState{parent: ev.TID, entry: callee.Entry})
			children[ev.TID] = append(children[ev.TID], child)
		case OpJoin:
			for _, c := range children[ev.TID] {
				if !threads[c].done {
					return badf(i, "thread %d joins before spawned thread %d terminated", ev.TID, c)
				}
			}
		}
		st.prev = e
	}
	return nil
}

// ---------------------------------------------------------------------------
// PSTRC02 encode/decode

// AppendConcTrace encodes tr in the PSTRC02 format, appending to buf.
func AppendConcTrace(buf []byte, prog *Program, tr ConcTrace) []byte {
	buf = append(buf, concTraceMagic...)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], ProgramFingerprint(prog))
	buf = append(buf, u64[:]...)
	var rec [concTraceRecordSize]byte
	for _, ev := range tr {
		binary.LittleEndian.PutUint32(rec[:4], uint32(ev.TID))
		binary.LittleEndian.PutUint32(rec[4:], uint32(ev.Edge.ID))
		buf = append(buf, rec[:]...)
	}
	return buf
}

// WriteConcTraceFile writes the whole concurrent trace to name.
func WriteConcTraceFile(name string, prog *Program, tr ConcTrace) error {
	return os.WriteFile(name, AppendConcTrace(nil, prog, tr), 0o644)
}

// IsConcTraceImage reports whether data begins with the PSTRC02 magic
// — a cheap format probe for callers (the slicerd trace upload, the
// CLIs) that accept both sequential and concurrent trace images.
func IsConcTraceImage(data []byte) bool {
	return len(data) >= len(concTraceMagic) && string(data[:len(concTraceMagic)]) == concTraceMagic
}

// DecodeConcTrace decodes and fully validates a PSTRC02 byte image
// against prog. Any malformation — including a PSTRC01 header, which
// is reported as a version mismatch — yields a *TraceFormatError.
func DecodeConcTrace(data []byte, prog *Program) (ConcTrace, error) {
	badf := func(off int64, format string, args ...any) error {
		return &TraceFormatError{Offset: off, Msg: fmt.Sprintf(format, args...)}
	}
	if len(data) < concTraceHeaderSize {
		return nil, badf(int64(len(data)), "truncated header: %d bytes, want %d", len(data), concTraceHeaderSize)
	}
	switch string(data[:8]) {
	case concTraceMagic:
	case traceMagic:
		return nil, badf(0, "version 1 (sequential) trace; decode it with OpenTraceFile")
	default:
		return nil, badf(0, "bad magic %q", data[:8])
	}
	if fp := binary.LittleEndian.Uint64(data[8:16]); fp != ProgramFingerprint(prog) {
		return nil, badf(8, "trace was recorded against a different program (fingerprint %#x)", fp)
	}
	body := data[concTraceHeaderSize:]
	if len(body)%concTraceRecordSize != 0 {
		return nil, badf(int64(len(data)), "truncated record: %d trailing bytes", len(body)%concTraceRecordSize)
	}
	n := len(body) / concTraceRecordSize
	edges := edgeTable(prog)
	tr := make(ConcTrace, n)
	for i := 0; i < n; i++ {
		rec := body[i*concTraceRecordSize:]
		tid := binary.LittleEndian.Uint32(rec[:4])
		id := binary.LittleEndian.Uint32(rec[4:8])
		off := int64(concTraceHeaderSize + i*concTraceRecordSize)
		if tid >= maxConcThreads {
			return nil, badf(off, "event %d: thread ID %d out of range", i, tid)
		}
		if int(id) >= len(edges) || edges[id] == nil {
			return nil, badf(off, "event %d: unknown edge ID %d", i, id)
		}
		tr[i] = ConcEvent{TID: int(tid), Edge: edges[id]}
	}
	if err := tr.Validate(prog); err != nil {
		return nil, err
	}
	return tr, nil
}

// ReadConcTraceFile reads, decodes and validates a PSTRC02 trace file.
func ReadConcTraceFile(name string, prog *Program) (ConcTrace, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	tr, err := DecodeConcTrace(data, prog)
	if err != nil {
		if tfe, ok := err.(*TraceFormatError); ok {
			tfe.Path = name
		}
		return nil, err
	}
	return tr, nil
}
