package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pathslice/internal/bench"
	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/core"
	"pathslice/internal/interp"
	"pathslice/internal/wp"
)

// TestGoldenSlices diffs the slicer's output over a fixed corpus
// against testdata/golden_slices.txt: every diffCorpus program on its
// short and long error path, under each option set, through SliceCtx
// and then SliceStream on the same Slicer (so the stream line also
// records a warm summary table), plus seeded threaded interleavings
// through ConcSlice. Each line carries the taken bits, the live set,
// every Stats counter and the degradation flags; threaded lines add
// the racy-edge list. Any change to the walker that alters a slice, a
// live set or a counter shows up here. Set UPDATE_GOLDEN=1 to
// regenerate.
func TestGoldenSlices(t *testing.T) {
	var b strings.Builder
	progs := diffCorpus(t)
	progs["callHeavy"] = compile.MustSource(callHeavy)
	progs["callHeavyMixed"] = compile.MustSource(callHeavyMixed)
	progs["guardChain"] = compile.MustSource(bench.GuardChainSource(8))
	progs["skipChain"] = compile.MustSource(skipChain)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		progs[fmt.Sprintf("rand%02d", i)] = compile.MustSource(randProgram(r))
	}
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	optSets := []struct {
		name string
		opts core.Options
	}{
		{"plain", core.Options{}},
		{"summaries", core.Options{Summaries: true}},
		{"skipfns", core.Options{SkipFunctions: true}},
		{"early", core.Options{EarlyUnsatStop: true}},
		{"summaries+early", core.Options{Summaries: true, EarlyUnsatStop: true}},
	}
	for _, name := range names {
		prog := progs[name]
		for _, long := range []bool{false, true} {
			p := cfa.FindPathToError(prog, cfa.FindOptions{PreferLong: long, MaxEdgeUses: 2})
			if p == nil {
				fmt.Fprintf(&b, "%s long=%v: no error path\n", name, long)
				continue
			}
			file := filepath.Join(t.TempDir(), "path.pstrc")
			if err := cfa.WriteTraceFile(file, prog, p); err != nil {
				t.Fatal(err)
			}
			for _, o := range optSets {
				s := core.NewWithOptions(prog, o.opts)
				res, err := s.SliceCtx(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s long=%v %s ctx: %s\n", name, long, o.name, goldenSeq(res))
				r, err := cfa.OpenTraceFile(file, prog)
				if err != nil {
					t.Fatal(err)
				}
				res, err = s.SliceStream(context.Background(), r)
				r.Close()
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s long=%v %s stream: %s\n", name, long, o.name, goldenSeq(res))
			}
		}
	}

	threaded := []struct {
		name string
		src  string
		opts core.Options
	}{
		{"twin", bench.ConcTwinSource(bench.DefaultConcTwinConfig(), true), core.Options{}},
		{"writer-joined", concWriterJoined, core.Options{}},
		{"writer-joined-droprace", concWriterJoined, core.Options{Unsound: core.UnsoundDropRacyEdges}},
		{"racy", concRacy, core.Options{}},
		{"irrelevant-thread", concIrrelevantThread, core.Options{}},
		{"frames", concFrames, core.Options{}},
		{"stale-probe", concStaleProbe, core.Options{}},
		{"stale-probe-unsound", concStaleProbe, core.Options{Unsound: core.UnsoundStaleThreadLiveSet}},
	}
	for _, c := range threaded {
		prog := compile.MustSource(c.src)
		s := core.NewWithOptions(prog, c.opts)
		for seed := uint64(0); seed < 32; seed++ {
			st := interp.NewState(prog, wp.NewAddrMap(prog))
			run := interp.ConcRun(prog, st, interp.ZeroInputs{}, interp.ConcRunOptions{RecordTrace: true, Seed: seed})
			if !run.ReachedError {
				fmt.Fprintf(&b, "%s seed=%d: no error\n", c.name, seed)
				continue
			}
			// Round-trip through the PSTRC02 encoding, as an uploaded
			// trace would arrive.
			tr, err := cfa.DecodeConcTrace(cfa.AppendConcTrace(nil, prog, run.Trace), prog)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.ConcSlice(tr)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s seed=%d: taken=%s live=%s stats=%+v degraded=%v racy=%v\n",
				c.name, seed, bits(res.Taken), res.Live, res.Stats, res.Degraded, res.Racy)
		}
	}

	got := b.String()
	golden := filepath.Join("testdata", "golden_slices.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("slice output differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("slice output differs from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// skipChain gives the §4.2 function-skipping jump a guard chain to
// drop: no live lvalue is written between bump's entry and its guards.
const skipChain = `
int x;
int y;

void bump() {
  if (y > 0) {
    y = y - 1;
  }
  if (y > 5) {
    y = 0;
  }
  x = x + 1;
}

void main() {
  x = nondet();
  y = nondet();
  bump();
  bump();
  if (x > 10) {
    error;
  }
}
`

// concFrames gives the threaded walk callee frames to decide: a
// worker's irrelevant helper frame (skippable), a helper whose write
// another thread reads (pinned by its write->read edge), and a helper
// that spawns (pinned by the spawn).
const concFrames = `
int g;
int h;
int noise;

void quiet() {
  noise = noise + 1;
}

void publish() {
  g = g + 2;
}

void sub() {
  h = 1;
}

void launch() {
  spawn sub();
}

void worker() {
  quiet();
  publish();
  quiet();
}

void main() {
  g = 1;
  spawn worker();
  launch();
  quiet();
  join;
  if (g > 2) {
    error;
  }
}
`

// goldenSeq renders one sequential result for the golden corpus.
func goldenSeq(res *core.Result) string {
	return fmt.Sprintf("taken=%s live=%s stats=%+v degraded=%v infeasible=%v",
		bits(res.Taken), res.Live, res.Stats, res.Degraded, res.KnownInfeasible)
}

// bits renders a taken vector as a 0/1 string.
func bits(taken []bool) string {
	out := make([]byte, len(taken))
	for i, tk := range taken {
		out[i] = '0'
		if tk {
			out[i] = '1'
		}
	}
	return string(out)
}
