package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pathslice/internal/bench"
	"pathslice/internal/cfa"
	"pathslice/internal/instrument"
	"pathslice/internal/interp"
	"pathslice/internal/lang/ast"
	"pathslice/internal/lang/parser"
	"pathslice/internal/service"
	"pathslice/internal/synth"
	"pathslice/internal/wp"
)

// The service workload: the real slicerd binary, run as a child
// process with its default behaviour flags (only the listen addresses
// are set, to free ports). One generator process offers requests in an
// open loop at a fixed rate over at most nproc connections, and each
// latency is timed from the request's due time. The programs come from
// a pool larger than the daemon's program LRU (64), drawn from a
// seeded Zipf distribution into one block that the run repeats:
// frequently requested programs stay
// resident with warm post memo, summaries and solver cache, the rest
// compile cold and are evicted. The mix is /v1/check plus /v1/slice
// with source-only candidate paths and with PSTRC01 and PSTRC02
// uploads; every answer is known by construction.

const (
	// svPool is the number of distinct programs, well above the
	// daemon's default -max-programs of 64.
	svPool = 160
	// svZipfS is the Zipf exponent of the program draw (the per-kind
	// table on standard error gives the cold and warm shares it makes).
	svZipfS = 0.9
	// svBlock is the number of requests in one block of the sequence.
	// The timed window repeats the block, and set-up sends it once, so
	// every repetition starts from the same program LRU and does the
	// same work: each request of the block is one op, repeated once per
	// block, as a cluster is once per pass on table1.
	svBlock = 300
	// svRate is the offered load in requests per second: about half of
	// the closed-loop capacity measured with -capacity (see NOTES.md).
	svRate = 70
	// svResident is the daemon's default program LRU capacity.
	svResident = 64
	// svCapacityProbe sizes the -capacity run's sequence: requests per
	// second of window, above any capacity seen.
	svCapacityProbe = 400
	// svLaunches is how many times set-up launches and warms the
	// daemon; setup_s is the median, and the last launch is measured.
	svLaunches = 3
)

// Request kinds. Among the svResident most popular programs, even
// ranks are checks and odd ranks take the slice kinds in turn, so every
// kind has warm traffic. Every less popular program is a check, so the
// cold checks, the slowest requests, hold p90 inside their group
// instead of on its edge (with half of the tail as slices they were
// 13% of requests and p90 swung ±21%).
const (
	kindCheck = iota
	kindSlice
	kindSeqTrace
	kindConcTrace
	numKinds
)

var kindNames = [numKinds]string{"check", "slice", "seq-trace", "conc-trace"}

func kindOf(rank int) int {
	if rank >= svResident || rank%2 == 0 {
		return kindCheck
	}
	return kindSlice + (rank/2)%3
}

type svProgram struct {
	kind int
	path string // /v1/check or /v1/slice
	body []byte
	// want is the verdict the response must carry; wantFeas the
	// feasibility of every target (slice requests).
	want, wantFeas string
}

// svCheckShape is the synth profile of the check programs: a small
// file-handling subject whose check1 carries the planted wuftpd
// null-check bug and whose check0 is safe. The check program of rank
// i uses seed i.
var svCheckShape = synth.Profile{
	Name: "svc", CheckFns: 2, SitesPerFn: 2, NoiseFns: 1, ChainDepth: 1, LoopBound: 3,
	Patterns: map[int]synth.Pattern{1: synth.PatternNullCheckMissing},
}

// checkSource returns one cluster of synth program seed as MiniC text
// (instrumented, so the property violation is an `error;`).
func checkSource(seed int64, cluster string, fe *frontend) (string, error) {
	p := svCheckShape
	p.Seed = seed
	t0 := time.Now()
	prog, err := parser.Parse([]byte(synth.Generate(p)))
	fe.parse += time.Since(t0)
	if err != nil {
		return "", err
	}
	t0 = time.Now()
	ins, err := instrument.Instrument(prog)
	if err != nil {
		return "", err
	}
	c, err := instrument.ForCluster(ins.Prog, cluster)
	fe.instrument += time.Since(t0)
	if err != nil {
		return "", err
	}
	return ast.Print(c), nil
}

// callHeavyVariant makes program v of the call-heavy family. Sizes
// vary with v; the guard needs a million loop iterations, so every
// candidate path and recorded trace is infeasible.
func callHeavyVariant(v int) (string, int) {
	cfg := bench.CallHeavyConfig{Chains: 2 + v%4, Depth: 3 + v%3, BodyOps: 10 + 5*(v%5)}
	src := strings.Replace(bench.CallHeavySource(cfg), "if (x > 1000000)", fmt.Sprintf("if (x > %d)", 1000000+v), 1)
	return src, 5 + v%11
}

// twinVariant makes program v of the threaded-twin family: acc sums
// to Workers*(BodyOps+1) under every interleaving, so a threshold up
// to that keeps the error reachable.
func twinVariant(v int) string {
	cfg := bench.ConcTwinConfig{Workers: 3 + v%4, BodyOps: 4 + v%5}
	src := bench.ConcTwinSource(cfg, true)
	return strings.Replace(src, fmt.Sprintf("if (acc >= %d)", cfg.Workers),
		fmt.Sprintf("if (acc >= %d)", 1+v%(cfg.Workers*(cfg.BodyOps+1))), 1)
}

// buildPool generates every program and its request body; program i
// is the one with popularity rank i. The trace subjects are compiled
// here to record their uploads.
func buildPool(fe *frontend) ([]*svProgram, error) {
	var pool []*svProgram
	checks := 0
	for i := 0; i < svPool; i++ {
		p := &svProgram{kind: kindOf(i), path: "/v1/slice"}
		var req any
		switch p.kind {
		case kindCheck:
			// Checks alternate between the safe and the buggy cluster.
			cluster, want := "check0", service.VerdictOK
			if checks%2 == 1 {
				cluster, want = "check1", service.VerdictBug
			}
			checks++
			src, err := checkSource(int64(i), cluster, fe)
			if err != nil {
				return nil, err
			}
			req = service.CheckRequest{Source: src}
			p.path, p.want = "/v1/check", want
		case kindSlice:
			src, unroll := callHeavyVariant(i)
			req = service.SliceRequest{Source: src, Long: true, Unroll: unroll}
			p.want, p.wantFeas = service.VerdictOK, "infeasible"
		case kindSeqTrace:
			src, unroll := callHeavyVariant(i)
			prog, err := compileTimed(src, fe)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			tw, err := cfa.NewTraceWriter(&buf, prog)
			if err != nil {
				return nil, err
			}
			for _, e := range cfa.WalkLongPath(prog, prog.ErrorLocs()[0], unroll, 0) {
				if err := tw.Append(e); err != nil {
					return nil, err
				}
			}
			if err := tw.Flush(); err != nil {
				return nil, err
			}
			req = service.SliceRequest{Source: src, TraceB64: base64.StdEncoding.EncodeToString(buf.Bytes())}
			p.want, p.wantFeas = service.VerdictOK, "infeasible"
		case kindConcTrace:
			src := twinVariant(i)
			prog, err := compileTimed(src, fe)
			if err != nil {
				return nil, err
			}
			st := interp.NewState(prog, wp.NewAddrMap(prog))
			run := interp.ConcRun(prog, st, &interp.SliceInputs{}, interp.ConcRunOptions{RecordTrace: true, Seed: uint64(i)})
			if !run.ReachedError {
				return nil, fmt.Errorf("service: twin %d missed the error", i)
			}
			req = service.SliceRequest{Source: src, TraceB64: base64.StdEncoding.EncodeToString(cfa.AppendConcTrace(nil, prog, run.Trace))}
			p.want, p.wantFeas = service.VerdictBug, "feasible"
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		p.body = body
		pool = append(pool, p)
	}
	// slicerd keys its program cache by the source text: the pool must
	// hold svPool distinct sources, or a repeat would be a hidden hit.
	seen := make(map[string]int)
	for i, p := range pool {
		var src struct{ Source string }
		if err := json.Unmarshal(p.body, &src); err != nil {
			return nil, err
		}
		if j, dup := seen[src.Source]; dup {
			return nil, fmt.Errorf("service: programs %d and %d have the same source", j, i)
		}
		seen[src.Source] = i
	}
	return pool, nil
}

// requestBlock draws the n program indices of one block from the Zipf
// distribution over popularity ranks, P(r) ∝ (r+1)^-svZipfS: rank r
// gets n·P(r) requests rounded by systematic sampling from a seeded
// offset, and the seed shuffles their order. Every seed's block thus
// holds within one of the expected count of each rank; seeds differ in
// the order and in which of the rarest programs appear, not in how
// much of the block goes to the popular programs or to the tail.
func requestBlock(seed int64, n int) []int {
	cdf := make([]float64, svPool)
	var sum float64
	for r := range cdf {
		sum += math.Pow(float64(r+1), -svZipfS)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	rng := rand.New(rand.NewSource(seed))
	u := rng.Float64()
	seq := make([]int, n)
	for i := range seq {
		seq[i] = sort.SearchFloat64s(cdf, (float64(i)+u)/float64(n))
	}
	rng.Shuffle(n, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

func seqHash(seq []int) string {
	h := sha256.New()
	for _, v := range seq {
		fmt.Fprintf(h, "%d,", v)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// ---------------------------------------------------------------------------
// The daemon

type daemon struct {
	cmd        *exec.Cmd
	api, admin string
	exited     chan struct{}
	client     *http.Client
}

// launch starts slicerd and waits until /v1/healthz answers.
func launch(bin, dir string, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	// Uploaded PSTRC01 traces are spooled to TMPDIR; keep them inside
	// the checkout.
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	logf, err := os.Create(filepath.Join(dir, "slicerd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	go func() {
		var a [2]string
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if v, ok := strings.CutPrefix(line, "slicerd: admin "); ok {
				a[1] = v
			}
			if v, ok := strings.CutPrefix(line, "slicerd: api "); ok {
				a[0] = v
				addrs <- a
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addrs:
		d.api, d.admin = a[0], a[1]
	case <-d.exited:
		return nil, fmt.Errorf("slicerd exited during start-up (see %s)", logf.Name())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("slicerd did not print its addresses")
	}
	d.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()},
		Timeout:   2 * time.Minute,
	}
	for {
		resp, err := d.client.Get(d.api + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, fmt.Errorf("slicerd not healthy after 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return d, nil
}

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
}

// reply is what one request observed.
type reply struct {
	prog   int
	status int
	// due is when the request was scheduled, issued when the generator
	// handed it to a connection's queue, sent when a connection took it.
	due, issued, sent, done time.Time
	elapsedMS               float64
	progHit                 bool
	summaryHits             int64
	degraded, shed          bool
	ok                      bool // the answer matched the known one
	err                     error
}

// post sends one request and checks the answer.
func (d *daemon) post(p *svProgram) reply {
	var r reply
	r.sent = time.Now()
	resp, err := d.client.Post(d.api+p.path, "application/json", bytes.NewReader(p.body))
	if err != nil {
		r.err, r.done = err, time.Now()
		return r
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done, r.status = time.Now(), resp.StatusCode
	if err != nil {
		r.err = err
		return r
	}
	if resp.StatusCode != http.StatusOK {
		var e service.ErrorResponse
		_ = json.Unmarshal(data, &e)
		r.shed = e.Error == "overloaded"
		r.degraded = e.Degraded
		r.err = fmt.Errorf("HTTP %d: %s %s", resp.StatusCode, e.Error, e.Message)
		return r
	}
	if p.kind == kindCheck {
		var cr service.CheckResponse
		if err := json.Unmarshal(data, &cr); err != nil {
			r.err = err
			return r
		}
		r.elapsedMS, r.progHit, r.degraded = cr.ElapsedMS, cr.Reuse.ProgramCacheHit, cr.Degraded
		r.ok = cr.Verdict == p.want && !cr.Degraded
		return r
	}
	var sr service.SliceResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		r.err = err
		return r
	}
	r.elapsedMS, r.progHit, r.degraded = sr.ElapsedMS, sr.Reuse.ProgramCacheHit, sr.Degraded
	r.summaryHits = sr.Reuse.SummaryHits
	r.ok = sr.Verdict == p.want && !sr.Degraded && len(sr.Targets) > 0
	for _, t := range sr.Targets {
		if t.Feasibility != p.wantFeas {
			r.ok = false
		}
	}
	return r
}

// warm brings the daemon to the stated starting condition: every
// program has been requested once (least popular first, over nproc
// connections), so the shared solver cache holds every program's
// verdicts; then the block is sent once, so the program LRU holds what
// it holds at the end of every repetition of the block.
func (d *daemon) warm(pool []*svProgram, block []int) error {
	seq := make([]int, 0, len(pool)+len(block))
	for i := len(pool) - 1; i >= 0; i-- {
		seq = append(seq, i)
	}
	for _, r := range append(closedLoop(d, pool, seq), closedLoop(d, pool, block)...) {
		if !r.ok {
			return fmt.Errorf("service: warm-up of program %d (%s) failed: %v", r.prog, kindNames[kindOf(r.prog)], r.err)
		}
	}
	return nil
}

// daemonCounters reads the admin /metrics counters and /debug/vars
// memstats the per-layer metrics are computed from.
type daemonCounters struct {
	metrics  map[string]float64
	memstats struct{ TotalAlloc, Mallocs, NumGC float64 }
}

func (d *daemon) counters() (*daemonCounters, error) {
	c := &daemonCounters{metrics: make(map[string]float64)}
	resp, err := d.client.Get(d.admin + "/metrics")
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				c.metrics[f[0]] = v
			}
		}
	}
	resp.Body.Close()
	resp, err = d.client.Get(d.admin + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var vars struct {
		Memstats *struct{ TotalAlloc, Mallocs, NumGC float64 } `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, err
	}
	if vars.Memstats == nil {
		return nil, fmt.Errorf("no memstats in /debug/vars")
	}
	c.memstats = *vars.Memstats
	return c, nil
}

func (d *daemon) stats() (*service.StatsResponse, error) {
	resp, err := d.client.Get(d.api + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st service.StatsResponse
	return &st, json.NewDecoder(resp.Body).Decode(&st)
}

// ---------------------------------------------------------------------------
// The load generator

// openLoop offers seq at svRate requests per second over nproc
// connections and returns the replies in issue order.
func openLoop(d *daemon, pool []*svProgram, seq []int) []reply {
	replies := make([]reply, len(seq))
	jobs := make(chan int, len(seq)) // sized to the number of sends
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				due, issued := replies[i].due, replies[i].issued
				replies[i] = d.post(pool[seq[i]])
				replies[i].due, replies[i].issued, replies[i].prog = due, issued, seq[i]
			}
		}()
	}
	start := time.Now().Add(10 * time.Millisecond)
	interval := time.Second / svRate
	for i := range seq {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		replies[i].due, replies[i].issued = due, time.Now()
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return replies
}

// closedLoop sends seq as fast as nproc connections allow and returns
// the replies.
func closedLoop(d *daemon, pool []*svProgram, seq []int) []reply {
	replies := make([]reply, len(seq))
	jobs := make(chan int, len(seq)) // sized to the number of sends
	for i := range seq {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				replies[i] = d.post(pool[seq[i]])
				replies[i].due, replies[i].issued, replies[i].prog = replies[i].sent, replies[i].sent, seq[i]
			}
		}()
	}
	wg.Wait()
	return replies
}

// svWindow summarizes what one daemon saw in the measured window.
type svWindow struct {
	replies          []reply
	failed           int
	lat              []float64 // from due time, ms
	before, after    *daemonCounters
	statsBefore, end *service.StatsResponse
	peakRSS          float64
}

// measure offers seq to warmed daemons in blocks of block requests,
// each block to every daemon in turn, so all of them see the same
// sequence under the same host conditions. It returns one window per
// daemon with its replies and its counters around the window.
func measure(ds []*daemon, pool []*svProgram, seq []int, block int) ([]*svWindow, error) {
	ws := make([]*svWindow, len(ds))
	var err error
	for i, d := range ds {
		w := &svWindow{}
		if w.before, err = d.counters(); err != nil {
			return nil, err
		}
		if w.statsBefore, err = d.stats(); err != nil {
			return nil, err
		}
		ws[i] = w
	}
	for b := 0; b < len(seq); b += block {
		blk := seq[b:min(b+block, len(seq))]
		for i, d := range ds {
			ws[i].replies = append(ws[i].replies, openLoop(d, pool, blk)...)
		}
	}
	for i, d := range ds {
		w := ws[i]
		if w.after, err = d.counters(); err != nil {
			return nil, err
		}
		if w.end, err = d.stats(); err != nil {
			return nil, err
		}
		if w.peakRSS, err = peakRSSMB(strconv.Itoa(d.cmd.Process.Pid)); err != nil {
			return nil, err
		}
		for _, r := range w.replies {
			if !r.ok {
				w.failed++
				if r.err != nil && w.failed <= 3 {
					fmt.Fprintln(os.Stderr, "perfbench: service request failed:", r.err)
				}
			}
			w.lat = append(w.lat, ms(r.done.Sub(r.due)))
		}
	}
	return ws, nil
}

// completedRate is the window's completed requests per second, from
// the first due time to the last answer.
func (w *svWindow) completedRate() float64 {
	first, last := w.replies[0].due, w.replies[0].done
	for _, r := range w.replies {
		if r.done.After(last) {
			last = r.done
		}
	}
	return float64(len(w.replies)-w.failed) / last.Sub(first).Seconds()
}

// setUpDaemon launches and warms the daemon launches times, keeping
// the last one running, and returns it with the median set-up time.
func setUpDaemon(cfg runConfig, pool []*svProgram, block []int, launches int, extra ...string) (*daemon, float64, error) {
	var times []float64
	var d *daemon
	for i := 0; i < launches; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = launch(cfg.slicerd, cfg.work, extra...); err != nil {
			return nil, 0, err
		}
		if err := d.warm(pool, block); err != nil {
			d.stop()
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return d, median(times), nil
}

func runService(cfg runConfig) (*result, error) {
	if cfg.slicerd == "" {
		return nil, fmt.Errorf("service: -slicerd is required")
	}
	var fe frontend
	pool, err := buildPool(&fe)
	if err != nil {
		return nil, err
	}
	n := int(cfg.window.Seconds() * svRate)
	if cfg.trace {
		n /= 2
	}
	if cfg.capacity {
		n = int(cfg.window.Seconds() * svCapacityProbe)
	}
	block := requestBlock(cfg.seed, svBlock)
	if again := requestBlock(cfg.seed, svBlock); seqHash(again) != seqHash(block) {
		return nil, fmt.Errorf("service: request block for seed %d is not reproducible", cfg.seed)
	}
	var seq []int
	for len(seq) == 0 || len(seq)+svBlock <= n {
		seq = append(seq, block...)
	}
	fmt.Fprintf(os.Stderr, "perfbench: service seed %d: %d requests, %d blocks of %s\n", cfg.seed, len(seq), len(seq)/svBlock, seqHash(block))

	d, setupS, err := setUpDaemon(cfg, pool, block, svLaunches)
	if err != nil {
		return nil, err
	}
	if cfg.capacity {
		t0 := time.Now()
		replies := closedLoop(d, pool, seq)
		el := time.Since(t0)
		d.stop()
		res := &result{Attempted: len(replies)}
		for _, r := range replies {
			if !r.ok {
				res.Failed++
			}
		}
		res.set("capacity_per_s", float64(len(replies))/el.Seconds(), "1/s")
		return res, nil
	}
	if !cfg.trace {
		ws, err := measure([]*daemon{d}, pool, seq, len(seq))
		d.stop()
		if err != nil {
			return nil, err
		}
		w := ws[0]
		res := &result{Attempted: len(w.replies), Failed: w.failed}
		printServiceKinds(w)
		res.set("ops_per_s", w.completedRate(), "1/s")
		// Every repetition of the block sends the same requests from the
		// same program LRU, so request j of the block is one op, repeated
		// once per block; a window is one block, so each request
		// contributes its fastest repetition.
		ops := make([][]float64, svBlock)
		for i, l := range w.lat {
			ops[i%svBlock] = append(ops[i%svBlock], l)
		}
		if err := setFloorLatency(res, ops, 1); err != nil {
			return nil, err
		}
		res.set("setup_s", setupS, "s")
		res.set("peak_rss_mb", w.peakRSS, "mb")
		return res, nil
	}

	// Traced run: a second daemon with its own JSONL tracing on
	// (-trace-out) runs beside the untraced one. Blocks of one second of
	// the sequence go to the untraced daemon and then to the traced one,
	// so the two see the same requests under the same host conditions.
	// The client side records a span per traced request.
	td, _, err := setUpDaemon(cfg, pool, block, 1, "-trace-out", filepath.Join(cfg.work, "slicerd-trace.jsonl"))
	if err != nil {
		d.stop()
		return nil, err
	}
	ws, err := measure([]*daemon{d, td}, pool, seq, svRate)
	d.stop()
	td.stop()
	if err != nil {
		return nil, err
	}
	w, tw := ws[0], ws[1]
	printServiceKinds(w)
	rec := newRecorder()
	for _, r := range tw.replies {
		rec.add("service.request", r.sent, r.done)
	}
	if err := rec.write(filepath.Join(cfg.work, "spans.jsonl")); err != nil {
		return nil, err
	}
	res := &result{Attempted: len(w.replies) + len(tw.replies), Failed: w.failed + tw.failed}
	setServiceLayers(res, w, &fe)
	res.set("obs.overhead_pct", overheadPct(1/median(w.lat), 1/median(tw.lat)), "pct")
	return res, nil
}

// printServiceKinds prints the per-kind table of a window, with each
// kind split by whether the request hit the program cache.
func printServiceKinds(w *svWindow) {
	kinds := make(map[string][]float64)
	for i, r := range w.replies {
		temp := "warm"
		if !r.progHit {
			temp = "cold"
		}
		k := kindNames[kindOf(r.prog)] + "/" + temp
		kinds[k] = append(kinds[k], w.lat[i])
	}
	printKinds("service", kinds)
}

// setServiceLayers derives the per-layer metrics of the untraced
// window from the replies and the daemon's counters.
func setServiceLayers(res *result, w *svWindow, fe *frontend) {
	var elapsed, overhead, check, slice, late []float64
	var hits, summ, shed, degraded float64
	for _, r := range w.replies {
		late = append(late, ms(r.issued.Sub(r.due)))
		if r.progHit {
			hits++
		}
		summ += float64(r.summaryHits)
		if r.shed {
			shed++
		}
		if r.degraded {
			degraded++
		}
		if r.status != http.StatusOK {
			continue
		}
		rt := ms(r.done.Sub(r.sent))
		elapsed = append(elapsed, r.elapsedMS)
		overhead = append(overhead, rt-r.elapsedMS)
		if kindOf(r.prog) == kindCheck {
			check = append(check, rt)
		} else {
			slice = append(slice, rt)
		}
	}
	ops := float64(len(w.replies))
	setFrontend(res, []frontend{*fe})
	res.set("service.elapsed_ms_p50", median(elapsed), "ms")
	res.set("service.overhead_ms_p50", median(overhead), "ms")
	res.set("service.check_ms_p50", median(check), "ms")
	res.set("service.slice_ms_p50", median(slice), "ms")
	res.set("service.program_cache_hit_ratio", hits/ops, "ratio")
	delta := func(name string) float64 { return w.after.metrics[name] - w.before.metrics[name] }
	res.set("service.evictions", delta("slicerd_program_evictions_total"), "count")
	res.set("service.summary_hits", summ, "count")
	res.set("service.portfolio_wins", delta("smt_portfolio_wins_total"), "count")
	res.set("service.shed", shed, "count")
	res.set("service.degraded", degraded, "count")
	res.set("generator.late_ms_p90", quantile(late, 0.9), "ms")
	res.set("smt.solver_calls", delta("smt_solves_total"), "count")
	sc0, sc1 := w.statsBefore.SolverCache, w.end.SolverCache
	res.set("smt.cache_hit_ratio", ratio(float64(sc1.Hits-sc0.Hits), float64(sc1.Hits-sc0.Hits+sc1.Misses-sc0.Misses)), "ratio")
	res.set("logic.interned_nodes", float64(w.end.InternedNodes), "count")
	res.set("runtime.alloc_mb_per_op", (w.after.memstats.TotalAlloc-w.before.memstats.TotalAlloc)/(1<<20)/ops, "mb")
	res.set("runtime.mallocs_per_op", (w.after.memstats.Mallocs-w.before.memstats.Mallocs)/ops, "count")
	res.set("runtime.gc_per_op", (w.after.memstats.NumGC-w.before.memstats.NumGC)/ops, "count")
}
