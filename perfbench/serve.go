package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"capscale/internal/obs"
	"capscale/internal/serve"
	"capscale/internal/store"
	"capscale/internal/workload"
)

// Sizes of the stored fingerprint sets. Set G is only ever read with
// GET and set R only re-POSTed, so no request can meet a sweep another
// request has in flight (a GET of an executing fingerprint answers 409
// by design) even if the mix is ever driven by more than one client.
const (
	getSetSize    = 8
	repostSetSize = 4
)

// Request kinds of the serve-hot mix.
const (
	kindPost   = iota // new fingerprint, RunCache-hot: lease, sidecar, 48 journal appends, stream
	kindRepost        // stored fingerprint: journal-restore path
	kindGet           // GET /v1/result replay
	numKinds
)

// roundKinds is one serve-hot round, shuffled per round by the seed.
// The counts give each kind about a third of a round's latency on the
// reference host (one client: POST ~1.35 ms, re-POST ~1.75 ms, GET
// ~0.32 ms at p50), so a regression of r on any one kind moves the
// round latency by about r/3: doubling one kind's latency moves
// op_p50_s by about a third, beyond its bound.
var roundKinds = []int{kindPost, kindRepost, kindGet, kindGet, kindGet, kindGet, kindGet}

var kindNames = [numKinds]string{"post", "repost", "get"}

var (
	cacheHits   = obs.GetCounter("workload.cache.hits")
	cacheMisses = obs.GetCounter("workload.cache.misses")
)

// serveRig is one in-process server on a fresh store, after the cold
// paper POST filled its RunCache and the G and R sets were stored.
type serveRig struct {
	dir       string
	srv       *serve.Server
	fs        *memFS
	ts        *httptest.Server
	client    *http.Client
	cells     int
	cold      []byte // record lines of the cold POST
	coldFP    string
	get       []string
	repost    []string
	want      map[string][]byte
	quiesceOf map[string]float64 // request of each stored fingerprint
	quiesce   atomic.Int64       // next fresh fingerprint's quiesce_seconds
}

func paperRequest(quiesce float64) []byte {
	cfg := workload.PaperConfig()
	req := serve.SweepRequest{Sizes: cfg.Sizes, Threads: cfg.Threads, QuiesceSeconds: quiesce}
	for _, a := range cfg.Algorithms {
		req.Algorithms = append(req.Algorithms, a.String())
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}

// sample is one completed request.
type sample struct {
	kind          int
	lat           float64 // request sent until body fully read
	ttfb, stream  float64 // until the first body byte; first byte until the end
	bytes         int
	failed        bool
	records       []byte
	fingerprint   string
	failureReason string
}

// do sends one request and reads the whole response. POST bodies must
// end in a trailer saying complete:true with streamed == cells.
func (rig *serveRig) do(kind int, client string, arg string, quiesce float64) sample {
	s := sample{kind: kind}
	var req *http.Request
	var err error
	if kind == kindGet {
		req, err = http.NewRequest("GET", rig.ts.URL+"/v1/result/"+arg, nil)
	} else {
		req, err = http.NewRequest("POST", rig.ts.URL+"/v1/sweep", bytes.NewReader(paperRequest(quiesce)))
	}
	if err != nil {
		panic(err)
	}
	req.Header.Set("X-Client-ID", client)
	fail := func(format string, args ...any) sample {
		s.failed = true
		s.failureReason = fmt.Sprintf("%s %s: ", kindNames[kind], arg) + fmt.Sprintf(format, args...)
		return s
	}

	t0 := time.Now()
	resp, err := rig.client.Do(req)
	if err != nil {
		return fail("%v", err)
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	_, _ = br.Peek(1)
	t1 := time.Now()
	body, err := io.ReadAll(br)
	t2 := time.Now()
	s.lat, s.ttfb, s.stream, s.bytes = t2.Sub(t0).Seconds(), t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), len(body)
	s.fingerprint = resp.Header.Get("X-Sweep-Fingerprint")
	if err != nil {
		return fail("reading body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fail("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if kind == kindGet {
		s.records = body
		return s
	}
	end := bytes.LastIndexByte(bytes.TrimSuffix(body, []byte("\n")), '\n') + 1
	var tr struct {
		Done     bool `json:"done"`
		Cells    int  `json:"cells"`
		Streamed int  `json:"streamed"`
		Complete bool `json:"complete"`
	}
	if err := json.Unmarshal(body[end:], &tr); err != nil || !tr.Done {
		return fail("stream ended without a trailer")
	}
	if !tr.Complete || tr.Streamed != tr.Cells || tr.Cells != rig.cells {
		return fail("trailer complete=%v streamed=%d cells=%d, want a complete stream of %d cells",
			tr.Complete, tr.Streamed, tr.Cells, rig.cells)
	}
	s.records = body[:end]
	return s
}

func newServeRig(o options, i int) (*serveRig, error) {
	paper := workload.PaperConfig()
	rig := &serveRig{
		dir:       filepath.Join(o.workDir, fmt.Sprintf("store-%d", i)),
		cells:     paper.CellCount(),
		want:      map[string][]byte{},
		quiesceOf: map[string]float64{},
	}
	rig.quiesce.Store(1000)
	rig.fs = newMemFS()
	cfg := serve.Config{StoreDir: rig.dir, Parallelism: 1, MaxActiveSweeps: 64, ClientQuota: -1, FS: rig.fs}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	rig.srv = srv
	rig.ts = httptest.NewServer(srv.Handler())
	rig.client = rig.ts.Client()

	// Cold fill: the paper matrix at -j 1 fills the server's RunCache.
	cold := rig.do(kindPost, "setup", "cold", 60)
	if cold.failed {
		rig.close()
		return nil, fmt.Errorf("cold POST: %s", cold.failureReason)
	}
	rig.cold, rig.coldFP = cold.records, cold.fingerprint
	rig.want[cold.fingerprint] = cold.records

	storeResult := func(quiesce float64) (string, error) {
		s := rig.do(kindPost, "setup", "store", quiesce)
		if s.failed {
			return "", fmt.Errorf("storing a result: %s", s.failureReason)
		}
		if !bytes.Equal(s.records, rig.cold) {
			return "", fmt.Errorf("hot POST records differ from the cold POST's")
		}
		rig.want[s.fingerprint] = s.records
		rig.quiesceOf[s.fingerprint] = quiesce
		return s.fingerprint, nil
	}
	for k := 0; k < getSetSize; k++ {
		fp, err := storeResult(float64(1 + k))
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.get = append(rig.get, fp)
	}
	for k := 0; k < repostSetSize; k++ {
		fp, err := storeResult(float64(100 + k))
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.repost = append(rig.repost, fp)
	}
	if err := rig.waitIdle(); err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

// waitIdle waits until the server reports no executing sweep, so a GET
// of a just-stored fingerprint cannot meet its in-flight bookkeeping.
func (rig *serveRig) waitIdle() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := rig.client.Get(rig.ts.URL + "/v1/status")
		if err != nil {
			return err
		}
		var st struct {
			Active int `json:"active_sweeps"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("status: %w", err)
		}
		if st.Active == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server still has %d active sweeps after setup", st.Active)
		}
		time.Sleep(time.Millisecond)
	}
}

func (rig *serveRig) close() {
	rig.ts.Close()
	rig.srv.Drain(10 * time.Second)
	rig.client.CloseIdleConnections()
}

// phaseResult is one closed-loop phase.
type phaseResult struct {
	wall    float64
	use     usage
	rounds  []float64 // latency of each completed round (the sum of its requests')
	samples []sample
}

// phase runs one closed-loop client for seconds, one round after
// another. The seed picks each round's order and which G and R
// fingerprints it reads. Every hot POST's cells must come from the
// RunCache: a miss during the phase is an oracle failure.
func (rig *serveRig) phase(o options, seconds float64, phaseNo int, r *report) phaseResult {
	rng := rand.New(rand.NewSource(o.seed*1_000_003 + int64(phaseNo)))
	kinds := append([]int(nil), roundKinds...)
	var out phaseResult
	h0, m0 := cacheHits.Value(), cacheMisses.Value()
	u0 := readUsage()
	t := time.Now()
	deadline := t.Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		round, ok := 0.0, true
		for _, kind := range kinds {
			var s sample
			var want []byte
			switch kind {
			case kindPost:
				s = rig.do(kind, "client", "new", float64(rig.quiesce.Add(1)))
				want = rig.cold
				if !s.failed {
					// No request reads a fresh fingerprint again, and the
					// trailer comes after the sweep closed its journal.
					// Dropping it keeps the live heap as small as a
					// disk-backed server's, and flat over the run.
					_ = rig.fs.Remove(filepath.Join(rig.dir, s.fingerprint+store.Ext))
				}
			case kindRepost:
				fp := rig.repost[rng.Intn(len(rig.repost))]
				s = rig.do(kind, "client", fp, rig.quiesceOf[fp])
				want = rig.want[fp]
				if !s.failed && s.fingerprint != fp {
					s.failed, s.failureReason = true, fmt.Sprintf("re-POST of %s answered for %s", fp, s.fingerprint)
				}
			case kindGet:
				fp := rig.get[rng.Intn(len(rig.get))]
				s = rig.do(kind, "client", fp, 0)
				want = rig.want[fp]
			}
			if !s.failed && !bytes.Equal(s.records, want) {
				s.failed, s.failureReason = true, fmt.Sprintf("%s body differs from the lines its original POST streamed", kindNames[kind])
			}
			s.records = nil
			out.samples = append(out.samples, s)
			round += s.lat
			ok = ok && !s.failed
		}
		if ok {
			out.rounds = append(out.rounds, round)
		}
	}
	out.wall, out.use = time.Since(t).Seconds(), readUsage().minus(u0)
	if hits, misses := cacheHits.Value()-h0, cacheMisses.Value()-m0; misses != 0 || hits == 0 {
		// The counters are not per request, so every POST of the phase
		// fails the oracle.
		for i := range out.samples {
			if s := &out.samples[i]; s.kind == kindPost && !s.failed {
				s.failed, s.failureReason = true, fmt.Sprintf("hot POSTs met %d RunCache hits and %d misses; every cell must hit", hits, misses)
			}
		}
	}
	for _, s := range out.samples {
		r.attempted++
		if s.failed {
			r.failed++
			r.mismatch("%s", s.failureReason)
		}
	}
	return out
}

// kindLatencies returns the latencies of one request kind.
func (p phaseResult) kindLatencies(kind int) []float64 {
	var xs []float64
	for _, s := range p.samples {
		if s.kind == kind && !s.failed {
			xs = append(xs, s.lat)
		}
	}
	return xs
}

// serveGCPercent is the GOGC serve-hot's timed phase runs at (its
// setup, a cold paper sweep, runs at the default). Its live heap is about
// 1 MB, so at the default of 100 the runtime collects every ~4 MB
// allocated: every 1.5 rounds, some 250 cycles a second. On the
// reference host that made 2 s stretches of one run spread from 5.6 to
// 7.3 ms per round as the host's scheduling drifted; at 400 they
// spread from 4.8 to 5.2 ms. Allocation per round is gated on its own
// (alloc_mb_per_op), and the traced run reports GC per round.
const serveGCPercent = 400

// serveHot is the sweep service with a RunCache-hot, stored and
// replayed request mix: store and serve do all the work, the simulator
// none.
func serveHot(o options, r *report) error {
	var setups []float64
	var rig *serveRig
	for i := 0; i < o.setups || sum(setups) < minSetupSeconds; i++ {
		if rig != nil {
			rig.close()
		}
		start := time.Now()
		if i == 0 {
			start = runStart
		}
		var err error
		if rig, err = newServeRig(o, i); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer rig.close()
	// Collect the setups' cold-sweep garbage first: GOGC then applies to
	// the server's own live heap, not to a heap marked mid-sweep, which
	// set the first goal of the phase near 800 MB.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(serveGCPercent))
	r.meta["records_sha256"] = digest(rig.cold)
	r.meta["cells"] = rig.cells
	r.meta["setup_s_each"] = setups

	if o.trace {
		return traceServe(rig, o, r)
	}
	p := rig.phase(o, o.seconds, 0, r)
	n := float64(len(p.rounds))
	r.set("setup_s", "s", median(setups))
	r.set("op_p50_s", "s", median(p.rounds))
	r.set("op_p90_s", "s", quantile(p.rounds, 0.9))
	r.set("cpu_per_op_s", "s", safeDiv(p.use.cpu, n))
	r.set("alloc_mb_per_op", "MB", safeDiv(float64(p.use.alloc)/1e6, n))
	r.set("ops_per_s", "1/s", n/p.wall)
	for k := 0; k < numKinds; k++ {
		xs := p.kindLatencies(k)
		r.meta[kindNames[k]+"_p50_s"] = median(xs)
		r.meta[kindNames[k]+"_count"] = len(xs)
	}
	return nil
}

// traceServe is the traced run: half the time with the filesystem's
// counters off, half with them on, so the overhead compares the two.
// The store's primitives are then timed on the checkout's disk.
func traceServe(rig *serveRig, o options, r *report) error {
	h0, m0 := cacheHits.Value(), cacheMisses.Value()
	heap := startHeapSampler()
	a := rig.phase(o, o.seconds/2, 0, r)
	s0, w0, inServer := rig.fs.syncs.Load(), rig.fs.writeBytes.Load(), histSum(requestSeconds)
	rig.fs.counting.Store(true)
	b := rig.phase(o, o.seconds/2, 1, r)
	rig.fs.counting.Store(false)
	syncs, written := rig.fs.syncs.Load()-s0, rig.fs.writeBytes.Load()-w0
	inServer = histSum(requestSeconds) - inServer
	peak := heap.peakMB()
	hits, misses := cacheHits.Value()-h0, cacheMisses.Value()-m0

	dev, err := storeDevice(rig, filepath.Join(o.workDir, "device"))
	if err != nil {
		return fmt.Errorf("timing the store on disk: %w", err)
	}

	var reqs, latSum float64
	var ttfb, stream []float64
	var bytesTotal int
	for _, s := range b.samples {
		if s.failed {
			continue
		}
		reqs++
		latSum += s.lat
		ttfb = append(ttfb, s.ttfb)
		stream = append(stream, s.stream)
		bytesTotal += s.bytes
	}
	rounds := float64(len(a.rounds))

	setZeroSweep(r)
	r.set("gc.cpu_s", "s", safeDiv(a.use.gcCPU, rounds))
	r.set("gc.cycles", "count", safeDiv(float64(a.use.gcCycles), rounds))
	r.set("heap.peak_mb", "MB", peak)
	r.set("store.fsyncs_per_req", "count", safeDiv(float64(syncs), reqs))
	r.set("store.write_bytes_per_req", "B", safeDiv(float64(written), reqs))
	r.set("store.fsync_s", "s", dev.append)
	r.set("store.lease_s", "s", dev.lease)
	r.set("store.replay_s", "s", dev.replay)
	r.set("serve.ttfb_s", "s", median(ttfb))
	r.set("serve.stream_s", "s", median(stream))
	r.set("serve.bytes_per_req", "B", safeDiv(float64(bytesTotal), reqs))
	for k := 0; k < numKinds; k++ {
		xs := a.kindLatencies(k)
		r.set("serve."+kindNames[k]+"_p50_s", "s", median(xs))
		r.set("serve."+kindNames[k]+"_p90_s", "s", quantile(xs, 0.9))
	}
	r.set("cache.hit_ratio", "ratio", safeDiv(float64(hits), float64(hits+misses)))
	r.set("trace.overhead_frac", "ratio", safeDiv(median(b.rounds), median(a.rounds))-1)
	r.set("trace.coverage", "ratio", safeDiv(inServer, latSum))
	return nil
}

var requestSeconds = obs.GetHistogramUnit("serve.request.seconds", "s")

// deviceJournals is how many journals storeDevice writes.
const deviceJournals = 5

// deviceTimes are medians of the store's primitives on a real disk.
type deviceTimes struct {
	append float64 // one record: write + fsync (store.Journal.Append)
	lease  float64 // store.AcquireLease + Release
	replay float64 // store.ReplayJournal of a whole paper-matrix journal
}

// storeDevice replays the cold POST's journal, header and records as
// the server wrote them, through internal/store on the real filesystem
// under dir, and times the primitives a request is made of.
func storeDevice(rig *serveRig, dir string) (deviceTimes, error) {
	sc, err := store.ScanJournal(rig.fs, filepath.Join(rig.dir, rig.coldFP+store.Ext), 64<<20)
	if err != nil {
		return deviceTimes{}, err
	}
	var hdr store.Header
	if err := json.Unmarshal(sc.HeaderLine, &hdr); err != nil {
		return deviceTimes{}, fmt.Errorf("journal header: %w", err)
	}
	fsys := store.OS()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return deviceTimes{}, err
	}
	defer os.RemoveAll(dir)
	var appends, leases, replays []float64
	for k := 0; k < deviceJournals; k++ {
		path := filepath.Join(dir, fmt.Sprintf("journal-%d%s", k, store.Ext))
		t := time.Now()
		l, err := store.AcquireLease(fsys, store.LeasePath(path), "perfbench", 0, nil)
		if err != nil {
			return deviceTimes{}, err
		}
		if err := l.Release(); err != nil {
			return deviceTimes{}, err
		}
		leases = append(leases, time.Since(t).Seconds())

		j, err := store.CreateJournal(fsys, path, sc.HeaderLine, nil, nil, nil)
		if err != nil {
			return deviceTimes{}, err
		}
		for _, rec := range sc.Records {
			t := time.Now()
			if err := j.Append(rec); err != nil {
				_ = j.Close()
				return deviceTimes{}, err
			}
			appends = append(appends, time.Since(t).Seconds())
		}
		if err := j.Close(); err != nil {
			return deviceTimes{}, err
		}

		t = time.Now()
		n, _, err := store.ReplayJournal(fsys, path, hdr.Version, 64<<20, io.Discard)
		if err != nil {
			return deviceTimes{}, err
		}
		if n != len(sc.Records) {
			return deviceTimes{}, fmt.Errorf("replayed %d of %d records", n, len(sc.Records))
		}
		replays = append(replays, time.Since(t).Seconds())
	}
	return deviceTimes{append: median(appends), lease: median(leases), replay: median(replays)}, nil
}

// setZeroSweep emits the simulation-layer metrics serve-hot does not
// exercise (its cells are RunCache hits), as zero.
func setZeroSweep(r *report) {
	for _, name := range []string{"tree.build_s", "sim.self_s", "monitor.self_s", "dist.cell_s"} {
		r.set(name, "s", 0)
	}
	r.set("tree.alloc_mb", "MB", 0)
	r.set("sim.ns_per_leaf", "ns", 0)
	r.set("workload.pool_util", "ratio", 0)
	for _, name := range []string{"sim.leaves", "sim.segments", "monitor.samples"} {
		r.set(name, "count", 0)
	}
}
