package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"capscale/internal/cluster"
	"capscale/internal/monitor"
	"capscale/internal/obs"
	"capscale/internal/rapl"
	"capscale/internal/sim"
	"capscale/internal/workload"
)

// paperSweep is the paper's 48-cell matrix at -j 1. On a 2-core host
// two workers run the multi-hundred-MB 4096 CAPS/Strassen trees side by
// side and contend for memory bandwidth and GC, which spreads -j 2
// sweep times by ±18% against ±4% at -j 1; mixed-sweep measures the
// pool instead. A sweep takes seconds, so the run sets up once (one
// warm-up sweep) and spends the rest of its time on timed sweeps.
func paperSweep(o options, r *report) error {
	cfg := workload.PaperConfig()
	cfg.NoCache = true
	cfg.Parallelism = 1
	o.setups = 1
	return sweepWorkload(cfg, o, r)
}

// mixedSweep is 96 small cells over every algorithm family, node and
// cluster, at -j nproc: per-cell fixed cost, the sweep's worker pool, the
// distributed path and the sparse and Winograd trees, none of which
// the paper matrix exercises.
func mixedSweep(o options, r *report) error {
	cfg := workload.PaperConfig()
	cfg.Algorithms = nil
	for i := range workload.AlgorithmNames() {
		cfg.Algorithms = append(cfg.Algorithms, workload.Algorithm(i))
	}
	cfg.Sizes = []int{256, 512, 1024}
	cfg.Threads = []int{1, 2, 3, 4}
	for _, s := range []string{"16x1GbE", "49xFDR"} {
		spec, err := cluster.ParseSpec(s)
		if err != nil {
			return err
		}
		cfg.Clusters = append(cfg.Clusters, spec)
	}
	cfg.NoCache = true
	cfg.Parallelism = runtime.NumCPU()
	return sweepWorkload(cfg, o, r)
}

// sweepOp is one untraced sweep: its wall time and what it cost.
type sweepOp struct {
	wall     float64
	use      usage
	cellSecs float64 // Σ workload.cell.seconds over the sweep
}

var cellSeconds = obs.GetHistogramUnit("workload.cell.seconds", "s")

func histSum(h *obs.Histogram) float64 { return h.Mean() * float64(h.Count()) }

// runSweep executes one sweep and returns it with its wall time and
// what it cost.
func runSweep(cfg workload.Config) (*workload.Matrix, sweepOp) {
	u0, c0 := readUsage(), histSum(cellSeconds)
	t := time.Now()
	mx := workload.Execute(cfg)
	wall := time.Since(t).Seconds()
	return mx, sweepOp{wall: wall, use: readUsage().minus(u0), cellSecs: histSum(cellSeconds) - c0}
}

// records renders a sweep's cells as journal record lines in matrix
// order — the bytes the sweep service would stream for it.
func records(mx *workload.Matrix) ([]byte, error) {
	var buf bytes.Buffer
	for i := range mx.Runs {
		run := &mx.Runs[i]
		if run.Failed() || run.Interrupted() {
			return nil, fmt.Errorf("cell %s failed: %s", cellKey(run), run.Err)
		}
		line, err := workload.MarshalRunRecord(cellKey(run), run)
		if err != nil {
			return nil, err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// cellKey mirrors workload.Execute's cell key: alg/n/threads, with the
// cluster spec appended (and threads 0) for distributed cells.
func cellKey(r *workload.Run) string {
	if r.Cluster != "" {
		return fmt.Sprintf("%s/%d/0@%s", r.Alg, r.N, r.Cluster)
	}
	return fmt.Sprintf("%s/%d/%d", r.Alg, r.N, r.Threads)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// sweepWorkload sets the sweep up (one untimed warm-up sweep each
// time), then starts sweeps until o.seconds have passed. Every sweep's records
// must equal the first sweep's byte for byte.
func sweepWorkload(cfg workload.Config, o options, r *report) error {
	var setups []float64
	var ref *workload.Matrix
	var refRecs []byte
	for i := 0; i < o.setups || sum(setups) < minSetupSeconds; i++ {
		start := time.Now()
		if i == 0 {
			start = runStart
		}
		mx, _ := runSweep(cfg)
		recs, err := records(mx)
		if err != nil {
			return fmt.Errorf("warm-up sweep: %w", err)
		}
		if ref == nil {
			ref, refRecs = mx, recs
		} else if !bytes.Equal(recs, refRecs) {
			r.mismatch("warm-up sweep %d records differ from the first sweep", i+1)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.meta["cells"] = len(ref.Runs)
	r.meta["workers"] = workers(cfg, len(ref.Runs))
	r.meta["records_sha256"] = digest(refRecs)
	r.meta["setup_s_each"] = setups

	// check verifies one timed sweep against the reference records.
	check := func(mx *workload.Matrix) {
		r.attempted++
		recs, err := records(mx)
		switch {
		case err != nil:
			r.failed++
			r.mismatch("sweep %d: %v", r.attempted, err)
		case !bytes.Equal(recs, refRecs):
			r.failed++
			r.mismatch("sweep %d: records (sha256 %s) differ from the first sweep's", r.attempted, digest(recs))
		}
	}

	if o.trace {
		traceSweeps(cfg, ref, o, r, check)
		return nil
	}

	var ops []sweepOp
	var walls []float64
	begin := time.Now()
	for time.Since(begin).Seconds() < o.seconds {
		mx, op := runSweep(cfg)
		check(mx)
		ops = append(ops, op)
		walls = append(walls, op.wall)
	}
	elapsed := time.Since(begin).Seconds()
	var total usage
	for _, op := range ops {
		total = total.plus(op.use)
	}
	n := float64(len(ops))
	r.set("setup_s", "s", median(setups))
	r.set("op_p50_s", "s", median(walls))
	r.set("op_p90_s", "s", quantile(walls, 0.9))
	r.set("cpu_per_op_s", "s", total.cpu/n)
	r.set("alloc_mb_per_op", "MB", float64(total.alloc)/1e6/n)
	r.set("ops_per_s", "1/s", n/elapsed)
	r.meta["op_s_each"] = walls
	return nil
}

func workers(cfg workload.Config, cells int) int {
	w := cfg.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > cells {
		w = cells
	}
	return w
}

// layers accumulates per-layer self times and counts over one traced
// sweep replica.
type layers struct {
	build, sim, mon, dist time.Duration
	leaves, segments      int64
	samples               int64
}

func (l *layers) add(m layers) {
	l.build += m.build
	l.sim += m.sim
	l.mon += m.mon
	l.dist += m.dist
	l.leaves += m.leaves
	l.segments += m.segments
	l.samples += m.samples
}

func (l *layers) total() time.Duration { return l.build + l.sim + l.mon + l.dist }

// replicaCell runs one node cell the way workload.Execute does — BuildTree,
// a monitor stream fused into sim.Run, Finish — timing each layer from
// outside, and assembles the same Run the sweep records.
func replicaCell(cfg workload.Config, alg workload.Algorithm, n, threads int, l *layers) workload.Run {
	t0 := time.Now()
	root := workload.BuildTree(cfg.Machine, alg, n, threads)
	t1 := time.Now()
	interval := cfg.PollInterval
	if interval <= 0 {
		interval = workload.DefaultPollInterval
	}
	stream, err := monitor.NewStream(monitor.Config{PollInterval: interval})
	if err != nil {
		panic(fmt.Sprintf("monitor: %v", err))
	}
	t2 := time.Now()
	var inMon time.Duration
	var segs int64
	res := sim.Run(cfg.Machine, root, sim.Config{
		Workers: threads,
		OnSegment: func(seg sim.Segment) {
			s := time.Now()
			stream.OnSegment(seg)
			inMon += time.Since(s)
			segs++
		},
	})
	t3 := time.Now()
	rep, err := stream.Finish()
	if err != nil {
		panic(fmt.Sprintf("monitor: %v", err))
	}
	t4 := time.Now()

	l.build += t1.Sub(t0)
	l.sim += t3.Sub(t2) - inMon
	l.mon += t2.Sub(t1) + inMon + t4.Sub(t3)
	l.leaves += int64(res.Leaves)
	l.segments += segs
	l.samples += int64(rep.Samples)

	pkg, pp0, dram := rep.Plane(rapl.PlanePKG), rep.Plane(rapl.PlanePP0), rep.Plane(rapl.PlaneDRAM)
	byKind := make(map[string]float64, len(res.BusyByKind))
	for k, v := range res.BusyByKind {
		byKind[k.String()] = v
	}
	run := workload.Run{
		Alg: alg, N: n, Threads: threads,
		Seconds:   rep.Duration,
		PKGJoules: pkg.MeasuredJ, PP0Joules: pp0.MeasuredJ, DRAMJoules: dram.MeasuredJ,
		TruthPKGJoules: pkg.TruthJ, TruthPP0Joules: pp0.TruthJ, TruthDRAMJoules: dram.TruthJ,
		MeasSamples:    rep.Samples,
		Leaves:         res.Leaves,
		RemoteBytes:    res.RemoteBytes,
		StolenLeaves:   res.StolenLeaves,
		AllocHighWater: res.AllocHighWater,
		Utilization:    res.Utilization(),
		BusyByKind:     byKind,
		Degraded:       rep.Degraded,
		MeasRetries:    rep.Retries,
		MeasReadErrors: rep.ReadErrors,
		MeasDrops:      rep.DroppedSamples,
	}
	for _, p := range rep.Quarantined {
		run.QuarantinedPlanes = append(run.QuarantinedPlanes, p.String())
	}
	return run
}

// replicaSweep replays every cell of ref from outside, on as many
// workers as the untraced sweep uses. Node cells go through
// replicaCell; distributed cells are timed whole through
// workload.ExecuteOneCluster. Each replica Run must equal the sweep's
// bit for bit; ok reports whether every one did.
func replicaSweep(cfg workload.Config, ref *workload.Matrix, r *report) (l layers, wall float64, ok bool) {
	cells := ref.Runs
	w := workers(cfg, len(cells))
	per := make([]layers, w)
	var next atomic.Int64
	next.Store(-1)
	mismatch := make([]string, len(cells))
	t := time.Now()
	parallel(w, func(wi int) {
		acc := &per[wi]
		for {
			i := int(next.Add(1))
			if i >= len(cells) {
				return
			}
			want := &cells[i]
			var got workload.Run
			if want.Cluster != "" {
				spec, err := cluster.ParseSpec(want.Cluster)
				if err != nil {
					mismatch[i] = err.Error()
					continue
				}
				s := time.Now()
				got = workload.ExecuteOneCluster(cfg, want.Alg, want.N, spec)
				acc.dist += time.Since(s)
			} else {
				got = replicaCell(cfg, want.Alg, want.N, want.Threads, acc)
			}
			if !reflect.DeepEqual(got, *want) {
				mismatch[i] = fmt.Sprintf("replica of cell %s differs from the sweep's Run", cellKey(want))
			}
		}
	})
	wall = time.Since(t).Seconds()
	for _, p := range per {
		l.add(p)
	}
	ok = true
	for _, m := range mismatch {
		if m != "" {
			r.mismatch("%s", m)
			ok = false
		}
	}
	return l, wall, ok
}

// traceSweeps is the traced run: untraced sweeps alternate with traced
// replicas for o.seconds, so the overhead compares like with like
// under the same host drift.
func traceSweeps(cfg workload.Config, ref *workload.Matrix, o options, r *report, check func(*workload.Matrix)) {
	// Once per run: every node cell through workload.ExecuteOne must
	// equal the sweep's cell, and each tree's allocation is measured
	// alone.
	var treeAlloc uint64
	for i := range ref.Runs {
		want := &ref.Runs[i]
		if want.Cluster != "" {
			continue
		}
		a0 := readUsage().alloc
		root := workload.BuildTree(cfg.Machine, want.Alg, want.N, want.Threads)
		treeAlloc += readUsage().alloc - a0
		runtime.KeepAlive(root)
		if got := workload.ExecuteOne(cfg, want.Alg, want.N, want.Threads); !reflect.DeepEqual(got, *want) {
			r.mismatch("workload.ExecuteOne of cell %s differs from the sweep's Run", cellKey(want))
		}
	}

	heap := startHeapSampler()
	var plain []sweepOp
	var traced []layers
	var plainWalls, tracedWalls []float64
	begin := time.Now()
	for time.Since(begin).Seconds() < o.seconds {
		mx, op := runSweep(cfg)
		check(mx)
		plain = append(plain, op)
		plainWalls = append(plainWalls, op.wall)

		l, wall, ok := replicaSweep(cfg, ref, r)
		r.attempted++
		if !ok {
			r.failed++
		}
		traced = append(traced, l)
		tracedWalls = append(tracedWalls, wall)
	}
	peak := heap.peakMB()

	w := float64(workers(cfg, len(ref.Runs)))
	med := func(f func(l layers) float64) float64 {
		var xs []float64
		for _, l := range traced {
			xs = append(xs, f(l))
		}
		return median(xs)
	}
	medOp := func(f func(op sweepOp) float64) float64 {
		var xs []float64
		for _, op := range plain {
			xs = append(xs, f(op))
		}
		return median(xs)
	}
	simSelf := med(func(l layers) float64 { return l.sim.Seconds() })
	leaves := med(func(l layers) float64 { return float64(l.leaves) })
	plainP50 := median(plainWalls)

	setZeroServe(r)
	r.set("tree.build_s", "s", med(func(l layers) float64 { return l.build.Seconds() }))
	r.set("tree.alloc_mb", "MB", float64(treeAlloc)/1e6)
	r.set("sim.self_s", "s", simSelf)
	r.set("sim.leaves", "count", leaves)
	r.set("sim.ns_per_leaf", "ns", safeDiv(simSelf*1e9, leaves))
	r.set("sim.segments", "count", med(func(l layers) float64 { return float64(l.segments) }))
	r.set("monitor.self_s", "s", med(func(l layers) float64 { return l.mon.Seconds() }))
	r.set("monitor.samples", "count", med(func(l layers) float64 { return float64(l.samples) }))
	r.set("dist.cell_s", "s", med(func(l layers) float64 { return l.dist.Seconds() }))
	r.set("workload.pool_util", "ratio", medOp(func(op sweepOp) float64 { return op.cellSecs / (w * op.wall) }))
	r.set("gc.cpu_s", "s", medOp(func(op sweepOp) float64 { return op.use.gcCPU }))
	r.set("gc.cycles", "count", medOp(func(op sweepOp) float64 { return float64(op.use.gcCycles) }))
	r.set("heap.peak_mb", "MB", peak)
	r.set("cache.hit_ratio", "ratio", 0)
	r.set("trace.overhead_frac", "ratio", median(tracedWalls)/plainP50-1)
	r.set("trace.coverage", "ratio", med(func(l layers) float64 { return l.total().Seconds() })/(w*plainP50))
	r.meta["op_s_each"] = plainWalls
	r.meta["traced_op_s_each"] = tracedWalls
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setZeroServe emits the service-layer metrics a sweep workload does
// not exercise, as zero.
func setZeroServe(r *report) {
	for _, name := range []string{
		"store.fsync_s", "store.lease_s", "store.replay_s",
		"serve.ttfb_s", "serve.stream_s",
		"serve.post_p50_s", "serve.post_p90_s", "serve.repost_p50_s", "serve.repost_p90_s",
		"serve.get_p50_s", "serve.get_p90_s",
	} {
		r.set(name, "s", 0)
	}
	r.set("store.fsyncs_per_req", "count", 0)
	r.set("store.write_bytes_per_req", "B", 0)
	r.set("serve.bytes_per_req", "B", 0)
}
