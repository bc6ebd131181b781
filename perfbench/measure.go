package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q=0.5 is the median). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// usage is a snapshot of the process counters an op is charged with.
type usage struct {
	cpu      float64 // user+sys seconds
	alloc    uint64  // heap bytes allocated, cumulative
	gcCPU    float64 // GC CPU seconds (runtime estimate), cumulative
	gcCycles uint64
}

var usageSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(usageSamples)
	return usage{
		cpu:      tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		alloc:    ms.TotalAlloc,
		gcCPU:    usageSamples[0].Value.Float64(),
		gcCycles: usageSamples[1].Value.Uint64(),
	}
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func (u usage) minus(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, alloc: u.alloc - v.alloc, gcCPU: u.gcCPU - v.gcCPU, gcCycles: u.gcCycles - v.gcCycles}
}

func (u usage) plus(v usage) usage {
	return usage{cpu: u.cpu + v.cpu, alloc: u.alloc + v.alloc, gcCPU: u.gcCPU + v.gcCPU, gcCycles: u.gcCycles + v.gcCycles}
}

// heapSampler records the peak of live heap objects while it runs. It
// runs only in traced runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / 1e6
}

// hostInfo is the metadata that tells runs from different hosts apart.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"llc_bytes":  llcBytes(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcBytes reads the size of the largest cache level sysfs reports for
// CPU 0, or 0 when it is not available.
func llcBytes() int64 {
	var best int64
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}

// Calibration sizes: the spin loop is register-only; the touch buffer
// is larger than any last-level cache this benchmark expects (and at
// least 1.25x the one sysfs reports, up to the cap).
const (
	spinIters       = 50_000_000
	minTouchBytes   = 64 << 20
	maxTouchBytes   = 512 << 20
	touchStride     = 64
	touchPasses     = 2
	calibrationRuns = 3
)

var spinSink uint64

// calibrate times a register-only loop and a strided touch of a buffer
// larger than the LLC, each as the median of a few repetitions, so a
// host whose speed drifts shows beside the numbers.
func calibrate() (spinS, touchS float64) {
	var spins, touches []float64
	size := int64(minTouchBytes)
	if l := llcBytes() * 5 / 4; l > size {
		size = l
	}
	if size > maxTouchBytes {
		size = maxTouchBytes
	}
	buf := make([]byte, size)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1 // fault every page in before timing
	}
	for r := 0; r < calibrationRuns; r++ {
		t := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < spinIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink += x
		spins = append(spins, time.Since(t).Seconds())

		t = time.Now()
		for p := 0; p < touchPasses; p++ {
			for i := 0; i < len(buf); i += touchStride {
				buf[i]++
			}
		}
		touches = append(touches, time.Since(t).Seconds())
	}
	runtime.GC()
	return median(spins), median(touches)
}

// parallel runs fn on each of n goroutines and waits for all of them.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}
