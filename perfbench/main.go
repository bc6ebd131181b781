// Command perfbench is the repository benchmark. It drives the sweep
// pipeline (internal/workload, sim, monitor) and the sweep service
// (internal/serve, store) in process, checks their outputs, and prints
// one JSON result line as the last line of standard output.
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --selftest
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run.
// README.md explains the workloads, the metrics and the noise findings
// the design rests on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runStart is when a run's first setup starts: process start, after
// the host calibration. setup_s counts the first setup from here.
var runStart time.Time

// A run sets its workload up at least defaultSetups times, and until
// the setups took minSetupSeconds together, so that a cheap setup's
// median rests on enough samples; setup_s is the median. paper-sweep,
// whose setup is a whole multi-second sweep, sets up once.
const (
	defaultSetups   = 3
	minSetupSeconds = 2.0
)

type options struct {
	seed    int64
	seconds float64
	trace   bool
	setups  int
	workDir string // scratch space for server stores, inside the checkout
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run produced.
type report struct {
	attempted int
	failed    int
	// mismatches are output-oracle failures; any one fails the run.
	mismatches []string
	metrics    map[string]metric
	meta       map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, meta: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// mismatch records an oracle failure; the first 20 are kept, which is
// enough to diagnose a run without flooding standard error.
func (r *report) mismatch(format string, args ...any) {
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(o options, r *report) error

var workloads = map[string]workloadFunc{
	"paper-sweep": paperSweep,
	"mixed-sweep": mixedSweep,
	"serve-hot":   serveHot,
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: paper-sweep, mixed-sweep or serve-hot")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		selftest = flag.Bool("selftest", false, "run every workload briefly and check the emitted metrics against BENCHMARK.json")
	)
	flag.Parse()

	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	code := run(*name, *selftest, options{seed: *seed, seconds: *seconds, trace: *trace == 1, setups: defaultSetups, workDir: work})
	if err := os.RemoveAll(work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing work dir:", err)
	}
	os.Exit(code)
}

func run(name string, selftest bool, o options) int {
	if selftest {
		return selfTest(o)
	}
	fn, ok := workloads[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: %s)\n", name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	r, err := runWorkload(fn, o)
	for _, m := range r.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: oracle:", m)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	meta, _ := json.Marshal(map[string]any{"meta": r.meta})
	fmt.Println(string(meta))
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.mismatches) == 0, r.attempted, r.failed, r.metrics})
	fmt.Println(string(out))
	if len(r.mismatches) > 0 || r.failed > 0 {
		return 1
	}
	return 0
}

// runWorkload wraps one workload run with the host metadata and the
// calibration readings taken before and after it.
func runWorkload(fn workloadFunc, o options) (*report, error) {
	r := newReport()
	host := hostInfo()
	host["host.spin_s.start"], host["host.memtouch_s.start"] = calibrate()
	runStart = time.Now()
	if err := fn(o, r); err != nil {
		return r, err
	}
	host["host.spin_s.end"], host["host.memtouch_s.end"] = calibrate()
	r.meta["host"] = host
	r.meta["seed"] = o.seed
	r.meta["seconds"] = o.seconds
	return r, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// selfTest runs every workload at minimal length, traced and not, and
// checks that each emits exactly the metrics BENCHMARK.json lists, with
// their units, and that no op failed and every oracle held.
func selfTest(o options) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: selftest:", err)
		return 1
	}
	o.seconds, o.setups = 1, 1
	bad := 0
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			o.trace = trace
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			r, err := runWorkload(workloads[name], o)
			var problems []string
			if err != nil {
				problems = append(problems, err.Error())
			} else {
				problems = append(problems, r.mismatches...)
				if r.attempted < 1 || r.failed != 0 {
					problems = append(problems, fmt.Sprintf("attempted %d, failed %d", r.attempted, r.failed))
				}
				problems = append(problems, checkMetrics(r.metrics, want)...)
			}
			status := "ok"
			if len(problems) > 0 {
				status = "FAIL: " + strings.Join(problems, "; ")
				bad++
			}
			fmt.Printf("selftest %-11s trace=%v: %s\n", name, trace, status)
		}
	}
	if bad > 0 {
		return 1
	}
	fmt.Println("selftest ok")
	return 0
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// checkMetrics reports every metric that is missing, extra, carries the
// wrong unit, or is not a finite number.
func checkMetrics(got map[string]metric, want []specMetric) []string {
	var problems []string
	seen := map[string]bool{}
	for _, w := range want {
		seen[w.Name] = true
		m, ok := got[w.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+w.Name)
		case m.Unit != w.Unit:
			problems = append(problems, fmt.Sprintf("%s has unit %q, want %q", w.Name, m.Unit, w.Unit))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			problems = append(problems, fmt.Sprintf("%s is not finite", w.Name))
		}
	}
	for name := range got {
		if !seen[name] {
			problems = append(problems, "unlisted metric "+name)
		}
	}
	sort.Strings(problems)
	return problems
}
