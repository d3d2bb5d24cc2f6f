// Command awbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed wall-clock budget, checks that every output
// it observed is correct, and prints the workload's metrics as the last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	day-64-distinct  64 distinct-seed Baseline nodes, consolidate, one
//	                 compressed diurnal day per batch RunScenario
//	day-100k-shared  100K shared-seed nodes, spread, 4 replicas, compact
//	twin-whatif      an awserved daemon in manual-step mode driven by an
//	                 open-loop generator (steps, what-ifs, dashboard
//	                 reads, snapshot/restore round trips)
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records a span around every call it makes into a layer, writes the
// spans as JSON, prints a per-layer ledger and reports the per-layer
// metrics instead. Run it through run.sh, which builds this command and
// the daemon from the checkout first:
//
//	bash awbench/run.sh --workload day-64-distinct --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// defaultSeed is the seed whose batch ScenarioResult digests are pinned.
const defaultSeed = 1

// mixSeed spreads a workload seed into a nonzero fleet seed (seed 0
// means "default" to the simulator, so it must never reach it).
func mixSeed(seed uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) | 1
}

// options are the command-line inputs every workload sees.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	awserved string
	outDir   string
	commit   string
	// host describes the machine and code the run measured.
	host string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back: its check counts, the first few
// failed checks, and the metrics for the selected mode.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

func (r *report) set(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// check counts one correctness check; a failed one is remembered with
// its reason and counts into failed.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

var workloads = map[string]func(options, *report) error{
	"day-64-distinct": runDay,
	"day-100k-shared": runDay,
	"twin-whatif":     runTwin,
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name, or all")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured wall-clock seconds")
	traceFlag := flag.Int("trace", 0, "1 records layer spans and reports per-layer metrics")
	flag.StringVar(&o.awserved, "awserved", "", "path to a built awserved binary")
	flag.StringVar(&o.outDir, "out", ".bench_build/awbench", "directory for scratch files and spans")
	flag.StringVar(&o.commit, "commit", "unknown", "source commit, when known")
	flag.Parse()
	o.trace = *traceFlag == 1
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	run, ok := workloads[o.workload]
	if !ok || flag.NArg() > 0 || o.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "awbench: want -workload one of %s or all, -seconds > 0, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fatal(err)
	}
	o.host = hostLine(o)
	fmt.Printf("# host: %s\n# run: workload=%s seed=%d seconds=%g trace=%v\n", o.host, o.workload, o.seed, o.seconds, o.trace)
	var r report
	if err := run(o, &r); err != nil {
		fatal(err)
	}
	for _, p := range r.problems {
		fmt.Printf("# FAILED: %s\n", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if r.failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runAll runs every workload in its own process (so each peak RSS is its
// own) and returns the exit code: nonzero when any workload failed.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	for _, name := range workloadNames() {
		fmt.Printf("## workload %s\n", name)
		args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-awserved", o.awserved, "-out", o.outDir, "-commit", o.commit}
		if o.trace {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "awbench: workload %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// hostLine records where and on what the figures were measured.
func hostLine(o options) string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source_sha256=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.commit, sourceDigest())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "awbench:", err)
	os.Exit(1)
}

// tracePath is where a traced run writes its spans.
func tracePath(o options) string {
	return filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
}
