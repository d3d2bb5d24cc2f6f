package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func writeBench(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBenchOutput(t *testing.T) {
	path := writeBench(t, "new.txt", `
goos: linux
BenchmarkRunScenarioWarm-8   	      10	 123456789 ns/op	 1000000 B/op	   20000 allocs/op
BenchmarkRunScenarioWarm-8   	      10	 123456791 ns/op	 1000002 B/op	   20002 allocs/op
BenchmarkRunScenario100K-8   	       1	3318566903 ns/op
PASS
`)
	runs, _, err := parse(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(runs["BenchmarkRunScenarioWarm"]); got != 2 {
		t.Fatalf("warm samples = %d, want 2", got)
	}
	if got := runs["BenchmarkRunScenario100K"]; len(got) != 1 || got[0].nsOp != 3318566903 || got[0].hasMem {
		t.Fatalf("100K sample = %+v, want one memless 3318566903 ns/op sample", got)
	}
	if !runs["BenchmarkRunScenarioWarm"][0].hasMem {
		t.Fatal("benchmem columns not parsed")
	}
}

func TestMedianOf(t *testing.T) {
	if got := medianOf([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v, want 2", got)
	}
	if got := medianOf([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("even median = %v, want 2.5", got)
	}
}

// TestEmitPartialWithoutBaseline pins the satellite fix: a benchmark
// absent from the baseline (or with a zero base median) emits a partial
// record — ns_op/samples only, no base_ns_op, no speedup — instead of
// zero-valued comparison fields.
func TestEmitPartialWithoutBaseline(t *testing.T) {
	newRuns := map[string][]sample{
		"BenchmarkShared": {{nsOp: 100}, {nsOp: 110}},
		"BenchmarkNew":    {{nsOp: 50, bOp: 640, allocs: 7, hasMem: true}},
		"BenchmarkZeroed": {{nsOp: 80}},
	}
	baseRuns := map[string][]sample{
		"BenchmarkShared": {{nsOp: 210}},
		"BenchmarkZeroed": {{nsOp: 0}},
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := emit(path, host{GoVersion: "go1.24.0"}, newRuns, baseRuns); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Date       string                     `json:"date"`
		Benchmarks map[string]json.RawMessage `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var shared emitEntry
	if err := json.Unmarshal(doc.Benchmarks["BenchmarkShared"], &shared); err != nil {
		t.Fatal(err)
	}
	if shared.BaseNsOp == nil || *shared.BaseNsOp != 210 {
		t.Fatalf("shared base = %v, want 210", shared.BaseNsOp)
	}
	if shared.Speedup == nil || *shared.Speedup != 2 {
		t.Fatalf("shared speedup = %v, want 2 (210/105 median)", shared.Speedup)
	}
	for _, name := range []string{"BenchmarkNew", "BenchmarkZeroed"} {
		var m map[string]any
		if err := json.Unmarshal(doc.Benchmarks[name], &m); err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"base_ns_op", "speedup"} {
			if _, present := m[field]; present {
				t.Errorf("%s: %q emitted without a usable baseline", name, field)
			}
		}
	}
	var withMem emitEntry
	if err := json.Unmarshal(doc.Benchmarks["BenchmarkNew"], &withMem); err != nil {
		t.Fatal(err)
	}
	if withMem.AllocsOp == nil || *withMem.AllocsOp != 7 || withMem.BytesOp == nil || *withMem.BytesOp != 640 {
		t.Fatalf("benchmem medians not emitted: %+v", withMem)
	}
}

// TestEmitRecordsHost pins the host block of the emitted snapshot
// against a captured multi-package bench output: goos, goarch and cpu
// come from the bench header, GOMAXPROCS from the -N name suffix, and
// the Go version from the running toolchain.
func TestEmitRecordsHost(t *testing.T) {
	fixture := filepath.Join("testdata", "bench-micro.txt")
	runs, h, err := parse(fixture)
	if err != nil {
		t.Fatal(err)
	}
	want := host{
		GOOS:       "linux",
		GOARCH:     "amd64",
		CPU:        "Intel(R) Xeon(R) Processor @ 2.10GHz",
		GOMAXPROCS: 2,
		GoVersion:  runtime.Version(),
	}
	if h != want {
		t.Fatalf("host = %+v, want %+v", h, want)
	}
	if len(runs["BenchmarkHistogramAdd"]) != 2 || len(runs["BenchmarkRunScenarioWarm"]) != 2 {
		t.Fatalf("fixture samples not parsed across packages: %v", runs)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := emit(path, h, runs, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Host map[string]any `json:"host"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for field, v := range map[string]any{
		"goos": "linux", "goarch": "amd64", "cpu": want.CPU,
		"gomaxprocs": float64(2), "go_version": runtime.Version(),
	} {
		if doc.Host[field] != v {
			t.Errorf("host.%s = %v, want %v", field, doc.Host[field], v)
		}
	}
}

// TestParseGOMAXPROCSOne pins the suffix rule: go test omits the -N
// suffix when GOMAXPROCS is 1.
func TestParseGOMAXPROCSOne(t *testing.T) {
	path := writeBench(t, "one.txt", "BenchmarkX \t 10\t 5.0 ns/op\n")
	if _, h, err := parse(path); err != nil || h.GOMAXPROCS != 1 {
		t.Fatalf("GOMAXPROCS = %d (err %v), want 1", h.GOMAXPROCS, err)
	}
}
