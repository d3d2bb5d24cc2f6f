package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request (one scenario repetition, one HTTP request) share Req; Parent
// is the span that caused this one (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	// Count is the units of work inside the span (nodes keyed,
	// intervals simulated), when the layer has a natural unit.
	Count int `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing; its begin/end cost is what the overhead figure
// subtracts.
type tracer struct {
	on     bool
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.origin)) / 1e3 }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: start})
	return len(t.spans)
}

// end closes span id, recording count units of work inside it.
func (t *tracer) end(id, count int) {
	if id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
	t.spans[id-1].Count = count
}

// layerOf names the layer a span belongs to: the prefix before its
// first dot ("cluster.RunScenario" is the cluster layer).
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each layer's self time in ms: every span's duration
// minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		covered := coverage(s, children[s.ID])
		self[layerOf(s.Name)] += (s.End - s.Start - covered) / 1e3
	}
	return self
}

// coverage is the length of the union of the children's intervals,
// clipped to the parent's.
func coverage(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curStart, curEnd float64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if open && s <= curEnd {
			curEnd = max(curEnd, e)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = s, e, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// printLedger prints self time per layer, largest first.
func (t *tracer) printLedger() {
	self := t.selfTimes()
	var layers []string
	var total float64
	for l, v := range self {
		if l == "e2e" {
			continue // the whole-call spans the layers are set against
		}
		layers = append(layers, l)
		total += v
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	for _, l := range layers {
		fmt.Printf("# ledger self-time %-10s %10.1f ms  %5.1f%%\n", l, self[l], 100*self[l]/total)
	}
}

// overheadFrac estimates how much recording slowed the traced run:
// the recorded spans times the calibrated cost of one begin/end pair,
// as a share of the run's wall time without that cost. (Timing a second,
// untraced run instead would bury the figure in run-to-run noise: a
// traced run records tens to thousands of spans against seconds of
// simulation.)
func (t *tracer) overheadFrac(wall time.Duration) float64 {
	const n = 100_000
	probe := newTracer(true)
	probe.spans = make([]span, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		probe.end(probe.begin("probe.span", 0, i), 0)
	}
	cost := float64(time.Since(t0)) / n * float64(len(t.spans))
	return cost / (float64(wall) - cost)
}

// write saves every span as JSON, with the host and run they came from.
func (t *tracer) write(path string, o options) error {
	data, err := json.Marshal(struct {
		Host     string `json:"host"`
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{o.host, o.workload, o.seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
