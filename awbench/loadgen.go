package main

import (
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// Request kinds of the twin script.
const (
	kindStep      = "step"
	kindWhatIf    = "whatif"
	kindDashboard = "dashboard"
	kindRestore   = "restore"
)

// Open-loop rates of the twin script, per second of run, and the fixed
// share of what-ifs that keep stepping their fork to the end of the day.
const (
	whatIfPerSec    = 4.0
	dashboardPerSec = 1.0
	restoresPerRun  = 4
	runToEndEvery   = 20
)

// op is one scripted request: its kind, when it is due (from the start of
// the run) and, for a what-if, the hypothetical it asks.
type op struct {
	kind           string
	due            time.Duration
	target, epochs int
	toEnd          bool
}

// script lays out the twin's open-loop requests for a run of the given
// length: steps evenly spread so the fleet walks through steps epochs,
// what-ifs and dashboard reads at fixed rates, and a few snapshot/restore
// round trips. The seed picks each what-if's target and window and the
// phase of every stream.
func script(seed uint64, seconds float64, steps, nodes int) []op {
	rng := rand.New(rand.NewPCG(seed, 0x7477696e))
	run := time.Duration(seconds * float64(time.Second))
	var ops []op
	every := func(kind string, n int, mk func(i int) op) {
		gap := run / time.Duration(n)
		phase := time.Duration(rng.Int64N(int64(gap)))
		for i := 0; i < n; i++ {
			o := mk(i)
			o.kind, o.due = kind, phase+time.Duration(i)*gap
			ops = append(ops, o)
		}
	}
	every(kindStep, steps, func(int) op { return op{} })
	every(kindWhatIf, int(whatIfPerSec*seconds+0.5), func(i int) op {
		return op{target: rng.IntN(nodes + 1), epochs: 1 + rng.IntN(3), toEnd: i%runToEndEvery == runToEndEvery-1}
	})
	every(kindDashboard, int(dashboardPerSec*seconds+0.5), func(int) op { return op{} })
	every(kindRestore, restoresPerRun, func(int) op { return op{} })
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// outcome is what one request did: when it started and ended (from the
// start of the run), whether it was correct, and what it observed.
type outcome struct {
	start, end time.Duration
	status     int
	checks     int
	problems   []string
	// key and digest let repeated identical what-ifs be compared after
	// the run.
	key, digest string
}

func (oc *outcome) check(ok bool, problem string) {
	oc.checks++
	if !ok {
		oc.problems = append(oc.problems, problem)
	}
}

// drive runs the script open loop: each request is handed to one of
// workers connections when it falls due, whether or not earlier ones have
// finished, so a stall delays everything behind it and shows in latency
// measured from the due time. do sets the outcome's end; drive sets its
// start. It returns when every request has ended.
func drive(ops []op, workers int, do func(i int, o op, origin time.Time) outcome) []outcome {
	outs := make([]outcome, len(ops))
	jobs := make(chan int)
	origin := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				start := time.Since(origin)
				oc := do(i, ops[i], origin)
				oc.start = start
				outs[i] = oc
			}
		}()
	}
	for i, o := range ops {
		if d := o.due - time.Since(origin); d > 0 {
			time.Sleep(d)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return outs
}
