package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/governor"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// pinnedDigests are the ScenarioResult digests of the batch workloads at
// the default seed. A change that alters any result bit shows here.
var pinnedDigests = map[string]string{
	"day-64-distinct": "5955cea526fe7d4d",
	"day-100k-shared": "318f61f7cd06c508",
}

// dayConfig builds a batch workload's scenario from the seed: the
// compressed diurnal day of 24 x 2 ms epochs over a Baseline Memcached
// fleet. The runner is left nil; every timed repetition sets its own.
func dayConfig(name string, seed uint64) (cluster.ScenarioConfig, error) {
	template := server.Config{
		Platform: governor.Baseline,
		Profile:  workload.Memcached(),
		Warmup:   10 * sim.Millisecond,
		Seed:     mixSeed(seed),
	}
	nodes := 64
	if name == "day-100k-shared" {
		nodes = 100_000
	}
	total := 48 * sim.Millisecond
	sched, err := scenario.Diurnal(float64(nodes)*800e3, 0.6, total, 12)
	if err != nil {
		return cluster.ScenarioConfig{}, err
	}
	cfg := cluster.ScenarioConfig{
		Schedule:    sched,
		Epoch:       2 * sim.Millisecond,
		ParkDrained: true,
	}
	if name == "day-64-distinct" {
		cfg.Nodes = cluster.Homogeneous(nodes, template)
		cfg.Dispatch = cluster.DispatchConsolidate
		return cfg, nil
	}
	cfg.Nodes = make([]server.Config, nodes)
	for i := range cfg.Nodes {
		cfg.Nodes[i] = template
	}
	cfg.Dispatch = cluster.DispatchSpread
	cfg.Replicas = 4
	cfg.CompactNodes = true
	return cfg, nil
}

func runDay(o options, r *report) error {
	build := func() (cluster.ScenarioConfig, error) {
		cfg, err := dayConfig(o.workload, o.seed)
		if err != nil {
			return cfg, err
		}
		return cfg, cfg.Validate()
	}
	setup, err := repeatSetup(500*time.Millisecond, func() error {
		_, err := build()
		return err
	})
	if err != nil {
		return err
	}
	cfg, err := build()
	if err != nil {
		return err
	}
	if o.trace {
		return traceBatch(o, r, cfg, nil, newTracer(true))
	}
	samples, err := timeScenarios(o, r, cfg, nil, o.seconds, 3)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	p50 := median(samples)
	r.set("setup_s", setup, "s")
	r.set("scenario_p50_s", p50, "s")
	r.set("peak_rss_mb", rss, "MB")
	r.set("latency_p50_ms", 1e3*p50, "ms")
	r.set("latency_p90_ms", 1e3*quantile(samples, 0.9), "ms")
	fmt.Printf("# samples scenario_s %.4f\n", samples)
	fmt.Printf("# metric setup_s %.4g s\n", setup)
	fmt.Printf("# metric scenario_p50_s %.4f s (n=%d; each request is one full RunScenario)\n", p50, len(samples))
	fmt.Printf("# metric peak_rss_mb %.1f MB (benchmark process)\n", rss)
	fmt.Printf("# metric error_rate %.4g (%d failed / %d attempted)\n", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	return nil
}

// timeScenarios runs RunScenario repeatedly for the given wall-clock
// budget (at least minReps timed repetitions after one untimed warm-up)
// and returns each repetition's wall time in seconds. Every repetition
// gets a fresh private runner, so no memoized timeline from an earlier
// one can short-circuit it, and every result is checked: the same digest
// each time (pinned at the default seed for the batch workloads), the
// same cache miss count each time, and the conservation laws.
func timeScenarios(o options, r *report, cfg cluster.ScenarioConfig, down func(node, epoch int) bool, seconds float64, minReps int) ([]float64, error) {
	var samples []float64
	var ref string
	var refMisses uint64
	start := time.Now()
	for rep := 0; rep == 0 || len(samples) < minReps || time.Since(start).Seconds() < seconds; rep++ {
		run := runner.New(0)
		cfg.Runner = run
		t0 := time.Now()
		res, err := cluster.RunScenario(cfg)
		dt := time.Since(t0).Seconds()
		r.check(err == nil, "RunScenario: %v", err)
		if err != nil {
			continue
		}
		if rep > 0 {
			samples = append(samples, dt)
		}
		_, misses := run.Stats()
		d, err := resultDigest(res)
		if err != nil {
			return nil, err
		}
		if rep == 0 {
			ref, refMisses = d, misses
			if want, ok := pinnedDigests[o.workload]; ok && o.seed == defaultSeed {
				r.check(d == want, "%s seed %d digest %s, pinned %s", o.workload, o.seed, d, want)
			}
			fmt.Printf("# digest %s seed=%d %s\n", o.workload, o.seed, d)
		}
		r.check(d == ref, "repetition %d digest %s differs from %s", rep, d, ref)
		r.check(misses == refMisses, "repetition %d runner misses %d, first repetition %d", rep, misses, refMisses)
		checkConservation(r, res, len(cfg.Nodes), run, down)
		if rep == 0 {
			start = time.Now() // the warm-up is not part of the measured window
		}
	}
	return samples, nil
}

func resultDigest(res cluster.ScenarioResult) (string, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return digest(data), nil
}

// checkConservation checks the laws every ScenarioResult must keep:
// per epoch, offered requests = admitted + shed + change in backlog and
// the nodes counted active, idle or down make up the fleet; over the
// run, epoch energies sum to FleetEnergyJ and the timeline classes
// account for every node.
func checkConservation(r *report, res cluster.ScenarioResult, nodes int, run *runner.Runner, down func(node, epoch int) bool) {
	const tol = 1e-9
	near := func(a, b float64) bool { return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b))) }
	var energy, prevBacklog float64
	for e, ep := range res.Epochs {
		win := float64(ep.End-ep.Start) / 1e9
		admitted := ep.Fleet.RateQPS
		if ep.Fleet.Nodes != nil {
			admitted = 0
			for _, n := range ep.Fleet.Nodes {
				admitted += n.RateQPS
			}
		}
		backlog := ep.BacklogRate * win
		offered := ep.RateQPS * win
		r.check(near(offered, admitted*win+ep.SheddedRequests+backlog-prevBacklog),
			"epoch %d: offered %g != admitted %g + shed %g + backlog change %g", e, offered, admitted*win, ep.SheddedRequests, backlog-prevBacklog)
		prevBacklog = backlog
		r.check(ep.Fleet.ActiveNodes+ep.Fleet.IdleNodes == nodes,
			"epoch %d: %d active + %d idle != %d nodes", e, ep.Fleet.ActiveNodes, ep.Fleet.IdleNodes, nodes)
		if down != nil {
			want := 0
			for i := 0; i < nodes; i++ {
				if down(i, e) {
					want++
				}
			}
			r.check(ep.Down == want, "epoch %d: %d nodes down, the fault plan has %d", e, ep.Down, want)
		}
		energy += ep.Fleet.FleetEnergyJ
	}
	r.check(near(energy, res.FleetEnergyJ), "epoch energies sum to %g J, FleetEnergyJ is %g J", energy, res.FleetEnergyJ)
	if classNodes, classes, replicas := run.ClassStats(); classNodes > 0 {
		r.check(classNodes == uint64(nodes) && classes == uint64(res.Classes) && replicas == uint64(res.ReplicaRuns),
			"class stats %d nodes / %d classes / %d replicas, result has %d / %d / %d",
			classNodes, classes, replicas, nodes, res.Classes, res.ReplicaRuns)
	}
}

// memDelta measures fn's heap allocations (objects and bytes) and GC
// cycles.
func memDelta(fn func()) (mallocs, bytes uint64, gcs uint32) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, b.NumGC - a.NumGC
}
