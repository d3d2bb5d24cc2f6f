package agilewatts

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/sim"
)

// TestScenarioConservation checks the accounting laws every scenario
// result must keep, over every checked-in scenario file and every warm
// golden case, each run expanded and again compact with one replica.
// Per epoch: offered requests = admitted + shed + change in backlog,
// active + idle nodes make up the fleet, and the down count matches the
// fault plan. Over the run: epoch energies sum to FleetEnergyJ, and the
// class-dedup counters account for every node exactly once. A compact
// result carries no per-node rates, so its admitted rate comes from the
// expanded run of the same scenario: admission does not depend on
// compaction, and this way the compact run's shed and backlog accounts
// are checked against it. The same config stepped through a Live must
// also report, in each epoch's telemetry, the result's window, offered
// rate, admission account and parked, down and active counts.
func TestScenarioConservation(t *testing.T) {
	type scenarioCase struct {
		name string
		run  ScenarioRun
	}
	var cases []scenarioCase
	for _, tc := range goldenScenarioCases {
		cases = append(cases, scenarioCase{tc.name, tc.run})
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no scenario files under testdata/scenarios")
	}
	for _, path := range paths {
		files, err := LoadScenarioFiles(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range files {
			run, err := ScenarioRunFromFile(f)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			cases = append(cases, scenarioCase{fmt.Sprintf("%s#%d", filepath.Base(path), i), run})
		}
	}
	for _, tc := range cases {
		var admitted []float64 // per epoch, from the expanded run
		for _, compact := range []bool{false, true} {
			run := tc.run
			name := tc.name
			if compact {
				run.Execution = ScenarioExecution{Replicas: 1, CompactNodes: true}
				name += "/compact"
			}
			t.Run(name, func(t *testing.T) {
				cfg, err := scenarioConfig(run)
				if err != nil {
					t.Fatal(err)
				}
				r := runner.New(0)
				cfg.Runner = r
				res, err := cluster.RunScenario(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !compact {
					admitted = admittedRates(res)
				} else if admitted == nil {
					t.Fatal("no admitted rates: the expanded run failed")
				}
				checkConservation(t, res, admitted, len(cfg.Nodes), crashPlan(t, cfg.Faults, res), r)
				checkHistory(t, cfg, res)
			})
		}
	}
}

// crashPlan derives each epoch's down-node count from the fault spec
// alone: an explicit crash window takes its node down for every epoch
// it overlaps. The seeded correlated process has no independent oracle
// here, so a correlated crash process fails the test rather than pass
// unchecked.
func crashPlan(t *testing.T, f FaultSpec, res ScenarioResult) []int {
	t.Helper()
	if f.Correlated.Kind == FaultCrash && f.Correlated.Probability > 0 {
		t.Fatal("correlated crash faults: extend crashPlan with an oracle for the seeded process")
	}
	down := make([]int, len(res.Epochs))
	for e, ep := range res.Epochs {
		seen := map[int]bool{}
		for _, nf := range f.Nodes {
			if nf.Kind == FaultCrash && nf.Start < ep.End && ep.Start < nf.End && !seen[nf.Node] {
				seen[nf.Node] = true
				down[e]++
			}
		}
	}
	return down
}

// admittedRates sums each epoch's routed per-node rates: the rate the
// admission policy let through.
func admittedRates(res ScenarioResult) []float64 {
	out := make([]float64, len(res.Epochs))
	for e, ep := range res.Epochs {
		for _, n := range ep.Fleet.Nodes {
			out[e] += n.RateQPS
		}
	}
	return out
}

func checkConservation(t *testing.T, res ScenarioResult, admitted []float64, nodes int, down []int, r *runner.Runner) {
	t.Helper()
	near := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	var energy, prevBacklog float64
	for e, ep := range res.Epochs {
		win := float64(ep.End-ep.Start) / 1e9
		offered := ep.RateQPS * win
		backlog := ep.BacklogRate * win
		if !near(offered, admitted[e]*win+ep.SheddedRequests+backlog-prevBacklog) {
			t.Errorf("epoch %d: offered %g != admitted %g + shed %g + backlog change %g",
				e, offered, admitted[e]*win, ep.SheddedRequests, backlog-prevBacklog)
		}
		prevBacklog = backlog
		if ep.Fleet.ActiveNodes+ep.Fleet.IdleNodes != nodes {
			t.Errorf("epoch %d: %d active + %d idle != %d nodes", e, ep.Fleet.ActiveNodes, ep.Fleet.IdleNodes, nodes)
		}
		if ep.Down != down[e] {
			t.Errorf("epoch %d: %d nodes down, the fault plan has %d", e, ep.Down, down[e])
		}
		energy += ep.Fleet.FleetEnergyJ
	}
	if !near(energy, res.FleetEnergyJ) {
		t.Errorf("epoch energies sum to %g J, FleetEnergyJ is %g J", energy, res.FleetEnergyJ)
	}
	classNodes, classes, replicas := r.ClassStats()
	if classNodes != uint64(nodes) || classes != uint64(res.Classes) || replicas != uint64(res.ReplicaRuns) {
		t.Errorf("class stats %d nodes / %d classes / %d replicas, result has %d / %d / %d",
			classNodes, classes, replicas, nodes, res.Classes, res.ReplicaRuns)
	}
	if res.Classes < 1 || res.Classes > nodes {
		t.Errorf("%d classes for a %d-node fleet", res.Classes, nodes)
	}
}

// checkHistory steps cfg through a fresh Live and requires every
// epoch's telemetry to agree with the result's epoch on the window, the
// offered rate, the admission account and the node counts.
func checkHistory(t *testing.T, cfg cluster.ScenarioConfig, res ScenarioResult) {
	t.Helper()
	l, err := cluster.NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !l.Done() {
		if _, err := l.Step(); err != nil {
			t.Fatal(err)
		}
	}
	hist := l.History()
	if len(hist) != len(res.Epochs) {
		t.Fatalf("%d telemetry samples for %d epochs", len(hist), len(res.Epochs))
	}
	type header struct {
		Start, End           sim.Time
		Rate                 float64
		Saturated            bool
		Shed, Backlog        float64
		Parked, Down, Active int
	}
	for e, tel := range hist {
		ep := &res.Epochs[e]
		got := header{tel.Start, tel.End, tel.OfferedQPS, tel.Saturated, tel.SheddedRequests, tel.BacklogRate,
			tel.ParkedNodes, tel.DownNodes, tel.ActiveNodes}
		want := header{ep.Start, ep.End, ep.RateQPS, ep.Saturated, ep.SheddedRequests, ep.BacklogRate,
			ep.Parked, ep.Down, ep.Fleet.ActiveNodes}
		if got != want {
			t.Errorf("epoch %d: telemetry %+v, result %+v", e, got, want)
		}
	}
}
