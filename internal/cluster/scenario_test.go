package cluster

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
)

// mustSchedule unwraps a schedule constructor; construction in these
// tests is static, so a failure is a test-authoring bug.
func mustSchedule(s *scenario.Schedule, err error) *scenario.Schedule {
	if err != nil {
		panic(err)
	}
	return s
}

func runScenario(t *testing.T, c ScenarioConfig) ScenarioResult {
	t.Helper()
	res, err := RunScenario(c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOneEpochConstantMatchesStaticRun is the engine's anchor: a
// one-phase constant schedule stepped in a single epoch equal to the run
// length must reproduce the static cluster.Run bit-for-bit under every
// dispatch policy — identical per-node results and identical fleet
// aggregates, because the resumable instance's first interval is the
// one-shot simulation. Drained nodes run idle here; with ParkDrained the
// first epoch must still record no phantom unparks.
func TestOneEpochConstantMatchesStaticRun(t *testing.T) {
	nodes := Homogeneous(3, quickNode(0))
	dur := nodes[0].Duration // quickNode: 100ms measured window
	sched := mustSchedule(scenario.Constant("steady", 240e3, dur))
	for _, policy := range Policies() {
		static, err := Run(Config{Nodes: nodes, RateQPS: 240e3, Dispatch: policy})
		if err != nil {
			t.Fatal(err)
		}
		dyn := runScenario(t, ScenarioConfig{Nodes: nodes, Schedule: sched, Epoch: dur, Dispatch: policy})
		if len(dyn.Epochs) != 1 {
			t.Fatalf("%s: epochs = %d, want 1", policy, len(dyn.Epochs))
		}
		if !reflect.DeepEqual(dyn.Epochs[0].Fleet, static) {
			t.Errorf("%s: one-epoch scenario fleet diverged from static Run", policy)
		}
		if dyn.AvgFleetPowerW != static.FleetPowerW {
			t.Errorf("%s: scenario avg power %v != static fleet power %v",
				policy, dyn.AvgFleetPowerW, static.FleetPowerW)
		}
		if dyn.WorstP99US != static.WorstP99US {
			t.Errorf("%s: worst p99 %v != static %v", policy, dyn.WorstP99US, static.WorstP99US)
		}
		parked := runScenario(t, ScenarioConfig{
			Nodes: nodes, Schedule: sched, Epoch: dur, Dispatch: policy, ParkDrained: true,
		})
		if ep := parked.Epochs[0]; ep.Unparked != 0 || ep.UnparkEnergyJ != 0 {
			t.Errorf("%s: phantom unparks on first epoch: %d (%vJ)", policy, ep.Unparked, ep.UnparkEnergyJ)
		}
	}
}

// TestDiurnalConsolidateParksAtTroughUnparksAtPeak is the fleet-level
// headline behavior: under a diurnal day with consolidate+park, the
// parked-node timeline must follow the load — most nodes parked through
// the trough, unparked (with recorded transitions) as the peak builds —
// and the phase summaries must show it too.
func TestDiurnalConsolidateParksAtTroughUnparksAtPeak(t *testing.T) {
	node := quickNode(0)
	node.Duration = 30 * sim.Millisecond
	node.Warmup = 5 * sim.Millisecond
	nodes := Homogeneous(4, node)
	total := 240 * sim.Millisecond
	// Trough 0.8M QPS (one packed node), peak 3.2M (most of the fleet).
	sched := mustSchedule(scenario.Diurnal(2e6, 0.6, total, 8))
	res := runScenario(t, ScenarioConfig{
		Nodes:       nodes,
		Schedule:    sched,
		Epoch:       total / 8,
		Dispatch:    DispatchConsolidate,
		ParkDrained: true,
	})
	if len(res.Epochs) != 8 || len(res.ParkedTimeline) != 8 {
		t.Fatalf("epochs = %d, timeline = %d, want 8", len(res.Epochs), len(res.ParkedTimeline))
	}
	// Trough (first epoch) parks nodes; peak (middle epochs) wakes them.
	troughParked := res.ParkedTimeline[0]
	peakParked := res.ParkedTimeline[4]
	if troughParked <= peakParked {
		t.Errorf("parked timeline flat: trough %d vs peak %d (timeline %v)",
			troughParked, peakParked, res.ParkedTimeline)
	}
	if troughParked < 2 {
		t.Errorf("trough parked only %d of 4 nodes (timeline %v)", troughParked, res.ParkedTimeline)
	}
	// Rising load must have unparked nodes at least once.
	if res.Unparks == 0 {
		t.Fatal("no unpark transitions recorded over a diurnal day")
	}
	// The trough phase must burn less fleet power than the peak phase.
	var trough, peak *PhaseSummary
	for i := range res.Phases {
		p := &res.Phases[i]
		if trough == nil || p.AvgRateQPS < trough.AvgRateQPS {
			trough = p
		}
		if peak == nil || p.AvgRateQPS > peak.AvgRateQPS {
			peak = p
		}
	}
	if trough.AvgFleetPowerW >= peak.AvgFleetPowerW {
		t.Errorf("trough power %v not below peak power %v",
			trough.AvgFleetPowerW, peak.AvgFleetPowerW)
	}
	if trough.AvgParkedNodes <= peak.AvgParkedNodes {
		t.Errorf("trough parked %v not above peak parked %v",
			trough.AvgParkedNodes, peak.AvgParkedNodes)
	}
}

// TestDrainedIsNotParkedWithoutParkDrained pins the drained/parked
// distinction: with parking disabled, consolidate still drains nodes
// (Fleet.IdleNodes > 0) but nothing is parked — the timeline, per-epoch
// and per-phase parked counts must all stay zero.
func TestDrainedIsNotParkedWithoutParkDrained(t *testing.T) {
	nodes := Homogeneous(4, quickNode(0))
	sched := mustSchedule(scenario.Constant("steady", 100e3, 100*sim.Millisecond))
	res := runScenario(t, ScenarioConfig{
		Nodes:    nodes,
		Schedule: sched,
		Epoch:    50 * sim.Millisecond,
		Dispatch: DispatchConsolidate,
		// ParkDrained off on purpose.
	})
	for _, ep := range res.Epochs {
		if ep.Fleet.IdleNodes == 0 {
			t.Fatalf("epoch %d: expected drained nodes under consolidate at light load", ep.Epoch)
		}
		if ep.Parked != 0 {
			t.Errorf("epoch %d: %d nodes reported parked with ParkDrained off", ep.Epoch, ep.Parked)
		}
	}
	for _, n := range res.ParkedTimeline {
		if n != 0 {
			t.Errorf("parked timeline %v non-zero with ParkDrained off", res.ParkedTimeline)
		}
	}
	for _, p := range res.Phases {
		if p.AvgParkedNodes != 0 {
			t.Errorf("phase %s AvgParkedNodes %v with ParkDrained off", p.Phase, p.AvgParkedNodes)
		}
	}
	if res.Unparks != 0 {
		t.Errorf("unparks %d with ParkDrained off", res.Unparks)
	}
}

func TestScenarioDeterministic(t *testing.T) {
	nodes := Homogeneous(2, quickNode(0))
	sched := mustSchedule(scenario.ByName(scenario.NameRamp, 300e3, 100*sim.Millisecond))
	cfg := ScenarioConfig{Nodes: nodes, Schedule: sched, Epoch: 25 * sim.Millisecond}
	a := runScenario(t, cfg)
	b := runScenario(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Error("scenario run not deterministic")
	}
	// Distinct epochs see distinct randomness: the per-epoch fleet
	// results of equal-rate epochs must not be bit-identical copies.
	if len(a.Epochs) != 4 {
		t.Fatalf("epochs = %d", len(a.Epochs))
	}
}

func TestScenarioEpochPartitioning(t *testing.T) {
	nodes := Homogeneous(2, quickNode(0))
	total := 100 * sim.Millisecond
	sched := mustSchedule(scenario.Constant("steady", 100e3, total))
	// A 30ms epoch over a 100ms schedule yields 30/30/30/10 windows.
	res := runScenario(t, ScenarioConfig{Nodes: nodes, Schedule: sched, Epoch: 30 * sim.Millisecond})
	if len(res.Epochs) != 4 {
		t.Fatalf("epochs = %d, want 4", len(res.Epochs))
	}
	last := res.Epochs[3]
	if last.End != total || last.End-last.Start != 10*sim.Millisecond {
		t.Errorf("tail epoch window [%d,%d), want 10ms ending at %d", last.Start, last.End, total)
	}
	for _, ep := range res.Epochs {
		if math.Abs(ep.RateQPS-100e3) > 1e-6 {
			t.Errorf("epoch %d rate %v, want 100000", ep.Epoch, ep.RateQPS)
		}
	}
	// Epoch larger than the schedule clamps to one full-length epoch.
	res2 := runScenario(t, ScenarioConfig{Nodes: nodes, Schedule: sched, Epoch: sim.Second})
	if len(res2.Epochs) != 1 || res2.Epochs[0].End != total {
		t.Errorf("oversized epoch not clamped: %+v", res2.Epochs)
	}
}

func TestScenarioValidation(t *testing.T) {
	nodes := Homogeneous(1, quickNode(0))
	sched := mustSchedule(scenario.Constant("steady", 1e3, sim.Second))
	if _, err := RunScenario(ScenarioConfig{Nodes: nodes}); err == nil {
		t.Error("nil schedule accepted")
	}
	if _, err := RunScenario(ScenarioConfig{Schedule: sched}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := RunScenario(ScenarioConfig{Nodes: nodes, Schedule: sched, Epoch: -1}); err == nil {
		t.Error("negative epoch accepted")
	}
	if _, err := RunScenario(ScenarioConfig{Nodes: nodes, Schedule: sched, Dispatch: "route-66"}); err == nil {
		t.Error("unknown policy accepted")
	}
	closed := quickNode(0)
	closed.ClosedLoopConnections = 8
	closed.LoadGen = "closed-loop"
	if _, err := RunScenario(ScenarioConfig{Nodes: []server.Config{closed}, Schedule: sched}); err == nil {
		t.Error("closed-loop node accepted")
	}
}
