package cluster

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cstate"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
)

// faultScenario is the shared fixture for the fault-behavior tests: a
// small homogeneous fleet under a constant schedule, stepped in 10ms
// epochs, with the caller layering faults on top.
func faultScenario(nodes int, rate float64, faults FaultSpec) ScenarioConfig {
	return ScenarioConfig{
		Nodes:    Homogeneous(nodes, quickNode(0)),
		Schedule: mustSchedule(scenario.Constant("steady", rate, 50*sim.Millisecond)),
		Epoch:    10 * sim.Millisecond,
		Faults:   faults,
	}
}

// TestPenaltyOnlyFaultSpecBitIdentical pins the zero-cost guarantee: a
// FaultSpec that configures restart penalties but injects no fault
// takes the identical code path as no spec at all, on both the expanded
// and the compact warm engines.
func TestPenaltyOnlyFaultSpecBitIdentical(t *testing.T) {
	for _, compact := range []bool{false, true} {
		base := faultScenario(3, 240e3, FaultSpec{})
		base.CompactNodes = compact
		spec := base
		spec.Faults = FaultSpec{RestartLatency: 5 * sim.Millisecond, RestartPowerW: 100}
		got := runScenario(t, spec)
		want := runScenario(t, base)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("compact=%v: penalty-only FaultSpec changed the result", compact)
		}
	}
}

// TestCrashedNodesLeaveFleetTelemetry drives a custom controller that
// records every epoch's telemetry: during the crash window the crashed
// node must be counted down, dropped from the active set, and visible
// as a zero-rate Down sample in the per-node detail.
type recordingController struct {
	info FleetInfo
	seen []FleetTelemetry
}

func (c *recordingController) Name() string { return "recorder" }
func (c *recordingController) Observe(t FleetTelemetry) int {
	c.seen = append(c.seen, t)
	return c.info.Nodes
}

func TestCrashedNodesLeaveFleetTelemetry(t *testing.T) {
	rec := &recordingController{}
	cfg := faultScenario(3, 240e3, FaultSpec{Nodes: []NodeFault{
		{Node: 1, Kind: FaultCrash, Start: 10 * sim.Millisecond, End: 30 * sim.Millisecond},
	}})
	cfg.Controller = ControllerSpec{New: func(info FleetInfo) Controller {
		rec.info = info
		return rec
	}}
	res := runScenario(t, cfg)
	if res.Controller != "custom" {
		t.Fatalf("controller name = %q, want custom", res.Controller)
	}
	// Observe runs after every epoch but the last.
	if len(rec.seen) != len(res.Epochs)-1 {
		t.Fatalf("observed %d epochs, want %d", len(rec.seen), len(res.Epochs)-1)
	}
	for _, tel := range rec.seen {
		down := tel.Epoch == 1 || tel.Epoch == 2 // crash window [10ms, 30ms)
		wantDown, wantActive := 0, 3
		if down {
			wantDown, wantActive = 1, 2
		}
		if tel.DownNodes != wantDown || tel.ActiveNodes != wantActive {
			t.Errorf("epoch %d: down=%d active=%d, want %d/%d",
				tel.Epoch, tel.DownNodes, tel.ActiveNodes, wantDown, wantActive)
		}
		if len(tel.Nodes) != 3 {
			t.Fatalf("epoch %d: %d node samples, want 3", tel.Epoch, len(tel.Nodes))
		}
		n1 := tel.Nodes[1]
		if n1.Down != down {
			t.Errorf("epoch %d: node 1 Down = %v, want %v", tel.Epoch, n1.Down, down)
		}
		if down && n1.RateQPS != 0 {
			t.Errorf("epoch %d: crashed node routed %g qps", tel.Epoch, n1.RateQPS)
		}
		if down && n1.Utilization != 0 {
			t.Errorf("epoch %d: crashed node utilization %g", tel.Epoch, n1.Utilization)
		}
	}
}

// TestReactiveResizesAroundCrash runs the reactive controller through a
// crash: the run must complete, survivors must keep serving through the
// outage, and every target must respect the clamp.
func TestReactiveResizesAroundCrash(t *testing.T) {
	cfg := ScenarioConfig{
		Nodes:    Homogeneous(4, quickNode(0)),
		Schedule: mustSchedule(scenario.Constant("steady", 2400e3, 60*sim.Millisecond)),
		Epoch:    10 * sim.Millisecond,
		Faults: FaultSpec{Nodes: []NodeFault{
			{Node: 0, Kind: FaultCrash, Start: 10 * sim.Millisecond, End: 30 * sim.Millisecond},
		}},
		Controller: ControllerSpec{Name: ControllerReactive, Cooldown: 1},
	}
	res := runScenario(t, cfg)
	for _, ep := range res.Epochs {
		if ep.TargetNodes < 1 || ep.TargetNodes > 4 {
			t.Errorf("epoch %d: target %d outside [1, 4]", ep.Epoch, ep.TargetNodes)
		}
		if ep.Down > 0 && ep.Fleet.CompletedPerSec <= 0 {
			t.Errorf("epoch %d: survivors completed nothing during the outage", ep.Epoch)
		}
	}
	if res.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", res.Restarts)
	}
	// The outage must actually reach the controller's decisions: the
	// faulted run cannot replay the healthy run's target sequence.
	healthy := cfg
	healthy.Faults = FaultSpec{}
	href := runScenario(t, healthy)
	same := true
	for i, ep := range res.Epochs {
		if ep.TargetNodes != href.Epochs[i].TargetNodes {
			same = false
		}
	}
	if same {
		t.Error("crash left the reactive target sequence untouched")
	}
}

// TestRestartPaysColdPenalty pins the restart fold: the recovery epoch
// counts the rebuild, charges latency x power as synthetic energy,
// floors the epoch's worst p99 at the restart latency, and — because
// the rebuilt instance is genuinely cold — diverges from the healthy
// run's measurement for the same epoch.
func TestRestartPaysColdPenalty(t *testing.T) {
	cfg := faultScenario(2, 160e3, FaultSpec{Nodes: []NodeFault{
		{Node: 1, Kind: FaultCrash, Start: 10 * sim.Millisecond, End: 30 * sim.Millisecond},
	}})
	res := runScenario(t, cfg)
	healthy := runScenario(t, faultScenario(2, 160e3, FaultSpec{}))
	for e, wantDown := range []int{0, 1, 1, 0, 0} {
		if res.Epochs[e].Down != wantDown {
			t.Errorf("epoch %d: Down = %d, want %d", e, res.Epochs[e].Down, wantDown)
		}
	}
	rec := res.Epochs[3]
	if rec.Restarted != 1 || res.Restarts != 1 {
		t.Fatalf("restart counts = epoch %d / run %d, want 1/1", rec.Restarted, res.Restarts)
	}
	// Default penalty: 10ms x 35W = 0.35J, flooring p99 at 10000us.
	if want := float64(10*sim.Millisecond) / 1e9 * 35; rec.RestartEnergyJ != want {
		t.Errorf("RestartEnergyJ = %g, want %g", rec.RestartEnergyJ, want)
	}
	if rec.Fleet.WorstP99US < 10000 {
		t.Errorf("WorstP99US = %g, want >= 10000 (restart latency floor)", rec.Fleet.WorstP99US)
	}
	if reflect.DeepEqual(rec.Fleet, healthy.Epochs[3].Fleet) {
		t.Error("restart epoch measured identical to the healthy run: no cold rebuild happened")
	}
	// RestartFree zeroes the synthetic fold but keeps the cold rebuild.
	free := cfg
	free.Faults.RestartFree = true
	fres := runScenario(t, free)
	if ep := fres.Epochs[3]; ep.Restarted != 1 || ep.RestartEnergyJ != 0 {
		t.Errorf("RestartFree epoch: restarted=%d energy=%g, want 1/0", ep.Restarted, ep.RestartEnergyJ)
	}
}

// TestAllCrashedEpochSanity is the satellite's integration half: an
// epoch with the whole fleet dark must run to completion — zero
// completions, finite aggregates, no panic — under the open loop and
// under both built-in controllers, and the fleet must serve again once
// the window lifts.
func TestAllCrashedEpochSanity(t *testing.T) {
	blackout := FaultSpec{Nodes: []NodeFault{
		{Node: 0, Kind: FaultCrash, Start: 20 * sim.Millisecond, End: 30 * sim.Millisecond},
		{Node: 1, Kind: FaultCrash, Start: 20 * sim.Millisecond, End: 30 * sim.Millisecond},
	}}
	for _, ctrl := range []string{"", ControllerReactive, ControllerPredictive} {
		name := ctrl
		if name == "" {
			name = "open-loop"
		}
		t.Run(name, func(t *testing.T) {
			cfg := faultScenario(2, 160e3, blackout)
			cfg.Controller = ControllerSpec{Name: ctrl}
			res := runScenario(t, cfg)
			dark := res.Epochs[2]
			if dark.Down != 2 {
				t.Fatalf("dark epoch Down = %d, want 2", dark.Down)
			}
			if dark.Fleet.CompletedPerSec != 0 {
				t.Errorf("dark epoch completed %g qps, want 0", dark.Fleet.CompletedPerSec)
			}
			for field, v := range map[string]float64{
				"FleetPowerW": dark.Fleet.FleetPowerW,
				"QPSPerWatt":  dark.Fleet.QPSPerWatt,
				"WorstP99US":  dark.Fleet.WorstP99US,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("dark epoch %s = %g, want finite", field, v)
				}
			}
			rec := res.Epochs[3]
			if rec.Restarted != 2 {
				t.Errorf("recovery epoch Restarted = %d, want 2", rec.Restarted)
			}
			if rec.Fleet.CompletedPerSec <= 0 {
				t.Error("fleet never came back after the blackout")
			}
			if ctrl != "" && (rec.TargetNodes < 1 || rec.TargetNodes > 2) {
				t.Errorf("recovery target %d outside [1, 2]", rec.TargetNodes)
			}
		})
	}
}

// TestControllersSurviveZeroActiveTelemetry is the satellite's unit
// half: both built-in controllers fed an epoch with no active nodes
// (all parked, or all crashed) must return a clamped, usable target.
func TestControllersSurviveZeroActiveTelemetry(t *testing.T) {
	info := FleetInfo{Nodes: 4, PerNodeQPS: 100e3, TargetUtil: 0.6, Epoch: 10 * sim.Millisecond}
	samples := []FleetTelemetry{
		{TotalNodes: 4, ActiveNodes: 0},                                   // all dark: zero everything
		{TotalNodes: 4, ActiveNodes: 0, ParkedNodes: 4, OfferedQPS: 50e3}, // all parked, load still offered
	}
	specs := []ControllerSpec{
		{Name: ControllerReactive, UpUtil: 0.75, DownUtil: 0.40, TargetUtil: 0.6, Cooldown: 1, Alpha: 0.3},
		{Name: ControllerPredictive, UpUtil: 0.75, DownUtil: 0.40, TargetUtil: 0.6, Cooldown: 1, Alpha: 0.3},
	}
	for _, spec := range specs {
		c := newController(spec, info)
		for i, tel := range samples {
			if got := c.Observe(tel); got < 1 || got > info.Nodes {
				t.Errorf("%s: sample %d: target %d outside [1, %d]", spec.Name, i, got, info.Nodes)
			}
		}
	}
	// PerNodeQPS 0 (degenerate fleet description) must hold, not divide.
	c := newController(specs[1], FleetInfo{Nodes: 4})
	if got := c.Observe(samples[1]); got < 1 || got > 4 {
		t.Errorf("predictive with zero capacity returned %d", got)
	}
}

// TestFleetTelemetryWeightedFolds exercises the class-weighted fold
// directly: an active class with multiplicity 3, a parked class with
// multiplicity 2, and a crashed singleton must aggregate by
// multiplicity into the fleet sample, with per-node expansion restoring
// fleet order.
func TestFleetTelemetryWeightedFolds(t *testing.T) {
	cursor := func() *runner.TimelineCursor {
		ins, err := runner.NewCursor(quickNode(0), true)
		if err != nil {
			t.Fatal(err)
		}
		return ins
	}
	active := server.IntervalResult{}
	active.Result.Residency[cstate.C0] = 0.6
	active.Result.PackagePowerW = 50
	active.Result.CompletedPerSec = 40e3
	active.Result.Server.P99US = 120
	active.Result.Breakdown.Queue.AvgUS = 10
	parked := server.IntervalResult{Parked: true}
	parked.Result.PackagePowerW = 2
	down := server.IntervalResult{Down: true}
	classes := []*liveClass{
		{members: []int{0, 1, 2}, ins: cursor(), rate: 50e3, results: []server.IntervalResult{active}},
		{members: []int{3, 4}, ins: cursor(), results: []server.IntervalResult{parked}},
		{members: []int{5}, ins: cursor(), results: []server.IntervalResult{down}},
	}
	pw := epochWindow{start: 0, end: 10 * sim.Millisecond, rate: 150e3}
	tel := fleetTelemetry(0, pw, overloadAccount{}, classes, false, 6)
	if tel.TotalNodes != 6 || tel.ActiveNodes != 3 || tel.ParkedNodes != 2 || tel.DownNodes != 1 {
		t.Errorf("counts total/active/parked/down = %d/%d/%d/%d, want 6/3/2/1",
			tel.TotalNodes, tel.ActiveNodes, tel.ParkedNodes, tel.DownNodes)
	}
	if want := 3 * 40e3; tel.CompletedQPS != want {
		t.Errorf("CompletedQPS = %g, want %g", tel.CompletedQPS, want)
	}
	if want := 3*50 + 2*2.0; tel.FleetPowerW != want {
		t.Errorf("FleetPowerW = %g, want %g", tel.FleetPowerW, want)
	}
	if tel.Utilization != 0.6 {
		t.Errorf("Utilization = %g, want 0.6 (weighted mean over active nodes)", tel.Utilization)
	}
	if want := 40e3 * 10 / 1e6; !approxEq(tel.QueueDepth, want) {
		t.Errorf("QueueDepth = %g, want %g", tel.QueueDepth, want)
	}
	if tel.WorstP99US != 120 {
		t.Errorf("WorstP99US = %g, want 120", tel.WorstP99US)
	}
	if len(tel.Nodes) != 6 {
		t.Fatalf("expanded to %d node samples, want 6", len(tel.Nodes))
	}
	for i, n := range tel.Nodes {
		if n.Node != i {
			t.Errorf("node sample %d carries index %d", i, n.Node)
		}
	}
	if !tel.Nodes[3].Parked || !tel.Nodes[5].Down || tel.Nodes[5].RateQPS != 0 {
		t.Errorf("per-node flags wrong: %+v", tel.Nodes[3:])
	}
	// Compact mode: identical fleet aggregates, no per-node detail.
	ctel := fleetTelemetry(0, pw, overloadAccount{}, classes, true, 6)
	if ctel.Nodes != nil {
		t.Error("compact telemetry materialized per-node samples")
	}
	tel.Nodes = nil
	if !reflect.DeepEqual(tel, ctel) {
		t.Error("compact fleet aggregates differ from expanded")
	}
}

// TestCorrelatedFaultPlanDeterministic pins the correlated process: the
// plan is a pure function of the spec and its seed, and each strike
// marks ceil(Duration/Epoch) consecutive epochs.
func TestCorrelatedFaultPlanDeterministic(t *testing.T) {
	cfg := faultScenario(4, 240e3, FaultSpec{Correlated: CorrelatedFaults{
		Kind:        FaultThermal,
		GroupSize:   2,
		Probability: 0.5,
		Duration:    25 * sim.Millisecond, // span = ceil(25/10) = 3 epochs
		Factor:      0.5,
		Seed:        3,
	}})
	r, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	plan := make([]epochWindow, 5)
	for e := range plan {
		plan[e] = epochWindow{start: sim.Time(e) * r.Epoch, end: sim.Time(e+1) * r.Epoch}
	}
	got := r.faultPlan(plan)
	if got == nil {
		t.Fatal("enabled correlated process produced no plan")
	}
	if again := r.faultPlan(plan); !reflect.DeepEqual(got, again) {
		t.Error("faultPlan is not deterministic for a fixed spec and seed")
	}
	struck := 0
	for e := range got {
		for i := range got[e] {
			f := got[e][i]
			if !f.Throttle {
				continue
			}
			struck++
			if f.TurboCap != 0.5 {
				t.Errorf("epoch %d node %d: turbo cap %g, want 0.5", e, i, f.TurboCap)
			}
			// A fresh strike covers the next span-1 epochs too (clipped at
			// the end of the run).
			if e == 0 || !got[e-1][i].Throttle {
				for ee := e; ee < e+3 && ee < len(got); ee++ {
					if !got[ee][i].Throttle {
						t.Errorf("strike at epoch %d node %d not sustained at epoch %d", e, i, ee)
					}
				}
			}
		}
	}
	if struck == 0 {
		t.Error("probability-0.5 process over 5 epochs x 2 groups struck nothing")
	}
	// Group correlation: members of a struck group fault together.
	for e := range got {
		for _, g := range [][2]int{{0, 1}, {2, 3}} {
			if got[e][g[0]].Throttle != got[e][g[1]].Throttle {
				t.Errorf("epoch %d: group %v split by a correlated strike", e, g)
			}
		}
	}
}

// TestFaultSplitsTimelineClasses pins the class interaction: a
// homogeneous fleet that collapses to one equivalence class splits
// exactly where a fault makes one member's timeline diverge.
func TestFaultSplitsTimelineClasses(t *testing.T) {
	shared := func(faults FaultSpec) ScenarioConfig {
		cfg := faultScenario(2, 160e3, faults)
		cfg.Nodes = sharedFleet(2, quickNode(0))
		return cfg
	}
	healthy := runScenario(t, shared(FaultSpec{}))
	if healthy.Classes != 1 {
		t.Fatalf("healthy shared-seed fleet collapsed to %d classes, want 1", healthy.Classes)
	}
	faulted := runScenario(t, shared(FaultSpec{Nodes: []NodeFault{
		{Node: 1, Kind: FaultStraggler, Start: 10 * sim.Millisecond, End: 20 * sim.Millisecond, Factor: 2},
	}}))
	if faulted.Classes != 2 {
		t.Errorf("faulted node stayed collapsed: %d classes, want 2", faulted.Classes)
	}
}
