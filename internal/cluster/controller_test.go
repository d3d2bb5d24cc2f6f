package cluster

import (
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// stripControllerFields zeroes the fields only a controlled run sets,
// so a controlled result can be compared field-for-field against an
// open-loop one.
func stripControllerFields(r ScenarioResult) ScenarioResult {
	r.Controller = ""
	r.ControllerChanges = 0
	epochs := append([]EpochResult(nil), r.Epochs...)
	for e := range epochs {
		epochs[e].TargetNodes = 0
	}
	r.Epochs = epochs
	return r
}

// TestOracleControllerMatchesOpenLoopBitForBit pins the oracle's
// exactness: naming the oracle controller must reproduce the open-loop
// run bit-for-bit, in every mode (expanded, compact, with replica CIs,
// under a crash and admission control), because neither has decisions
// to make: every epoch routes the whole up fleet through the same step,
// and only the reported controller name and targets differ.
func TestOracleControllerMatchesOpenLoopBitForBit(t *testing.T) {
	node := quickNode(0)
	node.Warmup = 5 * sim.Millisecond
	nodes := Homogeneous(4, node)
	total := 160 * sim.Millisecond
	base := ScenarioConfig{
		Nodes:       nodes,
		Schedule:    mustSchedule(scenario.Diurnal(2e6, 0.6, total, 8)),
		Epoch:       total / 8,
		Dispatch:    DispatchConsolidate,
		ParkDrained: true,
	}
	modes := []struct {
		name string
		mut  func(*ScenarioConfig)
	}{
		{"expanded", func(*ScenarioConfig) {}},
		{"compact", func(c *ScenarioConfig) { c.CompactNodes = true }},
		{"compact-replicas", func(c *ScenarioConfig) { c.CompactNodes = true; c.Replicas = 2 }},
		{"crash-queue", func(c *ScenarioConfig) {
			c.Faults.Nodes = []NodeFault{{Node: 0, Kind: FaultCrash, Start: 40 * sim.Millisecond, End: 80 * sim.Millisecond}}
			c.Overload = OverloadSpec{Policy: OverloadQueue, MaxUtil: 0.2}
		}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			open := base
			m.mut(&open)
			controlled := open
			controlled.Controller = ControllerSpec{Name: ControllerOracle}
			want := runScenario(t, open)
			got := runScenario(t, controlled)
			if got.Controller != ControllerOracle {
				t.Errorf("Controller = %q, want %q", got.Controller, ControllerOracle)
			}
			for _, ep := range got.Epochs {
				if ep.TargetNodes <= 0 || ep.TargetNodes > len(nodes) {
					t.Errorf("epoch %d TargetNodes = %d outside [1, %d]", ep.Epoch, ep.TargetNodes, len(nodes))
				}
			}
			if !reflect.DeepEqual(stripControllerFields(got), want) {
				t.Errorf("oracle-controlled run diverged from open-loop\n got %+v\nwant %+v",
					stripControllerFields(got), want)
			}
		})
	}
}

// TestControlledRunDeterministic pins that a closed-loop run is exactly
// reproducible: the controller's decisions derive only from simulated
// telemetry, which derives only from seeds.
func TestControlledRunDeterministic(t *testing.T) {
	node := quickNode(0)
	node.Warmup = 5 * sim.Millisecond
	nodes := Homogeneous(4, node)
	total := 160 * sim.Millisecond
	cfg := ScenarioConfig{
		Nodes:       nodes,
		Schedule:    mustSchedule(scenario.Spike(1e6, 3, total, total/4, total/4)),
		Epoch:       total / 8,
		Dispatch:    DispatchConsolidate,
		ParkDrained: true,
		Controller:  ControllerSpec{Name: ControllerReactive},
	}
	a := runScenario(t, cfg)
	b := runScenario(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Error("controlled scenario run not deterministic")
	}
}

// TestControlledCompactMatchesExpandedAggregates pins that class
// splitting under a live controller keeps the compact expansion exact:
// the O(classes) aggregation must agree with the O(nodes) one on every
// fleet-level number even while classes split mid-run.
func TestControlledCompactMatchesExpandedAggregates(t *testing.T) {
	node := quickNode(0)
	node.Warmup = 5 * sim.Millisecond
	nodes := Homogeneous(4, node)
	total := 160 * sim.Millisecond
	cfg := ScenarioConfig{
		Nodes:       nodes,
		Schedule:    mustSchedule(scenario.Diurnal(2e6, 0.6, total, 8)),
		Epoch:       total / 8,
		Dispatch:    DispatchConsolidate,
		ParkDrained: true,
		Controller:  ControllerSpec{Name: ControllerReactive},
	}
	expanded := runScenario(t, cfg)
	compact := cfg
	compact.CompactNodes = true
	c := runScenario(t, compact)
	if c.FleetEnergyJ != expanded.FleetEnergyJ ||
		c.AvgFleetPowerW != expanded.AvgFleetPowerW ||
		c.CompletedPerSec != expanded.CompletedPerSec ||
		c.WorstP99US != expanded.WorstP99US ||
		c.Unparks != expanded.Unparks ||
		!reflect.DeepEqual(c.ParkedTimeline, expanded.ParkedTimeline) {
		t.Errorf("compact controlled run diverged from expanded:\ncompact  %+v\nexpanded %+v", c, expanded)
	}
	for e := range c.Epochs {
		if c.Epochs[e].TargetNodes != expanded.Epochs[e].TargetNodes {
			t.Errorf("epoch %d target diverged: compact %d vs expanded %d",
				e, c.Epochs[e].TargetNodes, expanded.Epochs[e].TargetNodes)
		}
	}
}

// TestReactiveCooldownNeverFlipsWithinWindow is the hysteresis
// property: however adversarial the utilization stream, the reactive
// controller never changes its target twice within the cooldown window.
// The stream alternates far above and far below the deadband every
// epoch — the worst flapping input — so without the cooldown the target
// would flip every observation.
func TestReactiveCooldownNeverFlipsWithinWindow(t *testing.T) {
	for _, cooldown := range []int{1, 2, 3, 5} {
		spec, err := normalizeController(ControllerSpec{Name: ControllerReactive, Cooldown: cooldown}, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		ctrl := newController(spec, FleetInfo{Nodes: 16, PerNodeQPS: 1e6, TargetUtil: 0.6})
		prev := 16
		lastChange := -cooldown // the initial target predates the run
		for e := 0; e < 64; e++ {
			util := 0.95
			active := 4
			if e%2 == 1 {
				util = 0.10
				active = 16
			}
			got := ctrl.Observe(FleetTelemetry{
				Epoch:       e,
				Utilization: util,
				ActiveNodes: active,
				TotalNodes:  16,
			})
			if got != prev {
				if since := e - lastChange; since < cooldown {
					t.Fatalf("cooldown %d: target changed at epoch %d only %d epochs after the previous change",
						cooldown, e, since)
				}
				lastChange = e
				prev = got
			}
			if got < 1 || got > 16 {
				t.Fatalf("cooldown %d: target %d outside [1, 16]", cooldown, got)
			}
		}
		if lastChange < 0 {
			t.Fatalf("cooldown %d: adversarial stream never moved the target", cooldown)
		}
	}
}

// TestReactiveConstantScheduleConvergesToOracle pins the reactive
// controller's steady state: under a constant offered rate the fleet it
// settles on carries the load with exactly as many active nodes as the
// oracle's consolidation of the offered rate — the feedback loop finds
// it when there is nothing to react to.
func TestReactiveConstantScheduleConvergesToOracle(t *testing.T) {
	node := quickNode(0)
	node.Warmup = 5 * sim.Millisecond
	nodes := Homogeneous(4, node)
	total := 240 * sim.Millisecond
	base := ScenarioConfig{
		Nodes:       nodes,
		Schedule:    mustSchedule(scenario.Constant("steady", 1200e3, total)),
		Epoch:       total / 12,
		Dispatch:    DispatchConsolidate,
		ParkDrained: true,
	}
	oracle := base
	oracle.Controller = ControllerSpec{Name: ControllerOracle}
	reactive := base
	reactive.Controller = ControllerSpec{Name: ControllerReactive}
	o := runScenario(t, oracle)
	r := runScenario(t, reactive)
	oracleActive := len(nodes) - o.Epochs[len(o.Epochs)-1].Parked
	last := r.Epochs[len(r.Epochs)-1]
	reactiveActive := len(nodes) - last.Parked
	if reactiveActive != oracleActive {
		t.Errorf("reactive settled on %d active nodes, oracle uses %d (parked timeline %v vs %v)",
			reactiveActive, oracleActive, r.ParkedTimeline, o.ParkedTimeline)
	}
	// And it stays there: the back half of the run holds the converged
	// target without churn.
	half := len(r.Epochs) / 2
	for _, ep := range r.Epochs[half:] {
		if ep.TargetNodes != last.TargetNodes {
			t.Errorf("epoch %d target %d churned after convergence (want %d; timeline %v)",
				ep.Epoch, ep.TargetNodes, last.TargetNodes, r.ParkedTimeline)
		}
	}
}

// TestPredictiveProvisionsForForecast pins the predictive controller's
// sizing rule: at a converged constant offered rate the target is
// ceil(rate / (TargetUtil x per-node capacity)), the EWMA forecast
// having settled on the rate itself.
func TestPredictiveProvisionsForForecast(t *testing.T) {
	spec, err := normalizeController(ControllerSpec{Name: ControllerPredictive}, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	info := FleetInfo{Nodes: 8, PerNodeQPS: 1e6, TargetUtil: 0.6}
	ctrl := newController(spec, info)
	var got int
	for e := 0; e < 50; e++ {
		got = ctrl.Observe(FleetTelemetry{Epoch: e, OfferedQPS: 3e6})
	}
	want := 5 // ceil(3e6 / (0.6 * 1e6))
	if got != want {
		t.Errorf("converged predictive target = %d, want %d", got, want)
	}
	// A spike the EWMA has seen raises provisioning immediately
	// (high-biased forecast), and never above the fleet.
	if got = ctrl.Observe(FleetTelemetry{OfferedQPS: 30e6}); got != 8 {
		t.Errorf("post-spike predictive target = %d, want clamp at 8", got)
	}
}

// TestReactiveSpikePaysUnparkLag pins the closed-loop failure mode the
// open-loop path cannot exhibit: on a spike schedule the reactive
// controller parks the fleet down during the quiet lead-in, the spike
// lands on the shrunken active set a full epoch before the controller
// can react, and the spike epoch's worst p99 degrades versus the
// oracle, which had the nodes awake in advance.
func TestReactiveSpikePaysUnparkLag(t *testing.T) {
	node := quickNode(0)
	node.Warmup = 5 * sim.Millisecond
	nodes := Homogeneous(4, node)
	total := 320 * sim.Millisecond
	base := ScenarioConfig{
		Nodes:       nodes,
		Schedule:    mustSchedule(scenario.Spike(400e3, 8, total, total/2, total/8)),
		Epoch:       total / 16,
		Dispatch:    DispatchConsolidate,
		ParkDrained: true,
	}
	oracle := base
	oracle.Controller = ControllerSpec{Name: ControllerOracle}
	reactive := base
	reactive.Controller = ControllerSpec{Name: ControllerReactive}
	o := runScenario(t, oracle)
	r := runScenario(t, reactive)
	if r.ControllerChanges == 0 {
		t.Fatal("reactive controller never changed its target over a spike schedule")
	}
	var oSpike, rSpike float64
	for e := range o.Epochs {
		if o.Epochs[e].Phase == "spike" {
			if p := o.Epochs[e].Fleet.WorstP99US; p > oSpike {
				oSpike = p
			}
			if p := r.Epochs[e].Fleet.WorstP99US; p > rSpike {
				rSpike = p
			}
		}
	}
	if oSpike <= 0 {
		t.Fatal("no spike-phase epochs found")
	}
	if rSpike <= oSpike {
		t.Errorf("reactive spike p99 %.1fus not degraded vs oracle %.1fus — no unpark lag visible",
			rSpike, oSpike)
	}
}
