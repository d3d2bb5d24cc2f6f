package agilewatts

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestLoadScenarioFileMapping pins the file→run field mapping on the
// checked-in crash-under-spike scenario: names resolve to the same
// configurations the programmatic API hands out, and every _ms duration
// lands on the nanosecond clock.
func TestLoadScenarioFileMapping(t *testing.T) {
	r, err := LoadScenarioFile(filepath.Join("testdata", "scenarios", "crash-under-spike.json"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Scenario != "spike" || r.RateQPS != 400e3 || r.TotalNS != 60_000_000 {
		t.Errorf("schedule mapped wrong: shape=%q rate=%g total=%v", r.Scenario, r.RateQPS, r.TotalNS)
	}
	if r.Nodes != 4 || r.ClusterDispatch != "consolidate" || !r.ParkDrained {
		t.Errorf("fleet mapped wrong: nodes=%d dispatch=%q park=%v", r.Nodes, r.ClusterDispatch, r.ParkDrained)
	}
	if r.WarmupNS != 5_000_000 || r.Seed != 5 || r.EpochNS != 10_000_000 {
		t.Errorf("warmup/seed/epoch mapped wrong: %v/%d/%v", r.WarmupNS, r.Seed, r.EpochNS)
	}
	aw, err := ConfigByName("AW")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Platform, aw) {
		t.Error("platform name did not resolve to the AW configuration")
	}
	if r.Elasticity.Controller.Name != ControllerReactive {
		t.Errorf("controller = %q, want %q", r.Elasticity.Controller.Name, ControllerReactive)
	}
	wantFaults := []NodeFault{
		{Node: 0, Kind: FaultCrash, Start: 20_000_000, End: 40_000_000},
		{Node: 1, Kind: FaultCrash, Start: 25_000_000, End: 35_000_000},
	}
	if !reflect.DeepEqual(r.Faults.Nodes, wantFaults) {
		t.Errorf("fault windows mapped wrong: %+v", r.Faults.Nodes)
	}
	if r.Faults.RestartLatency != 8_000_000 || r.Faults.RestartPowerW != 40 {
		t.Errorf("restart penalty mapped wrong: %v/%gW", r.Faults.RestartLatency, r.Faults.RestartPowerW)
	}
}

// TestScenarioFileErrorParity is the single-validation-path guarantee
// at the file level: a semantically invalid document decodes fine, and
// then ValidateScenario and RunScenario reject the mapped run with
// byte-identical errors — the same text the CLIs print.
func TestScenarioFileErrorParity(t *testing.T) {
	const header = `"schedule": {"shape": "constant", "base_qps": 100000, "total_ms": 50}, "fleet": {"nodes": 2}`
	cases := []struct {
		name, doc, want string
	}{
		{
			"overlapping fault windows",
			`{` + header + `, "faults": {"nodes": [
				{"node": 0, "kind": "crash", "start_ms": 0, "end_ms": 10},
				{"node": 0, "kind": "crash", "start_ms": 5, "end_ms": 15}]}}`,
			"overlap on node 0",
		},
		{
			"unknown fault kind",
			`{` + header + `, "faults": {"nodes": [{"node": 0, "kind": "gremlin", "start_ms": 0, "end_ms": 10}]}}`,
			"unknown kind",
		},
		{
			"unknown controller",
			`{` + header + `, "elasticity": {"controller": {"name": "psychic"}}}`,
			"unknown controller",
		},
		{
			"negative restart latency",
			`{` + header + `, "faults": {"restart_latency_ms": -1, "nodes": [{"node": 0, "kind": "crash", "start_ms": 0, "end_ms": 10}]}}`,
			"negative restart penalty",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run, err := ParseScenarioFile([]byte(tc.doc))
			if err != nil {
				t.Fatalf("decode rejected a syntactically valid document: %v", err)
			}
			verr := ValidateScenario(run)
			if verr == nil {
				t.Fatal("ValidateScenario accepted the invalid run")
			}
			if !strings.Contains(verr.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", verr, tc.want)
			}
			if _, rerr := RunScenario(run); rerr == nil || rerr.Error() != verr.Error() {
				t.Errorf("RunScenario error %v != ValidateScenario error %v", rerr, verr)
			}
		})
	}
}

// TestValidateScenarioNaNFactorParity covers the hostile value JSON
// cannot carry: a NaN straggler factor injected programmatically is
// rejected identically by both entry points.
func TestValidateScenarioNaNFactorParity(t *testing.T) {
	run := ScenarioRun{
		Scenario: "constant",
		TotalNS:  50_000_000,
		ClusterRun: ClusterRun{
			ServiceRun: ServiceRun{RateQPS: 100e3},
			Nodes:      2,
		},
		Faults: FaultSpec{Nodes: []NodeFault{
			{Node: 0, Kind: FaultStraggler, Start: 0, End: 10_000_000, Factor: math.NaN()},
		}},
	}
	verr := ValidateScenario(run)
	if verr == nil || !strings.Contains(verr.Error(), "must be a finite value > 1") {
		t.Fatalf("ValidateScenario = %v, want the straggler-factor error", verr)
	}
	if _, rerr := RunScenario(run); rerr == nil || rerr.Error() != verr.Error() {
		t.Errorf("RunScenario error %v != ValidateScenario error %v", rerr, verr)
	}
}
