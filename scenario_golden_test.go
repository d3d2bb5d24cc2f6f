package agilewatts

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// The scenario goldens extend TestGoldenPipelineStability to the
// time-varying engine: named scenario configs are pinned as exact
// hex-float fingerprints of the resumable-instance engine (captured
// when it landed), and the degenerate constant schedule is asserted to
// reproduce the stationary simulator bit-for-bit at both the server and
// the cluster level.
//
// Regenerate with:
//
//	GOLDEN_PRINT=1 go test -run TestGoldenScenarioStability -v .
//
// only when an intentional model change alters the output — never to
// absorb an optimization's drift.

// goldenScenarioCases must produce the exact fingerprints in
// goldenScenarioWant. Small fleets and short windows keep them fast;
// every engine feature is on (consolidate, parking, epoch stepping,
// simulated unpark transitions).
var goldenScenarioCases = []struct {
	name string
	run  ScenarioRun
}{
	{"warm-diurnal-3node-consolidate", ScenarioRun{
		ClusterRun: ClusterRun{
			ServiceRun: ServiceRun{
				Platform: AW, RateQPS: 1800e3,
				DurationNS: 60_000_000, WarmupNS: 5_000_000, Seed: 5,
			},
			Nodes:           3,
			ClusterDispatch: ClusterConsolidate,
			ParkDrained:     true,
		},
		Scenario: ScenarioDiurnal,
		TotalNS:  60_000_000,
		EpochNS:  15_000_000,
	}},
	{"warm-spike-2node-spread-bursty", ScenarioRun{
		ClusterRun: ClusterRun{
			ServiceRun: ServiceRun{
				Platform: Baseline, RateQPS: 300e3,
				DurationNS: 60_000_000, WarmupNS: 5_000_000, Seed: 9,
				LoadGen: LoadBursty,
			},
			Nodes:           2,
			ClusterDispatch: ClusterSpread,
		},
		Scenario: ScenarioSpike,
		TotalNS:  60_000_000,
		EpochNS:  20_000_000,
	}},
}

// goldenScenarioWant maps case name to the exact fingerprint, captured
// by a GOLDEN_PRINT run when the resumable-instance engine landed.
var goldenScenarioWant = map[string]string{
	"warm-diurnal-3node-consolidate": "sched=diurnal disp=consolidate epoch=15000000 total=60000000 unparks=1 energy=0x1.23db41679bed1p+03 avgw=0x1.30046421426c5p+07 qps=0x1.b4f78aaaaaaabp+20 qpw=0x1.6ff38ff3c402p+13 worstp99=0x1.a1p+08 timeline=[2 1 1 2] e0[0-15000000,h01,unp=0] e0.rate=0x1.13726dac987a7p+20 e0.w=0x1.e0fcaf472d4edp+06 e0.qps=0x1.1233d55555556p+20 e0.p99=0x1.c7p+06 e0.upj=0x0p+00 e1[15000000-30000000,h04,unp=1] e1.rate=0x1.2dbac929b3c2bp+21 e1.w=0x1.82263b99952f8p+07 e1.qps=0x1.2b296aaaaaaabp+21 e1.p99=0x1.a1p+08 e1.upj=0x0p+00 e2[30000000-45000000,h07,unp=0] e2.rate=0x1.2dbac929b3c2dp+21 e2.w=0x1.73428976f585cp+07 e2.qps=0x1.2cc5eaaaaaaabp+21 e2.p99=0x1.71p+08 e2.upj=0x0p+00 e3[45000000-60000000,h10,unp=0] e3.rate=0x1.13726dac987a7p+20 e3.w=0x1.b454e7a1d0a8cp+06 e3.qps=0x1.11cbaaaaaaaabp+20 e3.p99=0x1.dbp+06 e3.upj=0x0p+00 ph[h01,n=1,t=15000000] ph.h01.rate=0x1.13726dac987a7p+20 ph.h01.w=0x1.e0fcaf472d4edp+06 ph.h01.p99=0x1.c7p+06 ph.h01.parked=0x1p+01 ph[h04,n=1,t=15000000] ph.h04.rate=0x1.2dbac929b3c2ap+21 ph.h04.w=0x1.82263b99952f8p+07 ph.h04.p99=0x1.a1p+08 ph.h04.parked=0x1p+00 ph[h07,n=1,t=15000000] ph.h07.rate=0x1.2dbac929b3c2dp+21 ph.h07.w=0x1.73428976f585cp+07 ph.h07.p99=0x1.71p+08 ph.h07.parked=0x1p+00 ph[h10,n=1,t=15000000] ph.h10.rate=0x1.13726dac987a7p+20 ph.h10.w=0x1.b454e7a1d0a8cp+06 ph.h10.p99=0x1.dbp+06 ph.h10.parked=0x1p+01",
	"warm-spike-2node-spread-bursty": "sched=spike disp=spread epoch=20000000 total=60000000 unparks=0 energy=0x1.bc8896f0cb814p+02 avgw=0x1.cf0e47e57ea6ap+06 qps=0x1.75b2aaaaaaaabp+18 qpw=0x1.9d3278d3f054ep+11 worstp99=0x1.51p+07 timeline=[0 0 0] e0[0-20000000,pre,unp=0] e0.rate=0x1.24f8p+18 e0.w=0x1.c967810f486adp+06 e0.qps=0x1.4bfb8p+18 e0.p99=0x1.e5p+06 e0.upj=0x0p+00 e1[20000000-40000000,spike,unp=0] e1.rate=0x1.9a28p+19 e1.w=0x1.ea6faf96e8224p+06 e1.qps=0x1.0728cp+19 e1.p99=0x1.51p+07 e1.upj=0x0p+00 e2[40000000-60000000,post,unp=0] e2.rate=0x1.24f8p+18 e2.w=0x1.b953a70a4b66cp+06 e2.qps=0x1.06cbp+18 e2.p99=0x1.05p+07 e2.upj=0x0p+00 ph[pre,n=1,t=20000000] ph.pre.rate=0x1.24f8p+18 ph.pre.w=0x1.c967810f486adp+06 ph.pre.p99=0x1.e5p+06 ph.pre.parked=0x0p+00 ph[spike,n=1,t=20000000] ph.spike.rate=0x1.9a28p+19 ph.spike.w=0x1.ea6faf96e8224p+06 ph.spike.p99=0x1.51p+07 ph.spike.parked=0x0p+00 ph[post,n=1,t=20000000] ph.post.rate=0x1.24f8p+18 ph.post.w=0x1.b953a70a4b66cp+06 ph.post.p99=0x1.05p+07 ph.post.parked=0x0p+00",
}

// scenarioFingerprint serializes every float-valued observable of a
// ScenarioResult exactly (hex floats, full epoch and phase detail).
func scenarioFingerprint(res ScenarioResult) string {
	var b strings.Builder
	f := func(k string, v float64) { fmt.Fprintf(&b, "%s=%s ", k, hexF(v)) }
	fmt.Fprintf(&b, "sched=%s disp=%s epoch=%d total=%d unparks=%d ",
		res.Schedule, res.Dispatch, res.Epoch, res.TotalTime, res.Unparks)
	f("energy", res.FleetEnergyJ)
	f("avgw", res.AvgFleetPowerW)
	f("qps", res.CompletedPerSec)
	f("qpw", res.QPSPerWatt)
	f("worstp99", res.WorstP99US)
	fmt.Fprintf(&b, "timeline=%v ", res.ParkedTimeline)
	for _, ep := range res.Epochs {
		fmt.Fprintf(&b, "e%d[%d-%d,%s,unp=%d] ", ep.Epoch, ep.Start, ep.End, ep.Phase, ep.Unparked)
		f(fmt.Sprintf("e%d.rate", ep.Epoch), ep.RateQPS)
		f(fmt.Sprintf("e%d.w", ep.Epoch), ep.Fleet.FleetPowerW)
		f(fmt.Sprintf("e%d.qps", ep.Epoch), ep.Fleet.CompletedPerSec)
		f(fmt.Sprintf("e%d.p99", ep.Epoch), ep.Fleet.WorstP99US)
		f(fmt.Sprintf("e%d.upj", ep.Epoch), ep.UnparkEnergyJ)
	}
	for _, p := range res.Phases {
		fmt.Fprintf(&b, "ph[%s,n=%d,t=%d] ", p.Phase, p.Epochs, p.Time)
		f("ph."+p.Phase+".rate", p.AvgRateQPS)
		f("ph."+p.Phase+".w", p.AvgFleetPowerW)
		f("ph."+p.Phase+".p99", p.WorstP99US)
		f("ph."+p.Phase+".parked", p.AvgParkedNodes)
	}
	return strings.TrimSpace(b.String())
}

func TestGoldenScenarioStability(t *testing.T) {
	printMode := os.Getenv("GOLDEN_PRINT") != ""
	for _, tc := range goldenScenarioCases {
		res, err := RunScenario(tc.run)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := scenarioFingerprint(res)
		if printMode {
			fmt.Printf("\t%q: %q,\n", tc.name, got)
			continue
		}
		want, ok := goldenScenarioWant[tc.name]
		if !ok {
			t.Fatalf("%s: no golden recorded", tc.name)
		}
		if got != want {
			t.Errorf("%s: scenario output drifted from golden\n got: %s\nwant: %s",
				tc.name, diffFields(got, want), diffFields(want, got))
		}
	}
}

// TestGoldenScenarioClassCollapse pins the tentpole exactness claim:
// class-collapsed execution with K=1 replicas (and compact O(classes)
// aggregation) over the homogeneous warm golden fleets reproduces the
// pinned warm-path fingerprints bit-for-bit. Homogeneous fleets seed
// node i with Seed+i, so every timeline class is a singleton — the
// collapse machinery, replica scheduling and weighted collector must
// all be exact identities here, and the replicas may only add CI
// fields, never perturb a point estimate.
func TestGoldenScenarioClassCollapse(t *testing.T) {
	for _, tc := range goldenScenarioCases {
		run := tc.run
		run.Execution = ScenarioExecution{Replicas: 1, CompactNodes: true}
		res, err := RunScenario(run)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := scenarioFingerprint(res), goldenScenarioWant[tc.name]; got != want {
			t.Errorf("%s: K=1 class collapse drifted from the pinned warm golden\n got: %s\nwant: %s",
				tc.name, diffFields(got, want), diffFields(want, got))
		}
		if res.Classes != run.Nodes {
			t.Errorf("%s: classes = %d, want %d singletons", tc.name, res.Classes, run.Nodes)
		}
		if res.CI == nil {
			t.Errorf("%s: replicas requested but no CI attached", tc.name)
		} else if res.CI.Samples != 2 {
			t.Errorf("%s: CI samples = %d, want 2", tc.name, res.CI.Samples)
		}
	}
}

// TestGoldenScenarioOracleController pins the closed-loop engine's
// exactness at the public API: the oracle controller — which routes the
// run through the incremental feedback machinery (live classes,
// per-epoch telemetry, split detection) but replays the precomputed
// plan — must reproduce the pinned warm-path fingerprints bit-for-bit,
// both expanded and in the K=1 compact class-collapse mode. Any drift
// here means the incremental engine is not an identity on open-loop
// decisions, which would poison every controller comparison built on
// it.
func TestGoldenScenarioOracleController(t *testing.T) {
	for _, tc := range goldenScenarioCases {
		run := tc.run
		run.Elasticity.Controller = ControllerSpec{Name: ControllerOracle}
		res, err := RunScenario(run)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := scenarioFingerprint(res), goldenScenarioWant[tc.name]; got != want {
			t.Errorf("%s: oracle-controlled run drifted from the pinned warm golden\n got: %s\nwant: %s",
				tc.name, diffFields(got, want), diffFields(want, got))
		}
		if res.Controller != ControllerOracle {
			t.Errorf("%s: result controller = %q, want %q", tc.name, res.Controller, ControllerOracle)
		}

		collapsed := run
		collapsed.Execution.Replicas = 1
		collapsed.Execution.CompactNodes = true
		cres, err := RunScenario(collapsed)
		if err != nil {
			t.Fatalf("%s (collapsed): %v", tc.name, err)
		}
		if got, want := scenarioFingerprint(cres), goldenScenarioWant[tc.name]; got != want {
			t.Errorf("%s: oracle K=1 class collapse drifted from the pinned warm golden\n got: %s\nwant: %s",
				tc.name, diffFields(got, want), diffFields(want, got))
		}
		if cres.Classes != collapsed.Nodes {
			t.Errorf("%s: classes = %d, want %d singletons", tc.name, cres.Classes, collapsed.Nodes)
		}
		if cres.CI == nil || cres.CI.Samples != 2 {
			t.Errorf("%s: oracle K=1 run CI = %+v, want 2 samples", tc.name, cres.CI)
		}
	}
}

// TestGoldenLiveForkRestoreStability anchors the live engine's
// correctness claim to the pinned hex-float goldens: a LiveScenario
// stepped halfway, forked, AND checkpointed through Snapshot/Restore
// must — on fork, restored copy, and original alike — finish with
// exactly the warm-path fingerprint captured when the warm engine
// landed. Any divergence means fork or restore is not a bit-exact
// replay of the parent.
func TestGoldenLiveForkRestoreStability(t *testing.T) {
	for _, tc := range goldenScenarioCases {
		want, ok := goldenScenarioWant[tc.name]
		if !ok {
			t.Fatalf("%s: no golden recorded", tc.name)
		}
		live, err := NewLiveScenario(tc.run)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for live.Epoch() < live.Epochs()/2 {
			if _, err := live.Step(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		fork := live.Fork()
		blob, err := live.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot: %v", tc.name, err)
		}
		restored, err := RestoreLiveScenario(tc.run, blob)
		if err != nil {
			t.Fatalf("%s: restore: %v", tc.name, err)
		}
		for label, l := range map[string]*LiveScenario{"fork": fork, "restored": restored, "original": live} {
			for !l.Done() {
				if _, err := l.Step(); err != nil {
					t.Fatalf("%s (%s): %v", tc.name, label, err)
				}
			}
			res, err := l.Result()
			if err != nil {
				t.Fatalf("%s (%s): %v", tc.name, label, err)
			}
			if got := scenarioFingerprint(res); got != want {
				t.Errorf("%s: %s replay drifted from the pinned warm golden\n got: %s\nwant: %s",
					tc.name, label, diffFields(got, want), diffFields(want, got))
			}
		}
	}
}

// TestConstantScenarioReproducesStationaryService pins the degenerate
// case at the public-API level: a one-phase constant schedule fed to
// RunService must reproduce the stationary run bit-for-bit (identical
// fingerprint over every observable).
func TestConstantScenarioReproducesStationaryService(t *testing.T) {
	run := ServiceRun{
		Platform: Baseline, RateQPS: 200e3,
		DurationNS: 50_000_000, WarmupNS: 10_000_000, Seed: 1,
	}
	want, err := RunService(run)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NamedSchedule(ScenarioConstant, 200e3, run.DurationNS+run.WarmupNS)
	if err != nil {
		t.Fatal(err)
	}
	scheduled := run
	scheduled.RateQPS = 0
	scheduled.Schedule = sched
	got, err := RunService(scheduled)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(got) != fingerprint(want) {
		t.Errorf("constant schedule diverged from stationary RunService:\n got: %s\nwant: %s",
			diffFields(fingerprint(got), fingerprint(want)),
			diffFields(fingerprint(want), fingerprint(got)))
	}
	// This stationary run is itself golden-pinned, so the scheduled run
	// transitively matches the pre-optimization goldens.
	if want2, ok := goldenWant["baseline-memcached-200k"]; ok && fingerprint(got) != want2 {
		t.Error("scheduled constant run drifted from the pinned stationary golden")
	}
}

// TestWarmConstantScenarioReproducesStaticCluster pins the warm engine's
// degenerate case at the public-API level: one epoch over a constant
// schedule, spread so every node carries load, reproduces RunCluster
// bit-for-bit — the resumable instance's first interval is the one-shot
// simulation.
func TestWarmConstantScenarioReproducesStaticCluster(t *testing.T) {
	base := ClusterRun{
		ServiceRun: ServiceRun{
			Platform: Baseline, RateQPS: 450e3,
			DurationNS: 50_000_000, WarmupNS: 10_000_000, Seed: 3,
		},
		Nodes:           3,
		ClusterDispatch: ClusterSpread,
	}
	want, err := RunCluster(base)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NamedSchedule(ScenarioConstant, 450e3, base.DurationNS)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunScenario(ScenarioRun{ClusterRun: base, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Epochs) != 1 {
		t.Fatalf("epochs = %d, want 1", len(got.Epochs))
	}
	if !reflect.DeepEqual(got.Epochs[0].Fleet, want) {
		t.Errorf("warm one-epoch constant scenario diverged from RunCluster:\n got %+v\nwant %+v",
			got.Epochs[0].Fleet, want)
	}
}
