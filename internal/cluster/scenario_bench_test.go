package cluster

import (
	"testing"

	"repro/internal/governor"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchScenarioCfg is the BenchmarkRunScenario configuration: the
// default diurnal day over a 64-node consolidate fleet, stepped in 24
// epochs, paying the 10ms warmup once per node. Each iteration uses a
// fresh private Runner so memoization never short-circuits the
// measurement.
func benchScenarioCfg(r *runner.Runner) ScenarioConfig {
	template := server.Config{
		Platform: governor.Baseline,
		Profile:  workload.Memcached(),
		Warmup:   10 * sim.Millisecond,
		Seed:     1,
	}
	const nodes = 64
	total := 48 * sim.Millisecond // a compressed day: 24 x 2ms epochs
	sched, err := scenario.Diurnal(nodes*800e3, 0.6, total, 12)
	if err != nil {
		panic(err)
	}
	return ScenarioConfig{
		Nodes:       Homogeneous(nodes, template),
		Schedule:    sched,
		Epoch:       2 * sim.Millisecond,
		Dispatch:    DispatchConsolidate,
		ParkDrained: true,
		Runner:      r,
	}
}

// BenchmarkRunScenarioWarm measures the open-loop scenario engine on the
// default diurnal 64-node configuration.
func BenchmarkRunScenarioWarm(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunScenario(benchScenarioCfg(runner.New(0))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunScenarioWarmReactive measures the same configuration as
// BenchmarkRunScenarioWarm with the reactive controller in the loop:
// controller evaluation and live-class rate-divergence splits on top of
// the open-loop routing. The delta against BenchmarkRunScenarioWarm
// is the control plane's overhead.
func BenchmarkRunScenarioWarmReactive(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := benchScenarioCfg(runner.New(0))
		cfg.Controller = ControllerSpec{Name: ControllerReactive}
		if _, err := RunScenario(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunScenario100K measures the class-collapsed compact path at
// datacenter scale: a 100K-node shared-seed fleet over the same
// compressed diurnal day (24 epochs), spread dispatch so every node
// sees one rate timeline and the whole fleet collapses to a single
// equivalence class, plus 4 seeded replicas for 95% error bars. The
// simulation work is 5 node timelines; the per-node residue is the
// O(nodes) plan and base keying, the per-epoch class-split check, and
// the O(classes x epochs) compact aggregation — which is what this
// benchmark gates.
func BenchmarkRunScenario100K(b *testing.B) {
	template := server.Config{
		Platform: governor.Baseline,
		Profile:  workload.Memcached(),
		Warmup:   10 * sim.Millisecond,
		Seed:     1,
	}
	const nodes = 100_000
	total := 48 * sim.Millisecond
	sched, err := scenario.Diurnal(nodes*800e3, 0.6, total, 12)
	if err != nil {
		b.Fatal(err)
	}
	fleet := make([]server.Config, nodes)
	for i := range fleet {
		fleet[i] = template
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunScenario(ScenarioConfig{
			Nodes:        fleet,
			Schedule:     sched,
			Epoch:        2 * sim.Millisecond,
			Dispatch:     DispatchSpread,
			ParkDrained:  true,
			Replicas:     4,
			CompactNodes: true,
			Runner:       runner.New(0),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Classes != 1 || res.CI == nil {
			b.Fatalf("fleet did not collapse: %d classes, CI %v", res.Classes, res.CI)
		}
	}
}
