package cluster

import (
	"fmt"
	"math"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Fault kinds accepted by NodeFault.Kind and CorrelatedFaults.Kind.
const (
	// FaultCrash takes the node dark for the window: its resumable
	// instance is discarded (C-state, ring, RNG and collector warm state
	// are lost) and the first healthy window afterwards rebuilds it cold
	// under a restart-remixed seed, paying the configured restart
	// penalty.
	FaultCrash = "crash"
	// FaultStraggler inflates the node's sampled service times by
	// Factor (> 1) for the window — the slow-node failure mode that
	// drags fleet tail latency without tripping liveness checks.
	FaultStraggler = "straggler"
	// FaultThermal caps the node's turbo ceiling for the window:
	// boosted slices run at base + Factor·(turbo − base), Factor in
	// [0, 1), so 0 pins boost to base frequency.
	FaultThermal = "thermal"
)

// FaultKinds lists the built-in fault kinds.
func FaultKinds() []string {
	return []string{FaultCrash, FaultStraggler, FaultThermal}
}

// NodeFault is one explicit per-node fault window: Kind strikes Node
// over [Start, End) on the schedule clock. Factor carries the
// kind-specific severity (straggler inflation > 1, thermal turbo cap in
// [0, 1); crash takes none). Windows are snapped outward to epoch
// boundaries — a fault overlapping any part of an epoch faults the
// whole epoch, the granularity at which the engine re-plans.
type NodeFault struct {
	Node       int
	Kind       string
	Start, End sim.Time
	Factor     float64
}

// CorrelatedFaults is the cluster-level fault process: a seeded
// Bernoulli draw per (epoch, node-group) that strikes GroupSize
// consecutive-index nodes together — the co-located rack/PSU failure
// domain — for Duration (snapped up to whole epochs). The process RNG
// draws from the reserved xrand fault seed plane, so fault timing can
// never alias node, epoch, replica or sweep randomness. The zero value
// (empty Kind) disables the process.
type CorrelatedFaults struct {
	Kind        string
	GroupSize   int
	Probability float64
	Duration    sim.Time
	Factor      float64
	Seed        uint64
}

// enabled reports whether the process is configured.
func (cf CorrelatedFaults) enabled() bool { return cf.Kind != "" }

// FaultSpec is the scenario's fault-injection description: explicit
// per-node fault windows plus the correlated cluster-level process, and
// the synthetic restart penalty a rebuilt node pays. The zero value is
// a healthy fleet and keeps every scenario result bit-identical to a
// run that predates fault injection.
type FaultSpec struct {
	// Nodes are the explicit per-node fault windows.
	Nodes []NodeFault
	// Correlated is the cluster-level fault process.
	Correlated CorrelatedFaults
	// RestartLatency is the time a crashed node needs to come back
	// (BIOS/OS boot, service cold start) before serving its first
	// request; it floors the restart epoch's worst p99 (default 10ms;
	// zero means "use the default" — set RestartFree for an explicitly
	// free restart).
	RestartLatency sim.Time
	// RestartPowerW is the package power burned during the restart flow
	// (default 35W; zero means "use the default").
	RestartPowerW float64
	// RestartFree makes restarts explicitly free: both penalties resolve
	// to zero regardless of the fields above.
	RestartFree bool
}

// enabled reports whether any fault is configured.
func (f FaultSpec) enabled() bool {
	return len(f.Nodes) > 0 || f.Correlated.enabled()
}

// validFactor checks a fault kind's severity field.
func validFactor(kind string, factor float64) error {
	switch kind {
	case FaultCrash:
		if factor != 0 {
			return fmt.Errorf("crash takes no factor (got %g)", factor)
		}
	case FaultStraggler:
		if !(factor > 1) || math.IsInf(factor, 0) {
			return fmt.Errorf("straggler factor %g must be a finite value > 1", factor)
		}
	case FaultThermal:
		if !(factor >= 0 && factor < 1) {
			return fmt.Errorf("thermal turbo cap %g outside [0, 1)", factor)
		}
	default:
		return fmt.Errorf("unknown kind %q (known: %v)", kind, FaultKinds())
	}
	return nil
}

// validate rejects unusable fault specifications. Called from
// Normalize, so Validate, RunScenario and the CLIs report identical
// errors for identical mistakes.
func (f FaultSpec) validate(nodes int) error {
	for i, nf := range f.Nodes {
		if err := validFactor(nf.Kind, nf.Factor); err != nil {
			return fmt.Errorf("cluster: fault %d: %w", i, err)
		}
		if nf.Node < 0 || nf.Node >= nodes {
			return fmt.Errorf("cluster: fault %d: node %d outside the fleet [0, %d)", i, nf.Node, nodes)
		}
		if nf.Start < 0 || nf.End <= nf.Start {
			return fmt.Errorf("cluster: fault %d: invalid window [%d, %d)", i, nf.Start, nf.End)
		}
		// Overlaps on one node are ambiguous (which severity wins?) and
		// almost always a spec typo; reject rather than guess.
		for j := 0; j < i; j++ {
			if o := f.Nodes[j]; o.Node == nf.Node && nf.Start < o.End && o.Start < nf.End {
				return fmt.Errorf("cluster: faults %d and %d overlap on node %d", j, i, nf.Node)
			}
		}
	}
	if cf := f.Correlated; cf.enabled() {
		if err := validFactor(cf.Kind, cf.Factor); err != nil {
			return fmt.Errorf("cluster: correlated faults: %w", err)
		}
		if cf.GroupSize < 1 || cf.GroupSize > nodes {
			return fmt.Errorf("cluster: correlated faults: group size %d outside [1, %d]", cf.GroupSize, nodes)
		}
		if !(cf.Probability >= 0 && cf.Probability <= 1) {
			return fmt.Errorf("cluster: correlated faults: probability %g outside [0, 1]", cf.Probability)
		}
		if cf.Duration <= 0 {
			return fmt.Errorf("cluster: correlated faults: non-positive duration %d", cf.Duration)
		}
	}
	return nil
}

// faultPlan expands the fault spec into per-epoch, per-node fault
// annotations, or nil when no fault is configured — the nil return is
// what guarantees an empty FaultSpec leaves every timeline (and its
// equivalence-class key) byte-identical to the pre-fault engine.
// Explicit windows mark every epoch they overlap; the correlated
// process then draws one seeded Bernoulli per (epoch, group) and marks
// struck groups for ceil(Duration/Epoch) epochs. Where annotations
// stack (an explicit window under a correlated storm), the merge is
// severity-monotone: crash dominates, the largest inflation wins, the
// lowest turbo cap wins.
func (c resolvedScenario) faultPlan(plan []epochWindow) [][]runner.Fault {
	if !c.Faults.enabled() {
		return nil
	}
	faults := make([][]runner.Fault, len(plan))
	for e := range plan {
		faults[e] = make([]runner.Fault, len(c.Nodes))
	}
	apply := func(e, node int, kind string, factor float64) {
		f := &faults[e][node]
		switch kind {
		case FaultCrash:
			f.Down = true
		case FaultStraggler:
			if factor > f.Inflate {
				f.Inflate = factor
			}
		case FaultThermal:
			if !f.Throttle || factor < f.TurboCap {
				f.TurboCap = factor
			}
			f.Throttle = true
		}
	}
	for _, nf := range c.Faults.Nodes {
		for e, pw := range plan {
			if pw.start < nf.End && nf.Start < pw.end {
				apply(e, nf.Node, nf.Kind, nf.Factor)
			}
		}
	}
	if cf := c.Faults.Correlated; cf.enabled() {
		rng := xrand.NewStream(xrand.FaultSeed(cf.Seed), "faults/correlated")
		n := len(c.Nodes)
		groups := (n + cf.GroupSize - 1) / cf.GroupSize
		span := int((cf.Duration + c.Epoch - 1) / c.Epoch)
		if span < 1 {
			span = 1
		}
		// Fixed iteration order (epoch-major, then group) keeps the draw
		// sequence — and therefore every fault timeline — a pure function
		// of the spec and its seed.
		for e := range plan {
			for g := 0; g < groups; g++ {
				if !rng.Bernoulli(cf.Probability) {
					continue
				}
				lo := g * cf.GroupSize
				hi := lo + cf.GroupSize
				if hi > n {
					hi = n
				}
				for ee := e; ee < e+span && ee < len(plan); ee++ {
					for i := lo; i < hi; i++ {
						apply(ee, i, cf.Kind, cf.Factor)
					}
				}
			}
		}
	}
	return faults
}

// applyRestartPenalty folds the synthetic restart cost into a restart
// epoch: each rebuilt node burns restartPowerW for restartLatency
// before serving (energy into the fleet power and total), and the
// latency floors the epoch's worst p99 — the first requests routed to a
// booting node waited at least that long.
func applyRestartPenalty(c resolvedScenario, ep *EpochResult, window sim.Time) {
	if ep.Restarted == 0 {
		return
	}
	winSec := float64(window) / 1e9
	ep.RestartEnergyJ = float64(ep.Restarted) * float64(c.restartLatency) / 1e9 * c.restartPowerW
	ep.Fleet.FleetEnergyJ += ep.RestartEnergyJ
	ep.Fleet.FleetPowerW += ep.RestartEnergyJ / winSec
	if ep.Fleet.FleetPowerW > 0 {
		ep.Fleet.QPSPerWatt = ep.Fleet.CompletedPerSec / ep.Fleet.FleetPowerW
	}
	if lat := float64(c.restartLatency) / 1e3; ep.Fleet.WorstP99US < lat {
		ep.Fleet.WorstP99US = lat
	}
}
