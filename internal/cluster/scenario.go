package cluster

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// ScenarioConfig describes a time-varying fleet simulation: the schedule
// replaces the static RateQPS, and every Epoch the dispatcher
// re-partitions the window's mean rate across the nodes, so
// consolidation parks newly drained nodes as load falls and unparks
// them as it returns.
//
// One engine runs every configuration: Live, stepped epoch by epoch.
// Every node keeps one resumable server.Instance for the whole scenario
// — a single warmup, engine/C-state/RNG state carried across epoch
// boundaries, and park/unpark simulated as real drain/deep-idle/
// exit-latency transitions. Nodes that are bit-identical simulations
// share one live class, which splits the first epoch its members are
// routed different rates or faults.
type ScenarioConfig struct {
	// Nodes are the per-node server configurations (see Config.Nodes).
	// Each node's RatePerSec/Schedule/Duration are ignored (the epoch
	// plan supplies them) and Warmup is paid once per scenario.
	Nodes []server.Config
	// Schedule is the offered-load timeline partitioned across the fleet.
	Schedule *scenario.Schedule
	// Epoch is the re-dispatch interval (default: the whole schedule in
	// one epoch).
	Epoch sim.Time
	// Dispatch, TargetUtil and ParkDrained mirror Config.
	Dispatch    string
	TargetUtil  float64
	ParkDrained bool
	// Replicas is the number of extra seeded replicas simulated per
	// timeline equivalence class (the K in "representative plus K
	// replicas"). Each replica re-runs its class representative's exact
	// realized timeline under a seed from the disjoint
	// xrand.ClassReplicaSeed plane — never colliding with node seeds —
	// and EpochResult.CI / ScenarioResult.CI then report 95% Student-t
	// confidence intervals over the K+1 samples. Point estimates always
	// come from the representatives alone, so setting Replicas adds error
	// bars without perturbing any existing result bit.
	Replicas int
	// Controller selects the fleet autoscaling policy (see
	// ControllerSpec). The zero value keeps the open-loop behavior: every
	// epoch routes the schedule's offered rate over the whole up fleet. A
	// named controller decides each epoch's active-node target at run
	// time from the previous epoch's telemetry (the oracle decides
	// nothing and so reproduces the open-loop results bit-for-bit).
	Controller ControllerSpec
	// Faults injects node- and cluster-level faults into the run:
	// explicit per-node crash/straggler/thermal windows plus a seeded
	// correlated fault process (see FaultSpec). The zero value is a
	// healthy fleet and keeps every result bit-identical to a run that
	// predates fault injection.
	Faults FaultSpec
	// Overload enables per-epoch admission control: when the offered
	// rate exceeds the active fleet's capacity (per-node capacity at
	// MaxUtil, summed over the up, routed nodes), the excess is shed,
	// queued or admitted-and-recorded per the policy (see OverloadSpec).
	// The zero value disables admission control and keeps every result
	// bit-identical to a run that predates it.
	Overload OverloadSpec
	// CompactNodes skips per-node materialization:
	// EpochResult.Fleet.Nodes stays nil and fleet aggregation runs
	// class-weighted in O(classes) per epoch instead of O(nodes) — the
	// mode that keeps a 100K-node fleet's memory and aggregation cost
	// proportional to its handful of equivalence classes. All
	// fleet-level aggregates are computed from the same per-class
	// measurements either way.
	CompactNodes bool
	// Runner executes the node simulations (default runner.Default()).
	Runner *runner.Runner
}

// resolvedScenario is ScenarioConfig with every defaultable knob
// resolved to its effective value — the zero-value-vs-default ambiguity
// ends here, before any simulation runs. Normalize is the only
// constructor.
type resolvedScenario struct {
	ScenarioConfig
	restartLatency sim.Time
	restartPowerW  float64
	total          sim.Time
}

// Normalize validates the configuration and resolves every defaultable
// knob to its effective value, in one pass: dispatch policy, target
// utilization, the epoch length (whole schedule when unset or
// over-long), the restart penalty (RestartFree collapsing both knobs to
// zero), and the controller's and admission policy's tuning defaults.
// It is the single path behind RunScenario, Validate and the CLIs, so
// every caller gets identical errors for identical mistakes.
func (c ScenarioConfig) Normalize() (resolvedScenario, error) {
	r := resolvedScenario{ScenarioConfig: c}
	if c.Schedule == nil {
		return r, fmt.Errorf("cluster: scenario needs a schedule")
	}
	if c.Epoch < 0 {
		return r, fmt.Errorf("cluster: negative epoch %d", c.Epoch)
	}
	if c.Replicas < 0 {
		return r, fmt.Errorf("cluster: negative replicas %d", c.Replicas)
	}
	if c.Replicas >= xrand.MaxReplicas {
		return r, fmt.Errorf("cluster: replicas %d exceed the seed plane's %d sub-blocks per class",
			c.Replicas, xrand.MaxReplicas)
	}
	if c.Faults.RestartLatency < 0 || c.Faults.RestartPowerW < 0 {
		return r, fmt.Errorf("cluster: negative restart penalty")
	}
	if c.Dispatch == "" {
		r.Dispatch = DispatchSpread
	}
	if c.TargetUtil == 0 {
		r.TargetUtil = defaultTargetUtil
	}
	r.restartLatency = c.Faults.RestartLatency
	r.restartPowerW = c.Faults.RestartPowerW
	if c.Faults.RestartFree {
		r.restartLatency, r.restartPowerW = 0, 0
	} else {
		if r.restartLatency == 0 {
			r.restartLatency = 10 * sim.Millisecond
		}
		if r.restartPowerW == 0 {
			r.restartPowerW = 35
		}
	}
	r.total = c.Schedule.Duration()
	if r.Epoch == 0 || r.Epoch > r.total {
		r.Epoch = r.total
	}
	var err error
	if r.Controller, err = normalizeController(c.Controller, r.TargetUtil); err != nil {
		return r, err
	}
	if r.Overload, err = normalizeOverload(c.Overload); err != nil {
		return r, err
	}
	// The static validator covers nodes, policy name, TargetUtil and the
	// closed-loop rejection.
	if err := (Config{
		Nodes:      c.Nodes,
		RateQPS:    0,
		Dispatch:   r.Dispatch,
		TargetUtil: r.TargetUtil,
	}).Validate(); err != nil {
		return r, err
	}
	// Fault windows reference node indices, so they validate after the
	// static pass has established the fleet exists.
	if err := c.Faults.validate(len(c.Nodes)); err != nil {
		return r, err
	}
	return r, nil
}

// EpochResult is one re-dispatch interval's fleet measurement.
type EpochResult struct {
	// Epoch indexes the interval; [Start, End) is its schedule window.
	Epoch int
	Start sim.Time
	End   sim.Time
	// Phase names the schedule phase covering the window's midpoint.
	Phase string
	// RateQPS is the schedule's mean offered rate over the window — what
	// the dispatcher partitioned.
	RateQPS float64
	// Parked counts nodes actually parked this epoch (zero load under
	// ParkDrained) — distinct from Fleet.IdleNodes, which counts merely
	// drained nodes whether or not parking is enabled.
	Parked int
	// Unparked counts nodes that were parked last epoch and received
	// load this epoch. The unpark itself is simulated (drain, deep-idle
	// residency, real exit latency on the first post-unpark arrival), so
	// its cost appears in the measured node results and UnparkEnergyJ,
	// kept for result-format stability, is always zero.
	Unparked      int
	UnparkEnergyJ float64
	// Down counts nodes crashed (dark) for this epoch: nothing was
	// simulated for them and they served no load. Restarted counts nodes
	// rebuilt cold at the start of this epoch after a crash, and
	// RestartEnergyJ is the synthetic restart penalty energy they burned
	// (already folded into Fleet.FleetPowerW/FleetEnergyJ, with the
	// restart latency flooring the epoch's worst p99).
	Down           int
	Restarted      int
	RestartEnergyJ float64
	// TargetNodes is the controller's target active node count for this
	// epoch (the clamped Observe decision; for the oracle, the number of
	// nodes routed load). Zero on open-loop runs.
	TargetNodes int
	// Saturated reports that the epoch's demand (offered rate plus any
	// queued backlog) exceeded the active fleet's admission capacity —
	// only ever set when ScenarioConfig.Overload selects a policy.
	// SheddedRequests counts the requests dropped during the window
	// (shed policy, or queue-policy backlog overflow), and BacklogRate
	// is the demand still queued at the window's end expressed as a
	// rate over the window (queue policy).
	Saturated       bool
	SheddedRequests float64
	BacklogRate     float64
	// Fleet is the full fleet aggregate for this window. With
	// CompactNodes its Nodes field stays nil.
	Fleet Result
	// CI holds the epoch's replica-ensemble 95% confidence intervals
	// when ScenarioConfig.Replicas > 0, nil otherwise.
	CI *FleetCI
}

// PhaseSummary aggregates the epochs that fell in one schedule phase.
type PhaseSummary struct {
	// Phase is the schedule phase name; Epochs counts its epochs.
	Phase  string
	Epochs int
	// Time is the total simulated time attributed to the phase.
	Time sim.Time
	// AvgRateQPS is the time-weighted mean offered rate.
	AvgRateQPS float64
	// AvgFleetPowerW is the time-weighted mean fleet power.
	AvgFleetPowerW float64
	// QPSPerWatt is completions per joule over the phase.
	QPSPerWatt float64
	// WorstP99US is the worst per-node server p99 across the phase.
	WorstP99US float64
	// AvgParkedNodes is the time-weighted mean parked-node count.
	AvgParkedNodes float64
}

// ScenarioResult is the full time-varying fleet measurement: per-epoch
// detail, per-phase aggregation, and whole-run totals.
type ScenarioResult struct {
	// Schedule and Dispatch echo the configuration.
	Schedule string
	Dispatch string
	// Epoch is the re-dispatch interval; TotalTime the schedule length.
	Epoch     sim.Time
	TotalTime sim.Time

	// Epochs holds every interval in time order.
	Epochs []EpochResult
	// Phases aggregates epochs by schedule phase, in first-seen order.
	Phases []PhaseSummary

	// FleetEnergyJ is total fleet energy including restart penalties.
	FleetEnergyJ float64
	// AvgFleetPowerW is the time-weighted mean fleet power.
	AvgFleetPowerW float64
	// CompletedPerSec is the time-weighted mean fleet throughput.
	CompletedPerSec float64
	// QPSPerWatt is completions per joule over the whole scenario.
	QPSPerWatt float64
	// WorstP99US is the worst per-node server p99 over any epoch.
	WorstP99US float64
	// Unparks counts park->active transitions over the run.
	Unparks int
	// Restarts counts cold rebuilds after crashes over the run.
	Restarts int
	// ParkedTimeline is the parked-node count per epoch — the
	// consolidation footprint over the day.
	ParkedTimeline []int

	// Controller names the fleet controller that drove the run; empty on
	// open-loop runs. ControllerChanges counts the epochs whose target
	// active node count differed from the previous epoch's — the
	// decision churn awsweep -v reports alongside dedup stats.
	Controller        string
	ControllerChanges int

	// Overload names the admission policy that governed the run; empty
	// when admission control was disabled. SaturatedEpochs counts the
	// epochs whose demand exceeded the admission capacity,
	// SheddedRequests totals the requests dropped over the run, and
	// BacklogRate is the demand still queued after the final epoch
	// (queue policy), as a rate over that epoch.
	Overload        string
	SaturatedEpochs int
	SheddedRequests float64
	BacklogRate     float64

	// Classes counts the timeline equivalence classes the fleet
	// collapsed into (one per node when nothing collapses).
	Classes int
	// ReplicaRuns counts the extra seeded replica timelines executed
	// (Classes x Replicas).
	ReplicaRuns int
	// CI holds the whole-run replica-ensemble 95% confidence intervals
	// when Replicas > 0, nil otherwise.
	CI *FleetCI
}

// Validate rejects unusable scenario configurations. It is a thin
// wrapper over Normalize — validation and defaulting are one pass, so a
// config rejected here is rejected identically by RunScenario.
func (c ScenarioConfig) Validate() error {
	_, err := c.Normalize()
	return err
}

// epochWindow is one re-dispatch interval of the plan: its schedule
// window, mean rate and covering phase, which depend on the schedule
// alone. What an epoch realized (routed rates, admission outcome) lives
// in the live classes' intervals and the epoch's recorded telemetry.
type epochWindow struct {
	start, end sim.Time
	rate       float64
	phase      string
}

// planEpochs partitions the schedule into epoch windows, each with its
// mean rate and covering phase.
func planEpochs(c resolvedScenario) []epochWindow {
	var plan []epochWindow
	for e := 0; ; e++ {
		t0 := c.Epoch * sim.Time(e)
		if t0 >= c.total {
			return plan
		}
		t1 := t0 + c.Epoch
		if t1 > c.total {
			t1 = c.total
		}
		phase, _ := c.Schedule.PhaseAt(t0 + (t1-t0)/2)
		plan = append(plan, epochWindow{
			start: t0,
			end:   t1,
			rate:  c.Schedule.AvgRate(t0, t1),
			phase: phase.Name,
		})
	}
}

// fleetConfig is the static-equivalent Config an epoch's aggregation
// runs under.
func (c resolvedScenario) fleetConfig(rate float64) Config {
	return Config{
		Nodes:       c.Nodes,
		RateQPS:     rate,
		Dispatch:    c.Dispatch,
		TargetUtil:  c.TargetUtil,
		ParkDrained: c.ParkDrained,
	}
}

// RunScenario simulates the fleet under the time-varying schedule with
// epoch-stepped re-dispatch: it builds the Live fleet, steps it through
// every epoch of the plan, and returns its Result, with per-epoch,
// per-phase and whole-run views aggregated. The class-dedup counters
// (runner.ClassStats) are noted here, once per run, rather than in
// Live.Result, which a live fleet may be asked for many times.
func RunScenario(cfg ScenarioConfig) (ScenarioResult, error) {
	l, err := NewLive(cfg)
	if err != nil {
		return ScenarioResult{}, err
	}
	for !l.Done() {
		if _, err := l.Step(); err != nil {
			return ScenarioResult{}, err
		}
	}
	res, err := l.Result()
	if err != nil {
		return ScenarioResult{}, err
	}
	l.r.NoteClassDedup(len(l.c.Nodes), res.Classes, res.ReplicaRuns)
	return res, nil
}

// epochResults builds every completed epoch's fleet result from the
// class measurements, seeding each from the epoch's recorded telemetry
// (window, offered rate, admission account) and the plan's phase. By
// default each node's NodeResult is materialized from its class
// representative; with CompactNodes park bookkeeping and fleet
// aggregation run class-weighted in O(classes) per epoch and
// EpochResult.Fleet.Nodes stays nil — what makes a 100K-node fleet a
// few-classes problem instead of a 2.4M-NodeResult problem. Every class
// member shares its representative's rate, park and fault history by
// construction, so the weighted counts are exact, not approximations.
// With a controller, each epoch also carries its target and target
// changes are counted.
func (l *Live) epochResults(classes []*liveClass, runs [][][]server.IntervalResult, out *ScenarioResult) {
	c := l.c
	parked := make([]bool, len(classes))
	for e := range l.hist {
		h := &l.hist[e]
		tel := &h.tel
		ep := EpochResult{
			Epoch: e, Start: tel.Start, End: tel.End, Phase: l.plan[e].phase, RateQPS: tel.OfferedQPS,
			Saturated: tel.Saturated, SheddedRequests: tel.SheddedRequests, BacklogRate: tel.BacklogRate,
		}
		if out.Controller != "" {
			ep.TargetNodes = h.target
			if e > 0 && h.target != l.hist[e-1].target {
				out.ControllerChanges++
			}
		}
		var nodes []NodeResult
		var mults []int
		if c.CompactNodes {
			nodes = make([]NodeResult, len(classes))
			mults = make([]int, len(classes))
		} else {
			nodes = make([]NodeResult, len(c.Nodes))
		}
		for ci, cl := range classes {
			iv := cl.results[e]
			rate := cl.intervals[e].Rate
			m := len(cl.members)
			rep := NodeResult{Node: cl.rep, RateQPS: rate, Parked: iv.Parked, Result: iv.Result}
			if c.CompactNodes {
				nodes[ci], mults[ci] = rep, m
			} else {
				for _, i := range cl.members {
					rep.Node = i
					nodes[i] = rep
				}
			}
			if iv.Parked {
				ep.Parked += m
			}
			if iv.Down {
				ep.Down += m
			}
			if iv.Restarted {
				ep.Restarted += m
			}
			if parked[ci] && rate > 0 {
				ep.Unparked += m
			}
			parked[ci] = iv.Parked
		}
		if c.CompactNodes {
			ep.Fleet = aggregateWeighted(c.fleetConfig(ep.RateQPS), nodes, mults)
		} else {
			ep.Fleet = aggregate(c.fleetConfig(ep.RateQPS), nodes)
		}
		applyRestartPenalty(c, &ep, ep.End-ep.Start)
		ep.CI = replicaCI(classes, runs, e, e+1, func(int) float64 { return 1 })
		out.Epochs = append(out.Epochs, ep)
		out.ParkedTimeline = append(out.ParkedTimeline, ep.Parked)
		out.Unparks += ep.Unparked
		out.Restarts += ep.Restarted
	}
}

// finish derives the per-phase and whole-run aggregates from the epochs.
func (r *ScenarioResult) finish() {
	type phaseAcc struct {
		rateSec     float64 // rate * seconds
		energyJ     float64
		completions float64
		parkedSec   float64
	}
	var totalSec, energy, completions float64
	phaseIdx := map[string]int{}
	var accs []phaseAcc
	for ei := range r.Epochs {
		ep := &r.Epochs[ei]
		winSec := float64(ep.End-ep.Start) / 1e9
		totalSec += winSec
		energy += ep.Fleet.FleetPowerW * winSec
		completions += ep.Fleet.CompletedPerSec * winSec
		if ep.Fleet.WorstP99US > r.WorstP99US {
			r.WorstP99US = ep.Fleet.WorstP99US
		}
		if ep.Saturated {
			r.SaturatedEpochs++
		}
		r.SheddedRequests += ep.SheddedRequests

		pi, ok := phaseIdx[ep.Phase]
		if !ok {
			pi = len(r.Phases)
			phaseIdx[ep.Phase] = pi
			r.Phases = append(r.Phases, PhaseSummary{Phase: ep.Phase})
			accs = append(accs, phaseAcc{})
		}
		p, a := &r.Phases[pi], &accs[pi]
		p.Epochs++
		p.Time += ep.End - ep.Start
		a.rateSec += ep.RateQPS * winSec
		a.energyJ += ep.Fleet.FleetPowerW * winSec
		a.completions += ep.Fleet.CompletedPerSec * winSec
		a.parkedSec += float64(ep.Parked) * winSec
		if ep.Fleet.WorstP99US > p.WorstP99US {
			p.WorstP99US = ep.Fleet.WorstP99US
		}
	}
	for i := range r.Phases {
		p, a := &r.Phases[i], &accs[i]
		sec := float64(p.Time) / 1e9
		if sec <= 0 {
			continue
		}
		p.AvgRateQPS = a.rateSec / sec
		p.AvgFleetPowerW = a.energyJ / sec
		p.AvgParkedNodes = a.parkedSec / sec
		if a.energyJ > 0 {
			p.QPSPerWatt = a.completions / a.energyJ
		}
	}
	if totalSec > 0 {
		r.FleetEnergyJ = energy
		r.AvgFleetPowerW = energy / totalSec
		r.CompletedPerSec = completions / totalSec
	}
	if energy > 0 {
		r.QPSPerWatt = completions / energy
	}
	if len(r.Epochs) > 0 {
		r.BacklogRate = r.Epochs[len(r.Epochs)-1].BacklogRate
	}
}
