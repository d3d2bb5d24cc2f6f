package cluster

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// CI is a two-sided 95% confidence interval.
type CI struct {
	Lo, Hi float64
}

// FleetCI carries the replica-ensemble 95% confidence intervals a
// scenario run with Replicas > 0 reports. Each interval is a Student-t
// interval over Samples independent virtual fleets: for replica index r,
// every class contributes its r-th measurement multiplied by the class
// size, so the ensemble spread is exactly the per-class sample variance
// propagated through the fleet sums (and through the max, for worst-p99,
// which has no closed-form propagation). Intervals are centered on the
// ensemble mean; the point-estimate fields on EpochResult.Fleet and
// ScenarioResult remain the representatives' exact measurements.
type FleetCI struct {
	// Samples is the ensemble size: the representative plus K replicas.
	Samples int
	// FleetPowerW bounds the total fleet package power (W).
	FleetPowerW CI
	// QPSPerWatt bounds completions per joule.
	QPSPerWatt CI
	// WorstP99US bounds the worst per-node server p99 (us).
	WorstP99US CI
}

// timelineClass is one timeline equivalence class of the fleet, as
// Live.Result packages it: every member node is a bit-identical
// simulation (same node fingerprint, park flag and realized rate and
// fault timeline), so one representative run stands for all of them,
// plus K seeded replicas for error bars.
type timelineClass struct {
	// rep is the representative: the class's first member node index.
	rep int
	// members lists every member node index, in fleet order.
	members []int
	// spec is the representative's timeline.
	spec runner.TimelineSpec
	// results[r][e] is replica r's epoch-e measurement; replica 0 is the
	// representative under its own natural seed.
	results [][]server.IntervalResult
}

// runReplicas runs the k seeded replicas of every class timeline: replica
// rep of class ci re-runs the representative's realized spec under seed
// xrand.ClassReplicaSeed(ci, rep) — drawn from the plane disjoint from
// every node seed, so a replica can never alias a real node's
// simulation in the memo cache — through the memoized RunTimeline.
// Replica 0, the representative, is already in results[0].
func runReplicas(classes []timelineClass, k int, r *runner.Runner) error {
	return r.Each(len(classes)*k, func(t int) error {
		ci, rep := t/k, t%k+1
		spec := classes[ci].spec
		spec.Node.Seed = xrand.ClassReplicaSeed(ci, rep)
		res, err := r.RunTimeline(spec)
		if err != nil {
			return fmt.Errorf("cluster: node %d timeline (class %d replica %d): %w",
				classes[ci].rep, ci, rep, err)
		}
		classes[ci].results[rep] = res
		return nil
	})
}

// ciOf returns the 95% Student-t interval around the mean of xs.
func ciOf(xs []float64) CI {
	mean, half := stats.MeanCI95(xs)
	return CI{Lo: mean - half, Hi: mean + half}
}

// epochClassCI builds epoch e's confidence intervals from the k+1
// replica ensembles, or nil when no replicas were requested.
func epochClassCI(classes []timelineClass, e, k int) *FleetCI {
	if k <= 0 {
		return nil
	}
	n := k + 1
	power := make([]float64, n)
	qps := make([]float64, n)
	worst := make([]float64, n)
	for ci := range classes {
		cl := &classes[ci]
		m := float64(len(cl.members))
		for rep := 0; rep < n; rep++ {
			res := &cl.results[rep][e].Result
			power[rep] += m * res.PackagePowerW
			qps[rep] += m * res.CompletedPerSec
			if res.Server.P99US > worst[rep] {
				worst[rep] = res.Server.P99US
			}
		}
	}
	qpw := make([]float64, n)
	for rep, p := range power {
		if p > 0 {
			qpw[rep] = qps[rep] / p
		}
	}
	return &FleetCI{Samples: n, FleetPowerW: ciOf(power), QPSPerWatt: ciOf(qpw), WorstP99US: ciOf(worst)}
}

// scenarioClassCI builds the whole-run confidence intervals: each
// replica index yields one virtual whole-scenario fleet (time-weighted
// mean power, completions per joule, max worst-p99 over epochs), and
// the intervals are t-intervals over those k+1 runs.
func scenarioClassCI(classes []timelineClass, plan []epochWindow, k int) *FleetCI {
	if k <= 0 {
		return nil
	}
	n := k + 1
	energy := make([]float64, n)
	comps := make([]float64, n)
	worst := make([]float64, n)
	var totalSec float64
	for e, pw := range plan {
		winSec := float64(pw.end-pw.start) / 1e9
		totalSec += winSec
		for ci := range classes {
			cl := &classes[ci]
			m := float64(len(cl.members))
			for rep := 0; rep < n; rep++ {
				res := &cl.results[rep][e].Result
				energy[rep] += m * res.PackagePowerW * winSec
				comps[rep] += m * res.CompletedPerSec * winSec
				if res.Server.P99US > worst[rep] {
					worst[rep] = res.Server.P99US
				}
			}
		}
	}
	power := make([]float64, n)
	qpw := make([]float64, n)
	for rep := range energy {
		if totalSec > 0 {
			power[rep] = energy[rep] / totalSec
		}
		if energy[rep] > 0 {
			qpw[rep] = comps[rep] / energy[rep]
		}
	}
	return &FleetCI{Samples: n, FleetPowerW: ciOf(power), QPSPerWatt: ciOf(qpw), WorstP99US: ciOf(worst)}
}
