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

// runReplicas runs the k seeded replicas of every live class: replica
// rep of class ci re-runs the representative's realized timeline (its
// node, intervals and the park flag) under seed
// xrand.ClassReplicaSeed(ci, rep) — drawn from the plane disjoint from
// every node seed, so a replica can never alias a real node's
// simulation in the memo cache — through the memoized RunTimeline. It
// returns each class's ensemble, runs[ci][rep][e], whose replica 0 is
// the representative's own cl.results; nil when k is 0.
func runReplicas(classes []*liveClass, k int, park bool, r *runner.Runner) ([][][]server.IntervalResult, error) {
	if k == 0 {
		return nil, nil
	}
	runs := make([][][]server.IntervalResult, len(classes))
	for ci, cl := range classes {
		runs[ci] = make([][]server.IntervalResult, k+1)
		runs[ci][0] = cl.results
	}
	err := r.Each(len(classes)*k, func(t int) error {
		ci, rep := t/k, t%k+1
		cl := classes[ci]
		spec := runner.TimelineSpec{Node: cl.node, Park: park, Intervals: cl.intervals}
		spec.Node.Seed = xrand.ClassReplicaSeed(ci, rep)
		res, err := r.RunTimeline(spec)
		if err != nil {
			return fmt.Errorf("cluster: node %d timeline (class %d replica %d): %w",
				cl.rep, ci, rep, err)
		}
		runs[ci][rep] = res
		return nil
	})
	return runs, err
}

// ciOf returns the 95% Student-t interval around the mean of xs.
func ciOf(xs []float64) CI {
	mean, half := stats.MeanCI95(xs)
	return CI{Lo: mean - half, Hi: mean + half}
}

// replicaCI builds the confidence intervals of epochs [lo, hi) from the
// replica ensembles, or nil when no replicas ran. Each replica index
// yields one virtual fleet: every class adds m*x*scale of its replica's
// power and throughput, scale being the epoch's weight sec(e), and the
// worst p99 is the max over the range. Power is the weighted sum over
// the summed weights and QPS/W completions over energy. One epoch's
// intervals weigh it 1 (so the sums are its fleet power and
// throughput); the whole run weighs each epoch by its length in
// seconds (time-weighted mean power, completions per joule).
func replicaCI(classes []*liveClass, runs [][][]server.IntervalResult, lo, hi int, sec func(e int) float64) *FleetCI {
	if runs == nil {
		return nil
	}
	n := len(runs[0])
	energy := make([]float64, n)
	comps := make([]float64, n)
	worst := make([]float64, n)
	var totalSec float64
	for e := lo; e < hi; e++ {
		scale := sec(e)
		totalSec += scale
		for ci, cl := range classes {
			m := float64(len(cl.members))
			for rep, res := range runs[ci] {
				r := &res[e].Result
				energy[rep] += m * r.PackagePowerW * scale
				comps[rep] += m * r.CompletedPerSec * scale
				if r.Server.P99US > worst[rep] {
					worst[rep] = r.Server.P99US
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
