package cluster

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
)

// liveClass is one timeline equivalence class of a Live fleet, grown
// epoch by epoch. Under a controller the epoch plan is not static —
// each epoch's rate partition depends on the previous epoch's realized
// telemetry — so classes cannot be fixed up front from the schedule;
// instead the fleet starts collapsed by base node key (nodes that are
// bit-identical simulations before any load arrives) and a class splits
// the first epoch its members are routed different rates or faults.
// Members whose rate and fault streams stay identical stay collapsed
// for the whole run, so a shared-seed fleet simulates a handful of
// classes, not every node.
type liveClass struct {
	// rep is the representative: the class's first member node index.
	rep int
	// members lists every member node index, in fleet order.
	members []int
	// node is the representative's configuration.
	node server.Config
	// ins is the representative's fault-aware timeline cursor. Nil on a
	// class just split off its parent, and on every class of a fresh fork
	// or restore, until replayPrefix rebuilds it.
	ins *runner.TimelineCursor
	// intervals is the realized rate-and-fault timeline so far.
	intervals []runner.Interval
	// results[e] is epoch e's measurement.
	results []server.IntervalResult
	// rate is the current epoch's routed per-node rate.
	rate float64
	// fault is the current epoch's fault annotation.
	fault runner.Fault
}

// initialLiveClasses collapses the fleet by base node key: before any
// rates diverge, nodes with equal configurations (and the shared park
// flag) are bit-identical simulations. Uncacheable nodes (custom
// catalog, trace hook, live profile) cannot prove equivalence by key and
// stay singletons.
func initialLiveClasses(c resolvedScenario) []*liveClass {
	classes := make([]*liveClass, 0, 16)
	index := make(map[string]int, len(c.Nodes))
	for i := range c.Nodes {
		if key, ok := runner.Key(c.Nodes[i]); ok {
			if ci, seen := index[key]; seen {
				classes[ci].members = append(classes[ci].members, i)
				continue
			}
			index[key] = len(classes)
		}
		classes = append(classes, &liveClass{rep: i, members: []int{i}, node: c.Nodes[i]})
	}
	return classes
}

// rateFault is splitByRate's bucket key: members stay collapsed only
// while they share both the routed rate and the epoch's fault
// annotation — a faulted node can never ride a healthy representative.
type rateFault struct {
	rate  float64
	fault runner.Fault
}

// splitByRate partitions the classes so that every class's members
// share this epoch's routed rate and fault annotation, setting each
// class's rate and fault fields. A sub-class keeping the first member
// inherits the parent's live cursor; the others start with ins nil plus
// a copy of the realized prefix, and stepClasses replays them onto
// fresh cursors. Member order and the first-member-owns-the-state rule
// keep the final class partition identical to grouping the nodes by
// runner.TimelineKey over their realized rates and faults. faults is
// this epoch's per-node annotation row; nil means healthy.
func splitByRate(classes []*liveClass, rates []float64, faults []runner.Fault) []*liveClass {
	faultOf := func(m int) runner.Fault {
		if faults == nil {
			return runner.Fault{}
		}
		return faults[m]
	}
	out := make([]*liveClass, 0, len(classes))
	for _, cl := range classes {
		first := rateFault{rates[cl.members[0]], faultOf(cl.members[0])}
		uniform := true
		for _, m := range cl.members[1:] {
			if (rateFault{rates[m], faultOf(m)}) != first {
				uniform = false
				break
			}
		}
		if uniform {
			cl.rate, cl.fault = first.rate, first.fault
			out = append(out, cl)
			continue
		}
		// Bucket members by (rate, fault), preserving fleet order within
		// and across buckets (first-seen order).
		var subs []*liveClass
		bucket := map[rateFault]int{}
		for _, m := range cl.members {
			rf := rateFault{rates[m], faultOf(m)}
			if si, ok := bucket[rf]; ok {
				subs[si].members = append(subs[si].members, m)
				continue
			}
			bucket[rf] = len(subs)
			sub := &liveClass{
				rep:     m,
				members: []int{m},
				node:    cl.node,
				rate:    rf.rate,
				fault:   rf.fault,
			}
			if len(subs) == 0 {
				// First bucket holds members[0]: it keeps the parent's live
				// state and history in place.
				sub.ins = cl.ins
				sub.intervals = cl.intervals
				sub.results = cl.results
			} else {
				sub.intervals = append([]runner.Interval(nil), cl.intervals...)
				sub.results = append([]server.IntervalResult(nil), cl.results...)
			}
			subs = append(subs, sub)
		}
		out = append(out, subs...)
	}
	return out
}

// stepClasses advances every class one epoch at its routed rate and
// fault, rebuilding lazily nil cursors first. Classes are independent
// simulations, so the fan-out is parallel, one runner task per class:
// fine-grained tasks keep concurrent callers sharing a runner (the
// daemon's steps and what-ifs) interleaved fairly. A class's prefix
// replay is part of its own task.
func stepClasses(classes []*liveClass, window sim.Time, park bool, r *runner.Runner) error {
	return r.Each(len(classes), func(ci int) error {
		cl := classes[ci]
		if err := cl.replayPrefix(park); err != nil {
			return err
		}
		next := runner.Interval{Window: window, Rate: cl.rate, Fault: cl.fault}
		iv, err := cl.ins.Step(next)
		if err != nil {
			return fmt.Errorf("cluster: node %d epoch %d: %w", cl.rep, len(cl.results), err)
		}
		cl.results = append(cl.results, iv)
		cl.intervals = append(cl.intervals, next)
		return nil
	})
}

// replayPrefix rebuilds a nil cursor — a class just split off its
// parent, or any class of a fresh fork or restore — by stepping a fresh
// cursor through the class's realized intervals. The replay is exact by
// determinism, so its measurements equal the recorded ones and are
// discarded; only the cursor state (instance, crash/restart history)
// matters.
func (cl *liveClass) replayPrefix(park bool) error {
	if cl.ins != nil {
		return nil
	}
	cur, err := runner.NewCursor(cl.node, park)
	if err != nil {
		return fmt.Errorf("cluster: node %d prefix replay: %w", cl.rep, err)
	}
	for i, iv := range cl.intervals {
		if _, err := cur.Step(iv); err != nil {
			return fmt.Errorf("cluster: node %d prefix replay interval %d: %w", cl.rep, i, err)
		}
	}
	cl.ins = cur
	return nil
}

// activeSet returns the active node indices for a target: the first
// target up nodes in fleet order (crashed nodes skipped). With fewer
// than target up nodes the whole surviving fleet serves. A nil set means
// every node is active — no per-epoch index slice for a healthy,
// unconsolidated fleet — while an empty one means every node is down.
func activeSet(c resolvedScenario, target int, faults []runner.Fault) []int {
	if target >= len(c.Nodes) && faults == nil {
		return nil
	}
	up := make([]int, 0, target)
	for i := range c.Nodes {
		if faults != nil && faults[i].Down {
			continue
		}
		up = append(up, i)
		if len(up) == target {
			break
		}
	}
	if len(up) == len(c.Nodes) {
		return nil
	}
	return up
}

// partitionOver routes rate across the given active set with the
// configured dispatch policy, expanded back to fleet order; nodes
// outside the set are routed nothing. A nil set partitions over the
// whole fleet in place; an empty one routes nothing at all — the whole
// fleet is dark.
func partitionOver(c resolvedScenario, part func(Config) []float64, rate float64, up []int) []float64 {
	cfg := Config{Nodes: c.Nodes, RateQPS: rate, Dispatch: c.Dispatch, TargetUtil: c.TargetUtil}
	if up == nil {
		return part(cfg)
	}
	rates := make([]float64, len(c.Nodes))
	if len(up) == 0 {
		return rates
	}
	cfg.Nodes = make([]server.Config, len(up))
	for j, i := range up {
		cfg.Nodes[j] = c.Nodes[i]
	}
	sub := part(cfg)
	for j, i := range up {
		rates[i] = sub[j]
	}
	return rates
}

// meanCapacityQPS is the fleet's mean per-node capacity — the sizing
// unit controllers provision in.
func meanCapacityQPS(nodes []server.Config) float64 {
	if len(nodes) == 0 {
		return 0
	}
	var sum float64
	for _, n := range nodes {
		sum += capacityQPS(n)
	}
	return sum / float64(len(nodes))
}
