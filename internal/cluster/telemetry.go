package cluster

import (
	"repro/internal/cstate"
	"repro/internal/server"
	"repro/internal/sim"
)

// NodeTelemetry is one node's epoch-boundary sample: what the fleet
// control plane may observe about it. Window-mean quantities
// (Utilization, QueueDepth, P99US) come from the finished epoch's
// measurement; LiveQueue is a point sample of the node's backlog at the
// boundary itself, read from the warm server.Instance.
type NodeTelemetry struct {
	// Node is the index into ScenarioConfig.Nodes.
	Node int
	// RateQPS is the load the dispatcher routed to this node over the
	// finished epoch.
	RateQPS float64
	// Utilization is the node's busy fraction (C0 residency) over the
	// epoch window.
	Utilization float64
	// QueueDepth is the window-mean number of requests waiting behind
	// others (Little's law over the measured queueing delay).
	QueueDepth float64
	// LiveQueue is the instantaneous backlog (queued + executing) at the
	// epoch boundary — nonzero when the node ended the window still
	// behind the offered load.
	LiveQueue int
	// P99US is the node's server-side p99 over the epoch.
	P99US float64
	// Parked reports whether the node sat parked for the epoch.
	Parked bool
	// Down reports whether the node was crashed (dark) for the epoch.
	Down bool
}

// FleetTelemetry is what a Controller observes at an epoch boundary:
// the finished epoch's fleet-level aggregates plus (when per-node
// detail is materialized) the per-node samples. Everything here is a
// lagging signal — measurements of the epoch that just ended, never of
// the one being decided — which is precisely the regime where a wrong
// decision becomes visible as unpark lag or overload.
type FleetTelemetry struct {
	// Epoch indexes the finished interval; [Start, End) is its window.
	Epoch int
	Start sim.Time
	End   sim.Time
	// OfferedQPS is the schedule's mean offered rate over the window;
	// CompletedQPS the fleet's achieved throughput.
	OfferedQPS   float64
	CompletedQPS float64
	// TotalNodes is the fleet size. ActiveNodes counts nodes that were
	// routed load this epoch and ParkedNodes nodes that sat parked; they
	// need not sum to TotalNodes (a drained node without ParkDrained is
	// neither).
	TotalNodes  int
	ActiveNodes int
	ParkedNodes int
	// DownNodes counts nodes crashed (dark) for the epoch. A crashed
	// node leaves the active set — it is routed nothing and contributes
	// nothing to the utilization/queue means — so a controller sizing
	// from this sample re-sizes around the survivors.
	DownNodes int
	// Utilization is the mean busy fraction across the nodes that
	// carried load — the reactive controller's primary signal.
	Utilization float64
	// QueueDepth is the mean per-active-node window-mean backlog;
	// LiveQueue sums the boundary point samples across the fleet.
	QueueDepth float64
	LiveQueue  int
	// WorstP99US is the worst per-node server p99 over the epoch.
	WorstP99US float64
	// FleetPowerW is the fleet package power over the epoch.
	FleetPowerW float64
	// Saturated reports that the epoch's demand exceeded the active
	// set's admission capacity; SheddedRequests counts requests the
	// admission policy dropped during the window and BacklogRate the
	// demand still queued at the boundary, as a rate (queue policy).
	// All zero unless ScenarioConfig.Overload selects a policy — the
	// signals a saturation-aware controller or dashboard watches.
	Saturated       bool
	SheddedRequests float64
	BacklogRate     float64
	// Nodes carries the per-node samples, weighted out to fleet order.
	// Nil under CompactNodes, where telemetry stays O(classes); the
	// fleet-level fields above are always populated.
	Nodes []NodeTelemetry
}

// nodeTelemetry builds one node's sample from its epoch measurement and
// the live boundary state of the instance that simulated it.
func nodeTelemetry(node int, rate float64, iv *server.IntervalResult, live int) NodeTelemetry {
	res := &iv.Result
	// Little's law: mean requests in queue = arrival rate x mean wait.
	// CompletedPerSec is the realized arrival rate of completed work and
	// Breakdown.Queue.AvgUS the measured mean wait behind other requests.
	depth := res.CompletedPerSec * res.Breakdown.Queue.AvgUS / 1e6
	return NodeTelemetry{
		Node:        node,
		RateQPS:     rate,
		Utilization: res.Residency[cstate.C0],
		QueueDepth:  depth,
		LiveQueue:   live,
		P99US:       res.Server.P99US,
		Parked:      iv.Parked,
		Down:        iv.Down,
	}
}

// fleetTelemetry folds per-class epoch measurements into the fleet
// sample a controller observes, headed by the plan window and the
// epoch's admission account. Classes are weighted by multiplicity,
// so the aggregation cost is O(classes) — compact fleets never pay
// O(nodes) for telemetry.
func fleetTelemetry(epoch int, pw epochWindow, acct overloadAccount, classes []*liveClass, compact bool, totalNodes int) FleetTelemetry {
	t := FleetTelemetry{
		Epoch:           epoch,
		Start:           pw.start,
		End:             pw.end,
		OfferedQPS:      pw.rate,
		TotalNodes:      totalNodes,
		Saturated:       acct.saturated,
		SheddedRequests: acct.shedded,
	}
	if acct.backlogReq > 0 {
		t.BacklogRate = acct.backlogReq / (float64(pw.end-pw.start) / 1e9)
	}
	var utilSum, depthSum float64 // over active nodes
	for _, cl := range classes {
		iv := &cl.results[epoch]
		m := len(cl.members)
		w := float64(m)
		res := &iv.Result
		live := cl.ins.QueueDepth()
		t.CompletedQPS += w * res.CompletedPerSec
		t.FleetPowerW += w * res.PackagePowerW
		t.LiveQueue += m * live
		if res.Server.P99US > t.WorstP99US {
			t.WorstP99US = res.Server.P99US
		}
		if iv.Parked {
			t.ParkedNodes += m
		}
		if iv.Down {
			t.DownNodes += m
		}
		if cl.rate > 0 {
			t.ActiveNodes += m
			utilSum += w * res.Residency[cstate.C0]
			depthSum += w * res.CompletedPerSec * res.Breakdown.Queue.AvgUS / 1e6
		}
		if !compact {
			for _, node := range cl.members {
				t.Nodes = append(t.Nodes, nodeTelemetry(node, cl.rate, iv, live))
			}
		}
	}
	if t.ActiveNodes > 0 {
		t.Utilization = utilSum / float64(t.ActiveNodes)
		t.QueueDepth = depthSum / float64(t.ActiveNodes)
	}
	return t
}
