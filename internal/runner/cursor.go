package runner

import (
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Fault is the per-interval fault annotation on a node timeline. The
// zero value means "healthy" and keeps the timeline byte-identical —
// in key and in execution — to one that predates fault injection.
type Fault struct {
	// Down crashes the node for the interval: its instance is discarded
	// (C-state, ring, RNG and collector warm state are lost) and nothing
	// is simulated until the next up interval rebuilds it cold.
	Down bool
	// Inflate is a straggler service-time multiplier applied to every
	// request dispatched during the interval; values <= 1 mean healthy.
	Inflate float64
	// Throttle caps the turbo ceiling for the interval: boosted slices
	// run at base + TurboCap·(turbo − base) instead of full turbo.
	Throttle bool
	// TurboCap is the throttled ceiling fraction in [0, 1); only
	// meaningful when Throttle is set (0 pins boost to base frequency).
	TurboCap float64
}

// healthy reports whether the annotation is the zero "no fault" value.
func (f Fault) healthy() bool { return f == Fault{} }

// TimelineCursor steps one node's timeline interval by interval with
// fault handling: crash intervals discard the live instance, the next
// up interval rebuilds it cold under a restart-remixed seed, and
// straggler/throttle annotations are installed on the instance before
// each window. It is the shared execution engine behind runTimeline
// (whole-timeline memoized runs) and the cluster layer's epoch stepping
// of every scenario, so both paths crash and recover identically.
//
// Like the Instance it wraps, a cursor is single-goroutine.
type TimelineCursor struct {
	node server.Config
	park bool
	ins  *server.Instance
	// index numbers results across crashes: a rebuilt instance restarts
	// its own interval count at zero, but the timeline's numbering must
	// stay monotonic.
	index    int
	down     bool
	restarts int
}

// NewCursor builds the cursor and its initial instance. Construction
// errors are exactly NewInstance's, so fault-free callers see the same
// validation they always did.
func NewCursor(node server.Config, park bool) (*TimelineCursor, error) {
	ins, err := server.NewInstance(node, park)
	if err != nil {
		return nil, err
	}
	return &TimelineCursor{node: node, park: park, ins: ins}, nil
}

// Step advances the timeline by one interval. A Down interval returns a
// synthetic result (Down set, nothing simulated); the first up interval
// after a crash rebuilds the instance cold — fresh everything, seed
// remixed through xrand.RestartSeed so the rebuilt node does not replay
// its predecessor's random history — and marks its result Restarted.
func (tc *TimelineCursor) Step(iv Interval) (server.IntervalResult, error) {
	if iv.Fault.Down {
		tc.ins = nil // crash: warm state is gone
		tc.down = true
		res := server.IntervalResult{Index: tc.index, RateQPS: iv.Rate, Down: true}
		tc.index++
		return res, nil
	}
	restarted := false
	if tc.ins == nil {
		tc.restarts++
		cfg := tc.node
		cfg.Seed = xrand.RestartSeed(tc.node.Seed, tc.restarts)
		// Warmup 0 means "default 50ms" after Defaults; a rebuilt node
		// starts genuinely cold, so ask for the minimum representable
		// warmup instead.
		cfg.Warmup = sim.Time(1)
		ins, err := server.NewInstance(cfg, tc.park)
		if err != nil {
			return server.IntervalResult{}, err
		}
		tc.ins = ins
		restarted = tc.down
		tc.down = false
	}
	tc.ins.SetServiceInflation(iv.Fault.Inflate)
	tc.ins.SetTurboCap(iv.Fault.Throttle, iv.Fault.TurboCap)
	res, err := tc.ins.RunInterval(iv.Window, iv.Rate)
	if err != nil {
		return res, err
	}
	res.Index = tc.index
	res.Restarted = restarted
	tc.index++
	return res, nil
}

// Instance returns the live warm instance, nil while crashed. The
// cluster snapshot layer serializes it for fleet checkpoint
// verification; callers must not run intervals on it directly.
func (tc *TimelineCursor) Instance() *server.Instance { return tc.ins }

// Down reports whether the node is currently crashed.
func (tc *TimelineCursor) Down() bool { return tc.down }

// Restarts returns how many times the node has been rebuilt.
func (tc *TimelineCursor) Restarts() int { return tc.restarts }

// QueueDepth is the live instance's instantaneous backlog; a crashed
// node has no queue.
func (tc *TimelineCursor) QueueDepth() int {
	if tc.ins == nil {
		return 0
	}
	return tc.ins.QueueDepth()
}

// Parked reports whether the live instance is parked (false while
// crashed — a dark node is down, not drained).
func (tc *TimelineCursor) Parked() bool {
	return tc.ins != nil && tc.ins.Parked()
}
