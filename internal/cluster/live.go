package cluster

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/snapbuf"
)

// Live is a fleet scenario stepped one epoch at a time — the scenario
// engine. RunScenario steps it to the end; the awserved digital twin
// holds it mid-scenario: Step advances it by one epoch (controller
// decisions, fault plan and admission control applied), StepTarget
// forces the next epoch's active-node target (the what-if knob),
// Telemetry exposes each finished epoch's fleet sample, Fork spawns an
// independent bit-identical copy, and Snapshot/RestoreLive checkpoint
// the whole fleet across processes.
//
// Determinism contract: a fork's subsequent timeline is bit-identical
// to its parent's, and a restored fleet's to the one checkpointed. Both
// properties are pinned by tests.
//
// A Live is single-goroutine, like the instances it wraps.
type Live struct {
	c      resolvedScenario
	part   func(Config) []float64
	r      *runner.Runner
	plan   []epochWindow
	faults [][]runner.Fault
	// ctrl decides each unforced epoch's target; nil with no controller
	// (open loop and the oracle), where every epoch targets the whole
	// fleet.
	ctrl Controller
	// adm is the run-time admission state (nil when overload control is
	// disabled): every epoch admits against its active set at step time.
	adm *admission

	classes []*liveClass
	hist    []epochRecord
}

// epochRecord is one completed epoch: its active-node target, whether
// StepTarget forced it, and the fleet telemetry it produced — the one
// record Result, Fork, Snapshot and the controller rebuild read.
type epochRecord struct {
	target int
	forced bool
	tel    FleetTelemetry
}

// NewLive builds the steppable fleet for the scenario config: the epoch
// plan, the fault plan over it, and the fleet collapsed into its initial
// live classes.
func NewLive(cfg ScenarioConfig) (*Live, error) {
	c, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	part, err := partitioner(c.Dispatch)
	if err != nil {
		return nil, err
	}
	r := c.Runner
	if r == nil {
		r = runner.Default()
	}
	plan := planEpochs(c)
	l := &Live{
		c:      c,
		part:   part,
		r:      r,
		plan:   plan,
		faults: c.faultPlan(plan),
	}
	l.ctrl = newController(c.Controller, l.fleetInfo())
	l.adm = c.newAdmission()
	l.classes = initialLiveClasses(c)
	return l, nil
}

func (l *Live) fleetInfo() FleetInfo {
	return FleetInfo{
		Nodes:      len(l.c.Nodes),
		PerNodeQPS: meanCapacityQPS(l.c.Nodes),
		TargetUtil: l.c.Controller.TargetUtil,
		Epoch:      l.c.Epoch,
	}
}

// Epochs returns the plan length; Epoch the number already completed;
// Done whether the scenario has run out of schedule.
func (l *Live) Epochs() int { return len(l.plan) }
func (l *Live) Epoch() int  { return len(l.hist) }
func (l *Live) Done() bool  { return len(l.hist) >= len(l.plan) }

// Clock returns the fleet's simulated position: the end of the last
// completed epoch.
func (l *Live) Clock() sim.Time {
	tel, _ := l.Telemetry()
	return tel.End
}

// Telemetry returns the last completed epoch's fleet sample; ok is
// false before the first Step.
func (l *Live) Telemetry() (FleetTelemetry, bool) {
	if len(l.hist) == 0 {
		return FleetTelemetry{}, false
	}
	return l.hist[len(l.hist)-1].tel, true
}

// History returns a copy of the fleet samples for every completed
// epoch, in epoch order — the stream a monitoring frontend replays
// after attaching mid-run (or after a restore, whose re-stepped epochs
// land here exactly as the original run recorded them).
func (l *Live) History() []FleetTelemetry {
	out := make([]FleetTelemetry, len(l.hist))
	for e := range l.hist {
		out[e] = l.hist[e].tel
	}
	return out
}

// Step advances the fleet one epoch: the controller (or, without one,
// the whole fleet) sets the active-node target, admission control clips
// the epoch's offered rate to the active set's capacity, the dispatcher
// routes it, every class simulates its window, and the boundary
// telemetry is folded and returned.
func (l *Live) Step() (FleetTelemetry, error) {
	return l.step(0, false)
}

// StepTarget advances the fleet one epoch with the active-node target
// forced to target — the what-if knob ("park all but 8 nodes for the
// next hour" is a sequence of StepTarget(8) calls on a fork). The
// forced epoch bypasses the controller entirely: its state does not
// advance, exactly as if an operator had overridden the autoscaler for
// the window.
func (l *Live) StepTarget(target int) (FleetTelemetry, error) {
	return l.step(target, true)
}

func (l *Live) step(forcedTarget int, force bool) (FleetTelemetry, error) {
	if l.Done() {
		return FleetTelemetry{}, fmt.Errorf("cluster: live scenario finished (all %d epochs stepped)", len(l.plan))
	}
	e := len(l.hist)
	pw := l.plan[e]
	var frow []runner.Fault
	if l.faults != nil {
		frow = l.faults[e]
	}
	// Without a controller, and on a controller's cold start before any
	// telemetry arrives, the whole fleet is the target.
	target := len(l.c.Nodes)
	switch {
	case force:
		target = clampTarget(forcedTarget, len(l.c.Nodes))
	case l.ctrl != nil && e > 0:
		// The controller decides against the finished epoch's telemetry:
		// one full epoch of lag, the honest feedback regime.
		target = clampTarget(l.ctrl.Observe(l.hist[e-1].tel), len(l.c.Nodes))
	}
	up := activeSet(l.c, target, frow)
	// Admission runs against the active set's capacity, so a
	// consolidated fleet saturates before a fully unparked one would.
	route := pw.rate
	var acct overloadAccount
	if l.adm != nil {
		route, acct = l.adm.admit(pw.rate, l.c.overloadCapacity(up), float64(pw.end-pw.start)/1e9)
	}
	rates := partitionOver(l.c, l.part, route, up)
	if !force && l.ctrl == nil {
		// Open loop and the oracle report the nodes actually routed.
		target = 0
		for _, rt := range rates {
			if rt > 0 {
				target++
			}
		}
	}

	l.classes = splitByRate(l.classes, rates, frow)
	if err := stepClasses(l.classes, pw.end-pw.start, l.c.ParkDrained, l.r); err != nil {
		return FleetTelemetry{}, err
	}
	tel := fleetTelemetry(e, pw, acct, l.classes, l.c.CompactNodes, len(l.c.Nodes))
	l.hist = append(l.hist, epochRecord{target: target, forced: force, tel: tel})
	return tel, nil
}

// Result packages the epochs completed so far straight from the live
// record: the live classes, in first-member order, with their realized
// intervals and measurements; replicas of each class add seeded error
// bars; each epoch's header comes from its recorded telemetry, and
// park/restart bookkeeping and per-epoch/per-phase aggregation follow.
// A Live stepped to completion returns exactly RunScenario's result.
func (l *Live) Result() (ScenarioResult, error) {
	if len(l.hist) == 0 {
		return ScenarioResult{}, fmt.Errorf("cluster: live scenario has no completed epochs to report")
	}
	out := ScenarioResult{
		Schedule:   l.c.Schedule.Name(),
		Dispatch:   l.c.Dispatch,
		Epoch:      l.c.Epoch,
		TotalTime:  l.c.total,
		Overload:   l.c.Overload.Policy,
		Controller: l.c.Controller.displayName(),
	}
	classes := append([]*liveClass(nil), l.classes...)
	sort.Slice(classes, func(i, j int) bool { return classes[i].rep < classes[j].rep })
	runs, err := runReplicas(classes, l.c.Replicas, l.c.ParkDrained, l.r)
	if err != nil {
		return ScenarioResult{}, err
	}
	out.Classes = len(classes)
	out.ReplicaRuns = len(classes) * l.c.Replicas
	l.epochResults(classes, runs, &out)
	out.CI = replicaCI(classes, runs, 0, len(l.hist), func(e int) float64 {
		return float64(l.hist[e].tel.End-l.hist[e].tel.Start) / 1e9
	})
	out.finish()
	return out, nil
}

// Fork returns an independent copy of the fleet at the current epoch
// boundary. The copy shares nothing mutable with the parent: class
// timelines are copied, cursors are rebuilt lazily by deterministic
// prefix replay (replayPrefix, the same mechanism a class split uses),
// and the controller is rebuilt by replaying its observation history.
// Stepping the fork and the parent through identical futures yields
// bit-identical measurements — what-if queries run on forks so the
// live fleet is never disturbed.
func (l *Live) Fork() *Live {
	n := &Live{
		c:      l.c,
		part:   l.part,
		r:      l.r,
		plan:   l.plan,
		faults: l.faults,
		hist:   append([]epochRecord(nil), l.hist...),
	}
	if l.adm != nil {
		admCopy := *l.adm
		n.adm = &admCopy
	}
	n.classes = make([]*liveClass, len(l.classes))
	for ci, cl := range l.classes {
		n.classes[ci] = &liveClass{
			rep:       cl.rep,
			members:   append([]int(nil), cl.members...),
			node:      cl.node,
			intervals: append([]runner.Interval(nil), cl.intervals...),
			results:   append([]server.IntervalResult(nil), cl.results...),
			rate:      cl.rate,
			fault:     cl.fault,
		}
	}
	n.ctrl = n.rebuildController()
	return n
}

// rebuildController reconstructs the controller's internal state by
// replaying its observation history: controllers are deterministic
// functions of the telemetry sequence they observed, and forced
// (StepTarget) epochs bypassed Observe, so replaying the unforced
// prefix reproduces the state machine exactly.
func (l *Live) rebuildController() Controller {
	ctrl := newController(l.c.Controller, l.fleetInfo())
	if ctrl == nil {
		return nil
	}
	for e := 1; e < len(l.hist); e++ {
		if !l.hist[e].forced {
			ctrl.Observe(l.hist[e-1].tel)
		}
	}
	return ctrl
}

// materialize rebuilds every lazily nil class cursor (fresh forks,
// just-restored fleets) by prefix replay, in parallel.
func (l *Live) materialize() error {
	return l.r.Each(len(l.classes), func(ci int) error {
		return l.classes[ci].replayPrefix(l.c.ParkDrained)
	})
}

// liveSnapshotVersion versions the fleet checkpoint document. Same
// policy as the instance format: bumped on any encoding or replay-
// equivalence change, no cross-version migration. Version 2 added the
// overload admission policy to the identity block.
const liveSnapshotVersion = 2

// Snapshot checkpoints the fleet: an identity block naming the
// scenario shape (restore rejects a mismatched config), the decision
// history (per-epoch targets and which were forced), and a per-class
// verification block with each representative's full instance
// snapshot. RestoreLive re-steps the scenario deterministically and
// then proves byte-equality of every rebuilt instance against the
// captured ones, so a checkpoint can never silently restore onto a
// diverged simulator or a different scenario file.
func (l *Live) Snapshot() ([]byte, error) {
	if err := l.materialize(); err != nil {
		return nil, err
	}
	var e snapbuf.Encoder
	e.U8(liveSnapshotVersion)

	// Identity block.
	e.I64(int64(len(l.c.Nodes)))
	e.I64(int64(len(l.plan)))
	e.I64(int64(l.c.total))
	e.I64(int64(l.c.Epoch))
	e.Str(l.c.Schedule.Name())
	e.Str(l.c.Dispatch)
	e.Str(l.c.Controller.Name)
	e.Bool(l.c.ParkDrained)
	e.Bool(l.c.CompactNodes)
	e.I64(int64(l.c.Replicas))
	e.Str(l.c.Overload.Policy)
	e.F64(l.c.Overload.MaxUtil)
	e.F64(l.c.Overload.MaxBacklogSec)

	// Decision history.
	e.I64(int64(len(l.hist)))
	for _, h := range l.hist {
		e.I64(int64(h.target))
		e.Bool(h.forced)
	}

	// Per-class verification block.
	e.I64(int64(len(l.classes)))
	for _, cl := range l.classes {
		e.I64(int64(cl.rep))
		e.I64(int64(len(cl.members)))
		e.Bool(cl.ins.Down())
		e.I64(int64(cl.ins.Restarts()))
		if ins := cl.ins.Instance(); ins != nil {
			blob, err := ins.Snapshot()
			if err != nil {
				return nil, fmt.Errorf("cluster: snapshot: node %d: %w", cl.rep, err)
			}
			e.Bytes(blob)
		} else {
			e.Bytes(nil) // crashed: no warm state to capture
		}
	}
	return e.Buf, nil
}

// RestoreLive rebuilds a fleet checkpoint taken by Live.Snapshot. The
// caller supplies the same ScenarioConfig the checkpoint was taken
// under (the daemon holds the scenario file; the payload carries only
// an identity block to reject mismatches). The decision history is
// re-stepped through the normal engine — deterministic replay — and
// every rebuilt class representative is verified byte-for-byte against
// its captured instance snapshot.
func RestoreLive(cfg ScenarioConfig, data []byte) (*Live, error) {
	d := snapbuf.NewDecoder(data)
	if v := d.U8(); d.Err() == nil && v != liveSnapshotVersion {
		return nil, fmt.Errorf("cluster: restore: unknown fleet snapshot version %d (want %d)", v, liveSnapshotVersion)
	}
	l, err := NewLive(cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: restore: %w", err)
	}

	// Identity block.
	type ident struct {
		nodes, plan          int64
		total, epoch         int64
		sched, disp          string
		ctrl                 string
		park, compact        bool
		replicas             int64
		overload             string
		maxUtil, maxBacklogS float64
	}
	got := ident{
		nodes: int64(len(l.c.Nodes)), plan: int64(len(l.plan)),
		total: int64(l.c.total), epoch: int64(l.c.Epoch),
		sched: l.c.Schedule.Name(), disp: l.c.Dispatch,
		ctrl: l.c.Controller.Name, park: l.c.ParkDrained,
		compact: l.c.CompactNodes, replicas: int64(l.c.Replicas),
		overload: l.c.Overload.Policy, maxUtil: l.c.Overload.MaxUtil,
		maxBacklogS: l.c.Overload.MaxBacklogSec,
	}
	want := ident{
		nodes: d.I64(), plan: d.I64(), total: d.I64(), epoch: d.I64(),
		sched: d.Str(), disp: d.Str(), ctrl: d.Str(),
		park: d.Bool(), compact: d.Bool(), replicas: d.I64(),
		overload: d.Str(), maxUtil: d.F64(), maxBacklogS: d.F64(),
	}
	if d.Err() == nil && got != want {
		return nil, fmt.Errorf("cluster: restore: scenario config does not match the checkpoint (have %+v, checkpoint %+v)", got, want)
	}

	// Decision history.
	nEpochs := d.I64()
	if d.Err() == nil && (nEpochs < 0 || nEpochs > int64(len(l.plan))) {
		return nil, fmt.Errorf("cluster: restore: checkpoint has %d epochs, plan has %d", nEpochs, len(l.plan))
	}
	targets := make([]int, 0, nEpochs)
	forced := make([]bool, 0, nEpochs)
	for i := int64(0); i < nEpochs && d.Err() == nil; i++ {
		targets = append(targets, int(d.I64()))
		forced = append(forced, d.Bool())
	}

	// Verification block (decoded fully before any replay runs, so a
	// truncated payload is rejected without burning simulation time).
	type classCheck struct {
		rep, members, restarts int64
		down                   bool
		blob                   []byte
	}
	nClasses := d.I64()
	if d.Err() == nil && (nClasses < 0 || nClasses > int64(len(l.c.Nodes))) {
		return nil, fmt.Errorf("cluster: restore: implausible class count %d for a %d-node fleet", nClasses, len(l.c.Nodes))
	}
	checks := make([]classCheck, 0, nClasses)
	for i := int64(0); i < nClasses && d.Err() == nil; i++ {
		c := classCheck{rep: d.I64(), members: d.I64()}
		c.down = d.Bool()
		c.restarts = d.I64()
		c.blob = d.Bytes()
		checks = append(checks, c)
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("cluster: restore: %w", err)
	}

	// Deterministic re-step: forced epochs replay their recorded target,
	// unforced epochs re-derive theirs (controller decision or routed
	// count) — and must land on the recorded value, or the
	// simulator/scenario has diverged from the checkpoint.
	for e := 0; e < len(targets); e++ {
		var err error
		if forced[e] {
			_, err = l.StepTarget(targets[e])
		} else {
			_, err = l.Step()
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: restore: replay epoch %d: %w", e, err)
		}
		if got := l.hist[e].target; got != targets[e] {
			return nil, fmt.Errorf("cluster: restore: replay epoch %d chose target %d, checkpoint recorded %d (simulator changed since capture?)",
				e, got, targets[e])
		}
	}

	// Class-structure and instance-state verification.
	if err := l.materialize(); err != nil {
		return nil, fmt.Errorf("cluster: restore: %w", err)
	}
	if len(l.classes) != len(checks) {
		return nil, fmt.Errorf("cluster: restore: replay produced %d classes, checkpoint recorded %d (simulator changed since capture?)",
			len(l.classes), len(checks))
	}
	for ci, cl := range l.classes {
		ck := checks[ci]
		if int64(cl.rep) != ck.rep || int64(len(cl.members)) != ck.members {
			return nil, fmt.Errorf("cluster: restore: class %d is node %d x%d, checkpoint recorded node %d x%d (simulator changed since capture?)",
				ci, cl.rep, len(cl.members), ck.rep, ck.members)
		}
		if cl.ins.Down() != ck.down || int64(cl.ins.Restarts()) != ck.restarts {
			return nil, fmt.Errorf("cluster: restore: class %d crash state diverged from the checkpoint (simulator changed since capture?)", ci)
		}
		ins := cl.ins.Instance()
		if ins == nil {
			if len(ck.blob) != 0 {
				return nil, fmt.Errorf("cluster: restore: class %d replayed as crashed but the checkpoint captured warm state", ci)
			}
			continue
		}
		blob, err := ins.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("cluster: restore: class %d: %w", ci, err)
		}
		if !bytes.Equal(blob, ck.blob) {
			return nil, fmt.Errorf("cluster: restore: class %d instance state diverged from the checkpoint (simulator changed since capture?)", ci)
		}
	}
	return l, nil
}
