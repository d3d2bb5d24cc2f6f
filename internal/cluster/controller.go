package cluster

import (
	"fmt"
	"math"

	"repro/internal/governor"
	"repro/internal/sim"
)

// Controller names accepted by ControllerSpec.Name.
const (
	// ControllerOracle makes no decisions: every epoch routes the
	// schedule's offered rate over the whole up fleet, exactly as an
	// open-loop run does, so an oracle run reproduces the open-loop
	// results bit-for-bit. It is the never-wrong upper bound the paper's
	// evaluation implicitly assumes.
	ControllerOracle = "oracle"
	// ControllerReactive sizes the fleet from measured utilization:
	// outside the [DownUtil, UpUtil] deadband it retargets toward
	// TargetUtil, and a cooldown holds each decision for Cooldown epochs
	// so one noisy window cannot flap nodes. Reactions lag the load by at
	// least one epoch — the regime where deep-idle exit latency bites.
	ControllerReactive = "reactive"
	// ControllerPredictive forecasts the next epoch's offered rate with
	// the menu governor's EWMA machinery (governor.EWMA at fleet
	// granularity, high-biased) and provisions capacity for the forecast,
	// so ramps are met with nodes already unparked — at the price of
	// over-provisioning after spikes the EWMA remembers.
	ControllerPredictive = "predictive"
)

// Controllers lists the built-in controller names.
func Controllers() []string {
	return []string{ControllerOracle, ControllerReactive, ControllerPredictive}
}

// Controller is a fleet autoscaling policy evaluated at epoch
// boundaries. Observe ingests the telemetry of the epoch that just
// finished — a lagging signal — and returns the target number of active
// nodes for the next epoch; the engine clamps the target to [1, fleet]
// and routes the next epoch's load across the active prefix, parking
// the rest. A Controller is driven from one goroutine and may keep
// state (hysteresis counters, EWMA history) across calls.
type Controller interface {
	// Name identifies the policy.
	Name() string
	// Observe returns the target active node count for the next epoch.
	Observe(t FleetTelemetry) int
}

// FleetInfo is the static fleet description a controller factory sees
// at construction time — everything a sizing policy may precompute.
type FleetInfo struct {
	// Nodes is the fleet size.
	Nodes int
	// PerNodeQPS is the mean per-node capacity at 100% utilization.
	PerNodeQPS float64
	// TargetUtil is the utilization the controller should size for.
	TargetUtil float64
	// Epoch is the decision interval.
	Epoch sim.Time
}

// ControllerSpec selects and tunes a fleet controller by value, so it
// can travel through config structs, CLI flags and experiment tables.
// The zero value means "no controller" (open-loop scenario). Unset
// tuning fields resolve to defaults during Normalize: UpUtil 0.75,
// DownUtil 0.40, TargetUtil from the scenario's dispatch target,
// Cooldown 2 epochs, Alpha 0.3.
type ControllerSpec struct {
	// Name picks a built-in controller (see Controllers). Empty with New
	// nil means open-loop.
	Name string
	// UpUtil and DownUtil bound the reactive deadband: measured
	// utilization above UpUtil scales out, below DownUtil scales in,
	// inside the band holds.
	UpUtil   float64
	DownUtil float64
	// TargetUtil is the utilization the controller sizes the active set
	// for (reactive retarget and predictive provisioning).
	TargetUtil float64
	// Cooldown is the minimum number of epochs between target changes
	// (reactive hysteresis; 1 re-decides every epoch). 0 means default.
	Cooldown int
	// Alpha is the predictive controller's EWMA weight on new
	// observations. 0 means default.
	Alpha float64
	// New overrides Name with a custom controller factory. The factory
	// runs once per scenario, before the first epoch.
	New func(FleetInfo) Controller
}

// enabled reports whether the spec selects any controller.
func (s ControllerSpec) enabled() bool { return s.Name != "" || s.New != nil }

// displayName is the controller name surfaced on results.
func (s ControllerSpec) displayName() string {
	if s.Name != "" {
		return s.Name
	}
	if s.New != nil {
		return "custom"
	}
	return ""
}

// ceilTarget converts a continuous node demand to an integer target,
// saturating instead of overflowing: at saturation a forecast can run
// orders of magnitude past any real fleet, and a float-to-int
// conversion past the int range is implementation-defined — it must
// pin high (so clampTarget lands on the full fleet), never wrap low.
func ceilTarget(v float64) int {
	const maxTarget = 1 << 30
	if math.IsNaN(v) {
		return 1
	}
	if v >= maxTarget {
		return maxTarget
	}
	return int(math.Ceil(v))
}

// clampTarget bounds a controller decision to [1, nodes]: a fleet never
// parks its last node (something must serve the next epoch) and cannot
// unpark nodes it does not have.
func clampTarget(want, nodes int) int {
	if want < 1 {
		return 1
	}
	if want > nodes {
		return nodes
	}
	return want
}

// newController instantiates the spec's policy for a fleet. The oracle
// returns nil: it has no decisions to make — the engine routes every
// epoch over the whole up fleet, as it does with no controller at all.
func newController(s ControllerSpec, info FleetInfo) Controller {
	if s.New != nil {
		return s.New(info)
	}
	switch s.Name {
	case ControllerReactive:
		return &reactiveController{spec: s, info: info, target: info.Nodes, sinceChange: s.Cooldown}
	case ControllerPredictive:
		return &predictiveController{spec: s, info: info, pred: governor.NewEWMA(s.Alpha), target: info.Nodes}
	default: // ControllerOracle
		return nil
	}
}

// reactiveController is threshold autoscaling with hysteresis: measured
// active-set utilization outside the [DownUtil, UpUtil] deadband
// retargets the active count toward TargetUtil; the cooldown then holds
// the new target for Cooldown epochs, so a single noisy window cannot
// flip nodes back. It knows nothing about the schedule — every reaction
// lags the load by at least one epoch, which is exactly the lag that
// turns deep-idle exit latency into unpark-lag p99 violations on spiky
// schedules.
type reactiveController struct {
	spec        ControllerSpec
	info        FleetInfo
	target      int
	sinceChange int
}

// Name implements Controller.
func (c *reactiveController) Name() string { return ControllerReactive }

// Observe implements Controller.
func (c *reactiveController) Observe(t FleetTelemetry) int {
	c.sinceChange++
	util := t.Utilization
	active := t.ActiveNodes
	if active < 1 {
		// The whole fleet sat drained; treat the (single) node the clamp
		// will keep active as the sizing basis.
		active = 1
	}
	if util >= c.spec.DownUtil && util <= c.spec.UpUtil {
		return c.target // inside the deadband: hold
	}
	// Retarget so the active set would have run at TargetUtil: the
	// active-set busy-fraction integral (active x util) is the work the
	// fleet actually did, re-divided across enough nodes to land on
	// target.
	want := clampTarget(ceilTarget(float64(active)*util/c.spec.TargetUtil), c.info.Nodes)
	if want == c.target {
		return c.target
	}
	if c.sinceChange < c.spec.Cooldown {
		return c.target // cooling down from the previous change: hold
	}
	c.target = want
	c.sinceChange = 0
	return c.target
}

// predictiveController forecasts the next epoch's offered rate with the
// menu governor's estimator — the same EWMA-with-last-value-correction
// dynamics, run at fleet granularity over per-epoch offered QPS instead
// of per-core idle durations — and provisions ceil(forecast /
// (TargetUtil x per-node capacity)) nodes. The high bias (PredictHigh)
// is the capacity-planning mirror of the menu governor's low bias:
// under-predicting load costs SLO violations, over-predicting only
// costs idle watts.
type predictiveController struct {
	spec   ControllerSpec
	info   FleetInfo
	pred   *governor.EWMA
	target int
}

// Name implements Controller.
func (c *predictiveController) Name() string { return ControllerPredictive }

// Observe implements Controller.
func (c *predictiveController) Observe(t FleetTelemetry) int {
	c.pred.Observe(t.OfferedQPS)
	forecast := c.pred.PredictHigh()
	perNode := c.spec.TargetUtil * c.info.PerNodeQPS
	if perNode <= 0 {
		return c.target
	}
	c.target = clampTarget(ceilTarget(forecast/perNode), c.info.Nodes)
	return c.target
}

// normalizeController resolves the spec's defaults against the
// scenario's dispatch target and rejects unusable tunings. Called from
// Normalize, so public RunScenario callers and the CLIs get identical
// errors for identical mistakes.
func normalizeController(s ControllerSpec, scenarioTargetUtil float64) (ControllerSpec, error) {
	if !s.enabled() {
		return s, nil
	}
	if s.New == nil {
		switch s.Name {
		case ControllerOracle, ControllerReactive, ControllerPredictive:
		default:
			return s, fmt.Errorf("cluster: unknown controller %q (known: %v)", s.Name, Controllers())
		}
	}
	if s.UpUtil == 0 {
		s.UpUtil = 0.75
	}
	if s.DownUtil == 0 {
		s.DownUtil = 0.40
	}
	if s.TargetUtil == 0 {
		s.TargetUtil = scenarioTargetUtil
	}
	if s.Cooldown == 0 {
		s.Cooldown = 2
	}
	if s.Alpha == 0 {
		s.Alpha = 0.3
	}
	if s.UpUtil <= 0 || s.UpUtil > 1 || s.DownUtil < 0 || s.DownUtil >= s.UpUtil {
		return s, fmt.Errorf("cluster: controller deadband [%g, %g] is not 0 <= down < up <= 1", s.DownUtil, s.UpUtil)
	}
	if s.TargetUtil <= 0 || s.TargetUtil > 1 {
		return s, fmt.Errorf("cluster: controller target utilization %g outside (0, 1]", s.TargetUtil)
	}
	if s.Cooldown < 0 {
		return s, fmt.Errorf("cluster: negative controller cooldown %d", s.Cooldown)
	}
	if s.Alpha <= 0 || s.Alpha > 1 {
		return s, fmt.Errorf("cluster: controller alpha %g outside (0, 1]", s.Alpha)
	}
	return s, nil
}
