// Package server is the discrete-event model of the paper's evaluation
// platform: a 2-socket, 10-core-per-socket (20 logical CPU) Skylake
// server running one latency-critical service. Requests arrive through a
// pluggable load generator (LoadGen), are placed on per-core queues by a
// pluggable dispatch policy (Dispatcher), and execute at the core's
// current frequency; idle cores enter C-states chosen by an OS governor
// and pay entry/exit latencies on wake-up. A Collector turns the run into
// exactly the quantities the paper measures on hardware: per-C-state
// residencies and transition counts, RAPL-style average power, and
// average/tail request latency (server-side and end-to-end).
//
// See DESIGN.md for how the subsystems compose.
package server

import (
	"fmt"

	"repro/internal/cstate"
	"repro/internal/governor"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/turbo"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Config describes one simulation run.
type Config struct {
	// Cores is the number of logical CPUs (paper platform: 20).
	Cores int
	// Catalog supplies C-state parameters (power, latencies).
	Catalog *cstate.Catalog
	// Platform is the named C-state/Turbo configuration under test.
	Platform governor.Config
	// GovernorPolicy selects the idle-selection policy (default menu).
	GovernorPolicy string
	// Profile is the service being run.
	Profile workload.Profile
	// RatePerSec is the aggregate offered load (QPS).
	RatePerSec float64
	// Schedule, when set, makes the offered load time-varying: the
	// open-loop and bursty generators look the rate up per arrival (and
	// per burst window) instead of holding RatePerSec, so one run sweeps
	// through the schedule's phases. The schedule clock is the sim clock
	// (time zero = warmup start); beyond its last phase the schedule
	// holds its final rate. A constant schedule reproduces the stationary
	// RatePerSec run bit-for-bit. Closed-loop load rejects schedules —
	// its rate is an emergent property of connections and think time.
	Schedule *scenario.Schedule
	// Duration is the measured interval; Warmup runs before it.
	Duration sim.Time
	Warmup   sim.Time
	// Seed makes the run reproducible.
	Seed uint64

	// Dispatch selects the request-to-core placement policy (default
	// round-robin, the paper's assumption). See DispatchPolicies.
	Dispatch string
	// PackQueueCap bounds per-core backlog under the packed policy
	// (default 4 outstanding requests).
	PackQueueCap int

	// LoadGen selects the arrival generator (default open-loop, or
	// closed-loop when ClosedLoopConnections > 0). See LoadGens.
	LoadGen string
	// BurstOnTime / BurstOffTime are the mean ON-burst and silent-gap
	// lengths of the bursty generator (defaults 500us / 1.5ms).
	BurstOnTime  sim.Time
	BurstOffTime sim.Time

	// UncoreW is the constant package power outside the cores (two
	// sockets' uncore, calibrated so package power matches Fig. 9(c)).
	UncoreW float64
	// Freq is the platform frequency plan.
	Freq turbo.FreqPlan
	// TurboSustainedW / TurboCapacityJ parameterize the thermal budget.
	TurboSustainedW float64
	TurboCapacityJ  float64
	// FixedFreqHz, when nonzero, pins the non-turbo frequency (used by
	// the Fig. 8(d) scalability experiment).
	FixedFreqHz float64

	// AWFreqLossFraction is the ~1 % frequency degradation the UFPG power
	// gates impose when the platform uses AW states (Sec. 5.1.1).
	AWFreqLossFraction float64

	// SnoopRatePerSec is the per-core rate of incoming snoop requests
	// served while idle (0 disables snoop modeling).
	SnoopRatePerSec float64
	// SnoopServiceTime is the cache-domain active time per snoop.
	SnoopServiceTime sim.Time

	// OSNoisePeriod is the mean gap between per-core background OS
	// wake-ups (timer ticks, kernel housekeeping, NIC interrupts). These
	// are what keep real servers out of deep C-states even at light load
	// (Sec. 2); set to a negative value to disable.
	OSNoisePeriod sim.Time
	// OSNoiseDemand is the CPU demand of one background wake-up.
	OSNoiseDemand sim.Time

	// TraceHook, when set, receives every per-core C-state change
	// (core, time, new state) — the power:cpu_idle trace of this
	// simulator. See internal/trace for a recorder implementation.
	// Excluded from JSON: a hook is per-process state, and results that
	// echo their Config must stay marshalable (the awserved query API
	// serves them).
	TraceHook func(core int, now sim.Time, state cstate.ID) `json:"-"`

	// PkgIdleEnabled turns on the package idle-state model: when every
	// core has been resident in an idle state for PkgEntryDelay, the
	// uncore drops to PkgUncoreLowW until any core wakes. This extends
	// the paper toward its companion direction (AgilePkgC [9]): core
	// C-states alone leave the uncore burning full power.
	PkgIdleEnabled bool
	// PkgEntryDelay is the all-idle hysteresis before the package state
	// engages (legacy package C-states need hundreds of microseconds).
	PkgEntryDelay sim.Time
	// PkgUncoreLowW is the uncore power while the package state holds.
	PkgUncoreLowW float64

	// ClosedLoopConnections switches the load generator from open-loop
	// (Poisson at RatePerSec) to a closed loop of N connections, each
	// issuing its next request ThinkTime after the previous response —
	// the Mutilate agent model. RatePerSec is ignored when > 0.
	ClosedLoopConnections int
	// ThinkTime is the mean exponential think time per connection.
	ThinkTime sim.Time
}

// Defaults fills unset fields with the paper's platform values.
func (c Config) Defaults() Config {
	if c.Cores == 0 {
		c.Cores = 20
	}
	if c.Catalog == nil {
		c.Catalog = cstate.Skylake()
	}
	if c.GovernorPolicy == "" {
		c.GovernorPolicy = governor.PolicyMenu
	}
	if c.Dispatch == "" {
		c.Dispatch = DispatchRoundRobin
	}
	if c.PackQueueCap == 0 {
		c.PackQueueCap = defaultPackQueueCap
	}
	if c.LoadGen == "" {
		if c.ClosedLoopConnections > 0 {
			c.LoadGen = LoadClosedLoop
		} else {
			c.LoadGen = LoadOpenLoop
		}
	}
	if c.BurstOnTime == 0 {
		c.BurstOnTime = 500 * sim.Microsecond
	}
	if c.BurstOffTime == 0 {
		c.BurstOffTime = 1500 * sim.Microsecond
	}
	if c.Duration == 0 {
		c.Duration = 500 * sim.Millisecond
	}
	if c.Warmup == 0 {
		c.Warmup = 50 * sim.Millisecond
	}
	if c.UncoreW == 0 {
		c.UncoreW = 30 // two sockets' uncore
	}
	if c.Freq == (turbo.FreqPlan{}) {
		c.Freq = turbo.Xeon4114()
	}
	if c.TurboSustainedW == 0 {
		// Chosen between the high-load package power of a C1-parked
		// configuration (~73 W) and a C1E-parked one (~65 W), so that
		// high idle power starves Turbo of thermal headroom (Sec. 7.3).
		c.TurboSustainedW = 68
	}
	if c.TurboCapacityJ == 0 {
		// Small enough that sustained over-budget operation exhausts it
		// within a measurement window (real turbo time constants are
		// seconds; windows here are hundreds of milliseconds).
		c.TurboCapacityJ = 0.5
	}
	if c.AWFreqLossFraction == 0 {
		c.AWFreqLossFraction = 0.01
	}
	if c.SnoopServiceTime == 0 {
		c.SnoopServiceTime = sim.Microsecond
	}
	if c.OSNoisePeriod == 0 {
		c.OSNoisePeriod = sim.Millisecond
	}
	if c.OSNoiseDemand == 0 {
		c.OSNoiseDemand = 2 * sim.Microsecond
	}
	if c.PkgEntryDelay == 0 {
		c.PkgEntryDelay = 100 * sim.Microsecond
	}
	if c.ClosedLoopConnections > 0 && c.ThinkTime == 0 {
		c.ThinkTime = sim.Millisecond
	}
	if c.PkgUncoreLowW == 0 {
		c.PkgUncoreLowW = 12
	}
	return c
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("server: cores = %d", c.Cores)
	}
	if err := c.Platform.Validate(); err != nil {
		return err
	}
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if c.RatePerSec < 0 {
		return fmt.Errorf("server: negative rate")
	}
	if c.Schedule != nil && (c.LoadGen == LoadClosedLoop || c.ClosedLoopConnections > 0) {
		return fmt.Errorf("server: closed-loop load cannot follow a rate schedule")
	}
	return c.Freq.Validate()
}

// LatencySummary condenses a latency distribution (microseconds).
type LatencySummary struct {
	Count         uint64
	AvgUS, P50US  float64
	P95US, P99US  float64
	P999US, MaxUS float64
}

// BreakdownSummary decomposes server-side latency (all microseconds):
// Wake is the C-state exit penalty paid by requests that found their
// core idle; Queue is time spent waiting behind other requests; Service
// is execution time. Wake+Queue+Service ≈ Server latency.
type BreakdownSummary struct {
	Wake    LatencySummary
	Queue   LatencySummary
	Service LatencySummary
}

func summarize(h *stats.Histogram) LatencySummary {
	q := h.Quantiles(0.50, 0.95, 0.99, 0.999)
	return LatencySummary{
		Count: h.Count(),
		AvgUS: h.Mean(), P50US: q[0],
		P95US: q[1], P99US: q[2],
		P999US: q[3], MaxUS: h.Max(),
	}
}

// Result aggregates one run's measurements over the measured interval.
type Result struct {
	Config Config

	// Residency is the core-time fraction in each C-state.
	Residency [cstate.NumStates]float64
	// TransitionsPerSec is the per-second rate of entries into each
	// state, aggregated over all cores.
	TransitionsPerSec [cstate.NumStates]float64

	// AvgCorePowerW is the mean per-core power (cores only).
	AvgCorePowerW float64
	// PackagePowerW = cores + uncore.
	PackagePowerW float64
	// EnergyJ is total core energy over the measured window.
	EnergyJ float64

	// Server and EndToEnd latency summaries; end-to-end adds network RTT.
	Server   LatencySummary
	EndToEnd LatencySummary

	// Breakdown decomposes server-side latency into its components.
	Breakdown BreakdownSummary

	// CompletedPerSec is the achieved throughput.
	CompletedPerSec float64
	// TurboFraction is the share of busy time spent at Turbo frequency.
	TurboFraction float64
	// MeasuredDuration is the length of the measured window.
	MeasuredDuration sim.Time

	// UncoreAvgW is the average uncore power (constant UncoreW unless
	// the package idle-state model is enabled).
	UncoreAvgW float64
	// PkgIdleFraction is the share of the window the package idle state
	// held (0 unless PkgIdleEnabled).
	PkgIdleFraction float64
	// SnoopsServed counts coherence requests serviced by idle cores over
	// the whole run (0 unless SnoopRatePerSec > 0).
	SnoopsServed uint64

	// MaxQueueDepth is the largest per-core backlog (queued + executing)
	// observed at any dispatch during the window — the imbalance signal
	// that separates the dispatch policies.
	MaxQueueDepth int

	// PerCore carries per-CPU measurements (round-robin dispatch keeps
	// them nearly uniform; skew indicates a modeling or policy change,
	// and is the whole point of the packed policy).
	PerCore []CoreStats
}

// CoreStats is one logical CPU's measurement over the window.
type CoreStats struct {
	Core      int
	Residency [cstate.NumStates]float64
	AvgPowerW float64
}

type request struct {
	arrival sim.Time
	demand  sim.Time // at reference frequency
	// background marks OS-noise work, excluded from latency/throughput.
	background bool
	// wake is the wake-up latency attributed to this request (the head
	// request that found the core idle pays the exit flow).
	wake sim.Time
	// conn is the closed-loop connection index (-1 for open loop).
	conn int
}

// reqRing is a growable power-of-two circular FIFO of requests. Requests
// live in the ring by value, so the steady-state request flow — enqueue
// at dispatch, dequeue at service start — recycles the same backing
// storage forever: the ring is the per-core request freelist, and after
// warmup the hot path performs no request allocation at all.
type reqRing struct {
	buf  []request
	head uint32 // free-running; position = head & (len(buf)-1)
	tail uint32
}

func (r *reqRing) len() int { return int(r.tail - r.head) }

func (r *reqRing) push(req request) {
	if int(r.tail-r.head) == len(r.buf) {
		r.grow()
	}
	r.buf[r.tail&uint32(len(r.buf)-1)] = req
	r.tail++
}

// front returns the oldest queued request in place (for wake attribution).
func (r *reqRing) front() *request {
	return &r.buf[r.head&uint32(len(r.buf)-1)]
}

func (r *reqRing) pop() request {
	i := r.head & uint32(len(r.buf)-1)
	req := r.buf[i]
	r.buf[i] = request{}
	r.head++
	return req
}

// grow doubles the ring, unwrapping the live window to the front.
func (r *reqRing) grow() {
	n := len(r.buf)
	if n == 0 {
		r.buf = make([]request, 8)
		r.head, r.tail = 0, 0
		return
	}
	grown := make([]request, 2*n)
	count := int(r.tail - r.head)
	for i := 0; i < count; i++ {
		grown[i] = r.buf[(r.head+uint32(i))&uint32(n-1)]
	}
	r.buf = grown
	r.head, r.tail = 0, uint32(count)
}

type coreRuntime struct {
	idx     int
	machine *cstate.Machine
	gov     governor.Governor
	meter   *stats.EnergyMeter
	queue   reqRing
	// cur is the request in execution (valid while busy); completion
	// events carry only the core index, so the in-flight request never
	// escapes to the heap.
	cur  request
	busy bool
	// idleStart is when the core last became idle (for governor feedback).
	idleStart sim.Time
	// curPowerW is the core's current draw, mirrored into the package
	// total for turbo-budget accounting.
	curPowerW float64
	// busyAtTurbo accumulates busy time at turbo frequency.
	busyTime, turboBusyTime sim.Time
	// lastTraced deduplicates TraceHook callbacks.
	lastTraced cstate.ID
	// snoopGen invalidates in-flight snoop-service timers when the core
	// leaves its idle episode.
	snoopGen uint64
	// noiseRng / snoopRng drive this core's background processes.
	noiseRng *xrand.Rand
	snoopRng *xrand.Rand
}

// Sim is a fully constructed simulation run: the core/C-state model plus
// three pluggable subsystems — load generation (gen), request placement
// (disp), and measurement (col).
type Sim struct {
	cfg     Config
	eng     *sim.Engine
	cores   []*coreRuntime
	arrRand *xrand.Rand
	svcRand *xrand.Rand
	netRand *xrand.Rand
	budget  *turbo.Budget
	cpower  *turbo.CorePower

	gen  LoadGen
	disp Dispatcher
	col  *Collector

	// Instance-mode state (see instance.go). A resumable Instance drives
	// the offered load as a piecewise-constant rate that changes only at
	// RunInterval boundaries: instRate is the current interval's rate and
	// arrEvent the pending open-loop arrival (tracked so a rate change
	// can cancel and redraw it). parked marks a quiesced zero-load
	// window: OS-noise injection is suppressed, idle selection goes
	// straight to the deepest menu state, and the package idle model is
	// armed regardless of Config.PkgIdleEnabled (pkgIdleOn). One-shot
	// runs never set instMode, so their paths are untouched.
	instMode bool
	instRate float64
	parked   bool
	arrEvent *sim.Event
	// pkgIdleOn gates the package idle-state model (Config.PkgIdleEnabled
	// outside parked windows).
	pkgIdleOn bool
	// deepest is the deepest state in the platform menu (C0 when empty) —
	// what a fleet manager quiescing the node sends every core to.
	deepest cstate.ID

	totalPwr float64

	// snoopsServed counts snoops serviced by idle cores.
	snoopsServed uint64

	// Package idle-state model.
	idleCores    int
	pkgActive    bool
	pkgEvent     *sim.Event
	pkgIdleStart sim.Time
	pkgIdleTotal sim.Time
	uncoreMeter  *stats.EnergyMeter

	// Typed event kinds (see newKinds): the per-event hot path schedules
	// (kind, core, extra) tuples instead of closures.
	kEntryDone   sim.Kind
	kExitDone    sim.Kind
	kComplete    sim.Kind
	kSnoopRet    sim.Kind
	kSnoopNext   sim.Kind
	kNoise       sim.Kind
	kPkgIdle     sim.Kind
	kArrival     sim.Kind // open-loop next arrival
	kConn        sim.Kind // closed-loop connection dispatch (a0 = conn)
	kBurst       sim.Kind // bursty ON-window start
	kBurstArrive sim.Kind // bursty arrival (a0 = window end)

	// Precomputed hot-path constants. All are exactly the values the
	// unoptimized model recomputed per event (same expressions, same
	// inputs), hoisted to construction time so the event loop runs free
	// of math.Pow/table lookups.
	baseFreqHz   float64
	turboFreqHz  float64
	pwrActive    float64 // AtFreq(baseFreq)
	pwrTurbo     float64 // AtFreq(turbo serviceFreq)
	spBase       float64 // Speedup(scalability, refFreq, baseFreq)
	spTurbo      float64 // Speedup(scalability, refFreq, turboFreq)
	snoopGapMean float64 // 1e9 / SnoopRatePerSec
	idlePowerW   [cstate.NumStates]float64
	snoopPowerW  [cstate.NumStates]float64
	exitPowerW   [cstate.NumStates]float64
	swExitNS     [cstate.NumStates]sim.Time
	snoopCohere  [cstate.NumStates]bool

	// Fault-injection state, set between intervals through
	// Instance.SetServiceInflation / Instance.SetTurboCap. The zero
	// values mean "healthy" and every hot-path guard tests them first,
	// so a fault-free run is byte-identical to one that predates the
	// fields.
	inflate   float64 // straggler service-time multiplier; <= 1 means none
	throttled bool    // thermal throttle: turbo ceiling capped
	capFrac   float64 // throttle ceiling fraction (snapshot replay needs it)
	thrFreqHz float64 // throttled turbo frequency
	pwrThr    float64 // AtFreq(thrFreqHz)
	spThr     float64 // Speedup(scalability, refFreq, thrFreqHz)
}

// uncorePower returns the current uncore draw.
func (s *Sim) uncorePower() float64 {
	if s.pkgActive {
		return s.cfg.PkgUncoreLowW
	}
	return s.cfg.UncoreW
}

// coreBecameIdle is called when a core reaches PhaseIdle residency.
func (s *Sim) coreBecameIdle(now sim.Time) {
	s.idleCores++
	if !s.pkgIdleOn || s.idleCores < len(s.cores) || s.pkgActive || s.pkgEvent != nil {
		return
	}
	s.pkgEvent = s.eng.ScheduleKind(s.cfg.PkgEntryDelay, s.kPkgIdle, 0, 0)
}

// coreLeftIdle is called when an idle core starts waking.
func (s *Sim) coreLeftIdle(now sim.Time) {
	s.idleCores--
	if s.pkgEvent != nil {
		s.eng.Cancel(s.pkgEvent)
		s.pkgEvent = nil
	}
	if s.pkgActive {
		s.pkgActive = false
		s.pkgIdleTotal += now - s.pkgIdleStart
		s.uncoreMeter.SetPower(int64(now), s.cfg.UncoreW)
	}
}

// coreResidencySnapshot returns one core's cumulative per-state
// residency (ns) as of time at, attributing the open interval to the
// current state.
func coreResidencySnapshot(c *coreRuntime, at sim.Time) [cstate.NumStates]float64 {
	var out [cstate.NumStates]float64
	r := c.machine.Residency()
	for id := 0; id < int(cstate.NumStates); id++ {
		out[id] = float64(r.TimeIn(id))
	}
	out[r.Current()] += float64(int64(at) - r.Total())
	return out
}

// residencySnapshot returns cumulative per-state residency (ns) across
// all cores as of time at.
func (s *Sim) residencySnapshot(at sim.Time) [cstate.NumStates]float64 {
	var out [cstate.NumStates]float64
	for _, c := range s.cores {
		one := coreResidencySnapshot(c, at)
		for id := range out {
			out[id] += one[id]
		}
	}
	return out
}

// New constructs a simulation from the config (after applying defaults).
func New(cfg Config) (*Sim, error) { return newSim(cfg, false) }

// newSim is the shared constructor behind New (one-shot runs) and
// NewInstance (resumable interval runs, inst true).
func newSim(cfg Config, inst bool) (*Sim, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Stateful arrival processes (e.g. the MMPP2 Kafka stream) are copied
	// per run so concurrent or repeated runs never share mutable state.
	if ca, ok := cfg.Profile.Arrivals.(workload.CloneableArrival); ok {
		cfg.Profile.Arrivals = ca.CloneArrival()
	}
	s := &Sim{
		cfg:     cfg,
		eng:     sim.NewEngine(),
		arrRand: xrand.NewStream(cfg.Seed, "arrivals/"+cfg.Profile.Name),
		svcRand: xrand.NewStream(cfg.Seed, "service/"+cfg.Profile.Name),
		netRand: xrand.NewStream(cfg.Seed, "network/"+cfg.Profile.Name),
		budget:  turbo.NewBudget(cfg.TurboSustainedW, cfg.TurboCapacityJ),
		cpower:  turbo.NewCorePower(cfg.Freq),
		col:     newCollector(),
	}
	s.instMode = inst
	s.pkgIdleOn = cfg.PkgIdleEnabled
	s.deepest, _ = cfg.Catalog.DeepestByResidency(cfg.Platform.Menu, sim.MaxTime)
	gen, err := newLoadGen(cfg, inst)
	if err != nil {
		return nil, err
	}
	s.gen = gen
	disp, err := newDispatcher(cfg.Dispatch, cfg.PackQueueCap,
		xrand.NewStream(cfg.Seed, "dispatch/"+cfg.Profile.Name))
	if err != nil {
		return nil, err
	}
	s.disp = disp
	s.uncoreMeter = stats.NewEnergyMeter(0, cfg.UncoreW)
	s.precompute()
	s.newKinds()
	for i := 0; i < cfg.Cores; i++ {
		gov, err := governor.New(cfg.GovernorPolicy, cfg.Catalog)
		if err != nil {
			return nil, err
		}
		c := &coreRuntime{
			idx:     i,
			machine: cstate.NewMachine(cfg.Catalog, 0),
			gov:     gov,
			meter:   stats.NewEnergyMeter(0, 0),
		}
		s.cores = append(s.cores, c)
		if cfg.TraceHook != nil {
			cfg.TraceHook(i, 0, cstate.C0)
		}
		// Cores start idle: enter a C-state immediately.
		s.enterIdle(c, 0)
	}
	return s, nil
}

// precompute hoists the per-event constants out of the hot path. Every
// value is produced by exactly the expression the per-event code used to
// evaluate, so results are bit-for-bit unchanged.
func (s *Sim) precompute() {
	s.baseFreqHz = s.baseFreq()
	f := s.cfg.Freq.TurboHz
	if s.cfg.Platform.AgileWatts {
		f *= 1 - s.cfg.AWFreqLossFraction
	}
	s.turboFreqHz = f
	s.pwrActive = s.cpower.AtFreq(s.baseFreqHz)
	s.pwrTurbo = s.cpower.AtFreq(s.turboFreqHz)
	s.spBase = turbo.Speedup(s.cfg.Profile.FreqScalability, s.cfg.Profile.RefFreqHz, s.baseFreqHz)
	s.spTurbo = turbo.Speedup(s.cfg.Profile.FreqScalability, s.cfg.Profile.RefFreqHz, s.turboFreqHz)
	if s.cfg.SnoopRatePerSec > 0 {
		s.snoopGapMean = 1e9 / s.cfg.SnoopRatePerSec
	}
	pwrMin := s.cpower.AtFreq(s.cfg.Freq.MinHz)
	for id := cstate.ID(0); id < cstate.NumStates; id++ {
		p := s.cfg.Catalog.Params(id)
		s.idlePowerW[id] = p.PowerWatts
		s.snoopPowerW[id] = p.SnoopPowerWatts
		s.snoopCohere[id] = cstate.ComponentsOf(id).Caches == cstate.CacheCoherent
		if sw := p.TransitionTime - p.HWEntryLatency - p.HWExitLatency; sw > 0 {
			s.swExitNS[id] = sw
		}
		if p.PStateOnEntry == cstate.Pn {
			s.exitPowerW[id] = pwrMin
		} else {
			s.exitPowerW[id] = s.pwrActive
		}
	}
}

// newKinds registers the typed event handlers — the devirtualized
// replacements for the per-event closures the model used to allocate.
// Each handler is one closure over the Sim, created once per run;
// payload word a0 is the core index, a1 the handler-specific extra.
func (s *Sim) newKinds() {
	eng := s.eng
	s.kEntryDone = eng.RegisterKind(func(now sim.Time, a0, _ uint64) {
		s.entryDone(s.cores[a0], now)
	})
	s.kExitDone = eng.RegisterKind(func(now sim.Time, a0, _ uint64) {
		s.exitDone(s.cores[a0], now)
	})
	s.kComplete = eng.RegisterKind(func(now sim.Time, a0, _ uint64) {
		s.complete(s.cores[a0], now)
	})
	s.kSnoopRet = eng.RegisterKind(func(now sim.Time, a0, gen uint64) {
		// Return to sleep power only if the core is still resident in
		// the same idle episode.
		c := s.cores[a0]
		if c.snoopGen == gen && c.machine.Phase() == cstate.PhaseIdle {
			s.setCorePower(c, now, s.idlePowerW[c.machine.State()])
		}
	})
	s.kSnoopNext = eng.RegisterKind(func(now sim.Time, a0, _ uint64) {
		s.snoopArrive(s.cores[a0], now)
	})
	s.kNoise = eng.RegisterKind(func(now sim.Time, a0, _ uint64) {
		s.noise(s.cores[a0], now)
	})
	s.kPkgIdle = eng.RegisterKind(func(now sim.Time, _, _ uint64) {
		s.pkgEvent = nil
		if s.idleCores == len(s.cores) && !s.pkgActive {
			s.pkgActive = true
			s.pkgIdleStart = now
			s.uncoreMeter.SetPower(int64(now), s.cfg.PkgUncoreLowW)
		}
	})
	s.gen.register(s)
}

// traceSwitch reports a residency change to the trace hook, suppressing
// duplicates.
func (s *Sim) traceSwitch(c *coreRuntime, now sim.Time, st cstate.ID) {
	if s.cfg.TraceHook == nil || c.lastTraced == st {
		return
	}
	c.lastTraced = st
	s.cfg.TraceHook(c.idx, now, st)
}

// baseFreq returns the core's non-turbo operating frequency.
func (s *Sim) baseFreq() float64 {
	f := s.cfg.Freq.BaseHz
	if s.cfg.FixedFreqHz > 0 {
		f = s.cfg.FixedFreqHz
	}
	if s.cfg.Platform.AgileWatts {
		f *= 1 - s.cfg.AWFreqLossFraction
	}
	return f
}

// serviceFreq decides the frequency for a service slice starting now,
// returning the precomputed active power and speedup factor alongside.
func (s *Sim) serviceFreq() (freqHz, powerW, speedup float64) {
	if s.cfg.Platform.Turbo && s.budget.BoostAllowed() {
		if s.throttled {
			return s.thrFreqHz, s.pwrThr, s.spThr
		}
		return s.turboFreqHz, s.pwrTurbo, s.spTurbo
	}
	return s.baseFreqHz, s.pwrActive, s.spBase
}

// setThrottle installs (or clears) a thermal turbo cap: capFrac in
// [0, 1) places the boost ceiling at base + capFrac·(turbo - base), so
// capFrac 0 pins boosted slices to base frequency and capFrac → 1
// approaches the healthy ceiling. The throttled triple is derived by
// the same AtFreq/Speedup expressions precompute uses for the healthy
// constants, just at the capped frequency.
func (s *Sim) setThrottle(on bool, capFrac float64) {
	s.throttled = on
	s.capFrac = capFrac
	if !on {
		s.capFrac, s.thrFreqHz, s.pwrThr, s.spThr = 0, 0, 0, 0
		return
	}
	f := s.baseFreqHz + capFrac*(s.turboFreqHz-s.baseFreqHz)
	s.thrFreqHz = f
	s.pwrThr = s.cpower.AtFreq(f)
	s.spThr = turbo.Speedup(s.cfg.Profile.FreqScalability, s.cfg.Profile.RefFreqHz, f)
}

// setCorePower accounts a power change on core c at time now, updating
// the turbo budget with the package power that applied until now.
func (s *Sim) setCorePower(c *coreRuntime, now sim.Time, watts float64) {
	s.budget.Update(int64(now), s.totalPwr+s.uncorePower())
	s.totalPwr += watts - c.curPowerW
	c.curPowerW = watts
	c.meter.SetPower(int64(now), watts)
}

// snoopArrive models one coherence request hitting core c (Sec. 4.2):
// if the core is resident in a cache-coherent idle state, the CCSM wakes
// the cache domain for SnoopServiceTime at the state's snoop power, then
// returns it to sleep. Cores in C6 flushed their caches — the snoop is
// answered by the uncore snoop filter at no core cost. Active cores
// serve snoops within their normal operation.
func (s *Sim) snoopArrive(c *coreRuntime, now sim.Time) {
	if c.machine.Phase() == cstate.PhaseIdle {
		st := c.machine.State()
		if s.snoopCohere[st] {
			s.snoopsServed++
			s.setCorePower(c, now, s.snoopPowerW[st])
			s.eng.ScheduleKind(s.cfg.SnoopServiceTime, s.kSnoopRet, uint64(c.idx), c.snoopGen)
		}
	}
	gap := sim.Time(c.snoopRng.Exp(s.snoopGapMean))
	if gap < 1 {
		gap = 1
	}
	s.eng.ScheduleKind(gap, s.kSnoopNext, uint64(c.idx), 0)
}

// enterIdle runs the governor and starts the entry flow on core c. On a
// parked node the governor is bypassed: a fleet manager draining a node
// sends its cores to the deepest enabled state outright (the menu
// governor's short cold-start prediction would otherwise strand
// never-woken cores in C1 for the whole parked window).
func (s *Sim) enterIdle(c *coreRuntime, now sim.Time) {
	c.idleStart = now
	var id cstate.ID
	if s.parked {
		id = s.deepest
	} else {
		id = c.gov.Select(now, s.cfg.Platform.Menu)
	}
	if id == cstate.C0 {
		// Empty menu: the core polls in C0 at active power.
		s.setCorePower(c, now, s.pwrActive)
		return
	}
	entry := c.machine.Enter(id, now)
	// Entry flows burn roughly active power.
	s.setCorePower(c, now, s.pwrActive)
	s.eng.ScheduleKind(entry, s.kEntryDone, uint64(c.idx), 0)
}

func (s *Sim) entryDone(c *coreRuntime, now sim.Time) {
	mustExit, exitLat := c.machine.EntryComplete(now)
	s.traceSwitch(c, now, c.machine.State())
	if mustExit {
		// An arrival landed during entry; the wake penalty also includes
		// the software exit path.
		st := c.machine.State()
		s.setCorePower(c, now, s.exitPowerW[st])
		penalty := exitLat + s.swExitNS[st]
		if c.queue.len() > 0 {
			c.queue.front().wake = penalty
		}
		s.eng.ScheduleKind(penalty, s.kExitDone, uint64(c.idx), 0)
		return
	}
	s.setCorePower(c, now, s.idlePowerW[c.machine.State()])
	s.coreBecameIdle(now)
}

// wake is called when work arrives at an idle core. The exit power and
// software exit overhead come from the per-state tables precompute
// filled: states that idle at the Pn operating point (C1E/C6AE) execute
// their exit path — IRQ entry, scheduler, DVFS ramp — at the minimum
// frequency's active power (~1 W), while P1 states exit at full active
// power; the software share is Table 1's worst case minus the hardware
// entry+exit flows.
func (s *Sim) wake(c *coreRuntime, now sim.Time) {
	switch c.machine.Phase() {
	case cstate.PhaseIdle:
		state := c.machine.State()
		c.gov.Observe(now - c.idleStart)
		exitLat, _ := c.machine.Wake(now)
		c.snoopGen++
		s.coreLeftIdle(now)
		s.traceSwitch(c, now, cstate.C0)
		s.setCorePower(c, now, s.exitPowerW[state])
		penalty := exitLat + s.swExitNS[state]
		if c.queue.len() > 0 {
			c.queue.front().wake = penalty
		}
		s.eng.ScheduleKind(penalty, s.kExitDone, uint64(c.idx), 0)
	case cstate.PhaseEntering:
		c.gov.Observe(now - c.idleStart)
		c.machine.Wake(now) // deferred until entryDone
	case cstate.PhaseExiting:
		// Already waking; the queued request will start at exitDone.
	case cstate.PhaseActive:
		// Polling in C0 (empty menu): start immediately.
		if !c.busy {
			s.startNext(c, now)
		}
	}
}

func (s *Sim) exitDone(c *coreRuntime, now sim.Time) {
	c.machine.ExitComplete(now)
	s.traceSwitch(c, now, cstate.C0)
	if c.queue.len() > 0 {
		s.startNext(c, now)
		return
	}
	// Spurious wake (e.g. request was handled elsewhere — not expected in
	// this model, but keep the machine consistent).
	s.enterIdle(c, now)
}

func (s *Sim) startNext(c *coreRuntime, now sim.Time) {
	req := c.queue.pop()
	c.cur = req
	c.busy = true
	freq, pwr, sp := s.serviceFreq()
	dur := sim.Time(float64(req.demand) / sp)
	if dur < 1 {
		dur = 1
	}
	s.setCorePower(c, now, pwr)
	if s.col.measuring {
		c.busyTime += dur
		if freq > s.baseFreqHz+1 {
			c.turboBusyTime += dur
		}
		if !req.background {
			s.col.noteStart(req, now, dur)
		}
	}
	s.eng.ScheduleKind(dur, s.kComplete, uint64(c.idx), 0)
}

func (s *Sim) complete(c *coreRuntime, now sim.Time) {
	req := c.cur
	c.busy = false
	if s.col.measuring && !req.background {
		s.col.noteComplete(req, now, s.cfg.Profile.SampleNetwork(s.netRand))
	}
	if req.conn >= 0 {
		s.gen.OnComplete(s, req.conn, now)
	}
	if c.queue.len() > 0 {
		s.startNext(c, now)
		return
	}
	s.enterIdle(c, now)
}

// dispatch places one request on a core chosen by the dispatch policy.
func (s *Sim) dispatch(now sim.Time, conn int) {
	c := s.cores[s.disp.Pick(now, s.cores)]
	demand := s.cfg.Profile.Service.Sample(s.svcRand)
	if s.inflate > 1 {
		// Straggler fault: this node grinds through the same request
		// stream with inflated service demands. The sample is drawn
		// first so the RNG stream stays aligned with the healthy run.
		demand = sim.Time(float64(demand) * s.inflate)
	}
	c.queue.push(request{arrival: now, demand: demand, conn: conn})
	s.col.noteDispatch(c)
	if !c.busy {
		s.wake(c, now)
	}
}

// noise injects one background OS wake-up on core c and reschedules.
// While the node is parked the timer keeps ticking but injects nothing —
// a quiesced, tickless node — so un-parking resumes housekeeping at the
// next tick without re-seeding the timer chain.
func (s *Sim) noise(c *coreRuntime, now sim.Time) {
	if !s.parked {
		c.queue.push(request{arrival: now, demand: s.cfg.OSNoiseDemand, background: true, conn: -1})
		if !c.busy {
			s.wake(c, now)
		}
	}
	gap := sim.Time(c.noiseRng.Exp(float64(s.cfg.OSNoisePeriod)))
	if gap < sim.Microsecond {
		gap = sim.Microsecond
	}
	s.eng.ScheduleKind(gap, s.kNoise, uint64(c.idx), 0)
}

// startBackground seeds the per-core background processes (OS noise,
// snoop traffic) at time zero — shared by Run and Instance startup.
func (s *Sim) startBackground() {
	if s.cfg.OSNoisePeriod > 0 {
		for i, c := range s.cores {
			c.noiseRng = xrand.NewStream(s.cfg.Seed, fmt.Sprintf("osnoise/%d", i))
			first := sim.Time(c.noiseRng.Exp(float64(s.cfg.OSNoisePeriod)))
			s.eng.ScheduleKindAt(first+1, s.kNoise, uint64(c.idx), 0)
		}
	}
	if s.cfg.SnoopRatePerSec > 0 {
		for i, c := range s.cores {
			c.snoopRng = xrand.NewStream(s.cfg.Seed, fmt.Sprintf("snoop/%d", i))
			first := sim.Time(c.snoopRng.Exp(1e9/s.cfg.SnoopRatePerSec)) + 1
			s.eng.ScheduleKindAt(first, s.kSnoopNext, uint64(c.idx), 0)
		}
	}
}

// park quiesces the node for a zero-load window: idle selection switches
// to the deepest menu state, OS-noise injection is suppressed, and the
// package idle model is armed. Cores already idling in a shallower state
// are nudged through a tiny background quiesce task — the model of the
// fleet manager's drain IPI — so they pay the real exit+entry flows on
// their way down to deep idle; busy cores drain in-flight requests first
// and fall into the deepest state via enterIdle.
func (s *Sim) park(now sim.Time) {
	s.parked = true
	s.pkgIdleOn = true
	if s.deepest == cstate.C0 {
		return // empty menu: cores poll in C0, there is nothing deeper
	}
	for _, c := range s.cores {
		if c.busy || c.queue.len() > 0 {
			continue // drains into the deepest state via enterIdle
		}
		ph := c.machine.Phase()
		if (ph == cstate.PhaseIdle || ph == cstate.PhaseEntering) && c.machine.State() != s.deepest {
			c.queue.push(request{arrival: now, demand: 1, background: true, conn: -1})
			s.wake(c, now)
		}
	}
	// Package-idle arming is edge-triggered (coreBecameIdle); if every
	// core already sits in the deepest state at the park boundary, no
	// core will transition during the quiesced window, so arm the entry
	// timer here.
	if s.idleCores == len(s.cores) && !s.pkgActive && s.pkgEvent == nil {
		s.pkgEvent = s.eng.ScheduleKind(s.cfg.PkgEntryDelay, s.kPkgIdle, 0, 0)
	}
}

// unpark ends a parked window: idle selection returns to the governor
// and the package idle model reverts to its configured setting. Cores
// stay resident in deep idle until load arrives — the first post-unpark
// request pays the deepest state's measured exit latency: the unpark's
// cost is simulated, not priced.
func (s *Sim) unpark(now sim.Time) {
	s.parked = false
	s.pkgIdleOn = s.cfg.PkgIdleEnabled
	if !s.pkgIdleOn && s.pkgEvent != nil {
		s.eng.Cancel(s.pkgEvent)
		s.pkgEvent = nil
	}
}

// setIntervalRate installs the next interval's offered rate (instance
// mode). An unchanged rate touches nothing, so splitting an interval is
// event-for-event free; a changed rate cancels the pending open-loop
// arrival (drawn at the old rate) and redraws from now — the standard
// memoryless piecewise-constant construction, mirroring how the schedule
// path censors and redraws at phase boundaries. The bursty generator
// re-derives its burst rate at each ON-window start and the closed loop
// has no offered rate, so neither needs re-arming.
func (s *Sim) setIntervalRate(now sim.Time, rate float64) {
	if rate == s.instRate {
		return
	}
	s.instRate = rate
	if s.gen.Name() != LoadOpenLoop {
		return
	}
	if s.arrEvent != nil {
		s.eng.Cancel(s.arrEvent)
		s.arrEvent = nil
	}
	s.openLoopNext(now)
}

// Run executes the configured warmup + measurement and returns results.
func (s *Sim) Run() Result {
	s.gen.Start(s)
	s.startBackground()
	// Warmup.
	s.eng.RunUntil(s.cfg.Warmup)
	s.eng.AdvanceTo(s.cfg.Warmup)
	s.col.begin(s)
	end := s.cfg.Warmup + s.cfg.Duration
	s.eng.RunUntil(end)
	return s.col.collect(s, end)
}

// RunConfig is the package-level convenience: construct and run.
func RunConfig(cfg Config) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run(), nil
}
