// Package runner is the shared sweep executor behind every experiment:
// it runs server simulations with bounded parallelism and memoizes
// results, so overlapping sweeps (Fig. 8, Fig. 10, Table 5 and the
// proportionality study all simulate the Baseline Memcached curve) cost
// one simulation instead of four.
//
// Memoization is sound because a simulation is a pure function of its
// Config: all randomness derives from Config.Seed, and Key only reports a
// config cacheable when every behavioral input is captured by value
// (profiles backed by live mutable state, custom catalogs, and trace
// hooks are executed uncached). Cached Results are shared between
// callers, so experiments must treat them as read-only — which they do,
// being pure renderers.
package runner

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/governor"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/turbo"
)

// cacheShards is the number of independently locked cache segments. The
// memoization map doubles as the single-flight registry, so under
// parallel fleet fan-out every node lookup used to serialize on one
// mutex; FNV-sharding the key space makes concurrent lookups of
// different configs contention-free. A power of two keeps the shard
// pick a mask instead of a modulo.
const cacheShards = 16

// cacheShard is one lock + map segment of a shardedCache.
type cacheShard[V any] struct {
	mu    sync.Mutex
	cache map[string]*flight[V]
	// Pad the 16-byte mutex+map pair to a full 64-byte cache line so
	// per-shard mutexes do not false-share under fan-out.
	_ [48]byte
}

// flight is one single-flight cache slot: the first requester executes,
// duplicates block on the Once and share the outcome.
type flight[V any] struct {
	once sync.Once
	val  V
	err  error
}

// shardedCache is the memoization + single-flight machinery shared by
// Run (server.Result values) and RunTimeline ([]server.IntervalResult
// values): an FNV-sharded map of Once-guarded slots, so concurrent
// lookups of different keys never contend on one mutex and identical
// keys execute exactly once.
type shardedCache[V any] struct {
	shards [cacheShards]cacheShard[V]
}

func newShardedCache[V any]() *shardedCache[V] {
	c := &shardedCache[V]{}
	for i := range c.shards {
		c.shards[i].cache = make(map[string]*flight[V])
	}
	return c
}

// do returns the memoized value for key, executing fn exactly once per
// key; hit reports whether a slot already existed.
func (c *shardedCache[V]) do(key string, fn func() (V, error)) (v V, err error, hit bool) {
	s := &c.shards[shardIndex(key)]
	s.mu.Lock()
	e, hit := s.cache[key]
	if !hit {
		e = &flight[V]{}
		s.cache[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.val, e.err = fn() })
	return e.val, e.err, hit
}

// Runner executes simulations with bounded parallelism and memoization.
// The zero value is not usable; construct with New.
type Runner struct {
	sem chan struct{}

	cache  *shardedCache[server.Result]
	tcache *shardedCache[[]server.IntervalResult]

	hits, misses atomic.Uint64

	// Class-dedup accounting, fed by the cluster layer's class-collapsed
	// scenario path (see NoteClassDedup): fleet node timelines requested,
	// equivalence classes actually simulated, and extra seeded replica
	// timelines run for error bars.
	classNodes    atomic.Uint64
	classClasses  atomic.Uint64
	classReplicas atomic.Uint64
}

// note counts one cache outcome into Stats.
func (r *Runner) note(hit bool) {
	if hit {
		r.hits.Add(1)
	} else {
		r.misses.Add(1)
	}
}

// New returns a Runner bounding concurrent simulations to parallelism
// (GOMAXPROCS when <= 0).
func New(parallelism int) *Runner {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		sem:    make(chan struct{}, parallelism),
		cache:  newShardedCache[server.Result](),
		tcache: newShardedCache[[]server.IntervalResult](),
	}
}

// shardIndex maps a memoization key to its cache-segment index (FNV-1a).
func shardIndex(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h & (cacheShards - 1)
}

var defaultRunner = New(0)

// Default returns the process-wide shared Runner. All experiments route
// through it, so an `awsim` invocation regenerating several figures
// reuses every simulation they have in common.
func Default() *Runner { return defaultRunner }

// keyData mirrors every behavioral Config field that is representable by
// value; Profile is replaced by its fingerprint. Catalog and TraceHook
// are deliberately absent — configs carrying them are not cacheable.
type keyData struct {
	Cores                 int
	Platform              governor.Config
	GovernorPolicy        string
	Profile               string
	RatePerSec            float64
	Duration, Warmup      sim.Time
	Seed                  uint64
	Dispatch              string
	PackQueueCap          int
	LoadGen               string
	BurstOn, BurstOff     sim.Time
	UncoreW               float64
	Freq                  turbo.FreqPlan
	TurboSustainedW       float64
	TurboCapacityJ        float64
	FixedFreqHz           float64
	AWFreqLoss            float64
	SnoopRate             float64
	SnoopService          sim.Time
	NoisePeriod           sim.Time
	NoiseDemand           sim.Time
	PkgIdle               bool
	PkgEntryDelay         sim.Time
	PkgUncoreLowW         float64
	ClosedLoopConnections int
	ThinkTime             sim.Time
	Schedule              string
}

// Key returns the memoization key for cfg and whether cfg is cacheable.
// Non-cacheable configs (custom catalog, trace hook, or a profile whose
// behavior is not captured by value) always execute. The key is computed
// on the defaulted config, so zero-value and explicitly-default knobs
// (Dispatch "" vs "round-robin", PackQueueCap 0 vs 4, ...) share one
// cache slot.
func Key(cfg server.Config) (string, bool) {
	if cfg.Catalog != nil || cfg.TraceHook != nil {
		return "", false
	}
	pf, ok := cfg.Profile.Fingerprint()
	if !ok {
		return "", false
	}
	cfg = cfg.Defaults() // normalize; the injected Catalog is not keyed
	var sched string
	if cfg.Schedule != nil {
		// A schedule's fingerprint fully determines its rate function, so
		// scheduled runs stay memoizable.
		sched = cfg.Schedule.Fingerprint()
	}
	return fmt.Sprintf("%+v", keyData{
		Cores:                 cfg.Cores,
		Platform:              cfg.Platform,
		GovernorPolicy:        cfg.GovernorPolicy,
		Profile:               pf,
		RatePerSec:            cfg.RatePerSec,
		Duration:              cfg.Duration,
		Warmup:                cfg.Warmup,
		Seed:                  cfg.Seed,
		Dispatch:              cfg.Dispatch,
		PackQueueCap:          cfg.PackQueueCap,
		LoadGen:               cfg.LoadGen,
		BurstOn:               cfg.BurstOnTime,
		BurstOff:              cfg.BurstOffTime,
		UncoreW:               cfg.UncoreW,
		Freq:                  cfg.Freq,
		TurboSustainedW:       cfg.TurboSustainedW,
		TurboCapacityJ:        cfg.TurboCapacityJ,
		FixedFreqHz:           cfg.FixedFreqHz,
		AWFreqLoss:            cfg.AWFreqLossFraction,
		SnoopRate:             cfg.SnoopRatePerSec,
		SnoopService:          cfg.SnoopServiceTime,
		NoisePeriod:           cfg.OSNoisePeriod,
		NoiseDemand:           cfg.OSNoiseDemand,
		PkgIdle:               cfg.PkgIdleEnabled,
		PkgEntryDelay:         cfg.PkgEntryDelay,
		PkgUncoreLowW:         cfg.PkgUncoreLowW,
		ClosedLoopConnections: cfg.ClosedLoopConnections,
		ThinkTime:             cfg.ThinkTime,
		Schedule:              sched,
	}), true
}

// Run executes (or returns the memoized result of) one simulation.
// Identical configs requested concurrently run once; the duplicates
// block on the first execution. The returned Result may be shared with
// other callers and must be treated as read-only.
func (r *Runner) Run(cfg server.Config) (server.Result, error) {
	key, cacheable := Key(cfg)
	if !cacheable {
		r.misses.Add(1)
		return server.RunConfig(cfg)
	}
	res, err, hit := r.cache.do(key, func() (server.Result, error) {
		return server.RunConfig(cfg)
	})
	r.note(hit)
	return res, err
}

// Interval is one window of a node's load timeline: Window of simulated
// time at a constant offered Rate (QPS), optionally under a fault
// (crash, straggler inflation, or thermal throttle — see Fault).
type Interval struct {
	Window sim.Time
	Rate   float64
	Fault  Fault
}

// TimelineSpec describes one node's entire scenario timeline: the base
// node configuration (its RatePerSec, Schedule and Duration are
// ignored; Warmup is paid once) run through a resumable server.Instance
// across the listed intervals, parking on zero-rate intervals when Park
// is set. The whole timeline is the memoization unit — see RunTimeline.
type TimelineSpec struct {
	Node      server.Config
	Park      bool
	Intervals []Interval
}

// TimelineKey extends the node's simulation key with the park flag and
// the exact interval list, and reports whether the spec is cacheable. A
// timeline is a pure function of these: all randomness still derives
// from Node.Seed, and the interval windows and rates fully determine
// the piecewise-constant offered load, so two nodes with equal keys are
// bit-identical simulations. It keys RunTimeline's memo cache (the
// cluster layer's replica runs); live classes split on routed rate and
// fault instead (see cluster.splitByRate), which yields the same
// partition.
func TimelineKey(spec TimelineSpec) (string, bool) {
	base, ok := Key(spec.Node)
	if !ok {
		return "", false
	}
	var b strings.Builder
	b.WriteString(base)
	fmt.Fprintf(&b, "|timeline:park=%v", spec.Park)
	for _, iv := range spec.Intervals {
		fmt.Fprintf(&b, "|%d@%g", iv.Window, iv.Rate)
		if !iv.Fault.healthy() {
			// Fault annotations extend the key only when present, so a
			// healthy timeline's key is byte-identical to its pre-fault
			// form — and a faulted node can never share an equivalence
			// class with a healthy one.
			fmt.Fprintf(&b, "!d=%v,i=%g,t=%v,c=%g",
				iv.Fault.Down, iv.Fault.Inflate, iv.Fault.Throttle, iv.Fault.TurboCap)
		}
	}
	return b.String(), true
}

// RunTimeline executes (or returns the memoized results of) one node's
// full interval timeline on a resumable server.Instance: one warmup,
// then every interval in sequence with engine, C-state, ring and RNG
// state carried across the boundaries. Identical specs requested
// concurrently run once (single-flight); cache hits and misses count
// into Stats alongside Run's. The returned slice is shared between
// callers and must be treated as read-only.
func (r *Runner) RunTimeline(spec TimelineSpec) ([]server.IntervalResult, error) {
	if len(spec.Intervals) == 0 {
		return nil, fmt.Errorf("runner: empty timeline")
	}
	key, cacheable := TimelineKey(spec)
	if !cacheable {
		r.misses.Add(1)
		return runTimeline(spec)
	}
	res, err, hit := r.tcache.do(key, func() ([]server.IntervalResult, error) {
		return runTimeline(spec)
	})
	r.note(hit)
	return res, err
}

// runTimeline is the uncached timeline execution: a TimelineCursor
// stepped through every interval, so crash/rebuild and fault
// installation behave identically here and in the closed-loop engine.
func runTimeline(spec TimelineSpec) ([]server.IntervalResult, error) {
	tc, err := NewCursor(spec.Node, spec.Park)
	if err != nil {
		return nil, err
	}
	out := make([]server.IntervalResult, len(spec.Intervals))
	for i, iv := range spec.Intervals {
		out[i], err = tc.Step(iv)
		if err != nil {
			return nil, fmt.Errorf("runner: interval %d: %w", i, err)
		}
	}
	return out, nil
}

// Each runs fn(0..n-1) with bounded parallelism. A failure
// short-circuits the fan-out: tasks not yet started are skipped once
// any task has returned an error, so a failing node does not leave a
// fleet of doomed simulations running to completion behind it.
// (Already-running tasks finish; simulations have no preemption
// points.) On failure Each returns the lowest-indexed error among the
// tasks that actually ran — with several near-simultaneous failures,
// which tasks ran (and hence which error surfaces) is
// scheduling-dependent; only the success/failure outcome is
// deterministic. It replaces the per-experiment ad-hoc parallelMap
// helpers; each simulation is an isolated Sim with its own RNG
// streams, so sweep points parallelize safely. fn must not call Each
// on the same Runner (the parallelism bound would deadlock); calling
// Run or RunTimeline is fine.
func (r *Runner) Each(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	var wg sync.WaitGroup
	var failed atomic.Bool
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		if failed.Load() {
			break
		}
		wg.Add(1)
		r.sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-r.sem }()
			// Re-check after the (possibly long) semaphore wait.
			if failed.Load() {
				return
			}
			if err := fn(i); err != nil {
				errs[i] = err
				failed.Store(true)
			}
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// Sweep runs one simulation per config and returns results in order.
func (r *Runner) Sweep(cfgs []server.Config) ([]server.Result, error) {
	out := make([]server.Result, len(cfgs))
	err := r.Each(len(cfgs), func(i int) error {
		res, err := r.Run(cfgs[i])
		if err != nil {
			return err
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stats reports cache hits and misses (uncacheable runs count as misses).
func (r *Runner) Stats() (hits, misses uint64) {
	return r.hits.Load(), r.misses.Load()
}

// NoteClassDedup records one class-collapsed fleet execution: nodes
// timelines were requested, collapsed into classes equivalence classes,
// plus replicaRuns extra seeded replica timelines. The cluster layer
// calls this once per scenario; ClassStats accumulates across calls so
// sweeps report their whole-process dedup rate like cache hits/misses.
func (r *Runner) NoteClassDedup(nodes, classes, replicaRuns int) {
	r.classNodes.Add(uint64(nodes))
	r.classClasses.Add(uint64(classes))
	r.classReplicas.Add(uint64(replicaRuns))
}

// ClassStats reports the accumulated class-dedup counters: node
// timelines requested, equivalence classes simulated (nodes - classes
// timelines were deduplicated away), and seeded replica timelines run.
func (r *Runner) ClassStats() (nodes, classes, replicaRuns uint64) {
	return r.classNodes.Load(), r.classClasses.Load(), r.classReplicas.Load()
}
