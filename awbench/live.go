package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/runner"
)

// liveLayers holds the Live engine figures and the cost-versus-history
// curve of Fork and RestoreLive, which replay the realized prefix.
type liveLayers struct {
	step, result       []float64
	history, forkStep  []float64
	restoreAt, restore []float64
	snapshot           []float64
	snapshotKB         float64
}

// liveProbe steps the workload's scenario through cluster.Live in
// process. At a few history lengths it forks and forces one epoch, takes
// a snapshot, restores it on a fresh runner and packages the result, so
// each call's cost can be read against the history it replays.
func liveProbe(tr *tracer, cfg cluster.ScenarioConfig) (*liveLayers, error) {
	cfg.Runner = runner.New(0)
	id := tr.begin("cluster.NewLive", 0, -3)
	l, err := cluster.NewLive(cfg)
	tr.end(id, len(cfg.Nodes))
	if err != nil {
		return nil, err
	}
	n := l.Epochs()
	points := map[int]bool{1: true, n / 4: true, n / 2: true, 3 * n / 4: true, n: true}
	lv := &liveLayers{}
	timed := func(name string, fn func() error) (float64, error) {
		id := tr.begin(name, 0, -3)
		t0 := time.Now()
		err := fn()
		d := ms(time.Since(t0))
		tr.end(id, 0)
		return d, err
	}
	for l.Epoch() < n {
		d, err := timed("cluster.Step", func() error { _, err := l.Step(); return err })
		if err != nil {
			return nil, err
		}
		lv.step = append(lv.step, d)
		h := l.Epoch()
		if !points[h] {
			continue
		}
		if h < n {
			d, err = timed("cluster.ForkStepTarget", func() error {
				_, err := l.Fork().StepTarget(len(cfg.Nodes) / 2)
				return err
			})
			if err != nil {
				return nil, err
			}
			lv.history = append(lv.history, float64(h))
			lv.forkStep = append(lv.forkStep, d)
		}
		var blob []byte
		d, err = timed("cluster.Snapshot", func() error { blob, err = l.Snapshot(); return err })
		if err != nil {
			return nil, err
		}
		lv.snapshot = append(lv.snapshot, d)
		lv.snapshotKB = float64(len(blob)) / 1024
		rcfg := cfg
		rcfg.Runner = runner.New(0)
		d, err = timed("cluster.RestoreLive", func() error { _, err := cluster.RestoreLive(rcfg, blob); return err })
		if err != nil {
			return nil, err
		}
		lv.restoreAt = append(lv.restoreAt, float64(h))
		lv.restore = append(lv.restore, d)
		d, err = timed("cluster.Result", func() error { _, err := l.Result(); return err })
		if err != nil {
			return nil, err
		}
		lv.result = append(lv.result, d)
	}
	return lv, nil
}

func (lv *liveLayers) report(r *report) {
	stepP50 := median(lv.step)
	r.set("cluster.step_ms", stepP50, "ms")
	r.set("cluster.fork_step_ms", median(lv.forkStep), "ms")
	r.set("cluster.snapshot_ms", median(lv.snapshot), "ms")
	r.set("cluster.snapshot_kb", lv.snapshotKB, "KB")
	r.set("cluster.restore_ms", median(lv.restore), "ms")
	r.set("cluster.result_ms", median(lv.result), "ms")
	forkSlope, restoreSlope := slope(lv.history, lv.forkStep), slope(lv.restoreAt, lv.restore)
	r.set("cluster.fork_ms_per_history_epoch", forkSlope, "ms")
	r.set("cluster.restore_ms_per_history_epoch", restoreSlope, "ms")
	fmt.Printf("# curve Live step p50 %.2f ms over %d epochs\n", stepP50, len(lv.step))
	for i, h := range lv.restoreAt {
		fork := "-"
		if i < len(lv.forkStep) {
			fork = fmt.Sprintf("%.2f", lv.forkStep[i])
		}
		fmt.Printf("# curve history=%-3.0f fork+step_ms=%-8s restore_ms=%.2f\n", h, fork, lv.restore[i])
	}
	// The replay share of a full-history restore decides whether
	// copy-on-write interval history (no replay) would pay: when most of
	// the restore is fixed rebuild cost, removing replay saves little.
	last, full := lv.restore[len(lv.restore)-1], lv.restoreAt[len(lv.restoreAt)-1]
	replayShare := restoreSlope * full / last
	fmt.Printf("# curve slope fork %.3f ms/epoch, restore %.3f ms/epoch; a full-history restore costs %.1f steps, %.0f%% of it history replay\n",
		forkSlope, restoreSlope, last/stepP50, 100*replayShare)
	verdict := "restore is mostly fixed rebuild cost; copy-on-write interval history would save little here"
	if replayShare > 0.5 {
		verdict = "history replay dominates fork and restore; copy-on-write interval history would pay"
	}
	fmt.Printf("# curve verdict: %s\n", verdict)
}
