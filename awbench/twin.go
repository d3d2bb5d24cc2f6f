package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	agilewatts "repro"
	"repro/internal/cluster"
	"repro/internal/governor"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/scenariofile"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The twin scenario: a long AW day under the reactive controller with one
// crash window, served by awserved in manual-step mode.
const (
	twinNodes      = 8
	twinEpochs     = 64
	twinEpochMS    = 1.0
	twinCrashNode  = 1
	twinCrashStart = 20 // epochs
	twinCrashEnd   = 30
	// twinSteps is how many epochs the script steps during the run; the
	// rest are stepped after it, before the final result is compared.
	twinSteps = 48
	// whatIfSLOMS is the fixed what-if latency limit whatif_slo_frac is
	// judged against.
	whatIfSLOMS = 250.0
)

// twinDown reports whether the fault plan has node crashed in epoch e.
func twinDown(node, e int) bool {
	return node == twinCrashNode && e >= twinCrashStart && e < twinCrashEnd
}

// twinScenario builds the twin's scenario twice from the seed: as the
// file the daemon serves and as the equivalent cluster configuration the
// in-process runs use (the run checks that both give identical results).
func twinScenario(seed uint64) (scenariofile.File, cluster.ScenarioConfig, error) {
	fleetSeed := mixSeed(seed)
	baseQPS := twinNodes * 400e3
	totalMS := twinEpochs * twinEpochMS
	f := scenariofile.File{
		Name:     "twin-whatif",
		Schedule: scenariofile.ScheduleSpec{Shape: scenario.NameDiurnal, BaseQPS: baseQPS, TotalMS: totalMS},
		Fleet: scenariofile.FleetSpec{
			Nodes: twinNodes, Platform: governor.AW.Name, Service: "memcached", WarmupMS: 5,
			Seed: fleetSeed, Dispatch: cluster.DispatchConsolidate, ParkDrained: true,
		},
		EpochMS:    twinEpochMS,
		Elasticity: scenariofile.ElasticitySpec{Controller: scenariofile.ControllerSpec{Name: cluster.ControllerReactive}},
		Faults: scenariofile.FaultsSpec{Nodes: []scenariofile.NodeFaultSpec{{
			Node: twinCrashNode, Kind: cluster.FaultCrash,
			StartMS: twinCrashStart * twinEpochMS, EndMS: twinCrashEnd * twinEpochMS,
		}}},
	}
	epoch := sim.Time(twinEpochMS * float64(sim.Millisecond))
	sched, err := scenario.ByName(scenario.NameDiurnal, baseQPS, twinEpochs*epoch)
	if err != nil {
		return f, cluster.ScenarioConfig{}, err
	}
	cfg := cluster.ScenarioConfig{
		Nodes: cluster.Homogeneous(twinNodes, server.Config{
			Platform: governor.AW, Profile: workload.Memcached(), Warmup: 5 * sim.Millisecond, Seed: fleetSeed,
		}),
		Schedule:    sched,
		Epoch:       epoch,
		Dispatch:    cluster.DispatchConsolidate,
		ParkDrained: true,
		Controller:  cluster.ControllerSpec{Name: cluster.ControllerReactive},
		Faults: cluster.FaultSpec{Nodes: []cluster.NodeFault{{
			Node: twinCrashNode, Kind: cluster.FaultCrash,
			Start: twinCrashStart * epoch, End: twinCrashEnd * epoch,
		}}},
	}
	return f, cfg, nil
}

// twinRef is the in-process answer key: what the daemon must reply at
// every fleet epoch.
type twinRef struct {
	final     []byte   // /v1/result after the last epoch
	telemetry [][]byte // compact FleetTelemetry JSON per epoch
	results   []string // digest of /v1/result after h epochs, by h
}

func buildTwinRef(run agilewatts.ScenarioRun) (*twinRef, error) {
	ref := &twinRef{results: make([]string, twinEpochs+1)}
	res, err := agilewatts.RunScenario(run)
	if err != nil {
		return nil, err
	}
	if ref.final, err = indentJSON(res); err != nil {
		return nil, err
	}
	live, err := agilewatts.NewLiveScenario(run)
	if err != nil {
		return nil, err
	}
	for !live.Done() {
		tel, err := live.Step()
		if err != nil {
			return nil, err
		}
		line, err := json.Marshal(tel)
		if err != nil {
			return nil, err
		}
		ref.telemetry = append(ref.telemetry, line)
		res, err := live.Result()
		if err != nil {
			return nil, err
		}
		body, err := indentJSON(res)
		if err != nil {
			return nil, err
		}
		ref.results[live.Epoch()] = digest(body)
	}
	return ref, nil
}

// indentJSON encodes v exactly as awserved replies: two-space indent and
// a trailing newline.
func indentJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return b.Bytes(), err
}

// daemonProc is one running awserved.
type daemonProc struct {
	cmd          *exec.Cmd
	query, admin string
	// output collects the daemon's log; read it only after exited.
	output bytes.Buffer
	exited chan struct{}
}

// freePorts picks two distinct free loopback ports. Both listeners stay
// open until both are chosen, so the kernel cannot hand the same port
// out twice.
func freePorts() (string, string, error) {
	a, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	defer a.Close()
	b, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	defer b.Close()
	return a.Addr().String(), b.Addr().String(), nil
}

// startDaemon launches awserved on the scenario file and waits until its
// query port answers /v1/status with 200.
func startDaemon(bin, file string, client *http.Client) (*daemonProc, error) {
	query, admin, err := freePorts()
	if err != nil {
		return nil, err
	}
	d := &daemonProc{query: "http://" + query, admin: "http://" + admin, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-scenario-file", file, "-addr", query, "-admin-addr", admin, "-time-scale", "0")
	d.cmd.Stdout, d.cmd.Stderr = &d.output, &d.output
	// Should the benchmark die without stopping it, the kernel kills the
	// daemon too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start awserved: %w", err)
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("awserved exited before serving (%v): %s", d.cmd.ProcessState, d.output.String())
		default:
		}
		if resp, err := client.Get(d.query + "/v1/status"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("awserved not serving after 30s: %s", d.output.String())
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// stop asks the daemon to shut down and waits for it to exit, killing it
// if it has not within ten seconds.
func (d *daemonProc) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// twinClient issues the script's requests and checks every reply
// against the answer key.
type twinClient struct {
	http *http.Client
	d    *daemonProc
	ref  *twinRef
	tr   *tracer
}

func (c *twinClient) call(method, url string, body []byte) (int, []byte, http.Header, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header, err
}

// do issues request i of the script. Its end is taken when the last
// reply has been read, before the reply is checked, so checking costs
// the measured latency nothing.
func (c *twinClient) do(i int, o op, origin time.Time) outcome {
	var oc outcome
	id := c.tr.begin("awserved."+o.kind, 0, i)
	done := func() {
		oc.end = time.Since(origin)
		c.tr.end(id, 0)
	}
	failed := func(what string, status int, err error, body []byte) bool {
		if oc.status = status; err == nil && status == http.StatusOK {
			return false
		}
		oc.check(false, fmt.Sprintf("%s %s: status %d, %v: %.200s", o.kind, what, status, err, body))
		return true
	}
	switch o.kind {
	case kindStep:
		status, body, _, err := c.call(http.MethodPost, c.d.admin+"/v1/step", nil)
		done()
		if failed("step", status, err, body) {
			break
		}
		var tels []json.RawMessage
		if err := json.Unmarshal(body, &tels); err != nil || len(tels) != 1 {
			oc.check(false, fmt.Sprintf("step: reply %.200s", body))
			break
		}
		c.checkTelemetry(&oc, tels[0])
	case kindWhatIf:
		req, _ := json.Marshal(map[string]any{"target_nodes": o.target, "epochs": o.epochs, "run_to_end": o.toEnd})
		status, body, _, err := c.call(http.MethodPost, c.d.query+"/v1/whatif", req)
		done()
		if failed("whatif", status, err, body) {
			break
		}
		var rep struct {
			ForkedAt int               `json:"forked_at"`
			Forced   int               `json:"forced_epochs"`
			Epochs   []json.RawMessage `json:"epochs"`
			Summary  json.RawMessage   `json:"summary"`
		}
		err = json.Unmarshal(body, &rep)
		left := twinEpochs - rep.ForkedAt
		wantLen := min(o.epochs, left)
		if o.toEnd {
			wantLen = left
		}
		oc.check(err == nil && rep.Forced == min(o.epochs, left) && len(rep.Epochs) == wantLen && (len(rep.Summary) > 0) == (rep.ForkedAt+wantLen > 0),
			fmt.Sprintf("whatif %+v forked at %d: %d forced, %d epochs (%v)", o, rep.ForkedAt, rep.Forced, len(rep.Epochs), err))
		oc.key = fmt.Sprintf("%d/%d/%d/%v", rep.ForkedAt, o.target, o.epochs, o.toEnd)
		oc.digest = digest(body)
	case kindDashboard:
		status, result, _, err := c.call(http.MethodGet, c.d.query+"/v1/result", nil)
		if failed("result", status, err, result) {
			done()
			break
		}
		status, tel, _, err := c.call(http.MethodGet, c.d.query+"/v1/telemetry?from=0", nil)
		done()
		if failed("telemetry", status, err, tel) {
			break
		}
		var res struct{ Epochs []json.RawMessage }
		err = json.Unmarshal(result, &res)
		h := len(res.Epochs)
		oc.check(err == nil && h >= 1 && h <= twinEpochs && digest(result) == c.ref.results[h],
			fmt.Sprintf("dashboard: /v1/result after %d epochs differs from the in-process result (%v)", h, err))
		lines := bytes.Split(bytes.TrimSpace(tel), []byte("\n"))
		oc.check(len(lines) >= 1, "dashboard: empty telemetry")
		for _, line := range lines {
			c.checkTelemetry(&oc, line)
		}
	case kindRestore:
		status, blob, hdr, err := c.call(http.MethodGet, c.d.admin+"/v1/snapshot", nil)
		if failed("snapshot", status, err, nil) {
			done()
			break
		}
		status, body, _, err := c.call(http.MethodPost, c.d.admin+"/v1/restore", blob)
		done()
		if failed("restore", status, err, body) {
			break
		}
		epoch, _ := strconv.Atoi(hdr.Get("X-Scenario-Epoch"))
		var st struct{ Epoch int }
		err = json.Unmarshal(body, &st)
		oc.check(err == nil && st.Epoch == epoch && epoch >= 1, fmt.Sprintf("restore: snapshot at epoch %d restored to %d (%v)", epoch, st.Epoch, err))
	}
	return oc
}

// checkTelemetry compares one served FleetTelemetry document with the
// in-process one for the same epoch.
func (c *twinClient) checkTelemetry(oc *outcome, doc []byte) {
	var compact bytes.Buffer
	var head struct{ Epoch int }
	if json.Compact(&compact, doc) != nil || json.Unmarshal(doc, &head) != nil || head.Epoch < 0 || head.Epoch >= twinEpochs {
		oc.check(false, fmt.Sprintf("%q is not a telemetry document", doc))
		return
	}
	oc.check(bytes.Equal(compact.Bytes(), c.ref.telemetry[head.Epoch]), fmt.Sprintf("telemetry of epoch %d differs from the in-process run", head.Epoch))
}

// twinRun is everything one twin run measured.
type twinRun struct {
	ops      []op
	outs     []outcome
	setup    float64
	scenario []float64
	rssMB    float64
}

func runTwin(o options, r *report) error {
	dir, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	file := filepath.Join(dir, "twin.json")
	if o.awserved == "" {
		return fmt.Errorf("-awserved is required for %s", o.workload)
	}
	_, cfg, err := twinScenario(o.seed)
	if err != nil {
		return err
	}
	// Input generation and validation: the scenario file the daemon reads.
	generate := func() (agilewatts.ScenarioRun, error) {
		f, _, err := twinScenario(o.seed)
		if err != nil {
			return agilewatts.ScenarioRun{}, err
		}
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			return agilewatts.ScenarioRun{}, err
		}
		if err := os.WriteFile(file, data, 0o644); err != nil {
			return agilewatts.ScenarioRun{}, err
		}
		run, err := agilewatts.ParseScenarioFile(data)
		if err != nil {
			return run, err
		}
		return run, agilewatts.ValidateScenario(run)
	}
	run, err := generate()
	if err != nil {
		return err
	}
	ref, err := buildTwinRef(run)
	if err != nil {
		return err
	}
	workers := min(runtime.NumCPU(), 4)
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}}
	defer client.CloseIdleConnections()

	// The in-process batch run of the same scenario, required to match
	// the daemon's answer key byte for byte. Its timed repetitions on
	// private runners are split between before and after the HTTP run,
	// so a slow spell of the host does not decide the whole figure.
	tr := newTracer(o.trace)
	var tw twinRun
	timeBatch := func() error {
		if o.trace {
			return nil
		}
		samples, err := timeScenarios(o, r, cfg, twinDown, o.seconds/8, 5)
		tw.scenario = append(tw.scenario, samples...)
		return err
	}
	if err := timeBatch(); err != nil {
		return err
	}
	res, err := cluster.RunScenario(cfg)
	if err != nil {
		return err
	}
	got, err := indentJSON(res)
	if err != nil {
		return err
	}
	r.check(bytes.Equal(got, ref.final), "in-process RunScenario of the generated config differs from the scenario file's result")

	// Set-up: generate and validate the file, spawn the daemon, wait for
	// its first 200. Several spawns; the last one serves the run.
	var d *daemonProc
	var setups []float64
	for i := 0; i < 9; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		if _, err := generate(); err != nil {
			return err
		}
		if d, err = startDaemon(o.awserved, file, client); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.stop()
	tw.setup = median(setups)

	c := &twinClient{http: client, d: d, ref: ref, tr: tr}
	// One untimed step first, so every dashboard read has an epoch to show.
	first := c.do(-1, op{kind: kindStep}, time.Now())
	tw.ops = script(o.seed, o.seconds, twinSteps, twinNodes)
	tw.outs = drive(tw.ops, workers, c.do)
	tw.outs = append(tw.outs, first)
	tw.ops = append(tw.ops, op{kind: kindStep})

	// Step the rest of the day and require the daemon's final result to
	// be byte-identical to the in-process run.
	status, body, _, err := c.call(http.MethodGet, d.query+"/v1/status", nil)
	var st struct{ Epoch int }
	r.check(err == nil && status == http.StatusOK && json.Unmarshal(body, &st) == nil, "final status: %d %v", status, err)
	if left := twinEpochs - st.Epoch; left > 0 {
		status, body, _, err = c.call(http.MethodPost, fmt.Sprintf("%s/v1/step?epochs=%d", d.admin, left), nil)
		r.check(err == nil && status == http.StatusOK, "final step of %d epochs: %d %v %s", left, status, err, body)
	}
	status, body, _, err = c.call(http.MethodGet, d.query+"/v1/result", nil)
	r.check(err == nil && status == http.StatusOK && bytes.Equal(body, ref.final), "final /v1/result (status %d, %v) differs from in-process RunScenario", status, err)
	if tw.rssMB, err = peakRSSMB(strconv.Itoa(d.cmd.Process.Pid)); err != nil {
		return err
	}
	if err := timeBatch(); err != nil {
		return err
	}
	tallyOutcomes(r, tw.outs)
	if o.trace {
		return traceTwin(o, r, tr, cfg, &tw)
	}
	tw.report(r)
	return nil
}

// tallyOutcomes folds every request's checks into the report, then
// compares repeated identical what-ifs (same fork epoch and question),
// which must get byte-identical answers.
func tallyOutcomes(r *report, outs []outcome) {
	answers := map[string]string{}
	for _, oc := range outs {
		r.attempted += oc.checks
		r.failed += len(oc.problems)
		for _, p := range oc.problems {
			if len(r.problems) < 20 {
				r.problems = append(r.problems, p)
			}
		}
		if oc.key == "" {
			continue
		}
		if prev, seen := answers[oc.key]; seen {
			r.check(prev == oc.digest, "what-if %s answered differently on repeat", oc.key)
		}
		answers[oc.key] = oc.digest
	}
}

// latencies returns the latency of every request of a kind in ms, timed
// from its due time, and the lateness of its start.
func (tw *twinRun) latencies(kind string) (lat, late []float64) {
	for i, o := range tw.ops {
		if o.kind != kind || i >= len(tw.outs)-1 { // the last outcome is the untimed first step
			continue
		}
		oc := tw.outs[i]
		lat = append(lat, ms(oc.end-o.due))
		late = append(late, ms(oc.start-o.due))
	}
	return lat, late
}

func (tw *twinRun) report(r *report) {
	whatif, _ := tw.latencies(kindWhatIf)
	r.set("setup_s", tw.setup, "s")
	r.set("scenario_p50_s", median(tw.scenario), "s")
	r.set("peak_rss_mb", tw.rssMB, "MB")
	r.set("latency_p50_ms", median(whatif), "ms")
	r.set("latency_p90_ms", quantile(whatif, 0.9), "ms")
	fmt.Printf("# metric setup_s %.4f s (scenario file + daemon spawn to first /v1/status 200, median of 9)\n", tw.setup)
	fmt.Printf("# metric scenario_p50_s %.4f s (n=%d; in-process RunScenario of the served scenario)\n", median(tw.scenario), len(tw.scenario))
	fmt.Printf("# metric peak_rss_mb %.1f MB (awserved)\n", tw.rssMB)
	var allLate []float64
	for _, kind := range []string{kindWhatIf, kindStep, kindRestore, kindDashboard} {
		lat, late := tw.latencies(kind)
		allLate = append(allLate, late...)
		fmt.Printf("# metric %s_p50_ms %.2f ms  %s_p90_ms %.2f ms (n=%d)\n", kind, median(lat), kind, quantile(lat, 0.9), len(lat))
	}
	within := 0
	for i, o := range tw.ops {
		if o.kind == kindWhatIf && i < len(tw.outs)-1 && tw.outs[i].status == http.StatusOK && ms(tw.outs[i].end-o.due) <= whatIfSLOMS {
			within++
		}
	}
	fmt.Printf("# metric whatif_slo_frac %.4f (answered 2xx within %.0f ms, of %d)\n", float64(within)/float64(len(whatif)), whatIfSLOMS, len(whatif))
	fmt.Printf("# metric latency_p50_ms / latency_p90_ms are the what-if figures\n")
	fmt.Printf("# metric loadgen_late_p90_ms %.2f ms\n", quantile(allLate, 0.9))
	fmt.Printf("# metric error_rate %.4g (%d failed / %d attempted)\n", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
}

// traceTwin derives the twin's per-layer figures: the batch and Live
// layers of its scenario, and awserved's own share of each request kind
// (HTTP p50 minus the p50 of the same cluster calls made in process,
// replaying the executed script in its execution order).
func traceTwin(o options, r *report, tr *tracer, cfg cluster.ScenarioConfig, tw *twinRun) error {
	inproc, err := replayScript(tr, cfg, tw)
	if err != nil {
		return err
	}
	var late []float64
	for _, kind := range []string{kindStep, kindWhatIf, kindRestore, kindDashboard} {
		lat, lt := tw.latencies(kind)
		late = append(late, lt...)
		var served []float64
		for i, op := range tw.ops {
			if op.kind == kind && i < len(tw.outs)-1 {
				served = append(served, ms(tw.outs[i].end-tw.outs[i].start))
			}
		}
		fmt.Printf("# layer awserved.%s_overhead_ms %.2f ms (HTTP p50 %.2f, in-process p50 %.2f; from-due p50 %.2f, n=%d)\n",
			kind, median(served)-median(inproc[kind]), median(served), median(inproc[kind]), median(lat), len(lat))
	}
	rejected := 0
	for _, oc := range tw.outs {
		if oc.status == http.StatusTooManyRequests {
			rejected++
		}
	}
	fmt.Printf("# layer awserved.whatif_rejected %d\n", rejected)
	fmt.Printf("# layer loadgen.late_p90_ms %.2f ms\n", quantile(late, 0.9))
	return traceBatch(o, r, cfg, twinDown, tr)
}

// replayScript replays the requests the daemon executed, in the order
// they started, as direct cluster.Live calls, and returns each kind's
// in-process durations in ms.
func replayScript(tr *tracer, cfg cluster.ScenarioConfig, tw *twinRun) (map[string][]float64, error) {
	order := make([]int, len(tw.outs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return tw.outs[order[a]].start < tw.outs[order[b]].start })
	fresh := func() cluster.ScenarioConfig { c := cfg; c.Runner = runner.New(0); return c }
	l, err := cluster.NewLive(fresh())
	if err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	for _, i := range order {
		o := tw.ops[i]
		id := tr.begin("cluster.replay."+o.kind, 0, i)
		t0 := time.Now()
		switch o.kind {
		case kindStep:
			if !l.Done() {
				_, err = l.Step()
			}
		case kindWhatIf:
			f := l.Fork()
			for k := 0; k < o.epochs && !f.Done() && err == nil; k++ {
				_, err = f.StepTarget(o.target)
			}
			for o.toEnd && !f.Done() && err == nil {
				_, err = f.Step()
			}
			if err == nil && f.Epoch() > 0 {
				_, err = f.Result()
			}
		case kindDashboard:
			if _, err = l.Result(); err == nil {
				l.History()
			}
		case kindRestore:
			var blob []byte
			if blob, err = l.Snapshot(); err == nil {
				l, err = cluster.RestoreLive(fresh(), blob)
			}
		}
		d := time.Since(t0)
		tr.end(id, 0)
		if err != nil {
			return nil, fmt.Errorf("in-process replay of %s: %w", o.kind, err)
		}
		out[o.kind] = append(out[o.kind], ms(d))
	}
	return out, nil
}
