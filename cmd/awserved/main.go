// Command awserved serves a live fleet simulation over HTTP: it loads a
// declarative scenario file, steps the warm fleet through its schedule
// in scaled time, streams per-epoch telemetry, and answers what-if
// queries ("park all but 2 nodes for the next hour") against a fork of
// the fleet — the live simulation never observes them.
//
// Usage:
//
//	awserved -scenario-file testdata/scenarios/crash-under-spike.json \
//	         -addr :7070 -admin-addr :7071 -time-scale 60
//
// The API splits in two. The query port (-addr) is read-mostly:
//
//	GET  /v1/status            scenario name, epoch progress, sim clock
//	GET  /v1/telemetry?from=N  NDJSON, one document per completed epoch
//	     &follow=1             keep streaming epochs as they complete
//	GET  /v1/result            ScenarioResult over the completed epochs
//	POST /v1/whatif            {"target_nodes":2,"epochs":3,"run_to_end":true}
//
// The admin port (-admin-addr) mutates the fleet:
//
//	POST /v1/step?epochs=N     advance manually (the -time-scale 0 clock)
//	POST /v1/pause, /v1/resume stop and restart the scaled-time clock
//	GET  /v1/snapshot          download the fleet checkpoint (binary)
//	POST /v1/restore           replace the fleet from a checkpoint
//
// -time-scale is the ratio of simulated to wall time (60 = a simulated
// minute per wall second); 0 (the default) runs no clock at all — the
// fleet moves only on /v1/step. A multi-document scenario file needs
// -scenario NAME to pick the document to serve.
//
// With -checkpoint-dir the daemon is crash-safe: it checkpoints the
// fleet automatically (every -checkpoint-every-epochs epochs and/or
// every -checkpoint-every-secs of wall time, written via temp file +
// atomic rename), recovers from the newest valid checkpoint at startup,
// and takes a final checkpoint on SIGINT/SIGTERM before draining both
// HTTP listeners. What-if forks are bounded: at most -whatif-max run
// concurrently (excess gets 429) and each is abandoned after
// -whatif-timeout-ms (503).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	agilewatts "repro"
)

func main() {
	scenarioFile := flag.String("scenario-file", "",
		"declarative scenario file (JSON; multiple concatenated documents allowed)")
	scenarioName := flag.String("scenario", "",
		"scenario name to serve when the file holds several documents")
	addr := flag.String("addr", ":7070", "query API listen address")
	adminAddr := flag.String("admin-addr", ":7071", "admin API listen address")
	timeScale := flag.Float64("time-scale", 0,
		"simulated-to-wall time ratio (60 = one simulated minute per second; 0 = manual stepping only)")
	ckptDir := flag.String("checkpoint-dir", "",
		"directory for automatic fleet checkpoints; startup recovers from the newest valid one")
	ckptEpochs := flag.Int("checkpoint-every-epochs", 1,
		"checkpoint after every N completed epochs (0 disables the epoch cadence)")
	ckptSecs := flag.Float64("checkpoint-every-secs", 0,
		"checkpoint once this much wall time passed since the last one (0 disables the wall cadence)")
	whatifMax := flag.Int("whatif-max", 4, "maximum concurrent what-if forks (excess gets 429)")
	whatifTimeoutMS := flag.Int("whatif-timeout-ms", 30000,
		"abandon a what-if fork after this much wall time (it gets 503)")
	flag.Parse()

	if *scenarioFile == "" {
		fatal(fmt.Errorf("-scenario-file is required"))
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments: %s", strings.Join(flag.Args(), " ")))
	}
	if *ckptDir == "" && (*ckptSecs != 0 || !flagIsDefault("checkpoint-every-epochs")) {
		fatal(fmt.Errorf("checkpoint cadence flags need -checkpoint-dir"))
	}
	if *whatifMax < 1 {
		fatal(fmt.Errorf("-whatif-max must be >= 1, got %d", *whatifMax))
	}
	if *whatifTimeoutMS < 1 {
		fatal(fmt.Errorf("-whatif-timeout-ms must be >= 1, got %d", *whatifTimeoutMS))
	}
	name, run, err := selectScenario(*scenarioFile, *scenarioName)
	if err != nil {
		fatal(err)
	}
	opts := defaultDaemonOptions()
	opts.ckptDir = *ckptDir
	opts.ckptEveryEpochs = *ckptEpochs
	opts.ckptEvery = time.Duration(*ckptSecs * float64(time.Second))
	opts.whatifMax = *whatifMax
	opts.whatifTimeout = time.Duration(*whatifTimeoutMS) * time.Millisecond
	d, err := newDaemon(name, run, *timeScale, opts)
	if err != nil {
		fatal(err)
	}

	stop := make(chan struct{})
	clockDone := make(chan struct{})
	go func() {
		d.runClock(stop)
		close(clockDone)
	}()
	query := newServer(*addr, d.queryMux())
	admin := newServer(*adminAddr, d.adminMux())
	go serve("admin", admin)
	go serve("query", query)
	fmt.Fprintf(os.Stderr, "awserved: scenario %q, %d epochs, query %s, admin %s, time-scale %g\n",
		name, d.live.Epochs(), *addr, *adminAddr, *timeScale)

	// Graceful shutdown: stop the clock and wait for it to finish the
	// epoch it is mid-way through (a step is atomic under the daemon
	// lock), take a final checkpoint, then drain both HTTP servers —
	// never exit from under an epoch in flight or a half-written reply.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stop)
	<-clockDone
	d.shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := admin.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "awserved: admin shutdown:", err)
	}
	if err := query.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "awserved: query shutdown:", err)
	}
}

// flagIsDefault reports whether the named flag was left at its default
// (flag.Visit only walks the flags the command line actually set).
func flagIsDefault(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return !set
}

// selectScenario loads the (possibly multi-document) scenario file and
// picks the document to serve: the only one, or the one -scenario
// names.
func selectScenario(path, name string) (string, agilewatts.ScenarioRun, error) {
	files, err := agilewatts.LoadScenarioFiles(path)
	if err != nil {
		return "", agilewatts.ScenarioRun{}, err
	}
	var picked *agilewatts.ScenarioFile
	switch {
	case name != "":
		for i := range files {
			if files[i].Name == name {
				picked = &files[i]
			}
		}
		if picked == nil {
			var names []string
			for _, f := range files {
				names = append(names, f.Name)
			}
			return "", agilewatts.ScenarioRun{}, fmt.Errorf(
				"scenario %q not in %s (have: %s)", name, path, strings.Join(names, ", "))
		}
	case len(files) == 1:
		picked = &files[0]
	default:
		var names []string
		for _, f := range files {
			names = append(names, f.Name)
		}
		return "", agilewatts.ScenarioRun{}, fmt.Errorf(
			"%s holds %d scenarios; pick one with -scenario (have: %s)",
			path, len(files), strings.Join(names, ", "))
	}
	run, err := agilewatts.ScenarioRunFromFile(*picked)
	if err != nil {
		return "", agilewatts.ScenarioRun{}, err
	}
	label := picked.Name
	if label == "" {
		label = "file"
	}
	return label, run, nil
}

// Connection timeouts shared by both listeners. ReadHeaderTimeout cuts
// off a client that trickles its request headers; IdleTimeout reaps
// keep-alive connections left idle, far above the ≤1 s gaps a load
// generator leaves between requests. There is deliberately no
// WriteTimeout (or ReadTimeout): /v1/telemetry?follow=1 streams stay
// open for the life of the scenario, and a restore upload may be large.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer builds one of the daemon's HTTP servers.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func serve(which string, srv *http.Server) {
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(fmt.Errorf("%s listener: %w", which, err))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "awserved:", err)
	os.Exit(1)
}
