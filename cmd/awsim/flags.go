package main

import (
	"fmt"
	"sort"
	"strings"

	agilewatts "repro"
)

// scenarioOnlyFlags only affect the scenario experiment. Setting one on
// a run that never executes it used to be silently ignored — the flag
// parsed fine, the run produced output, and the knob did nothing.
var scenarioOnlyFlags = []string{
	"scenario", "epoch-ms", "replicas",
	"controller", "ctrl-up", "ctrl-down", "ctrl-cooldown",
}

// checkFlagCombos rejects flag combinations that would silently do
// nothing: scenario knobs on a run that does not include the scenario
// experiment, controller tuning without a controller, and any other
// flag alongside -scenario-file (the file specifies the whole run).
// set holds the flag names the user explicitly passed (flag.Visit);
// experiments is the positional experiment list.
func checkFlagCombos(set map[string]bool, experiments []string) error {
	if set["scenario-file"] {
		var extra []string
		for name := range set {
			if name != "scenario-file" {
				extra = append(extra, "-"+name)
			}
		}
		if len(extra) > 0 {
			sort.Strings(extra)
			return fmt.Errorf("%s ignored with -scenario-file: the file specifies the whole run", strings.Join(extra, ", "))
		}
		return nil
	}
	runsScenario := false
	for _, e := range experiments {
		if e == agilewatts.ExpScenario {
			runsScenario = true
		}
	}
	if !runsScenario {
		for _, name := range scenarioOnlyFlags {
			if set[name] {
				return fmt.Errorf("-%s only affects the %q experiment: name it on the command line or use -scenario-file", name, agilewatts.ExpScenario)
			}
		}
	}
	for _, name := range []string{"ctrl-up", "ctrl-down", "ctrl-cooldown"} {
		if set[name] && !set["controller"] {
			return fmt.Errorf("-%s tunes the closed-loop controller and needs -controller", name)
		}
	}
	// The overload knobs cut across two experiments: -overload applies a
	// single admission policy to the scenario experiment's fleets, while
	// the overload experiment sweeps every policy itself and only honors
	// the tuning knobs.
	runsOverload := false
	for _, e := range experiments {
		if e == agilewatts.ExpOverload {
			runsOverload = true
		}
	}
	if set["overload"] && !runsScenario {
		return fmt.Errorf("-overload applies admission control to the %q experiment: name it on the command line (the %q experiment sweeps every policy by itself)",
			agilewatts.ExpScenario, agilewatts.ExpOverload)
	}
	for _, name := range []string{"overload-max-util", "overload-backlog-sec"} {
		if set[name] && !set["overload"] && !runsOverload {
			return fmt.Errorf("-%s tunes admission control and needs -overload or the %q experiment", name, agilewatts.ExpOverload)
		}
	}
	return nil
}
