package main

import (
	"bytes"
	"io"
	"regexp"
	"strings"
	"testing"
)

const configsDir = "../../examples/configs/"

// TestBrownoutConfigPrintsOverloadSummary: the brownout scenario runs
// from its config alone and prints the whole overload summary — the
// admission, breaker and resilience counters, each route's recovery
// step and breaker position, and the drained credit account.
func TestBrownoutConfigPrintsOverloadSummary(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-config", configsDir + "brownout.json"}, &out, io.Discard); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"overload control:",
		"  credits denied ",
		"  steps shaped ",
		"  steps shed ",
		"  in-situ fallbacks ",
		"  breaker opens ",
		"  breaker transitions ",
		"resilience:",
		"  faults injected ",
		"  retries ",
		"  requeues ",
		"  dead letters ",
		"  degraded steps ",
		"  worst step wall ",
		"  credits              6/6 available, 0 outstanding",
		"recovery:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	// When a route last ran degraded and where its breaker ended up
	// depend on wall-clock staging latency; that each route reports
	// both does not.
	for _, route := range []string{"hybrid visualization", "hybrid descriptive statistics"} {
		for _, re := range []string{
			`(?m)^  ` + route + ` +(never degraded|full hybrid again from step \d+/60)$`,
			`(?m)^  ` + route + ` +breaker \w+$`,
		} {
			if !regexp.MustCompile(re).MatchString(got) {
				t.Errorf("output lacks a line matching %s:\n%s", re, got)
			}
		}
	}
}

// TestLauncherRejectsScenarioFlags: the launcher defines no scenario
// flags; a scenario is a config file.
func TestLauncherRejectsScenarioFlags(t *testing.T) {
	for _, flag := range []string{"-overload", "-tenants", "-steps=3", "-dump-config", "-nx=8"} {
		err := run([]string{flag}, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an undefined-flag error", flag, err)
		}
	}
	if err := run(nil, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "-config") {
		t.Errorf("no args: err = %v, want -config required", err)
	}
}

// TestMultiTenantRejectsSingleTenantFlags: -resume, -timeline and
// -images have no multi-tenant meaning and fail instead of being
// ignored.
func TestMultiTenantRejectsSingleTenantFlags(t *testing.T) {
	for _, args := range [][]string{{"-resume"}, {"-timeline"}, {"-images", t.TempDir()}} {
		var out bytes.Buffer
		err := run(append([]string{"-config", configsDir + "tenants.json"}, args...), &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "single-tenant configs only") {
			t.Errorf("%v: err = %v, want a single-tenant-only error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v: ran before rejecting:\n%s", args, out.String())
		}
	}
}
