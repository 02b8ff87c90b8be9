package main

import (
	"strings"
	"testing"
)

// TestRunPerfRejectsBadCores: -perf hands the core count to workload
// generators, which panic on a non-positive one; runPerf must return
// config.Validate's error naming the field before any of them runs.
func TestRunPerfRejectsBadCores(t *testing.T) {
	for _, cores := range []int{-3, 0} {
		err := runPerf(cores, 1, 1, 1, []string{"x264"}, nil, "", 0, false, false, nil)
		if err == nil || !strings.Contains(err.Error(), "cores") {
			t.Errorf("runPerf at %d cores: error %v; want one naming cores", cores, err)
		}
	}
}
