package main

import (
	"strings"
	"testing"
)

// TestBadFigureRejected: a figure outside {0, 2…9} selects no table, so
// it must be refused, naming -figure, instead of running the grid.
func TestBadFigureRejected(t *testing.T) {
	for _, n := range []string{"11", "1", "-1", "10"} {
		err := run([]string{"-figure", n, "-q", "-cores", "4", "-bench", "x264", "-proto", "MESI"})
		if err == nil || !strings.Contains(err.Error(), "-figure") || strings.Contains(err.Error(), "\n") {
			t.Errorf("-figure %s: error %v; want one line naming -figure", n, err)
		}
	}
}
