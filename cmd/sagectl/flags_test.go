package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestFlagsAreRegisteredOnlyWhereRead: a flag a mode never reads must be
// rejected by that mode, not accepted and ignored. -user-blocks only
// means something to the ledger demo (the daemon's stream is
// time-partitioned) and -days only to ledger and serve (the daemon runs
// until stopped).
func TestFlagsAreRegisteredOnlyWhereRead(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a child binary; skipped in -short")
	}
	bin := buildSagectl(t)
	for _, tc := range []struct {
		args []string
		want string // substring of the combined output
		ok   bool   // exit status 0
	}{
		{[]string{"daemon", "-user-blocks"}, "flag provided but not defined: -user-blocks", false},
		{[]string{"daemon", "-days", "3"}, "flag provided but not defined: -days", false},
		{[]string{"serve", "-user-blocks"}, "flag provided but not defined: -user-blocks", false},
		{[]string{"replica", "-days", "3"}, "flag provided but not defined: -days", false},
		// Still registered where they are read.
		{[]string{"serve", "-days", "0"}, "-days must be at least 1", false},
		{[]string{"ledger", "-days", "1", "-user-blocks", "-pipelines", "0"}, "partitioner user", true},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		if (err == nil) != tc.ok || !strings.Contains(string(out), tc.want) {
			t.Errorf("sagectl %s: err %v, want success=%v and output containing %q; got:\n%s",
				strings.Join(tc.args, " "), err, tc.ok, tc.want, out)
		}
	}
}
