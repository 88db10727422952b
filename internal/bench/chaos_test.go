package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestChaosGridSmoke runs the chaos grid the way `make verify` does, on
// the tiny dataset with few crash points.
func TestChaosGridSmoke(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	if err := r.ChaosGrid(2); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"crash/recovery grid", "dcsd", "tcmd", "ok:"} {
		if !strings.Contains(out, want) {
			t.Errorf("grid output missing %q:\n%s", want, out)
		}
	}
}
