package main

import "testing"

// TestParseShardSpec: --shard is exactly I/N, two decimal numbers and the
// slash between them; trailing text, a third part, spaces and signs are
// refused rather than read as some other partition.
func TestParseShardSpec(t *testing.T) {
	for _, c := range []struct {
		spec   string
		idx, n int
		ok     bool
	}{
		{"0/3", 0, 3, true},
		{"2/3", 2, 3, true},
		{"0/1", 0, 1, true},
		{"11/12", 11, 12, true},
		{"1/3/5", 0, 0, false},
		{"0/3x", 0, 0, false},
		{"0/ 3", 0, 0, false},
		{" 0/3", 0, 0, false},
		{"0/3 ", 0, 0, false},
		{"+0/3", 0, 0, false},
		{"-1/3", 0, 0, false},
		{"3/3", 0, 0, false},
		{"0/0", 0, 0, false},
		{"0/", 0, 0, false},
		{"/3", 0, 0, false},
		{"03", 0, 0, false},
		{"", 0, 0, false},
		{"0/99999999999999999999", 0, 0, false},
	} {
		idx, n, err := parseShardSpec(c.spec)
		if ok := err == nil; ok != c.ok || idx != c.idx || n != c.n {
			t.Errorf("parseShardSpec(%q) = %d, %d, %v; want %d, %d, ok=%v", c.spec, idx, n, err, c.idx, c.n, c.ok)
		}
	}
}
