package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestOpStreamIsAFunctionOfSeedAndLane(t *testing.T) {
	a, b := newOpStream(7, 0, "/w0"), newOpStream(7, 0, "/w0")
	other, lane := newOpStream(8, 0, "/w0"), newOpStream(7, 1, "/w0")
	diffSeed, diffLane := false, false
	var bytesTotal int
	for i := 0; i < 2000; i++ {
		x, y := a.next(), b.next()
		if x.Log != y.Log || !bytes.Equal(x.Data, y.Data) || x.Timestamped != y.Timestamped {
			t.Fatalf("op %d differs between two streams of the same seed and lane", i)
		}
		if !strings.HasPrefix(x.Log, "/w0/") {
			t.Fatalf("op %d not rebased under the root: %s", i, x.Log)
		}
		bytesTotal += len(x.Data)
		if o := other.next(); o.Log != x.Log || !bytes.Equal(o.Data, x.Data) {
			diffSeed = true
		}
		if o := lane.next(); o.Log != x.Log || !bytes.Equal(o.Data, x.Data) {
			diffLane = true
		}
	}
	if !diffSeed || !diffLane {
		t.Errorf("another seed differs: %v, another lane differs: %v; want both", diffSeed, diffLane)
	}
	if mean := bytesTotal / 2000; mean < 100 || mean > 200 {
		t.Errorf("mean entry is %d B, want the ≈ 148 B mix", mean)
	}
	if r := a.rewound().next(); r.Log != newOpStream(7, 0, "/w0").next().Log {
		t.Errorf("rewound stream does not start over")
	}
	logs := a.logs()
	if logs[0] != "/w0" || logs[1] != "/w0/sessions" {
		t.Errorf("logs must list parents first, got %v", logs[:2])
	}
}
