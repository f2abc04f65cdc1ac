package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/default.golden from this build's output")

// runMainEnv, when set, makes the test binary behave as the command itself.
const runMainEnv = "CLIO_EXPERIMENTS_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestDefaultOutputGolden holds the paper tables byte-identical across
// refactors: the default run is deterministic (virtual clock, seeded
// workloads) except for the "[name completed in 12ms]" wall-time lines,
// which are dropped before comparing. A PR that means to change a table
// regenerates the file with `go test ./cmd/experiments -update` and says why.
func TestDefaultOutputGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("experiments: %v\n%s", err, stderr.Bytes())
	}
	var got []byte
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		if !bytes.Contains(line, []byte("completed in")) {
			got = append(got, line...)
		}
	}
	const golden = "testdata/default.golden"
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("default output differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("default output has %d lines, %s has %d", len(gl), golden, len(wl))
}
