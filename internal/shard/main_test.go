package shard

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when a goroutine running clio code outlives
// the tests by more than a second: a Service that leaks its sealer, or a
// test that leaks a goroutine of its own, shows here with its stack.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(time.Second); leaked != "" {
			fmt.Fprintf(os.Stderr, "goroutines running clio code outlived the tests:\n\n%s\n", leaked)
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines waits up to grace for every other goroutine with a clio
// frame on its stack to exit, and returns the stacks of those that did not.
func leakedGoroutines(grace time.Duration) string {
	deadline := time.Now().Add(grace)
	for {
		buf := make([]byte, 1<<20)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		var leaked []string
		// The first stack is the caller's own.
		for _, g := range strings.Split(string(buf), "\n\n")[1:] {
			if strings.Contains(g, "\nclio/") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
