package main

import (
	"testing"
	"time"
)

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	const stat = "4242 (cliod (test) x) S 1 4242 4242 0 -1 4194560 1211 0 0 0 137 63 0 0 20 0 9 0 123456 1286144000 5321 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0"
	got, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * time.Second; got != want { // (137+63) ticks at 100 Hz
		t.Errorf("cpu time = %v, want %v", got, want)
	}
	if _, err := parseProcStat("4242 cliod S 1"); err == nil {
		t.Error("a stat line without a command field must not parse")
	}
	if _, err := parseProcStat("1 (x) S 1 2 3"); err == nil {
		t.Error("a truncated stat line must not parse")
	}
}

func TestParseProcStatus(t *testing.T) {
	const status = "Name:\tcliod\nUmask:\t0022\nVmPeak:\t 1256000 kB\nVmHWM:\t   21884 kB\nVmRSS:\t   20100 kB\nThreads:\t9\n"
	kb, err := parseProcStatusKB(status, "VmHWM")
	if err != nil || kb != 21884 {
		t.Errorf("VmHWM = %d, %v; want 21884", kb, err)
	}
	if _, err := parseProcStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing field must be an error")
	}
	if _, err := parseProcStatusKB(status, "Threads"); err == nil {
		t.Error("a field that is not in kB must be an error")
	}
}

func TestParseHostCPU(t *testing.T) {
	const before = "cpu  1000 10 500 8000 90 0 100 300 0 0\ncpu0 500 5 250 4000 45 0 50 150 0 0\nintr 1\n"
	const after = "cpu  1400 10 700 8200 90 0 100 500 7 0\ncpu0 700 5 350 4100 45 0 50 250 0 0\n"
	h0, err := parseHostCPU(before)
	if err != nil || h0.total != 10000 || h0.steal != 300 {
		t.Fatalf("parseHostCPU = %+v, %v; want total 10000 steal 300", h0, err)
	}
	h1, err := parseHostCPU(after)
	if err != nil {
		t.Fatal(err)
	}
	if got := h1.stealPctSince(h0); got != 20 { // 200 of 1000 ticks
		t.Errorf("steal since = %v %%, want 20", got)
	}
	if got := h0.stealPctSince(h0); got != 0 {
		t.Errorf("steal over no time = %v, want 0", got)
	}
	if _, err := parseHostCPU("cpu0 1 2 3 4 5 6 7 8\n"); err == nil {
		t.Error("a stat file without the aggregate line must not parse")
	}
}

func TestOwnProcessReadable(t *testing.T) {
	if _, err := cpuTime(0); err != nil {
		t.Errorf("cpuTime(self): %v", err)
	}
	if mb, err := rssPeakMB(0); err != nil || mb <= 0 {
		t.Errorf("rssPeakMB(self) = %v, %v", mb, err)
	}
}
