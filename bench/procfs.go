package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux architecture Go supports.
const clockTick = 100

// parseProcStat extracts utime+stime from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself contain spaces and parentheses, so fields are counted from the
// last ')'.
func parseProcStat(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// parseProcStatusKB returns a "Key:   N kB" field of /proc/<pid>/status in
// kilobytes.
func parseProcStatusKB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: %s: unexpected value %q", key, rest)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s field", key)
}

// cpuTime reads a live process's consumed CPU time (pid 0 = this process).
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// rssPeakMB reads a live process's peak resident set (VmHWM) in MB.
func rssPeakMB(pid int) (float64, error) {
	b, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	kb, err := parseProcStatusKB(string(b), "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// hostCPU is the first line of /proc/stat: CPU time, in ticks, the whole
// guest has spent since boot, and the part of it the hypervisor withheld
// while a vCPU was runnable.
type hostCPU struct {
	total, steal int64
}

// parseHostCPU reads the aggregate "cpu" line: user nice system idle iowait
// irq softirq steal (guest times are already inside user and nice).
func parseHostCPU(stat string) (hostCPU, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("proc stat: no aggregate cpu line in %q", line)
	}
	var h hostCPU
	for i, field := range f[1:9] {
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("proc stat: cpu field %d: %w", i+1, err)
		}
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h, nil
}

// readHostCPU returns the zero value where /proc/stat cannot be read; steal
// is a gauge of the run's noise, not something a run fails for.
func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	h, _ := parseHostCPU(string(b))
	return h
}

// stealPctSince is the share of CPU time withheld since the earlier reading.
func (h hostCPU) stealPctSince(h0 hostCPU) float64 {
	if h.total == h0.total {
		return 0
	}
	return 100 * float64(h.steal-h0.steal) / float64(h.total-h0.total)
}

func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return fmt.Sprintf("/proc/%d/%s", pid, file)
}

// fsTypeName names the filesystem holding path, from its statfs magic.
func fsTypeName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
