package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one cliod child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string // address from the daemon's own "serving" line
	// admin is the address from the "admin on" line, "" without -admin.
	admin string

	mu   sync.Mutex
	tail []string      // last log lines, for failure reports
	done chan struct{} // closed once the process has been reaped
}

// children tracks every live cliod so that every exit path — normal return,
// failed check, signal, timeout — can kill and reap them.
var children = struct {
	sync.Mutex
	live map[*daemon]bool
}{live: map[*daemon]bool{}}

// readyTimeout bounds the wait for a daemon's serving line.
const readyTimeout = 20 * time.Second

// startCliod launches the cliod binary and returns once its log says it is
// serving. Readiness comes from that line, not a sleep loop: it is printed
// after recovery finishes and the listener is bound.
func startCliod(ctx context.Context, bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	// A benchmark killed outright must not leave daemons behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	children.Lock()
	children.live[d] = true
	children.Unlock()

	ready := make(chan struct{})
	go d.drain(stderr, ready)

	t := time.NewTimer(readyTimeout)
	defer t.Stop()
	select {
	case <-ready:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("cliod %s exited before serving:\n%s", strings.Join(args, " "), d.logTail())
	case <-t.C:
		d.kill()
		return nil, fmt.Errorf("cliod %s not serving after %s:\n%s", strings.Join(args, " "), readyTimeout, d.logTail())
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
}

// drain consumes the daemon's log until EOF, then reaps the process. ready
// is closed at the serving line.
func (d *daemon) drain(r io.Reader, ready chan struct{}) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 40 {
			d.tail = d.tail[len(d.tail)-40:]
		}
		d.mu.Unlock()
		if signalled {
			continue
		}
		if a, ok := afterMarker(line, "cliod: admin on http://"); ok {
			d.admin = a // always logged before the serving line
		} else if a, ok := afterMarker(line, "cliod: serving on "); ok {
			d.addr = a
		} else if i := strings.Index(line, " serving as cluster "); i >= 0 {
			// "cliod: <advertise> serving as cluster <role> on <addr> (peers ..."
			if a, ok := afterMarker(line[i:], " on "); ok {
				d.addr = a
			}
		}
		if d.addr != "" {
			signalled = true
			close(ready)
		}
	}
	d.cmd.Wait()
	children.Lock()
	delete(children.live, d)
	children.Unlock()
	close(d.done)
}

// afterMarker returns the first space-delimited word following marker.
func afterMarker(line, marker string) (string, bool) {
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	rest := line[i+len(marker):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	return rest, rest != ""
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// kill sends SIGKILL and waits until the process has been reaped. Safe to
// call more than once and on a daemon that already exited.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// killAllChildren is the exit-path sweep.
func killAllChildren() {
	children.Lock()
	var ds []*daemon
	for d := range children.live {
		ds = append(ds, d)
	}
	children.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// freeAddrs reserves n distinct loopback ports by binding and releasing
// them. Cluster peers must know each other's addresses before any of them
// starts, so ":0" cannot be used there; single nodes bind ":0" themselves.
func freeAddrs(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	var out []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		out = append(out, ln.Addr().String())
	}
	return out, nil
}

// volumeBytes sums the sizes of the volume files directly in dir.
func volumeBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, e := range ents {
		n := e.Name()
		if !strings.HasPrefix(n, "vol-") || !strings.HasSuffix(n, ".clio") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		sum += fi.Size()
	}
	return sum, nil
}
