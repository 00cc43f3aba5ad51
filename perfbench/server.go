package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the clock-tick rate of /proc/<pid>/stat times (USER_HZ,
// fixed at 100 on Linux).
const userHZ = 100

// server is one dcserved process started by the benchmark. Its standard
// output and error go to /dev/null on every run, so the per-request log
// line costs the same and never waits on a pipe.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has exited and been reaped
}

// startServer execs the built dcserved on a free loopback port with its
// default flags plus args.
func startServer(bin string, args []string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	// The kernel kills the server if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := startPinned(cmd.Start); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, addr: addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is reported through s.exited
		close(s.done)
	}()
	return s, nil
}

// waitReady polls until the server accepts connections and answers
// /healthz, with sub-millisecond sleeps so set-up time is not rounded up.
func (s *server) waitReady(hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if s.exited() {
			return fmt.Errorf("dcserved exited during start-up")
		}
		if conn, err := net.DialTimeout("tcp", s.addr, time.Second); err == nil {
			_ = conn.Close() // only probing that the listener is up
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dcserved not listening on %s after %v", s.addr, timeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	resp, err := hc.Get("http://" + s.addr + "/healthz")
	if err != nil {
		return fmt.Errorf("GET /healthz: %w", err)
	}
	var b bytes.Buffer
	_, err = b.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /healthz: status %d %v", resp.StatusCode, err)
	}
	return nil
}

func (s *server) exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// stop kills the server and waits until it has been reaped.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // fails only if the process already exited
	<-s.done
}

// cpuSeconds reads the server's user + system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3,
	// utime and stime are fields 14 and 15.
	rest := raw[bytes.LastIndexByte(raw, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat times: %v %v", err1, err2)
	}
	return float64(ut+st) / userHZ, nil
}

// peakRSSMiB reads the server's peak resident set (VmHWM).
func (s *server) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// newHTTPClient returns a client that keeps exactly one connection alive
// to the server: calls are issued one at a time over it.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}
