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
	"sync"
	"syscall"
	"time"
)

// This file owns every child process: each runs in its own process
// group under a timeout, the group is checked empty (and killed if not)
// when the child ends, and the registry below lets a signal or an early
// exit take down whatever is still alive.

var (
	liveMu     sync.Mutex
	liveGroups = map[int]bool{}
)

func trackGroup(pgid int, on bool) {
	liveMu.Lock()
	defer liveMu.Unlock()
	if on {
		liveGroups[pgid] = true
	} else {
		delete(liveGroups, pgid)
	}
}

// killAllGroups SIGKILLs every process group still registered.
func killAllGroups() {
	liveMu.Lock()
	defer liveMu.Unlock()
	for pgid := range liveGroups {
		syscall.Kill(-pgid, syscall.SIGKILL)
	}
}

// groupAlive reports whether any process of the group still exists.
func groupAlive(pgid int) bool {
	return syscall.Kill(-pgid, 0) == nil
}

// reapGroup kills what is left of a process group and waits until the
// kernel reports it empty.
func reapGroup(pgid int) {
	for i := 0; i < 200 && groupAlive(pgid); i++ {
		syscall.Kill(-pgid, syscall.SIGKILL)
		time.Sleep(5 * time.Millisecond)
	}
}

// procResult is one finished child.
type procResult struct {
	Wall     float64 // exec to exit, seconds
	CPU      float64 // user+sys of the child and the descendants it reaped
	RSSMB    float64 // peak resident set of the child (VmHWM, polled)
	Stdout   []byte
	Err      error // non-zero exit, timeout, or spawn failure
	Leftover bool  // the child exited but left processes in its group
}

// runProc runs one child to completion under a timeout.
func runProc(timeout time.Duration, dir, bin string, args ...string) procResult {
	var out, errOut bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return procResult{Err: err}
	}
	pgid := cmd.Process.Pid
	trackGroup(pgid, true)
	defer trackGroup(pgid, false)
	timer := time.AfterFunc(timeout, func() { syscall.Kill(-pgid, syscall.SIGKILL) })
	// Peak memory is polled from VmHWM while the child runs. The
	// ru_maxrss that wait4 reports cannot be used: exec folds the
	// forking process's own high-water mark into it, so a child smaller
	// than this runner would read as the runner's size on every rep.
	exited := make(chan struct{})
	polled := make(chan float64)
	go func() {
		peak := 0.0
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-exited:
				polled <- peak
				return
			case <-tick.C:
				peak = max(peak, vmHWM(pgid))
			}
		}
	}()
	err := cmd.Wait()
	wall := time.Since(start).Seconds()
	close(exited)
	timedOut := !timer.Stop()
	res := procResult{Wall: wall, Stdout: out.Bytes(), RSSMB: <-polled}
	if st := cmd.ProcessState; st != nil {
		res.CPU = st.UserTime().Seconds() + st.SystemTime().Seconds()
	}
	switch {
	case timedOut:
		res.Err = fmt.Errorf("timeout after %s", timeout)
	case err != nil:
		res.Err = fmt.Errorf("%v: %s", err, lastLine(errOut.Bytes()))
	}
	if groupAlive(pgid) {
		res.Leftover = !timedOut
		reapGroup(pgid)
	}
	return res
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// freePort asks the kernel for an unused TCP port on the loopback.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// server is one running raxml -serve child.
type server struct {
	cmd  *exec.Cmd
	Base string
	log  *bytes.Buffer
}

// startServer launches raxml -serve on a fresh port and waits until
// /healthz answers.
func startServer(bin, dataDir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s := &server{Base: "http://" + addr, log: &bytes.Buffer{}}
	s.cmd = exec.Command(bin, "-serve", addr, "-grid", "0", "-serve-max-running", "1", "-serve-data", dataDir)
	s.cmd.Stdout = s.log
	s.cmd.Stderr = s.log
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	trackGroup(s.cmd.Process.Pid, true)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(s.Base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("server never answered /healthz: %s", lastLine(s.log.Bytes()))
}

// stop drains the server with SIGTERM, reaps it, and kills anything it
// left behind.
func (s *server) stop() error {
	pgid := s.cmd.Process.Pid
	defer trackGroup(pgid, false)
	s.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(15*time.Second, func() { syscall.Kill(-pgid, syscall.SIGKILL) })
	err := s.cmd.Wait()
	if !timer.Stop() {
		err = fmt.Errorf("server ignored SIGTERM for 15s")
	}
	if groupAlive(pgid) {
		reapGroup(pgid)
		if err == nil {
			err = fmt.Errorf("server left processes behind")
		}
	}
	return err
}

// cpuSeconds reads the server's user+system CPU time so far.
func (s *server) cpuSeconds() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line, in clock ticks.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100 // USER_HZ is 100 on every Linux ABI Go supports
}

// peakRSSMB reads the server's resident-set high-water mark.
func (s *server) peakRSSMB() float64 { return vmHWM(s.cmd.Process.Pid) }

// vmHWM reads a live process's resident-set high-water mark in MiB
// (0 when the process is gone).
func vmHWM(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
