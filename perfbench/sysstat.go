package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is Linux's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every architecture Go supports.
const clockTicks = 100

// procSet names the processes of the system under test: this process
// itself for the in-process workloads, the wire host process for
// wire-large.
type procSet struct {
	self bool
	pids []int
}

// cpuSeconds returns the user+sys CPU time the set has consumed.
func (s procSet) cpuSeconds() float64 {
	if s.self {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0
		}
		return tv(ru.Utime) + tv(ru.Stime)
	}
	var total float64
	for _, pid := range s.pids {
		f := statFields(pid)
		if len(f) < 15 {
			continue
		}
		ut, _ := strconv.ParseFloat(f[13], 64)
		st, _ := strconv.ParseFloat(f[14], 64)
		total += (ut + st) / clockTicks
	}
	return total
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// rssBytes returns the set's current resident memory.
func (s procSet) rssBytes() float64 {
	if s.self {
		return statmRSS("self")
	}
	var total float64
	for _, pid := range s.pids {
		total += statmRSS(strconv.Itoa(pid))
	}
	return total
}

func statmRSS(pid string) float64 {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "statm"))
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize())
}

// statFields returns the fields of /proc/<pid>/stat after the command
// name (which may contain spaces), numbered so f[0] is the pid.
func statFields(pid int) []string {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return nil
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return nil
	}
	return append([]string{strconv.Itoa(pid), "cmd"}, strings.Fields(s[i+1:])...)
}

// rssSampler records the peak resident memory of a process set.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak float64
}

func startRSS(s procSet) *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			v := s.rssBytes()
			r.mu.Lock()
			r.peak = max(r.peak, v)
			r.mu.Unlock()
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// finish stops sampling and returns the peak in bytes.
func (r *rssSampler) finish() float64 {
	close(r.stop)
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peak
}

// host describes the machine a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
}

func hostInfo() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     gitCommit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checkout's HEAD without running git; a checkout
// without .git reports "unknown".
func gitCommit() string {
	b, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	head := strings.TrimSpace(string(b))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if c, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(c))
	}
	return "unknown"
}

// hostCPU returns the host's cumulative steal and total CPU time, in
// clock ticks, from the first line of /proc/stat.
func hostCPU() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user … steal; guest time is already in user
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}
