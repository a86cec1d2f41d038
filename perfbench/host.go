package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"primopt/internal/obs"
)

// envRecord describes the build and host a run measured on. It is
// printed beside the metrics and not gated: it is how a disagreement
// between two sets of runs gets attributed to the host (steal time, a
// slower calibration loop) rather than to the program.
type envRecord struct {
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	StartTime  string `json:"start_time"`
	// StealPct is the guest steal share of all CPU time over the run,
	// from /proc/stat (-1 where it cannot be read).
	StealPct float64 `json:"steal_pct"`
	// Calib* time fixed pure-Go loops before and after the run: an
	// integer loop (the CPU) and a pointer chase over 8 MiB, past the
	// per-core caches (memory contention from other guests shows here,
	// not in steal time).
	CalibBeforeMS    float64 `json:"calib_before_ms"`
	CalibAfterMS     float64 `json:"calib_after_ms"`
	CalibMemBeforeMS float64 `json:"calib_mem_before_ms"`
	CalibMemAfterMS  float64 `json:"calib_mem_after_ms"`

	steal0, total0 int64
}

func startEnv() *envRecord {
	e := &envRecord{
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		StartTime:  time.Now().UTC().Format(time.RFC3339),
	}
	e.CalibBeforeMS, e.CalibMemBeforeMS = calibrate(), calibrateMem()
	e.steal0, e.total0 = cpuStat()
	return e
}

func (e *envRecord) finish() *envRecord {
	steal, total := cpuStat()
	e.StealPct = -1
	if total > e.total0 && e.total0 >= 0 {
		e.StealPct = 100 * float64(steal-e.steal0) / float64(total-e.total0)
	}
	e.CalibAfterMS, e.CalibMemAfterMS = calibrate(), calibrateMem()
	return e
}

func (e *envRecord) meta() obs.Meta {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return obs.Meta{Schema: obs.TraceSchema, GoVersion: e.GoVersion, Host: host, StartTime: e.StartTime, Commit: e.Commit}
}

// commit names the measured source revision when the environment
// says; a checkout without git metadata has no other way to know.
func commit() string {
	for _, k := range []string{"PRIMOPT_COMMIT", "GITHUB_SHA"} {
		if v := os.Getenv(k); v != "" {
			return v
		}
	}
	return "unknown"
}

// cpuStat reads the aggregate steal and total jiffies from /proc/stat
// (-1, -1 where unavailable).
func cpuStat() (steal, total int64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1, -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return -1, -1
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1, -1
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and nice.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			return -1, -1
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

var calibSink uint64

// calibrate times a fixed integer loop (about 0.2 s), in milliseconds.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 90_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return ms(time.Since(t0))
}

// calibrateMem times a dependent walk of 4M steps over one random
// cycle through 8 MiB, in milliseconds (-1 where the buffer cannot be
// mapped). The buffer is mapped outside the Go heap and unmapped after,
// so it leaves the heap and peak_rss_mib of the run alone.
func calibrateMem() float64 {
	const n = 1 << 20 // 8-byte slots
	buf, err := syscall.Mmap(-1, 0, 8*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return -1
	}
	defer syscall.Munmap(buf)
	next := unsafe.Slice((*uint64)(unsafe.Pointer(&buf[0])), n)
	// Sattolo's shuffle: one cycle through every slot, fixed seed.
	for i := range next {
		next[i] = uint64(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i)
		next[i], next[j] = next[j], next[i]
	}
	t0 := time.Now()
	p := uint64(0)
	for i := 0; i < 4*n; i++ {
		p = next[p]
	}
	calibSink = p
	return ms(time.Since(t0))
}

// peakRSSMiB is the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
