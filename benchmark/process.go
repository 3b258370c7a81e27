package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procStats is a point reading of what the process has consumed so far.
type procStats struct {
	at       time.Time
	cpu      time.Duration // user + system
	allocB   uint64
	mallocs  uint64
	gcPause  time.Duration
	peakRSSB int64
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := procStats{at: time.Now(), allocB: ms.TotalAlloc, mallocs: ms.Mallocs,
		gcPause: time.Duration(ms.PauseTotalNs), peakRSSB: peakRSS()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return p
}

// peakRSS reads VmHWM, the process's resident-set high-water mark.
func peakRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10
		}
	}
	return 0
}

// processMetrics turns two readings around a window of ops into the
// process.* per-layer metrics.
func processMetrics(before, after procStats, ops int) map[string]float64 {
	n := float64(max(ops, 1))
	wall := after.at.Sub(before.at).Seconds()
	cpu := (after.cpu - before.cpu).Seconds()
	out := map[string]float64{
		"process.alloc_mb_per_op": float64(after.allocB-before.allocB) / (1 << 20) / n,
		"process.allocs_per_op":   float64(after.mallocs-before.mallocs) / n,
		"process.gc_pause_ms":     ms(after.gcPause - before.gcPause),
		"process.peak_rss_mb":     float64(after.peakRSSB) / (1 << 20),
		"process.cpu_s_per_op":    cpu / n,
	}
	if wall > 0 {
		out["process.cpu_utilisation"] = cpu / wall / float64(runtime.GOMAXPROCS(0))
	}
	return out
}
