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
)

// section is what the harness records around one timed section: wall
// clock plus the process-wide allocation, GC and CPU deltas. The
// counters are process-wide on purpose — server goroutines, the WAL's
// commit driver and the clients all belong to the cost of an op.
type section struct {
	wall    time.Duration
	alloc   uint64 // bytes, runtime.MemStats.TotalAlloc delta
	mallocs uint64
	gcs     uint32
	gcPause time.Duration
	cpu     time.Duration // user+system, all threads
}

func (s *section) add(o section) {
	s.wall += o.wall
	s.alloc += o.alloc
	s.mallocs += o.mallocs
	s.gcs += o.gcs
	s.gcPause += o.gcPause
	s.cpu += o.cpu
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs f as one timed section. The two ReadMemStats calls stop
// the world briefly, but outside the wall-clock window.
func measure(f func()) section {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	f()
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	return section{
		wall:    wall,
		alloc:   after.TotalAlloc - before.TotalAlloc,
		mallocs: after.Mallocs - before.Mallocs,
		gcs:     after.NumGC - before.NumGC,
		gcPause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		cpu:     cpu,
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// Host-noise canaries: fixed work that never touches the program under
// test. They are reported so that a reviewer can tell a slow run from a
// slow host; they never rescale a metric.

var canarySink uint64

// spinMS times a fixed arithmetic loop (no memory traffic).
func spinMS(iters int) float64 {
	start := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	canarySink += x
	return float64(time.Since(start)) / 1e6
}

// memwalkMS times allocating and walking a fixed buffer, one write per
// cache line and page faults included: the host's memory system is what
// drifts between runs, the arithmetic units are not.
func memwalkMS(size int) float64 {
	start := time.Now()
	buf := make([]byte, size)
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < size; i += 64 {
			buf[i] += byte(pass)
		}
	}
	canarySink += uint64(buf[size/2])
	return float64(time.Since(start)) / 1e6
}
