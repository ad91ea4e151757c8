package main

import (
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// calRefMs is C_ref: the calibration kernel's time on the reference host
// (a 2-vCPU Intel Xeon VM). Every timing is multiplied by calRefMs over
// the kernel time measured around it, so results read in ms and ops/s at
// that reference speed.
const calRefMs = 3.9

const calLen = 1 << 15 // 256 KiB of float64

// calBuf is the kernel's fixed working set: the kernel allocates nothing
// and shares no code with the program.
var calBuf [calLen]float64

// kernelOnce fills calBuf from a fixed xorshift stream and sorts it.
func kernelOnce() time.Duration {
	start := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	for i := range calBuf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calBuf[i] = float64(x >> 11)
	}
	slices.Sort(calBuf[:])
	return time.Since(start)
}

// peakRSSMiB is the process's maximum resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTimes is the aggregate "cpu" line of /proc/stat: total jiffies and
// the share the hypervisor stole.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() (cpuTimes, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, false
	}
	var t cpuTimes
	for i := 1; i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t, true
}

// stealShare is the share of the machine's CPU time stolen between a and b.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
