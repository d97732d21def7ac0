package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// fingerprint identifies the machine a result file was measured on. The
// two calibration rows let files from different machines be normalised:
// divide a wall-clock metric by calib_ns to compare shapes, and subtract
// timer_ns per call from per-call latencies to see the op alone.
type fingerprint struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CalibNs    float64 `json:"machine.calib_ns"`
	TimerNs    float64 `json:"machine.timer_ns"`
}

func machineFingerprint() fingerprint {
	return fingerprint{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CalibNs:    calibNs(),
		TimerNs:    timerNs(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; other platforms
// report "unknown" rather than guessing.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibNs times the fixed calibration unit: one SplitMix64 step plus one
// binary search over a 32,768-entry sorted table, the two primitives every
// descent in this repository is made of. It returns ns per unit, the
// median of seven rounds.
func calibNs() float64 {
	const n = 1 << 15
	table := make([]uint64, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range table {
		x = splitmix(x)
		table[i] = x
	}
	sort.Slice(table, func(i, j int) bool { return table[i] < table[j] })
	const units = 50_000
	rounds := make([]float64, 7)
	for r := range rounds {
		start := time.Now()
		var acc uint64
		for i := 0; i < units; i++ {
			x = splitmix(x)
			acc += uint64(sort.Search(n, func(j int) bool { return table[j] >= x }))
		}
		rounds[r] = float64(time.Since(start).Nanoseconds()) / units
		calibSink += acc
	}
	return median(rounds)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// timerNs is the cost of the clock read that brackets every call: ns per
// time.Now, the median of seven rounds.
func timerNs() float64 {
	const reads = 50_000
	rounds := make([]float64, 7)
	for r := range rounds {
		start := time.Now()
		prev := start
		for i := 0; i < reads; i++ {
			prev = time.Now()
		}
		rounds[r] = float64(prev.Sub(start).Nanoseconds()) / reads
	}
	return median(rounds)
}
