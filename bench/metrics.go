package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
)

// value is one reported number. Samples is how many observations stand
// behind a median or percentile (0 for a plain count or ratio).
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type metricSet map[string]value

func (m metricSet) put(name string, v float64, unit string) { m[name] = value{Value: v, Unit: unit} }

func (m metricSet) putN(name string, v float64, unit string, n int) {
	m[name] = value{Value: v, Unit: unit, Samples: n}
}

// result is what one workload body returns.
type result struct {
	Workload string    `json:"workload"`
	Metrics  metricSet `json:"metrics"`
	// Attempted counts the operations whose outcome was checked (rounds,
	// replies, requests, and one per output check); Failed those that
	// errored, were refused or gave a wrong answer.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Exact holds the values that repeat bit for bit for a given seed
	// (θ hash, final accuracy, ...); at -seed 1 they are compared with
	// expect.json.
	Exact map[string]string `json:"exact,omitempty"`
}

func newResult(workload string) *result {
	return &result{Workload: workload, Metrics: metricSet{}, Exact: map[string]string{}}
}

// check counts one output check and records why it failed.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// percentile returns the nearest-rank p-quantile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ms(seconds float64) float64 { return seconds * 1e3 }

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseMs      float64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		mallocs:   after.Mallocs - before.Mallocs,
		bytes:     after.TotalAlloc - before.TotalAlloc,
		gcCycles:  after.NumGC - before.NumGC,
		gcPauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}
