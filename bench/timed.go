package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sort"
	"time"

	"lfi/internal/core"
)

// setupBuilds is how many cold input builds setup_s takes the median of.
const setupBuilds = 5

// minSamples is the fewest experiment latencies a latency percentile is
// taken over, so that p95 has at least ten samples beyond it.
const minSamples = 200

// result is the benchmark's verdict line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// reps is how many repetitions of the workload ran.
	reps int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runTimed measures the end-to-end metrics of one workload: whole
// repetitions of its sweeps on the production executor until the run
// length has elapsed and at least minSamples experiments were timed,
// with only the two timestamp hooks installed. Rates, resident memory
// and set-up times are medians over repetitions and input builds, and
// latency percentiles are medians over pools of consecutive repetitions
// holding minSamples latencies each, so a burst of load from elsewhere
// on the machine moves them little. Every sweep's entries are then
// checked against the fresh-spawn oracle.
func runTimed(w workload, seed int64, corpusFuncs int, length time.Duration, outDir string) (*result, error) {
	start := time.Now()
	targets, err := w.build(seed, corpusFuncs, nil)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", w.name, err)
	}
	builds := []float64{time.Since(start).Seconds()}

	var seedStore, runDir string
	if w.resume {
		dir := filepath.Join(outDir, fmt.Sprintf("resume-%d", os.Getpid()))
		defer os.RemoveAll(dir)
		seedStore, runDir = filepath.Join(dir, "killed"), filepath.Join(dir, "run")
		if err := fillStore(targets[0], seedStore); err != nil {
			return nil, err
		}
	}
	sweep := func(t target) (*sweepRun, error) { return realSweep(t, workers, seedStore, runDir, false) }

	// One untimed repetition lets the heap and caches settle.
	for _, t := range targets {
		if _, err := sweep(t); err != nil {
			return nil, err
		}
	}

	// Each target's distinct entry lists and how many sweeps produced
	// each: the oracle check needs no more, and keeping every sweep's
	// entries would inflate rss_mb.
	type outcome struct {
		entries []core.SweepEntry
		sweeps  int
	}
	outcomes := make([][]outcome, len(targets))
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	var (
		reps      int
		committed int
		rates     []float64 // experiments per second of each repetition
		firsts    []float64
		samples   int
		pool      []time.Duration // latencies not yet in a percentile
		p50s      []float64
		p95s      []float64
		resident  []float64
	)
	for begin := time.Now(); reps == 0 || time.Since(begin) < length || len(p50s) == 0 && samples > 0; reps++ {
		n, wall := 0, time.Duration(0)
		for i, t := range targets {
			run, err := sweep(t)
			if err != nil {
				return nil, err
			}
			seen := false
			for j := range outcomes[i] {
				if slices.Equal(outcomes[i][j].entries, run.res.Entries) {
					outcomes[i][j].sweeps++
					seen = true
					break
				}
			}
			if !seen {
				outcomes[i] = append(outcomes[i], outcome{run.res.Entries, 1})
			}
			n += len(run.res.Entries)
			wall += run.wall
			firsts = append(firsts, run.firstSkip.Seconds())
			pool = append(pool, run.lat...)
			samples += len(run.lat)
		}
		if len(pool) >= minSamples {
			sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
			p50s = append(p50s, ms(percentile(pool, 0.50)))
			p95s = append(p95s, ms(percentile(pool, 0.95)))
			pool = pool[:0]
		}
		committed += n
		rates = append(rates, float64(n)/wall.Seconds())
		resident = append(resident, residentMB())
	}

	for len(builds) < setupBuilds {
		start := time.Now()
		if _, err := w.build(seed, corpusFuncs, nil); err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(start).Seconds())
	}

	res := &result{reps: reps}
	for i, t := range targets {
		want, err := oracle(t)
		if err != nil {
			return nil, err
		}
		for _, o := range outcomes[i] {
			res.Attempted += o.sweeps * len(want)
			res.Failed += o.sweeps * mismatches(o.entries, want)
		}
	}
	res.Correct = res.Failed == 0
	res.Metrics = map[string]metric{
		"setup_s":    {median(builds) + median(firsts), "s"},
		"exp_per_s":  {median(rates), "1/s"},
		"exp_ms_p50": {median(p50s), "ms"},
		"exp_ms_p95": {median(p95s), "ms"},
		"rss_mb":     {median(resident), "MB"},
	}
	fmt.Printf("%s: %d repetitions of %d sweep(s), %d experiments committed, %d latency samples\n",
		w.name, reps, len(targets), committed, samples)
	fmt.Printf("fail_frac %.6g frac (%d of %d)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res, nil
}

// residentMB is the Go runtime's account of the memory the process
// holds resident: everything it has mapped minus what it has returned
// to the operating system. Sampled after every repetition, its median is
// rss_mb; the process's resident high-water mark is not used because
// brief allocation bursts, caught or missed at random, make it vary by a
// third between identical runs.
func residentMB() float64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}
