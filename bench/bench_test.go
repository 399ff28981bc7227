package main

import (
	"encoding/json"
	"os"
	"testing"

	"lfi/internal/core"
)

// smallCorpus is the test scale of the errno-corpus library.
const smallCorpus = 240

// spec reads the metric names BENCHMARK.json declares.
func spec(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	for _, m := range s.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range s.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestWorkloads runs every workload once, timed and traced, at small
// scale: every declared metric is emitted, every sweep — the replica's
// included — equals the fresh-spawn oracle, and the replica's layer
// spans cover at least 95% of its wall time.
func TestWorkloads(t *testing.T) {
	endToEnd, perLayer := spec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			timed, err := runTimed(w, 3, smallCorpus, 0, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(w, 3, smallCorpus, 0, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []struct {
				res   *result
				names []string
			}{{timed, endToEnd}, {traced, perLayer}} {
				if !r.res.Correct || r.res.Attempted == 0 {
					t.Errorf("%d of %d experiments differ from the oracle", r.res.Failed, r.res.Attempted)
				}
				for _, n := range r.names {
					if _, ok := r.res.Metrics[n]; !ok {
						t.Errorf("metric %s not emitted", n)
					}
				}
				if len(r.res.Metrics) != len(r.names) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(r.res.Metrics), len(r.names))
				}
			}
			if c := traced.Metrics["trace.coverage_frac"].Value; c < 0.95 {
				t.Errorf("trace.coverage_frac = %.3f, want >= 0.95", c)
			}
		})
	}
}

// TestCorpusApp builds the full-scale errno-corpus inputs for two
// seeds: the generated application's clean run exits 0, and at small scale
// the sweep mixes handled, error-exit and crash outcomes.
func TestCorpusApp(t *testing.T) {
	for _, seed := range []int64{3, 7} {
		targets, err := buildCorpus(seed, fullCorpus, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.NewCampaign(targets[0].cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(core.DefaultSweepBudget)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status.Code != 0 || rep.Status.Signal != 0 {
			t.Errorf("seed %d: clean run exited %+v, want 0", seed, rep.Status)
		}
	}
	targets, err := buildCorpus(3, smallCorpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunExperiments(targets[0].cfg, targets[0].exps, 0, core.SweepOptions{Workers: workers, Snapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	for _, o := range []core.Outcome{core.OutcomeHandled, core.OutcomeErrorExit, core.OutcomeCrash} {
		if sum[o] == 0 {
			t.Errorf("no %s outcome in %v", o, sum)
		}
	}
}

// TestQuartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 1, 7, 3, 5, 9, 2, 8, 4, 6}, 2.75, 8.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestJudge covers each comparator verdict on a lower-is-better metric
// with a 5% bound.
func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + by
		}
		return out
	}
	for _, c := range []struct {
		name string
		b, n []float64
		want string
	}{
		{"same", steady, steady, "unchanged"},
		{"faster", steady, shift(steady, -10), "improved"},
		{"slower within bound", steady, shift(steady, 3), "unchanged"},
		{"slower beyond bound", steady, shift(steady, 8), "worse"},
		{"noisy", []float64{80, 120, 90, 110, 100, 70, 130, 100, 95, 105}, steady, "unresolved"},
	} {
		if got := judge(c.b, c.n, true, 0.05).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
