package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// resultsFile collects runs of one commit for -compare: the machine and
// toolchain they ran on and each run's metrics, in the order they ran.
type resultsFile struct {
	Date    string      `json:"date"`
	CPU     string      `json:"cpu"`
	Go      string      `json:"go"`
	Commit  string      `json:"commit"`
	NProc   int         `json:"nproc"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

type runRecord struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Trace       int               `json:"trace"`
	Repetitions int               `json:"repetitions"`
	Correct     bool              `json:"correct"`
	Metrics     map[string]metric `json:"metrics"`
}

// appendRun adds one run to a results file, creating it with the
// machine description on first use.
func appendRun(path, workload string, seed int64, trace int, length time.Duration, res *result) error {
	var f resultsFile
	blob, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		f = resultsFile{
			Date: time.Now().UTC().Format(time.RFC3339), CPU: cpuModel(), Go: runtime.Version(),
			Commit: gitCommit(), NProc: runtime.NumCPU(), Seconds: length.Seconds(),
		}
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(blob, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	f.Runs = append(f.Runs, runRecord{
		Workload: workload, Seed: seed, Trace: trace, Repetitions: res.reps,
		Correct: res.Correct, Metrics: res.Metrics,
	})
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit names the commit being measured, when run inside a git
// checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// benchSpec is the part of BENCHMARK.json the comparator needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare judges every (end-to-end metric, workload) pair of NEW
// against BASE. Runs pair up in file order, so both files should come
// from the same alternating sequence of runs. A pair is:
//
//   - improved when there are at least ten pairs, NEW wins at least nine
//     in ten, and the medians differ by more than BASE's interquartile
//     range;
//   - unresolved when BASE's or NEW's interquartile range is wider than
//     the metric's bound, unless every NEW run beats every BASE run;
//   - worse when NEW's median is worse than BASE's by more than the bound;
//   - unchanged otherwise.
//
// It reports whether any pair is worse.
func runCompare(specPath, basePath, newPath string, w io.Writer) (bool, error) {
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	var base, next resultsFile
	if err := readJSON(basePath, &base); err != nil {
		return false, err
	}
	if err := readJSON(newPath, &next); err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-14s %-12s %-10s %12s %12s %8s %5s %4s\n",
		"workload", "metric", "verdict", "base_median", "new_median", "base_iqr", "pairs", "wins")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, n := values(base, wl.Name, m.Name), values(next, wl.Name, m.Name)
			if len(b) == 0 && len(n) == 0 {
				continue
			}
			v := judge(b, n, m.Better == "lower", m.Bound)
			anyWorse = anyWorse || v.verdict == "worse"
			fmt.Fprintf(w, "%-14s %-12s %-10s %12.6g %12.6g %7.2f%% %5d %4d\n",
				wl.Name, m.Name, v.verdict, v.baseMedian, v.newMedian, 100*v.baseSpread, v.pairs, v.wins)
		}
	}
	return anyWorse, nil
}

func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// values lists a metric over a file's untraced runs of a workload, in
// run order.
func values(f resultsFile, workload, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

type judgement struct {
	verdict               string
	baseMedian, newMedian float64
	baseSpread            float64 // interquartile range over median
	pairs, wins           int
}

func judge(b, n []float64, lower bool, bound float64) judgement {
	j := judgement{verdict: "unresolved", baseMedian: median(b), newMedian: median(n)}
	if len(b) < 2 || len(n) < 2 || j.baseMedian == 0 {
		return j
	}
	better := func(x, than float64) bool {
		if lower {
			return x < than
		}
		return x > than
	}
	b1, b3 := quartiles(b)
	n1, n3 := quartiles(n)
	j.baseSpread = (b3 - b1) / math.Abs(j.baseMedian)
	newSpread := (n3 - n1) / math.Abs(j.newMedian)
	j.pairs = min(len(b), len(n))
	for i := 0; i < j.pairs; i++ {
		if better(n[i], b[i]) {
			j.wins++
		}
	}
	allBetter := true
	for _, x := range n {
		for _, y := range b {
			allBetter = allBetter && better(x, y)
		}
	}
	worseBy := (j.newMedian - j.baseMedian) / math.Abs(j.baseMedian)
	if !lower {
		worseBy = -worseBy
	}
	switch {
	case j.pairs >= 10 && j.wins*10 >= 9*j.pairs &&
		better(j.newMedian, j.baseMedian) && math.Abs(j.newMedian-j.baseMedian) > b3-b1:
		j.verdict = "improved"
	case allBetter:
		j.verdict = "unchanged"
	case j.baseSpread > bound || newSpread > bound:
		j.verdict = "unresolved"
	case worseBy > bound:
		j.verdict = "worse"
	default:
		j.verdict = "unchanged"
	}
	return j
}
